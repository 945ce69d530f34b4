//! `lbtrust-lint` — the static-analysis CLI over SeNDlog/LBTrust
//! programs.
//!
//! Runs the `lbtrust-analysis` passes (dependency lints, authority
//! flow, communication amplification) over each program given on the
//! command line and prints every finding with its severity and source
//! position. Files whose first non-whitespace token is an `At <Var>:`
//! header are treated as SeNDlog and translated (line-preservingly)
//! before analysis, so positions refer to the SeNDlog source.
//!
//! Usage: `lbtrust-lint [--deny] [--builtin] [file.sdl ...]`
//!
//! * `--builtin` — also lint the three in-tree protocols
//!   (REACHABILITY, PATH_VECTOR, REV_GOSSIP) exactly as the runtime
//!   loads them (gossip on its private `gsays` channel);
//! * `--deny` — strict mode: every lint at `Deny`.
//!
//! Exit status: 0 when no program has a deny-level finding, 1 when any
//! does, 2 on usage/read/parse errors. This is the workspace CI gate:
//! `cargo run -p lbtrust-tests --bin lbtrust-lint -- --deny --builtin
//! examples/programs/*.sdl`; `tests/lint_cli.rs` pins the three statuses.

use lbtrust_analysis::{analyze, Analysis, AnalyzerConfig, LintLevel};
use lbtrust_datalog::parse_program;
use lbtrust_sendlog::{rev_gossip_program, sendlog_to_lbtrust, PATH_VECTOR, REACHABILITY};

fn main() {
    let mut config = AnalyzerConfig::default();
    let mut builtin = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny" => config = AnalyzerConfig::strict(),
            "--builtin" => builtin = true,
            "--help" | "-h" => {
                println!("usage: lbtrust-lint [--deny] [--builtin] [file.sdl ...]");
                return;
            }
            flag if flag.starts_with('-') => {
                eprintln!("lbtrust-lint: unknown flag `{flag}`");
                std::process::exit(2);
            }
            path => paths.push(path.to_string()),
        }
    }
    if !builtin && paths.is_empty() {
        eprintln!("usage: lbtrust-lint [--deny] [--builtin] [file.sdl ...]");
        std::process::exit(2);
    }

    let mut programs: Vec<(String, String)> = Vec::new();
    if builtin {
        for (name, src) in [("REACHABILITY", REACHABILITY), ("PATH_VECTOR", PATH_VECTOR)] {
            programs.push((format!("<builtin {name}>"), translate_or_die(name, src)));
        }
        match rev_gossip_program() {
            Ok(src) => programs.push(("<builtin REV_GOSSIP>".to_string(), src)),
            Err(e) => die(&format!("translating REV_GOSSIP: {e}")),
        }
    }
    for path in paths {
        let src = match std::fs::read_to_string(&path) {
            Ok(src) => src,
            Err(e) => return die(&format!("reading {path}: {e}")),
        };
        let src = if src.trim_start().starts_with("At ") {
            translate_or_die(&path, &src)
        } else {
            src
        };
        programs.push((path, src));
    }

    let mut denied = false;
    for (name, src) in &programs {
        let program = match parse_program(src) {
            Ok(p) => p,
            Err(e) => return die(&format!("parsing {name}: {e}")),
        };
        let analysis = analyze(&program, &config);
        denied |= report(name, &analysis);
    }
    std::process::exit(i32::from(denied));
}

/// Prints one program's findings; returns whether any was deny-level.
fn report(name: &str, analysis: &Analysis) -> bool {
    let visible: Vec<_> = analysis
        .diagnostics
        .iter()
        .filter(|d| d.level >= LintLevel::Warn)
        .collect();
    println!(
        "{name}: {} finding{}",
        visible.len(),
        if visible.len() == 1 { "" } else { "s" },
    );
    for d in &visible {
        println!("  {d}");
    }
    analysis.has_denials()
}

fn translate_or_die(name: &str, src: &str) -> String {
    match sendlog_to_lbtrust(src) {
        Ok(p) => p.lbtrust_src,
        Err(e) => {
            die(&format!("translating {name}: {e}"));
            unreachable!()
        }
    }
}

fn die(msg: &str) {
    eprintln!("lbtrust-lint: {msg}");
    std::process::exit(2);
}
