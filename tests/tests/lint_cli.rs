//! The `lbtrust-lint` CLI's exit-status contract: 0 when no program has
//! a deny-level finding, 1 when one does, 2 on a usage, read or parse
//! error. CI's static-analysis gate is the first case over the in-tree
//! protocols.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lbtrust-lint"))
        .args(args)
        .output()
        .expect("lbtrust-lint runs")
}

fn status(out: &Output) -> i32 {
    out.status.code().expect("lbtrust-lint exits, not killed")
}

/// A file of its own under the system temp directory.
fn temp_file(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbtrust_lint_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn in_tree_programs_pass_the_deny_gate() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/programs");
    let mut programs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "sdl"))
        .map(|path| path.to_string_lossy().into_owned())
        .collect();
    programs.sort();
    assert!(!programs.is_empty(), "no .sdl under {}", dir.display());
    let mut args = vec!["--deny", "--builtin"];
    args.extend(programs.iter().map(String::as_str));
    let out = lint(&args);
    assert_eq!(status(&out), 0, "{}", String::from_utf8_lossy(&out.stdout));
}

/// `static_analysis.rs`'s unsigned-authority policy: it grants on any
/// signed claim without pinning who may make it.
#[test]
fn a_deny_level_finding_exits_1_and_names_its_line() {
    let path = temp_file(
        "unsigned.sdl",
        "At S:\np1: access(P, file1, read) :- W says good(P).\n",
    );
    let out = lint(&["--deny", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(status(&out), 1, "{stdout}");
    assert!(stdout.contains("at line 2:1"), "{stdout}");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn usage_and_read_errors_exit_2() {
    let missing = std::env::temp_dir().join("lbtrust_lint_cli_no_such_file.sdl");
    for args in [
        vec![],
        vec!["--strict"],
        vec!["--deny", missing.to_str().unwrap()],
    ] {
        let out = lint(&args);
        assert_eq!(
            status(&out),
            2,
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
