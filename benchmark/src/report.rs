//! The repository's interface: sets of workload runs (one child process
//! per run), their result files, `compare` and `selfcheck`.

use crate::json::Json;
use crate::metrics::{Better, Judge, Metric, END_TO_END};
use crate::span::Span;
use crate::workloads::WORKLOADS;
use crate::{harness, results_dir, stats, Flags};
use std::io::Write;
use std::path::Path;
use std::process::Command;

/// Registry counts every run records.
pub const EXACT_COUNTS: [&str; 7] = [
    "net.sent",
    "net.bytes_sent",
    "core.system.steps",
    "core.authz_read.misses",
    "core.authz_read.invalidations",
    "certstore.fsyncs",
    "certstore.bytes_appended_per_cert",
];

/// Those of [`EXACT_COUNTS`] that must repeat exactly for a seed on
/// `workload`: all of them, except that beside `authz_hot`'s running
/// reader thread the decision cache's misses and invalidations depend
/// on how the two threads interleave (3 688 and 3 696 misses on two runs
/// of one seed).
pub fn exact_counts(workload: &str) -> impl Iterator<Item = &'static str> + '_ {
    EXACT_COUNTS
        .into_iter()
        .filter(move |c| workload != "authz_hot" || !c.starts_with("core.authz_read."))
}

/// Writes one span per line.
pub fn write_spans(file: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(file)?);
    for (id, s) in spans.iter().enumerate() {
        let line = Json::obj([
            ("id", Json::Num(id as f64)),
            ("name", Json::Str(s.name.into())),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("op", Json::Num(s.op as f64)),
            ("thread", Json::Num(f64::from(s.thread))),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        writeln!(out, "{line}")?;
    }
    out.flush()
}

fn chosen(flags: &Flags) -> Result<Vec<&'static str>, String> {
    match flags.get("workload") {
        None => Ok(WORKLOADS.iter().map(|w| w.name).collect()),
        Some(one) => crate::workloads::find(one)
            .map(|w| vec![w.name])
            .ok_or_else(|| format!("unknown workload '{one}'")),
    }
}

/// Runs this executable's driver interface in a child process and waits
/// for it; returns its standard output.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if echo {
        let status = cmd.status().map_err(|e| e.to_string())?;
        return if status.success() {
            Ok(String::new())
        } else {
            Err(format!("{workload} seed {seed}: exit {status}"))
        };
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if output.status.code().is_some_and(|c| c <= 1) {
        Ok(stdout)
    } else {
        Err(format!(
            "{workload} seed {seed}: {}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ))
    }
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a result file records about the run that made it.
fn meta(seed: u64, runs: usize, seconds: f64) -> Json {
    let here = results_dir();
    let here = here.parent().unwrap_or(Path::new("."));
    Json::obj([
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], here)),
        ),
        ("seed", Json::Num(seed as f64)),
        ("runs_per_workload", Json::Num(runs as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)),
        ),
        (
            "threads_used",
            Json::Str("1 per workload process; 2 on authz_hot (reader + writer)".into()),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"], here))),
        (
            "build_profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "temp_dir_filesystem",
            Json::Str(crate::workloads::store::filesystem_of(&results_dir())),
        ),
        (
            "flush_policy",
            Json::Str(format!("{:?}", lbtrust::SyncPolicy::default())),
        ),
    ])
}

/// Runs `order` × `runs` child processes (seeds `seed`, `seed+1`, …) and
/// returns the set as the result file's JSON.
fn measure_set(order: &[&str], seed: u64, runs: usize, seconds: f64) -> Result<Json, String> {
    let mut sets = Vec::new();
    for workload in order {
        let mut details = Vec::new();
        for k in 0..runs as u64 {
            eprintln!("  {workload} seed {} …", seed + k);
            let stdout = child(workload, seed + k, seconds, false, false)?;
            let detail = stdout
                .lines()
                .find_map(|l| l.strip_prefix("detail "))
                .ok_or_else(|| format!("{workload}: no detail line in\n{stdout}"))?;
            details.push(Json::parse(detail)?);
        }
        sets.push(Json::obj([
            ("name", Json::Str(workload.to_string())),
            ("runs", Json::Arr(details)),
        ]));
    }
    // Always in the table's order, whatever order they ran in.
    sets.sort_by_key(|s| {
        WORKLOADS
            .iter()
            .position(|w| Some(w.name) == s.get("name").and_then(Json::str))
    });
    Ok(Json::obj([
        ("meta", meta(seed, runs, seconds)),
        ("workloads", Json::Arr(sets)),
    ]))
}

fn runs(workload: &Json) -> &[Json] {
    workload.get("runs").map_or(&[][..], Json::items)
}

/// The values of one named metric over a workload's runs.
fn values(workload: &Json, named: &Metric) -> Vec<f64> {
    runs(workload)
        .iter()
        .filter_map(|run| run.get("metrics")?.get(named.name)?.num())
        .collect()
}

fn print_set(set: &Json) {
    for workload in set.get("workloads").map_or(&[][..], Json::items) {
        let name = workload.get("name").and_then(Json::str).unwrap_or("?");
        println!("{name}");
        for named in &END_TO_END {
            let v = values(workload, named);
            if v.is_empty() {
                continue;
            }
            let (q1, q3) = stats::quartiles(&v);
            println!(
                "  {:<26} {:>16.4} {:<6} q1 {q1:.4}  q3 {q3:.4}  n {}",
                named.name,
                stats::median(&v),
                named.unit,
                v.len()
            );
        }
    }
}

fn write_set(set: &Json, file: &Path) -> Result<(), String> {
    if let Some(dir) = file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(file, format!("{set}\n")).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("written to {}", file.display());
    Ok(())
}

/// `run`: the whole set (or one workload), `--runs` processes each.
pub fn run_set(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.number("seed", 1)?;
    let runs: usize = flags.number("runs", 5)?;
    let seconds: f64 = flags.number("seconds", harness::NOMINAL_SECONDS)?;
    let set = measure_set(&chosen(flags)?, seed, runs.max(1), seconds)?;
    print_set(&set);
    let file = match flags.get("out") {
        Some(path) => path.into(),
        None => results_dir().join(format!("run-{seed}.json")),
    };
    write_set(&set, &file)?;
    Ok(all_correct(&set))
}

fn all_correct(set: &Json) -> bool {
    set.get("workloads")
        .map_or(&[][..], Json::items)
        .iter()
        .flat_map(runs)
        .all(|run| run.get("failed").and_then(Json::num) == Some(0.0))
}

/// `trace`: each workload's traced run, its report passed through.
pub fn trace_set(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.number("seed", 1)?;
    let seconds: f64 = flags.number("seconds", harness::NOMINAL_SECONDS)?;
    for workload in chosen(flags)? {
        child(workload, seed, seconds, true, true)?;
    }
    Ok(true)
}

/// One row of `compare`.
struct Row {
    verdict: &'static str,
    /// Whether `selfcheck` accepts the row.
    agrees: bool,
    text: String,
}

fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

fn judge(named: &Metric, a: &[f64], b: &[f64]) -> Row {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let ((a1, a3), (b1, b3)) = (stats::quartiles(a), stats::quartiles(b));
    let worse = if med_a == 0.0 {
        med_b - med_a
    } else {
        worse_by(named.better, med_a, med_b)
    };
    let (verdict, agrees) = match named.judge {
        Judge::Exact => match (a == b, worse > 0.0) {
            (true, _) => ("unchanged", true),
            (false, true) => ("regressed", false),
            (false, false) => ("improved", false),
        },
        Judge::Bound(bound) | Judge::Central(bound) => {
            let central = matches!(named.judge, Judge::Central(_));
            let spread = ((a3 - a1) / med_a).max((b3 - b1) / med_b);
            let b_always_better = a
                .iter()
                .all(|x| b.iter().all(|y| worse_by(named.better, *x, *y) < 0.0));
            let wins = a
                .iter()
                .zip(b)
                .filter(|(x, y)| worse_by(named.better, **x, **y) < 0.0)
                .count();
            // The rule for a gain needs ten pairs to mean anything.
            let pairs = a.len().min(b.len());
            let clear_gain = pairs >= 10 && -worse > (a3 - a1) / med_a && wins * 10 >= pairs * 9;
            let verdict = match () {
                () if spread > bound && b_always_better => "improved",
                () if spread > bound => "unresolved",
                () if worse > bound => "regressed",
                () if clear_gain => "improved",
                () => "unchanged",
            };
            // Two sets of runs of the same code differ in a central
            // statistic by as much as the host's speed did meanwhile.
            (verdict, central || worse.abs() <= bound)
        }
    };
    let bound = named
        .judge
        .bound()
        .map_or("exact".to_string(), |b| b.to_string());
    let ratio = if med_a == 0.0 {
        "-".to_string()
    } else {
        format!("x{:.3} of A", med_b / med_a)
    };
    Row {
        verdict,
        agrees,
        text: format!(
            "{med_a:>14.4} [{a1:.4} {a3:.4}]  {med_b:>14.4} [{b1:.4} {b3:.4}]  {ratio:<11}  bound {bound:<5}",
        ),
    }
}

/// What `compare` found over all rows.
struct Compared {
    /// Every row agrees in `selfcheck`'s sense.
    agree: bool,
    /// Some row of B is worse than A beyond its bound, or an exact count
    /// or the generated inputs changed.
    regressed: bool,
}

/// Prints one row per (end-to-end metric, workload).
fn compare(a: &Json, b: &Json) -> Compared {
    println!("metric @ workload: median A [q1 q3]  median B [q1 q3]  ratio B/A  bound  verdict");
    let (mut agree, mut regressed) = (true, false);
    let sets_b = b.get("workloads").map_or(&[][..], Json::items);
    for wa in a.get("workloads").map_or(&[][..], Json::items) {
        let name = wa.get("name").and_then(Json::str).unwrap_or("?");
        let Some(wb) = sets_b
            .iter()
            .find(|w| w.get("name").and_then(Json::str) == Some(name))
        else {
            continue;
        };
        for named in &END_TO_END {
            let (va, vb) = (values(wa, named), values(wb, named));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let row = judge(named, &va, &vb);
            agree &= row.agrees;
            regressed |= row.verdict == "regressed";
            println!(
                "{:<26} @ {name:<15} {}  {}",
                named.name, row.text, row.verdict
            );
        }
        // The generated inputs and the registry counts are compared run
        // by run, and shown only where they differ.
        let inputs = |w: &Json| -> Vec<Option<String>> {
            let fnv = |r: &Json| Some(r.get("inputs_fnv")?.str()?.to_string());
            runs(w).iter().map(fnv).collect()
        };
        if inputs(wa) != inputs(wb) {
            (agree, regressed) = (false, true);
            println!(
                "{:<26} @ {name:<15} the generated inputs differ  changed",
                "inputs_fnv"
            );
        }
        for count in exact_counts(name) {
            let of = |w: &Json| -> Vec<Option<f64>> {
                let value = |r: &Json| r.get("counts")?.get(count)?.num();
                runs(w).iter().map(value).collect()
            };
            let (ca, cb) = (of(wa), of(wb));
            if ca != cb {
                (agree, regressed) = (false, true);
                println!("{count:<26} @ {name:<15} counts differ: {ca:?} vs {cb:?}  changed");
            }
        }
    }
    Compared { agree, regressed }
}

fn read_set(file: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
}

/// `compare A.json B.json`: exits 1 when B regressed on any row.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (read_set(a)?, read_set(b)?);
    for (label, set) in [("A", &a), ("B", &b)] {
        println!("{label}: {}", set.get("meta").unwrap_or(&Json::Null));
    }
    Ok(!compare(&a, &b).regressed)
}

/// `selfcheck`: the whole set twice, in opposite workload orders, and
/// the two must agree.
pub fn selfcheck(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.number("seed", 1)?;
    let runs: usize = flags.number("runs", 3)?;
    let seconds: f64 = flags.number("seconds", harness::NOMINAL_SECONDS)?;
    let forward: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let backward: Vec<&str> = forward.iter().rev().copied().collect();
    let a = measure_set(&forward, seed, runs.max(1), seconds)?;
    let b = measure_set(&backward, seed, runs.max(1), seconds)?;
    write_set(&a, &results_dir().join(format!("selfcheck-{seed}-a.json")))?;
    write_set(&b, &results_dir().join(format!("selfcheck-{seed}-b.json")))?;
    let agree = compare(&a, &b).agree && all_correct(&a) && all_correct(&b);
    println!(
        "selfcheck: {}",
        if agree {
            "the two sets agree within every bound, exact counts are identical, nothing failed"
        } else {
            "the two sets DISAGREE (rows marked regressed / improved / unresolved beyond their bound, or failed operations)"
        }
    );
    Ok(agree)
}
