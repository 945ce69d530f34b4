//! The LBTrust benchmark. Two interfaces over the same workloads:
//!
//! * the driver's — `--workload W --seed N --seconds S --trace 0|1` —
//!   runs one workload in this process and prints one JSON result line;
//! * the repository's — `run`, `trace`, `compare`, `selfcheck` — runs
//!   sets of workloads, one child process per workload run, and keeps
//!   result files under `benchmark/results/`.

mod gen;
mod harness;
mod json;
mod metrics;
mod micro;
mod report;
mod span;
mod stats;
mod workloads;

#[cfg(test)]
mod tests;

use harness::{Ctx, Outcome};
use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

const USAGE: &str = "\
usage: lbtrust-benchmark --workload W --seed N --seconds S --trace 0|1
       lbtrust-benchmark run [--seed N] [--runs K] [--seconds S] [--workload W] [--out FILE]
       lbtrust-benchmark trace [--seed N] [--seconds S] [--workload W]
       lbtrust-benchmark compare A.json B.json
       lbtrust-benchmark selfcheck [--seed N] [--runs K] [--seconds S]
       lbtrust-benchmark describe [json]";

/// `--name value` pairs after the subcommand.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            let name = name
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{name}'"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value '{v}'")),
        }
    }
}

/// Where result files and `store_durable`'s temporary directories go:
/// `results/` beside this package's manifest, inside the checkout.
pub fn results_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("results")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| report::run_set(&f)),
        Some("trace") => Flags::parse(&args[1..]).and_then(|f| report::trace_set(&f)),
        Some("compare") if args.len() == 3 => {
            report::compare_files(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("selfcheck") => Flags::parse(&args[1..]).and_then(|f| report::selfcheck(&f)),
        Some("describe") => {
            let json = args.get(1).is_some_and(|a| a == "json");
            print!(
                "{}",
                if json {
                    metrics::benchmark_json()
                } else {
                    metrics::describe()
                }
            );
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => Flags::parse(&args).and_then(|f| single(&f)),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// The driver's interface: one workload, in this process.
fn single(flags: &Flags) -> Result<bool, String> {
    let workload = flags.get("workload").ok_or(USAGE)?;
    let workload =
        workloads::find(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let seed: u64 = flags.number("seed", 1)?;
    let seconds: f64 = flags.number("seconds", harness::NOMINAL_SECONDS)?;
    let scratch = results_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    match flags.number("trace", 0u8)? {
        0 => untraced(workload, seed, seconds, &scratch),
        _ => traced(workload, seed, seconds, &scratch),
    }
}

fn execute(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
) -> (Ctx, Outcome, f64) {
    let mut ctx = Ctx::new(seed, seconds, traced);
    let started = Instant::now();
    let mut out = workloads::run(workload.name, &mut ctx, scratch).expect("workload of the table");
    out.finish_layers();
    let (best, median) = out.setup_s();
    out.e2e.insert("setup_s", best);
    out.e2e.insert("setup_s_p50", median);
    out.e2e.insert(
        "failed_share",
        out.checks.failed as f64 / out.checks.attempted.max(1) as f64,
    );
    (ctx, out, started.elapsed().as_secs_f64())
}

/// The driver's columns for this run, or which one the run was too
/// short to fill.
fn driver_columns(workload: &Workload, out: &Outcome) -> Result<Vec<(String, Json)>, String> {
    metrics::DRIVER_COLUMNS
        .iter()
        .map(|&(name, unit, _, source)| {
            metrics::driver_value(source, name, workload, &out.e2e)
                .map(|value| (name.to_string(), measured(value, unit)))
                .ok_or_else(|| {
                    format!(
                        "{}: too few samples for {name} (a percentile needs ten beyond it); use --seconds {}",
                        workload.name,
                        metrics::RUN_SECONDS
                    )
                })
        })
        .collect()
}

fn result_line(out: &Outcome, metrics: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.checks.failed == 0)),
        ("attempted", Json::Num(out.checks.attempted as f64)),
        ("failed", Json::Num(out.checks.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn measured(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

fn report_failures(out: &Outcome) {
    for why in &out.checks.reasons {
        println!("FAILED  {why}");
    }
}

/// `--trace 0`: the end-to-end run.
fn untraced(workload: &Workload, seed: u64, seconds: f64, scratch: &Path) -> Result<bool, String> {
    let (_, mut out, wall_s) = execute(workload, seed, seconds, false, scratch);
    out.e2e.insert("peak_rss_mb", harness::peak_rss_mb());
    let columns = driver_columns(workload, &out)?;

    let name = workload.name;
    println!("{name}  seed {seed}  {seconds} s nominal  wall {wall_s:.2} s");
    for m in &metrics::END_TO_END {
        if let Some(value) = out.e2e.get(m.name) {
            let samples = out
                .samples
                .get(m.name)
                .map_or(String::new(), |n| format!("  ({n} samples)"));
            println!("  {:<26} {value:>16.4} {}{samples}", m.name, m.unit);
        }
    }
    report_failures(&out);

    // Everything the set commands keep, on one line for them to parse.
    let counts = report::EXACT_COUNTS.iter().map(|name| {
        (
            *name,
            Json::Num(out.layer.get(name).copied().unwrap_or(0.0)),
        )
    });
    let detail = Json::obj([
        ("workload", Json::Str(name.into())),
        ("seed", Json::Num(seed as f64)),
        ("attempted", Json::Num(out.checks.attempted as f64)),
        ("failed", Json::Num(out.checks.failed as f64)),
        ("wall_s", Json::Num(wall_s)),
        ("inputs_fnv", Json::Str(format!("{:016x}", out.inputs_fnv))),
        (
            "metrics",
            Json::obj(out.e2e.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        (
            "samples",
            Json::obj(out.samples.iter().map(|(k, v)| (*k, Json::Num(*v as f64)))),
        ),
        ("counts", Json::obj(counts)),
        (
            "notes",
            Json::obj(out.notes.iter().map(|(k, v)| (*k, Json::Str(v.clone())))),
        ),
    ]);
    println!("detail {detail}");
    println!("{}", result_line(&out, columns));
    Ok(out.checks.failed == 0)
}

/// `--trace 1`: the workload once untraced and once under spans and
/// phase timing (half the run length each, so their ratio is the
/// tracing overhead), then every layer's micro section.
fn traced(workload: &Workload, seed: u64, seconds: f64, scratch: &Path) -> Result<bool, String> {
    let (_, plain, plain_wall_s) = execute(workload, seed, seconds / 2.0, false, scratch);
    let (ctx, mut out, traced_wall_s) = execute(workload, seed, seconds / 2.0, true, scratch);
    out.checks.attempted += plain.checks.attempted;
    out.checks.failed += plain.checks.failed;
    out.checks.reasons.extend(plain.checks.reasons);

    let spans = ctx.tracer.spans();
    let mut layer: BTreeMap<&str, f64> = micro::run(seed, scratch);
    layer.extend(out.layer.iter().map(|(k, v)| (*k, *v)));
    for exact in ["says_wire_bytes_per_msg", "disk_bytes_per_cert"] {
        layer.insert(exact, out.e2e.get(exact).copied().unwrap_or(0.0));
    }
    layer.insert(
        "obs.trace_overhead_pct",
        (plain.e2e[workload.ops] / out.e2e[workload.ops] - 1.0) * 100.0,
    );
    layer.insert(
        "obs.span_coverage_pct",
        span::top_level_seconds(spans) / traced_wall_s * 100.0,
    );
    layer.insert("obs.spans", spans.len() as f64);

    let name = workload.name;
    println!(
        "{name}  seed {seed}  traced  wall {traced_wall_s:.2} s (untraced {plain_wall_s:.2} s)"
    );
    println!("  self time by span (s), traced run:");
    for (name, own) in span::self_times(spans) {
        println!("    {name:<34} {own:>10.4}");
    }
    for m in &metrics::PER_LAYER {
        let value = layer.get(m.name).copied().unwrap_or(0.0);
        println!("  {:<40} {value:>16.4} {}", m.name, m.unit);
    }
    report_failures(&out);
    let file = scratch.join(format!("trace-{name}-{seed}.jsonl"));
    report::write_spans(&file, spans).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("  spans written to {}", file.display());

    let metrics = metrics::PER_LAYER
        .iter()
        .map(|m| {
            let value = layer.get(m.name).copied().unwrap_or(0.0);
            (m.name.to_string(), measured(value, m.unit))
        })
        .collect();
    println!("{}", result_line(&out, metrics));
    Ok(out.checks.failed == 0)
}
