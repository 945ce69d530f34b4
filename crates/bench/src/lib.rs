//! # lbtrust-bench — the ablations `benchmark/` does not cover
//!
//! The repository's benchmark is the standalone `benchmark/` package:
//! Figure 2, `authorize()`, revocation and durable-store workloads end
//! to end, and every layer under them (`crypto.*`, `datalog.*`,
//! `certstore.*`, …) timed by its `micro` module. What stays here are
//! the criterion benches that sweep an axis it does not — gossip loss
//! and partitions, compaction history, shard count, store-size ratio —
//! each writing a `BENCH_*.json`, plus the magic-sets ablation
//! ([`workloads`]) and the `lbtrust-lint` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workloads;

/// Appends a line to the same `target/criterion/summary.txt` the
/// criterion shim writes, so per-bench summaries (parallel scaling,
/// compaction footprints, store stats) ride the single CI artifact.
/// The target directory is found from the executable's own path, since
/// cargo runs bench binaries with the *package* directory as cwd.
/// Best-effort: benches must not fail because a summary file could not
/// be written.
pub fn persist_line(line: &str) {
    use std::io::Write;
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.ancestors()
                .find(|p| p.file_name().is_some_and(|n| n == "target"))
                .map(|t| t.join("criterion"))
        })
        .unwrap_or_else(|| std::path::Path::new("target").join("criterion"));
    println!("{line}");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("summary.txt"))
    {
        let _ = writeln!(f, "{line}");
    }
}
