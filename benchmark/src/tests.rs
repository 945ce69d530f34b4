//! Every workload at a tiny size: its checks pass, the same seed gives
//! the same inputs and the same exact counts, another seed gives other
//! inputs. And `/BENCHMARK.json` is what the metric tables say.

use crate::harness::{Ctx, Outcome};
use crate::workloads::{authz, fig2, revoke, store};
use crate::{metrics, report, results_dir};
use lbtrust::AuthScheme;
use std::time::Duration;

/// The workloads by name, each at a size that runs in well under a
/// second once the dependencies are optimised.
fn tiny(name: &str, seed: u64) -> Outcome {
    let mut ctx = Ctx::new(seed, 1.0, false);
    let scratch = results_dir();
    std::fs::create_dir_all(&scratch).expect("results directory");
    match name {
        "fig2_plaintext" => fig2::run_sized(&mut ctx, AuthScheme::Plaintext, 20, 2),
        "fig2_hmac" => fig2::run_sized(&mut ctx, AuthScheme::HmacSha1, 20, 2),
        "fig2_rsa" => fig2::run_sized(&mut ctx, AuthScheme::Rsa, 5, 2),
        "authz_cold" => authz::cold_sized(&mut ctx, 32, 1, 2, 1),
        "authz_hot" => authz::hot_sized(&mut ctx, 32, 1, 4, Duration::from_millis(20)),
        "revoke_fanout" => revoke::run_sized(&mut ctx, 2, 8, 1, 3),
        "store_durable" => store::run_sized(&mut ctx, &scratch, 2, 32, 2, 2),
        other => panic!("no tiny size for {other}"),
    }
}

/// What must repeat exactly for a seed.
fn fingerprint(workload: &str, out: &Outcome) -> Vec<(String, u64)> {
    let mut print = vec![("inputs_fnv".to_string(), out.inputs_fnv)];
    print.extend(report::exact_counts(workload).map(|c| {
        (
            c.to_string(),
            out.layer.get(c).copied().unwrap_or(0.0).to_bits(),
        )
    }));
    for exact in ["says_wire_bytes_per_msg", "disk_bytes_per_cert"] {
        if let Some(v) = out.e2e.get(exact) {
            print.push((exact.to_string(), v.to_bits()));
        }
    }
    print
}

#[test]
fn every_workload_passes_its_checks_and_repeats_for_a_seed() {
    for workload in &crate::workloads::WORKLOADS {
        let name = workload.name;
        let first = tiny(name, 7);
        assert!(first.checks.attempted > 0, "{name} attempted nothing");
        assert_eq!(first.checks.failed, 0, "{name}: {:?}", first.checks.reasons);
        assert!(first.e2e[workload.ops] > 0.0, "{name}: {}", workload.ops);
        for (metric, value) in &first.e2e {
            metrics::end_to_end(metric);
            // A reopen of 32 certificates is all key generation, and
            // `reopen_s` has that taken off: anything near zero.
            assert!(
                *value > 0.0 || metric.starts_with("reopen_s"),
                "{name}: {metric} = {value}"
            );
        }
        assert!(!first.setup_s.is_empty(), "{name} booked no round");

        let again = tiny(name, 7);
        assert_eq!(
            fingerprint(name, &first),
            fingerprint(name, &again),
            "{name}, same seed"
        );
        let other = tiny(name, 8);
        assert_eq!(other.checks.failed, 0, "{name}: {:?}", other.checks.reasons);
        assert_ne!(first.inputs_fnv, other.inputs_fnv, "{name}, other seed");
    }
}

#[test]
fn store_durable_leaves_no_temporary_directory() {
    let before = leftovers();
    tiny("store_durable", 9);
    assert_eq!(leftovers(), before);
}

fn leftovers() -> Vec<String> {
    let mine = format!("tmp-{}-", std::process::id());
    std::fs::read_dir(results_dir())
        .map(|dir| {
            dir.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with(&mine))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn benchmark_json_is_what_the_tables_say() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(file).expect("/BENCHMARK.json");
    assert_eq!(
        on_disk,
        metrics::benchmark_json(),
        "regenerate with `lbtrust-benchmark describe json > BENCHMARK.json`"
    );
}

#[test]
fn tables_meet_the_driver_contract() {
    let made_of = |s: &str, extra: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    let word = |s: &str, extra: &str| {
        made_of(s, extra) && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    };
    let mut names = std::collections::HashSet::new();
    for (name, unit, _, source) in metrics::DRIVER_COLUMNS {
        assert!(word(name, "_.-") && name.len() <= 64, "{name}");
        assert!(made_of(unit, "_/%.-") && unit.len() <= 16, "{unit}");
        let bound = metrics::driver_bound(name, source);
        assert!(bound > 0.0 && bound <= 0.25, "{name}");
        assert!(names.insert(name), "{name} twice");
    }
    for w in &crate::workloads::WORKLOADS {
        // The metrics behind a workload's two columns exist, agree with
        // the column's direction, and are different measurements.
        assert_eq!(metrics::end_to_end(w.ops).better, metrics::Better::Higher);
        assert_eq!(
            metrics::end_to_end(w.latency.0).better,
            metrics::Better::Lower
        );
    }
    for m in &metrics::PER_LAYER {
        assert!(word(m.name, "_.-") && m.name.len() <= 64, "{}", m.name);
        assert!(made_of(m.unit, "_/%.-") && m.unit.len() <= 16, "{}", m.unit);
        assert!(names.insert(m.name), "{} twice", m.name);
    }
    assert!(metrics::PER_LAYER.len() <= 128);
    for w in &crate::workloads::WORKLOADS {
        assert!(word(w.name, "_.-") && names.insert(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    assert!(metrics::benchmark_json().len() <= 64 * 1024);
}
