//! What every workload shares: the run context, operation checks,
//! round timing, and the per-layer counters read back from the obs
//! registry the program already fills.

use crate::span::Tracer;
use crate::stats;
use lbtrust::net::NetworkConfig;
use lbtrust::System;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The run length the workload sizes are stated for, which is the one
/// `/BENCHMARK.json` asks the driver for; `--seconds` scales every
/// repetition or round count linearly from here.
pub const NOMINAL_SECONDS: f64 = crate::metrics::RUN_SECONDS as f64;

/// The seed of every `System`'s key generation (see [`Ctx::system`]).
pub const KEY_SEED: u64 = 2009;

/// One workload run's inputs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The traced run: spans on, `with_phase_timing(true)`.
    pub traced: bool,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            traced,
            tracer: Tracer::new(traced, Instant::now()),
        }
    }

    /// `base` repetitions at the nominal run length, scaled to
    /// `--seconds`, never below `min`.
    pub fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.seconds / NOMINAL_SECONDS).round() as usize).max(min)
    }

    /// A default-configured `System`: shards 1, eager sync, RSA 1024,
    /// a perfect network. Every one is built from [`KEY_SEED`], not from
    /// `--seed`: how long an RSA key takes to generate depends on its
    /// seed (the prime search runs 45–90 ms for two keys), and that
    /// would be input variance booked to `setup_s`. It also lets a
    /// certificate issued in one `System` verify in the next, since
    /// principals of the same name regenerate the same key.
    pub fn system(&self) -> System {
        System::with_network(NetworkConfig::default(), KEY_SEED).with_phase_timing(self.traced)
    }
}

/// Runs `f` and says how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Operations attempted and failed, with the first few reasons kept
/// for the report.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checks {
    /// Counts one operation; `why` is rendered only on failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Counts a failure of an operation already counted as attempted
    /// (or of the run as a whole).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    /// Per round: wall time outside the timed regions.
    pub setup_s: Vec<f64>,
    /// The end-to-end metrics native to this workload, by their name in
    /// [`crate::metrics::END_TO_END`].
    pub e2e: BTreeMap<&'static str, f64>,
    /// Sample count behind each latency or rate.
    pub samples: BTreeMap<&'static str, u64>,
    /// Per-layer numbers of this workload (registry counters, phase
    /// times, reader histogram), summed over rounds.
    pub layer: BTreeMap<&'static str, f64>,
    /// FNV-1a over the generated inputs, to show seed → inputs.
    pub inputs_fnv: u64,
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Books one round that began at `started` and spent `timed` inside
    /// timed regions (and signing certificates, which only the first
    /// round does); the rest is set-up.
    pub fn round(&mut self, started: Instant, timed: Duration) {
        self.setup_s
            .push(started.elapsed().saturating_sub(timed).as_secs_f64());
    }

    pub fn add_layer(&mut self, name: &'static str, value: f64) {
        *self.layer.entry(name).or_insert(0.0) += value;
    }

    /// Folds a finished round's `System` into the per-layer counters.
    pub fn absorb_system(&mut self, sys: &System) {
        let snap = sys.obs_registry().snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        let total_ms = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e6);
        let cache = sys.verify_cache_stats();
        for (name, value) in [
            ("net.sent", counter("net.sent")),
            ("net.bytes_sent", counter("net.bytes_sent")),
            ("core.system.steps", sys.stats().steps as f64),
            ("core.system.step_ms", total_ms("quiesce.step_ns")),
            ("core.system.fixpoint_ms", total_ms("quiesce.fixpoint_ns")),
            ("core.system.delivery_ms", total_ms("quiesce.delivery_ns")),
            (
                "core.system.export_drain_ms",
                total_ms("quiesce.export_drain_ns"),
            ),
            (
                "core.system.group_commit_ms",
                total_ms("quiesce.group_commit_ns"),
            ),
            ("core.system.publish_ms", total_ms("snapshot.publish_ns")),
            (
                "core.authz_read.publishes",
                snap.histogram("snapshot.publish_ns")
                    .map_or(0.0, |h| h.count as f64),
            ),
            ("core.authz_read.hits", counter("authz.cache_hits")),
            ("core.authz_read.misses", counter("authz.cache_misses")),
            (
                "core.authz_read.invalidations",
                counter("authz.cache_invalidations"),
            ),
            ("certstore.verify_cache_hits", cache.hits as f64),
            ("certstore.verify_cache_misses", cache.misses as f64),
            ("certstore.fsyncs", sys.fsyncs() as f64),
        ] {
            self.add_layer(name, value);
        }
    }

    /// Derives the ratios once every round is in.
    pub fn finish_layers(&mut self) {
        let get = |o: &Outcome, k: &str| o.layer.get(k).copied().unwrap_or(0.0);
        let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
        let hit_rate = ratio(
            get(self, "core.authz_read.hits"),
            get(self, "core.authz_read.misses"),
        );
        let verify_rate = ratio(
            get(self, "certstore.verify_cache_hits"),
            get(self, "certstore.verify_cache_misses"),
        );
        let publish_ms =
            get(self, "core.system.publish_ms") / get(self, "core.authz_read.publishes").max(1.0);
        self.layer.insert("core.authz_read.publish_ms", publish_ms);
        self.layer.insert("core.authz_read.hit_rate", hit_rate);
        self.layer
            .insert("certstore.verify_cache_hit_rate", verify_rate);
    }

    /// One round's set-up time: the least disturbed round's and the
    /// median round's.
    pub fn setup_s(&self) -> (f64, f64) {
        (stats::best(&self.setup_s), stats::median(&self.setup_s))
    }
}

/// FNV-1a, for the inputs fingerprint.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(
        if hash == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            hash
        },
        |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3),
    )
}

/// `VmHWM` of this process in MiB (0.0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
