//! The metric tables: what `/BENCHMARK.json` declares, what `compare`
//! and `selfcheck` judge by, and what the README documents. A test
//! keeps `/BENCHMARK.json` equal to these tables.

use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How an end-to-end metric is judged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Judge {
    /// May worsen by this share of the parent's median; two sets of runs
    /// of the same code must agree within it (`selfcheck`).
    Bound(f64),
    /// The same bound for `compare`, but a statistic over a whole run,
    /// which carries the host's speed changes: two sets of runs of the
    /// same code need not agree in it, so `selfcheck` shows the row and
    /// lets it pass.
    Central(f64),
    /// A count that repeats exactly for a seed; any change is reported.
    Exact,
}

impl Judge {
    pub fn bound(self) -> Option<f64> {
        match self {
            Judge::Bound(b) | Judge::Central(b) => Some(b),
            Judge::Exact => None,
        }
    }
}

/// One end-to-end metric. A workload reports the ones native to it; a
/// metric absent from a workload is absent, not zero.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub judge: Judge,
    pub what: &'static str,
}

/// The least disturbed of many like-for-like units of work: what
/// repeats on this host, with ten-seed spreads of 1–11 % (see the
/// README's "Baseline"), so 0.25 is what it can be held to.
const FLOOR: Judge = Judge::Bound(0.25);
/// A median, mean or tail percentile over a whole run.
const CENTRAL: Judge = Judge::Central(0.25);

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    judge: Judge,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        judge,
        what,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [Metric; 25] = [
    metric("setup_s", "s", Lower, Judge::Bound(0.25), "wall time of a round outside its timed regions (key generation, program load and preflight, import, deployment quiescence, checks; not signing the certificates, which only round 0 does): the least disturbed round"),
    metric("setup_s_p50", "s", Lower, CENTRAL, "the same, median round"),
    // fig2_*
    metric("says_msgs_per_s", "1/s", Higher, CENTRAL, "messages exported, signed, shipped, verified, imported and visible at bob per second: N over the median repetition"),
    metric("says_msgs_per_s_best", "1/s", Higher, FLOOR, "the same over the fastest repetition"),
    metric("says_one_ms_p50", "ms", Lower, CENTRAL, "one says message on the otherwise idle pair, from assert_fact at alice to quiescence with it visible at bob (Figure 2 at x = 1): median"),
    metric("says_one_ms_best", "ms", Lower, FLOOR, "the same, fastest message"),
    metric("says_wire_bytes_per_msg", "B", Lower, Judge::Exact, "net_stats().bytes_sent over messages"),
    // authz_*
    metric("authz_qps", "1/s", Higher, CENTRAL, "reader decisions per second: authz_cold, the median 8-miss chunk; authz_hot, all decisions over the reader's time, beside the writer and between its waves"),
    metric("authz_qps_best", "1/s", Higher, FLOOR, "authz_cold, the fastest 8-miss chunk; authz_hot, the reader's rate while a wave was in flight (revoke, invalidation, publish, version bump), over the wave it slowed least"),
    metric("authz_ms_p50", "ms", Lower, CENTRAL, "median latency of all uncached decisions of the run"),
    metric("authz_ms_p99", "ms", Lower, CENTRAL, "99th percentile of the same (present once 1 000 samples leave ten beyond it)"),
    metric("authz_serial_ms_p50", "ms", Lower, CENTRAL, "one System::authorize call, the serial uncached path, over the same mix of goals: median 8-call chunk"),
    metric("authz_serial_ms_best", "ms", Lower, FLOOR, "the same, fastest chunk"),
    // revocation
    metric("revoke_to_deny_ms_p50", "ms", Lower, CENTRAL, "revoke_certificate call, run_to_quiescence, first deny from the last-registered receiver's reader: median (on authz_hot timed from when the wave was due)"),
    metric("revoke_to_deny_ms_p90", "ms", Lower, CENTRAL, "90th percentile of the same (present once 100 samples leave ten beyond it)"),
    metric("revoke_to_deny_ms_best", "ms", Lower, FLOOR, "the same, fastest revocation"),
    metric("fanout_imports_per_s", "1/s", Higher, CENTRAL, "certificates issued, imported at all 8 receivers, quiesced and granted by the last receiver's reader per second: median replacement"),
    metric("fanout_imports_per_s_best", "1/s", Higher, FLOOR, "the same, fastest replacement"),
    // store_durable
    metric("import_certs_per_s", "1/s", Higher, CENTRAL, "certificates verified, appended, fsynced and granted by the reader per second, over filling one store from empty: per bundle position the median round"),
    metric("import_certs_per_s_best", "1/s", Higher, FLOOR, "the same, per bundle position the fastest round"),
    metric("reopen_s", "s", Lower, CENTRAL, "open_persistent, both principals (log replay), policy, quiescence, first correct decision: median reopen, less the median of the two key generations timed alone"),
    metric("reopen_s_best", "s", Lower, FLOOR, "the same, fastest reopen less the fastest key generations"),
    metric("disk_bytes_per_cert", "B", Lower, Judge::Bound(0.01), "bytes under the store directory after imports and revocations over certificates imported"),
    // every workload
    metric("peak_rss_mb", "MiB", Lower, Judge::Bound(0.1), "VmHWM of the workload's process at exit"),
    metric("failed_share", "ratio", Lower, Judge::Exact, "operations that errored or failed their check over operations attempted; must be 0"),
];

pub fn end_to_end(name: &str) -> &'static Metric {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no end-to-end metric named {name}"))
}

/// Where a driver column's value comes from on each workload.
#[derive(Clone, Copy)]
pub enum Source {
    /// The end-to-end metric of the same name, which every workload has.
    Same,
    /// The workload's own rate ([`crate::workloads::Workload::ops`]).
    Ops,
    /// The workload's own latency, in milliseconds.
    Latency,
}

/// The driver wants every end-to-end metric of `/BENCHMARK.json` on
/// every workload, so its list is these four columns, each a view of
/// [`END_TO_END`]: (name, unit, direction, source).
pub const DRIVER_COLUMNS: [(&str, &str, Better, Source); 4] = [
    ("setup_s", "s", Better::Lower, Source::Same),
    ("ops_per_s", "1/s", Better::Higher, Source::Ops),
    ("latency_ms", "ms", Better::Lower, Source::Latency),
    ("peak_rss_mb", "MiB", Better::Lower, Source::Same),
];

/// A driver column's bound: the widest bound of the metrics behind it.
pub fn driver_bound(column: &str, source: Source) -> f64 {
    let bound = |name: &str| end_to_end(name).judge.bound().unwrap_or(0.0);
    match source {
        Source::Same => bound(column),
        Source::Ops => WORKLOADS.iter().map(|w| bound(w.ops)).fold(0.0, f64::max),
        Source::Latency => WORKLOADS
            .iter()
            .map(|w| bound(w.latency.0))
            .fold(0.0, f64::max),
    }
}

/// A driver column's value on `workload`, from the run's named
/// metrics; `None` when the run was too short to report the metric.
pub fn driver_value(
    source: Source,
    column: &str,
    workload: &crate::workloads::Workload,
    e2e: &std::collections::BTreeMap<&'static str, f64>,
) -> Option<f64> {
    match source {
        Source::Same => e2e.get(column).copied(),
        Source::Ops => e2e.get(workload.ops).copied(),
        Source::Latency => e2e.get(workload.latency.0).map(|v| v * workload.latency.1),
    }
}

/// One per-layer metric of the traced run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: [PerLayer; 70] = [
    // crypto
    layer("crypto.rsa_sign_us", "us", Lower, "says_msgs_per_s@fig2_rsa (with verify, ~95% of a message); import_certs_per_s@store_durable; setup_s where certificates are issued; nothing on fig2_plaintext"),
    layer("crypto.rsa_verify_us", "us", Lower, "says_msgs_per_s@fig2_rsa; import_certs_per_s@store_durable"),
    layer("crypto.rsa_keygen_ms", "ms", Lower, "setup_s everywhere (two to nine key generations per round); not reopen_s, which has them taken off"),
    layer("crypto.hmac_sha1_us", "us", Lower, "says_msgs_per_s@fig2_hmac"),
    layer("crypto.sha1_mb_s", "MB/s", Higher, "digesting inside import_certs_per_s and reopen_s"),
    layer("crypto.sha256_mb_s", "MB/s", Higher, "digesting inside import_certs_per_s and reopen_s"),
    // net
    layer("net.wire.encode_ns", "ns", Lower, "says_msgs_per_s@fig2_plaintext"),
    layer("net.wire.decode_ns", "ns", Lower, "says_msgs_per_s@fig2_plaintext"),
    layer("net.wire.bytes_per_msg", "B", Lower, "says_wire_bytes_per_msg@fig2_*"),
    layer("net.wire.frame_ns", "ns", Lower, "import_certs_per_s, reopen_s@store_durable (frame_record + read_frame)"),
    layer("net.sim.send_deliver_ns", "ns", Lower, "says_msgs_per_s@fig2_plaintext; revoke_to_deny_ms_p50@revoke_fanout"),
    layer("net.sent", "count", Lower, "exact per workload: packets behind says_msgs_per_s and revoke_to_deny_ms_p50"),
    layer("net.bytes_sent", "B", Lower, "exact per workload: says_wire_bytes_per_msg"),
    // datalog
    layer("datalog.parse_us_per_rule", "us", Lower, "setup_s; per-message payload parsing in says_msgs_per_s@fig2_plaintext"),
    layer("datalog.run_tuples_per_s", "1/s", Higher, "says_msgs_per_s@fig2_plaintext (Engine::run, closure of a 128-node chain)"),
    layer("datalog.run_incremental_us", "us", Lower, "says_msgs_per_s@fig2_plaintext (one-edge delta on that closure)"),
    layer("datalog.dred_retract_us", "us", Lower, "revoke_to_deny_ms_p50@revoke_fanout (one-edge retraction)"),
    layer("datalog.db_clone_ms", "ms", Lower, "revoke_to_deny_ms_p50 everywhere (rollback copy and snapshot publish clone the Database); peak_rss_mb"),
    layer("datalog.explain_us", "us", Lower, "authz_qps@authz_cold (provenance::explain of one grant)"),
    // core::workspace
    layer("core.workspace.evaluate_idle_us", "us", Lower, "revoke_to_deny_ms_p50 on all three workloads, import_certs_per_s, says_one_ms_p50: every step evaluates every workspace, idle or not"),
    layer("core.workspace.evaluate_delta_us", "us", Lower, "says_msgs_per_s, says_one_ms_p50@fig2_plaintext; import_certs_per_s"),
    layer("core.workspace.evaluate_rebuild_ms", "ms", Lower, "setup_s (after replace_tag / policy load)"),
    layer("core.workspace.retract_us", "us", Lower, "revoke_to_deny_ms_p50, revocations_per_s"),
    layer("core.workspace.snapshot_ms", "ms", Lower, "revoke_to_deny_ms_p50; says_msgs_per_s (commit copy after every successful evaluate)"),
    layer("core.workspace.load_ms", "ms", Lower, "setup_s; reopen_s"),
    // core::system
    layer("core.system.steps", "count", Lower, "exact per workload: quiescence steps behind every timed region"),
    layer("core.system.step_ms", "ms", Lower, "total of quiesce.step_ns: splits says_msgs_per_s and revoke_to_deny_ms_p50 by phase"),
    layer("core.system.fixpoint_ms", "ms", Lower, "the fixpoint phase's share of step_ms"),
    layer("core.system.delivery_ms", "ms", Lower, "the delivery phase's share of step_ms"),
    layer("core.system.export_drain_ms", "ms", Lower, "the export-drain phase's share of step_ms"),
    layer("core.system.group_commit_ms", "ms", Lower, "the group-commit phase's share of step_ms (store_durable)"),
    layer("core.system.publish_ms", "ms", Lower, "total of snapshot.publish_ns: revoke_to_deny_ms_p50"),
    layer("core.system.issue_us", "us", Lower, "setup_s (two RSA signatures per certificate)"),
    layer("core.system.import_us", "us", Lower, "setup_s (in-memory store import, per certificate)"),
    layer("core.system.authorize_serial_us", "us", Lower, "must track core.authz_read.miss_us (ROADMAP item C makes them one path)"),
    // core::authz_read
    layer("core.authz_read.hit_ns", "ns", Lower, "authz_qps@authz_hot"),
    layer("core.authz_read.miss_us", "us", Lower, "authz_qps, authz_ms_p50@authz_cold (measured at 256 certificates; a miss is linear in them and the workload runs at 2 048)"),
    layer("core.authz_read.hit_rate", "ratio", Higher, "per workload: < 0.01 on authz_cold, > 0.999 on authz_hot"),
    layer("core.authz_read.hits", "count", Higher, "per workload"),
    layer("core.authz_read.misses", "count", Lower, "exact per workload"),
    layer("core.authz_read.invalidations", "count", Lower, "exact per workload: cached grants precise invalidation took back"),
    layer("core.authz_read.publishes", "count", Lower, "per workload: snapshots published with phase timing on"),
    layer("core.authz_read.publish_ms", "ms", Lower, "mean per publish: revoke_to_deny_ms_p50@authz_hot"),
    layer("core.authz_read.stall_us_p9999", "us", Lower, "authz_hot: reader tail while the writer publishes"),
    layer("core.authz_read.writer_late_ms_p50", "ms", Lower, "authz_hot: how late the open-loop writer started its waves"),
    layer("core.authz_read.stale_grants", "count", Lower, "authz_hot: grants of a swept subject seen after the publish of its revocation; a known defect of publish_authz_snapshot, counted here and not as failures until it is fixed"),
    // core::pool
    layer("core.pool.fixpoint_speedup_shards2", "ratio", Higher, "ROADMAP item C(4); moves no end-to-end metric while the default stays shards = 1"),
    layer("core.pool.cores", "count", Higher, "the cores the speed-up above was measured on"),
    // certstore
    layer("certstore.insert_cold_us", "us", Lower, "import_certs_per_s; setup_s (verify-cache miss)"),
    layer("certstore.insert_warm_us", "us", Lower, "setup_s (verify-cache hit: the second and later receivers)"),
    layer("certstore.verify_cache_hit_rate", "ratio", Higher, "per workload"),
    layer("certstore.verify_cache_hits", "count", Higher, "per workload"),
    layer("certstore.verify_cache_misses", "count", Lower, "per workload"),
    layer("certstore.revoke_us", "us", Lower, "revoke_to_deny_ms_p50"),
    layer("certstore.sync_us", "us", Lower, "import_certs_per_s@store_durable (flush + fsync of a 16-certificate bundle)"),
    layer("certstore.fsyncs", "count", Lower, "exact per workload: import_certs_per_s"),
    layer("certstore.bytes_appended_per_cert", "B", Lower, "exact: disk_bytes_per_cert"),
    layer("certstore.open_replay_us_per_record", "us", Lower, "reopen_s"),
    layer("certstore.compact_ms", "ms", Lower, "background work, off the default path"),
    layer("certstore.compact_shrink", "ratio", Higher, "disk_bytes_per_cert only if compaction is ever armed by default"),
    // front ends
    layer("analysis.preflight_ms", "ms", Lower, "setup_s (load_program's parse + analyze, on the gossip program)"),
    layer("metamodel.check_constraints_us", "us", Lower, "setup_s; inside every evaluate, so says_msgs_per_s@fig2_plaintext"),
    layer("sendlog.translate_ms", "ms", Lower, "setup_s"),
    layer("binder.translate_us", "us", Lower, "setup_s"),
    layer("d1lp.translate_us", "us", Lower, "setup_s (D1lpPolicy::apply_to on two principals)"),
    // obs
    layer("obs.trace_overhead_pct", "%", Lower, "per workload: how much lower the traced half of the run's ops_per_s is than the untraced half's"),
    layer("obs.span_coverage_pct", "%", Higher, "per workload: wall time of the traced run inside top-level spans"),
    layer("obs.spans", "count", Lower, "per workload: spans recorded"),
    // the two exact end-to-end metrics, so /BENCHMARK.json carries them
    layer("says_wire_bytes_per_msg", "B", Lower, "the end-to-end metric itself, exact (fig2_*; 0 elsewhere)"),
    layer("disk_bytes_per_cert", "B", Lower, "the end-to-end metric itself (store_durable; 0 elsewhere)"),
];

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u32 = 10;

/// The text of `/BENCHMARK.json`, from the tables above.
pub fn benchmark_json() -> String {
    use crate::json::Json;
    let text = |s: &str| Json::Str(s.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|c| text(c)).collect()),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                DRIVER_COLUMNS
                    .iter()
                    .map(|&(name, unit, better, source)| {
                        Json::obj([
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better.as_str())),
                            ("bound", Json::Num(driver_bound(name, source))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

/// The tables as the README prints them.
pub fn describe() -> String {
    let mut out = String::from("workloads\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<15} {}\n", w.name, w.why));
    }
    out.push_str("\nend-to-end metrics (a workload reports the ones native to it)\n");
    for m in &END_TO_END {
        let judged = match m.judge {
            Judge::Bound(b) => format!("bound {b}"),
            Judge::Central(b) => format!("central {b}"),
            Judge::Exact => "exact".to_string(),
        };
        out.push_str(&format!(
            "  {:<24} {:<5} {:<6} {judged:<10} {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        ));
    }
    out.push_str("\nthe driver's columns (every workload reports each)\n");
    for (name, unit, better, source) in DRIVER_COLUMNS {
        out.push_str(&format!(
            "  {name:<12} {unit:<4} {:<6} may worsen by {}\n",
            better.as_str(),
            driver_bound(name, source)
        ));
    }
    for w in &WORKLOADS {
        out.push_str(&format!(
            "  {:<15} ops_per_s = {}; latency_ms = {}{}\n",
            w.name,
            w.ops,
            w.latency.0,
            if w.latency.1 == 1.0 { "" } else { " in ms" }
        ));
    }
    out.push_str("\nper-layer metrics of the traced run -> what each should move\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<40} {:<5} {:<6} -> {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}
