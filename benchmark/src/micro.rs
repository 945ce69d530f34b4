//! The traced run's micro sections: each layer's public functions timed
//! directly, on inputs from the same generators the workloads use. They
//! say which layer moved when an end-to-end number moves; they are not
//! end-to-end numbers themselves and carry no bound.

use crate::gen::{self, Rng};
use crate::harness::KEY_SEED;
use crate::span::Tracer;
use crate::stats;
use crate::workloads::authz::{deploy, policy, Deployment};
use crate::workloads::store::TempDir;
use lbtrust::analysis::{analyze, AnalyzerConfig};
use lbtrust::certstore::{shared_verify_cache, CertStore, LinkedCert, Revocation};
use lbtrust::crypto::hmac::hmac_sha1;
use lbtrust::crypto::sha1::Sha1;
use lbtrust::crypto::sha256::Sha256;
use lbtrust::datalog::{dred, parse_program, provenance, Builtins, Database, Engine};
use lbtrust::datalog::{Symbol, Value};
use lbtrust::metamodel::check_constraints;
use lbtrust::net::{self, NodeId, SimNetwork, WireMessage, WirePacket};
use lbtrust::principal::KeyDirectory;
use lbtrust::{AuthScheme, Workspace};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Metric name → value, in the unit the name ends in.
pub type Layer = BTreeMap<&'static str, f64>;

/// How long one micro section may spend repeating its call.
const BUDGET: Duration = Duration::from_millis(40);

/// Median nanoseconds of `f` over repeated calls: at least `min` calls,
/// then until [`BUDGET`] is spent.
fn ns_per_call<T>(min: usize, mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (started.elapsed() < BUDGET && samples.len() < 100_000) {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_nanos() as f64);
    }
    stats::median(&samples)
}

/// Like [`ns_per_call`] for calls too short for the clock: `batch`
/// calls per sample.
fn ns_per_call_batched<T>(batch: usize, mut f: impl FnMut() -> T) -> f64 {
    ns_per_call(5, || {
        for _ in 0..batch {
            black_box(f());
        }
    }) / batch as f64
}

/// Median nanoseconds of `f(prepare())`, timing `f` alone.
fn ns_prepared<S, T>(min: usize, mut prepare: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (started.elapsed() < BUDGET * 2 && samples.len() < 10_000) {
        let input = prepare();
        let t = Instant::now();
        black_box(f(input));
        samples.push(t.elapsed().as_nanos() as f64);
    }
    stats::median(&samples)
}

/// Runs every micro section. `scratch` holds the file-backed store.
pub fn run(seed: u64, scratch: &Path) -> Layer {
    let mut out = Layer::new();
    crypto(seed, &mut out);
    wire_and_network(seed, &mut out);
    datalog(&mut out);
    front_ends(&mut out);
    pool(seed, &mut out);
    deployment(seed, scratch, &mut out);
    out
}

fn crypto(seed: u64, out: &mut Layer) {
    // A directory keeps the first key it generates for a principal, so
    // every sample is a new principal (and a new seed: how long the
    // prime search runs depends on it).
    let mut keys = KeyDirectory::new();
    let mut made = 0u64;
    out.insert(
        "crypto.rsa_keygen_ms",
        ns_per_call(7, || {
            made += 1;
            let who = Symbol::intern(&format!("micro-signer-{made}"));
            keys.generate_rsa(who, lbtrust::system::DEFAULT_RSA_BITS, seed ^ made)
                .public_key()
                .modulus_len()
        }) / 1e6,
    );
    let pair = keys
        .rsa(Symbol::intern("micro-signer-1"))
        .expect("generated above");
    let message = gen::good_facts(&gen::subjects(&mut Rng::new(seed, 90), 's', 1)).into_bytes();
    let signature = pair.private.sign(&message).expect("signs");
    out.insert(
        "crypto.rsa_sign_us",
        ns_per_call(10, || pair.private.sign(&message)) / 1e3,
    );
    out.insert(
        "crypto.rsa_verify_us",
        ns_per_call(10, || pair.public_key().verify(&message, &signature)) / 1e3,
    );
    out.insert(
        "crypto.hmac_sha1_us",
        ns_per_call_batched(64, || hmac_sha1(b"a twenty-byte secret", &message)) / 1e3,
    );
    let block = vec![0xA5u8; 64 * 1024];
    let mb_s = |ns: f64| block.len() as f64 / (1 << 20) as f64 / (ns / 1e9);
    out.insert(
        "crypto.sha1_mb_s",
        mb_s(ns_per_call(10, || Sha1::digest(&block))),
    );
    out.insert(
        "crypto.sha256_mb_s",
        mb_s(ns_per_call(10, || Sha256::digest(&block))),
    );
}

fn wire_and_network(seed: u64, out: &mut Layer) {
    // The packet a `fig2_*` message travels as.
    let id = gen::items(&mut Rng::new(seed, 91), 1)[0];
    let rule = lbtrust::datalog::parse_rule(&format!("payload({id}).")).expect("payload fact");
    let packet = WirePacket::Export(WireMessage {
        from: Symbol::intern("alice"),
        to: Symbol::intern("bob"),
        rule: Arc::new(rule),
        auth: vec![0x5A; 20],
    });
    let bytes = net::encode_packet(&packet);
    out.insert("net.wire.bytes_per_msg", bytes.len() as f64);
    out.insert(
        "net.wire.encode_ns",
        ns_per_call_batched(64, || net::encode_packet(&packet)),
    );
    out.insert(
        "net.wire.decode_ns",
        ns_per_call_batched(64, || net::decode_packet(&bytes)),
    );
    // The record a certificate is stored as is a few hundred bytes.
    let payload = vec![0x3Cu8; 400];
    out.insert(
        "net.wire.frame_ns",
        ns_per_call_batched(64, || {
            let framed = net::wire::frame_record(1, &payload);
            net::wire::read_frame(&framed, 0).map(|(_, p, _)| p.len())
        }),
    );
    let mut sim = SimNetwork::perfect();
    let (a, b) = (NodeId::new("host1"), NodeId::new("host2"));
    out.insert(
        "net.sim.send_deliver_ns",
        ns_per_call_batched(64, || {
            sim.send(a, b, bytes.clone());
            sim.deliver_next()
        }),
    );
}

const TC_PROGRAM: &str = "reach(X,Y) <- edge(X,Y).\nreach(X,Z) <- reach(X,Y), edge(Y,Z).\n";
/// Half the issue's 256 nodes: retracting the middle edge of a 256-node
/// chain's closure takes 0.56 s a sample, of a traced run's eight.
const CHAIN: usize = 128;

fn datalog(out: &mut Layer) {
    let gossip = lbtrust_sendlog::rev_gossip_program().expect("gossip program translates");
    let rules = parse_program(&gossip).expect("parses").rules.len().max(1);
    out.insert(
        "datalog.parse_us_per_rule",
        ns_per_call(10, || parse_program(&gossip)) / 1e3 / rules as f64,
    );

    let program = parse_program(TC_PROGRAM).expect("tc parses");
    let builtins = Builtins::new();
    let edge = Symbol::intern("edge");
    let node = |i: usize| Value::sym(&format!("n{i}"));
    let chain = || {
        let mut db = Database::new();
        for i in 0..CHAIN - 1 {
            db.insert(edge, vec![node(i), node(i + 1)]);
        }
        db
    };
    let engine = Engine::new(&program.rules, &builtins);
    let mut closed = chain();
    let derived = engine.run(&mut closed).expect("closure").derived;
    let run_ns = ns_prepared(3, chain, |mut db| engine.run(&mut db).map(|s| s.derived));
    out.insert("datalog.run_tuples_per_s", derived as f64 / (run_ns / 1e9));
    let tail = vec![node(CHAIN - 1), Value::sym("fresh-tail")];
    out.insert(
        "datalog.run_incremental_us",
        ns_prepared(
            3,
            || closed.clone(),
            |mut db| {
                let mark = db.count(edge);
                db.insert(edge, tail.clone());
                engine
                    .run_incremental(&mut db, &[(edge, mark)])
                    .map(|s| s.derived)
            },
        ) / 1e3,
    );
    let victim = vec![node(CHAIN / 2 - 1), node(CHAIN / 2)];
    out.insert(
        "datalog.dred_retract_us",
        ns_prepared(
            3,
            || closed.clone(),
            |mut db| {
                dred::retract(
                    &program.rules,
                    &mut db,
                    &builtins,
                    &[(edge, victim.clone())],
                )
                .map(|s| s.overdeleted)
            },
        ) / 1e3,
    );
}

fn front_ends(out: &mut Layer) {
    let gossip = lbtrust_sendlog::rev_gossip_program().expect("gossip program translates");
    let config = AnalyzerConfig::default();
    out.insert(
        "analysis.preflight_ms",
        ns_per_call(5, || {
            let program = parse_program(&gossip).expect("parses");
            analyze(&program, &config).has_denials()
        }) / 1e6,
    );
    out.insert(
        "sendlog.translate_ms",
        ns_per_call(5, || {
            lbtrust_sendlog::sendlog_to_lbtrust(lbtrust_sendlog::PATH_VECTOR)
                .map(|p| p.lbtrust_src.len())
        }) / 1e6,
    );
    let binder = "ok(X) :- bob says good(X).\ngood(X) :- vetted(X), carol says fine(X).\n";
    out.insert(
        "binder.translate_us",
        ns_per_call_batched(16, || {
            lbtrust_binder::binder_to_lbtrust(binder).map(|s| s.len())
        }) / 1e3,
    );
}

/// `core.pool.fixpoint_speedup_shards2`: total fixpoint-phase time of
/// the first revocations of a `revoke_fanout`-shaped deployment at one
/// shard over the same at `min(2, nproc)` shards.
fn pool(seed: u64, out: &mut Layer) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fixpoint_ms = |shards: usize| {
        let sys = lbtrust::System::with_network(Default::default(), KEY_SEED)
            .with_phase_timing(true)
            .with_shards(shards);
        let mut tr = Tracer::new(false, Instant::now());
        let subjects = gen::subjects(&mut Rng::new(seed, 92), 's', 64);
        let mut d = deploy(sys, &mut tr, 0, 4, &subjects, &mut Vec::new());
        let before = phase_ms(&d.sys, "quiesce.fixpoint_ns");
        for digest in d.digests.iter().take(8) {
            d.sys.revoke_certificate(d.hub, *digest).expect("revokes");
            d.sys.run_to_quiescence(16).expect("quiesces");
        }
        phase_ms(&d.sys, "quiesce.fixpoint_ns") - before
    };
    let serial = fixpoint_ms(1);
    let pooled = fixpoint_ms(cores.min(2));
    out.insert(
        "core.pool.fixpoint_speedup_shards2",
        serial / pooled.max(1e-9),
    );
    out.insert("core.pool.cores", cores as f64);
}

fn phase_ms(sys: &lbtrust::System, name: &str) -> f64 {
    sys.obs_registry()
        .snapshot()
        .histogram(name)
        .map_or(0.0, |h| h.sum as f64 / 1e6)
}

/// Certificates in the micro deployment (hub + one receiver). Proof and
/// clone costs are linear in it; `authz_cold` runs at eight times this.
const MICRO_CERTS: usize = 256;

/// Everything timed against one small quiesced deployment: the system's
/// certificate calls, both `authorize` paths, the receiver's
/// `Workspace`, its `Database`, and the certificate store.
fn deployment(seed: u64, scratch: &Path, out: &mut Layer) {
    let mut tr = Tracer::new(true, Instant::now());
    let subjects = gen::subjects(&mut Rng::new(seed, 93), 's', MICRO_CERTS);
    let sys = lbtrust::System::with_network(Default::default(), KEY_SEED).with_phase_timing(false);
    let Deployment {
        mut sys,
        hub,
        receivers,
        subjects,
        digests,
        reader,
        ..
    } = deploy(sys, &mut tr, 0, 1, &subjects, &mut Vec::new());
    let bob = receivers[0];
    let span_us = |name: &str| {
        let spans = tr.spans().iter().filter(|s| s.name == name);
        spans
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum::<f64>()
    };
    out.insert(
        "core.system.issue_us",
        span_us("issue_certificates") / MICRO_CERTS as f64,
    );
    out.insert(
        "core.system.import_us",
        span_us("import_certificates") / MICRO_CERTS as f64,
    );

    // authorize(): the serial path, a reader miss, a reader hit.
    let goals: Vec<String> = subjects.iter().map(|s| gen::read_goal(s)).collect();
    let mut next = goals.iter().cycle();
    out.insert(
        "core.system.authorize_serial_us",
        ns_per_call(16, || sys.authorize(bob, next.next().expect("cycle"))) / 1e3,
    );
    let misses: Vec<f64> = goals
        .iter()
        .map(|g| {
            let t = Instant::now();
            black_box(reader.authorize(bob, g)).expect("reader decides");
            t.elapsed().as_nanos() as f64
        })
        .collect();
    out.insert("core.authz_read.miss_us", stats::median(&misses) / 1e3);
    out.insert(
        "core.authz_read.hit_ns",
        ns_per_call_batched(256, || reader.authorize(bob, next.next().expect("cycle"))),
    );

    // The receiver's database and workspace.
    let access = Symbol::intern("access");
    let granted = vec![
        Value::sym(&subjects[0]),
        Value::sym("f"),
        Value::sym("read"),
    ];
    {
        let ws = sys.workspace(bob).expect("bob");
        out.insert(
            "datalog.db_clone_ms",
            ns_per_call(5, || ws.db().clone().total_tuples()) / 1e6,
        );
        let rules: Vec<_> = ws.active_rules().iter().map(|r| (**r).clone()).collect();
        out.insert(
            "datalog.explain_us",
            ns_per_call(10, || {
                provenance::explain(&rules, ws.db(), ws.builtins(), access, &granted)
                    .map(|p| p.depth())
            }) / 1e3,
        );
        let decls = parse_program(lbtrust::says::SAYS_DECLS).expect("says declarations parse");
        out.insert(
            "metamodel.check_constraints_us",
            ns_per_call(10, || {
                check_constraints(&decls.constraints, ws.db(), ws.builtins()).is_ok()
            }) / 1e3,
        );
        out.insert(
            "core.workspace.snapshot_ms",
            ns_per_call(5, || ws.snapshot()) / 1e6,
        );
    }
    {
        let ws = sys.workspace_mut(bob).expect("bob");
        out.insert(
            "core.workspace.evaluate_idle_us",
            ns_per_call(5, || ws.evaluate().map(|s| s.rounds)) / 1e3,
        );
        let noted = Symbol::intern("noted");
        let mut n = 0i64;
        let mut delta = Vec::new();
        let mut retract = Vec::new();
        for _ in 0..8 {
            n += 1;
            ws.assert_fact(noted, vec![Value::Int(n)]);
            let t = Instant::now();
            ws.evaluate().expect("delta evaluates");
            delta.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            black_box(ws.retract_facts(&[(noted, vec![Value::Int(n)])]));
            retract.push(t.elapsed().as_nanos() as f64);
            ws.evaluate().expect("settles");
        }
        out.insert(
            "core.workspace.evaluate_delta_us",
            stats::median(&delta) / 1e3,
        );
        out.insert("core.workspace.retract_us", stats::median(&retract) / 1e3);
        let rebuild: Vec<f64> = (0..3)
            .map(|_| {
                ws.replace_tag("policy", &policy("hub"))
                    .expect("policy reloads");
                let t = Instant::now();
                ws.evaluate().expect("rebuild evaluates");
                t.elapsed().as_nanos() as f64
            })
            .collect();
        out.insert(
            "core.workspace.evaluate_rebuild_ms",
            stats::median(&rebuild) / 1e6,
        );
    }
    out.insert(
        "core.workspace.load_ms",
        ns_per_call(5, || {
            let mut ws = Workspace::new("micro-loader");
            ws.load("says-decls", lbtrust::says::SAYS_DECLS)
                .and_then(|()| ws.load("auth", &AuthScheme::Rsa.prelude()))
                .and_then(|()| ws.load("policy", &policy("hub")))
                .is_ok()
        }) / 1e6,
    );

    // The certificate store, in memory and on disk.
    let certs: Vec<LinkedCert> = {
        let store = sys.cert_store(bob).expect("bob's store");
        digests
            .iter()
            .map(|d| store.get(d).expect("imported").cert.clone())
            .collect()
    };
    let verifier = sys.key_verifier();
    let cache = shared_verify_cache();
    let insert_us = |store: &mut CertStore| {
        let t = Instant::now();
        for cert in &certs {
            store.insert(cert.clone(), &verifier).expect("inserts");
        }
        t.elapsed().as_nanos() as f64 / 1e3 / certs.len() as f64
    };
    let mut cold = CertStore::with_cache(cache.clone());
    out.insert("certstore.insert_cold_us", insert_us(&mut cold));
    out.insert(
        "certstore.insert_warm_us",
        insert_us(&mut CertStore::with_cache(cache.clone())),
    );
    let revocations: Vec<Revocation> = {
        let keys = sys.keys().read();
        let private = &keys.rsa(hub).expect("hub's key").private;
        digests
            .iter()
            .map(|d| Revocation {
                issuer: hub,
                target: *d,
                signature: private
                    .sign(&net::revoke_signing_bytes(hub, d.as_bytes()))
                    .expect("signs"),
            })
            .collect()
    };
    let revoke_ns: Vec<f64> = revocations[..32.min(revocations.len())]
        .iter()
        .map(|r| {
            let t = Instant::now();
            black_box(cold.revoke(r, &verifier)).expect("revokes");
            t.elapsed().as_nanos() as f64
        })
        .collect();
    out.insert("certstore.revoke_us", stats::median(&revoke_ns) / 1e3);

    let tmp = TempDir::create(scratch, "micro-store");
    let log = tmp.path().join("micro.certlog");
    let mut sync_ns = Vec::new();
    {
        let mut store = CertStore::open(&log, cache.clone()).expect("log opens");
        for bundle in certs.chunks(16) {
            for cert in bundle {
                store.insert(cert.clone(), &verifier).expect("inserts");
            }
            let t = Instant::now();
            store.sync().expect("syncs");
            sync_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    out.insert("certstore.sync_us", stats::median(&sync_ns) / 1e3);
    out.insert(
        "certstore.open_replay_us_per_record",
        ns_per_call(3, || {
            CertStore::open(&log, shared_verify_cache()).map(|s| s.replay_report().records)
        }) / 1e3
            / certs.len() as f64,
    );
    let mut store = CertStore::open(&log, cache).expect("log reopens");
    for r in &revocations[..certs.len() / 2] {
        store.revoke(r, &verifier).expect("revokes");
    }
    store.sync().expect("syncs");
    let t = Instant::now();
    let report = store.compact().expect("compacts");
    out.insert("certstore.compact_ms", t.elapsed().as_nanos() as f64 / 1e6);
    out.insert(
        "certstore.compact_shrink",
        report.bytes_before as f64 / (report.bytes_after as f64).max(1.0),
    );

    // Last, because it installs rules at every principal.
    let d1lp = lbtrust_d1lp::D1lpPolicy::new()
        .delegate("hub", "r0", "good", Some(2))
        .speaks_for("r0", "hub");
    let t = Instant::now();
    d1lp.apply_to(&mut sys).expect("d1lp policy applies");
    out.insert("d1lp.translate_us", t.elapsed().as_nanos() as f64 / 1e3);
}
