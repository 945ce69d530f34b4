//! Parallel-engine equivalence: a `System` run with worker shards must
//! reach byte-for-byte the quiescent state of the serial engine — same
//! derived facts in every workspace, same message/revocation
//! statistics — because shards only ever own disjoint principals and
//! every cross-shard effect merges sequentially in registration order.

use lbtrust::{Principal, SyncPolicy, System};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Full materialized state of one workspace: predicate name -> sorted
/// tuple renderings. Canonical `Display` makes this a total snapshot.
fn workspace_snapshot(sys: &System, p: Principal) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (pred, relation) in sys.workspace(p).unwrap().db().iter() {
        let mut tuples: Vec<String> = relation
            .iter()
            .map(|t| {
                t.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        tuples.sort();
        out.insert(pred.to_string(), tuples);
    }
    out
}

/// The statistics the engines must agree on (all order-independent).
fn stat_fingerprint(sys: &System) -> Vec<usize> {
    let s = sys.stats();
    vec![
        s.messages_sent,
        s.messages_accepted,
        s.messages_rejected,
        s.local_rollbacks,
        s.steps,
        s.certs_imported,
        s.revocations,
        s.retractions,
    ]
}

/// Builds and quiesces one system over the generated workload: a hub
/// fanning `says` facts out to every receiver, receivers deriving
/// access plus a local transitive closure seeded by the said facts,
/// and (optionally) a certificate fan-out with a mid-run revocation
/// broadcast — the delivery paths the shards split.
fn run_workload(
    shards: usize,
    receivers: usize,
    vouched: &[u8],
    edges: &[(u8, u8)],
    revoke: bool,
) -> System {
    let mut sys = System::new()
        .with_rsa_bits(512)
        .with_shards(shards)
        .with_sync_policy(if shards > 1 {
            SyncPolicy::Batched
        } else {
            SyncPolicy::Eager
        });
    let hub = sys.add_principal("hub", "n0").unwrap();
    let names: Vec<String> = (0..receivers).map(|i| format!("r{i}")).collect();
    let mut recs: Vec<Principal> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        recs.push(sys.add_principal(name, &format!("m{i}")).unwrap());
    }
    for name in &names {
        sys.workspace_mut(hub)
            .unwrap()
            .load(
                "policy",
                &format!(
                    "says(me,{name},[| good(X). |]) <- vouched(X).\n\
                     says(me,{name},[| ledge(X,Y). |]) <- vedge(X,Y).\n"
                ),
            )
            .unwrap();
    }
    for v in vouched {
        sys.workspace_mut(hub)
            .unwrap()
            .assert_src(&format!("vouched(v{v})."))
            .unwrap();
    }
    for (a, b) in edges {
        sys.workspace_mut(hub)
            .unwrap()
            .assert_src(&format!("vedge(e{a},e{b})."))
            .unwrap();
    }
    for &r in &recs {
        sys.workspace_mut(r)
            .unwrap()
            .load(
                "policy",
                "access(P,f,read) <- says(hub,me,[| good(P) |]).\n\
                 edge(X,Y) <- says(hub,me,[| ledge(X,Y) |]).\n\
                 reach(X,Y) <- edge(X,Y).\n\
                 reach(X,Z) <- reach(X,Y), edge(Y,Z).\n",
            )
            .unwrap();
    }
    // Certificate fan-out: the hub certifies one fact per vouched
    // value; every receiver imports the bundle (exercising the shared
    // verification cache across shards), and the first certificate is
    // revoked mid-run so the broadcast crosses the delivery shards.
    let facts: String = vouched.iter().map(|v| format!("cgood(c{v}). ")).collect();
    let certs = sys.issue_certificates(hub, &facts, &[], None).unwrap();
    for &r in &recs {
        sys.import_certificates(r, certs.clone()).unwrap();
    }
    sys.run_to_quiescence(32).unwrap();
    if revoke {
        if let Some(first) = certs.first() {
            sys.revoke_certificate(hub, first.digest()).unwrap();
        }
    }
    sys.run_to_quiescence(32).unwrap();
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_engine_equals_serial_engine(
        receivers in 2usize..5,
        vouched in prop::collection::vec(0u8..12, 1..6),
        edges in prop::collection::vec((0u8..6, 0u8..6), 0..8),
        revoke in any::<bool>(),
    ) {
        let serial = run_workload(1, receivers, &vouched, &edges, revoke);
        let parallel = run_workload(4, receivers, &vouched, &edges, revoke);
        let all: Vec<Principal> = serial.principals().to_vec();
        prop_assert_eq!(parallel.principals(), all.as_slice());
        for &p in &all {
            prop_assert_eq!(
                workspace_snapshot(&serial, p),
                workspace_snapshot(&parallel, p),
                "workspace {} diverged between serial and sharded runs",
                p
            );
            prop_assert_eq!(
                serial.cert_store(p).unwrap().active(),
                parallel.cert_store(p).unwrap().active()
            );
        }
        prop_assert_eq!(stat_fingerprint(&serial), stat_fingerprint(&parallel));
    }
}

/// A deliberately skewed hub-and-spoke workload: the hub principal
/// carries roughly half of all rules (one `says` rule per spoke plus a
/// transitive closure over the generated edges) and issues every
/// certificate, while each spoke holds a single access rule. This is
/// the shape where one task dominates a batch and the other workers
/// work through the rest around it.
fn run_skewed(shards: usize, spokes: usize, edges: &[(u8, u8)]) -> System {
    let mut sys = System::new().with_rsa_bits(512).with_shards(shards);
    let hub = sys.add_principal("hub", "n0").unwrap();
    let mut recs: Vec<Principal> = Vec::new();
    for i in 0..spokes {
        recs.push(
            sys.add_principal(&format!("s{i}"), &format!("m{i}"))
                .unwrap(),
        );
    }
    // The hub's heavy local program: closure plus a per-spoke export.
    sys.workspace_mut(hub)
        .unwrap()
        .load(
            "policy",
            "reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).\n",
        )
        .unwrap();
    for i in 0..spokes {
        sys.workspace_mut(hub)
            .unwrap()
            .load(
                "policy",
                &format!("says(me,s{i},[| good(X). |]) <- reach(h0,X)."),
            )
            .unwrap();
    }
    sys.workspace_mut(hub)
        .unwrap()
        .assert_src("edge(h0,h1).")
        .unwrap();
    for (a, b) in edges {
        sys.workspace_mut(hub)
            .unwrap()
            .assert_src(&format!("edge(h{a},h{b})."))
            .unwrap();
    }
    // Each spoke: one lightweight rule.
    for &r in &recs {
        sys.workspace_mut(r)
            .unwrap()
            .load("policy", "access(P,f,read) <- says(hub,me,[| good(P) |]).")
            .unwrap();
    }
    // All certificates originate at the hub too.
    let certs = sys
        .issue_certificates(hub, "cg(a). cg(b). cg(c).", &[], None)
        .unwrap();
    for &r in &recs {
        sys.import_certificates(r, certs.clone()).unwrap();
    }
    sys.run_to_quiescence(32).unwrap();
    sys.revoke_certificate(hub, certs[0].digest()).unwrap();
    sys.run_to_quiescence(32).unwrap();
    sys
}

fn assert_same_state(a: &System, b: &System, what: &str) {
    assert_eq!(a.principals(), b.principals());
    for &p in a.principals() {
        assert_eq!(
            workspace_snapshot(a, p),
            workspace_snapshot(b, p),
            "{what}: workspace {p} diverged"
        );
        assert_eq!(
            a.cert_store(p).unwrap().active(),
            b.cert_store(p).unwrap().active(),
            "{what}: cert store {p} diverged"
        );
    }
    assert_eq!(stat_fingerprint(a), stat_fingerprint(b), "{what}: stats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serial vs. pooled equivalence on the skewed topology: the pool
    /// must reach byte-for-byte the serial state even when one
    /// principal dominates the step cost.
    #[test]
    fn stolen_pool_equals_serial_on_skewed_hub(
        spokes in 2usize..6,
        edges in prop::collection::vec((0u8..8, 0u8..8), 0..12),
    ) {
        let serial = run_skewed(1, spokes, &edges);
        let pooled = run_skewed(8, spokes, &edges);
        let all: Vec<Principal> = serial.principals().to_vec();
        prop_assert_eq!(pooled.principals(), all.as_slice());
        for &p in &all {
            prop_assert_eq!(
                workspace_snapshot(&serial, p),
                workspace_snapshot(&pooled, p),
                "workspace {} diverged under the pool", p
            );
            prop_assert_eq!(
                serial.cert_store(p).unwrap().active(),
                pooled.cert_store(p).unwrap().active()
            );
        }
        prop_assert_eq!(stat_fingerprint(&serial), stat_fingerprint(&pooled));
    }
}

/// One fixed skewed case (five principals) below and above the
/// principal count: scheduling is unobservable in the quiescent state.
#[test]
fn skewed_hub_is_equivalent_at_2_4_and_8_workers() {
    let edges = [(1, 2), (2, 3), (3, 4), (1, 5)];
    let serial = run_skewed(1, 4, &edges);
    for shards in [2, 4, 8] {
        let pooled = run_skewed(shards, 4, &edges);
        assert_same_state(&serial, &pooled, &format!("shards={shards}"));
    }
}

/// Shard counts beyond the principal count (and absurd ones) still
/// converge to the serial state — surplus workers simply stay idle.
#[test]
fn oversharded_system_still_quiesces() {
    let a = run_workload(1, 3, &[1, 2, 3], &[(0, 1), (1, 2)], true);
    for shards in [2, 3, 7, 64] {
        let b = run_workload(shards, 3, &[1, 2, 3], &[(0, 1), (1, 2)], true);
        for &p in a.principals() {
            assert_eq!(
                workspace_snapshot(&a, p),
                workspace_snapshot(&b, p),
                "shards={shards} diverged at {p}"
            );
        }
        assert_eq!(stat_fingerprint(&a), stat_fingerprint(&b));
    }
}

/// A hub saying `n(foo)` to two receivers; `r0` turns what it hears
/// into arithmetic, which is a type error on a symbol — a hard
/// (non-constraint) evaluation error — while `late`, registered after
/// everyone, holds one pending local fact. With `early_error` the same
/// bad arithmetic also sits in the hub's own workspace, so the error
/// surfaces in the very first local-fixpoint batch instead of in a
/// delivery batch.
fn run_into_hard_error(shards: usize, early_error: bool) -> (String, System) {
    let mut sys = System::new().with_rsa_bits(512).with_shards(shards);
    let hub = sys.add_principal("hub", "n0").unwrap();
    let r0 = sys.add_principal("r0", "m0").unwrap();
    let r1 = sys.add_principal("r1", "m1").unwrap();
    let late = sys.add_principal("late", "m2").unwrap();
    for name in ["r0", "r1"] {
        sys.workspace_mut(hub)
            .unwrap()
            .load("policy", &format!("says(me,{name},[| n(X). |]) <- num(X)."))
            .unwrap();
    }
    if early_error {
        sys.workspace_mut(hub)
            .unwrap()
            .load("policy", "bad(Y) <- num(X), Y = X + 1.")
            .unwrap();
    }
    sys.workspace_mut(hub)
        .unwrap()
        .assert_src("num(foo).")
        .unwrap();
    sys.workspace_mut(r0)
        .unwrap()
        .load("policy", "bad(Y) <- says(hub,me,[| n(X) |]), Y = X + 1.")
        .unwrap();
    sys.workspace_mut(r1)
        .unwrap()
        .load("policy", "heard(X) <- says(hub,me,[| n(X) |]).")
        .unwrap();
    sys.workspace_mut(late)
        .unwrap()
        .load("policy", "q(X) <- p(X).")
        .unwrap();
    sys.workspace_mut(late)
        .unwrap()
        .assert_src("p(x).")
        .unwrap();
    let err = sys.run_to_quiescence(8).unwrap_err();
    assert!(matches!(err, lbtrust::SysError::Workspace(_)), "{err}");
    (err.to_string(), sys)
}

/// A hard evaluation error never cuts a batch short: every other
/// principal's task still runs and merges, so the serial and the
/// pooled engine return the same error *and* leave every workspace in
/// the same state — whether the error strikes in the local-fixpoint
/// batch or in the delivery batch (where stopping early would also
/// discard packets already drained from the network).
#[test]
fn hard_evaluation_error_leaves_the_same_state_at_every_shard_count() {
    for early_error in [true, false] {
        let (serial_err, serial) = run_into_hard_error(1, early_error);
        assert!(serial_err.contains("type error"), "{serial_err}");
        let late = Principal::from("late");
        assert!(
            serial.workspace(late).unwrap().holds_src("q(x)").unwrap(),
            "early_error={early_error}: a principal after the failing one must still evaluate"
        );
        if !early_error {
            assert!(
                serial
                    .workspace(Principal::from("r1"))
                    .unwrap()
                    .holds_src("heard(foo)")
                    .unwrap(),
                "a destination after the failing one must still import its packets"
            );
        }
        let (pooled_err, pooled) = run_into_hard_error(4, early_error);
        assert_eq!(serial_err, pooled_err);
        assert_same_state(&serial, &pooled, &format!("early_error={early_error}"));
    }
}
