//! The seven workloads. Each takes the run context and returns what it
//! measured and checked; none of them knows how results are reported.

pub mod authz;
pub mod fig2;
pub mod revoke;
pub mod store;

use crate::harness::{Ctx, Outcome};
use lbtrust::AuthScheme;
use std::path::Path;

/// One workload: its name, the one-line reason it exists, and which of
/// its end-to-end metrics stand behind the driver's `ops_per_s` and
/// `latency_ms` columns (the latter with its factor to milliseconds).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub ops: &'static str,
    pub latency: (&'static str, f64),
}

const fn workload(
    name: &'static str,
    why: &'static str,
    ops: &'static str,
    latency: (&'static str, f64),
) -> Workload {
    Workload {
        name,
        why,
        ops,
        latency,
    }
}

pub const WORKLOADS: [Workload; 7] = [
    workload(
        "fig2_plaintext",
        "Figure 2, no crypto: datalog, workspace, wire and network do all the work per says message",
        "says_msgs_per_s_best",
        ("says_one_ms_best", 1.0),
    ),
    workload(
        "fig2_hmac",
        "Figure 2, HMAC-SHA1 says: the crypto layer used the cheap symmetric way, the paper's middle series",
        "says_msgs_per_s_best",
        ("says_one_ms_best", 1.0),
    ),
    workload(
        "fig2_rsa",
        "Figure 2, RSA says: one sign and one verify are most of a message, so evaluation changes must not show",
        "says_msgs_per_s_best",
        ("says_one_ms_best", 1.0),
    ),
    workload(
        "authz_cold",
        "every (receiver, goal) asked once: each authorize() is a decision-cache miss, the uncached cost",
        "authz_qps_best",
        ("authz_serial_ms_best", 1.0),
    ),
    workload(
        "authz_hot",
        "256 keys inside the decision cache swept by a reader thread beside an open-loop revoking writer",
        "authz_qps_best",
        ("revoke_to_deny_ms_best", 1.0),
    ),
    workload(
        "revoke_fanout",
        "hub + 8 receivers, revoke then replace one certificate at a time: the delete path (tombstone, DRed, Revoke packets, publish)",
        "fanout_imports_per_s_best",
        ("revoke_to_deny_ms_best", 1.0),
    ),
    workload(
        "store_durable",
        "the only file I/O: bundled imports with append+fsync, enforced revocations, close and repeated reopen",
        "import_certs_per_s_best",
        ("reopen_s_best", 1e3),
    ),
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Runs the named workload; `scratch` is where `store_durable` may
/// create (and must remove) its temporary directory.
pub fn run(name: &str, ctx: &mut Ctx, scratch: &Path) -> Option<Outcome> {
    Some(match name {
        "fig2_plaintext" => fig2::run(ctx, AuthScheme::Plaintext),
        "fig2_hmac" => fig2::run(ctx, AuthScheme::HmacSha1),
        "fig2_rsa" => fig2::run(ctx, AuthScheme::Rsa),
        "authz_cold" => authz::cold(ctx),
        "authz_hot" => authz::hot(ctx),
        "revoke_fanout" => revoke::run(ctx),
        "store_durable" => store::run(ctx, scratch),
        _ => return None,
    })
}
