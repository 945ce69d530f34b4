//! `fig2_plaintext`, `fig2_hmac`, `fig2_rsa` — the paper's Figure 2:
//! alice exports N `says` messages to bob under one authentication
//! scheme, bob imports and verifies each (the shape of
//! `crates/bench/src/fig2.rs`). One repetition is a fresh `System`, N
//! `run_to_quiescence` per message for a few single messages — Figure 2
//! at x = 1, the latency of one `says` — and then N queued items and one
//! timed `run_to_quiescence`: Figure 2's y at x = N. Both are reported
//! for the median and for the least disturbed repetition.

use crate::gen::{self, Rng};
use crate::harness::{fnv1a, timed, Ctx, Outcome};
use crate::stats;
use lbtrust::datalog::{Symbol, Value};
use lbtrust::AuthScheme;
use std::time::{Duration, Instant};

/// Messages per repetition and timed repetitions at the nominal run
/// length. RSA pays a sign and a verify per message, so it gets a
/// twentieth of the messages. These are a tenth (RSA: a twentieth) of
/// the issue's sizes at ten times its repetitions and more: the
/// fastest-repetition rule needs many short ones (a batch takes
/// 30–50 ms), and a message costs within a sixth the same at 1 000 as at
/// 10 000 (see the README).
fn size(scheme: AuthScheme) -> (usize, usize) {
    match scheme {
        AuthScheme::Rsa => (50, 70),
        AuthScheme::HmacSha1 => (1_000, 130),
        AuthScheme::Plaintext => (1_000, 160),
    }
}

/// RSA modulus bits. The paper's 1024 where RSA signs the messages. On
/// the plaintext and HMAC runs no RSA key is ever used, only generated,
/// 25 ms apiece in set-up; 512-bit keys (4 ms) leave room for twice the
/// repetitions in the same wall time.
fn rsa_bits(scheme: AuthScheme) -> usize {
    match scheme {
        AuthScheme::Rsa => lbtrust::system::DEFAULT_RSA_BITS,
        _ => 512,
    }
}

const WARMUP_REPS: usize = 1;
/// Single messages ahead of each repetition's batch.
const SINGLES: usize = 8;

pub fn run(ctx: &mut Ctx, scheme: AuthScheme) -> Outcome {
    let (messages, reps) = size(scheme);
    let reps = ctx.scaled(reps, 2);
    run_sized(ctx, scheme, messages, reps)
}

pub fn run_sized(ctx: &mut Ctx, scheme: AuthScheme, messages: usize, reps: usize) -> Outcome {
    let mut out = Outcome::default();
    let item = Symbol::intern("item");
    let received = Symbol::intern("received");
    let mut batch_s = Vec::with_capacity(reps);
    let mut single_ms = Vec::with_capacity(reps * SINGLES);
    let mut bytes_per_msg = Vec::with_capacity(reps);

    for rep in 0..(WARMUP_REPS + reps) as u64 {
        let round_start = Instant::now();
        let mut sys = ctx.system().with_rsa_bits(rsa_bits(scheme));
        let Ctx {
            seed, tracer: tr, ..
        } = ctx;
        tr.enter("rep", rep);
        let mut ids = gen::items(&mut Rng::new(*seed, rep), messages + SINGLES);
        let singles = ids.split_off(messages);
        let alice = tr.call("add_principal", rep, || sys.add_principal("alice", "host1"));
        let alice = alice.expect("alice registers");
        let bob = tr.call("add_principal", rep, || sys.add_principal("bob", "host2"));
        let bob = bob.expect("bob registers");
        tr.call("set_auth_scheme", rep, || {
            sys.establish_shared_secret(alice, bob).expect("secret");
            sys.set_auth_scheme(alice, scheme).expect("scheme alice");
            sys.set_auth_scheme(bob, scheme).expect("scheme bob");
        });
        tr.call("load", rep, || {
            sys.workspace_mut(alice)
                .expect("alice")
                .load("policy", "says(me,bob,[| payload(I). |]) <- item(I).")
                .expect("alice policy");
            sys.workspace_mut(bob)
                .expect("bob")
                .load("policy", "received(I) <- says(alice,me,[| payload(I) |]).")
                .expect("bob policy");
        });
        // One message at a time on the still empty pair: Figure 2 at x = 1.
        let mut in_timed = Duration::ZERO;
        let mut single_ok = 0;
        let mut this_rep_ms = Vec::with_capacity(SINGLES);
        for (k, id) in singles.iter().enumerate() {
            let op = rep << 32 | k as u64;
            let (quiesced, took) = timed(|| {
                tr.enter("single", op);
                sys.workspace_mut(alice)
                    .expect("alice")
                    .assert_fact(item, vec![Value::Int(*id)]);
                let quiesced = tr.call("run_to_quiescence", op, || sys.run_to_quiescence(64));
                tr.exit();
                quiesced
            });
            in_timed += took;
            this_rep_ms.push(took.as_secs_f64() * 1e3);
            let arrived = sys
                .workspace(bob)
                .expect("bob")
                .holds(received, &[Value::Int(*id)]);
            single_ok += usize::from(quiesced.is_ok() && arrived);
        }
        let (sent_before, accepted_before) =
            (sys.net_stats().bytes_sent, sys.stats().messages_accepted);

        // Then the batch: Figure 2 at x = N.
        tr.call("assert_fact", rep, || {
            let ws = sys.workspace_mut(alice).expect("alice");
            for id in &ids {
                ws.assert_fact(item, vec![Value::Int(*id)]);
            }
        });
        let (quiesced, batch) =
            timed(|| tr.call("run_to_quiescence", rep, || sys.run_to_quiescence(64)));
        in_timed += batch;

        // Every message must have been exported, shipped, verified,
        // imported and derived at bob, and nothing else.
        tr.enter("check", rep);
        let accepted = match quiesced {
            Ok(_) => sys.stats().messages_accepted - accepted_before,
            Err(_) => 0,
        };
        let bob_ws = sys.workspace(bob).expect("bob");
        let seen = ids
            .iter()
            .filter(|id| bob_ws.holds(received, &[Value::Int(**id)]))
            .count();
        let extra = bob_ws
            .tuples(received)
            .len()
            .saturating_sub(seen + single_ok);
        let ok = seen.min(accepted).saturating_sub(extra);
        tr.exit();
        let wire_bytes = sys.net_stats().bytes_sent - sent_before;

        if rep >= WARMUP_REPS as u64 {
            out.absorb_system(&sys);
        }
        tr.call("drop", rep, || drop(sys));
        tr.exit();
        if rep < WARMUP_REPS as u64 {
            continue;
        }

        for id in ids.iter().chain(&singles) {
            out.inputs_fnv = fnv1a(out.inputs_fnv, &id.to_le_bytes());
        }
        out.checks.attempted += (messages + SINGLES) as u64;
        if ok < messages || single_ok < SINGLES {
            out.checks.failed += (messages - ok + SINGLES - single_ok) as u64;
            out.checks.reasons.push(format!(
                "rep {rep}: {seen} of {messages} received, {accepted} accepted, {extra} unexpected, {single_ok} of {SINGLES} singles"
            ));
        }
        batch_s.push(batch.as_secs_f64());
        single_ms.extend(this_rep_ms);
        bytes_per_msg.push(wire_bytes as f64 / messages as f64);
        out.round(round_start, in_timed);
    }

    let messages = messages as f64;
    for (name, value) in [
        ("says_msgs_per_s", messages / stats::median(&batch_s)),
        ("says_msgs_per_s_best", messages / stats::best(&batch_s)),
        ("says_one_ms_p50", stats::median(&single_ms)),
        ("says_one_ms_best", stats::best(&single_ms)),
        ("says_wire_bytes_per_msg", stats::median(&bytes_per_msg)),
    ] {
        out.e2e.insert(name, value);
    }
    out.samples.insert("says_msgs_per_s", batch_s.len() as u64);
    out.samples
        .insert("says_one_ms_p50", single_ms.len() as u64);
    out.notes.insert("messages_per_rep", messages.to_string());
    out
}
