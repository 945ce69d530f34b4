//! Hostile bytes on the certificate log's replay path: `scan_records`
//! → `decode_record` → `LinkedCert::parse_wire_bytes`, seeded from
//! valid `encode_record` output (certificate, revocation, clock and
//! checkpoint records) and then edited (flip, truncate, splice,
//! duplicate, extend). Half of the edited frames get a fresh length and
//! CRC, so they reach the decoder; the other half keep the originals and
//! must read as a torn tail. Decoding never panics, and every record
//! before the edited one replays as written.
//!
//! Replay files a certificate under the content address its record
//! carries, without hashing it; a flip that keeps the frame's CRC,
//! address bytes included, is a torn tail, so no such edit files a
//! certificate under an address other than the one written.
//!
//! The same edits, applied to a rotated log's `MANIFEST` — to the file,
//! to its payload or to one field's value, the last two re-framed with a
//! fresh CRC so they reach the field parser — reach `LogBackend::open`:
//! it never panics, opens exactly the manifests a model of the format
//! and its consistency rules accepts, and a refused open leaves every
//! file as it was.

use lbtrust_certstore::backend::log::LogBackend;
use lbtrust_certstore::backend::{
    decode_record, encode_record, scan_records, CheckpointCert, CheckpointState, StorageBackend,
};
use lbtrust_certstore::{AuditAction, AuditEntry, CertDigest, LinkedCert, LogRecord};
use lbtrust_datalog::{parse_rule, Symbol};
use lbtrust_net::wire::{frame_meta_file, frame_record, read_frame, read_meta_file, META_MANIFEST};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

const RULES: [&str; 4] = [
    "good(carol).",
    "access(P,file1,read) <- good(P), member(P,staff).",
    "access(P,file2,read) <- says(alice,me,[| good(P) |]).",
    "p(\"s t\", 42) <- q(X).",
];

fn bytes(len: u64, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|k| (k * 31).wrapping_add(salt) as u8)
        .collect()
}

fn issuer(n: u64) -> Symbol {
    Symbol::intern(["alice", "bob"][n as usize % 2])
}

/// A certificate drawn from `n`, with its content address.
fn cert(n: u64) -> (CertDigest, LinkedCert) {
    let cert = LinkedCert {
        issuer: issuer(n),
        rule: Arc::new(parse_rule(RULES[n as usize % RULES.len()]).unwrap()),
        links: (0..n % 3)
            .map(|k| CertDigest::of(&[k as u8, n as u8]))
            .collect(),
        ttl: (!n.is_multiple_of(4)).then_some(n % 97),
        signature: bytes(n % 97, n),
    };
    (cert.digest(), cert)
}

/// A valid record drawn from `(kind, n)`.
fn record((kind, n): (u8, u64)) -> LogRecord {
    match kind % 4 {
        0 => {
            let (digest, cert) = cert(n);
            LogRecord::Cert { digest, cert }
        }
        1 => LogRecord::Revoke {
            issuer: issuer(n),
            target: CertDigest::of(&n.to_le_bytes()),
            signature: bytes(n % 64, n),
        },
        2 => LogRecord::Tick(n),
        _ => LogRecord::Checkpoint(Box::new(CheckpointState {
            clock: n,
            active: (0..n % 3)
                .map(|k| {
                    let (digest, cert) = cert(n.wrapping_add(k));
                    CheckpointCert {
                        digest,
                        cert,
                        imported_at: k,
                        expires_at: (k % 2 == 1).then_some(n),
                    }
                })
                .collect(),
            revoked: (0..n % 2)
                .map(|k| {
                    (
                        issuer(k),
                        CertDigest::of(&k.to_le_bytes()),
                        bytes(n % 16, k),
                    )
                })
                .collect(),
        })),
    }
}

/// One hostile edit of the non-empty `bytes`, drawn from `dice`;
/// `other` is a second valid encoding to splice from.
fn mutate(bytes: &[u8], other: &[u8], dice: (u8, usize, usize, u8)) -> Vec<u8> {
    let (kind, a, b, byte) = dice;
    let mut out = bytes.to_vec();
    let at = a % (out.len() + 1);
    let end = at + b % (out.len() - at + 1);
    match kind % 5 {
        0 => out[a % bytes.len()] ^= 1 << (byte % 8),
        1 => out.truncate(at),
        2 => {
            let from = b % (other.len() + 1);
            let take = (byte as usize % 24).min(other.len() - from);
            out.splice(at..at, other[from..from + take].iter().copied());
        }
        3 => {
            let doubled = out[at..end].to_vec();
            out.splice(end..end, doubled);
        }
        _ => out.extend(std::iter::repeat_n(byte, 1 + b % 8)),
    }
    out
}

/// A frame's body: its kind byte and payload, between the length
/// prefix and the CRC trailer.
fn body(frame: &[u8]) -> &[u8] {
    &frame[4..frame.len() - 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_log_bytes_replay_a_clean_prefix(
        seeds in prop::collection::vec((any::<u8>(), any::<u64>()), 1..6),
        victim in any::<usize>(),
        dice in (any::<u8>(), any::<usize>(), any::<usize>(), any::<u8>()),
        recrc in any::<bool>(),
    ) {
        let records: Vec<LogRecord> = seeds.into_iter().map(record).collect();
        let frames: Vec<Vec<u8>> = records.iter().map(encode_record).collect();
        prop_assert_eq!(&scan_records(&frames.concat()).records, &records);

        let i = victim % frames.len();
        let frame = &frames[i];
        let other = body(&frames[(i + 1) % frames.len()]);
        let edited = if recrc {
            let edited_body = mutate(body(frame), other, dice);
            // An empty body has no kind byte for a fresh frame to carry.
            let Some((&kind, payload)) = edited_body.split_first() else {
                return;
            };
            frame_record(kind, payload)
        } else if dice.0.is_multiple_of(5) {
            // A flip (edit kind 0) lands anywhere: length prefix and CRC
            // trailer included.
            mutate(frame, other, dice)
        } else {
            let (head, tail) = (&frame[..4], &frame[frame.len() - 4..]);
            [head, &mutate(body(frame), other, dice), tail].concat()
        };
        prop_assume!(edited != *frame);

        let start: usize = frames[..i].iter().map(Vec::len).sum();
        let buf = [&frames[..i].concat()[..], &edited, &frames[i + 1..].concat()].concat();
        let log = scan_records(&buf);
        prop_assert!(log.records.len() >= i, "an untouched record was lost");
        prop_assert_eq!(&log.records[..i], &records[..i]);

        if !recrc {
            // The stored CRC no longer covers what the length points at.
            prop_assert!(read_frame(&buf, start).is_none());
            prop_assert_eq!(log.records.len(), i);
            prop_assert_eq!(log.valid_bytes as usize, start);
            prop_assert!(log.truncated_tail, "a bad CRC is a torn tail");
            prop_assert_eq!(log.unsupported_at, None);
            return;
        }
        let (kind, payload, next) = read_frame(&buf, start).expect("a fresh CRC is intact");
        prop_assert_eq!(next, start + edited.len());
        match decode_record(kind, payload) {
            None => {
                prop_assert_eq!(log.records.len(), i);
                prop_assert_eq!(log.valid_bytes as usize, start);
                prop_assert_eq!(log.unsupported_at, Some(start as u64));
                prop_assert!(!log.truncated_tail, "an intact frame is not a torn tail");
            }
            Some(decoded) => {
                // Whatever decodes prints back to a frame that decodes the same.
                let again = scan_records(&encode_record(&decoded)).records;
                prop_assert_eq!(&again, std::slice::from_ref(&decoded));
                let mut expected = records.clone();
                expected[i] = decoded;
                prop_assert_eq!(&log.records, &expected);
                prop_assert_eq!(log.valid_bytes as usize, buf.len());
                prop_assert!(!log.truncated_tail && log.unsupported_at.is_none());
            }
        }
    }
}

/// A segment directory's files, name and contents, sorted by name.
type Files = Vec<(String, Vec<u8>)>;

fn files(dir: &Path) -> Files {
    let mut files: Files = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh log path; its segment directory is the path minus `.certlog`.
fn fresh_log_path(tag: &str) -> PathBuf {
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "manifest-{}-{tag}-{case}.certlog",
        std::process::id()
    ))
}

/// Two rotated logs' directories, written once: ten ticks in segments
/// 1-4 (`next` 5, no checkpoint), and the same plus an unpruned
/// checkpoint in segment 5 and a folded audit entry.
fn templates() -> &'static [Files; 2] {
    static TEMPLATES: OnceLock<[Files; 2]> = OnceLock::new();
    TEMPLATES.get_or_init(|| {
        [false, true].map(|checkpointed| {
            let path = fresh_log_path("template");
            let tick = encode_record(&LogRecord::Tick(0)).len() as u64;
            let mut log = LogBackend::open_with_budget(&path, 3 * tick).unwrap();
            for t in 0..10 {
                log.append(&LogRecord::Tick(t)).unwrap();
            }
            if checkpointed {
                let state = CheckpointState {
                    clock: 10,
                    active: vec![],
                    revoked: vec![],
                };
                let audit = AuditEntry {
                    digest: CertDigest::of(b"gone"),
                    principal: Symbol::intern("alice"),
                    action: AuditAction::Revoked,
                    at: 7,
                    rule: None,
                };
                let record = LogRecord::Checkpoint(Box::new(state));
                assert!(log.install_checkpoint(&record, &[audit], false).unwrap());
            }
            log.sync().unwrap();
            drop(log);
            let dir = path.with_extension("");
            let files = files(&dir);
            std::fs::remove_dir_all(&dir).unwrap();
            files
        })
    })
}

/// A manifest's `(next, segments, checkpoint)` as the model reads the
/// format; `None` where the bytes are not a manifest.
fn manifest_fields(bytes: &[u8]) -> Option<(u64, Vec<u64>, Option<u64>)> {
    let text = std::str::from_utf8(read_meta_file(META_MANIFEST, bytes)?).ok()?;
    let lines: Vec<&str> = text.lines().collect();
    let ["lbtrust-manifest:v1", next, segments, checkpoint, audit] = lines[..] else {
        return None;
    };
    let next = next.strip_prefix("next:")?.parse().ok()?;
    let segments = match segments.strip_prefix("segments:")? {
        "" => Vec::new(),
        list => list
            .split(',')
            .map(|s| s.parse().ok())
            .collect::<Option<_>>()?,
    };
    let checkpoint = match checkpoint.strip_prefix("checkpoint:")? {
        "none" => None,
        seg => Some(seg.parse().ok()?),
    };
    let (entries, bytes) = audit.strip_prefix("audit:")?.split_once(':')?;
    entries.parse::<u64>().ok()?;
    bytes.parse::<u64>().ok()?;
    Some((next, segments, checkpoint))
}

/// Where the value of field line `field` (1 `next` … 4 `audit`) lies in
/// a valid manifest payload: after the line's first `:`.
fn value_span(payload: &[u8], field: usize) -> std::ops::Range<usize> {
    let text = std::str::from_utf8(payload).unwrap();
    let start: usize = text.split_inclusive('\n').take(field).map(str::len).sum();
    let line = text[start..].lines().next().unwrap();
    start + line.find(':').unwrap() + 1..start + line.len()
}

/// Whether a manifest can govern a directory holding `present`: it lists
/// segments, each once and each below `next`, a checkpoint among them,
/// and every sealed one (all but the last) is there.
fn governs((next, segments, checkpoint): (u64, Vec<u64>, Option<u64>), present: &Files) -> bool {
    let Some((_, sealed)) = segments.split_last() else {
        return false;
    };
    let listed: HashSet<u64> = segments.iter().copied().collect();
    let present = |seg: &u64| {
        present
            .iter()
            .any(|(name, _)| *name == format!("seg-{seg:08}.certlog"))
    };
    listed.len() == segments.len()
        && segments.iter().all(|&seg| seg < next)
        && checkpoint.is_none_or(|c| listed.contains(&c))
        && sealed.iter().all(present)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_manifests_open_only_when_they_govern_and_a_refusal_changes_nothing(
        checkpointed in any::<bool>(),
        dice in (any::<u8>(), any::<usize>(), any::<usize>(), any::<u8>()),
        // 0: the file as stored; 1: its payload, re-framed; 2..=5: the
        // value of one field line, re-framed.
        target in 0usize..6,
    ) {
        let manifest_of = |files: &Files| {
            let (_, bytes) = files.iter().find(|(name, _)| name == "MANIFEST").unwrap();
            bytes.clone()
        };
        let template = &templates()[usize::from(checkpointed)];
        let manifest = manifest_of(template);
        let other = manifest_of(&templates()[usize::from(!checkpointed)]);
        prop_assert!(manifest_fields(&manifest).is_some_and(|m| governs(m, template)));
        let payload = |bytes| read_meta_file(META_MANIFEST, bytes).unwrap();
        let (mine, theirs) = (payload(&manifest), payload(&other));
        let mutant = match target {
            0 => mutate(&manifest, &other, dice),
            1 => frame_meta_file(META_MANIFEST, &mutate(mine, theirs, dice)),
            field => {
                let (at, from) = (value_span(mine, field - 1), value_span(theirs, field - 1));
                let value = mutate(&mine[at.clone()], &theirs[from], dice);
                let edited = [&mine[..at.start], &value, &mine[at.end..]].concat();
                frame_meta_file(META_MANIFEST, &edited)
            }
        };

        let path = fresh_log_path("case");
        let dir = path.with_extension("");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in template {
            let bytes = if name == "MANIFEST" { &mutant } else { bytes };
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let before = files(&dir);
        let accepted = manifest_fields(&mutant).is_some_and(|m| governs(m, template));
        match LogBackend::open(&path) {
            Ok(mut log) => {
                prop_assert!(accepted, "opened {:?}", String::from_utf8_lossy(&mutant));
                let _ = log.replay();
            }
            Err(e) => {
                prop_assert!(!accepted, "refused {:?}: {e}", String::from_utf8_lossy(&mutant));
                prop_assert_eq!(files(&dir), before, "a refused open changed a file");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
