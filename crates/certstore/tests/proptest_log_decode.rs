//! Hostile bytes on the certificate log's replay path: `scan_records`
//! → `decode_record` → `LinkedCert::parse_wire_bytes`, seeded from
//! valid `encode_record` output (certificate, revocation and clock
//! records) and then edited (flip, truncate, splice, duplicate, extend).
//! Half of the edited frames get a fresh length and CRC, so they reach
//! the decoder; the other half keep the originals and must read as a
//! torn tail. Decoding never panics, and every record before the edited
//! one replays as written.

use lbtrust_certstore::backend::{decode_record, encode_record, scan_records};
use lbtrust_certstore::{CertDigest, LinkedCert, LogRecord};
use lbtrust_datalog::{parse_rule, Symbol};
use lbtrust_net::wire::{frame_record, read_frame};
use proptest::prelude::*;
use std::sync::Arc;

const RULES: [&str; 4] = [
    "good(carol).",
    "access(P,file1,read) <- good(P), member(P,staff).",
    "access(P,file2,read) <- says(alice,me,[| good(P) |]).",
    "p(\"s t\", 42) <- q(X).",
];

/// A valid record drawn from `(kind, n)`.
fn record((kind, n): (u8, u64)) -> LogRecord {
    let issuer = Symbol::intern(["alice", "bob"][n as usize % 2]);
    let bytes = |len: u64, salt: u64| -> Vec<u8> {
        (0..len)
            .map(|k| (k * 31).wrapping_add(salt) as u8)
            .collect()
    };
    match kind % 3 {
        0 => LogRecord::Cert(LinkedCert {
            issuer,
            rule: Arc::new(parse_rule(RULES[n as usize % RULES.len()]).unwrap()),
            links: (0..n % 3)
                .map(|k| CertDigest::of(&[k as u8, n as u8]))
                .collect(),
            ttl: (n % 4 != 0).then_some(n % 97),
            signature: bytes(n % 97, n),
            rule_sig: bytes(n % 13, n.wrapping_add(1)),
        }),
        1 => LogRecord::Revoke {
            issuer,
            target: CertDigest::of(&n.to_le_bytes()),
            signature: bytes(n % 64, n),
        },
        _ => LogRecord::Tick(n),
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
