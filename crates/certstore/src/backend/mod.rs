//! Pluggable storage backends for the certificate store.
//!
//! Every mutation the store performs — a verified import, a verified
//! revocation, a logical-clock advance — is expressed as one
//! [`LogRecord`] and appended through the [`StorageBackend`] trait
//! before the in-memory state changes. Opening a store replays the
//! backend's records to rebuild active/revoked/expired state
//! deterministically.
//!
//! Two implementations ship:
//!
//! * [`memory::MemoryBackend`] — the pre-persistence behaviour: appends
//!   are acknowledged and dropped; replay yields nothing. A store over
//!   it lives and dies with the process.
//! * [`log::LogBackend`] — a segmented log of length-prefixed,
//!   CRC-checked frames (`lbtrust-net::wire::frame_record`) whose
//!   payloads reuse the canonical wire encoding, with size-triggered
//!   rotation, a manifest-governed segment set, checkpoint-bounded
//!   replay and live-state compaction. A record's presence in the log
//!   *is* its recorded verification outcome: replay trusts it and
//!   primes the shared verification cache instead of re-running
//!   signature checks, and files a certificate under the content
//!   address its record carries instead of hashing it again, which is
//!   why reopening a store is much cheaper than a cold import.

pub mod fault;
pub mod log;
pub mod memory;

use crate::audit::{AuditAction, AuditEntry};
use crate::cert::LinkedCert;
use crate::digest::CertDigest;
use lbtrust_datalog::Symbol;
use lbtrust_net::wire::{frame_record, read_frame, read_frame_sequence, META_CHECKPOINT};
use std::fmt;
use std::sync::Arc;

/// Frame tag for a certificate-import record: the certificate's 32-byte
/// content address, then its wire bytes (one signature). Tag 1 held the
/// wire bytes alone, and tag 6 wire bytes that carried a second
/// signature over the rule; a log holding either is refused as
/// [`StorageError::UnsupportedRecord`].
pub const REC_CERT: u8 = 7;
/// Frame tag for a revocation record.
pub const REC_REVOKE: u8 = 2;
/// Frame tag for a clock-advance record.
pub const REC_TICK: u8 = 3;
/// Frame tag for a checkpoint record (a serialized materialized store
/// state; replay resets to it instead of re-running prior history).
pub const REC_CHECKPOINT: u8 = 4;
/// Frame tag for one audit-trail entry in the audit segment.
pub const REC_AUDIT: u8 = 5;

/// Nested frame tag (inside a checkpoint payload) for one active
/// certificate: its content address, its lifecycle metadata, its wire
/// bytes (one signature). Tag `0xA2` held no address, and `0xA4` wire
/// bytes with a second signature; a checkpoint holding either does not
/// decode.
const CKPT_CERT: u8 = 0xA5;
/// Nested frame tag for one remembered revocation.
const CKPT_REVOKED: u8 = 0xA3;

/// One active certificate inside a [`CheckpointState`], with the
/// lifecycle metadata replay cannot reconstruct (its import time and
/// absolute expiry deadline — re-deriving the deadline from the
/// restored clock would grant expired certificates a fresh lease).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointCert {
    /// Its content address, recorded so a restore never hashes it.
    pub digest: CertDigest,
    /// The certificate (signatures recorded as verified).
    pub cert: LinkedCert,
    /// Logical time of the original import.
    pub imported_at: u64,
    /// Absolute logical expiry deadline, if the certificate has a TTL.
    pub expires_at: Option<u64>,
}

/// The materialized store state a checkpoint record serializes: the
/// logical clock, every *live* certificate, and the remembered
/// revocations (which must keep blocking re-imports forever). Dead
/// non-revoked certificates are deliberately absent — compaction
/// forgets them, while the folded audit segment keeps their full
/// lifecycle citable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointState {
    /// The store's logical time.
    pub clock: u64,
    /// Live certificates in insertion order.
    pub active: Vec<CheckpointCert>,
    /// Every `(issuer, target, signature)` revocation object on file,
    /// in a deterministic (sorted) order. Carrying the signature lets a
    /// reopened store keep serving its objects to anti-entropy peers;
    /// checkpoints from before the gossip layer decode with an empty
    /// signature (the object still blocks imports, but cannot be
    /// re-served).
    pub revoked: Vec<(Symbol, CertDigest, Vec<u8>)>,
}

/// One durable mutation. Records are appended only after verification
/// succeeds, so presence in a log is itself the recorded verification
/// outcome — and a certificate record's address is the one its import
/// computed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// A certificate whose signature verified at append time.
    Cert {
        /// Its content address, as the import computed it.
        digest: CertDigest,
        /// The certificate.
        cert: LinkedCert,
    },
    /// A revocation whose signature verified at append time.
    Revoke {
        /// The withdrawing principal.
        issuer: Symbol,
        /// Content address of the withdrawn certificate.
        target: CertDigest,
        /// The verified signature (re-primed into the cache on replay).
        signature: Vec<u8>,
    },
    /// A logical-clock advance of `ticks`.
    Tick(u64),
    /// A serialized materialized state: replay resets to it, so records
    /// before a checkpoint never need to be read again.
    Checkpoint(Box<CheckpointState>),
}

/// Backend failure: I/O trouble or a corrupt record mid-log (a corrupt
/// *tail* is not an error — replay stops cleanly before it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io {
        /// What the backend was doing.
        context: String,
        /// The OS error rendered.
        message: String,
    },
    /// The log holds an *intact* frame (CRC valid) this binary cannot
    /// decode — an unknown record kind or payload format, i.e. version
    /// skew rather than corruption. Refusing to open is deliberate:
    /// truncating here would destroy real history (possibly including
    /// revocations) a newer binary wrote.
    UnsupportedRecord {
        /// Where the log lives.
        context: String,
        /// Byte offset of the undecodable frame.
        offset: u64,
    },
    /// The serialized materialized state exceeds the per-record frame
    /// budget, so a checkpoint cannot be installed (the log keeps
    /// operating append-only). Distinguished so opportunistic callers
    /// — the group-commit auto-compaction trigger — can skip such a
    /// store rather than fail the commit.
    CheckpointTooLarge {
        /// Where the log lives.
        context: String,
        /// Encoded checkpoint size.
        bytes: u64,
        /// The frame budget it exceeds.
        limit: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { context, message } => {
                write!(f, "storage backend i/o failure while {context}: {message}")
            }
            StorageError::UnsupportedRecord { context, offset } => write!(
                f,
                "log {context} holds an intact but undecodable record at byte {offset} \
                 (version skew?); refusing to open rather than truncate history"
            ),
            StorageError::CheckpointTooLarge {
                context,
                bytes,
                limit,
            } => write!(
                f,
                "checkpoint of {context} would be {bytes} bytes, over the {limit}-byte \
                 frame budget; the log keeps operating append-only"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

/// What a backend recovered at open time.
#[derive(Clone, Debug, Default)]
pub struct ReplayLog {
    /// The valid records, in append order.
    pub records: Vec<LogRecord>,
    /// Bytes of log covered by valid records.
    pub valid_bytes: u64,
    /// Whether unreadable bytes (torn write, bit rot — a frame that
    /// fails its length or CRC check) followed the last valid record.
    pub truncated_tail: bool,
    /// Byte offset of an *intact* frame whose record could not be
    /// decoded (unknown kind / malformed payload): version skew, not
    /// corruption. Backends must refuse to truncate at this boundary.
    pub unsupported_at: Option<u64>,
    /// Audit entries restored from the backend's durable audit segment
    /// (entries folded out of compacted history). Empty for backends
    /// without one, and for logs that never checkpointed.
    pub audit: Vec<AuditEntry>,
    /// Whether replay was anchored at a checkpoint, i.e. `records`
    /// covers only the checkpoint and the log suffix after it rather
    /// than full history.
    pub from_checkpoint: bool,
}

/// A backend's storage footprint, for observability and compaction
/// triggers. All zeros for media-less backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Record segments on disk (the active one included).
    pub segments: u64,
    /// Total bytes across record segments.
    pub bytes: u64,
    /// Bytes in the durable audit segment.
    pub audit_bytes: u64,
}

/// The durability substrate all store mutation flows through.
pub trait StorageBackend: Send {
    /// Durably appends one record (called *before* the in-memory state
    /// changes; an error leaves the store untouched). Backends with
    /// size-triggered rotation may seal the active segment and start a
    /// new one as a side effect.
    fn append(&mut self, record: &LogRecord) -> Result<(), StorageError>;

    /// Reads every valid record from the replay anchor — the start of
    /// the log, or the latest installed checkpoint — stopping cleanly
    /// at the first truncated or corrupt frame.
    fn replay(&mut self) -> Result<ReplayLog, StorageError>;

    /// Flushes buffered appends to the underlying medium.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// A short human-readable description ("memory", the file path, …).
    fn describe(&self) -> String;

    /// The backend's current storage footprint. Defaults to zeros for
    /// backends without a durable medium.
    fn footprint(&self) -> Footprint {
        Footprint::default()
    }

    /// Seals the active segment and starts a fresh one, independent of
    /// the size trigger. A no-op for backends without segments.
    fn rotate(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Durably installs `checkpoint` as the new replay anchor and
    /// appends `audit_suffix` to the durable audit segment, so history
    /// before the checkpoint never needs replaying again. With `prune`,
    /// pre-checkpoint segments are also deleted (compaction); without
    /// it they are merely skipped by future replays. Returns whether
    /// the backend actually installed anything (media-less backends
    /// return `false` — their in-memory store *is* the state).
    ///
    /// Crash contract: the old history must win until the new manifest
    /// generation is durably in place — a crash mid-install leaves the
    /// previous replay anchor fully intact.
    fn install_checkpoint(
        &mut self,
        checkpoint: &LogRecord,
        audit_suffix: &[AuditEntry],
        prune: bool,
    ) -> Result<bool, StorageError> {
        let _ = (checkpoint, audit_suffix, prune);
        Ok(false)
    }
}

/// Boxed backends are backends too, so wrappers like
/// [`fault::FaultingBackend`] can compose over `Box<dyn StorageBackend>`
/// without knowing the concrete inner type.
impl StorageBackend for Box<dyn StorageBackend> {
    fn append(&mut self, record: &LogRecord) -> Result<(), StorageError> {
        (**self).append(record)
    }

    fn replay(&mut self) -> Result<ReplayLog, StorageError> {
        (**self).replay()
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        (**self).sync()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn footprint(&self) -> Footprint {
        (**self).footprint()
    }

    fn rotate(&mut self) -> Result<(), StorageError> {
        (**self).rotate()
    }

    fn install_checkpoint(
        &mut self,
        checkpoint: &LogRecord,
        audit_suffix: &[AuditEntry],
        prune: bool,
    ) -> Result<bool, StorageError> {
        (**self).install_checkpoint(checkpoint, audit_suffix, prune)
    }
}

/// Splits a payload that starts with a 32-byte content address.
fn split_address(payload: &[u8]) -> Option<(CertDigest, &[u8])> {
    let (address, rest) = payload.split_first_chunk()?;
    Some((CertDigest(*address), rest))
}

/// Encodes one record as a framed byte string.
pub fn encode_record(record: &LogRecord) -> Vec<u8> {
    match record {
        LogRecord::Cert { digest, cert } => frame_record(
            REC_CERT,
            &[digest.as_bytes().as_slice(), &cert.wire_bytes()].concat(),
        ),
        LogRecord::Revoke {
            issuer,
            target,
            signature,
        } => {
            let payload = format!(
                "lbtrust-revokerec:v1\nissuer:{issuer}\ntarget:{}\nsig:{}\n",
                target.to_hex(),
                lbtrust_net::to_hex(signature)
            );
            frame_record(REC_REVOKE, payload.as_bytes())
        }
        LogRecord::Tick(ticks) => frame_record(REC_TICK, format!("ticks:{ticks}").as_bytes()),
        LogRecord::Checkpoint(state) => {
            let mut payload = Vec::new();
            let header = format!(
                "lbtrust-checkpoint:v1\nclock:{}\nactive:{}\nrevoked:{}\n",
                state.clock,
                state.active.len(),
                state.revoked.len()
            );
            payload.extend_from_slice(&frame_record(META_CHECKPOINT, header.as_bytes()));
            for c in &state.active {
                let exp = match c.expires_at {
                    Some(t) => t.to_string(),
                    None => "none".to_string(),
                };
                let mut body = c.digest.as_bytes().to_vec();
                body.extend_from_slice(format!("at:{}\nexp:{exp}\n", c.imported_at).as_bytes());
                body.extend_from_slice(&c.cert.wire_bytes());
                payload.extend_from_slice(&frame_record(CKPT_CERT, &body));
            }
            for (issuer, target, signature) in &state.revoked {
                // Text header, then the raw signature bytes — the
                // object must stay re-servable to anti-entropy peers
                // after a reopen, and raw beats hex by 2x on what is
                // pure ballast for the compaction ratio.
                let mut body =
                    format!("issuer:{issuer}\ntarget:{}\n", target.to_hex()).into_bytes();
                body.extend_from_slice(signature);
                payload.extend_from_slice(&frame_record(CKPT_REVOKED, &body));
            }
            frame_record(REC_CHECKPOINT, &payload)
        }
    }
}

/// Decodes a checkpoint payload (the nested frame sequence inside a
/// `REC_CHECKPOINT` record). `None` on any structural deviation — a
/// checkpoint is trusted state, so partial decode is refused.
fn decode_checkpoint(payload: &[u8]) -> Option<CheckpointState> {
    let frames = read_frame_sequence(payload)?;
    let mut it = frames.into_iter();
    let (kind, header) = it.next()?;
    if kind != META_CHECKPOINT {
        return None;
    }
    let header = std::str::from_utf8(header).ok()?;
    let mut lines = header.lines();
    if lines.next()? != "lbtrust-checkpoint:v1" {
        return None;
    }
    let clock: u64 = lines.next()?.strip_prefix("clock:")?.parse().ok()?;
    let n_active: usize = lines.next()?.strip_prefix("active:")?.parse().ok()?;
    let n_revoked: usize = lines.next()?.strip_prefix("revoked:")?.parse().ok()?;
    let mut active = Vec::with_capacity(n_active);
    let mut revoked = Vec::with_capacity(n_revoked);
    for (kind, body) in it {
        match kind {
            CKPT_CERT => {
                let (digest, body) = split_address(body)?;
                let text = std::str::from_utf8(body).ok()?;
                let mut parts = text.splitn(3, '\n');
                let imported_at: u64 = parts.next()?.strip_prefix("at:")?.parse().ok()?;
                let expires_at = match parts.next()?.strip_prefix("exp:")? {
                    "none" => None,
                    t => Some(t.parse().ok()?),
                };
                let cert = LinkedCert::parse_wire_bytes(parts.next()?.as_bytes())?;
                active.push(CheckpointCert {
                    digest,
                    cert,
                    imported_at,
                    expires_at,
                });
            }
            CKPT_REVOKED => {
                // Two text header lines, then raw signature bytes.
                // Pre-gossip checkpoints end after the header; they
                // decode with an empty signature (the object still
                // blocks imports but cannot be re-served).
                let newline = |buf: &[u8]| buf.iter().position(|b| *b == b'\n');
                let split = newline(body)?;
                let issuer_line = std::str::from_utf8(&body[..split]).ok()?;
                let rest = &body[split + 1..];
                let split = newline(rest)?;
                let target_line = std::str::from_utf8(&rest[..split]).ok()?;
                let issuer = Symbol::intern(issuer_line.strip_prefix("issuer:")?);
                let target = CertDigest::parse_hex(target_line.strip_prefix("target:")?)?;
                let signature = rest[split + 1..].to_vec();
                revoked.push((issuer, target, signature));
            }
            _ => return None,
        }
    }
    if active.len() != n_active || revoked.len() != n_revoked {
        return None;
    }
    Some(CheckpointState {
        clock,
        active,
        revoked,
    })
}

/// Encodes one audit-trail entry as a framed record for the durable
/// audit segment.
pub fn encode_audit_entry(entry: &AuditEntry) -> Vec<u8> {
    let rule = match &entry.rule {
        Some(r) => r.to_string(),
        None => String::new(),
    };
    let payload = format!(
        "lbtrust-auditrec:v1\ndigest:{}\nprincipal:{}\naction:{}\nat:{}\nrule:{rule}\n",
        entry.digest.to_hex(),
        entry.principal,
        entry.action,
        entry.at
    );
    frame_record(REC_AUDIT, payload.as_bytes())
}

/// Decodes one audit-segment frame body back into an entry.
pub fn decode_audit_entry(kind: u8, payload: &[u8]) -> Option<AuditEntry> {
    if kind != REC_AUDIT {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    let mut lines = text.lines();
    if lines.next()? != "lbtrust-auditrec:v1" {
        return None;
    }
    let digest = CertDigest::parse_hex(lines.next()?.strip_prefix("digest:")?)?;
    let principal = Symbol::intern(lines.next()?.strip_prefix("principal:")?);
    let action = AuditAction::parse(lines.next()?.strip_prefix("action:")?)?;
    let at: u64 = lines.next()?.strip_prefix("at:")?.parse().ok()?;
    let rule = match lines.next()?.strip_prefix("rule:")? {
        "" => None,
        src => Some(Arc::new(lbtrust_datalog::parse_rule(src).ok()?)),
    };
    if lines.next().is_some() {
        return None;
    }
    Some(AuditEntry {
        digest,
        principal,
        action,
        at,
        rule,
    })
}

/// Decodes one frame body back into a record. `None` means the frame
/// passed its CRC but carries an unknown tag or malformed payload —
/// replay treats that the same as a corrupt tail.
pub fn decode_record(kind: u8, payload: &[u8]) -> Option<LogRecord> {
    match kind {
        REC_CERT => {
            let (digest, wire) = split_address(payload)?;
            let cert = LinkedCert::parse_wire_bytes(wire)?;
            Some(LogRecord::Cert { digest, cert })
        }
        REC_REVOKE => {
            let text = std::str::from_utf8(payload).ok()?;
            let mut lines = text.lines();
            if lines.next()? != "lbtrust-revokerec:v1" {
                return None;
            }
            let issuer = Symbol::intern(lines.next()?.strip_prefix("issuer:")?);
            let target = CertDigest::parse_hex(lines.next()?.strip_prefix("target:")?)?;
            let signature = lbtrust_net::from_hex(lines.next()?.strip_prefix("sig:")?)?;
            if lines.next().is_some() {
                return None;
            }
            Some(LogRecord::Revoke {
                issuer,
                target,
                signature,
            })
        }
        REC_TICK => {
            let text = std::str::from_utf8(payload).ok()?;
            Some(LogRecord::Tick(text.strip_prefix("ticks:")?.parse().ok()?))
        }
        REC_CHECKPOINT => decode_checkpoint(payload).map(|s| LogRecord::Checkpoint(Box::new(s))),
        _ => None,
    }
}

/// Scans a byte buffer of framed records, decoding until the first
/// invalid frame. The stop reason is distinguished: an *unreadable*
/// frame (short / bad CRC) marks a torn tail, safe to discard; an
/// intact frame that fails to decode marks version skew and is
/// reported via `unsupported_at` so callers refuse to truncate there.
/// Shared by backends and by tooling that inspects raw log bytes.
pub fn scan_records(buf: &[u8]) -> ReplayLog {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut unsupported_at = None;
    while let Some((kind, payload, next)) = read_frame(buf, offset) {
        match decode_record(kind, payload) {
            Some(record) => records.push(record),
            None => {
                unsupported_at = Some(offset as u64);
                break;
            }
        }
        offset = next;
    }
    ReplayLog {
        records,
        valid_bytes: offset as u64,
        truncated_tail: unsupported_at.is_none() && offset < buf.len(),
        unsupported_at,
        audit: Vec::new(),
        from_checkpoint: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbtrust_datalog::parse_rule;
    use std::sync::Arc;

    fn cert(rule_src: &str, ttl: Option<u64>) -> LinkedCert {
        LinkedCert {
            issuer: Symbol::intern("alice"),
            rule: Arc::new(parse_rule(rule_src).unwrap()),
            links: vec![CertDigest::of(b"support")],
            ttl,
            signature: vec![1, 2, 3],
        }
    }

    fn cert_record(cert: LinkedCert) -> LogRecord {
        LogRecord::Cert {
            digest: cert.digest(),
            cert,
        }
    }

    fn checkpoint_cert(
        cert: LinkedCert,
        imported_at: u64,
        expires_at: Option<u64>,
    ) -> CheckpointCert {
        CheckpointCert {
            digest: cert.digest(),
            cert,
            imported_at,
            expires_at,
        }
    }

    #[test]
    fn record_codec_roundtrip() {
        let records = vec![
            cert_record(cert("good(carol).", Some(9))),
            LogRecord::Revoke {
                issuer: Symbol::intern("alice"),
                target: CertDigest::of(b"victim"),
                signature: vec![7; 16],
            },
            LogRecord::Tick(42),
        ];
        let mut buf = Vec::new();
        for r in &records {
            buf.extend_from_slice(&encode_record(r));
        }
        let log = scan_records(&buf);
        assert_eq!(log.records, records);
        assert_eq!(log.valid_bytes as usize, buf.len());
        assert!(!log.truncated_tail);
    }

    #[test]
    fn scan_stops_at_corrupt_tail() {
        let mut buf = encode_record(&LogRecord::Tick(1));
        let keep = buf.len();
        buf.extend_from_slice(&encode_record(&LogRecord::Tick(2)));
        buf[keep + 6] ^= 0xff; // corrupt the second frame's body
        let log = scan_records(&buf);
        assert_eq!(log.records, vec![LogRecord::Tick(1)]);
        assert_eq!(log.valid_bytes as usize, keep);
        assert!(log.truncated_tail);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let state = CheckpointState {
            clock: 17,
            active: vec![
                checkpoint_cert(cert("good(carol).", Some(9)), 3, Some(12)),
                checkpoint_cert(cert("p(x) <- q(x).", None), 0, None),
            ],
            revoked: vec![
                (Symbol::intern("alice"), CertDigest::of(b"gone"), vec![9; 8]),
                (
                    Symbol::intern("bob"),
                    CertDigest::of(b"also-gone"),
                    Vec::new(),
                ),
            ],
        };
        let record = LogRecord::Checkpoint(Box::new(state));
        let buf = encode_record(&record);
        let log = scan_records(&buf);
        assert_eq!(log.records, vec![record]);
        assert!(!log.truncated_tail && log.unsupported_at.is_none());
    }

    #[test]
    fn corrupt_checkpoint_is_unsupported_not_salvaged() {
        let record = LogRecord::Checkpoint(Box::new(CheckpointState {
            clock: 1,
            active: vec![checkpoint_cert(cert("good(carol).", None), 0, None)],
            revoked: vec![],
        }));
        let mut buf = encode_record(&record);
        // Corrupt a nested frame's CRC while keeping the outer frame
        // intact: flip a payload byte, then re-CRC the outer frame.
        let body_len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        buf[40] ^= 0xff;
        let crc = lbtrust_crypto::crc32::crc32(&buf[4..4 + body_len]);
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&crc.to_le_bytes());
        let log = scan_records(&buf);
        assert!(log.records.is_empty());
        assert_eq!(
            log.unsupported_at,
            Some(0),
            "a checkpoint that fails nested validation must refuse decode"
        );
    }

    #[test]
    fn audit_entry_roundtrip() {
        use crate::audit::AuditAction;
        let entries = [
            AuditEntry {
                digest: CertDigest::of(b"c1"),
                principal: Symbol::intern("alice"),
                action: AuditAction::Imported,
                at: 4,
                rule: Some(Arc::new(parse_rule("good(carol).").unwrap())),
            },
            AuditEntry {
                digest: CertDigest::of(b"c2"),
                principal: Symbol::intern("bob"),
                action: AuditAction::LinkBroken,
                at: 9,
                rule: None,
            },
        ];
        for e in &entries {
            let buf = encode_audit_entry(e);
            let (kind, payload, next) = read_frame(&buf, 0).unwrap();
            assert_eq!(next, buf.len());
            let back = decode_audit_entry(kind, payload).unwrap();
            assert_eq!(back.digest, e.digest);
            assert_eq!(back.principal, e.principal);
            assert_eq!(back.action, e.action);
            assert_eq!(back.at, e.at);
            assert_eq!(
                back.rule.as_ref().map(|r| r.to_string()),
                e.rule.as_ref().map(|r| r.to_string())
            );
        }
    }

    #[test]
    fn unknown_tag_is_version_skew_not_corruption() {
        let mut buf = encode_record(&LogRecord::Tick(3));
        let keep = buf.len();
        buf.extend_from_slice(&lbtrust_net::wire::frame_record(99, b"future"));
        let log = scan_records(&buf);
        assert_eq!(log.records.len(), 1);
        assert_eq!(log.valid_bytes as usize, keep);
        assert!(
            !log.truncated_tail,
            "an intact frame must not look like a torn tail"
        );
        assert_eq!(log.unsupported_at, Some(keep as u64));
    }
}
