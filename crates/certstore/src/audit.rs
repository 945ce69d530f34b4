//! A certificate-transparency-style audit trail.
//!
//! Every lifecycle transition a store witnesses — import, revocation,
//! expiry, link breakage — appends one immutable
//! `(digest, action, logical-time)` entry here. The trail outlives the
//! credentials it describes: after a certificate is revoked and its
//! derived conclusions retracted, an `explain`-style query can still
//! cite *which* credential introduced a conclusion, who issued it, and
//! when it died. Replaying a durable log rebuilds the trail
//! deterministically, so the citation survives process restarts too.

use crate::digest::CertDigest;
use lbtrust_datalog::ast::Rule;
use lbtrust_datalog::Symbol;
use std::fmt;
use std::sync::Arc;

/// What happened to a certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditAction {
    /// Verified and filed under its content address.
    Imported,
    /// Withdrawn by a verified revocation (recorded even when the
    /// certificate itself never arrived — a pre-arrival revocation).
    Revoked,
    /// Died of TTL against the store's logical clock.
    Expired,
    /// Died because a supporting (linked) certificate died.
    LinkBroken,
}

impl AuditAction {
    /// Parses the rendering produced by the `Display` impl — the decode
    /// half of the durable audit segment's record payloads.
    pub fn parse(s: &str) -> Option<AuditAction> {
        Some(match s {
            "imported" => AuditAction::Imported,
            "revoked" => AuditAction::Revoked,
            "expired" => AuditAction::Expired,
            "link-broken" => AuditAction::LinkBroken,
            _ => return None,
        })
    }
}

impl fmt::Display for AuditAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AuditAction::Imported => "imported",
            AuditAction::Revoked => "revoked",
            AuditAction::Expired => "expired",
            AuditAction::LinkBroken => "link-broken",
        })
    }
}

/// One immutable trail entry.
#[derive(Clone, Debug)]
pub struct AuditEntry {
    /// Content address of the certificate.
    pub digest: CertDigest,
    /// The acting principal: the issuer for imports and revocations,
    /// the certificate's issuer for deaths the store decided itself.
    pub principal: Symbol,
    /// What happened.
    pub action: AuditAction,
    /// The store's logical time when it happened.
    pub at: u64,
    /// The certified rule, kept on `Imported` entries so conclusions
    /// can be traced back to the credential that introduced them even
    /// after the entry map forgot the certificate.
    pub rule: Option<Arc<Rule>>,
}

impl fmt::Display for AuditEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={} {} {} by {}",
            self.at,
            self.action,
            self.digest.short(),
            self.principal
        )?;
        if let Some(rule) = &self.rule {
            write!(f, ": {rule}")?;
        }
        Ok(())
    }
}

/// The append-only trail one store maintains.
#[derive(Clone, Debug, Default)]
pub struct AuditLog {
    entries: Vec<AuditEntry>,
}

impl AuditLog {
    /// An empty trail.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Rebuilds a trail from entries restored out of a durable audit
    /// segment (history folded away by checkpointing; replay of the log
    /// suffix appends the rest).
    pub(crate) fn restore(entries: Vec<AuditEntry>) -> AuditLog {
        AuditLog { entries }
    }

    /// Appends one entry (the store's internal hook).
    pub(crate) fn record(
        &mut self,
        digest: CertDigest,
        principal: Symbol,
        action: AuditAction,
        at: u64,
        rule: Option<Arc<Rule>>,
    ) {
        self.entries.push(AuditEntry {
            digest,
            principal,
            action,
            at,
            rule,
        });
    }

    /// Every entry, oldest first.
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trail is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The history of one certificate, oldest first.
    pub fn for_digest(&self, digest: &CertDigest) -> Vec<&AuditEntry> {
        self.entries
            .iter()
            .filter(|e| e.digest == *digest)
            .collect()
    }

    /// Import entries whose certified rule renders exactly as
    /// `rule_src` — "which credential introduced this conclusion?", dead
    /// or alive. Matches by canonical rule text, so callers can pass
    /// either a parsed rule's `to_string()` or source they normalized the
    /// same way. An audit query: a pass over the trail. Authorization
    /// cites live certificates only, from the store's maintained index
    /// (`CertStore::introducers`).
    pub fn introducers(&self, rule_src: &str) -> Vec<&AuditEntry> {
        let imported = |e: &&AuditEntry| {
            e.action == AuditAction::Imported
                && e.rule
                    .as_ref()
                    .is_some_and(|rule| rule.to_string() == rule_src)
        };
        self.entries.iter().filter(imported).collect()
    }

    /// The latest action recorded for a digest (e.g. `Revoked` after a
    /// withdrawal), if any.
    pub fn latest_action(&self, digest: &CertDigest) -> Option<AuditAction> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.digest == *digest)
            .map(|e| e.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbtrust_datalog::parse_rule;

    #[test]
    fn introducer_survives_revocation() {
        let mut log = AuditLog::new();
        let d = CertDigest::of(b"cert");
        let alice = Symbol::intern("alice");
        let rule = Arc::new(parse_rule("good(carol).").unwrap());
        log.record(d, alice, AuditAction::Imported, 0, Some(rule.clone()));
        log.record(d, alice, AuditAction::Revoked, 5, None);

        let intro = log.introducers(&rule.to_string());
        assert_eq!(intro.len(), 1);
        assert_eq!(intro[0].digest, d);
        assert_eq!(intro[0].at, 0);
        assert_eq!(log.latest_action(&d), Some(AuditAction::Revoked));
        assert_eq!(log.for_digest(&d).len(), 2);
    }

    #[test]
    fn display_formats() {
        let mut log = AuditLog::new();
        let d = CertDigest::of(b"x");
        log.record(d, Symbol::intern("bob"), AuditAction::Expired, 7, None);
        let line = log.entries()[0].to_string();
        assert!(line.contains("t=7") && line.contains("expired") && line.contains("bob"));
    }
}
