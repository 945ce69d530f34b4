//! Linked certificates: one signed rule plus its supporting links and
//! freshness metadata.

use crate::digest::CertDigest;
use lbtrust_datalog::ast::Rule;
use lbtrust_datalog::Symbol;
use std::sync::Arc;

/// A linked credential: `issuer` certifies `rule`, citing the
/// certificates in `links` as support (SAFE-style credential linking),
/// valid for `ttl` logical ticks from import.
///
/// One signature travels with it: [`LinkedCert::signature`] covers the
/// full canonical form ([`LinkedCert::signing_bytes`]) — issuer, rule,
/// links and TTL — and the certificate store is what checks it.
/// Tampering with any field breaks it. A receiving workspace never sees
/// a signature: the runtime files an accepted certificate as
/// `certified(issuer, me, rule, digest)`, which every `says` scheme
/// accepts on the store's word.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkedCert {
    /// The certifying principal.
    pub issuer: Symbol,
    /// The certified rule (facts are bodyless rules).
    pub rule: Arc<Rule>,
    /// Content addresses of supporting certificates; all must be
    /// resolvable and live at import time.
    pub links: Vec<CertDigest>,
    /// Lifetime in logical ticks from import (`None` = no expiry).
    pub ttl: Option<u64>,
    /// Issuer signature over [`LinkedCert::signing_bytes`].
    pub signature: Vec<u8>,
}

impl LinkedCert {
    /// The canonical byte string [`LinkedCert::signature`] covers:
    /// issuer, rule text, links (hex, sorted order preserved) and TTL,
    /// one field per line.
    pub fn signing_bytes(&self) -> Vec<u8> {
        signing_bytes(self.issuer, &self.rule, &self.links, self.ttl)
    }

    /// The canonical wire bytes: the signed form plus the signature
    /// (hex). This is the string the content address is computed over,
    /// so certificates differing only in signature bytes do not
    /// collide.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = self.signing_bytes();
        out.extend_from_slice(b"sig:");
        out.extend_from_slice(lbtrust_net::to_hex(&self.signature).as_bytes());
        out.push(b'\n');
        out
    }

    /// The content address: SHA-256 over [`LinkedCert::wire_bytes`].
    pub fn digest(&self) -> CertDigest {
        CertDigest::of(&self.wire_bytes())
    }

    /// Parses the canonical wire form produced by
    /// [`LinkedCert::wire_bytes`] back into a certificate — the decode
    /// half of the durable log's record payloads. Returns `None` on any
    /// structural deviation; round-tripping preserves the content
    /// address exactly (`parse_wire_bytes(c.wire_bytes()).digest() ==
    /// c.digest()`).
    pub fn parse_wire_bytes(bytes: &[u8]) -> Option<LinkedCert> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut lines = text.lines();
        if lines.next()? != "lbtrust-cert:v1" {
            return None;
        }
        let issuer = Symbol::intern(lines.next()?.strip_prefix("issuer:")?);
        let rule_src = lines.next()?.strip_prefix("rule:")?;
        let rule = Arc::new(lbtrust_datalog::parse_rule(rule_src).ok()?);
        let links_field = lines.next()?.strip_prefix("links:")?;
        let links = if links_field.is_empty() {
            Vec::new()
        } else {
            links_field
                .split(',')
                .map(CertDigest::parse_hex)
                .collect::<Option<Vec<_>>>()?
        };
        let ttl = match lines.next()?.strip_prefix("ttl:")? {
            "none" => None,
            t => Some(t.parse().ok()?),
        };
        let signature = lbtrust_net::from_hex(lines.next()?.strip_prefix("sig:")?)?;
        if lines.next().is_some() {
            return None; // trailing garbage
        }
        Some(LinkedCert {
            issuer,
            rule,
            links,
            ttl,
            signature,
        })
    }
}

/// The canonical to-be-signed form, exposed so issuers can sign before
/// constructing the cert.
pub fn signing_bytes(
    issuer: Symbol,
    rule: &Rule,
    links: &[CertDigest],
    ttl: Option<u64>,
) -> Vec<u8> {
    let mut out = format!("lbtrust-cert:v1\nissuer:{issuer}\nrule:{rule}\n").into_bytes();
    out.extend_from_slice(b"links:");
    for (i, link) in links.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(link.to_hex().as_bytes());
    }
    out.push(b'\n');
    match ttl {
        Some(t) => out.extend_from_slice(format!("ttl:{t}\n").as_bytes()),
        None => out.extend_from_slice(b"ttl:none\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbtrust_datalog::parse_rule;

    fn cert(rule_src: &str, links: Vec<CertDigest>, ttl: Option<u64>) -> LinkedCert {
        LinkedCert {
            issuer: Symbol::intern("alice"),
            rule: Arc::new(parse_rule(rule_src).unwrap()),
            links,
            ttl,
            signature: vec![1, 2],
        }
    }

    #[test]
    fn digest_covers_every_field() {
        let base = cert("good(carol).", vec![], None);
        let d = base.digest();
        // Rule change.
        assert_ne!(d, cert("good(dave).", vec![], None).digest());
        // Link change.
        let linked = cert("good(carol).", vec![CertDigest::of(b"x")], None);
        assert_ne!(d, linked.digest());
        // TTL change.
        assert_ne!(d, cert("good(carol).", vec![], Some(5)).digest());
        // Signature change.
        let mut resigned = base.clone();
        resigned.signature = vec![9];
        assert_ne!(d, resigned.digest());
        // Identity.
        assert_eq!(d, cert("good(carol).", vec![], None).digest());
    }

    #[test]
    fn signing_bytes_exclude_signatures() {
        let a = cert("p(x).", vec![], Some(3));
        let mut b = a.clone();
        b.signature = vec![7, 7, 7];
        assert_eq!(a.signing_bytes(), b.signing_bytes());
        assert_ne!(a.wire_bytes(), b.wire_bytes());
    }

    #[test]
    fn wire_bytes_roundtrip() {
        for c in [
            cert("good(carol).", vec![], None),
            cert(
                "p(x).",
                vec![CertDigest::of(b"a"), CertDigest::of(b"b")],
                Some(42),
            ),
            cert("access(P,O,read) <- good(P).", vec![], Some(1)),
        ] {
            let parsed = LinkedCert::parse_wire_bytes(&c.wire_bytes()).expect("roundtrip");
            assert_eq!(parsed, c);
            assert_eq!(parsed.digest(), c.digest());
        }
    }

    #[test]
    fn parse_wire_bytes_rejects_malformed() {
        let c = cert("good(carol).", vec![], None);
        let bytes = c.wire_bytes();
        assert!(LinkedCert::parse_wire_bytes(b"garbage").is_none());
        assert!(
            LinkedCert::parse_wire_bytes(&bytes[1..]).is_none(),
            "bad magic"
        );
        assert!(
            LinkedCert::parse_wire_bytes(&bytes[..bytes.len() - 2]).is_none(),
            "truncated hex"
        );
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(b"extra:1\n");
        assert!(LinkedCert::parse_wire_bytes(&trailing).is_none());
    }

    #[test]
    fn link_order_is_significant() {
        let (l1, l2) = (CertDigest::of(b"1"), CertDigest::of(b"2"));
        let a = cert("p(x).", vec![l1, l2], None);
        let b = cert("p(x).", vec![l2, l1], None);
        assert_ne!(a.signing_bytes(), b.signing_bytes());
    }
}
