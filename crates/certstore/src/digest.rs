//! Content addresses: SHA-256 digests of canonical wire bytes.

use lbtrust_net::wire::{digest_bytes, from_hex, to_hex, WireDigest};
use std::fmt;

/// The content address of a certificate: the SHA-256 digest of its
/// canonical wire bytes. Displayed and parsed as lowercase hex, which
/// is also how links and revocations name certificates on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CertDigest(pub WireDigest);

#[cfg(test)]
thread_local! {
    /// How many digests [`CertDigest::of`] has computed on this thread.
    pub(crate) static HASHED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl CertDigest {
    /// Digests a canonical byte string.
    pub fn of(bytes: &[u8]) -> CertDigest {
        #[cfg(test)]
        HASHED.with(|n| n.set(n.get() + 1));
        CertDigest(digest_bytes(bytes))
    }

    /// The raw 32 bytes.
    pub fn as_bytes(&self) -> &WireDigest {
        &self.0
    }

    /// Lowercase hex rendering (64 characters).
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Parses a 64-character hex string.
    pub fn parse_hex(s: &str) -> Option<CertDigest> {
        let raw = from_hex(s)?;
        let arr: WireDigest = raw.try_into().ok()?;
        Some(CertDigest(arr))
    }

    /// Abbreviated rendering for logs and error messages.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl fmt::Display for CertDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for CertDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CertDigest({})", self.short())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let d = CertDigest::of(b"hello");
        let parsed = CertDigest::parse_hex(&d.to_hex()).unwrap();
        assert_eq!(d, parsed);
        assert_eq!(d.to_hex().len(), 64);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(CertDigest::parse_hex("abcd").is_none(), "too short");
        assert!(CertDigest::parse_hex(&"zz".repeat(32)).is_none(), "non-hex");
    }

    #[test]
    fn content_sensitivity() {
        assert_ne!(CertDigest::of(b"a"), CertDigest::of(b"b"));
        assert_eq!(CertDigest::of(b"a"), CertDigest::of(b"a"));
    }
}
