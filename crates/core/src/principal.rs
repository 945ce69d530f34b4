//! Principals and key material.
//!
//! A principal is "a component in a distributed environment" (§2.2 of the
//! paper) with its own context (workspace). The [`KeyDirectory`] holds
//! the RSA keypairs and pairwise shared secrets of a simulated
//! deployment; each workspace's crypto builtins resolve *key handles*
//! (symbols like `rsa:priv:alice`) against it, and refuse to use private
//! material that does not belong to the local principal.

use lbtrust_crypto::KeyPair;
use lbtrust_datalog::{Symbol, Value};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// A principal's name.
pub type Principal = Symbol;

/// The key handle naming `who`'s RSA private key.
pub fn rsa_priv_handle(who: Principal) -> Value {
    Value::sym(&format!("rsa:priv:{who}"))
}

/// The key handle naming `who`'s RSA public key.
pub fn rsa_pub_handle(who: Principal) -> Value {
    Value::sym(&format!("rsa:pub:{who}"))
}

/// The key handle naming the shared secret between `a` and `b`
/// (order-insensitive).
pub fn shared_secret_handle(a: Principal, b: Principal) -> Value {
    let (lo, hi) = if a.as_str() <= b.as_str() {
        (a, b)
    } else {
        (b, a)
    };
    Value::sym(&format!("hmac:{lo}:{hi}"))
}

/// Shared key material for a simulated deployment.
///
/// In a real deployment every principal would hold only its own private
/// key; here a single directory plays all roles, and the *builtins*
/// enforce that a workspace for principal `p` can only sign with
/// `rsa:priv:p` and only MAC with secrets `p` participates in.
#[derive(Default)]
pub struct KeyDirectory {
    rsa: HashMap<Principal, KeyPair>,
    secrets: HashMap<(Principal, Principal), Vec<u8>>,
}

impl KeyDirectory {
    /// An empty directory.
    pub fn new() -> KeyDirectory {
        KeyDirectory::default()
    }

    /// Generates and stores an RSA keypair for `who` with the given
    /// modulus size. Deterministic for a given seed.
    pub fn generate_rsa(&mut self, who: Principal, bits: usize, seed: u64) -> &KeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        self.rsa
            .entry(who)
            .or_insert_with(|| KeyPair::generate(bits, &mut rng))
    }

    /// The keypair of `who`, if any.
    pub fn rsa(&self, who: Principal) -> Option<&KeyPair> {
        self.rsa.get(&who)
    }

    /// Installs a shared secret between `a` and `b`.
    pub fn set_shared_secret(&mut self, a: Principal, b: Principal, secret: Vec<u8>) {
        let (lo, hi) = if a.as_str() <= b.as_str() {
            (a, b)
        } else {
            (b, a)
        };
        self.secrets.insert((lo, hi), secret);
    }

    /// Generates a random shared secret between `a` and `b`.
    pub fn generate_shared_secret(&mut self, a: Principal, b: Principal, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret: Vec<u8> = (0..32).map(|_| rng.gen()).collect();
        self.set_shared_secret(a, b, secret);
    }

    /// The shared secret between `a` and `b`, if any.
    pub fn shared_secret(&self, a: Principal, b: Principal) -> Option<&[u8]> {
        let (lo, hi) = if a.as_str() <= b.as_str() {
            (a, b)
        } else {
            (b, a)
        };
        self.secrets.get(&(lo, hi)).map(Vec::as_slice)
    }

    /// Resolves an RSA key handle value to `(principal, private?)`.
    pub fn parse_rsa_handle(handle: &Value) -> Option<(Principal, bool)> {
        let sym = handle.as_sym()?;
        let name = sym.as_str();
        if let Some(rest) = name.strip_prefix("rsa:priv:") {
            Some((Symbol::intern(rest), true))
        } else {
            name.strip_prefix("rsa:pub:")
                .map(|rest| (Symbol::intern(rest), false))
        }
    }

    /// Resolves a shared-secret handle value to the sorted pair.
    pub fn parse_secret_handle(handle: &Value) -> Option<(Principal, Principal)> {
        let sym = handle.as_sym()?;
        let rest = sym.as_str().strip_prefix("hmac:")?;
        let (a, b) = rest.split_once(':')?;
        Some((Symbol::intern(a), Symbol::intern(b)))
    }
}

/// A shareable, thread-safe key directory.
pub type SharedKeys = Arc<RwLock<KeyDirectory>>;

/// Creates an empty shared directory.
pub fn shared_keys() -> SharedKeys {
    Arc::new(RwLock::new(KeyDirectory::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> Principal {
        Symbol::intern(name)
    }

    #[test]
    fn handles_roundtrip() {
        let alice = p("alice");
        let bob = p("bob");
        assert_eq!(
            KeyDirectory::parse_rsa_handle(&rsa_priv_handle(alice)),
            Some((alice, true))
        );
        assert_eq!(
            KeyDirectory::parse_rsa_handle(&rsa_pub_handle(bob)),
            Some((bob, false))
        );
        assert_eq!(
            KeyDirectory::parse_secret_handle(&shared_secret_handle(bob, alice)),
            Some((alice, bob)) // sorted
        );
        assert_eq!(
            shared_secret_handle(alice, bob),
            shared_secret_handle(bob, alice)
        );
    }

    #[test]
    fn rsa_generation_is_seeded() {
        let mut d1 = KeyDirectory::new();
        let mut d2 = KeyDirectory::new();
        let k1 = d1.generate_rsa(p("alice"), 512, 42).public_key().clone();
        let k2 = d2.generate_rsa(p("alice"), 512, 42).public_key().clone();
        assert_eq!(k1, k2);
        let k3 = d2.generate_rsa(p("bob"), 512, 43).public_key().clone();
        assert_ne!(k1, k3);
    }

    #[test]
    fn shared_secrets_symmetric() {
        let mut d = KeyDirectory::new();
        d.set_shared_secret(p("bob"), p("alice"), vec![1, 2, 3]);
        assert_eq!(
            d.shared_secret(p("alice"), p("bob")),
            Some(&[1u8, 2, 3][..])
        );
        assert_eq!(
            d.shared_secret(p("bob"), p("alice")),
            Some(&[1u8, 2, 3][..])
        );
        assert_eq!(d.shared_secret(p("alice"), p("carol")), None);
    }

    #[test]
    fn bad_handles_rejected() {
        assert!(KeyDirectory::parse_rsa_handle(&Value::sym("nonsense")).is_none());
        assert!(KeyDirectory::parse_rsa_handle(&Value::Int(3)).is_none());
        assert!(KeyDirectory::parse_secret_handle(&Value::sym("hmac:missing")).is_none());
    }
}
