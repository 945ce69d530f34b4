//! Principals and key material.
//!
//! A principal is "a component in a distributed environment" (§2.2 of the
//! paper) with its own context (workspace). The [`KeyDirectory`] holds
//! the RSA keypairs and pairwise shared secrets of a simulated
//! deployment; each workspace's crypto builtins resolve *key handles*
//! (symbols like `rsa:priv:alice`) against it, and refuse to use private
//! material that does not belong to the local principal.

use lbtrust_crypto::{KeyPair, RsaError};
use lbtrust_datalog::{Symbol, Value};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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
///
/// A principal's RSA key is *enrolled* ([`KeyDirectory::enroll_rsa`]):
/// the directory keeps its modulus size and seed, and the first
/// [`KeyDirectory::rsa`] lookup generates the pair from them. A
/// principal that never signs and is never verified generates no key,
/// and one that does gets the same key, whenever that is.
#[derive(Default)]
pub struct KeyDirectory {
    rsa: HashMap<Principal, Enrolment>,
    secrets: HashMap<(Principal, Principal), Vec<u8>>,
}

/// An enrolled RSA key: what generates it, and the pair once generated.
struct Enrolment {
    bits: usize,
    seed: u64,
    pair: OnceLock<KeyPair>,
}

impl Enrolment {
    /// The pair, generated on the first call. A second thread that races
    /// the first waits for its generation instead of running its own.
    fn pair(&self) -> &KeyPair {
        self.pair.get_or_init(|| {
            #[cfg(test)]
            KEYS_GENERATED.with(|n| n.set(n.get() + 1));
            KeyPair::generate(self.bits, &mut StdRng::seed_from_u64(self.seed))
        })
    }
}

#[cfg(test)]
thread_local! {
    /// RSA key pairs generated on this thread, so a test can count them.
    pub(crate) static KEYS_GENERATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// RSA signatures made on this thread through [`rsa_sign`].
    pub(crate) static SIGNATURES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Signs `message` with `pair`'s private key. Every RSA signature the
/// runtime makes (a certificate, a revocation, `rsasign`) goes through
/// here, so a test can count them.
pub(crate) fn rsa_sign(pair: &KeyPair, message: &[u8]) -> Result<Vec<u8>, RsaError> {
    #[cfg(test)]
    SIGNATURES.with(|n| n.set(n.get() + 1));
    pair.private.sign(message)
}

impl KeyDirectory {
    /// An empty directory.
    pub fn new() -> KeyDirectory {
        KeyDirectory::default()
    }

    /// Enrolls an RSA key for `who` with the given modulus size and
    /// seed, without generating it: the first [`KeyDirectory::rsa`]
    /// lookup of `who` does. A principal already enrolled keeps its key.
    pub fn enroll_rsa(&mut self, who: Principal, bits: usize, seed: u64) {
        self.rsa.entry(who).or_insert_with(|| Enrolment {
            bits,
            seed,
            pair: OnceLock::new(),
        });
    }

    /// Enrolls an RSA key for `who` ([`KeyDirectory::enroll_rsa`]) and
    /// generates it now. Deterministic for a given seed: the pair is the
    /// one a lazy first lookup of the same enrolment would generate.
    pub fn generate_rsa(&mut self, who: Principal, bits: usize, seed: u64) -> &KeyPair {
        self.enroll_rsa(who, bits, seed);
        self.rsa[&who].pair()
    }

    /// The keypair of `who`, if `who` is enrolled; the first lookup
    /// generates it.
    pub fn rsa(&self, who: Principal) -> Option<&KeyPair> {
        self.rsa.get(&who).map(Enrolment::pair)
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
    use crate::auth::AuthScheme;
    use crate::system::System;

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

    /// Runs `f` and returns how many RSA keys it generated on this thread.
    fn keys_generated(f: impl FnOnce()) -> usize {
        let before = KEYS_GENERATED.with(std::cell::Cell::get);
        f();
        KEYS_GENERATED.with(std::cell::Cell::get) - before
    }

    /// A hub certifies to 8 receivers, then revokes: the receivers only
    /// verify the hub's signatures, so the hub's key is the only one
    /// generated.
    #[test]
    fn a_fanout_generates_only_the_issuers_key() {
        let generated = keys_generated(|| {
            let mut sys = System::new().with_rsa_bits(512);
            let reader = sys.authz_reader();
            let hub = sys.add_principal("hub", "h").unwrap();
            let receivers: Vec<Principal> = (0..8)
                .map(|i| {
                    let r = sys.add_principal(&format!("r{i}"), &format!("m{i}"));
                    r.unwrap()
                })
                .collect();
            let issued = sys
                .issue_certificates(hub, "good(carol). good(dave).", &[], None)
                .unwrap();
            for &r in &receivers {
                sys.workspace_mut(r)
                    .unwrap()
                    .load("policy", "access(P,f,read) <- says(hub,me,[| good(P) |]).")
                    .unwrap();
                sys.import_certificates(r, issued.clone()).unwrap();
            }
            sys.run_to_quiescence(16).unwrap();
            let goal = "access(carol,f,read)";
            assert!(reader.authorize(receivers[0], goal).unwrap().granted);
            sys.revoke_certificate(hub, issued[0].digest()).unwrap();
            sys.run_to_quiescence(16).unwrap();
            assert!(!reader.authorize(receivers[0], goal).unwrap().granted);
        });
        assert_eq!(generated, 1);
    }

    /// Alice says `good(carol)` to bob under `scheme`; returns whether
    /// bob's policy granted on it.
    fn says_to_bob(scheme: AuthScheme) -> bool {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        if scheme != AuthScheme::Rsa {
            sys.establish_shared_secret(alice, bob).unwrap();
            sys.set_auth_scheme(alice, scheme).unwrap();
            sys.set_auth_scheme(bob, scheme).unwrap();
        }
        let alice_ws = sys.workspace_mut(alice).unwrap();
        alice_ws
            .load("policy", "says(me,bob,[| good(X). |]) <- vouched(X).")
            .unwrap();
        alice_ws.assert_src("vouched(carol).").unwrap();
        sys.workspace_mut(bob)
            .unwrap()
            .load(
                "policy",
                "access(P,f,read) <- says(alice,me,[| good(P) |]).",
            )
            .unwrap();
        sys.run_to_quiescence(16).unwrap();
        sys.workspace(bob)
            .unwrap()
            .holds_src("access(carol,f,read)")
            .unwrap()
    }

    #[test]
    fn plaintext_and_hmac_says_generate_no_key() {
        for scheme in [AuthScheme::Plaintext, AuthScheme::HmacSha1] {
            assert_eq!(keys_generated(|| assert!(says_to_bob(scheme))), 0);
        }
    }

    /// Alice signs and bob verifies with alice's public key: bob's own
    /// key is never read.
    #[test]
    fn rsa_says_generates_only_the_signers_key() {
        assert_eq!(keys_generated(|| assert!(says_to_bob(AuthScheme::Rsa))), 1);
    }

    /// A registered principal's key, generated at its first lookup, is
    /// the key `generate_rsa` makes from the seed registration derives:
    /// the same public key and the same signature.
    #[test]
    fn a_lazy_key_is_the_eager_key() {
        let seed = 7;
        let mut sys = System::with_network(Default::default(), seed).with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let key_seed = seed
            .wrapping_add(alice.index() as u64)
            .wrapping_mul(0x9E37_79B9);
        let mut eager = KeyDirectory::new();
        let eager = eager.generate_rsa(alice, 512, key_seed);
        let keys = sys.keys().read();
        let lazy = keys.rsa(alice).unwrap();
        assert_eq!(lazy.public_key(), eager.public_key());
        let message = b"good(carol).";
        let signature = lazy.private.sign(message).unwrap();
        assert_eq!(signature, eager.private.sign(message).unwrap());
    }

    /// Two threads that look up a key first, each through its own read
    /// guard, get the same pair, generated once between them.
    #[test]
    fn a_raced_first_lookup_generates_once() {
        let mut sys = System::new().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let keys = sys.keys();
        let start = std::sync::Barrier::new(2);
        let lookup = || {
            start.wait();
            let mut addr = 0;
            let generated = keys_generated(|| {
                addr = std::ptr::from_ref(keys.read().rsa(alice).unwrap()) as usize;
            });
            (addr, generated)
        };
        let ((a, n), (b, m)) = std::thread::scope(|scope| {
            let first = scope.spawn(lookup);
            let second = scope.spawn(lookup);
            (first.join().unwrap(), second.join().unwrap())
        });
        assert_eq!(n + m, 1);
        let guard = keys.read();
        let pair = guard.rsa(alice).unwrap();
        assert!(std::ptr::eq(pair, a as *const KeyPair));
        assert!(std::ptr::eq(pair, b as *const KeyPair));
    }
}
