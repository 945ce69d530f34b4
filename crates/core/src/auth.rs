//! Reconfigurable authentication (§4.1 of the paper).
//!
//! The `says` concept "is configured in the same language as the policy"
//! — the only host-level support is a set of cryptographic builtin
//! predicates. This module provides those builtins (`rsasign`,
//! `rsaverify`, `hmacsign`, `hmacverify`, plus confidentiality and
//! integrity primitives from §4.1.3) and, per [`AuthScheme`], the
//! export rule `exp1` and the verification constraint `exp3` whose
//! replacement is the paper's headline reconfigurability result:
//! switching from RSA to HMAC or plaintext changes exactly these two
//! while every policy that uses `says` is untouched.
//!
//! A certificate never meets `exp3`'s verifier. Its one signature is
//! the certificate store's to check, and an accepted certificate is
//! filed as `certified(Issuer, me, R, D)`, which every scheme's `exp3`
//! accepts as it stands (see [`crate::says::SAYS_DECLS`]). So a
//! principal holds its certificates whichever scheme it runs or
//! switches to.

use crate::principal::{rsa_sign, KeyDirectory, Principal, SharedKeys};
use lbtrust_certstore::{shared_verify_cache, SharedVerifyCache, SignatureVerifier};
use lbtrust_crypto::hmac::{hmac_sha1, verify_mac};
use lbtrust_crypto::sha1::Sha1;
use lbtrust_crypto::{crc32, stream};
use lbtrust_datalog::builtins::{BuiltinError, Builtins};
use lbtrust_datalog::{parse_rule, Symbol, Value};
use lbtrust_net::rule_bytes;
use std::fmt;
use std::sync::Arc;

/// The authentication schemes evaluated in Figure 2 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum AuthScheme {
    /// No signature: "cleartext principal headers" (§2.2).
    Plaintext,
    /// HMAC-SHA1 over a pairwise shared secret (§4.1.2).
    HmacSha1,
    /// 1024-bit RSA signatures (§4.1.1). The paper's default for Binder.
    #[default]
    Rsa,
}

impl fmt::Display for AuthScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AuthScheme::Plaintext => "Plaintext",
            AuthScheme::HmacSha1 => "HMAC",
            AuthScheme::Rsa => "RSA",
        })
    }
}

impl AuthScheme {
    /// All schemes, in the order Figure 2 plots them.
    pub const ALL: [AuthScheme; 3] = [AuthScheme::Rsa, AuthScheme::HmacSha1, AuthScheme::Plaintext];

    /// The export rule (`exp1` / `exp1'`) for this scheme.
    ///
    /// Divergence note: the key-lookup literal precedes the signing
    /// builtin (the paper writes them in the opposite order) because our
    /// engine evaluates bodies left to right and the builtin needs the
    /// key handle bound. The logical meaning is identical.
    pub fn export_rule(&self) -> &'static str {
        match self {
            AuthScheme::Plaintext => "export[U2](me,R,#) <- says(me,U2,R), U2 != me.",
            AuthScheme::HmacSha1 => {
                "export[U2](me,R,S) <- says(me,U2,R), U2 != me, \
                 sharedsecret(me,U2,K), hmacsign(R,K,S)."
            }
            AuthScheme::Rsa => {
                "export[U2](me,R,S) <- says(me,U2,R), U2 != me, \
                 rsaprivkey(me,K), rsasign(R,S,K)."
            }
        }
    }

    /// The import rule `exp2` — identical for every scheme.
    pub fn import_rule(&self) -> &'static str {
        "says(U,me,R) <- export[me](U,R,S)."
    }

    /// The verification constraint (`exp3` / `exp3'`): every `says` fact
    /// addressed to me must be backed by a verifiable export or by a
    /// certificate the store accepted.
    ///
    /// Divergence note: the paper's `exp3` has only the first
    /// alternative. The second, `certified(U,me,R,D)`, is the same in
    /// every scheme: the store checked the certificate's signature, and
    /// the runtime alone asserts `certified` (see
    /// [`crate::says::SAYS_DECLS`]).
    pub fn verify_constraint(&self) -> &'static str {
        match self {
            AuthScheme::Plaintext => {
                "says(U,me,R), U != me -> export[me](U,R,S) ; certified(U,me,R,D)."
            }
            AuthScheme::HmacSha1 => {
                "says(U,me,R), U != me -> export[me](U,R,S), \
                 sharedsecret(me,U,K), hmacverify(R,S,K) ; certified(U,me,R,D)."
            }
            AuthScheme::Rsa => {
                "says(U,me,R), U != me -> export[me](U,R,S), \
                 rsapubkey(U,K), rsaverify(R,S,K) ; certified(U,me,R,D)."
            }
        }
    }

    /// The full authentication prelude for this scheme (export + import
    /// + verification).
    pub fn prelude(&self) -> String {
        format!(
            "{}\n{}\n{}\n",
            self.export_rule(),
            self.import_rule(),
            self.verify_constraint()
        )
    }
}

/// Extracts the quoted rule argument of a builtin.
fn quote_arg(name: Symbol, v: &Value) -> Result<&Arc<lbtrust_datalog::Rule>, BuiltinError> {
    v.as_quote().ok_or_else(|| BuiltinError::TypeError {
        name,
        expected: "a quoted rule".into(),
    })
}

fn bytes_arg(name: Symbol, v: &Value) -> Result<&[u8], BuiltinError> {
    match v {
        Value::Bytes(b) => Ok(b),
        _ => Err(BuiltinError::TypeError {
            name,
            expected: "bytes".into(),
        }),
    }
}

/// A [`SignatureVerifier`] over the system key directory: resolves the
/// signer's RSA public key and checks the signature. This is the "real
/// verification" the shared cache memoizes.
#[derive(Clone)]
pub struct KeyVerifier {
    keys: SharedKeys,
}

impl KeyVerifier {
    /// Builds a verifier over `keys`.
    pub fn new(keys: SharedKeys) -> KeyVerifier {
        KeyVerifier { keys }
    }
}

impl SignatureVerifier for KeyVerifier {
    fn verify(&self, signer: Symbol, message: &[u8], signature: &[u8]) -> bool {
        let guard = self.keys.read();
        guard
            .rsa(signer)
            .is_some_and(|pair| pair.public_key().verify(message, signature).is_ok())
    }
}

/// Registers the cryptographic builtin predicates for principal `me`,
/// resolving key handles against `keys`, with a private verification
/// cache. Prefer [`register_crypto_builtins_cached`] when a shared
/// cache exists (the [`crate::System`] always shares one).
pub fn register_crypto_builtins(builtins: &mut Builtins, me: Principal, keys: SharedKeys) {
    register_crypto_builtins_cached(builtins, me, keys, shared_verify_cache());
}

/// Registers the cryptographic builtin predicates for principal `me`,
/// resolving key handles against `keys`.
///
/// Access control at the host level: `rsasign` refuses any private-key
/// handle other than `me`'s, and the symmetric primitives refuse secrets
/// `me` is not a party to — a workspace cannot sign as somebody else no
/// matter what rules it runs.
///
/// `rsaverify` routes through `cache`: a signature over identical
/// canonical bytes is checked once process-wide and every later check —
/// by any principal sharing the cache, on any fixpoint round — is a
/// memo lookup. `hmacverify` computes the MAC: each MAC is checked once
/// per message, so a memo would only hold bytes.
pub fn register_crypto_builtins_cached(
    builtins: &mut Builtins,
    me: Principal,
    keys: SharedKeys,
    cache: SharedVerifyCache,
) {
    // rsasign(R, S, K): sign rule R with private key K (mine), yielding S.
    let k = keys.clone();
    let name = Symbol::intern("rsasign");
    builtins.register("rsasign", 3, move |args| {
        let r = lbtrust_datalog::builtins::require_bound(name, args, 0)?;
        let key_handle = lbtrust_datalog::builtins::require_bound(name, args, 2)?;
        let rule = quote_arg(name, r)?;
        let Some((who, true)) = KeyDirectory::parse_rsa_handle(key_handle) else {
            return Err(BuiltinError::TypeError {
                name,
                expected: "a private-key handle".into(),
            });
        };
        if who != me {
            // Not our key: no derivation (and no oracle).
            return Ok(vec![]);
        }
        let guard = k.read();
        let Some(pair) = guard.rsa(who) else {
            return Ok(vec![]);
        };
        let sig = rsa_sign(pair, &rule_bytes(rule)).map_err(|e| BuiltinError::TypeError {
            name,
            expected: format!("signable rule ({e})"),
        })?;
        Ok(vec![vec![
            r.clone(),
            Value::bytes(&sig),
            key_handle.clone(),
        ]])
    });

    // rsaverify(R, S, K): succeeds iff S is K's signature over R.
    // Successes are remembered in the shared cache: checking the same
    // (rule, signature, key) again — on a later fixpoint round or in a
    // different workspace — skips the modular exponentiation.
    let k = keys.clone();
    let vc = cache.clone();
    let name = Symbol::intern("rsaverify");
    builtins.register("rsaverify", 3, move |args| {
        let r = lbtrust_datalog::builtins::require_bound(name, args, 0)?;
        let s = lbtrust_datalog::builtins::require_bound(name, args, 1)?;
        let key_handle = lbtrust_datalog::builtins::require_bound(name, args, 2)?;
        let rule = quote_arg(name, r)?;
        let sig = bytes_arg(name, s)?;
        let Some((who, _)) = KeyDirectory::parse_rsa_handle(key_handle) else {
            return Ok(vec![]);
        };
        let verifier = KeyVerifier::new(k.clone());
        let (ok, _hit) = vc.lock().unwrap_or_else(|e| e.into_inner()).check(
            &verifier,
            who,
            &rule_bytes(rule),
            sig,
        );
        if ok {
            Ok(vec![vec![r.clone(), s.clone(), key_handle.clone()]])
        } else {
            Ok(vec![])
        }
    });

    // hmacsign(R, K, S): MAC rule R under shared secret K.
    let k = keys.clone();
    let name = Symbol::intern("hmacsign");
    builtins.register("hmacsign", 3, move |args| {
        let r = lbtrust_datalog::builtins::require_bound(name, args, 0)?;
        let key_handle = lbtrust_datalog::builtins::require_bound(name, args, 1)?;
        let rule = quote_arg(name, r)?;
        let message = rule_bytes(rule);
        let Some(mac) = with_secret(&k, me, key_handle, |secret| hmac_sha1(secret, &message))
        else {
            return Ok(vec![]);
        };
        Ok(vec![vec![
            r.clone(),
            key_handle.clone(),
            Value::bytes(&mac),
        ]])
    });

    // hmacverify(R, S, K): succeeds iff S is the MAC of R under K.
    // Computed every time: each MAC is checked once per message, so a
    // memo would only hold bytes.
    let k = keys.clone();
    let name = Symbol::intern("hmacverify");
    builtins.register("hmacverify", 3, move |args| {
        let r = lbtrust_datalog::builtins::require_bound(name, args, 0)?;
        let s = lbtrust_datalog::builtins::require_bound(name, args, 1)?;
        let key_handle = lbtrust_datalog::builtins::require_bound(name, args, 2)?;
        let rule = quote_arg(name, r)?;
        let mac = bytes_arg(name, s)?;
        let message = rule_bytes(rule);
        let ok = with_secret(&k, me, key_handle, |secret| {
            verify_mac(&hmac_sha1(secret, &message), mac)
        });
        if ok == Some(true) {
            Ok(vec![vec![r.clone(), s.clone(), key_handle.clone()]])
        } else {
            Ok(vec![])
        }
    });

    // encryptrule(R, K, C): deterministic (SIV) encryption of rule R
    // under shared secret K (§4.1.3 confidentiality).
    let k = keys.clone();
    let name = Symbol::intern("encryptrule");
    builtins.register("encryptrule", 3, move |args| {
        let r = lbtrust_datalog::builtins::require_bound(name, args, 0)?;
        let key_handle = lbtrust_datalog::builtins::require_bound(name, args, 1)?;
        let rule = quote_arg(name, r)?;
        let plain = rule_bytes(rule);
        let Some(cipher) = with_secret(&k, me, key_handle, |secret| {
            let nonce = stream::siv_nonce(secret, &plain);
            stream::encrypt_with_nonce(secret, &nonce, &plain)
        }) else {
            return Ok(vec![]);
        };
        Ok(vec![vec![
            r.clone(),
            key_handle.clone(),
            Value::bytes(&cipher),
        ]])
    });

    // decryptrule(C, K, R): decrypt and re-parse. A wrong key produces
    // garbage that fails to parse, yielding no fact (not an error).
    let k = keys.clone();
    let name = Symbol::intern("decryptrule");
    builtins.register("decryptrule", 3, move |args| {
        let c = lbtrust_datalog::builtins::require_bound(name, args, 0)?;
        let key_handle = lbtrust_datalog::builtins::require_bound(name, args, 1)?;
        let cipher = bytes_arg(name, c)?;
        let decrypted = with_secret(&k, me, key_handle, |secret| stream::decrypt(secret, cipher));
        let Some(plain) = decrypted.flatten() else {
            return Ok(vec![]);
        };
        let Ok(text) = String::from_utf8(plain) else {
            return Ok(vec![]);
        };
        let Ok(rule) = parse_rule(&text) else {
            return Ok(vec![]);
        };
        Ok(vec![vec![
            c.clone(),
            key_handle.clone(),
            Value::Quote(Arc::new(rule)),
        ]])
    });

    // sha1digest(R, H): integrity hash of a rule (§4.1.3).
    let name = Symbol::intern("sha1digest");
    builtins.register("sha1digest", 2, move |args| {
        let r = lbtrust_datalog::builtins::require_bound(name, args, 0)?;
        let rule = quote_arg(name, r)?;
        let digest = Sha1::digest(&rule_bytes(rule));
        Ok(vec![vec![r.clone(), Value::bytes(&digest)]])
    });

    // crc32sum(R, C): cheap checksum of a rule (§4.1.3).
    let name = Symbol::intern("crc32sum");
    builtins.register("crc32sum", 2, move |args| {
        let r = lbtrust_datalog::builtins::require_bound(name, args, 0)?;
        let rule = quote_arg(name, r)?;
        let sum = crc32::crc32(&rule_bytes(rule));
        Ok(vec![vec![r.clone(), Value::Int(sum as i64)]])
    });
}

/// Runs `f` on the secret a handle names, borrowed under the directory's
/// read guard; `None` unless `me` is a party to it and it exists.
fn with_secret<T>(
    keys: &SharedKeys,
    me: Principal,
    handle: &Value,
    f: impl FnOnce(&[u8]) -> T,
) -> Option<T> {
    let (a, b) = KeyDirectory::parse_secret_handle(handle)?;
    if a != me && b != me {
        return None;
    }
    keys.read().shared_secret(a, b).map(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::{rsa_priv_handle, rsa_pub_handle, shared_keys, shared_secret_handle};

    fn setup() -> (SharedKeys, Principal, Principal) {
        let keys = shared_keys();
        let alice = Symbol::intern("alice");
        let bob = Symbol::intern("bob");
        {
            let mut guard = keys.write();
            guard.generate_rsa(alice, 512, 1);
            guard.generate_rsa(bob, 512, 2);
            guard.generate_shared_secret(alice, bob, 3);
        }
        (keys, alice, bob)
    }

    fn quote(src: &str) -> Value {
        Value::Quote(Arc::new(parse_rule(src).unwrap()))
    }

    #[test]
    fn rsa_sign_and_verify_via_builtins() {
        let (keys, alice, _) = setup();
        let mut b = Builtins::new();
        register_crypto_builtins(&mut b, alice, keys);
        let r = quote("good(carol).");
        let signed = b
            .invoke(
                Symbol::intern("rsasign"),
                &[Some(r.clone()), None, Some(rsa_priv_handle(alice))],
            )
            .unwrap()
            .unwrap();
        assert_eq!(signed.len(), 1);
        let sig = signed[0][1].clone();
        let verified = b
            .invoke(
                Symbol::intern("rsaverify"),
                &[
                    Some(r.clone()),
                    Some(sig.clone()),
                    Some(rsa_pub_handle(alice)),
                ],
            )
            .unwrap()
            .unwrap();
        assert_eq!(verified.len(), 1);
        // A different rule fails verification.
        let other = quote("good(mallory).");
        let bad = b
            .invoke(
                Symbol::intern("rsaverify"),
                &[Some(other), Some(sig), Some(rsa_pub_handle(alice))],
            )
            .unwrap()
            .unwrap();
        assert!(bad.is_empty());
    }

    #[test]
    fn cannot_sign_with_foreign_private_key() {
        let (keys, alice, bob) = setup();
        let mut b = Builtins::new();
        register_crypto_builtins(&mut b, alice, keys);
        let out = b
            .invoke(
                Symbol::intern("rsasign"),
                &[Some(quote("p(a).")), None, Some(rsa_priv_handle(bob))],
            )
            .unwrap()
            .unwrap();
        assert!(out.is_empty(), "alice must not sign as bob");
    }

    #[test]
    fn hmac_roundtrip_and_third_party_exclusion() {
        let (keys, alice, bob) = setup();
        let handle = shared_secret_handle(alice, bob);
        let mut ab = Builtins::new();
        register_crypto_builtins(&mut ab, alice, keys.clone());
        let r = quote("reachable(a,b).");
        let out = ab
            .invoke(
                Symbol::intern("hmacsign"),
                &[Some(r.clone()), Some(handle.clone()), None],
            )
            .unwrap()
            .unwrap();
        let mac = out[0][2].clone();
        // Bob verifies.
        let mut bb = Builtins::new();
        register_crypto_builtins(&mut bb, bob, keys.clone());
        let ok = bb
            .invoke(
                Symbol::intern("hmacverify"),
                &[Some(r.clone()), Some(mac.clone()), Some(handle.clone())],
            )
            .unwrap()
            .unwrap();
        assert_eq!(ok.len(), 1);
        // Carol (not a party) cannot even compute it.
        let carol = Symbol::intern("carol");
        let mut cb = Builtins::new();
        register_crypto_builtins(&mut cb, carol, keys);
        let denied = cb
            .invoke(
                Symbol::intern("hmacverify"),
                &[Some(r), Some(mac), Some(handle)],
            )
            .unwrap()
            .unwrap();
        assert!(denied.is_empty());
    }

    /// Bytes from the network reach `rsaverify` and `hmacverify` as the
    /// signature argument: any length from nothing to twice the modulus,
    /// and the values at the edges of `[0, n)`, derive no tuple and raise
    /// no error — and a handle written the other way round names the
    /// same secret and the same cached outcome.
    #[test]
    fn hostile_signatures_derive_nothing() {
        use lbtrust_crypto::BigUint;
        let (keys, alice, bob) = setup();
        let n = keys.read().rsa(alice).unwrap().public_key().n().clone();
        let k = n.bits().div_ceil(8);
        let mut b = Builtins::new();
        register_crypto_builtins(&mut b, bob, keys);
        let r = quote("good(carol).");
        let one = BigUint::one();
        let mut hostile: Vec<Vec<u8>> = (0..=2 * k)
            .flat_map(|len| [vec![0x00; len], vec![0xff; len]])
            .collect();
        for value in [
            BigUint::zero(),
            one.clone(),
            n.sub(&one),
            n.clone(),
            n.add(&one),
            one.shl(8 * k).sub(&one),
        ] {
            hostile.push(value.to_bytes_be_padded(k).unwrap());
        }
        let reversed = Value::sym(&format!("hmac:{bob}:{alice}"));
        for sig in &hostile {
            for (builtin, handle) in [
                ("rsaverify", rsa_pub_handle(alice)),
                ("hmacverify", shared_secret_handle(alice, bob)),
                ("hmacverify", reversed.clone()),
            ] {
                let out = b
                    .invoke(
                        Symbol::intern(builtin),
                        &[Some(r.clone()), Some(Value::bytes(sig)), Some(handle)],
                    )
                    .unwrap();
                assert_eq!(out, Ok(vec![]), "{builtin}, {} bytes", sig.len());
            }
        }
        // The reversed handle is not a different secret.
        let mac = b
            .invoke(
                Symbol::intern("hmacsign"),
                &[Some(r.clone()), Some(reversed.clone()), None],
            )
            .unwrap()
            .unwrap()[0][2]
            .clone();
        for handle in [reversed, shared_secret_handle(alice, bob)] {
            let ok = b
                .invoke(
                    Symbol::intern("hmacverify"),
                    &[Some(r.clone()), Some(mac.clone()), Some(handle)],
                )
                .unwrap()
                .unwrap();
            assert_eq!(ok.len(), 1);
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_deterministic() {
        let (keys, alice, bob) = setup();
        let handle = shared_secret_handle(alice, bob);
        let mut b = Builtins::new();
        register_crypto_builtins(&mut b, alice, keys);
        let r = quote("permission(alice,f,read).");
        let enc = |r: &Value| {
            b.invoke(
                Symbol::intern("encryptrule"),
                &[Some(r.clone()), Some(handle.clone()), None],
            )
            .unwrap()
            .unwrap()[0][2]
                .clone()
        };
        let c1 = enc(&r);
        let c2 = enc(&r);
        assert_eq!(c1, c2, "SIV encryption must be deterministic");
        let dec = b
            .invoke(
                Symbol::intern("decryptrule"),
                &[Some(c1), Some(handle.clone()), None],
            )
            .unwrap()
            .unwrap();
        assert_eq!(dec[0][2], r);
    }

    #[test]
    fn scheme_preludes_parse() {
        for scheme in AuthScheme::ALL {
            let src = scheme.prelude();
            let program = lbtrust_datalog::parse_program(&src)
                .unwrap_or_else(|e| panic!("{scheme} prelude: {e}"));
            assert_eq!(program.rules.len(), 2, "{scheme}: exp1 + exp2");
            assert_eq!(program.constraints.len(), 1, "{scheme}: exp3");
        }
    }

    #[test]
    fn integrity_builtins() {
        let (keys, alice, _) = setup();
        let mut b = Builtins::new();
        register_crypto_builtins(&mut b, alice, keys);
        let r = quote("p(a).");
        let h = b
            .invoke(Symbol::intern("sha1digest"), &[Some(r.clone()), None])
            .unwrap()
            .unwrap();
        assert_eq!(h.len(), 1);
        let c = b
            .invoke(Symbol::intern("crc32sum"), &[Some(r), None])
            .unwrap()
            .unwrap();
        assert!(matches!(c[0][1], Value::Int(_)));
    }
}
