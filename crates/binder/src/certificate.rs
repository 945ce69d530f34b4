//! Binder certificates.
//!
//! "To authenticate facts asserted by principals, Binder uses
//! certificates signed with the private key of the sending principal.
//! Certificates are imported by prefixing the says operator with a public
//! key representing the context to import from" (§5.1 of the paper).
//!
//! A [`Certificate`] is a bundle over the runtime's own credentials: one
//! [`LinkedCert`] per exported fact, issued by
//! [`lbtrust::System::issue_certificates`], plus the issuer's RSA
//! signature over the set of their content addresses. Binder signs and
//! checks that batch signature and nothing else:
//! [`BinderSystem::issue_certificate`] and
//! [`BinderSystem::import_certificate`] hand the members to the system,
//! so each fact's own signature is checked by the importer's
//! certificate store through the shared verification cache, and the
//! runtime files each member as `certified(issuer, me, fact, digest)`,
//! from which the workspace derives `says(issuer, me, fact)` under any
//! `says` scheme the context runs. A Binder certificate therefore
//! expires with its TTL and is retracted by its issuer's revocation like
//! any other credential.
//!
//! [`BinderSystem::issue_certificate`]: crate::BinderSystem::issue_certificate
//! [`BinderSystem::import_certificate`]: crate::BinderSystem::import_certificate

use lbtrust::principal::Principal;
use lbtrust_certstore::LinkedCert;

/// A signed set of exported facts.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The signing principal.
    pub issuer: Principal,
    /// One linked credential per exported fact, each carrying the
    /// supporting links and the lifetime the certificate was issued
    /// with.
    pub certs: Vec<LinkedCert>,
    /// The issuer's RSA signature over its name and every member's
    /// content address, in order (batch integrity: no member swapped,
    /// added or dropped).
    pub signature: Vec<u8>,
}

impl Certificate {
    /// The byte string behind the batch signature: the issuer's name,
    /// then every member's content address in order, one per line. An
    /// address covers its member's issuer, fact, links, TTL and
    /// signature, so editing any of them changes these bytes.
    pub(crate) fn signing_bytes(issuer: Principal, certs: &[LinkedCert]) -> Vec<u8> {
        let mut out = format!("binder-certificate:{issuer}\n").into_bytes();
        for cert in certs {
            out.extend_from_slice(cert.digest().to_hex().as_bytes());
            out.push(b'\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{BinderSysError, BinderSystem};
    use lbtrust::SysError;
    use lbtrust_certstore::CertStoreError;
    use lbtrust_datalog::{parse_rule, Symbol};
    use std::sync::Arc;

    /// alice (running Binder's b2 on bob's word) and bob.
    fn alice_and_bob() -> (BinderSystem, Symbol, Symbol) {
        let mut sys = BinderSystem::new(512);
        let alice = sys.add_context("alice", "n1").unwrap();
        let bob = sys.add_context("bob", "n2").unwrap();
        sys.load_binder(alice, "access(P,o,read) :- bob says good(P).")
            .unwrap();
        (sys, alice, bob)
    }

    fn bad_signature<T: std::fmt::Debug>(what: &str, result: Result<T, impl Into<BinderSysError>>) {
        match result.map_err(Into::into) {
            Err(BinderSysError::System(SysError::Cert(CertStoreError::BadSignature(_)))) => {}
            other => panic!("{what}: expected BadSignature, got {other:?}"),
        }
    }

    #[test]
    fn issue_verify_roundtrip() {
        let (mut sys, alice, bob) = alice_and_bob();
        let cert = sys
            .issue_certificate(bob, "good(carol). good(dave).", &[], None)
            .unwrap();
        assert_eq!(cert.issuer, bob);
        assert_eq!(cert.certs.len(), 2);
        assert!(cert.certs.iter().all(|c| c.issuer == bob));
        let outcomes = sys.import_certificate(alice, &cert).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.newly_added));
    }

    /// A swapped fact and a wrong issuer fail closed twice over: the
    /// batch signature refuses the bundle, and the members alone are
    /// refused by the store's per-certificate signature check.
    #[test]
    fn tampered_certificate_rejected() {
        let (mut sys, alice, bob) = alice_and_bob();
        let mallory = sys.add_context("mallory", "n3").unwrap();
        let cert = sys
            .issue_certificate(bob, "good(carol).", &[], None)
            .unwrap();

        let mut swapped = cert.clone();
        swapped.certs[0].rule = Arc::new(parse_rule("good(mallory).").unwrap());
        let mut reissued = cert.clone();
        reissued.issuer = mallory;
        let mut member_reissued = cert.clone();
        member_reissued.certs[0].issuer = mallory;
        // (what, the forgery, whether its members are forged too)
        for (what, forged, members) in [
            ("swapped fact", swapped, true),
            ("wrong issuer", reissued, false),
            ("wrong member issuer", member_reissued, true),
        ] {
            bad_signature(what, sys.import_certificate(alice, &forged));
            if members {
                let system = sys.system_mut();
                bad_signature(what, system.import_certificates(alice, forged.certs));
            }
        }
        assert!(!sys.holds(alice, "access(mallory,o,read)").unwrap());
        assert!(sys.system().cert_store(alice).unwrap().is_empty());
        // The certificate as issued is still good.
        sys.import_certificate(alice, &cert).unwrap();
        assert!(sys.holds(alice, "access(carol,o,read)").unwrap());
    }

    /// Links are signed metadata: an edited link list — even one citing
    /// a live certificate the importer holds — is refused by the batch
    /// signature and, members alone, by the signature over
    /// `cert::signing_bytes`.
    #[test]
    fn tampered_links_rejected() {
        let (mut sys, alice, bob) = alice_and_bob();
        let root = sys
            .issue_certificate(bob, "authority(bob).", &[], None)
            .unwrap();
        sys.import_certificate(alice, &root).unwrap();
        let mut cert = sys
            .issue_certificate(bob, "good(carol).", &[], None)
            .unwrap();
        cert.certs[0].links = vec![root.certs[0].digest()];
        bad_signature("batch", sys.import_certificate(alice, &cert));
        let system = sys.system_mut();
        bad_signature("member", system.import_certificates(alice, cert.certs));
        assert!(!sys.holds(alice, "access(carol,o,read)").unwrap());
    }

    #[test]
    fn linked_certificate_files_and_asserts() {
        let (mut sys, alice, bob) = alice_and_bob();
        let dana = sys.add_context("dana", "n3").unwrap();
        let root = sys
            .issue_certificate(bob, "authority(bob).", &[], None)
            .unwrap();
        let root_digest = root.certs[0].digest();
        let linked = sys
            .issue_certificate(bob, "good(carol).", &[root_digest], Some(100))
            .unwrap();

        sys.import_certificate(alice, &root).unwrap();
        let outcomes = sys.import_certificate(alice, &linked).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(sys.holds(alice, "access(carol,o,read)").unwrap());
        assert_eq!(sys.system().cert_store(alice).unwrap().active().len(), 2);

        // Without the supporting certificate in the store, the same
        // linked certificate is rejected.
        assert!(matches!(
            sys.import_certificate(dana, &linked),
            Err(BinderSysError::System(SysError::Cert(
                CertStoreError::BrokenLink { missing, .. }
            ))) if missing == root_digest
        ));
    }

    #[test]
    fn repeated_import_does_not_duplicate_base_facts() {
        let (mut sys, alice, bob) = alice_and_bob();
        let cert = sys
            .issue_certificate(bob, "good(carol).", &[], None)
            .unwrap();
        let first = sys.import_certificate(alice, &cert).unwrap();
        assert!(first[0].newly_added);
        // Redelivery: the store answers from cache, no facts re-asserted.
        let second = sys.import_certificate(alice, &cert).unwrap();
        assert!(!second[0].newly_added && second[0].cache_hit);
        assert!(sys.holds(alice, "access(carol,o,read)").unwrap());

        // Exactly one supporting copy exists: the one retraction a
        // revocation performs kills the conclusion (a second copy of the
        // base facts would keep it).
        let digest = cert.certs[0].digest();
        sys.system_mut().revoke_certificate(bob, digest).unwrap();
        sys.run(16).unwrap();
        assert!(
            !sys.holds(alice, "access(carol,o,read)").unwrap(),
            "a single retraction must remove the only supporting copy"
        );
    }

    #[test]
    fn non_fact_body_rejected() {
        let (mut sys, _, bob) = alice_and_bob();
        assert!(sys
            .issue_certificate(bob, "p(X) <- q(X).", &[], None)
            .is_err());
    }

    /// A context running HMAC-SHA1 imports a Binder certificate and
    /// grants on it: the members' RSA signatures are the store's to
    /// check, not the context's `exp3`.
    #[test]
    fn an_hmac_context_imports_a_certificate() {
        let (mut sys, alice, bob) = alice_and_bob();
        sys.establish_shared_secret(alice, bob).unwrap();
        sys.set_auth_scheme(alice, lbtrust::AuthScheme::HmacSha1)
            .unwrap();
        let cert = sys
            .issue_certificate(bob, "good(carol).", &[], None)
            .unwrap();
        sys.import_certificate(alice, &cert).unwrap();
        sys.run(16).unwrap();
        assert!(sys.holds(alice, "access(carol,o,read)").unwrap());
    }

    #[test]
    fn import_asserts_says_facts() {
        let (mut sys, alice, bob) = alice_and_bob();
        let cert = sys
            .issue_certificate(bob, "good(carol).", &[], None)
            .unwrap();
        sys.import_certificate(alice, &cert).unwrap();
        // Binder's b2: access on bob's word.
        assert!(sys.holds(alice, "access(carol,o,read)").unwrap());
        assert!(sys
            .holds(alice, "says(bob,alice,[| good(carol). |])")
            .unwrap());
    }
}
