//! Binder contexts on top of the LBTrust [`System`].
//!
//! "Each principal has its own local context where its rules reside"
//! (§2.2). [`BinderSystem`] wraps the multi-principal runtime so whole
//! programs can be written in Binder syntax; `says` imports arrive over
//! the (simulated) network through the workspace export/import pipeline
//! with whatever authentication scheme is configured — the
//! reconfigurability the paper demonstrates in §6.

use crate::certificate::Certificate;
use crate::translate::{binder_to_lbtrust, BinderError};
use lbtrust::principal::Principal;
use lbtrust::system::{SysError, System, SystemStats};
use lbtrust::AuthScheme;
use lbtrust_certstore::{CertDigest, CertStoreError, ImportOutcome, SignatureVerifier};
use std::fmt;

/// Errors from the Binder layer.
#[derive(Debug)]
pub enum BinderSysError {
    /// Translation failed.
    Translate(BinderError),
    /// The underlying system failed.
    System(SysError),
}

impl fmt::Display for BinderSysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinderSysError::Translate(e) => write!(f, "{e}"),
            BinderSysError::System(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BinderSysError {}

impl From<BinderError> for BinderSysError {
    fn from(e: BinderError) -> Self {
        BinderSysError::Translate(e)
    }
}

impl From<SysError> for BinderSysError {
    fn from(e: SysError) -> Self {
        BinderSysError::System(e)
    }
}

/// A multi-principal Binder deployment.
pub struct BinderSystem {
    system: System,
}

impl BinderSystem {
    /// Creates a deployment (512-bit RSA keys keep tests fast; the
    /// benchmark harness configures 1024 as in the paper).
    pub fn new(rsa_bits: usize) -> BinderSystem {
        BinderSystem {
            system: System::new().with_rsa_bits(rsa_bits),
        }
    }

    /// Registers a Binder context (principal) on a node.
    pub fn add_context(&mut self, name: &str, node: &str) -> Result<Principal, BinderSysError> {
        Ok(self.system.add_principal(name, node)?)
    }

    /// Loads Binder-syntax rules into a context.
    pub fn load_binder(&mut self, who: Principal, src: &str) -> Result<(), BinderSysError> {
        let translated = binder_to_lbtrust(src)?;
        self.system
            .workspace_mut(who)?
            .load("binder-policy", &translated)
            .map_err(SysError::Workspace)?;
        Ok(())
    }

    /// Asserts local facts in a context.
    pub fn assert(&mut self, who: Principal, facts: &str) -> Result<(), BinderSysError> {
        self.system
            .workspace_mut(who)?
            .assert_src(facts)
            .map_err(SysError::Workspace)?;
        Ok(())
    }

    /// Installs a rule exporting `pred/arity` facts to `to` — Binder's
    /// cross-context communication, e.g. `export_facts(bob, "good", 1,
    /// alice)` ships every derived `good(X)` from bob to alice.
    pub fn export_facts(
        &mut self,
        from: Principal,
        pred: &str,
        arity: usize,
        to: Principal,
    ) -> Result<(), BinderSysError> {
        let vars: Vec<String> = (0..arity).map(|i| format!("X{i}")).collect();
        let args = vars.join(",");
        let rule = format!("says(me,{to},[| {pred}({args}). |]) <- {pred}({args}).");
        self.system
            .workspace_mut(from)?
            .load("binder-export", &rule)
            .map_err(SysError::Workspace)?;
        Ok(())
    }

    /// Issues a certificate over the facts in `facts_src` (e.g.
    /// `"good(carol). good(dave)."`): one credential per fact from
    /// [`System::issue_certificates`], citing `links` as support and
    /// valid for `ttl` store-logical ticks (`None` = no expiry), and
    /// `issuer`'s signature over the set.
    pub fn issue_certificate(
        &mut self,
        issuer: Principal,
        facts_src: &str,
        links: &[CertDigest],
        ttl: Option<u64>,
    ) -> Result<Certificate, BinderSysError> {
        let certs = self
            .system
            .issue_certificates(issuer, facts_src, links, ttl)?;
        let keys = self.system.keys().read();
        let pair = keys.rsa(issuer).ok_or(SysError::UnknownPrincipal(issuer))?;
        let signature = pair
            .private
            .sign(&Certificate::signing_bytes(issuer, &certs))
            .map_err(|e| SysError::Issue(e.to_string()))?;
        Ok(Certificate {
            issuer,
            certs,
            signature,
        })
    }

    /// Imports a certificate into `to`'s context: the batch signature
    /// is checked against the issuer's public key (a mismatch is
    /// [`CertStoreError::BadSignature`] of the batch bytes' address),
    /// then the members go through [`System::import_certificates`] —
    /// their signatures, links and freshness are the store's, and each
    /// is filed as the `certified` fact `says(issuer, me, fact)` derives
    /// from, whatever scheme `to` runs. Returns the store outcomes, one
    /// per fact.
    pub fn import_certificate(
        &mut self,
        to: Principal,
        cert: &Certificate,
    ) -> Result<Vec<ImportOutcome>, BinderSysError> {
        let signed = Certificate::signing_bytes(cert.issuer, &cert.certs);
        let verifier = self.system.key_verifier();
        if !verifier.verify(cert.issuer, &signed, &cert.signature) {
            let batch = CertDigest::of(&signed);
            return Err(SysError::Cert(CertStoreError::BadSignature(batch)).into());
        }
        Ok(self.system.import_certificates(to, cert.certs.clone())?)
    }

    /// Reconfigures a context's authentication scheme.
    pub fn set_auth_scheme(
        &mut self,
        who: Principal,
        scheme: AuthScheme,
    ) -> Result<(), BinderSysError> {
        Ok(self.system.set_auth_scheme(who, scheme)?)
    }

    /// Establishes an HMAC shared secret between two contexts.
    pub fn establish_shared_secret(
        &mut self,
        a: Principal,
        b: Principal,
    ) -> Result<(), BinderSysError> {
        Ok(self.system.establish_shared_secret(a, b)?)
    }

    /// Runs the distributed fixpoint.
    pub fn run(&mut self, max_steps: usize) -> Result<SystemStats, BinderSysError> {
        Ok(self.system.run_to_quiescence(max_steps)?)
    }

    /// Whether `fact_src` holds in `who`'s context.
    pub fn holds(&self, who: Principal, fact_src: &str) -> Result<bool, BinderSysError> {
        self.system
            .workspace(who)?
            .holds_src(fact_src)
            .map_err(|e| BinderSysError::System(SysError::Workspace(e)))
    }

    /// The underlying system (escape hatch).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The underlying system, mutably.
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example: b1/b2 at alice, facts at bob.
    #[test]
    fn binder_b1_b2_end_to_end() {
        let mut sys = BinderSystem::new(512);
        let alice = sys.add_context("alice", "n1").unwrap();
        let bob = sys.add_context("bob", "n2").unwrap();

        // b1 as printed in the paper leaves O unconstrained ("any object
        // O"); range restriction requires an explicit object relation.
        sys.load_binder(
            alice,
            "access(P,O,read) :- good(P), object(O).\n\
             access(P,O,read) :- bob says access(P,O,read).",
        )
        .unwrap();
        sys.assert(alice, "good(carol). object(f2).").unwrap();

        sys.load_binder(bob, "access(P,f2,read) :- vip(P).")
            .unwrap();
        sys.assert(bob, "vip(dave).").unwrap();
        sys.export_facts(bob, "access", 3, alice).unwrap();

        sys.run(16).unwrap();
        // Locally derived (b1):
        assert!(sys.holds(alice, "access(carol,f2,read)").err().is_none());
        // Imported on bob's word (b2):
        assert!(sys.holds(alice, "access(dave,f2,read)").unwrap());
        // Bob's own context does not leak alice's conclusions.
        assert!(!sys.holds(bob, "access(carol,f2,read)").unwrap());
    }

    #[test]
    fn auth_swap_keeps_policy_working() {
        for scheme in [AuthScheme::Plaintext, AuthScheme::HmacSha1, AuthScheme::Rsa] {
            let mut sys = BinderSystem::new(512);
            let alice = sys.add_context("alice", "n1").unwrap();
            let bob = sys.add_context("bob", "n2").unwrap();
            sys.establish_shared_secret(alice, bob).unwrap();
            sys.set_auth_scheme(alice, scheme).unwrap();
            sys.set_auth_scheme(bob, scheme).unwrap();
            sys.load_binder(alice, "ok(X) :- bob says good(X).")
                .unwrap();
            sys.load_binder(bob, "good(X) :- vetted(X).").unwrap();
            sys.assert(bob, "vetted(zoe).").unwrap();
            sys.export_facts(bob, "good", 1, alice).unwrap();
            sys.run(16).unwrap();
            assert!(
                sys.holds(alice, "ok(zoe)").unwrap(),
                "scheme {scheme} failed"
            );
        }
    }
}
