//! The `says` construct (§4.1 of the paper).
//!
//! `says(U1,U2,R)` associates a rule `R` with the principal who said it
//! (`U1`) and the principal it is said to (`U2`). Communication happens
//! in rules; facts are rules with an empty body.

/// The `says`/`export` type declarations (`says0`, `exp0`), and how a
/// certificate becomes a `says` fact.
///
/// Divergence note: the paper's `says0` also requires `rule(R)`; we relax
/// that because communicated rules only enter the meta-model's `rule`
/// table once they are activated — requiring it up front would reject
/// every incoming message.
///
/// Interpretation note: the paper knows one road into `says`, the
/// `export` relation, judged by the scheme's `exp3`. A certificate
/// (`lbtrust-certstore`) is a second road. Its signature covers the
/// whole credential (issuer, rule, links, lifetime), and the store
/// checks it once on import, by the certificate's content address, as
/// SAFE-style linked credentials are checked. Re-judging it with the
/// receiver's `exp3` would need a second signature in the receiver's own
/// scheme, which no issuer can produce for an HMAC receiver it shares
/// no secret with. So the runtime files an accepted certificate as one
/// base fact, `certified(Issuer, me, R, D)` with `D` its content
/// address, the same under every scheme; the rule below derives the
/// `says` fact from it, and every scheme's `exp3` accepts a `says` fact
/// that a `certified` fact backs ([`crate::AuthScheme::verify_constraint`]).
/// A scheme switch still replaces exactly `exp1` and `exp3`. Only the
/// runtime asserts `certified`: the workspace refuses a generated rule
/// that concludes it, so a peer's activated rule cannot forge one.
pub const SAYS_DECLS: &str = "\
    says(U1,U2,R) -> prin(U1), prin(U2).\n\
    export[U2](U1,R,S) -> prin(U1), prin(U2).\n\
    says(U,me,R) <- certified(U,me,R,D).\n";

/// `says1`: automatically activate every rule said to the local
/// principal. The paper presents this as part of the `says` definition;
/// deployments that want *selective* activation (delegation, §4.2)
/// install `sf0`/`del1` rules instead, so this prelude is opt-in.
pub const AUTO_ACTIVATE: &str = "active(R) <- says(_,me,R).\n";

/// Speaks-for (`sf0`, §4.2): `who` speaks for me — activate anything they
/// say.
pub fn speaks_for(who: &str) -> String {
    format!("active(R) <- says({who},me,R).\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbtrust_datalog::parse_program;

    #[test]
    fn preludes_parse() {
        assert_eq!(parse_program(SAYS_DECLS).unwrap().constraints.len(), 2);
        assert_eq!(parse_program(SAYS_DECLS).unwrap().rules.len(), 1);
        assert_eq!(parse_program(AUTO_ACTIVATE).unwrap().rules.len(), 1);
        assert_eq!(parse_program(&speaks_for("bob")).unwrap().rules.len(), 1);
    }
}
