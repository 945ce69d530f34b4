//! The top-down-to-bottom-up "pull" rewrite (§5.1 of the paper):
//! "converting a 'pull' request in the body of a rule into two 'pushes'".

/// `pull0` alone: any active rule whose body imports `says(X,me,R)`
/// dispatches a `request(R)` to `X`.
pub const PULL_REQUEST: &str =
    "says(me,X,[| request(R). |]) <- active([| A <- says(X,me,R), A*. |]), X != me.\n";

/// `pull1` alone: respond to a request by saying `R` back — the paper's
/// literal formulation, which *echoes* the requested rule without
/// checking local derivability. Use [`respond_rule`] instead when the
/// response should carry only locally derivable facts.
pub const PULL_ECHO: &str = "says(me,X,R) <- says(X,me,[| request(R). |]).\n";

/// `pull0`: any active rule whose body imports `says(X,me,R)` dispatches
/// a `request(R)` to `X`; `pull1`: a principal receiving a request
/// responds by saying `R` back.
///
/// As written in the paper, `pull1` echoes the requested rule; data-
/// bearing responses are produced by [`respond_rule`]-generated rules
/// that instantiate the requested *fact pattern* against local data
/// (install [`PULL_REQUEST`] + `respond_rule` for that configuration).
pub const PULL_REWRITE: &str =
    "says(me,X,[| request(R). |]) <- active([| A <- says(X,me,R), A*. |]), X != me.\n\
    says(me,X,R) <- says(X,me,[| request(R). |]).\n";

/// A data-bearing responder for predicate `pred` of the given arity:
/// when a fully-ground fact of `pred` is requested and locally derivable,
/// say it back to the requester.
///
/// Ground requests only: open (variable-carrying) requests bind the
/// pattern's positions to the *requester's code variables*, which cannot
/// join against local tuples; an open question is asked locally instead,
/// through [`crate::Workspace::query_goal`].
pub fn respond_rule(pred: &str, arity: usize) -> String {
    let vars: Vec<String> = (0..arity).map(|i| format!("V{i}")).collect();
    let args = vars.join(",");
    format!(
        "says(me,X,[| {pred}({args}). |]) <- says(X,me,[| request([| {pred}({args}). |]). |]), {pred}({args}).\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbtrust_datalog::parse_program;

    #[test]
    fn pull_rules_parse() {
        let p = parse_program(PULL_REWRITE).unwrap();
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn responder_parses() {
        let src = respond_rule("access", 3);
        let p = parse_program(&src).unwrap();
        assert_eq!(p.rules.len(), 1);
        assert!(src.contains("access(V0,V1,V2)"));
    }
}
