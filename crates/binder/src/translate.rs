//! Binder → LBTrust translation (§5.1 of the paper).
//!
//! Binder is "a set of Datalog-style logical rules" plus the `says`
//! construct: `bob says access(P,O,read)` in a rule body imports derived
//! tuples from bob's context. The LBTrust equivalent replaces the infix
//! form with the `says` predicate and a quoted fact:
//! `says(bob, me, [| access(P,O,read) |])`.
//!
//! The translation is token-level: everything except `P says atom` is
//! already valid LBTrust syntax.

use lbtrust_datalog::lexer::{self, lex, Spanned, Token};
use lbtrust_datalog::{parse_program, ParseError, Program};

/// Translation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinderError {
    /// Description with source line.
    pub message: String,
}

impl std::fmt::Display for BinderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binder translation error: {}", self.message)
    }
}

impl std::error::Error for BinderError {}

impl From<ParseError> for BinderError {
    fn from(e: ParseError) -> Self {
        BinderError {
            message: e.to_string(),
        }
    }
}

/// Translates Binder source to LBTrust source.
pub fn binder_to_lbtrust(src: &str) -> Result<String, BinderError> {
    let tokens = lex(src).map_err(|e| BinderError {
        message: e.to_string(),
    })?;
    let mut out = String::new();
    let mut i = 0;
    while i < tokens.len() {
        // Look for `<principal> says <atom>`.
        if let (Some(principal), Some(Token::Ident(kw))) =
            (token_text(&tokens, i), tokens.get(i + 1).map(|s| &s.token))
        {
            if kw == "says" && is_principal_token(&tokens[i].token) {
                let atom_start = i + 2;
                let atom_end = lexer::atom_end(&tokens, atom_start).ok_or_else(|| BinderError {
                    message: format!(
                        "expected an atom after '{principal} says' at line {}",
                        tokens[i].line
                    ),
                })?;
                out.push_str(&format!("says({principal},me,[| ",));
                for t in &tokens[atom_start..atom_end] {
                    emit(&mut out, &t.token);
                }
                out.push_str(" |])");
                i = atom_end;
                continue;
            }
        }
        emit(&mut out, &tokens[i].token);
        // Newline after '.' keeps the output readable.
        if tokens[i].token == Token::Dot {
            out.push('\n');
        }
        i += 1;
    }
    Ok(out)
}

/// Translates and parses in one step (validation included).
pub fn parse_binder(src: &str) -> Result<Program, BinderError> {
    let lbtrust_src = binder_to_lbtrust(src)?;
    Ok(parse_program(&lbtrust_src)?)
}

fn is_principal_token(tok: &Token) -> bool {
    matches!(tok, Token::Ident(_) | Token::UIdent(_))
}

fn token_text(tokens: &[Spanned], i: usize) -> Option<String> {
    tokens.get(i).map(|s| s.token.to_string())
}

/// Emits a token with sensible spacing.
fn emit(out: &mut String, tok: &Token) {
    let text = tok.to_string();
    let no_space_before = matches!(
        tok,
        Token::LParen | Token::RParen | Token::Comma | Token::Dot | Token::RBracket
    );
    if !out.is_empty() && !out.ends_with(['(', '[', '\n', ' ']) && !no_space_before {
        out.push(' ');
    }
    out.push_str(&text);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_rules_pass_through() {
        // b1 from §2.2.
        let out = binder_to_lbtrust("access(P,O,read) :- good(P).").unwrap();
        let program = parse_program(&out).unwrap();
        assert_eq!(program.rules.len(), 1);
        assert_eq!(program.rules[0].to_string(), "access(P,O,read) <- good(P).");
    }

    /// Canonical form of the single translated rule.
    fn canon(src: &str) -> String {
        let out = binder_to_lbtrust(src).unwrap();
        let program = parse_program(&out).unwrap_or_else(|e| panic!("{out}: {e}"));
        program.rules[0].to_string()
    }

    #[test]
    fn says_in_body_translates() {
        // b2 from §2.2.
        assert_eq!(
            canon("access(P,O,read) :- bob says access(P,O,read)."),
            "access(P,O,read) <- says(bob,me,[| access(P,O,read). |])."
        );
    }

    #[test]
    fn variable_principal() {
        assert_eq!(
            canon("trusted(X) :- W says vouch(X), admin(W)."),
            "trusted(X) <- says(W,me,[| vouch(X). |]), admin(W)."
        );
    }

    #[test]
    fn multiple_says_in_one_body() {
        let text = canon("ok(X) :- alice says good(X), bob says good(X).");
        assert!(text.contains("says(alice,me,[| good(X). |])"), "{text}");
        assert!(text.contains("says(bob,me,[| good(X). |])"), "{text}");
    }

    #[test]
    fn says_zero_arity_atom() {
        assert_eq!(canon("p :- bob says q."), "p() <- says(bob,me,[| q(). |]).");
    }

    #[test]
    fn facts_and_negation_untouched() {
        let src = "good(alice). safe(X) :- good(X), !banned(X).";
        let program = parse_binder(src).unwrap();
        assert_eq!(program.rules.len(), 2);
    }

    #[test]
    fn the_word_says_as_predicate_is_left_alone() {
        // `says(...)` used directly (already LBTrust form) is untouched
        // because the preceding token is not a principal.
        let out = binder_to_lbtrust("p(X) :- says(bob,me,[| q(X) |]).").unwrap();
        parse_program(&out).unwrap();
    }

    #[test]
    fn unbalanced_says_atom_rejected() {
        assert!(binder_to_lbtrust("p :- bob says q(X.").is_err());
    }
}
