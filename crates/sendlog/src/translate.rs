//! SeNDlog → LBTrust translation (§5.2 of the paper).
//!
//! SeNDlog unifies Network Datalog with Binder: programs execute "At S"
//! (a context variable naming the local principal), import with
//! `W says p(...)`, and export with `p(...)@X` heads. The paper gives the
//! LBTrust equivalent explicitly (rules `ls1`/`ls2`):
//!
//! * the context variable `S` becomes the `me` keyword;
//! * a body literal `W says p(args)` becomes `says(W, me, [| p(args) |])`;
//! * a head `p(args)@X` becomes `says(me, X, [| p(args). |])`.

use lbtrust_datalog::lexer::{self, lex, LexError, Spanned, Token};
use lbtrust_datalog::{parse_program, ParseError, Program};
use std::fmt;

/// The underlying failure behind a [`SendlogError`], exposed through
/// `std::error::Error::source()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendlogCause {
    /// The SeNDlog source failed to tokenize.
    Lex(LexError),
    /// The translated LBTrust program failed to parse.
    Parse(ParseError),
}

impl fmt::Display for SendlogCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendlogCause::Lex(e) => write!(f, "{e}"),
            SendlogCause::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SendlogCause {}

/// Translation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SendlogError {
    /// Description.
    pub message: String,
    /// Underlying lex/parse failure, when there is one.
    pub cause: Option<SendlogCause>,
}

impl SendlogError {
    fn new(message: impl Into<String>) -> SendlogError {
        SendlogError {
            message: message.into(),
            cause: None,
        }
    }
}

impl fmt::Display for SendlogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sendlog translation error: {}", self.message)
    }
}

impl std::error::Error for SendlogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.cause {
            Some(c) => Some(c),
            None => None,
        }
    }
}

/// A parsed SeNDlog program: the context variable and the statements.
#[derive(Clone, Debug)]
pub struct SendlogProgram {
    /// The context variable from the `At S:` header (e.g. `S`).
    pub context_var: String,
    /// The translated LBTrust source.
    pub lbtrust_src: String,
}

/// Translates a SeNDlog program. The source must start with an
/// `At <Var>:` header; rule labels (`s1:`) are optional and stripped.
pub fn sendlog_to_lbtrust(src: &str) -> Result<SendlogProgram, SendlogError> {
    sendlog_to_lbtrust_as(src, "says")
}

/// [`sendlog_to_lbtrust`] with a custom communication predicate: `@X`
/// heads become `<says_pred>(me, X, [| ... |])` and `W says p(..)`
/// body literals become `<says_pred>(W, me, [| ... |])`.
///
/// The default `says` rides the workspace authentication pipeline
/// (`exp1`–`exp3` sign, ship and verify every derived `says`). System
/// protocols whose messages travel on their own wire frames — the
/// revocation-gossip program in [`crate::gossip`], whose payloads are
/// equality-compared fingerprints rather than authenticated rules —
/// translate onto a private predicate instead, so each derived message
/// is not also RSA-signed and re-shipped as a generic export.
pub fn sendlog_to_lbtrust_as(src: &str, says_pred: &str) -> Result<SendlogProgram, SendlogError> {
    let (context_var, body) = split_header(src)?;
    let cleaned = strip_labels(&body);
    let tokens = lex(&cleaned).map_err(|e| SendlogError {
        message: e.to_string(),
        cause: Some(SendlogCause::Lex(e)),
    })?;
    let mut out = String::new();
    // Process one statement (up to Dot) at a time. Each translated
    // statement is emitted on the line its SeNDlog original occupied
    // (padding with blank lines as needed), so `line` positions in the
    // parsed LBTrust program refer back to the SeNDlog source.
    let mut start = 0;
    let mut out_line = 1;
    for (i, spanned) in tokens.iter().enumerate() {
        if spanned.token == Token::Dot {
            while out_line < tokens[start].line {
                out.push('\n');
                out_line += 1;
            }
            translate_statement(&tokens[start..=i], &context_var, says_pred, &mut out)?;
            out.push('\n');
            out_line += 1;
            start = i + 1;
        }
    }
    if start != tokens.len() {
        return Err(SendlogError::new("trailing tokens after final '.'"));
    }
    Ok(SendlogProgram {
        context_var,
        lbtrust_src: out,
    })
}

/// Translates and parses in one step.
pub fn parse_sendlog(src: &str) -> Result<(SendlogProgram, Program), SendlogError> {
    let translated = sendlog_to_lbtrust(src)?;
    let program = parse_program(&translated.lbtrust_src).map_err(|e| SendlogError {
        message: format!(
            "translated program does not parse: {e}\n{}",
            translated.lbtrust_src
        ),
        cause: Some(SendlogCause::Parse(e)),
    })?;
    Ok((translated, program))
}

/// Extracts the `At S:` header.
fn split_header(src: &str) -> Result<(String, String), SendlogError> {
    let trimmed = src.trim_start();
    let Some(rest) = trimmed
        .strip_prefix("At ")
        .or_else(|| trimmed.strip_prefix("at "))
    else {
        return Err(SendlogError::new(
            "SeNDlog programs start with an 'At <Var>:' header",
        ));
    };
    let Some((var, body)) = rest.split_once(':') else {
        return Err(SendlogError::new("missing ':' after the context variable"));
    };
    let var = var.trim();
    if var.is_empty() || !var.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
        return Err(SendlogError::new(format!(
            "'{var}' is not a context variable"
        )));
    }
    Ok((var.to_string(), body.to_string()))
}

/// Removes `label:` prefixes (e.g. `s1:`) at the start of each rule.
fn strip_labels(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    for line in src.lines() {
        let trimmed = line.trim_start();
        let stripped = match trimmed.split_once(':') {
            Some((label, rest))
                if !label.is_empty()
                    && label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && label.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                    && !rest.starts_with('-') =>
            {
                rest
            }
            _ => trimmed,
        };
        out.push_str(stripped);
        out.push('\n');
    }
    out
}

/// Translates one `head (@dest)? (:- body)? .` statement.
fn translate_statement(
    tokens: &[Spanned],
    context_var: &str,
    says_pred: &str,
    out: &mut String,
) -> Result<(), SendlogError> {
    // Find the top-level ImpliedBy, if any.
    let arrow = tokens.iter().position(|s| s.token == Token::ImpliedBy);
    let (head_toks, body_toks) = match arrow {
        Some(i) => (&tokens[..i], &tokens[i + 1..tokens.len() - 1]),
        None => (&tokens[..tokens.len() - 1], &[][..]),
    };

    // Head: atom with optional @dest.
    let at = head_toks.iter().position(|s| s.token == Token::At);
    match at {
        Some(i) => {
            let dest = head_toks
                .get(i + 1)
                .ok_or_else(|| SendlogError::new("missing destination after '@'"))?;
            if i + 2 != head_toks.len() {
                return Err(SendlogError::new(
                    "destination must be the final token of the head",
                ));
            }
            out.push_str(says_pred);
            out.push_str("(me,");
            emit_token(out, &dest.token, context_var);
            out.push_str(",[| ");
            for t in &head_toks[..i] {
                emit_token(out, &t.token, context_var);
            }
            out.push_str(". |])");
        }
        None => {
            for t in head_toks {
                emit_token(out, &t.token, context_var);
            }
        }
    }

    if body_toks.is_empty() {
        out.push('.');
        return Ok(());
    }
    out.push_str(" <- ");

    // Body: rewrite `W says atom`.
    let mut i = 0;
    while i < body_toks.len() {
        if let Some(Token::Ident(kw)) = body_toks.get(i + 1).map(|s| &s.token) {
            if kw == "says" && matches!(body_toks[i].token, Token::Ident(_) | Token::UIdent(_)) {
                let atom_start = i + 2;
                let atom_end = lexer::atom_end(body_toks, atom_start)
                    .ok_or_else(|| SendlogError::new("expected an atom after 'says'"))?;
                out.push_str(says_pred);
                out.push('(');
                emit_token(out, &body_toks[i].token, context_var);
                out.push_str(",me,[| ");
                for t in &body_toks[atom_start..atom_end] {
                    emit_token(out, &t.token, context_var);
                }
                out.push_str(" |])");
                i = atom_end;
                continue;
            }
        }
        emit_token(out, &body_toks[i].token, context_var);
        i += 1;
    }
    out.push('.');
    Ok(())
}

/// Emits a token, mapping the context variable to `me`.
fn emit_token(out: &mut String, tok: &Token, context_var: &str) {
    let text = match tok {
        Token::UIdent(name) if name == context_var => "me".to_string(),
        other => other.to_string(),
    };
    let no_space_before = matches!(
        tok,
        Token::LParen | Token::RParen | Token::Comma | Token::Dot
    );
    if !out.is_empty() && !out.ends_with(['(', '[', ' ', ',', '\n']) && !no_space_before {
        out.push(' ');
    }
    out.push_str(&text);
}

#[cfg(test)]
mod tests {
    use super::*;

    const REACHABLE: &str = "\
        At S:\n\
        s1: reachable(S,D) :- neighbor(S,D).\n\
        s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).\n";

    #[test]
    fn paper_example_translates_to_ls_rules() {
        let (_, program) = parse_sendlog(REACHABLE).unwrap();
        assert_eq!(program.rules.len(), 2);
        // ls1 from §5.2:
        assert_eq!(
            program.rules[0].to_string(),
            "reachable(me,D) <- neighbor(me,D)."
        );
        // ls2 from §5.2:
        assert_eq!(
            program.rules[1].to_string(),
            "says(me,Z,[| reachable(Z,D). |]) <- neighbor(me,Z), says(W,me,[| reachable(me,D). |])."
        );
    }

    #[test]
    fn header_required() {
        assert!(sendlog_to_lbtrust("reachable(S,D) :- neighbor(S,D).").is_err());
        assert!(sendlog_to_lbtrust("At s: p(X) :- q(X).").is_err()); // lowercase
    }

    #[test]
    fn labels_are_optional() {
        let with = sendlog_to_lbtrust(REACHABLE).unwrap();
        let without = sendlog_to_lbtrust(
            "At S:\n\
             reachable(S,D) :- neighbor(S,D).\n\
             reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).\n",
        )
        .unwrap();
        assert_eq!(with.lbtrust_src, without.lbtrust_src);
    }

    #[test]
    fn facts_translate() {
        let (_, program) = parse_sendlog("At N: neighbor(N, b).").unwrap();
        assert_eq!(program.rules[0].to_string(), "neighbor(me,b).");
    }

    #[test]
    fn export_to_constant_destination() {
        let (_, program) = parse_sendlog("At S: alert(S)@hub :- overload(S).").unwrap();
        assert_eq!(
            program.rules[0].to_string(),
            "says(me,hub,[| alert(me). |]) <- overload(me)."
        );
    }

    #[test]
    fn at_must_terminate_head() {
        assert!(sendlog_to_lbtrust("At S: p(X)@Z q :- r(X).").is_err());
        assert!(sendlog_to_lbtrust("At S: p(X)@ :- r(X).").is_err());
    }

    #[test]
    fn translation_preserves_line_numbers() {
        // REACHABLE has s1 on source line 2 and s2 on source line 3;
        // translation emits each statement on its original line so parsed
        // spans point back into the SeNDlog text.
        let (_, program) = parse_sendlog(REACHABLE).unwrap();
        assert_eq!(program.rule_span(0).line, 2);
        assert_eq!(program.rule_span(1).line, 3);
        // A blank line between statements survives too.
        let (_, program) = parse_sendlog("At S:\n\np(S) :- q(S).\n\nr(S) :- p(S).\n").unwrap();
        assert_eq!(program.rule_span(0).line, 3);
        assert_eq!(program.rule_span(1).line, 5);
    }

    #[test]
    fn error_source_chains() {
        use std::error::Error;
        // A lex failure carries its LexError as source.
        let err = parse_sendlog("At S: p($).").unwrap_err();
        assert!(err.source().is_some(), "{err}");
        // An unparseable translation carries the ParseError.
        let err = parse_sendlog("At S: p(S) :- , q(S).").unwrap_err();
        assert!(err.source().is_some(), "{err}");
        let err = sendlog_to_lbtrust("no header here.").unwrap_err();
        assert!(err.source().is_none());
    }
}
