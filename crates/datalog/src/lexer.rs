//! Tokenizer for the LBTrust Datalog dialect.

use crate::hex;
use std::fmt;

/// A lexical token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Token {
    /// Lowercase-initial identifier: constants and predicate names.
    /// May contain interior `:` (e.g. `message:fname`, `rsa:3:c1ebab5d`).
    Ident(String),
    /// Uppercase-initial identifier: a variable / meta-variable.
    UIdent(String),
    /// `_` — anonymous variable.
    Underscore,
    /// Integer literal.
    Int(i64),
    /// String literal (double-quoted, `\\`-escaped).
    Str(String),
    /// Byte-string literal `#hexdigits`.
    Bytes(Vec<u8>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `[|` — open quote.
    LQuote,
    /// `|]` — close quote.
    RQuote,
    /// `<<`
    LAngles,
    /// `>>`
    RAngles,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semi,
    /// `!`
    Bang,
    /// `<-` or `:-`
    ImpliedBy,
    /// `->`
    Implies,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `@` — used by the SeNDlog dialect for export addressing.
    At,
}

impl Token {
    /// Whether an operand can end with this token — a `-` right after it
    /// subtracts rather than signs the literal that follows.
    fn ends_operand(&self) -> bool {
        matches!(
            self,
            Token::Ident(_)
                | Token::UIdent(_)
                | Token::Underscore
                | Token::Int(_)
                | Token::Str(_)
                | Token::Bytes(_)
                | Token::RParen
                | Token::RBracket
                | Token::RQuote
        )
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) | Token::UIdent(s) => write!(f, "{s}"),
            Token::Underscore => write!(f, "_"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Str(s) => write_str_literal(f, s),
            Token::Bytes(b) => {
                f.write_str("#")?;
                hex::write_hex(f, b)
            }
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::LQuote => write!(f, "[|"),
            Token::RQuote => write!(f, "|]"),
            Token::LAngles => write!(f, "<<"),
            Token::RAngles => write!(f, ">>"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Semi => write!(f, ";"),
            Token::Bang => write!(f, "!"),
            Token::ImpliedBy => write!(f, "<-"),
            Token::Implies => write!(f, "->"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::At => write!(f, "@"),
        }
    }
}

/// A token with its source position (1-based line and column).
#[derive(Clone, Debug)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (byte offset within the line).
    pub col: usize,
}

impl Spanned {
    /// The `line:col` position of this token.
    pub fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }
}

/// A `line:col` source position (both 1-based). `Span::UNKNOWN` (0:0)
/// marks synthesized code with no source location.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Span {
    /// 1-based source line (0 = unknown).
    pub line: usize,
    /// 1-based source column (0 = unknown).
    pub col: usize,
}

impl Span {
    /// A span for code with no source location (e.g. generated rules).
    pub const UNKNOWN: Span = Span { line: 0, col: 0 };

    /// Builds a span from a 1-based line and column.
    pub fn new(line: usize, col: usize) -> Span {
        Span { line, col }
    }

    /// True when this span carries a real position.
    pub fn is_known(&self) -> bool {
        self.line != 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_known() {
            write!(f, "{}:{}", self.line, self.col)
        } else {
            write!(f, "?:?")
        }
    }
}

/// A lexical error with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lex error at line {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`. Comments run from `//` to end of line; whitespace is
/// insignificant.
pub fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    lex_to_end(src).map(|(toks, _)| toks)
}

/// [`lex`], and the byte offset just past the last token (0 when there is
/// none): `src.len()` exactly when no blank or comment trails it.
pub(crate) fn lex_to_end(src: &str) -> Result<(Vec<Spanned>, usize), LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut last_end = 0;
    let mut i = 0;
    let mut line = 1;
    // Byte index of the first character of the current line; the column of
    // the token starting at `i` is `i - line_start + 1`.
    let mut line_start = 0;
    macro_rules! push {
        ($tok:expr, $len:expr) => {{
            out.push(Spanned {
                token: $tok,
                line,
                col: i - line_start + 1,
            });
            i += $len;
            last_end = i;
        }};
    }
    macro_rules! col {
        () => {
            i - line_start + 1
        };
    }
    while i < bytes.len() {
        let c = bytes[i] as char;
        let next = bytes.get(i + 1).map(|&b| b as char);
        match c {
            '\n' => {
                line += 1;
                i += 1;
                line_start = i;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if next == Some('/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => push!(Token::LParen, 1),
            ')' => push!(Token::RParen, 1),
            '[' if next == Some('|') => push!(Token::LQuote, 2),
            '[' => push!(Token::LBracket, 1),
            ']' => push!(Token::RBracket, 1),
            '|' if next == Some(']') => push!(Token::RQuote, 2),
            ',' => push!(Token::Comma, 1),
            '.' => push!(Token::Dot, 1),
            ';' => push!(Token::Semi, 1),
            '!' if next == Some('=') => push!(Token::Ne, 2),
            '!' => push!(Token::Bang, 1),
            '<' if next == Some('-') => push!(Token::ImpliedBy, 2),
            '<' if next == Some('=') => push!(Token::Le, 2),
            '<' if next == Some('<') => push!(Token::LAngles, 2),
            '<' => push!(Token::Lt, 1),
            '>' if next == Some('=') => push!(Token::Ge, 2),
            '>' if next == Some('>') => push!(Token::RAngles, 2),
            '>' => push!(Token::Gt, 1),
            '-' if next == Some('>') => push!(Token::Implies, 2),
            // A `-` directly before the digits is the literal's sign — so
            // `i64::MIN`, whose magnitude alone is out of range, reads
            // back — except after an operand, where it subtracts (`N-1`).
            c if c.is_ascii_digit()
                || (c == '-'
                    && next.is_some_and(|n| n.is_ascii_digit())
                    && !out.last().is_some_and(|t| t.token.ends_operand())) =>
            {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let text = &src[i..j];
                let v: i64 = text.parse().map_err(|_| LexError {
                    message: format!("integer literal '{text}' out of range"),
                    line,
                    col: col!(),
                })?;
                push!(Token::Int(v), j - i);
            }
            '-' => push!(Token::Minus, 1),
            ':' if next == Some('-') => push!(Token::ImpliedBy, 2),
            '=' => push!(Token::Eq, 1),
            '+' => push!(Token::Plus, 1),
            '*' => push!(Token::Star, 1),
            '/' => push!(Token::Slash, 1),
            '%' => push!(Token::Percent, 1),
            '@' => push!(Token::At, 1),
            '_' if next.is_none_or(|n| !is_ident_char(n)) => push!(Token::Underscore, 1),
            '"' => {
                let (s, len) = lex_string(&src[i..], line, col!())?;
                push!(Token::Str(s), len);
            }
            '#' => {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j] as char).is_ascii_hexdigit() {
                    j += 1;
                }
                // A bare `#` is the empty byte string (e.g. the signature
                // field of a plaintext-transfer message).
                let Some(b) = hex::from_hex(&bytes[i + 1..j]) else {
                    return Err(LexError {
                        message: format!("invalid byte literal '{}'", &src[i..j]),
                        line,
                        col: col!(),
                    });
                };
                push!(Token::Bytes(b), j - i);
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let j = ident_end(bytes, i);
                let text = src[i..j].to_string();
                // `_` then an upper-case letter is a variable: it is how an
                // anonymous one (`_G1`) prints.
                let variable = c.is_ascii_uppercase()
                    || (c == '_' && next.is_some_and(|n| n.is_ascii_uppercase()));
                let tok = if variable {
                    Token::UIdent(text)
                } else {
                    Token::Ident(text)
                };
                push!(tok, j - i);
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character '{other}'"),
                    line,
                    col: col!(),
                })
            }
        }
    }
    Ok((out, last_end))
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '\''
}

/// Where the identifier starting at `bytes[start]` ends.
fn ident_end(bytes: &[u8], start: usize) -> usize {
    let mut j = start;
    while j < bytes.len() {
        let cj = bytes[j] as char;
        if is_ident_char(cj) {
            j += 1;
        } else if cj == ':' && bytes.get(j + 1).is_some_and(|&b| is_ident_char(b as char)) {
            // Interior colon: `message:fname`, `rsa:3:c1ebab5d`.
            j += 1;
        } else {
            break;
        }
    }
    j
}

/// Whether `name` can stand for a principal wherever one is written: in
/// a program, in a printed rule and in the envelope of a wire packet. A
/// symbol prints as its bare text, so the name has to be exactly what
/// [`lex`] reads back as one [`Token::Ident`] — a lower-case letter
/// first, then letters, digits, `_`, `'` and interior `:` (`alice`,
/// `n_1'`, `rsa:3:c1eb`) — and not `me`, which every workspace replaces
/// by its own principal. `Alice` would read back as a variable, `bob-2`
/// as a subtraction and `rev oke` as two tokens.
pub fn is_principal_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    matches!(bytes.first(), Some(b'a'..=b'z')) && ident_end(bytes, 0) == bytes.len() && name != "me"
}

/// The exclusive end of the atom starting at `tokens[start]`: a functor
/// token plus an optional balanced parenthesised argument list — what
/// the surface-language translators quote after an infix `says`. `None`
/// when no functor stands at `start` or the list never closes.
pub fn atom_end(tokens: &[Spanned], start: usize) -> Option<usize> {
    match tokens.get(start).map(|s| &s.token) {
        Some(Token::Ident(_) | Token::UIdent(_)) => {}
        _ => return None,
    }
    let mut i = start + 1;
    if tokens.get(i).map(|s| &s.token) == Some(&Token::LParen) {
        let mut depth = 0usize;
        while let Some(spanned) = tokens.get(i) {
            match spanned.token {
                Token::LParen => depth += 1,
                Token::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i + 1);
                    }
                }
                _ => {}
            }
            i += 1;
        }
        return None; // unbalanced
    }
    Some(i)
}

/// Writes `s` as a string literal [`lex`] reads back to the same `s`:
/// `\\ \" \n \t \r` by name, every other control character as
/// `\u{hex}`, everything else — wide characters included — as itself.
pub(crate) fn write_str_literal(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '\\' => out.write_str("\\\\")?,
            '"' => out.write_str("\\\"")?,
            '\n' => out.write_str("\\n")?,
            '\t' => out.write_str("\\t")?,
            '\r' => out.write_str("\\r")?,
            c if c.is_control() => write!(out, "\\u{{{:x}}}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Lexes a double-quoted string starting at `src[0] == '"'`. Returns the
/// unescaped contents and the byte length consumed (including quotes).
/// The escapes are the ones [`write_str_literal`] writes.
fn lex_string(src: &str, line: usize, col: usize) -> Result<(String, usize), LexError> {
    let err = |message: String| LexError { message, line, col };
    let mut out = String::new();
    let mut chars = src.char_indices().skip(1);
    while let Some((at, c)) = chars.next() {
        match c {
            '"' => return Ok((out, at + 1)),
            '\n' => break,
            '\\' => out.push(match chars.next().map(|(_, esc)| esc) {
                None => return Err(err("unterminated escape".into())),
                Some('n') => '\n',
                Some('t') => '\t',
                Some('r') => '\r',
                Some('\\') => '\\',
                Some('"') => '"',
                Some('u') => unicode_escape(&mut chars)
                    .ok_or_else(|| err("invalid escape '\\u': expected {1-6 hex digits}".into()))?,
                Some(other) => return Err(err(format!("unknown escape '\\{other}'"))),
            }),
            c => out.push(c),
        }
    }
    Err(err("unterminated string".into()))
}

/// The character of a `\u{…}` escape, read from just after the `u`.
fn unicode_escape(chars: &mut impl Iterator<Item = (usize, char)>) -> Option<char> {
    if chars.next()?.1 != '{' {
        return None;
    }
    let mut code = 0u32;
    for digits in 0..=6 {
        match chars.next()?.1 {
            '}' if digits > 0 => return char::from_u32(code),
            c => code = code * 16 + c.to_digit(16)?,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn simple_rule() {
        assert_eq!(
            toks("access(P,O,read) <- good(P)."),
            vec![
                Token::Ident("access".into()),
                Token::LParen,
                Token::UIdent("P".into()),
                Token::Comma,
                Token::UIdent("O".into()),
                Token::Comma,
                Token::Ident("read".into()),
                Token::RParen,
                Token::ImpliedBy,
                Token::Ident("good".into()),
                Token::LParen,
                Token::UIdent("P".into()),
                Token::RParen,
                Token::Dot,
            ]
        );
    }

    #[test]
    fn prolog_style_arrow() {
        assert_eq!(toks("p :- q."), toks("p <- q."));
    }

    #[test]
    fn colon_identifiers() {
        assert_eq!(
            toks("message:fname rsa:3:c1ebab5d"),
            vec![
                Token::Ident("message:fname".into()),
                Token::Ident("rsa:3:c1ebab5d".into()),
            ]
        );
    }

    #[test]
    fn quotes_and_brackets() {
        assert_eq!(
            toks("export[U2] [| p(X). |]"),
            vec![
                Token::Ident("export".into()),
                Token::LBracket,
                Token::UIdent("U2".into()),
                Token::RBracket,
                Token::LQuote,
                Token::Ident("p".into()),
                Token::LParen,
                Token::UIdent("X".into()),
                Token::RParen,
                Token::Dot,
                Token::RQuote,
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("-> <- != ! <= < >= > << >> = + - * / %"),
            vec![
                Token::Implies,
                Token::ImpliedBy,
                Token::Ne,
                Token::Bang,
                Token::Le,
                Token::Lt,
                Token::Ge,
                Token::Gt,
                Token::LAngles,
                Token::RAngles,
                Token::Eq,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Percent,
            ]
        );
    }

    #[test]
    fn agg_tokens() {
        assert_eq!(
            toks("agg<<N = count(U)>>"),
            vec![
                Token::Ident("agg".into()),
                Token::LAngles,
                Token::UIdent("N".into()),
                Token::Eq,
                Token::Ident("count".into()),
                Token::LParen,
                Token::UIdent("U".into()),
                Token::RParen,
                Token::RAngles,
            ]
        );
    }

    #[test]
    fn literals() {
        assert_eq!(
            toks("42 \"hi\\n\" #dead _"),
            vec![
                Token::Int(42),
                Token::Str("hi\n".into()),
                Token::Bytes(vec![0xde, 0xad]),
                Token::Underscore,
            ]
        );
    }

    #[test]
    fn underscore_then_uppercase_is_a_variable() {
        // How an anonymous variable prints (`_G1`) must read back as a
        // variable, not as the constant `_G1`.
        assert_eq!(
            toks("_G1 _x _ _1"),
            vec![
                Token::UIdent("_G1".into()),
                Token::Ident("_x".into()),
                Token::Underscore,
                Token::Ident("_1".into()),
            ]
        );
    }

    #[test]
    fn minus_before_digits_signs_the_literal_unless_it_subtracts() {
        assert_eq!(
            toks("-9223372036854775808"),
            vec![Token::Int(i64::MIN)],
            "the one literal whose magnitude alone is out of range"
        );
        assert_eq!(
            toks("p(-5,N-1) - 2"),
            vec![
                Token::Ident("p".into()),
                Token::LParen,
                Token::Int(-5),
                Token::Comma,
                Token::UIdent("N".into()),
                Token::Minus,
                Token::Int(1),
                Token::RParen,
                Token::Minus,
                Token::Int(2),
            ]
        );
        assert!(lex("9223372036854775808").is_err());
        assert!(lex("-9223372036854775809").is_err());
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(toks("p. // comment with symbols <- !\nq."), toks("p. q."));
    }

    #[test]
    fn line_tracking() {
        let spanned = lex("p.\nq.\n\nr.").unwrap();
        let lines: Vec<usize> = spanned.iter().map(|s| s.line).collect();
        assert_eq!(lines, vec![1, 1, 2, 2, 4, 4]);
    }

    #[test]
    fn col_tracking() {
        let spanned = lex("p(X).\n  q(Y).").unwrap();
        let spans: Vec<(usize, usize)> = spanned.iter().map(|s| (s.line, s.col)).collect();
        assert_eq!(
            spans,
            vec![
                (1, 1), // p
                (1, 2), // (
                (1, 3), // X
                (1, 4), // )
                (1, 5), // .
                (2, 3), // q
                (2, 4), // (
                (2, 5), // Y
                (2, 6), // )
                (2, 7), // .
            ]
        );
    }

    #[test]
    fn lex_error_spans() {
        let err = lex("p.\n  $").unwrap_err();
        assert_eq!((err.line, err.col), (2, 3));
        assert!(err.to_string().contains("2:3"));
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("#abc").is_err()); // odd hex length
        assert!(lex("99999999999999999999").is_err());
        assert!(lex("$").is_err());
    }

    #[test]
    fn at_token() {
        assert_eq!(
            toks("reachable(Z,D)@Z"),
            vec![
                Token::Ident("reachable".into()),
                Token::LParen,
                Token::UIdent("Z".into()),
                Token::Comma,
                Token::UIdent("D".into()),
                Token::RParen,
                Token::At,
                Token::UIdent("Z".into()),
            ]
        );
    }

    #[test]
    fn empty_byte_literal() {
        assert_eq!(toks("#"), vec![Token::Bytes(Vec::new())]);
        // `#xyz` is an empty byte string followed by an identifier.
        assert_eq!(
            toks("#xyz"),
            vec![Token::Bytes(Vec::new()), Token::Ident("xyz".into())]
        );
    }

    /// The translators' cases: the atom after `bob says` in Binder's b2
    /// and zero-arity bodies, SeNDlog's `W says reachable(S,D)`, nested
    /// argument lists, and the two refusals.
    #[test]
    fn atom_end_spans_a_functor_and_its_balanced_arguments() {
        let end = |src: &str, start: usize| atom_end(&lex(src).unwrap(), start);
        // access ( P , O , read ) .
        assert_eq!(end("bob says access(P,O,read).", 2), Some(10));
        assert_eq!(end("p :- bob says q.", 4), Some(5));
        assert_eq!(end("W says reachable(S,D), link(S,W)", 2), Some(8));
        assert_eq!(end("f(g(X),(Y)) rest", 0), Some(11));
        assert_eq!(end("p :- bob says q(X.", 4), None, "unbalanced");
        assert_eq!(end("bob says (q)", 2), None, "no functor");
        assert_eq!(end("bob says", 2), None, "nothing there");
    }
}
