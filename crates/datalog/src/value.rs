//! Runtime values stored in relations.

use crate::ast::Rule;
use crate::hex;
use crate::intern::Symbol;
use crate::lexer::write_str_literal;
use std::fmt;
use std::sync::Arc;

/// A ground value: the things that can populate a tuple.
///
/// `Quote` makes rules first-class data, which is how LBTrust communicates
/// policy between principals: `says(U1,U2,R)` carries a rule `R` (facts are
/// rules with an empty body, §4.1 of the paper).
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// An interned symbol (`alice`, `read`, predicate names, …).
    Sym(Symbol),
    /// A 64-bit signed integer (the paper's `int[64]`).
    Int(i64),
    /// A string literal.
    Str(Arc<str>),
    /// Raw bytes (signatures, MACs, ciphertexts, key material).
    Bytes(Arc<[u8]>),
    /// A quoted rule — code as data.
    Quote(Arc<Rule>),
}

impl Value {
    /// Convenience constructor interning a symbol.
    pub fn sym(s: &str) -> Value {
        Value::Sym(Symbol::intern(s))
    }

    /// Convenience constructor for strings.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// Convenience constructor for byte strings.
    pub fn bytes(b: &[u8]) -> Value {
        Value::Bytes(Arc::from(b))
    }

    /// The symbol inside, if this is a `Sym`.
    pub fn as_sym(&self) -> Option<Symbol> {
        match self {
            Value::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The quoted rule inside, if this is a `Quote`.
    pub fn as_quote(&self) -> Option<&Arc<Rule>> {
        match self {
            Value::Quote(r) => Some(r),
            _ => None,
        }
    }

    /// A coarse type tag used in error messages and type constraints.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Sym(_) => "symbol",
            Value::Int(_) => "int",
            Value::Str(_) => "string",
            Value::Bytes(_) => "bytes",
            Value::Quote(_) => "rule",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Sym(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write_str_literal(f, s),
            Value::Bytes(b) => {
                f.write_str("#")?;
                hex::write_hex(f, b)
            }
            Value::Quote(r) => write!(f, "[| {r} |]"),
        }
    }
}

impl fmt::Debug for Value {
    // Route Debug through the canonical Display form so test failures
    // print readable Datalog.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<Symbol> for Value {
    fn from(s: Symbol) -> Self {
        Value::Sym(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::sym(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Value::sym("alice").to_string(), "alice");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(Value::bytes(&[0xde, 0xad]).to_string(), "#dead");
    }

    /// What is printed is what is read back: a string over `says` is
    /// signed, sent, logged and replayed as this text.
    #[test]
    fn a_string_survives_print_and_parse() {
        let tricky = [
            "caf\u{e9}",
            "\u{20ac}5",
            "a\u{1}b",
            "nul\0",
            "tab\t cr\r lf\n",
            "\"quoted\" \\ back",
            "|] ,# ). // [|",
            "\u{7f}\u{85}\u{200b}\u{10ffff}",
            "",
        ];
        for text in tricky {
            let printed = Value::str(text).to_string();
            let fact = crate::parse_rule(&format!("p({printed}).")).unwrap_or_else(|e| {
                panic!("{text:?} printed as {printed}, which does not parse: {e}")
            });
            assert_eq!(
                fact.heads[0].args,
                vec![crate::Term::Val(Value::str(text))],
                "{printed}"
            );
            assert_eq!(fact.to_string(), format!("p({printed})."));
        }
        assert_eq!(Value::str("caf\u{e9}").to_string(), "\"caf\u{e9}\"");
        assert_eq!(Value::str("a\u{1}\0\n").to_string(), r#""a\u{1}\u{0}\n""#);
        // Escapes the printer never writes are still read, or refused —
        // not mangled.
        let read = |src: &str| crate::parse_rule(src).map(|r| r.heads[0].args[0].clone());
        assert_eq!(
            read(r#"p("\u{E9}\u{000041}")."#),
            Ok(crate::Term::Val(Value::str("\u{e9}A")))
        );
        for bad in [
            r#"p("\0")."#,
            r#"p("\u{}")."#,
            r#"p("\u{110000}")."#,
            r#"p("\u{d800}")."#,
            r#"p("\u{1234567}")."#,
            r#"p("\u41")."#,
            r#"p("\u{41")."#,
        ] {
            assert!(read(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn equality_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::sym("a"));
        set.insert(Value::sym("a"));
        set.insert(Value::Int(1));
        set.insert(Value::str("a"));
        assert_eq!(set.len(), 3);
        // A symbol and an equal-looking string are distinct values.
        assert_ne!(Value::sym("a"), Value::str("a"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::sym("x").as_sym(), Some(Symbol::intern("x")));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_sym(), None);
        assert_eq!(Value::sym("x").type_name(), "symbol");
    }
}
