//! Global string interning.
//!
//! Predicate names, constants, and variable names are interned into
//! [`Symbol`]s so that tuples compare and hash as machine words. The
//! interner is a process-wide table: principals in the simulated
//! distributed system exchange rules as values, and a shared symbol space
//! keeps that exchange cheap without a per-message rename step.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string. Two `Symbol`s are equal iff their strings are.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<&'static str, Symbol>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Symbol {
    /// Interns `s`, returning its symbol.
    pub fn intern(s: &str) -> Symbol {
        {
            let guard = interner().read().expect("interner poisoned");
            if let Some(&sym) = guard.map.get(s) {
                return sym;
            }
        }
        let mut guard = interner().write().expect("interner poisoned");
        if let Some(&sym) = guard.map.get(s) {
            return sym;
        }
        // Interned strings live for the process lifetime; leaking gives us
        // `&'static str` keys without unsafe code.
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let sym = Symbol(guard.strings.len() as u32);
        guard.strings.push(leaked);
        guard.map.insert(leaked, sym);
        sym
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        interner().read().expect("interner poisoned").strings[self.0 as usize]
    }

    /// The raw index (stable for the life of the process).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Names the runtime asks for on every step, evaluation, certificate or
/// cache miss: interned when first wanted, then read without the
/// interner's lock.
#[derive(Clone, Copy, Debug)]
pub struct Names {
    /// `me`, the placeholder a workspace replaces by its principal.
    pub me: Symbol,
    /// `says(U1,U2,R)`.
    pub says: Symbol,
    /// `export[U2](U1,R,S)`.
    pub export: Symbol,
    /// `certified(U1,U2,R,D)`: `U1` certified `R` to `U2` in the
    /// certificate whose content address is `D`.
    pub certified: Symbol,
    /// `loc(P,N)`, a principal's placement.
    pub loc: Symbol,
    /// `fail()`, whose derivation fails an evaluation.
    pub fail: Symbol,
}

/// The process-wide [`Names`].
pub fn names() -> &'static Names {
    static NAMES: OnceLock<Names> = OnceLock::new();
    NAMES.get_or_init(|| Names {
        me: Symbol::intern("me"),
        says: Symbol::intern("says"),
        export: Symbol::intern("export"),
        certified: Symbol::intern("certified"),
        loc: Symbol::intern("loc"),
        fail: Symbol::intern("fail"),
    })
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("access");
        let b = Symbol::intern("access");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "access");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("alice"), Symbol::intern("bob"));
    }

    #[test]
    fn display_matches_string() {
        let s = Symbol::intern("reachable");
        assert_eq!(s.to_string(), "reachable");
        assert_eq!(format!("{s:?}"), "\"reachable\"");
    }

    #[test]
    fn concurrent_interning() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|i| Symbol::intern(&format!("sym_{}", (t * 100 + i) % 50)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same string interned on different threads yields the same symbol.
        for row in &all {
            for (i, sym) in row.iter().enumerate() {
                assert_eq!(sym.as_str(), format!("sym_{}", i % 50));
            }
        }
    }
}
