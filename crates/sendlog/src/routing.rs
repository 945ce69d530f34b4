//! Secure declarative networking protocols (§5.2 of the paper):
//! authenticated reachability and an authenticated path-vector protocol.

use crate::translate::{sendlog_to_lbtrust, SendlogError};
use lbtrust::principal::Principal;
use lbtrust::system::{SysError, System, SystemStats};
use lbtrust::AuthScheme;
use lbtrust_datalog::builtins::BuiltinError;
use lbtrust_datalog::{Symbol, Value};
use std::fmt;

/// Errors from the routing layer.
#[derive(Debug)]
pub enum RoutingError {
    /// Translation failed.
    Translate(SendlogError),
    /// The underlying system failed.
    System(SysError),
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::Translate(e) => write!(f, "{e}"),
            RoutingError::System(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RoutingError {}

impl From<SendlogError> for RoutingError {
    fn from(e: SendlogError) -> Self {
        RoutingError::Translate(e)
    }
}

impl From<SysError> for RoutingError {
    fn from(e: SysError) -> Self {
        RoutingError::System(e)
    }
}

/// The reachability protocol (§5.2, rules s1–s2).
///
/// Interpretation note: the paper's `s2` triggers on `W says
/// reachable(S,D)` — an *incoming* advertisement — so with only s1/s2 no
/// node ever sends the first message. We use the working variant whose
/// trigger is local reachability; combined with the paper's `says1`
/// auto-activation at the receiver (installed by [`SendlogNetwork`]),
/// the exchanged messages and derived tuples are exactly those the
/// paper's distributed transitive closure describes.
pub const REACHABILITY: &str = "\
    At S:\n\
    s1: reachable(S,D) :- neighbor(S,D).\n\
    s2: reachable(Z,D)@Z :- neighbor(S,Z), reachable(S,D), Z != D.\n";

/// An authenticated path-vector protocol ("one can easily construct more
/// complex secure networking protocols, such as an authenticated
/// path-vector protocol", §5.2). Paths are carried as `>`-separated
/// strings built by the `mkpath`/`extendpath` builtins; `offpath`
/// provides loop avoidance.
pub const PATH_VECTOR: &str = "\
    At S:\n\
    pv1: path(S,D,P) :- neighbor(S,D), mkpath(S,D,P).\n\
    pv2: path(S,D,P2) :- Z says path(Z,D,P), neighbor(S,Z), offpath(P,S), extendpath(S,P,P2).\n\
    pv3: path(S,D,P)@Z2 :- neighbor(S,Z2), path(S,D,P), offpath(P,Z2).\n";

/// A network of principals running a SeNDlog program.
pub struct SendlogNetwork {
    system: System,
    nodes: Vec<Principal>,
}

impl SendlogNetwork {
    /// Builds a network with the given node names (one principal per
    /// physical node) and installs `program_src` at every node.
    pub fn new(
        node_names: &[&str],
        program_src: &str,
        scheme: AuthScheme,
        rsa_bits: usize,
    ) -> Result<SendlogNetwork, RoutingError> {
        let translated = sendlog_to_lbtrust(program_src)?;
        let mut system = System::new().with_rsa_bits(rsa_bits);
        let mut nodes = Vec::with_capacity(node_names.len());
        for name in node_names {
            let p = system.add_principal(name, name)?;
            nodes.push(p);
        }
        // Shared secrets for symmetric schemes.
        if scheme == AuthScheme::HmacSha1 {
            for i in 0..nodes.len() {
                for j in i + 1..nodes.len() {
                    system.establish_shared_secret(nodes[i], nodes[j])?;
                }
            }
        }
        for &p in &nodes {
            system.set_auth_scheme(p, scheme)?;
            let ws = system.workspace_mut(p)?;
            register_path_builtins(ws.builtins_mut());
            // SeNDlog import semantics: authenticated tuples said to this
            // node become local facts (the paper's says1).
            ws.load("says1", lbtrust::says::AUTO_ACTIVATE)
                .map_err(SysError::Workspace)?;
            ws.load("sendlog", &translated.lbtrust_src)
                .map_err(SysError::Workspace)?;
        }
        Ok(SendlogNetwork { system, nodes })
    }

    /// Adds a (directed) link: `neighbor(from, to)` at `from`.
    pub fn add_link(&mut self, from: &str, to: &str) -> Result<(), RoutingError> {
        let p = Symbol::intern(from);
        let ws = self.system.workspace_mut(p)?;
        ws.assert_fact(
            Symbol::intern("neighbor"),
            vec![Value::Sym(p), Value::sym(to)],
        );
        Ok(())
    }

    /// Adds an undirected link.
    pub fn add_bidi_link(&mut self, a: &str, b: &str) -> Result<(), RoutingError> {
        self.add_link(a, b)?;
        self.add_link(b, a)
    }

    /// Runs the protocol to quiescence.
    pub fn run(&mut self, max_steps: usize) -> Result<SystemStats, RoutingError> {
        Ok(self.system.run_to_quiescence(max_steps)?)
    }

    /// The `pred` tuples at `node`, printed.
    pub fn tuples_at(&self, node: &str, pred: &str) -> Result<Vec<String>, RoutingError> {
        let ws = self.system.workspace(Symbol::intern(node))?;
        let mut out: Vec<String> = ws
            .tuples(Symbol::intern(pred))
            .into_iter()
            .map(|t| {
                t.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        out.sort();
        Ok(out)
    }

    /// Whether `node` can reach `dest` (per its local `reachable` table).
    pub fn reaches(&self, node: &str, dest: &str) -> Result<bool, RoutingError> {
        let ws = self.system.workspace(Symbol::intern(node))?;
        Ok(ws.holds(
            Symbol::intern("reachable"),
            &[Value::sym(node), Value::sym(dest)],
        ))
    }

    /// The registered principals.
    pub fn nodes(&self) -> &[Principal] {
        &self.nodes
    }

    /// Escape hatch to the underlying system.
    pub fn system(&self) -> &System {
        &self.system
    }
}

/// Registers the path-string builtins used by [`PATH_VECTOR`].
pub fn register_path_builtins(builtins: &mut lbtrust_datalog::Builtins) {
    // mkpath(S, D, P): P = "S>D".
    builtins.register("mkpath", 3, |args| {
        let name = Symbol::intern("mkpath");
        let s = lbtrust_datalog::builtins::require_bound(name, args, 0)?;
        let d = lbtrust_datalog::builtins::require_bound(name, args, 1)?;
        let path = Value::str(&format!("{s}>{d}"));
        Ok(vec![vec![s.clone(), d.clone(), path]])
    });
    // extendpath(S, P, P2): P2 = "S>" + P.
    builtins.register("extendpath", 3, |args| {
        let name = Symbol::intern("extendpath");
        let s = lbtrust_datalog::builtins::require_bound(name, args, 0)?;
        let p = lbtrust_datalog::builtins::require_bound(name, args, 1)?;
        let Value::Str(path) = p else {
            return Err(BuiltinError::TypeError {
                name,
                expected: "a path string".into(),
            });
        };
        let extended = Value::str(&format!("{s}>{path}"));
        Ok(vec![vec![s.clone(), p.clone(), extended]])
    });
    // offpath(P, X): succeeds iff X is not a hop of P.
    builtins.register("offpath", 2, |args| {
        let name = Symbol::intern("offpath");
        let p = lbtrust_datalog::builtins::require_bound(name, args, 0)?;
        let x = lbtrust_datalog::builtins::require_bound(name, args, 1)?;
        let Value::Str(path) = p else {
            return Err(BuiltinError::TypeError {
                name,
                expected: "a path string".into(),
            });
        };
        let hop = x.to_string();
        if path.split('>').any(|h| h == hop) {
            Ok(vec![])
        } else {
            Ok(vec![vec![p.clone(), x.clone()]])
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_on_a_line() {
        // a - b - c (bidirectional): everyone reaches everyone.
        let mut net =
            SendlogNetwork::new(&["a", "b", "c"], REACHABILITY, AuthScheme::Rsa, 512).unwrap();
        net.add_bidi_link("a", "b").unwrap();
        net.add_bidi_link("b", "c").unwrap();
        net.run(32).unwrap();
        for (src, dst) in [("a", "b"), ("a", "c"), ("c", "a"), ("b", "c")] {
            assert!(net.reaches(src, dst).unwrap(), "{src} -> {dst}");
        }
    }

    #[test]
    fn reachability_respects_partitions() {
        // Two disconnected components: {a,b} and {c,d}.
        let mut net = SendlogNetwork::new(
            &["a", "b", "c", "d"],
            REACHABILITY,
            AuthScheme::Plaintext,
            512,
        )
        .unwrap();
        net.add_bidi_link("a", "b").unwrap();
        net.add_bidi_link("c", "d").unwrap();
        net.run(32).unwrap();
        assert!(net.reaches("a", "b").unwrap());
        assert!(net.reaches("c", "d").unwrap());
        assert!(!net.reaches("a", "c").unwrap());
        assert!(!net.reaches("d", "b").unwrap());
    }

    #[test]
    fn path_vector_finds_paths() {
        let mut net =
            SendlogNetwork::new(&["a", "b", "c"], PATH_VECTOR, AuthScheme::HmacSha1, 512).unwrap();
        net.add_bidi_link("a", "b").unwrap();
        net.add_bidi_link("b", "c").unwrap();
        net.run(64).unwrap();
        let paths = net.tuples_at("a", "path").unwrap();
        // a knows a path to c through b.
        assert!(
            paths.iter().any(|p| p.contains("a>b>c")),
            "paths at a: {paths:?}"
        );
    }
}
