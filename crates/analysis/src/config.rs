//! Lint kinds, severity levels, and the analyzer configuration.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How a diagnostic kind is treated by callers.
///
/// Levels are ordered: `Allow < Warn < Deny`. A load-time preflight
/// (`lbtrust::System`) refuses programs carrying any `Deny`-level
/// diagnostic; `Warn` diagnostics are reported but do not block; `Allow`
/// diagnostics are informational: a kind configured down to `Allow` is
/// still recorded but neither blocks nor is surfaced as a warning.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LintLevel {
    /// Report only; never blocks and is not surfaced as a warning.
    Allow,
    /// Surface to the operator, but load the program anyway.
    Warn,
    /// Refuse to load the program.
    Deny,
}

impl fmt::Display for LintLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintLevel::Allow => "allow",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        })
    }
}

/// The kinds of diagnostic the analyzer can emit, one per lint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DiagKind {
    /// A rule with a positive premise on a predicate that no rule, fact,
    /// or communication channel in the program can ever populate. The
    /// rule cannot fire unless the runtime asserts matching facts
    /// out-of-band (which is why this defaults to `Warn`, not `Deny`).
    DeadRule,
    /// A predicate derived by rules but consumed nowhere: not read by any
    /// body, not shipped to another principal, not referenced by a
    /// constraint, and not a configured root. Its derivation is wasted
    /// work.
    NeverConsumed,
    /// A predicate that is derived and consumed, but whose consumers
    /// never reach anything observable (a grant, an export, a
    /// constraint, or a configured root). The whole derivation chain is
    /// dead weight.
    UnreachablePredicate,
    /// The same predicate used at two or more different arities —
    /// almost always a typo, and silently creates disjoint relations.
    ArityMismatch,
    /// A consumed-but-never-defined predicate whose name is within edit
    /// distance one of a defined predicate — a likely misspelling.
    TypoSuspect,
    /// An authorization-relevant derivation (a path ending in a
    /// grant-shaped head) guarded by an unauthenticated channel or by a
    /// `says` whose sender variable is unconstrained, so *any* principal
    /// can trigger the grant.
    UnsignedAuthority,
    /// A communication head whose destination ranges over a relation,
    /// uncorrelated with the payload, joined with a recursive premise —
    /// the shape that turns one revocation into thousands of messages.
    CommAmplification,
}

impl DiagKind {
    /// Every kind, for iteration and configuration surfaces.
    pub const ALL: [DiagKind; 7] = [
        DiagKind::DeadRule,
        DiagKind::NeverConsumed,
        DiagKind::UnreachablePredicate,
        DiagKind::ArityMismatch,
        DiagKind::TypoSuspect,
        DiagKind::UnsignedAuthority,
        DiagKind::CommAmplification,
    ];

    /// The kebab-case name used in rendered diagnostics.
    pub fn slug(&self) -> &'static str {
        match self {
            DiagKind::DeadRule => "dead-rule",
            DiagKind::NeverConsumed => "never-consumed",
            DiagKind::UnreachablePredicate => "unreachable-predicate",
            DiagKind::ArityMismatch => "arity-mismatch",
            DiagKind::TypoSuspect => "typo-suspect",
            DiagKind::UnsignedAuthority => "unsigned-authority",
            DiagKind::CommAmplification => "comm-amplification",
        }
    }

    /// The built-in severity of this kind, used when the configuration
    /// does not override it.
    pub fn default_level(&self) -> LintLevel {
        match self {
            DiagKind::ArityMismatch | DiagKind::UnsignedAuthority => LintLevel::Deny,
            _ => LintLevel::Warn,
        }
    }
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Analyzer configuration: per-kind lint levels plus the predicate
/// vocabulary the trust passes key on.
///
/// The defaults match the in-tree runtime: `says` is the authenticated
/// (RSA-signed) channel, `gsays` the unauthenticated gossip channel, the
/// grant set covers the authorization predicates of `lbtrust::authz` and
/// the D1LP delegation layer, and the builtins are the path helpers
/// registered by `lbtrust_sendlog::register_path_builtins`.
#[derive(Clone, Debug)]
pub struct AnalyzerConfig {
    levels: BTreeMap<DiagKind, LintLevel>,
    /// Predicates whose derivation grants authority (pass 2 walks
    /// backward from heads on these).
    pub grant_preds: BTreeSet<String>,
    /// Authenticated communication predicates (signature-checked on
    /// receipt).
    pub auth_comm: BTreeSet<String>,
    /// Unauthenticated communication predicates (no signature on the
    /// wire; gossip-style channels).
    pub unauth_comm: BTreeSet<String>,
    /// Runtime-registered builtin predicates: never typo suspects, never
    /// guards, assumed satisfiable.
    pub builtins: BTreeSet<String>,
    /// Predicates that are observable sinks in their own right (the
    /// runtime reads them), beyond grants, exports, and constraints.
    pub roots: BTreeSet<String>,
}

fn string_set(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|s| s.to_string()).collect()
}

impl Default for AnalyzerConfig {
    fn default() -> AnalyzerConfig {
        AnalyzerConfig {
            levels: BTreeMap::new(),
            grant_preds: string_set(&[
                "access",
                "grant",
                "permission",
                "auth",
                "mayRead",
                "mayWrite",
                "delegates",
            ]),
            auth_comm: string_set(&["says"]),
            unauth_comm: string_set(&["gsays"]),
            builtins: string_set(&["mkpath", "extendpath", "offpath"]),
            roots: string_set(&["active", "fail"]),
        }
    }
}

impl AnalyzerConfig {
    /// The default configuration.
    pub fn new() -> AnalyzerConfig {
        AnalyzerConfig::default()
    }

    /// A configuration with every lint raised to [`LintLevel::Deny`].
    pub fn strict() -> AnalyzerConfig {
        let mut config = AnalyzerConfig::default();
        for kind in DiagKind::ALL {
            config.set_level(kind, LintLevel::Deny);
        }
        config
    }

    /// The effective level for `kind` (configured override, else the
    /// kind's default).
    pub fn level(&self, kind: DiagKind) -> LintLevel {
        self.levels
            .get(&kind)
            .copied()
            .unwrap_or_else(|| kind.default_level())
    }

    /// Overrides the level for `kind`.
    pub fn set_level(&mut self, kind: DiagKind, level: LintLevel) {
        self.levels.insert(kind, level);
    }

    /// Builder-style [`AnalyzerConfig::set_level`].
    pub fn with_level(mut self, kind: DiagKind, level: LintLevel) -> AnalyzerConfig {
        self.set_level(kind, level);
        self
    }

    /// Whether `name` is a communication predicate (either channel).
    pub fn is_comm(&self, name: &str) -> bool {
        self.auth_comm.contains(name) || self.unauth_comm.contains(name)
    }

    /// Whether `name` is an authenticated communication predicate.
    pub fn is_authenticated(&self, name: &str) -> bool {
        self.auth_comm.contains(name)
    }

    /// Whether `name` is a configured runtime builtin.
    pub fn is_builtin(&self, name: &str) -> bool {
        self.builtins.contains(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_overrides() {
        let config = AnalyzerConfig::default();
        assert_eq!(config.level(DiagKind::UnsignedAuthority), LintLevel::Deny);
        assert_eq!(config.level(DiagKind::DeadRule), LintLevel::Warn);
        let config = config.with_level(DiagKind::DeadRule, LintLevel::Deny);
        assert_eq!(config.level(DiagKind::DeadRule), LintLevel::Deny);
    }

    #[test]
    fn strict_raises_lints_not_reports() {
        let strict = AnalyzerConfig::strict();
        assert_eq!(strict.level(DiagKind::DeadRule), LintLevel::Deny);
        assert_eq!(strict.level(DiagKind::CommAmplification), LintLevel::Deny);
    }

    #[test]
    fn vocabulary_defaults() {
        let config = AnalyzerConfig::default();
        assert!(config.is_comm("says"));
        assert!(config.is_comm("gsays"));
        assert!(config.is_authenticated("says"));
        assert!(!config.is_authenticated("gsays"));
        assert!(config.is_builtin("offpath"));
        assert!(config.grant_preds.contains("mayRead"));
    }

    #[test]
    fn levels_are_ordered() {
        assert!(LintLevel::Allow < LintLevel::Warn);
        assert!(LintLevel::Warn < LintLevel::Deny);
        assert_eq!(LintLevel::Deny.to_string(), "deny");
    }
}
