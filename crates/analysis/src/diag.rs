//! Diagnostics and the analysis result type.

use crate::config::{DiagKind, LintLevel};
use lbtrust_datalog::Span;
use std::fmt;

/// One finding, pinned to a source position where the program was parsed
/// with spans.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// What kind of lint fired.
    pub kind: DiagKind,
    /// The effective severity under the configuration that produced it.
    pub level: LintLevel,
    /// Source position of the offending statement (`Span::UNKNOWN` for
    /// hand-built programs).
    pub span: Span,
    /// The subject predicate, where the finding is about one.
    pub pred: Option<String>,
    /// The offending rule, printed, where the finding is about one.
    pub rule: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.level, self.kind, self.message)?;
        if self.span.is_known() {
            write!(f, " at line {}", self.span)?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

/// The result of [`crate::analyze`]: every diagnostic from the three pass
/// families.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// All findings, in pass order, each carrying its effective level.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// Diagnostics at [`LintLevel::Deny`].
    pub fn denials(&self) -> impl Iterator<Item = &Diagnostic> {
        self.at_level(LintLevel::Deny)
    }

    /// Diagnostics at [`LintLevel::Warn`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.at_level(LintLevel::Warn)
    }

    /// Diagnostics at exactly `level`.
    pub fn at_level(&self, level: LintLevel) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.level == level)
    }

    /// Whether any diagnostic is at [`LintLevel::Deny`] — the load-time
    /// refusal condition.
    pub fn has_denials(&self) -> bool {
        self.denials().next().is_some()
    }

    /// The most severe level present, if any diagnostic fired at all.
    pub fn max_level(&self) -> Option<LintLevel> {
        self.diagnostics.iter().map(|d| d.level).max()
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(kind: DiagKind, level: LintLevel) -> Diagnostic {
        Diagnostic {
            kind,
            level,
            span: Span::new(3, 5),
            pred: Some("p".into()),
            rule: None,
            message: "something is off".into(),
        }
    }

    #[test]
    fn display_carries_level_kind_and_span() {
        let d = diag(DiagKind::DeadRule, LintLevel::Warn);
        assert_eq!(
            d.to_string(),
            "warn[dead-rule]: something is off at line 3:5"
        );
        let unknown = Diagnostic {
            span: Span::UNKNOWN,
            ..d
        };
        assert_eq!(unknown.to_string(), "warn[dead-rule]: something is off");
    }

    #[test]
    fn analysis_level_queries() {
        let a = Analysis {
            diagnostics: vec![
                diag(DiagKind::DeadRule, LintLevel::Warn),
                diag(DiagKind::UnsignedAuthority, LintLevel::Deny),
                diag(DiagKind::TypoSuspect, LintLevel::Allow),
            ],
        };
        assert!(a.has_denials());
        assert_eq!(a.denials().count(), 1);
        assert_eq!(a.warnings().count(), 1);
        assert_eq!(a.max_level(), Some(LintLevel::Deny));
        assert!(!Analysis::default().has_denials());
        assert_eq!(Analysis::default().max_level(), None);
    }

    #[test]
    fn diagnostics_are_std_errors() {
        let d = diag(DiagKind::ArityMismatch, LintLevel::Deny);
        let e: &dyn std::error::Error = &d;
        assert!(e.source().is_none());
    }
}
