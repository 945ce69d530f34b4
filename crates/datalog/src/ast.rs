//! Abstract syntax for the LBTrust Datalog dialect.
//!
//! One [`Rule`] type serves three roles, mirroring the paper's quoted code
//! terms (§3.3):
//!
//! 1. **Concrete rule** — no sequence variables, no functor variables;
//!    installed into a workspace and evaluated.
//! 2. **Pattern** — appears as a quote term in a rule *body* (or the left
//!    side of a meta-constraint); its variables are meta-variables that
//!    bind when matched against a concrete quoted rule, `P(T*)` functor
//!    and sequence variables included.
//! 3. **Template** — appears as a quote term in a rule *head*; bound
//!    meta-variables are substituted ("unquoted in-place"), unbound ones
//!    remain as object-level variables of the generated code.

use crate::intern::Symbol;
use crate::lexer::Span;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Reference to a predicate: a concrete name, or a functor meta-variable
/// (only meaningful inside quoted code).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PredRef {
    /// A concrete predicate name.
    Name(Symbol),
    /// A functor meta-variable, as in `P(T*)`.
    Var(Symbol),
}

impl PredRef {
    /// The concrete name, if any.
    pub fn name(&self) -> Option<Symbol> {
        match self {
            PredRef::Name(s) => Some(*s),
            PredRef::Var(_) => None,
        }
    }
}

impl fmt::Display for PredRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredRef::Name(s) | PredRef::Var(s) => write!(f, "{s}"),
        }
    }
}

/// A term: an argument position in an atom.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable (`X`). Inside quoted code this doubles as a
    /// meta-variable.
    Var(Symbol),
    /// A ground value.
    Val(Value),
    /// A sequence meta-variable (`T*`), standing for zero or more terms.
    /// Only valid inside quoted code, as the final argument.
    SeqVar(Symbol),
    /// A quoted rule used as a pattern or template.
    Quote(Arc<Rule>),
}

impl Term {
    /// Convenience constructor for a variable.
    pub fn var(name: &str) -> Term {
        Term::Var(Symbol::intern(name))
    }

    /// Convenience constructor for a symbol constant.
    pub fn sym(name: &str) -> Term {
        Term::Val(Value::sym(name))
    }

    /// Convenience constructor for an integer constant.
    pub fn int(v: i64) -> Term {
        Term::Val(Value::Int(v))
    }

    /// The ground value, if this term is one.
    pub fn as_val(&self) -> Option<&Value> {
        match self {
            Term::Val(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the term contains no variables (sequence vars and quotes
    /// with variables count as non-ground; quotes are ground as *data*
    /// only via [`Value::Quote`]).
    pub fn is_ground(&self) -> bool {
        matches!(self, Term::Val(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Val(v) => write!(f, "{v}"),
            Term::SeqVar(v) => write!(f, "{v}*"),
            Term::Quote(r) => write!(f, "[| {r} |]"),
        }
    }
}

/// An atom: a predicate applied to terms, with optional partition-key
/// arguments (`export[U2](me,R,S)` has key `[U2]`, §3.4 currying).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// The predicate (or functor meta-variable).
    pub pred: PredRef,
    /// Partition-key arguments (the `[..]` part), usually empty.
    pub key_args: Vec<Term>,
    /// Ordinary arguments.
    pub args: Vec<Term>,
}

impl Atom {
    /// Builds an un-partitioned atom on a named predicate.
    pub fn new(pred: &str, args: Vec<Term>) -> Atom {
        Atom {
            pred: PredRef::Name(Symbol::intern(pred)),
            key_args: Vec::new(),
            args,
        }
    }

    /// Builds a partitioned atom `pred[key_args](args)`.
    pub fn keyed(pred: &str, key_args: Vec<Term>, args: Vec<Term>) -> Atom {
        Atom {
            pred: PredRef::Name(Symbol::intern(pred)),
            key_args,
            args,
        }
    }

    /// All argument terms, key arguments first — the storage layout of the
    /// underlying un-curried relation.
    pub fn all_args(&self) -> impl Iterator<Item = &Term> + Clone {
        self.key_args.iter().chain(self.args.iter())
    }

    /// Total arity (keys + ordinary arguments).
    pub fn arity(&self) -> usize {
        self.key_args.len() + self.args.len()
    }

    /// Whether every argument is a ground value.
    pub fn is_ground(&self) -> bool {
        self.all_args().all(Term::is_ground)
    }

    /// Collects the distinct variables (not sequence vars) in order of
    /// first occurrence into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        for t in self.all_args() {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pred)?;
        // A bare meta-variable standing for a whole atom prints without
        // parentheses, exactly as it parses.
        if matches!(self.pred, PredRef::Var(_)) && self.key_args.is_empty() && self.args.is_empty()
        {
            return Ok(());
        }
        if !self.key_args.is_empty() {
            write!(f, "[")?;
            for (i, t) in self.key_args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, "]")?;
        }
        if !self.args.is_empty() || self.key_args.is_empty() {
            write!(f, "(")?;
            for (i, t) in self.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Comparison operators usable in built-in body items.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `=` — unifying equality (binds an unbound side when possible).
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
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// Arithmetic operators in built-in expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division)
    Div,
    /// `%`
    Mod,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Mod => "%",
        })
    }
}

/// An arithmetic/term expression inside a built-in.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A bare term.
    Term(Term),
    /// A binary arithmetic operation over integers.
    BinOp(ArithOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience: a variable expression.
    pub fn var(name: &str) -> Expr {
        Expr::Term(Term::var(name))
    }

    /// Collects the distinct variables in `self` into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            Expr::Term(Term::Var(v)) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Expr::Term(_) => {}
            Expr::BinOp(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Term(t) => write!(f, "{t}"),
            Expr::BinOp(op, l, r) => write!(f, "({l} {op} {r})"),
        }
    }
}

/// One item in a rule body.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum BodyItem {
    /// A possibly negated atom.
    Lit {
        /// Whether the atom is negated (`!`).
        negated: bool,
        /// The atom.
        atom: Atom,
    },
    /// A built-in comparison / unification, e.g. `N >= 3` or `M = N - 1`.
    Cmp {
        /// The operator.
        op: CmpOp,
        /// Left-hand expression.
        lhs: Expr,
        /// Right-hand expression.
        rhs: Expr,
    },
    /// A body-rest meta-variable (`A*`): zero or more further literals.
    /// Only valid inside quoted code, as the final body item.
    Rest(Symbol),
}

impl BodyItem {
    /// Convenience: a positive literal.
    pub fn pos(atom: Atom) -> BodyItem {
        BodyItem::Lit {
            negated: false,
            atom,
        }
    }

    /// Convenience: a negated literal.
    pub fn neg(atom: Atom) -> BodyItem {
        BodyItem::Lit {
            negated: true,
            atom,
        }
    }

    /// The atom, if this is a (possibly negated) literal.
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            BodyItem::Lit { atom, .. } => Some(atom),
            _ => None,
        }
    }

    /// Collects distinct variables in order of first occurrence.
    pub fn collect_vars(&self, out: &mut Vec<Symbol>) {
        match self {
            BodyItem::Lit { atom, .. } => atom.collect_vars(out),
            BodyItem::Cmp { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
            BodyItem::Rest(_) => {}
        }
    }
}

impl fmt::Display for BodyItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyItem::Lit { negated, atom } => {
                if *negated {
                    write!(f, "!")?;
                }
                write!(f, "{atom}")
            }
            BodyItem::Cmp { op, lhs, rhs } => write!(f, "{lhs} {op} {rhs}"),
            BodyItem::Rest(v) => write!(f, "{v}*"),
        }
    }
}

/// Aggregation functions (the paper uses `count` for unweighted thresholds
/// and `total` for weighted ones, §4.2.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AggFunc {
    /// Number of distinct bindings of the aggregated variable.
    Count,
    /// Sum of the aggregated variable (integers).
    Total,
    /// Minimum of the aggregated variable.
    Min,
    /// Maximum of the aggregated variable.
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "count",
            AggFunc::Total => "total",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        })
    }
}

/// An aggregation specification: `agg<<N = count(U)>>`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AggSpec {
    /// The variable receiving the aggregate result (`N`).
    pub result: Symbol,
    /// The aggregation function.
    pub func: AggFunc,
    /// The aggregated variable (`U`).
    pub over: Symbol,
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agg<<{} = {}({})>>", self.result, self.func, self.over)
    }
}

/// A rule: one or more head atoms implied by a body.
///
/// A *fact* is a rule with a ground head and an empty body. Multi-atom
/// heads (used by the paper's file-system demo rule `dfs2`) assert every
/// head atom for each satisfying binding.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Rule {
    /// Head atoms (usually exactly one).
    pub heads: Vec<Atom>,
    /// Body items; empty for facts.
    pub body: Vec<BodyItem>,
    /// Optional aggregation wrapping the body.
    pub agg: Option<AggSpec>,
}

impl Rule {
    /// Builds a single-head rule.
    pub fn new(head: Atom, body: Vec<BodyItem>) -> Rule {
        Rule {
            heads: vec![head],
            body,
            agg: None,
        }
    }

    /// Builds a fact (ground head, empty body).
    pub fn fact(head: Atom) -> Rule {
        Rule::new(head, Vec::new())
    }

    /// The single head, panicking if the rule has several (most call
    /// sites are post-normalization where this is an invariant).
    pub fn head(&self) -> &Atom {
        assert_eq!(self.heads.len(), 1, "rule has multiple heads: {self}");
        &self.heads[0]
    }

    /// Whether this rule is a fact.
    pub fn is_fact(&self) -> bool {
        self.body.is_empty()
            && self.agg.is_none()
            && self.heads.len() == 1
            && self.heads[0].is_ground()
    }

    /// Whether the rule contains meta-constructs (sequence variables,
    /// body-rest variables, or functor variables) anywhere outside a
    /// nested quote — i.e. whether it is a pattern rather than a concrete
    /// rule.
    pub fn is_pattern(&self) -> bool {
        fn atom_is_pat(a: &Atom) -> bool {
            matches!(a.pred, PredRef::Var(_)) || a.all_args().any(|t| matches!(t, Term::SeqVar(_)))
        }
        self.heads.iter().any(atom_is_pat)
            || self.body.iter().any(|item| match item {
                BodyItem::Lit { atom, .. } => atom_is_pat(atom),
                BodyItem::Rest(_) => true,
                BodyItem::Cmp { .. } => false,
            })
    }

    /// Whether the rule aggregates or negates a body literal, so that
    /// adding facts can retract its conclusions (incremental addition
    /// and DRed are unsound over it).
    pub fn is_non_monotonic(&self) -> bool {
        self.agg.is_some()
            || self
                .body
                .iter()
                .any(|i| matches!(i, BodyItem::Lit { negated: true, .. }))
    }

    /// Content-addressed identifier: a stable 64-bit FNV-1a hash of the
    /// canonical printed form. Used to deduplicate generated rules and as
    /// the `rule(R)` entity in the meta-model.
    pub fn content_id(&self) -> u64 {
        let text = self.to_string();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in text.bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Collects the distinct variables of the rule (head first, then
    /// body) in order of first occurrence.
    pub fn collect_vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for h in &self.heads {
            h.collect_vars(&mut out);
        }
        for item in &self.body {
            item.collect_vars(&mut out);
        }
        out
    }

    /// Replaces every occurrence of the symbol constant `from` with `to`,
    /// including inside quoted code (terms and constants alike). This is
    /// how the `me` keyword is resolved to the local principal when a
    /// rule is installed into a workspace (§4.1 of the paper).
    pub fn substitute_sym(&self, from: Symbol, to: Symbol) -> Rule {
        Rule {
            heads: self
                .heads
                .iter()
                .map(|a| a.substitute_sym(from, to))
                .collect(),
            body: self
                .body
                .iter()
                .map(|item| match item {
                    BodyItem::Lit { negated, atom } => BodyItem::Lit {
                        negated: *negated,
                        atom: atom.substitute_sym(from, to),
                    },
                    BodyItem::Cmp { op, lhs, rhs } => BodyItem::Cmp {
                        op: *op,
                        lhs: expr_substitute_sym(lhs, from, to),
                        rhs: expr_substitute_sym(rhs, from, to),
                    },
                    BodyItem::Rest(v) => BodyItem::Rest(*v),
                })
                .collect(),
            agg: self.agg.clone(),
        }
    }
}

impl Atom {
    /// See [`Rule::substitute_sym`].
    pub fn substitute_sym(&self, from: Symbol, to: Symbol) -> Atom {
        Atom {
            pred: self.pred,
            key_args: self
                .key_args
                .iter()
                .map(|t| term_substitute_sym(t, from, to))
                .collect(),
            args: self
                .args
                .iter()
                .map(|t| term_substitute_sym(t, from, to))
                .collect(),
        }
    }
}

fn term_substitute_sym(term: &Term, from: Symbol, to: Symbol) -> Term {
    match term {
        Term::Val(v) => Term::Val(value_substitute_sym(v, from, to)),
        Term::Quote(r) => Term::Quote(Arc::new(r.substitute_sym(from, to))),
        other => other.clone(),
    }
}

fn value_substitute_sym(value: &Value, from: Symbol, to: Symbol) -> Value {
    match value {
        Value::Sym(s) if *s == from => Value::Sym(to),
        Value::Quote(r) => Value::Quote(Arc::new(r.substitute_sym(from, to))),
        other => other.clone(),
    }
}

fn expr_substitute_sym(expr: &Expr, from: Symbol, to: Symbol) -> Expr {
    match expr {
        Expr::Term(t) => Expr::Term(term_substitute_sym(t, from, to)),
        Expr::BinOp(op, l, r) => Expr::BinOp(
            *op,
            Box::new(expr_substitute_sym(l, from, to)),
            Box::new(expr_substitute_sym(r, from, to)),
        ),
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, h) in self.heads.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{h}")?;
        }
        if self.body.is_empty() && self.agg.is_none() {
            return write!(f, ".");
        }
        write!(f, " <- ")?;
        if let Some(agg) = &self.agg {
            write!(f, "{agg} ")?;
        }
        for (i, item) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, ".")
    }
}

/// A body formula with arbitrary nesting of conjunction, disjunction and
/// negation — the surface form of constraints and complex rule bodies,
/// normalized to DNF before evaluation (§2.1 of the paper).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Formula {
    /// A single body item.
    Item(BodyItem),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
}

impl Formula {
    /// `true` — the empty conjunction.
    pub fn truth() -> Formula {
        Formula::And(Vec::new())
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Item(i) => write!(f, "{i}"),
            Formula::And(fs) => {
                write!(f, "(")?;
                for (i, sub) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{sub}")?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                write!(f, "(")?;
                for (i, sub) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{sub}")?;
                }
                write!(f, ")")
            }
            Formula::Not(sub) => write!(f, "!{sub}"),
        }
    }
}

/// A schema constraint `F1 -> F2.` — logically `fail() <- F1, !(F2).`
/// (§3.2). An empty `requires` side (`p(X) ->.`) is a pure declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Constraint {
    /// The premise (left of `->`), a conjunction of body items.
    pub body: Vec<BodyItem>,
    /// The requirement (right of `->`).
    pub requires: Formula,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " -> {}.", self.requires)
    }
}

/// A parsed program: rules plus constraints, in source order.
///
/// Source positions live in side tables parallel to `rules` /
/// `constraints` (rather than inside [`Rule`], whose equality and
/// content identity are position-independent). Programs built by hand
/// may leave the tables empty; [`Program::rule_span`] then reports
/// [`Span::UNKNOWN`].
#[derive(Clone, Default, Debug)]
pub struct Program {
    /// The rules (facts included).
    pub rules: Vec<Rule>,
    /// The schema constraints.
    pub constraints: Vec<Constraint>,
    /// `line:col` of each rule's statement, parallel to `rules`.
    pub rule_spans: Vec<Span>,
    /// `line:col` of each constraint's statement, parallel to `constraints`.
    pub constraint_spans: Vec<Span>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Appends a rule with its source span.
    pub fn push_rule(&mut self, rule: Rule, span: Span) {
        // Keep the side table aligned even if earlier rules were pushed
        // directly onto `rules` without spans.
        self.rule_spans.resize(self.rules.len(), Span::UNKNOWN);
        self.rules.push(rule);
        self.rule_spans.push(span);
    }

    /// Appends a constraint with its source span.
    pub fn push_constraint(&mut self, constraint: Constraint, span: Span) {
        self.constraint_spans
            .resize(self.constraints.len(), Span::UNKNOWN);
        self.constraints.push(constraint);
        self.constraint_spans.push(span);
    }

    /// The source span of `rules[i]` (`Span::UNKNOWN` if unrecorded).
    pub fn rule_span(&self, i: usize) -> Span {
        self.rule_spans.get(i).copied().unwrap_or(Span::UNKNOWN)
    }

    /// The source span of `constraints[i]` (`Span::UNKNOWN` if unrecorded).
    pub fn constraint_span(&self, i: usize) -> Span {
        self.constraint_spans
            .get(i)
            .copied()
            .unwrap_or(Span::UNKNOWN)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.constraints {
            writeln!(f, "{c}")?;
        }
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rule() -> Rule {
        // access(P,O,read) <- good(P), !banned(P).
        Rule::new(
            Atom::new(
                "access",
                vec![Term::var("P"), Term::var("O"), Term::sym("read")],
            ),
            vec![
                BodyItem::pos(Atom::new("good", vec![Term::var("P")])),
                BodyItem::neg(Atom::new("banned", vec![Term::var("P")])),
            ],
        )
    }

    #[test]
    fn display_rule() {
        assert_eq!(
            sample_rule().to_string(),
            "access(P,O,read) <- good(P), !banned(P)."
        );
    }

    #[test]
    fn display_fact() {
        let f = Rule::fact(Atom::new("good", vec![Term::sym("alice")]));
        assert_eq!(f.to_string(), "good(alice).");
        assert!(f.is_fact());
        assert!(!sample_rule().is_fact());
    }

    #[test]
    fn display_keyed_atom() {
        let a = Atom::keyed(
            "export",
            vec![Term::var("U2")],
            vec![Term::sym("me"), Term::var("R"), Term::var("S")],
        );
        assert_eq!(a.to_string(), "export[U2](me,R,S)");
        assert_eq!(a.arity(), 4);
    }

    #[test]
    fn display_agg_rule() {
        let r = Rule {
            heads: vec![Atom::new(
                "creditOKCount",
                vec![Term::var("C"), Term::var("N")],
            )],
            body: vec![BodyItem::pos(Atom::new(
                "creditOK",
                vec![Term::var("U"), Term::var("C")],
            ))],
            agg: Some(AggSpec {
                result: Symbol::intern("N"),
                func: AggFunc::Count,
                over: Symbol::intern("U"),
            }),
        };
        assert_eq!(
            r.to_string(),
            "creditOKCount(C,N) <- agg<<N = count(U)>> creditOK(U,C)."
        );
    }

    #[test]
    fn content_id_stable_and_distinct() {
        assert_eq!(sample_rule().content_id(), sample_rule().content_id());
        let other = Rule::fact(Atom::new("good", vec![Term::sym("alice")]));
        assert_ne!(sample_rule().content_id(), other.content_id());
    }

    #[test]
    fn pattern_detection() {
        assert!(!sample_rule().is_pattern());
        // P(T*) <- A*.
        let pat = Rule {
            heads: vec![Atom {
                pred: PredRef::Var(Symbol::intern("P")),
                key_args: vec![],
                args: vec![Term::SeqVar(Symbol::intern("T"))],
            }],
            body: vec![BodyItem::Rest(Symbol::intern("A"))],
            agg: None,
        };
        assert!(pat.is_pattern());
    }

    #[test]
    fn collect_vars_order() {
        let vars = sample_rule().collect_vars();
        let names: Vec<&str> = vars.iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["P", "O"]);
    }

    #[test]
    fn substitute_me() {
        let me = Symbol::intern("me");
        let alice = Symbol::intern("alice");
        let r = crate::parser::parse_rule(
            "says(me,Z,[| reachable(Z,D). |]) <- neighbor(me,Z), says(W,me,[| reachable(me,D). |]).",
        )
        .unwrap();
        let subst = r.substitute_sym(me, alice);
        let text = subst.to_string();
        assert!(!text.contains("me"), "me still present: {text}");
        // Inside the nested quote too.
        assert!(text.contains("reachable(alice,D)"), "{text}");
        // Variables named Me would be untouched (symbols only).
        assert_eq!(
            crate::parser::parse_rule("p(X) <- q(X).")
                .unwrap()
                .substitute_sym(me, alice)
                .to_string(),
            "p(X) <- q(X)."
        );
    }

    #[test]
    fn constraint_display() {
        let c = Constraint {
            body: vec![BodyItem::pos(Atom::new(
                "access",
                vec![Term::var("P"), Term::var("O"), Term::var("M")],
            ))],
            requires: Formula::And(vec![
                Formula::Item(BodyItem::pos(Atom::new("principal", vec![Term::var("P")]))),
                Formula::Item(BodyItem::pos(Atom::new("object", vec![Term::var("O")]))),
            ]),
        };
        assert_eq!(c.to_string(), "access(P,O,M) -> (principal(P), object(O)).");
    }
}
