//! Recursive-descent parser for the LBTrust Datalog dialect.
//!
//! Grammar sketch (see the module tests for worked examples):
//!
//! ```text
//! program    := statement*
//! statement  := heads '.'                      -- facts
//!             | heads '<-' aggspec? formula '.' -- rule(s)
//!             | conj '->' formula? '.'          -- constraint / declaration
//! heads      := atom (',' atom)*
//! formula    := conj (';' conj)*
//! conj       := unary (',' unary)*
//! unary      := '!' unary | '(' formula ')' | bodyitem
//! bodyitem   := atom | expr cmpop expr | UIdent '*'   -- rest var in quotes
//! atom       := functor key? args? | UIdent           -- whole-atom var in quotes
//! functor    := Ident | UIdent                        -- UIdent only in quotes
//! key        := '[' expr (',' expr)* ']'
//! args       := '(' (expr (',' expr)*)? ')'
//! expr       := mul (('+'|'-') mul)*
//! mul        := operand (('*'|'/'|'%') operand)*
//! operand    := term | '(' expr ')'
//! term       := UIdent '*'? | Ident | Int | Str | Bytes | '_' | quote
//! quote      := '[|' heads ('<-' formula)? '.'? '|]'
//! aggspec    := 'agg' '<<' UIdent '=' aggfn '(' UIdent ')' '>>'
//! ```
//!
//! Arithmetic expressions in argument positions are hoisted: `p(N-1)`
//! becomes `p(V)` plus a body item `V = N - 1` appended to the enclosing
//! *top-level* rule — including when the expression sits inside a quoted
//! template, which implements the paper's "unquoted in-place" evaluation
//! of meta-variable expressions (§3.3, rule `dd3`).

use crate::ast::{
    AggFunc, AggSpec, ArithOp, Atom, BodyItem, CmpOp, Constraint, Expr, Formula, PredRef, Program,
    Rule, Term,
};
use crate::dnf::to_dnf;
use crate::intern::Symbol;
use crate::lexer::{lex_to_end, Span, Spanned, Token};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A parse error with source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line number (0 when at end of input).
    pub line: usize,
    /// 1-based column number (0 when at end of input).
    pub col: usize,
}

impl ParseError {
    /// The `line:col` position of the error.
    pub fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col != 0 {
            write!(
                f,
                "parse error at line {}:{}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a full program (rules, facts, constraints).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    Parser::new(src)?.program()
}

/// Parses a single rule or fact (must consume all input).
pub fn parse_rule(src: &str) -> Result<Rule, ParseError> {
    let program = parse_program(src)?;
    if !program.constraints.is_empty() {
        return Err(ParseError {
            message: "expected a rule, found a constraint".into(),
            line: 0,
            col: 0,
        });
    }
    match <[Rule; 1]>::try_from(program.rules) {
        Ok([rule]) => Ok(rule),
        Err(rules) => Err(ParseError {
            message: format!("expected exactly one rule, found {}", rules.len()),
            line: 0,
            col: 0,
        }),
    }
}

/// Parses the text of exactly one quoted rule, `[| heads <- body. |]`
/// with nothing before the `[|` and nothing after the `|]` — the slice a
/// wire decoder cuts out of an `export` packet
/// (`lbtrust_net::decode_packet`), so that only what a peer *said* goes
/// through the parser and the envelope around it does not.
///
/// The rule is read by the same `quote` production a `[| … |]` term in a
/// program is: meta-variables, `T*` / `A*`, the optional dot and nested
/// quotes all mean what they mean there, and a fresh parser numbers `_`
/// from `_G1` as one reading the whole packet would. What a fact's
/// argument may not hold, this may not either: arithmetic to hoist
/// (`[| p(N-1). |]`) is refused. Nesting deeper than [`MAX_NESTING`] is a
/// [`ParseError`], as everywhere.
pub fn parse_quoted_rule(src: &str) -> Result<Rule, ParseError> {
    let mut p = Parser::new(src)?;
    let rule = p.quote()?;
    p.expect_eof()?;
    if !p.hoisted.is_empty() {
        return Err(p.error("arithmetic not allowed in a quoted fact's arguments".into()));
    }
    // The quote's own `[|` and `|]` are the text's first and last two
    // bytes: no blank or comment before, and no `//` comment after that
    // only *looks* closed because it ends in `|]`.
    if !src.starts_with("[|") || p.last_end != src.len() {
        return Err(p.error("expected exactly one quoted rule, '[|' first and '|]' last".into()));
    }
    Ok(rule)
}

/// Parses a single ground atom, e.g. `neighbor(a, b)`.
pub fn parse_atom(src: &str) -> Result<Atom, ParseError> {
    let mut p = Parser::new(src)?;
    let atom = p.atom()?;
    p.expect_eof()?;
    Ok(atom)
}

/// How deep one statement may go: open quotes, parenthesised formulas
/// and expressions, and negations, plus every arithmetic operator read so
/// far of the expression at hand (each puts its left operand one level
/// further down; the count is given back where that expression ends), all
/// on one count. The parser descends recursively, and so does everything that
/// later walks, prints or drops what it built, and its input can come
/// from a peer: unbounded, a 100 KB packet of `[| p(` or of `+ 1`
/// overflows the stack, which no caller can catch. This repository's own
/// programs nest two quotes at most (the `pull` rules).
pub const MAX_NESTING: usize = 64;

struct Parser {
    toks: Vec<Spanned>,
    /// The byte offset just past the last token.
    last_end: usize,
    pos: usize,
    gensym: u32,
    quote_depth: usize,
    /// What the current statement has spent of [`MAX_NESTING`].
    nesting: usize,
    /// Body items hoisted from argument-position arithmetic, appended to
    /// the enclosing top-level statement.
    hoisted: Vec<BodyItem>,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        let (toks, last_end) = lex_to_end(src).map_err(|e| ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        })?;
        Ok(Parser {
            toks,
            last_end,
            pos: 0,
            gensym: 0,
            quote_depth: 0,
            nesting: 0,
            hoisted: Vec::new(),
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.toks.get(self.pos + 1).map(|s| &s.token)
    }

    /// The span of the token at the cursor (or the last token at EOF).
    fn span(&self) -> Span {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(Span::UNKNOWN, |s| s.span())
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<(), ParseError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected '{tok}', found {}",
                self.describe_current()
            )))
        }
    }

    fn describe_current(&self) -> String {
        match self.peek() {
            Some(t) => format!("'{t}'"),
            None => "end of input".into(),
        }
    }

    fn error(&self, message: String) -> ParseError {
        let span = self.span();
        ParseError {
            message,
            line: span.line,
            col: span.col,
        }
    }

    fn fresh_var(&mut self) -> Symbol {
        self.gensym += 1;
        Symbol::intern(&format!("_G{}", self.gensym))
    }

    /// Goes one level down, or refuses at [`MAX_NESTING`].
    fn deepen(&mut self) -> Result<(), ParseError> {
        if self.nesting == MAX_NESTING {
            return Err(self.error(format!(
                "nesting deeper than {MAX_NESTING} levels (quotes, parentheses, negations \
                 and arithmetic operators of one expression)"
            )));
        }
        self.nesting += 1;
        Ok(())
    }

    /// Runs one production that recurses into the grammar, a level down.
    fn nested<T>(
        &mut self,
        production: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.deepen()?;
        let result = production(self);
        self.nesting -= 1;
        result
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(self.error(format!("unexpected {}", self.describe_current())))
        }
    }

    // ---- program & statements -------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut program = Program::new();
        while self.peek().is_some() {
            self.statement(&mut program)?;
        }
        Ok(program)
    }

    fn statement(&mut self, program: &mut Program) -> Result<(), ParseError> {
        debug_assert!(self.hoisted.is_empty());
        self.nesting = 0;
        // The statement's source position: the first token of its head.
        // Rules split out of a disjunctive body all share this span.
        let span = self.span();
        // Parse the left side as a conjunction of body items: it serves as
        // rule heads (facts/rules) or constraint premise.
        let lhs = self.conjunction()?;
        match self.peek() {
            Some(Token::Dot) => {
                self.bump();
                let hoisted = std::mem::take(&mut self.hoisted);
                if !hoisted.is_empty() {
                    return Err(self.error("arithmetic not allowed in fact arguments".into()));
                }
                for item in lhs {
                    match item {
                        BodyItem::Lit {
                            negated: false,
                            atom,
                        } => program.push_rule(
                            Rule {
                                heads: vec![atom],
                                body: Vec::new(),
                                agg: None,
                            },
                            span,
                        ),
                        other => {
                            return Err(
                                self.error(format!("'{other}' cannot stand alone as a fact"))
                            )
                        }
                    }
                }
                Ok(())
            }
            Some(Token::ImpliedBy) => {
                self.bump();
                let heads = lhs
                    .into_iter()
                    .map(|item| match item {
                        BodyItem::Lit {
                            negated: false,
                            atom,
                        } => Ok(atom),
                        other => Err(self.error(format!("invalid rule head '{other}'"))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let agg = self.maybe_agg_spec()?;
                let formula = self.formula()?;
                self.expect(&Token::Dot)?;
                let hoisted = std::mem::take(&mut self.hoisted);
                let disjuncts = to_dnf(&formula).map_err(|e| self.error(e.to_string()))?;
                if agg.is_some() && disjuncts.len() > 1 {
                    return Err(
                        self.error("disjunction is not supported in aggregate rules".into())
                    );
                }
                for mut body in disjuncts {
                    body.extend(hoisted.iter().cloned());
                    program.push_rule(
                        Rule {
                            heads: heads.clone(),
                            body,
                            agg: agg.clone(),
                        },
                        span,
                    );
                }
                Ok(())
            }
            Some(Token::Implies) => {
                self.bump();
                let requires = if self.peek() == Some(&Token::Dot) {
                    Formula::truth()
                } else {
                    self.formula()?
                };
                self.expect(&Token::Dot)?;
                let mut body = lhs;
                body.extend(std::mem::take(&mut self.hoisted));
                program.push_constraint(Constraint { body, requires }, span);
                Ok(())
            }
            _ => Err(self.error(format!(
                "expected '.', '<-' or '->', found {}",
                self.describe_current()
            ))),
        }
    }

    fn maybe_agg_spec(&mut self) -> Result<Option<AggSpec>, ParseError> {
        if self.peek() == Some(&Token::Ident("agg".into())) && self.peek2() == Some(&Token::LAngles)
        {
            self.bump();
            self.bump();
            let result = match self.bump() {
                Some(Token::UIdent(name)) => Symbol::intern(&name),
                _ => return Err(self.error("expected aggregate result variable".into())),
            };
            self.expect(&Token::Eq)?;
            let func = match self.bump() {
                Some(Token::Ident(name)) => match name.as_str() {
                    "count" => AggFunc::Count,
                    "total" => AggFunc::Total,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    other => {
                        return Err(self.error(format!("unknown aggregation function '{other}'")))
                    }
                },
                _ => return Err(self.error("expected aggregation function".into())),
            };
            self.expect(&Token::LParen)?;
            let over = match self.bump() {
                Some(Token::UIdent(name)) => Symbol::intern(&name),
                _ => return Err(self.error("expected aggregated variable".into())),
            };
            self.expect(&Token::RParen)?;
            self.expect(&Token::RAngles)?;
            Ok(Some(AggSpec { result, func, over }))
        } else {
            Ok(None)
        }
    }

    // ---- formulas ---------------------------------------------------------

    fn formula(&mut self) -> Result<Formula, ParseError> {
        // Singleton conjunctions and disjunctions stay unwrapped so
        // `p(X) -> q(X).` prints back without spurious grouping.
        fn one_or(parts: Vec<Formula>, many: fn(Vec<Formula>) -> Formula) -> Formula {
            match <[Formula; 1]>::try_from(parts) {
                Ok([one]) => one,
                Err(parts) => many(parts),
            }
        }
        let mut parts = vec![one_or(self.conjunction_formulas()?, Formula::And)];
        while self.eat(&Token::Semi) {
            parts.push(one_or(self.conjunction_formulas()?, Formula::And));
        }
        Ok(one_or(parts, Formula::Or))
    }

    fn conjunction_formulas(&mut self) -> Result<Vec<Formula>, ParseError> {
        let mut out = vec![self.unary_formula()?];
        while self.peek() == Some(&Token::Comma) {
            // A comma only continues the conjunction if another body item
            // follows (trailing commas before '.' are rejected by unary).
            self.bump();
            out.push(self.unary_formula()?);
        }
        Ok(out)
    }

    /// A conjunction parsed directly into body items (used for statement
    /// left sides, where `;` is not allowed).
    fn conjunction(&mut self) -> Result<Vec<BodyItem>, ParseError> {
        let formulas = self.conjunction_formulas()?;
        let mut out = Vec::with_capacity(formulas.len());
        for f in formulas {
            match f {
                Formula::Item(item) => out.push(item),
                Formula::Not(inner) => match *inner {
                    Formula::Item(BodyItem::Lit { negated, atom }) => out.push(BodyItem::Lit {
                        negated: !negated,
                        atom,
                    }),
                    other => {
                        return Err(self.error(format!("unsupported negation '!{other}' here")))
                    }
                },
                other => return Err(self.error(format!("'{other}' not allowed here"))),
            }
        }
        Ok(out)
    }

    fn unary_formula(&mut self) -> Result<Formula, ParseError> {
        if self.eat(&Token::Bang) {
            let inner = self.nested(Self::unary_formula)?;
            return Ok(Formula::Not(Box::new(inner)));
        }
        if self.peek() == Some(&Token::LParen) && self.starts_formula_group() {
            self.bump();
            let inner = self.nested(Self::formula)?;
            self.expect(&Token::RParen)?;
            return Ok(inner);
        }
        Ok(Formula::Item(self.body_item()?))
    }

    /// Distinguishes `(p(X); q(X))` formula grouping from a parenthesized
    /// arithmetic operand like `(N + 1) > M`: scan ahead for a comparison
    /// operator after the matching close paren.
    fn starts_formula_group(&self) -> bool {
        let mut depth = 0usize;
        let mut i = self.pos;
        while let Some(spanned) = self.toks.get(i) {
            match spanned.token {
                Token::LParen => depth += 1,
                Token::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        return !matches!(
                            self.toks.get(i + 1).map(|s| &s.token),
                            Some(
                                Token::Eq
                                    | Token::Ne
                                    | Token::Lt
                                    | Token::Le
                                    | Token::Gt
                                    | Token::Ge
                                    | Token::Plus
                                    | Token::Minus
                                    | Token::Star
                                    | Token::Slash
                                    | Token::Percent
                            )
                        );
                    }
                }
                _ => {}
            }
            i += 1;
        }
        true
    }

    // ---- body items -------------------------------------------------------

    fn body_item(&mut self) -> Result<BodyItem, ParseError> {
        // Rest meta-variable: `A*` followed by a body-terminating token.
        if self.quote_depth > 0 {
            if let (Some(Token::UIdent(name)), Some(Token::Star)) = (self.peek(), self.peek2()) {
                let after = self.toks.get(self.pos + 2).map(|s| &s.token);
                if matches!(
                    after,
                    Some(Token::Comma | Token::Dot | Token::RQuote) | None
                ) {
                    let sym = Symbol::intern(name);
                    self.bump();
                    self.bump();
                    return Ok(BodyItem::Rest(sym));
                }
            }
        }
        // Atom if an identifier is followed by '(' or '[', or is a bare
        // 0-ary predicate / whole-atom meta-variable not followed by an
        // operator.
        let is_atom_start = match (self.peek(), self.peek2()) {
            (Some(Token::Ident(_)), Some(Token::LParen | Token::LBracket | Token::LQuote)) => true,
            (Some(Token::Ident(_)), next) => !matches!(
                next,
                Some(
                    Token::Eq
                        | Token::Ne
                        | Token::Lt
                        | Token::Le
                        | Token::Gt
                        | Token::Ge
                        | Token::Plus
                        | Token::Minus
                        | Token::Star
                        | Token::Slash
                        | Token::Percent
                )
            ),
            (Some(Token::UIdent(_)), Some(Token::LParen | Token::LBracket)) => self.quote_depth > 0,
            (Some(Token::UIdent(_)), next) => {
                // Bare whole-atom meta-variable inside quotes (may also
                // head a quoted rule, hence `<-`).
                self.quote_depth > 0
                    && matches!(
                        next,
                        Some(Token::Comma | Token::Dot | Token::RQuote | Token::ImpliedBy) | None
                    )
            }
            _ => false,
        };
        if is_atom_start {
            let atom = self.atom()?;
            return Ok(BodyItem::pos(atom));
        }
        // Otherwise: comparison between expressions.
        let lhs = self.expr()?;
        let op = match self.bump() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => {
                return Err(self.error(format!(
                    "expected comparison operator, found {}",
                    other.map_or("end of input".to_string(), |t| format!("'{t}'"))
                )))
            }
        };
        let rhs = self.expr()?;
        Ok(BodyItem::Cmp { op, lhs, rhs })
    }

    // ---- atoms ------------------------------------------------------------

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let pred = match self.bump() {
            Some(Token::Ident(name)) => PredRef::Name(Symbol::intern(&name)),
            Some(Token::UIdent(name)) if self.quote_depth > 0 => {
                let sym = Symbol::intern(&name);
                // Bare meta-variable: matches/generates a whole atom.
                if !matches!(self.peek(), Some(Token::LParen | Token::LBracket)) {
                    return Ok(Atom {
                        pred: PredRef::Var(sym),
                        key_args: Vec::new(),
                        args: Vec::new(),
                    });
                }
                PredRef::Var(sym)
            }
            other => {
                return Err(self.error(format!(
                    "expected predicate name, found {}",
                    other.map_or("end of input".to_string(), |t| format!("'{t}'"))
                )))
            }
        };
        let mut key_args = Vec::new();
        if self.eat(&Token::LBracket) {
            loop {
                key_args.push(self.arg_term()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RBracket)?;
        }
        let mut args = Vec::new();
        if self.eat(&Token::LParen) && !self.eat(&Token::RParen) {
            loop {
                args.push(self.arg_term()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        Ok(Atom {
            pred,
            key_args,
            args,
        })
    }

    /// Parses one argument position: a term, or an arithmetic expression
    /// which is hoisted into a fresh variable.
    fn arg_term(&mut self) -> Result<Term, ParseError> {
        let expr = self.expr()?;
        Ok(match expr {
            Expr::Term(t) => t,
            computed => {
                let var = self.fresh_var();
                self.hoisted.push(BodyItem::Cmp {
                    op: CmpOp::Eq,
                    lhs: Expr::Term(Term::Var(var)),
                    rhs: computed,
                });
                Term::Var(var)
            }
        })
    }

    // ---- expressions --------------------------------------------------------

    /// One whole expression: a comparison's side or an atom's argument.
    /// Its operators are levels of this expression only, given back at
    /// its end, so the next one of the statement starts from where this
    /// did and a tree is never deeper than [`MAX_NESTING`].
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let outer = self.nesting;
        let expr = self.add_expr()?;
        self.nesting = outer;
        Ok(expr)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            self.deepen()?;
            let rhs = self.mul_expr()?;
            lhs = Expr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.operand()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => {
                    // `X*` as a sequence variable is handled in operand();
                    // reaching here with Star means multiplication.
                    ArithOp::Mul
                }
                Some(Token::Slash) => ArithOp::Div,
                Some(Token::Percent) => ArithOp::Mod,
                _ => break,
            };
            self.bump();
            self.deepen()?;
            let rhs = self.operand()?;
            lhs = Expr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn operand(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.bump();
                let inner = self.nested(Self::add_expr)?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Minus) => {
                self.bump();
                match self.bump() {
                    Some(Token::Int(v)) => Ok(Expr::Term(Term::Val(Value::Int(-v)))),
                    _ => Err(self.error("expected integer after unary '-'".into())),
                }
            }
            Some(Token::UIdent(name)) => {
                self.bump();
                let sym = Symbol::intern(&name);
                // Sequence meta-variable `T*`: only inside quotes, and only
                // when the star is followed by an argument separator (so
                // `N*2` still parses as multiplication).
                if self.quote_depth > 0
                    && self.peek() == Some(&Token::Star)
                    && matches!(
                        self.peek2(),
                        Some(Token::Comma | Token::RParen | Token::RBracket) | None
                    )
                {
                    self.bump();
                    return Ok(Expr::Term(Term::SeqVar(sym)));
                }
                Ok(Expr::Term(Term::Var(sym)))
            }
            Some(Token::Underscore) => {
                self.bump();
                Ok(Expr::Term(Term::Var(self.fresh_var())))
            }
            Some(Token::Ident(name)) => {
                self.bump();
                Ok(Expr::Term(Term::Val(Value::sym(&name))))
            }
            Some(Token::Int(v)) => {
                self.bump();
                Ok(Expr::Term(Term::Val(Value::Int(v))))
            }
            Some(Token::Str(s)) => {
                self.bump();
                Ok(Expr::Term(Term::Val(Value::str(&s))))
            }
            Some(Token::Bytes(b)) => {
                self.bump();
                Ok(Expr::Term(Term::Val(Value::bytes(&b))))
            }
            Some(Token::LQuote) => {
                let rule = self.quote()?;
                Ok(Expr::Term(Term::Quote(Arc::new(rule))))
            }
            other => Err(self.error(format!(
                "expected a term, found {}",
                other.map_or("end of input".to_string(), |t| format!("'{t}'"))
            ))),
        }
    }

    // ---- quoted code --------------------------------------------------------

    /// Parses `[| heads ('<-' body)? '.'? |]` into a rule. The trailing
    /// dot is optional, matching the paper's usage for quoted facts.
    fn quote(&mut self) -> Result<Rule, ParseError> {
        self.expect(&Token::LQuote)?;
        self.quote_depth += 1;
        let result = self.nested(Self::quote_body);
        self.quote_depth -= 1;
        result
    }

    fn quote_body(&mut self) -> Result<Rule, ParseError> {
        let lhs = self.conjunction()?;
        let heads = lhs
            .into_iter()
            .map(|item| match item {
                BodyItem::Lit {
                    negated: false,
                    atom,
                } => Ok(atom),
                other => Err(self.error(format!("invalid quoted rule head '{other}'"))),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut body = Vec::new();
        if self.eat(&Token::ImpliedBy) {
            let formula = self.formula()?;
            let disjuncts = to_dnf(&formula).map_err(|e| self.error(e.to_string()))?;
            let Ok([conjunction]) = <[_; 1]>::try_from(disjuncts) else {
                return Err(self.error("disjunction not supported inside quoted code".into()));
            };
            body = conjunction;
        }
        self.eat(&Token::Dot);
        self.expect(&Token::RQuote)?;
        Ok(Rule {
            heads,
            body,
            agg: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        parse_program(src)
            .unwrap_or_else(|e| panic!("parse failed for {src:?}: {e}"))
            .to_string()
            .trim()
            .to_string()
    }

    #[test]
    fn parse_fact() {
        assert_eq!(roundtrip("good(alice)."), "good(alice).");
    }

    #[test]
    fn parse_binder_rules() {
        // The paper's b1/b2 (§2.2), modulo `says` being a plain predicate.
        assert_eq!(
            roundtrip("access(P,O,read) <- good(P)."),
            "access(P,O,read) <- good(P)."
        );
    }

    #[test]
    fn parse_negation() {
        assert_eq!(
            roundtrip("safe(P) <- principal(P), !banned(P)."),
            "safe(P) <- principal(P), !banned(P)."
        );
    }

    #[test]
    fn disjunction_splits_rules() {
        let p = parse_program("p(X) <- q(X); r(X).").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].to_string(), "p(X) <- q(X).");
        assert_eq!(p.rules[1].to_string(), "p(X) <- r(X).");
    }

    #[test]
    fn nested_formula() {
        let p = parse_program("p(X) <- q(X), (r(X); s(X)).").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].to_string(), "p(X) <- q(X), r(X).");
        assert_eq!(p.rules[1].to_string(), "p(X) <- q(X), s(X).");
    }

    #[test]
    fn negated_conjunction_de_morgan() {
        let p = parse_program("p(X) <- q(X), !(r(X), s(X)).").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].to_string(), "p(X) <- q(X), !r(X).");
        assert_eq!(p.rules[1].to_string(), "p(X) <- q(X), !s(X).");
    }

    #[test]
    fn parse_constraint() {
        assert_eq!(
            roundtrip("access(P,O,M) -> principal(P), object(O), mode(M)."),
            "access(P,O,M) -> (principal(P), object(O), mode(M))."
        );
    }

    #[test]
    fn parse_declaration() {
        let p = parse_program("rule(R) ->.").unwrap();
        assert_eq!(p.constraints.len(), 1);
        assert_eq!(p.constraints[0].requires, Formula::truth());
    }

    #[test]
    fn parse_fig1_meta_model() {
        // The whole meta-model of Figure 1 parses.
        let src = r#"
            rule(R) ->.
            head(R,A) -> rule(R), atom(A).
            body(R,A) -> rule(R), atom(A).
            atom(A) -> .
            functor(A,P) -> atom(A), predicate(P).
            arg(A,I,T) -> atom(A), int(I), term(T).
            negated(A) -> atom(A).
            term(T) -> .
            variable(X) -> term(X).
            vname(X,N) -> variable(X), string(N).
            constant(C) -> term(C).
            value(C,V) -> constant(C), string(V).
            predicate(P) -> .
            pname(P,N) -> predicate(P), string(N).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.constraints.len(), 14);
    }

    #[test]
    fn parse_keyed_atom() {
        assert_eq!(
            roundtrip("export[U2](me,R,S) <- says(me,U2,R)."),
            "export[U2](me,R,S) <- says(me,U2,R)."
        );
    }

    #[test]
    fn parse_quote_fact() {
        // bex1' from §5.1.
        let r = parse_rule(
            "access(P,O,read) <- says(bob,me,[|access(P,O,read)|]), pubkey(bob,rsa:3:c1ebab5d).",
        )
        .unwrap();
        assert_eq!(
            r.to_string(),
            "access(P,O,read) <- says(bob,me,[| access(P,O,read). |]), pubkey(bob,rsa:3:c1ebab5d)."
        );
    }

    #[test]
    fn parse_pattern_quote() {
        // The owner meta-constraint pattern (§3.3).
        let p = parse_program("owner(U, [| A <- P(T2*), A*. |]) -> access(U,P,read).").unwrap();
        assert_eq!(p.constraints.len(), 1);
        assert_eq!(
            p.constraints[0].to_string(),
            "owner(U,[| A <- P(T2*), A*. |]) -> access(U,P,read)."
        );
    }

    #[test]
    fn parse_nested_quote() {
        // del1 from §4.2 — a quote inside a quote.
        let r = parse_rule(
            "active([| active(R) <- says(U2,me,R), R = [| P(T*) <- A*. |]. |]) <- delegates(me,U2,p).",
        )
        .unwrap();
        assert!(r.to_string().contains("[| P(T*) <- A*. |]"));
    }

    #[test]
    fn parse_agg_rule() {
        // wd2 from §4.2.2.
        let r = parse_rule(
            "creditOKCount(C,N) <- agg<<N = count(U)>> pringroup(U,creditBureau), says(U,me,[| creditOK(C). |]).",
        )
        .unwrap();
        let agg = r.agg.as_ref().unwrap();
        assert_eq!(agg.func, AggFunc::Count);
        assert_eq!(agg.result.as_str(), "N");
        assert_eq!(agg.over.as_str(), "U");
    }

    #[test]
    fn arith_in_args_hoisted() {
        // dd3's N-1 inside a quoted template (§4.2.1).
        let r = parse_rule(
            "says(me,U,[| inferredDelDepth(me,U,P,N-1). |]) <- inferredDelDepth(me,U,P,N), delegates(me,U,P), N>0.",
        )
        .unwrap();
        // The hoisted binding lands at the end of the body.
        let last = r.body.last().unwrap().to_string();
        assert!(last.contains("= (N - 1)"), "hoisted item: {last}");
        // And the quote's argument is now a plain variable.
        assert!(!r.heads[0].to_string().contains('-'), "{}", r.heads[0]);
    }

    #[test]
    fn comparisons_parse() {
        let r = parse_rule("creditOK(C) <- creditOKCount(C,N), N >= 3.").unwrap();
        assert_eq!(r.to_string(), "creditOK(C) <- creditOKCount(C,N), N >= 3.");
    }

    #[test]
    fn underscore_becomes_fresh_var() {
        let r = parse_rule("p(X) <- q(X,_), r(_,X).").unwrap();
        let text = r.to_string();
        assert!(text.contains("_G1") && text.contains("_G2"), "{text}");
        let r2 = parse_rule("inferredDelDepth(_,me,P,0) -> !delegates(me,_,P).").err();
        assert!(r2.is_some()); // it's a constraint, not a rule
    }

    #[test]
    fn parse_dd4_constraint() {
        let p = parse_program("inferredDelDepth(_,me,P,0) -> !delegates(me,_,P).").unwrap();
        assert_eq!(p.constraints.len(), 1);
    }

    #[test]
    fn parse_multi_head_quote() {
        // dfs2's response template has a two-atom head.
        let src = "says(me,U,[| response(R), message:fname(R,S) <- A*. |]), fileName(F,S), fileowner(F,O) -> says(O,me,[| permission(O,U,F,read) |]).";
        let p = parse_program(src).unwrap();
        assert_eq!(p.constraints.len(), 1);
    }

    #[test]
    fn parse_arith_expression_precedence() {
        let r = parse_rule("p(X) <- q(N), X = N * 2 + 1.").unwrap();
        assert!(r.to_string().contains("X = ((N * 2) + 1)"), "{r}");
        let r = parse_rule("p(X) <- q(N), X = N + 2 * 3.").unwrap();
        assert!(r.to_string().contains("X = (N + (2 * 3))"), "{r}");
    }

    #[test]
    fn parse_zero_arity() {
        let r = parse_rule("fail() <- access(P,O,M), !principal(P).").unwrap();
        assert_eq!(r.to_string(), "fail() <- access(P,O,M), !principal(P).");
        // Bare 0-ary atoms also work.
        let r = parse_rule("shutdown <- overload.").unwrap();
        assert_eq!(r.to_string(), "shutdown() <- overload().");
    }

    #[test]
    fn error_positions() {
        let err = parse_program("p(X) <- q(X)\nr(Y).").unwrap_err();
        assert_eq!(err.line, 2); // missing dot noticed at line 2
        assert!(parse_program("p(X) <- .").is_err());
        assert!(parse_program("p(X) <- q(X),.").is_err());
    }

    #[test]
    fn statement_spans_recorded() {
        let p = parse_program("good(alice).\n  p(X) <- q(X); r(X).\nq(X) -> p(X).").unwrap();
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rule_span(0), Span::new(1, 1));
        // Both disjunct-split rules share the statement's span.
        assert_eq!(p.rule_span(1), Span::new(2, 3));
        assert_eq!(p.rule_span(2), Span::new(2, 3));
        assert_eq!(p.constraint_span(0), Span::new(3, 1));
        // Out-of-range indices report an unknown span rather than panic.
        assert!(!p.rule_span(99).is_known());
    }

    #[test]
    fn parse_error_has_col() {
        let err = parse_program("p(X) <- q(X)\n   r(Y).").unwrap_err();
        assert_eq!((err.line, err.col), (2, 4));
        assert!(err.to_string().contains("2:4"));
    }

    #[test]
    fn parse_says_pull_rules() {
        // pull0/pull1 from §5.1.
        let src = r#"
            says(me,X,[|request(R).|]) <- active([| A <- says(X,me,R), A*. |]), X != me.
            says(me,X,R) <- says(X,me,[|request(R).|]).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.rules.len(), 2);
    }

    /// The shapes that recurse, or build what recurses, `depth` levels deep.
    fn nested_sources(depth: usize) -> [String; 6] {
        let (open, close) = ("(".repeat(depth), ")".repeat(depth));
        [
            format!("p({}1{}).", "[| p(".repeat(depth), "). |]".repeat(depth)),
            format!("p(X) <- {open}q(X){close}."),
            format!("p(X) <- q(Y), X = {open}Y{close}."),
            format!("p(X) <- q(X), {}r(X).", "!".repeat(depth)),
            format!("p(X) <- q(Y), X = Y{}.", " + 1".repeat(depth)),
            format!("p(X) <- q(Y), X = Y{}.", " * 2".repeat(depth)),
        ]
    }

    #[test]
    fn nesting_is_bounded_on_a_default_thread_stack() {
        // A pool worker and a spawned thread get 2 MiB; the main thread
        // of a test binary may get more, so the check runs on neither.
        let checked = std::thread::spawn(|| {
            for src in nested_sources(MAX_NESTING) {
                parse_rule(&src).unwrap_or_else(|e| panic!("{e}: {}", &src[..40]));
            }
            for depth in [MAX_NESTING + 1, 100_000] {
                for src in nested_sources(depth) {
                    let err = parse_rule(&src).unwrap_err();
                    assert!(
                        err.message.contains("nesting deeper than 64"),
                        "depth {depth}, {}: {err}",
                        &src[..40]
                    );
                }
            }
        });
        checked.join().expect("no overflow, no panic");
    }

    #[test]
    fn nesting_counts_depth_not_operators_of_a_statement() {
        // 80 operators, none more than two levels down.
        let body: Vec<String> = (0..40).map(|i| format!("X{i} = A + B * {i}")).collect();
        let rule = parse_rule(&format!("h(X0) <- q(A,B), {}.", body.join(", "))).unwrap();
        assert_eq!(rule.body.len(), 41);
        // And as arguments, each hoisted on its own.
        let args: Vec<String> = (0..40).map(|i| format!("A + B * {i}")).collect();
        parse_rule(&format!("h({}) <- q(A,B).", args.join(","))).unwrap();
        // One expression is still one count, closed parentheses included:
        // what they enclosed is the left operand of what follows.
        let tree = format!("{}A{}", "(".repeat(32), " + 1)".repeat(32));
        parse_rule(&format!("h(X) <- q(A), X = {tree}{}.", " + 1".repeat(32))).unwrap();
        let err =
            parse_rule(&format!("h(X) <- q(A), X = {tree}{}.", " + 1".repeat(33))).unwrap_err();
        assert!(err.message.contains("nesting deeper than 64"), "{err}");
    }

    #[test]
    fn quoted_rule_is_the_quote_production_and_nothing_around_it() {
        let quoted = |src: &str| parse_quoted_rule(src).map(|r| r.to_string());
        // What a `[| … |]` term parses to inside a program.
        for inner in [
            "p(x).",
            "access(P,O,read) <- good(P), !banned(P).",
            "A <- P(T2*), A*.",
            "says(a,b,[| reachable(a,b). |]) <- neighbor(a,b).",
            "p(\"|] // not a comment\",#ab,_).",
        ] {
            let program = parse_rule(&format!("holds([| {inner} |]).")).unwrap();
            let Term::Quote(expected) = &program.heads[0].args[0] else {
                panic!("not a quote: {program}");
            };
            assert_eq!(
                parse_quoted_rule(&format!("[| {inner} |]")).as_ref(),
                Ok(&**expected)
            );
        }
        // The dot is optional, as in a program.
        assert_eq!(quoted("[|p(x)|]").unwrap(), "p(x).");
        // Exactly one quote, first byte to last.
        for bad in [
            "",
            "p(x).",
            "[| p(x). |] [| q(x). |]",
            "[| p(x). |].",
            " [| p(x). |]",
            "[| p(x). |] ",
            "// c\n[| p(x). |]",
            "[| p(x). |] // |]",
            "[| p(x). |]\n// |]",
            "[| p(x). ",
            "[| p(x) <- q(x); r(x). |]",
            "[| p(N-1). |]",
        ] {
            assert!(parse_quoted_rule(bad).is_err(), "accepted {bad:?}");
        }
    }
}
