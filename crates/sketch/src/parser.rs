//! Recursive-descent parser for the sketch language.
//!
//! Grammar (precedence low → high):
//!
//! ```text
//! sketch  := "fn" IDENT "(" params ")" "{" expr "}"
//! params  := IDENT ("," IDENT)*
//! expr    := "if" bexpr "then" expr "else" expr | arith
//! arith   := term (("+" | "-") term)*
//! term    := factor (("*" | "/") factor)*
//! factor  := "-" factor | atom
//! atom    := NUMBER | IDENT | hole | "(" expr ")"
//!          | ("min" | "max") "(" expr "," expr ")"
//! hole    := "??" IDENT ("in" "[" num "," num "]")?
//! bexpr   := bterm ("||" bterm)*
//! bterm   := bfact ("&&" bfact)*
//! bfact   := "!" bfact | "(" bexpr ")" | cmp
//! cmp     := arith ("<" | "<=" | ">" | ">=" | "==" | "!=") arith
//! ```
//!
//! A hole may be declared with a range once and referenced again by `??name`
//! elsewhere; re-declaring with a *different* range is an error.

use crate::ast::{BExpr, CmpKind, Expr, HoleDecl, SketchSpans, Span, SpanTree};
use crate::lexer::{lex, LexError, Spanned, Token};
use crate::sketch::Sketch;
use cso_numeric::Rat;
use std::fmt;
use std::sync::Arc;

/// Deepest nesting of groupings (parentheses, `min`/`max`, `if`, unary
/// `-` and `!`) the parser accepts; deeper input is a [`ParseError`], not
/// a stack overflow. Bounds the parser's own recursion.
pub const MAX_NESTING: usize = 64;

/// Deepest AST the parser builds, counting every node from the root to a
/// leaf, so a long flat chain such as `x + x + … + x` (a left-deep tree)
/// counts as well as nesting. Deeper input is a [`ParseError`]. Far above
/// any built-in sketch, and shallow enough that the recursive walkers
/// downstream (lowering, analysis, `Drop`) fit a 2 MB thread stack in a
/// debug build.
pub const MAX_DEPTH: usize = 256;

/// A parse (or lex) error with source offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// Byte offset into the source, when known.
    pub offset: Option<usize>,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "parse error at byte {o}: {}", self.message),
            None => write!(f, "parse error: {}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError { message: e.message, offset: Some(e.offset) }
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    params: Vec<String>,
    holes: Vec<HoleDecl>,
    param_spans: Vec<Span>,
    hole_spans: Vec<Span>,
    /// Groupings enclosing the cursor (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.token)
    }

    /// Span covering every token consumed since the cursor was at
    /// `start_tok`. Only valid after at least one token was consumed.
    fn span_from(&self, start_tok: usize) -> Span {
        let first = &self.toks[start_tok];
        let last = &self.toks[self.pos - 1];
        Span::new(first.offset, last.end())
    }

    fn offset(&self) -> Option<usize> {
        self.toks.get(self.pos).map(|s| s.offset)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).map(|s| s.token.clone());
        self.pos += 1;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { message: msg.into(), offset: self.offset() })
    }

    /// Run `f` one grouping deeper, refusing to pass [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// The span node of an AST node built from `children`, whose tokens
    /// start at `start_tok`; refuses to pass [`MAX_DEPTH`].
    fn node(&self, start_tok: usize, children: Vec<SpanTree>) -> Result<SpanTree, ParseError> {
        let sp = SpanTree::node(self.span_from(start_tok), children);
        if sp.depth() > MAX_DEPTH {
            return self.err(format!("expression deeper than {MAX_DEPTH} levels"));
        }
        Ok(sp)
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(x) if x == t => {
                self.pos += 1;
                Ok(())
            }
            Some(x) => {
                let x = x.clone();
                self.err(format!("expected `{t}`, found `{x}`"))
            }
            None => self.err(format!("expected `{t}`, found end of input")),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            Some(other) => {
                self.pos -= 1;
                self.err(format!("expected identifier, found `{other}`"))
            }
            None => self.err("expected identifier, found end of input"),
        }
    }

    fn parse_number(&mut self) -> Result<Rat, ParseError> {
        match self.bump() {
            Some(Token::Number(s)) => s.parse::<Rat>().map_err(|e| ParseError {
                message: format!("bad number literal {s:?}: {e}"),
                offset: None,
            }),
            Some(other) => {
                self.pos -= 1;
                self.err(format!("expected number, found `{other}`"))
            }
            None => self.err("expected number, found end of input"),
        }
    }

    /// Signed numeric literal for hole ranges.
    fn parse_signed_number(&mut self) -> Result<Rat, ParseError> {
        if self.peek() == Some(&Token::Minus) {
            self.pos += 1;
            Ok(-self.parse_number()?)
        } else {
            self.parse_number()
        }
    }

    fn parse_sketch(&mut self) -> Result<(String, Expr, SpanTree), ParseError> {
        self.expect(&Token::Fn)?;
        let name = self.expect_ident()?;
        self.expect(&Token::LParen)?;
        loop {
            let start = self.pos;
            let p = self.expect_ident()?;
            if self.params.contains(&p) {
                return self.err(format!("duplicate parameter `{p}`"));
            }
            self.params.push(p);
            self.param_spans.push(self.span_from(start));
            match self.peek() {
                Some(Token::Comma) => {
                    self.pos += 1;
                }
                _ => break,
            }
        }
        self.expect(&Token::RParen)?;
        self.expect(&Token::LBrace)?;
        let (body, spans) = self.parse_expr()?;
        self.expect(&Token::RBrace)?;
        if self.pos != self.toks.len() {
            return self.err("trailing input after sketch body");
        }
        Ok((name, body, spans))
    }

    fn parse_expr(&mut self) -> Result<(Expr, SpanTree), ParseError> {
        if self.peek() == Some(&Token::If) {
            let start = self.pos;
            self.pos += 1;
            let ((cond, csp), (then, tsp), (els, esp)) = self.nested(|p| {
                let cond = p.parse_bexpr()?;
                p.expect(&Token::Then)?;
                let then = p.parse_expr()?;
                p.expect(&Token::Else)?;
                Ok((cond, then, p.parse_expr()?))
            })?;
            let sp = self.node(start, vec![csp, tsp, esp])?;
            return Ok((Expr::If(Arc::new(cond), Arc::new(then), Arc::new(els)), sp));
        }
        self.parse_arith()
    }

    fn parse_arith(&mut self) -> Result<(Expr, SpanTree), ParseError> {
        let start = self.pos;
        let (mut lhs, mut lsp) = self.parse_term()?;
        loop {
            let add = match self.peek() {
                Some(Token::Plus) => true,
                Some(Token::Minus) => false,
                _ => return Ok((lhs, lsp)),
            };
            self.pos += 1;
            let (rhs, rsp) = self.parse_term()?;
            let sp = self.node(start, vec![lsp, rsp])?;
            lhs = if add {
                Expr::Add(Arc::new(lhs), Arc::new(rhs))
            } else {
                Expr::Sub(Arc::new(lhs), Arc::new(rhs))
            };
            lsp = sp;
        }
    }

    fn parse_term(&mut self) -> Result<(Expr, SpanTree), ParseError> {
        let start = self.pos;
        let (mut lhs, mut lsp) = self.parse_factor()?;
        loop {
            let mul = match self.peek() {
                Some(Token::Star) => true,
                Some(Token::Slash) => false,
                _ => return Ok((lhs, lsp)),
            };
            self.pos += 1;
            let (rhs, rsp) = self.parse_factor()?;
            let sp = self.node(start, vec![lsp, rsp])?;
            lhs = if mul {
                Expr::Mul(Arc::new(lhs), Arc::new(rhs))
            } else {
                Expr::Div(Arc::new(lhs), Arc::new(rhs))
            };
            lsp = sp;
        }
    }

    fn parse_factor(&mut self) -> Result<(Expr, SpanTree), ParseError> {
        if self.peek() == Some(&Token::Minus) {
            let start = self.pos;
            self.pos += 1;
            let (inner, isp) = self.nested(Parser::parse_factor)?;
            let sp = self.node(start, vec![isp])?;
            return Ok((Expr::Neg(Arc::new(inner)), sp));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<(Expr, SpanTree), ParseError> {
        let start = self.pos;
        match self.peek().cloned() {
            Some(Token::Number(_)) => {
                let n = self.parse_number()?;
                Ok((Expr::Num(n), SpanTree::leaf(self.span_from(start))))
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                match self.params.iter().position(|p| p == &name) {
                    Some(i) => Ok((Expr::Param(i), SpanTree::leaf(self.span_from(start)))),
                    None => {
                        self.pos -= 1;
                        self.err(format!("unknown identifier `{name}` (not a parameter)"))
                    }
                }
            }
            Some(Token::HoleMark) => {
                self.pos += 1;
                let e = self.parse_hole(start)?;
                Ok((e, SpanTree::leaf(self.span_from(start))))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let (e, mut sp) = self.nested(Parser::parse_expr)?;
                self.expect(&Token::RParen)?;
                // Parentheses widen the inner node's span without adding
                // an AST node (the span tree stays isomorphic to the AST).
                sp.span = self.span_from(start);
                Ok((e, sp))
            }
            Some(tok @ (Token::Min | Token::Max)) => {
                self.pos += 1;
                self.expect(&Token::LParen)?;
                let ((a, asp), (b, bsp)) = self.nested(|p| {
                    let a = p.parse_expr()?;
                    p.expect(&Token::Comma)?;
                    Ok((a, p.parse_expr()?))
                })?;
                self.expect(&Token::RParen)?;
                let sp = self.node(start, vec![asp, bsp])?;
                Ok(if tok == Token::Min {
                    (Expr::Min(Arc::new(a), Arc::new(b)), sp)
                } else {
                    (Expr::Max(Arc::new(a), Arc::new(b)), sp)
                })
            }
            Some(other) => self.err(format!("expected expression, found `{other}`")),
            None => self.err("expected expression, found end of input"),
        }
    }

    /// `start` is the token index of the `??` marker, so the recorded
    /// declaration span covers `??name` plus any `in [lo, hi]` range.
    fn parse_hole(&mut self, start: usize) -> Result<Expr, ParseError> {
        let name = self.expect_ident()?;
        let bounds = if self.peek() == Some(&Token::In) {
            self.pos += 1;
            self.expect(&Token::LBracket)?;
            let lo = self.parse_signed_number()?;
            self.expect(&Token::Comma)?;
            let hi = self.parse_signed_number()?;
            self.expect(&Token::RBracket)?;
            if lo > hi {
                return self.err(format!("hole `{name}` range has lo > hi"));
            }
            Some((lo, hi))
        } else {
            None
        };
        if let Some(i) = self.holes.iter().position(|h| h.name == name) {
            // Re-reference: ranges must agree (or the new one be absent).
            match (&self.holes[i].bounds, &bounds) {
                (_, None) => {}
                (None, Some(b)) => self.holes[i].bounds = Some(b.clone()),
                (Some(a), Some(b)) if a == b => {}
                _ => return self.err(format!("hole `{name}` re-declared with a different range")),
            }
            return Ok(Expr::Hole(i));
        }
        self.holes.push(HoleDecl { name, bounds });
        self.hole_spans.push(self.span_from(start));
        Ok(Expr::Hole(self.holes.len() - 1))
    }

    fn parse_bexpr(&mut self) -> Result<(BExpr, SpanTree), ParseError> {
        let start = self.pos;
        let (mut lhs, mut lsp) = self.parse_bterm()?;
        while self.peek() == Some(&Token::OrOr) {
            self.pos += 1;
            let (rhs, rsp) = self.parse_bterm()?;
            let sp = self.node(start, vec![lsp, rsp])?;
            lhs = BExpr::Or(Arc::new(lhs), Arc::new(rhs));
            lsp = sp;
        }
        Ok((lhs, lsp))
    }

    fn parse_bterm(&mut self) -> Result<(BExpr, SpanTree), ParseError> {
        let start = self.pos;
        let (mut lhs, mut lsp) = self.parse_bfact()?;
        while self.peek() == Some(&Token::AndAnd) {
            self.pos += 1;
            let (rhs, rsp) = self.parse_bfact()?;
            let sp = self.node(start, vec![lsp, rsp])?;
            lhs = BExpr::And(Arc::new(lhs), Arc::new(rhs));
            lsp = sp;
        }
        Ok((lhs, lsp))
    }

    fn parse_bfact(&mut self) -> Result<(BExpr, SpanTree), ParseError> {
        let start = self.pos;
        if self.peek() == Some(&Token::Bang) {
            self.pos += 1;
            let (inner, isp) = self.nested(Parser::parse_bfact)?;
            let sp = self.node(start, vec![isp])?;
            return Ok((BExpr::Not(Arc::new(inner)), sp));
        }
        // Disambiguate `(`: it may open a boolean group or a numeric
        // sub-expression of a comparison. Try boolean group first with
        // backtracking. Hole declarations (and their spans) made inside a
        // failed attempt are rolled back; span trees are built functionally
        // so discarding the attempt's return value discards its spans.
        if self.peek() == Some(&Token::LParen) {
            let save = self.pos;
            self.pos += 1;
            let saved_holes = self.holes.clone();
            let saved_hole_spans = self.hole_spans.clone();
            if let Ok((b, mut sp)) = self.nested(Parser::parse_bexpr) {
                if self.peek() == Some(&Token::RParen) {
                    self.pos += 1;
                    sp.span = self.span_from(start);
                    return Ok((b, sp));
                }
            }
            self.pos = save;
            self.holes = saved_holes;
            self.hole_spans = saved_hole_spans;
        }
        let (lhs, lsp) = self.parse_arith()?;
        let op = match self.peek() {
            Some(Token::Lt) => CmpKind::Lt,
            Some(Token::Le) => CmpKind::Le,
            Some(Token::Gt) => CmpKind::Gt,
            Some(Token::Ge) => CmpKind::Ge,
            Some(Token::EqEq) => CmpKind::Eq,
            Some(Token::Ne) => CmpKind::Ne,
            _ => return self.err("expected comparison operator in condition"),
        };
        self.pos += 1;
        let (rhs, rsp) = self.parse_arith()?;
        let sp = self.node(start, vec![lsp, rsp])?;
        Ok((BExpr::Cmp(op, Arc::new(lhs), Arc::new(rhs)), sp))
    }
}

/// Parse a full sketch definition.
///
/// # Errors
/// Returns [`ParseError`] on any lexical or syntactic problem; the error
/// carries a byte offset where available.
pub fn parse_sketch(src: &str) -> Result<Sketch, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        params: Vec::new(),
        holes: Vec::new(),
        param_spans: Vec::new(),
        hole_spans: Vec::new(),
        depth: 0,
    };
    let (name, body, body_spans) = p.parse_sketch()?;
    let spans = SketchSpans {
        source: src.to_owned(),
        params: p.param_spans,
        holes: p.hole_spans,
        body: body_spans,
    };
    Ok(Sketch::from_parts(name, p.params, p.holes, body, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Sketch {
        parse_sketch(src).unwrap()
    }

    #[test]
    fn minimal_sketch() {
        let s = parse("fn f(x) { x + 1 }");
        assert_eq!(s.name(), "f");
        assert_eq!(s.params(), ["x"]);
        assert!(s.holes().is_empty());
    }

    #[test]
    fn swan_figure_2a() {
        let s = parse(
            "fn objective(throughput, latency) {
                if throughput >= ??tp_thrsh in [0, 10] && latency <= ??l_thrsh in [0, 200] then
                    throughput - ??slope1 in [0, 10] * throughput * latency + 1000
                else
                    throughput - ??slope2 in [0, 10] * throughput * latency
            }",
        );
        assert_eq!(s.params(), ["throughput", "latency"]);
        let names: Vec<_> = s.holes().iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["tp_thrsh", "l_thrsh", "slope1", "slope2"]);
        assert_eq!(s.holes()[1].bounds, Some((Rat::zero(), Rat::from_int(200))));
    }

    #[test]
    fn hole_reference_shares_index() {
        let s = parse("fn f(x) { ??a in [0, 1] * x + ??a }");
        assert_eq!(s.holes().len(), 1);
    }

    #[test]
    fn hole_range_conflict_rejected() {
        let e = parse_sketch("fn f(x) { ??a in [0, 1] + ??a in [0, 2] }").unwrap_err();
        assert!(e.message.contains("different range"), "{e}");
    }

    #[test]
    fn hole_range_backfill() {
        let s = parse("fn f(x) { ??a + ??a in [0, 3] }");
        assert_eq!(s.holes()[0].bounds, Some((Rat::zero(), Rat::from_int(3))));
    }

    #[test]
    fn negative_hole_range() {
        let s = parse("fn f(x) { ??a in [-5, -1] + x }");
        assert_eq!(s.holes()[0].bounds, Some((Rat::from_int(-5), Rat::from_int(-1))));
    }

    #[test]
    fn inverted_hole_range_rejected() {
        assert!(parse_sketch("fn f(x) { ??a in [2, 1] }").is_err());
    }

    #[test]
    fn precedence() {
        use crate::ast::Expr;
        let s = parse("fn f(x, y) { x + y * 2 }");
        match s.body() {
            Expr::Add(_, rhs) => assert!(matches!(**rhs, Expr::Mul(_, _))),
            other => panic!("wrong tree: {other:?}"),
        }
        let s2 = parse("fn f(x, y) { (x + y) * 2 }");
        assert!(matches!(s2.body(), Expr::Mul(_, _)));
    }

    #[test]
    fn unary_minus() {
        let s = parse("fn f(x) { -x * 2 }");
        // -x * 2 parses as (-x) * 2
        assert!(matches!(s.body(), crate::ast::Expr::Mul(_, _)));
    }

    #[test]
    fn min_max_calls() {
        let s = parse("fn f(x, y) { min(x, max(y, 3)) }");
        assert!(matches!(s.body(), crate::ast::Expr::Min(_, _)));
    }

    #[test]
    fn boolean_grouping_and_not() {
        let s = parse("fn f(x, y) { if !(x > 1 || y > 2) && x >= 0 then 1 else 0 }");
        assert_eq!(s.params().len(), 2);
    }

    #[test]
    fn nested_if() {
        let s = parse("fn f(x) { if x > 2 then if x > 5 then 2 else 1 else 0 }");
        assert!(matches!(s.body(), crate::ast::Expr::If(_, _, _)));
    }

    #[test]
    fn errors() {
        assert!(parse_sketch("fn f() { 1 }").is_err(), "empty params");
        assert!(parse_sketch("fn f(x, x) { x }").is_err(), "dup params");
        assert!(parse_sketch("fn f(x) { y }").is_err(), "unknown ident");
        assert!(parse_sketch("fn f(x) { x + }").is_err(), "dangling op");
        assert!(parse_sketch("fn f(x) { x } trailing").is_err(), "trailing");
        assert!(parse_sketch("fn f(x) { if x then 1 else 0 }").is_err(), "non-bool cond");
        assert!(parse_sketch("f(x) { x }").is_err(), "missing fn");
    }

    #[test]
    fn spans_cover_source_text() {
        let src = "fn f(x, y) { if x >= ??h in [0, 10] then (x + y) * 2 else y / 3 }";
        let s = parse(src);
        assert_eq!(s.source(), src);
        // Parameter spans slice back to the parameter names.
        let pspans = &s.spans().params;
        assert_eq!(&src[pspans[0].start..pspans[0].end], "x");
        assert_eq!(&src[pspans[1].start..pspans[1].end], "y");
        // The hole declaration span covers the marker, name and range.
        let h = s.spans().holes[0];
        assert_eq!(&src[h.start..h.end], "??h in [0, 10]");
        // The body span tree is isomorphic to the AST: If has
        // [cond, then, else]; parens widen the `then` node's span.
        let body = &s.spans().body;
        assert_eq!(body.children.len(), 3);
        let cond = body.child(0);
        assert_eq!(&src[cond.span.start..cond.span.end], "x >= ??h in [0, 10]");
        let then = body.child(1);
        assert_eq!(&src[then.span.start..then.span.end], "(x + y) * 2");
        assert_eq!(&src[then.child(0).span.start..then.child(0).span.end], "(x + y)");
        let els = body.child(2);
        assert_eq!(&src[els.span.start..els.span.end], "y / 3");
        // Line/column rendering: the whole body starts on line 1.
        assert_eq!(body.span.line_col(src).0, 1);
    }

    #[test]
    fn span_tree_survives_bool_backtracking() {
        // The `(` in the condition is first tried as a boolean group (which
        // fails at `+`), then reparsed as arithmetic; hole spans recorded
        // during the failed attempt must be rolled back.
        let src = "fn f(x) { if (??a in [0, 1] + x) > 1 then 1 else 0 }";
        let s = parse(src);
        assert_eq!(s.holes().len(), 1);
        assert_eq!(s.spans().holes.len(), 1);
        let h = s.spans().holes[0];
        assert_eq!(&src[h.start..h.end], "??a in [0, 1]");
        let cond = s.spans().body.child(0);
        assert_eq!(&src[cond.span.start..cond.span.end], "(??a in [0, 1] + x) > 1");
    }

    #[test]
    fn decimal_literals_exact() {
        let s = parse("fn f(x) { x * 0.25 }");
        match s.body() {
            crate::ast::Expr::Mul(_, rhs) => match &**rhs {
                crate::ast::Expr::Num(r) => assert_eq!(*r, Rat::from_frac(1, 4)),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    /// A one-parameter sketch whose body nests `depth` groupings of one
    /// kind around `x`.
    fn nested_src(kind: &str, depth: usize) -> String {
        let r = |s: &str| s.repeat(depth);
        let body = match kind {
            "paren" => format!("{}x{}", r("("), r(")")),
            "neg" => format!("{}x", r("-")),
            "if" => format!("{}x{}", r("if x > 0 then "), r(" else 0")),
            "min" => format!("{}x{}", r("min(x, "), r(")")),
            "max" => format!("{}x{}", r("max(x, "), r(")")),
            // The `if` and the condition's group are two of the levels.
            "not" => format!("if {}(x > 0) then 1 else 0", "!".repeat(depth - 2)),
            _ => unreachable!("unknown nesting kind {kind}"),
        };
        format!("fn f(x) {{ {body} }}")
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for (kind, depth) in [
            ("paren", 10_000),
            ("neg", 100_000),
            ("if", 10_000),
            ("min", 10_000),
            ("max", 10_000),
            ("not", 10_000),
        ] {
            let e = parse_sketch(&nested_src(kind, depth)).unwrap_err();
            assert!(e.message.contains("nesting deeper than"), "{kind}: {e}");
            assert!(e.offset.is_some(), "{kind}: error carries a source offset");
        }
    }

    #[test]
    fn nesting_at_the_bound_parses_and_lowers() {
        use cso_logic::Term;
        for kind in ["paren", "neg", "if", "min", "max", "not"] {
            let s = parse(&nested_src(kind, MAX_NESTING));
            let _ = s.lower(&[], &[Term::constant(Rat::from_int(1))]);
            let past = parse_sketch(&nested_src(kind, MAX_NESTING + 1));
            assert!(past.is_err(), "{kind}: one past the bound");
        }
    }

    /// A one-parameter sketch whose body is a flat chain of `terms`
    /// operands joined by `op`, and the depth of its AST.
    fn chain_src(op: &str, terms: usize) -> (String, usize) {
        let chain = |atom: &str| vec![atom; terms].join(&format!(" {op} "));
        match op {
            // `if` over the chain, whose operands are `x > 0` comparisons.
            "&&" => (format!("fn f(x) {{ if {} then 1 else 0 }}", chain("x > 0")), terms + 2),
            _ => (format!("fn f(x) {{ {} }}", chain("x")), terms),
        }
    }

    #[test]
    fn long_chains_are_an_error_not_a_stack_overflow() {
        for op in ["+", "*", "&&"] {
            let e = parse_sketch(&chain_src(op, 100_000).0).unwrap_err();
            assert!(e.message.contains("expression deeper than"), "{op}: {e}");
            assert!(e.offset.is_some(), "{op}: error carries a source offset");
        }
    }

    #[test]
    fn chains_at_the_bound_parse_lower_and_drop() {
        use cso_logic::Term;
        for op in ["+", "*", "&&"] {
            let extra = chain_src(op, 1).1 - 1;
            let (src, depth) = chain_src(op, MAX_DEPTH - extra);
            assert_eq!(depth, MAX_DEPTH);
            let s = parse(&src);
            assert_eq!(s.spans().body.depth(), MAX_DEPTH, "{op}");
            let _ = s.lower(&[], &[Term::constant(Rat::from_int(1))]);
            drop(s);
            let past = parse_sketch(&chain_src(op, MAX_DEPTH - extra + 1).0);
            assert!(past.is_err(), "{op}: one past the bound");
        }
    }
}
