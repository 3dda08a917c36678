//! Resolved sketch AST.
//!
//! After parsing, parameters and holes are interned to dense indices:
//! `Expr::Param(i)` is the i-th function parameter (a metric such as
//! throughput), `Expr::Hole(i)` is the i-th declared hole. The AST is
//! immutable and shared via `Arc` where sub-expressions repeat.

use cso_numeric::Rat;
use std::fmt;
use std::sync::Arc;

/// A half-open byte range `[start, end)` into the sketch source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Build a span; `start` must not exceed `end`.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Span {
        debug_assert!(start <= end, "inverted span {start}..{end}");
        Span { start, end }
    }

    /// The smallest span covering both operands.
    #[must_use]
    pub fn join(self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// 1-based (line, column) of the span's start within `src`.
    #[must_use]
    pub fn line_col(self, src: &str) -> (usize, usize) {
        let upto = &src[..self.start.min(src.len())];
        let line = upto.bytes().filter(|&b| b == b'\n').count() + 1;
        let col = upto.rfind('\n').map_or(self.start + 1, |nl| self.start - nl);
        (line, col)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Source spans for a sketch body: a tree isomorphic to the `Expr`/`BExpr`
/// tree it was parsed from, kept separate so the AST itself stays purely
/// structural (structural `PartialEq` is used throughout the engine).
///
/// Child order is fixed: unary nodes have one child, binary nodes have
/// `[lhs, rhs]`, and `If` has `[cond, then, else]`. Parenthesised
/// sub-expressions widen a node's own span without adding a child.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// Span of this AST node (including any surrounding parentheses).
    pub span: Span,
    /// Spans of the node's children, in the fixed order above.
    pub children: Vec<SpanTree>,
    /// Height of the subtree, counting this node (1 for a leaf).
    depth: usize,
}

impl SpanTree {
    /// A leaf node (literal, parameter or hole reference).
    #[must_use]
    pub fn leaf(span: Span) -> SpanTree {
        SpanTree { span, children: Vec::new(), depth: 1 }
    }

    /// An interior node with the given children.
    #[must_use]
    pub fn node(span: Span, children: Vec<SpanTree>) -> SpanTree {
        let depth = 1 + children.iter().map(|c| c.depth).max().unwrap_or(0);
        SpanTree { span, children, depth }
    }

    /// Height of the tree (and of the AST it mirrors): 1 for a leaf.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The i-th child.
    ///
    /// # Panics
    /// Panics when the child does not exist (the tree is isomorphic to the
    /// AST by construction, so a miss is a walker bug).
    #[must_use]
    pub fn child(&self, i: usize) -> &SpanTree {
        &self.children[i]
    }
}

/// All source-location data the parser records alongside a [`crate::Sketch`]:
/// the original source text plus spans for parameters, hole declarations and
/// every body AST node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchSpans {
    /// The sketch source text the spans index into.
    pub source: String,
    /// Span of each parameter name in the signature, in parameter order.
    pub params: Vec<Span>,
    /// Span of each hole's first occurrence (`??name` plus any range), in
    /// hole declaration order.
    pub holes: Vec<Span>,
    /// Spans of the body, isomorphic to the body AST.
    pub body: SpanTree,
}

/// A declared hole: a named unknown constant the synthesizer must fill.
#[derive(Debug, Clone, PartialEq)]
pub struct HoleDecl {
    /// Hole name as written after `??`.
    pub name: String,
    /// Optional range from `in [lo, hi]`; holes without explicit ranges
    /// inherit the engine-wide default hole range.
    pub bounds: Option<(Rat, Rat)>,
}

/// A numeric expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal rational.
    Num(Rat),
    /// The i-th function parameter.
    Param(usize),
    /// The i-th declared hole.
    Hole(usize),
    /// Unary minus.
    Neg(Arc<Expr>),
    /// Addition.
    Add(Arc<Expr>, Arc<Expr>),
    /// Subtraction.
    Sub(Arc<Expr>, Arc<Expr>),
    /// Multiplication.
    Mul(Arc<Expr>, Arc<Expr>),
    /// Division.
    Div(Arc<Expr>, Arc<Expr>),
    /// Pointwise minimum.
    Min(Arc<Expr>, Arc<Expr>),
    /// Pointwise maximum.
    Max(Arc<Expr>, Arc<Expr>),
    /// Conditional.
    If(Arc<BExpr>, Arc<Expr>, Arc<Expr>),
}

/// A boolean expression (only usable as an `if` condition).
#[derive(Debug, Clone, PartialEq)]
pub enum BExpr {
    /// Comparison of two numeric expressions.
    Cmp(CmpKind, Arc<Expr>, Arc<Expr>),
    /// Conjunction.
    And(Arc<BExpr>, Arc<BExpr>),
    /// Disjunction.
    Or(Arc<BExpr>, Arc<BExpr>),
    /// Negation.
    Not(Arc<BExpr>),
}

/// Comparison operators in conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Expr {
    /// Count AST nodes (for diagnostics and tests).
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            Expr::Num(_) | Expr::Param(_) | Expr::Hole(_) => 1,
            Expr::Neg(a) => 1 + a.size(),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => 1 + a.size() + b.size(),
            Expr::If(c, a, b) => 1 + c.size() + a.size() + b.size(),
        }
    }

    /// Indices of holes mentioned, sorted and deduplicated.
    #[must_use]
    pub fn holes_used(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_holes(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_holes(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Num(_) | Expr::Param(_) => {}
            Expr::Hole(i) => out.push(*i),
            Expr::Neg(a) => a.collect_holes(out),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => {
                a.collect_holes(out);
                b.collect_holes(out);
            }
            Expr::If(c, a, b) => {
                c.collect_holes(out);
                a.collect_holes(out);
                b.collect_holes(out);
            }
        }
    }
}

impl BExpr {
    /// Count AST nodes.
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            BExpr::Cmp(_, a, b) => 1 + a.size() + b.size(),
            BExpr::And(a, b) | BExpr::Or(a, b) => 1 + a.size() + b.size(),
            BExpr::Not(a) => 1 + a.size(),
        }
    }

    fn collect_holes(&self, out: &mut Vec<usize>) {
        match self {
            BExpr::Cmp(_, a, b) => {
                a.collect_holes(out);
                b.collect_holes(out);
            }
            BExpr::And(a, b) | BExpr::Or(a, b) => {
                a.collect_holes(out);
                b.collect_holes(out);
            }
            BExpr::Not(a) => a.collect_holes(out),
        }
    }
}

impl fmt::Display for CmpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpKind::Lt => "<",
            CmpKind::Le => "<=",
            CmpKind::Gt => ">",
            CmpKind::Ge => ">=",
            CmpKind::Eq => "==",
            CmpKind::Ne => "!=",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_holes() {
        let e = Expr::Add(
            Arc::new(Expr::Hole(1)),
            Arc::new(Expr::Mul(Arc::new(Expr::Param(0)), Arc::new(Expr::Hole(0)))),
        );
        assert_eq!(e.size(), 5);
        assert_eq!(e.holes_used(), vec![0, 1]);
    }

    #[test]
    fn if_holes_include_condition() {
        let c = BExpr::Cmp(CmpKind::Ge, Arc::new(Expr::Param(0)), Arc::new(Expr::Hole(2)));
        let e = Expr::If(Arc::new(c), Arc::new(Expr::Num(Rat::one())), Arc::new(Expr::Hole(2)));
        assert_eq!(e.holes_used(), vec![2]);
    }
}
