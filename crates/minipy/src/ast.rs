//! Abstract syntax tree for MiniPy.

use crate::error::Span;

/// A binary operator.
#[allow(missing_docs)] // variants are self-describing operator names
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// True division (`/`): always produces a float, as in Python 3.
    Div,
    /// Floor division (`//`).
    FloorDiv,
    /// Modulo with Python sign semantics.
    Mod,
    /// Power (`**`), right-associative.
    Pow,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// Membership test (`in`).
    In,
    /// Negated membership test (`not in`).
    NotIn,
}

/// A unary operator.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Arithmetic identity (`+x`).
    Pos,
    /// Boolean negation.
    Not,
}

/// An expression node.
#[allow(missing_docs)] // field names (value/span/...) are self-describing
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int { value: i64, span: Span },
    /// Float literal.
    Float { value: f64, span: Span },
    /// String literal.
    Str { value: String, span: Span },
    /// `True` or `False`.
    Bool { value: bool, span: Span },
    /// `None`.
    None { span: Span },
    /// Variable reference.
    Name { name: String, span: Span },
    /// Binary operation.
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
        span: Span,
    },
    /// Unary operation.
    Unary {
        op: UnaryOp,
        operand: Box<Expr>,
        span: Span,
    },
    /// Short-circuit `and` / `or`.
    BoolChain {
        is_and: bool,
        left: Box<Expr>,
        right: Box<Expr>,
        span: Span,
    },
    /// Function call: `callee(args...)`.
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
        span: Span,
    },
    /// Method call: `receiver.method(args...)`.
    MethodCall {
        receiver: Box<Expr>,
        method: String,
        args: Vec<Expr>,
        span: Span,
    },
    /// Subscript: `obj[index]`.
    Index {
        object: Box<Expr>,
        index: Box<Expr>,
        span: Span,
    },
    /// Slice: `obj[lo:hi]` — either bound may be omitted.
    Slice {
        object: Box<Expr>,
        lo: Option<Box<Expr>>,
        hi: Option<Box<Expr>>,
        span: Span,
    },
    /// List display: `[a, b, c]`.
    List { items: Vec<Expr>, span: Span },
    /// Tuple display: `(a, b)` or bare `a, b`.
    Tuple { items: Vec<Expr>, span: Span },
    /// Dict display: `{k: v, ...}`.
    Dict {
        pairs: Vec<(Expr, Expr)>,
        span: Span,
    },
    /// Conditional expression: `a if c else b`.
    IfExp {
        cond: Box<Expr>,
        then: Box<Expr>,
        orelse: Box<Expr>,
        span: Span,
    },
    /// List comprehension: `[expr for target in iterable if cond]`.
    ///
    /// Unlike Python 3, the loop target shares the enclosing scope (as in
    /// Python 2) — a deliberate simplification documented in the crate docs.
    ListComp {
        expr: Box<Expr>,
        target: Box<Target>,
        iterable: Box<Expr>,
        cond: Option<Box<Expr>>,
        span: Span,
    },
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int { span, .. }
            | Expr::Float { span, .. }
            | Expr::Str { span, .. }
            | Expr::Bool { span, .. }
            | Expr::None { span }
            | Expr::Name { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Unary { span, .. }
            | Expr::BoolChain { span, .. }
            | Expr::Call { span, .. }
            | Expr::MethodCall { span, .. }
            | Expr::Index { span, .. }
            | Expr::Slice { span, .. }
            | Expr::List { span, .. }
            | Expr::Tuple { span, .. }
            | Expr::Dict { span, .. }
            | Expr::IfExp { span, .. }
            | Expr::ListComp { span, .. } => *span,
        }
    }
}

/// An assignment target.
#[allow(missing_docs)] // field names (value/span/...) are self-describing
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// Plain variable: `x = ...`.
    Name { name: String, span: Span },
    /// Subscript store: `obj[i] = ...`.
    Index {
        object: Expr,
        index: Expr,
        span: Span,
    },
    /// Tuple unpacking: `a, b = ...`.
    Tuple { elts: Vec<Target>, span: Span },
}

impl Target {
    /// The source span of this target.
    pub fn span(&self) -> Span {
        match self {
            Target::Name { span, .. } | Target::Index { span, .. } | Target::Tuple { span, .. } => {
                *span
            }
        }
    }
}

/// A statement node.
#[allow(missing_docs)] // field names (value/span/...) are self-describing
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Expression evaluated for effect.
    Expr { value: Expr },
    /// `target = value`.
    Assign { target: Target, value: Expr },
    /// `target <op>= value`.
    AugAssign {
        target: Target,
        op: BinOp,
        value: Expr,
    },
    /// `if` / `elif` / `else` chain (elifs are desugared into nested ifs).
    If {
        cond: Expr,
        then: Vec<Stmt>,
        orelse: Vec<Stmt>,
    },
    /// `while cond:` loop.
    While { cond: Expr, body: Vec<Stmt> },
    /// `for target in iterable:` loop.
    For {
        target: Target,
        iterable: Expr,
        body: Vec<Stmt>,
    },
    /// Function definition.
    Def {
        name: String,
        params: Vec<String>,
        body: Vec<Stmt>,
        span: Span,
    },
    /// `return [value]`.
    Return { value: Option<Expr>, span: Span },
    /// `break`.
    Break { span: Span },
    /// `continue`.
    Continue { span: Span },
    /// `pass`.
    Pass,
    /// `global name, ...`.
    Global { names: Vec<String>, span: Span },
    /// `del obj[key]` — removes a dict entry or list element.
    DelIndex {
        object: Expr,
        index: Expr,
        span: Span,
    },
}

/// A parsed module: a sequence of top-level statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// The statements in source order.
    pub body: Vec<Stmt>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_span_accessor() {
        let e = Expr::Int {
            value: 3,
            span: Span::new(5, 6, 2),
        };
        assert_eq!(e.span().start, 5);
    }
}
