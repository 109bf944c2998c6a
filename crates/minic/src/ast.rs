//! Abstract syntax tree for MiniC.
//!
//! Every statement and expression carries the 1-based source line it
//! starts on; those lines are the currency of all debug-information
//! metrics in this workspace.

/// A full MiniC translation unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub items: Vec<Item>,
}

impl Program {
    /// Iterates over the functions defined in the program.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|i| match i {
            Item::Function(f) => Some(f),
            _ => None,
        })
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions().find(|f| f.name == name)
    }

    /// Iterates over global variable declarations.
    pub fn globals(&self) -> impl Iterator<Item = &GlobalDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Global(g) => Some(g),
            _ => None,
        })
    }
}

/// A top-level item: a function definition or a global declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    Function(Function),
    Global(GlobalDecl),
}

/// A global variable: scalar (with optional constant initializer) or array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDecl {
    pub name: String,
    /// `None` for scalars, `Some(len)` for arrays.
    pub array_len: Option<u32>,
    /// Initial value for scalars (defaults to 0). Arrays are zeroed.
    pub init: i64,
    pub line: u32,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    pub name: String,
    pub params: Vec<Param>,
    pub body: Vec<Stmt>,
    /// Line of the `int name(...)` header.
    pub line: u32,
    /// Line of the closing brace.
    pub end_line: u32,
}

/// A function parameter (always scalar `int`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    pub name: String,
    pub line: u32,
}

/// A statement with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub line: u32,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `int x;` or `int x = e;`
    Decl {
        name: String,
        init: Option<Expr>,
    },
    /// `int a[N];`
    ArrayDecl {
        name: String,
        len: u32,
    },
    /// `x = e;` (compound assignments are desugared by the parser)
    Assign {
        name: String,
        value: Expr,
    },
    /// `a[i] = e;`
    Store {
        name: String,
        index: Expr,
        value: Expr,
    },
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    While {
        cond: Expr,
        body: Vec<Stmt>,
    },
    DoWhile {
        body: Vec<Stmt>,
        cond: Expr,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Box<Stmt>>,
        body: Vec<Stmt>,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    /// Expression evaluated for side effects (typically a call).
    ExprStmt(Expr),
    /// `{ ... }`: a nested lexical block.
    Block(Vec<Stmt>),
}

/// An expression with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    pub kind: ExprKind,
    pub line: u32,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    Int(i64),
    Var(String),
    Index {
        name: String,
        index: Box<Expr>,
    },
    Unary {
        op: UnOp,
        operand: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Short-circuit `&&`.
    LogicalAnd {
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Short-circuit `||`.
    LogicalOr {
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `c ? a : b`
    Ternary {
        cond: Box<Expr>,
        then_val: Box<Expr>,
        else_val: Box<Expr>,
    },
    Call {
        callee: String,
        args: Vec<Expr>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
}

/// Binary (non-short-circuit) operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl BinOp {
    /// Evaluates the operator on constant operands, using the VM's
    /// wrapping/total semantics (division by zero yields 0, shifts are
    /// masked to 0..63).
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Lt => (a < b) as i64,
            BinOp::Le => (a <= b) as i64,
            BinOp::Gt => (a > b) as i64,
            BinOp::Ge => (a >= b) as i64,
            BinOp::Eq => (a == b) as i64,
            BinOp::Ne => (a != b) as i64,
        }
    }

    /// Whether the operator is commutative.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne
        )
    }
}

impl UnOp {
    /// Evaluates the operator on a constant operand.
    #[inline]
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => (a == 0) as i64,
            UnOp::BitNot => !a,
        }
    }
}

/// Walks all statements in a body, depth-first, invoking `f` on each.
pub fn walk_stmts<'a>(stmts: &'a [Stmt], f: &mut dyn FnMut(&'a Stmt)) {
    for stmt in stmts {
        f(stmt);
        match &stmt.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                walk_stmts(then_branch, f);
                walk_stmts(else_branch, f);
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => walk_stmts(body, f),
            StmtKind::For {
                init, step, body, ..
            } => {
                if let Some(s) = init {
                    walk_stmts(std::slice::from_ref(s), f);
                }
                if let Some(s) = step {
                    walk_stmts(std::slice::from_ref(s), f);
                }
                walk_stmts(body, f);
            }
            StmtKind::Block(body) => walk_stmts(body, f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_total() {
        assert_eq!(BinOp::Div.eval(10, 0), 0);
        assert_eq!(BinOp::Rem.eval(10, 0), 0);
        assert_eq!(BinOp::Shl.eval(1, 64), 1); // masked shift
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN); // wrapping
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(5), -5);
        assert_eq!(UnOp::Not.eval(0), 1);
        assert_eq!(UnOp::Not.eval(3), 0);
        assert_eq!(UnOp::BitNot.eval(0), -1);
    }

    #[test]
    fn commutativity() {
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
    }
}
