//! KIR — the kernel intermediate representation.
//!
//! A deliberately small structured language: enough to express the
//! control flow, buffer manipulation and global-state access patterns
//! that the benchmark CVEs (Table I of the paper) exercise, while keeping
//! the compiler honest about inlining and call graphs.

use std::collections::BTreeMap;
use std::fmt;

use kshot_isa::Cond;

/// Index of a function-local variable slot.
pub type LocalId = usize;

/// Maximum number of parameters (bounded by argument registers `r1`–`r5`).
pub const MAX_PARAMS: usize = 5;

/// An expression; evaluation produces a 64-bit value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Constant.
    Const(u64),
    /// Read parameter `i`.
    Param(usize),
    /// Read local slot.
    Local(LocalId),
    /// Load the first 8 bytes of a named global.
    Global(String),
    /// The address of a named global (for buffer indexing).
    GlobalAddr(String),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Call a function and use its return value.
    Call(String, Vec<Expr>),
    /// Load 8 bytes from a computed address.
    Load(Box<Expr>),
    /// Load 1 byte (zero-extended) from a computed address.
    LoadByte(Box<Expr>),
}

impl Expr {
    /// Constant shorthand.
    pub fn c(v: u64) -> Expr {
        Expr::Const(v)
    }

    /// Parameter shorthand.
    pub fn param(i: usize) -> Expr {
        Expr::Param(i)
    }

    /// Local shorthand.
    pub fn local(i: LocalId) -> Expr {
        Expr::Local(i)
    }

    /// Global-value shorthand.
    pub fn global(name: impl Into<String>) -> Expr {
        Expr::Global(name.into())
    }

    /// Global-address shorthand.
    pub fn global_addr(name: impl Into<String>) -> Expr {
        Expr::GlobalAddr(name.into())
    }

    /// Call shorthand.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call(name.into(), args)
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // deliberate DSL builders
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self − rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self × rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `self ÷ rhs` (unsigned; faults on zero divisor at runtime).
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(self), Box::new(rhs))
    }

    /// `self & rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::And, Box::new(self), Box::new(rhs))
    }

    /// `self | rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Or, Box::new(self), Box::new(rhs))
    }

    /// `self ^ rhs`.
    pub fn xor(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Xor, Box::new(self), Box::new(rhs))
    }

    /// Dereference 8 bytes at `self`.
    pub fn deref(self) -> Expr {
        Expr::Load(Box::new(self))
    }

    /// Names of functions called anywhere in this expression.
    pub fn callees(&self, out: &mut Vec<String>) {
        match self {
            Expr::Call(name, args) => {
                out.push(name.clone());
                for a in args {
                    a.callees(out);
                }
            }
            Expr::Bin(_, a, b) => {
                a.callees(out);
                b.callees(out);
            }
            Expr::Load(a) | Expr::LoadByte(a) => a.callees(out),
            _ => {}
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (runtime fault on zero divisor).
    Div,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

/// A comparison used by `If` and `While`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondExpr {
    /// Condition code applied as `lhs <op> rhs`.
    pub op: Cond,
    /// Left operand.
    pub lhs: Expr,
    /// Right operand.
    pub rhs: Expr,
}

impl CondExpr {
    /// Build a comparison.
    pub fn new(lhs: Expr, op: Cond, rhs: Expr) -> Self {
        Self { op, lhs, rhs }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Assign to a local slot.
    Assign(LocalId, Expr),
    /// Store 8 bytes of `value` into the first word of a global.
    StoreGlobal(String, Expr),
    /// Store 8 bytes of `value` at a computed address.
    Store {
        /// Destination address expression.
        addr: Expr,
        /// Value expression.
        value: Expr,
    },
    /// Store the low byte of `value` at a computed address.
    StoreByte {
        /// Destination address expression.
        addr: Expr,
        /// Value expression.
        value: Expr,
    },
    /// Conditional.
    If {
        /// Branch condition.
        cond: CondExpr,
        /// Statements when the condition holds.
        then: Vec<Stmt>,
        /// Statements when it does not.
        els: Vec<Stmt>,
    },
    /// Pre-tested loop.
    While {
        /// Loop condition.
        cond: CondExpr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Return a value to the caller.
    Return(Expr),
    /// Call a function for effect, discarding the result.
    Call(String, Vec<Expr>),
    /// Deliberate fault — models hitting undefined behaviour (the
    /// interpreter reports a `Trap` fault and kills the task).
    Trap,
}

impl Stmt {
    /// `if cond { then }` with an empty else.
    pub fn if_then(cond: CondExpr, then: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then,
            els: Vec::new(),
        }
    }

    /// Collect called function names into `out`.
    pub fn callees(&self, out: &mut Vec<String>) {
        match self {
            Stmt::Assign(_, e) | Stmt::StoreGlobal(_, e) | Stmt::Return(e) => e.callees(out),
            Stmt::Store { addr, value } | Stmt::StoreByte { addr, value } => {
                addr.callees(out);
                value.callees(out);
            }
            Stmt::If { cond, then, els } => {
                cond.lhs.callees(out);
                cond.rhs.callees(out);
                for s in then.iter().chain(els) {
                    s.callees(out);
                }
            }
            Stmt::While { cond, body } => {
                cond.lhs.callees(out);
                cond.rhs.callees(out);
                for s in body {
                    s.callees(out);
                }
            }
            Stmt::Call(name, args) => {
                out.push(name.clone());
                for a in args {
                    a.callees(out);
                }
            }
            Stmt::Trap => {}
        }
    }

    fn count(&self) -> usize {
        match self {
            Stmt::If { then, els, .. } => {
                1 + then.iter().map(Stmt::count).sum::<usize>()
                    + els.iter().map(Stmt::count).sum::<usize>()
            }
            Stmt::While { body, .. } => 1 + body.iter().map(Stmt::count).sum::<usize>(),
            _ => 1,
        }
    }
}

/// Inlining hint attached to a function, analogous to
/// `__always_inline`/`noinline` in kernel C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InlineHint {
    /// Let the compiler decide based on size (default).
    #[default]
    Auto,
    /// Always inline into callers.
    Always,
    /// Never inline.
    Never,
}

/// A KIR function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name (kernel symbol).
    pub name: String,
    /// Number of parameters (≤ [`MAX_PARAMS`]).
    pub params: usize,
    /// Number of local slots.
    pub locals: usize,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Inlining hint.
    pub inline: InlineHint,
    /// Whether the function gets an ftrace pad when tracing is compiled
    /// in (most kernel functions do; paper: 23,000 of 32,000).
    pub traceable: bool,
}

impl Function {
    /// Create a function with an empty body.
    ///
    /// # Panics
    ///
    /// Panics if `params` exceeds [`MAX_PARAMS`].
    pub fn new(name: impl Into<String>, params: usize, locals: usize) -> Self {
        assert!(params <= MAX_PARAMS, "too many parameters");
        Self {
            name: name.into(),
            params,
            locals,
            body: Vec::new(),
            inline: InlineHint::Auto,
            traceable: true,
        }
    }

    /// Builder: set the body.
    pub fn with_body(mut self, body: Vec<Stmt>) -> Self {
        self.body = body;
        self
    }

    /// Builder: single-statement `return expr` body.
    pub fn returning(mut self, expr: Expr) -> Self {
        self.body = vec![Stmt::Return(expr)];
        self
    }

    /// Builder: set the inline hint.
    pub fn with_inline(mut self, hint: InlineHint) -> Self {
        self.inline = hint;
        self
    }

    /// Builder: mark untraceable (no ftrace pad).
    pub fn untraceable(mut self) -> Self {
        self.traceable = false;
        self
    }

    /// Total statement count (used by the auto-inline heuristic).
    pub fn stmt_count(&self) -> usize {
        self.body.iter().map(Stmt::count).sum()
    }

    /// All function names this function calls (with duplicates).
    pub fn callees(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.body {
            s.callees(&mut out);
        }
        out
    }
}

/// A global variable or buffer in the kernel data segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Initial contents as 64-bit words; the size in bytes is
    /// `words.len() * 8`.
    pub words: Vec<u64>,
}

impl Global {
    /// A single-word global with an initial value.
    pub fn word(name: impl Into<String>, init: u64) -> Self {
        Self {
            name: name.into(),
            words: vec![init],
        }
    }

    /// A zeroed buffer of `words` 64-bit words.
    pub fn buffer(name: impl Into<String>, words: usize) -> Self {
        Self {
            name: name.into(),
            words: vec![0; words],
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        (self.words.len() * 8) as u64
    }
}

/// A complete KIR program — the "kernel source tree".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// Function definitions in declaration order.
    pub functions: Vec<Function>,
    /// Global definitions in declaration order.
    pub globals: Vec<Global>,
}

/// A problem detected by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A call references a function that does not exist.
    UnknownFunction {
        /// The calling function.
        caller: String,
        /// The missing callee.
        callee: String,
    },
    /// A call passes the wrong number of arguments.
    ArityMismatch {
        /// The calling function.
        caller: String,
        /// The callee.
        callee: String,
        /// Expected parameter count.
        expected: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// Two functions share a name.
    DuplicateFunction(String),
    /// Two globals share a name.
    DuplicateGlobal(String),
    /// An expression references a global that does not exist.
    UnknownGlobal {
        /// The function containing the reference.
        function: String,
        /// The missing global.
        global: String,
    },
    /// A `Param(i)` with `i` out of range, or `Local(j)` out of range.
    SlotOutOfRange {
        /// The function containing the reference.
        function: String,
        /// Description of the slot.
        what: &'static str,
        /// The referenced index.
        index: usize,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownFunction { caller, callee } => {
                write!(f, "`{caller}` calls unknown function `{callee}`")
            }
            IrError::ArityMismatch {
                caller,
                callee,
                expected,
                got,
            } => write!(
                f,
                "`{caller}` calls `{callee}` with {got} args, expected {expected}"
            ),
            IrError::DuplicateFunction(n) => write!(f, "duplicate function `{n}`"),
            IrError::DuplicateGlobal(n) => write!(f, "duplicate global `{n}`"),
            IrError::UnknownGlobal { function, global } => {
                write!(f, "`{function}` references unknown global `{global}`")
            }
            IrError::SlotOutOfRange {
                function,
                what,
                index,
            } => write!(f, "`{function}` references {what} {index} out of range"),
        }
    }
}

impl std::error::Error for IrError {}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a function definition.
    pub fn add_function(&mut self, f: Function) -> &mut Self {
        self.functions.push(f);
        self
    }

    /// Add a global definition.
    pub fn add_global(&mut self, g: Global) -> &mut Self {
        self.globals.push(g);
        self
    }

    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a global by name.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Replace an existing function definition, returning the old one.
    ///
    /// This is how patches are expressed at the source level: the patched
    /// tree is the original with some functions replaced.
    pub fn replace_function(&mut self, f: Function) -> Option<Function> {
        let slot = self.functions.iter_mut().find(|g| g.name == f.name)?;
        Some(std::mem::replace(slot, f))
    }

    /// The source-level call graph: caller → sorted, deduplicated callees.
    pub fn call_graph(&self) -> BTreeMap<String, Vec<String>> {
        let mut g = BTreeMap::new();
        for f in &self.functions {
            let mut callees = f.callees();
            callees.sort();
            callees.dedup();
            g.insert(f.name.clone(), callees);
        }
        g
    }

    /// Check referential integrity of the whole program.
    ///
    /// # Errors
    ///
    /// Returns the first [`IrError`] found.
    pub fn validate(&self) -> Result<(), IrError> {
        let mut names = std::collections::HashSet::new();
        for f in &self.functions {
            if !names.insert(&f.name) {
                return Err(IrError::DuplicateFunction(f.name.clone()));
            }
        }
        let mut globals = std::collections::HashSet::new();
        for g in &self.globals {
            if !globals.insert(&g.name) {
                return Err(IrError::DuplicateGlobal(g.name.clone()));
            }
        }
        for f in &self.functions {
            self.validate_stmts(f, &f.body)?;
        }
        Ok(())
    }

    fn validate_stmts(&self, f: &Function, stmts: &[Stmt]) -> Result<(), IrError> {
        for s in stmts {
            match s {
                Stmt::Assign(l, e) => {
                    if *l >= f.locals {
                        return Err(IrError::SlotOutOfRange {
                            function: f.name.clone(),
                            what: "local",
                            index: *l,
                        });
                    }
                    self.validate_expr(f, e)?;
                }
                Stmt::StoreGlobal(g, e) => {
                    self.check_global(f, g)?;
                    self.validate_expr(f, e)?;
                }
                Stmt::Store { addr, value } | Stmt::StoreByte { addr, value } => {
                    self.validate_expr(f, addr)?;
                    self.validate_expr(f, value)?;
                }
                Stmt::If { cond, then, els } => {
                    self.validate_expr(f, &cond.lhs)?;
                    self.validate_expr(f, &cond.rhs)?;
                    self.validate_stmts(f, then)?;
                    self.validate_stmts(f, els)?;
                }
                Stmt::While { cond, body } => {
                    self.validate_expr(f, &cond.lhs)?;
                    self.validate_expr(f, &cond.rhs)?;
                    self.validate_stmts(f, body)?;
                }
                Stmt::Return(e) => self.validate_expr(f, e)?,
                Stmt::Call(name, args) => self.validate_call(f, name, args)?,
                Stmt::Trap => {}
            }
        }
        Ok(())
    }

    fn validate_expr(&self, f: &Function, e: &Expr) -> Result<(), IrError> {
        match e {
            Expr::Const(_) => Ok(()),
            Expr::Param(i) => {
                if *i >= f.params {
                    Err(IrError::SlotOutOfRange {
                        function: f.name.clone(),
                        what: "param",
                        index: *i,
                    })
                } else {
                    Ok(())
                }
            }
            Expr::Local(l) => {
                if *l >= f.locals {
                    Err(IrError::SlotOutOfRange {
                        function: f.name.clone(),
                        what: "local",
                        index: *l,
                    })
                } else {
                    Ok(())
                }
            }
            Expr::Global(g) | Expr::GlobalAddr(g) => self.check_global(f, g),
            Expr::Bin(_, a, b) => {
                self.validate_expr(f, a)?;
                self.validate_expr(f, b)
            }
            Expr::Call(name, args) => self.validate_call(f, name, args),
            Expr::Load(a) | Expr::LoadByte(a) => self.validate_expr(f, a),
        }
    }

    fn validate_call(&self, f: &Function, name: &str, args: &[Expr]) -> Result<(), IrError> {
        let callee = self
            .function(name)
            .ok_or_else(|| IrError::UnknownFunction {
                caller: f.name.clone(),
                callee: name.to_string(),
            })?;
        if callee.params != args.len() {
            return Err(IrError::ArityMismatch {
                caller: f.name.clone(),
                callee: name.to_string(),
                expected: callee.params,
                got: args.len(),
            });
        }
        for a in args {
            self.validate_expr(f, a)?;
        }
        Ok(())
    }

    fn check_global(&self, f: &Function, g: &str) -> Result<(), IrError> {
        if self.global(g).is_none() {
            return Err(IrError::UnknownGlobal {
                function: f.name.clone(),
                global: g.to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_fn_program() -> Program {
        let mut p = Program::new();
        p.add_global(Global::word("counter", 0));
        p.add_function(Function::new("leaf", 1, 0).returning(Expr::param(0).add(Expr::c(1))));
        p.add_function(Function::new("root", 0, 1).with_body(vec![
            Stmt::Assign(0, Expr::call("leaf", vec![Expr::c(41)])),
            Stmt::StoreGlobal("counter".into(), Expr::local(0)),
            Stmt::Return(Expr::local(0)),
        ]));
        p
    }

    #[test]
    fn validate_accepts_well_formed() {
        two_fn_program().validate().unwrap();
    }

    #[test]
    fn validate_rejects_unknown_function() {
        let mut p = two_fn_program();
        p.add_function(
            Function::new("bad", 0, 0).with_body(vec![Stmt::Call("missing".into(), vec![])]),
        );
        assert!(matches!(p.validate(), Err(IrError::UnknownFunction { .. })));
    }

    #[test]
    fn validate_rejects_arity_mismatch() {
        let mut p = two_fn_program();
        p.add_function(
            Function::new("bad", 0, 0).with_body(vec![Stmt::Call("leaf".into(), vec![])]),
        );
        assert!(matches!(p.validate(), Err(IrError::ArityMismatch { .. })));
    }

    #[test]
    fn validate_rejects_unknown_global() {
        let mut p = Program::new();
        p.add_function(Function::new("f", 0, 0).returning(Expr::global("nope")));
        assert!(matches!(p.validate(), Err(IrError::UnknownGlobal { .. })));
    }

    #[test]
    fn validate_rejects_bad_slots() {
        let mut p = Program::new();
        p.add_function(Function::new("f", 1, 1).returning(Expr::param(3)));
        assert!(matches!(p.validate(), Err(IrError::SlotOutOfRange { .. })));
        let mut p2 = Program::new();
        p2.add_function(Function::new("g", 0, 1).with_body(vec![Stmt::Assign(5, Expr::c(0))]));
        assert!(matches!(p2.validate(), Err(IrError::SlotOutOfRange { .. })));
    }

    #[test]
    fn validate_rejects_duplicates() {
        let mut p = Program::new();
        p.add_function(Function::new("f", 0, 0));
        p.add_function(Function::new("f", 0, 0));
        assert!(matches!(p.validate(), Err(IrError::DuplicateFunction(_))));
        let mut p2 = Program::new();
        p2.add_global(Global::word("g", 0));
        p2.add_global(Global::word("g", 1));
        assert!(matches!(p2.validate(), Err(IrError::DuplicateGlobal(_))));
    }

    #[test]
    fn call_graph_collects_nested_calls() {
        let mut p = two_fn_program();
        p.add_function(Function::new("complex", 0, 0).with_body(vec![Stmt::If {
            cond: CondExpr::new(Expr::call("leaf", vec![Expr::c(0)]), Cond::Ne, Expr::c(0)),
            then: vec![Stmt::Call("root".into(), vec![])],
            els: vec![Stmt::Return(Expr::call("leaf", vec![Expr::c(1)]))],
        }]));
        let g = p.call_graph();
        assert_eq!(g["complex"], vec!["leaf".to_string(), "root".to_string()]);
        assert_eq!(g["root"], vec!["leaf".to_string()]);
        assert!(g["leaf"].is_empty());
    }

    #[test]
    fn replace_function_swaps_definition() {
        let mut p = two_fn_program();
        let newer = Function::new("leaf", 1, 0).returning(Expr::param(0).add(Expr::c(2)));
        let old = p.replace_function(newer.clone()).unwrap();
        assert_ne!(old, newer);
        assert_eq!(p.function("leaf"), Some(&newer));
        assert!(p.replace_function(Function::new("ghost", 0, 0)).is_none());
    }

    #[test]
    fn stmt_count_recurses() {
        let f = Function::new("f", 0, 1).with_body(vec![
            Stmt::Assign(0, Expr::c(0)),
            Stmt::While {
                cond: CondExpr::new(Expr::local(0), Cond::B, Expr::c(10)),
                body: vec![
                    Stmt::Assign(0, Expr::local(0).add(Expr::c(1))),
                    Stmt::if_then(
                        CondExpr::new(Expr::local(0), Cond::Eq, Expr::c(5)),
                        vec![Stmt::Trap],
                    ),
                ],
            },
        ]);
        assert_eq!(f.stmt_count(), 5);
    }

    #[test]
    fn global_constructors() {
        let w = Global::word("x", 9);
        assert_eq!(w.size(), 8);
        let b = Global::buffer("buf", 4);
        assert_eq!(b.size(), 32);
        assert!(b.words.iter().all(|&w| w == 0));
    }

    #[test]
    #[should_panic(expected = "too many parameters")]
    fn too_many_params_panics() {
        let _ = Function::new("f", 6, 0);
    }
}
