//! AST → bytecode compiler.
//!
//! Locals are resolved to slots at compile time by a pre-pass that collects
//! every name assigned anywhere in a function body (assignment, `for` targets,
//! nested `def`s), exactly like CPython's symbol-table pass. Names declared
//! `global` and names that are only read resolve to global loads.

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, Module, Stmt, Target, UnaryOp};
use crate::bytecode::{Code, Const, Op, Program};
use crate::error::{MpError, MpResult, Span};
use crate::parser::parse;

/// Compiles MiniPy source text into a [`Program`].
///
/// # Errors
///
/// Returns lex, parse or compile errors.
pub fn compile(source: &str) -> MpResult<Program> {
    compile_module(&parse(source)?)
}

/// Compiles an already-parsed module.
///
/// # Errors
///
/// Returns [`MpError::Compile`] on semantic errors (bad targets, too many
/// locals, `break` outside a loop, ...).
pub fn compile_module(module: &Module) -> MpResult<Program> {
    let mut program = Program::default();
    // Reserve index 0 for the module body.
    program.codes.push(Code::default());
    let module_code = {
        let mut ctx = FnCtx::module_scope();
        let mut cg = CodeGen::new("<module>".to_string(), &mut program, &mut ctx);
        cg.stmts(&module.body)?;
        let none_idx = cg.const_idx(Const::None)?;
        cg.emit(Op::LoadConst(none_idx), Span::synthetic());
        cg.emit(Op::Return, Span::synthetic());
        cg.finish(0)
    };
    program.codes[0] = module_code;
    Ok(program)
}

/// Per-function compilation context: scope kind and local-slot table.
struct FnCtx {
    /// `None` for module scope (all names are globals).
    locals: Option<HashMap<String, u16>>,
    n_params: u16,
}

impl FnCtx {
    fn module_scope() -> Self {
        FnCtx {
            locals: None,
            n_params: 0,
        }
    }

    fn function_scope(params: &[String], body: &[Stmt], span: Span) -> MpResult<Self> {
        let mut assigned: Vec<String> = Vec::new();
        let mut globals: Vec<String> = Vec::new();
        collect_assigned(body, &mut assigned, &mut globals);
        let mut locals = HashMap::new();
        for p in params {
            if locals.insert(p.clone(), locals.len() as u16).is_some() {
                return Err(MpError::Compile {
                    message: format!("duplicate parameter '{p}'"),
                    span,
                });
            }
        }
        for name in assigned {
            if globals.contains(&name) || locals.contains_key(&name) {
                continue;
            }
            let idx = locals.len();
            if idx > u16::MAX as usize {
                return Err(MpError::Compile {
                    message: "too many locals".into(),
                    span,
                });
            }
            locals.insert(name, idx as u16);
        }
        Ok(FnCtx {
            locals: Some(locals),
            n_params: params.len() as u16,
        })
    }

    fn slot(&self, name: &str) -> Option<u16> {
        self.locals.as_ref().and_then(|m| m.get(name).copied())
    }

    fn n_locals(&self) -> u16 {
        self.locals.as_ref().map(|m| m.len() as u16).unwrap_or(0)
    }
}

/// Collects names assigned in a statement list (without descending into nested
/// `def` bodies — those are separate scopes) plus `global` declarations.
/// Comprehension targets inside expressions are assignments too (MiniPy
/// comprehension variables share the enclosing scope, like Python 2).
fn collect_assigned(body: &[Stmt], assigned: &mut Vec<String>, globals: &mut Vec<String>) {
    fn target_names(t: &Target, out: &mut Vec<String>) {
        match t {
            Target::Name { name, .. } => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            Target::Index { .. } => {}
            Target::Tuple { elts, .. } => {
                for e in elts {
                    target_names(e, out);
                }
            }
        }
    }
    fn expr_targets(root: &Expr, out: &mut Vec<String>) {
        // Iterative worklist: expressions can be arbitrarily deep
        // left-spines (`a + b + c + ...`), so no recursion here.
        let mut work: Vec<&Expr> = vec![root];
        while let Some(e) = work.pop() {
            match e {
                Expr::ListComp {
                    expr,
                    target,
                    iterable,
                    cond,
                    ..
                } => {
                    target_names(target, out);
                    work.push(expr);
                    work.push(iterable);
                    if let Some(c) = cond {
                        work.push(c);
                    }
                }
                Expr::Binary { left, right, .. } | Expr::BoolChain { left, right, .. } => {
                    work.push(left);
                    work.push(right);
                }
                Expr::Unary { operand, .. } => work.push(operand),
                Expr::Call { callee, args, .. } => {
                    work.push(callee);
                    work.extend(args.iter());
                }
                Expr::MethodCall { receiver, args, .. } => {
                    work.push(receiver);
                    work.extend(args.iter());
                }
                Expr::Index { object, index, .. } => {
                    work.push(object);
                    work.push(index);
                }
                Expr::Slice { object, lo, hi, .. } => {
                    work.push(object);
                    if let Some(l) = lo {
                        work.push(l);
                    }
                    if let Some(h) = hi {
                        work.push(h);
                    }
                }
                Expr::List { items, .. } | Expr::Tuple { items, .. } => {
                    work.extend(items.iter());
                }
                Expr::Dict { pairs, .. } => {
                    for (k, v) in pairs {
                        work.push(k);
                        work.push(v);
                    }
                }
                Expr::IfExp {
                    cond, then, orelse, ..
                } => {
                    work.push(cond);
                    work.push(then);
                    work.push(orelse);
                }
                _ => {}
            }
        }
    }
    fn stmt_exprs(stmt: &Stmt, out: &mut Vec<String>) {
        match stmt {
            Stmt::Expr { value } => expr_targets(value, out),
            Stmt::Assign { value, .. } | Stmt::AugAssign { value, .. } => {
                expr_targets(value, out);
            }
            Stmt::If { cond, .. } => expr_targets(cond, out),
            Stmt::While { cond, .. } => expr_targets(cond, out),
            Stmt::For { iterable, .. } => expr_targets(iterable, out),
            Stmt::Return { value: Some(v), .. } => expr_targets(v, out),
            Stmt::DelIndex { object, index, .. } => {
                expr_targets(object, out);
                expr_targets(index, out);
            }
            _ => {}
        }
    }
    for stmt in body {
        stmt_exprs(stmt, assigned);
        match stmt {
            Stmt::Assign { target, .. } | Stmt::AugAssign { target, .. } => {
                target_names(target, assigned);
            }
            Stmt::For { target, body, .. } => {
                target_names(target, assigned);
                collect_assigned(body, assigned, globals);
            }
            Stmt::If { then, orelse, .. } => {
                collect_assigned(then, assigned, globals);
                collect_assigned(orelse, assigned, globals);
            }
            Stmt::While { body, .. } => collect_assigned(body, assigned, globals),
            Stmt::Def { name, .. } if !assigned.contains(name) => {
                assigned.push(name.clone());
            }
            Stmt::Global { names, .. } => {
                for n in names {
                    if !globals.contains(n) {
                        globals.push(n.clone());
                    }
                }
            }
            _ => {}
        }
    }
}

/// Tracks an enclosing loop during codegen, for `break`/`continue` patching.
struct LoopCtx {
    /// Target of `continue` (loop head / `ForIter`).
    continue_target: u32,
    /// Indices of `Jump` placeholders to patch to the loop exit.
    break_jumps: Vec<usize>,
    /// True for `for` loops: the iterator lives on the stack and must be
    /// popped when breaking out.
    is_for: bool,
}

struct CodeGen<'a> {
    name: String,
    ops: Vec<Op>,
    lines: Vec<u32>,
    consts: Vec<Const>,
    names: Vec<String>,
    loops: Vec<LoopCtx>,
    program: &'a mut Program,
    ctx: &'a mut FnCtx,
}

impl<'a> CodeGen<'a> {
    fn new(name: String, program: &'a mut Program, ctx: &'a mut FnCtx) -> Self {
        CodeGen {
            name,
            ops: Vec::new(),
            lines: Vec::new(),
            consts: Vec::new(),
            names: Vec::new(),
            loops: Vec::new(),
            program,
            ctx,
        }
    }

    fn finish(self, _code_slot: usize) -> Code {
        Code {
            name: self.name,
            n_params: self.ctx.n_params,
            n_locals: self.ctx.n_locals(),
            ops: self.ops,
            lines: self.lines,
            consts: self.consts,
            names: self.names,
        }
    }

    fn emit(&mut self, op: Op, span: Span) -> usize {
        self.ops.push(op);
        self.lines.push(span.line);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch_jump(&mut self, at: usize, target: u32) {
        let op = match self.ops[at] {
            Op::Jump(_) => Op::Jump(target),
            Op::PopJumpIfFalse(_) => Op::PopJumpIfFalse(target),
            Op::PopJumpIfTrue(_) => Op::PopJumpIfTrue(target),
            Op::JumpIfFalsePeek(_) => Op::JumpIfFalsePeek(target),
            Op::JumpIfTruePeek(_) => Op::JumpIfTruePeek(target),
            Op::ForIter(_) => Op::ForIter(target),
            other => panic!("patch_jump on non-jump {other:?}"),
        };
        self.ops[at] = op;
    }

    fn const_idx(&mut self, c: Const) -> MpResult<u16> {
        if let Some(i) = self.consts.iter().position(|x| match (x, &c) {
            // Float NaN never equals itself; compare bit patterns for dedup.
            (Const::Float(a), Const::Float(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        }) {
            return Ok(i as u16);
        }
        if self.consts.len() > u16::MAX as usize {
            return Err(MpError::Compile {
                message: "too many constants".into(),
                span: Span::synthetic(),
            });
        }
        self.consts.push(c);
        Ok((self.consts.len() - 1) as u16)
    }

    fn name_idx(&mut self, name: &str) -> MpResult<u16> {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return Ok(i as u16);
        }
        if self.names.len() > u16::MAX as usize {
            return Err(MpError::Compile {
                message: "too many names".into(),
                span: Span::synthetic(),
            });
        }
        self.names.push(name.to_string());
        Ok((self.names.len() - 1) as u16)
    }

    fn stmts(&mut self, body: &[Stmt]) -> MpResult<()> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> MpResult<()> {
        match stmt {
            Stmt::Expr { value } => {
                let span = value.span();
                self.expr(value)?;
                self.emit(Op::Pop, span);
            }
            Stmt::Assign { target, value } => match target {
                Target::Index {
                    object,
                    index,
                    span,
                } => {
                    self.expr(object)?;
                    self.expr(index)?;
                    self.expr(value)?;
                    self.emit(Op::IndexStore, *span);
                }
                _ => {
                    self.expr(value)?;
                    self.store_target(target)?;
                }
            },
            Stmt::AugAssign { target, op, value } => self.aug_assign(target, *op, value)?,
            Stmt::If { cond, then, orelse } => {
                let span = cond.span();
                self.expr(cond)?;
                let jf = self.emit(Op::PopJumpIfFalse(0), span);
                self.stmts(then)?;
                if orelse.is_empty() {
                    let end = self.here();
                    self.patch_jump(jf, end);
                } else {
                    let jend = self.emit(Op::Jump(0), span);
                    let else_start = self.here();
                    self.patch_jump(jf, else_start);
                    self.stmts(orelse)?;
                    let end = self.here();
                    self.patch_jump(jend, end);
                }
            }
            Stmt::While { cond, body } => {
                let span = cond.span();
                let head = self.here();
                self.expr(cond)?;
                let jexit = self.emit(Op::PopJumpIfFalse(0), span);
                self.loops.push(LoopCtx {
                    continue_target: head,
                    break_jumps: Vec::new(),
                    is_for: false,
                });
                self.stmts(body)?;
                self.emit(Op::Jump(head), span);
                let exit = self.here();
                self.patch_jump(jexit, exit);
                let ctx = self.loops.pop().expect("loop context pushed above");
                for j in ctx.break_jumps {
                    self.patch_jump(j, exit);
                }
            }
            Stmt::For {
                target,
                iterable,
                body,
            } => {
                let span = iterable.span();
                self.expr(iterable)?;
                self.emit(Op::GetIter, span);
                let head = self.here();
                let for_iter = self.emit(Op::ForIter(0), span);
                self.store_target(target)?;
                self.loops.push(LoopCtx {
                    continue_target: head,
                    break_jumps: Vec::new(),
                    is_for: true,
                });
                self.stmts(body)?;
                self.emit(Op::Jump(head), span);
                let exit = self.here();
                self.patch_jump(for_iter, exit);
                let ctx = self.loops.pop().expect("loop context pushed above");
                for j in ctx.break_jumps {
                    self.patch_jump(j, exit);
                }
            }
            Stmt::Def {
                name,
                params,
                body,
                span,
            } => {
                let code_id = self.compile_function(name, params, body, *span)?;
                let cidx = self.const_idx(Const::Func(code_id))?;
                self.emit(Op::MakeFunction(cidx), *span);
                self.store_name(name, *span)?;
            }
            Stmt::Return { value, span } => {
                match value {
                    Some(v) => self.expr(v)?,
                    None => {
                        let c = self.const_idx(Const::None)?;
                        self.emit(Op::LoadConst(c), *span);
                    }
                }
                self.emit(Op::Return, *span);
            }
            Stmt::Break { span } => {
                let is_for = match self.loops.last() {
                    Some(l) => l.is_for,
                    None => {
                        return Err(MpError::Compile {
                            message: "'break' outside loop".into(),
                            span: *span,
                        });
                    }
                };
                if is_for {
                    // Discard the loop iterator that still sits on the stack.
                    self.emit(Op::Pop, *span);
                }
                let j = self.emit(Op::Jump(0), *span);
                self.loops
                    .last_mut()
                    .expect("checked above")
                    .break_jumps
                    .push(j);
            }
            Stmt::Continue { span } => {
                let target = match self.loops.last() {
                    Some(l) => l.continue_target,
                    None => {
                        return Err(MpError::Compile {
                            message: "'continue' outside loop".into(),
                            span: *span,
                        });
                    }
                };
                self.emit(Op::Jump(target), *span);
            }
            Stmt::Pass => {}
            Stmt::Global { names, span } => {
                // Validity is handled by the scope pre-pass; reject declaring a
                // parameter global, which CPython also refuses.
                for n in names {
                    if self.ctx.slot(n).is_some() {
                        return Err(MpError::Compile {
                            message: format!("name '{n}' is parameter and global"),
                            span: *span,
                        });
                    }
                }
            }
            Stmt::DelIndex {
                object,
                index,
                span,
            } => {
                self.expr(object)?;
                self.expr(index)?;
                self.emit(Op::IndexDel, *span);
            }
        }
        Ok(())
    }

    fn compile_function(
        &mut self,
        name: &str,
        params: &[String],
        body: &[Stmt],
        span: Span,
    ) -> MpResult<usize> {
        let mut ctx = FnCtx::function_scope(params, body, span)?;
        // Reserve the slot in the program before generating code so nested
        // defs receive distinct ids.
        let code_id = self.program.codes.len();
        self.program.codes.push(Code::default());
        let code = {
            let mut cg = CodeGen::new(name.to_string(), self.program, &mut ctx);
            cg.stmts(body)?;
            let c = cg.const_idx(Const::None)?;
            cg.emit(Op::LoadConst(c), span);
            cg.emit(Op::Return, span);
            cg.finish(code_id)
        };
        self.program.codes[code_id] = code;
        Ok(code_id)
    }

    fn store_name(&mut self, name: &str, span: Span) -> MpResult<()> {
        if let Some(slot) = self.ctx.slot(name) {
            self.emit(Op::StoreLocal(slot), span);
        } else {
            let idx = self.name_idx(name)?;
            self.emit(Op::StoreGlobal(idx), span);
        }
        Ok(())
    }

    fn load_name(&mut self, name: &str, span: Span) -> MpResult<()> {
        if let Some(slot) = self.ctx.slot(name) {
            self.emit(Op::LoadLocal(slot), span);
        } else {
            let idx = self.name_idx(name)?;
            self.emit(Op::LoadGlobal(idx), span);
        }
        Ok(())
    }

    /// Compiles a store of TOS into `target`.
    fn store_target(&mut self, target: &Target) -> MpResult<()> {
        match target {
            Target::Name { name, span } => self.store_name(name, *span),
            Target::Index { span, .. } => {
                // `Stmt::Assign` compiles subscript stores directly with
                // operands in [obj, idx, val] order; reaching here means a
                // subscript target in a position we do not support
                // (e.g. `for d[k] in ...`).
                Err(MpError::Compile {
                    message: "subscript target not allowed here".into(),
                    span: *span,
                })
            }
            Target::Tuple { elts, span } => {
                self.emit(Op::UnpackSequence(elts.len() as u16), *span);
                // UnpackSequence pushes elements in reverse so that the first
                // element ends on top; store in source order.
                for t in elts {
                    match t {
                        Target::Name { name, span } => self.store_name(name, *span)?,
                        _ => {
                            return Err(MpError::Compile {
                                message: "only names allowed in tuple unpacking".into(),
                                span: *span,
                            });
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn aug_assign(&mut self, target: &Target, op: BinOp, value: &Expr) -> MpResult<()> {
        match target {
            Target::Name { name, span } => {
                self.load_name(name, *span)?;
                self.expr(value)?;
                self.binary_op(op, *span);
                self.store_name(name, *span)
            }
            Target::Index {
                object,
                index,
                span,
            } => {
                self.expr(object)?;
                self.expr(index)?;
                self.emit(Op::Dup2, *span);
                self.emit(Op::IndexLoad, *span);
                self.expr(value)?;
                self.binary_op(op, *span);
                self.emit(Op::IndexStore, *span);
                Ok(())
            }
            Target::Tuple { span, .. } => Err(MpError::Compile {
                message: "augmented assignment target cannot be a tuple".into(),
                span: *span,
            }),
        }
    }

    fn binary_op(&mut self, op: BinOp, span: Span) {
        let o = match op {
            BinOp::Add => Op::Add,
            BinOp::Sub => Op::Sub,
            BinOp::Mul => Op::Mul,
            BinOp::Div => Op::Div,
            BinOp::FloorDiv => Op::FloorDiv,
            BinOp::Mod => Op::Mod,
            BinOp::Pow => Op::Pow,
            BinOp::Eq => Op::CmpEq,
            BinOp::NotEq => Op::CmpNe,
            BinOp::Lt => Op::CmpLt,
            BinOp::LtEq => Op::CmpLe,
            BinOp::Gt => Op::CmpGt,
            BinOp::GtEq => Op::CmpGe,
            BinOp::In => Op::CmpIn,
            BinOp::NotIn => Op::CmpNotIn,
        };
        self.emit(o, span);
    }

    fn expr(&mut self, e: &Expr) -> MpResult<()> {
        match e {
            Expr::Int { value, span } => {
                let c = self.const_idx(Const::Int(*value))?;
                self.emit(Op::LoadConst(c), *span);
            }
            Expr::Float { value, span } => {
                let c = self.const_idx(Const::Float(*value))?;
                self.emit(Op::LoadConst(c), *span);
            }
            Expr::Str { value, span } => {
                let c = self.const_idx(Const::Str(value.clone()))?;
                self.emit(Op::LoadConst(c), *span);
            }
            Expr::Bool { value, span } => {
                let c = self.const_idx(Const::Bool(*value))?;
                self.emit(Op::LoadConst(c), *span);
            }
            Expr::None { span } => {
                let c = self.const_idx(Const::None)?;
                self.emit(Op::LoadConst(c), *span);
            }
            Expr::Name { name, span } => self.load_name(name, *span)?,
            Expr::Binary { .. } => {
                // Long left-associative chains (`a + b + c + ...`) produce
                // left spines thousands of nodes deep; walk the spine
                // iteratively so compilation depth stays bounded by the
                // nesting of *parenthesized* expressions only.
                let mut spine = Vec::new();
                let mut node = e;
                while let Expr::Binary {
                    op,
                    left,
                    right,
                    span,
                } = node
                {
                    spine.push((*op, right.as_ref(), *span));
                    node = left;
                }
                self.expr(node)?;
                for (op, right, span) in spine.into_iter().rev() {
                    self.expr(right)?;
                    self.binary_op(op, span);
                }
            }
            Expr::Unary { op, operand, span } => {
                self.expr(operand)?;
                match op {
                    UnaryOp::Neg => {
                        self.emit(Op::Neg, *span);
                    }
                    UnaryOp::Not => {
                        self.emit(Op::Not, *span);
                    }
                    UnaryOp::Pos => {} // +x is a no-op on numbers
                }
            }
            Expr::BoolChain {
                is_and,
                left,
                right,
                span,
            } => {
                self.expr(left)?;
                let j = if *is_and {
                    self.emit(Op::JumpIfFalsePeek(0), *span)
                } else {
                    self.emit(Op::JumpIfTruePeek(0), *span)
                };
                self.expr(right)?;
                let end = self.here();
                self.patch_jump(j, end);
            }
            Expr::Call { callee, args, span } => {
                self.expr(callee)?;
                for a in args {
                    self.expr(a)?;
                }
                self.emit(Op::Call(args.len() as u16), *span);
            }
            Expr::MethodCall {
                receiver,
                method,
                args,
                span,
            } => {
                self.expr(receiver)?;
                for a in args {
                    self.expr(a)?;
                }
                let name = self.name_idx(method)?;
                self.emit(
                    Op::CallMethod {
                        name,
                        argc: args.len() as u16,
                    },
                    *span,
                );
            }
            Expr::Index {
                object,
                index,
                span,
            } => {
                self.expr(object)?;
                self.expr(index)?;
                self.emit(Op::IndexLoad, *span);
            }
            Expr::Slice {
                object,
                lo,
                hi,
                span,
            } => {
                self.expr(object)?;
                match lo {
                    Some(l) => self.expr(l)?,
                    None => {
                        let c = self.const_idx(Const::None)?;
                        self.emit(Op::LoadConst(c), *span);
                    }
                }
                match hi {
                    Some(h) => self.expr(h)?,
                    None => {
                        let c = self.const_idx(Const::None)?;
                        self.emit(Op::LoadConst(c), *span);
                    }
                }
                self.emit(Op::SliceLoad, *span);
            }
            Expr::List { items, span } => {
                for i in items {
                    self.expr(i)?;
                }
                self.emit(Op::BuildList(items.len() as u16), *span);
            }
            Expr::Tuple { items, span } => {
                for i in items {
                    self.expr(i)?;
                }
                self.emit(Op::BuildTuple(items.len() as u16), *span);
            }
            Expr::Dict { pairs, span } => {
                for (k, v) in pairs {
                    self.expr(k)?;
                    self.expr(v)?;
                }
                self.emit(Op::BuildDict(pairs.len() as u16), *span);
            }
            Expr::IfExp {
                cond,
                then,
                orelse,
                span,
            } => {
                self.expr(cond)?;
                let jf = self.emit(Op::PopJumpIfFalse(0), *span);
                self.expr(then)?;
                let jend = self.emit(Op::Jump(0), *span);
                let else_start = self.here();
                self.patch_jump(jf, else_start);
                self.expr(orelse)?;
                let end = self.here();
                self.patch_jump(jend, end);
            }
            Expr::ListComp {
                expr,
                target,
                iterable,
                cond,
                span,
            } => {
                // [expr for target in iterable if cond] compiles to:
                //   BuildList(0); <iterable>; GetIter
                //   head: ForIter(exit); store target
                //         [cond; PopJumpIfFalse(head)]
                //         <expr>; ListAppend(2); Jump(head)
                //   exit:               -- ForIter popped the iterator
                self.emit(Op::BuildList(0), *span);
                self.expr(iterable)?;
                self.emit(Op::GetIter, *span);
                let head = self.here();
                let for_iter = self.emit(Op::ForIter(0), *span);
                self.store_target(target)?;
                if let Some(c) = cond {
                    self.expr(c)?;
                    self.emit(Op::PopJumpIfFalse(head), *span);
                }
                self.expr(expr)?;
                self.emit(Op::ListAppend(2), *span);
                self.emit(Op::Jump(head), *span);
                let exit = self.here();
                self.patch_jump(for_iter, exit);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_ok(src: &str) -> Program {
        compile(src).unwrap_or_else(|e| panic!("compile failed: {e}\nsource:\n{src}"))
    }

    #[test]
    fn module_body_is_code_zero() {
        let p = compile_ok("x = 1\n");
        assert_eq!(p.codes[0].name, "<module>");
        assert!(p.codes[0].ops.contains(&Op::StoreGlobal(0)));
    }

    #[test]
    fn function_locals_get_slots() {
        let p = compile_ok("def f(a, b):\n    c = a + b\n    return c\n");
        let f = &p.codes[1];
        assert_eq!(f.n_params, 2);
        assert_eq!(f.n_locals, 3);
        assert!(f.ops.contains(&Op::LoadLocal(0)));
        assert!(f.ops.contains(&Op::StoreLocal(2)));
        // No global traffic inside the function body.
        assert!(!f
            .ops
            .iter()
            .any(|o| matches!(o, Op::LoadGlobal(_) | Op::StoreGlobal(_))));
    }

    #[test]
    fn read_only_names_are_global_loads() {
        let p = compile_ok("def f():\n    return N + 1\n");
        let f = &p.codes[1];
        assert!(f.ops.iter().any(|o| matches!(o, Op::LoadGlobal(_))));
        assert_eq!(f.n_locals, 0);
    }

    #[test]
    fn global_declaration_forces_global_store() {
        let p = compile_ok("def f():\n    global n\n    n = 1\n");
        let f = &p.codes[1];
        assert!(f.ops.iter().any(|o| matches!(o, Op::StoreGlobal(_))));
        assert_eq!(f.n_locals, 0);
    }

    #[test]
    fn while_loop_shape() {
        let p = compile_ok("i = 0\nwhile i < 10:\n    i += 1\n");
        let m = &p.codes[0];
        // Contains a backward jump.
        let has_backedge = m
            .ops
            .iter()
            .enumerate()
            .any(|(i, op)| matches!(op, Op::Jump(t) if (*t as usize) < i));
        assert!(has_backedge, "{}", m.disassemble());
    }

    #[test]
    fn for_loop_uses_iter_protocol() {
        let p = compile_ok("for i in range(10):\n    pass\n");
        let m = &p.codes[0];
        assert!(m.ops.contains(&Op::GetIter));
        assert!(m.ops.iter().any(|o| matches!(o, Op::ForIter(_))));
    }

    #[test]
    fn break_in_for_pops_iterator() {
        let p = compile_ok("for i in range(10):\n    break\n");
        let m = &p.codes[0];
        let for_pos = m
            .ops
            .iter()
            .position(|o| matches!(o, Op::ForIter(_)))
            .unwrap();
        // A Pop must appear between ForIter and the break Jump.
        let pop_after = m.ops[for_pos..].iter().any(|o| matches!(o, Op::Pop));
        assert!(pop_after, "{}", m.disassemble());
    }

    #[test]
    fn break_outside_loop_is_error() {
        assert!(compile("break\n").is_err());
        assert!(compile("continue\n").is_err());
    }

    #[test]
    fn aug_assign_subscript_uses_dup2() {
        let p = compile_ok("d = {}\nd[1] = 0\n");
        // Plain subscript assign is compiled via Assign path below.
        let p2 = compile_ok("a = [0]\na[0] += 5\n");
        assert!(p2.codes[0].ops.contains(&Op::Dup2));
        assert!(p.codes[0].ops.contains(&Op::IndexStore));
    }

    #[test]
    fn consts_are_deduplicated() {
        let p = compile_ok("a = 7\nb = 7\nc = 7\n");
        let ints = p.codes[0]
            .consts
            .iter()
            .filter(|c| matches!(c, Const::Int(7)))
            .count();
        assert_eq!(ints, 1);
    }

    #[test]
    fn nested_def_gets_own_code() {
        let p =
            compile_ok("def outer():\n    def inner():\n        return 1\n    return inner()\n");
        assert_eq!(p.codes.len(), 3);
        assert_eq!(p.codes[2].name, "inner");
    }

    #[test]
    fn tuple_unpack_emits_unpack_sequence() {
        let p = compile_ok("a, b = 1, 2\n");
        assert!(p.codes[0]
            .ops
            .iter()
            .any(|o| matches!(o, Op::UnpackSequence(2))));
    }

    #[test]
    fn method_call_opcode() {
        let p = compile_ok("l = []\nl.append(1)\n");
        assert!(p.codes[0]
            .ops
            .iter()
            .any(|o| matches!(o, Op::CallMethod { argc: 1, .. })));
    }

    #[test]
    fn and_or_short_circuit_shapes() {
        let p = compile_ok("x = a and b\ny = a or b\n");
        let m = &p.codes[0];
        assert!(m.ops.iter().any(|o| matches!(o, Op::JumpIfFalsePeek(_))));
        assert!(m.ops.iter().any(|o| matches!(o, Op::JumpIfTruePeek(_))));
    }

    #[test]
    fn duplicate_param_rejected() {
        assert!(compile("def f(a, a):\n    return a\n").is_err());
    }

    #[test]
    fn jump_targets_in_bounds() {
        let p = compile_ok(
            "def f(n):\n    s = 0\n    for i in range(n):\n        if i % 2 == 0:\n            s += i\n        else:\n            s -= 1\n    return s\n",
        );
        for code in &p.codes {
            for op in &code.ops {
                if let Some(t) = op.jump_target() {
                    assert!((t as usize) <= code.ops.len(), "{}", code.disassemble());
                }
            }
        }
    }
}
