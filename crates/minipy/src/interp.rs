//! The bytecode execution loop, shared by both engines.
//!
//! The interpreter engine executes every opcode at interpreter cost. The JIT
//! engine runs the *same* loop but consults [`crate::jit::JitState`]: opcodes
//! inside compiled regions are charged at JIT cost, arithmetic opcodes in
//! compiled regions check type guards, and loop back-edges drive profiling,
//! recording and compilation. Semantics are identical by construction — a
//! property the test suite and property tests verify extensively.

use std::sync::Arc;

use crate::builtins::BuiltinFn;
use crate::bytecode::Op;
use crate::error::{MpError, MpResult, RuntimeErrorKind};
use crate::frame::Frame;
use crate::heap::{Object, Str};
use crate::jit::{BackedgeEvent, GuardOutcome};
use crate::value::Value;
use crate::vm::Vm;

/// Ops between housekeeping checks (GC/jitter/budget).
const HOUSEKEEPING_INTERVAL: u32 = 64;

/// What a `Call` resolved its callee to.
enum CallTarget {
    /// A user function (code object id).
    Function(usize),
    /// A builtin function.
    Builtin(BuiltinFn),
}

impl Vm {
    /// Pushes onto the operand stack without a capacity check.
    ///
    /// SAFETY: the stack-depth dataflow in
    /// [`crate::bytecode::Program::validate`] proves every reachable pc's
    /// depth stays within its code's `max_stack`, and every frame entry
    /// reserves `max_stack` capacity above the frame's base before any push
    /// at that frame's depths can happen. Builtins only push after popping
    /// at least as much (`truncate` + one result), so they never exceed the
    /// depth the dataflow charged to their call op.
    #[inline(always)]
    fn push(&mut self, v: Value) {
        debug_assert!(self.stack.len() < self.stack.capacity());
        unsafe {
            let len = self.stack.len();
            std::ptr::write(self.stack.as_mut_ptr().add(len), v);
            self.stack.set_len(len + 1);
        }
    }

    /// Pops the operand stack without an emptiness check.
    ///
    /// SAFETY: the same validation dataflow proves no reachable op pops more
    /// values than its pc's depth provides (underflow is a load-time error),
    /// so every `pop` the dispatch loop issues has a value to take.
    #[inline(always)]
    fn pop(&mut self) -> Value {
        debug_assert!(!self.stack.is_empty());
        unsafe {
            let len = self.stack.len() - 1;
            self.stack.set_len(len);
            std::ptr::read(self.stack.as_ptr().add(len))
        }
    }

    /// Reads `depth` values below TOS; same safety argument as [`Vm::pop`]
    /// (every peek's depth is covered by its op's validated pop count).
    #[inline(always)]
    fn peek(&self, depth: usize) -> Value {
        debug_assert!(depth < self.stack.len());
        unsafe { *self.stack.get_unchecked(self.stack.len() - 1 - depth) }
    }

    /// Reads local slot `i` of the executing frame without bounds checks.
    ///
    /// SAFETY: the dispatch loop only executes programs that passed
    /// [`crate::bytecode::Program::validate`] at load, which proves every
    /// encoded local slot `< n_locals`, and every frame's locals vec is
    /// sized to exactly its code's `n_locals`. A frame always exists while
    /// dispatch runs (`Return` exits before popping past `min_frames`).
    #[inline(always)]
    fn local(&self, i: u16) -> Value {
        debug_assert!(self
            .frames
            .last()
            .is_some_and(|f| (i as usize) < f.locals.len()));
        unsafe {
            let f = self.frames.last().unwrap_unchecked();
            *f.locals.get_unchecked(i as usize)
        }
    }

    /// Writes local slot `i` of the executing frame; same safety argument as
    /// [`Vm::local`].
    #[inline(always)]
    fn set_local(&mut self, i: u16, v: Value) {
        debug_assert!(self
            .frames
            .last()
            .is_some_and(|f| (i as usize) < f.locals.len()));
        unsafe {
            let n = self.frames.len();
            let f = self.frames.get_unchecked_mut(n - 1);
            *f.locals.get_unchecked_mut(i as usize) = v;
        }
    }

    fn zero_division() -> MpError {
        MpError::runtime(RuntimeErrorKind::ZeroDivision, "division by zero")
    }

    fn overflow() -> MpError {
        MpError::runtime(RuntimeErrorKind::Overflow, "integer overflow")
    }

    /// Runs until the frame stack shrinks back to `min_frames`, returning the
    /// value produced by the frame that was on top when execution started.
    ///
    /// # Errors
    ///
    /// Any runtime error; the frame stack is unwound to `min_frames` first so
    /// the VM remains usable.
    pub(crate) fn execute_until(&mut self, min_frames: usize) -> MpResult<Value> {
        let result = self.execute_inner(min_frames);
        if result.is_err() {
            // Unwind so subsequent calls see a consistent VM.
            while self.frames.len() > min_frames {
                let f = self.frames.pop().expect("len checked");
                self.stack.truncate(f.stack_base);
            }
        }
        result
    }

    fn execute_inner(&mut self, min_frames: usize) -> MpResult<Value> {
        let result = self.dispatch(min_frames);
        // Per-op counter increments are batched in `pending_ops`; fold them
        // into the public counters at every exit so callers always observe
        // exact totals (housekeeping flushes mid-run for the step budget).
        self.flush_op_counters();
        result
    }

    fn dispatch(&mut self, min_frames: usize) -> MpResult<Value> {
        // Monomorphize the loop on the engine: the interpreter copy carries
        // no per-op JIT queries or type observation at all (`JIT = false`
        // constant-folds them away), instead of testing a runtime flag.
        if self.jit.is_some() {
            self.dispatch_impl::<true>(min_frames)
        } else {
            self.dispatch_impl::<false>(min_frames)
        }
    }

    fn dispatch_impl<const JIT: bool>(&mut self, min_frames: usize) -> MpResult<Value> {
        // Cached frame view: `code_id`/`pc` live in locals, and the current
        // code's op slice and per-code statics are borrowed once from cheap
        // Arc clones. The view is refreshed only at frame push/pop; the only
        // write-back of `pc` to the frame is the return address at `Call`
        // (nothing else — GC, housekeeping, unwinding — reads a live pc).
        let program = Arc::clone(&self.program);
        let statics = Arc::clone(&self.statics);
        let jit_enabled = JIT;

        let frame = self
            .frames
            .last()
            .expect("at least one frame while executing");
        let mut code_id = frame.code_id;
        let mut pc = frame.pc;
        let mut ops: &[Op] = &program.codes[code_id].ops;
        let mut cs = &statics[code_id];

        loop {
            self.ops_since_housekeeping += 1;
            if self.ops_since_housekeeping >= HOUSEKEEPING_INTERVAL {
                self.housekeeping()?;
            }

            // SAFETY: every reachable pc is in bounds for verified bytecode.
            // `Program::validate` (checked at load) proves all jump targets
            // `< n` and that the last op is `Return` (which never falls
            // through). `class_idx` is built with one entry per op.
            let (op, class_idx) =
                unsafe { (*ops.get_unchecked(pc), *cs.class_idx.get_unchecked(pc)) };
            let compiled = jit_enabled && self.jit_compiled_at(code_id, pc);
            self.charge_batched(usize::from(class_idx), compiled);
            let op_pc = pc;
            pc += 1;

            match op {
                Op::LoadConst(i) => {
                    // SAFETY: `Program::validate` proves every encoded const
                    // index `< consts.len()`.
                    let v = unsafe { *cs.consts.get_unchecked(i as usize) };
                    self.push(v);
                }
                Op::LoadLocal(i) => {
                    let v = self.local(i);
                    self.push(v);
                }
                Op::StoreLocal(i) => {
                    let v = self.pop();
                    self.set_local(i, v);
                }
                Op::LoadGlobal(i) => {
                    let slot = cs.name_slots[i as usize];
                    match self.globals[slot as usize] {
                        Some(v) => self.push(v),
                        None => {
                            let name = &program.codes[code_id].names[i as usize];
                            return Err(MpError::name_error(name));
                        }
                    }
                }
                Op::StoreGlobal(i) => {
                    let slot = cs.name_slots[i as usize];
                    let v = self.pop();
                    self.globals[slot as usize] = Some(v);
                }

                Op::Add
                | Op::Sub
                | Op::Mul
                | Op::Div
                | Op::FloorDiv
                | Op::Mod
                | Op::Pow
                | Op::CmpEq
                | Op::CmpNe
                | Op::CmpLt
                | Op::CmpLe
                | Op::CmpGt
                | Op::CmpGe => {
                    if jit_enabled {
                        self.observe_types_binary(code_id, op_pc, compiled);
                    }
                    let b = self.pop();
                    let a = self.pop();
                    let r = match Self::binop_fast(op, a, b) {
                        Some(r) => r,
                        None => self.binary_op(op, a, b)?,
                    };
                    self.push(r);
                }
                Op::CmpIn | Op::CmpNotIn => {
                    let container = self.pop();
                    let item = self.pop();
                    let found = self.contains(container, item)?;
                    let r = if matches!(op, Op::CmpIn) {
                        found
                    } else {
                        !found
                    };
                    self.push(Value::Bool(r));
                }
                Op::Neg => {
                    if jit_enabled {
                        self.observe_types_unary(code_id, op_pc, compiled);
                    }
                    let v = self.pop();
                    let r = match v {
                        Value::Int(i) => Value::Int(i.checked_neg().ok_or_else(Self::overflow)?),
                        Value::Float(f) => Value::Float(-f),
                        Value::Bool(b) => Value::Int(-i64::from(b)),
                        other => {
                            return Err(MpError::type_error(format!(
                                "bad operand type for unary -: '{}'",
                                self.heap.type_name(other)
                            )));
                        }
                    };
                    self.push(r);
                }
                Op::Not => {
                    let v = self.pop();
                    let r = !self.heap.truthy(v);
                    self.push(Value::Bool(r));
                }

                Op::Jump(t) => {
                    let target = t as usize;
                    if target < op_pc {
                        self.on_backedge(code_id, op_pc, target);
                    }
                    pc = target;
                }
                Op::PopJumpIfFalse(t) => {
                    let v = self.pop();
                    if !self.heap.truthy(v) {
                        pc = t as usize;
                    }
                }
                Op::PopJumpIfTrue(t) => {
                    let v = self.pop();
                    if self.heap.truthy(v) {
                        pc = t as usize;
                    }
                }
                Op::JumpIfFalsePeek(t) => {
                    let v = self.peek(0);
                    if !self.heap.truthy(v) {
                        pc = t as usize;
                    } else {
                        self.pop();
                    }
                }
                Op::JumpIfTruePeek(t) => {
                    let v = self.peek(0);
                    if self.heap.truthy(v) {
                        pc = t as usize;
                    } else {
                        self.pop();
                    }
                }

                Op::BuildList(n) => {
                    let n = n as usize;
                    let items = self.stack.split_off(self.stack.len() - n);
                    self.charge_aux(self.cost.per_element * n as f64, true);
                    let h = self.alloc(Object::List(items));
                    self.push(Value::Obj(h));
                }
                Op::BuildTuple(n) => {
                    let n = n as usize;
                    let items = self.stack.split_off(self.stack.len() - n);
                    self.charge_aux(self.cost.per_element * n as f64, true);
                    let h = self.alloc(Object::Tuple(items));
                    self.push(Value::Obj(h));
                }
                Op::BuildDict(n) => {
                    let n = n as usize;
                    let kvs = self.stack.split_off(self.stack.len() - 2 * n);
                    let h = self.alloc(Object::Dict(crate::dict::Dict::new()));
                    let mut probes = 0;
                    self.heap.with_dict_mut(h, |dict, heap| -> MpResult<()> {
                        for pair in kvs.chunks_exact(2) {
                            dict.insert(heap, pair[0], pair[1], &mut probes)?;
                        }
                        Ok(())
                    })?;
                    self.charge_probes(probes);
                    self.push(Value::Obj(h));
                }

                Op::IndexLoad => {
                    let idx = self.pop();
                    let obj = self.pop();
                    let v = self.index_load(obj, idx)?;
                    self.push(v);
                }
                Op::IndexStore => {
                    let val = self.pop();
                    let idx = self.pop();
                    let obj = self.pop();
                    self.index_store(obj, idx, val)?;
                }
                Op::IndexDel => {
                    let idx = self.pop();
                    let obj = self.pop();
                    self.index_del(obj, idx)?;
                }
                Op::SliceLoad => {
                    let hi = self.pop();
                    let lo = self.pop();
                    let obj = self.pop();
                    let v = self.slice_load(obj, lo, hi)?;
                    self.push(v);
                }
                Op::Dup2 => {
                    let a = self.peek(1);
                    let b = self.peek(0);
                    self.push(a);
                    self.push(b);
                }
                Op::ListAppend(n) => {
                    let v = self.pop();
                    // `Program::validate` rejects `ListAppend(0)`, so the
                    // depth cannot wrap past the peek's validated range.
                    let list = self.peek(n as usize - 1);
                    match list {
                        Value::Obj(h) => match self.heap.get_mut(h) {
                            Object::List(items) => items.push(v),
                            _ => {
                                return Err(MpError::runtime(
                                    RuntimeErrorKind::Internal,
                                    "ListAppend target is not a list",
                                ));
                            }
                        },
                        _ => {
                            return Err(MpError::runtime(
                                RuntimeErrorKind::Internal,
                                "ListAppend target is not a list",
                            ));
                        }
                    }
                }
                Op::Pop => {
                    self.pop();
                }

                Op::Call(argc) => {
                    self.counters.calls += 1;
                    let argc = argc as usize;
                    let callee = self.peek(argc);
                    match self.resolve_callee(callee)? {
                        CallTarget::Function(target) => {
                            // Write the return address back before switching
                            // the cached view to the callee's frame.
                            self.frames.last_mut().expect("frame exists").pc = pc;
                            self.push_call_frame(target, argc)?;
                            self.on_function_entry(target);
                            code_id = target;
                            pc = 0;
                            ops = &program.codes[code_id].ops;
                            cs = &statics[code_id];
                        }
                        CallTarget::Builtin(b) => {
                            self.invoke_builtin(b, argc)?;
                        }
                    }
                }
                Op::CallMethod { name, argc } => {
                    self.counters.calls += 1;
                    match cs.method_ids[name as usize] {
                        Some(mid) => self.invoke_method(mid, argc as usize)?,
                        None => {
                            let receiver = self.peek(argc as usize);
                            let mname = &program.codes[code_id].names[name as usize];
                            return Err(MpError::type_error(format!(
                                "'{}' object has no method '{}'",
                                self.heap.type_name(receiver),
                                mname
                            )));
                        }
                    }
                }
                Op::Return => {
                    let result = self.pop();
                    let frame = self.frames.pop().expect("frame exists");
                    self.stack.truncate(frame.stack_base);
                    self.recycle_locals(frame.locals);
                    if self.frames.len() == min_frames {
                        return Ok(result);
                    }
                    self.push(result);
                    let caller = self.frames.last().expect("caller frame");
                    code_id = caller.code_id;
                    pc = caller.pc;
                    ops = &program.codes[code_id].ops;
                    cs = &statics[code_id];
                }

                Op::GetIter => {
                    let v = self.pop();
                    let it = self.make_iterator(v)?;
                    self.push(it);
                }
                Op::ForIter(t) => {
                    let it = self.peek(0);
                    match self.iterator_next(it)? {
                        Some(v) => self.push(v),
                        None => {
                            self.pop();
                            pc = t as usize;
                        }
                    }
                }
                Op::UnpackSequence(n) => {
                    let v = self.pop();
                    let items: Vec<Value> = match v {
                        Value::Obj(h) => match self.heap.get(h) {
                            Object::Tuple(items) | Object::List(items) => items.clone(),
                            _ => {
                                return Err(MpError::type_error(format!(
                                    "cannot unpack '{}'",
                                    self.heap.type_name(v)
                                )));
                            }
                        },
                        _ => {
                            return Err(MpError::type_error(format!(
                                "cannot unpack '{}'",
                                self.heap.type_name(v)
                            )));
                        }
                    };
                    if items.len() != n as usize {
                        return Err(MpError::runtime(
                            RuntimeErrorKind::Value,
                            format!("expected {} values to unpack, got {}", n, items.len()),
                        ));
                    }
                    for v in items.into_iter().rev() {
                        self.push(v);
                    }
                }
                Op::MakeFunction(i) => {
                    // SAFETY: validated const index (see `Op::LoadConst`).
                    let v = unsafe { *cs.consts.get_unchecked(i as usize) };
                    self.push(v);
                }
            }
        }
    }

    /// Resolves a `Call` callee to a user function or a builtin.
    fn resolve_callee(&self, callee: Value) -> MpResult<CallTarget> {
        let Value::Obj(h) = callee else {
            return Err(MpError::type_error(format!(
                "'{}' object is not callable",
                self.heap.type_name(callee)
            )));
        };
        match *self.heap.get(h) {
            Object::Function { code_id: target } => Ok(CallTarget::Function(target)),
            Object::Builtin(b) => Ok(CallTarget::Builtin(b)),
            _ => Err(MpError::type_error(format!(
                "'{}' object is not callable",
                self.heap.type_name(callee)
            ))),
        }
    }

    fn push_call_frame(&mut self, target: usize, argc: usize) -> MpResult<()> {
        if self.frames.len() >= self.recursion_limit {
            return Err(MpError::runtime(
                RuntimeErrorKind::RecursionLimit,
                "maximum recursion depth exceeded",
            ));
        }
        let code = &self.program.codes[target];
        if argc != code.n_params as usize {
            return Err(MpError::type_error(format!(
                "{}() takes {} arguments but {} were given",
                code.name, code.n_params, argc
            )));
        }
        let n_locals = code.n_locals as usize;
        let args_start = self.stack.len() - argc;
        let mut locals = self.take_locals(n_locals);
        locals[..argc].copy_from_slice(&self.stack[args_start..]);
        self.stack.truncate(args_start - 1); // also removes the callee
                                             // Guarantee capacity for the callee's whole (validated) stack depth
                                             // up front, so `push` needs no capacity check. `reserve` is a no-op
                                             // branch once the stack has grown to the program's working depth.
        self.stack.reserve(self.statics[target].max_stack as usize);
        self.frames.push(Frame {
            code_id: target,
            pc: 0,
            locals,
            stack_base: self.stack.len(),
        });
        Ok(())
    }

    /// Pops a locals buffer from the frame pool (or allocates one), sized and
    /// zeroed to `n` slots.
    fn take_locals(&mut self, n: usize) -> Vec<Value> {
        match self.locals_pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(n, Value::None);
                buf
            }
            None => vec![Value::None; n],
        }
    }

    /// Returns a frame's locals buffer to the pool for reuse.
    fn recycle_locals(&mut self, mut locals: Vec<Value>) {
        const POOL_CAP: usize = 64;
        if self.locals_pool.len() < POOL_CAP && locals.capacity() > 0 {
            locals.clear();
            self.locals_pool.push(locals);
        }
    }

    /// JIT hook for a function entry (method-at-a-time compilation).
    fn on_function_entry(&mut self, code_id: usize) {
        let Some(jit) = &mut self.jit else { return };
        let profile_cost = self.cost.profile_backedge;
        match jit.on_function_entry(code_id) {
            Some(ops) => {
                let cost = self.cost.compile_cost(ops);
                self.charge_aux(cost, false);
                self.counters.jit_compiles += 1;
                self.counters.jit_compile_ns += cost;
            }
            None => self.charge_aux(profile_cost, false),
        }
    }

    /// JIT hooks for a loop back-edge.
    fn on_backedge(&mut self, code_id: usize, from_pc: usize, target: usize) {
        self.counters.backedges += 1;
        let Some(jit) = &mut self.jit else { return };
        let profile_cost = self.cost.profile_backedge;
        let event = jit.on_backedge(code_id, from_pc, target);
        match event {
            BackedgeEvent::Cold | BackedgeEvent::StartRecording => {
                self.charge_aux(profile_cost, false);
            }
            BackedgeEvent::Compiled { ops } => {
                let cost = self.cost.compile_cost(ops);
                self.charge_aux(cost, false);
                self.counters.jit_compiles += 1;
                self.counters.jit_compile_ns += cost;
            }
        }
    }

    /// Records (while tracing) or checks (while compiled) operand types for a
    /// binary arithmetic/comparison opcode.
    fn observe_types_binary(&mut self, code_id: usize, pc: usize, compiled: bool) {
        if self.jit.is_none() {
            return;
        }
        let a = self.peek(1);
        let b = self.peek(0);
        let mask = self.heap.type_tag(a).bit() | self.heap.type_tag(b).bit();
        self.observe_mask(code_id, pc, mask, compiled);
    }

    fn observe_types_unary(&mut self, code_id: usize, pc: usize, compiled: bool) {
        if self.jit.is_none() {
            return;
        }
        let v = self.peek(0);
        let mask = self.heap.type_tag(v).bit();
        self.observe_mask(code_id, pc, mask, compiled);
    }

    fn observe_mask(&mut self, code_id: usize, pc: usize, mask: u16, compiled: bool) {
        let deopt_penalty = self.cost.deopt_penalty;
        let jit = self.jit.as_mut().expect("caller checked");
        if compiled {
            match jit.check_guard(code_id, pc, mask) {
                GuardOutcome::Pass => {}
                GuardOutcome::Deopt => {
                    self.counters.deopts += 1;
                    self.charge_aux(deopt_penalty, false);
                }
                GuardOutcome::Blacklisted => {
                    self.counters.deopts += 1;
                    self.counters.blacklisted += 1;
                    self.charge_aux(deopt_penalty * 2.0, false);
                }
            }
        } else if jit.is_recording(code_id, pc) {
            jit.record_types(code_id, pc, mask);
        }
    }

    // ---- operators ----

    /// Inline fast path for the all-int / all-float cases of
    /// [`Vm::binary_op`]. Returns `None` for anything it cannot decide with
    /// identical semantics (mixed or heap operands, int overflow, NaN
    /// ordering), which falls through to the full implementation. The numeric
    /// paths of `binary_op` charge nothing beyond the opcode itself, so the
    /// shortcut is invisible to virtual time.
    #[inline(always)]
    fn binop_fast(op: Op, a: Value, b: Value) -> Option<Value> {
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => match op {
                Op::Add => x.checked_add(y).map(Value::Int),
                Op::Sub => x.checked_sub(y).map(Value::Int),
                Op::Mul => x.checked_mul(y).map(Value::Int),
                Op::CmpEq => Some(Value::Bool(x == y)),
                Op::CmpNe => Some(Value::Bool(x != y)),
                // Ordered compares coerce through f64, exactly like
                // `Heap::value_cmp` does for numbers.
                Op::CmpLt => Some(Value::Bool((x as f64) < (y as f64))),
                Op::CmpLe => Some(Value::Bool((x as f64) <= (y as f64))),
                Op::CmpGt => Some(Value::Bool((x as f64) > (y as f64))),
                Op::CmpGe => Some(Value::Bool((x as f64) >= (y as f64))),
                _ => None,
            },
            (Value::Float(x), Value::Float(y)) => match op {
                Op::Add => Some(Value::Float(x + y)),
                Op::Sub => Some(Value::Float(x - y)),
                Op::Mul => Some(Value::Float(x * y)),
                Op::CmpEq => Some(Value::Bool(x == y)),
                Op::CmpNe => Some(Value::Bool(x != y)),
                Op::CmpLt | Op::CmpLe | Op::CmpGt | Op::CmpGe => {
                    // NaN has no ordering: fall through so the full path
                    // raises its error.
                    let ord = x.partial_cmp(&y)?;
                    Some(Value::Bool(match op {
                        Op::CmpLt => ord.is_lt(),
                        Op::CmpLe => ord.is_le(),
                        Op::CmpGt => ord.is_gt(),
                        _ => ord.is_ge(),
                    }))
                }
                _ => None,
            },
            _ => None,
        }
    }

    fn binary_op(&mut self, op: Op, a: Value, b: Value) -> MpResult<Value> {
        match op {
            Op::Add => self.op_add(a, b),
            Op::Sub => self.numeric_op(a, b, "-", i64::checked_sub, |x, y| x - y),
            Op::Mul => self.op_mul(a, b),
            Op::Div => self.op_div(a, b),
            Op::FloorDiv => self.op_floordiv(a, b),
            Op::Mod => self.op_mod(a, b),
            Op::Pow => self.op_pow(a, b),
            Op::CmpEq => Ok(Value::Bool(self.heap.value_eq(a, b))),
            Op::CmpNe => Ok(Value::Bool(!self.heap.value_eq(a, b))),
            Op::CmpLt | Op::CmpLe | Op::CmpGt | Op::CmpGe => {
                let ord = self.heap.value_cmp(a, b).ok_or_else(|| {
                    MpError::type_error(format!(
                        "'<' not supported between '{}' and '{}'",
                        self.heap.type_name(a),
                        self.heap.type_name(b)
                    ))
                })?;
                let r = match op {
                    Op::CmpLt => ord.is_lt(),
                    Op::CmpLe => ord.is_le(),
                    Op::CmpGt => ord.is_gt(),
                    _ => ord.is_ge(),
                };
                Ok(Value::Bool(r))
            }
            _ => unreachable!("binary_op called with non-binary opcode"),
        }
    }

    fn type_error_binop(&self, sym: &str, a: Value, b: Value) -> MpError {
        MpError::type_error(format!(
            "unsupported operand type(s) for {sym}: '{}' and '{}'",
            self.heap.type_name(a),
            self.heap.type_name(b)
        ))
    }

    /// Integer/float arithmetic with Python coercions; used for `-`.
    fn numeric_op(
        &mut self,
        a: Value,
        b: Value,
        sym: &str,
        int_op: fn(i64, i64) -> Option<i64>,
        float_op: fn(f64, f64) -> f64,
    ) -> MpResult<Value> {
        match (a.as_int(), b.as_int()) {
            (Some(x), Some(y)) => int_op(x, y).map(Value::Int).ok_or_else(Self::overflow),
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Ok(Value::Float(float_op(x, y))),
                _ => Err(self.type_error_binop(sym, a, b)),
            },
        }
    }

    fn op_add(&mut self, a: Value, b: Value) -> MpResult<Value> {
        if a.is_number() && b.is_number() {
            return self.numeric_op(a, b, "+", i64::checked_add, |x, y| x + y);
        }
        if let (Value::Obj(ha), Value::Obj(hb)) = (a, b) {
            match (self.heap.get(ha), self.heap.get(hb)) {
                (Object::Str(s1), Object::Str(s2)) => {
                    let out = Str::concat(s1, s2);
                    self.charge_aux(1.2 * out.len() as f64, true);
                    let h = self.alloc(Object::Str(out));
                    return Ok(Value::Obj(h));
                }
                (Object::List(v1), Object::List(v2)) => {
                    let mut out = Vec::with_capacity(v1.len() + v2.len());
                    out.extend_from_slice(v1);
                    out.extend_from_slice(v2);
                    self.charge_aux(self.cost.per_element * out.len() as f64, true);
                    let h = self.alloc(Object::List(out));
                    return Ok(Value::Obj(h));
                }
                (Object::Tuple(v1), Object::Tuple(v2)) => {
                    let mut out = Vec::with_capacity(v1.len() + v2.len());
                    out.extend_from_slice(v1);
                    out.extend_from_slice(v2);
                    self.charge_aux(self.cost.per_element * out.len() as f64, true);
                    let h = self.alloc(Object::Tuple(out));
                    return Ok(Value::Obj(h));
                }
                _ => {}
            }
        }
        Err(self.type_error_binop("+", a, b))
    }

    fn op_mul(&mut self, a: Value, b: Value) -> MpResult<Value> {
        if a.is_number() && b.is_number() {
            return self.numeric_op(a, b, "*", i64::checked_mul, |x, y| x * y);
        }
        // str * int, list * int (either operand order, like Python).
        let (obj, count) = match (a, b) {
            (Value::Obj(h), n) if n.as_int().is_some() => (h, n.as_int().expect("checked")),
            (n, Value::Obj(h)) if n.as_int().is_some() => (h, n.as_int().expect("checked")),
            _ => return Err(self.type_error_binop("*", a, b)),
        };
        let count = count.max(0) as usize;
        match self.heap.get(obj) {
            Object::Str(s) => {
                if s.len().saturating_mul(count) > 100_000_000 {
                    return Err(Self::overflow());
                }
                let out = Str::new(s.repeat(count));
                self.charge_aux(1.2 * out.len() as f64, true);
                let h = self.alloc(Object::Str(out));
                Ok(Value::Obj(h))
            }
            Object::List(items) => {
                let mut out = Vec::with_capacity(items.len() * count);
                for _ in 0..count {
                    out.extend_from_slice(items);
                }
                self.charge_aux(self.cost.per_element * out.len() as f64, true);
                let h = self.alloc(Object::List(out));
                Ok(Value::Obj(h))
            }
            _ => Err(self.type_error_binop("*", a, b)),
        }
    }

    fn op_div(&mut self, a: Value, b: Value) -> MpResult<Value> {
        match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => {
                if y == 0.0 {
                    Err(Self::zero_division())
                } else {
                    Ok(Value::Float(x / y))
                }
            }
            _ => Err(self.type_error_binop("/", a, b)),
        }
    }

    fn op_floordiv(&mut self, a: Value, b: Value) -> MpResult<Value> {
        match (a.as_int(), b.as_int()) {
            (Some(x), Some(y)) => {
                if y == 0 {
                    return Err(Self::zero_division());
                }
                // Python floor division: round toward negative infinity.
                let mut q = x.wrapping_div(y);
                if (x % y != 0) && ((x < 0) != (y < 0)) {
                    q -= 1;
                }
                Ok(Value::Int(q))
            }
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => {
                    if y == 0.0 {
                        Err(Self::zero_division())
                    } else {
                        Ok(Value::Float((x / y).floor()))
                    }
                }
                _ => Err(self.type_error_binop("//", a, b)),
            },
        }
    }

    fn op_mod(&mut self, a: Value, b: Value) -> MpResult<Value> {
        match (a.as_int(), b.as_int()) {
            (Some(x), Some(y)) => {
                if y == 0 {
                    return Err(Self::zero_division());
                }
                // Python modulo: result has the sign of the divisor.
                let mut r = x % y;
                if r != 0 && ((r < 0) != (y < 0)) {
                    r += y;
                }
                Ok(Value::Int(r))
            }
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => {
                    if y == 0.0 {
                        return Err(Self::zero_division());
                    }
                    let mut r = x % y;
                    if r != 0.0 && ((r < 0.0) != (y < 0.0)) {
                        r += y;
                    }
                    Ok(Value::Float(r))
                }
                _ => Err(self.type_error_binop("%", a, b)),
            },
        }
    }

    fn op_pow(&mut self, a: Value, b: Value) -> MpResult<Value> {
        match (a.as_int(), b.as_int()) {
            (Some(x), Some(y)) if y >= 0 => {
                let e = u32::try_from(y).map_err(|_| Self::overflow())?;
                x.checked_pow(e).map(Value::Int).ok_or_else(Self::overflow)
            }
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Ok(Value::Float(x.powf(y))),
                _ => Err(self.type_error_binop("**", a, b)),
            },
        }
    }

    fn contains(&mut self, container: Value, item: Value) -> MpResult<bool> {
        match container {
            Value::Obj(h) => match self.heap.get(h) {
                Object::Dict(d) => {
                    // Shared-access membership probe; same probe sequence as
                    // the `with_dict_mut` form without the two object moves.
                    let mut probes = 0;
                    let found = d.contains(&self.heap, item, &mut probes)?;
                    self.charge_probes(probes);
                    Ok(found)
                }
                Object::List(items) | Object::Tuple(items) => {
                    // Scan under shared borrows (`value_eq` is `&self`), then
                    // charge once the borrow is released — the charge value
                    // and order match the per-element accounting exactly.
                    let mut scanned = 0usize;
                    let mut found = false;
                    for &x in items {
                        scanned += 1;
                        if self.heap.value_eq(x, item) {
                            found = true;
                            break;
                        }
                    }
                    self.charge_aux(self.cost.per_element * scanned as f64, true);
                    Ok(found)
                }
                Object::Str(s) => {
                    let hay_len = s.len();
                    let found = match item {
                        Value::Obj(ih) => match self.heap.get(ih) {
                            Object::Str(needle) => Some(s.contains(needle.as_str())),
                            _ => None,
                        },
                        _ => None,
                    };
                    match found {
                        Some(found) => {
                            self.charge_aux(0.5 * hay_len as f64, true);
                            Ok(found)
                        }
                        None => Err(MpError::type_error("'in <string>' requires string operand")),
                    }
                }
                Object::Range { start, stop, step } => {
                    let (start, stop, step) = (*start, *stop, *step);
                    match item.as_int() {
                        Some(i) => {
                            let inside = if step > 0 {
                                i >= start && i < stop && (i - start) % step == 0
                            } else {
                                i <= start && i > stop && (start - i) % (-step) == 0
                            };
                            Ok(inside)
                        }
                        None => Ok(false),
                    }
                }
                _ => Err(MpError::type_error(format!(
                    "argument of type '{}' is not a container",
                    self.heap.type_name(container)
                ))),
            },
            _ => Err(MpError::type_error(format!(
                "argument of type '{}' is not a container",
                self.heap.type_name(container)
            ))),
        }
    }

    fn seq_index(len: usize, idx: Value, what: &str) -> MpResult<usize> {
        let i = idx
            .as_int()
            .ok_or_else(|| MpError::type_error(format!("{what} indices must be integers")))?;
        let n = len as i64;
        let i = if i < 0 { i + n } else { i };
        if i < 0 || i >= n {
            return Err(MpError::runtime(
                RuntimeErrorKind::Index,
                format!("{what} index out of range"),
            ));
        }
        Ok(i as usize)
    }

    fn index_load(&mut self, obj: Value, idx: Value) -> MpResult<Value> {
        match obj {
            Value::Obj(h) => match self.heap.get(h) {
                Object::List(items) => {
                    let i = Self::seq_index(items.len(), idx, "list")?;
                    Ok(items[i])
                }
                Object::Tuple(items) => {
                    let i = Self::seq_index(items.len(), idx, "tuple")?;
                    Ok(items[i])
                }
                Object::Str(s) => {
                    let i = Self::seq_index(s.char_count(), idx, "string")?;
                    let ch = s.char_at(i).expect("index checked");
                    let sh = self.alloc(Object::Str(Str::from(ch)));
                    Ok(Value::Obj(sh))
                }
                Object::Dict(d) => {
                    // Read in place: lookups only need shared access, so the
                    // move-out/move-back dance of `with_dict_mut` (two object
                    // copies per probe sequence) is pure overhead here. Keys
                    // can never reach this dict (unhashable containers are
                    // rejected at insert), so probing is oblivious to whether
                    // the dict sits in the heap.
                    let mut probes = 0;
                    let found = d.try_get(&self.heap, idx, &mut probes)?;
                    self.charge_probes(probes);
                    match found {
                        Some(value) => Ok(value),
                        None => Err(MpError::runtime(
                            RuntimeErrorKind::Key,
                            format!("key not found: {}", self.heap.render_repr(idx)),
                        )),
                    }
                }
                _ => Err(MpError::type_error(format!(
                    "'{}' object is not subscriptable",
                    self.heap.type_name(obj)
                ))),
            },
            _ => Err(MpError::type_error(format!(
                "'{}' object is not subscriptable",
                self.heap.type_name(obj)
            ))),
        }
    }

    fn index_store(&mut self, obj: Value, idx: Value, val: Value) -> MpResult<()> {
        match obj {
            Value::Obj(h) => match self.heap.get(h) {
                Object::List(items) => {
                    let i = Self::seq_index(items.len(), idx, "list")?;
                    match self.heap.get_mut(h) {
                        Object::List(items) => items[i] = val,
                        _ => unreachable!("type checked above"),
                    }
                    Ok(())
                }
                Object::Dict(d) => {
                    let mut probes = 0;
                    // Two-phase store: probe under the shared heap borrow,
                    // commit under the disjoint mutable one — no take/put of
                    // the whole dict per store.
                    match d.plan_insert(&self.heap, idx, &mut probes)? {
                        Some(plan) => match self.heap.get_mut(h) {
                            Object::Dict(d) => d.commit_insert(plan, idx, val, &mut probes),
                            _ => unreachable!("type checked above"),
                        },
                        // First insert into an unallocated table.
                        None => self.heap.with_dict_mut(h, |dict, heap| {
                            dict.insert(heap, idx, val, &mut probes)
                        })?,
                    };
                    self.charge_probes(probes);
                    Ok(())
                }
                _ => Err(MpError::type_error(format!(
                    "'{}' object does not support item assignment",
                    self.heap.type_name(obj)
                ))),
            },
            _ => Err(MpError::type_error(format!(
                "'{}' object does not support item assignment",
                self.heap.type_name(obj)
            ))),
        }
    }

    fn index_del(&mut self, obj: Value, idx: Value) -> MpResult<()> {
        match obj {
            Value::Obj(h) => match self.heap.get(h) {
                Object::List(items) => {
                    let i = Self::seq_index(items.len(), idx, "list")?;
                    let n = items.len();
                    self.charge_aux(self.cost.per_element * (n - i) as f64, true);
                    match self.heap.get_mut(h) {
                        Object::List(items) => {
                            items.remove(i);
                        }
                        _ => unreachable!("type checked above"),
                    }
                    Ok(())
                }
                Object::Dict(d) => {
                    let mut probes = 0;
                    // Two-phase removal, mirroring the store path above.
                    let planned = d.plan_remove(&self.heap, idx, &mut probes)?;
                    self.charge_probes(probes);
                    match planned {
                        Some(slot) => {
                            match self.heap.get_mut(h) {
                                Object::Dict(d) => {
                                    d.commit_remove(slot);
                                }
                                _ => unreachable!("type checked above"),
                            }
                            Ok(())
                        }
                        None => Err(MpError::runtime(
                            RuntimeErrorKind::Key,
                            format!("key not found: {}", self.heap.render_repr(idx)),
                        )),
                    }
                }
                _ => Err(MpError::type_error(format!(
                    "cannot delete items of '{}'",
                    self.heap.type_name(obj)
                ))),
            },
            _ => Err(MpError::type_error(format!(
                "cannot delete items of '{}'",
                self.heap.type_name(obj)
            ))),
        }
    }

    fn slice_bounds(len: usize, lo: Value, hi: Value) -> MpResult<(usize, usize)> {
        let n = len as i64;
        let norm = |v: Value, default: i64| -> MpResult<i64> {
            match v {
                Value::None => Ok(default),
                _ => {
                    let i = v
                        .as_int()
                        .ok_or_else(|| MpError::type_error("slice indices must be integers"))?;
                    Ok(if i < 0 { i + n } else { i })
                }
            }
        };
        let lo = norm(lo, 0)?.clamp(0, n);
        let hi = norm(hi, n)?.clamp(0, n);
        Ok((lo as usize, (hi.max(lo)) as usize))
    }

    fn slice_load(&mut self, obj: Value, lo: Value, hi: Value) -> MpResult<Value> {
        match obj {
            Value::Obj(h) => match self.heap.get(h) {
                Object::List(items) => {
                    let (a, b) = Self::slice_bounds(items.len(), lo, hi)?;
                    let out = items[a..b].to_vec();
                    self.charge_aux(self.cost.per_element * out.len() as f64, true);
                    let nh = self.alloc(Object::List(out));
                    Ok(Value::Obj(nh))
                }
                Object::Tuple(items) => {
                    let (a, b) = Self::slice_bounds(items.len(), lo, hi)?;
                    let out = items[a..b].to_vec();
                    self.charge_aux(self.cost.per_element * out.len() as f64, true);
                    let nh = self.alloc(Object::Tuple(out));
                    Ok(Value::Obj(nh))
                }
                Object::Str(s) => {
                    let (a, b) = Self::slice_bounds(s.char_count(), lo, hi)?;
                    let out = s.char_slice(a, b);
                    self.charge_aux(1.2 * out.len() as f64, true);
                    let nh = self.alloc(Object::Str(out));
                    Ok(Value::Obj(nh))
                }
                _ => Err(MpError::type_error(format!(
                    "'{}' object is not sliceable",
                    self.heap.type_name(obj)
                ))),
            },
            _ => Err(MpError::type_error(format!(
                "'{}' object is not sliceable",
                self.heap.type_name(obj)
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::error::RuntimeErrorKind;
    use crate::value::Value;
    use crate::vm::{Vm, VmConfig};

    /// Runs a module and returns the value of global `name`.
    fn run_and_get(src: &str, name: &str) -> Value {
        let mut vm = Vm::compile_and_load(src, 42, VmConfig::interp())
            .unwrap_or_else(|e| panic!("compile: {e}"));
        vm.run_module()
            .unwrap_or_else(|e| panic!("run: {e}\nsource:\n{src}"));
        vm.global(name)
            .unwrap_or_else(|| panic!("global {name} not set"))
    }

    fn run_render(src: &str, name: &str) -> String {
        let mut vm = Vm::compile_and_load(src, 42, VmConfig::interp())
            .unwrap_or_else(|e| panic!("compile: {e}"));
        vm.run_module()
            .unwrap_or_else(|e| panic!("run: {e}\nsource:\n{src}"));
        let v = vm
            .global(name)
            .unwrap_or_else(|| panic!("global {name} not set"));
        vm.render(v)
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(run_and_get("x = 2 + 3 * 4\n", "x"), Value::Int(14));
        assert_eq!(run_and_get("x = 7 / 2\n", "x"), Value::Float(3.5));
        assert_eq!(run_and_get("x = 7 // 2\n", "x"), Value::Int(3));
        assert_eq!(run_and_get("x = -7 // 2\n", "x"), Value::Int(-4));
        assert_eq!(run_and_get("x = -7 % 2\n", "x"), Value::Int(1));
        assert_eq!(run_and_get("x = 7 % -2\n", "x"), Value::Int(-1));
        assert_eq!(run_and_get("x = 2 ** 10\n", "x"), Value::Int(1024));
        assert_eq!(run_and_get("x = 2 ** -1\n", "x"), Value::Float(0.5));
        assert_eq!(run_and_get("x = 1.5 + 1\n", "x"), Value::Float(2.5));
        assert_eq!(run_and_get("x = True + 1\n", "x"), Value::Int(2));
    }

    #[test]
    fn comparison_and_bool_logic() {
        assert_eq!(run_and_get("x = 1 < 2\n", "x"), Value::Bool(true));
        assert_eq!(run_and_get("x = 1 < 2 < 3\n", "x"), Value::Bool(true));
        assert_eq!(run_and_get("x = 1 < 2 > 3\n", "x"), Value::Bool(false));
        assert_eq!(run_and_get("x = 2 == 2.0\n", "x"), Value::Bool(true));
        assert_eq!(run_and_get("x = 1 and 2\n", "x"), Value::Int(2));
        assert_eq!(run_and_get("x = 0 and 2\n", "x"), Value::Int(0));
        assert_eq!(run_and_get("x = 0 or 5\n", "x"), Value::Int(5));
        assert_eq!(run_and_get("x = not 0\n", "x"), Value::Bool(true));
    }

    #[test]
    fn while_loop_and_aug_assign() {
        let src = "i = 0\ns = 0\nwhile i < 100:\n    s += i\n    i += 1\n";
        assert_eq!(run_and_get(src, "s"), Value::Int(4950));
    }

    #[test]
    fn for_range_loop() {
        assert_eq!(
            run_and_get("s = 0\nfor i in range(10):\n    s += i\n", "s"),
            Value::Int(45)
        );
        assert_eq!(
            run_and_get("s = 0\nfor i in range(10, 0, -2):\n    s += i\n", "s"),
            Value::Int(30)
        );
    }

    #[test]
    fn functions_and_recursion() {
        let src = "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\nx = fib(15)\n";
        assert_eq!(run_and_get(src, "x"), Value::Int(610));
    }

    #[test]
    fn break_and_continue() {
        let src = "s = 0\nfor i in range(100):\n    if i == 10:\n        break\n    if i % 2 == 0:\n        continue\n    s += i\n";
        assert_eq!(run_and_get(src, "s"), Value::Int(25));
    }

    #[test]
    fn lists_dicts_tuples() {
        assert_eq!(run_render("x = [1, 2] + [3]\n", "x"), "[1, 2, 3]");
        assert_eq!(run_and_get("l = [1, 2, 3]\nx = l[1]\n", "x"), Value::Int(2));
        assert_eq!(
            run_and_get("l = [1, 2, 3]\nx = l[-1]\n", "x"),
            Value::Int(3)
        );
        assert_eq!(
            run_and_get("d = {'a': 1}\nx = d['a']\n", "x"),
            Value::Int(1)
        );
        assert_eq!(
            run_and_get("d = {}\nd[5] = 9\nx = d[5]\n", "x"),
            Value::Int(9)
        );
        assert_eq!(run_and_get("t = (4, 5)\nx = t[0]\n", "x"), Value::Int(4));
        assert_eq!(run_and_get("a, b = 1, 2\nx = a + b\n", "x"), Value::Int(3));
        assert_eq!(
            run_and_get("a, b = 1, 2\na, b = b, a\nx = a\n", "x"),
            Value::Int(2)
        );
    }

    #[test]
    fn dict_iteration_and_membership() {
        let src = "d = {'a': 1, 'b': 2, 'c': 3}\ns = 0\nfor k in d:\n    s += d[k]\n";
        assert_eq!(run_and_get(src, "s"), Value::Int(6));
        assert_eq!(
            run_and_get("d = {1: 'x'}\nb = 1 in d\n", "b"),
            Value::Bool(true)
        );
        assert_eq!(
            run_and_get("d = {1: 'x'}\nb = 2 not in d\n", "b"),
            Value::Bool(true)
        );
        assert_eq!(run_and_get("b = 3 in [1, 2, 3]\n", "b"), Value::Bool(true));
        assert_eq!(run_and_get("b = 'bc' in 'abcd'\n", "b"), Value::Bool(true));
    }

    #[test]
    fn methods_work() {
        assert_eq!(
            run_render("l = []\nl.append(1)\nl.append(2)\n", "l"),
            "[1, 2]"
        );
        assert_eq!(
            run_and_get("l = [3, 1, 2]\nl.sort()\nx = l[0]\n", "x"),
            Value::Int(1)
        );
        assert_eq!(
            run_and_get("l = [1, 2, 3]\nx = l.pop()\n", "x"),
            Value::Int(3)
        );
        assert_eq!(
            run_and_get("d = {'a': 1}\nx = d.get('b', 7)\n", "x"),
            Value::Int(7)
        );
        assert_eq!(
            run_and_get("d = {'a': 1, 'b': 2}\nx = len(d.items())\n", "x"),
            Value::Int(2)
        );
        assert_eq!(
            run_render("s = 'a,b,c'\np = s.split(',')\n", "p"),
            "['a', 'b', 'c']"
        );
        assert_eq!(run_render("s = '-'\nj = s.join(['x', 'y'])\n", "j"), "x-y");
        assert_eq!(
            run_and_get("x = 'Hello'.startswith('He')\n", "x"),
            Value::Bool(true)
        );
    }

    #[test]
    fn builtins_work() {
        assert_eq!(run_and_get("x = len([1, 2, 3])\n", "x"), Value::Int(3));
        assert_eq!(
            run_and_get("x = sum([1, 2, 3.5])\n", "x"),
            Value::Float(6.5)
        );
        assert_eq!(run_and_get("x = min(3, 1, 2)\n", "x"), Value::Int(1));
        assert_eq!(run_and_get("x = max([3, 1, 2])\n", "x"), Value::Int(3));
        assert_eq!(run_and_get("x = abs(-4)\n", "x"), Value::Int(4));
        assert_eq!(run_and_get("x = int('42')\n", "x"), Value::Int(42));
        assert_eq!(run_and_get("x = float(2)\n", "x"), Value::Float(2.0));
        assert_eq!(run_render("x = str(12)\n", "x"), "12");
        assert_eq!(run_and_get("x = ord('A')\n", "x"), Value::Int(65));
        assert_eq!(run_render("x = chr(66)\n", "x"), "B");
        assert_eq!(run_render("x = sorted([3, 1, 2])\n", "x"), "[1, 2, 3]");
        assert_eq!(run_and_get("x = len(list(range(5)))\n", "x"), Value::Int(5));
        assert_eq!(run_and_get("x = sqrt(16)\n", "x"), Value::Float(4.0));
        assert_eq!(run_and_get("x = floor(2.7)\n", "x"), Value::Int(2));
    }

    #[test]
    fn string_operations() {
        assert_eq!(run_render("s = 'ab' + 'cd'\n", "s"), "abcd");
        assert_eq!(run_render("s = 'ab' * 3\n", "s"), "ababab");
        assert_eq!(run_render("s = 'hello'[1]\n", "s"), "e");
        assert_eq!(run_render("s = 'hello'[1:3]\n", "s"), "el");
        assert_eq!(run_render("s = 'hello'[:2]\n", "s"), "he");
        assert_eq!(run_render("s = 'hello'[-2:]\n", "s"), "lo");
        assert_eq!(run_and_get("x = len('hello')\n", "x"), Value::Int(5));
    }

    #[test]
    fn slices_on_lists() {
        assert_eq!(run_render("l = [1, 2, 3, 4]\nx = l[1:3]\n", "x"), "[2, 3]");
        assert_eq!(
            run_render("l = [1, 2, 3, 4]\nx = l[:]\n", "x"),
            "[1, 2, 3, 4]"
        );
        assert_eq!(run_render("l = [1, 2, 3, 4]\nx = l[10:20]\n", "x"), "[]");
        assert_eq!(run_render("l = [1, 2, 3, 4]\nx = l[-2:]\n", "x"), "[3, 4]");
    }

    #[test]
    fn global_statement_semantics() {
        let src = "n = 0\ndef bump():\n    global n\n    n = n + 1\nbump()\nbump()\n";
        assert_eq!(run_and_get(src, "n"), Value::Int(2));
    }

    #[test]
    fn ternary_and_nested_calls() {
        assert_eq!(run_and_get("x = 1 if 2 > 1 else 0\n", "x"), Value::Int(1));
        let src = "def sq(v):\n    return v * v\nx = sq(sq(3))\n";
        assert_eq!(run_and_get(src, "x"), Value::Int(81));
    }

    #[test]
    fn iteration_over_strings_lists_tuples() {
        assert_eq!(
            run_render("out = []\nfor c in 'abc':\n    out.append(c)\n", "out"),
            "['a', 'b', 'c']"
        );
        assert_eq!(
            run_and_get("s = 0\nfor v in (1, 2, 3):\n    s += v\n", "s"),
            Value::Int(6)
        );
        let src = "d = {'a': 1, 'b': 2}\ns = 0\nfor k, v in d.items():\n    s += v\n";
        assert_eq!(run_and_get(src, "s"), Value::Int(3));
    }

    #[test]
    fn runtime_errors_have_python_kinds() {
        let check = |src: &str, kind: RuntimeErrorKind| {
            let mut vm = Vm::compile_and_load(src, 1, VmConfig::interp()).unwrap();
            let err = vm.run_module().expect_err(src);
            assert_eq!(err.runtime_kind(), Some(kind), "{src} -> {err}");
        };
        check("x = 1 / 0\n", RuntimeErrorKind::ZeroDivision);
        check("x = 1 // 0\n", RuntimeErrorKind::ZeroDivision);
        check("x = [1][5]\n", RuntimeErrorKind::Index);
        check("x = {}['k']\n", RuntimeErrorKind::Key);
        check("x = unknown_name\n", RuntimeErrorKind::Name);
        check("x = 1 + 'a'\n", RuntimeErrorKind::Type);
        check("x = int('zz')\n", RuntimeErrorKind::Value);
        check(
            "def f():\n    return f()\nf()\n",
            RuntimeErrorKind::RecursionLimit,
        );
    }

    #[test]
    fn error_unwinds_to_usable_vm() {
        let src = "def boom():\n    return 1 / 0\ndef ok():\n    return 7\n";
        let mut vm = Vm::compile_and_load(src, 1, VmConfig::interp()).unwrap();
        vm.run_module().unwrap();
        assert!(vm.call_function("boom", &[]).is_err());
        assert_eq!(vm.call_function("ok", &[]).unwrap(), Value::Int(7));
    }

    #[test]
    fn del_statement() {
        assert_eq!(
            run_and_get("d = {1: 'a', 2: 'b'}\ndel d[1]\nx = len(d)\n", "x"),
            Value::Int(1)
        );
        assert_eq!(run_render("l = [1, 2, 3]\ndel l[1]\n", "l"), "[1, 3]");
    }

    #[test]
    fn virtual_time_advances_and_scales_with_work() {
        let small = {
            let mut vm = Vm::compile_and_load(
                "s = 0\nfor i in range(100):\n    s += i\n",
                1,
                VmConfig::interp(),
            )
            .unwrap();
            vm.run_module().unwrap();
            vm.now_ns()
        };
        let large = {
            let mut vm = Vm::compile_and_load(
                "s = 0\nfor i in range(10000):\n    s += i\n",
                1,
                VmConfig::interp(),
            )
            .unwrap();
            vm.run_module().unwrap();
            vm.now_ns()
        };
        assert!(small > 0.0);
        assert!(large > small * 20.0, "large {large} vs small {small}");
    }

    #[test]
    fn gc_runs_under_allocation_pressure() {
        let src = "junk = None\nfor i in range(30000):\n    junk = [i, i + 1]\n";
        let mut cfg = VmConfig::interp();
        cfg.noise = crate::noise::NoiseConfig::quiescent();
        let mut vm = Vm::compile_and_load(src, 1, cfg).unwrap();
        vm.run_module().unwrap();
        assert!(vm.counters().gc_cycles > 0, "GC should have run");
        // Garbage must actually be reclaimed: live objects far below allocs.
        assert!(vm.heap_stats().gc_freed > 10_000);
    }

    #[test]
    fn call_function_entry_point() {
        let src = "def add(a, b):\n    return a + b\n";
        let mut vm = Vm::compile_and_load(src, 1, VmConfig::interp()).unwrap();
        vm.run_module().unwrap();
        let r = vm
            .call_function("add", &[Value::Int(2), Value::Int(40)])
            .unwrap();
        assert_eq!(r, Value::Int(42));
        // Arity mismatch is a TypeError.
        assert!(vm.call_function("add", &[Value::Int(1)]).is_err());
    }

    #[test]
    fn print_captured_when_enabled() {
        let mut cfg = VmConfig::interp();
        cfg.capture_output = true;
        let mut vm = Vm::compile_and_load("print('hi', 1 + 1)\n", 1, cfg).unwrap();
        vm.run_module().unwrap();
        assert_eq!(vm.take_stdout(), "hi 2\n");
    }

    #[test]
    fn enumerate_and_zip() {
        let src = "s = 0\nfor i, v in enumerate([10, 20]):\n    s += i * v\n";
        assert_eq!(run_and_get(src, "s"), Value::Int(20));
        let src = "s = 0\nfor a, b in zip([1, 2], [3, 4, 5]):\n    s += a * b\n";
        assert_eq!(run_and_get(src, "s"), Value::Int(11));
    }

    #[test]
    fn nested_loops() {
        let src = "s = 0\nfor i in range(10):\n    for j in range(10):\n        s += i * j\n";
        assert_eq!(run_and_get(src, "s"), Value::Int(2025));
    }

    #[test]
    fn shadowing_builtins_is_allowed() {
        let src = "def len(x):\n    return 99\nx = len([1])\n";
        assert_eq!(run_and_get(src, "x"), Value::Int(99));
    }

    #[test]
    fn list_comprehensions() {
        assert_eq!(
            run_render("x = [i * i for i in range(5)]\n", "x"),
            "[0, 1, 4, 9, 16]"
        );
        assert_eq!(
            run_render("x = [i for i in range(10) if i % 3 == 0]\n", "x"),
            "[0, 3, 6, 9]"
        );
        assert_eq!(
            run_render(
                "words = ['a', 'bb', 'ccc']\nx = [len(w) for w in words]\n",
                "x"
            ),
            "[1, 2, 3]"
        );
        // Nested comprehension.
        assert_eq!(
            run_render("x = [[j for j in range(i)] for i in range(3)]\n", "x"),
            "[[], [0], [0, 1]]"
        );
        // Tuple target over dict items.
        assert_eq!(
            run_and_get(
                "d = {1: 10, 2: 20}\nx = sum([k + v for k, v in d.items()])\n",
                "x"
            ),
            Value::Int(33)
        );
        // Inside a function body: target becomes a local slot.
        let src = "def f(n):\n    return sum([i * 2 for i in range(n)])\nx = f(5)\n";
        assert_eq!(run_and_get(src, "x"), Value::Int(20));
    }

    #[test]
    fn comprehension_engines_agree() {
        let src = "\
N = 50
def run():
    squares = [i * i for i in range(N)]
    evens = [s for s in squares if s % 2 == 0]
    return sum(evens) + len(squares)
";
        let checksum = crate::session::check_engines_agree(src, 3).unwrap();
        assert_eq!(checksum, "19650");
    }

    #[test]
    fn more_string_methods() {
        assert_eq!(run_render("s = ' pad '.strip()\n", "s"), "pad");
        assert_eq!(run_render("s = 'aBc'.upper()\n", "s"), "ABC");
        assert_eq!(run_render("s = 'aBc'.lower()\n", "s"), "abc");
        assert_eq!(run_render("s = 'aXbXc'.replace('X', '-')\n", "s"), "a-b-c");
        assert_eq!(run_and_get("x = 'hello'.find('ll')\n", "x"), Value::Int(2));
        assert_eq!(run_and_get("x = 'hello'.find('zz')\n", "x"), Value::Int(-1));
        assert_eq!(
            run_and_get("x = 'banana'.count('an')\n", "x"),
            Value::Int(2)
        );
        assert_eq!(
            run_and_get("x = 'hello'.endswith('lo')\n", "x"),
            Value::Bool(true)
        );
        assert_eq!(
            run_render("p = 'one two  three'.split()\n", "p"),
            "['one', 'two', 'three']"
        );
    }

    #[test]
    fn more_list_and_dict_methods() {
        assert_eq!(run_render("l = [1, 2]\nl.insert(1, 9)\n", "l"), "[1, 9, 2]");
        assert_eq!(
            run_render("l = [1, 2]\nl.extend([3, 4])\n", "l"),
            "[1, 2, 3, 4]"
        );
        assert_eq!(run_render("l = [1, 2, 3]\nl.reverse()\n", "l"), "[3, 2, 1]");
        assert_eq!(
            run_and_get("x = [1, 2, 1, 1].count(1)\n", "x"),
            Value::Int(3)
        );
        assert_eq!(run_and_get("x = [5, 6, 7].index(6)\n", "x"), Value::Int(1));
        assert_eq!(run_render("l = [1, 2, 3]\nl.remove(2)\n", "l"), "[1, 3]");
        assert_eq!(
            run_and_get("l = [1]\nc = l.copy()\nc.append(2)\nx = len(l)\n", "x"),
            Value::Int(1)
        );
        assert_eq!(
            run_and_get(
                "d = {'a': 1}\nx = d.setdefault('b', 5) + d.setdefault('a', 9)\n",
                "x"
            ),
            Value::Int(6)
        );
        assert_eq!(
            run_and_get(
                "d = {'a': 1}\nd.update({'b': 2})\nx = d['a'] + d['b']\n",
                "x"
            ),
            Value::Int(3)
        );
        assert_eq!(
            run_and_get("d = {'a': 1}\nc = d.copy()\nc['a'] = 9\nx = d['a']\n", "x"),
            Value::Int(1)
        );
        assert_eq!(
            run_and_get("d = {'a': 1}\nx = d.pop('a')\n", "x"),
            Value::Int(1)
        );
        assert_eq!(
            run_and_get("d = {'a': 1}\nx = d.pop('z', 7)\n", "x"),
            Value::Int(7)
        );
        assert_eq!(
            run_and_get("d = {'a': 1}\nd.clear()\nx = len(d)\n", "x"),
            Value::Int(0)
        );
    }

    #[test]
    fn builtin_error_paths() {
        let check_err = |src: &str| {
            let mut vm = Vm::compile_and_load(src, 1, VmConfig::interp()).unwrap();
            assert!(vm.run_module().is_err(), "{src} should raise");
        };
        check_err("x = min([])\n");
        check_err("x = sqrt(-1)\n");
        check_err("x = log(0)\n");
        check_err("x = ord('ab')\n");
        check_err("x = [1].pop(5)\n");
        check_err("x = [].pop()\n");
        check_err("x = [1].index(9)\n");
        check_err("x = {}.pop('k')\n");
        check_err("x = range(1, 2, 0)\n");
        check_err("x = 'a'.split('')\n");
        check_err("x = len(3)\n");
        check_err("x = min(1, 'a')\n");
        check_err("d = {[1]: 2}\n");
        check_err("x = sorted([1, 'a'])\n");
    }

    #[test]
    fn range_edge_cases() {
        assert_eq!(run_and_get("x = len(range(0))\n", "x"), Value::Int(0));
        assert_eq!(run_and_get("x = len(range(5, 5))\n", "x"), Value::Int(0));
        assert_eq!(
            run_and_get("x = len(range(10, 0, -3))\n", "x"),
            Value::Int(4)
        );
        assert_eq!(
            run_and_get("x = 6 in range(0, 10, 2)\n", "x"),
            Value::Bool(true)
        );
        assert_eq!(
            run_and_get("x = 5 in range(0, 10, 2)\n", "x"),
            Value::Bool(false)
        );
        assert_eq!(
            run_and_get("x = 8 in range(10, 0, -2)\n", "x"),
            Value::Bool(true)
        );
    }

    #[test]
    fn time_budget_aborts_infinite_loop() {
        let mut cfg = VmConfig::interp();
        cfg.time_budget_ns = Some(1.0e7);
        let mut vm = Vm::compile_and_load("while True:\n    pass\n", 1, cfg).unwrap();
        let err = vm.run_module().expect_err("must hit budget");
        assert_eq!(err.runtime_kind(), Some(RuntimeErrorKind::Timeout));
    }

    #[test]
    fn budget_error_unwinds_to_usable_vm() {
        // After a deadline abort the frame stack is unwound, so the same VM
        // can keep serving calls — the property the retrying harness relies
        // on when it reuses nothing but still must not see a poisoned state.
        let mut cfg = VmConfig::interp();
        cfg.step_budget = Some(5_000);
        let src = "def spin():\n    while True:\n        pass\ndef ok():\n    return 7\n";
        let mut vm = Vm::compile_and_load(src, 1, cfg).unwrap();
        vm.run_module().unwrap();
        let err = vm
            .call_function("spin", &[])
            .expect_err("must exhaust fuel");
        assert_eq!(err.runtime_kind(), Some(RuntimeErrorKind::FuelExhausted));
        assert_eq!(vm.call_function("ok", &[]).unwrap(), Value::Int(7));
    }
}
