//! Bytecode representation: opcodes, code objects, compiled programs.
//!
//! MiniPy compiles to a conventional stack bytecode, deliberately close in
//! shape to CPython's: constant pools, local slots resolved at compile time
//! (CPython's `LOAD_FAST`), global access by interned name, explicit iterator
//! protocol ops for `for` loops.

use std::fmt;

/// A compile-time constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// `None`.
    None,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String (interned into the heap once per VM session).
    Str(String),
    /// Reference to another code object (for `def`).
    Func(usize),
}

/// Operation-class buckets used by the cost model and dynamic statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Pure stack shuffling: loads of locals/consts, pops, dups.
    Stack,
    /// Arithmetic and comparison.
    Arith,
    /// Global/builtin name lookups.
    Name,
    /// Subscript loads/stores, slicing (memory-touching).
    Memory,
    /// Dict-specific operations.
    Dict,
    /// Object construction (lists, tuples, dicts, strings).
    Alloc,
    /// Control flow: jumps, loop bookkeeping.
    Branch,
    /// Calls and returns.
    Call,
}

/// A single bytecode instruction.
///
/// Jump targets are absolute instruction indices within the owning
/// [`Code::ops`] vector.
#[allow(missing_docs)] // arithmetic/comparison variants are self-describing
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push `consts[idx]`.
    LoadConst(u16),
    /// Push local slot.
    LoadLocal(u16),
    /// Pop into local slot.
    StoreLocal(u16),
    /// Push global (falls back to builtin) named `names[idx]`.
    LoadGlobal(u16),
    /// Pop into global named `names[idx]`.
    StoreGlobal(u16),
    /// Binary arithmetic: pops rhs then lhs, pushes result.
    Add,
    Sub,
    Mul,
    Div,
    FloorDiv,
    Mod,
    Pow,
    /// Comparisons: pop rhs then lhs, push bool.
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpGt,
    CmpGe,
    /// Membership: pops container then item, pushes bool.
    CmpIn,
    CmpNotIn,
    /// Unary negate.
    Neg,
    /// Unary boolean not.
    Not,
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump if falsy.
    PopJumpIfFalse(u32),
    /// Pop; jump if truthy.
    PopJumpIfTrue(u32),
    /// If TOS falsy: jump, keep TOS. Else pop. (`and`)
    JumpIfFalsePeek(u32),
    /// If TOS truthy: jump, keep TOS. Else pop. (`or`)
    JumpIfTruePeek(u32),
    /// Pop n values, push a new list.
    BuildList(u16),
    /// Pop n values, push a new tuple.
    BuildTuple(u16),
    /// Pop 2n values (k1 v1 k2 v2 ...), push a new dict.
    BuildDict(u16),
    /// Pop index then object, push `object[index]`.
    IndexLoad,
    /// Stack: `[obj, idx, val]` → stores `obj[idx] = val`.
    IndexStore,
    /// Stack: `[obj, idx]` → deletes `obj[idx]`.
    IndexDel,
    /// Stack: `[obj, lo, hi]` (missing bounds are None) → push slice.
    SliceLoad,
    /// Duplicate top two stack values: `[a, b]` → `[a, b, a, b]`.
    Dup2,
    /// Pop TOS and append it to the list `n` slots below the (new) top of
    /// stack — CPython's `LIST_APPEND`, used by list comprehensions.
    ListAppend(u16),
    /// Pop and discard TOS.
    Pop,
    /// Pop callee and `argc` args, push call result.
    Call(u16),
    /// Pop receiver and `argc` args, invoke method `names[idx]`.
    CallMethod {
        name: u16,
        argc: u16,
    },
    /// Pop return value and leave the frame.
    Return,
    /// Pop an iterable, push an iterator over it.
    GetIter,
    /// If the iterator at TOS has a next item, push it; else pop the iterator
    /// and jump to the target.
    ForIter(u32),
    /// Pop a sequence of exactly n elements, push them in reverse order.
    UnpackSequence(u16),
    /// Push a function value for `consts[idx]` (which must be `Const::Func`).
    MakeFunction(u16),
}

// The dispatch loop fetches one `Op` per instruction; keeping the enum within
// a single word is load-bearing for interpreter throughput.
const _: () = assert!(std::mem::size_of::<Op>() <= 8);

impl Op {
    /// The cost-model class of this opcode.
    pub fn class(self) -> OpClass {
        match self {
            Op::LoadConst(_)
            | Op::LoadLocal(_)
            | Op::StoreLocal(_)
            | Op::Dup2
            | Op::Pop
            | Op::UnpackSequence(_)
            | Op::MakeFunction(_) => OpClass::Stack,
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
            | Op::CmpGe
            | Op::Neg
            | Op::Not => OpClass::Arith,
            Op::LoadGlobal(_) | Op::StoreGlobal(_) => OpClass::Name,
            Op::IndexLoad | Op::IndexStore | Op::IndexDel | Op::SliceLoad | Op::ListAppend(_) => {
                OpClass::Memory
            }
            Op::CmpIn | Op::CmpNotIn => OpClass::Dict,
            Op::BuildList(_) | Op::BuildTuple(_) | Op::BuildDict(_) => OpClass::Alloc,
            Op::Jump(_)
            | Op::PopJumpIfFalse(_)
            | Op::PopJumpIfTrue(_)
            | Op::JumpIfFalsePeek(_)
            | Op::JumpIfTruePeek(_)
            | Op::GetIter
            | Op::ForIter(_) => OpClass::Branch,
            Op::Call(_) | Op::CallMethod { .. } | Op::Return => OpClass::Call,
        }
    }

    /// Returns the jump target if this opcode is a jump.
    pub fn jump_target(self) -> Option<u32> {
        match self {
            Op::Jump(t)
            | Op::PopJumpIfFalse(t)
            | Op::PopJumpIfTrue(t)
            | Op::JumpIfFalsePeek(t)
            | Op::JumpIfTruePeek(t)
            | Op::ForIter(t) => Some(t),
            _ => None,
        }
    }
}

/// A compiled function (or module) body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Code {
    /// Function name (`<module>` for the module body).
    pub name: String,
    /// Number of parameters (always the first locals).
    pub n_params: u16,
    /// Total number of local slots.
    pub n_locals: u16,
    /// The instruction stream.
    pub ops: Vec<Op>,
    /// Source line for each instruction (parallel to `ops`).
    pub lines: Vec<u32>,
    /// Constant pool.
    pub consts: Vec<Const>,
    /// Interned names for globals and methods.
    pub names: Vec<String>,
}

impl Code {
    /// Renders a human-readable disassembly, useful in tests and debugging.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "code {} (params={}, locals={})\n",
            self.name, self.n_params, self.n_locals
        ));
        for (i, op) in self.ops.iter().enumerate() {
            let line = self.lines.get(i).copied().unwrap_or(0);
            out.push_str(&format!("  {i:4}  L{line:<4} {}\n", self.format_op(*op)));
        }
        out
    }

    fn format_op(&self, op: Op) -> String {
        match op {
            Op::LoadConst(i) => format!("LOAD_CONST {:?}", self.consts.get(i as usize)),
            Op::LoadGlobal(i) => format!("LOAD_GLOBAL {}", self.name_at(i)),
            Op::StoreGlobal(i) => format!("STORE_GLOBAL {}", self.name_at(i)),
            Op::CallMethod { name, argc } => {
                format!("CALL_METHOD {} argc={argc}", self.name_at(name))
            }
            other => format!("{other:?}"),
        }
    }

    fn name_at(&self, i: u16) -> &str {
        self.names
            .get(i as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }
}

/// A fully compiled MiniPy program: the module body plus all function bodies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// All code objects. Index 0 is always the module body.
    pub codes: Vec<Code>,
}

impl Program {
    /// The module (top-level) code object.
    pub fn module_code(&self) -> &Code {
        &self.codes[0]
    }

    /// Total instruction count across all code objects.
    pub fn total_ops(&self) -> usize {
        self.codes.iter().map(|c| c.ops.len()).sum()
    }

    /// Verifies the static invariants the dispatch loop relies on for its
    /// unchecked hot-path accesses (verified-bytecode execution):
    ///
    /// * every code object ends with `Return`, so straight-line execution
    ///   can never run off the instruction stream;
    /// * every jump target is a valid instruction index;
    /// * every local-slot, constant-pool and name-table index is in bounds
    ///   for its code object, no code object has more parameters than local
    ///   slots, and every function constant names an existing code object;
    /// * every `ListAppend` reaches at least one slot below the value it
    ///   pops (its handler reads the list at depth `n - 1`);
    /// * the operand stack never underflows, every reachable pc has one
    ///   consistent stack depth, and each code object's maximum depth is
    ///   known (returned per code, in order) and at most 2^20 — which is
    ///   what lets the VM pre-reserve stack capacity at frame entry and
    ///   use unchecked push/pop in the dispatch loop.
    ///
    /// The VM runs this once at load and refuses programs that fail, making
    /// the per-op bounds checks it skips provably redundant. The compiler
    /// always produces valid programs; this guards hand-built or corrupted
    /// ones.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<Vec<u32>, String> {
        let mut max_stacks = Vec::with_capacity(self.codes.len());
        for (ci, code) in self.codes.iter().enumerate() {
            let n = code.ops.len();
            if !matches!(code.ops.last(), Some(Op::Return)) {
                return Err(format!(
                    "code {ci} ({}): does not end with Return",
                    code.name
                ));
            }
            if code.n_params > code.n_locals {
                return Err(format!(
                    "code {ci} ({}): {} parameters but {} local slots",
                    code.name, code.n_params, code.n_locals
                ));
            }
            for c in &code.consts {
                if let Const::Func(id) = *c {
                    if id >= self.codes.len() {
                        return Err(format!(
                            "code {ci} ({}): function constant names missing code {id}",
                            code.name
                        ));
                    }
                }
            }
            for (pc, &op) in code.ops.iter().enumerate() {
                let fault = match op {
                    Op::LoadLocal(i) | Op::StoreLocal(i) if i >= code.n_locals => {
                        format!("local slot {i} >= {}", code.n_locals)
                    }
                    Op::LoadConst(i) | Op::MakeFunction(i) if i as usize >= code.consts.len() => {
                        format!("const index {i} out of range")
                    }
                    Op::LoadGlobal(i) | Op::StoreGlobal(i) | Op::CallMethod { name: i, .. }
                        if i as usize >= code.names.len() =>
                    {
                        format!("name index {i} out of range")
                    }
                    Op::ListAppend(0) => "ListAppend(0) has no list below its value".into(),
                    _ => match op.jump_target() {
                        Some(t) if t as usize >= n => format!("jump target {t} out of range"),
                        _ => continue,
                    },
                };
                return Err(format!("code {ci} ({}) pc {pc}: {fault}", code.name));
            }
            max_stacks.push(
                code.max_stack_depth()
                    .map_err(|e| format!("code {ci} ({}): {e}", code.name))?,
            );
        }
        Ok(max_stacks)
    }
}

/// The deepest operand stack a code object may use. Frame entry reserves
/// a code's whole proven depth, so the bound caps that allocation.
const MAX_STACK_DEPTH: u32 = 1 << 20;

/// `(pops, pushes)` of a straight-line op. Branching ops
/// (`Jump`/`PopJumpIf*`/`JumpIf*Peek`/`ForIter`) and `Return` have
/// path-dependent effects and are handled by [`Code::max_stack_depth`]
/// directly.
fn linear_stack_effect(op: Op) -> (u32, u32) {
    match op {
        Op::LoadConst(_) | Op::LoadLocal(_) | Op::LoadGlobal(_) | Op::MakeFunction(_) => (0, 1),
        Op::StoreLocal(_) | Op::StoreGlobal(_) | Op::Pop => (1, 0),
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
        | Op::CmpGe
        | Op::CmpIn
        | Op::CmpNotIn
        | Op::IndexLoad => (2, 1),
        Op::Neg | Op::Not | Op::GetIter => (1, 1),
        Op::BuildList(k) | Op::BuildTuple(k) => (u32::from(k), 1),
        Op::BuildDict(k) => (2 * u32::from(k), 1),
        Op::IndexStore => (3, 0),
        Op::IndexDel => (2, 0),
        Op::SliceLoad => (3, 1),
        Op::Dup2 => (2, 4),
        // Pops the value, then touches the list `k - 1` below the new top —
        // encoded as pop-all/push-back so the depth requirement is enforced.
        Op::ListAppend(k) => (u32::from(k) + 1, u32::from(k)),
        Op::Call(k) => (u32::from(k) + 1, 1),
        Op::CallMethod { argc, .. } => (u32::from(argc) + 1, 1),
        Op::UnpackSequence(k) => (1, u32::from(k)),
        _ => unreachable!("non-linear op in linear_stack_effect: {op:?}"),
    }
}

impl Code {
    /// Worklist dataflow over the instruction stream: checks that the
    /// operand stack never underflows and that every reachable pc is entered
    /// at exactly one depth, and returns the maximum depth any reachable
    /// path attains. Must run after jump targets have been bounds-checked.
    fn max_stack_depth(&self) -> Result<u32, String> {
        let n = self.ops.len();
        let mut depth_at: Vec<Option<u32>> = vec![None; n];
        let mut work: Vec<(usize, u32)> = vec![(0, 0)];
        let mut max_depth: u32 = 0;
        while let Some((pc, d)) = work.pop() {
            match depth_at[pc] {
                Some(seen) if seen == d => continue,
                Some(seen) => {
                    return Err(format!("pc {pc}: inconsistent stack depth ({seen} vs {d})"));
                }
                None => depth_at[pc] = Some(d),
            }
            let need = |pops: u32| -> Result<(), String> {
                if d < pops {
                    Err(format!(
                        "pc {pc}: stack underflow (depth {d}, op pops {pops})"
                    ))
                } else {
                    Ok(())
                }
            };
            let next = match self.ops[pc] {
                Op::Jump(t) => {
                    work.push((t as usize, d));
                    continue;
                }
                Op::Return => {
                    need(1)?;
                    continue;
                }
                Op::PopJumpIfFalse(t) | Op::PopJumpIfTrue(t) => {
                    need(1)?;
                    work.push((t as usize, d - 1));
                    d - 1
                }
                Op::JumpIfFalsePeek(t) | Op::JumpIfTruePeek(t) => {
                    // The jump path keeps TOS; the fall-through pops it.
                    need(1)?;
                    work.push((t as usize, d));
                    d - 1
                }
                Op::ForIter(t) => {
                    // Exhaustion pops the iterator and jumps; the
                    // fall-through pushes the produced item on top of it.
                    need(1)?;
                    work.push((t as usize, d - 1));
                    d + 1
                }
                op => {
                    let (pops, pushes) = linear_stack_effect(op);
                    need(pops)?;
                    d - pops + pushes
                }
            };
            // Bounding every depth also keeps the arithmetic above from
            // overflowing: no op pushes more than `u16::MAX` values.
            if next > MAX_STACK_DEPTH {
                return Err(format!(
                    "pc {pc}: stack depth {next} exceeds {MAX_STACK_DEPTH}"
                ));
            }
            max_depth = max_depth.max(next);
            if pc + 1 >= n {
                return Err(format!("pc {pc}: falls through the end of the code"));
            }
            work.push((pc + 1, next));
        }
        Ok(max_depth)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for code in &self.codes {
            writeln!(f, "{}", code.disassemble())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classes_cover_costing_buckets() {
        assert_eq!(Op::Add.class(), OpClass::Arith);
        assert_eq!(Op::LoadLocal(0).class(), OpClass::Stack);
        assert_eq!(Op::LoadGlobal(0).class(), OpClass::Name);
        assert_eq!(Op::IndexLoad.class(), OpClass::Memory);
        assert_eq!(Op::BuildList(2).class(), OpClass::Alloc);
        assert_eq!(Op::Jump(0).class(), OpClass::Branch);
        assert_eq!(Op::Call(1).class(), OpClass::Call);
        assert_eq!(Op::CmpIn.class(), OpClass::Dict);
    }

    #[test]
    fn jump_targets() {
        assert_eq!(Op::Jump(7).jump_target(), Some(7));
        assert_eq!(Op::ForIter(3).jump_target(), Some(3));
        assert_eq!(Op::Add.jump_target(), None);
    }

    #[test]
    fn disassembly_mentions_names_and_consts() {
        let code = Code {
            name: "f".into(),
            n_params: 0,
            n_locals: 1,
            ops: vec![
                Op::LoadConst(0),
                Op::StoreLocal(0),
                Op::LoadGlobal(0),
                Op::Return,
            ],
            lines: vec![1, 1, 2, 2],
            consts: vec![Const::Int(42)],
            names: vec!["g".into()],
        };
        let d = code.disassemble();
        assert!(d.contains("LOAD_CONST"));
        assert!(d.contains("42"));
        assert!(d.contains("LOAD_GLOBAL g"));
    }
}
