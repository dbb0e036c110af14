//! Hostile bytecode: `Program::validate` is the soundness boundary for the
//! dispatch loop's unchecked op fetch, constant and local access, and
//! operand-stack push/pop. Every program a mutation of a real workload's
//! bytecode produces must either be rejected by the validator, or load and
//! run — under a fuel budget, in this debug build with its `debug_assert`s
//! live — to a value or a typed `MpError`. Never a panic.

use std::mem::discriminant;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use minipy::bytecode::{Const, Op, Program};
use minipy::{compile, CompiledProgram, JitConfig, JitMode, Session, VmConfig};
use proptest::prelude::*;
use rigor_workloads::{suite, Size};

/// Every suite workload compiled at `Size::Small`, in registry order.
fn programs() -> &'static [(&'static str, Program)] {
    static PROGRAMS: OnceLock<Vec<(&'static str, Program)>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        suite()
            .into_iter()
            .map(|w| (w.name, compile(&w.source(Size::Small)).expect("compile")))
            .collect()
    })
}

/// An opcode of every variant, its operand (if any) taken from `k`.
fn variant(i: usize, k: u32) -> Op {
    let h = k as u16;
    match i % 44 {
        0 => Op::LoadConst(h),
        1 => Op::LoadLocal(h),
        2 => Op::StoreLocal(h),
        3 => Op::LoadGlobal(h),
        4 => Op::StoreGlobal(h),
        5 => Op::Add,
        6 => Op::Sub,
        7 => Op::Mul,
        8 => Op::Div,
        9 => Op::FloorDiv,
        10 => Op::Mod,
        11 => Op::Pow,
        12 => Op::CmpEq,
        13 => Op::CmpNe,
        14 => Op::CmpLt,
        15 => Op::CmpLe,
        16 => Op::CmpGt,
        17 => Op::CmpGe,
        18 => Op::CmpIn,
        19 => Op::CmpNotIn,
        20 => Op::Neg,
        21 => Op::Not,
        22 => Op::Jump(k),
        23 => Op::PopJumpIfFalse(k),
        24 => Op::PopJumpIfTrue(k),
        25 => Op::JumpIfFalsePeek(k),
        26 => Op::JumpIfTruePeek(k),
        27 => Op::BuildList(h),
        28 => Op::BuildTuple(h),
        29 => Op::BuildDict(h),
        30 => Op::IndexLoad,
        31 => Op::IndexStore,
        32 => Op::IndexDel,
        33 => Op::SliceLoad,
        34 => Op::Dup2,
        35 => Op::ListAppend(h),
        36 => Op::Pop,
        37 => Op::Call(h),
        38 => Op::CallMethod { name: h, argc: 1 },
        39 => Op::Return,
        40 => Op::GetIter,
        41 => Op::ForIter(k),
        42 => Op::UnpackSequence(h),
        _ => Op::MakeFunction(h),
    }
}

/// The op with its (first) operand replaced by `v`, or `None` for an op
/// without one. `second` picks `CallMethod`'s argument count instead of
/// its name.
fn with_operand(op: Op, v: u32, second: bool) -> Option<Op> {
    let h = v as u16;
    Some(match op {
        Op::LoadConst(_) => Op::LoadConst(h),
        Op::LoadLocal(_) => Op::LoadLocal(h),
        Op::StoreLocal(_) => Op::StoreLocal(h),
        Op::LoadGlobal(_) => Op::LoadGlobal(h),
        Op::StoreGlobal(_) => Op::StoreGlobal(h),
        Op::Jump(_) => Op::Jump(v),
        Op::PopJumpIfFalse(_) => Op::PopJumpIfFalse(v),
        Op::PopJumpIfTrue(_) => Op::PopJumpIfTrue(v),
        Op::JumpIfFalsePeek(_) => Op::JumpIfFalsePeek(v),
        Op::JumpIfTruePeek(_) => Op::JumpIfTruePeek(v),
        Op::BuildList(_) => Op::BuildList(h),
        Op::BuildTuple(_) => Op::BuildTuple(h),
        Op::BuildDict(_) => Op::BuildDict(h),
        Op::ListAppend(_) => Op::ListAppend(h),
        Op::Call(_) => Op::Call(h),
        Op::CallMethod { name, .. } if second => Op::CallMethod { name, argc: h },
        Op::CallMethod { argc, .. } => Op::CallMethod { name: h, argc },
        Op::ForIter(_) => Op::ForIter(v),
        Op::UnpackSequence(_) => Op::UnpackSequence(h),
        Op::MakeFunction(_) => Op::MakeFunction(h),
        _ => return None,
    })
}

/// The op's (first) operand, if it has one.
fn operand(op: Op) -> Option<u32> {
    match op {
        Op::LoadConst(i)
        | Op::LoadLocal(i)
        | Op::StoreLocal(i)
        | Op::LoadGlobal(i)
        | Op::StoreGlobal(i)
        | Op::BuildList(i)
        | Op::BuildTuple(i)
        | Op::BuildDict(i)
        | Op::ListAppend(i)
        | Op::Call(i)
        | Op::CallMethod { name: i, .. }
        | Op::UnpackSequence(i)
        | Op::MakeFunction(i) => Some(u32::from(i)),
        other => other.jump_target(),
    }
}

/// Another op with the same stack effect as `op`, drawn from `r`, with its
/// operand kept inside the code's tables: the swaps most likely to pass
/// validation and hand the runtime values of a type it did not expect.
fn same_shape(op: Op, r: usize, n_locals: u16, n_consts: usize, n_names: usize) -> Op {
    let k = operand(op).unwrap_or(0) as usize;
    let pick = |ops: &[Op]| ops[r % ops.len()];
    let within = |n: usize| (k % n.max(1)) as u16;
    match op {
        Op::LoadConst(_) | Op::LoadLocal(_) | Op::LoadGlobal(_) | Op::MakeFunction(_) => {
            let mut ops = vec![
                Op::LoadConst(within(n_consts)),
                Op::MakeFunction(within(n_consts)),
            ];
            if n_locals > 0 {
                ops.push(Op::LoadLocal(within(usize::from(n_locals))));
            }
            if n_names > 0 {
                ops.push(Op::LoadGlobal(within(n_names)));
            }
            pick(&ops)
        }
        Op::StoreLocal(_) | Op::StoreGlobal(_) | Op::Pop => {
            let mut ops = vec![Op::Pop];
            if n_locals > 0 {
                ops.push(Op::StoreLocal(within(usize::from(n_locals))));
            }
            if n_names > 0 {
                ops.push(Op::StoreGlobal(within(n_names)));
            }
            pick(&ops)
        }
        Op::Neg | Op::Not | Op::GetIter => pick(&[Op::Neg, Op::Not, Op::GetIter]),
        Op::PopJumpIfFalse(t) | Op::PopJumpIfTrue(t) => {
            pick(&[Op::PopJumpIfFalse(t), Op::PopJumpIfTrue(t)])
        }
        Op::JumpIfFalsePeek(t) | Op::JumpIfTruePeek(t) => {
            pick(&[Op::JumpIfFalsePeek(t), Op::JumpIfTruePeek(t)])
        }
        Op::Call(argc) | Op::CallMethod { argc, .. } => {
            let mut ops = vec![
                Op::Call(argc),
                Op::BuildList(argc + 1),
                Op::BuildTuple(argc + 1),
            ];
            if n_names > 0 {
                ops.push(Op::CallMethod {
                    name: within(n_names),
                    argc,
                });
            }
            pick(&ops)
        }
        op if BINARY.contains(&op) => pick(&BINARY),
        other => other,
    }
}

/// The ops that pop two values and push one.
const BINARY: [Op; 16] = [
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Div,
    Op::FloorDiv,
    Op::Mod,
    Op::Pow,
    Op::CmpEq,
    Op::CmpNe,
    Op::CmpLt,
    Op::CmpLe,
    Op::CmpGt,
    Op::CmpGe,
    Op::CmpIn,
    Op::CmpNotIn,
    Op::IndexLoad,
];

/// Applies one mutation, drawn from `r`, to `program`; returns what it did.
///
/// Five kinds: swap the op at a pc for any other opcode (keeping its
/// operand where the new one takes one); swap it for one of the same
/// stack effect; rewrite an operand — a jump target, a local, constant or
/// name index, a count — to a boundary value (off by one, a table length,
/// zero, the type's maximum); truncate a code object's instruction stream;
/// or rewrite a code object's parameter or local count, or the code id a
/// function constant names.
fn mutate(program: &mut Program, r: u64) -> String {
    let pick = |salt: u32, n: usize| ((r.rotate_left(salt) >> 8) % n as u64) as usize;
    let n_codes = program.codes.len();
    let ci = pick(0, n_codes);
    let code = &mut program.codes[ci];
    if r % 5 == 4 {
        let v = [0, 1, 2, n_codes, usize::from(u16::MAX)][pick(7, 5)];
        let funcs: Vec<usize> = (0..code.consts.len())
            .filter(|&i| matches!(code.consts[i], Const::Func(_)))
            .collect();
        return match pick(3, 3) {
            0 => {
                code.n_params = v as u16;
                format!("code {ci}: n_params = {v}")
            }
            1 => {
                code.n_locals = v as u16;
                format!("code {ci}: n_locals = {v}")
            }
            _ if funcs.is_empty() => format!("code {ci}: no function constant"),
            _ => {
                let i = funcs[pick(47, funcs.len())];
                code.consts[i] = Const::Func(v);
                format!("code {ci} const {i}: Func({v})")
            }
        };
    }
    if code.ops.is_empty() {
        return format!("code {ci}: already empty");
    }
    // Choose an opcode kind first, then one of its pcs, so rare ops (a
    // comprehension's `ListAppend`, `UnpackSequence`) get mutated as often
    // as the loads that dominate every stream.
    let mut kinds = Vec::new();
    for op in &code.ops {
        if !kinds.contains(&discriminant(op)) {
            kinds.push(discriminant(op));
        }
    }
    let kind = kinds[pick(13, kinds.len())];
    let pcs: Vec<usize> = (0..code.ops.len())
        .filter(|&pc| discriminant(&code.ops[pc]) == kind)
        .collect();
    let pc = pcs[pick(53, pcs.len())];
    let old = code.ops[pc];
    match r % 5 {
        0 => {
            let k = operand(old).unwrap_or(1);
            code.ops[pc] = variant(pick(29, 44), k);
        }
        1 => {
            let (n_locals, n_consts, n_names) =
                (code.n_locals, code.consts.len(), code.names.len());
            code.ops[pc] = same_shape(old, pick(29, 64), n_locals, n_consts, n_names);
        }
        2 => {
            let k = operand(old).unwrap_or(0);
            let candidates = [
                0,
                1,
                k.wrapping_sub(1),
                k + 1,
                u32::from(code.n_locals),
                code.consts.len() as u32,
                code.names.len() as u32,
                code.ops.len() as u32 - 1,
                code.ops.len() as u32,
                n_codes as u32,
                u32::from(u16::MAX),
                u32::MAX,
            ];
            let v = candidates[pick(41, candidates.len())];
            match with_operand(old, v, r & 4 == 4) {
                Some(op) => code.ops[pc] = op,
                None => code.ops[pc] = variant(pick(29, 44), v),
            }
        }
        3 => {
            code.ops.truncate(pc);
            return format!("code {ci}: truncated to {pc} ops");
        }
        _ => unreachable!("header edits returned above"),
    }
    format!("code {ci} pc {pc}: {old:?} -> {:?}", code.ops[pc])
}

/// Runs a validated program on one engine: module setup, then two
/// iterations of `run()`, each under a fuel budget. Errors end the run.
fn run_bounded(program: &CompiledProgram, mut config: VmConfig) {
    config.step_budget = Some(50_000);
    if let Ok(mut session) = Session::start_from(program, 7, config) {
        for _ in 0..2 {
            if session.run_iteration().is_err() {
                break;
            }
        }
    }
}

/// The JIT with a tiny hot threshold, so mutated loops compile and their
/// guards run too.
fn eager_jit() -> VmConfig {
    VmConfig {
        engine: minipy::EngineKind::Jit(JitConfig {
            hot_threshold: 4,
            max_guard_failures: 2,
            mode: JitMode::Full,
        }),
        ..VmConfig::default()
    }
}

/// Whether `program` is rejected by the validator, or runs on both
/// engines without a panic.
fn rejected_or_runs_cleanly(program: Program) -> bool {
    if program.validate().is_err() {
        return true;
    }
    let frozen = CompiledProgram::from_program(program);
    [VmConfig::interp(), eager_jit()]
        .into_iter()
        .all(|config| catch_unwind(AssertUnwindSafe(|| run_bounded(&frozen, config))).is_ok())
}

/// Edits `validate` once let through to a panic, kept as fixed cases (the
/// property drew the function-constant one).
#[test]
fn known_hostile_edits_are_rejected() {
    let src = "def run():\n    xs = [i * 2 for i in range(4)]\n    return f(len(xs), 0)\n\
               def f(n, m):\n    return n + 1\n";
    let base = compile(src).expect("compile");
    let run = base
        .codes
        .iter()
        .position(|c| c.name == "run")
        .expect("run");
    let f = base.codes.iter().position(|c| c.name == "f").expect("f");

    // `ListAppend(0)` has the stack effect of any other `ListAppend`, but
    // its handler reads the list at depth `n - 1`.
    let mut p = base.clone();
    for op in &mut p.codes[run].ops {
        if let Op::ListAppend(_) = op {
            *op = Op::ListAppend(0);
        }
    }
    assert!(
        rejected_or_runs_cleanly(p),
        "ListAppend(0) passed validation, then panicked"
    );

    // More parameters than local slots (`f` reads only its first): the
    // call copies its arguments into a locals vector of `n_locals` slots.
    let mut p = base.clone();
    p.codes[f].n_locals = 1;
    assert!(
        rejected_or_runs_cleanly(p),
        "n_params > n_locals passed validation, then panicked"
    );

    // A function constant naming a code object that does not exist.
    let mut p = base.clone();
    let n_codes = p.codes.len();
    for c in &mut p.codes[0].consts {
        if let Const::Func(id) = c {
            *id = n_codes;
        }
    }
    assert!(
        rejected_or_runs_cleanly(p),
        "Func(n_codes) passed validation, then panicked"
    );

    // A stack that only grows: 131 072 unpacks of 65 535 values each pass
    // `u32::MAX` in the depth dataflow itself, and a frame entry would
    // reserve the whole proven depth.
    let mut p = base.clone();
    let code = &mut p.codes[run];
    code.ops = vec![Op::UnpackSequence(u16::MAX); 1 + (1 << 17)];
    code.ops[0] = Op::LoadConst(0);
    code.ops.push(Op::Return);
    code.lines = vec![1; code.ops.len()];
    assert!(
        rejected_or_runs_cleanly(p),
        "an ever-growing stack passed validation, then panicked"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Mutated bytecode is rejected, or it runs to a value or a typed error.
    #[test]
    fn mutated_bytecode_is_rejected_or_runs_cleanly(
        workload in 0usize..1000,
        draws in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        let all = programs();
        let (name, program) = &all[workload % all.len()];
        let mut program = program.clone();
        let edits: Vec<String> = draws.iter().map(|&r| mutate(&mut program, r)).collect();
        prop_assert!(
            rejected_or_runs_cleanly(program),
            "{name} with {edits:?} passed validation, then panicked"
        );
    }
}
