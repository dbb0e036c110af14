//! The virtual machine: session state, engine selection, cost charging.
//!
//! One [`Vm`] corresponds to one *VM invocation* in benchmarking-methodology
//! terms: it owns a fresh heap, fresh seeds for every nondeterminism source,
//! fresh JIT state, and a virtual clock starting at zero. The interpreter
//! loop itself lives in the crate-private `interp` module.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::builtins::{resolve_builtin, resolve_method, MethodId};
use crate::bytecode::{Const, OpClass, Program};
use crate::clock::VirtualClock;
use crate::compiler::compile;
use crate::cost::{CostModel, OpClassTable};
use crate::error::{MpError, MpResult, RuntimeErrorKind};
use crate::frame::{op_class_index, DynCounters, Frame, ALL_OP_CLASSES};
use crate::gc;
use crate::heap::{Heap, Object};
use crate::jit::{JitConfig, JitState};
use crate::noise::{sample_layout_factor, NoiseConfig, OsJitter};
use crate::value::Value;

/// Which execution engine a session uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// CPython-like switch-dispatch interpreter.
    Interp,
    /// Tracing-JIT engine (PyPy-like), with the given configuration.
    Jit(JitConfig),
}

impl EngineKind {
    /// Short display name used in reports (distinguishes JIT modes).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Interp => "interp",
            EngineKind::Jit(cfg) => match cfg.mode {
                crate::jit::JitMode::Full => "jit",
                crate::jit::JitMode::LoopsOnly => "jit-loops",
                crate::jit::JitMode::FunctionsOnly => "jit-methods",
            },
        }
    }
}

/// Configuration for a VM session.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Execution engine.
    pub engine: EngineKind,
    /// Active nondeterminism sources.
    pub noise: NoiseConfig,
    /// Virtual-time cost model.
    pub cost: CostModel,
    /// Whether `print` output is rendered and captured (it always costs
    /// virtual time proportional to the rendered length when enabled).
    pub capture_output: bool,
    /// Abort execution with a typed `Timeout` error when the virtual clock
    /// passes this deadline.
    pub time_budget_ns: Option<f64>,
    /// Abort execution with a typed `FuelExhausted` error after this many
    /// executed opcodes. Unlike the virtual-time deadline this is immune to
    /// cost-model changes, so it bounds divergent workloads deterministically.
    pub step_budget: Option<u64>,
    /// Maximum call-stack depth.
    pub recursion_limit: usize,
    /// Pins the GC allocation threshold (disables adaptive growth);
    /// `None` keeps the default adaptive behaviour.
    pub gc_threshold: Option<u64>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            engine: EngineKind::Interp,
            noise: NoiseConfig::default(),
            cost: CostModel::default(),
            capture_output: false,
            time_budget_ns: Some(60.0e9),
            step_budget: None,
            recursion_limit: 4_000,
            gc_threshold: None,
        }
    }
}

impl VmConfig {
    /// Interpreter engine with default settings.
    pub fn interp() -> Self {
        VmConfig::default()
    }

    /// JIT engine with default settings.
    pub fn jit() -> Self {
        VmConfig {
            engine: EngineKind::Jit(JitConfig::default()),
            ..VmConfig::default()
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-code-object tables resolved once at load and immutable afterwards:
/// constant pools as runtime values, name → global-slot bindings, name →
/// builtin-method ids. Grouped per code so the dispatch loop holds one
/// reference instead of indexing three parallel vectors.
pub(crate) struct CodeStatics {
    /// Constant pool resolved to runtime values.
    pub(crate) consts: Vec<Value>,
    /// Name index → global slot.
    pub(crate) name_slots: Vec<u32>,
    /// Name index → builtin method id, if the name is one.
    pub(crate) method_ids: Vec<Option<MethodId>>,
    /// Per-pc [`op_class_index`] values, parallel to the code's ops: one
    /// byte load replaces two match lookups in the dispatch loop's charge.
    pub(crate) class_idx: Vec<u8>,
    /// Maximum operand-stack depth any reachable path through this code can
    /// attain, proven by the load-time dataflow in [`Program::validate`].
    /// Frame entry reserves this much stack capacity so the dispatch loop's
    /// unchecked pushes can never write past it.
    pub(crate) max_stack: u32,
}

/// One VM invocation: program + heap + engine + clock + noise.
pub struct Vm {
    pub(crate) program: Arc<Program>,
    pub(crate) heap: Heap,
    /// Global variable slots (interned across all code objects).
    pub(crate) globals: Vec<Option<Value>>,
    pub(crate) global_names: HashMap<String, u32>,
    /// Per code object: load-time-resolved tables (consts, names, methods).
    /// Shared with the dispatch loop through the `Arc` so handlers can take
    /// `&mut self` while a view is held.
    pub(crate) statics: Arc<Vec<CodeStatics>>,
    /// GC roots that live for the whole session (interned consts, builtins).
    pub(crate) pinned: Vec<Value>,
    pub(crate) stack: Vec<Value>,
    pub(crate) frames: Vec<Frame>,
    pub(crate) clock: VirtualClock,
    pub(crate) cost: CostModel,
    pub(crate) layout_factor: f64,
    /// Effective per-op-class costs with the layout factor pre-applied:
    /// `eff_cost[compiled as usize][op_class_index(class)]`. Products are
    /// computed once at load in the same association order as the original
    /// per-op computation, so every `clock.advance` sees bit-identical
    /// operands.
    pub(crate) eff_cost: [[f64; 8]; 2],
    pub(crate) jitter: OsJitter,
    pub(crate) noise: NoiseConfig,
    pub(crate) counters: DynCounters,
    /// Op counts accumulated by the dispatch loop since the last flush
    /// (virtual time is still advanced per op — f64 addition order is
    /// observable — but integer counters batch).
    pub(crate) pending_ops: [u64; 8],
    pub(crate) pending_jit_ops: u64,
    /// Recycled frame-locals buffers (capped; allocation cost is virtual, so
    /// pooling changes wall-clock only).
    pub(crate) locals_pool: Vec<Vec<Value>>,
    pub(crate) jit: Option<JitState>,
    pub(crate) stdout: String,
    pub(crate) capture_output: bool,
    pub(crate) time_budget_ns: Option<f64>,
    pub(crate) step_budget: Option<u64>,
    pub(crate) recursion_limit: usize,
    pub(crate) ops_since_housekeeping: u32,
    engine: EngineKind,
    /// The invocation seed this session was created with.
    seed: u64,
}

impl Vm {
    /// Compiles `source` and creates a session with the given invocation
    /// `seed` and configuration.
    ///
    /// # Errors
    ///
    /// Returns lex/parse/compile errors from `source`.
    pub fn compile_and_load(source: &str, seed: u64, config: VmConfig) -> MpResult<Vm> {
        let program = compile(source)?;
        Ok(Self::load(program, seed, config))
    }

    /// Creates a session for an already compiled program.
    pub fn load(program: Program, seed: u64, config: VmConfig) -> Vm {
        Self::load_shared(Arc::new(program), seed, config)
    }

    /// Creates a session over a shared, already compiled program — the
    /// parse-once path: many invocations can be instantiated from one
    /// `Arc<Program>` without re-lexing, re-parsing or re-compiling.
    ///
    /// # Panics
    ///
    /// If the program fails [`Program::validate`]. The dispatch loop skips
    /// per-op bounds checks that validation proves redundant, so executing
    /// an unvalidated program is never allowed. Compiler output always
    /// passes; only hand-built programs can trip this.
    pub fn load_shared(program: Arc<Program>, seed: u64, config: VmConfig) -> Vm {
        let max_stacks = match program.validate() {
            Ok(depths) => depths,
            Err(msg) => panic!("refusing to load invalid program: {msg}"),
        };
        let mut seed_state = seed;
        let hash_entropy = splitmix64(&mut seed_state);
        let layout_seed = splitmix64(&mut seed_state);
        let jitter_seed = splitmix64(&mut seed_state);

        let hash_seed = if config.noise.hash_randomization {
            hash_entropy
        } else {
            0
        };
        let mut heap = Heap::with_seed(hash_seed);
        if let Some(t) = config.gc_threshold {
            heap.set_gc_threshold(t);
        }
        let mut layout_rng = StdRng::seed_from_u64(layout_seed);
        let layout_factor = sample_layout_factor(&mut layout_rng, config.noise.layout);
        let jitter = OsJitter::new(jitter_seed, config.noise.os_jitter);

        // Intern globals across all code objects; bind builtins. The name
        // and method tables land in per-code `CodeStatics` alongside the
        // resolved constant pools.
        let mut global_names: HashMap<String, u32> = HashMap::new();
        let mut globals: Vec<Option<Value>> = Vec::new();
        let mut pinned: Vec<Value> = Vec::new();
        let mut statics: Vec<CodeStatics> = Vec::with_capacity(program.codes.len());
        for (code, &max_stack) in program.codes.iter().zip(&max_stacks) {
            let mut slots = Vec::with_capacity(code.names.len());
            let mut mids = Vec::with_capacity(code.names.len());
            for name in &code.names {
                let slot = *global_names.entry(name.clone()).or_insert_with(|| {
                    globals.push(None);
                    (globals.len() - 1) as u32
                });
                // Bind builtins lazily, once per name.
                if globals[slot as usize].is_none() {
                    if let Some(b) = resolve_builtin(name) {
                        let h = heap.alloc(Object::Builtin(b));
                        let v = Value::Obj(h);
                        globals[slot as usize] = Some(v);
                        pinned.push(v);
                    }
                }
                slots.push(slot);
                mids.push(resolve_method(name));
            }
            statics.push(CodeStatics {
                consts: Vec::new(),
                name_slots: slots,
                method_ids: mids,
                class_idx: code
                    .ops
                    .iter()
                    .map(|op| op_class_index(op.class()) as u8)
                    .collect(),
                max_stack,
            });
        }

        // Resolve constant pools into runtime values.
        for (code, cs) in program.codes.iter().zip(&mut statics) {
            let mut vals = Vec::with_capacity(code.consts.len());
            for c in &code.consts {
                let v = match c {
                    Const::None => Value::None,
                    Const::Bool(b) => Value::Bool(*b),
                    Const::Int(i) => Value::Int(*i),
                    Const::Float(f) => Value::Float(*f),
                    Const::Str(s) => {
                        let h = heap.alloc_str(s.clone());
                        let v = Value::Obj(h);
                        pinned.push(v);
                        v
                    }
                    Const::Func(code_id) => {
                        let h = heap.alloc(Object::Function { code_id: *code_id });
                        let v = Value::Obj(h);
                        pinned.push(v);
                        v
                    }
                };
                vals.push(v);
            }
            cs.consts = vals;
        }

        // Pre-apply the layout factor per op class, preserving the exact
        // operands and association order of the original per-op computation
        // (`base * layout_factor`), so virtual time stays bit-identical.
        let mut eff_cost = [[0.0f64; 8]; 2];
        for (i, &class) in ALL_OP_CLASSES.iter().enumerate() {
            let interp = config.cost.interp_cost(class);
            let jit = config.cost.jit_cost(class);
            if OpClassTable::layout_sensitive(class) {
                eff_cost[0][i] = interp * layout_factor;
                eff_cost[1][i] = jit * layout_factor;
            } else {
                eff_cost[0][i] = interp;
                eff_cost[1][i] = jit;
            }
        }

        let jit = match config.engine {
            EngineKind::Interp => None,
            EngineKind::Jit(jc) => {
                let op_counts: Vec<usize> = program.codes.iter().map(|c| c.ops.len()).collect();
                Some(JitState::new(jc, &op_counts))
            }
        };

        Vm {
            program,
            heap,
            globals,
            global_names,
            statics: Arc::new(statics),
            pinned,
            stack: Vec::with_capacity(256),
            frames: Vec::with_capacity(32),
            clock: VirtualClock::new(),
            cost: config.cost,
            layout_factor,
            eff_cost,
            jitter,
            noise: config.noise,
            counters: DynCounters::default(),
            pending_ops: [0; 8],
            pending_jit_ops: 0,
            locals_pool: Vec::new(),
            jit,
            stdout: String::new(),
            capture_output: config.capture_output,
            time_budget_ns: config.time_budget_ns,
            step_budget: config.step_budget,
            recursion_limit: config.recursion_limit,
            ops_since_housekeeping: 0,
            engine: config.engine,
            seed,
        }
    }

    /// The engine this session runs on.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The invocation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current virtual time, ns.
    pub fn now_ns(&self) -> f64 {
        self.clock.now_ns()
    }

    /// Dynamic-execution counters so far.
    pub fn counters(&self) -> DynCounters {
        self.counters
    }

    /// Heap statistics so far.
    pub fn heap_stats(&self) -> crate::heap::HeapStats {
        self.heap.stats()
    }

    /// Takes and clears everything `print` has emitted so far.
    pub fn take_stdout(&mut self) -> String {
        std::mem::take(&mut self.stdout)
    }

    /// Borrows the heap (for inspecting returned values).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Runs the module body (top-level statements). Typically used once per
    /// session for workload setup.
    ///
    /// # Errors
    ///
    /// Returns any runtime error raised by the program.
    pub fn run_module(&mut self) -> MpResult<Value> {
        self.stack.reserve(self.statics[0].max_stack as usize);
        let frame = Frame {
            code_id: 0,
            pc: 0,
            locals: vec![Value::None; self.program.codes[0].n_locals as usize],
            stack_base: self.stack.len(),
        };
        self.frames.push(frame);
        let min_frames = self.frames.len() - 1;
        self.execute_until(min_frames)
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<Value> {
        let slot = *self.global_names.get(name)?;
        self.globals[slot as usize]
    }

    /// Calls the global function `name` with `args`, returning its result.
    ///
    /// This is the harness's per-iteration entry point: the convention is
    /// that a workload module defines `run()` and the harness calls it once
    /// per iteration.
    ///
    /// # Errors
    ///
    /// `NameError` if the global is missing, `TypeError` if it is not
    /// callable or the arity mismatches, plus any error the code raises.
    pub fn call_function(&mut self, name: &str, args: &[Value]) -> MpResult<Value> {
        let callee = self.global(name).ok_or_else(|| MpError::name_error(name))?;
        let code_id = match callee {
            Value::Obj(h) => match self.heap.get(h) {
                Object::Function { code_id } => *code_id,
                _ => return Err(MpError::type_error(format!("'{name}' is not callable"))),
            },
            _ => return Err(MpError::type_error(format!("'{name}' is not callable"))),
        };
        let code = &self.program.codes[code_id];
        if args.len() != code.n_params as usize {
            return Err(MpError::type_error(format!(
                "{name}() takes {} arguments but {} were given",
                code.n_params,
                args.len()
            )));
        }
        let mut locals = vec![Value::None; code.n_locals as usize];
        locals[..args.len()].copy_from_slice(args);
        self.stack.reserve(self.statics[code_id].max_stack as usize);
        let frame = Frame {
            code_id,
            pc: 0,
            locals,
            stack_base: self.stack.len(),
        };
        // Charge the call like any other call opcode.
        self.charge(OpClass::Call, false);
        let min_frames = self.frames.len();
        self.frames.push(frame);
        self.execute_until(min_frames)
    }

    // ---- cost charging and housekeeping (used by the interpreter) ----

    /// Charges one opcode of `class`, in interpreted or compiled mode.
    #[inline]
    pub(crate) fn charge(&mut self, class: OpClass, compiled: bool) {
        self.clock
            .advance(self.eff_cost[usize::from(compiled)][op_class_index(class)]);
        self.counters.count_op(class, compiled);
    }

    /// The dispatch-loop variant of [`Vm::charge`]: virtual time advances
    /// immediately (f64 addition order is observable), integer counters batch
    /// into `pending_*` and are folded in by [`Vm::flush_op_counters`].
    #[inline]
    pub(crate) fn charge_batched(&mut self, class_idx: usize, compiled: bool) {
        // There are exactly 8 op classes; masking proves the index in range
        // so the hot path carries no bounds checks.
        let class_idx = class_idx & 7;
        self.clock
            .advance(self.eff_cost[usize::from(compiled)][class_idx]);
        self.pending_ops[class_idx] += 1;
        self.pending_jit_ops += u64::from(compiled);
    }

    /// Folds batched op counts into the public counters. Runs at the top of
    /// every housekeeping (the step budget reads `total_ops` there) and at
    /// every dispatch exit, so externally observable counters are always
    /// exact.
    pub(crate) fn flush_op_counters(&mut self) {
        let mut total = 0;
        for i in 0..8 {
            self.counters.ops_by_class[i] += self.pending_ops[i];
            total += self.pending_ops[i];
            self.pending_ops[i] = 0;
        }
        self.counters.total_ops += total;
        self.counters.jit_ops += self.pending_jit_ops;
        self.pending_jit_ops = 0;
    }

    /// Whether the JIT has compiled the region containing `(code_id, pc)`.
    /// `false` for the interpreter engine.
    #[inline]
    pub(crate) fn jit_compiled_at(&self, code_id: usize, pc: usize) -> bool {
        match &self.jit {
            Some(j) => j.is_compiled(code_id, pc),
            None => false,
        }
    }

    /// Charges auxiliary (non-opcode) work such as per-element copying.
    #[inline]
    pub(crate) fn charge_aux(&mut self, ns: f64, layout_sensitive: bool) {
        let cost = if layout_sensitive {
            ns * self.layout_factor
        } else {
            ns
        };
        self.clock.advance(cost);
    }

    /// Charges accumulated dict probe work.
    #[inline]
    pub(crate) fn charge_probes(&mut self, probes: u64) {
        self.counters.dict_probes += probes;
        self.charge_aux(self.cost.dict_probe * probes as f64, true);
    }

    /// Allocates an object, charging allocation cost.
    pub(crate) fn alloc(&mut self, obj: Object) -> crate::value::Handle {
        self.counters.allocations += 1;
        self.charge_aux(self.cost.alloc_object, true);
        self.heap.alloc(obj)
    }

    /// Runs housekeeping due at an op boundary: GC (if armed), OS jitter,
    /// time budget. Called by the interpreter between instructions.
    pub(crate) fn housekeeping(&mut self) -> MpResult<()> {
        self.flush_op_counters();
        if self.heap.should_collect() {
            self.run_gc();
        }
        self.ops_since_housekeeping = 0;
        let pause = self.jitter.pauses_until(self.clock.now_ns());
        if pause > 0.0 {
            self.clock.advance(pause);
            self.counters.jitter_ns += pause;
            self.counters.jitter_events += 1;
        }
        if let Some(budget) = self.time_budget_ns {
            if self.clock.now_ns() > budget {
                return Err(MpError::runtime(
                    RuntimeErrorKind::Timeout,
                    format!("virtual-time deadline of {budget} ns passed"),
                ));
            }
        }
        if let Some(budget) = self.step_budget {
            if self.counters.total_ops > budget {
                return Err(MpError::runtime(
                    RuntimeErrorKind::FuelExhausted,
                    format!("step budget of {budget} opcodes exhausted"),
                ));
            }
        }
        Ok(())
    }

    /// Runs a GC cycle with full roots and charges the pause.
    pub(crate) fn run_gc(&mut self) {
        // Feed the roots straight to the collector without materializing
        // them: the iterator borrows stack/frames/globals/pinned shared while
        // the collector mutates only the (disjoint) heap field. Root order is
        // stack, frame locals, globals, pinned — same as ever.
        let Vm {
            heap,
            stack,
            frames,
            globals,
            pinned,
            ..
        } = self;
        let roots = stack
            .iter()
            .copied()
            .chain(frames.iter().flat_map(|f| f.locals.iter().copied()))
            .chain(globals.iter().flatten().copied())
            .chain(pinned.iter().copied());
        let outcome = gc::collect(heap, roots);
        self.counters.gc_cycles += 1;
        if self.noise.gc_costed {
            let pause = self.cost.gc_pause(outcome.live, outcome.freed);
            self.clock.advance(pause);
            self.counters.gc_pause_ns += pause;
        }
    }

    /// Renders a value using the session heap (for examples and tests).
    pub fn render(&self, v: Value) -> String {
        self.heap.render(v)
    }
}

/// Derives a deterministic per-invocation seed from an experiment seed, a
/// benchmark identifier and the invocation index.
pub fn invocation_seed(experiment_seed: u64, benchmark: &str, invocation: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ experiment_seed.rotate_left(17);
    for b in benchmark.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= u64::from(invocation).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut state = h;
    // One splitmix round for avalanche.
    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_seeds_are_distinct() {
        let a = invocation_seed(1, "nbody", 0);
        let b = invocation_seed(1, "nbody", 1);
        let c = invocation_seed(1, "fib", 0);
        let d = invocation_seed(2, "nbody", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a, invocation_seed(1, "nbody", 0));
    }

    #[test]
    fn hash_seed_pinned_when_randomization_off() {
        let mut cfg = VmConfig::interp();
        cfg.noise.hash_randomization = false;
        let vm1 = Vm::compile_and_load("x = 1\n", 1, cfg.clone()).unwrap();
        let vm2 = Vm::compile_and_load("x = 1\n", 999, cfg).unwrap();
        assert_eq!(vm1.heap.hash_seed(), 0);
        assert_eq!(vm2.heap.hash_seed(), 0);
    }

    #[test]
    fn hash_seed_varies_when_randomization_on() {
        let cfg = VmConfig::interp();
        let vm1 = Vm::compile_and_load("x = 1\n", 1, cfg.clone()).unwrap();
        let vm2 = Vm::compile_and_load("x = 1\n", 2, cfg).unwrap();
        assert_ne!(vm1.heap.hash_seed(), vm2.heap.hash_seed());
    }

    #[test]
    fn layout_factor_is_one_when_disabled() {
        let mut cfg = VmConfig::interp();
        cfg.noise.layout = false;
        let vm = Vm::compile_and_load("x = 1\n", 5, cfg).unwrap();
        assert_eq!(vm.layout_factor, 1.0);
    }

    #[test]
    fn step_budget_aborts_divergent_loop() {
        let mut cfg = VmConfig::interp();
        cfg.step_budget = Some(10_000);
        let mut vm = Vm::compile_and_load("while True:\n    pass\n", 1, cfg).unwrap();
        let err = vm.run_module().expect_err("must exhaust fuel");
        assert_eq!(err.runtime_kind(), Some(RuntimeErrorKind::FuelExhausted));
        // The budget is enforced at housekeeping boundaries, so overshoot is
        // bounded by one housekeeping interval.
        assert!(vm.counters().total_ops < 10_000 + 128);
    }

    #[test]
    fn engine_names() {
        assert_eq!(EngineKind::Interp.name(), "interp");
        assert_eq!(EngineKind::Jit(JitConfig::default()).name(), "jit");
        assert_eq!(EngineKind::Jit(JitConfig::loops_only()).name(), "jit-loops");
        assert_eq!(
            EngineKind::Jit(JitConfig::functions_only()).name(),
            "jit-methods"
        );
    }
}
