//! One benchmark *invocation*: the unit the methodology samples.
//!
//! A [`Session`] models one OS process running a Python VM: it compiles the
//! workload source, executes the module body once (workload setup, analogous
//! to imports and data construction), and then exposes `run()` iterations that
//! the harness times individually. All seeds — hash seed, layout factor,
//! OS-jitter stream — are derived from the single invocation seed, so an
//! experiment is reproducible end-to-end.

use std::sync::Arc;

use crate::bytecode::Program;
use crate::error::{MpError, MpResult};
use crate::frame::DynCounters;
use crate::value::Value;
use crate::vm::{Vm, VmConfig};

/// A workload compiled once and frozen for reuse across many invocations.
///
/// Compilation is deterministic and independent of the invocation seed, so a
/// harness taking many samples of the same workload can parse once and stamp
/// out cheap per-invocation VMs that share the immutable bytecode behind an
/// `Arc` (the parse-once / evaluate-many shape). Sessions started from the
/// same frozen program are bit-identical to sessions that compiled the source
/// themselves.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    program: Arc<Program>,
}

impl CompiledProgram {
    /// Compiles `source` into a frozen, shareable program.
    ///
    /// # Errors
    ///
    /// Lex/parse/compile errors.
    pub fn compile(source: &str) -> MpResult<CompiledProgram> {
        Ok(CompiledProgram {
            program: Arc::new(crate::compiler::compile(source)?),
        })
    }

    /// Freezes an already-compiled program (e.g. a hand-built or mutated
    /// one). Starting a session from it panics unless the program passes
    /// [`Program::validate`].
    pub fn from_program(program: Program) -> CompiledProgram {
        CompiledProgram {
            program: Arc::new(program),
        }
    }

    /// The frozen bytecode program.
    pub fn program(&self) -> &Program {
        &self.program
    }
}

/// Result of a single timed iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationResult {
    /// Virtual time the iteration took, ns.
    pub virtual_ns: f64,
    /// The value returned by `run()` (a checksum by workload convention).
    pub value: Value,
    /// Counter deltas attributable to this iteration.
    pub counters: DynCounters,
}

/// The VM events of one iteration that matter for explaining anomalous
/// timings: GC cycles, JIT compilations and deoptimizations (Barrett et al.;
/// Traini et al.). A compact projection of [`DynCounters`] that harnesses can
/// attach to every timed iteration without dragging the full counter set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmEventDeltas {
    /// GC cycles run during the iteration.
    pub gc_cycles: u64,
    /// JIT regions compiled during the iteration.
    pub jit_compiles: u64,
    /// Guard failures (deoptimizations) during the iteration.
    pub deopts: u64,
}

impl IterationResult {
    /// The GC/JIT/deopt deltas of this iteration, for per-iteration telemetry.
    pub fn vm_deltas(&self) -> VmEventDeltas {
        VmEventDeltas {
            gc_cycles: self.counters.gc_cycles,
            jit_compiles: self.counters.jit_compiles,
            deopts: self.counters.deopts,
        }
    }
}

/// One VM invocation of a workload module.
pub struct Session {
    vm: Vm,
    /// Virtual time consumed by compile + module setup, ns.
    startup_ns: f64,
}

/// Name of the per-iteration entry point every workload must define.
pub const RUN_FUNCTION: &str = "run";

impl Session {
    /// Compiles `source`, creates the VM with `seed`/`config`, and executes
    /// the module body (setup code).
    ///
    /// # Errors
    ///
    /// Compile errors, or runtime errors raised during module setup.
    pub fn start(source: &str, seed: u64, config: VmConfig) -> MpResult<Session> {
        Self::start_from(&CompiledProgram::compile(source)?, seed, config)
    }

    /// Creates the VM from a frozen [`CompiledProgram`] and executes the
    /// module body (setup code), skipping compilation entirely.
    ///
    /// # Errors
    ///
    /// Runtime errors raised during module setup.
    pub fn start_from(program: &CompiledProgram, seed: u64, config: VmConfig) -> MpResult<Session> {
        let mut vm = Vm::load_shared(Arc::clone(&program.program), seed, config);
        vm.run_module()?;
        let startup_ns = vm.now_ns();
        Ok(Session { vm, startup_ns })
    }

    /// Virtual time consumed by startup (compile analogue + module setup).
    pub fn startup_ns(&self) -> f64 {
        self.startup_ns
    }

    /// Runs one timed iteration of the workload's `run()` function.
    ///
    /// # Errors
    ///
    /// `NameError` if the workload defines no `run`, plus anything `run`
    /// raises. A divergent `run` terminates with a typed `Timeout` /
    /// `FuelExhausted` error once the session's virtual-time deadline or
    /// step budget (see [`VmConfig`]) is exceeded — it never spins forever.
    pub fn run_iteration(&mut self) -> MpResult<IterationResult> {
        let counters_before = self.vm.counters();
        let t0 = self.vm.now_ns();
        let value = self.vm.call_function(RUN_FUNCTION, &[])?;
        let virtual_ns = self.vm.now_ns() - t0;
        let counters = self.vm.counters().delta_since(&counters_before);
        Ok(IterationResult {
            virtual_ns,
            value,
            counters,
        })
    }

    /// Runs `n` iterations, returning their virtual times.
    ///
    /// # Errors
    ///
    /// Propagates the first iteration error.
    pub fn run_iterations(&mut self, n: usize) -> MpResult<Vec<f64>> {
        let mut times = Vec::with_capacity(n);
        for _ in 0..n {
            times.push(self.run_iteration()?.virtual_ns);
        }
        Ok(times)
    }

    /// Calls an arbitrary zero-arg function defined by the workload (e.g. a
    /// `checksum()` helper).
    ///
    /// # Errors
    ///
    /// `NameError`/`TypeError` as for any call.
    pub fn call(&mut self, name: &str, args: &[Value]) -> MpResult<Value> {
        self.vm.call_function(name, args)
    }

    /// Renders a value against this session's heap.
    pub fn render(&self, v: Value) -> String {
        self.vm.render(v)
    }

    /// The underlying VM (counters, clock, JIT summary).
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Mutable access to the underlying VM.
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }

    /// Convenience for tests: the rendered result of one extra iteration,
    /// used to compare semantics across engines.
    ///
    /// # Errors
    ///
    /// As [`Session::run_iteration`].
    pub fn checksum(&mut self) -> MpResult<String> {
        let r = self.run_iteration()?;
        Ok(self.render(r.value))
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("engine", &self.vm.engine().name())
            .field("seed", &self.vm.seed())
            .field("startup_ns", &self.startup_ns)
            .field("now_ns", &self.vm.now_ns())
            .finish()
    }
}

/// Quick helper: run `n` iterations of `source` and return the virtual times.
///
/// # Errors
///
/// Compile or runtime errors from the workload.
pub fn measure(source: &str, seed: u64, config: VmConfig, n: usize) -> MpResult<Vec<f64>> {
    let mut s = Session::start(source, seed, config)?;
    s.run_iterations(n)
}

/// Raised when a workload's `run()` returns different checksums on different
/// engines — used by the cross-engine validation helpers.
pub fn check_engines_agree(source: &str, seed: u64) -> MpResult<String> {
    let mut interp = Session::start(source, seed, VmConfig::interp())?;
    let mut jit = Session::start(source, seed, VmConfig::jit())?;
    let a = interp.checksum()?;
    let b = jit.checksum()?;
    if a != b {
        return Err(MpError::runtime(
            crate::error::RuntimeErrorKind::Internal,
            format!("engine mismatch: interp={a} jit={b}"),
        ));
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNT_SRC: &str = "\
N = 1000
def run():
    s = 0
    for i in range(N):
        s += i
    return s
";

    #[test]
    fn session_runs_iterations() {
        let mut s = Session::start(COUNT_SRC, 7, VmConfig::interp()).unwrap();
        let r = s.run_iteration().unwrap();
        assert_eq!(r.value, Value::Int(499_500));
        assert!(r.virtual_ns > 0.0);
        assert!(r.counters.total_ops > 1000);
    }

    #[test]
    fn startup_time_is_recorded() {
        let s = Session::start(COUNT_SRC, 7, VmConfig::interp()).unwrap();
        assert!(s.startup_ns() > 0.0);
    }

    #[test]
    fn same_seed_same_times() {
        let a = measure(COUNT_SRC, 11, VmConfig::interp(), 5).unwrap();
        let b = measure(COUNT_SRC, 11, VmConfig::interp(), 5).unwrap();
        assert_eq!(
            a, b,
            "identical seeds must reproduce identical virtual times"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = measure(COUNT_SRC, 11, VmConfig::interp(), 3).unwrap();
        let b = measure(COUNT_SRC, 12, VmConfig::interp(), 3).unwrap();
        assert_ne!(a, b, "different invocation seeds should perturb timings");
    }

    #[test]
    fn engines_agree_on_semantics() {
        let checksum = check_engines_agree(COUNT_SRC, 5).unwrap();
        assert_eq!(checksum, "499500");
    }

    #[test]
    fn jit_speeds_up_hot_loop() {
        let interp = measure(COUNT_SRC, 3, VmConfig::interp(), 30).unwrap();
        let jit = measure(COUNT_SRC, 3, VmConfig::jit(), 30).unwrap();
        // Compare steady-state tails (last 10 iterations).
        let tail = |v: &[f64]| v[v.len() - 10..].iter().sum::<f64>() / 10.0;
        let speedup = tail(&interp) / tail(&jit);
        assert!(speedup > 2.0, "expected JIT speedup, got {speedup:.2}x");
    }

    #[test]
    fn jit_warmup_shape() {
        let times = measure(COUNT_SRC, 3, VmConfig::jit(), 30).unwrap();
        let first = times[0];
        let last = times[times.len() - 1];
        assert!(
            first > last * 1.5,
            "first iteration {first} should exceed steady {last}"
        );
    }

    #[test]
    fn divergent_run_times_out_with_typed_error() {
        let src = "def run():\n    while True:\n        pass\n";
        let mut cfg = VmConfig::interp();
        cfg.time_budget_ns = Some(1.0e7);
        let mut s = Session::start(src, 1, cfg).unwrap();
        let err = s.run_iteration().expect_err("must hit the deadline");
        assert_eq!(
            err.runtime_kind(),
            Some(crate::error::RuntimeErrorKind::Timeout)
        );
    }

    #[test]
    fn divergent_run_exhausts_fuel_with_typed_error() {
        let src = "def run():\n    while True:\n        pass\n";
        let mut cfg = VmConfig::interp();
        cfg.step_budget = Some(50_000);
        let mut s = Session::start(src, 1, cfg).unwrap();
        let err = s.run_iteration().expect_err("must exhaust fuel");
        assert_eq!(
            err.runtime_kind(),
            Some(crate::error::RuntimeErrorKind::FuelExhausted)
        );
    }

    #[test]
    fn missing_run_function_is_name_error() {
        let r = Session::start("x = 1\n", 1, VmConfig::interp())
            .unwrap()
            .run_iteration();
        assert!(r.is_err());
    }
}
