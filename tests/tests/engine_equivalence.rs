//! Differential tests: the interpreter and the JIT engine must compute the
//! same results, always — the JIT differs in virtual time only.

use integration_tests::test_seed;
use minipy::{CompiledProgram, DynCounters, JitConfig, NoiseConfig, Session, Value, VmConfig};
use proptest::prelude::*;
use rigor_workloads::{random_program, suite, Size};

/// A JIT config with a tiny hot threshold so even short loops compile,
/// maximizing compiled-code coverage in differential tests.
fn eager_jit() -> VmConfig {
    VmConfig {
        engine: minipy::EngineKind::Jit(JitConfig {
            hot_threshold: 10,
            max_guard_failures: 2,
            mode: minipy::JitMode::Full,
        }),
        ..VmConfig::default()
    }
}

fn run_many(src: &str, cfg: VmConfig, seed: u64, iters: usize) -> Vec<String> {
    let mut s = Session::start(src, seed, cfg).expect("session");
    (0..iters)
        .map(|_| {
            let r = s.run_iteration().expect("iteration");
            s.render(r.value)
        })
        .collect()
}

/// Runs `iters` iterations from a frozen program, returning rendered
/// checksums, per-iteration virtual times, and the VM's final counters.
fn sweep(
    program: &CompiledProgram,
    cfg: VmConfig,
    seed: u64,
    iters: usize,
) -> (Vec<String>, Vec<f64>, DynCounters) {
    let mut s = Session::start_from(program, seed, cfg).expect("session");
    let mut sums = Vec::with_capacity(iters);
    let mut times = Vec::with_capacity(iters);
    for _ in 0..iters {
        let r = s.run_iteration().expect("iteration");
        sums.push(s.render(r.value));
        times.push(r.virtual_ns);
    }
    (sums, times, s.vm().counters())
}

/// The parse-once contract, checked over the whole suite on both engines:
/// a frozen program shared across sessions must be invisible — identical
/// checksums, bit-identical virtual-time sequences and identical counters
/// (op-class charge totals, probes, GC, JIT events) versus sessions that
/// compile the source themselves.
#[test]
fn fast_path_sweep_is_bit_identical_across_execution_modes() {
    for w in suite() {
        let src = w.source(Size::Small);
        let seed = test_seed(w.name);
        let frozen = CompiledProgram::compile(&src).expect("compile");
        for mk in [VmConfig::interp as fn() -> VmConfig, eager_jit] {
            let (sums, times, counters) = sweep(&frozen, mk(), seed, 2);
            let mut fresh = Session::start(&src, seed, mk()).expect("session");
            let mut fresh_sums = Vec::new();
            let mut fresh_times = Vec::new();
            for _ in 0..2 {
                let r = fresh.run_iteration().expect("iteration");
                fresh_sums.push(fresh.render(r.value));
                fresh_times.push(r.virtual_ns);
            }
            assert_eq!(
                fresh_sums, sums,
                "frozen session changed results on {}",
                w.name
            );
            assert_eq!(
                fresh_times, times,
                "frozen session diverged from fresh session on {}",
                w.name
            );
            assert_eq!(
                fresh.vm().counters(),
                counters,
                "frozen session changed counters on {}",
                w.name
            );
        }
    }
}

/// With the JIT disabled, the hoisted engine check must leave zero JIT
/// accounting: no jit-priced ops, no compiles, no deopts — on every workload.
#[test]
fn interp_engine_pays_zero_jit_accounting() {
    for w in suite() {
        let src = w.source(Size::Small);
        let program = CompiledProgram::compile(&src).expect("compile");
        let (_, _, counters) = sweep(&program, VmConfig::interp(), test_seed(w.name), 2);
        assert_eq!(counters.jit_ops, 0, "{} charged jit-priced ops", w.name);
        assert_eq!(counters.jit_compiles, 0, "{} compiled", w.name);
        assert_eq!(counters.deopts, 0, "{} deopted", w.name);
    }
}

#[test]
fn eager_jit_matches_interp_on_whole_suite_across_iterations() {
    for w in suite() {
        let src = w.source(Size::Small);
        let seed = test_seed(w.name);
        let a = run_many(&src, VmConfig::interp(), seed, 3);
        let b = run_many(&src, eager_jit(), seed, 3);
        assert_eq!(a, b, "engine divergence on {}", w.name);
    }
}

/// The suite-wide checksum-oracle contract: for every workload, at every
/// size, under three seeds, the checksum is (a) constant across the
/// iterations of one session, (b) identical across two *fresh* sessions
/// (no state leaks out of `run()` into module globals between sessions or
/// iterations), and (c) independent of how many iterations a session has
/// already run. This is the property the `rigor verify` golden manifest
/// pins; here it is established from first principles across the full
/// registry cross-product.
#[test]
fn every_workload_checksum_is_deterministic_at_every_size_and_seed() {
    // One closure per workload, fanned across threads: the full
    // 29 × {S,M,L} × 3-seed grid is minutes of single-threaded debug-mode
    // VM time, but workloads are independent.
    let check = |w: &rigor_workloads::Workload| {
        for size in [Size::Small, Size::Default, Size::Large] {
            let src = w.source(size);
            let mut expected: Option<String> = None;
            for seed in [1u64, 2, 3] {
                // Each seed gets a fresh session; the first runs two
                // iterations, the rest one — so agreement across the whole
                // set proves the checksum is stable within a session,
                // identical across fresh sessions of different lengths,
                // and seed-invariant. (One crossing per seed keeps the
                // grid affordable; the heavier per-cell iteration sweep
                // runs in `rigor verify`.)
                let iters = if seed == 1 { 2 } else { 1 };
                for sum in run_many(&src, VmConfig::interp(), seed, iters) {
                    match &expected {
                        None => expected = Some(sum),
                        Some(e) => assert_eq!(
                            &sum, e,
                            "{} at {size:?} seed {seed}: checksum not deterministic",
                            w.name
                        ),
                    }
                }
            }
        }
    };
    let workloads = suite();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(workloads.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(w) = workloads.get(i) else { break };
                check(w);
            });
        }
    });
}

#[test]
fn deopt_path_preserves_semantics() {
    // Type-flipping loop with a hot threshold low enough that guards compile
    // on the int phase and fail on the float phase.
    let src = "\
def total(xs):
    acc = 0.0
    for x in xs:
        acc = acc + x * 3 - 1
    return acc

def run():
    ints = [1, 2, 3, 4, 5, 6, 7, 8] * 8
    floats = [1.5, 2.5, 3.5, 4.5] * 16
    return total(ints) + total(floats) + total(ints)
";
    let a = run_many(src, VmConfig::interp(), 1, 5);
    let b = run_many(src, eager_jit(), 1, 5);
    assert_eq!(a, b);
}

#[test]
fn blacklisted_loops_still_compute_correctly() {
    // Alternate among three types so guards exhaust their failure budget.
    let src = "\
def mix(i):
    if i % 3 == 0:
        return 1
    if i % 3 == 1:
        return 1.5
    return True

def run():
    acc = 0.0
    i = 0
    while i < 200:
        acc = acc + mix(i) + mix(i + 1)
        i = i + 1
    return floor(acc * 10.0)
";
    let a = run_many(src, VmConfig::interp(), 2, 4);
    let b = run_many(src, eager_jit(), 2, 4);
    assert_eq!(a, b);
    // Confirm the adversarial pattern actually exercised the deopt machinery.
    let mut s = Session::start(src, 2, eager_jit()).unwrap();
    for _ in 0..4 {
        s.run_iteration().unwrap();
    }
    assert!(s.vm().counters().deopts > 0, "expected guard failures");
}

#[test]
fn noise_sources_never_change_results() {
    let w = rigor_workloads::find("dict_churn").expect("in suite");
    let src = w.source(Size::Small);
    let mut configs = Vec::new();
    for hash in [false, true] {
        for layout in [false, true] {
            let mut cfg = VmConfig::interp();
            cfg.noise = NoiseConfig {
                hash_randomization: hash,
                layout,
                os_jitter: hash,
                gc_costed: layout,
            };
            configs.push(cfg);
        }
    }
    let mut results = Vec::new();
    for cfg in configs {
        results.push(run_many(&src, cfg, 9, 2));
    }
    for r in &results[1..] {
        assert_eq!(
            *r, results[0],
            "noise must only perturb time, never semantics"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential fuzzing: random integer programs produce identical
    /// results on both engines, across iterations and seeds.
    #[test]
    fn random_programs_are_engine_equivalent(seed in 0u64..5000) {
        let src = random_program(seed);
        let a = run_many(&src, VmConfig::interp(), seed, 2);
        let b = run_many(&src, eager_jit(), seed, 2);
        prop_assert_eq!(a, b, "divergence for generator seed {}:\n{}", seed, src);
    }

    /// Virtual time is deterministic: identical seeds and configs yield
    /// identical clocks, regardless of which engine.
    #[test]
    fn virtual_time_is_reproducible(seed in 0u64..1000) {
        let src = random_program(seed);
        let run_ns = |cfg: VmConfig| -> f64 {
            let mut s = Session::start(&src, seed, cfg).expect("session");
            s.run_iteration().expect("iteration");
            s.vm().now_ns()
        };
        prop_assert_eq!(run_ns(VmConfig::interp()), run_ns(VmConfig::interp()));
        prop_assert_eq!(run_ns(eager_jit()), run_ns(eager_jit()));
    }
}

#[test]
fn jit_returns_same_value_type_as_interp() {
    // Return-type preservation under compilation: floats stay floats.
    let src = "\
def run():
    acc = 0.0
    i = 0
    while i < 100:
        acc = acc + 0.5
        i = i + 1
    return acc
";
    let mut si = Session::start(src, 1, VmConfig::interp()).unwrap();
    let mut sj = Session::start(src, 1, eager_jit()).unwrap();
    for _ in 0..3 {
        let a = si.run_iteration().unwrap().value;
        let b = sj.run_iteration().unwrap().value;
        assert_eq!(a, Value::Float(50.0));
        assert_eq!(b, Value::Float(50.0));
    }
}
