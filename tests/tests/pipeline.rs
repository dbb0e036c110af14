//! End-to-end pipeline integration tests: workload source → suite → runner →
//! steady-state detection → rigorous comparison.
//!
//! Regenerate the pinned suite comparison after a *deliberate* change to
//! its statistics with:
//! `BLESS=1 cargo test -p integration-tests --test pipeline`.

use std::fs;
use std::path::PathBuf;

use integration_tests::test_seed;
use rigor::{compare, compare_suite, ExperimentConfig, SteadyStateDetector};
use rigor_workloads::{find, suite, Size};

/// Builds a runner for a fixed test config (shape validity asserted).
fn runner(cfg: &ExperimentConfig) -> rigor::Runner {
    rigor::Runner::new(cfg.clone()).expect("valid config")
}

fn interp(invocations: u32, iterations: u32) -> ExperimentConfig {
    ExperimentConfig::interp()
        .with_invocations(invocations)
        .with_iterations(iterations)
        .with_size(Size::Small)
        .with_seed(test_seed("pipeline"))
}

fn jit(invocations: u32, iterations: u32) -> ExperimentConfig {
    ExperimentConfig::jit()
        .with_invocations(invocations)
        .with_iterations(iterations)
        .with_size(Size::Small)
        .with_seed(test_seed("pipeline"))
}

#[test]
fn full_pipeline_detects_jit_speedup_on_numeric_kernel() {
    let w = find("leibniz").expect("in suite");
    let base = runner(&interp(6, 25)).measure(&w).expect("interp");
    let cand = runner(&jit(6, 25)).measure(&w).expect("jit");
    let r = compare(&base, &cand, &SteadyStateDetector::default(), 0.95).expect("converges");
    assert!(r.significant, "{:?}", r.speedup);
    assert!(r.speedup.estimate > 3.0, "leibniz speedup {:?}", r.speedup);
    assert!(r.speedup.lower > 1.0);
    assert!(r.effect_size > 1.0);
}

#[test]
fn startup_dominated_benchmark_shows_no_speedup() {
    let w = find("startup_heavy").expect("in suite");
    let base = runner(&interp(6, 25)).measure(&w).expect("interp");
    let cand = runner(&jit(6, 25)).measure(&w).expect("jit");
    let r = compare(&base, &cand, &SteadyStateDetector::default(), 0.95).expect("converges");
    assert!(
        r.speedup.estimate < 1.3,
        "trivial run() must not benefit from the JIT: {:?}",
        r.speedup
    );
}

#[test]
fn engines_agree_semantically_on_whole_suite() {
    for w in suite() {
        let src = w.source(Size::Small);
        minipy::check_engines_agree(&src, test_seed(w.name))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    }
}

#[test]
fn checksums_consistent_across_invocations_for_whole_suite() {
    for w in suite() {
        let m = runner(&interp(3, 2)).measure(&w).expect(w.name);
        assert!(
            m.checksums_consistent(),
            "{} must compute a seed-independent checksum",
            w.name
        );
    }
}

#[test]
fn suite_comparison_on_subset_has_sane_geomean() {
    let names = ["sieve", "fib_recursive", "dict_churn"];
    let mut pairs = Vec::new();
    for name in names {
        let w = find(name).expect("in suite");
        // dict_churn's JIT warmup is the longest of the three; 40 iterations
        // leaves enough steady tail for the detector at this seed.
        pairs.push((
            runner(&interp(5, 40)).measure(&w).expect("interp"),
            runner(&jit(5, 40)).measure(&w).expect("jit"),
        ));
    }
    let s = compare_suite(&pairs, &SteadyStateDetector::default(), 0.95);
    assert!(s.failures.is_empty(), "{:?}", s.failures);
    assert_eq!(s.per_benchmark.len(), 3);
    let g = s.geomean.expect("geomean");
    assert!(g.estimate > 1.2, "suite geomean {g:?}");
    assert!(g.lower <= g.estimate && g.estimate <= g.upper);
}

#[test]
fn experiment_is_fully_reproducible_end_to_end() {
    let w = find("str_keys").expect("in suite");
    let cfg = interp(4, 6);
    let a = runner(&cfg).measure(&w).expect("run a");
    let b = runner(&cfg).measure(&w).expect("run b");
    let ja = rigor::to_json(&[a]).expect("json");
    let jb = rigor::to_json(&[b]).expect("json");
    assert_eq!(
        ja, jb,
        "identical configs must produce byte-identical exports"
    );
}

#[test]
fn export_roundtrip_preserves_measurement() {
    let w = find("sieve").expect("in suite");
    let m = runner(&interp(3, 4)).measure(&w).expect("run");
    let json = rigor::to_json(std::slice::from_ref(&m)).expect("json");
    let back = rigor::from_json(&json).expect("parse");
    assert_eq!(back[0].benchmark, m.benchmark);
    assert_eq!(
        back[0].invocations[2].iteration_ns,
        m.invocations[2].iteration_ns
    );
    let csv = rigor::to_csv(&back);
    assert_eq!(csv.trim().lines().count(), 1 + 3 * 4);
}

#[test]
fn interp_is_steady_immediately_jit_is_not() {
    let w = find("leibniz").expect("in suite");
    let det = SteadyStateDetector::default();
    let mi = runner(&interp(4, 25)).measure(&w).expect("interp");
    let mj = runner(&jit(4, 25)).measure(&w).expect("jit");
    let si = rigor::common_steady_start(mi.series(), &det).expect("interp steady");
    let sj = rigor::common_steady_start(mj.series(), &det).expect("jit steady");
    assert_eq!(si, 0, "interpreter has no warmup");
    assert!(sj >= 1, "JIT must show warmup, got steady start {sj}");
}

/// Fig 5's headline, pinned: `compare_suite` over the committed
/// `BENCH_vm.json`, each interpreter measurement against the JIT one of the
/// same benchmark. Its per-benchmark speedup CIs, p-values, failures and
/// geomean CI are seeded functions of that file, so they must not move by a
/// bit unless the statistics are changed on purpose.
#[test]
fn suite_comparison_of_the_committed_vm_baseline_is_pinned() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(root.join("../BENCH_vm.json")).expect("BENCH_vm.json");
    let measurements = rigor::from_json(&text).expect("BENCH_vm.json parses");
    let pairs: Vec<_> = measurements
        .iter()
        .filter(|m| m.engine == "interp")
        .map(|base| {
            let cand = measurements
                .iter()
                .find(|m| m.engine == "jit" && m.benchmark == base.benchmark)
                .expect("every benchmark on both engines");
            (base.clone(), cand.clone())
        })
        .collect();
    assert_eq!(pairs.len(), 29);
    let comparison = compare_suite(&pairs, &SteadyStateDetector::default(), 0.95);
    let actual = serde_json::to_string_pretty(&comparison).expect("plain data") + "\n";
    let pinned = root.join("fixtures/suite_comparison.json");
    if std::env::var_os("BLESS").is_some() {
        fs::write(&pinned, &actual).expect("bless the suite comparison");
    }
    let expected =
        fs::read_to_string(&pinned).expect("pinned comparison missing — regenerate with BLESS=1");
    assert_eq!(
        actual, expected,
        "compare_suite over BENCH_vm.json drifted from its pinned bytes; if the \
         change is deliberate, regenerate with BLESS=1"
    );
    assert!(comparison.geomean.is_some_and(|g| g.excludes(1.0)));
}
