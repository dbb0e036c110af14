//! Figure 9 (extension) — JIT architecture comparison: loop tracing vs
//! method-at-a-time vs both.
//!
//! Real Python JITs split exactly along this axis (PyPy traces loops;
//! Cinder/Pyston compile methods). Running the same suite under each mode
//! shows the complementarity: loops-only wins on top-level hot loops but
//! leaves call-dominated code interpreted; methods-only wins where the hot
//! code lives in frequently-called helper functions; the full engine takes
//! the max of both. This is the extension experiment DESIGN.md lists beyond
//! the paper's own evaluation.

use minipy::{EngineKind, JitConfig};
use rigor::{compare, fmt_ci, SteadyStateDetector, Table};
use rigor_bench::{banner, interp_config, runner, EVAL_INVOCATIONS, EVAL_ITERATIONS, EVAL_SEED};
use rigor_workloads::{find, Size};

const BENCHMARKS: [&str; 6] = [
    "leibniz",
    "richards_lite",
    "spectral",
    "kmeans_lite",
    "fib_recursive",
    "queens",
];

fn main() {
    banner(
        "Figure 9",
        "engine architectures: tracing vs method JIT vs full",
    );
    let det = SteadyStateDetector::robust_tail();
    let modes: [(&str, JitConfig); 3] = [
        ("loops-only", JitConfig::loops_only()),
        ("methods-only", JitConfig::functions_only()),
        ("full", JitConfig::default()),
    ];
    let mut table = Table::new(vec!["benchmark", "loops-only", "methods-only", "full"]);
    for name in BENCHMARKS {
        let w = find(name).expect("known benchmark");
        let base = runner(&interp_config()).measure(&w).expect("interp");
        let mut cells = vec![name.to_string()];
        for (_, jc) in &modes {
            let mut cfg = rigor::ExperimentConfig::interp()
                .with_invocations(EVAL_INVOCATIONS)
                .with_iterations(EVAL_ITERATIONS)
                .with_seed(EVAL_SEED)
                .with_size(Size::Default);
            cfg.engine = EngineKind::Jit(*jc);
            let m = runner(&cfg).measure(&w).expect("jit run");
            cells.push(match compare(&base, &m, &det, 0.95) {
                Ok(r) => fmt_ci(&r.speedup),
                Err(e) => format!("({e})"),
            });
        }
        table.row(cells);
    }
    println!("{table}");
    println!("Loop-in-run() benchmarks (leibniz, richards) need the tracer; helper-function");
    println!("benchmarks (fib, queens, spectral's a_ij) need the method JIT; 'full' covers both.");
}
