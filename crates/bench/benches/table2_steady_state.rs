//! Table 2 — Iterations to steady state, per benchmark and engine, under the
//! CoV-window detector and the changepoint detector.
//!
//! Expected shape: the interpreter is steady almost immediately; the JIT
//! needs several iterations; the changepoint detector is the more
//! conservative of the two on warmup series; adversarial benchmarks show
//! `never` on at least one detector.

use rigor::{common_steady_start, SteadyStateDetector, Table};
use rigor_bench::{banner, interp_config, jit_config, runner};
use rigor_workloads::suite;

fn fmt(start: Option<usize>) -> String {
    match start {
        Some(s) => s.to_string(),
        None => "never".to_string(),
    }
}

fn main() {
    banner(
        "Table 2",
        "iterations to steady state (max across invocations)",
    );
    let cov = SteadyStateDetector::cov_window();
    let cp = SteadyStateDetector::changepoint();
    let rt = SteadyStateDetector::robust_tail();
    let interp_cfg = interp_config().with_iterations(50);
    let jit_cfg = jit_config().with_iterations(50);

    let mut table = Table::new(vec![
        "benchmark",
        "interp/cov",
        "interp/chgpt",
        "interp/robust",
        "jit/cov",
        "jit/chgpt",
        "jit/robust",
    ]);
    for w in suite() {
        let mi = runner(&interp_cfg).measure(&w).expect("run");
        let mj = runner(&jit_cfg).measure(&w).expect("run");
        table.row(vec![
            w.name.to_string(),
            fmt(common_steady_start(mi.series(), &cov)),
            fmt(common_steady_start(mi.series(), &cp)),
            fmt(common_steady_start(mi.series(), &rt)),
            fmt(common_steady_start(mj.series(), &cov)),
            fmt(common_steady_start(mj.series(), &cp)),
            fmt(common_steady_start(mj.series(), &rt)),
        ]);
    }
    println!("{table}");
}
