//! Figure 2 — Warmup curves: per-iteration time, interpreter vs JIT.
//!
//! Prints the mean per-iteration series for four representative benchmarks on
//! both engines. Expected shape: flat interpreter curves; JIT curves start
//! high (profiling + compilation), drop in visible steps, then flatten —
//! except `polymorph`, whose deopt churn keeps perturbing the series.

use rigor::{fmt_ns, sparkline};
use rigor_bench::{banner, interp_config, jit_config, runner};
use rigor_workloads::find;

const BENCHMARKS: [&str; 4] = ["leibniz", "spectral", "fib_recursive", "polymorph"];

fn main() {
    banner(
        "Figure 2",
        "per-iteration warmup curves, interp vs JIT (mean over invocations)",
    );
    let interp_cfg = interp_config().with_invocations(5).with_iterations(50);
    let jit_cfg = jit_config().with_invocations(5).with_iterations(50);
    for name in BENCHMARKS {
        let w = find(name).expect("known benchmark");
        let mi = runner(&interp_cfg).measure(&w).expect("interp run");
        let mj = runner(&jit_cfg).measure(&w).expect("jit run");
        let ci = mi.mean_curve();
        let cj = mj.mean_curve();
        println!("{name}");
        println!(
            "  interp  {}  (iter1 {}, iter50 {})",
            sparkline(&ci),
            fmt_ns(ci[0]),
            fmt_ns(*ci.last().unwrap())
        );
        println!(
            "  jit     {}  (iter1 {}, iter50 {})",
            sparkline(&cj),
            fmt_ns(cj[0]),
            fmt_ns(*cj.last().unwrap())
        );
        let series: Vec<String> = cj
            .iter()
            .take(28)
            .map(|v| format!("{:.0}", v / 1000.0))
            .collect();
        println!("  jit iters 1-28 (us): {}", series.join(" "));
        println!();
    }
    println!("Series shape to check: interp flat; jit starts high and settles; spectral shows a");
    println!("multi-step staircase as its loops and functions compile at different times.");
}
