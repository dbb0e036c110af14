//! Figure 5 — The headline result: JIT-over-interpreter speedups with 95%
//! confidence intervals, per benchmark, plus the suite geometric mean.
//!
//! Expected shape: order-of-magnitude wins on tight numeric loops (leibniz,
//! nbody, sieve, matmul); moderate wins on control/string workloads; ~1x or
//! below on startup-dominated and allocation-bound workloads; `polymorph`
//! either converges to a modest number or is reported as non-converged.

use rigor::{compare_suite, fmt_ci, SteadyStateDetector, Table};
use rigor_bench::{banner, bar, interp_config, jit_config, runner};
use rigor_workloads::suite;

fn main() {
    banner(
        "Figure 5",
        "JIT speedup over interpreter with 95% CIs (steady state)",
    );
    let interp_cfg = interp_config().with_invocations(15);
    let jit_cfg = jit_config().with_invocations(15);
    let mut pairs = Vec::new();
    for w in suite() {
        let base = runner(&interp_cfg).measure(&w).expect("interp run");
        let cand = runner(&jit_cfg).measure(&w).expect("jit run");
        assert_eq!(
            base.invocations[0].checksum, cand.invocations[0].checksum,
            "engines must agree semantically on {}",
            w.name
        );
        pairs.push((base, cand));
    }
    let s = compare_suite(&pairs, &SteadyStateDetector::robust_tail(), 0.95);

    let mut sorted = s.per_benchmark.clone();
    sorted.sort_by(|a, b| b.speedup.estimate.partial_cmp(&a.speedup.estimate).unwrap());
    let max = sorted.first().map(|r| r.speedup.estimate).unwrap_or(1.0);
    let mut table = Table::new(vec!["benchmark", "speedup [95% CI]", "signif", "p", ""]);
    for r in &sorted {
        table.row(vec![
            r.benchmark.clone(),
            fmt_ci(&r.speedup),
            if r.significant {
                "yes".into()
            } else {
                "no".into()
            },
            format!("{:.1e}", r.p_value),
            bar(r.speedup.estimate, max, 36),
        ]);
    }
    println!("{table}");
    for (name, err) in &s.failures {
        println!("  not converged: {name} ({err})");
    }
    if let Some(g) = &s.geomean {
        println!("\nSuite geometric-mean speedup: {}", fmt_ci(g));
    }
}
