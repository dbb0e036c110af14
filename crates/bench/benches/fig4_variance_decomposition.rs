//! Figure 4 — Intra- vs inter-invocation variance decomposition.
//!
//! For every benchmark on the interpreter engine with all nondeterminism
//! sources active: the within-process CoV, the across-process CoV of the
//! steady means, and the between-invocation variance fraction. Expected
//! shape: inter-invocation variation dominates for most benchmarks (layout
//! factor + hash seed are per-process constants), with `gc_pressure` as the
//! intra-heavy counterexample.

use rigor::{common_steady_start, decompose, SteadyStateDetector, Table};
use rigor_bench::{banner, bar, interp_config, runner};
use rigor_workloads::suite;

fn main() {
    banner(
        "Figure 4",
        "intra- vs inter-invocation variance (interp, all noise on)",
    );
    let cfg = interp_config().with_invocations(20).with_iterations(30);
    let det = SteadyStateDetector::robust_tail();
    let mut table = Table::new(vec![
        "benchmark",
        "intra CoV",
        "inter CoV",
        "between-frac",
        "inter/intra",
        "",
    ]);
    for w in suite() {
        let m = runner(&cfg).measure(&w).expect("run");
        let start = common_steady_start(m.series(), &det).unwrap_or(0);
        let Some(d) = decompose(&m, start) else {
            continue;
        };
        let ratio = d.inter_cov / d.intra_cov.max(1e-12);
        let ratio_cell = if ratio > 99.0 {
            ">99x".to_string()
        } else {
            format!("{ratio:.1}x")
        };
        table.row(vec![
            w.name.to_string(),
            format!("{:.3}%", d.intra_cov * 100.0),
            format!("{:.3}%", d.inter_cov * 100.0),
            format!("{:.2}", d.between_fraction),
            ratio_cell,
            bar(d.between_fraction, 1.0, 30),
        ]);
    }
    println!("{table}");
    println!("between-frac near 1.0 = fresh-process effects dominate; repeated iterations in one");
    println!(
        "process cannot reveal the true variance — the core argument for multiple invocations."
    );
}
