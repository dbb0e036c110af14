//! Ablation — robust-tail detector tolerance sweep.
//!
//! The robust-tail detector declares iterations "steady" when they enter a
//! tolerance band around the tail level. Sweeping the band exposes the
//! design tradeoff: a tight band rejects honest-but-noisy series (false
//! "never"), a loose band swallows genuine warmup (steady start drifts
//! toward 0 and warmup contaminates the means). The default (2%) sits where
//! both error modes are rare on this suite.

use rigor::{SteadyStateDetector, Table};
use rigor_bench::{banner, jit_config, runner};
use rigor_workloads::suite;

const TOLERANCES: [f64; 5] = [0.005, 0.02, 0.03, 0.08, 0.3];

fn main() {
    banner(
        "Ablation A3",
        "robust-tail tolerance sweep on the JIT engine (whole suite)",
    );
    let mut table = Table::new(vec![
        "rel tol",
        "benchmarks converged",
        "median steady start",
        "starts at 0 (warmup swallowed)",
    ]);
    let measurements: Vec<_> = suite()
        .iter()
        .map(|w| {
            runner(&jit_config().with_iterations(40))
                .measure(w)
                .expect("run")
        })
        .collect();
    for tol in TOLERANCES {
        let det = SteadyStateDetector::RobustTail {
            rel_tol: tol,
            mad_k: 5.0,
            max_start_frac: 0.7,
        };
        let mut converged = 0usize;
        let mut zero_start = 0usize;
        let mut starts = Vec::new();
        for m in &measurements {
            if let Some(s) = rigor::common_steady_start(m.series(), &det) {
                converged += 1;
                starts.push(s as f64);
                if s == 0 {
                    zero_start += 1;
                }
            }
        }
        table.row(vec![
            format!("{:.1}%", tol * 100.0),
            format!("{converged}/{}", measurements.len()),
            format!("{:.0}", rigor_stats::median(&starts)),
            zero_start.to_string(),
        ]);
    }
    println!("{table}");
    println!("Tight bands under-converge; loose bands report steady-from-0 on JIT runs,");
    println!("silently including compile time in 'steady' means. The 3% default balances both.");
}
