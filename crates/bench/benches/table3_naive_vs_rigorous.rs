//! Table 3 — What the methodological shortcuts get wrong.
//!
//! Ground truth: the rigorous speedup verdict from the full measurement
//! (steady-state means over all invocations, bootstrap CI). Each naive
//! scheme is then applied to every single invocation as an independent
//! "study", and scored: how often does its conclusion contradict the truth,
//! and how large is its error? Expected shape: single-iteration timing is
//! catastrophically wrong on JIT comparisons (it times the compiler);
//! best-of-N and warmup-inclusive means are systematically biased; even
//! one-process steady means remain overconfident.

use rigor::{all_schemes, compare, evaluate_scheme, verdict_from_ci, SteadyStateDetector, Table};
use rigor_bench::{banner, interp_config, jit_config, runner};
use rigor_workloads::find;

const BENCHMARKS: [&str; 10] = [
    "leibniz",
    "sieve",
    "spectral",
    "fib_recursive",
    "dict_churn",
    "word_count",
    "raytrace_lite",
    "polymorph",
    "gc_pressure",
    "startup_heavy",
];
const MARGIN: f64 = 0.05;

fn main() {
    banner(
        "Table 3",
        "naive methodologies vs rigorous ground truth (interp vs JIT)",
    );
    let interp_cfg = interp_config().with_invocations(20);
    let jit_cfg = jit_config().with_invocations(20);
    let det = SteadyStateDetector::robust_tail();

    // scheme -> (sum wrong rate, sum median error, n benchmarks)
    let schemes = all_schemes();
    let mut acc = vec![(0.0f64, 0.0f64, 0usize); schemes.len()];
    let mut per_bench = Table::new(vec![
        "benchmark",
        "true speedup",
        "single-iter wrong%",
        "best-of-5 wrong%",
        "warmup-mean wrong%",
        "1-proc-steady wrong%",
    ]);
    for name in BENCHMARKS {
        let w = find(name).expect("known benchmark");
        let base = runner(&interp_cfg).measure(&w).expect("interp run");
        let cand = runner(&jit_cfg).measure(&w).expect("jit run");
        let truth = match compare(&base, &cand, &det, 0.95) {
            Ok(t) => t,
            Err(e) => {
                println!("  skipping {name}: {e}");
                continue;
            }
        };
        let verdict = verdict_from_ci(&truth.speedup, MARGIN);
        let mut cells = vec![name.to_string(), format!("{:.2}x", truth.speedup.estimate)];
        for (i, scheme) in schemes.iter().enumerate() {
            let e = evaluate_scheme(
                *scheme,
                &base,
                &cand,
                truth.speedup.estimate,
                verdict,
                MARGIN,
            );
            acc[i].0 += e.wrong_conclusion_rate;
            acc[i].1 += e.median_abs_rel_error;
            acc[i].2 += 1;
            cells.push(format!("{:.0}%", e.wrong_conclusion_rate * 100.0));
        }
        per_bench.row(cells);
    }
    println!("{per_bench}");

    let mut summary = Table::new(vec![
        "scheme",
        "mean wrong-conclusion rate",
        "mean of median |rel err|",
    ]);
    for (i, scheme) in schemes.iter().enumerate() {
        let n = acc[i].2.max(1) as f64;
        summary.row(vec![
            scheme.label(),
            format!("{:.1}%", acc[i].0 / n * 100.0),
            format!("{:.1}%", acc[i].1 / n * 100.0),
        ]);
    }
    println!("{summary}");
    println!("Rigorous baseline (by construction): 0% wrong at the ground-truth margin.");
}
