//! Figure 7 — Confidence-interval precision vs experiment design.
//!
//! Sweeps invocation count × iteration count for three benchmarks and
//! reports the relative CI half-width of the steady-state mean. Expected
//! shape: once past warmup, adding *invocations* tightens the CI roughly as
//! 1/sqrt(n) while adding *iterations* saturates quickly — inter-invocation
//! variance is what limits precision.

use rigor::{precision_of, SteadyStateDetector, Table};
use rigor_bench::{banner, interp_config, runner};
use rigor_workloads::find;

const BENCHMARKS: [&str; 3] = ["leibniz", "dict_churn", "gc_pressure"];
const INVOCATIONS: [u32; 4] = [3, 5, 10, 20];
const ITERATIONS: [u32; 4] = [10, 20, 40, 80];

fn main() {
    banner(
        "Figure 7",
        "relative CI half-width vs invocations x iterations",
    );
    let det = SteadyStateDetector::robust_tail();
    for name in BENCHMARKS {
        let w = find(name).expect("known benchmark");
        let mut table = Table::new(vec![
            "inv \\ iter",
            &ITERATIONS[0].to_string(),
            &ITERATIONS[1].to_string(),
            &ITERATIONS[2].to_string(),
            &ITERATIONS[3].to_string(),
        ]);
        for inv in INVOCATIONS {
            let mut cells = vec![inv.to_string()];
            for iter in ITERATIONS {
                let cfg = interp_config().with_invocations(inv).with_iterations(iter);
                let m = runner(&cfg).measure(&w).expect("run");
                let (_, rel) = precision_of(&m, &det, 0.95);
                cells.push(match rel {
                    Some(r) => format!("{:.2}%", r * 100.0),
                    None => "-".into(),
                });
            }
            table.row(cells);
        }
        println!("{name}\n{table}");
    }
    println!("Read down a column (more invocations): steady ~1/sqrt(n) tightening.");
    println!(
        "Read across a row (more iterations): quickly flat — within-process sampling saturates."
    );
}
