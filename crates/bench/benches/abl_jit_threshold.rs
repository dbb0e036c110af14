//! Ablation — JIT hot-threshold sensitivity.
//!
//! DESIGN.md models the JIT's compile trigger as a back-edge/entry counter
//! threshold (PyPy's is 1039; ours defaults to 500). This ablation sweeps it
//! and reports, per threshold: when steady state is reached, how many regions
//! get compiled, and the steady-state speedup. Expected shape: a low
//! threshold compiles everything early (short warmup, but compile time and
//! marginal regions included); a very high threshold delays or entirely
//! forfeits compilation (long warmup, lower realized speedup on 40-iteration
//! runs).

use minipy::{EngineKind, JitConfig};
use rigor::{compare, SteadyStateDetector, Table};
use rigor_bench::{banner, interp_config, jit_config, runner};
use rigor_workloads::find;

const THRESHOLDS: [u32; 5] = [50, 200, 500, 2_000, 20_000];
const BENCHMARKS: [&str; 3] = ["spectral", "fib_recursive", "dict_churn"];

fn main() {
    banner(
        "Ablation A1",
        "JIT hot-threshold sweep (compile early vs compile late)",
    );
    let det = SteadyStateDetector::robust_tail();
    for name in BENCHMARKS {
        let w = find(name).expect("known benchmark");
        let base = runner(&interp_config()).measure(&w).expect("interp");
        let mut table = Table::new(vec![
            "hot threshold",
            "steady from iter",
            "compiles/invocation",
            "steady speedup",
        ]);
        for threshold in THRESHOLDS {
            let mut cfg = jit_config().with_iterations(40);
            cfg.engine = EngineKind::Jit(JitConfig {
                hot_threshold: threshold,
                ..JitConfig::default()
            });
            let m = runner(&cfg).measure(&w).expect("jit");
            let steady = rigor::common_steady_start(m.series(), &det)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "never".into());
            let compiles: f64 = m
                .invocations
                .iter()
                .map(|r| r.jit_compiles as f64)
                .sum::<f64>()
                / m.n_invocations() as f64;
            let speedup = match compare(&base, &m, &det, 0.95) {
                Ok(r) => format!("{:.2}x", r.speedup.estimate),
                Err(_) => "n/a".into(),
            };
            table.row(vec![
                threshold.to_string(),
                steady,
                format!("{compiles:.1}"),
                speedup,
            ]);
        }
        println!("{name}\n{table}");
    }
    println!("Low thresholds compile marginal code (more compiles, same speedup);");
    println!("very high thresholds leave hot code interpreted within the run.");
}
