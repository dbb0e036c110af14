//! Table 4 — Nondeterminism-source ablation.
//!
//! Runs each benchmark with every source disabled except one ("only-X" rows)
//! plus the all-on and all-off baselines, and reports the inter-invocation
//! CoV of the steady mean. Expected shape: the layout/ASLR factor is the
//! dominant inter-invocation source everywhere; hash-seed randomization
//! contributes only on string-dict-heavy benchmarks; OS jitter and GC
//! costing contribute mostly intra-invocation spread (so their inter rows
//! are small); all-off collapses to exactly 0 (full determinism).

use minipy::NoiseConfig;
use rigor::{common_steady_start, decompose, SteadyStateDetector, Table};
use rigor_bench::{banner, interp_config, runner};
use rigor_workloads::find;

const BENCHMARKS: [&str; 4] = ["leibniz", "dict_churn", "str_keys", "gc_pressure"];

fn configs() -> Vec<(&'static str, NoiseConfig)> {
    let off = NoiseConfig::quiescent();
    vec![
        ("all sources on", NoiseConfig::default()),
        (
            "only hash-seed",
            NoiseConfig {
                hash_randomization: true,
                ..off
            },
        ),
        (
            "only layout/ASLR",
            NoiseConfig {
                layout: true,
                ..off
            },
        ),
        (
            "only OS jitter",
            NoiseConfig {
                os_jitter: true,
                ..off
            },
        ),
        (
            "only GC costing",
            NoiseConfig {
                gc_costed: true,
                ..off
            },
        ),
        ("all sources off", off),
    ]
}

fn main() {
    banner(
        "Table 4",
        "inter-invocation CoV with each nondeterminism source isolated (interp)",
    );
    let det = SteadyStateDetector::robust_tail();
    let mut table = Table::new(vec![
        "config",
        BENCHMARKS[0],
        BENCHMARKS[1],
        BENCHMARKS[2],
        BENCHMARKS[3],
    ]);
    for (label, noise) in configs() {
        let mut cells = vec![label.to_string()];
        for name in BENCHMARKS {
            let w = find(name).expect("known benchmark");
            let cfg = interp_config()
                .with_invocations(16)
                .with_iterations(20)
                .with_noise(noise);
            let m = runner(&cfg).measure(&w).expect("run");
            let start = common_steady_start(m.series(), &det).unwrap_or(0);
            let cell = match decompose(&m, start) {
                Some(d) => format!("{:.4}%", d.inter_cov * 100.0),
                None => "-".into(),
            };
            cells.push(cell);
        }
        table.row(cells);
    }
    println!("{table}");
    println!("Each 'only-X' row is that source's isolated inter-invocation contribution.");
    println!("Layout dominates everywhere; hash-seed matters only where string-keyed dicts do.");
}
