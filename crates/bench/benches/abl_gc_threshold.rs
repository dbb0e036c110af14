//! Ablation — GC allocation-threshold sensitivity.
//!
//! The heap arms a collection every N allocations (default 8192), and the
//! pause cost scales with live + freed objects. Sweeping N trades pause
//! *frequency* against pause *size*: small thresholds pepper every iteration
//! with small pauses (raising the mean), large thresholds produce rare large
//! spikes (raising the variance). The methodology must be robust across this
//! whole regime — the steady-state detector and CI machinery are exercised
//! at every point.

use rigor::{fmt_ns, precision_of, SteadyStateDetector, Table};
use rigor_bench::{banner, interp_config, runner};
use rigor_workloads::find;

const THRESHOLDS: [u64; 4] = [1_024, 8_192, 65_536, 1 << 22];

fn main() {
    banner(
        "Ablation A2",
        "GC threshold sweep: pause frequency vs pause size (gc_pressure)",
    );
    let w = find("gc_pressure").expect("known benchmark");
    let det = SteadyStateDetector::robust_tail();
    let mut table = Table::new(vec![
        "gc threshold",
        "gc cycles/invocation",
        "steady mean",
        "CI half-width",
        "intra CoV",
    ]);
    for threshold in THRESHOLDS {
        let mut cfg = interp_config().with_invocations(12).with_iterations(30);
        cfg.cost = minipy::CostModel::default();
        // The threshold knob lives on the heap; plumb it through the
        // session-level override.
        cfg.gc_threshold_override = Some(threshold);
        let m = runner(&cfg).measure(&w).expect("run");
        let gc: f64 = m
            .invocations
            .iter()
            .map(|r| r.gc_cycles as f64)
            .sum::<f64>()
            / m.n_invocations() as f64;
        let (ci, rel) = precision_of(&m, &det, 0.95);
        let start = rigor::common_steady_start(m.series(), &det).unwrap_or(0);
        let d = rigor::decompose(&m, start);
        table.row(vec![
            threshold.to_string(),
            format!("{gc:.1}"),
            ci.map(|c| fmt_ns(c.estimate)).unwrap_or_else(|| "-".into()),
            rel.map(|r| format!("{:.2}%", r * 100.0))
                .unwrap_or_else(|| "-".into()),
            d.map(|d| format!("{:.2}%", d.intra_cov * 100.0))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{table}");
    println!("Small thresholds: many small pauses folded into every iteration (higher mean,");
    println!("lower variance). Large thresholds: rare heavy spikes (lower mean, spikier series).");
}
