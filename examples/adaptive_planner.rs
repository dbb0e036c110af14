//! The adaptive precision planner, self-applied: run the full-registry
//! suite on both engines as an adaptive campaign (pilot, then
//! variance-proportional refinement) and compare the invocations it spends
//! against the fixed-n design that guarantees the same worst-case
//! precision — every cell at the largest n any cell needed.
//!
//! Run with: `cargo run --release -p examples --bin adaptive_planner`
//!
//! With `BLESS=1` it also rewrites `BENCH_planner.json` — the committed
//! artifact CI gates with `rigor check --baseline-json`: the interpreter
//! cells' measurements under a `schema_version` envelope, plus a `planner`
//! object recording the fixed-vs-adaptive invocation comparison.

use rigor::campaign::MemorySink;
use rigor::prelude::*;
use rigor::PlannerConfig;
use serde::json::JsonValue;
use serde::Serialize;

/// The precision target the comparison is run at (±2%, the paper's
/// reporting convention).
const TARGET: f64 = 0.02;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = ExperimentConfig::interp()
        .with_invocations(3)
        .with_iterations(8)
        .with_size(Size::Small);
    let planner = PlannerConfig::default()
        .with_target(TARGET)
        .with_min_invocations(3)
        .with_max_invocations(12);
    let benchmarks: Vec<String> = suite().iter().map(|w| w.name.to_string()).collect();
    let spec = CampaignSpec::new(base)
        .with_benchmarks(benchmarks)
        .with_engines(vec![
            minipy::EngineKind::Interp,
            minipy::EngineKind::Jit(minipy::JitConfig::default()),
        ])
        .with_planner(planner);

    let sink = MemorySink::default();
    let report = Campaign::new(spec).workers(4).run(&sink)?;
    assert!(report.is_complete());
    assert!(report.failures.is_empty(), "{:?}", report.failures);

    // Per-cell attainment, in grid order.
    let mut cells = sink.cells();
    cells.sort_by_key(|(index, _, _)| *index);
    let mut precisions = sink.precisions();
    precisions.sort_by_key(|(index, _)| *index);
    let mut table = Table::new(vec!["cell", "final n", "achieved +/-", "met"]);
    let mut max_n = 0u32;
    for ((_, label, _), (_, p)) in cells.iter().zip(&precisions) {
        max_n = max_n.max(p.invocations_used);
        table.row(vec![
            label.clone(),
            p.invocations_used.to_string(),
            p.rel_half_width
                .map_or("no CI".to_string(), |rel| format!("{:.2}%", rel * 100.0)),
            if p.target_met {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    println!("{table}");

    // The comparison the planner exists for: a fixed design reaching the
    // same worst-case precision must run *every* cell at the largest n
    // any cell needed.
    let adaptive: u64 = report.invocations;
    let fixed: u64 = u64::from(max_n) * precisions.len() as u64;
    let unmet = report.unmet.len();
    println!(
        "adaptive: {adaptive} invocation(s) over {} round(s); fixed-n equivalent \
         ({} cells x n={max_n}): {fixed}; saved {} ({:.0}%); {unmet} cell(s) \
         short of +/-{:.0}% at the n={} ceiling",
        report.rounds,
        precisions.len(),
        fixed - adaptive,
        (1.0 - adaptive as f64 / fixed as f64) * 100.0,
        TARGET * 100.0,
        planner.max_invocations,
    );
    assert!(
        adaptive < fixed,
        "adaptive allocation must beat the fixed design ({adaptive} vs {fixed})"
    );

    if std::env::var_os("BLESS").is_some() {
        // The gateable baseline: interpreter cells only (`rigor check`
        // measures one engine per run, and CI gates the interpreter).
        let measurements: Vec<&BenchmarkMeasurement> = cells
            .iter()
            .filter(|(_, label, _)| label.contains("/interp/"))
            .map(|(_, _, m)| m)
            .collect();
        let envelope = JsonValue::Object(vec![
            ("schema_version".into(), 1u32.to_value()),
            (
                "planner".into(),
                JsonValue::Object(vec![
                    ("target_rel_half_width".into(), TARGET.to_value()),
                    ("cells".into(), (precisions.len() as u64).to_value()),
                    ("adaptive_invocations".into(), adaptive.to_value()),
                    ("fixed_equivalent_invocations".into(), fixed.to_value()),
                    ("max_cell_invocations".into(), max_n.to_value()),
                    ("unmet_cells".into(), (unmet as u64).to_value()),
                ]),
            ),
            ("measurements".into(), measurements.to_value()),
        ]);
        std::fs::write(
            "BENCH_planner.json",
            serde_json::to_string_pretty(&envelope)?,
        )?;
        println!(
            "wrote BENCH_planner.json ({} interp measurement(s))",
            measurements.len()
        );
    }
    Ok(())
}
