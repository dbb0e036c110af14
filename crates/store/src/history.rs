//! Turning the on-disk archive into per-benchmark run histories for trend
//! analysis, and into segment-pooled baselines for the regression gate.
//!
//! `rigor::trend` is pure data-in/data-out over [`rigor::TrendPoint`]
//! slices; this module is the glue that builds those slices from archived
//! [`RunRecord`]s — and, going the other way, turns the *current segment*
//! a trend analysis ends in back into a pooled baseline sample, so the
//! gate can compare HEAD against "the level we have been at" instead of a
//! fixed last-N window.

use rigor::measurement::BenchmarkMeasurement;
use rigor::pool_measurements;
use rigor::steady::SteadyStateDetector;
use rigor::trend::{analyze_trends, current_segment, TrendConfig, TrendPoint, TrendReport};

use crate::archive::Store;
use crate::record::RunRecord;

/// Benchmark names across every archived run, in order of first appearance.
pub fn benchmark_names(store: &Store) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for run in store.runs() {
        for name in run.benchmark_names() {
            if !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
    }
    names
}

/// One benchmark's archived history as trend points, in archive order.
///
/// Runs that did not measure the benchmark, were quarantined, or have no
/// usable steady state are skipped — the history holds only points a
/// rigorous analysis can stand on.
pub fn benchmark_history(
    store: &Store,
    benchmark: &str,
    detector: &SteadyStateDetector,
) -> Vec<TrendPoint> {
    store
        .runs()
        .filter_map(|run| point_of(run, benchmark, detector))
        .collect()
}

fn point_of(
    run: &RunRecord,
    benchmark: &str,
    detector: &SteadyStateDetector,
) -> Option<TrendPoint> {
    let m = run.benchmark(benchmark)?;
    TrendPoint::from_measurement(run.seq, &run.id, run.label.as_deref(), m, detector)
}

/// Runs the whole-archive trend analysis: every benchmark's history is
/// segmented and significance is corrected across the full family of
/// benchmarks × changepoints.
pub fn trend_report(
    store: &Store,
    benchmarks: &[String],
    detector: &SteadyStateDetector,
    config: &TrendConfig,
) -> TrendReport {
    let histories: Vec<(String, Vec<TrendPoint>)> = benchmarks
        .iter()
        .map(|name| (name.clone(), benchmark_history(store, name, detector)))
        .collect();
    analyze_trends(&histories, config)
}

/// Pools, per benchmark, the measurements of the runs in the *current
/// segment* ([`current_segment`]) — the final constant-level stretch of
/// that benchmark's trend — into one baseline sample.
///
/// This is the `--baseline segment` source for the regression gate: it
/// widens the baseline to every run since the benchmark's level last
/// shifted, instead of a fixed last-N window that may straddle an old
/// level. Benchmarks whose history is too short to segment fall back to
/// pooling their entire history.
pub fn segment_baseline(
    store: &Store,
    detector: &SteadyStateDetector,
    config: &TrendConfig,
) -> Vec<BenchmarkMeasurement> {
    let mut baseline: Vec<BenchmarkMeasurement> = Vec::new();
    for name in benchmark_names(store) {
        // The per-run measurement list, kept in lock-step with the trend
        // points so segment run indices map back to measurements.
        let mut measurements: Vec<&BenchmarkMeasurement> = Vec::new();
        let mut points: Vec<TrendPoint> = Vec::new();
        for run in store.runs() {
            if let Some(p) = point_of(run, &name, detector) {
                points.push(p);
                measurements.push(run.benchmark(&name).expect("point implies measurement"));
            }
        }
        let slices: Vec<&[BenchmarkMeasurement]> = measurements[current_segment(&points, config)]
            .iter()
            .map(|m| std::slice::from_ref(*m))
            .collect();
        baseline.extend(pool_measurements(&slices));
    }
    baseline
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigor::measurement::InvocationRecord;
    use rigor::ExperimentConfig;

    fn measurement(name: &str, level: f64, n_inv: usize) -> BenchmarkMeasurement {
        let invocations = (0..n_inv)
            .map(|i| InvocationRecord {
                invocation: i as u32,
                seed: i as u64,
                startup_ns: 0.0,
                iteration_ns: (0..12)
                    .map(|j| level * (1.0 + ((i + j) % 3) as f64 * 0.002))
                    .collect(),
                gc_cycles: 0,
                jit_compiles: 0,
                deopts: 0,
                checksum: String::new(),
                iteration_counters: None,
                attempts: 1,
            })
            .collect();
        BenchmarkMeasurement {
            benchmark: name.into(),
            engine: "interp".into(),
            invocations,
            censored: Vec::new(),
            quarantined: false,
        }
    }

    fn tmp_store(name: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("rigor-history-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Store::open(&dir).unwrap()
    }

    #[test]
    fn history_is_built_in_archive_order_and_skips_gaps() {
        let mut store = tmp_store("order");
        let config = ExperimentConfig::interp();
        store
            .append(None, &config, vec![measurement("a", 100.0, 4)])
            .unwrap();
        // A run without benchmark `a` leaves a gap, not a hole.
        store
            .append(None, &config, vec![measurement("b", 50.0, 4)])
            .unwrap();
        store
            .append(None, &config, vec![measurement("a", 101.0, 4)])
            .unwrap();
        let det = SteadyStateDetector::default();
        let points = benchmark_history(&store, "a", &det);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].seq, 0);
        assert_eq!(points[1].seq, 2);
        assert_eq!(points[0].samples.len(), 4);
        assert_eq!(benchmark_names(&store), vec!["a", "b"]);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn quarantined_runs_drop_out_of_the_history() {
        let mut store = tmp_store("quarantine");
        let config = ExperimentConfig::interp();
        let mut bad = measurement("a", 100.0, 4);
        bad.quarantined = true;
        store.append(None, &config, vec![bad]).unwrap();
        store
            .append(None, &config, vec![measurement("a", 100.0, 4)])
            .unwrap();
        let det = SteadyStateDetector::default();
        let points = benchmark_history(&store, "a", &det);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].seq, 1);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn trend_report_spans_the_whole_archive() {
        let mut store = tmp_store("report");
        let config = ExperimentConfig::interp();
        for _ in 0..6 {
            store
                .append(
                    None,
                    &config,
                    vec![measurement("a", 100.0, 4), measurement("b", 50.0, 4)],
                )
                .unwrap();
        }
        // Benchmark `a` shifts for the final two runs.
        for _ in 0..2 {
            store
                .append(
                    None,
                    &config,
                    vec![measurement("a", 140.0, 4), measurement("b", 50.0, 4)],
                )
                .unwrap();
        }
        let det = SteadyStateDetector::default();
        let names = benchmark_names(&store);
        let report = trend_report(&store, &names, &det, &TrendConfig::default());
        assert_eq!(report.benchmarks.len(), 2);
        let alerts = report.alerts();
        assert_eq!(alerts.len(), 1, "{report:?}");
        assert_eq!(alerts[0].benchmark, "a");
        let cp = alerts[0].alert().unwrap();
        assert_eq!(cp.seq, 6);
        // The named run id is the archived run that shifted.
        let run = store.get(&cp.run_id).unwrap();
        assert_eq!(run.seq, 6);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn segment_baseline_pools_only_the_current_level() {
        let mut store = tmp_store("segment");
        let config = ExperimentConfig::interp();
        for _ in 0..5 {
            store
                .append(None, &config, vec![measurement("a", 100.0, 4)])
                .unwrap();
        }
        for _ in 0..3 {
            store
                .append(None, &config, vec![measurement("a", 140.0, 4)])
                .unwrap();
        }
        let det = SteadyStateDetector::default();
        let baseline = segment_baseline(&store, &det, &TrendConfig::default());
        assert_eq!(baseline.len(), 1);
        // Only the three post-shift runs contribute: 3 × 4 invocations.
        assert_eq!(baseline[0].invocations.len(), 12);
        let level = baseline[0].invocations[0].iteration_ns[0];
        assert!(level > 120.0, "pooled from the new level, got {level}");
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn short_archive_falls_back_to_pooling_everything() {
        let mut store = tmp_store("short");
        let config = ExperimentConfig::interp();
        for _ in 0..2 {
            store
                .append(None, &config, vec![measurement("a", 100.0, 4)])
                .unwrap();
        }
        let det = SteadyStateDetector::default();
        let baseline = segment_baseline(&store, &det, &TrendConfig::default());
        assert_eq!(baseline.len(), 1);
        assert_eq!(baseline[0].invocations.len(), 8);
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
