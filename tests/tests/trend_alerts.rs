//! Statistical calibration of the trend/changepoint alert pipeline, plus
//! the golden-fixture contract of `rigor trend --json`.
//!
//! The detector is *measured*, not trusted: seeded synthetic histories
//! with known ground truth (no-change nulls, injected steps, drift,
//! heteroscedastic noise) bound its empirical false-positive rate and its
//! detection power, and a committed synthetic archive pins the exact JSON
//! `TrendReport` the CLI emits.
//!
//! Regenerate the archive fixture and pinned report after a *deliberate*
//! format or detector change with:
//! `BLESS=1 cargo test -p integration-tests --test trend_alerts`.

use std::fs;
use std::path::PathBuf;

use rigor::measurement::{BenchmarkMeasurement, InvocationRecord};
use rigor::trend::synth::{detected_shift_index, null_alert_rate, Shape, SynthHistory};
use rigor::trend::{
    analyze_trend, analyze_trends, current_segment, Penalty, TrendConfig, TrendPoint, TrendStatus,
};
use rigor::{pool_measurements, SteadyStateDetector};
use rigor_store::{benchmark_names, segment_baseline, Store};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

// ---------------------------------------------------------------------------
// Calibration: false-positive rate on nulls
// ---------------------------------------------------------------------------

/// The acceptance bound: across 200 seeded no-change replications, the
/// fraction that raises any significant changepoint must not exceed the
/// configured FDR level.
#[test]
fn null_histories_alert_at_most_at_the_fdr_level() {
    let config = TrendConfig::default();
    let rate = null_alert_rate(&SynthHistory::default(), 200, &config);
    assert!(
        rate <= config.fdr_q,
        "empirical FPR {rate} exceeds configured FDR level {} over 200 null replications",
        config.fdr_q
    );
}

/// The bound must also hold when the noise scale itself is unstable from
/// run to run (heteroscedastic nulls are the classic source of spurious
/// "changepoints" on real machines).
#[test]
fn heteroscedastic_nulls_stay_within_the_fdr_level() {
    let config = TrendConfig::default();
    let base = SynthHistory {
        heteroscedastic: true,
        ..SynthHistory::default()
    };
    let rate = null_alert_rate(&base, 100, &config);
    assert!(
        rate <= config.fdr_q,
        "heteroscedastic empirical FPR {rate} exceeds {}",
        config.fdr_q
    );
}

// ---------------------------------------------------------------------------
// Power and localization on known shifts
// ---------------------------------------------------------------------------

/// A single injected 3σ step (σ of the run value) must be detected in the
/// large majority of seeded replications, and the detections must locate
/// the step: almost all within ±1 run of the injected index, and none far
/// from it. (At exactly 3σ a noise realization can ramp up just before
/// the true step and pull the maximal-gain split a couple of runs early,
/// so the ±1 bound is on the distribution, not on every single draw.)
#[test]
fn three_sigma_steps_are_detected_and_located() {
    let config = TrendConfig::default();
    let base = SynthHistory::default();
    let frac = 3.0 * base.value_sigma() / base.level;
    let at = 20usize;
    let mut detected = 0usize;
    let mut within_one = 0usize;
    for seed in 0..25u64 {
        let h = base
            .clone()
            .with_shape(Shape::Step { at, frac })
            .with_seed(1000 + seed);
        if let Some(idx) = detected_shift_index(&h, &config) {
            detected += 1;
            let err = (idx as i64 - at as i64).abs();
            if err <= 1 {
                within_one += 1;
            }
            assert!(
                err <= 3,
                "seed {seed}: 3σ step located at {idx}, injected at {at}"
            );
        }
    }
    assert!(
        detected >= 20,
        "3σ step detected in only {detected}/25 replications"
    );
    assert!(
        within_one >= 22,
        "3σ step located within ±1 in only {within_one}/25 replications"
    );
}

/// Changepoint locations are stable under segment-preserving noise
/// reseeds: regenerating the *noise* (same ground-truth step, different
/// seed) must keep the detected changepoint within ±1 of the injected
/// index in every replication — the segmentation reacts to the level
/// structure, not to one realization of the noise.
#[test]
fn changepoints_are_stable_under_noise_reseeds() {
    let config = TrendConfig::default();
    let base = SynthHistory::default();
    // A large (8σ) step: detection is certain, so every reseed must both
    // find it and agree on where it is.
    let frac = 8.0 * base.value_sigma() / base.level;
    let at = 12usize;
    for seed in 0..20u64 {
        let h = base
            .clone()
            .with_shape(Shape::Step { at, frac })
            .with_seed(5000 + seed);
        let idx = detected_shift_index(&h, &config)
            .unwrap_or_else(|| panic!("seed {seed}: 8σ step not detected"));
        assert!(
            (idx as i64 - at as i64).abs() <= 1,
            "seed {seed}: 8σ step located at {idx}, injected at {at}"
        );
    }
}

/// Smoke: drift (no true step) analyzes without panicking under every
/// penalty policy; whatever segmentation it picks, the report is
/// structurally sound (segments tile the history).
#[test]
fn drift_histories_analyze_cleanly() {
    for penalty in ["auto", "bic", "4.0"] {
        let config = TrendConfig::default()
            .with_penalty(rigor::Penalty::parse(penalty).expect("valid penalty"));
        let points = SynthHistory::default()
            .with_shape(Shape::Drift { total_frac: 0.15 })
            .generate();
        let trend = analyze_trend("drifty", &points, &config);
        assert!(trend.status != TrendStatus::InsufficientData);
        assert_eq!(trend.segments.first().map(|s| s.start), Some(0));
        assert_eq!(trend.segments.last().map(|s| s.end), Some(points.len()));
        for pair in trend.segments.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }
}

// ---------------------------------------------------------------------------
// True-positive calibration on *measured* non-steady workloads
// ---------------------------------------------------------------------------

/// End-to-end true-positive check with real measurements instead of
/// synthetic histories: the archive holds eight measured runs of the
/// nonsteady drift workload — five at baseline cost, three at the degraded
/// (3×) cost, same checksum — plus a steady companion. `rigor trend` must
/// locate the run-level shift within ±1 of the injected index (seq 5) and
/// keep the steady benchmark quiet. This aligns the measured pipeline with
/// the `trend::synth` calibration above: the injected step is the measured
/// analogue of `Shape::Step { at: 5, frac: 2.0 }`.
#[test]
fn measured_nonsteady_drift_is_located_and_steady_stays_quiet() {
    use rigor_workloads::programs::nonsteady;

    let dir = std::env::temp_dir().join(format!("rigor-nonsteady-trend-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    let mut store = rigor_store::Store::open(&dir).expect("open store");
    let config = rigor::ExperimentConfig::interp()
        .with_invocations(4)
        .with_iterations(8)
        .with_seed(33);
    let runner = rigor::Runner::new(config.clone()).expect("runner");
    let steady_src = nonsteady::drift_baseline(60);
    for seq in 0..8u64 {
        // The workload itself changes shape at seq 5 — a genuine 3× cost
        // step with an identical checksum, the scenario trend alerts exist
        // to catch (perf regressed, semantics did not).
        let drift_src = if seq >= 5 {
            nonsteady::drift_degraded(40)
        } else {
            nonsteady::drift_baseline(40)
        };
        let drift = runner
            .measure_source(&drift_src, "nonsteady_drift")
            .expect("measure drift");
        let steady = runner
            .measure_source(&steady_src, "steady_companion")
            .expect("measure steady");
        store
            .append(None, &config, vec![drift, steady])
            .expect("append run");
    }

    let out = dir.join("trend.json");
    let code = rigor_cli::run(&argv(&format!(
        "trend --store {} --json {}",
        dir.display(),
        out.display()
    )));
    let report = fs::read_to_string(&out).expect("trend report written");
    // Three degraded runs follow the step, so the shift is mid-history by
    // the at-HEAD rule (within the last min_segment runs): exit 0, with
    // the shift fully reported.
    assert_eq!(
        code, 0,
        "mid-history shift is not an at-HEAD alert: {report}"
    );
    assert!(
        report.contains("\"benchmark\": \"nonsteady_drift\""),
        "{report}"
    );
    assert!(report.contains("\"direction\": \"slower\""), "{report}");
    assert!(report.contains("\"significant\": true"), "{report}");

    // Localization: the changepoint for nonsteady_drift lands within ±1 of
    // the injected run index.
    let drift_section = report
        .split("\"benchmark\": \"nonsteady_drift\"")
        .nth(1)
        .expect("drift section present");
    let drift_section = drift_section
        .split("\"benchmark\":")
        .next()
        .expect("section bounded");
    assert!(
        drift_section.contains("\"status\": \"shifted\""),
        "{report}"
    );
    let seq: i64 = drift_section
        .split("\"seq\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .expect("changepoint seq present");
    assert!(
        (seq - 5).abs() <= 1,
        "drift step injected at run 5, located at run {seq}: {report}"
    );

    // The steady companion must not alert (false-positive control at the
    // same FDR the synthetic nulls are calibrated against).
    let steady_section = report
        .split("\"benchmark\": \"steady_companion\"")
        .nth(1)
        .expect("steady section present");
    let steady_section = steady_section
        .split("\"benchmark\":")
        .next()
        .expect("section bounded");
    assert!(
        steady_section.contains("\"status\": \"stable\""),
        "steady companion must stay quiet: {report}"
    );
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Golden fixture: the exact TrendReport JSON over a committed archive
// ---------------------------------------------------------------------------

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/trend_history")
}

/// A deterministic synthetic measurement: `n_inv` invocations whose
/// iteration series settle on `level` with a small repeating jitter, so
/// the default steady-state detector accepts every invocation.
fn measurement(name: &str, level: f64, n_inv: usize) -> BenchmarkMeasurement {
    let invocations = (0..n_inv)
        .map(|i| InvocationRecord {
            invocation: i as u32,
            seed: i as u64,
            startup_ns: 250.0,
            iteration_ns: (0..12)
                .map(|j| level * (1.0 + ((i + j) % 3) as f64 * 0.002))
                .collect(),
            gc_cycles: 0,
            jit_compiles: 0,
            deopts: 0,
            checksum: "42".into(),
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

/// Rebuilds the committed archive from scratch: eight runs of two
/// benchmarks, `steady` flat throughout and `shifty` stepping from 100 to
/// 130 at run 5 — a mid-history shift, so `rigor trend` on the fixture
/// exits 0 (shifted, but not at HEAD).
fn regenerate_fixture_archive(dir: &PathBuf) {
    fs::remove_dir_all(dir).ok();
    let mut store = rigor_store::Store::open(dir).expect("open fixture store");
    let config = rigor::ExperimentConfig::interp()
        .with_invocations(4)
        .with_iterations(12)
        .with_seed(11);
    for seq in 0..8u64 {
        let shifty_level = if seq >= 5 { 130.0 } else { 100.0 };
        let label = (seq == 5).then(|| "first-shifted-run".to_string());
        store
            .append(
                label,
                &config,
                vec![
                    measurement("steady", 50.0, 4),
                    measurement("shifty", shifty_level, 4),
                ],
            )
            .expect("append fixture run");
    }
}

#[test]
fn trend_report_matches_the_golden_fixture() {
    let dir = fixture_dir();
    if std::env::var_os("BLESS").is_some() {
        regenerate_fixture_archive(&dir);
    }
    let out = std::env::temp_dir().join(format!("rigor-trend-golden-{}.json", std::process::id()));
    let code = rigor_cli::run(&argv(&format!(
        "trend --store {} --json {}",
        dir.display(),
        out.display()
    )));
    assert_eq!(code, 0, "mid-history shift is not an at-HEAD alert");
    let actual = fs::read_to_string(&out).expect("trend report written");
    fs::remove_file(&out).ok();
    let pinned = dir.join("report.json");
    if std::env::var_os("BLESS").is_some() {
        fs::write(&pinned, &actual).expect("bless pinned report");
    }
    let expected =
        fs::read_to_string(&pinned).expect("pinned report missing — regenerate with BLESS=1");
    assert_eq!(
        actual, expected,
        "rigor trend --json drifted from the pinned TrendReport; if the \
         change is deliberate, regenerate with BLESS=1"
    );
    // Structural spot checks on top of the byte-for-byte pin: the report
    // names the shifting run (seq 5, the labelled run in the archive),
    // carries segment means on both sides of the step, and adjusted
    // p-values marking the shift significant.
    assert!(actual.contains("\"benchmark\": \"shifty\""), "{actual}");
    assert!(actual.contains("\"status\": \"shifted\""), "{actual}");
    assert!(actual.contains("\"status\": \"stable\""), "{actual}");
    assert!(actual.contains("\"seq\": 5"), "{actual}");
    assert!(actual.contains("\"direction\": \"slower\""), "{actual}");
    assert!(actual.contains("\"p_adjusted\""), "{actual}");
    assert!(actual.contains("\"at_head\": false"), "{actual}");
    // The named run id resolves in the committed archive and is the run
    // the fixture labelled as the first at the new level.
    let store = rigor_store::Store::open(&dir).expect("open committed fixture");
    let id_field = actual
        .split("\"run_id\": \"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("report names a run id");
    let run = store.get(id_field).expect("run id resolves in the archive");
    assert_eq!(run.seq, 5);
    assert_eq!(run.label.as_deref(), Some("first-shifted-run"));
}

// ---------------------------------------------------------------------------
// The segment fast path: `current_segment` and `segment_baseline` against
// the full trend analysis they stand in for
// ---------------------------------------------------------------------------

/// Every synthetic shape, with and without heteroscedastic noise, over a
/// history too short for `min_segment` 3 and a long one: (name, generator)
/// pairs for one seed.
fn fast_path_histories(seed: u64) -> Vec<(String, SynthHistory)> {
    let mut out = Vec::new();
    for runs in [5, 30] {
        for heteroscedastic in [false, true] {
            let base = SynthHistory {
                runs,
                heteroscedastic,
                seed,
                ..SynthHistory::default()
            };
            let step = 8.0 * base.value_sigma() / base.level;
            for (shape_name, shape) in [
                ("null", Shape::Null),
                (
                    "step",
                    Shape::Step {
                        at: runs * 2 / 3,
                        frac: step,
                    },
                ),
                ("drift", Shape::Drift { total_frac: 0.05 }),
            ] {
                let name = format!("{shape_name}-{runs}-hetero{heteroscedastic}");
                out.push((name, base.clone().with_shape(shape)));
            }
        }
    }
    out
}

/// `min_segment` 1–3 under each kind of penalty.
fn fast_path_configs() -> Vec<TrendConfig> {
    let mut out = Vec::new();
    for min_segment in 1..=3 {
        for penalty in [Penalty::Auto, Penalty::Bic, Penalty::Factor(2.5)] {
            out.push(
                TrendConfig::default()
                    .with_min_segment(min_segment)
                    .with_penalty(penalty),
            );
        }
    }
    out
}

/// The current segment as read off the full analysis: its last segment, or
/// the whole history when it reports insufficient data.
fn last_analyzed_segment(points: &[TrendPoint], config: &TrendConfig) -> std::ops::Range<usize> {
    let trend = analyze_trends(&[("reference".to_string(), points.to_vec())], config)
        .benchmarks
        .pop()
        .expect("one history in, one trend out");
    match (trend.status, trend.segments.last()) {
        (TrendStatus::InsufficientData, _) | (_, None) => 0..points.len(),
        (_, Some(seg)) => seg.start..seg.end,
    }
}

#[test]
fn current_segment_is_the_last_segment_of_the_full_analysis() {
    let (mut shifted, mut whole) = (0, 0);
    for seed in [1, 2, 3] {
        for (name, history) in fast_path_histories(seed) {
            let points = history.generate();
            for config in fast_path_configs() {
                let expected = last_analyzed_segment(&points, &config);
                assert_eq!(
                    current_segment(&points, &config),
                    expected,
                    "{name}, seed {seed}, {config:?}"
                );
                if expected.start > 0 {
                    shifted += 1;
                } else {
                    whole += 1;
                }
            }
        }
    }
    // The sweep reaches both outcomes, so the equality above is not vacuous.
    assert!(shifted > 0 && whole > 0, "shifted {shifted}, whole {whole}");
}

/// `segment_baseline` built the way it was before `current_segment`
/// existed: the full trend analysis of every benchmark, then its last
/// segment pooled.
fn reference_segment_baseline(
    store: &Store,
    detector: &SteadyStateDetector,
    config: &TrendConfig,
) -> Vec<BenchmarkMeasurement> {
    let mut baseline = Vec::new();
    for name in benchmark_names(store) {
        let mut measurements: Vec<&BenchmarkMeasurement> = Vec::new();
        let mut points: Vec<TrendPoint> = Vec::new();
        for run in store.runs() {
            let Some(m) = run.benchmark(&name) else {
                continue;
            };
            if let Some(p) =
                TrendPoint::from_measurement(run.seq, &run.id, run.label.as_deref(), m, detector)
            {
                points.push(p);
                measurements.push(m);
            }
        }
        let slices: Vec<&[BenchmarkMeasurement]> = measurements
            [last_analyzed_segment(&points, config)]
        .iter()
        .map(|m| std::slice::from_ref(*m))
        .collect();
        baseline.extend(pool_measurements(&slices));
    }
    baseline
}

#[test]
fn segment_baseline_pools_what_the_full_analysis_pools() {
    let detector = SteadyStateDetector::default();
    let run_config = rigor::ExperimentConfig::interp()
        .with_invocations(4)
        .with_iterations(12);
    let mut narrowed = 0;
    for seed in [1, 2, 3] {
        let dir = std::env::temp_dir().join(format!(
            "rigor-segment-fast-path-{}-{seed}",
            std::process::id()
        ));
        fs::remove_dir_all(&dir).ok();
        let mut store = Store::open(&dir).expect("open scratch store");
        // One benchmark per synthetic history; run r archives every
        // history that is longer than r.
        let histories: Vec<(String, Vec<TrendPoint>)> = fast_path_histories(seed)
            .into_iter()
            .map(|(name, h)| (name, h.generate()))
            .collect();
        let longest = histories.iter().map(|(_, p)| p.len()).max().unwrap_or(0);
        for r in 0..longest {
            let run: Vec<BenchmarkMeasurement> = histories
                .iter()
                .filter_map(|(name, points)| points.get(r).map(|p| measurement(name, p.value, 4)))
                .collect();
            store.append(None, &run_config, run).expect("append");
        }
        for config in fast_path_configs() {
            let fast = segment_baseline(&store, &detector, &config);
            assert_eq!(
                fast,
                reference_segment_baseline(&store, &detector, &config),
                "seed {seed}, {config:?}"
            );
            narrowed += fast
                .iter()
                .filter(|m| {
                    let (_, points) = histories
                        .iter()
                        .find(|(name, _)| *name == m.benchmark)
                        .expect("pooled benchmark was archived");
                    m.invocations.len() < 4 * points.len()
                })
                .count();
        }
        fs::remove_dir_all(&dir).ok();
    }
    assert!(
        narrowed > 0,
        "no baseline was narrowed to a current segment"
    );
}
