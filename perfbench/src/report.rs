//! Turns an untraced timed phase into the end-to-end metrics and a traced
//! phase into the per-layer metrics.

use std::collections::BTreeMap;

use crate::stats::{median, tail, tail_or_max, valid_metric_name, Tail};
use crate::trace::{self_times, Kind, Span, Tracer};
use crate::workloads::OpLog;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The end-to-end metrics, with their units: the same seven on every
/// workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// Layers whose self time the traced run reports, as `self_ms.<layer>`.
pub const LAYERS: [&str; 12] = [
    "compiler",
    "session",
    "runner",
    "orchestrator",
    "verify",
    "store",
    "record",
    "history",
    "baseline",
    "regress",
    "trend",
    "serve",
];

/// The per-layer metrics of the traced run, with their units. Every one is
/// reported on every workload; a layer a workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("compiler.compile_us", "us"),
    ("compiler.busy_ms", "ms/op"),
    ("session.start_us", "us"),
    ("session.iter_interp_us", "us"),
    ("session.iter_jit_us", "us"),
    ("session.busy_ms", "ms/op"),
    ("session.gc_cycles", "count/op"),
    ("session.jit_compiles", "count/op"),
    ("session.deopts", "count/op"),
    ("runner.measure_ms", "ms"),
    ("runner.retries", "count/op"),
    ("runner.censored", "count/op"),
    ("orchestrator.busy_frac", "ratio"),
    ("orchestrator.steals", "count/op"),
    ("verify.cell_us", "us"),
    ("verify.busy_frac", "ratio"),
    ("verify.failures", "count/op"),
    ("store.append_ms", "ms"),
    ("store.append_tail_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.open_mib_per_s", "MiB/s"),
    ("store.archive_mib", "MiB"),
    ("record.encode_us", "us"),
    ("record.parse_us", "us"),
    ("record.bytes", "B"),
    ("history.points_ms", "ms"),
    ("baseline.pool_ms", "ms"),
    ("regress.check_ms", "ms"),
    ("regress.regressed", "count/call"),
    ("trend.report_ms", "ms"),
    ("trend.changepoints", "count/call"),
    ("serve.ping_ms", "ms"),
    ("serve.upload_ms", "ms"),
    ("serve.history_ms", "ms"),
    ("serve.check_ms", "ms"),
    ("serve.trend_ms", "ms"),
    ("serve.retries", "count/op"),
    ("serve.dedup_frac", "ratio"),
    ("self_ms.compiler", "ms/op"),
    ("self_ms.session", "ms/op"),
    ("self_ms.runner", "ms/op"),
    ("self_ms.orchestrator", "ms/op"),
    ("self_ms.verify", "ms/op"),
    ("self_ms.store", "ms/op"),
    ("self_ms.record", "ms/op"),
    ("self_ms.history", "ms/op"),
    ("self_ms.baseline", "ms/op"),
    ("self_ms.regress", "ms/op"),
    ("self_ms.trend", "ms/op"),
    ("self_ms.serve", "ms/op"),
    ("trace.ops_per_s", "ops/s"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.op_ms", "ms"),
];

/// What an untraced timed phase measured.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Every operation of the phase.
    pub log: OpLog,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Process CPU time during the phase, ns.
    pub cpu_ns: u64,
}

/// One invocation of a workload: a fresh process that set up once and ran
/// one timed phase.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Set-up time, s.
    pub setup_s: f64,
    /// The timed phase.
    pub timed: Timed,
    /// `VmHWM` of the process at the end, MiB.
    pub peak_rss_mib: f64,
}

/// The seven end-to-end metrics of a run made of `invocations`, and the tail
/// `op_tail_ms` came from (`None` when the run completed too few operations
/// for one; its slowest operation stands in).
///
/// Every per-process quantity is the median across the invocations: set-up
/// time, throughput, median latency, CPU time per operation and peak
/// resident set. The tail and `ok_frac` are taken over every operation of
/// the run.
pub fn end_to_end(invocations: &[Invocation]) -> (Vec<Metric>, Option<Tail>) {
    let across =
        |f: &dyn Fn(&Invocation) -> f64| median(&invocations.iter().map(f).collect::<Vec<f64>>());
    let ops = |inv: &Invocation| inv.timed.log.latencies_ms.len() as f64;
    let all: Vec<f64> = invocations
        .iter()
        .flat_map(|inv| inv.timed.log.latencies_ms.iter().copied())
        .collect();
    let attempted: u64 = invocations.iter().map(|inv| inv.timed.log.attempted).sum();
    let ok: u64 = invocations.iter().map(|inv| inv.timed.log.ok).sum();
    let values = [
        across(&|inv| inv.setup_s),
        across(&|inv| ops(inv) / inv.timed.wall_s),
        across(&|inv| {
            let lat = &inv.timed.log.latencies_ms;
            if lat.is_empty() {
                0.0
            } else {
                median(lat)
            }
        }),
        tail_or_max(&all),
        across(&|inv| inv.timed.cpu_ns as f64 / 1e6 / ops(inv).max(1.0)),
        across(&|inv| inv.peak_rss_mib),
        ok as f64 / attempted.max(1) as f64,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    (metrics, tail(&all))
}

/// What the traced run needs besides its spans and counts.
#[derive(Debug, Clone, Copy)]
pub struct TracedRun {
    /// Outer operations of the traced phase.
    pub ops: u64,
    /// Their mean latency, ms.
    pub op_ms: f64,
    /// Throughput of the untraced phase of the same run.
    pub untraced_ops_per_s: f64,
}

/// Span durations by name, ns.
fn durations(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64);
    }
    by_name
}

/// Every per-layer metric of [`PER_LAYER`], in that order.
pub fn per_layer(spans: &[Span], tracer: &Tracer, run: TracedRun) -> Vec<Metric> {
    let by_name = durations(spans);
    let p50 = |name: &str| by_name.get(name).map_or(0.0, |d| median(d));
    let calls = |name: &str| by_name.get(name).map_or(0, Vec::len) as f64;
    let ops = run.ops.max(1) as f64;
    let per_op = |name: &str| tracer.counted(name) / ops;
    let per_call = |name: &str, call: &str| tracer.counted(name) / calls(call).max(1.0);
    let ratio = |num: f64, den: &str| {
        let den = tracer.counted(den);
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    };
    let total = |name: &str| by_name.get(name).map_or(0.0, |d| d.iter().sum::<f64>());
    let mut self_ns: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.kind != Kind::Outside {
            *self_ns.entry(s.layer()).or_default() += own;
        }
    }
    let self_ms = |layer: &str| self_ns.get(layer).copied().unwrap_or(0.0) / 1e6 / ops;
    let append_tail = by_name.get("store.append").map_or(0.0, |d| tail_or_max(d));
    let open_s = p50("store.open") / 1e9;
    let traced_ops_per_s = if tracer.counted("trace.outer_ns") > 0.0 {
        run.ops as f64 / (tracer.counted("trace.outer_ns") / 1e9)
    } else {
        0.0
    };

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("compiler.compile_us", p50("compiler.compile") / 1e3);
    values.insert("compiler.busy_ms", self_ms("compiler"));
    values.insert("session.start_us", p50("session.start") / 1e3);
    values.insert("session.iter_interp_us", p50("session.iter_interp") / 1e3);
    values.insert("session.iter_jit_us", p50("session.iter_jit") / 1e3);
    values.insert("session.busy_ms", self_ms("session"));
    for name in [
        "session.gc_cycles",
        "session.jit_compiles",
        "session.deopts",
    ] {
        values.insert(name, per_op(name));
    }
    values.insert("runner.measure_ms", p50("runner.measure") / 1e6);
    values.insert("runner.retries", per_op("runner.retries"));
    values.insert("runner.censored", per_op("runner.censored"));
    values.insert(
        "orchestrator.busy_frac",
        ratio(
            total("runner.measure") + total("store.append"),
            "orchestrator.capacity_ns",
        ),
    );
    values.insert("orchestrator.steals", per_op("orchestrator.steals"));
    values.insert("verify.cell_us", p50("verify.cell") / 1e3);
    values.insert(
        "verify.busy_frac",
        ratio(total("verify.cell"), "verify.capacity_ns"),
    );
    values.insert("verify.failures", per_op("verify.failures"));
    values.insert("store.append_ms", p50("store.append") / 1e6);
    values.insert("store.append_tail_ms", append_tail / 1e6);
    values.insert("store.open_ms", open_s * 1e3);
    values.insert(
        "store.open_mib_per_s",
        if open_s > 0.0 {
            tracer.counted("store.opened_mib") / open_s
        } else {
            0.0
        },
    );
    values.insert("store.archive_mib", tracer.counted("store.archive_mib"));
    values.insert("record.encode_us", p50("record.encode") / 1e3);
    values.insert("record.parse_us", p50("record.parse") / 1e3);
    values.insert(
        "record.bytes",
        ratio(tracer.counted("record.bytes"), "record.lines"),
    );
    values.insert("history.points_ms", p50("history.points") / 1e6);
    values.insert("baseline.pool_ms", p50("baseline.pool") / 1e6);
    values.insert("regress.check_ms", p50("regress.check") / 1e6);
    values.insert(
        "regress.regressed",
        per_call("regress.regressed", "regress.check"),
    );
    values.insert("trend.report_ms", p50("trend.report") / 1e6);
    values.insert(
        "trend.changepoints",
        per_call("trend.changepoints", "trend.report"),
    );
    for (metric, span) in [
        ("serve.ping_ms", "serve.ping"),
        ("serve.upload_ms", "serve.upload"),
        ("serve.history_ms", "serve.history"),
        ("serve.check_ms", "serve.check"),
        ("serve.trend_ms", "serve.trend"),
    ] {
        values.insert(metric, p50(span) / 1e6);
    }
    values.insert("serve.retries", per_op("serve.retries"));
    values.insert(
        "serve.dedup_frac",
        ratio(tracer.counted("serve.deduped"), "serve.uploads"),
    );
    for (layer, (name, _)) in LAYERS.iter().zip(&PER_LAYER[38..50]) {
        values.insert(name, self_ms(layer));
    }
    values.insert("trace.ops_per_s", traced_ops_per_s);
    values.insert("trace.untraced_ops_per_s", run.untraced_ops_per_s);
    values.insert(
        "trace.overhead_frac",
        if run.untraced_ops_per_s > 0.0 {
            1.0 - traced_ops_per_s / run.untraced_ops_per_s
        } else {
            0.0
        },
    );
    values.insert("trace.spans", spans.len() as f64);
    values.insert("trace.op_ms", run.op_ms);

    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values
                .remove(name)
                .unwrap_or_else(|| panic!("{name} is computed")),
            unit,
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_metric_name(m.name), "bad metric name {}", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number as JSON; anything else as `null`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn invocation(ops: usize, setup_s: f64, wall_s: f64) -> Invocation {
        let mut log = OpLog::default();
        for i in 0..ops {
            log.op(Duration::from_micros(1000 + i as u64), true);
        }
        Invocation {
            setup_s,
            timed: Timed {
                log,
                wall_s,
                cpu_ns: 4_000_000_000,
            },
            peak_rss_mib: 12.5,
        }
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &names {
            assert!(valid_metric_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (layer, (name, _)) in LAYERS.iter().zip(&PER_LAYER[38..50]) {
            assert_eq!(*name, format!("self_ms.{layer}"));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        use serde::json::JsonValue;
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: JsonValue = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(JsonValue::Array(items)) = spec.get(key) else {
                panic!("{key} is a list");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn end_to_end_reports_all_seven_metrics_as_medians_across_invocations() {
        let runs = [
            invocation(200, 0.5, 2.0),
            invocation(200, 0.4, 4.0),
            invocation(200, 0.6, 1.0),
        ];
        let (metrics, latency_tail) = end_to_end(&runs);
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("setup_s"), 0.5);
        assert_eq!(value("ops_per_s"), 100.0);
        assert_eq!(value("cpu_ms_per_op"), 20.0);
        assert_eq!(value("peak_rss_mib"), 12.5);
        assert_eq!(value("ok_frac"), 1.0);
        // The tail pools all 600 operations: percentile 100 · 590 / 600.
        let t = latency_tail.unwrap();
        assert_eq!(t.samples, 600);
        assert!((t.percentile - 100.0 * 590.0 / 600.0).abs() < 1e-9);
        assert_eq!(value("op_tail_ms"), t.value);
    }

    #[test]
    fn per_layer_reports_every_metric_and_zero_for_bypassed_layers() {
        let tracer = Tracer::new();
        tracer.span("serve.upload", None, 0, |_| ());
        tracer.count("serve.uploads", 4.0);
        tracer.count("serve.deduped", 1.0);
        tracer.count("trace.outer_ns", 1e9);
        let spans = tracer.spans();
        let metrics = per_layer(
            &spans,
            &tracer,
            TracedRun {
                ops: 50,
                op_ms: 20.0,
                untraced_ops_per_s: 100.0,
            },
        );
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("serve.dedup_frac"), 0.25);
        assert_eq!(value("trace.ops_per_s"), 50.0);
        assert_eq!(value("trace.overhead_frac"), 0.5);
        assert_eq!(value("session.start_us"), 0.0);
        assert_eq!(value("self_ms.compiler"), 0.0);
        assert!(value("self_ms.serve") > 0.0);
        assert_eq!(value("trace.op_ms"), 20.0);
    }

    /// The self times of one operation sum to no more than its latency.
    #[test]
    fn self_times_of_one_operation_fit_in_its_latency() {
        use crate::trace::Kind;
        let span = |id, parent, name, kind, start_ns, end_ns| Span {
            id,
            parent,
            name,
            op: 0,
            start_ns,
            end_ns,
            kind,
        };
        let ms = 1_000_000;
        // One campaign cell of 10 ms with a 1 ms append; the replay after it
        // measured the runner at 12 ms, of which the VM took 11 ms; the
        // store open before the campaign and the campaign span itself are
        // outside the cell.
        let spans = [
            span(1, None, "store.open", Kind::Outside, 0, 5 * ms),
            span(2, None, "orchestrator.campaign", Kind::Outside, 5 * ms, 15 * ms),
            span(3, Some(2), "orchestrator.cell", Kind::Call, 5 * ms, 15 * ms),
            span(4, Some(3), "store.append", Kind::Call, 14 * ms, 15 * ms),
            span(5, Some(3), "runner.measure", Kind::Replay, 20 * ms, 32 * ms),
            span(6, Some(5), "compiler.compile", Kind::Replay, 20 * ms, 21 * ms),
            span(7, Some(5), "session.iter_jit", Kind::Replay, 21 * ms, 31 * ms),
        ];
        let tracer = Tracer::new();
        let metrics = per_layer(
            &spans,
            &tracer,
            TracedRun {
                ops: 1,
                op_ms: 10.0,
                untraced_ops_per_s: 1.0,
            },
        );
        let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
        let sum: f64 = LAYERS
            .iter()
            .map(|layer| value(&format!("self_ms.{layer}")))
            .sum();
        assert!((sum - 10.0).abs() < 1e-9, "{sum}");
        // The 12 ms replay is scaled into the 9 ms the append left.
        assert_eq!(value("self_ms.store"), 1.0);
        assert_eq!(value("self_ms.orchestrator"), 0.0);
        assert!((value("self_ms.runner") - 0.75).abs() < 1e-9);
        assert!((value("self_ms.compiler") - 0.75).abs() < 1e-9);
        assert!((value("self_ms.session") - 7.5).abs() < 1e-9);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[Metric {
                name: "ops_per_s",
                value: 1.25,
                unit: "ops/s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1.25, \"unit\": \"ops/s\"}}}"
        );
        assert!(serde_json::from_str::<serde::json::JsonValue>(&line).is_ok());
    }
}
