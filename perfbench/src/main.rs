//! `perfbench`: the wall-clock benchmark of the rigor workspace.
//!
//! It measures how fast the instrument itself runs — not the virtual time it
//! produces — from outside, through the public APIs of `minipy`, `rigor`,
//! `rigor_store` and `rigor_serve`. Run from the repository root:
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign_grid|verify_grid|serve_stream|gate_history|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the seven end-to-end metrics, measured over
//! [`INVOCATIONS`] fresh processes; `--trace 1` runs a separate traced
//! measurement in one process and prints the per-layer metrics. The last
//! line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod gen;
mod host;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use report::{Invocation, Metric, Timed, TracedRun};
use serde::json::JsonValue;
use serde::Serialize;
use trace::Tracer;
use workloads::{Env, OpLog, Workload};

/// Fresh processes an untraced run is split into. Each sets up once and
/// measures `--seconds / INVOCATIONS`; the run reports medians across them,
/// because on a shared host a process's speed depends on where its memory
/// lands, and one process alone is a sample of one.
const INVOCATIONS: usize = 5;

/// Share of a traced run spent untraced, for the overhead comparison.
const UNTRACED_SHARE: f64 = 1.0 / 3.0;

/// Where runs keep their scratch stores and span files, below the checkout.
const OUT_DIR: &str = ".perfbench";

const USAGE: &str =
    "usage: perfbench --workload <campaign_grid|verify_grid|serve_stream|gate_history|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the processes a run spawns: measure once and report raw data.
    invocation: Option<usize>,
}

impl Args {
    /// The flags that reproduce these arguments in a child process.
    fn child_flags(&self, workload: &str, seconds: f64) -> Vec<String> {
        vec![
            "--workload".into(),
            workload.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
        ]
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut invocation = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--invocation" => {
                invocation = Some(value.parse().map_err(|_| bad("expected an integer"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        invocation,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.invocation.is_some() {
        run_invocation(&args)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args, &argv)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the host context every result carries.
fn print_context(args: &Args, argv: &[String], workers: usize, threads: usize, nproc: usize) {
    let host = rigor_store::HostMeta::current();
    println!(
        "perfbench {}: seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc {nproc}, cpu \"{}\", os {}, arch {}, family {}",
        host::cpu_model(),
        host.os,
        host.arch,
        host.family
    );
    println!("commit: {}", host::git_commit());
    println!("command: {}", argv.join(" "));
    println!("threads: {threads} busy at once ({workers} worker(s)), nproc {nproc}");
}

/// Removes a run's scratch directories, whatever state they are in.
fn clean(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// The workers to use (the smaller of 2 and `nproc`), after checking the
/// thread budget against `nproc`.
fn thread_budget(args: &Args) -> Result<(usize, usize, usize), String> {
    let nproc = host::nproc();
    let workers = nproc.min(2);
    let threads = workloads::threads(&args.workload, workers);
    if threads > nproc {
        return Err(format!(
            "refusing to run {}: it keeps {threads} threads busy but nproc is {nproc}",
            args.workload
        ));
    }
    Ok((workers, threads, nproc))
}

/// Runs one timed phase of `seconds`.
fn timed_phase(
    workload: &mut dyn Workload,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Timed, String> {
    let mut log = OpLog::default();
    let cpu_before = host::process_cpu_ns();
    let started = Instant::now();
    workload.run(started + Duration::from_secs_f64(seconds), &mut log, tracer)?;
    Ok(Timed {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_ns: host::process_cpu_ns() - cpu_before,
        log,
    })
}

/// Sets the workload up in `work` and returns it with the set-up time.
fn set_up(
    args: &Args,
    root: &Path,
    work: &Path,
    workers: usize,
) -> Result<(Box<dyn Workload>, f64), String> {
    let env = Env {
        seed: args.seed,
        workers,
        root: root.to_path_buf(),
        work: work.to_path_buf(),
    };
    let started = Instant::now();
    let workload = workloads::setup(&args.workload, &env)?;
    Ok((workload, started.elapsed().as_secs_f64()))
}

/// One invocation: set up once, measure for `--seconds`, tear down.
fn invoke(args: &Args, root: &Path, work: &Path, workers: usize) -> Result<Invocation, String> {
    let (mut workload, setup_s) = set_up(args, root, work, workers)?;
    let timed = timed_phase(workload.as_mut(), args.seconds, None);
    workload.finish();
    Ok(Invocation {
        setup_s,
        timed: timed?,
        peak_rss_mib: host::peak_rss_mib(),
    })
}

/// The child-process side of an untraced run: one invocation, reported as
/// one JSON line of raw data.
fn run_invocation(args: &Args) -> Result<(), String> {
    let (workers, _, _) = thread_budget(args)?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = root
        .join(OUT_DIR)
        .join(format!("work-{}-{}", args.workload, std::process::id()));
    let result = invoke(args, &root, &work, workers);
    clean(&work);
    println!("{}", invocation_json(&result?));
    Ok(())
}

/// One invocation's raw data as the JSON line its process prints.
fn invocation_json(inv: &Invocation) -> String {
    let log = &inv.timed.log;
    let line = JsonValue::Object(vec![
        ("setup_s".into(), inv.setup_s.to_value()),
        ("wall_s".into(), inv.timed.wall_s.to_value()),
        ("cpu_ns".into(), inv.timed.cpu_ns.to_value()),
        ("peak_rss_mib".into(), inv.peak_rss_mib.to_value()),
        ("attempted".into(), log.attempted.to_value()),
        ("ok".into(), log.ok.to_value()),
        ("failures".into(), log.failures.to_value()),
        ("latencies_ms".into(), log.latencies_ms.to_value()),
    ]);
    serde_json::to_string(&line).expect("plain data serializes")
}

/// Reads one invocation's JSON line back.
fn parse_invocation(line: &str) -> Result<Invocation, String> {
    let v: JsonValue = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let num = |field: &str| {
        v.get(field)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("invocation result lacks `{field}`"))
    };
    let list = |field: &str| match v.get(field) {
        Some(JsonValue::Array(items)) => Ok(items.as_slice()),
        _ => Err(format!("invocation result lacks `{field}`")),
    };
    let latencies_ms = list("latencies_ms")?
        .iter()
        .map(|x| x.as_f64().ok_or("latency is not a number"))
        .collect::<Result<Vec<f64>, _>>()?;
    let failures = list("failures")?
        .iter()
        .filter_map(|x| x.as_str().map(str::to_string))
        .collect();
    Ok(Invocation {
        setup_s: num("setup_s")?,
        peak_rss_mib: num("peak_rss_mib")?,
        timed: Timed {
            wall_s: num("wall_s")?,
            cpu_ns: num("cpu_ns")? as u64,
            log: OpLog {
                latencies_ms,
                attempted: num("attempted")? as u64,
                ok: num("ok")? as u64,
                failures,
            },
        },
    })
}

fn run_one(args: &Args, argv: &[String]) -> Result<(), String> {
    let (workers, threads, nproc) = thread_budget(args)?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    print_context(args, argv, workers, threads, nproc);
    let calibration_start = (host::calibration_mops(), host::memory_mloads());
    let measured = if args.trace {
        let work =
            root.join(OUT_DIR)
                .join(format!("work-{}-{}", args.workload, std::process::id()));
        let result = measure_traced(args, &root, &work, workers);
        clean(&work);
        result?
    } else {
        measure_invocations(args)?
    };
    let calibration_end = (host::calibration_mops(), host::memory_mloads());
    println!(
        "calibration (context only, never gated): integer loop {:.1} Mops/s at start, \
         {:.1} Mops/s at end; memory probe {:.1} M loads/s at start, {:.1} M loads/s at end",
        calibration_start.0, calibration_end.0, calibration_start.1, calibration_end.1
    );
    for note in &measured.notes {
        println!("{note}");
    }
    for m in &measured.metrics {
        let tail = match (&measured.tail, m.name) {
            (Some(tail), "op_tail_ms") => format!("  ({tail})"),
            _ => String::new(),
        };
        println!("{:<28} {:>14.6} {}{tail}", m.name, m.value, m.unit);
    }
    let log = &measured.log;
    for failure in &log.failures {
        println!("oracle failure: {failure}");
    }
    let correct = log.attempted > 0 && log.ok == log.attempted && log.failures.is_empty();
    println!(
        "{}",
        report::result_json(
            correct,
            log.attempted,
            log.attempted - log.ok,
            &measured.metrics
        )
    );
    Ok(())
}

/// What one run measured.
struct Measured {
    metrics: Vec<Metric>,
    /// The operations the `correct` verdict rests on.
    log: OpLog,
    /// Context printed before the metrics.
    notes: Vec<String>,
    /// Which percentile `op_tail_ms` is, printed next to it.
    tail: Option<String>,
}

/// An untraced run: [`INVOCATIONS`] fresh processes in turn, each set up
/// once and measured for an equal share of `--seconds`.
fn measure_invocations(args: &Args) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = args.seconds / INVOCATIONS as f64;
    let mut invocations = Vec::with_capacity(INVOCATIONS);
    for i in 0..INVOCATIONS {
        let output = Command::new(&exe)
            .args(args.child_flags(&args.workload, seconds))
            .args(["--invocation", &i.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start invocation {i}: {e}"))?;
        if !output.status.success() {
            return Err(format!("invocation {i} exited with {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        invocations.push(parse_invocation(line).map_err(|e| format!("invocation {i}: {e}"))?);
    }
    let (metrics, latency_tail) = report::end_to_end(&invocations);
    let mut log = OpLog::default();
    for inv in &invocations {
        log.latencies_ms.extend(&inv.timed.log.latencies_ms);
        log.attempted += inv.timed.log.attempted;
        log.ok += inv.timed.log.ok;
        log.failures.extend(inv.timed.log.failures.iter().cloned());
    }
    let per_invocation = |f: &dyn Fn(&Invocation) -> String| {
        invocations.iter().map(f).collect::<Vec<_>>().join(", ")
    };
    let notes = vec![
        format!(
            "invocations: {INVOCATIONS} processes of {seconds:.3} s; set-ups (s): {}",
            per_invocation(&|inv| format!("{:.4}", inv.setup_s))
        ),
        format!(
            "ops/s per invocation: {}",
            per_invocation(&|inv| format!(
                "{:.3}",
                inv.timed.log.latencies_ms.len() as f64 / inv.timed.wall_s
            ))
        ),
    ];
    let tail = Some(match latency_tail {
        Some(t) => format!(
            "p{:.3} of {} operations over all invocations, {} beyond it",
            t.percentile, t.samples, t.beyond
        ),
        None => format!("the slowest of only {} operations", log.latencies_ms.len()),
    });
    Ok(Measured {
        metrics,
        log,
        notes,
        tail,
    })
}

/// A traced run, in one process: set up, measure untraced for a third of
/// `--seconds`, then traced for the rest.
fn measure_traced(
    args: &Args,
    root: &Path,
    work: &Path,
    workers: usize,
) -> Result<Measured, String> {
    let (mut workload, setup_s) = set_up(args, root, work, workers)?;
    let untraced = timed_phase(workload.as_mut(), args.seconds * UNTRACED_SHARE, None);
    let tracer = Arc::new(Tracer::new());
    let traced = untraced.as_ref().ok().map(|_| {
        timed_phase(
            workload.as_mut(),
            args.seconds * (1.0 - UNTRACED_SHARE),
            Some(&tracer),
        )
    });
    workload.finish();
    let untraced = untraced?;
    let traced = traced.expect("ran after a good untraced phase")?;
    let spans = tracer.spans();
    let span_dir = root.join(OUT_DIR).join("spans");
    let span_file = span_dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(&span_dir)
        .and_then(|()| trace::write_jsonl(&spans, &span_file))
        .map_err(|e| format!("cannot write {}: {e}", span_file.display()))?;
    let notes = vec![
        format!("set-up: {setup_s:.4} s"),
        format!(
            "traced phase: {} operations, {} spans written to {}",
            traced.log.latencies_ms.len(),
            spans.len(),
            span_file.strip_prefix(root).unwrap_or(&span_file).display()
        ),
    ];
    let latencies = &traced.log.latencies_ms;
    let metrics = report::per_layer(
        &spans,
        &tracer,
        TracedRun {
            ops: latencies.len() as u64,
            op_ms: latencies.iter().sum::<f64>() / latencies.len().max(1) as f64,
            untraced_ops_per_s: untraced.log.latencies_ms.len() as f64 / untraced.wall_s,
        },
    );
    let mut log = untraced.log;
    log.latencies_ms.extend(traced.log.latencies_ms);
    log.attempted += traced.log.attempted;
    log.ok += traced.log.ok;
    log.failures.extend(traced.log.failures);
    Ok(Measured {
        metrics,
        log,
        notes,
        tail: None,
    })
}

/// Runs every workload, each in a process of its own, and prints a summary
/// plus one combined result.
fn run_all(args: &Args) -> Result<(), String> {
    let exe: PathBuf = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rows: Vec<(&str, JsonValue)> = Vec::new();
    for name in workloads::NAMES {
        let output = Command::new(&exe)
            .args(args.child_flags(name, args.seconds))
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!("{name} exited with {}", output.status));
        }
        let last = stdout.lines().last().unwrap_or_default();
        let result = serde_json::from_str::<JsonValue>(last)
            .map_err(|e| format!("{name}: unreadable result line: {e}"))?;
        rows.push((name, result));
    }
    println!("summary");
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut combined = Vec::new();
    for (name, result) in &rows {
        correct &= matches!(result.get("correct"), Some(JsonValue::Bool(true)));
        attempted += result
            .get("attempted")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        failed += result
            .get("failed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        if let Some(JsonValue::Object(metrics)) = result.get("metrics") {
            for (metric, body) in metrics {
                let value = body
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = body.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                println!("  {name:<14} {metric:<28} {value:>14.6} {unit}");
                combined.push(format!(
                    "\"{name}.{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    report::json_number(value)
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        combined.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark lives inside the repository")
            .to_path_buf()
    }

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.3,
            trace,
            invocation: None,
        }
    }

    fn work(workload: &str, trace: bool) -> PathBuf {
        root().join(OUT_DIR).join(format!(
            "selftest-{workload}-{trace}-{}",
            std::process::id()
        ))
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} reported"))
            .value
    }

    #[test]
    fn every_workload_emits_all_seven_end_to_end_metrics() {
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        for workload in workloads::NAMES {
            let work = work(workload, false);
            let result = invoke(&args(workload, false), &root(), &work, 2);
            clean(&work);
            let inv = result.unwrap_or_else(|e| panic!("{workload}: {e}"));
            let log = &inv.timed.log;
            assert!(log.attempted > 0, "{workload}: no operation ran");
            assert_eq!(log.ok, log.attempted, "{workload}: {:?}", log.failures);
            // The invocation survives the trip through its JSON line.
            let back = parse_invocation(&invocation_json(&inv)).unwrap();
            assert_eq!(back.timed.log.latencies_ms, log.latencies_ms);
            let (metrics, _) = report::end_to_end(&[inv, back]);
            let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{workload}");
            for m in &metrics {
                assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
            }
            assert_eq!(value(&metrics, "ok_frac"), 1.0, "{workload}");
        }
    }

    #[test]
    fn traced_runs_report_every_layer_and_the_bypasses_hold() {
        use report::LAYERS;
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        for workload in workloads::NAMES {
            let work = work(workload, true);
            let result = measure_traced(&args(workload, true), &root(), &work, 2);
            clean(&work);
            let Measured { metrics, log, .. } =
                result.unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(log.attempted > 0, "{workload}: no operation ran");
            assert_eq!(log.ok, log.attempted, "{workload}: {:?}", log.failures);
            assert!(log.failures.is_empty(), "{workload}: {:?}", log.failures);
            let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{workload}");
            let vm = metrics
                .iter()
                .filter(|m| m.name.starts_with("session.") || m.name.starts_with("compiler."))
                .map(|m| m.value)
                .sum::<f64>();
            let serve = metrics
                .iter()
                .filter(|m| m.name.starts_with("serve.") || m.name == "self_ms.serve")
                .map(|m| m.value)
                .sum::<f64>();
            match workload {
                "campaign_grid" | "verify_grid" => {
                    assert!(vm > 0.0, "{workload} runs the VM");
                    assert_eq!(serve, 0.0, "{workload} records no serve span");
                }
                _ => {
                    assert_eq!(vm, 0.0, "{workload} records no minipy span or count");
                    assert!(serve > 0.0 || workload == "gate_history");
                }
            }
            assert!(value(&metrics, "trace.spans") > 0.0, "{workload}");
            // The layers' self times of one operation sum to no more than
            // its latency; a verify_grid operation keeps both workers busy,
            // so it holds up to twice its latency of thread time.
            let lanes = if workload == "verify_grid" { 2.0 } else { 1.0 };
            let self_ms: f64 = LAYERS
                .iter()
                .map(|layer| value(&metrics, &format!("self_ms.{layer}")))
                .sum();
            let op_ms = value(&metrics, "trace.op_ms");
            assert!(self_ms > 0.0, "{workload}");
            assert!(
                self_ms <= lanes * op_ms * (1.0 + 1e-9),
                "{workload}: self times sum to {self_ms} ms per operation of {op_ms} ms"
            );
        }
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let argv: Vec<String> = "--workload gate_history --seed 9 --seconds 2 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let parsed = parse_args(&argv).unwrap();
        assert_eq!(parsed.workload, "gate_history");
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (9, 2.0, true));
        assert_eq!(
            parse_args(&parsed.child_flags("gate_history", 2.0))
                .unwrap()
                .seed,
            9
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload all --seed x --seconds 1",
            "--workload all --seed 1 --seconds 0",
            "--workload all --seed 1 --seconds 1 --trace 2",
            "--workload all --seed 1 --seconds 1 --workers 2",
            "--workload all --seed 1",
            "--workload all --seed 1 --seconds 1 --bogus 1",
        ] {
            let argv: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&argv).is_err(), "{bad}");
        }
    }
}
