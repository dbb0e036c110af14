//! Implementation of the CLI subcommands.

use std::borrow::Cow;
use std::fs;
use std::sync::Arc;
use std::time::Duration;

use minipy::{Session, VmConfig};
use rigor::campaign::{CellReceipt, CellSink};
use rigor::{
    compare, compare_suite, compute_plan, fmt_ci, fmt_ns, precision_of, sparkline, CellEstimate,
    ExperimentConfig, ExperimentEvent, ExperimentObserver, FaultPlan, Journal, JsonlTraceObserver,
    PlannerConfig, ProgressObserver, SteadyStateDetector, Table, WarmupClassifier,
};
use rigor_serve::{
    ArchiveServer, CheckResponse, Measurements, Query, RemoteStore, ServeError, TrendResponse,
};
use rigor_store::{BaselineRef, ConfigFingerprint, RunRecord, Store};
use rigor_workloads::{characterize, find, suite, verify, Size, Workload};
use serde::json::JsonValue;
use serde::{Deserialize, Serialize as _};

use crate::args::{Command, GlobalOpts, ParseError, USAGE};
use crate::error::{io_err, CliError};

type CliResult = Result<(), CliError>;

/// Dispatches a parsed command.
pub fn dispatch(parsed: &(Command, GlobalOpts)) -> CliResult {
    let (command, opts) = parsed;
    match command {
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
        Command::List => cmd_list(),
        Command::Characterize { benchmark } => cmd_characterize(benchmark, opts),
        Command::Measure { benchmark } => cmd_measure(benchmark, opts),
        Command::Compare { benchmark } => cmd_compare(benchmark, opts),
        Command::Suite => cmd_suite(opts),
        Command::Warmup { benchmark } => cmd_warmup(benchmark, opts),
        Command::Run { path } => cmd_run(path, opts),
        Command::Disasm { path } => cmd_disasm(path),
        Command::TraceSummary { path } => cmd_trace_summary(path),
        Command::SelfTest => cmd_self_test(opts),
        Command::Archive { benchmark } => cmd_archive(benchmark.as_deref(), opts),
        Command::History { benchmark } => cmd_history(benchmark, opts),
        Command::Check { benchmark } => cmd_check(benchmark.as_deref(), opts),
        Command::Trend { benchmark } => cmd_trend(benchmark.as_deref(), opts),
        Command::Campaign => cmd_campaign(opts),
        Command::Plan => cmd_plan(opts),
        Command::Serve => cmd_serve(opts),
        Command::Verify => cmd_verify(opts),
    }
}

fn lookup(benchmark: &str) -> Result<Workload, CliError> {
    Ok(rigor_workloads::lookup(benchmark)?)
}

/// Maps an invalid experiment shape onto the usage error surface (exit 2).
/// Argument parsing pre-validates the shape, so hitting this means a flag
/// combination slipped past that probe.
fn config_err(e: rigor::ConfigError) -> CliError {
    CliError::Usage(ParseError(e.to_string()))
}

fn experiment_config(opts: &GlobalOpts) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::interp()
        .with_invocations(opts.invocations)
        .with_iterations(opts.iterations)
        .with_size(opts.size)
        .with_seed(opts.seed)
        .with_engine(opts.engine)
        .with_confidence(opts.confidence);
    if let Some(d) = opts.deadline_ns {
        cfg = cfg.with_deadline_ns(d);
    }
    if let Some(f) = opts.fuel {
        cfg = cfg.with_step_budget(f);
    }
    if let Some(r) = opts.max_retries {
        cfg = cfg.with_max_retries(r);
    }
    if let Some(q) = opts.quarantine_threshold {
        cfg = cfg.with_quarantine_threshold(q);
    }
    cfg
}

/// `--journal`/`--resume` checkpoint a *single* measurement, so only
/// `measure` supports them; other measuring commands reject the flags
/// rather than silently ignoring them.
fn reject_checkpoint_flags(opts: &GlobalOpts, command: &str) -> Result<(), CliError> {
    if opts.journal.is_some() || opts.resume.is_some() {
        return Err(CliError::Usage(ParseError(format!(
            "--journal/--resume only apply to `measure`, not `{command}`"
        ))));
    }
    Ok(())
}

/// Prints a one-line fault summary to stderr when a measurement had
/// censored invocations (suite/compare context, where the full per-slot
/// detail of `measure` would be noise).
fn note_faults(m: &rigor::BenchmarkMeasurement, quiet: bool) {
    if quiet || m.censored.is_empty() {
        return;
    }
    eprintln!(
        "note: {} on {}: {} of {} invocations censored{}",
        m.benchmark,
        m.engine,
        m.censored.len(),
        m.n_requested(),
        if m.quarantined {
            " — QUARANTINED"
        } else {
            ""
        }
    );
}

/// Builds the observer set the flags ask for: `--progress` (unless
/// `--quiet`) and `--trace <path>`. The same observers are shared across
/// every experiment of a command, so a suite run streams one trace.
fn observers(opts: &GlobalOpts) -> Result<Vec<Arc<dyn ExperimentObserver>>, CliError> {
    let mut out: Vec<Arc<dyn ExperimentObserver>> = Vec::new();
    if opts.progress && !opts.quiet {
        out.push(Arc::new(ProgressObserver::new()));
    }
    if let Some(path) = &opts.trace {
        let obs = JsonlTraceObserver::create(std::path::Path::new(path)).map_err(io_err(path))?;
        out.push(Arc::new(obs));
    }
    Ok(out)
}

/// Measures one workload with the given observers attached.
fn measure_observed(
    workload: &Workload,
    cfg: &ExperimentConfig,
    observers: &[Arc<dyn ExperimentObserver>],
) -> Result<rigor::BenchmarkMeasurement, CliError> {
    let mut runner = rigor::Runner::new(cfg.clone()).map_err(config_err)?;
    for obs in observers {
        runner = runner.observer(obs.clone());
    }
    Ok(runner.measure(workload)?)
}

fn export(opts: &GlobalOpts, measurements: &[rigor::BenchmarkMeasurement]) -> CliResult {
    if let Some(path) = &opts.json_out {
        fs::write(path, rigor::to_json(measurements)?).map_err(io_err(path))?;
        println!("wrote {path}");
    }
    if let Some(path) = &opts.csv_out {
        fs::write(path, rigor::to_csv(measurements)).map_err(io_err(path))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_list() -> CliResult {
    let mut table = Table::new(vec!["benchmark", "category", "description"]);
    for w in suite() {
        table.row(vec![w.name, w.category.label(), w.description]);
    }
    println!("{table}");
    Ok(())
}

fn cmd_characterize(benchmark: &str, opts: &GlobalOpts) -> CliResult {
    let w = lookup(benchmark)?;
    let c = characterize(&w, opts.size, opts.seed)?;
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec![
        "bytecodes / iteration".to_string(),
        format!("{:.0}", c.bytecodes_per_iter),
    ]);
    table.row(vec![
        "arith fraction".to_string(),
        format!("{:.1}%", c.arith_frac * 100.0),
    ]);
    table.row(vec![
        "stack fraction".to_string(),
        format!("{:.1}%", c.stack_frac * 100.0),
    ]);
    table.row(vec![
        "name fraction".to_string(),
        format!("{:.1}%", c.name_frac * 100.0),
    ]);
    table.row(vec![
        "memory fraction".to_string(),
        format!("{:.1}%", c.memory_frac * 100.0),
    ]);
    table.row(vec![
        "branch fraction".to_string(),
        format!("{:.1}%", c.branch_frac * 100.0),
    ]);
    table.row(vec![
        "call fraction".to_string(),
        format!("{:.1}%", c.call_frac * 100.0),
    ]);
    table.row(vec![
        "allocations / iteration".to_string(),
        format!("{:.0}", c.allocations_per_iter),
    ]);
    table.row(vec![
        "dict probes / iteration".to_string(),
        format!("{:.0}", c.dict_probes_per_iter),
    ]);
    table.row(vec![
        "calls / iteration".to_string(),
        format!("{:.0}", c.calls_per_iter),
    ]);
    table.row(vec![
        "back-edges / iteration".to_string(),
        format!("{:.0}", c.backedges_per_iter),
    ]);
    table.row(vec!["startup time".to_string(), fmt_ns(c.startup_ns)]);
    table.row(vec![
        "iteration time (interp)".to_string(),
        fmt_ns(c.iter_ns_interp),
    ]);
    println!("{} ({})\n{table}", c.name, c.category);
    Ok(())
}

fn cmd_measure(benchmark: &str, opts: &GlobalOpts) -> CliResult {
    let w = lookup(benchmark)?;
    let cfg = experiment_config(opts);
    let mut runner = rigor::Runner::new(cfg.clone()).map_err(config_err)?;
    for obs in observers(opts)? {
        runner = runner.observer(obs);
    }
    if let Some(path) = &opts.journal {
        runner = runner.journal(path.as_str());
    }
    if let Some(path) = &opts.resume {
        let journal = Journal::load(std::path::Path::new(path)).map_err(io_err(path))?;
        if journal.truncated && !opts.quiet {
            eprintln!("note: {path}: final journal line was truncated; ignoring it");
        }
        if !opts.quiet {
            eprintln!(
                "resuming from {path}: {} of {} invocations already journaled",
                journal.completed(),
                cfg.invocations
            );
        }
        runner = runner.resume(journal);
    }
    let m = runner.measure(&w)?;
    let det = SteadyStateDetector::default();
    println!(
        "{} on {}: {} invocations x {} iterations",
        w.name,
        cfg.engine.name(),
        m.n_invocations(),
        m.n_iterations()
    );
    match precision_of(&m, &det, opts.confidence) {
        (Some(ci), Some(rel)) => println!(
            "steady-state mean: {} [{}, {}] at {:.0}% confidence (+/-{:.2}%)",
            fmt_ns(ci.estimate),
            fmt_ns(ci.lower),
            fmt_ns(ci.upper),
            opts.confidence * 100.0,
            rel * 100.0
        ),
        _ => println!("no steady state reached — report the series, not a number"),
    }
    if let Some(ci) = rigor_stats::mean_ci(&m.startup_times(), opts.confidence) {
        println!(
            "startup (compile + module setup): {} [{}, {}]",
            fmt_ns(ci.estimate),
            fmt_ns(ci.lower),
            fmt_ns(ci.upper)
        );
    }
    if m.n_retried() > 0 {
        println!(
            "retried: {} invocations needed more than one attempt",
            m.n_retried()
        );
    }
    if !m.censored.is_empty() {
        println!(
            "censored: {} of {} invocations failed every attempt ({:.0}%)",
            m.censored.len(),
            m.n_requested(),
            m.censoring_rate() * 100.0
        );
        for c in &m.censored {
            println!(
                "  inv {}: {} after {} attempt(s): {}",
                c.invocation, c.failure, c.attempts, c.error
            );
        }
    }
    export(opts, std::slice::from_ref(&m))?;
    if m.quarantined {
        // The report and exports above still happened — quarantine is a
        // trust verdict on the numbers, surfaced as exit code 1.
        return Err(CliError::Quarantined {
            benchmark: w.name.to_string(),
            censored: m.censored.len() as u32,
            invocations: m.n_requested() as u32,
        });
    }
    Ok(())
}

fn cmd_compare(benchmark: &str, opts: &GlobalOpts) -> CliResult {
    reject_checkpoint_flags(opts, "compare")?;
    let w = lookup(benchmark)?;
    let interp_cfg = experiment_config(opts).with_engine(minipy::EngineKind::Interp);
    let jit_cfg =
        experiment_config(opts).with_engine(minipy::EngineKind::Jit(minipy::JitConfig::default()));
    let obs = observers(opts)?;
    let base = measure_observed(&w, &interp_cfg, &obs)?;
    let cand = measure_observed(&w, &jit_cfg, &obs)?;
    note_faults(&base, opts.quiet);
    note_faults(&cand, opts.quiet);
    let result = compare(
        &base,
        &cand,
        &SteadyStateDetector::default(),
        opts.confidence,
    );
    if let Ok(r) = &result {
        println!(
            "{}: JIT speedup over interpreter: {}",
            w.name,
            fmt_ci(&r.speedup)
        );
        println!(
            "interp steady mean {} (from iter {}), jit {} (from iter {})",
            fmt_ns(r.base_mean_ns),
            r.base_steady_start,
            fmt_ns(r.cand_mean_ns),
            r.cand_steady_start
        );
        println!(
            "significant: {}   p = {:.2e}   Cohen's d = {:.1}",
            if r.significant { "yes" } else { "no" },
            r.p_value,
            r.effect_size
        );
    }
    // Export the raw measurements even when the comparison failed, then
    // surface the failure through the error path (exit 1).
    export(opts, &[base, cand])?;
    result.map(|_| ()).map_err(CliError::from)
}

fn cmd_suite(opts: &GlobalOpts) -> CliResult {
    reject_checkpoint_flags(opts, "suite")?;
    let interp_cfg = experiment_config(opts).with_engine(minipy::EngineKind::Interp);
    let jit_cfg =
        experiment_config(opts).with_engine(minipy::EngineKind::Jit(minipy::JitConfig::default()));
    let obs = observers(opts)?;
    let mut pairs = Vec::new();
    let mut all = Vec::new();
    for w in suite() {
        if !opts.quiet {
            eprintln!("measuring {} ...", w.name);
        }
        let base = measure_observed(&w, &interp_cfg, &obs)?;
        let cand = measure_observed(&w, &jit_cfg, &obs)?;
        note_faults(&base, opts.quiet);
        note_faults(&cand, opts.quiet);
        all.push(base.clone());
        all.push(cand.clone());
        pairs.push((base, cand));
    }
    let s = compare_suite(&pairs, &SteadyStateDetector::default(), opts.confidence);
    let mut table = Table::new(vec!["benchmark", "JIT speedup", "significant"]);
    let mut sorted = s.per_benchmark.clone();
    sorted.sort_by(|a, b| {
        b.speedup
            .estimate
            .partial_cmp(&a.speedup.estimate)
            .expect("finite")
    });
    for r in &sorted {
        table.row(vec![
            r.benchmark.clone(),
            fmt_ci(&r.speedup),
            if r.significant { "yes" } else { "no" }.to_string(),
        ]);
    }
    println!("{table}");
    for (name, e) in &s.failures {
        println!("not converged: {name}: {e}");
    }
    if let Some(g) = &s.geomean {
        println!("\ngeometric-mean speedup: {}", fmt_ci(g));
    }
    export(opts, &all)
}

fn cmd_warmup(benchmark: &str, opts: &GlobalOpts) -> CliResult {
    reject_checkpoint_flags(opts, "warmup")?;
    let w = lookup(benchmark)?;
    let cfg = experiment_config(opts);
    let m = measure_observed(&w, &cfg, &observers(opts)?)?;
    note_faults(&m, opts.quiet);
    let classifier = WarmupClassifier::default();
    println!("{} on {}:", w.name, cfg.engine.name());
    for (i, series) in m.series().enumerate() {
        println!(
            "  inv {i}: {}  first {} last {}  [{}]",
            sparkline(series),
            fmt_ns(series[0]),
            fmt_ns(*series.last().expect("non-empty")),
            classifier.classify(series).label()
        );
    }
    for det in [
        SteadyStateDetector::cov_window(),
        SteadyStateDetector::changepoint(),
        SteadyStateDetector::robust_tail(),
    ] {
        let start = rigor::common_steady_start(m.series(), &det);
        println!(
            "  detector {:<12} steady from: {}",
            det.name(),
            start
                .map(|s| s.to_string())
                .unwrap_or_else(|| "never".into())
        );
    }
    export(opts, std::slice::from_ref(&m))
}

fn cmd_run(path: &str, opts: &GlobalOpts) -> CliResult {
    let source = fs::read_to_string(path).map_err(io_err(path))?;
    let mut vm_cfg = VmConfig {
        engine: opts.engine,
        ..VmConfig::default()
    };
    vm_cfg.capture_output = true;
    let mut session = Session::start(&source, opts.seed, vm_cfg)?;
    let stdout = session.vm_mut().take_stdout();
    print!("{stdout}");
    // If the module defines run(), time one iteration like the harness would.
    if session.vm().global("run").is_some() {
        let r = session.run_iteration()?;
        print!("{}", session.vm_mut().take_stdout());
        println!(
            "run() -> {}   [{} virtual, {} bytecodes]",
            session.render(r.value),
            fmt_ns(r.virtual_ns),
            r.counters.total_ops
        );
    }
    Ok(())
}

fn cmd_disasm(path: &str) -> CliResult {
    let source = fs::read_to_string(path).map_err(io_err(path))?;
    let program = minipy::compile(&source)?;
    print!("{program}");
    Ok(())
}

/// One slowest-iteration row kept while scanning a trace.
struct SlowIteration {
    benchmark: String,
    invocation: u32,
    iteration: u32,
    virtual_ns: f64,
    counters: rigor::IterationCounters,
}

/// Per-benchmark aggregates over a trace.
#[derive(Default)]
struct BenchmarkTotals {
    invocations: u32,
    failed: u32,
    iterations: u64,
    gc_cycles: u64,
    jit_compiles: u64,
    deopts: u64,
    virtual_ns: f64,
}

fn cmd_trace_summary(path: &str) -> CliResult {
    let text = fs::read_to_string(path).map_err(io_err(path))?;
    let parsed = rigor::parse_trace(&text).map_err(|e| CliError::Trace {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    if let Some(warning) = &parsed.warning {
        eprintln!("warning: {path}: {warning}");
    }
    let events = parsed.events;
    if events.is_empty() {
        println!("{path}: empty trace");
        return Ok(());
    }

    // Event counts by kind, in stream order of first appearance.
    let mut kinds: Vec<(&'static str, u64)> = Vec::new();
    // Aggregates per benchmark, in order of first appearance.
    let mut totals: Vec<(String, BenchmarkTotals)> = Vec::new();
    let mut slowest: Vec<SlowIteration> = Vec::new();
    for ev in &events {
        match kinds.iter_mut().find(|(k, _)| *k == ev.name()) {
            Some((_, n)) => *n += 1,
            None => kinds.push((ev.name(), 1)),
        }
        let bench = ev.benchmark().to_string();
        if bench.is_empty() {
            // Run-level events (run_archived, regression_checked) belong to
            // no benchmark; they are counted by kind above but would pollute
            // the per-benchmark table as an unnamed row.
            continue;
        }
        let totals = match totals.iter_mut().find(|(b, _)| *b == bench) {
            Some((_, t)) => t,
            None => {
                totals.push((bench, BenchmarkTotals::default()));
                &mut totals.last_mut().expect("just pushed").1
            }
        };
        match ev {
            ExperimentEvent::IterationFinished {
                benchmark,
                invocation,
                iteration,
                virtual_ns,
                counters,
            } => {
                totals.iterations += 1;
                totals.gc_cycles += counters.gc_cycles;
                totals.jit_compiles += counters.jit_compiles;
                totals.deopts += counters.deopts;
                totals.virtual_ns += virtual_ns;
                slowest.push(SlowIteration {
                    benchmark: benchmark.clone(),
                    invocation: *invocation,
                    iteration: *iteration,
                    virtual_ns: *virtual_ns,
                    counters: *counters,
                });
                slowest.sort_by(|a, b| b.virtual_ns.partial_cmp(&a.virtual_ns).expect("finite"));
                slowest.truncate(5);
            }
            ExperimentEvent::InvocationFinished { error, .. } => {
                totals.invocations += 1;
                if error.is_some() {
                    totals.failed += 1;
                }
            }
            _ => {}
        }
    }

    let mut events_table = Table::new(vec!["event", "count"]).with_title("events");
    for (kind, n) in &kinds {
        events_table.row(vec![kind.to_string(), n.to_string()]);
    }
    println!("{events_table}");

    let mut bench_table = Table::new(vec![
        "benchmark",
        "invocations",
        "failed",
        "iterations",
        "gc cycles",
        "jit compiles",
        "deopts",
        "total time",
    ])
    .with_title("per-benchmark totals");
    for (bench, t) in &totals {
        bench_table.row(vec![
            bench.clone(),
            t.invocations.to_string(),
            t.failed.to_string(),
            t.iterations.to_string(),
            t.gc_cycles.to_string(),
            t.jit_compiles.to_string(),
            t.deopts.to_string(),
            fmt_ns(t.virtual_ns),
        ]);
    }
    println!("{bench_table}");

    if !slowest.is_empty() {
        let mut slow_table = Table::new(vec![
            "benchmark",
            "invocation",
            "iteration",
            "time",
            "gc",
            "jit",
            "deopts",
        ])
        .with_title("slowest iterations");
        for s in &slowest {
            slow_table.row(vec![
                s.benchmark.clone(),
                s.invocation.to_string(),
                s.iteration.to_string(),
                fmt_ns(s.virtual_ns),
                s.counters.gc_cycles.to_string(),
                s.counters.jit_compiles.to_string(),
                s.counters.deopts.to_string(),
            ]);
        }
        println!("{slow_table}");
    }
    Ok(())
}

/// Attaches the store directory to a store error.
fn store_err(dir: &str) -> impl Fn(rigor_store::StoreError) -> CliError + '_ {
    move |e| CliError::Store {
        path: dir.to_string(),
        message: e.to_string(),
    }
}

/// Attaches the service URL to a remote-client error.
fn remote_err(url: &str) -> impl Fn(rigor_serve::RemoteError) -> CliError + '_ {
    move |source| CliError::Remote {
        url: url.to_string(),
        source,
    }
}

/// The resilient client `--store-url` asks for, with the command's
/// observers attached so retry/breaker/spool telemetry lands in the same
/// trace as the measurements. No network traffic happens here.
fn remote_client(url: &str, opts: &GlobalOpts, obs: &[Arc<dyn ExperimentObserver>]) -> RemoteStore {
    let mut client = RemoteStore::connect(url).with_seed(opts.seed);
    if let Some(r) = opts.max_retries {
        client = client.with_retries(r);
    }
    for o in obs {
        client = client.with_observer(o.clone());
    }
    client
}

/// The results archive an archive command works on: the local `--store`
/// directory, or the `rigor serve` service at `--store-url`. `archive`,
/// `history`, `check`, `trend` and `plan` are each written once over it;
/// the local arm computes `check` and `trend` with the very functions the
/// server answers them with.
enum Archive<'a> {
    Local { dir: &'a str, store: Store },
    Remote { url: &'a str, client: RemoteStore },
}

impl<'a> Archive<'a> {
    /// Opens the archive the flags name. The remote arm pings the service,
    /// so a command against a dead server fails before it measures.
    fn open(opts: &'a GlobalOpts, obs: &[Arc<dyn ExperimentObserver>]) -> Result<Self, CliError> {
        match opts.store_url.as_deref() {
            Some(url) => {
                let client = remote_client(url, opts, obs);
                client.ping().map_err(remote_err(url))?;
                Ok(Archive::Remote { url, client })
            }
            None => {
                let dir = opts.store.as_str();
                let store = Store::open(dir).map_err(store_err(dir))?;
                Ok(Archive::Local { dir, store })
            }
        }
    }

    /// The directory or URL that titles and events name.
    fn source(&self) -> &'a str {
        match self {
            Archive::Local { dir, .. } => dir,
            Archive::Remote { url, .. } => url,
        }
    }

    /// True when opening the local archive dropped a torn final line.
    fn recovered_torn_tail(&self) -> bool {
        matches!(self, Archive::Local { store, .. } if store.recovered_torn_tail())
    }

    /// The archived runs in archive order: all of them, or, from a service,
    /// only the `last` with the highest seqs (`GET /history?last=N`), which
    /// hold every run a `last-N` baseline selects. A local store lends all
    /// its runs.
    fn runs(&self, last: Option<usize>) -> Result<Cow<'_, [RunRecord]>, CliError> {
        match self {
            Archive::Local { store, .. } => Ok(Cow::Borrowed(store.records())),
            Archive::Remote { url, client } => {
                Ok(Cow::Owned(client.history(last).map_err(remote_err(url))?))
            }
        }
    }

    /// Archives one run under the archive's next free seq.
    fn append(
        &mut self,
        label: Option<String>,
        cfg: &ExperimentConfig,
        measurements: Vec<rigor::BenchmarkMeasurement>,
    ) -> Result<CellReceipt, CliError> {
        match self {
            Archive::Local { dir, store } => {
                let record = store
                    .append(label, cfg, measurements)
                    .map_err(store_err(dir))?;
                Ok(record.receipt())
            }
            Archive::Remote { url, client } => client
                .archive_run(label, cfg, measurements)
                .map_err(remote_err(url)),
        }
    }

    /// The regression gate over this archive (`POST /check`).
    fn check(&self, query: &Query) -> Result<CheckResponse, CliError> {
        match self {
            Archive::Local { dir, store } => {
                rigor_serve::check(store, query).map_err(store_err(dir))
            }
            Archive::Remote { url, client } => decode_response(
                url,
                client.check(&query.to_value()).map_err(remote_err(url))?,
            ),
        }
    }

    /// Changepoint analysis over this archive (`POST /trend`).
    fn trend(&self, query: &Query) -> Result<TrendResponse, CliError> {
        match self {
            Archive::Local { store, .. } => Ok(rigor_serve::trend(store, query)),
            Archive::Remote { url, client } => decode_response(
                url,
                client.trend(&query.to_value()).map_err(remote_err(url))?,
            ),
        }
    }
}

/// Decodes a `rigor serve` response body into its shared type.
fn decode_response<T: Deserialize>(url: &str, body: JsonValue) -> Result<T, CliError> {
    T::from_owned_value(body).map_err(|e| CliError::Remote {
        url: url.to_string(),
        source: rigor_serve::RemoteError::Protocol {
            url: url.to_string(),
            message: format!("bad response payload: {e}"),
        },
    })
}

/// The gate and trend settings the flags ask for, as `rigor serve` reads
/// them; the caller adds what its route needs besides.
fn query(opts: &GlobalOpts) -> Query {
    Query {
        confidence: Some(opts.confidence),
        fdr: opts.fdr,
        max_regression_pct: opts.max_regression_pct,
        correction: opts.correction,
        min_segment: opts.min_segment,
        penalty: opts.penalty,
        ..Query::default()
    }
}

/// The workloads an optional benchmark argument selects: one, or the whole
/// suite.
fn selected_workloads(benchmark: Option<&str>) -> Result<Vec<Workload>, CliError> {
    match benchmark {
        Some(b) => Ok(vec![lookup(b)?]),
        None => Ok(suite()),
    }
}

/// Measures `workloads` under `cfg`, streaming progress names to stderr
/// when more than one is measured.
fn measure_all(
    workloads: &[Workload],
    cfg: &ExperimentConfig,
    obs: &[Arc<dyn ExperimentObserver>],
    quiet: bool,
) -> Result<Vec<rigor::BenchmarkMeasurement>, CliError> {
    let mut out = Vec::with_capacity(workloads.len());
    for w in workloads {
        if !quiet && workloads.len() > 1 {
            eprintln!("measuring {} ...", w.name);
        }
        let m = measure_observed(w, cfg, obs)?;
        note_faults(&m, quiet);
        out.push(m);
    }
    Ok(out)
}

/// `rigor serve`: host the shared archive service over the local store
/// until killed. Every archive-touching command accepts `--store-url` to
/// talk to it instead of a local directory.
fn cmd_serve(opts: &GlobalOpts) -> CliResult {
    reject_checkpoint_flags(opts, "serve")?;
    if opts.store_url.is_some() {
        return Err(CliError::Usage(ParseError(
            "`serve` hosts the local --store; --store-url does not apply".to_string(),
        )));
    }
    let server = ArchiveServer::bind(&opts.listen, &opts.store).map_err(|e| match e {
        ServeError::Store(e) => store_err(&opts.store)(e),
        e @ ServeError::Io { .. } => CliError::Store {
            path: opts.listen.clone(),
            message: e.to_string(),
        },
    })?;
    println!(
        "rigor-serve: archive {} on http://{} — PUT /runs, GET /history, POST /check, POST /trend",
        opts.store,
        server.handle().addr()
    );
    server.serve().map_err(|e| CliError::Store {
        path: opts.listen.clone(),
        message: e.to_string(),
    })
}

/// `rigor archive --verify`: integrity-scan the local archive without
/// measuring anything, locating every corrupt line by line number and
/// byte offset. Unlike `Store::open`, this works on a damaged archive —
/// exactly when a located damage report matters most.
fn cmd_verify_store(opts: &GlobalOpts) -> CliResult {
    if opts.store_url.is_some() {
        return Err(CliError::Usage(ParseError(
            "--verify scans the local --store directory (the server verifies its own archive)"
                .to_string(),
        )));
    }
    let report = Store::verify_dir(&opts.store).map_err(store_err(&opts.store))?;
    for c in &report.corrupt {
        println!("corrupt: {c}");
    }
    if report.torn_tail {
        println!("note: torn final line (interrupted append) — dropped on the next open");
    }
    println!(
        "verified {}: {} intact run(s), {} corrupt line(s)",
        opts.store,
        report.intact,
        report.corrupt.len()
    );
    if report.corrupt.is_empty() {
        Ok(())
    } else {
        Err(CliError::Verify {
            path: opts.store.clone(),
            corrupt: report.corrupt.len(),
        })
    }
}

/// `rigor archive [benchmark]`: measure and persist one fsynced,
/// content-addressed run record to the results archive (local directory
/// or, with `--store-url`, the shared archive service).
fn cmd_archive(benchmark: Option<&str>, opts: &GlobalOpts) -> CliResult {
    reject_checkpoint_flags(opts, "archive")?;
    if opts.verify {
        return cmd_verify_store(opts);
    }
    let workloads = selected_workloads(benchmark)?;
    let cfg = experiment_config(opts);
    let obs = observers(opts)?;
    // Open first: a one-shot archive against a dead server or a corrupt
    // store should exit 1 before measuring (`campaign` spools instead).
    let mut archive = Archive::open(opts, &obs)?;
    if archive.recovered_torn_tail() && !opts.quiet {
        eprintln!(
            "note: {}: recovered from a torn final line (interrupted append)",
            archive.source()
        );
    }
    let measurements = measure_all(&workloads, &cfg, &obs, opts.quiet)?;
    let receipt = archive.append(opts.label.clone(), &cfg, measurements.clone())?;
    println!(
        "archived run {} (seq {}, {} benchmark(s), engine {}) to {}",
        receipt.run_id.chars().take(12).collect::<String>(),
        receipt.seq,
        measurements.len(),
        cfg.engine.name(),
        archive.source()
    );
    let event = ExperimentEvent::RunArchived {
        store: archive.source().to_string(),
        run_id: receipt.run_id,
        seq: receipt.seq,
        benchmarks: measurements.len() as u32,
    };
    for o in &obs {
        o.on_event(&event);
    }
    export(opts, &measurements)
}

/// Builds the per-run history trend table over `runs`; returns the table
/// and how many runs measured `benchmark`.
fn history_table<'a>(
    runs: impl Iterator<Item = &'a RunRecord>,
    benchmark: &str,
    opts: &GlobalOpts,
    source: &str,
) -> (Table, usize) {
    let det = SteadyStateDetector::default();
    let mut table = Table::new(vec![
        "seq",
        "run",
        "label",
        "engine",
        "shape",
        "steady mean",
        "precision",
        "censored",
    ])
    .with_title(format!("history of {benchmark} in {source}"));
    let mut rows = 0usize;
    for r in runs {
        let Some(m) = r.benchmark(benchmark) else {
            continue;
        };
        let mean = match precision_of(m, &det, opts.confidence) {
            (Some(ci), _) => format!(
                "{} [{}, {}]",
                fmt_ns(ci.estimate),
                fmt_ns(ci.lower),
                fmt_ns(ci.upper)
            ),
            _ => "no steady state".to_string(),
        };
        table.row(vec![
            r.seq.to_string(),
            r.short_id().to_string(),
            r.label.clone().unwrap_or_default(),
            r.fingerprint.engine.clone(),
            format!(
                "{}x{} {}",
                r.fingerprint.invocations, r.fingerprint.iterations, r.fingerprint.size
            ),
            mean,
            // Adaptive-campaign cells carry their precision attainment;
            // fixed runs leave the column blank.
            match &r.precision {
                Some(p) => format!(
                    "{} @ n={} ({} +/-{:.1}%)",
                    p.rel_half_width
                        .map_or("no CI".to_string(), |rel| format!("+/-{:.2}%", rel * 100.0)),
                    p.invocations_used,
                    if p.target_met { "met" } else { "MISSED" },
                    p.target_rel_half_width * 100.0,
                ),
                None => String::new(),
            },
            if m.censored.is_empty() {
                String::new()
            } else {
                format!("{}/{}", m.censored.len(), m.n_requested())
            },
        ]);
        rows += 1;
    }
    (table, rows)
}

/// `rigor history <benchmark>`: trend table over the archived runs of one
/// benchmark, with per-run steady-state CIs.
fn cmd_history(benchmark: &str, opts: &GlobalOpts) -> CliResult {
    let obs = observers(opts)?;
    let archive = Archive::open(opts, &obs)?;
    let runs = archive.runs(None)?;
    let (table, rows) = history_table(runs.iter(), benchmark, opts, archive.source());
    if rows == 0 {
        println!(
            "no archived runs measure '{benchmark}' in {} ({} run(s) archived)",
            archive.source(),
            runs.len()
        );
        return Ok(());
    }
    println!("{table}");
    // `--alerts` annotates the table with a changepoint analysis of this
    // one history. Informational only: unlike `rigor trend`, a detected
    // shift does not change the exit code.
    if opts.alerts {
        let response = archive.trend(&Query {
            benchmark: Some(benchmark.to_string()),
            ..query(opts)
        })?;
        for trend in &response.report.benchmarks {
            let shifts = trend.significant_shifts();
            if let Some(note) = &trend.note {
                println!("trend: {note}");
            } else if shifts.is_empty() {
                println!(
                    "trend: stable — no significant level shift across {} run(s)",
                    trend.runs
                );
            } else {
                for cp in shifts {
                    println!(
                        "trend: {} from seq {} (run {}): {} -> {} ({}){}",
                        cp.direction.name(),
                        cp.seq,
                        cp.run_id.chars().take(12).collect::<String>(),
                        fmt_ns(cp.before_mean),
                        fmt_ns(cp.after_mean),
                        cp.magnitude.as_ref().map(fmt_ci).unwrap_or_default(),
                        if cp.at_head { " — at HEAD" } else { "" }
                    );
                }
            }
        }
    }
    Ok(())
}

/// `rigor trend [benchmark]`: changepoint analysis over the archived
/// history — pure archive reading, nothing is measured. Exit 0 = every
/// history is stable at HEAD; exit 1 = a statistically significant shift
/// was newly detected at the head of at least one history.
fn cmd_trend(benchmark: Option<&str>, opts: &GlobalOpts) -> CliResult {
    reject_checkpoint_flags(opts, "trend")?;
    let obs = observers(opts)?;
    let archive = Archive::open(opts, &obs)?;
    let response = archive.trend(&Query {
        benchmark: benchmark.map(String::from),
        ..query(opts)
    })?;
    print_trend(
        &response.report,
        archive.source(),
        response.runs,
        &obs,
        opts,
    )
}

/// Prints a trend report's tables and summary, writes `--json`, emits the
/// `changepoint_detected` and `trend_analyzed` events, and turns alerts
/// into the exit-1 error. `source` names the archive of `runs` runs.
fn print_trend(
    report: &rigor::TrendReport,
    source: &str,
    runs: usize,
    obs: &[Arc<dyn ExperimentObserver>],
    opts: &GlobalOpts,
) -> CliResult {
    if report.benchmarks.is_empty() {
        println!("no archived runs in {source} — nothing to analyze");
        return Ok(());
    }
    let config = &report.config;
    let mut table = Table::new(vec![
        "benchmark",
        "runs",
        "status",
        "penalty",
        "segments",
        "shifts",
        "note",
    ])
    .with_title(format!(
        "trend analysis of {source} ({runs} run(s), min-segment {}, penalty {}, correction {}, q {})",
        config.min_segment, config.penalty, config.correction, config.fdr_q
    ));
    for b in &report.benchmarks {
        table.row(vec![
            b.benchmark.clone(),
            b.runs.to_string(),
            b.status.name().to_string(),
            b.penalty_factor
                .map(|f| format!("{f:.2}"))
                .unwrap_or_default(),
            b.segments.len().to_string(),
            b.significant_shifts().len().to_string(),
            b.note.clone().unwrap_or_default(),
        ]);
    }
    println!("{table}");

    if report.changepoint_count() > 0 {
        let mut shifts = Table::new(vec![
            "benchmark",
            "seq",
            "run",
            "direction",
            "magnitude",
            "p (adj)",
            "significant",
            "at HEAD",
        ])
        .with_title("detected level shifts (magnitude = time ratio after/before)");
        for b in &report.benchmarks {
            for cp in &b.changepoints {
                shifts.row(vec![
                    b.benchmark.clone(),
                    cp.seq.to_string(),
                    cp.run_id.chars().take(12).collect(),
                    cp.direction.name().to_string(),
                    cp.magnitude.as_ref().map(fmt_ci).unwrap_or_default(),
                    cp.p_adjusted.map(|p| format!("{p:.3}")).unwrap_or_default(),
                    if cp.significant { "yes" } else { "no" }.to_string(),
                    if cp.at_head { "yes" } else { "no" }.to_string(),
                ]);
            }
        }
        println!("{shifts}");
    }

    let alerts: Vec<String> = report
        .alerts()
        .iter()
        .map(|b| b.benchmark.clone())
        .collect();
    println!(
        "analyzed {} benchmark(s) over {runs} archived run(s): {} changepoint(s), {} significant, {}",
        report.benchmarks.len(),
        report.changepoint_count(),
        report.significant_count(),
        if alerts.is_empty() {
            "no shift at HEAD".to_string()
        } else {
            format!("{} ALERT(S) ({})", alerts.len(), alerts.join(", "))
        }
    );

    // `--json` exports the full typed report — what a dashboard or CI
    // pipeline consumes.
    if let Some(path) = &opts.json_out {
        fs::write(path, serde_json::to_string_pretty(report)?).map_err(io_err(path))?;
        println!("wrote {path}");
    }

    for b in &report.benchmarks {
        for cp in b.significant_shifts() {
            let event = ExperimentEvent::ChangepointDetected {
                benchmark: b.benchmark.clone(),
                run_id: cp.run_id.clone(),
                seq: cp.seq,
                direction: cp.direction.name().to_string(),
                magnitude: cp
                    .magnitude
                    .as_ref()
                    .map(|ci| ci.estimate)
                    .unwrap_or(cp.after_mean / cp.before_mean),
                p_adjusted: cp.p_adjusted.unwrap_or(cp.p_raw),
                at_head: cp.at_head,
            };
            for o in obs {
                o.on_event(&event);
            }
        }
    }
    let event = ExperimentEvent::TrendAnalyzed {
        store: source.to_string(),
        benchmarks: report.benchmarks.len() as u32,
        runs: runs as u32,
        changepoints: report.changepoint_count() as u32,
        alerts: alerts.len() as u32,
    };
    for o in obs {
        o.on_event(&event);
    }

    if alerts.is_empty() {
        Ok(())
    } else {
        Err(CliError::TrendShift { benchmarks: alerts })
    }
}

/// Warns about each baseline run measured with a different experiment
/// shape than `cfg`: its samples estimate a different quantity.
fn warn_shape_mismatch(baseline_runs: &[&RunRecord], cfg: &ExperimentConfig, opts: &GlobalOpts) {
    if opts.quiet {
        return;
    }
    let fp = ConfigFingerprint::of(cfg);
    for r in baseline_runs {
        if !r.fingerprint.shape_matches(&fp) {
            eprintln!(
                "warning: baseline run {} was measured with shape {}x{} {} seed {}, \
                 current shape is {}x{} {} seed {} — the samples estimate \
                 different quantities",
                r.short_id(),
                r.fingerprint.invocations,
                r.fingerprint.iterations,
                r.fingerprint.size,
                r.fingerprint.seed,
                fp.invocations,
                fp.iterations,
                fp.size,
                fp.seed
            );
        }
    }
}

/// What a gate measures: the named benchmark, or every `baseline`
/// benchmark still present in the suite (in order of first appearance).
fn gate_workloads<'a>(
    benchmark: Option<&str>,
    baseline: impl IntoIterator<Item = &'a str>,
    opts: &GlobalOpts,
) -> Result<Vec<Workload>, CliError> {
    if let Some(b) = benchmark {
        return Ok(vec![lookup(b)?]);
    }
    let mut names: Vec<&str> = Vec::new();
    for n in baseline {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    let (known, unknown): (Vec<&str>, Vec<&str>) =
        names.into_iter().partition(|n| find(n).is_some());
    if !unknown.is_empty() && !opts.quiet {
        eprintln!(
            "note: skipping baseline benchmark(s) no longer in the suite: {}",
            unknown.join(", ")
        );
    }
    known.into_iter().map(lookup).collect()
}

/// `rigor check [benchmark]`: measure the current engine and gate it
/// against an archived baseline. Exit 0 = no FDR-significant regression
/// beyond the tolerance; exit 1 = regressed (with the verdict table
/// printed first). With `--store-url` the service's archive is the
/// authoritative baseline, so everyone gating against it agrees on what
/// `last` means.
fn cmd_check(benchmark: Option<&str>, opts: &GlobalOpts) -> CliResult {
    reject_checkpoint_flags(opts, "check")?;
    if let Some(path) = opts.baseline_json.as_deref() {
        return cmd_check_json(benchmark, opts, path);
    }
    let obs = observers(opts)?;
    let archive = Archive::open(opts, &obs)?;
    // Resolve the baseline before measuring: an unknown reference fails
    // now, and only the benchmarks the baseline holds are measured.
    // `last`/`last-N` need only the newest runs.
    let base_ref = BaselineRef::parse(opts.baseline.as_deref().unwrap_or("last"));
    let window = match base_ref {
        BaselineRef::Last => Some(1),
        BaselineRef::LastN(n) => Some(n),
        BaselineRef::Segment | BaselineRef::Id(_) => None,
    };
    let runs = archive.runs(window)?;
    let baseline_runs = base_ref
        .select_in(&runs)
        .map_err(store_err(archive.source()))?;

    let cfg = experiment_config(opts);
    warn_shape_mismatch(&baseline_runs, &cfg, opts);
    let workloads = gate_workloads(
        benchmark,
        baseline_runs.iter().flat_map(|r| r.benchmark_names()),
        opts,
    )?;
    let current = measure_all(&workloads, &cfg, &obs, opts.quiet)?;

    let response = archive.check(&Query {
        baseline: opts.baseline.clone(),
        measurements: Some(Measurements(current.clone())),
        ..query(opts)
    })?;
    finish_check(
        &response.report,
        format!(
            "regression gate vs baseline `{}` in {} ({} run(s), {})",
            response.baseline,
            archive.source(),
            response.baseline_runs,
            policy_summary(&response.report.policy)
        ),
        (archive.source().to_string(), response.baseline.clone()),
        &current,
        &obs,
        opts,
    )
}

/// `rigor check --baseline-json <file>`: the same regression gate, but the
/// baseline is a measurement export (`--json` of an earlier run) instead of
/// an archived store run — what a CI job uses to gate against a committed
/// reference file without shipping the whole archive.
fn cmd_check_json(benchmark: Option<&str>, opts: &GlobalOpts, path: &str) -> CliResult {
    let text = fs::read_to_string(path).map_err(io_err(path))?;
    let baseline = rigor::from_json(&text)?;
    let workloads = gate_workloads(
        benchmark,
        baseline.iter().map(|m| m.benchmark.as_str()),
        opts,
    )?;
    let cfg = experiment_config(opts);
    let obs = observers(opts)?;
    let current = measure_all(&workloads, &cfg, &obs, opts.quiet)?;

    let policy = query(opts).policy();
    let report = rigor::check_regressions(
        &baseline,
        &current,
        &SteadyStateDetector::default(),
        &policy,
    );
    finish_check(
        &report,
        format!(
            "regression gate vs baseline file {path} ({} measurement(s), {})",
            baseline.len(),
            policy_summary(&policy)
        ),
        (path.to_string(), format!("json:{path}")),
        &current,
        &obs,
        opts,
    )
}

/// How a gate policy reads in a verdict table's title.
fn policy_summary(policy: &rigor::GatePolicy) -> String {
    format!(
        "correction {}, q {}, tolerance {:.1}%",
        policy.correction,
        policy.fdr_q,
        policy.max_regression * 100.0
    )
}

/// Prints a gate report's verdict table and summary, handles `--json`/
/// `--csv` export, emits the `regression_checked` event, and converts
/// regressions into the exit-1 error. `source` is the (store-or-file,
/// baseline reference) pair recorded in the event.
fn finish_check(
    report: &rigor::GateReport,
    title: String,
    source: (String, String),
    current: &[rigor::BenchmarkMeasurement],
    obs: &[Arc<dyn ExperimentObserver>],
    opts: &GlobalOpts,
) -> CliResult {
    let mut table = Table::new(vec![
        "benchmark",
        "verdict",
        "change",
        "speedup (base/cur)",
        "p (adj)",
        "note",
    ])
    .with_title(title);
    for g in &report.benchmarks {
        let change = g
            .change_frac()
            .map(|c| format!("{:+.2}%", c * 100.0))
            .unwrap_or_default();
        let speedup = g
            .result
            .as_ref()
            .map(|r| fmt_ci(&r.speedup))
            .unwrap_or_default();
        let p_adj = g.p_adjusted.map(|p| format!("{p:.3}")).unwrap_or_default();
        table.row(vec![
            g.benchmark.clone(),
            g.status.name().to_string(),
            change,
            speedup,
            p_adj,
            g.note.clone().unwrap_or_default(),
        ]);
    }
    println!("{table}");

    let regressed: Vec<String> = report
        .regressed()
        .iter()
        .map(|g| g.benchmark.clone())
        .collect();
    println!(
        "checked {} benchmark(s): {}",
        report.benchmarks.len(),
        if regressed.is_empty() {
            "no significant regression".to_string()
        } else {
            format!("{} REGRESSED ({})", regressed.len(), regressed.join(", "))
        }
    );

    // `--json` exports the gate report here (not raw measurements): the
    // verdicts are what a CI pipeline consumes. `--csv` still exports the
    // current measurements for archaeology.
    if let Some(path) = &opts.json_out {
        fs::write(path, serde_json::to_string_pretty(report)?).map_err(io_err(path))?;
        println!("wrote {path}");
    }
    if let Some(path) = &opts.csv_out {
        fs::write(path, rigor::to_csv(current)).map_err(io_err(path))?;
        println!("wrote {path}");
    }

    let event = ExperimentEvent::RegressionChecked {
        store: source.0,
        baseline: source.1,
        checked: report.benchmarks.len() as u32,
        regressed: regressed.len() as u32,
        passed: regressed.is_empty(),
    };
    for o in obs {
        o.on_event(&event);
    }

    if regressed.is_empty() {
        Ok(())
    } else {
        Err(CliError::Regression {
            benchmarks: regressed,
        })
    }
}

/// The campaign grid the flags ask for. Unset axes fall back to the widest
/// sensible default: every suite benchmark, both engines, the `-n`/`-i`
/// shape, the single `--seed`.
fn campaign_spec(opts: &GlobalOpts) -> rigor::CampaignSpec {
    let base = experiment_config(opts);
    let benchmarks: Vec<String> = match &opts.benchmarks {
        Some(names) => names.clone(),
        None => suite().iter().map(|w| w.name.to_string()).collect(),
    };
    let engines = opts.engines.clone().unwrap_or_else(|| {
        vec![
            minipy::EngineKind::Interp,
            minipy::EngineKind::Jit(minipy::JitConfig::default()),
        ]
    });
    let seeds = match (&opts.seeds, opts.repeats) {
        (Some(seeds), _) => seeds.clone(),
        (None, Some(r)) => (0..u64::from(r))
            .map(|i| opts.seed.wrapping_add(i))
            .collect(),
        (None, None) => vec![opts.seed],
    };
    let mut spec = rigor::CampaignSpec::new(base)
        .with_benchmarks(benchmarks)
        .with_engines(engines)
        .with_seeds(seeds)
        .with_arrival(opts.arrival);
    if let Some(variants) = &opts.variants {
        spec = spec.with_variants(variants.clone());
    }
    if let Some(planner) = planner_config(opts) {
        spec = spec.with_planner(planner);
    }
    spec
}

/// The adaptive-precision planner the flags ask for; `None` when none of
/// `--precision`/`--budget`/`--plan-only` were given (fixed-grid campaign).
/// `-n` doubles as the pilot size; the per-cell ceiling keeps at least the
/// planner default so the pilot has room to grow.
fn planner_config(opts: &GlobalOpts) -> Option<PlannerConfig> {
    if opts.precision.is_none() && opts.budget.is_none() && !opts.plan_only {
        return None;
    }
    let default_max = PlannerConfig::default().max_invocations;
    let mut cfg = PlannerConfig::default()
        .with_min_invocations(opts.invocations)
        .with_max_invocations(opts.invocations.max(default_max));
    if let Some(p) = opts.precision {
        cfg = cfg.with_target(p);
    }
    if let Some(b) = opts.budget {
        cfg = cfg.with_budget(b);
    }
    Some(cfg)
}

/// `rigor campaign`: execute a benchmarks × engines × variants × seeds
/// grid on a worker pool in grid order, streaming every completed cell
/// into the results archive as its own labeled run. A killed campaign is
/// resumed with `--resume <journal>`: cells already archived are skipped
/// and the final archive holds the same content-id set as an uninterrupted
/// run.
fn cmd_campaign(opts: &GlobalOpts) -> CliResult {
    if opts.journal.is_some() {
        return Err(CliError::Usage(ParseError(
            "--journal does not apply to `campaign` (its journal lives at <store>/campaign.jsonl)"
                .to_string(),
        )));
    }
    let spec = campaign_spec(opts);
    let cells = spec.cells()?;

    if opts.plan {
        let mut table = Table::new(vec!["index", "benchmark", "engine", "shape", "seed"])
            .with_title(format!(
                "campaign plan: {} cell(s), fingerprint {}, arrival {}",
                cells.len(),
                spec.fingerprint(),
                spec.arrival
            ));
        for c in &cells {
            table.row(vec![
                c.index.to_string(),
                c.id.benchmark.clone(),
                c.id.engine.clone(),
                c.id.variant.clone(),
                c.id.seed.to_string(),
            ]);
        }
        println!("{table}");
        return Ok(());
    }

    if opts.plan_only {
        return cmd_plan_only(&spec, &cells);
    }

    let journal_path = opts
        .resume
        .clone()
        .unwrap_or_else(|| format!("{}/campaign.jsonl", opts.store));
    let obs = observers(opts)?;
    // The spool rides in the store directory by default: a campaign may
    // legitimately start — and finish — with the `rigor serve` at
    // `--store-url` down, and nothing measured may be lost.
    let spool_dir = opts
        .spool
        .clone()
        .unwrap_or_else(|| format!("{}/spool", opts.store));
    let dest = opts.store_url.as_deref().unwrap_or(&opts.store);
    let archive = match opts.store_url.as_deref() {
        Some(url) => CampaignArchive::Remote(
            remote_client(url, opts, &obs)
                .with_spool(&spool_dir)
                .map_err(remote_err(url))?,
        ),
        None => {
            CampaignArchive::Local(rigor_store::SharedStore::open(dest).map_err(store_err(dest))?)
        }
    };
    let sink: &dyn CellSink = match &archive {
        CampaignArchive::Local(store) => store,
        CampaignArchive::Remote(client) => client,
    };
    let mut campaign = rigor::Campaign::new(spec)
        .workers(opts.workers)
        .journal(&journal_path)
        .resume(opts.resume.is_some());
    for o in &obs {
        campaign = campaign.observer(o.clone());
    }
    if let Some(m) = opts.max_cells {
        campaign = campaign.max_cells(m);
    }
    let report = campaign.run(sink)?;
    let remaining = match &archive {
        CampaignArchive::Remote(client) => client.flush().map_err(remote_err(dest))?.1,
        CampaignArchive::Local(_) => 0,
    };
    print_campaign_summary(&report, dest, &journal_path, opts);
    if remaining > 0 {
        println!(
            "{remaining} run(s) spooled at {spool_dir} — replayed automatically on the \
             next campaign or successful exchange against {dest}"
        );
    }

    // `--json`/`--csv` export each cell's run, the one at the cell's seq
    // with its label, flattened in grid order — deterministic however the
    // workers interleaved.
    if opts.json_out.is_some() || opts.csv_out.is_some() {
        let of_cells = |runs: &[RunRecord]| -> Vec<rigor::BenchmarkMeasurement> {
            cells
                .iter()
                .filter_map(|c| {
                    let (seq, label) = (report.seq_base + c.index as u64, c.id.canonical());
                    runs.iter().find(|r| r.is_cell(seq, &label))
                })
                .flat_map(|r| r.measurements.clone())
                .collect()
        };
        let measurements = match &archive {
            CampaignArchive::Local(store) => store.with(|store| of_cells(store.records())),
            // The server archive plus anything still spooled (the server
            // may be down again).
            CampaignArchive::Remote(client) => {
                let mut runs = client.history(None).unwrap_or_default();
                runs.extend(client.spool_records());
                of_cells(&runs)
            }
        };
        export(opts, &measurements)?;
    }
    if report.failures.is_empty() {
        return Ok(());
    }
    let mut table = Table::new(vec!["cell", "error"]).with_title("failed cells");
    for (cell, error) in &report.failures {
        table.row(vec![cell.clone(), error.clone()]);
    }
    println!("{table}");
    Err(CliError::CampaignCells {
        failed: report.failures.iter().map(|(c, _)| c.clone()).collect(),
    })
}

/// Where `rigor campaign` streams its cells: the local store behind its
/// writer lock, or the `rigor serve` client with its write-ahead spool.
enum CampaignArchive {
    Local(rigor_store::SharedStore),
    Remote(RemoteStore),
}

/// Renders a relative half-width for the allocation tables ("no CI" when
/// none is computable — the planner treats those as infinitely wide).
fn fmt_rel(rel: f64) -> String {
    if rel.is_finite() {
        format!("+/-{:.2}%", rel * 100.0)
    } else {
        "no CI".to_string()
    }
}

/// `rigor campaign --plan-only`: run the pilot round in-process and print
/// the allocation the planner would make — where the invocation budget
/// would go — without archiving anything or writing a journal.
fn cmd_plan_only(spec: &rigor::CampaignSpec, cells: &[rigor::campaign::Cell]) -> CliResult {
    let planner = spec.planner.unwrap_or_default();
    planner
        .validate()
        .map_err(|e| CliError::from(rigor::CampaignError::Planner(e)))?;
    let det = SteadyStateDetector::default();
    let mut estimates = Vec::with_capacity(cells.len());
    for cell in cells {
        let cfg = cell.config.clone().with_invocations(planner.pilot());
        let m = rigor::Runner::new(cfg)
            .map_err(config_err)?
            .measure(&cell.workload)?;
        estimates.push(CellEstimate::from_measurement(
            cell.index,
            &m,
            &det,
            cell.config.confidence,
        ));
    }
    let plan = compute_plan(&estimates, 0, &planner, 1);
    print_allocation(
        cells.iter().map(|c| c.id.canonical()),
        &estimates,
        &plan,
        &planner,
        &format!("pilot of {} cell(s)", cells.len()),
    );
    Ok(())
}

/// `rigor plan`: precision attainment of the archived campaign cells plus
/// the refinement allocation one more adaptive round would make. Reads the
/// archive (or the shared service) only — nothing is measured or written.
fn cmd_plan(opts: &GlobalOpts) -> CliResult {
    let planner = planner_config(opts).unwrap_or_default();
    planner
        .validate()
        .map_err(|e| CliError::from(rigor::CampaignError::Planner(e)))?;
    let obs = observers(opts)?;
    let archive = Archive::open(opts, &obs)?;
    let records = archive.runs(None)?;
    let source = archive.source();

    // Campaign cells are labeled single-measurement runs; everything else
    // in the archive (suite runs, ad-hoc archives) is out of scope here.
    let det = SteadyStateDetector::default();
    let mut labels = Vec::new();
    let mut estimates = Vec::new();
    for r in records.iter() {
        let (Some(label), [m]) = (&r.label, r.measurements.as_slice()) else {
            continue;
        };
        labels.push(label.clone());
        estimates.push(CellEstimate::from_measurement(
            estimates.len(),
            m,
            &det,
            opts.confidence,
        ));
    }
    if estimates.is_empty() {
        println!(
            "no campaign cells in {source} ({} run(s) archived) — run `rigor campaign` first",
            records.len()
        );
        return Ok(());
    }
    let plan = compute_plan(&estimates, 0, &planner, 1);
    print_allocation(
        labels.into_iter(),
        &estimates,
        &plan,
        &planner,
        &format!("{} archived cell(s) in {source}", estimates.len()),
    );
    Ok(())
}

/// Prints the per-cell attainment/allocation table plus the plan summary
/// line shared by `rigor plan` and `campaign --plan-only`.
fn print_allocation(
    names: impl Iterator<Item = String>,
    estimates: &[CellEstimate],
    plan: &rigor::Plan,
    planner: &PlannerConfig,
    subject: &str,
) {
    let grants: std::collections::BTreeMap<usize, &rigor::RefineTask> =
        plan.tasks.iter().map(|t| (t.index, t)).collect();
    let mut table = Table::new(vec![
        "cell",
        "n",
        "achieved",
        "status",
        "next n",
        "predicted",
    ])
    .with_title(format!(
        "adaptive plan over {subject}: target +/-{:.2}%, budget {}",
        planner.target_rel_half_width * 100.0,
        planner
            .budget
            .map_or("unbounded".to_string(), |b| format!("{b} invocation(s)")),
    ));
    let mut met = 0usize;
    for (name, est) in names.zip(estimates) {
        let status = if est.target_met(planner.target_rel_half_width) {
            met += 1;
            "met"
        } else if grants.contains_key(&est.index) {
            "refine"
        } else if est.invocations >= planner.max_invocations {
            "at ceiling"
        } else {
            "short (no budget)"
        };
        let (next, predicted) = match grants.get(&est.index) {
            Some(t) => (t.invocations.to_string(), fmt_rel(t.predicted_rel)),
            None => (String::new(), String::new()),
        };
        table.row(vec![
            name,
            est.invocations.to_string(),
            fmt_rel(est.rel_half_width.unwrap_or(f64::INFINITY)),
            status.to_string(),
            next,
            predicted,
        ]);
    }
    println!("{table}");
    println!(
        "{met} of {} cell(s) at target; {} invocation(s) spent; next round grants {} more \
         across {} cell(s){}",
        estimates.len(),
        plan.spent,
        plan.planned,
        plan.tasks.len(),
        if plan.exhausted {
            " — budget exhausted or all unmet cells at their ceiling"
        } else {
            ""
        },
    );
}

/// Prints the campaign summary lines, whichever archive it streamed into.
fn print_campaign_summary(
    report: &rigor::CampaignReport,
    dest: &str,
    journal_path: &str,
    opts: &GlobalOpts,
) {
    println!(
        "campaign {}: {} of {} cell(s) archived in {dest} \
         ({} skipped as already archived, {} executed)",
        report.fingerprint,
        report.completed(),
        report.total,
        report.skipped,
        report.executed,
    );
    if report.rounds > 0 {
        println!(
            "adaptive precision: {} invocation(s) spent over {} refinement round(s); \
             {} cell(s) short of target",
            report.invocations,
            report.rounds,
            report.unmet.len(),
        );
        if !report.unmet.is_empty() && !opts.quiet {
            eprintln!("note: cells short of target: {}", report.unmet.join(", "));
        }
    }
    if report.remaining > 0 {
        println!(
            "{} cell(s) not yet scheduled — continue with \
             `rigor campaign --resume {journal_path}` (same grid flags)",
            report.remaining
        );
    }
    if !report.quarantined.is_empty() && !opts.quiet {
        eprintln!(
            "note: {} cell(s) quarantined: {}",
            report.quarantined.len(),
            report.quarantined.join(", ")
        );
    }
}

/// A workload that never finishes an iteration — only a deadline or fuel
/// budget can stop it.
const DIVERGENT_SRC: &str = "def run():\n    while True:\n        pass\n";

/// Small, fast experiment shape shared by the self-test scenarios.
fn self_test_config() -> ExperimentConfig {
    ExperimentConfig::interp()
        .with_invocations(4)
        .with_iterations(5)
        .with_size(Size::Small)
        .with_seed(7)
}

fn expect(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.to_string())
    }
}

/// A divergent workload under a virtual-time deadline must end up censored
/// with the `timeout` taxonomy — and quarantined — rather than hanging.
fn self_test_deadline() -> Result<(), String> {
    let cfg = self_test_config()
        .with_invocations(2)
        .with_deadline_ns(5.0e7)
        .with_max_retries(0);
    let m = rigor::Runner::new(cfg)
        .map_err(|e| format!("bad config: {e}"))?
        .measure_source(DIVERGENT_SRC, "divergent")
        .map_err(|e| format!("measurement errored instead of censoring: {e}"))?;
    expect(m.invocations.is_empty(), "no invocation should succeed")?;
    expect(m.censored.len() == 2, "both invocations should be censored")?;
    expect(
        m.censored
            .iter()
            .all(|c| c.failure == rigor::FailureKind::Timeout),
        "censoring taxonomy should be `timeout`",
    )?;
    expect(
        m.quarantined,
        "a fully-censored benchmark must be quarantined",
    )
}

/// The same divergent workload under a step budget must censor with the
/// `fuel_exhausted` taxonomy.
fn self_test_fuel() -> Result<(), String> {
    let cfg = self_test_config()
        .with_invocations(1)
        .with_step_budget(50_000)
        .with_max_retries(0);
    let m = rigor::Runner::new(cfg)
        .map_err(|e| format!("bad config: {e}"))?
        .measure_source(DIVERGENT_SRC, "divergent")
        .map_err(|e| format!("measurement errored instead of censoring: {e}"))?;
    expect(m.censored.len() == 1, "the invocation should be censored")?;
    expect(
        m.censored[0].failure == rigor::FailureKind::FuelExhausted,
        "censoring taxonomy should be `fuel_exhausted`",
    )
}

/// Injected transient panics must be retried onto clean attempts; the
/// experiment recovers a full measurement.
fn self_test_retry() -> Result<(), String> {
    let w = find("sieve").ok_or("sieve missing from suite")?;
    let cfg = self_test_config().with_invocations(8).with_max_retries(6);
    let m = rigor::Runner::new(cfg)
        .map_err(|e| format!("bad config: {e}"))?
        .fault_plan(FaultPlan::new(13).with_panic_rate(0.5))
        .measure(&w)
        .map_err(|e| format!("measurement errored: {e}"))?;
    expect(
        m.n_invocations() + m.censored.len() == 8,
        "every invocation slot must resolve",
    )?;
    expect(
        m.invocations.iter().any(|r| r.attempts > 1),
        "a 50% panic rate should force at least one retry",
    )?;
    expect(
        m.censored.is_empty(),
        "6 retries should recover every invocation from 50% transient faults",
    )
}

/// Invocations that fail every attempt trip the quarantine threshold.
fn self_test_quarantine() -> Result<(), String> {
    let w = find("sieve").ok_or("sieve missing from suite")?;
    let cfg = self_test_config().with_invocations(2).with_max_retries(0);
    let m = rigor::Runner::new(cfg)
        .map_err(|e| format!("bad config: {e}"))?
        .fault_plan(FaultPlan::new(5).with_panic_rate(1.0))
        .measure(&w)
        .map_err(|e| format!("measurement errored: {e}"))?;
    expect(
        m.censored.len() == 2,
        "all attempts panic, all slots censor",
    )?;
    expect(
        m.censored
            .iter()
            .all(|c| c.failure == rigor::FailureKind::Panic),
        "censoring taxonomy should be `panic`",
    )?;
    expect(m.quarantined, "2/2 censored must quarantine")
}

/// Killing an experiment after a checkpoint and resuming must reproduce the
/// uninterrupted measurement byte-for-byte.
fn self_test_resume() -> Result<(), String> {
    let w = find("sieve").ok_or("sieve missing from suite")?;
    let cfg = self_test_config();
    let dir = std::env::temp_dir();
    let path = dir.join(format!("rigor-self-test-{}.jsonl", std::process::id()));
    let cleanup = |r: Result<(), String>| {
        std::fs::remove_file(&path).ok();
        r
    };
    let full = match rigor::Runner::new(cfg.clone())
        .map_err(|e| e.to_string())
        .and_then(|r| r.journal(&path).measure(&w).map_err(|e| e.to_string()))
    {
        Ok(m) => m,
        Err(e) => return cleanup(Err(format!("journaled run errored: {e}"))),
    };
    // Keep the meta line + 2 records: a simulated mid-experiment crash.
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return cleanup(Err(format!("cannot read journal: {e}"))),
    };
    let prefix: Vec<&str> = text.lines().take(3).collect();
    if let Err(e) = std::fs::write(&path, format!("{}\n", prefix.join("\n"))) {
        return cleanup(Err(format!("cannot truncate journal: {e}")));
    }
    let journal = match Journal::load(&path) {
        Ok(j) => j,
        Err(e) => return cleanup(Err(format!("cannot load journal: {e}"))),
    };
    if journal.completed() != 2 {
        return cleanup(Err(format!(
            "expected 2 journaled invocations, found {}",
            journal.completed()
        )));
    }
    let resumed = match rigor::Runner::new(cfg)
        .map_err(|e| e.to_string())
        .and_then(|r| r.resume(journal).measure(&w).map_err(|e| e.to_string()))
    {
        Ok(m) => m,
        Err(e) => return cleanup(Err(format!("resumed run errored: {e}"))),
    };
    let full_json = rigor::to_json(std::slice::from_ref(&full));
    let resumed_json = rigor::to_json(std::slice::from_ref(&resumed));
    cleanup(match (full_json, resumed_json) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Ok(_), Ok(_)) => Err("resumed export differs from the uninterrupted run".into()),
        (Err(e), _) | (_, Err(e)) => Err(format!("export failed: {e}")),
    })
}

/// A panicking observer must be disabled without losing the measurement or
/// the rest of the event stream.
fn self_test_observer_isolation() -> Result<(), String> {
    struct Grenade;
    impl ExperimentObserver for Grenade {
        fn on_event(&self, _event: &ExperimentEvent) {
            panic!("self-test observer bomb");
        }
    }
    let w = find("sieve").ok_or("sieve missing from suite")?;
    let collector = Arc::new(rigor::CollectingObserver::new());
    let cfg = self_test_config().with_invocations(2).with_iterations(3);
    let m = rigor::Runner::new(cfg)
        .map_err(|e| format!("bad config: {e}"))?
        .observer(Arc::new(Grenade))
        .observer(collector.clone())
        .measure(&w)
        .map_err(|e| format!("measurement errored: {e}"))?;
    expect(
        m.n_invocations() == 2,
        "the measurement must survive the observer panic",
    )?;
    expect(
        collector.len() == 2 + 2 * 2 + 2 * 3,
        "the healthy observer must still see the complete stream",
    )
}

/// A placeholder measurement for the network scenarios — the uploads under
/// test carry content, not timings.
fn self_test_measurement() -> rigor::BenchmarkMeasurement {
    rigor::BenchmarkMeasurement {
        benchmark: "sieve".to_string(),
        engine: "interp".to_string(),
        invocations: vec![],
        censored: vec![],
        quarantined: false,
    }
}

/// Spins up an in-process archive server over a scratch store; returns
/// `(url, handle, join, store_dir)`.
#[allow(clippy::type_complexity)]
fn self_test_server(
    tag: &str,
    faults: Option<rigor::NetFaultPlan>,
) -> Result<
    (
        String,
        rigor_serve::ServerHandle,
        std::thread::JoinHandle<()>,
        std::path::PathBuf,
    ),
    String,
> {
    let dir = std::env::temp_dir().join(format!("rigor-self-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut server = ArchiveServer::bind("127.0.0.1:0", &dir)
        .map_err(|e| format!("cannot start server: {e}"))?;
    if let Some(plan) = faults {
        server = server.with_fault_plan(plan);
    }
    let handle = server.handle();
    let url = format!("127.0.0.1:{}", handle.addr().port());
    let join = std::thread::spawn(move || {
        let _ = server.serve();
    });
    Ok((url, handle, join, dir))
}

/// A client tuned for the scenarios: short timeouts, tight backoff.
fn self_test_client(url: &str, retries: u32) -> RemoteStore {
    RemoteStore::connect(url)
        .with_timeout(Duration::from_millis(500))
        .with_retries(retries)
        .with_backoff_base(Duration::from_millis(1))
        .with_seed(7)
}

/// A port that nothing listens on (bound once, then released).
fn dead_port() -> Result<u16, String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port();
    drop(listener);
    Ok(port)
}

/// Under refused connections and dropped acks, every upload must land
/// exactly once: retries recover the transport, content-id dedup absorbs
/// the replays of writes whose ack was withheld.
fn self_test_net_retry() -> Result<(), String> {
    let plan = rigor::NetFaultPlan::new(11)
        .with_refuse_rate(0.2)
        .with_drop_rate(0.25);
    let (url, handle, join, dir) = self_test_server("net-retry", Some(plan))?;
    let client = self_test_client(&url, 8);
    let cfg = self_test_config();
    let result = (|| -> Result<(), String> {
        for seq in 0..6u64 {
            let record = RunRecord::new(
                seq,
                Some(format!("net/{seq}")),
                &cfg,
                vec![self_test_measurement()],
            );
            let receipt = client
                .upload(&record)
                .map_err(|e| format!("upload {seq}: {e}"))?;
            let again = client
                .upload(&record)
                .map_err(|e| format!("re-upload {seq}: {e}"))?;
            expect(
                receipt == again,
                "a replayed upload must dedup to the original receipt",
            )?;
        }
        let runs = client.ping().map_err(|e| format!("ping: {e}"))?;
        expect(
            runs == 6,
            "exactly 6 runs must land — no loss, no duplicates",
        )
    })();
    handle.stop();
    let _ = join.join();
    let verify = Store::verify_dir(&dir).map_err(|e| format!("verify: {e}"))?;
    std::fs::remove_dir_all(&dir).ok();
    result?;
    expect(verify.is_clean(), "the served archive must verify clean")
}

/// With the server gone, the circuit breaker must open after the
/// configured threshold and fail fast instead of re-timing-out.
fn self_test_net_breaker() -> Result<(), String> {
    let port = dead_port()?;
    let observer = Arc::new(rigor::CollectingObserver::new());
    let client = self_test_client(&format!("127.0.0.1:{port}"), 0)
        .with_timeout(Duration::from_millis(200))
        .with_breaker_threshold(2)
        .with_probe_every(1000)
        .with_observer(observer.clone());
    expect(client.ping().is_err(), "a dead port must fail")?;
    expect(
        client.ping().is_err(),
        "the second failure crosses the threshold",
    )?;
    let start = std::time::Instant::now();
    for _ in 0..20 {
        match client.ping() {
            Err(rigor_serve::RemoteError::CircuitOpen { .. }) => {}
            other => return Err(format!("expected CircuitOpen, got {other:?}")),
        }
    }
    expect(
        start.elapsed() < Duration::from_millis(100),
        "an open breaker must fail fast, not re-run the connect timeout",
    )?;
    expect(
        observer
            .events()
            .iter()
            .any(|e| matches!(e, ExperimentEvent::CircuitOpened { failures: 2, .. })),
        "opening the breaker must emit `circuit_opened`",
    )
}

/// Cells archived while the service is down must spool locally and, once
/// the server returns, replay to the exact archive a direct local run
/// produces — same content ids at the same seqs.
fn self_test_net_spool() -> Result<(), String> {
    use rigor::campaign::CellSink as _;
    let port = dead_port()?;
    let base = std::env::temp_dir().join(format!("rigor-self-test-spool-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let cfg = self_test_config();
    let cells = rigor::CampaignSpec::new(cfg)
        .with_benchmarks(["sieve"])
        .with_seeds(vec![1, 2, 3])
        .cells()
        .map_err(|e| e.to_string())?;
    let m = self_test_measurement();

    let client = self_test_client(&format!("127.0.0.1:{port}"), 0)
        .with_timeout(Duration::from_millis(200))
        .with_breaker_threshold(1)
        .with_spool(base.join("spool"))
        .map_err(|e| format!("spool: {e}"))?;
    for c in &cells {
        client
            .archive_cell(c, &m)
            .map_err(|e| format!("offline cell: {e}"))?;
    }
    expect(
        client.spooled() == cells.len(),
        "every offline cell must spool",
    )?;

    // Ground truth: the same cells written directly to a local store.
    let local = rigor_store::SharedStore::open(base.join("local")).map_err(|e| e.to_string())?;
    for c in &cells {
        local.archive_cell(c, &m).map_err(|e| e.to_string())?;
    }

    // The server comes up on the very port that was refusing connections.
    let server_dir = base.join("server");
    let server = ArchiveServer::bind(&format!("127.0.0.1:{port}"), &server_dir)
        .map_err(|e| format!("restart: {e}"))?;
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        let _ = server.serve();
    });
    // The breaker is open; flush until a half-open probe gets through.
    let mut drained = false;
    for _ in 0..200 {
        client.flush().map_err(|e| format!("flush: {e}"))?;
        if client.spooled() == 0 {
            drained = true;
            break;
        }
    }
    handle.stop();
    let _ = join.join();
    let result = (|| -> Result<(), String> {
        expect(drained, "the spool must drain once the server is back")?;
        let mut local_runs: Vec<(u64, String)> =
            local.with(|s| s.runs().map(|r| (r.seq, r.id.clone())).collect());
        local_runs.sort();
        let server_store = Store::open(&server_dir).map_err(|e| e.to_string())?;
        let mut server_runs: Vec<(u64, String)> =
            server_store.runs().map(|r| (r.seq, r.id.clone())).collect();
        server_runs.sort();
        expect(
            server_runs == local_runs,
            "the replayed archive must hold the same content ids at the same seqs \
             as a direct local run",
        )
    })();
    std::fs::remove_dir_all(&base).ok();
    result
}

/// 5xx responses and non-HTTP garbage must be retried away without ever
/// corrupting the archive or duplicating a run.
fn self_test_net_garbage() -> Result<(), String> {
    let plan = rigor::NetFaultPlan::new(9)
        .with_error_rate(0.25)
        .with_garbage_rate(0.25);
    let (url, handle, join, dir) = self_test_server("net-garbage", Some(plan))?;
    let client = self_test_client(&url, 8);
    let cfg = self_test_config();
    let result = (|| -> Result<(), String> {
        for seq in 0..5u64 {
            let record = RunRecord::new(
                seq,
                Some(format!("garbage/{seq}")),
                &cfg,
                vec![self_test_measurement()],
            );
            client
                .upload(&record)
                .map_err(|e| format!("upload {seq}: {e}"))?;
        }
        let history = client.history(None).map_err(|e| format!("history: {e}"))?;
        expect(
            history.len() == 5,
            "every upload must land despite 5xx and garbage responses",
        )
    })();
    handle.stop();
    let _ = join.join();
    let verify = Store::verify_dir(&dir).map_err(|e| format!("verify: {e}"))?;
    std::fs::remove_dir_all(&dir).ok();
    result?;
    expect(verify.is_clean(), "the served archive must verify clean")
}

/// Default path of the committed golden checksum manifest, relative to
/// the repository root (where CI and developers run `rigor verify`).
const DEFAULT_MANIFEST: &str = "tests/fixtures/suite_checksums.json";

/// `rigor verify`: run the differential verification grid — every workload
/// × size × engine × seed — against the golden checksum manifest. With
/// `BLESS=1` in the environment the manifest is (re)generated from a clean
/// run instead of being compared against.
fn cmd_verify(opts: &GlobalOpts) -> CliResult {
    reject_checkpoint_flags(opts, "verify")?;
    let manifest_path = opts
        .manifest
        .clone()
        .unwrap_or_else(|| DEFAULT_MANIFEST.to_string());
    let sizes = opts
        .sizes
        .clone()
        .unwrap_or_else(|| verify::ALL_SIZES.to_vec());
    let seeds = opts.seeds.clone().unwrap_or_else(|| vec![1, 2, 3]);
    let bless = std::env::var("BLESS").is_ok_and(|v| v == "1");

    let cells = verify::grid(&sizes, &seeds);
    if !opts.quiet {
        eprintln!(
            "verify: {} cells ({} workloads x {} sizes x 2 engines x {} seeds) on {} workers",
            cells.len(),
            suite().len(),
            sizes.len(),
            seeds.len(),
            opts.workers
        );
    }

    if bless {
        // A bless run still cross-checks the engines: a divergent suite
        // must never be pinned as golden.
        let report = rigor::run_grid(cells, opts.workers, None);
        if let Some(path) = &opts.json_out {
            fs::write(path, report.to_json()).map_err(io_err(path))?;
        }
        if !report.passed() {
            return fail_verify(&report);
        }
        let manifest = report.to_manifest().map_err(|msg| CliError::Store {
            path: manifest_path.clone(),
            message: msg,
        })?;
        fs::write(&manifest_path, manifest.to_json()).map_err(io_err(&manifest_path))?;
        if !opts.quiet {
            eprintln!(
                "verify: blessed {} manifest entries to {manifest_path}",
                manifest.entries.len()
            );
        }
        println!("{}", report.summary());
        return Ok(());
    }

    let text = fs::read_to_string(&manifest_path).map_err(io_err(&manifest_path))?;
    let manifest = verify::Manifest::from_json(&text).map_err(|msg| CliError::Store {
        path: manifest_path.clone(),
        message: msg,
    })?;
    let report = rigor::run_grid(cells, opts.workers, Some(&manifest));
    if let Some(path) = &opts.json_out {
        fs::write(path, report.to_json()).map_err(io_err(path))?;
    }
    if report.passed() {
        println!("{}", report.summary());
        Ok(())
    } else {
        fail_verify(&report)
    }
}

/// Prints the failing cells of a verification report and surfaces the
/// typed error (exit 1).
fn fail_verify(report: &verify::VerifyReport) -> CliResult {
    let failures = report.failures();
    let mut table =
        Table::new(vec!["cell", "outcome", "detail"]).with_title("suite verification failures");
    for f in &failures {
        let detail = match &f.outcome {
            verify::CellOutcome::ChecksumMismatch { expected, actual } => {
                format!("expected {expected}, got {actual}")
            }
            verify::CellOutcome::EngineDivergence { interp, jit } => {
                format!("interp {interp}, jit {jit}")
            }
            verify::CellOutcome::MissingEntry { actual } => {
                format!("no manifest entry (computed {actual})")
            }
            verify::CellOutcome::Error(e) => e.to_string(),
            verify::CellOutcome::Ok => String::new(),
        };
        table.row(vec![f.cell.id(), f.outcome.label().to_string(), detail]);
    }
    println!("{table}");
    println!("{}", report.summary());
    Err(CliError::VerifySuite {
        failed: failures.iter().map(|f| f.cell.id()).collect(),
    })
}

/// One named self-test scenario.
type Scenario = (&'static str, fn() -> Result<(), String>);

/// Runs every fault-tolerance scenario under deterministic fault injection
/// and reports a pass/fail table; any failure exits 1.
fn cmd_self_test(opts: &GlobalOpts) -> CliResult {
    let scenarios: Vec<Scenario> = vec![
        ("deadline censors a divergent workload", self_test_deadline),
        ("fuel budget censors a divergent workload", self_test_fuel),
        ("transient panics are retried to recovery", self_test_retry),
        ("total failure trips quarantine", self_test_quarantine),
        ("checkpoint resume is byte-identical", self_test_resume),
        ("observer panics are isolated", self_test_observer_isolation),
        (
            "dropped acks are retried without duplication",
            self_test_net_retry,
        ),
        (
            "circuit breaker opens and fails fast",
            self_test_net_breaker,
        ),
        (
            "offline spool replays losslessly on reconnect",
            self_test_net_spool,
        ),
        (
            "5xx and garbage responses never corrupt the archive",
            self_test_net_garbage,
        ),
    ];
    let mut table = Table::new(vec!["scenario", "result"]).with_title("fault-tolerance self-test");
    let mut failed = Vec::new();
    // Injected panics are expected here; keep their default backtraces out
    // of the report. The previous hook is restored before returning.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for (name, scenario) in &scenarios {
        if !opts.quiet {
            eprintln!("self-test: {name} ...");
        }
        match scenario() {
            Ok(()) => {
                table.row(vec![name.to_string(), "ok".to_string()]);
            }
            Err(msg) => {
                table.row(vec![name.to_string(), format!("FAILED: {msg}")]);
                failed.push(name.to_string());
            }
        }
    }
    std::panic::set_hook(previous_hook);
    println!("{table}");
    if failed.is_empty() {
        println!("self-test: all {} scenarios passed", scenarios.len());
        Ok(())
    } else {
        Err(CliError::SelfTest { failed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn list_and_help_run() {
        dispatch(&parse_args(&argv("list")).unwrap()).unwrap();
        dispatch(&parse_args(&argv("help")).unwrap()).unwrap();
    }

    #[test]
    fn characterize_runs() {
        dispatch(&parse_args(&argv("characterize sieve --size small")).unwrap()).unwrap();
    }

    #[test]
    fn measure_small_runs_and_exports() {
        let dir = std::env::temp_dir().join("rigor-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("m.json");
        let cmd = format!(
            "measure leibniz -n 3 -i 10 --size small --json {}",
            json.display()
        );
        dispatch(&parse_args(&argv(&cmd)).unwrap()).unwrap();
        let text = std::fs::read_to_string(&json).unwrap();
        assert!(text.contains("leibniz"));
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let r = dispatch(&parse_args(&argv("measure nope")).unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn quarantined_measure_surfaces_as_an_error() {
        let r = dispatch(
            &parse_args(&argv(
                "measure sieve -n 2 -i 3 --size small --deadline-ns 100 --max-retries 0",
            ))
            .unwrap(),
        );
        match r {
            Err(CliError::Quarantined {
                censored,
                invocations,
                ..
            }) => {
                assert_eq!(censored, 2);
                assert_eq!(invocations, 2);
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_flags_rejected_outside_measure() {
        for cmd in ["suite --journal j.jsonl", "compare sieve --resume j.jsonl"] {
            let r = dispatch(&parse_args(&argv(cmd)).unwrap());
            assert!(
                matches!(r, Err(CliError::Usage(_))),
                "{cmd} must be a usage error"
            );
        }
    }

    #[test]
    fn campaign_plan_and_run_archive_every_cell() {
        let dir = std::env::temp_dir().join(format!("rigor-cli-campaign-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = dir.join("store");
        let base = format!(
            "campaign --benchmarks sieve,leibniz --engines interp --seeds 1,2 \
             -n 2 -i 3 --size small --workers 2 --quiet --store {}",
            store.display()
        );
        dispatch(&parse_args(&argv(&format!("{base} --plan"))).unwrap()).unwrap();
        assert!(!store.exists(), "--plan must not touch the store");
        dispatch(&parse_args(&argv(&base)).unwrap()).unwrap();
        let opened = rigor_store::Store::open(&store).unwrap();
        assert_eq!(opened.len(), 4, "every cell becomes one archived run");
        // Rerunning the same grid is a new campaign: it archives its own
        // four runs, at the seqs after the first campaign's.
        dispatch(&parse_args(&argv(&base)).unwrap()).unwrap();
        let reopened = rigor_store::Store::open(&store).unwrap();
        let mut seqs: Vec<u64> = reopened.runs().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_rejects_journal_flag() {
        let r = dispatch(&parse_args(&argv("campaign --journal j.jsonl")).unwrap());
        assert!(matches!(r, Err(CliError::Usage(_))));
    }

    #[test]
    fn run_and_disasm_a_minipy_file() {
        let dir = std::env::temp_dir().join("rigor-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hello.mp");
        std::fs::write(&path, "print('hi')\ndef run():\n    return 41 + 1\n").unwrap();
        dispatch(&parse_args(&argv(&format!("run {}", path.display()))).unwrap()).unwrap();
        dispatch(&parse_args(&argv(&format!("disasm {}", path.display()))).unwrap()).unwrap();
    }
}
