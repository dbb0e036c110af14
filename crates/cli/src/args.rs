//! Hand-rolled argument parsing for the `rigor` CLI (no external parser
//! dependency, per the workspace's dependency policy).

use std::fmt;

use minipy::EngineKind;
use rigor_workloads::verify::parse_size;
use rigor_workloads::Size;

/// Options shared by the measuring subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalOpts {
    /// VM invocations.
    pub invocations: u32,
    /// Iterations per invocation.
    pub iterations: u32,
    /// Workload size preset.
    pub size: Size,
    /// Master experiment seed.
    pub seed: u64,
    /// Engine for single-engine commands.
    pub engine: EngineKind,
    /// Confidence level.
    pub confidence: f64,
    /// Optional path to write measurements as JSON.
    pub json_out: Option<String>,
    /// Optional path to write measurements as CSV.
    pub csv_out: Option<String>,
    /// Stream live per-invocation progress to stderr.
    pub progress: bool,
    /// Suppress progress and advisory stderr output.
    pub quiet: bool,
    /// Optional path to stream an event trace (JSONL) to.
    pub trace: Option<String>,
    /// Optional per-attempt virtual-time deadline (ns).
    pub deadline_ns: Option<f64>,
    /// Optional per-attempt step budget ("fuel", bytecode ops).
    pub fuel: Option<u64>,
    /// Retries after a failed invocation (None = library default).
    pub max_retries: Option<u32>,
    /// Censored fraction above which a benchmark is quarantined.
    pub quarantine_threshold: Option<f64>,
    /// Optional checkpoint-journal path to stream finished invocations to.
    pub journal: Option<String>,
    /// Optional checkpoint journal to resume a measurement from.
    pub resume: Option<String>,
    /// Results-archive directory for archive/history/check.
    pub store: String,
    /// Optional human label recorded with an archived run.
    pub label: Option<String>,
    /// Baseline reference for `check` (`last`, `last-N`, id prefix, label).
    pub baseline: Option<String>,
    /// FDR level q applied to corrected p-values (`check`).
    pub fdr: Option<f64>,
    /// Tolerated slowdown in percent before a significant change regresses
    /// the gate (`check`).
    pub max_regression_pct: Option<f64>,
    /// Multiple-comparison correction (`check`, `trend`).
    pub correction: Option<rigor::Correction>,
    /// Minimum runs per trend segment (`trend`, `history --alerts`).
    pub min_segment: Option<usize>,
    /// Segmentation penalty: `auto`, `bic`, or a positive factor (`trend`).
    pub penalty: Option<rigor::Penalty>,
    /// Annotate `history` output with trend shift alerts.
    pub alerts: bool,
    /// Benchmark axis of a campaign grid (`campaign`; default: the suite).
    pub benchmarks: Option<Vec<String>>,
    /// Engine axis of a campaign grid (default: interp and jit).
    pub engines: Option<Vec<EngineKind>>,
    /// Config-variant axis (`NxM` shapes) of a campaign grid.
    pub variants: Option<Vec<rigor::ConfigVariant>>,
    /// Explicit seed axis of a campaign grid.
    pub seeds: Option<Vec<u64>>,
    /// Seed-axis shorthand: `N` consecutive seeds from `--seed`.
    pub repeats: Option<u32>,
    /// Campaign worker threads.
    pub workers: usize,
    /// Campaign inter-cell arrival process.
    pub arrival: rigor::ArrivalProcess,
    /// Print the campaign's cell grid without executing it.
    pub plan: bool,
    /// Adaptive-precision target: relative CI half-width per cell
    /// (`--precision 0.02` = ±2%); enables the precision planner.
    pub precision: Option<f64>,
    /// Global invocation budget across the campaign grid; enables the
    /// precision planner.
    pub budget: Option<u64>,
    /// Run only the pilot round and print the allocation table, without
    /// refining or archiving anything.
    pub plan_only: bool,
    /// Execute at most this many cells, then stop (resumable).
    pub max_cells: Option<usize>,
    /// Gate `check` against measurements exported as JSON instead of an
    /// archived baseline.
    pub baseline_json: Option<String>,
    /// Shared archive service URL; archive/history/check/trend/campaign
    /// talk to it instead of the local `--store` directory.
    pub store_url: Option<String>,
    /// Local write-ahead spool directory for undeliverable uploads
    /// (campaign with `--store-url`; default `<store>/spool`).
    pub spool: Option<String>,
    /// Listen address for `rigor serve`.
    pub listen: String,
    /// Verify the archive's integrity instead of measuring (`archive`).
    pub verify: bool,
    /// Size axis of the verification grid (`verify`; default: all three).
    pub sizes: Option<Vec<Size>>,
    /// Golden checksum manifest path (`verify`).
    pub manifest: Option<String>,
}

impl Default for GlobalOpts {
    fn default() -> Self {
        GlobalOpts {
            invocations: 10,
            iterations: 30,
            size: Size::Default,
            seed: 0xC0FFEE,
            engine: EngineKind::Interp,
            confidence: 0.95,
            json_out: None,
            csv_out: None,
            progress: false,
            quiet: false,
            trace: None,
            deadline_ns: None,
            fuel: None,
            max_retries: None,
            quarantine_threshold: None,
            journal: None,
            resume: None,
            store: ".rigor-store".to_string(),
            label: None,
            baseline: None,
            fdr: None,
            max_regression_pct: None,
            correction: None,
            min_segment: None,
            penalty: None,
            alerts: false,
            benchmarks: None,
            engines: None,
            variants: None,
            seeds: None,
            repeats: None,
            workers: 4,
            arrival: rigor::ArrivalProcess::Immediate,
            plan: false,
            precision: None,
            budget: None,
            plan_only: false,
            max_cells: None,
            baseline_json: None,
            store_url: None,
            spool: None,
            listen: "127.0.0.1:7878".to_string(),
            verify: false,
            sizes: None,
            manifest: None,
        }
    }
}

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `rigor list` — print the workload suite.
    List,
    /// `rigor characterize <benchmark>` — dynamic-profile table.
    Characterize { benchmark: String },
    /// `rigor measure <benchmark>` — steady-state mean with CI on one engine.
    Measure { benchmark: String },
    /// `rigor compare <benchmark>` — interp vs JIT speedup with CI.
    Compare { benchmark: String },
    /// `rigor suite` — the headline experiment over the whole suite.
    Suite,
    /// `rigor warmup <benchmark>` — per-invocation series + classification.
    Warmup { benchmark: String },
    /// `rigor run <file>` — execute a MiniPy source file.
    Run { path: String },
    /// `rigor disasm <file>` — print a MiniPy file's bytecode.
    Disasm { path: String },
    /// `rigor trace-summary <file>` — summarize an event trace (JSONL).
    TraceSummary { path: String },
    /// `rigor self-test` — exercise the fault-tolerance machinery under
    /// deterministic fault injection.
    SelfTest,
    /// `rigor archive [benchmark]` — measure (one benchmark or the whole
    /// suite) and persist the run to the results archive.
    Archive { benchmark: Option<String> },
    /// `rigor history <benchmark>` — trend table over archived runs.
    History { benchmark: String },
    /// `rigor check [benchmark]` — regression gate against an archived
    /// baseline (exit 0 = pass, 1 = regressed).
    Check { benchmark: Option<String> },
    /// `rigor trend [benchmark]` — changepoint analysis over the archived
    /// history (exit 0 = stable, 1 = significant shift at HEAD).
    Trend { benchmark: Option<String> },
    /// `rigor campaign` — execute a benchmarks × engines × variants × seeds
    /// cell grid on a worker pool in grid order, streaming each cell into
    /// the results archive.
    Campaign,
    /// `rigor plan` — precision-attainment report over an archived
    /// campaign: what each cell achieved and what a refinement round would
    /// allocate next.
    Plan,
    /// `rigor serve` — run the shared archive service over one store.
    Serve,
    /// `rigor verify` — run the differential verification grid (workload ×
    /// size × engine × seed) against the golden checksum manifest (exit 0 =
    /// every cell matches, 1 = mismatch/divergence, naming the cell).
    Verify,
    /// `rigor help`.
    Help,
}

/// Argument-parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Parses argv (without the program name) into a command + options.
pub fn parse_args(argv: &[String]) -> Result<(Command, GlobalOpts), ParseError> {
    let mut opts = GlobalOpts::default();
    let mut positional: Vec<String> = Vec::new();
    let mut it = argv.iter().peekable();

    let next_value = |flag: &str, it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
        it.next()
            .cloned()
            .ok_or_else(|| err(format!("flag {flag} requires a value")))
    };

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--invocations" | "-n" => {
                opts.invocations = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--invocations requires an integer"))?;
            }
            "--iterations" | "-i" => {
                opts.iterations = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--iterations requires an integer"))?;
            }
            "--seed" => {
                let v = next_value(arg, &mut it)?;
                opts.seed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).map_err(|_| err("bad hex seed"))?
                } else {
                    v.parse().map_err(|_| err("--seed requires an integer"))?
                };
            }
            "--size" => {
                let v = next_value(arg, &mut it)?;
                opts.size = parse_size(&v).ok_or_else(|| err(format!("unknown size '{v}'")))?;
            }
            "--engine" => {
                opts.engine = match next_value(arg, &mut it)?.as_str() {
                    "interp" => EngineKind::Interp,
                    "jit" => EngineKind::Jit(minipy::JitConfig::default()),
                    other => return Err(err(format!("unknown engine '{other}'"))),
                };
            }
            "--confidence" => {
                let c: f64 = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--confidence requires a number"))?;
                if !(0.5..1.0).contains(&c) {
                    return Err(err("--confidence must be in [0.5, 1.0)"));
                }
                opts.confidence = c;
            }
            "--json" => opts.json_out = Some(next_value(arg, &mut it)?),
            "--csv" => opts.csv_out = Some(next_value(arg, &mut it)?),
            "--progress" => opts.progress = true,
            "--quiet" | "-q" => opts.quiet = true,
            "--trace" => opts.trace = Some(next_value(arg, &mut it)?),
            "--deadline-ns" => {
                let d: f64 = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--deadline-ns requires a number"))?;
                if !(d.is_finite() && d > 0.0) {
                    return Err(err("--deadline-ns must be a positive number"));
                }
                opts.deadline_ns = Some(d);
            }
            "--fuel" => {
                let f: u64 = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--fuel requires an integer (bytecode ops)"))?;
                if f == 0 {
                    return Err(err("--fuel must be positive"));
                }
                opts.fuel = Some(f);
            }
            "--max-retries" => {
                opts.max_retries = Some(
                    next_value(arg, &mut it)?
                        .parse()
                        .map_err(|_| err("--max-retries requires an integer"))?,
                );
            }
            "--quarantine-threshold" => {
                let q: f64 = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--quarantine-threshold requires a number"))?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(err("--quarantine-threshold must be in [0, 1]"));
                }
                opts.quarantine_threshold = Some(q);
            }
            "--journal" => opts.journal = Some(next_value(arg, &mut it)?),
            "--resume" => opts.resume = Some(next_value(arg, &mut it)?),
            "--store" => opts.store = next_value(arg, &mut it)?,
            "--label" => opts.label = Some(next_value(arg, &mut it)?),
            "--baseline" => opts.baseline = Some(next_value(arg, &mut it)?),
            "--fdr" => {
                let q: f64 = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--fdr requires a number"))?;
                if !(q > 0.0 && q <= 1.0) {
                    return Err(err("--fdr must be in (0, 1]"));
                }
                opts.fdr = Some(q);
            }
            "--max-regression" => {
                let pct: f64 = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--max-regression requires a percentage"))?;
                if !(pct.is_finite() && pct >= 0.0) {
                    return Err(err("--max-regression must be a non-negative percentage"));
                }
                opts.max_regression_pct = Some(pct);
            }
            "--correction" => {
                let c = next_value(arg, &mut it)?;
                opts.correction =
                    Some(rigor::Correction::parse(&c).ok_or_else(|| {
                        err(format!("unknown correction '{c}' (use bh or holm)"))
                    })?);
            }
            "--min-segment" => {
                let m: usize = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--min-segment requires an integer"))?;
                if m == 0 {
                    return Err(err("--min-segment must be at least 1"));
                }
                opts.min_segment = Some(m);
            }
            "--penalty" => {
                let p = next_value(arg, &mut it)?;
                opts.penalty = Some(rigor::Penalty::parse(&p).ok_or_else(|| {
                    err(format!(
                        "unknown penalty '{p}' (use auto, bic, or a positive factor)"
                    ))
                })?);
            }
            "--alerts" => opts.alerts = true,
            "--benchmarks" => {
                let list: Vec<String> = next_value(arg, &mut it)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if list.is_empty() {
                    return Err(err("--benchmarks requires a comma-separated list"));
                }
                opts.benchmarks = Some(list);
            }
            "--engines" => {
                let mut engines = Vec::new();
                for name in next_value(arg, &mut it)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                {
                    engines.push(match name {
                        "interp" => EngineKind::Interp,
                        "jit" => EngineKind::Jit(minipy::JitConfig::default()),
                        other => return Err(err(format!("unknown engine '{other}'"))),
                    });
                }
                if engines.is_empty() {
                    return Err(err("--engines requires a comma-separated list"));
                }
                opts.engines = Some(engines);
            }
            "--variants" => {
                let mut variants = Vec::new();
                for shape in next_value(arg, &mut it)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                {
                    variants.push(rigor::ConfigVariant::parse(shape).map_err(err)?);
                }
                if variants.is_empty() {
                    return Err(err("--variants requires a comma-separated list"));
                }
                opts.variants = Some(variants);
            }
            "--seeds" => {
                let mut seeds = Vec::new();
                for s in next_value(arg, &mut it)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                {
                    seeds.push(if let Some(hex) = s.strip_prefix("0x") {
                        u64::from_str_radix(hex, 16).map_err(|_| err("bad hex seed in --seeds"))?
                    } else {
                        s.parse().map_err(|_| err("--seeds requires integers"))?
                    });
                }
                if seeds.is_empty() {
                    return Err(err("--seeds requires a comma-separated list"));
                }
                opts.seeds = Some(seeds);
            }
            "--repeats" => {
                let r: u32 = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--repeats requires an integer"))?;
                if r == 0 {
                    return Err(err("--repeats must be at least 1"));
                }
                opts.repeats = Some(r);
            }
            "--workers" => {
                let w: usize = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--workers requires an integer"))?;
                if w == 0 {
                    return Err(err("--workers must be at least 1"));
                }
                opts.workers = w;
            }
            "--arrival" => {
                let a = next_value(arg, &mut it)?;
                opts.arrival = rigor::ArrivalProcess::parse(&a).map_err(err)?;
            }
            "--plan" => opts.plan = true,
            "--precision" => {
                let p: f64 = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--precision requires a number (e.g. 0.02 for ±2%)"))?;
                if !(p > 0.0 && p < 1.0) {
                    return Err(err("--precision must be in (0, 1)"));
                }
                opts.precision = Some(p);
            }
            "--budget" => {
                let b: u64 = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--budget requires an integer (total invocations)"))?;
                if b == 0 {
                    return Err(err("--budget must be at least 1"));
                }
                opts.budget = Some(b);
            }
            "--plan-only" => opts.plan_only = true,
            "--max-cells" => {
                let m: usize = next_value(arg, &mut it)?
                    .parse()
                    .map_err(|_| err("--max-cells requires an integer"))?;
                if m == 0 {
                    return Err(err("--max-cells must be at least 1"));
                }
                opts.max_cells = Some(m);
            }
            "--baseline-json" => opts.baseline_json = Some(next_value(arg, &mut it)?),
            "--store-url" => {
                let url = next_value(arg, &mut it)?;
                if url
                    .trim()
                    .trim_start_matches("http://")
                    .trim_end_matches('/')
                    .is_empty()
                {
                    return Err(err("--store-url requires a host:port address"));
                }
                opts.store_url = Some(url);
            }
            "--spool" => opts.spool = Some(next_value(arg, &mut it)?),
            "--listen" => opts.listen = next_value(arg, &mut it)?,
            "--verify" => opts.verify = true,
            "--sizes" => {
                let mut sizes = Vec::new();
                for s in next_value(arg, &mut it)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                {
                    sizes.push(
                        parse_size(s)
                            .ok_or_else(|| err(format!("unknown size '{s}' in --sizes")))?,
                    );
                }
                if sizes.is_empty() {
                    return Err(err("--sizes requires a comma-separated list"));
                }
                opts.sizes = Some(sizes);
            }
            "--manifest" => opts.manifest = Some(next_value(arg, &mut it)?),
            "--help" | "-h" => positional.push("help".to_string()),
            other if other.starts_with('-') => {
                return Err(err(format!("unknown flag '{other}'")));
            }
            _ => positional.push(arg.clone()),
        }
    }

    let mut pos = positional.into_iter();
    let command = match pos.next().as_deref() {
        None | Some("help") | Some("--help") => Command::Help,
        Some("list") => Command::List,
        Some("suite") => Command::Suite,
        Some("characterize") => Command::Characterize {
            benchmark: pos
                .next()
                .ok_or_else(|| err("characterize needs a benchmark name"))?,
        },
        Some("measure") => Command::Measure {
            benchmark: pos
                .next()
                .ok_or_else(|| err("measure needs a benchmark name"))?,
        },
        Some("compare") => Command::Compare {
            benchmark: pos
                .next()
                .ok_or_else(|| err("compare needs a benchmark name"))?,
        },
        Some("warmup") => Command::Warmup {
            benchmark: pos
                .next()
                .ok_or_else(|| err("warmup needs a benchmark name"))?,
        },
        Some("run") => Command::Run {
            path: pos.next().ok_or_else(|| err("run needs a file path"))?,
        },
        Some("disasm") => Command::Disasm {
            path: pos.next().ok_or_else(|| err("disasm needs a file path"))?,
        },
        Some("trace-summary") => Command::TraceSummary {
            path: pos
                .next()
                .ok_or_else(|| err("trace-summary needs a trace file path"))?,
        },
        Some("self-test") => Command::SelfTest,
        Some("archive") => Command::Archive {
            benchmark: pos.next(),
        },
        Some("history") => Command::History {
            benchmark: pos
                .next()
                .ok_or_else(|| err("history needs a benchmark name"))?,
        },
        Some("check") => Command::Check {
            benchmark: pos.next(),
        },
        Some("trend") => Command::Trend {
            benchmark: pos.next(),
        },
        Some("campaign") => Command::Campaign,
        Some("plan") => Command::Plan,
        Some("serve") => Command::Serve,
        Some("verify") => Command::Verify,
        Some(other) => return Err(err(format!("unknown command '{other}'"))),
    };
    if let Some(extra) = pos.next() {
        return Err(err(format!("unexpected argument '{extra}'")));
    }
    if opts.seeds.is_some() && opts.repeats.is_some() {
        return Err(err("--seeds and --repeats are mutually exclusive"));
    }
    if opts.store_url.is_some() && opts.baseline_json.is_some() {
        return Err(err(
            "--baseline-json and --store-url are mutually exclusive (the server owns the baseline)",
        ));
    }
    // Reject invalid experiment shapes at the CLI boundary (exit 2) instead
    // of letting Runner::new fail later with exit 1.
    let probe = {
        let mut cfg = rigor::ExperimentConfig::default()
            .with_invocations(opts.invocations)
            .with_iterations(opts.iterations)
            .with_confidence(opts.confidence);
        if let Some(q) = opts.quarantine_threshold {
            cfg = cfg.with_quarantine_threshold(q);
        }
        cfg
    };
    probe.validate().map_err(|e| err(e.to_string()))?;
    Ok((command, opts))
}

/// The usage text printed by `rigor help`.
pub const USAGE: &str = "\
rigor — rigorous benchmarking for Python-like workloads

USAGE:
    rigor <command> [options]

COMMANDS:
    list                      list the benchmark suite
    characterize <benchmark>  dynamic-execution profile of one benchmark
    measure <benchmark>       steady-state mean with CI on one engine
    compare <benchmark>       interp-vs-JIT speedup with CI
    suite                     full-suite comparison (the headline experiment)
    warmup <benchmark>        per-invocation warmup curves + classification
    run <file>                execute a MiniPy source file
    disasm <file>             show a MiniPy file's bytecode
    trace-summary <file>      summarize an event trace written by --trace
    self-test                 exercise the fault-tolerance machinery under
                              deterministic fault injection
    archive [benchmark]       measure (default: whole suite) and persist the
                              run to the results archive
    history <benchmark>       trend table over the archived runs of one
                              benchmark
    check [benchmark]         regression gate against an archived baseline;
                              exit 0 = no significant regression, 1 = regressed
    trend [benchmark]         changepoint analysis over the archived history;
                              exit 0 = stable, 1 = significant shift at HEAD
    campaign                  execute a benchmarks × engines × variants ×
                              seeds grid on a worker pool, streaming every
                              cell into the results archive
    plan                      precision-attainment report over an archived
                              campaign: achieved half-widths and the next
                              refinement allocation
    serve                     run the shared archive service over one store
    verify                    run the differential verification grid
                              (workload × size × engine × seed) against the
                              golden checksum manifest; exit 0 = all cells
                              match, 1 = a mismatch or engine divergence
    help                      this message

OPTIONS:
    -n, --invocations <N>     VM invocations (default 10)
    -i, --iterations <M>      iterations per invocation (default 30)
    --engine <interp|jit>     engine for measure/warmup/run (default interp)
    --size <small|default|large>
    --seed <N|0xHEX>          master experiment seed
    --confidence <0.xx>       confidence level (default 0.95)
    --json <file>             export measurements as JSON
    --csv <file>              export measurements as CSV
    --progress                live per-invocation progress on stderr
    -q, --quiet               suppress progress and advisory output
    --trace <file>            stream experiment events as JSONL

FAULT TOLERANCE:
    --deadline-ns <N>         virtual-time deadline per invocation attempt
    --fuel <N>                step budget (bytecode ops) per attempt
    --max-retries <N>         retries before censoring a failed invocation
    --quarantine-threshold <0.xx>
                              censored fraction that quarantines a benchmark
    --journal <file>          checkpoint finished invocations as JSONL
                              (measure only)
    --resume <file>           replay a checkpoint journal, run only the
                              missing invocations (measure only)

RESULTS ARCHIVE:
    --store <dir>             archive directory (default .rigor-store)
    --label <text>            label recorded with an archived run
    --baseline <ref>          baseline for check: last (default), last-N
                              (pooled), segment (current trend segment),
                              a run id prefix, or a label
    --fdr <q>                 FDR level on corrected p-values (default 0.05)
    --max-regression <pct>    tolerated slowdown in percent (default 0)
    --correction <bh|holm>    multiple-comparison correction (default bh)
    --baseline-json <file>    gate against measurements exported as JSON
                              instead of an archived baseline (check)
    --verify                  check archive integrity instead of measuring
                              (archive); reports line and byte offset of
                              every corrupt record

SHARED ARCHIVE SERVICE:
    --listen <host:port>      serve's listen address (default 127.0.0.1:7878)
    --store-url <host:port>   talk to a shared archive service instead of
                              the local --store directory (archive, history,
                              check, trend, campaign)
    --spool <dir>             write-ahead spool for uploads the server could
                              not take (campaign; default <store>/spool)

CAMPAIGN ORCHESTRATION:
    --benchmarks <a,b,...>    benchmark axis (default: the whole suite)
    --engines <interp,jit>    engine axis (default: interp,jit)
    --variants <NxM,...>      invocations-x-iterations axis (default: -n/-i)
    --seeds <a,b,...>         explicit seed axis (default: --seed)
    --repeats <N>             N consecutive seeds from --seed (excludes
                              --seeds)
    --workers <N>             worker threads (default 4)
    --arrival <spec>          inter-cell arrival process: immediate (default),
                              uniform:MS, or poisson:MS mean delay
    --plan                    print the cell grid without executing it
    --max-cells <N>           execute exactly the first N pending cells in
                              grid order, on any worker count (campaign
                              stays resumable)
    --resume <file>           resume a torn campaign from its journal

ADAPTIVE PRECISION:
    --precision <0.xx>        target relative CI half-width per cell (0.02 =
                              ±2%); turns the campaign into a feedback-driven
                              scheduler that pilots every cell, then grants
                              invocations where the CI is widest
    --budget <N>              global invocation budget across the grid;
                              when it binds, remaining invocations are split
                              σ-proportionally (Neyman) across unmet cells
    --plan-only               run only the pilot round and print the
                              allocation table; nothing is archived

TREND ANALYSIS:
    --min-segment <N>         minimum runs per trend segment (default 2)
    --penalty <auto|bic|F>    segmentation penalty: stability-swept (auto,
                              the default), plain BIC, or an explicit factor
    --alerts                  annotate `history` output with detected shifts

DIFFERENTIAL VERIFICATION:
    --manifest <file>         golden checksum manifest (default
                              tests/fixtures/suite_checksums.json; regenerate
                              with BLESS=1 rigor verify)
    --sizes <small,default,large>
                              size axis of the grid (default: all three)
    --seeds <a,b,...>         seed axis of the grid (default: 1,2,3)
    --workers <N>             worker threads (default 4)
    --json <file>             write the verification report as JSON
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_measure_with_flags() {
        let (cmd, opts) = parse_args(&argv(
            "measure sieve -n 5 -i 12 --engine jit --size small --seed 0xff",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Measure {
                benchmark: "sieve".into()
            }
        );
        assert_eq!(opts.invocations, 5);
        assert_eq!(opts.iterations, 12);
        assert!(matches!(opts.engine, EngineKind::Jit(_)));
        assert_eq!(opts.size, Size::Small);
        assert_eq!(opts.seed, 0xff);
    }

    #[test]
    fn flags_may_precede_the_command() {
        let (cmd, opts) = parse_args(&argv("--seed 9 compare leibniz")).unwrap();
        assert_eq!(
            cmd,
            Command::Compare {
                benchmark: "leibniz".into()
            }
        );
        assert_eq!(opts.seed, 9);
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse_args(&argv("")).unwrap().0, Command::Help);
        assert_eq!(parse_args(&argv("help")).unwrap().0, Command::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap().0, Command::Help);
    }

    #[test]
    fn missing_values_and_unknowns_error() {
        assert!(parse_args(&argv("measure")).is_err());
        assert!(parse_args(&argv("measure sieve --invocations")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("measure sieve --engine pypy")).is_err());
        assert!(parse_args(&argv("measure sieve extra")).is_err());
        assert!(parse_args(&argv("measure sieve --wat 3")).is_err());
    }

    #[test]
    fn confidence_bounds() {
        assert!(parse_args(&argv("suite --confidence 0.99")).is_ok());
        assert!(parse_args(&argv("suite --confidence 1.5")).is_err());
        assert!(parse_args(&argv("suite --confidence 0.2")).is_err());
    }

    #[test]
    fn export_flags() {
        let (_, opts) = parse_args(&argv("measure sieve --json out.json --csv out.csv")).unwrap();
        assert_eq!(opts.json_out.as_deref(), Some("out.json"));
        assert_eq!(opts.csv_out.as_deref(), Some("out.csv"));
    }

    #[test]
    fn observability_flags() {
        let (cmd, opts) =
            parse_args(&argv("measure sieve --progress --trace t.jsonl --quiet")).unwrap();
        assert_eq!(
            cmd,
            Command::Measure {
                benchmark: "sieve".into()
            }
        );
        assert!(opts.progress);
        assert!(opts.quiet);
        assert_eq!(opts.trace.as_deref(), Some("t.jsonl"));
        assert!(parse_args(&argv("measure sieve --trace")).is_err());
    }

    #[test]
    fn trace_summary_takes_a_path() {
        assert_eq!(
            parse_args(&argv("trace-summary t.jsonl")).unwrap().0,
            Command::TraceSummary {
                path: "t.jsonl".into()
            }
        );
        assert!(parse_args(&argv("trace-summary")).is_err());
    }

    #[test]
    fn fault_tolerance_flags() {
        let (_, opts) = parse_args(&argv(
            "measure sieve --deadline-ns 5e7 --fuel 100000 --max-retries 3 \
             --quarantine-threshold 0.25 --journal j.jsonl --resume old.jsonl",
        ))
        .unwrap();
        assert_eq!(opts.deadline_ns, Some(5.0e7));
        assert_eq!(opts.fuel, Some(100_000));
        assert_eq!(opts.max_retries, Some(3));
        assert_eq!(opts.quarantine_threshold, Some(0.25));
        assert_eq!(opts.journal.as_deref(), Some("j.jsonl"));
        assert_eq!(opts.resume.as_deref(), Some("old.jsonl"));
    }

    #[test]
    fn fault_tolerance_flags_validate_values() {
        assert!(parse_args(&argv("measure sieve --deadline-ns -1")).is_err());
        assert!(parse_args(&argv("measure sieve --deadline-ns nan")).is_err());
        assert!(parse_args(&argv("measure sieve --fuel 0")).is_err());
        assert!(parse_args(&argv("measure sieve --max-retries x")).is_err());
        assert!(parse_args(&argv("measure sieve --quarantine-threshold 1.5")).is_err());
        assert!(parse_args(&argv("measure sieve --journal")).is_err());
        assert!(parse_args(&argv("measure sieve --resume")).is_err());
    }

    #[test]
    fn archive_history_check_parse() {
        assert_eq!(
            parse_args(&argv("archive")).unwrap().0,
            Command::Archive { benchmark: None }
        );
        assert_eq!(
            parse_args(&argv("archive sieve --label nightly"))
                .unwrap()
                .0,
            Command::Archive {
                benchmark: Some("sieve".into())
            }
        );
        assert_eq!(
            parse_args(&argv("history sieve")).unwrap().0,
            Command::History {
                benchmark: "sieve".into()
            }
        );
        assert!(parse_args(&argv("history")).is_err());
        assert_eq!(
            parse_args(&argv("check")).unwrap().0,
            Command::Check { benchmark: None }
        );
        assert!(parse_args(&argv("archive sieve extra")).is_err());
    }

    #[test]
    fn store_flags_parse_and_validate() {
        let (_, opts) = parse_args(&argv(
            "check --store /tmp/s --baseline last-3 --fdr 0.1 \
             --max-regression 2.5 --correction holm --label tag",
        ))
        .unwrap();
        assert_eq!(opts.store, "/tmp/s");
        assert_eq!(opts.baseline.as_deref(), Some("last-3"));
        assert_eq!(opts.fdr, Some(0.1));
        assert_eq!(opts.max_regression_pct, Some(2.5));
        assert_eq!(opts.correction, Some(rigor::Correction::HolmBonferroni));
        assert_eq!(opts.label.as_deref(), Some("tag"));
        // Defaults.
        let (_, opts) = parse_args(&argv("check")).unwrap();
        assert_eq!(opts.store, ".rigor-store");
        assert_eq!(opts.baseline, None);
        // Validation.
        assert!(parse_args(&argv("check --fdr 0")).is_err());
        assert!(parse_args(&argv("check --fdr 1.5")).is_err());
        assert!(parse_args(&argv("check --max-regression -1")).is_err());
        assert!(parse_args(&argv("check --correction nope")).is_err());
        assert!(parse_args(&argv("check --baseline")).is_err());
    }

    #[test]
    fn trend_flags_parse_and_validate() {
        assert_eq!(
            parse_args(&argv("trend")).unwrap().0,
            Command::Trend { benchmark: None }
        );
        let (cmd, opts) =
            parse_args(&argv("trend sieve --min-segment 3 --penalty bic --alerts")).unwrap();
        assert_eq!(
            cmd,
            Command::Trend {
                benchmark: Some("sieve".into())
            }
        );
        assert_eq!(opts.min_segment, Some(3));
        assert_eq!(opts.penalty, Some(rigor::Penalty::Bic));
        assert!(opts.alerts);
        let (_, opts) = parse_args(&argv("trend --penalty 2.5")).unwrap();
        assert_eq!(opts.penalty, Some(rigor::Penalty::Factor(2.5)));
        let (_, opts) = parse_args(&argv("history sieve --alerts")).unwrap();
        assert!(opts.alerts);
        // Validation: bad penalties and a zero minimum are usage errors.
        assert!(parse_args(&argv("trend --penalty bogus")).is_err());
        assert!(parse_args(&argv("trend --penalty -1")).is_err());
        assert!(parse_args(&argv("trend --penalty 0")).is_err());
        assert!(parse_args(&argv("trend --penalty nan")).is_err());
        assert!(parse_args(&argv("trend --min-segment 0")).is_err());
        assert!(parse_args(&argv("trend --min-segment x")).is_err());
        assert!(parse_args(&argv("trend sieve extra")).is_err());
    }

    #[test]
    fn campaign_flags_parse_and_validate() {
        let (cmd, opts) = parse_args(&argv(
            "campaign --benchmarks sieve,nbody --engines interp,jit \
             --variants 2x3,5x10 --seeds 1,2,0x10 --workers 2 \
             --arrival poisson:5 --max-cells 3 --plan",
        ))
        .unwrap();
        assert_eq!(cmd, Command::Campaign);
        assert_eq!(
            opts.benchmarks,
            Some(vec!["sieve".to_string(), "nbody".to_string()])
        );
        let engines = opts.engines.unwrap();
        assert_eq!(engines.len(), 2);
        assert!(matches!(engines[0], EngineKind::Interp));
        assert!(matches!(engines[1], EngineKind::Jit(_)));
        let variants = opts.variants.unwrap();
        assert_eq!(variants[0].invocations, 2);
        assert_eq!(variants[1].iterations, 10);
        assert_eq!(opts.seeds, Some(vec![1, 2, 0x10]));
        assert_eq!(opts.workers, 2);
        assert_eq!(
            opts.arrival,
            rigor::ArrivalProcess::Poisson { mean_ms: 5.0 }
        );
        assert_eq!(opts.max_cells, Some(3));
        assert!(opts.plan);

        let (_, opts) = parse_args(&argv("campaign --repeats 4")).unwrap();
        assert_eq!(opts.repeats, Some(4));
        assert_eq!(opts.workers, 4, "default worker count");

        assert!(parse_args(&argv("campaign --seeds 1 --repeats 2")).is_err());
        assert!(parse_args(&argv("campaign --engines pypy")).is_err());
        assert!(parse_args(&argv("campaign --variants 2by3")).is_err());
        assert!(parse_args(&argv("campaign --workers 0")).is_err());
        assert!(parse_args(&argv("campaign --repeats 0")).is_err());
        assert!(parse_args(&argv("campaign --max-cells 0")).is_err());
        assert!(parse_args(&argv("campaign --arrival sometimes")).is_err());
        assert!(parse_args(&argv("campaign extra")).is_err());
    }

    #[test]
    fn adaptive_precision_flags_parse_and_validate() {
        let (cmd, opts) =
            parse_args(&argv("campaign --precision 0.02 --budget 500 --plan-only")).unwrap();
        assert_eq!(cmd, Command::Campaign);
        assert_eq!(opts.precision, Some(0.02));
        assert_eq!(opts.budget, Some(500));
        assert!(opts.plan_only);

        assert_eq!(parse_args(&argv("plan")).unwrap().0, Command::Plan);
        let (_, opts) = parse_args(&argv("plan --precision 0.05 --store /tmp/s")).unwrap();
        assert_eq!(opts.precision, Some(0.05));
        assert_eq!(opts.store, "/tmp/s");

        assert!(parse_args(&argv("campaign --precision 0")).is_err());
        assert!(parse_args(&argv("campaign --precision 1")).is_err());
        assert!(parse_args(&argv("campaign --precision lots")).is_err());
        assert!(parse_args(&argv("campaign --budget 0")).is_err());
        assert!(parse_args(&argv("campaign --budget")).is_err());
        assert!(parse_args(&argv("plan extra")).is_err());
    }

    #[test]
    fn invalid_experiment_shapes_are_usage_errors() {
        assert!(parse_args(&argv("measure sieve -n 0")).is_err());
        assert!(parse_args(&argv("suite -i 0")).is_err());
        assert!(parse_args(&argv("campaign -n 0")).is_err());
    }

    #[test]
    fn verify_flags_parse() {
        let (cmd, opts) = parse_args(&argv(
            "verify --sizes small,large --seeds 1,2 --manifest m.json --workers 8",
        ))
        .unwrap();
        assert_eq!(cmd, Command::Verify);
        assert_eq!(opts.sizes, Some(vec![Size::Small, Size::Large]));
        assert_eq!(opts.seeds, Some(vec![1, 2]));
        assert_eq!(opts.manifest.as_deref(), Some("m.json"));
        assert_eq!(opts.workers, 8);

        let (cmd, opts) = parse_args(&argv("verify")).unwrap();
        assert_eq!(cmd, Command::Verify);
        assert_eq!(opts.sizes, None, "default: all three sizes");
        assert_eq!(opts.manifest, None, "default: the committed fixture");

        assert!(parse_args(&argv("verify --sizes huge")).is_err());
        assert!(parse_args(&argv("verify --sizes")).is_err());
        assert!(parse_args(&argv("verify extra")).is_err());
    }

    #[test]
    fn check_baseline_json_parses() {
        let (_, opts) = parse_args(&argv("check --baseline-json BENCH.json")).unwrap();
        assert_eq!(opts.baseline_json.as_deref(), Some("BENCH.json"));
        assert!(parse_args(&argv("check --baseline-json")).is_err());
    }

    #[test]
    fn serve_and_remote_store_flags_parse() {
        let (cmd, opts) = parse_args(&argv("serve --listen 0.0.0.0:9000 --store /tmp/s")).unwrap();
        assert_eq!(cmd, Command::Serve);
        assert_eq!(opts.listen, "0.0.0.0:9000");
        assert_eq!(opts.store, "/tmp/s");
        let (_, opts) = parse_args(&argv("serve")).unwrap();
        assert_eq!(opts.listen, "127.0.0.1:7878", "default listen address");

        let (_, opts) = parse_args(&argv(
            "campaign --store-url 127.0.0.1:7878 --spool /tmp/spool",
        ))
        .unwrap();
        assert_eq!(opts.store_url.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(opts.spool.as_deref(), Some("/tmp/spool"));

        let (_, opts) = parse_args(&argv("archive --verify")).unwrap();
        assert!(opts.verify);

        assert!(parse_args(&argv("serve extra")).is_err());
        assert!(parse_args(&argv("campaign --store-url")).is_err());
        assert!(parse_args(&argv("campaign --store-url http://")).is_err());
        // The server owns the baseline.
        assert!(parse_args(&argv("check --store-url h:1 --baseline-json b.json")).is_err());
    }

    #[test]
    fn self_test_parses() {
        assert_eq!(parse_args(&argv("self-test")).unwrap().0, Command::SelfTest);
        assert!(parse_args(&argv("self-test extra")).is_err());
    }

    #[test]
    fn run_and_disasm_take_paths() {
        assert_eq!(
            parse_args(&argv("run bench.mp")).unwrap().0,
            Command::Run {
                path: "bench.mp".into()
            }
        );
        assert_eq!(
            parse_args(&argv("disasm bench.mp")).unwrap().0,
            Command::Disasm {
                path: "bench.mp".into()
            }
        );
    }
}
