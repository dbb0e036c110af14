//! Seeded input generator for the `serve_stream` and `gate_history`
//! workloads.
//!
//! It builds cell-shaped and suite-shaped [`RunRecord`]s through
//! [`RunRecord::new`] without ever running the VM, so a change to `minipy`
//! cannot move these two workloads. Every iteration series has a warm-up
//! prefix that decays onto a noisy plateau. Level shifts (30 % up, or back
//! down to the base level) are planted at known runs, so the verdicts of the
//! regression gate and the trend analysis are known in advance.
//!
//! The VM is deterministic: runs of unchanged code are bit-identical, and
//! only a code change moves a benchmark's numbers. The generator mirrors
//! that. Each benchmark draws one measurement per *level epoch* and every run
//! in the epoch carries it verbatim; a planted shift starts a new epoch with
//! a freshly drawn measurement at the new level. The same seed gives
//! byte-identical records.

use rigor::measurement::{BenchmarkMeasurement, InvocationRecord, IterationCounters};
use rigor::ExperimentConfig;
use rigor_store::RunRecord;
use rigor_workloads::Size;

/// The 29 suite benchmark names, as `rigor archive` writes them. Fixed here
/// rather than read from the registry, so a registry change cannot move the
/// generated inputs either.
pub const SUITE: [&str; 29] = [
    "nbody_lite",
    "spectral",
    "leibniz",
    "sieve",
    "kmeans_lite",
    "matmul",
    "dict_churn",
    "str_keys",
    "list_sort",
    "graph_bfs",
    "json_like",
    "string_builder",
    "word_count",
    "substring_scan",
    "fib_recursive",
    "richards_lite",
    "queens",
    "raytrace_lite",
    "json_build",
    "csv_roundtrip",
    "call_tower_mono",
    "call_tower_poly",
    "iter_churn",
    "polymorph",
    "startup_heavy",
    "gc_pressure",
    "phase_shift",
    "warmup_cliff",
    "sawtooth",
];

/// Relative size of a planted level shift.
pub const SHIFT: f64 = 0.30;

/// A splitmix64 stream: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_CAFE_F00D_D00D)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal draw (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// The indices `0..n` in a seeded random order.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// The experiment shape of a generated measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// VM invocations.
    pub invocations: u32,
    /// Iterations per invocation.
    pub iterations: u32,
    /// Leading warm-up iterations per invocation.
    pub warmup: u32,
}

/// One campaign cell at `-n 2 -i 10`: CI's campaign smoke uses `-i 5`, but
/// the steady-state detector needs 8 iterations before `rigor trend` can use
/// a run, so cells get the smallest shape the trend analysis accepts.
pub const CELL: Shape = Shape {
    invocations: 2,
    iterations: 10,
    warmup: 2,
};

/// One suite run as CI's regression-gate smoke archives it (`-n 4 -i 20`).
pub const SUITE_RUN: Shape = Shape {
    invocations: 4,
    iterations: 20,
    warmup: 4,
};

/// The config a generated record claims to have been measured under.
pub fn config(shape: Shape, seed: u64) -> ExperimentConfig {
    ExperimentConfig::interp()
        .with_invocations(shape.invocations)
        .with_iterations(shape.iterations)
        .with_size(Size::Small)
        .with_seed(seed)
        .with_threads(1)
}

/// One benchmark's measurement at `level_ns` per steady iteration: each
/// invocation starts `warmup` iterations above the plateau, decaying onto
/// it, then varies ±1 % per iteration around an invocation offset of ±0.5 %.
pub fn measurement(
    rng: &mut Rng,
    benchmark: &str,
    shape: Shape,
    level_ns: f64,
) -> BenchmarkMeasurement {
    let checksum = format!("{}", rng.next_u64() % 1_000_000_007);
    let invocations = (0..shape.invocations)
        .map(|invocation| {
            let offset = 1.0 + 0.005 * rng.normal();
            let mut iteration_ns = Vec::with_capacity(shape.iterations as usize);
            let mut counters = Vec::with_capacity(shape.iterations as usize);
            for i in 0..shape.iterations {
                let warm = if i < shape.warmup {
                    1.0 + 1.5 * f64::from(shape.warmup - i) / f64::from(shape.warmup)
                } else {
                    1.0
                };
                let noise = 1.0 + 0.01 * rng.normal();
                iteration_ns.push((level_ns * offset * warm * noise).round());
                counters.push(IterationCounters {
                    gc_cycles: u64::from(i % 3 == 0),
                    jit_compiles: u64::from(i < shape.warmup),
                    deopts: 0,
                });
            }
            InvocationRecord {
                invocation,
                seed: rng.next_u64(),
                startup_ns: (level_ns * (2.0 + rng.unit())).round(),
                gc_cycles: counters.iter().map(|c| c.gc_cycles).sum(),
                jit_compiles: counters.iter().map(|c| c.jit_compiles).sum(),
                deopts: 0,
                iteration_ns,
                checksum: checksum.clone(),
                iteration_counters: Some(counters),
                attempts: 1,
            }
        })
        .collect();
    BenchmarkMeasurement {
        benchmark: benchmark.to_string(),
        engine: "interp".to_string(),
        invocations,
        censored: Vec::new(),
        quarantined: false,
    }
}

/// Per-benchmark steady levels, log-uniform between 20 µs and 2 ms.
fn base_levels(rng: &mut Rng) -> Vec<f64> {
    SUITE
        .iter()
        .map(|_| (20_000f64.ln() + rng.unit() * (100f64).ln()).exp().round())
        .collect()
}

/// The shifted level: up by [`SHIFT`] from the base, or back down to it, so
/// levels stay bounded however many shifts a benchmark takes.
fn shifted(level: f64, base: f64) -> f64 {
    if level > base {
        base
    } else {
        base * (1.0 + SHIFT)
    }
}

/// The `gate_history` input: a suite-shaped archive with planted shifts, a
/// current run to gate, and the verdicts both analyses must reach.
#[derive(Debug, Clone)]
pub struct GateInput {
    /// The archive, oldest first (`seq` = index).
    pub runs: Vec<RunRecord>,
    /// The current run `rigor check` would gate.
    pub current: Vec<BenchmarkMeasurement>,
    /// Benchmarks the gate must report regressed, sorted.
    pub regressed: Vec<String>,
    /// Benchmarks the trend analysis must alert on (shift at HEAD), sorted.
    pub alerts: Vec<String>,
    /// Changepoints the trend analysis must find.
    pub changepoints: usize,
}

/// Builds the `gate_history` input: `runs` suite runs (at least 8). Three
/// benchmarks shift mid-history, two shift in the last two runs (at HEAD),
/// and three more are 30 % slower in the current run than in the archive.
pub fn gate_input(seed: u64, runs: usize) -> GateInput {
    assert!(runs >= 8, "the planted shifts need at least 8 runs");
    let mut rng = Rng::new(seed);
    let config = config(SUITE_RUN, 1);
    let base = base_levels(&mut rng);
    let order = rng.permutation(SUITE.len());
    let (mid, rest) = order.split_at(3);
    let (head, rest) = rest.split_at(2);
    let regressed = &rest[..3];

    // Each benchmark's epochs: (first run, measurement).
    let mut epochs: Vec<Vec<(usize, BenchmarkMeasurement)>> = Vec::with_capacity(SUITE.len());
    for (b, name) in SUITE.iter().enumerate() {
        let mut level = base[b];
        let mut list = vec![(0, measurement(&mut rng, name, SUITE_RUN, level))];
        let shift_at = if mid.contains(&b) {
            Some(runs / 2)
        } else if head.contains(&b) {
            Some(runs - 2)
        } else {
            None
        };
        if let Some(at) = shift_at {
            level = shifted(level, base[b]);
            list.push((at, measurement(&mut rng, name, SUITE_RUN, level)));
        }
        epochs.push(list);
    }
    let at_run = |b: usize, run: usize| -> &BenchmarkMeasurement {
        &epochs[b]
            .iter()
            .rev()
            .find(|(start, _)| *start <= run)
            .expect("epoch 0 starts at run 0")
            .1
    };
    let records = (0..runs)
        .map(|run| {
            let measurements = (0..SUITE.len()).map(|b| at_run(b, run).clone()).collect();
            RunRecord::new(
                run as u64,
                Some(format!("nightly-{run}")),
                &config,
                measurements,
            )
        })
        .collect();
    let current = (0..SUITE.len())
        .map(|b| {
            if regressed.contains(&b) {
                let last = at_run(b, runs - 1);
                let level = steady_level(last);
                measurement(&mut rng, SUITE[b], SUITE_RUN, level * (1.0 + SHIFT))
            } else {
                at_run(b, runs - 1).clone()
            }
        })
        .collect();
    GateInput {
        runs: records,
        current,
        regressed: sorted_names(regressed),
        alerts: sorted_names(head),
        changepoints: mid.len() + head.len(),
    }
}

/// The plateau level a generated measurement was drawn at, recovered from
/// its last iterations.
fn steady_level(m: &BenchmarkMeasurement) -> f64 {
    let tails: Vec<f64> = m
        .invocations
        .iter()
        .filter_map(|r| r.iteration_ns.last().copied())
        .collect();
    tails.iter().sum::<f64>() / tails.len().max(1) as f64
}

fn sorted_names(indices: &[usize]) -> Vec<String> {
    let mut names: Vec<String> = indices.iter().map(|&i| SUITE[i].to_string()).collect();
    names.sort();
    names
}

/// VM seeds of one generated campaign, as CI's `--seeds 1,2`.
pub const CELL_SEEDS: [u64; 2] = [1, 2];

/// Every this many campaigns, one benchmark's level shifts.
pub const SHIFT_EVERY: u64 = 4;

/// One generated campaign: its cell records and what it planted.
#[derive(Debug, Clone)]
pub struct CellBatch {
    /// 0-based campaign number in the stream.
    pub index: u64,
    /// The cell records, one per benchmark × VM seed, in grid order.
    pub records: Vec<RunRecord>,
    /// The benchmark whose level shifted in this campaign, if any.
    pub shifted: Option<String>,
    /// Level shifts planted so far, this campaign's included.
    pub shifts_so_far: usize,
}

/// An endless stream of cell-shaped campaigns (`serve_stream`): each holds
/// the 29 benchmarks × [`CELL_SEEDS`] cells one CI campaign uploads, with
/// sequence numbers that continue across campaigns. Every
/// [`SHIFT_EVERY`]-th campaign shifts one benchmark's level, visiting the
/// benchmarks in a seeded round-robin so none collects more shifts than the
/// trend analysis can segment.
#[derive(Debug, Clone)]
pub struct CellStream {
    rng: Rng,
    base: Vec<f64>,
    levels: Vec<f64>,
    current: Vec<BenchmarkMeasurement>,
    order: Vec<usize>,
    configs: Vec<ExperimentConfig>,
    next_index: u64,
    next_seq: u64,
    shifts: usize,
}

impl CellStream {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> CellStream {
        let mut rng = Rng::new(seed ^ 0xCE11);
        let base = base_levels(&mut rng);
        let current = SUITE
            .iter()
            .zip(&base)
            .map(|(name, &level)| measurement(&mut rng, name, CELL, level))
            .collect();
        let order = rng.permutation(SUITE.len());
        CellStream {
            rng,
            levels: base.clone(),
            base,
            current,
            order,
            configs: CELL_SEEDS.iter().map(|&s| config(CELL, s)).collect(),
            next_index: 0,
            next_seq: 0,
            shifts: 0,
        }
    }

    /// The next campaign.
    pub fn next_batch(&mut self) -> CellBatch {
        let index = self.next_index;
        self.next_index += 1;
        let mut shifted_benchmark = None;
        if index % SHIFT_EVERY == SHIFT_EVERY - 1 {
            let b = self.order[self.shifts % SUITE.len()];
            self.shifts += 1;
            self.levels[b] = shifted(self.levels[b], self.base[b]);
            self.current[b] = measurement(&mut self.rng, SUITE[b], CELL, self.levels[b]);
            shifted_benchmark = Some(SUITE[b].to_string());
        }
        let mut records = Vec::with_capacity(SUITE.len() * CELL_SEEDS.len());
        for (b, name) in SUITE.iter().enumerate() {
            for (config, seed) in self.configs.iter().zip(CELL_SEEDS) {
                let label = format!(
                    "{name}/interp/{}x{}/{seed}",
                    CELL.invocations, CELL.iterations
                );
                records.push(RunRecord::new(
                    self.next_seq,
                    Some(label),
                    config,
                    vec![self.current[b].clone()],
                ));
                self.next_seq += 1;
            }
        }
        CellBatch {
            index,
            records,
            shifted: shifted_benchmark,
            shifts_so_far: self.shifts,
        }
    }

    /// A seeded pick of `count` distinct indices below `n` — which
    /// acknowledged records a spool replay re-sends.
    pub fn pick(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut picked = self.rng.permutation(n);
        picked.truncate(count);
        picked.sort_unstable();
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigor_store::record_line;

    fn lines(records: &[RunRecord]) -> Vec<String> {
        records.iter().map(record_line).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_records() {
        let a = gate_input(7, 12);
        let b = gate_input(7, 12);
        assert_eq!(lines(&a.runs), lines(&b.runs));
        assert_eq!(a.current, b.current);
        let mut s1 = CellStream::new(7);
        let mut s2 = CellStream::new(7);
        for _ in 0..6 {
            assert_eq!(
                lines(&s1.next_batch().records),
                lines(&s2.next_batch().records)
            );
        }
        assert_eq!(s1.pick(58, 4), s2.pick(58, 4));
    }

    #[test]
    fn different_seeds_give_different_records() {
        assert_ne!(
            lines(&gate_input(1, 12).runs),
            lines(&gate_input(2, 12).runs)
        );
        assert_ne!(
            lines(&CellStream::new(1).next_batch().records),
            lines(&CellStream::new(2).next_batch().records)
        );
    }

    #[test]
    fn gate_input_plants_disjoint_known_shifts() {
        let input = gate_input(3, 12);
        assert_eq!(input.runs.len(), 12);
        assert!(input
            .runs
            .iter()
            .all(|r| r.measurements.len() == SUITE.len()));
        assert_eq!(input.current.len(), SUITE.len());
        assert_eq!(input.regressed.len(), 3);
        assert_eq!(input.alerts.len(), 2);
        assert_eq!(input.changepoints, 5);
        assert!(input.regressed.iter().all(|r| !input.alerts.contains(r)));
        // Unchanged benchmarks repeat bit-identically, as a deterministic VM's
        // runs do.
        let first = &input.runs[0].measurements;
        let last = &input.runs[11].measurements;
        let same = first.iter().zip(last).filter(|(a, b)| a == b).count();
        assert_eq!(same, SUITE.len() - 5);
    }

    #[test]
    fn cell_stream_shifts_every_fourth_campaign() {
        let mut stream = CellStream::new(5);
        let batches: Vec<CellBatch> = (0..8).map(|_| stream.next_batch()).collect();
        for b in &batches {
            assert_eq!(b.records.len(), SUITE.len() * CELL_SEEDS.len());
            assert_eq!(
                b.shifted.is_some(),
                b.index % SHIFT_EVERY == SHIFT_EVERY - 1
            );
        }
        assert_eq!(batches[7].shifts_so_far, 2);
        let seqs: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.records.iter().map(|r| r.seq))
            .collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn series_have_a_warmup_prefix_above_the_plateau() {
        let mut rng = Rng::new(1);
        let m = measurement(&mut rng, "sieve", SUITE_RUN, 100_000.0);
        for inv in &m.invocations {
            assert!(inv.iteration_ns[0] > 2.0 * inv.iteration_ns[19]);
            let plateau = &inv.iteration_ns[4..];
            let mean = plateau.iter().sum::<f64>() / plateau.len() as f64;
            assert!((mean / 100_000.0 - 1.0).abs() < 0.05);
        }
    }
}
