//! Differential verification of the suite: the (workload × size × engine
//! × seed) grid, its golden checksum manifest, and the typed report.
//!
//! Every workload's checksum is an oracle: deterministic for a given
//! (workload, size) across engines, seeds and iteration counts. This
//! module expands the full verification grid, compares every cell against
//! the committed manifest (`tests/fixtures/suite_checksums.json`),
//! cross-checks interp-vs-JIT equivalence per (workload, size, seed), and
//! folds the outcomes into a [`VerifyReport`] whose failures name the
//! exact cell and the expected/actual checksums.
//!
//! Execution of the grid is the driver's job (`rigor::verify` runs it on
//! the campaign scheduler's worker pool); everything here is pure: grid
//! expansion, single-cell execution, manifest I/O, report construction.

use std::collections::BTreeMap;

use minipy::{EngineKind, JitConfig, JitMode, Session, VmConfig};
use serde::json::JsonValue;

use crate::registry::{lookup, suite, Size};

/// How many iterations a verification cell runs: two, so the oracle also
/// proves the checksum does not depend on the iteration count reached.
pub const CELL_ITERATIONS: u32 = 2;

/// Stable manifest-key label for a size preset.
pub fn size_label(size: Size) -> &'static str {
    match size {
        Size::Small => "small",
        Size::Default => "default",
        Size::Large => "large",
    }
}

/// Parses a [`size_label`] back to the preset.
pub fn parse_size(label: &str) -> Option<Size> {
    match label {
        "small" => Some(Size::Small),
        "default" => Some(Size::Default),
        "large" => Some(Size::Large),
        _ => None,
    }
}

/// All three size presets, in manifest order.
pub const ALL_SIZES: [Size; 3] = [Size::Small, Size::Default, Size::Large];

/// Engine axis of the verification grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyEngine {
    /// The interpreter.
    Interp,
    /// The JIT, eagerly configured (tiny hot threshold) so compiled code
    /// is actually on the hot path within [`CELL_ITERATIONS`] iterations.
    Jit,
}

impl VerifyEngine {
    /// Both engines, in grid order.
    pub const ALL: [VerifyEngine; 2] = [VerifyEngine::Interp, VerifyEngine::Jit];

    /// Stable name used in cell ids.
    pub fn name(self) -> &'static str {
        match self {
            VerifyEngine::Interp => "interp",
            VerifyEngine::Jit => "jit",
        }
    }

    /// The VM configuration this grid axis runs under.
    pub fn vm_config(self) -> VmConfig {
        match self {
            VerifyEngine::Interp => VmConfig::interp(),
            VerifyEngine::Jit => VmConfig {
                engine: EngineKind::Jit(JitConfig {
                    hot_threshold: 10,
                    max_guard_failures: 2,
                    mode: JitMode::Full,
                }),
                ..VmConfig::default()
            },
        }
    }
}

/// One cell of the verification grid.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VerifyCell {
    /// Workload name (registry key).
    pub workload: String,
    /// Size preset.
    pub size: Size,
    /// Engine under test.
    pub engine: VerifyEngine,
    /// VM seed (perturbs hashing/layout, must not perturb the checksum).
    pub seed: u64,
}

impl VerifyCell {
    /// Canonical cell id: `workload/size/engine/seed`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.workload,
            size_label(self.size),
            self.engine.name(),
            self.seed
        )
    }

    /// The manifest key this cell is checked against. Checksums are
    /// engine- and seed-invariant by design, so the manifest needs one
    /// entry per (workload, size), not one per cell.
    pub fn manifest_key(&self) -> String {
        format!("{}/{}", self.workload, size_label(self.size))
    }

    /// Executes the cell: a fresh session, [`CELL_ITERATIONS`] iterations,
    /// every iteration must render the same checksum.
    pub fn execute(&self) -> Result<String, CellError> {
        let workload =
            lookup(&self.workload).map_err(|e| CellError::UnknownWorkload(e.to_string()))?;
        let src = workload.source(self.size);
        let mut session = Session::start(&src, self.seed, self.engine.vm_config())
            .map_err(|e| CellError::Vm(e.to_string()))?;
        let mut first: Option<String> = None;
        for _ in 0..CELL_ITERATIONS.max(1) {
            let r = session
                .run_iteration()
                .map_err(|e| CellError::Vm(e.to_string()))?;
            let sum = session.render(r.value);
            match &first {
                None => first = Some(sum),
                Some(f) if *f != sum => {
                    return Err(CellError::Unstable {
                        first: f.clone(),
                        later: sum,
                    })
                }
                Some(_) => {}
            }
        }
        Ok(first.expect("at least one iteration ran"))
    }
}

/// Why a cell failed to produce a stable checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The workload name is not in the registry.
    UnknownWorkload(String),
    /// The VM failed to compile or run the source.
    Vm(String),
    /// The checksum moved between iterations of one session.
    Unstable {
        /// Checksum of the first iteration.
        first: String,
        /// The differing later checksum.
        later: String,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::UnknownWorkload(msg) => f.write_str(msg),
            CellError::Vm(msg) => write!(f, "vm error: {msg}"),
            CellError::Unstable { first, later } => {
                write!(f, "checksum moved across iterations: {first} then {later}")
            }
        }
    }
}

impl std::error::Error for CellError {}

/// Expands the verification grid over the whole registry: every workload
/// × `sizes` × both engines × `seeds`, in canonical order.
pub fn grid(sizes: &[Size], seeds: &[u64]) -> Vec<VerifyCell> {
    let mut cells = Vec::new();
    for w in suite() {
        for &size in sizes {
            for engine in VerifyEngine::ALL {
                for &seed in seeds {
                    cells.push(VerifyCell {
                        workload: w.name.to_string(),
                        size,
                        engine,
                        seed,
                    });
                }
            }
        }
    }
    cells
}

/// The golden checksum manifest: `workload/size` → checksum, committed at
/// `tests/fixtures/suite_checksums.json` and regenerated with `BLESS=1`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Sorted manifest entries.
    pub entries: BTreeMap<String, String>,
}

impl Manifest {
    /// The pinned checksum for a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// Serializes to the committed format: sorted keys, 2-space indent,
    /// trailing newline — byte-identical across regenerations.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": {\n");
        let mut first = true;
        for (k, v) in &self.entries {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!("    \"{k}\": \"{v}\""));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses the committed format.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing `entries` object, or non-string values.
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let value: JsonValue = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let entries_val = value
            .get("entries")
            .ok_or_else(|| "manifest has no `entries` object".to_string())?;
        let pairs = match entries_val {
            JsonValue::Object(pairs) => pairs,
            other => {
                return Err(format!(
                    "`entries` must be an object, got {}",
                    other.type_name()
                ))
            }
        };
        let mut entries = BTreeMap::new();
        for (k, v) in pairs {
            let sum = v
                .as_str()
                .ok_or_else(|| format!("entry `{k}` must be a string checksum"))?;
            entries.insert(k.clone(), sum.to_string());
        }
        Ok(Manifest { entries })
    }
}

/// Outcome of one verified cell, most severe classification first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell failed to execute at all.
    Error(CellError),
    /// The manifest pins a different checksum for this cell.
    ChecksumMismatch {
        /// What the manifest pins.
        expected: String,
        /// What the cell computed.
        actual: String,
    },
    /// The two engines disagreed for this (workload, size, seed).
    EngineDivergence {
        /// The interpreter's checksum.
        interp: String,
        /// The JIT's checksum.
        jit: String,
    },
    /// The manifest has no entry covering this cell.
    MissingEntry {
        /// What the cell computed (the candidate pin).
        actual: String,
    },
    /// Checksum matched the manifest and the partner engine.
    Ok,
}

impl CellOutcome {
    /// Short machine label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Error(_) => "error",
            CellOutcome::ChecksumMismatch { .. } => "checksum-mismatch",
            CellOutcome::EngineDivergence { .. } => "engine-divergence",
            CellOutcome::MissingEntry { .. } => "missing-entry",
            CellOutcome::Ok => "ok",
        }
    }

    /// True for every variant except [`CellOutcome::Ok`].
    pub fn is_failure(&self) -> bool {
        !matches!(self, CellOutcome::Ok)
    }
}

/// One cell's verdict in the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// The verified cell.
    pub cell: VerifyCell,
    /// The computed checksum, when execution succeeded.
    pub checksum: Option<String>,
    /// The verdict.
    pub outcome: CellOutcome,
}

/// The typed result of verifying a grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Per-cell verdicts, in grid order.
    pub cells: Vec<CellReport>,
}

impl VerifyReport {
    /// True when every cell verified clean.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(|c| !c.outcome.is_failure())
    }

    /// The failing cells, in grid order.
    pub fn failures(&self) -> Vec<&CellReport> {
        self.cells
            .iter()
            .filter(|c| c.outcome.is_failure())
            .collect()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let failed = self.failures().len();
        if failed == 0 {
            format!("{} cells verified, all clean", self.cells.len())
        } else {
            format!("{} cells verified, {failed} FAILED", self.cells.len())
        }
    }

    /// Derives the golden manifest from a clean run: one entry per
    /// (workload, size), which every cell sharing the key must agree on.
    ///
    /// # Errors
    ///
    /// A failed cell, or two cells disagreeing on a shared key.
    pub fn to_manifest(&self) -> Result<Manifest, String> {
        let mut entries: BTreeMap<String, String> = BTreeMap::new();
        for c in &self.cells {
            let sum = match (&c.checksum, &c.outcome) {
                (Some(sum), outcome) if !matches!(outcome, CellOutcome::Error(_)) => sum,
                _ => return Err(format!("cell {} did not execute cleanly", c.cell.id())),
            };
            let key = c.cell.manifest_key();
            match entries.get(&key) {
                None => {
                    entries.insert(key, sum.clone());
                }
                Some(prev) if prev != sum => {
                    return Err(format!(
                        "cells disagree on {key}: {prev} vs {sum} (at {})",
                        c.cell.id()
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(Manifest { entries })
    }

    /// Serializes the report: summary counts plus full failure detail
    /// (every failure names its cell id and expected/actual checksums).
    pub fn to_json(&self) -> String {
        let failures = self.failures();
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str(&format!("  \"cells\": {},\n", self.cells.len()));
        out.push_str(&format!("  \"failed\": {},\n", failures.len()));
        out.push_str("  \"failures\": [");
        for (i, f) in failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"cell\": \"{}\", ", f.cell.id()));
            out.push_str(&format!("\"outcome\": \"{}\"", f.outcome.label()));
            match &f.outcome {
                CellOutcome::ChecksumMismatch { expected, actual } => {
                    out.push_str(&format!(
                        ", \"expected\": \"{expected}\", \"actual\": \"{actual}\""
                    ));
                }
                CellOutcome::EngineDivergence { interp, jit } => {
                    out.push_str(&format!(", \"interp\": \"{interp}\", \"jit\": \"{jit}\""));
                }
                CellOutcome::MissingEntry { actual } => {
                    out.push_str(&format!(", \"actual\": \"{actual}\""));
                }
                CellOutcome::Error(e) => {
                    out.push_str(&format!(", \"error\": \"{}\"", json_escape(&e.to_string())));
                }
                CellOutcome::Ok => {}
            }
            out.push('}');
        }
        if !failures.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Folds executed cells into a [`VerifyReport`]: each cell is compared
/// against the manifest (when given), and engine partners sharing a
/// (workload, size, seed) are cross-checked for equivalence.
pub fn build_report(
    results: Vec<(VerifyCell, Result<String, CellError>)>,
    manifest: Option<&Manifest>,
) -> VerifyReport {
    // Partner index: (workload, size, seed) → checksum per engine.
    let mut partner: BTreeMap<(String, &'static str, u64), [Option<String>; 2]> = BTreeMap::new();
    for (cell, result) in &results {
        if let Ok(sum) = result {
            let key = (cell.workload.clone(), size_label(cell.size), cell.seed);
            let slot = match cell.engine {
                VerifyEngine::Interp => 0,
                VerifyEngine::Jit => 1,
            };
            partner.entry(key).or_default()[slot] = Some(sum.clone());
        }
    }
    let cells = results
        .into_iter()
        .map(|(cell, result)| {
            let (checksum, outcome) = match result {
                Err(e) => (None, CellOutcome::Error(e)),
                Ok(sum) => {
                    let manifest_verdict = manifest
                        .map(|m| m.get(&cell.manifest_key()).map(|expected| expected == sum));
                    let pair =
                        partner.get(&(cell.workload.clone(), size_label(cell.size), cell.seed));
                    let diverged = pair.and_then(|p| match p {
                        [Some(i), Some(j)] if i != j => Some((i.clone(), j.clone())),
                        _ => None,
                    });
                    let outcome = match (manifest_verdict, diverged) {
                        (Some(Some(false)), _) => CellOutcome::ChecksumMismatch {
                            expected: manifest
                                .and_then(|m| m.get(&cell.manifest_key()))
                                .unwrap_or_default()
                                .to_string(),
                            actual: sum.clone(),
                        },
                        (_, Some((interp, jit))) => CellOutcome::EngineDivergence { interp, jit },
                        (Some(None), _) => CellOutcome::MissingEntry {
                            actual: sum.clone(),
                        },
                        _ => CellOutcome::Ok,
                    };
                    (Some(sum), outcome)
                }
            };
            CellReport {
                cell,
                checksum,
                outcome,
            }
        })
        .collect();
    VerifyReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(workload: &str, size: Size, engine: VerifyEngine, seed: u64) -> VerifyCell {
        VerifyCell {
            workload: workload.to_string(),
            size,
            engine,
            seed,
        }
    }

    #[test]
    fn grid_covers_the_whole_registry() {
        let cells = grid(&ALL_SIZES, &[1, 2]);
        assert_eq!(cells.len(), suite().len() * 3 * 2 * 2);
        // Canonical ids are unique.
        let mut ids: Vec<String> = cells.iter().map(VerifyCell::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn cell_ids_are_canonical() {
        let c = cell("sieve", Size::Small, VerifyEngine::Jit, 7);
        assert_eq!(c.id(), "sieve/small/jit/7");
        assert_eq!(c.manifest_key(), "sieve/small");
    }

    #[test]
    fn cells_execute_and_agree_across_engines_and_seeds() {
        let a = cell("sieve", Size::Small, VerifyEngine::Interp, 1)
            .execute()
            .unwrap();
        let b = cell("sieve", Size::Small, VerifyEngine::Jit, 99)
            .execute()
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, "95"); // primes below 500, the documented oracle
    }

    #[test]
    fn unknown_workload_cell_reports_the_suggestion() {
        let e = cell("Sieve", Size::Small, VerifyEngine::Interp, 1)
            .execute()
            .unwrap_err();
        match e {
            CellError::UnknownWorkload(msg) => assert!(msg.contains("did you mean 'sieve'")),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn manifest_round_trips_byte_identically() {
        let mut m = Manifest::default();
        m.entries.insert("sieve/small".into(), "95".into());
        m.entries.insert("leibniz/large".into(), "31415".into());
        let text = m.to_json();
        let back = Manifest::from_json(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_json(), text, "format must be stable");
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn manifest_parse_rejects_bad_shapes() {
        assert!(Manifest::from_json("not json").is_err());
        assert!(Manifest::from_json("{}").is_err());
        assert!(Manifest::from_json("{\"entries\": 3}").is_err());
        assert!(Manifest::from_json("{\"entries\": {\"k\": 5}}").is_err());
    }

    #[test]
    fn report_flags_checksum_mismatch_with_cell_id() {
        let mut m = Manifest::default();
        m.entries.insert("sieve/small".into(), "WRONG".into());
        let c = cell("sieve", Size::Small, VerifyEngine::Interp, 1);
        let sum = c.execute().unwrap();
        let report = build_report(vec![(c, Ok(sum))], Some(&m));
        assert!(!report.passed());
        let f = &report.failures()[0];
        assert_eq!(f.cell.id(), "sieve/small/interp/1");
        match &f.outcome {
            CellOutcome::ChecksumMismatch { expected, actual } => {
                assert_eq!(expected, "WRONG");
                assert_eq!(actual, "95");
            }
            other => panic!("wrong outcome: {other:?}"),
        }
        let json = report.to_json();
        assert!(json.contains("\"cell\": \"sieve/small/interp/1\""));
        assert!(json.contains("\"expected\": \"WRONG\""));
        assert!(json.contains("\"actual\": \"95\""));
    }

    #[test]
    fn report_flags_engine_divergence() {
        let a = cell("sieve", Size::Small, VerifyEngine::Interp, 1);
        let b = cell("sieve", Size::Small, VerifyEngine::Jit, 1);
        let report = build_report(vec![(a, Ok("95".into())), (b, Ok("96".into()))], None);
        assert!(!report.passed());
        assert_eq!(report.failures().len(), 2, "both partners are flagged");
        assert!(matches!(
            report.failures()[0].outcome,
            CellOutcome::EngineDivergence { .. }
        ));
    }

    #[test]
    fn report_flags_missing_manifest_entries() {
        let m = Manifest::default();
        let c = cell("sieve", Size::Small, VerifyEngine::Interp, 1);
        let report = build_report(vec![(c, Ok("95".into()))], Some(&m));
        assert!(!report.passed());
        assert!(matches!(
            report.failures()[0].outcome,
            CellOutcome::MissingEntry { .. }
        ));
    }

    #[test]
    fn clean_run_derives_the_manifest() {
        let cells = vec![
            (
                cell("sieve", Size::Small, VerifyEngine::Interp, 1),
                Ok("95".to_string()),
            ),
            (
                cell("sieve", Size::Small, VerifyEngine::Jit, 2),
                Ok("95".to_string()),
            ),
        ];
        let report = build_report(cells, None);
        assert!(report.passed());
        let m = report.to_manifest().unwrap();
        assert_eq!(m.get("sieve/small"), Some("95"));
        // Disagreeing cells refuse to bless.
        let bad = build_report(
            vec![
                (
                    cell("sieve", Size::Small, VerifyEngine::Interp, 1),
                    Ok("95".to_string()),
                ),
                (
                    cell("sieve", Size::Small, VerifyEngine::Jit, 1),
                    Ok("96".to_string()),
                ),
            ],
            None,
        );
        assert!(bad.to_manifest().is_err());
    }
}
