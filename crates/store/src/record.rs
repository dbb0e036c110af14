//! The archived unit: one run — a config fingerprint, host metadata and the
//! full per-benchmark measurements — content-addressed by its canonical
//! JSON payload.

use rigor::campaign::{Cell, CellPrecision, CellReceipt};
use rigor::measurement::BenchmarkMeasurement;
use rigor::ExperimentConfig;
use rigor_workloads::Size;
use serde::json::{get_field, DeError, JsonValue};
use serde::{Deserialize, Serialize};

use crate::hash::content_hash;

/// Version of the archived run-record schema.
pub const RECORD_SCHEMA_VERSION: u32 = 1;

/// The experiment-design identity of a run: enough to decide whether two
/// runs are statistically comparable. Engine is part of the fingerprint but
/// *not* of shape compatibility — comparing engines is the point of a
/// regression check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigFingerprint {
    /// Engine name (`"interp"` / `"jit"` / ...).
    pub engine: String,
    /// Requested invocation count.
    pub invocations: u32,
    /// Requested iterations per invocation.
    pub iterations: u32,
    /// Workload size preset label (`"small"` / `"default"` / `"large"`).
    pub size: String,
    /// Master experiment seed.
    pub seed: u64,
    /// Confidence level the experiment was configured with.
    pub confidence: f64,
}

/// The stable label of a size preset.
fn size_label(size: Size) -> &'static str {
    match size {
        Size::Small => "small",
        Size::Default => "default",
        Size::Large => "large",
    }
}

impl ConfigFingerprint {
    /// The fingerprint of `config`.
    pub fn of(config: &ExperimentConfig) -> ConfigFingerprint {
        ConfigFingerprint {
            engine: config.engine.name().to_string(),
            invocations: config.invocations,
            iterations: config.iterations,
            size: size_label(config.size).to_string(),
            seed: config.experiment_seed,
            confidence: config.confidence,
        }
    }

    /// True when two runs have the same experiment *shape* — invocations,
    /// iterations, size and seed — so their samples estimate the same
    /// quantity. Engine and confidence may differ.
    pub fn shape_matches(&self, other: &ConfigFingerprint) -> bool {
        self.invocations == other.invocations
            && self.iterations == other.iterations
            && self.size == other.size
            && self.seed == other.seed
    }
}

/// Where a run was produced. The simulated VM makes measurements
/// host-independent, but recording the host keeps the archive honest if
/// that ever changes (and mirrors what a real perf archive must store).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostMeta {
    /// `std::env::consts::OS` at archive time.
    pub os: String,
    /// `std::env::consts::ARCH` at archive time.
    pub arch: String,
    /// `std::env::consts::FAMILY` at archive time.
    pub family: String,
}

impl HostMeta {
    /// The current host.
    pub fn current() -> HostMeta {
        HostMeta {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            family: std::env::consts::FAMILY.to_string(),
        }
    }
}

/// One archived experiment run.
///
/// The `id` is the content hash of the run's canonical JSON payload (every
/// field below except the id itself), so identical measurements always get
/// identical ids, and any byte of corruption is detectable by re-hashing.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Content-addressed run id (32 hex chars; not part of the payload).
    pub id: String,
    /// Monotone sequence number assigned at append time.
    pub seq: u64,
    /// Optional human label (`--label nightly`, a commit hash, ...).
    pub label: Option<String>,
    /// Schema version of this record.
    pub schema_version: u32,
    /// Experiment-design identity.
    pub fingerprint: ConfigFingerprint,
    /// Where the run was produced.
    pub host: HostMeta,
    /// Full per-benchmark measurements.
    pub measurements: Vec<BenchmarkMeasurement>,
    /// Precision attainment, for cells archived by an adaptive campaign.
    /// Absent from the payload (and so from the content id) when `None`,
    /// which keeps pre-planner archive ids byte-stable.
    pub precision: Option<CellPrecision>,
}

impl RunRecord {
    /// Builds a record (computing its content id) for measurements taken
    /// under `config`.
    pub fn new(
        seq: u64,
        label: Option<String>,
        config: &ExperimentConfig,
        measurements: Vec<BenchmarkMeasurement>,
    ) -> RunRecord {
        let mut record = RunRecord {
            id: String::new(),
            seq,
            label,
            schema_version: RECORD_SCHEMA_VERSION,
            fingerprint: ConfigFingerprint::of(config),
            host: HostMeta::current(),
            measurements,
            precision: None,
        };
        record.id = content_hash(record.payload_json().as_bytes());
        record
    }

    /// Attaches a precision record (builder style), recomputing the content
    /// id — precision attainment is part of the archived bytes.
    pub fn with_precision(mut self, precision: CellPrecision) -> RunRecord {
        self.precision = Some(precision);
        self.id = content_hash(self.payload_json().as_bytes());
        self
    }

    /// The record of a campaign cell, whichever archive it goes to:
    /// labelled by the cell's canonical id, at the cell's seq, under its
    /// config, with its precision when it has one.
    pub fn for_cell(cell: &Cell, measurement: &BenchmarkMeasurement) -> RunRecord {
        let record = RunRecord::new(
            cell.seq,
            Some(cell.id.canonical()),
            &cell.config,
            vec![measurement.clone()],
        );
        match &cell.precision {
            Some(precision) => record.with_precision(precision.clone()),
            None => record,
        }
    }

    /// The campaign receipt of this run: its id, seq and precision.
    pub fn receipt(&self) -> CellReceipt {
        CellReceipt {
            run_id: self.id.clone(),
            seq: self.seq,
            precision: self.precision.clone(),
        }
    }

    /// The canonical payload: every field except the id, in fixed order.
    pub fn payload(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = vec![
            ("schema_version".into(), self.schema_version.to_value()),
            ("seq".into(), self.seq.to_value()),
        ];
        if let Some(label) = &self.label {
            fields.push(("label".into(), label.to_value()));
        }
        fields.push(("fingerprint".into(), self.fingerprint.to_value()));
        fields.push(("host".into(), self.host.to_value()));
        fields.push(("measurements".into(), self.measurements.to_value()));
        if let Some(precision) = &self.precision {
            fields.push(("precision".into(), precision.to_value()));
        }
        JsonValue::Object(fields)
    }

    /// The canonical payload as compact JSON text — the byte string the
    /// content id is computed over.
    pub fn payload_json(&self) -> String {
        serde_json::to_string(&self.payload()).expect("payload is plain data")
    }

    /// Rebuilds a record from a payload value, recomputing its id from the
    /// canonical bytes.
    ///
    /// # Errors
    ///
    /// Missing/mistyped fields, or a schema version this build does not
    /// understand.
    pub fn from_payload(v: &JsonValue) -> Result<RunRecord, DeError> {
        RunRecord::from_payload_canonical(v).map(|(record, _)| record)
    }

    /// [`RunRecord::from_payload`], also returning the canonical payload
    /// text the id was computed over, so a caller checking a stored length
    /// does not serialize the record a second time.
    pub(crate) fn from_payload_canonical(v: &JsonValue) -> Result<(RunRecord, String), DeError> {
        let schema_version: u32 = get_field(v, "schema_version")?;
        if schema_version > RECORD_SCHEMA_VERSION {
            return Err(DeError::new(format!(
                "archived run has schema_version {schema_version}, but this \
                 build only understands versions up to {RECORD_SCHEMA_VERSION}"
            )));
        }
        let mut record = RunRecord {
            id: String::new(),
            seq: get_field(v, "seq")?,
            label: get_field(v, "label")?,
            schema_version,
            fingerprint: get_field(v, "fingerprint")?,
            host: get_field(v, "host")?,
            measurements: get_field(v, "measurements")?,
            precision: get_field(v, "precision")?,
        };
        let payload = record.payload_json();
        record.id = content_hash(payload.as_bytes());
        Ok((record, payload))
    }

    /// The first 12 hex characters of the id — what tables print.
    pub fn short_id(&self) -> &str {
        &self.id[..self.id.len().min(12)]
    }

    /// The measurement of `benchmark` in this run, if present.
    pub fn benchmark(&self, benchmark: &str) -> Option<&BenchmarkMeasurement> {
        self.measurements.iter().find(|m| m.benchmark == benchmark)
    }

    /// The benchmark names this run measured, in measurement order.
    pub fn benchmark_names(&self) -> Vec<&str> {
        self.measurements
            .iter()
            .map(|m| m.benchmark.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigor::measurement::InvocationRecord;

    fn sample_measurement(benchmark: &str) -> BenchmarkMeasurement {
        BenchmarkMeasurement {
            benchmark: benchmark.into(),
            engine: "interp".into(),
            invocations: vec![InvocationRecord {
                invocation: 0,
                seed: 7,
                startup_ns: 12.5,
                iteration_ns: vec![100.0, 101.5],
                gc_cycles: 1,
                jit_compiles: 0,
                deopts: 0,
                checksum: "9".into(),
                iteration_counters: None,
                attempts: 1,
            }],
            censored: Vec::new(),
            quarantined: false,
        }
    }

    fn config() -> ExperimentConfig {
        ExperimentConfig::interp()
            .with_invocations(4)
            .with_iterations(16)
            .with_seed(99)
    }

    #[test]
    fn id_is_deterministic_and_content_sensitive() {
        let a = RunRecord::new(0, None, &config(), vec![sample_measurement("sieve")]);
        let b = RunRecord::new(0, None, &config(), vec![sample_measurement("sieve")]);
        assert_eq!(a.id, b.id);
        assert_eq!(a.id.len(), 32);
        // Any content change — measurements, label, seq — moves the id.
        let c = RunRecord::new(1, None, &config(), vec![sample_measurement("sieve")]);
        assert_ne!(a.id, c.id);
        let d = RunRecord::new(
            0,
            Some("tag".into()),
            &config(),
            vec![sample_measurement("sieve")],
        );
        assert_ne!(a.id, d.id);
    }

    #[test]
    fn payload_roundtrips_with_matching_id() {
        let rec = RunRecord::new(
            3,
            Some("nightly".into()),
            &config(),
            vec![sample_measurement("sieve"), sample_measurement("nbody")],
        );
        let back = RunRecord::from_payload(&rec.payload()).unwrap();
        assert_eq!(back, rec);
        // Re-serialization of a parsed payload is byte-identical: the
        // foundation content addressing stands on.
        assert_eq!(back.payload_json(), rec.payload_json());
    }

    #[test]
    fn precision_is_part_of_the_content_id_and_round_trips() {
        let plain = RunRecord::new(0, None, &config(), vec![sample_measurement("sieve")]);
        let precise = plain.clone().with_precision(CellPrecision {
            invocations_used: 17,
            rel_half_width: Some(0.013),
            target_rel_half_width: 0.02,
            target_met: true,
        });
        assert_ne!(plain.id, precise.id, "precision moves the content id");
        let back = RunRecord::from_payload(&precise.payload()).unwrap();
        assert_eq!(back, precise);
        assert_eq!(back.payload_json(), precise.payload_json());

        // A payload without the field — every pre-planner archive line —
        // still parses, to a record with no precision and the same id.
        let old = RunRecord::from_payload(&plain.payload()).unwrap();
        assert_eq!(old.precision, None);
        assert_eq!(old.id, plain.id);

        // A no-CI precision record must not leak NaN into the payload.
        let no_ci = plain.clone().with_precision(CellPrecision {
            invocations_used: 60,
            rel_half_width: None,
            target_rel_half_width: 0.02,
            target_met: false,
        });
        assert!(!no_ci.payload_json().contains("NaN"));
        let back = RunRecord::from_payload(&no_ci.payload()).unwrap();
        assert_eq!(back.precision.as_ref().unwrap().rel_half_width, None);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let rec = RunRecord::new(0, None, &config(), vec![]);
        let mut payload = rec.payload();
        if let JsonValue::Object(fields) = &mut payload {
            fields[0].1 = 999u32.to_value();
        }
        let err = RunRecord::from_payload(&payload).unwrap_err();
        assert!(err.to_string().contains("schema_version 999"), "{err}");
    }

    #[test]
    fn fingerprint_shape_matching_ignores_engine() {
        let interp = ConfigFingerprint::of(&config());
        let jit = ConfigFingerprint::of(
            &ExperimentConfig::jit()
                .with_invocations(4)
                .with_iterations(16)
                .with_seed(99),
        );
        assert_ne!(interp, jit);
        assert!(interp.shape_matches(&jit));
        let other_shape = ConfigFingerprint::of(&config().with_invocations(5));
        assert!(!interp.shape_matches(&other_shape));
    }

    #[test]
    fn accessors() {
        let rec = RunRecord::new(
            0,
            None,
            &config(),
            vec![sample_measurement("sieve"), sample_measurement("nbody")],
        );
        assert_eq!(rec.short_id().len(), 12);
        assert_eq!(rec.benchmark_names(), vec!["sieve", "nbody"]);
        assert!(rec.benchmark("sieve").is_some());
        assert!(rec.benchmark("missing").is_none());
        assert_eq!(rec.fingerprint.size, "default");
        assert!(!rec.host.os.is_empty() || !rec.host.family.is_empty());
    }
}
