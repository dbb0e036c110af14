//! `rigor-store`: an append-only, content-addressed on-disk archive of
//! experiment runs.
//!
//! The archive is the persistence layer behind `rigor archive`, `rigor
//! history` and `rigor check`: every run is serialized as one canonical
//! JSON line — config fingerprint, seed, host and engine metadata, the
//! full per-benchmark measurements, and a schema version — protected by a
//! length + content-hash header and fsynced before the append returns.
//!
//! Design rules, in order:
//!
//! 1. **Append-only.** Runs are never edited in place; the only mutation
//!    besides append is [`Store::compact`], an atomic whole-file rewrite.
//! 2. **Content-addressed.** A run's id is the 128-bit digest of its
//!    canonical payload bytes ([`hash::content_hash`]), so identical
//!    measurements get identical ids and any corruption is detectable by
//!    re-hashing ([`Store::verify`]).
//! 3. **Kill-safe.** One fsynced line per append means a crash leaves at
//!    most one torn final line, which [`Store::open`] drops — the same
//!    recovery contract as `rigor::checkpoint`. A *complete* line that
//!    fails its integrity check is corruption and a hard error.
//! 4. **Deterministic.** The canonical JSON printer guarantees that
//!    re-serializing a parsed record is byte-identical, so a recovered
//!    archive, re-appended, reproduces the uninterrupted file exactly.
//!
//! Baselines for regression gating are selected with [`BaselineRef`]
//! (`last`, `last-N`, or an id/label) and fed to
//! `rigor::regress::check_regressions`.
//!
//! ```no_run
//! use rigor_store::{BaselineRef, Store};
//!
//! let mut store = Store::open(".rigor-store")?;
//! // ... run an experiment, collect `measurements` ...
//! # let (config, measurements) = (rigor::ExperimentConfig::interp(), vec![]);
//! let run = store.append(Some("nightly".into()), &config, measurements)?;
//! println!("archived {}", run.short_id());
//! let baseline = BaselineRef::parse("last-3").select(&store)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod archive;
pub mod baseline;
pub mod hash;
pub mod history;
pub mod record;
pub mod shared;

pub use archive::{
    parse_record_line, record_line, CompactionReport, CorruptLine, Store, StoreError, VerifyReport,
    ARCHIVE_FILE,
};
pub use baseline::BaselineRef;
pub use hash::content_hash;
pub use history::{benchmark_history, benchmark_names, segment_baseline, trend_report};
pub use record::{ConfigFingerprint, HostMeta, RunRecord, RECORD_SCHEMA_VERSION};
pub use shared::SharedStore;
