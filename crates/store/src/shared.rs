//! [`SharedStore`]: the archive behind a writer lock, as a campaign
//! [`CellSink`].
//!
//! The campaign orchestrator streams completed cells from many worker
//! threads; [`Store`] is single-writer by design. `SharedStore` wraps it in
//! a mutex so concurrent `archive_cell` calls serialize on the fsynced
//! append — the append order varies with scheduling, but each cell's line
//! is byte-identical regardless (its `seq` is the campaign's seq base, the
//! archive's next free seq when the campaign started, plus the cell's grid
//! index, and the content hash covers it), so two archives of the same
//! campaign from the same starting archive always hold the same content-id
//! *set*.
//!
//! Idempotency: the completed-check and the append happen under one lock
//! acquisition, so a cell replayed in a crash-recovery window is returned
//! its existing receipt instead of being appended twice.

use std::sync::Mutex;

use rigor::campaign::{Cell, CellReceipt, CellSink};
use rigor::measurement::BenchmarkMeasurement;

use crate::archive::{Store, StoreError};
use crate::record::RunRecord;

/// A [`Store`] behind a writer lock; the on-disk [`CellSink`] of campaign
/// runs. Each completed cell becomes one archived run,
/// [`RunRecord::for_cell`]: labelled by the cell's canonical id, at the
/// cell's [`Cell::seq`], with its precision.
#[derive(Debug)]
pub struct SharedStore {
    store: Mutex<Store>,
}

impl SharedStore {
    /// Wraps an opened store.
    pub fn new(store: Store) -> SharedStore {
        SharedStore {
            store: Mutex::new(store),
        }
    }

    /// Opens (creating if needed) the archive in `dir` and wraps it.
    ///
    /// # Errors
    ///
    /// As [`Store::open`].
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<SharedStore, StoreError> {
        Store::open(dir).map(SharedStore::new)
    }

    /// Unwraps back into the plain single-writer store.
    pub fn into_inner(self) -> Store {
        self.store.into_inner().expect("store lock poisoned")
    }

    /// Runs `f` with the locked store (for reads and non-campaign writes
    /// between campaign phases).
    pub fn with<R>(&self, f: impl FnOnce(&mut Store) -> R) -> R {
        f(&mut self.store.lock().expect("store lock poisoned"))
    }
}

impl CellSink for SharedStore {
    fn archive_cell(
        &self,
        cell: &Cell,
        measurement: &BenchmarkMeasurement,
    ) -> Result<CellReceipt, String> {
        let mut store = self.store.lock().expect("store lock poisoned");
        // Check-then-append under one lock: replays return the original
        // receipt instead of duplicating the run.
        if let Some(existing) = store.find_label(&cell.id.canonical()) {
            return Ok(existing.receipt());
        }
        store
            .append_record(RunRecord::for_cell(cell, measurement))
            .map(RunRecord::receipt)
            .map_err(|e| e.to_string())
    }

    fn completed_cell(&self, cell: &Cell) -> Result<Option<CellReceipt>, String> {
        let store = self.store.lock().expect("store lock poisoned");
        Ok(store
            .find_label(&cell.id.canonical())
            .map(RunRecord::receipt))
    }

    fn seq_base(&self) -> Result<u64, String> {
        Ok(self.store.lock().expect("store lock poisoned").next_seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigor::campaign::{CampaignSpec, CellPrecision};
    use rigor::ExperimentConfig;
    use rigor_workloads::Size;

    fn cells() -> Vec<Cell> {
        // `CampaignSpec::new` defaults engines/variants to the base config's,
        // so the grid is benchmarks × seeds here.
        let base = ExperimentConfig::interp()
            .with_invocations(2)
            .with_iterations(3)
            .with_size(Size::Small)
            .with_seed(5);
        CampaignSpec::new(base)
            .with_benchmarks(["sieve"])
            .with_seeds(vec![5, 6])
            .cells()
            .unwrap()
    }

    fn measurement(benchmark: &str) -> BenchmarkMeasurement {
        BenchmarkMeasurement {
            benchmark: benchmark.to_string(),
            engine: "interp".to_string(),
            invocations: vec![],
            censored: vec![],
            quarantined: false,
        }
    }

    #[test]
    fn archive_cell_is_idempotent_and_labels_by_cell_id() {
        let dir = std::env::temp_dir().join(format!("rigor-shared-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let shared = SharedStore::open(&dir).unwrap();
        let cells = cells();
        let m = measurement("sieve");

        assert_eq!(shared.completed_cell(&cells[0]).unwrap(), None);
        assert_eq!(shared.seq_base().unwrap(), 0);
        let a = shared.archive_cell(&cells[0], &m).unwrap();
        let b = shared.archive_cell(&cells[0], &m).unwrap();
        assert_eq!(a, b, "replay returns the original receipt");
        assert_eq!(a.seq, cells[0].seq);
        assert_eq!(shared.seq_base().unwrap(), 1);
        assert_eq!(shared.completed_cell(&cells[0]).unwrap(), Some(a));
        assert_eq!(shared.completed_cell(&cells[1]).unwrap(), None);

        let store = shared.into_inner();
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.latest().unwrap().label.as_deref(),
            Some("sieve/interp/2x3/5")
        );

        // A reopened (post-kill) store still answers the completed query.
        let reopened = SharedStore::open(&dir).unwrap();
        assert!(reopened.completed_cell(&cells[0]).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn precise_archiving_round_trips_through_reopen() {
        let dir =
            std::env::temp_dir().join(format!("rigor-shared-store-precise-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let shared = SharedStore::open(&dir).unwrap();
        let mut cells = cells();
        let m = measurement("sieve");
        let precision = CellPrecision {
            invocations_used: 9,
            rel_half_width: Some(0.018),
            target_rel_half_width: 0.02,
            target_met: true,
        };
        cells[0].precision = Some(precision.clone());

        assert_eq!(shared.completed_cell(&cells[0]).unwrap(), None);
        let a = shared.archive_cell(&cells[0], &m).unwrap();
        let b = shared.archive_cell(&cells[0], &m).unwrap();
        assert_eq!(a, b, "replay returns the original receipt");
        assert_eq!(a.precision, Some(precision.clone()));
        assert_eq!(shared.completed_cell(&cells[0]).unwrap(), Some(a.clone()));
        // A cell of the fixed grid carries no precision.
        let plain = shared.archive_cell(&cells[1], &m).unwrap();
        assert_eq!(plain.precision, None);

        // The precision record survives a kill-and-reopen.
        drop(shared);
        let reopened = SharedStore::open(&dir).unwrap();
        assert_eq!(reopened.completed_cell(&cells[0]).unwrap(), Some(a));
        std::fs::remove_dir_all(&dir).ok();
    }
}
