//! Parallel driver for the differential verification grid.
//!
//! `rigor verify` expands the (workload × size × engine × seed) grid via
//! [`rigor_workloads::verify::grid`] and this module runs it on the
//! crate's one in-order worker pool, the one the campaign orchestrator
//! uses: workers take cells in grid order from a shared index, and each
//! result lands in its cell's slot, so the report never depends on which
//! worker ran which cell or in what order they finished.

use std::sync::atomic::AtomicUsize;

use rigor_workloads::verify::{build_report, CellError, Manifest, VerifyCell, VerifyReport};

use crate::pool;

/// Runs every cell of the grid across `workers` threads and folds the
/// outcomes against `manifest` into a [`VerifyReport`].
///
/// `workers` is clamped to `[1, cells.len()]`; passing an empty grid
/// yields an empty (vacuously passing) report.
pub fn run_grid(
    cells: Vec<VerifyCell>,
    workers: usize,
    manifest: Option<&Manifest>,
) -> VerifyReport {
    let results = execute_all(cells, workers);
    build_report(results, manifest)
}

/// Executes all cells, returning `(cell, result)` pairs in grid order.
pub fn execute_all(
    cells: Vec<VerifyCell>,
    workers: usize,
) -> Vec<(VerifyCell, Result<String, CellError>)> {
    let results = pool::run(&cells, workers, &AtomicUsize::new(usize::MAX), |_, cell| {
        cell.execute()
    });
    cells
        .into_iter()
        .zip(results)
        .map(|(cell, result)| (cell, result.expect("an unlimited budget runs every cell")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigor_workloads::verify::{grid, VerifyEngine, ALL_SIZES};
    use rigor_workloads::Size;

    #[test]
    fn empty_grid_passes_vacuously() {
        let report = run_grid(Vec::new(), 4, None);
        assert!(report.passed());
        assert!(report.cells.is_empty());
    }

    #[test]
    fn results_keep_grid_order_across_worker_counts() {
        let cells = grid(&[Size::Small], &[1]);
        let a = execute_all(cells.clone(), 1);
        let b = execute_all(cells.clone(), 4);
        assert_eq!(a.len(), cells.len());
        for ((ca, ra), ((cb, rb), orig)) in a.iter().zip(b.iter().zip(&cells)) {
            assert_eq!(ca, orig);
            assert_eq!(cb, orig);
            assert_eq!(ra, rb, "checksums must not depend on scheduling");
        }
    }

    #[test]
    fn small_grid_verifies_clean_against_its_own_manifest() {
        let cells = grid(&[Size::Small], &[1, 2]);
        let first = run_grid(cells.clone(), 4, None);
        // No manifest: nothing can mismatch, engines must agree.
        assert!(first.passed(), "failures: {:?}", first.failures());
        let manifest = first.to_manifest().unwrap();
        let second = run_grid(cells, 4, Some(&manifest));
        assert!(second.passed());
        assert_eq!(
            manifest.entries.len(),
            rigor_workloads::suite().len(),
            "one manifest entry per (workload, size)"
        );
    }

    #[test]
    fn injected_mismatch_names_the_cell() {
        let mut manifest = Manifest::default();
        manifest
            .entries
            .insert("sieve/small".into(), "TAMPERED".into());
        let cells = vec![VerifyCell {
            workload: "sieve".into(),
            size: Size::Small,
            engine: VerifyEngine::Interp,
            seed: 1,
        }];
        let report = run_grid(cells, 1, Some(&manifest));
        assert!(!report.passed());
        assert_eq!(report.failures()[0].cell.id(), "sieve/small/interp/1");
    }

    #[test]
    fn sizes_constant_matches_registry_presets() {
        assert_eq!(ALL_SIZES.len(), 3);
    }
}
