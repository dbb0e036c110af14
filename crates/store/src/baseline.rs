//! Baseline selection: turning a `--baseline` reference into archived runs.
//!
//! Four forms are understood:
//!
//! * `last` — the most recent archived run,
//! * `last-N` — the newest N runs pooled into one baseline sample,
//! * `segment` — every run since each benchmark's level last shifted
//!   (the current trend segment; see [`crate::history`]),
//! * anything else — a run id prefix or exact label.

use std::fmt;

use rigor::measurement::BenchmarkMeasurement;
use rigor::pool_measurements;
use rigor::steady::SteadyStateDetector;
use rigor::trend::TrendConfig;

use crate::archive::{find_run, Store, StoreError};
use crate::history::segment_baseline;
use crate::record::RunRecord;

/// A parsed `--baseline` reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineRef {
    /// The most recent archived run.
    Last,
    /// The newest N runs, pooled.
    LastN(usize),
    /// The current trend segment, per benchmark: every run since the
    /// benchmark's level last shifted.
    Segment,
    /// A run id prefix or exact label.
    Id(String),
}

impl BaselineRef {
    /// Parses a reference as given on the command line.
    ///
    /// `last`, `last-N` (N ≥ 1) and `segment` are recognized keywords;
    /// everything else is treated as an id prefix / label, resolved at
    /// selection time.
    pub fn parse(text: &str) -> BaselineRef {
        if text.eq_ignore_ascii_case("last") {
            return BaselineRef::Last;
        }
        if text.eq_ignore_ascii_case("segment") {
            return BaselineRef::Segment;
        }
        if let Some(n) = text
            .strip_prefix("last-")
            .and_then(|n| n.parse::<usize>().ok())
        {
            if n >= 1 {
                return BaselineRef::LastN(n);
            }
        }
        BaselineRef::Id(text.to_string())
    }

    /// Resolves the reference against an open store, newest last.
    ///
    /// For [`BaselineRef::Segment`] this returns every archived run — the
    /// candidate set; which runs actually contribute is decided *per
    /// benchmark* by [`BaselineRef::pooled_measurements`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Empty`] when the archive holds no runs, plus the
    /// lookup errors of [`Store::get`] for id references.
    pub fn select<'s>(&self, store: &'s Store) -> Result<Vec<&'s RunRecord>, StoreError> {
        self.select_in(store.records())
    }

    /// [`BaselineRef::select`] over runs in archive order, such as the
    /// history fetched from a shared archive service.
    ///
    /// # Errors
    ///
    /// As [`BaselineRef::select`].
    pub fn select_in<'r>(&self, runs: &'r [RunRecord]) -> Result<Vec<&'r RunRecord>, StoreError> {
        let Some(latest) = runs.last() else {
            return Err(StoreError::Empty);
        };
        match self {
            BaselineRef::Last => Ok(vec![latest]),
            BaselineRef::LastN(n) => Ok(runs[runs.len().saturating_sub((*n).max(1))..]
                .iter()
                .collect()),
            BaselineRef::Segment => Ok(runs.iter().collect()),
            BaselineRef::Id(reference) => Ok(vec![find_run(runs, reference)?]),
        }
    }

    /// The reference resolved all the way to one pooled per-benchmark
    /// baseline sample — what the regression gate consumes.
    ///
    /// `last`/`last-N`/id references pool the selected runs wholesale;
    /// `segment` runs the trend analysis under `trend_config` and pools,
    /// per benchmark, only the runs of the current (final) segment.
    ///
    /// # Errors
    ///
    /// The selection errors of [`BaselineRef::select`].
    pub fn pooled_measurements(
        &self,
        store: &Store,
        detector: &SteadyStateDetector,
        trend_config: &TrendConfig,
    ) -> Result<Vec<BenchmarkMeasurement>, StoreError> {
        if store.is_empty() {
            return Err(StoreError::Empty);
        }
        match self {
            BaselineRef::Segment => Ok(segment_baseline(store, detector, trend_config)),
            _ => {
                let runs = self.select(store)?;
                let slices: Vec<&[BenchmarkMeasurement]> =
                    runs.iter().map(|r| r.measurements.as_slice()).collect();
                Ok(pool_measurements(&slices))
            }
        }
    }
}

impl fmt::Display for BaselineRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineRef::Last => write!(f, "last"),
            BaselineRef::LastN(n) => write!(f, "last-{n}"),
            BaselineRef::Segment => write!(f, "segment"),
            BaselineRef::Id(id) => write!(f, "{id}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rigor::ExperimentConfig;

    #[test]
    fn parses_keywords_and_ids() {
        assert_eq!(BaselineRef::parse("last"), BaselineRef::Last);
        assert_eq!(BaselineRef::parse("LAST"), BaselineRef::Last);
        assert_eq!(BaselineRef::parse("segment"), BaselineRef::Segment);
        assert_eq!(BaselineRef::parse("SEGMENT"), BaselineRef::Segment);
        assert_eq!(BaselineRef::parse("last-3"), BaselineRef::LastN(3));
        assert_eq!(BaselineRef::parse("last-1"), BaselineRef::LastN(1));
        // Degenerate or non-numeric suffixes fall through to id lookup.
        assert_eq!(
            BaselineRef::parse("last-0"),
            BaselineRef::Id("last-0".into())
        );
        assert_eq!(
            BaselineRef::parse("last-x"),
            BaselineRef::Id("last-x".into())
        );
        assert_eq!(
            BaselineRef::parse("ab12cd"),
            BaselineRef::Id("ab12cd".into())
        );
    }

    #[test]
    fn displays_roundtrip() {
        for text in ["last", "last-3", "segment", "ab12cd"] {
            assert_eq!(BaselineRef::parse(text).to_string(), text);
        }
    }

    #[test]
    fn selects_from_store() {
        let dir =
            std::env::temp_dir().join(format!("rigor-store-baseline-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut store = Store::open(&dir).unwrap();
        assert!(matches!(
            BaselineRef::Last.select(&store),
            Err(StoreError::Empty)
        ));
        let config = ExperimentConfig::interp();
        store.append(Some("first".into()), &config, vec![]).unwrap();
        store.append(None, &config, vec![]).unwrap();
        store.append(None, &config, vec![]).unwrap();

        let last = BaselineRef::Last.select(&store).unwrap();
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].seq, 2);

        let pooled = BaselineRef::LastN(2).select(&store).unwrap();
        assert_eq!(pooled.len(), 2);
        assert_eq!(pooled[0].seq, 1);
        assert_eq!(pooled[1].seq, 2);

        let by_label = BaselineRef::parse("first").select(&store).unwrap();
        assert_eq!(by_label[0].seq, 0);

        // `segment` selects every run as its candidate set.
        let all = BaselineRef::Segment.select(&store).unwrap();
        assert_eq!(all.len(), 3);

        assert!(matches!(
            BaselineRef::parse("nope").select(&store),
            Err(StoreError::UnknownRun { .. })
        ));
        assert!(matches!(
            BaselineRef::Segment.pooled_measurements(
                &Store::open(dir.join("empty")).unwrap(),
                &SteadyStateDetector::default(),
                &TrendConfig::default()
            ),
            Err(StoreError::Empty)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
