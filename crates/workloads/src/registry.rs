//! The workload registry: every benchmark in the suite with its size
//! parameterization, discoverable by name.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::programs::{
    adversarial, calls, control, data, iterators, nonsteady, numeric, strings, structured,
};

/// Behavioural category of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Float/int arithmetic kernels.
    Numeric,
    /// Dict/list-dominated data-structure churn.
    Data,
    /// String processing.
    Strings,
    /// Calls, recursion, branchy state machines.
    Control,
    /// Structured-data round-trips: build, serialize, parse back.
    Structured,
    /// Methodology stressors: type-polymorphic, startup-dominated,
    /// GC-pressure workloads.
    Adversarial,
    /// Known-shift non-steady workloads: phase shifts, warmup cliffs and
    /// periodic degradation at documented iteration indices.
    NonSteady,
}

impl Category {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Category::Numeric => "numeric",
            Category::Data => "data",
            Category::Strings => "string",
            Category::Control => "control",
            Category::Structured => "structured",
            Category::Adversarial => "adversarial",
            Category::NonSteady => "nonsteady",
        }
    }
}

/// Size preset for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Size {
    /// Fast: for unit tests and smoke runs.
    Small,
    /// The evaluation default.
    #[default]
    Default,
    /// Stress size for precision sweeps.
    Large,
}

/// One benchmark in the suite.
#[derive(Clone)]
pub struct Workload {
    /// Unique name (stable across versions; used in seeds and reports).
    pub name: &'static str,
    /// Behavioural category.
    pub category: Category,
    /// One-line description.
    pub description: &'static str,
    source_fn: fn(u32) -> String,
    small: u32,
    default: u32,
    large: u32,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("category", &self.category)
            .finish()
    }
}

impl Workload {
    /// The size parameter for a preset.
    pub fn size_param(&self, size: Size) -> u32 {
        match size {
            Size::Small => self.small,
            Size::Default => self.default,
            Size::Large => self.large,
        }
    }

    /// Generates the MiniPy source at a size preset.
    pub fn source(&self, size: Size) -> String {
        (self.source_fn)(self.size_param(size))
    }
}

/// Returns the full benchmark suite in canonical order.
pub fn suite() -> Vec<Workload> {
    vec![
        Workload {
            name: "nbody_lite",
            category: Category::Numeric,
            description: "pairwise-force float physics steps",
            source_fn: numeric::nbody_lite,
            small: 30,
            default: 100,
            large: 300,
        },
        Workload {
            name: "spectral",
            category: Category::Numeric,
            description: "spectral-norm style A·v products",
            source_fn: numeric::spectral,
            small: 10,
            default: 20,
            large: 40,
        },
        Workload {
            name: "leibniz",
            category: Category::Numeric,
            description: "Leibniz pi series (pure float loop)",
            source_fn: numeric::leibniz,
            small: 800,
            default: 3_000,
            large: 10_000,
        },
        Workload {
            name: "sieve",
            category: Category::Numeric,
            description: "sieve of Eratosthenes",
            source_fn: numeric::sieve,
            small: 500,
            default: 2_000,
            large: 6_000,
        },
        Workload {
            name: "kmeans_lite",
            category: Category::Numeric,
            description: "k-means clustering with list comprehensions",
            source_fn: numeric::kmeans_lite,
            small: 60,
            default: 200,
            large: 600,
        },
        Workload {
            name: "matmul",
            category: Category::Numeric,
            description: "dense int matrix multiply",
            source_fn: numeric::matmul,
            small: 8,
            default: 15,
            large: 24,
        },
        Workload {
            name: "dict_churn",
            category: Category::Data,
            description: "string-keyed dict insert/lookup/delete waves",
            source_fn: data::dict_churn,
            small: 100,
            default: 400,
            large: 1_200,
        },
        Workload {
            name: "str_keys",
            category: Category::Data,
            description: "string-keyed dict build + iterate",
            source_fn: data::str_keys,
            small: 150,
            default: 600,
            large: 2_000,
        },
        Workload {
            name: "list_sort",
            category: Category::Data,
            description: "build pseudo-random list and sort",
            source_fn: data::list_sort,
            small: 400,
            default: 1_500,
            large: 5_000,
        },
        Workload {
            name: "graph_bfs",
            category: Category::Data,
            description: "BFS over synthetic adjacency lists",
            source_fn: data::graph_bfs,
            small: 120,
            default: 500,
            large: 1_500,
        },
        Workload {
            name: "json_like",
            category: Category::Data,
            description: "build + walk nested record structures",
            source_fn: data::json_like,
            small: 80,
            default: 300,
            large: 1_000,
        },
        Workload {
            name: "string_builder",
            category: Category::Strings,
            description: "concat / join / split / replace churn",
            source_fn: strings::string_builder,
            small: 100,
            default: 400,
            large: 1_200,
        },
        Workload {
            name: "word_count",
            category: Category::Strings,
            description: "split text, tally word frequencies in a dict",
            source_fn: strings::word_count,
            small: 200,
            default: 800,
            large: 2_500,
        },
        Workload {
            name: "substring_scan",
            category: Category::Strings,
            description: "naive substring matching over generated text",
            source_fn: strings::substring_scan,
            small: 150,
            default: 600,
            large: 2_000,
        },
        Workload {
            name: "fib_recursive",
            category: Category::Control,
            description: "recursive Fibonacci (call overhead)",
            source_fn: control::fib_recursive,
            small: 12,
            default: 16,
            large: 19,
        },
        Workload {
            name: "richards_lite",
            category: Category::Control,
            description: "task-scheduler state machine",
            source_fn: control::richards_lite,
            small: 80,
            default: 300,
            large: 900,
        },
        Workload {
            name: "queens",
            category: Category::Control,
            description: "N-queens backtracking search",
            source_fn: control::queens,
            small: 5,
            default: 7,
            large: 8,
        },
        Workload {
            name: "raytrace_lite",
            category: Category::Control,
            description: "ray-sphere intersection loop",
            source_fn: control::raytrace_lite,
            small: 100,
            default: 400,
            large: 1_200,
        },
        Workload {
            name: "json_build",
            category: Category::Structured,
            description: "build nested records, emit a JSON document, hash it",
            source_fn: structured::json_build,
            small: 40,
            default: 150,
            large: 500,
        },
        Workload {
            name: "csv_roundtrip",
            category: Category::Structured,
            description: "CSV render / parse / transform round-trip",
            source_fn: structured::csv_roundtrip,
            small: 50,
            default: 200,
            large: 700,
        },
        Workload {
            name: "call_tower_mono",
            category: Category::Control,
            description: "twelve-deep monomorphic call chain (frame overhead)",
            source_fn: calls::call_tower_mono,
            small: 200,
            default: 800,
            large: 2_500,
        },
        Workload {
            name: "call_tower_poly",
            category: Category::Control,
            description: "polymorphic call sites fed int/float/str in rotation",
            source_fn: calls::call_tower_poly,
            small: 150,
            default: 600,
            large: 2_000,
        },
        Workload {
            name: "iter_churn",
            category: Category::Data,
            description: "enumerate/zip/items towers and comprehensions",
            source_fn: iterators::iter_churn,
            small: 200,
            default: 800,
            large: 2_500,
        },
        Workload {
            name: "polymorph",
            category: Category::Adversarial,
            description: "type-flipping hot loop (JIT deopt churn)",
            source_fn: adversarial::polymorph,
            small: 100,
            default: 400,
            large: 1_200,
        },
        Workload {
            name: "startup_heavy",
            category: Category::Adversarial,
            description: "heavy setup, trivial run() (startup-dominated)",
            source_fn: adversarial::startup_heavy,
            small: 300,
            default: 1_000,
            large: 3_000,
        },
        Workload {
            name: "gc_pressure",
            category: Category::Adversarial,
            description: "allocation storm (GC pauses dominate noise)",
            source_fn: adversarial::gc_pressure,
            small: 150,
            default: 600,
            large: 2_000,
        },
        Workload {
            name: "phase_shift",
            category: Category::NonSteady,
            description: "3x cost step after a documented iteration index",
            source_fn: nonsteady::phase_shift,
            small: 60,
            default: 250,
            large: 800,
        },
        Workload {
            name: "warmup_cliff",
            category: Category::NonSteady,
            description: "slow warmup iterations, then a steady fast phase",
            source_fn: nonsteady::warmup_cliff,
            small: 60,
            default: 250,
            large: 800,
        },
        Workload {
            name: "sawtooth",
            category: Category::NonSteady,
            description: "periodically ramping cost that never settles",
            source_fn: nonsteady::sawtooth,
            small: 60,
            default: 250,
            large: 800,
        },
    ]
}

/// Finds a workload by name.
pub fn find(name: &str) -> Option<Workload> {
    suite().into_iter().find(|w| w.name == name)
}

/// A name that resolved to no workload, with the closest registered name
/// when the miss looks like a typo (case slip or small edit distance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWorkload {
    /// The name that failed to resolve.
    pub name: String,
    /// The closest suite name, if one is plausibly intended.
    pub suggestion: Option<&'static str>,
}

impl UnknownWorkload {
    /// Builds the error for a name, computing the suggestion.
    pub fn of(name: &str) -> UnknownWorkload {
        UnknownWorkload {
            name: name.to_string(),
            suggestion: suggest(name),
        }
    }
}

impl fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown workload '{}'", self.name)?;
        match self.suggestion {
            Some(s) => write!(f, ", did you mean '{s}'?"),
            None => write!(f, " (see `rigor list`)"),
        }
    }
}

impl std::error::Error for UnknownWorkload {}

/// Finds a workload by name, or returns a typed near-miss error — unlike
/// [`find`], a case slip or a one-letter typo names its correction.
pub fn lookup(name: &str) -> Result<Workload, UnknownWorkload> {
    find(name).ok_or_else(|| UnknownWorkload::of(name))
}

/// Levenshtein distance, bounded only by the short names involved.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The closest suite name: a case-insensitive exact match wins outright,
/// otherwise the smallest edit distance within a typo-sized budget.
fn suggest(name: &str) -> Option<&'static str> {
    let lower = name.to_lowercase();
    let all = names();
    if let Some(exact) = all.iter().find(|n| n.to_lowercase() == lower) {
        return Some(exact);
    }
    all.into_iter()
        .map(|n| (edit_distance(&lower, n), n))
        .filter(|(d, n)| *d <= 2.max(n.len() / 4))
        .min_by_key(|(d, _)| *d)
        .map(|(_, n)| n)
}

/// Names of all workloads, in canonical order.
pub fn names() -> Vec<&'static str> {
    suite().iter().map(|w| w.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twenty_nine_workloads_with_unique_names() {
        let s = suite();
        assert_eq!(s.len(), 29);
        let mut names: Vec<_> = s.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 29, "duplicate workload names");
    }

    #[test]
    fn every_category_is_represented() {
        let s = suite();
        for cat in [
            Category::Numeric,
            Category::Data,
            Category::Strings,
            Category::Control,
            Category::Structured,
            Category::Adversarial,
            Category::NonSteady,
        ] {
            assert!(s.iter().any(|w| w.category == cat), "missing {cat:?}");
        }
    }

    #[test]
    fn sizes_are_ordered() {
        for w in suite() {
            assert!(
                w.size_param(Size::Small) <= w.size_param(Size::Default)
                    && w.size_param(Size::Default) <= w.size_param(Size::Large),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn find_by_name() {
        assert!(find("sieve").is_some());
        assert!(find("nope").is_none());
        assert_eq!(find("sieve").unwrap().category, Category::Numeric);
    }

    #[test]
    fn lookup_suggests_on_near_misses() {
        assert_eq!(lookup("sieve").unwrap().name, "sieve");
        // Case slip.
        let e = lookup("Sieve").unwrap_err();
        assert_eq!(e.suggestion, Some("sieve"));
        assert!(e.to_string().contains("did you mean 'sieve'"));
        // One-letter typo.
        let e = lookup("seive").unwrap_err();
        assert_eq!(e.suggestion, Some("sieve"));
        // Underscore-family typo on a longer name.
        let e = lookup("phase_shiftt").unwrap_err();
        assert_eq!(e.suggestion, Some("phase_shift"));
        // Nothing close: no suggestion, but still a pointer to the list.
        let e = lookup("zzzzzzzzzz").unwrap_err();
        assert_eq!(e.suggestion, None);
        assert!(e.to_string().contains("rigor list"));
    }

    #[test]
    fn edit_distance_is_symmetric_and_sane() {
        assert_eq!(edit_distance("sieve", "sieve"), 0);
        assert_eq!(edit_distance("sieve", "seive"), 2);
        assert_eq!(edit_distance("abc", "abcd"), 1);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
    }

    #[test]
    fn sources_embed_the_size_parameter() {
        let w = find("leibniz").unwrap();
        assert!(w.source(Size::Small).contains("TERMS = 800"));
    }
}
