//! The JIT's dense per-pc tables against the hash-table model they replaced.
//!
//! `JitState` keeps each code object's guard masks, recording masks,
//! back-edge counts and blacklisted loop heads in arrays indexed by pc.
//! `MapJit` below keeps them in `HashMap`s and a `HashSet`, with each
//! region owning its own mask map: the layout the arrays replaced, kept
//! here as the reference. Random call sequences over one code object must
//! produce the same events, guard outcomes and compiled/recording state on
//! both, so a guard mask can never outlive the region that owns its op.

use std::collections::{HashMap, HashSet};

use minipy::jit::{BackedgeEvent, GuardOutcome, JitState};
use minipy::{JitConfig, JitMode};
use proptest::prelude::*;

/// Ops in the one code object under test.
const OPS: usize = 16;

struct MapRecording {
    head: u32,
    backedge_from: u32,
    types: HashMap<u32, u16>,
}

struct MapRegion {
    head: u32,
    end: u32,
    fail_count: u32,
    types: HashMap<u32, u16>,
}

/// Reference JIT state for one code object, on hash tables.
struct MapJit {
    config: JitConfig,
    backedge_counts: HashMap<u32, u32>,
    /// Per-op: 0 = interpreted, otherwise region index + 1.
    compiled: Vec<u32>,
    recording: Option<MapRecording>,
    regions: Vec<MapRegion>,
    blacklisted_heads: HashSet<u32>,
    entry_count: u32,
    function_compiled: bool,
}

impl MapJit {
    fn new(config: JitConfig, ops: usize) -> Self {
        MapJit {
            config,
            backedge_counts: HashMap::new(),
            compiled: vec![0; ops],
            recording: None,
            regions: Vec::new(),
            blacklisted_heads: HashSet::new(),
            entry_count: 0,
            function_compiled: false,
        }
    }

    fn is_compiled(&self, pc: usize) -> bool {
        self.compiled[pc] != 0
    }

    fn is_recording(&self, pc: usize) -> bool {
        match &self.recording {
            Some(r) => (pc as u32) >= r.head && (pc as u32) <= r.backedge_from,
            None => false,
        }
    }

    fn record_types(&mut self, pc: usize, mask: u16) {
        if let Some(r) = &mut self.recording {
            if (pc as u32) >= r.head && (pc as u32) <= r.backedge_from {
                *r.types.entry(pc as u32).or_insert(0) |= mask;
            }
        }
    }

    fn on_backedge(&mut self, from_pc: usize, target_pc: usize) -> BackedgeEvent {
        if self.config.mode == JitMode::FunctionsOnly {
            return BackedgeEvent::Cold;
        }
        let (from, target) = (from_pc as u32, target_pc as u32);
        if let Some(rec) = &self.recording {
            if rec.backedge_from == from && rec.head == target {
                let rec = self.recording.take().expect("checked above");
                let region_idx = self.regions.len() as u32 + 1;
                let mut ops = 0usize;
                for pc in rec.head..=rec.backedge_from {
                    let slot = &mut self.compiled[pc as usize];
                    if *slot == 0 {
                        *slot = region_idx;
                        ops += 1;
                    }
                }
                self.regions.push(MapRegion {
                    head: rec.head,
                    end: rec.backedge_from,
                    fail_count: 0,
                    types: rec.types,
                });
                return BackedgeEvent::Compiled { ops };
            }
        }
        if self.compiled[target_pc] != 0 || self.blacklisted_heads.contains(&target) {
            return BackedgeEvent::Cold;
        }
        let count = self.backedge_counts.entry(target).or_insert(0);
        *count += 1;
        if *count >= self.config.hot_threshold {
            self.recording = Some(MapRecording {
                head: target,
                backedge_from: from,
                types: HashMap::new(),
            });
            *count = 0;
            return BackedgeEvent::StartRecording;
        }
        BackedgeEvent::Cold
    }

    fn check_guard(&mut self, pc: usize, mask: u16) -> GuardOutcome {
        let region_ref = self.compiled[pc];
        if region_ref == 0 {
            return GuardOutcome::Pass;
        }
        let region = &mut self.regions[(region_ref - 1) as usize];
        let expected = region.types.get(&(pc as u32)).copied().unwrap_or(0);
        if expected == 0 || (mask & !expected) == 0 {
            return GuardOutcome::Pass;
        }
        region.fail_count += 1;
        *region.types.get_mut(&(pc as u32)).expect("non-zero") |= mask;
        if region.fail_count > self.config.max_guard_failures {
            let (head, end) = (region.head, region.end);
            self.blacklisted_heads.insert(head);
            for p in head..=end {
                if self.compiled[p as usize] == region_ref {
                    self.compiled[p as usize] = 0;
                }
            }
            GuardOutcome::Blacklisted
        } else {
            GuardOutcome::Deopt
        }
    }

    fn on_function_entry(&mut self) -> Option<usize> {
        if self.config.mode == JitMode::LoopsOnly || self.function_compiled {
            return None;
        }
        self.entry_count += 1;
        if self.entry_count < self.config.hot_threshold {
            return None;
        }
        self.function_compiled = true;
        let region_idx = self.regions.len() as u32 + 1;
        let mut ops = 0usize;
        for slot in self.compiled.iter_mut() {
            if *slot == 0 {
                *slot = region_idx;
                ops += 1;
            }
        }
        if ops == 0 {
            return None;
        }
        self.regions.push(MapRegion {
            head: 0,
            end: self.compiled.len() as u32 - 1,
            fail_count: 0,
            types: HashMap::new(),
        });
        Some(ops)
    }
}

/// One call into the JIT.
#[derive(Debug, Clone, Copy)]
enum Call {
    Backedge { from: usize, target: usize },
    Record { pc: usize, mask: u16 },
    Guard { pc: usize, mask: u16 },
    Entry,
}

/// Loops that nest and overlap, as `(head, back-edge pc)`.
const LOOPS: [(usize, usize); 6] = [(0, 15), (2, 9), (4, 7), (5, 6), (8, 12), (10, 14)];

/// Mostly back-edges over [`LOOPS`], some arbitrary (also inverted) pairs,
/// type observations of one or two operand types, and rare function
/// entries, so loops get to compile before a whole-function compile
/// covers every op.
fn decode(raw: (u8, u8, u8, u8)) -> Call {
    let (kind, a, b, m) = raw;
    let second = if m % 4 == 0 { 1 << (m / 4 % 3) } else { 0 };
    let mask = (1u16 << (m % 3)) | second;
    match kind % 24 {
        0 => Call::Entry,
        1..=9 => {
            let (head, end) = LOOPS[a as usize % LOOPS.len()];
            Call::Backedge {
                from: end,
                target: head,
            }
        }
        10..=11 => Call::Backedge {
            from: a as usize % OPS,
            target: b as usize % OPS,
        },
        12..=17 => Call::Record {
            pc: a as usize % OPS,
            mask,
        },
        _ => Call::Guard {
            pc: a as usize % OPS,
            mask,
        },
    }
}

/// Drives both implementations through `calls`, comparing every answer.
/// Returns the dense state and its guard outcomes, in call order.
fn agree(
    config: JitConfig,
    calls: &[Call],
) -> Result<(JitState, Vec<GuardOutcome>), TestCaseError> {
    let mut dense = JitState::new(config, &[OPS]);
    let mut model = MapJit::new(config, OPS);
    let mut outcomes = Vec::new();
    for (step, &call) in calls.iter().enumerate() {
        match call {
            Call::Backedge { from, target } => prop_assert_eq!(
                dense.on_backedge(0, from, target),
                model.on_backedge(from, target),
                "step {}: {:?}",
                step,
                call
            ),
            Call::Record { pc, mask } => {
                dense.record_types(0, pc, mask);
                model.record_types(pc, mask);
            }
            Call::Guard { pc, mask } => {
                let outcome = dense.check_guard(0, pc, mask);
                prop_assert_eq!(
                    outcome,
                    model.check_guard(pc, mask),
                    "step {}: {:?}",
                    step,
                    call
                );
                outcomes.push(outcome);
            }
            Call::Entry => prop_assert_eq!(
                dense.on_function_entry(0),
                model.on_function_entry(),
                "step {}",
                step
            ),
        }
        for pc in 0..OPS {
            prop_assert_eq!(dense.is_compiled(0, pc), model.is_compiled(pc));
            prop_assert_eq!(dense.is_recording(0, pc), model.is_recording(pc));
        }
        prop_assert_eq!(dense.compiled_regions(), model.regions.len());
        prop_assert_eq!(dense.blacklisted_count(), model.blacklisted_heads.len());
    }
    Ok((dense, outcomes))
}

fn config(hot_threshold: u32, max_guard_failures: u32, mode: JitMode) -> JitConfig {
    JitConfig {
        hot_threshold,
        max_guard_failures,
        mode,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn dense_tables_match_the_hash_table_model(
        hot in 1u32..4,
        max_fails in 0u32..3,
        mode in prop::sample::select(vec![JitMode::Full, JitMode::LoopsOnly, JitMode::FunctionsOnly]),
        raw in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..160),
    ) {
        let calls: Vec<Call> = raw.into_iter().map(decode).collect();
        agree(config(hot, max_fails, mode), &calls)?;
    }
}

/// Runs `calls` through [`agree`] with hot threshold 1, zero tolerated
/// guard failures and loop tracing only.
fn agree_on(calls: &[Call]) -> (JitState, Vec<GuardOutcome>) {
    agree(config(1, 0, JitMode::LoopsOnly), calls).unwrap_or_else(|e| panic!("{e}"))
}

fn backedge(target: usize, from: usize) -> Call {
    Call::Backedge { from, target }
}

#[test]
fn nested_regions_keep_their_own_guards() {
    // Inner loop 4..=7 compiles with an int guard at 5; the outer loop
    // 2..=9 then records a float at 5 (owned by the inner region) and an
    // int at 3, and compiles around it. A float fails both ops' guards:
    // op 5 keeps the inner region's int guard, op 3 has the outer's.
    let (_, outcomes) = agree_on(&[
        backedge(4, 7),
        Call::Record { pc: 5, mask: 1 },
        backedge(4, 7),
        backedge(2, 9),
        Call::Record { pc: 5, mask: 2 },
        Call::Record { pc: 3, mask: 1 },
        backedge(2, 9),
        Call::Guard { pc: 5, mask: 2 },
        Call::Guard { pc: 3, mask: 2 },
    ]);
    assert_eq!(
        outcomes,
        [GuardOutcome::Blacklisted, GuardOutcome::Blacklisted]
    );
}

#[test]
fn an_enclosing_loop_never_inherits_a_blacklisted_regions_guards() {
    // The inner loop compiles with an int guard at 5 and is blacklisted by
    // a float. The outer loop then compiles around op 5 without recording
    // it: the op carries no guard, so a string passes.
    let (jit, outcomes) = agree_on(&[
        backedge(4, 7),
        Call::Record { pc: 5, mask: 1 },
        backedge(4, 7),
        Call::Guard { pc: 5, mask: 2 },
        backedge(2, 9),
        backedge(2, 9),
        Call::Guard { pc: 5, mask: 4 },
    ]);
    assert_eq!(
        outcomes,
        [GuardOutcome::Blacklisted, GuardOutcome::Pass],
        "a guard outlived its region"
    );
    assert!(jit.is_compiled(0, 5));
    assert_eq!(jit.blacklisted_count(), 1);
}

#[test]
fn a_displaced_recording_leaves_no_masks_behind() {
    // Loop 2..=9 starts recording and sees an int at 5, then loop 4..=7
    // displaces it. The later 2..=9 recording sees nothing at 5, so its
    // region must not guard op 5 with the stale int.
    let (jit, outcomes) = agree_on(&[
        backedge(2, 9),
        Call::Record { pc: 5, mask: 1 },
        backedge(4, 7),
        backedge(2, 9),
        backedge(2, 9),
        Call::Guard { pc: 5, mask: 2 },
        Call::Guard { pc: 5, mask: 4 },
    ]);
    assert_eq!(outcomes, [GuardOutcome::Pass, GuardOutcome::Pass]);
    assert!(jit.is_compiled(0, 5));
}
