//! The tracing-JIT engine model.
//!
//! MiniPy's JIT follows the behavioural contour of meta-tracing VMs (PyPy):
//!
//! 1. **Profiling** — every loop back-edge bumps a counter (cheap, but not
//!    free: the cost model charges [`crate::cost::CostModel::profile_backedge`]).
//! 2. **Recording** — once a back-edge crosses the hot threshold, the next
//!    loop iteration runs in recording mode: it executes normally (at
//!    interpreter cost) while capturing the operand-type profile of every
//!    arithmetic opcode in the loop region.
//! 3. **Compilation** — when the back-edge fires again, the region
//!    `[loop head, back-edge]` is marked compiled; a compile cost proportional
//!    to the region size is charged. Subsequent execution of those opcodes
//!    runs at JIT cost.
//! 4. **Guards & deoptimization** — compiled arithmetic opcodes check their
//!    operand types against the recorded profile. A mismatch costs a deopt
//!    penalty and widens the guard; repeated failures blacklist the region,
//!    returning it to the interpreter forever — the mechanism behind
//!    "no steady state" benchmarks.

use serde::{Deserialize, Serialize};

/// Default number of back-edge executions before a loop is considered hot.
/// PyPy's default trace threshold is 1039; ours is lower because MiniPy
/// workloads are smaller.
pub const DEFAULT_HOT_THRESHOLD: u32 = 500;

/// Guard failures tolerated before a region is blacklisted.
pub const MAX_GUARD_FAILURES: u32 = 3;

/// Which compilation strategies the JIT uses — the axis real Python JITs
/// differ on: PyPy traces loops, Cinder/Pyston compile methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum JitMode {
    /// Loop tracing *and* method-at-a-time function compilation.
    #[default]
    Full,
    /// Loop tracing only (a pure meta-tracing VM; call-dominated code stays
    /// interpreted).
    LoopsOnly,
    /// Whole-function compilation only (a method JIT; loops inside cold
    /// functions stay interpreted).
    FunctionsOnly,
}

impl JitMode {
    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            JitMode::Full => "full",
            JitMode::LoopsOnly => "loops",
            JitMode::FunctionsOnly => "methods",
        }
    }
}

/// Configuration of the JIT engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JitConfig {
    /// Back-edge count that triggers recording.
    pub hot_threshold: u32,
    /// Guard failures tolerated before blacklisting.
    pub max_guard_failures: u32,
    /// Which compilation strategies are enabled.
    pub mode: JitMode,
}

impl Default for JitConfig {
    fn default() -> Self {
        JitConfig {
            hot_threshold: DEFAULT_HOT_THRESHOLD,
            max_guard_failures: MAX_GUARD_FAILURES,
            mode: JitMode::Full,
        }
    }
}

impl JitConfig {
    /// A loops-only (pure tracing) configuration.
    pub fn loops_only() -> Self {
        JitConfig {
            mode: JitMode::LoopsOnly,
            ..JitConfig::default()
        }
    }

    /// A functions-only (method JIT) configuration.
    pub fn functions_only() -> Self {
        JitConfig {
            mode: JitMode::FunctionsOnly,
            ..JitConfig::default()
        }
    }
}

/// What happened on a back-edge, so the interpreter can charge costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackedgeEvent {
    /// Nothing special; profile cost only.
    Cold,
    /// The loop just became hot; recording starts with the next iteration.
    StartRecording,
    /// Recording finished and the region was compiled; contains the number of
    /// bytecodes in the compiled region (for compile costing).
    Compiled {
        /// Bytecodes in the region.
        ops: usize,
    },
}

/// Outcome of a type-guard check in compiled code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardOutcome {
    /// Types matched the trace.
    Pass,
    /// Guard failed; the guard was widened and the region stays compiled.
    Deopt,
    /// Guard failed once too often; the region was blacklisted.
    Blacklisted,
}

#[derive(Debug, Clone)]
struct Recording {
    head: u32,
    backedge_from: u32,
}

#[derive(Debug, Clone)]
struct Region {
    head: u32,
    end: u32,
    fail_count: u32,
}

/// One code object's JIT state. Every per-pc table is a dense array indexed
/// by pc: `check_guard` runs on every compiled arithmetic op and
/// `on_backedge` on every cold or blacklisted loop, so both must cost no
/// more than array loads.
#[derive(Debug, Clone, Default)]
struct CodeJit {
    /// Per loop head: back-edges counted towards the hot threshold.
    backedge_counts: Vec<u32>,
    /// Per-op: 0 = interpreted, otherwise region index + 1.
    compiled: Vec<u32>,
    /// Per-op type guard of the region that owns the op (0 = no guard).
    /// Zero wherever `compiled` is zero, so a region that later compiles
    /// around an op never inherits a guard from an earlier owner.
    guards: Vec<u16>,
    /// Per-op operand types seen by the active recording. Zero outside it:
    /// cleared when the recording finishes or another one displaces it.
    recorded: Vec<u16>,
    recording: Option<Recording>,
    regions: Vec<Region>,
    /// Per loop head: given up on after too many guard failures.
    blacklisted: Vec<bool>,
    /// Function-entry profile count (method-at-a-time compilation).
    entry_count: u32,
    /// Whole-function compilation already happened.
    function_compiled: bool,
}

/// Whole-program JIT state, parallel to the program's code objects.
#[derive(Debug, Clone)]
pub struct JitState {
    config: JitConfig,
    codes: Vec<CodeJit>,
}

impl JitState {
    /// Creates JIT state for a program with the given per-code op counts.
    pub fn new(config: JitConfig, code_op_counts: &[usize]) -> Self {
        let codes = code_op_counts
            .iter()
            .map(|&n| CodeJit {
                backedge_counts: vec![0; n],
                compiled: vec![0; n],
                guards: vec![0; n],
                recorded: vec![0; n],
                blacklisted: vec![false; n],
                ..CodeJit::default()
            })
            .collect();
        JitState { config, codes }
    }

    /// True if the opcode at `(code_id, pc)` runs at JIT cost.
    #[inline]
    pub fn is_compiled(&self, code_id: usize, pc: usize) -> bool {
        self.codes[code_id]
            .compiled
            .get(pc)
            .map(|&r| r != 0)
            .unwrap_or(false)
    }

    /// True if a recording is active for `code_id` and `pc` lies inside the
    /// region being recorded (the interpreter then captures type profiles).
    #[inline]
    pub fn is_recording(&self, code_id: usize, pc: usize) -> bool {
        match &self.codes[code_id].recording {
            Some(r) => (pc as u32) >= r.head && (pc as u32) <= r.backedge_from,
            None => false,
        }
    }

    /// Captures an operand-type observation while recording.
    pub fn record_types(&mut self, code_id: usize, pc: usize, mask: u16) {
        let cj = &mut self.codes[code_id];
        if let Some(r) = &cj.recording {
            if (pc as u32) >= r.head && (pc as u32) <= r.backedge_from {
                cj.recorded[pc] |= mask;
            }
        }
    }

    /// Handles a back-edge from `from_pc` to `target_pc`.
    pub fn on_backedge(
        &mut self,
        code_id: usize,
        from_pc: usize,
        target_pc: usize,
    ) -> BackedgeEvent {
        if self.config.mode == JitMode::FunctionsOnly {
            return BackedgeEvent::Cold;
        }
        let cfg = self.config;
        let cj = &mut self.codes[code_id];
        let (from, target) = (from_pc as u32, target_pc as u32);

        // Finish an active recording whose back-edge just fired. The region
        // owns (and takes the recorded guards of) only the ops no earlier
        // region owns.
        if let Some(rec) = &cj.recording {
            if rec.backedge_from == from && rec.head == target {
                cj.recording = None;
                let region_idx = cj.regions.len() as u32 + 1;
                let mut ops = 0usize;
                for pc in target_pc..=from_pc {
                    if cj.compiled[pc] == 0 {
                        cj.compiled[pc] = region_idx;
                        cj.guards[pc] = cj.recorded[pc];
                        ops += 1;
                    }
                    cj.recorded[pc] = 0;
                }
                cj.regions.push(Region {
                    head: target,
                    end: from,
                    fail_count: 0,
                });
                return BackedgeEvent::Compiled { ops };
            }
        }

        // Already compiled or given up on?
        if cj.compiled[target_pc] != 0 || cj.blacklisted[target_pc] {
            return BackedgeEvent::Cold;
        }

        let count = &mut cj.backedge_counts[target_pc];
        *count += 1;
        if *count >= cfg.hot_threshold {
            *count = 0;
            // Displace any stalled recording (its loop exited mid-record).
            if let Some(old) = cj.recording.take() {
                for pc in old.head..=old.backedge_from {
                    cj.recorded[pc as usize] = 0;
                }
            }
            cj.recording = Some(Recording {
                head: target,
                backedge_from: from,
            });
            return BackedgeEvent::StartRecording;
        }
        BackedgeEvent::Cold
    }

    /// Checks the type guard for a compiled arithmetic opcode.
    pub fn check_guard(&mut self, code_id: usize, pc: usize, mask: u16) -> GuardOutcome {
        let max_fails = self.config.max_guard_failures;
        let cj = &mut self.codes[code_id];
        // An op's guard is zero unless a region owns the op, so this also
        // passes every interpreted op.
        let expected = cj.guards[pc];
        if expected == 0 || (mask & !expected) == 0 {
            return GuardOutcome::Pass;
        }
        // Guard failure: widen, maybe blacklist.
        let region_ref = cj.compiled[pc];
        let region = &mut cj.regions[(region_ref - 1) as usize];
        region.fail_count += 1;
        cj.guards[pc] |= mask;
        if region.fail_count > max_fails {
            let (head, end) = (region.head as usize, region.end as usize);
            cj.blacklisted[head] = true;
            for p in head..=end {
                if cj.compiled[p] == region_ref {
                    cj.compiled[p] = 0;
                    cj.guards[p] = 0;
                }
            }
            GuardOutcome::Blacklisted
        } else {
            GuardOutcome::Deopt
        }
    }

    /// Handles a function entry (method-at-a-time compilation path, the
    /// complement to loop tracing: call-dominated code like recursive
    /// workloads has no hot back-edges, but its functions get hot).
    ///
    /// Returns the number of newly compiled ops when the entry count crosses
    /// the hot threshold, `None` otherwise. Whole-function regions carry no
    /// type profile, so they never deoptimize (loop regions inside them keep
    /// their guards).
    pub fn on_function_entry(&mut self, code_id: usize) -> Option<usize> {
        if self.config.mode == JitMode::LoopsOnly {
            return None;
        }
        let threshold = self.config.hot_threshold;
        let cj = &mut self.codes[code_id];
        if cj.function_compiled {
            return None;
        }
        cj.entry_count += 1;
        if cj.entry_count < threshold {
            return None;
        }
        cj.function_compiled = true;
        let region_idx = cj.regions.len() as u32 + 1;
        let mut ops = 0usize;
        for slot in cj.compiled.iter_mut() {
            if *slot == 0 {
                *slot = region_idx;
                ops += 1;
            }
        }
        if ops == 0 {
            return None;
        }
        cj.regions.push(Region {
            head: 0,
            end: cj.compiled.len().saturating_sub(1) as u32,
            fail_count: 0,
        });
        Some(ops)
    }

    /// Number of regions ever compiled in the whole program.
    pub fn compiled_regions(&self) -> usize {
        self.codes.iter().map(|c| c.regions.len()).sum()
    }

    /// Number of blacklisted loop heads in the whole program.
    pub fn blacklisted_count(&self) -> usize {
        self.codes
            .iter()
            .map(|c| c.blacklisted.iter().filter(|&&b| b).count())
            .sum()
    }

    /// The configured hot threshold.
    pub fn config(&self) -> JitConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::TypeTag;

    fn jit_for(ops: usize) -> JitState {
        JitState::new(
            JitConfig {
                hot_threshold: 3,
                max_guard_failures: 2,
                mode: JitMode::Full,
            },
            &[ops],
        )
    }

    #[test]
    fn cold_loop_stays_interpreted() {
        let mut j = jit_for(10);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        assert!(!j.is_compiled(0, 5));
    }

    #[test]
    fn hot_loop_records_then_compiles() {
        let mut j = jit_for(10);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::StartRecording);
        assert!(j.is_recording(0, 5));
        assert!(!j.is_recording(0, 9));
        j.record_types(0, 5, TypeTag::Int.bit());
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Compiled { ops: 7 });
        assert!(j.is_compiled(0, 2));
        assert!(j.is_compiled(0, 8));
        assert!(!j.is_compiled(0, 9));
        assert_eq!(j.compiled_regions(), 1);
    }

    #[test]
    fn guards_pass_on_recorded_types() {
        let mut j = jit_for(10);
        for _ in 0..3 {
            j.on_backedge(0, 8, 2);
        }
        j.record_types(0, 5, TypeTag::Int.bit());
        j.on_backedge(0, 8, 2);
        assert_eq!(j.check_guard(0, 5, TypeTag::Int.bit()), GuardOutcome::Pass);
        // Unprofiled pc in region: no guard.
        assert_eq!(
            j.check_guard(0, 4, TypeTag::Float.bit()),
            GuardOutcome::Pass
        );
    }

    #[test]
    fn guard_failure_widens_then_blacklists() {
        let mut j = jit_for(10);
        for _ in 0..3 {
            j.on_backedge(0, 8, 2);
        }
        j.record_types(0, 5, TypeTag::Int.bit());
        j.on_backedge(0, 8, 2);
        // First float: deopt + widen.
        assert_eq!(
            j.check_guard(0, 5, TypeTag::Float.bit()),
            GuardOutcome::Deopt
        );
        // Float now accepted.
        assert_eq!(
            j.check_guard(0, 5, TypeTag::Float.bit()),
            GuardOutcome::Pass
        );
        // New types keep failing until blacklist.
        assert_eq!(j.check_guard(0, 5, TypeTag::Str.bit()), GuardOutcome::Deopt);
        assert_eq!(
            j.check_guard(0, 5, TypeTag::List.bit()),
            GuardOutcome::Blacklisted
        );
        assert!(!j.is_compiled(0, 5));
        assert_eq!(j.blacklisted_count(), 1);
        // Blacklisted loops never recompile.
        for _ in 0..10 {
            assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        }
    }

    #[test]
    fn nested_region_does_not_steal_compiled_ops() {
        let mut j = jit_for(20);
        // Inner loop [5..=10] compiles first.
        for _ in 0..3 {
            j.on_backedge(0, 10, 5);
        }
        assert_eq!(j.on_backedge(0, 10, 5), BackedgeEvent::Compiled { ops: 6 });
        // Outer loop [2..=15] compiles around it; only new ops counted.
        for _ in 0..3 {
            j.on_backedge(0, 15, 2);
        }
        match j.on_backedge(0, 15, 2) {
            BackedgeEvent::Compiled { ops } => assert_eq!(ops, 14 - 6),
            other => panic!("unexpected {other:?}"),
        }
        assert!(j.is_compiled(0, 3));
        assert!(j.is_compiled(0, 7));
    }

    #[test]
    fn loops_only_mode_never_compiles_functions() {
        let mut j = JitState::new(
            JitConfig {
                hot_threshold: 2,
                max_guard_failures: 2,
                mode: JitMode::LoopsOnly,
            },
            &[10],
        );
        for _ in 0..10 {
            assert_eq!(j.on_function_entry(0), None);
        }
        // Loops still work.
        j.on_backedge(0, 8, 2);
        assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::StartRecording);
    }

    #[test]
    fn functions_only_mode_never_traces_loops() {
        let mut j = JitState::new(
            JitConfig {
                hot_threshold: 2,
                max_guard_failures: 2,
                mode: JitMode::FunctionsOnly,
            },
            &[10],
        );
        for _ in 0..10 {
            assert_eq!(j.on_backedge(0, 8, 2), BackedgeEvent::Cold);
        }
        // Functions still compile.
        assert_eq!(j.on_function_entry(0), None);
        assert_eq!(j.on_function_entry(0), Some(10));
    }

    #[test]
    fn mode_names() {
        assert_eq!(JitMode::Full.name(), "full");
        assert_eq!(JitMode::LoopsOnly.name(), "loops");
        assert_eq!(JitMode::FunctionsOnly.name(), "methods");
    }

    #[test]
    fn stalled_recording_is_displaced_by_new_hot_loop() {
        let mut j = jit_for(30);
        for _ in 0..3 {
            j.on_backedge(0, 8, 2); // starts recording for loop A
        }
        assert!(j.is_recording(0, 4));
        // Loop B becomes hot; A's recording never finished.
        for _ in 0..2 {
            j.on_backedge(0, 25, 20);
        }
        assert_eq!(j.on_backedge(0, 25, 20), BackedgeEvent::StartRecording);
        assert!(j.is_recording(0, 22));
        assert!(!j.is_recording(0, 4));
    }
}
