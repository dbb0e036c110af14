//! Call frames and dynamic-execution counters.

use serde::{Deserialize, Serialize};

use crate::bytecode::OpClass;
use crate::value::Value;

/// One activation record.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Index into [`crate::bytecode::Program::codes`].
    pub code_id: usize,
    /// Next instruction to execute.
    pub pc: usize,
    /// Local slots (parameters first).
    pub locals: Vec<Value>,
    /// Operand-stack watermark at frame entry; restored on return.
    pub stack_base: usize,
}

/// Every opcode class, in [`op_class_index`] order.
pub const ALL_OP_CLASSES: [OpClass; 8] = [
    OpClass::Stack,
    OpClass::Arith,
    OpClass::Name,
    OpClass::Memory,
    OpClass::Dict,
    OpClass::Alloc,
    OpClass::Branch,
    OpClass::Call,
];

/// Returns a stable dense index for an opcode class.
pub fn op_class_index(class: OpClass) -> usize {
    match class {
        OpClass::Stack => 0,
        OpClass::Arith => 1,
        OpClass::Name => 2,
        OpClass::Memory => 3,
        OpClass::Dict => 4,
        OpClass::Alloc => 5,
        OpClass::Branch => 6,
        OpClass::Call => 7,
    }
}

/// Dynamic-execution statistics for one VM session.
///
/// These drive the suite-characterization experiment (Table 1) and let tests
/// assert that the engines actually did what the cost model charges for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DynCounters {
    /// Opcodes executed, by class (indexed by [`op_class_index`]).
    pub ops_by_class: [u64; 8],
    /// Total opcodes executed.
    pub total_ops: u64,
    /// Opcodes executed inside compiled (JIT) regions.
    pub jit_ops: u64,
    /// Dict slots touched across all hash-table operations.
    pub dict_probes: u64,
    /// Heap objects allocated.
    pub allocations: u64,
    /// GC cycles run.
    pub gc_cycles: u64,
    /// Virtual time spent in GC pauses, ns.
    pub gc_pause_ns: f64,
    /// Loop back-edges taken.
    pub backedges: u64,
    /// Function/builtin calls performed.
    pub calls: u64,
    /// JIT regions compiled.
    pub jit_compiles: u64,
    /// Virtual time spent compiling, ns.
    pub jit_compile_ns: f64,
    /// Guard failures (deoptimizations).
    pub deopts: u64,
    /// Regions abandoned after repeated guard failures.
    pub blacklisted: u64,
    /// OS-jitter pauses injected.
    pub jitter_events: u64,
    /// Virtual time injected by OS jitter, ns.
    pub jitter_ns: f64,
}

impl DynCounters {
    /// Records one executed opcode of `class`.
    pub fn count_op(&mut self, class: OpClass, compiled: bool) {
        self.ops_by_class[op_class_index(class)] += 1;
        self.total_ops += 1;
        if compiled {
            self.jit_ops += 1;
        }
    }

    /// Difference `self - earlier`, for per-iteration deltas.
    pub fn delta_since(&self, earlier: &DynCounters) -> DynCounters {
        let mut out = *self;
        for i in 0..8 {
            out.ops_by_class[i] -= earlier.ops_by_class[i];
        }
        out.total_ops -= earlier.total_ops;
        out.jit_ops -= earlier.jit_ops;
        out.dict_probes -= earlier.dict_probes;
        out.allocations -= earlier.allocations;
        out.gc_cycles -= earlier.gc_cycles;
        out.gc_pause_ns -= earlier.gc_pause_ns;
        out.backedges -= earlier.backedges;
        out.calls -= earlier.calls;
        out.jit_compiles -= earlier.jit_compiles;
        out.jit_compile_ns -= earlier.jit_compile_ns;
        out.deopts -= earlier.deopts;
        out.blacklisted -= earlier.blacklisted;
        out.jitter_events -= earlier.jitter_events;
        out.jitter_ns -= earlier.jitter_ns;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_distinct() {
        let mut seen = [false; 8];
        for c in ALL_OP_CLASSES {
            let i = op_class_index(c);
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn count_and_fraction() {
        let mut c = DynCounters::default();
        c.count_op(OpClass::Arith, false);
        c.count_op(OpClass::Arith, true);
        c.count_op(OpClass::Call, false);
        assert_eq!(c.total_ops, 3);
        assert_eq!(c.jit_ops, 1);
        assert_eq!(c.ops_by_class[op_class_index(OpClass::Arith)], 2);
    }

    #[test]
    fn delta_since_subtracts_fields() {
        let mut a = DynCounters::default();
        a.count_op(OpClass::Stack, false);
        a.dict_probes = 5;
        let snapshot = a;
        a.count_op(OpClass::Stack, false);
        a.dict_probes = 9;
        let d = a.delta_since(&snapshot);
        assert_eq!(d.total_ops, 1);
        assert_eq!(d.dict_probes, 4);
    }
}
