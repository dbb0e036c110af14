//! Mark-sweep garbage collector.
//!
//! The collector is precise: the VM supplies every root (operand stacks,
//! frame locals, globals, interned constants). A collection walks the object
//! graph iteratively (no recursion, so deep structures cannot overflow the
//! Rust stack) and sweeps unmarked slots back onto the heap's free list.
//!
//! Collections are *costed*: [`GcOutcome`] reports live/freed counts and the
//! VM charges a pause on the virtual clock proportional to the work done —
//! reproducing the endogenous, autocorrelated timing perturbations that real
//! Python GCs inject into benchmark iterations.

use crate::heap::Heap;
use crate::value::{Handle, Value};

/// Result of one collection cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcOutcome {
    /// Objects surviving the cycle.
    pub live: u64,
    /// Objects reclaimed.
    pub freed: u64,
}

/// Runs a full mark-sweep cycle over `heap` with the given roots.
///
/// `root_values` yields every directly reachable [`Value`]; only heap handles
/// among them matter.
pub fn collect<I>(heap: &mut Heap, root_values: I) -> GcOutcome
where
    I: IntoIterator<Item = Value>,
{
    heap.clear_marks();
    let mut worklist: Vec<Handle> = Vec::with_capacity(256);
    for v in root_values {
        if let Value::Obj(h) = v {
            worklist.push(h);
        }
    }
    while let Some(h) = worklist.pop() {
        if heap.mark_one(h) {
            // Children push straight onto the worklist (no intermediate
            // buffer): `push_children` borrows the heap shared, the worklist
            // is independent storage.
            heap.push_children(h, &mut worklist);
        }
    }
    let (live, freed) = heap.sweep();
    GcOutcome { live, freed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{Heap, IterState, Object};

    #[test]
    fn unreachable_objects_are_freed() {
        let mut heap = Heap::new();
        let kept = heap.alloc_str("kept");
        let _garbage = heap.alloc_str("garbage");
        let out = collect(&mut heap, vec![Value::Obj(kept)]);
        assert_eq!(out.live, 1);
        assert_eq!(out.freed, 1);
        assert!(matches!(heap.get(kept), Object::Str(s) if s.as_str() == "kept"));
    }

    #[test]
    fn reachability_through_lists_and_tuples() {
        let mut heap = Heap::new();
        let inner = heap.alloc_str("inner");
        let tup = heap.alloc_tuple(vec![Value::Obj(inner)]);
        let list = heap.alloc_list(vec![Value::Obj(tup)]);
        let _garbage = heap.alloc_list(vec![Value::Int(1)]);
        let out = collect(&mut heap, vec![Value::Obj(list)]);
        assert_eq!(out.live, 3);
        assert_eq!(out.freed, 1);
    }

    #[test]
    fn reachability_through_dict_keys_and_values() {
        let mut heap = Heap::new();
        let key = heap.alloc_str("k");
        let val = heap.alloc_str("v");
        let d = heap.alloc_dict();
        let mut probes = 0;
        heap.with_dict_mut(d, |dict, heap| {
            dict.insert(heap, Value::Obj(key), Value::Obj(val), &mut probes)
                .unwrap();
        });
        let out = collect(&mut heap, vec![Value::Obj(d)]);
        assert_eq!(out.live, 3);
        assert_eq!(out.freed, 0);
    }

    #[test]
    fn reachability_through_iterators() {
        let mut heap = Heap::new();
        let list = heap.alloc_list(vec![Value::Int(1)]);
        let it = heap.alloc(Object::Iter(IterState::Seq {
            seq: list,
            index: 0,
        }));
        let out = collect(&mut heap, vec![Value::Obj(it)]);
        assert_eq!(out.live, 2);
    }

    #[test]
    fn cycles_are_collected() {
        let mut heap = Heap::new();
        let a = heap.alloc_list(vec![]);
        let b = heap.alloc_list(vec![Value::Obj(a)]);
        if let Object::List(items) = heap.get_mut(a) {
            items.push(Value::Obj(b));
        }
        // a <-> b cycle, unreachable from roots.
        let out = collect(&mut heap, std::iter::empty());
        assert_eq!(out.freed, 2);
        assert_eq!(out.live, 0);
    }

    #[test]
    fn deep_structures_do_not_overflow() {
        let mut heap = Heap::new();
        // A 100k-deep linked list of single-element Rust-side lists.
        let mut head = heap.alloc_list(vec![Value::None]);
        for _ in 0..100_000 {
            head = heap.alloc_list(vec![Value::Obj(head)]);
        }
        let out = collect(&mut heap, vec![Value::Obj(head)]);
        assert_eq!(out.live, 100_001);
    }

    #[test]
    fn threshold_resets_after_collection() {
        let mut heap = Heap::new();
        for _ in 0..crate::heap::DEFAULT_GC_THRESHOLD {
            heap.alloc_str("x");
        }
        assert!(heap.should_collect());
        collect(&mut heap, std::iter::empty());
        assert!(!heap.should_collect());
        assert_eq!(heap.allocs_since_gc(), 0);
    }
}
