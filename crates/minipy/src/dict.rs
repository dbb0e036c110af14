//! Seeded open-addressing hash table — MiniPy's `dict`.
//!
//! This mirrors the two properties of CPython dicts that matter for the
//! benchmarking methodology:
//!
//! * **String hashes are randomized per invocation** (CPython's
//!   `PYTHONHASHSEED`). The seed lives on the [`Heap`]; with different seeds
//!   the same program does different amounts of probe work and iterates dicts
//!   in different orders — a genuine inter-invocation nondeterminism source.
//! * **Probe work is observable.** Every lookup/insert reports how many slots
//!   it touched through the `probes` out-counter, which the VM converts into
//!   virtual time.
//!
//! Probing uses CPython's `5*i + 1 + perturb` recurrence; deletion uses
//! tombstones; tables resize at 2/3 fill.

use crate::error::{MpError, MpResult};
use crate::heap::{Heap, Object};
use crate::value::Value;

const MIN_CAPACITY: usize = 8;
const PERTURB_SHIFT: u32 = 5;

#[derive(Debug, Clone, PartialEq)]
enum Slot {
    Empty,
    Tombstone,
    Entry { hash: u64, key: Value, value: Value },
}

/// An insertion-point or hit returned by the probe loop.
enum Probe {
    /// Key present at this slot.
    Found(usize),
    /// Key absent; this is the slot to insert into (first tombstone if any,
    /// otherwise the terminating empty slot).
    Vacant(usize),
}

/// A probed insert destination from [`Dict::plan_insert`]: the key's hash,
/// the slot to write, and whether the key is already present there. Only
/// valid against the exact dict state it was planned on.
#[derive(Clone, Copy)]
pub struct InsertPlan {
    hash: u64,
    slot: usize,
    found: bool,
}

/// MiniPy's hash table.
///
/// Entries move on every resize, and nothing outside the table tracks
/// them: the two-phase `plan_*`/`commit_*` pairs hold a slot index only
/// across a window in which nothing else touches the dict, and a key
/// iterator resumes its scan from a position, not from an entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Dict {
    slots: Vec<Slot>,
    /// Live entries.
    used: usize,
    /// Live entries plus tombstones (controls resize).
    fill: usize,
}

impl Default for Dict {
    fn default() -> Self {
        Dict::new()
    }
}

/// Hashes a value for dict-key use.
///
/// Int hashes are deliberately **not** seeded (CPython randomizes only
/// str/bytes); string hashes mix in `heap`'s per-invocation seed.
///
/// # Errors
///
/// Returns a `TypeError` for unhashable values (lists, dicts, iterators).
pub fn hash_value(heap: &Heap, v: Value) -> MpResult<u64> {
    fn mix(x: u64) -> u64 {
        // splitmix64 finalizer: good avalanche for sequential ints is NOT
        // desired for ints (Python keeps them near-identity), so this is only
        // used for floats and aggregate combination.
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    match v {
        Value::None => Ok(0x6e6f_6e65_6861_7368),
        Value::Bool(b) => Ok(u64::from(b)),
        // Near-identity like CPython: equal small ints hash to themselves so
        // int-keyed dicts behave deterministically across invocations.
        Value::Int(i) => Ok(i as u64),
        Value::Float(f) => {
            if f.is_finite() && f == f.trunc() && f.abs() < 9.2e18 {
                // hash(2.0) == hash(2) in Python.
                Ok(f as i64 as u64)
            } else {
                Ok(mix(f.to_bits()))
            }
        }
        Value::Obj(h) => match heap.get(h) {
            // Memoized per heap slot: same hash_str result, computed once.
            Object::Str(s) => Ok(heap.memoized_str_hash(h, s)),
            Object::Tuple(items) => {
                // Python's tuple hash: combine element hashes order-sensitively.
                let mut acc: u64 = 0x3456_789a_bcde_f012;
                for item in items {
                    let hv = hash_value(heap, *item)?;
                    acc = mix(acc ^ hv).rotate_left(13);
                }
                Ok(acc)
            }
            other => Err(MpError::type_error(format!(
                "unhashable type: '{}'",
                match other {
                    Object::List(_) => "list",
                    Object::Dict(_) => "dict",
                    _ => "object",
                }
            ))),
        },
    }
}

/// Seeded FNV-1a over the string bytes: cheap stand-in for CPython's siphash,
/// with the same property that the seed perturbs every string hash.
pub fn hash_str(seed: u64, s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // One extra mixing round so short strings spread across the table.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

impl Dict {
    /// Creates an empty dict.
    pub fn new() -> Self {
        Dict {
            slots: Vec::new(),
            used: 0,
            fill: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.used
    }

    /// True if the dict has no entries.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    /// Current slot-table capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Iterates live `(key, value)` entries in slot order.
    ///
    /// Slot order depends on hash values — and therefore on the per-invocation
    /// string-hash seed — which is exactly the Python behaviour the
    /// methodology needs to contend with.
    pub fn entries(&self) -> impl Iterator<Item = (Value, Value)> + '_ {
        self.slots.iter().filter_map(|s| match s {
            Slot::Entry { key, value, .. } => Some((*key, *value)),
            _ => None,
        })
    }

    /// Returns the first live entry at slot index >= `slot`, with its slot.
    /// Used by dict-key iterators to walk the table incrementally.
    pub fn next_entry_from(&self, slot: usize) -> Option<(usize, Value, Value)> {
        self.slots[slot.min(self.slots.len())..]
            .iter()
            .enumerate()
            .find_map(|(i, s)| match s {
                Slot::Entry { key, value, .. } => Some((slot + i, *key, *value)),
                _ => None,
            })
    }

    fn probe(&self, heap: &Heap, hash: u64, key: Value, probes: &mut u64) -> Probe {
        debug_assert!(!self.slots.is_empty());
        let mask = (self.slots.len() - 1) as u64;
        let mut i = hash & mask;
        let mut perturb = hash;
        let mut first_tombstone: Option<usize> = None;
        loop {
            *probes += 1;
            match &self.slots[i as usize] {
                Slot::Empty => {
                    return Probe::Vacant(first_tombstone.unwrap_or(i as usize));
                }
                Slot::Tombstone => {
                    if first_tombstone.is_none() {
                        first_tombstone = Some(i as usize);
                    }
                }
                Slot::Entry {
                    hash: h, key: k, ..
                } => {
                    if *h == hash && heap.value_eq(*k, key) {
                        return Probe::Found(i as usize);
                    }
                }
            }
            perturb >>= PERTURB_SHIFT;
            i = (i.wrapping_mul(5).wrapping_add(1).wrapping_add(perturb)) & mask;
        }
    }

    /// Looks up `key`.
    ///
    /// # Errors
    ///
    /// Returns a `TypeError` if `key` is unhashable.
    pub fn try_get(&self, heap: &Heap, key: Value, probes: &mut u64) -> MpResult<Option<Value>> {
        if self.slots.is_empty() {
            return Ok(None);
        }
        let hash = hash_value(heap, key)?;
        match self.probe(heap, hash, key, probes) {
            Probe::Found(i) => match &self.slots[i] {
                Slot::Entry { value, .. } => Ok(Some(*value)),
                _ => unreachable!("probe returned Found for non-entry"),
            },
            Probe::Vacant(_) => Ok(None),
        }
    }

    /// Infallible lookup for keys that are known hashable (e.g. keys taken
    /// out of another dict during equality checks).
    ///
    /// # Panics
    ///
    /// Panics if `key` is unhashable.
    pub fn get_with_eq(&self, heap: &Heap, key: Value, probes: &mut u64) -> Option<Value> {
        self.try_get(heap, key, probes)
            .expect("key known to be hashable")
    }

    /// True if `key` is present.
    ///
    /// # Errors
    ///
    /// Returns a `TypeError` if `key` is unhashable.
    pub fn contains(&self, heap: &Heap, key: Value, probes: &mut u64) -> MpResult<bool> {
        Ok(self.try_get(heap, key, probes)?.is_some())
    }

    /// Inserts `key → value`, returning any previous value.
    ///
    /// # Errors
    ///
    /// Returns a `TypeError` if `key` is unhashable.
    pub fn insert(
        &mut self,
        heap: &Heap,
        key: Value,
        value: Value,
        probes: &mut u64,
    ) -> MpResult<Option<Value>> {
        let hash = hash_value(heap, key)?;
        if self.slots.is_empty() {
            self.slots = vec![Slot::Empty; MIN_CAPACITY];
        }
        match self.probe(heap, hash, key, probes) {
            Probe::Found(i) => match &mut self.slots[i] {
                Slot::Entry { value: v, .. } => Ok(Some(std::mem::replace(v, value))),
                _ => unreachable!("probe returned Found for non-entry"),
            },
            Probe::Vacant(i) => {
                let was_tombstone = matches!(self.slots[i], Slot::Tombstone);
                self.slots[i] = Slot::Entry { hash, key, value };
                self.used += 1;
                if !was_tombstone {
                    self.fill += 1;
                }
                if self.fill * 3 >= self.slots.len() * 2 {
                    self.resize(probes);
                }
                Ok(None)
            }
        }
    }

    /// The read-only half of an insert: hashes the key and probes its
    /// destination slot without touching the table. The caller runs this
    /// under a *shared* heap borrow and then commits the write with
    /// [`Dict::commit_insert`] under a disjoint `&mut Dict` — avoiding the
    /// take/put of [`crate::heap::Heap::with_dict_mut`] on the hot store
    /// path. Returns `None` when the table is unallocated (first-ever
    /// insert); route that through [`Dict::insert`] instead.
    ///
    /// Probe charging is identical to [`Dict::insert`]: the probe runs
    /// exactly once, here.
    ///
    /// # Errors
    ///
    /// Returns a `TypeError` if `key` is unhashable.
    pub fn plan_insert(
        &self,
        heap: &Heap,
        key: Value,
        probes: &mut u64,
    ) -> MpResult<Option<InsertPlan>> {
        if self.slots.is_empty() {
            return Ok(None);
        }
        let hash = hash_value(heap, key)?;
        let (slot, found) = match self.probe(heap, hash, key, probes) {
            Probe::Found(i) => (i, true),
            Probe::Vacant(i) => (i, false),
        };
        Ok(Some(InsertPlan { hash, slot, found }))
    }

    /// The mutating half of [`Dict::plan_insert`]: writes the planned slot,
    /// with the same bookkeeping (and possible growth) as [`Dict::insert`],
    /// and returns the previous value. The dict must not have been modified
    /// between plan and commit.
    pub fn commit_insert(
        &mut self,
        plan: InsertPlan,
        key: Value,
        value: Value,
        probes: &mut u64,
    ) -> Option<Value> {
        let InsertPlan { hash, slot, found } = plan;
        if found {
            match &mut self.slots[slot] {
                Slot::Entry { value: v, .. } => Some(std::mem::replace(v, value)),
                _ => unreachable!("planned overwrite of a non-entry slot"),
            }
        } else {
            let was_tombstone = matches!(self.slots[slot], Slot::Tombstone);
            self.slots[slot] = Slot::Entry { hash, key, value };
            self.used += 1;
            if !was_tombstone {
                self.fill += 1;
            }
            if self.fill * 3 >= self.slots.len() * 2 {
                self.resize(probes);
            }
            None
        }
    }

    /// The read-only half of a removal: probes for the key's slot. Commit a
    /// hit with [`Dict::commit_remove`]; a `None` means the key is absent
    /// (nothing to commit).
    ///
    /// # Errors
    ///
    /// Returns a `TypeError` if `key` is unhashable.
    pub fn plan_remove(
        &self,
        heap: &Heap,
        key: Value,
        probes: &mut u64,
    ) -> MpResult<Option<usize>> {
        if self.slots.is_empty() {
            return Ok(None);
        }
        let hash = hash_value(heap, key)?;
        match self.probe(heap, hash, key, probes) {
            Probe::Found(i) => Ok(Some(i)),
            Probe::Vacant(_) => Ok(None),
        }
    }

    /// The mutating half of [`Dict::plan_remove`]: tombstones the planned
    /// slot and returns its value. The dict must not have been modified
    /// between plan and commit.
    pub fn commit_remove(&mut self, slot: usize) -> Value {
        let old = std::mem::replace(&mut self.slots[slot], Slot::Tombstone);
        self.used -= 1;
        match old {
            Slot::Entry { value, .. } => value,
            _ => unreachable!("planned removal of a non-entry slot"),
        }
    }

    /// Removes `key`, returning its value if present.
    ///
    /// # Errors
    ///
    /// Returns a `TypeError` if `key` is unhashable.
    pub fn remove(&mut self, heap: &Heap, key: Value, probes: &mut u64) -> MpResult<Option<Value>> {
        if self.slots.is_empty() {
            return Ok(None);
        }
        let hash = hash_value(heap, key)?;
        match self.probe(heap, hash, key, probes) {
            Probe::Found(i) => {
                let old = std::mem::replace(&mut self.slots[i], Slot::Tombstone);
                self.used -= 1;
                match old {
                    Slot::Entry { value, .. } => Ok(Some(value)),
                    _ => unreachable!("probe returned Found for non-entry"),
                }
            }
            Probe::Vacant(_) => Ok(None),
        }
    }

    fn resize(&mut self, probes: &mut u64) {
        let target = (self.used * 3).max(MIN_CAPACITY).next_power_of_two();
        let old = std::mem::replace(&mut self.slots, vec![Slot::Empty; target]);
        self.fill = self.used;
        let mask = (target - 1) as u64;
        for slot in old {
            if let Slot::Entry { hash, key, value } = slot {
                // Re-insert without equality checks: all keys are distinct.
                let mut i = hash & mask;
                let mut perturb = hash;
                loop {
                    *probes += 1;
                    if matches!(self.slots[i as usize], Slot::Empty) {
                        self.slots[i as usize] = Slot::Entry { hash, key, value };
                        break;
                    }
                    perturb >>= PERTURB_SHIFT;
                    i = (i.wrapping_mul(5).wrapping_add(1).wrapping_add(perturb)) & mask;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap_with_seed(seed: u64) -> Heap {
        Heap::with_seed(seed)
    }

    #[test]
    fn insert_get_roundtrip() {
        let heap = heap_with_seed(1);
        let mut d = Dict::new();
        let mut probes = 0;
        for i in 0..100 {
            d.insert(&heap, Value::Int(i), Value::Int(i * 10), &mut probes)
                .unwrap();
        }
        assert_eq!(d.len(), 100);
        for i in 0..100 {
            assert_eq!(
                d.try_get(&heap, Value::Int(i), &mut probes).unwrap(),
                Some(Value::Int(i * 10))
            );
        }
        assert_eq!(
            d.try_get(&heap, Value::Int(100), &mut probes).unwrap(),
            None
        );
    }

    #[test]
    fn overwrite_returns_old_value() {
        let heap = heap_with_seed(1);
        let mut d = Dict::new();
        let mut probes = 0;
        d.insert(&heap, Value::Int(1), Value::Int(10), &mut probes)
            .unwrap();
        let old = d
            .insert(&heap, Value::Int(1), Value::Int(20), &mut probes)
            .unwrap();
        assert_eq!(old, Some(Value::Int(10)));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn remove_uses_tombstones_and_lookup_still_works() {
        let heap = heap_with_seed(7);
        let mut d = Dict::new();
        let mut probes = 0;
        for i in 0..50 {
            d.insert(&heap, Value::Int(i), Value::Int(i), &mut probes)
                .unwrap();
        }
        for i in (0..50).step_by(2) {
            assert_eq!(
                d.remove(&heap, Value::Int(i), &mut probes).unwrap(),
                Some(Value::Int(i))
            );
        }
        assert_eq!(d.len(), 25);
        for i in 0..50 {
            let expect = if i % 2 == 1 {
                Some(Value::Int(i))
            } else {
                None
            };
            assert_eq!(
                d.try_get(&heap, Value::Int(i), &mut probes).unwrap(),
                expect
            );
        }
    }

    #[test]
    fn string_keys_compare_by_content() {
        let mut heap = heap_with_seed(3);
        let k1 = heap.alloc_str("key");
        let k2 = heap.alloc_str("key");
        let mut d = Dict::new();
        let mut probes = 0;
        d.insert(&heap, Value::Obj(k1), Value::Int(1), &mut probes)
            .unwrap();
        assert_eq!(
            d.try_get(&heap, Value::Obj(k2), &mut probes).unwrap(),
            Some(Value::Int(1))
        );
    }

    #[test]
    fn string_hash_depends_on_seed_int_hash_does_not() {
        assert_ne!(hash_str(1, "hello"), hash_str(2, "hello"));
        let h1 = heap_with_seed(1);
        let h2 = heap_with_seed(2);
        assert_eq!(
            hash_value(&h1, Value::Int(42)).unwrap(),
            hash_value(&h2, Value::Int(42)).unwrap()
        );
    }

    #[test]
    fn float_int_hash_consistency() {
        let heap = heap_with_seed(1);
        assert_eq!(
            hash_value(&heap, Value::Float(2.0)).unwrap(),
            hash_value(&heap, Value::Int(2)).unwrap()
        );
        assert_ne!(
            hash_value(&heap, Value::Float(2.5)).unwrap(),
            hash_value(&heap, Value::Int(2)).unwrap()
        );
    }

    #[test]
    fn unhashable_key_is_type_error() {
        let mut heap = heap_with_seed(1);
        let l = heap.alloc_list(vec![]);
        let mut d = Dict::new();
        let mut probes = 0;
        assert!(d
            .insert(&heap, Value::Obj(l), Value::Int(1), &mut probes)
            .is_err());
    }

    #[test]
    fn iteration_order_changes_with_seed_for_string_keys() {
        let keys = [
            "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
        ];
        let order_for = |seed: u64| -> Vec<String> {
            let mut heap = heap_with_seed(seed);
            let mut d = Dict::new();
            let mut probes = 0;
            for k in keys {
                let h = heap.alloc_str(k);
                d.insert(&heap, Value::Obj(h), Value::None, &mut probes)
                    .unwrap();
            }
            d.entries()
                .map(|(k, _)| {
                    match heap.get(match k {
                        Value::Obj(h) => h,
                        _ => unreachable!(),
                    }) {
                        Object::Str(s) => s.to_string(),
                        _ => unreachable!(),
                    }
                })
                .collect()
        };
        // At least one pair of seeds among a handful must disagree on order.
        let base = order_for(1);
        let differs = (2..10).any(|s| order_for(s) != base);
        assert!(differs, "iteration order should depend on the hash seed");
    }

    #[test]
    fn probe_counter_accumulates() {
        let heap = heap_with_seed(1);
        let mut d = Dict::new();
        let mut probes = 0;
        d.insert(&heap, Value::Int(1), Value::Int(1), &mut probes)
            .unwrap();
        assert!(probes > 0);
        let before = probes;
        let mut p2 = 0;
        d.try_get(&heap, Value::Int(1), &mut p2).unwrap();
        assert!(p2 >= 1);
        assert_eq!(probes, before, "lookup must not mutate the insert counter");
    }

    #[test]
    fn tuple_keys_hash_structurally() {
        let mut heap = heap_with_seed(5);
        let t1 = heap.alloc_tuple(vec![Value::Int(1), Value::Int(2)]);
        let t2 = heap.alloc_tuple(vec![Value::Int(1), Value::Int(2)]);
        let t3 = heap.alloc_tuple(vec![Value::Int(2), Value::Int(1)]);
        let mut d = Dict::new();
        let mut probes = 0;
        d.insert(&heap, Value::Obj(t1), Value::Int(100), &mut probes)
            .unwrap();
        assert_eq!(
            d.try_get(&heap, Value::Obj(t2), &mut probes).unwrap(),
            Some(Value::Int(100))
        );
        assert_eq!(d.try_get(&heap, Value::Obj(t3), &mut probes).unwrap(), None);
    }

    #[test]
    fn growth_keeps_all_entries() {
        let heap = heap_with_seed(9);
        let mut d = Dict::new();
        let mut probes = 0;
        for i in 0..10_000 {
            d.insert(&heap, Value::Int(i), Value::Int(-i), &mut probes)
                .unwrap();
        }
        assert_eq!(d.len(), 10_000);
        assert!(d.capacity() >= 10_000);
        for i in (0..10_000).step_by(997) {
            assert_eq!(
                d.try_get(&heap, Value::Int(i), &mut probes).unwrap(),
                Some(Value::Int(-i))
            );
        }
    }

    #[test]
    fn next_entry_from_walks_all_entries() {
        let heap = heap_with_seed(2);
        let mut d = Dict::new();
        let mut probes = 0;
        for i in 0..20 {
            d.insert(&heap, Value::Int(i), Value::Int(i), &mut probes)
                .unwrap();
        }
        let mut slot = 0;
        let mut seen = 0;
        while let Some((s, _k, _v)) = d.next_entry_from(slot) {
            slot = s + 1;
            seen += 1;
        }
        assert_eq!(seen, 20);
    }
}
