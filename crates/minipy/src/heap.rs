//! Object heap: arena storage, allocation accounting, equality/ordering
//! helpers, and string rendering. The mark-sweep collector lives in
//! [`crate::gc`] but operates on the structures defined here.

use std::cell::Cell;
use std::cmp::Ordering;

use crate::dict::Dict;
use crate::value::{Handle, TypeTag, Value};

/// Iterator state for `for` loops (created by `GetIter`).
#[allow(missing_docs)] // cursor fields are self-describing
#[derive(Debug, Clone, PartialEq)]
pub enum IterState {
    /// Iterating a `range(...)`.
    Range { next: i64, stop: i64, step: i64 },
    /// Iterating a list, tuple or string by index.
    Seq { seq: Handle, index: usize },
    /// Iterating a dict's keys by slot cursor.
    DictKeys { dict: Handle, slot: usize },
}

/// An immutable string that carries its length in chars.
///
/// The count is taken once, where the string is built. On ASCII text (count
/// equals byte length) char positions are byte positions, so `s[i]`,
/// `len(s)`, `s[a:b]` and `for c in s` index bytes in O(1) per char instead
/// of walking the UTF-8 from the start on every call. Non-ASCII text keeps
/// the char walk. None of this is charged: the cost model prices strings by
/// byte length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Str {
    text: String,
    chars: usize,
}

impl Str {
    /// Wraps `text`, counting its chars.
    pub fn new(text: String) -> Self {
        let chars = text.chars().count();
        Str { text, chars }
    }

    /// `a + b`; the count is the sum, so the result is never re-scanned.
    pub fn concat(a: &Str, b: &Str) -> Self {
        let mut text = String::with_capacity(a.text.len() + b.text.len());
        text.push_str(&a.text);
        text.push_str(&b.text);
        Str {
            text,
            chars: a.chars + b.chars,
        }
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Length in chars (Python's `len`), not bytes.
    pub fn char_count(&self) -> usize {
        self.chars
    }

    /// Whether the text is ASCII, in O(1): a char per byte.
    pub fn is_ascii(&self) -> bool {
        self.chars == self.text.len()
    }

    /// The char at char position `i`, or `None` past the end.
    pub fn char_at(&self, i: usize) -> Option<char> {
        if self.is_ascii() {
            self.text.as_bytes().get(i).map(|&b| char::from(b))
        } else {
            self.text.chars().nth(i)
        }
    }

    /// The chars at positions `a..b`, with `a <= b <= char_count()`.
    pub fn char_slice(&self, a: usize, b: usize) -> Str {
        debug_assert!(a <= b && b <= self.chars);
        let text = if self.is_ascii() {
            self.text[a..b].to_string()
        } else {
            self.text.chars().skip(a).take(b - a).collect()
        };
        Str { text, chars: b - a }
    }

    /// The char position of byte offset `byte`, which must be a char
    /// boundary (as the offsets `str::find` returns are).
    pub fn char_offset(&self, byte: usize) -> usize {
        if self.is_ascii() {
            byte
        } else {
            self.text[..byte].chars().count()
        }
    }
}

impl std::ops::Deref for Str {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

impl From<char> for Str {
    fn from(c: char) -> Self {
        Str {
            text: c.to_string(),
            chars: 1,
        }
    }
}

/// A heap-allocated object.
#[derive(Debug, Clone, PartialEq)]
pub enum Object {
    /// Immutable string.
    Str(Str),
    /// Mutable list.
    List(Vec<Value>),
    /// Immutable tuple.
    Tuple(Vec<Value>),
    /// Hash table with seeded, probe-costed open addressing.
    Dict(Dict),
    /// Lazy `range(start, stop, step)`.
    Range {
        /// First value produced.
        start: i64,
        /// Exclusive bound.
        stop: i64,
        /// Step (never zero).
        step: i64,
    },
    /// User-defined function referencing a code object.
    Function {
        /// Index into [`crate::bytecode::Program::codes`].
        code_id: usize,
    },
    /// Built-in function (`len`, `range`, `print`, ...).
    Builtin(crate::builtins::BuiltinFn),
    /// In-flight loop iterator.
    Iter(IterState),
}

impl Object {
    /// The dynamic type tag of this object.
    pub fn tag(&self) -> TypeTag {
        match self {
            Object::Str(_) => TypeTag::Str,
            Object::List(_) => TypeTag::List,
            Object::Tuple(_) => TypeTag::Tuple,
            Object::Dict(_) => TypeTag::Dict,
            Object::Range { .. } => TypeTag::Range,
            Object::Function { .. } | Object::Builtin(_) => TypeTag::Function,
            Object::Iter(_) => TypeTag::Iter,
        }
    }

    /// Approximate payload size in bytes, for allocation accounting.
    pub fn approx_bytes(&self) -> usize {
        match self {
            Object::Str(s) => 48 + s.len(),
            Object::List(v) => 56 + v.len() * 16,
            Object::Tuple(v) => 40 + v.len() * 16,
            Object::Dict(d) => 64 + d.capacity() * 32,
            Object::Range { .. } => 48,
            Object::Function { .. } => 56,
            Object::Builtin(_) => 32,
            Object::Iter(_) => 48,
        }
    }
}

struct HeapSlot {
    obj: Object,
    /// Epoch stamp: the slot is marked iff this equals the heap's current
    /// `mark_epoch`. Bumping the epoch unmarks every slot at once, so a
    /// collection never needs a clear-marks pass over the whole heap.
    mark: u64,
    /// Memoized seeded string hash (for `Object::Str` slots); starts at
    /// [`STR_HASH_UNSET`] and is filled on first use. Strings are immutable
    /// and slots are only recycled by replacing the whole `HeapSlot`, so the
    /// cache can never go stale.
    str_hash: Cell<u64>,
}

/// Sentinel for "hash not computed yet". A string whose real hash collides
/// with the sentinel is simply re-hashed every lookup — still correct.
const STR_HASH_UNSET: u64 = u64::MAX;

/// Counters describing allocation and collection activity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HeapStats {
    /// Objects allocated over the heap's lifetime.
    pub total_allocations: u64,
    /// Approximate bytes allocated over the heap's lifetime.
    pub total_bytes: u64,
    /// Completed GC cycles.
    pub gc_cycles: u64,
    /// Objects freed across all GC cycles.
    pub gc_freed: u64,
    /// Objects live after the most recent cycle.
    pub last_live: u64,
}

/// The object heap.
///
/// Objects are stored in an arena indexed by [`Handle`]; freed slots are
/// recycled through a free list. Collection itself is driven by
/// [`crate::gc::collect`], which needs the roots only the VM knows.
pub struct Heap {
    slots: Vec<Option<HeapSlot>>,
    free: Vec<Handle>,
    allocs_since_gc: u64,
    /// Allocation-count threshold that arms the next collection.
    pub(crate) gc_threshold: u64,
    /// Baseline threshold; the post-sweep threshold never drops below it.
    base_threshold: u64,
    /// When true (default), the threshold grows with the live set (2x),
    /// CPython-style. Disabled by explicit [`Heap::set_gc_threshold`].
    adaptive_threshold: bool,
    stats: HeapStats,
    /// Per-invocation string-hash seed (CPython's `PYTHONHASHSEED`).
    hash_seed: u64,
    /// Current mark epoch; see the `mark` field of `HeapSlot`.
    mark_epoch: u64,
}

/// Initial GC trigger: collections start once this many objects have been
/// allocated since the previous cycle.
pub const DEFAULT_GC_THRESHOLD: u64 = 8_192;

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

impl Heap {
    /// Creates an empty heap with the default GC threshold and seed 0.
    pub fn new() -> Self {
        Self::with_seed(0)
    }

    /// Creates an empty heap whose string hashes are perturbed by `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Heap {
            slots: Vec::with_capacity(1024),
            free: Vec::new(),
            allocs_since_gc: 0,
            gc_threshold: DEFAULT_GC_THRESHOLD,
            base_threshold: DEFAULT_GC_THRESHOLD,
            adaptive_threshold: true,
            stats: HeapStats::default(),
            hash_seed: seed,
            mark_epoch: 0,
        }
    }

    /// The per-invocation string-hash seed.
    pub fn hash_seed(&self) -> u64 {
        self.hash_seed
    }

    /// The seeded hash of the string behind `h`, memoized per heap slot so
    /// repeated dict probes with the same key object skip re-hashing.
    #[inline(always)]
    pub(crate) fn memoized_str_hash(&self, h: Handle, s: &str) -> u64 {
        debug_assert!(
            matches!(self.slots.get(h as usize), Some(Some(_))),
            "dangling handle"
        );
        // Same liveness contract as `Heap::get`: the handle was just
        // dereferenced to obtain `s`, so the slot is live.
        let cell = unsafe {
            match self.slots.get_unchecked(h as usize) {
                Some(s) => &s.str_hash,
                None => std::hint::unreachable_unchecked(),
            }
        };
        let cached = cell.get();
        if cached != STR_HASH_UNSET {
            return cached;
        }
        let hv = crate::dict::hash_str(self.hash_seed, s);
        cell.set(hv);
        hv
    }

    /// Pins the GC allocation threshold to an exact value, disabling the
    /// adaptive (live-set-proportional) growth. Used by GC ablation studies.
    pub fn set_gc_threshold(&mut self, threshold: u64) {
        self.gc_threshold = threshold.max(1);
        self.base_threshold = threshold.max(1);
        self.adaptive_threshold = false;
    }

    /// Allocates `obj`, returning its handle.
    pub fn alloc(&mut self, obj: Object) -> Handle {
        self.allocs_since_gc += 1;
        self.stats.total_allocations += 1;
        self.stats.total_bytes += obj.approx_bytes() as u64;
        let slot = HeapSlot {
            obj,
            mark: 0,
            str_hash: Cell::new(STR_HASH_UNSET),
        };
        match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = Some(slot);
                h
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as Handle
            }
        }
    }

    /// Allocates a string object.
    pub fn alloc_str(&mut self, s: impl Into<String>) -> Handle {
        self.alloc(Object::Str(Str::new(s.into())))
    }

    /// Allocates a list object.
    pub fn alloc_list(&mut self, items: Vec<Value>) -> Handle {
        self.alloc(Object::List(items))
    }

    /// Allocates a tuple object.
    pub fn alloc_tuple(&mut self, items: Vec<Value>) -> Handle {
        self.alloc(Object::Tuple(items))
    }

    /// Allocates an empty dict.
    pub fn alloc_dict(&mut self) -> Handle {
        self.alloc(Object::Dict(Dict::new()))
    }

    /// Borrows the object behind `h`.
    ///
    /// Handles are minted only by [`Heap::alloc`] and invalidated only by a
    /// sweep, which frees nothing the interpreter can still reach: the VM
    /// collects only between instructions, and there every handle it holds
    /// is a GC root (stack, frame locals, globals, pinned constants) or sits
    /// in an object reachable from one, such as iterator state. Release
    /// builds therefore skip the bounds/liveness check on this hottest of
    /// paths; debug builds keep it.
    #[inline(always)]
    pub fn get(&self, h: Handle) -> &Object {
        debug_assert!(
            matches!(self.slots.get(h as usize), Some(Some(_))),
            "dangling handle"
        );
        unsafe {
            match self.slots.get_unchecked(h as usize) {
                Some(s) => &s.obj,
                None => std::hint::unreachable_unchecked(),
            }
        }
    }

    /// Mutably borrows the object behind `h`. Same liveness contract as
    /// [`Heap::get`]: release builds elide the check, debug builds keep it.
    #[inline(always)]
    pub fn get_mut(&mut self, h: Handle) -> &mut Object {
        debug_assert!(
            matches!(self.slots.get(h as usize), Some(Some(_))),
            "dangling handle"
        );
        unsafe {
            match self.slots.get_unchecked_mut(h as usize) {
                Some(s) => &mut s.obj,
                None => std::hint::unreachable_unchecked(),
            }
        }
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Allocation/GC counters.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Allocations since the last collection.
    pub fn allocs_since_gc(&self) -> u64 {
        self.allocs_since_gc
    }

    /// True once enough allocation has happened to warrant a collection.
    pub fn should_collect(&self) -> bool {
        self.allocs_since_gc >= self.gc_threshold
    }

    /// Temporarily moves the dict behind `h` out of the heap, runs `f` with
    /// the dict and the (dict-less) heap, then puts it back. This sidesteps
    /// the double-borrow that would otherwise arise because key equality
    /// needs `&Heap` while the dict itself needs `&mut`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not a dict.
    pub fn with_dict_mut<R>(&mut self, h: Handle, f: impl FnOnce(&mut Dict, &mut Heap) -> R) -> R {
        let mut dict = match self.get_mut(h) {
            Object::Dict(d) => std::mem::take(d),
            other => panic!("with_dict_mut on {:?}", other.tag()),
        };
        let result = f(&mut dict, self);
        match self.get_mut(h) {
            Object::Dict(d) => *d = dict,
            _ => unreachable!("slot type changed during with_dict_mut"),
        }
        result
    }

    /// The dynamic type tag of a value.
    pub fn type_tag(&self, v: Value) -> TypeTag {
        match v {
            Value::None => TypeTag::None,
            Value::Bool(_) => TypeTag::Bool,
            Value::Int(_) => TypeTag::Int,
            Value::Float(_) => TypeTag::Float,
            Value::Obj(h) => self.get(h).tag(),
        }
    }

    /// Human-readable type name of a value, for error messages.
    pub fn type_name(&self, v: Value) -> &'static str {
        match self.type_tag(v) {
            TypeTag::None => "NoneType",
            TypeTag::Bool => "bool",
            TypeTag::Int => "int",
            TypeTag::Float => "float",
            TypeTag::Str => "str",
            TypeTag::List => "list",
            TypeTag::Tuple => "tuple",
            TypeTag::Dict => "dict",
            TypeTag::Range => "range",
            TypeTag::Function => "function",
            TypeTag::Iter => "iterator",
        }
    }

    /// Python-style truthiness, including heap values (empty containers and
    /// empty strings are falsy).
    pub fn truthy(&self, v: Value) -> bool {
        if let Some(b) = v.inline_truthy() {
            return b;
        }
        match v {
            Value::Obj(h) => match self.get(h) {
                Object::Str(s) => !s.is_empty(),
                Object::List(v) => !v.is_empty(),
                Object::Tuple(v) => !v.is_empty(),
                Object::Dict(d) => !d.is_empty(),
                Object::Range { start, stop, step } => {
                    if *step > 0 {
                        start < stop
                    } else {
                        start > stop
                    }
                }
                Object::Function { .. } | Object::Builtin(_) | Object::Iter(_) => true,
            },
            _ => unreachable!("inline values handled above"),
        }
    }

    /// Structural equality with Python semantics: numeric values compare
    /// across int/float/bool; containers compare element-wise.
    pub fn value_eq(&self, a: Value, b: Value) -> bool {
        self.value_eq_depth(a, b, 0)
    }

    fn value_eq_depth(&self, a: Value, b: Value, depth: u32) -> bool {
        if depth > 64 {
            // Deeply nested or cyclic structures: fall back to identity.
            return matches!((a, b), (Value::Obj(x), Value::Obj(y)) if x == y);
        }
        if a.is_number() && b.is_number() {
            // Bool participates in numeric equality like Python (1 == True).
            return match (a, b) {
                (Value::Int(x), Value::Int(y)) => x == y,
                (Value::Bool(x), Value::Bool(y)) => x == y,
                _ => a.as_f64() == b.as_f64(),
            };
        }
        match (a, b) {
            (Value::None, Value::None) => true,
            (Value::Obj(x), Value::Obj(y)) => {
                if x == y {
                    return true;
                }
                match (self.get(x), self.get(y)) {
                    (Object::Str(s1), Object::Str(s2)) => s1 == s2,
                    (Object::List(v1), Object::List(v2))
                    | (Object::Tuple(v1), Object::Tuple(v2)) => {
                        v1.len() == v2.len()
                            && v1
                                .iter()
                                .zip(v2.iter())
                                .all(|(p, q)| self.value_eq_depth(*p, *q, depth + 1))
                    }
                    (Object::Dict(d1), Object::Dict(d2)) => {
                        if d1.len() != d2.len() {
                            return false;
                        }
                        let mut probes = 0u64;
                        d1.entries()
                            .all(|(k, v)| match d2.get_with_eq(self, k, &mut probes) {
                                Some(v2) => self.value_eq_depth(v, v2, depth + 1),
                                None => false,
                            })
                    }
                    (
                        Object::Range {
                            start: a1,
                            stop: b1,
                            step: c1,
                        },
                        Object::Range {
                            start: a2,
                            stop: b2,
                            step: c2,
                        },
                    ) => a1 == a2 && b1 == b2 && c1 == c2,
                    _ => false,
                }
            }
            _ => false,
        }
    }

    /// Ordering with Python semantics: numbers by value, strings and
    /// sequences lexicographically. Returns `None` for unordered type pairs.
    pub fn value_cmp(&self, a: Value, b: Value) -> Option<Ordering> {
        if a.is_number() && b.is_number() {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            return x.partial_cmp(&y);
        }
        match (a, b) {
            (Value::Obj(x), Value::Obj(y)) => match (self.get(x), self.get(y)) {
                (Object::Str(s1), Object::Str(s2)) => Some(s1.as_str().cmp(s2.as_str())),
                (Object::List(v1), Object::List(v2)) | (Object::Tuple(v1), Object::Tuple(v2)) => {
                    for (p, q) in v1.iter().zip(v2.iter()) {
                        if !self.value_eq(*p, *q) {
                            return self.value_cmp(*p, *q);
                        }
                    }
                    Some(v1.len().cmp(&v2.len()))
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// Renders a value the way Python's `str()` would (approximately).
    pub fn render(&self, v: Value) -> String {
        self.render_depth(v, 0, false)
    }

    /// Renders a value the way Python's `repr()` would (strings quoted).
    pub fn render_repr(&self, v: Value) -> String {
        self.render_depth(v, 0, true)
    }

    fn render_depth(&self, v: Value, depth: u32, repr: bool) -> String {
        if depth > 16 {
            return "...".to_string();
        }
        match v {
            Value::None => "None".to_string(),
            Value::Bool(true) => "True".to_string(),
            Value::Bool(false) => "False".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.is_finite() && f == f.trunc() && f.abs() < 1e16 {
                    format!("{f:.1}")
                } else {
                    format!("{f}")
                }
            }
            Value::Obj(h) => match self.get(h) {
                Object::Str(s) => {
                    if repr {
                        format!("'{}'", s.as_str())
                    } else {
                        s.to_string()
                    }
                }
                Object::List(items) => {
                    let parts: Vec<String> = items
                        .iter()
                        .map(|i| self.render_depth(*i, depth + 1, true))
                        .collect();
                    format!("[{}]", parts.join(", "))
                }
                Object::Tuple(items) => {
                    let parts: Vec<String> = items
                        .iter()
                        .map(|i| self.render_depth(*i, depth + 1, true))
                        .collect();
                    if parts.len() == 1 {
                        format!("({},)", parts[0])
                    } else {
                        format!("({})", parts.join(", "))
                    }
                }
                Object::Dict(d) => {
                    let parts: Vec<String> = d
                        .entries()
                        .map(|(k, v)| {
                            format!(
                                "{}: {}",
                                self.render_depth(k, depth + 1, true),
                                self.render_depth(v, depth + 1, true)
                            )
                        })
                        .collect();
                    format!("{{{}}}", parts.join(", "))
                }
                Object::Range { start, stop, step } => {
                    if *step == 1 {
                        format!("range({start}, {stop})")
                    } else {
                        format!("range({start}, {stop}, {step})")
                    }
                }
                Object::Function { code_id } => format!("<function #{code_id}>"),
                Object::Builtin(b) => format!("<builtin {b:?}>"),
                Object::Iter(_) => "<iterator>".to_string(),
            },
        }
    }

    // ---- GC support (called from crate::gc) ----

    /// Unmarks every slot in O(1) by advancing the mark epoch (slots compare
    /// their stamp against it; a stale stamp means unmarked).
    pub(crate) fn clear_marks(&mut self) {
        self.mark_epoch += 1;
    }

    pub(crate) fn mark_one(&mut self, h: Handle) -> bool {
        let epoch = self.mark_epoch;
        match self.slots[h as usize].as_mut() {
            Some(s) if s.mark != epoch => {
                s.mark = epoch;
                true
            }
            _ => false,
        }
    }

    /// Children of an object, pushed onto the GC worklist.
    pub(crate) fn push_children(&self, h: Handle, out: &mut Vec<Handle>) {
        fn push_value(v: Value, out: &mut Vec<Handle>) {
            if let Value::Obj(h) = v {
                out.push(h);
            }
        }
        match self.get(h) {
            Object::Str(_)
            | Object::Range { .. }
            | Object::Function { .. }
            | Object::Builtin(_) => {}
            Object::List(items) | Object::Tuple(items) => {
                for v in items {
                    push_value(*v, out);
                }
            }
            Object::Dict(d) => {
                for (k, v) in d.entries() {
                    push_value(k, out);
                    push_value(v, out);
                }
            }
            Object::Iter(state) => match state {
                IterState::Range { .. } => {}
                IterState::Seq { seq, .. } => out.push(*seq),
                IterState::DictKeys { dict, .. } => out.push(*dict),
            },
        }
    }

    /// Sweeps unmarked slots. Returns (live, freed).
    pub(crate) fn sweep(&mut self) -> (u64, u64) {
        let mut live = 0u64;
        let mut freed = 0u64;
        let epoch = self.mark_epoch;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            match slot {
                Some(s) if s.mark == epoch => live += 1,
                Some(_) => {
                    *slot = None;
                    self.free.push(i as Handle);
                    freed += 1;
                }
                None => {}
            }
        }
        self.allocs_since_gc = 0;
        self.gc_threshold = if self.adaptive_threshold {
            self.base_threshold.max(live * 2)
        } else {
            self.base_threshold
        };
        self.stats.gc_cycles += 1;
        self.stats.gc_freed += freed;
        self.stats.last_live = live;
        (live, freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_get_roundtrip() {
        let mut heap = Heap::new();
        let h = heap.alloc_str("hello");
        assert!(matches!(heap.get(h), Object::Str(s) if s.as_str() == "hello"));
        assert_eq!(heap.live_count(), 1);
    }

    #[test]
    fn freed_slots_are_recycled() {
        let mut heap = Heap::new();
        let a = heap.alloc_str("a");
        let _b = heap.alloc_str("b");
        heap.clear_marks();
        // Mark only b.
        heap.mark_one(_b);
        heap.sweep();
        let c = heap.alloc_str("c");
        assert_eq!(c, a, "slot should be recycled");
        assert_eq!(heap.live_count(), 2);
    }

    #[test]
    fn truthiness_of_containers() {
        let mut heap = Heap::new();
        let empty = heap.alloc_list(vec![]);
        let full = heap.alloc_list(vec![Value::Int(1)]);
        let estr = heap.alloc_str("");
        assert!(!heap.truthy(Value::Obj(empty)));
        assert!(heap.truthy(Value::Obj(full)));
        assert!(!heap.truthy(Value::Obj(estr)));
    }

    #[test]
    fn numeric_cross_type_equality() {
        let heap = Heap::new();
        assert!(heap.value_eq(Value::Int(1), Value::Bool(true)));
        assert!(heap.value_eq(Value::Int(2), Value::Float(2.0)));
        assert!(!heap.value_eq(Value::Int(2), Value::Float(2.5)));
        assert!(!heap.value_eq(Value::None, Value::Int(0)));
    }

    #[test]
    fn deep_list_equality_and_ordering() {
        let mut heap = Heap::new();
        let a = heap.alloc_list(vec![Value::Int(1), Value::Int(2)]);
        let b = heap.alloc_list(vec![Value::Int(1), Value::Int(2)]);
        let c = heap.alloc_list(vec![Value::Int(1), Value::Int(3)]);
        assert!(heap.value_eq(Value::Obj(a), Value::Obj(b)));
        assert!(!heap.value_eq(Value::Obj(a), Value::Obj(c)));
        assert_eq!(
            heap.value_cmp(Value::Obj(a), Value::Obj(c)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn string_ordering() {
        let mut heap = Heap::new();
        let a = heap.alloc_str("apple");
        let b = heap.alloc_str("banana");
        assert_eq!(
            heap.value_cmp(Value::Obj(a), Value::Obj(b)),
            Some(Ordering::Less)
        );
        assert_eq!(heap.value_cmp(Value::Obj(a), Value::Int(1)), None);
    }

    #[test]
    fn render_matches_python_conventions() {
        let mut heap = Heap::new();
        let s = heap.alloc_str("hi");
        let l = heap.alloc_list(vec![Value::Int(1), Value::Obj(s)]);
        assert_eq!(heap.render(Value::Obj(l)), "[1, 'hi']");
        assert_eq!(heap.render(Value::Obj(s)), "hi");
        assert_eq!(heap.render_repr(Value::Obj(s)), "'hi'");
        assert_eq!(heap.render(Value::Float(3.0)), "3.0");
        assert_eq!(heap.render(Value::Float(3.5)), "3.5");
        assert_eq!(heap.render(Value::Bool(true)), "True");
        let t = heap.alloc_tuple(vec![Value::Int(1)]);
        assert_eq!(heap.render(Value::Obj(t)), "(1,)");
    }

    #[test]
    fn should_collect_after_threshold() {
        let mut heap = Heap::new();
        assert!(!heap.should_collect());
        for _ in 0..DEFAULT_GC_THRESHOLD {
            heap.alloc(Object::Range {
                start: 0,
                stop: 1,
                step: 1,
            });
        }
        assert!(heap.should_collect());
    }
}
