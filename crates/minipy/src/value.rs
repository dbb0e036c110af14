//! Runtime values.
//!
//! Small values (`None`, booleans, 64-bit ints and floats) are stored inline;
//! everything else lives in the [`crate::heap::Heap`] and is referenced by a
//! [`Handle`].

/// Index of a heap object.
pub type Handle = u32;

/// A MiniPy runtime value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Value {
    /// `None`.
    #[default]
    None,
    /// `True` / `False`.
    Bool(bool),
    /// 64-bit integer (MiniPy has no bignums).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Reference to a heap object (string, list, tuple, dict, ...).
    Obj(Handle),
}

impl Value {
    /// Python-style truthiness for inline values.
    ///
    /// Heap values (strings, containers) require heap access and are handled
    /// by [`crate::heap::Heap::truthy`].
    pub fn inline_truthy(self) -> Option<bool> {
        match self {
            Value::None => Some(false),
            Value::Bool(b) => Some(b),
            Value::Int(i) => Some(i != 0),
            Value::Float(f) => Some(f != 0.0),
            Value::Obj(_) => None,
        }
    }

    /// Returns the numeric value as f64 if this is int/float/bool.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            Value::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Returns the integer value, treating bools as 0/1 (Python semantics).
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            Value::Bool(b) => Some(i64::from(b)),
            _ => None,
        }
    }

    /// True if this value is a number (int, float or bool).
    pub fn is_number(self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_) | Value::Bool(_))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

/// Coarse dynamic type tags used by the JIT's type guards.
#[allow(missing_docs)] // variants name the MiniPy types directly
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TypeTag {
    None,
    Bool,
    Int,
    Float,
    Str,
    List,
    Tuple,
    Dict,
    Range,
    Function,
    Iter,
}

impl TypeTag {
    /// Bit position used in compact type-set bitmasks.
    pub fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_truthiness() {
        assert_eq!(Value::None.inline_truthy(), Some(false));
        assert_eq!(Value::Bool(true).inline_truthy(), Some(true));
        assert_eq!(Value::Int(0).inline_truthy(), Some(false));
        assert_eq!(Value::Int(-3).inline_truthy(), Some(true));
        assert_eq!(Value::Float(0.0).inline_truthy(), Some(false));
        assert_eq!(Value::Obj(3).inline_truthy(), None);
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::Int(5).as_f64(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_int(), None);
        assert!(Value::Bool(false).is_number());
        assert!(!Value::None.is_number());
    }

    #[test]
    fn type_tag_bits_are_distinct() {
        let tags = [
            TypeTag::None,
            TypeTag::Bool,
            TypeTag::Int,
            TypeTag::Float,
            TypeTag::Str,
            TypeTag::List,
            TypeTag::Tuple,
            TypeTag::Dict,
            TypeTag::Range,
            TypeTag::Function,
            TypeTag::Iter,
        ];
        let mut seen = 0u16;
        for t in tags {
            assert_eq!(seen & t.bit(), 0);
            seen |= t.bit();
        }
    }
}
