//! Scalar and composite values.

use std::fmt;
use std::sync::Arc;

use crate::Relation;

/// An atomic value: the universe `V` of §6.1, which includes the integers.
///
/// Scalars are the components of [`crate::Tuple`]s and the plain contents of
/// scalar memory locations.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scalar {
    /// The unit value (used for locations that only carry presence).
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer (`Z ⊆ V`).
    Int(i64),
    /// An interned string.
    Str(Arc<str>),
}

impl Scalar {
    /// Builds a string scalar from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Scalar::Str(Arc::from(s.as_ref()))
    }

    /// Returns the integer payload, if this is an [`Scalar::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Scalar::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a [`Scalar::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Unit => write!(f, "()"),
            Scalar::Bool(b) => write!(f, "{b}"),
            Scalar::Int(i) => write!(f, "{i}"),
            Scalar::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Scalar {
    fn from(i: i64) -> Self {
        Scalar::Int(i)
    }
}

impl From<bool> for Scalar {
    fn from(b: bool) -> Self {
        Scalar::Bool(b)
    }
}

impl From<&str> for Scalar {
    fn from(s: &str) -> Self {
        Scalar::str(s)
    }
}

/// The value stored at a shared memory location.
///
/// A location either holds a [`Scalar`] (memory-level transactions) or a
/// [`Relation`] (data structures equipped with an abstraction
/// specification, §6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A scalar value.
    Scalar(Scalar),
    /// A relational value (the abstract state of an ADT).
    Rel(Relation),
}

impl Value {
    /// Convenience constructor for an integer value.
    pub fn int(i: i64) -> Self {
        Value::Scalar(Scalar::Int(i))
    }

    /// Convenience constructor for a boolean value.
    pub fn bool(b: bool) -> Self {
        Value::Scalar(Scalar::Bool(b))
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Scalar(Scalar::str(s))
    }

    /// The unit value.
    pub fn unit() -> Self {
        Value::Scalar(Scalar::Unit)
    }

    /// Returns the scalar payload, if this is a scalar value.
    pub fn as_scalar(&self) -> Option<&Scalar> {
        match self {
            Value::Scalar(s) => Some(s),
            Value::Rel(_) => None,
        }
    }

    /// Returns the integer payload, if this is an integer scalar.
    pub fn as_int(&self) -> Option<i64> {
        self.as_scalar().and_then(Scalar::as_int)
    }

    /// Returns the boolean payload, if this is a boolean scalar.
    pub fn as_bool(&self) -> Option<bool> {
        self.as_scalar().and_then(Scalar::as_bool)
    }

    /// Returns the relation payload, if this is a relational value.
    pub fn as_rel(&self) -> Option<&Relation> {
        match self {
            Value::Rel(r) => Some(r),
            Value::Scalar(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Scalar(s) => write!(f, "{s}"),
            Value::Rel(r) => write!(f, "{r}"),
        }
    }
}

impl From<Scalar> for Value {
    fn from(s: Scalar) -> Self {
        Value::Scalar(s)
    }
}

impl From<Relation> for Value {
    fn from(r: Relation) -> Self {
        Value::Rel(r)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_ordering_is_total() {
        let mut v = [
            Scalar::Int(3),
            Scalar::Bool(true),
            Scalar::Unit,
            Scalar::str("a"),
            Scalar::Int(-1),
        ];
        v.sort();
        // Sorting must be stable and total; exact order is an implementation
        // detail, but equal elements must compare equal.
        assert_eq!(v.len(), 5);
        assert_eq!(Scalar::Int(3), Scalar::Int(3));
        assert_ne!(Scalar::Int(3), Scalar::Int(4));
    }

    #[test]
    fn scalar_accessors() {
        assert_eq!(Scalar::Int(7).as_int(), Some(7));
        assert_eq!(Scalar::Bool(true).as_int(), None);
        assert_eq!(Scalar::Bool(false).as_bool(), Some(false));
        assert_eq!(Scalar::str("x").as_bool(), None);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::int(5).as_int(), Some(5));
        assert_eq!(Value::bool(true).as_bool(), Some(true));
        assert!(Value::int(5).as_rel().is_none());
        assert_eq!(Value::unit(), Value::Scalar(Scalar::Unit));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(4i64), Value::int(4));
        assert_eq!(Value::from(false), Value::bool(false));
        assert_eq!(Scalar::from("hi"), Scalar::str("hi"));
    }

    #[test]
    fn display_is_nonempty() {
        for v in [
            Value::int(0),
            Value::bool(false),
            Value::str(""),
            Value::unit(),
        ] {
            assert!(!format!("{v}").is_empty());
        }
    }
}
