//! Event values and signal names.
//!
//! The paper takes event values from a set `V` of integers and booleans;
//! [`Value`] mirrors that exactly. [`SigName`] is a cheaply clonable,
//! interned-by-sharing signal name (the set `X` of the paper).

use std::fmt;
use std::sync::Arc;

/// A value carried by an event: the paper's `V` = booleans ∪ integers.
///
/// ```
/// use polysig_tagged::Value;
/// let v = Value::Int(3);
/// assert_eq!(v.as_int(), Some(3));
/// assert_eq!(v.ty(), polysig_tagged::ValueType::Int);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A boolean value (used for clocks, `when` conditions, flags).
    Bool(bool),
    /// An integer value (message payloads, counters).
    Int(i64),
}

impl Value {
    /// The boolean `true`.
    pub const TRUE: Value = Value::Bool(true);
    /// The boolean `false`.
    pub const FALSE: Value = Value::Bool(false);

    /// Returns the contained boolean, if this is a [`Value::Bool`].
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(b),
            Value::Int(_) => None,
        }
    }

    /// Returns the contained integer, if this is a [`Value::Int`].
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            Value::Bool(_) => None,
        }
    }

    /// Returns the runtime type of the value.
    #[inline]
    pub fn ty(self) -> ValueType {
        match self {
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
        }
    }

    /// `true` iff this is `Bool(true)`.
    pub fn is_true(self) -> bool {
        self == Value::TRUE
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

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

/// The type of a [`Value`], used by the type checker in `polysig-lang`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueType {
    /// Boolean signals.
    Bool,
    /// Integer signals.
    Int,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Bool => write!(f, "bool"),
            ValueType::Int => write!(f, "int"),
        }
    }
}

/// A signal name (a member of the paper's name set `X`).
///
/// Internally an `Arc<str>`, so clones are cheap and names can be shared
/// freely across behaviors, programs and reports.
///
/// ```
/// use polysig_tagged::SigName;
/// let x = SigName::from("msgin");
/// assert_eq!(x.as_str(), "msgin");
/// assert_eq!(x.to_string(), "msgin");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SigName(Arc<str>);

impl SigName {
    /// Creates a signal name.
    pub fn new(name: impl AsRef<str>) -> Self {
        SigName(Arc::from(name.as_ref()))
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns a derived name with the given suffix appended, used when
    /// desynchronization introduces fresh per-component copies (`x_P`, `x_Q`
    /// in Theorem 1).
    pub fn suffixed(&self, suffix: &str) -> SigName {
        SigName(Arc::from(format!("{}{}", self.0, suffix)))
    }
}

impl From<&str> for SigName {
    fn from(s: &str) -> Self {
        SigName::new(s)
    }
}

impl From<&SigName> for SigName {
    fn from(s: &SigName) -> Self {
        s.clone()
    }
}

impl From<String> for SigName {
    fn from(s: String) -> Self {
        SigName(Arc::from(s))
    }
}

impl AsRef<str> for SigName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

// `Arc<str>` hashes/compares as the pointed-to `str`, so borrowing a
// `SigName` as `&str` satisfies the `Borrow` contract — this is what lets
// name-keyed maps be probed by `&str` without allocating a temporary.
impl std::borrow::Borrow<str> for SigName {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for SigName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Bool(true).as_int(), None);
        assert_eq!(Value::Int(-4).as_int(), Some(-4));
        assert_eq!(Value::Int(-4).as_bool(), None);
    }

    #[test]
    fn value_types() {
        assert_eq!(Value::TRUE.ty(), ValueType::Bool);
        assert_eq!(Value::Int(0).ty(), ValueType::Int);
        assert!(Value::TRUE.is_true());
        assert!(!Value::FALSE.is_true());
        assert!(!Value::Int(1).is_true());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(9i64), Value::Int(9));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::Int(12).to_string(), "12");
        assert_eq!(ValueType::Bool.to_string(), "bool");
        assert_eq!(ValueType::Int.to_string(), "int");
    }

    #[test]
    fn signame_equality_and_order() {
        let a = SigName::from("a");
        let b = SigName::from("b");
        let a2 = SigName::new(String::from("a"));
        assert_eq!(a, a2);
        assert!(a < b);
    }

    #[test]
    fn signame_suffixed() {
        let x = SigName::from("x");
        assert_eq!(x.suffixed("_p").as_str(), "x_p");
    }
}
