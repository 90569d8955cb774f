//! Runtime values (`SIValue` in the RedisGraph C code base).
//!
//! Values flow through execution-plan records, property stores, and the result
//! set. Comparison follows openCypher semantics closely enough for the
//! supported subset: numbers compare numerically across Int/Float, strings
//! lexicographically, `Null` compares equal to nothing (including itself) for
//! filters but sorts last in `ORDER BY`.
//!
//! Grouping, `RETURN DISTINCT` and `count(DISTINCT …)` share one equivalence,
//! made hashable by [`ValueKey`]; for non-null operands it is exactly what
//! [`Value::cypher_eq`] answers.

use crate::{EdgeId, NodeId};
use std::cmp::Ordering;
use std::fmt;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing / unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// A graph node, by id.
    Node(NodeId),
    /// A graph relationship, by id.
    Edge(EdgeId),
    /// An ordered list of values.
    List(Vec<Value>),
}

impl Value {
    /// True if this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerce to a boolean for filter evaluation: `Bool` is itself, `Null` is
    /// false, anything else is a type error represented as `false`.
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Numeric view (Int and Float only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    /// openCypher equality: `Null` is never equal to anything (returns
    /// `None`, i.e. unknown); any other pair is equal exactly when the two
    /// values are equivalent — when their [`ValueKey`]s match:
    ///
    /// * numbers compare by exact value across Int and Float (Int–Int as
    ///   `i64`, so 2^53 + 1 ≠ 2^53; an Int equals a Float only when the float
    ///   is integral and the same number; -0.0 = 0), and NaN equals nothing;
    /// * strings, bools, nodes and edges compare as themselves, never across
    ///   types;
    /// * lists compare element-wise under this same rule, where a nested
    ///   `Null` is equivalent to a nested `Null`.
    pub fn cypher_eq(&self, other: &Value) -> Option<bool> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (a, b) => Some(a.equivalent(b)),
        }
    }

    /// The equivalence [`ValueKey`] hashes, `Null` included.
    fn equivalent(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => {
                float_as_int(*f) == Some(*i)
            }
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.equivalent(y))
            }
            // Float–Float by IEEE `==` (NaN ≠ NaN, -0.0 = 0.0); everything
            // else structurally, which never equates different variants.
            (a, b) => a == b,
        }
    }

    /// openCypher ordering for comparisons; `None` when incomparable or null.
    pub fn cypher_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }

    /// Total ordering used by `ORDER BY`, `min` and `max`: nulls sort last,
    /// then bools, numbers, strings, nodes, edges, lists.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Bool(_) => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
                Value::Node(_) => 3,
                Value::Edge(_) => 4,
                Value::List(_) => 5,
                Value::Null => 6,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            _ if rank(self) != rank(other) => rank(self).cmp(&rank(other)),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Node(a), Value::Node(b)) => a.cmp(b),
            (Value::Edge(a), Value::Edge(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.sort_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => a
                .as_f64()
                .unwrap_or(f64::NAN)
                .partial_cmp(&b.as_f64().unwrap_or(f64::NAN))
                .unwrap_or(Ordering::Equal),
        }
    }

    /// Arithmetic addition (numeric or string concatenation).
    pub fn add(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
            (Value::Str(a), Value::Str(b)) => Value::Str(format!("{a}{b}")),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Float(x + y),
                _ => Value::Null,
            },
        }
    }

    /// Arithmetic subtraction.
    pub fn sub(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Float(x - y),
                _ => Value::Null,
            },
        }
    }

    /// Arithmetic multiplication.
    pub fn mul(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Float(x * y),
                _ => Value::Null,
            },
        }
    }

    /// Arithmetic division (always float, like openCypher's `/` on mixed input;
    /// integer division when both are integers). Division by zero gives Null.
    pub fn div(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(_), Some(0.0)) => Value::Null,
                (Some(x), Some(y)) => Value::Float(x / y),
                _ => Value::Null,
            },
        }
    }

    /// Modulo.
    pub fn rem(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) if *b != 0 => Value::Int(a % b),
            _ => Value::Null,
        }
    }
}

/// `f` as an `i64` when it is integral and inside the `i64` range, so the
/// conversion is exact (-0.0 gives 0); `None` for fractions, out-of-range
/// magnitudes, infinities and NaN.
fn float_as_int(f: f64) -> Option<i64> {
    // -2^63 and 2^63 are exact doubles; the i64 range is [-2^63, 2^63).
    const LIMIT: f64 = 9_223_372_036_854_775_808.0;
    (f.fract() == 0.0 && (-LIMIT..LIMIT).contains(&f)).then_some(f as i64)
}

/// A hashable key for the equivalence behind grouping, `RETURN DISTINCT` and
/// `count(DISTINCT …)`: two values are equivalent when their keys are equal,
/// which for non-null values is exactly [`Value::cypher_eq`] answering
/// `Some(true)`, and `Null` is equivalent to `Null`.
///
/// Every integral number in the `i64` range keys as [`ValueKey::Int`],
/// whether it arrived as an Int or a Float, so `1` and `1.0` share a key
/// while 2^53 and 2^53 + 1 do not. A value holding NaN has no key
/// ([`ValueKey::new`] returns `None`): NaN is equivalent to nothing, itself
/// included, so every occurrence stands alone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueKey {
    /// `Null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An Int, or an integral Float inside the `i64` range.
    Int(i64),
    /// Any other non-NaN Float, by bit pattern.
    Float(u64),
    /// A string.
    Str(String),
    /// A node id.
    Node(NodeId),
    /// An edge id.
    Edge(EdgeId),
    /// A list, element by element.
    List(Vec<ValueKey>),
}

impl ValueKey {
    /// The key of `value`; `None` when it is or contains NaN.
    pub fn new(value: &Value) -> Option<ValueKey> {
        Some(match value {
            Value::Null => ValueKey::Null,
            Value::Bool(b) => ValueKey::Bool(*b),
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(f) if f.is_nan() => return None,
            Value::Float(f) => match float_as_int(*f) {
                Some(i) => ValueKey::Int(i),
                None => ValueKey::Float(f.to_bits()),
            },
            Value::Str(s) => ValueKey::Str(s.clone()),
            Value::Node(id) => ValueKey::Node(*id),
            Value::Edge(id) => ValueKey::Edge(*id),
            Value::List(items) => {
                ValueKey::List(items.iter().map(ValueKey::new).collect::<Option<_>>()?)
            }
        })
    }

    /// The key of a row of values; `None` when any of them holds NaN.
    pub fn row(values: &[Value]) -> Option<Vec<ValueKey>> {
        values.iter().map(ValueKey::new).collect()
    }
}

impl From<&cypher::Literal> for Value {
    fn from(lit: &cypher::Literal) -> Self {
        match lit {
            cypher::Literal::Integer(i) => Value::Int(*i),
            cypher::Literal::Float(f) => Value::Float(*f),
            cypher::Literal::Str(s) => Value::Str(s.clone()),
            cypher::Literal::Bool(b) => Value::Bool(*b),
            cypher::Literal::Null => Value::Null,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Node(id) => write!(f, "(node:{id})"),
            Value::Edge(id) => write!(f, "[edge:{id}]"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(3).cypher_eq(&Value::Float(3.0)), Some(true));
        assert_eq!(Value::Int(3).cypher_eq(&Value::Int(4)), Some(false));
        assert_eq!(Value::Null.cypher_eq(&Value::Int(1)), None);
        assert_eq!(Value::Str("a".into()).cypher_eq(&Value::Str("a".into())), Some(true));
    }

    #[test]
    fn integer_equality_is_exact() {
        let two53 = 1i64 << 53;
        for (a, b) in [(two53 + 1, two53), (two53 - 1, two53), (i64::MAX, i64::MAX - 1)] {
            assert_eq!(Value::Int(a).cypher_eq(&Value::Int(b)), Some(false), "{a} = {b}");
            assert_eq!(Value::Int(a).cypher_cmp(&Value::Int(b)), Some(a.cmp(&b)), "{a} <> {b}");
            assert_eq!(Value::Int(a).sort_cmp(&Value::Int(b)), a.cmp(&b), "{a} sorts {b}");
        }
        // 2^53 + 1 is not a double: the nearest float is 2^53, which is not
        // the same number as the Int 2^53 + 1.
        let f = (two53 + 1) as f64;
        assert_eq!(Value::Int(two53 + 1).cypher_eq(&Value::Float(f)), Some(false));
        assert_eq!(Value::Int(two53).cypher_eq(&Value::Float(f)), Some(true));
        assert_eq!(Value::Int(0).cypher_eq(&Value::Float(-0.0)), Some(true));
        assert_eq!(Value::Int(0).cypher_eq(&Value::Float(0.5)), Some(false));
        // 2^63 as a float is one past i64::MAX, and saturating `as` would
        // otherwise make them meet.
        assert_eq!(Value::Int(i64::MAX).cypher_eq(&Value::Float(i64::MAX as f64)), Some(false));
        assert_eq!(Value::Int(i64::MIN).cypher_eq(&Value::Float(i64::MIN as f64)), Some(true));
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cypher_eq(&nan), Some(false));
        assert_eq!(Value::Int(0).cypher_eq(&nan), Some(false));
    }

    #[test]
    fn keys_follow_equality() {
        let key = |v: Value| ValueKey::new(&v);
        assert_eq!(key(Value::Int(1)), key(Value::Float(1.0)));
        assert_eq!(key(Value::Int(0)), key(Value::Float(-0.0)));
        assert_ne!(key(Value::Int((1 << 53) + 1)), key(Value::Int(1 << 53)));
        assert_ne!(key(Value::Int(1)), key(Value::Float(1.5)));
        assert_ne!(key(Value::Int(1)), key(Value::Node(1)));
        assert_ne!(key(Value::Int(1)), key(Value::Bool(true)));
        assert_ne!(key(Value::Int(1)), key(Value::Str("1".into())));
        assert_eq!(
            key(Value::List(vec![Value::Int(1), Value::Null])),
            key(Value::List(vec![Value::Float(1.0), Value::Null]))
        );
        assert_eq!(key(Value::Float(f64::NAN)), None);
        assert_eq!(key(Value::List(vec![Value::Float(f64::NAN)])), None);
        assert_eq!(
            Value::List(vec![Value::Int(1)]).cypher_eq(&Value::List(vec![Value::Float(1.0)])),
            Some(true)
        );
    }

    #[test]
    fn comparisons_and_sorting() {
        assert_eq!(Value::Int(2).cypher_cmp(&Value::Float(2.5)), Some(Ordering::Less));
        assert_eq!(
            Value::Str("a".into()).cypher_cmp(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Str("a".into()).cypher_cmp(&Value::Int(1)), None);
        // nulls sort last
        assert_eq!(Value::Null.sort_cmp(&Value::Int(5)), Ordering::Greater);
        assert_eq!(Value::Int(5).sort_cmp(&Value::Null), Ordering::Less);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Value::Int(5));
        assert_eq!(Value::Int(2).add(&Value::Float(0.5)), Value::Float(2.5));
        assert_eq!(Value::Str("a".into()).add(&Value::Str("b".into())), Value::Str("ab".into()));
        assert_eq!(Value::Int(7).div(&Value::Int(2)), Value::Int(3));
        assert_eq!(Value::Int(7).div(&Value::Int(0)), Value::Null);
        assert_eq!(Value::Int(7).rem(&Value::Int(4)), Value::Int(3));
        assert_eq!(Value::Int(7).mul(&Value::Int(6)), Value::Int(42));
        assert_eq!(Value::Int(7).sub(&Value::Int(6)), Value::Int(1));
    }

    #[test]
    fn truthiness_is_strict() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Int(1).is_truthy());
        assert!(!Value::Null.is_truthy());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::List(vec![Value::Int(1), Value::Int(2)]).to_string(), "[1, 2]");
        assert_eq!(Value::Node(3).to_string(), "(node:3)");
    }

    #[test]
    fn literal_conversion() {
        assert_eq!(Value::from(&cypher::Literal::Integer(5)), Value::Int(5));
        assert_eq!(Value::from(&cypher::Literal::Bool(true)), Value::Bool(true));
        assert_eq!(Value::from(&cypher::Literal::Null), Value::Null);
    }
}
