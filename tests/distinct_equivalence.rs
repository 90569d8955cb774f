//! Property tests for the value equivalence behind `count(DISTINCT …)`,
//! grouping and `RETURN DISTINCT`: the hash-keyed [`ValueKey`] must agree
//! with openCypher equality (`Value::cypher_eq`) on every pair of values,
//! and `count(DISTINCT x)` must count what a pairwise `cypher_eq` scan over
//! the values seen so far counts — the scan is the reference here.
//!
//! Inputs mix every value type, with the edge cases that break a careless
//! key: 1 vs 1.0, -0.0 vs 0, NaN, 2^53 ± 1 (not all of which are doubles),
//! lists holding numbers of either type and nulls, and top-level nulls.

use proptest::prelude::*;
use redisgraph_core::exec::aggregate::{Accumulator, AggFunc};
use redisgraph_core::value::ValueKey;
use redisgraph_core::Value;

const TWO_53: i64 = 1 << 53;

/// One generated value from a (kind, small int, selector) triple.
fn value((kind, n, sel): (u8, i64, u8)) -> Value {
    let scalar = |n: i64, sel: u8| match sel % 4 {
        0 => Value::Int(n),
        1 => Value::Float(n as f64),
        2 => Value::Float(n as f64 + 0.5),
        _ => Value::Null,
    };
    match kind {
        0 => Value::Int(n),
        1 => Value::Int(TWO_53 + n.signum()),
        2 => match sel % 6 {
            0 => Value::Float(n as f64),
            1 => Value::Float(n as f64 + 0.5),
            2 => Value::Float(-0.0),
            3 => Value::Float(f64::NAN),
            4 => Value::Float(TWO_53 as f64),
            _ => Value::Float((TWO_53 + 1) as f64),
        },
        3 => Value::Str(n.to_string()),
        4 => Value::Bool(n % 2 == 0),
        5 => Value::Node(n.unsigned_abs()),
        6 => {
            let len = (sel % 3) as i64;
            Value::List((0..len).map(|i| scalar(n + i, sel / 3 + i as u8)).collect())
        }
        _ => Value::Null,
    }
}

fn values(raw: Vec<(u8, i64, u8)>) -> Vec<Value> {
    raw.into_iter().map(value).collect()
}

/// The reference: keep each non-null value no earlier kept value is
/// `cypher_eq` to, comparing against all of them.
fn pairwise_distinct_count(values: &[Value]) -> i64 {
    let mut seen: Vec<&Value> = Vec::new();
    for v in values.iter().filter(|v| !v.is_null()) {
        if !seen.iter().any(|s| s.cypher_eq(v) == Some(true)) {
            seen.push(v);
        }
    }
    seen.len() as i64
}

fn equal_keys(a: &Value, b: &Value) -> bool {
    matches!((ValueKey::new(a), ValueKey::new(b)), (Some(x), Some(y)) if x == y)
}

proptest! {
    #[test]
    fn count_distinct_matches_the_pairwise_scan(
        raw in prop::collection::vec((0u8..8, -3i64..4, 0u8..12), 0..40)
    ) {
        let values = values(raw);
        let mut acc = Accumulator::new(AggFunc::Count, true);
        for v in &values {
            acc.update(v.clone());
        }
        prop_assert_eq!(acc.finish(), Value::Int(pairwise_distinct_count(&values)), "{values:?}");
    }

    #[test]
    fn keys_agree_with_cypher_equality(
        raw in prop::collection::vec((0u8..8, -3i64..4, 0u8..12), 2..12)
    ) {
        let values = values(raw);
        for a in &values {
            for b in &values {
                if a.is_null() || b.is_null() {
                    prop_assert_eq!(a.cypher_eq(b), None);
                } else {
                    prop_assert_eq!(
                        a.cypher_eq(b) == Some(true),
                        equal_keys(a, b),
                        "{a:?} vs {b:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn distinct_weight_collapses_to_one_observation() {
    let mut acc = Accumulator::new(AggFunc::Count, true);
    acc.update_weighted(Value::Int(1), 5);
    acc.update_weighted(Value::Float(1.0), 3);
    acc.update_weighted(Value::Float(f64::NAN), 2);
    acc.update_weighted(Value::Float(f64::NAN), 2);
    assert_eq!(acc.finish(), Value::Int(3));
}
