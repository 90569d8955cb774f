//! Aggregation functions for `RETURN` / `WITH` projections: `count`, `sum`,
//! `avg`, `min`, `max`, `collect`, with optional `DISTINCT`.

use crate::value::{Value, ValueKey};
use std::collections::HashSet;

/// Incremental state of one aggregation expression within one group.
///
/// `DISTINCT` keeps one observation per equivalence class of
/// [`ValueKey`] — the equivalence grouping and `RETURN DISTINCT` use, and
/// `Value::cypher_eq` for non-null values: `1` and `1.0` are one value,
/// 2^53 and 2^53 + 1 are two, and every NaN is distinct from everything.
/// Each value costs one hash-set probe.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    distinct: bool,
    seen: HashSet<ValueKey>,
    count: u64,
    sum: f64,
    /// Exact integer running sum. i128 so intermediate i64 overflow does not
    /// lose exactness (or make the result depend on input order); the final
    /// value only demotes to float if the *total* exceeds the i64 range.
    int_sum: i128,
    all_ints: bool,
    min: Option<Value>,
    max: Option<Value>,
    collected: Vec<Value>,
}

/// The supported aggregation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(x)` / `count(*)`.
    Count,
    /// `sum(x)`.
    Sum,
    /// `avg(x)`.
    Avg,
    /// `min(x)`.
    Min,
    /// `max(x)`.
    Max,
    /// `collect(x)`.
    Collect,
}

impl AggFunc {
    /// Map a lower-cased function name to an aggregation function.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "collect" => Some(AggFunc::Collect),
            _ => None,
        }
    }
}

impl Accumulator {
    /// Create an accumulator for a function, with or without `DISTINCT`.
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        Accumulator {
            func,
            distinct,
            seen: HashSet::new(),
            count: 0,
            sum: 0.0,
            int_sum: 0,
            all_ints: true,
            min: None,
            max: None,
            collected: Vec::new(),
        }
    }

    /// Feed one value. `Null` values are ignored by every aggregation, per
    /// openCypher; `count(*)` is handled by feeding a non-null marker.
    pub fn update(&mut self, value: Value) {
        self.update_weighted(value, 1);
    }

    /// Feed one value `weight` times at once — the algebraic form used by
    /// fused traversals, whose counting-semiring products deliver a path
    /// count per destination instead of that many identical records.
    /// `count` and `sum`/`avg` scale linearly (`count += w`, `sum += v·w`);
    /// `min`/`max` ignore duplicates; `collect` pushes `w` copies. With
    /// `DISTINCT` the weight collapses to a single observation, exactly as
    /// `w` identical expanded records would.
    pub fn update_weighted(&mut self, value: Value, weight: u64) {
        if value.is_null() || weight == 0 {
            return;
        }
        if self.distinct {
            // A NaN has no key: equivalent to nothing, it always counts anew.
            if let Some(key) = ValueKey::new(&value) {
                if !self.seen.insert(key) {
                    return;
                }
            }
        }
        let weight = if self.distinct { 1 } else { weight };
        self.count += weight;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                if let Value::Int(i) = value {
                    // i128 accumulation absorbs intermediate i64 overflow
                    // exactly; `finish` decides whether the total still fits.
                    // (checked_add only trips after ~2^63 extreme values —
                    // the f64 running sum then takes over.)
                    match (i as i128)
                        .checked_mul(weight as i128)
                        .and_then(|w| self.int_sum.checked_add(w))
                    {
                        Some(s) => self.int_sum = s,
                        None => self.all_ints = false,
                    }
                } else {
                    self.all_ints = false;
                }
                self.sum += value.as_f64().unwrap_or(0.0) * weight as f64;
            }
            AggFunc::Min => {
                let better = match &self.min {
                    None => true,
                    Some(cur) => value.sort_cmp(cur).is_lt(),
                };
                if better {
                    self.min = Some(value);
                }
            }
            AggFunc::Max => {
                let better = match &self.max {
                    None => true,
                    Some(cur) => value.sort_cmp(cur).is_gt(),
                };
                if better {
                    self.max = Some(value);
                }
            }
            AggFunc::Collect => {
                for _ in 0..weight {
                    self.collected.push(value.clone());
                }
            }
        }
    }

    /// Produce the final aggregated value.
    pub fn finish(self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Int(0)
                } else if self.all_ints {
                    // Exact while the total fits; an out-of-range total
                    // promotes to float instead of silently wrapping.
                    match i64::try_from(self.int_sum) {
                        Ok(total) => Value::Int(total),
                        Err(_) => Value::Float(self.int_sum as f64),
                    }
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.unwrap_or(Value::Null),
            AggFunc::Max => self.max.unwrap_or(Value::Null),
            AggFunc::Collect => Value::List(self.collected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, distinct: bool, values: Vec<Value>) -> Value {
        let mut acc = Accumulator::new(func, distinct);
        for v in values {
            acc.update(v);
        }
        acc.finish()
    }

    #[test]
    fn count_ignores_nulls() {
        let v = run(AggFunc::Count, false, vec![Value::Int(1), Value::Null, Value::Int(2)]);
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn count_distinct() {
        let v = run(
            AggFunc::Count,
            true,
            vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::Float(2.0)],
        );
        // 2.0 equals 2 under cypher equality, so only {1, 2} are distinct
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn sum_stays_integer_when_possible() {
        assert_eq!(run(AggFunc::Sum, false, vec![Value::Int(1), Value::Int(2)]), Value::Int(3));
        assert_eq!(
            run(AggFunc::Sum, false, vec![Value::Int(1), Value::Float(0.5)]),
            Value::Float(1.5)
        );
        assert_eq!(run(AggFunc::Sum, false, vec![]), Value::Int(0));
    }

    #[test]
    fn sum_overflow_promotes_to_float_instead_of_wrapping() {
        // i64::MAX + 1 used to wrap to i64::MIN via `wrapping_add`.
        let v = run(AggFunc::Sum, false, vec![Value::Int(i64::MAX), Value::Int(1)]);
        assert_eq!(v, Value::Float(i64::MAX as f64 + 1.0));
        // Negative overflow too.
        let v = run(AggFunc::Sum, false, vec![Value::Int(i64::MIN), Value::Int(-1)]);
        assert_eq!(v, Value::Float(i64::MIN as f64 - 1.0));
        // Exactly at the boundary there is no overflow and the sum stays Int.
        let v = run(AggFunc::Sum, false, vec![Value::Int(i64::MAX - 1), Value::Int(1)]);
        assert_eq!(v, Value::Int(i64::MAX));
    }

    #[test]
    fn sum_is_exact_and_order_independent_across_intermediate_overflow() {
        // [MAX, 1, -2] overflows i64 mid-stream but the total fits: the
        // result must stay an exact Int, whatever the input order.
        let values = [i64::MAX, 1, -2];
        let expect = Value::Int(i64::MAX - 1);
        let orders: [[i64; 3]; 3] =
            [values, [values[2], values[0], values[1]], [values[1], values[2], values[0]]];
        for order in orders {
            let v = run(AggFunc::Sum, false, order.iter().map(|&i| Value::Int(i)).collect());
            assert_eq!(v, expect, "order {order:?}");
        }
    }

    #[test]
    fn avg_of_overflowing_ints_stays_finite() {
        let v = run(AggFunc::Avg, false, vec![Value::Int(i64::MAX), Value::Int(i64::MAX)]);
        assert_eq!(v, Value::Float(i64::MAX as f64));
    }

    #[test]
    fn avg_min_max() {
        assert_eq!(
            run(AggFunc::Avg, false, vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            Value::Float(2.0)
        );
        assert_eq!(run(AggFunc::Avg, false, vec![]), Value::Null);
        assert_eq!(
            run(AggFunc::Min, false, vec![Value::Int(5), Value::Int(2), Value::Int(8)]),
            Value::Int(2)
        );
        assert_eq!(
            run(AggFunc::Max, false, vec![Value::Str("a".into()), Value::Str("c".into())]),
            Value::Str("c".into())
        );
        assert_eq!(run(AggFunc::Min, false, vec![]), Value::Null);
    }

    #[test]
    fn collect_preserves_order() {
        let v = run(AggFunc::Collect, false, vec![Value::Int(3), Value::Null, Value::Int(1)]);
        assert_eq!(v, Value::List(vec![Value::Int(3), Value::Int(1)]));
    }

    #[test]
    fn from_name_lookup() {
        assert_eq!(AggFunc::from_name("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("collect"), Some(AggFunc::Collect));
        assert_eq!(AggFunc::from_name("id"), None);
    }
}
