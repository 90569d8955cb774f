//! Decoding the replies the benchmark checks: `GRAPH.QUERY` result sets and
//! `GRAPH.INFO` counters.

use redisgraph_server::RespValue;
use std::collections::BTreeMap;

/// The single integer of a one-row, one-column `GRAPH.QUERY` reply
/// (`RETURN count(t)`), `None` for a `null` cell.
pub fn scalar(reply: &RespValue) -> Result<Option<i64>, String> {
    let RespValue::Array(sections) = reply else {
        return Err(format!("not a result set: {reply}"));
    };
    match sections.get(1) {
        Some(RespValue::Array(rows)) => match rows.as_slice() {
            [RespValue::Array(cells)] => match cells.as_slice() {
                [RespValue::Integer(n)] => Ok(Some(*n)),
                [RespValue::Null] => Ok(None),
                _ => Err(format!("expected one integer cell: {reply}")),
            },
            _ => Err(format!("expected one row: {reply}")),
        },
        _ => Err(format!("not a result set: {reply}")),
    }
}

/// The value of statistic `name` (e.g. `Relationships created`) in a
/// `GRAPH.QUERY` reply's statistics footer.
pub fn statistic(reply: &RespValue, name: &str) -> Option<u64> {
    let RespValue::Array(sections) = reply else { return None };
    let RespValue::Array(stats) = sections.last()? else { return None };
    stats.iter().find_map(|line| match line {
        RespValue::BulkString(s) => s.strip_prefix(name)?.strip_prefix(": ")?.parse().ok(),
        _ => None,
    })
}

/// Every integer counter of a `GRAPH.INFO` reply, keyed by name (the
/// sections are flattened; counter names are unique across sections).
pub fn info_counters(reply: &RespValue) -> Result<BTreeMap<String, i64>, String> {
    let RespValue::Array(sections) = reply else {
        return Err(format!("GRAPH.INFO: not an array: {reply}"));
    };
    let mut out = BTreeMap::new();
    for section in sections {
        let RespValue::Array(parts) = section else { continue };
        let Some(RespValue::Array(pairs)) = parts.get(1) else { continue };
        for pair in pairs.chunks(2) {
            if let [RespValue::BulkString(key), RespValue::Integer(v)] = pair {
                out.insert(key.clone(), *v);
            }
        }
    }
    if out.is_empty() {
        return Err(format!("GRAPH.INFO: no counters in {reply}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bulk(s: &str) -> RespValue {
        RespValue::BulkString(s.to_string())
    }

    #[test]
    fn decodes_result_sets_and_footers() {
        let reply = RespValue::Array(vec![
            RespValue::Array(vec![bulk("count(t)")]),
            RespValue::Array(vec![RespValue::Array(vec![RespValue::Integer(7)])]),
            RespValue::Array(vec![bulk("Relationships created: 1"), bulk("Properties set: 0")]),
        ]);
        assert_eq!(scalar(&reply), Ok(Some(7)));
        assert_eq!(statistic(&reply, "Relationships created"), Some(1));
        assert_eq!(statistic(&reply, "Properties set"), Some(0));
        assert!(scalar(&RespValue::Error("ERR".into())).is_err());
    }

    #[test]
    fn flattens_info_sections() {
        let reply = RespValue::Array(vec![RespValue::Array(vec![
            bulk("queries"),
            RespValue::Array(vec![bulk("queries_executed"), RespValue::Integer(3)]),
        ])]);
        assert_eq!(info_counters(&reply).unwrap()["queries_executed"], 3);
    }
}
