//! `Node By Id Seek` enforces the `id(s) = v` conjunct it consumes, and the
//! planner drops that conjunct from the `WHERE` filter. This suite checks the
//! seek alone against a plain `Filter`: `WHERE id(s) = v` must return what
//! `WHERE id(s) + 0 = v` returns, a spelling the seek matcher does not take,
//! for ids that exist and do not, for values that are not integers, for
//! null, and for a `$p` parameter bound to each of them. It also pins the
//! cases that must keep their `Filter`, and the benchmark's plan shapes.

use cypher::{Expr, Literal};
use redisgraph_core::{ExecutionPlan, Graph, Params, ResultSet, Value};

/// Six `:N` nodes with `x = id`, on a ring of `:R` edges with +2 chords, so
/// 1-hop, 2-hop chain and `*1..2` shapes all fan out.
fn fixture() -> Graph {
    let mut g = Graph::new("seek");
    for k in 0..6 {
        g.add_node(&["N"], vec![("x", Value::Int(k))]);
    }
    for k in 0..6u64 {
        for other in [(k + 1) % 6, (k + 2) % 6] {
            g.add_edge(k, other, "R", vec![]).unwrap();
        }
    }
    g
}

/// `{v}` is spliced with the id predicate's right-hand side.
const SHAPES: &[&str] = &[
    "MATCH (s)-[:R]->(t) WHERE {pred} = {v} RETURN id(s), id(t) ORDER BY id(t)",
    "MATCH (s:N)-[:R]->()-[:R]->(t) WHERE {pred} = {v} RETURN count(t)",
    "MATCH (s:N)-[:R*1..2]->(t) WHERE {pred} = {v} RETURN count(DISTINCT t)",
    "MATCH (s) WHERE {pred} = {v} AND s.x > 0 RETURN s.x",
    "MATCH (s) WHERE {v} = {pred} RETURN id(s)",
];

/// Values for the right-hand side, as query text and as a `$p` binding:
/// an existing id, a missing one, a negative one, integral and fractional
/// floats, a string, and null.
fn values() -> Vec<(&'static str, Literal)> {
    vec![
        ("2", Literal::Integer(2)),
        ("99", Literal::Integer(99)),
        ("-1", Literal::Integer(-1)),
        ("1.0", Literal::Float(1.0)),
        ("0.5", Literal::Float(0.5)),
        ("'1'", Literal::Str("1".into())),
        ("null", Literal::Null),
    ]
}

fn query(shape: &str, pred: &str, v: &str) -> String {
    shape.replace("{pred}", pred).replace("{v}", v)
}

fn run(g: &mut Graph, text: &str) -> ResultSet {
    g.query(text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

fn explain(g: &Graph, text: &str) -> Vec<String> {
    g.explain(text).unwrap_or_else(|e| panic!("{text}: {e}"))
}

fn has_filter(plan: &[String]) -> bool {
    plan.iter().any(|line| line == "Filter")
}

#[test]
fn seek_agrees_with_a_plain_filter() {
    let mut g = fixture();
    for shape in SHAPES {
        for (v, lit) in values() {
            let seek = query(shape, "id(s)", v);
            let filter = query(shape, "id(s) + 0", v);
            // `-1` parses as a negation, which the seek matcher leaves alone;
            // the `$p` binding below still seeks it.
            if !v.starts_with('-') {
                let plan = explain(&g, &seek);
                assert!(plan[0].starts_with("Node By Id Seek"), "{seek}: {plan:?}");
            }
            assert!(!explain(&g, &filter)[0].starts_with("Node By Id Seek"), "{filter}");
            let expected = run(&mut g, &filter).rows;
            assert_eq!(run(&mut g, &seek).rows, expected, "{seek}");

            // The same seek with the value bound as a parameter.
            let skeleton = query(shape, "id(s)", "$p");
            let ast = cypher::parse(&skeleton).unwrap();
            let params: Params = [("p".to_string(), Expr::Literal(lit))].into_iter().collect();
            let plan = ExecutionPlan::build(&ast).unwrap();
            let rows = plan.bind(&params).unwrap().execute(&mut g).unwrap().rows;
            assert_eq!(rows, expected, "{skeleton} with p = {v}");
        }
    }
}

#[test]
fn a_consumed_conjunct_leaves_no_filter() {
    let g = fixture();
    for text in [
        "MATCH (s)-[:R]->(t) WHERE id(s) = 1 RETURN id(t)",
        "MATCH (s:N)-[:R]->(t) WHERE id(s) = $k RETURN count(t)",
        "MATCH (s:N)-[:R*1..3]->(t) WHERE 1 = id(s) RETURN count(DISTINCT t)",
        "MATCH (s) WHERE id(s) = $a MATCH (t) WHERE id(t) = $b CREATE (s)-[:R]->(t)",
    ] {
        let plan = explain(&g, text);
        assert!(!has_filter(&plan), "{text}: {plan:?}");
    }
    // Other conjuncts stay in the filter.
    let plan = explain(&g, "MATCH (s) WHERE s.x > 0 AND id(s) = 1 RETURN s");
    assert!(plan[0].starts_with("Node By Id Seek") && has_filter(&plan), "{plan:?}");
}

#[test]
fn a_fused_chain_after_a_seek_feeds_the_aggregate_directly() {
    let mut g = fixture();
    let text = "MATCH (s:N)-[:R]->()-[:R]->(t) WHERE id(s) = 0 RETURN count(t)";
    assert_eq!(
        explain(&g, text),
        [
            "Node By Id Seek | (s)",
            "Label Filter | :N",
            "Conditional Traverse | (s)·A_R·A_R",
            "Aggregate"
        ]
    );
    // 0 → {1, 2} → {2, 3} ∪ {3, 4}: four paths onto three destinations, and
    // the weighted hand-off emits one record per destination.
    let (rs, profiles) = g.profile(text).unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(4)));
    let traverse = profiles.iter().find(|p| p.description.contains("·A_R·A_R")).unwrap();
    assert_eq!(traverse.records_produced, 3);
}

#[test]
fn conjuncts_the_seek_cannot_serve_keep_their_filter() {
    let mut g = fixture();
    // Two pins on one variable: the seek takes the first, the filter the rest.
    let text = "MATCH (a) WHERE id(a) = 1 AND id(a) = 2 RETURN id(a)";
    let plan = explain(&g, text);
    assert!(plan[0].starts_with("Node By Id Seek") && has_filter(&plan), "{plan:?}");
    assert!(run(&mut g, text).rows.is_empty());
    let text = "MATCH (a) WHERE id(a) = 1 AND id(a) = 1.0 RETURN id(a)";
    assert_eq!(run(&mut g, text).rows, vec![vec![Value::Int(1)]]);

    // A traverse destination is bound by the traverse, not a seek.
    let text = "MATCH (a)-[:R]->(b) WHERE id(b) = 2 RETURN id(a) ORDER BY id(a)";
    let plan = explain(&g, text);
    assert!(!plan.iter().any(|l| l.starts_with("Node By Id Seek")), "{plan:?}");
    assert!(has_filter(&plan), "{plan:?}");
    assert_eq!(run(&mut g, text).rows, vec![vec![Value::Int(0)], vec![Value::Int(1)]]);
}
