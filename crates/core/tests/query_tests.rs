//! End-to-end query tests: Cypher text in, result rows out, exercising the
//! full parse → plan → execute pipeline against the matrix-backed store.

use redisgraph_core::{Graph, Value};

/// A small social graph used by most tests.
fn social_graph() -> Graph {
    let mut g = Graph::new("social");
    g.query(
        "CREATE (ann:Person {name: 'Ann', age: 34}), \
                (bob:Person {name: 'Bob', age: 28}), \
                (cat:Person {name: 'Cat', age: 41}), \
                (dan:Person {name: 'Dan', age: 23}), \
                (acme:Company {name: 'Acme'}), \
                (ann)-[:KNOWS {since: 2015}]->(bob), \
                (bob)-[:KNOWS {since: 2019}]->(cat), \
                (cat)-[:KNOWS {since: 2020}]->(dan), \
                (ann)-[:WORKS_AT]->(acme), \
                (bob)-[:WORKS_AT]->(acme)",
    )
    .unwrap();
    g
}

#[test]
fn create_reports_statistics() {
    let mut g = Graph::new("t");
    let rs = g.query("CREATE (:A {x: 1})-[:R {w: 2}]->(:B)").unwrap();
    assert_eq!(rs.stats.nodes_created, 2);
    assert_eq!(rs.stats.relationships_created, 1);
    assert_eq!(rs.stats.properties_set, 2);
    assert_eq!(g.node_count(), 2);
    assert_eq!(g.edge_count(), 1);
}

#[test]
fn match_all_nodes() {
    let mut g = social_graph();
    let rs = g.query("MATCH (n) RETURN n").unwrap();
    assert_eq!(rs.rows.len(), 5);
}

#[test]
fn match_by_label() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person) RETURN p.name ORDER BY p.name").unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Ann", "Bob", "Cat", "Dan"]);
}

#[test]
fn match_with_inline_properties() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person {name: 'Bob'}) RETURN p.age").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(28)));
}

#[test]
fn single_hop_traversal_with_type() {
    let mut g = social_graph();
    let rs = g.query("MATCH (a:Person {name: 'Ann'})-[:KNOWS]->(b) RETURN b.name").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Str("Bob".into())));
}

#[test]
fn traversal_direction_matters() {
    let mut g = social_graph();
    let out = g.query("MATCH (a {name: 'Bob'})-[:KNOWS]->(b) RETURN b.name").unwrap();
    assert_eq!(out.scalar(), Some(&Value::Str("Cat".into())));
    let incoming = g.query("MATCH (a {name: 'Bob'})<-[:KNOWS]-(b) RETURN b.name").unwrap();
    assert_eq!(incoming.scalar(), Some(&Value::Str("Ann".into())));
    let both =
        g.query("MATCH (a {name: 'Bob'})-[:KNOWS]-(b) RETURN b.name ORDER BY b.name").unwrap();
    assert_eq!(both.rows.len(), 2);
}

#[test]
fn multi_hop_chained_pattern() {
    let mut g = social_graph();
    let rs =
        g.query("MATCH (a:Person {name: 'Ann'})-[:KNOWS]->()-[:KNOWS]->(c) RETURN c.name").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Str("Cat".into())));
}

#[test]
fn variable_length_traversal() {
    let mut g = social_graph();
    let rs = g
        .query("MATCH (a:Person {name: 'Ann'})-[:KNOWS*1..3]->(b) RETURN b.name ORDER BY b.name")
        .unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Bob", "Cat", "Dan"]);

    let rs = g.query("MATCH (a:Person {name: 'Ann'})-[:KNOWS*2..2]->(b) RETURN b.name").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Str("Cat".into())));
}

#[test]
fn khop_count_query_matches_library_fast_path() {
    let mut g = Graph::new("k");
    g.query("CREATE (a:Node), (b:Node), (c:Node), (d:Node), (a)-[:LINK]->(b), (b)-[:LINK]->(c), (c)-[:LINK]->(d), (a)-[:LINK]->(c)").unwrap();
    let rs = g.query("MATCH (s)-[*1..2]->(t) WHERE id(s) = 0 RETURN count(t)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(3)));
    assert_eq!(g.khop_count(0, 2), 3);
    let rs6 = g.query("MATCH (s)-[*1..6]->(t) WHERE id(s) = 0 RETURN count(t)").unwrap();
    assert_eq!(rs6.scalar(), Some(&Value::Int(3)));
}

#[test]
fn where_filters_with_boolean_logic() {
    let mut g = social_graph();
    let rs = g
        .query("MATCH (p:Person) WHERE p.age > 25 AND p.age < 40 RETURN p.name ORDER BY p.name")
        .unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Ann", "Bob"]);

    let rs =
        g.query("MATCH (p:Person) WHERE p.name = 'Ann' OR p.name = 'Dan' RETURN count(p)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn aggregations_with_grouping() {
    let mut g = social_graph();
    // group people by whether they work at Acme
    let rs = g.query("MATCH (p:Person)-[:WORKS_AT]->(c:Company) RETURN c.name, count(p)").unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Str("Acme".into()));
    assert_eq!(rs.rows[0][1], Value::Int(2));

    let rs =
        g.query("MATCH (p:Person) RETURN min(p.age), max(p.age), avg(p.age), sum(p.age)").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(23));
    assert_eq!(rs.rows[0][1], Value::Int(41));
    assert_eq!(rs.rows[0][2], Value::Float(31.5));
    assert_eq!(rs.rows[0][3], Value::Int(126));
}

#[test]
fn count_star_and_distinct() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person) RETURN count(*)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(4)));
    let rs = g.query("MATCH (:Person)-[:WORKS_AT]->(c) RETURN count(DISTINCT c)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
}

#[test]
fn order_skip_limit() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person) RETURN p.name ORDER BY p.age DESC SKIP 1 LIMIT 2").unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    // ages desc: Cat(41), Ann(34), Bob(28), Dan(23); skip 1, limit 2 → Ann, Bob
    assert_eq!(names, vec!["Ann", "Bob"]);
}

#[test]
fn distinct_rows() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person)-[:WORKS_AT]->(c:Company) RETURN DISTINCT c.name").unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn set_updates_properties() {
    let mut g = social_graph();
    let rs = g
        .query("MATCH (p:Person {name: 'Ann'}) SET p.age = 35, p.title = 'engineer' RETURN p.age")
        .unwrap();
    assert_eq!(rs.stats.properties_set, 2);
    assert_eq!(rs.scalar(), Some(&Value::Int(35)));
    assert_eq!(g.node_property(0, "title"), Value::Str("engineer".into()));
}

#[test]
fn delete_removes_nodes_and_edges() {
    let mut g = social_graph();
    let before_edges = g.edge_count();
    let rs = g.query("MATCH (p:Person {name: 'Bob'}) DETACH DELETE p").unwrap();
    assert_eq!(rs.stats.nodes_deleted, 1);
    assert!(rs.stats.relationships_deleted >= 2);
    assert_eq!(g.node_count(), 4);
    assert!(g.edge_count() < before_edges);
    // Bob is gone from label scans and traversals.
    let rs = g.query("MATCH (p:Person) RETURN count(p)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(3)));
}

#[test]
fn unwind_produces_one_row_per_element() {
    let mut g = Graph::new("u");
    let rs = g.query("UNWIND [1, 2, 3] AS x RETURN x * 10 ORDER BY x").unwrap();
    let values: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(values, vec![10, 20, 30]);
}

#[test]
fn with_chains_projections() {
    let mut g = social_graph();
    let rs =
        g.query("MATCH (p:Person) WITH p.age AS age WHERE age > 30 RETURN count(age)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn scalar_functions_in_projections() {
    let mut g = social_graph();
    let rs =
        g.query("MATCH (p:Person {name: 'Ann'}) RETURN id(p), labels(p), size(labels(p))").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(0));
    assert_eq!(rs.rows[0][1], Value::List(vec![Value::Str("Person".into())]));
    assert_eq!(rs.rows[0][2], Value::Int(1));
}

#[test]
fn relationship_property_filter() {
    let mut g = social_graph();
    let rs = g
        .query("MATCH (a)-[k:KNOWS]->(b) WHERE k.since >= 2019 RETURN b.name ORDER BY b.name")
        .unwrap();
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Cat", "Dan"]);
}

#[test]
fn relationship_inline_property_map() {
    let mut g = social_graph();
    let rs = g.query("MATCH (a)-[:KNOWS {since: 2015}]->(b) RETURN b.name").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Str("Bob".into())));
}

#[test]
fn nonexistent_relationship_type_matches_nothing() {
    let mut g = social_graph();
    let rs = g.query("MATCH (a)-[:NOPE]->(b) RETURN count(b)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(0)));
}

#[test]
fn cartesian_product_of_patterns() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person), (c:Company) RETURN count(*)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(4)));
}

#[test]
fn match_after_create_sees_new_data() {
    let mut g = Graph::new("rw");
    g.query("CREATE (:X {v: 1})").unwrap();
    g.query("CREATE (:X {v: 2})").unwrap();
    let rs = g.query("MATCH (x:X) RETURN sum(x.v)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(3)));
}

#[test]
fn match_then_create_connects_existing_nodes() {
    let mut g = social_graph();
    g.query("MATCH (a:Person {name: 'Ann'}), (d:Person {name: 'Dan'}) CREATE (a)-[:KNOWS {since: 2024}]->(d)").unwrap();
    let rs = g.query("MATCH (a {name: 'Ann'})-[:KNOWS]->(b) RETURN count(b)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn explain_lists_plan_operations() {
    let g = social_graph();
    let plan = g.explain("MATCH (s:Node)-[*1..3]->(t) WHERE id(s) = 7 RETURN count(t)").unwrap();
    let text = plan.join("\n");
    assert!(text.contains("Node By Id Seek"));
    assert!(text.contains("Conditional Traverse"));
    assert!(text.contains("Aggregate"));
}

#[test]
fn syntax_errors_are_reported() {
    let mut g = Graph::new("err");
    let err = g.query("MATCH (a RETURN a").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::Syntax(_)));
    let err = g.query("MATCH (a) DELETE zz").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::UnknownVariable(_)));
}

#[test]
fn return_without_match_evaluates_expressions() {
    let mut g = Graph::new("expr");
    let rs = g.query("RETURN 1 + 2 * 3 AS x, 'a' + 'b' AS s").unwrap();
    assert_eq!(rs.rows[0][0], Value::Int(7));
    assert_eq!(rs.rows[0][1], Value::Str("ab".into()));
    assert_eq!(rs.columns, vec!["x", "s"]);
}

#[test]
fn execution_time_is_recorded() {
    let mut g = social_graph();
    let rs = g.query("MATCH (p:Person) RETURN count(p)").unwrap();
    assert!(rs.stats.execution_time.as_nanos() > 0);
}

// ---------------------------------------------------------------- CALL algo.*

/// A two-component graph for the algorithm procedures: a 4-cycle with a chord
/// (one triangle) plus an isolated pair.
fn algo_graph() -> Graph {
    let mut g = Graph::new("algos");
    g.query(
        "CREATE (a:Node {id: 0}), (b:Node {id: 1}), (c:Node {id: 2}), (d:Node {id: 3}), \
                (x:Node {id: 4}), (y:Node {id: 5}), \
                (a)-[:LINK {weight: 1.0}]->(b), \
                (b)-[:LINK {weight: 2.0}]->(c), \
                (c)-[:LINK {weight: 4.0}]->(a), \
                (c)-[:LINK {weight: 1.0}]->(d), \
                (x)-[:LINK]->(y)",
    )
    .unwrap();
    g
}

#[test]
fn call_bfs_yields_levels_composable_with_where() {
    let mut g = algo_graph();
    let rs = g
        .query("CALL algo.bfs(0) YIELD node, level WHERE level > 0 RETURN node ORDER BY level")
        .unwrap();
    // 0 is excluded by WHERE; reachable are 1 (level 1), 2 (level 2), 3 (level 3).
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0][0], Value::Node(1));
    assert_eq!(rs.rows[2][0], Value::Node(3));
}

#[test]
fn call_sssp_uses_edge_weights() {
    let mut g = algo_graph();
    let rs = g
        .query("CALL algo.sssp(0) YIELD node, distance RETURN node, distance ORDER BY distance")
        .unwrap();
    // 0 (0.0), 1 (1.0), 2 (3.0), 3 (4.0)
    assert_eq!(rs.rows.len(), 4);
    assert_eq!(rs.rows[3], vec![Value::Node(3), Value::Float(4.0)]);
}

#[test]
fn call_pagerank_top_scores_through_order_by_limit() {
    let mut g = algo_graph();
    let rs = g
        .query(
            "CALL algo.pagerank() YIELD node, score \
             RETURN node, score ORDER BY score DESC LIMIT 5",
        )
        .unwrap();
    assert_eq!(rs.columns, vec!["node", "score"]);
    assert_eq!(rs.rows.len(), 5);
    // Scores are sorted descending and sum (over all 6 nodes) to 1.
    let scores: Vec<f64> = rs.rows.iter().filter_map(|r| r[1].as_f64()).collect();
    assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    let all = g.query("CALL algo.pagerank() YIELD score RETURN sum(score)").unwrap();
    let total = all.scalar().and_then(|v| v.as_f64()).unwrap();
    assert!((total - 1.0).abs() < 1e-6, "total = {total}");
}

#[test]
fn call_wcc_counts_components() {
    let mut g = algo_graph();
    let rs =
        g.query("CALL algo.wcc() YIELD node, component RETURN count(DISTINCT component)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn call_triangles_counts_the_chorded_cycle() {
    let mut g = algo_graph();
    let rs = g.query("CALL algo.triangles() YIELD triangles RETURN triangles").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
}

#[test]
fn call_yield_aliases_rebind_columns() {
    let mut g = algo_graph();
    let rs = g
        .query("CALL algo.bfs(0) YIELD node AS n, level AS hops RETURN n, hops ORDER BY hops")
        .unwrap();
    assert_eq!(rs.columns, vec!["n", "hops"]);
    assert_eq!(rs.rows[0], vec![Value::Node(0), Value::Int(0)]);
}

#[test]
fn call_runs_on_the_readonly_path() {
    let g = algo_graph();
    let rs = g.query_readonly("CALL algo.pagerank() YIELD node, score RETURN count(node)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(6)));
}

#[test]
fn unknown_procedure_is_caught_at_plan_time() {
    let g = algo_graph();
    let err = g.explain("CALL algo.nope() YIELD x RETURN x").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::UnknownProcedure(p) if p == "algo.nope"));
}

#[test]
fn bad_yield_column_and_arity_are_plan_errors() {
    let g = algo_graph();
    let err = g.explain("CALL algo.pagerank() YIELD node, rank RETURN rank").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::Type(m) if m.contains("does not yield")));
    let err = g.explain("CALL algo.wcc(1) YIELD node RETURN node").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::Type(m) if m.contains("arguments")));
}

#[test]
fn procedure_call_appears_in_explain() {
    let g = algo_graph();
    let plan = g.explain("CALL algo.pagerank() YIELD node, score RETURN node").unwrap();
    assert!(plan.join("\n").contains("ProcedureCall | algo.pagerank"));
}

#[test]
fn yield_cannot_shadow_an_existing_variable() {
    let g = algo_graph();
    // `level` is already bound by UNWIND; YIELD must not silently clobber it.
    let err = g
        .explain("UNWIND [10, 20] AS level CALL algo.bfs(0) YIELD node, level RETURN level")
        .unwrap_err();
    assert!(
        matches!(err, redisgraph_core::QueryError::Type(ref m) if m.contains("already declared")),
        "got {err:?}"
    );
    // Renaming with AS resolves the collision.
    let plan = g
        .explain("UNWIND [10, 20] AS level CALL algo.bfs(0) YIELD node, level AS hops RETURN hops")
        .unwrap();
    assert!(plan.join("\n").contains("ProcedureCall"));
}

#[test]
fn fractional_node_ids_are_rejected_not_truncated() {
    let mut g = algo_graph();
    let err = g.query("CALL algo.bfs(1.9) YIELD node RETURN node").unwrap_err();
    assert!(
        matches!(err, redisgraph_core::QueryError::Type(ref m) if m.contains("integer")),
        "got {err:?}"
    );
    let err = g.query("CALL algo.pagerank(0.85, 2.7) YIELD node RETURN node").unwrap_err();
    assert!(matches!(err, redisgraph_core::QueryError::Type(ref m) if m.contains("integer")));
}

#[test]
fn id_seek_comes_only_from_its_own_match() {
    // The WHERE of the second MATCH must not turn the first `MATCH (n)` into
    // a seek: the count runs over all four nodes.
    let mut g = Graph::new("t");
    g.query("CREATE (:A), (:A), (:A), (:A)").unwrap();
    let rs = g.query("MATCH (n) WITH count(n) AS c MATCH (n) WHERE id(n) = 0 RETURN c").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(4)]]);
    let plan = g.explain("MATCH (n) WITH count(n) AS c MATCH (n) WHERE id(n) = 0 RETURN c");
    let plan = plan.unwrap().join("\n");
    assert!(plan.starts_with("All Node Scan | (n)"), "{plan}");
    assert!(plan.contains("Node By Id Seek | (n)"), "{plan}");
}

#[test]
fn integer_equality_is_exact_beyond_2_pow_53() {
    let mut g = Graph::new("t");
    let row = |g: &mut Graph, q: &str| g.query(q).unwrap().rows;
    assert_eq!(
        row(
            &mut g,
            "RETURN 9007199254740993 = 9007199254740992, 9007199254740991 = 9007199254740992"
        ),
        vec![vec![Value::Bool(false), Value::Bool(false)]]
    );
    assert_eq!(
        row(
            &mut g,
            "RETURN 9007199254740993 > 9007199254740992, 9007199254740992 = 9007199254740992.0"
        ),
        vec![vec![Value::Bool(true), Value::Bool(true)]]
    );
    assert_eq!(
        row(
            &mut g,
            "UNWIND [9007199254740993, 9007199254740992, 9007199254740991, 9007199254740992.0] \
             AS x RETURN count(DISTINCT x)"
        ),
        vec![vec![Value::Int(3)]]
    );
}

#[test]
fn grouping_distinct_rows_and_count_distinct_share_one_equivalence() {
    let mut g = Graph::new("t");
    let groups = g.query("UNWIND [1, 1.0, 2] AS x RETURN x, count(*) ORDER BY x").unwrap();
    assert_eq!(
        groups.rows,
        vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(2), Value::Int(1)]]
    );
    let distinct = g.query("UNWIND [1, 1.0, 2] AS x RETURN DISTINCT x").unwrap();
    assert_eq!(distinct.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    let counted = g.query("UNWIND [1, 1.0, 2] AS x RETURN count(DISTINCT x)").unwrap();
    assert_eq!(counted.scalar(), Some(&Value::Int(2)));
    // Lists group element-wise under the same rule; nulls group together.
    let lists = g.query("UNWIND [[1, null], [1.0, null], [2]] AS x RETURN count(DISTINCT x)");
    assert_eq!(lists.unwrap().scalar(), Some(&Value::Int(2)));
    let nulls = g.query("UNWIND [null, 1, null] AS x RETURN x, count(*) ORDER BY x").unwrap();
    assert_eq!(
        nulls.rows,
        vec![vec![Value::Int(1), Value::Int(1)], vec![Value::Null, Value::Int(2)]]
    );
}
