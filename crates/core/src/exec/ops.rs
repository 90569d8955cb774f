//! Execution-plan operations.
//!
//! Each operation maps a batch of [`Record`]s to a new batch. The operation
//! set mirrors RedisGraph's execution plan: scans, algebraic traversals,
//! filters, projections/aggregations and the write operations.

use crate::exec::aggregate::{Accumulator, AggFunc};
use crate::exec::algebraic::AlgebraicExpression;
use crate::exec::expr::{contains_aggregate, eval};
use crate::exec::record::{Bindings, Record};
use crate::exec::resultset::QueryStats;
use crate::store::graph::{Graph, TraverseDir};
use crate::value::{Value, ValueKey};
use crate::{EdgeId, NodeId};
use cypher::{Direction, Expr, PathPattern, Projection, SetItem, SortOrder};
use graphblas::prelude::*;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// How `Conditional Traverse` / `Expand Into` operators execute.
///
/// The paper's central claim is that traversals *are* algebraic expressions:
/// a batch of plan records becomes a frontier matrix `F` (record × node) and
/// one relation step becomes `F ⊕.⊗ Aᵣ`, a masked sparse `mxm` whose rows
/// are probed back into records. The scalar strategy is the per-record
/// pointer-chasing fallback; both produce row-for-row identical output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraverseStrategy {
    /// Batch once at least [`BATCH_TRAVERSE_MIN_RECORDS`] records flow
    /// through the traversal; pointer-chase below that (building frontier
    /// matrices for a handful of records costs more than it saves).
    #[default]
    Auto,
    /// Always traverse record by record (`graph.neighbors()` row walks).
    Scalar,
    /// Always evaluate the traversal as a frontier `mxm`.
    Batched,
}

/// Record-batch size at which [`TraverseStrategy::Auto`] switches from the
/// scalar path to the frontier `mxm`.
pub const BATCH_TRAVERSE_MIN_RECORDS: usize = 64;

/// The parameters of one `Traverse` plan op, bundled so the execution
/// strategies share a signature.
#[derive(Debug, Clone)]
pub struct TraverseSpec<'a> {
    /// Slot of the already-bound source node.
    pub src_slot: usize,
    /// Slot receiving the destination node (already bound for expand-into).
    pub dst_slot: usize,
    /// Slot receiving the traversed edge (single hop, named edge only).
    pub edge_slot: Option<usize>,
    /// Relationship type names (empty = any type).
    pub rel_types: &'a [String],
    /// Pattern direction.
    pub direction: Direction,
    /// Minimum hop count (0 = the source itself matches).
    pub min_hops: u32,
    /// Maximum hop count; `None` = unbounded.
    pub max_hops: Option<u32>,
    /// True if the destination is already bound (expand-into / semi-join).
    pub expand_into: bool,
    /// Intra-query GraphBLAS thread budget, snapshotted from the process
    /// context when the plan was built (`ExecutionPlan::thread_budget`) so a
    /// runtime `QUERY_THREADS` change never retunes a query in flight.
    pub nthreads: usize,
}

/// One step of an execution plan.
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Bind every node of the graph to `slot` (cartesian with existing records).
    AllNodeScan {
        /// Output slot.
        slot: usize,
        /// Variable name (for `EXPLAIN`).
        var: String,
    },
    /// Bind every node carrying `label` to `slot`.
    NodeByLabelScan {
        /// Output slot.
        slot: usize,
        /// Variable name.
        var: String,
        /// Label to scan.
        label: String,
    },
    /// Bind a single node looked up by internal id (`WHERE id(n) = …`). The
    /// seek enforces the whole `id(n) = <id_expr>` conjunct, which the
    /// planner therefore drops from the `WHERE` filter.
    NodeByIdSeek {
        /// Output slot.
        slot: usize,
        /// Variable name.
        var: String,
        /// Expression producing the node id.
        id_expr: Expr,
    },
    /// Keep only records whose predicate evaluates to `true`.
    Filter {
        /// The predicate.
        expr: Expr,
    },
    /// Keep only records whose `slot` node carries `label`.
    LabelFilter {
        /// Slot holding the node.
        slot: usize,
        /// Required label.
        label: String,
    },
    /// Keep only records whose `slot` entity has property `key` equal to `value`.
    PropFilter {
        /// Slot holding the node or edge.
        slot: usize,
        /// Property name.
        key: String,
        /// Required value.
        value: Value,
    },
    /// Traverse relationships from the node in `src_slot`, binding reached
    /// nodes to `dst_slot` (and the traversed edge to `edge_slot` for single
    /// hops). Variable-length traversals run the masked-vxm BFS.
    Traverse {
        /// Slot of the already-bound source node.
        src_slot: usize,
        /// Slot receiving the destination node.
        dst_slot: usize,
        /// Destination variable name.
        dst_var: String,
        /// Slot receiving the traversed edge (single hop, named edge only).
        edge_slot: Option<usize>,
        /// Relationship type names (empty = any type).
        rel_types: Vec<String>,
        /// Pattern direction.
        direction: Direction,
        /// Minimum hop count.
        min_hops: u32,
        /// Maximum hop count; `None` = unbounded.
        max_hops: Option<u32>,
        /// True if the destination is already bound (expand-into / semi-join).
        expand_into: bool,
    },
    /// A fused fixed-length chain traversal: the whole chain evaluates as
    /// one algebraic product under the counting semiring instead of one
    /// `Traverse` op (and record materialisation) per hop. Built by the
    /// optimizer pass in [`crate::exec::algebraic`].
    FusedTraverse {
        /// Slot of the already-bound source node (the frontier).
        src_slot: usize,
        /// Slot receiving the chain's final destination node.
        dst_slot: usize,
        /// Final destination variable name.
        dst_var: String,
        /// The algebraic expression (`F·A_R·A_S`) the op evaluates.
        expr: AlgebraicExpression,
        /// Hidden slot receiving the per-row path count when the downstream
        /// consumer is a weight-aware aggregation; `None` = expand each
        /// product cell into `count` records.
        weight_slot: Option<usize>,
    },
    /// Final projection (`RETURN`).
    Project(Projection),
    /// Final aggregation (`RETURN` containing aggregate functions).
    Aggregate {
        /// The aggregating projection.
        projection: Projection,
        /// Slot holding a per-record path-count weight written by an
        /// upstream [`PlanOp::FusedTraverse`] (`Null`/absent = weight 1).
        weight_slot: Option<usize>,
    },
    /// Intermediate projection (`WITH`); re-binds records for the next segment.
    With(Projection),
    /// Create the given patterns once per incoming record.
    Create {
        /// Patterns to instantiate.
        patterns: Vec<PathPattern>,
    },
    /// Delete the entities bound to the named variables.
    Delete {
        /// `DETACH DELETE` flag (node deletion always cascades to incident
        /// edges, as RedisGraph does).
        detach: bool,
        /// Variables to delete.
        vars: Vec<String>,
    },
    /// Set properties on bound entities.
    SetProps {
        /// Assignments.
        items: Vec<SetItem>,
    },
    /// Expand a list expression into one record per element.
    Unwind {
        /// List-valued expression.
        list: Expr,
        /// Output slot.
        slot: usize,
        /// Variable name.
        var: String,
    },
    /// Invoke a registered procedure (`CALL algo.*`) and stream its rows into
    /// the record pipeline, once per incoming record.
    ProcedureCall {
        /// Canonical procedure name (validated at plan-build time).
        name: String,
        /// Argument expressions, evaluated per record.
        args: Vec<Expr>,
        /// `(procedure output column index, record slot)` pairs for the
        /// yielded columns.
        outputs: Vec<(usize, usize)>,
    },
}

impl PlanOp {
    /// One-line description used by `GRAPH.EXPLAIN`.
    pub fn describe(&self) -> String {
        match self {
            PlanOp::AllNodeScan { var, .. } => format!("All Node Scan | ({var})"),
            PlanOp::NodeByLabelScan { var, label, .. } => {
                format!("Node By Label Scan | ({var}:{label})")
            }
            PlanOp::NodeByIdSeek { var, .. } => format!("Node By Id Seek | ({var})"),
            PlanOp::Filter { .. } => "Filter".to_string(),
            PlanOp::LabelFilter { label, .. } => format!("Label Filter | :{label}"),
            PlanOp::PropFilter { key, .. } => format!("Property Filter | .{key}"),
            PlanOp::Traverse { dst_var, rel_types, min_hops, max_hops, expand_into, .. } => {
                let types =
                    if rel_types.is_empty() { "*".to_string() } else { rel_types.join("|") };
                let hops = match (min_hops, max_hops) {
                    (1, Some(1)) => String::new(),
                    (min, Some(max)) => format!(" *{min}..{max}"),
                    (min, None) => format!(" *{min}.."),
                };
                if *expand_into {
                    format!("Expand Into | [:{types}{hops}] -> ({dst_var})")
                } else {
                    format!("Conditional Traverse | [:{types}{hops}] -> ({dst_var})")
                }
            }
            PlanOp::FusedTraverse { expr, .. } => format!("Conditional Traverse | {expr}"),
            PlanOp::Project(_) => "Project".to_string(),
            PlanOp::Aggregate { .. } => "Aggregate".to_string(),
            PlanOp::With(_) => "With".to_string(),
            PlanOp::Create { .. } => "Create".to_string(),
            PlanOp::Delete { .. } => "Delete".to_string(),
            PlanOp::SetProps { .. } => "Update".to_string(),
            PlanOp::Unwind { var, .. } => format!("Unwind | ({var})"),
            PlanOp::ProcedureCall { name, .. } => format!("ProcedureCall | {name}"),
        }
    }
}

fn to_traverse_dir(d: Direction) -> TraverseDir {
    match d {
        Direction::Outgoing => TraverseDir::Outgoing,
        Direction::Incoming => TraverseDir::Incoming,
        Direction::Both => TraverseDir::Both,
    }
}

/// Execute the scan-type ops.
pub fn run_scan(
    op: &PlanOp,
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<Record> {
    let mut out = Vec::new();
    match op {
        PlanOp::AllNodeScan { slot, .. } => {
            let nodes = graph.all_node_ids();
            for record in &records {
                for &n in &nodes {
                    let mut r = record.clone();
                    ensure_len(&mut r, bindings);
                    r[*slot] = Value::Node(n);
                    out.push(r);
                }
            }
        }
        PlanOp::NodeByLabelScan { slot, label, .. } => {
            let nodes = graph.nodes_with_label(label);
            for record in &records {
                for &n in &nodes {
                    let mut r = record.clone();
                    ensure_len(&mut r, bindings);
                    r[*slot] = Value::Node(n);
                    out.push(r);
                }
            }
        }
        PlanOp::NodeByIdSeek { slot, id_expr, .. } => {
            for record in &records {
                // Only an id `=` the value qualifies: 1.0 seeks node 1, while
                // 0.5, "1" and null seek nothing.
                let id_val = eval(id_expr, record, bindings, graph);
                let exact =
                    id_val.as_i64().filter(|&id| Value::Int(id).cypher_eq(&id_val) == Some(true));
                if let Some(id) = exact {
                    if id >= 0 && graph.node(id as NodeId).is_some() {
                        let mut r = record.clone();
                        ensure_len(&mut r, bindings);
                        r[*slot] = Value::Node(id as NodeId);
                        out.push(r);
                    }
                }
            }
        }
        _ => unreachable!("run_scan called with a non-scan op"),
    }
    out
}

fn ensure_len(record: &mut Record, bindings: &Bindings) {
    if record.len() < bindings.len() {
        record.resize(bindings.len(), Value::Null);
    }
}

/// Execute the filter-type ops.
pub fn run_filter(
    op: &PlanOp,
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<Record> {
    records
        .into_iter()
        .filter(|record| match op {
            PlanOp::Filter { expr } => eval(expr, record, bindings, graph).is_truthy(),
            PlanOp::LabelFilter { slot, label } => match record.get(*slot) {
                Some(Value::Node(id)) => graph.node_has_label(*id, label),
                _ => false,
            },
            PlanOp::PropFilter { slot, key, value } => {
                let actual = match record.get(*slot) {
                    Some(Value::Node(id)) => graph.node_property(*id, key),
                    Some(Value::Edge(id)) => graph.edge_property(*id, key),
                    _ => Value::Null,
                };
                actual.cypher_eq(value) == Some(true)
            }
            _ => unreachable!("run_filter called with a non-filter op"),
        })
        .collect()
}

/// Execute a traverse op, dispatching on the graph's [`TraverseStrategy`].
/// Both strategies produce row-for-row identical output (proven by the
/// `traverse_differential` integration suite).
pub fn run_traverse(
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
    spec: &TraverseSpec<'_>,
) -> Vec<Record> {
    let rel_ids: Option<Vec<usize>> = if spec.rel_types.is_empty() {
        None
    } else {
        Some(spec.rel_types.iter().filter_map(|t| graph.schema.rel_type_id(t)).collect())
    };
    // If the pattern names relationship types that do not exist, nothing matches.
    if let Some(ids) = &rel_ids {
        if ids.len() != spec.rel_types.len() {
            return Vec::new();
        }
    }
    let batched = match graph.traverse_strategy() {
        TraverseStrategy::Scalar => false,
        TraverseStrategy::Batched => true,
        TraverseStrategy::Auto => records.len() >= BATCH_TRAVERSE_MIN_RECORDS,
    };
    if batched {
        run_traverse_batched(records, bindings, graph, spec, rel_ids.as_deref())
    } else {
        run_traverse_scalar(records, bindings, graph, spec, rel_ids.as_deref())
    }
}

/// The per-record scalar strategy: pointer-chase `graph.neighbors()` row
/// walks (single hop) or a per-source BFS (variable length).
pub fn run_traverse_scalar(
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
    spec: &TraverseSpec<'_>,
    rel_ids: Option<&[usize]>,
) -> Vec<Record> {
    let dir = to_traverse_dir(spec.direction);
    let max = spec.max_hops.unwrap_or_else(|| graph.node_count().max(1) as u32);
    let single_hop = spec.min_hops == 1 && max == 1;
    let mut out = Vec::new();

    for record in records {
        let Some(Value::Node(src)) = record.get(spec.src_slot).cloned() else { continue };
        if single_hop {
            let neighbors = graph.neighbors(src, rel_ids, dir);
            if spec.expand_into {
                let target = record.get(spec.dst_slot).cloned();
                for (nbr, edge) in neighbors {
                    if target == Some(Value::Node(nbr)) {
                        let mut r = record.clone();
                        ensure_len(&mut r, bindings);
                        if let Some(es) = spec.edge_slot {
                            r[es] = Value::Edge(edge);
                        }
                        out.push(r);
                    }
                }
            } else {
                for (nbr, edge) in neighbors {
                    let mut r = record.clone();
                    ensure_len(&mut r, bindings);
                    r[spec.dst_slot] = Value::Node(nbr);
                    if let Some(es) = spec.edge_slot {
                        r[es] = Value::Edge(edge);
                    }
                    out.push(r);
                }
            }
        } else {
            // Variable-length traversal.
            let reached: Vec<NodeId> = match rel_ids {
                None => graph
                    .khop_reach_with(src, spec.min_hops, max, dir, spec.nthreads)
                    .indices()
                    .to_vec(),
                Some(ids) => typed_bfs(graph, src, spec.min_hops, max, ids, dir),
            };
            if spec.expand_into {
                let target = record.get(spec.dst_slot).cloned();
                if let Some(Value::Node(t)) = target {
                    if reached.contains(&t) {
                        out.push(record.clone());
                    }
                }
            } else {
                for n in reached {
                    let mut r = record.clone();
                    ensure_len(&mut r, bindings);
                    r[spec.dst_slot] = Value::Node(n);
                    out.push(r);
                }
            }
        }
    }
    out
}

/// The batched algebraic strategy: the whole record batch becomes one
/// frontier matrix `F` (record × node, one entry per row at the record's
/// source), the relation step is evaluated as `F ⊕.⊗ Aᵣ` per relation matrix
/// (`any_second` carries edge ids into the product; reverse traversal
/// multiplies the incrementally-maintained transpose), and the product rows
/// are probed back into `(record, dst, edge)` tuples in record-major order so
/// the output matches the scalar path row for row. Expand-into becomes a
/// structural mask over the bound destinations; variable-length patterns run
/// a level-synchronous masked-`mxm` BFS on the whole batch at once. The
/// `mxm` inherits its thread count from [`graphblas::Context`] (the
/// `QUERY_THREADS` knob), parallelising over frontier row blocks.
pub fn run_traverse_batched(
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
    spec: &TraverseSpec<'_>,
    rel_ids: Option<&[usize]>,
) -> Vec<Record> {
    let dir = to_traverse_dir(spec.direction);
    let max = spec.max_hops.unwrap_or_else(|| graph.node_count().max(1) as u32);
    let single_hop = spec.min_hops == 1 && max == 1;
    let dim = graph.dim();

    // One frontier row per *distinct* source node: records sharing a source
    // (the common case deep in a multi-hop pipeline, where thousands of
    // records fan out of a few hub nodes) share one product row instead of
    // recomputing it. `record_rows[i]` maps record `i` back to its row;
    // records without a bound source produce no output.
    let mut src_row: HashMap<NodeId, u64> = HashMap::new();
    let mut frontier_entries: Vec<(u64, u64)> = Vec::new();
    let mut record_rows: Vec<Option<u64>> = Vec::with_capacity(records.len());
    for r in &records {
        match r.get(spec.src_slot) {
            Some(Value::Node(s)) => {
                let row = *src_row.entry(*s).or_insert_with(|| {
                    let row = frontier_entries.len() as u64;
                    frontier_entries.push((row, *s));
                    row
                });
                record_rows.push(Some(row));
            }
            _ => record_rows.push(None),
        }
    }
    if frontier_entries.is_empty() {
        return Vec::new();
    }

    let batch = BatchFrontier { entries: &frontier_entries, record_rows: &record_rows, dim };
    if single_hop {
        batched_single_hop(&records, bindings, graph, spec, rel_ids, dir, &batch)
    } else {
        batched_var_length(&records, bindings, graph, spec, rel_ids, dir, &batch, max)
    }
}

/// The shared frontier layout of one batched traversal: distinct source
/// coordinates plus the record → frontier-row mapping.
struct BatchFrontier<'a> {
    /// `(row, source node)` coordinates, one per distinct source.
    entries: &'a [(u64, u64)],
    /// Frontier row of each record (`None` = source not bound).
    record_rows: &'a [Option<u64>],
    /// Node-space dimension (frontier column count).
    dim: u64,
}

impl BatchFrontier<'_> {
    fn nrows(&self) -> u64 {
        self.entries.len() as u64
    }
}

/// Per-relation single-hop products: the forward and backward `F ⊕.⊗ Aᵣ`
/// results, in the pattern's relation-type order.
type HopProducts = Vec<(Option<SparseMatrix<u64>>, Option<SparseMatrix<u64>>)>;

/// One-hop batched traversal: `C = F ⊕.⊗ Aᵣ` per relation matrix under the
/// edge-id-carrying `any_second` semiring.
#[allow(clippy::too_many_arguments)]
fn batched_single_hop(
    records: &[Record],
    bindings: &Bindings,
    graph: &Graph,
    spec: &TraverseSpec<'_>,
    rel_ids: Option<&[usize]>,
    dir: TraverseDir,
    batch: &BatchFrontier<'_>,
) -> Vec<Record> {
    let forward = matches!(dir, TraverseDir::Outgoing | TraverseDir::Both);
    let backward = matches!(dir, TraverseDir::Incoming | TraverseDir::Both);
    let rels: Vec<usize> = match rel_ids {
        Some(ids) => ids.to_vec(),
        None => (0..graph.relation_type_count()).collect(),
    };

    let frontier = frontier_matrix::<u64>(batch.nrows(), batch.dim, batch.entries, 1);
    let semiring = Semiring::<u64>::any_second();
    // Expand-into is a semi-join: mask the product with the bound
    // destinations so only the (source row, target) entries are even
    // computed. Records sharing a source row contribute their targets to the
    // same mask row; emission below probes each record's own target.
    let target_mask = if spec.expand_into {
        let targets: Vec<(u64, u64)> = records
            .iter()
            .zip(batch.record_rows)
            .filter_map(|(r, row)| match (row, r.get(spec.dst_slot)) {
                (Some(row), Some(Value::Node(t))) if *t < batch.dim => Some((*row, *t)),
                _ => None,
            })
            .collect();
        Some(frontier_matrix::<bool>(batch.nrows(), batch.dim, &targets, true))
    } else {
        None
    };
    let desc = if target_mask.is_some() {
        Descriptor::new().with_mask_structure().with_nthreads(spec.nthreads)
    } else {
        Descriptor::new().with_nthreads(spec.nthreads)
    };
    let mask = target_mask.as_ref().map(MatrixMask::new);

    // One product per relation matrix (and per direction), kept separate so
    // row probing can interleave them in the scalar path's emission order.
    let mut products: HopProducts = Vec::with_capacity(rels.len());
    for &rel in &rels {
        let fwd = if forward {
            graph
                .relation_matrix(rel)
                .map(|m| mxm(&frontier, m.as_ref(), &semiring, mask.as_ref(), &desc))
        } else {
            None
        };
        let bwd = if backward {
            graph
                .relation_matrix_t(rel)
                .map(|m| mxm(&frontier, m.as_ref(), &semiring, mask.as_ref(), &desc))
        } else {
            None
        };
        products.push((fwd, bwd));
    }

    // Probe: record-major, then per relation forward-then-backward, columns
    // ascending — exactly the scalar `neighbors()` emission order. A product
    // cell whose `(src, dst)` pair holds parallel same-type edges expands to
    // one row per edge (ascending ids), matching `Graph::neighbors`.
    let mut out = Vec::new();
    for (record, row) in records.iter().zip(batch.record_rows) {
        let Some(row) = *row else { continue };
        let Some(&Value::Node(src)) = record.get(spec.src_slot) else { continue };
        let emit = |dst: NodeId, edge: EdgeId, rel: usize, fwd: bool, out: &mut Vec<Record>| {
            // Transposed products traverse the edge backwards: the stored
            // entity runs dst → src.
            let (s, d) = if fwd { (src, dst) } else { (dst, src) };
            let edges: &[EdgeId] = match graph.parallel_edges(rel, s, d) {
                Some(list) => list,
                None => std::slice::from_ref(&edge),
            };
            for &e in edges {
                let mut r = record.clone();
                ensure_len(&mut r, bindings);
                if !spec.expand_into {
                    r[spec.dst_slot] = Value::Node(dst);
                }
                if let Some(es) = spec.edge_slot {
                    r[es] = Value::Edge(e);
                }
                out.push(r);
            }
        };
        if spec.expand_into {
            // Semi-join: only the record's own bound target counts.
            let Some(&Value::Node(t)) = record.get(spec.dst_slot) else { continue };
            if t >= batch.dim {
                continue;
            }
            for (&rel, (fwd, bwd)) in rels.iter().zip(&products) {
                for (product, is_fwd) in [(fwd, true), (bwd, false)] {
                    if let Some(product) = product {
                        if let Some(edge) = product.extract_element(row, t) {
                            emit(t, edge, rel, is_fwd, &mut out);
                        }
                    }
                }
            }
        } else {
            for (&rel, (fwd, bwd)) in rels.iter().zip(&products) {
                for (product, is_fwd) in [(fwd, true), (bwd, false)] {
                    if let Some(product) = product {
                        let (cols, vals) = probe_row(product, row);
                        for (&dst, &edge) in cols.iter().zip(vals.iter()) {
                            emit(dst, edge, rel, is_fwd, &mut out);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Variable-length batched traversal: a level-synchronous BFS of masked
/// `mxm`s over the whole batch — the matrix generalisation of
/// [`Graph::khop_reach`], one row per distinct source.
#[allow(clippy::too_many_arguments)]
fn batched_var_length(
    records: &[Record],
    bindings: &Bindings,
    graph: &Graph,
    spec: &TraverseSpec<'_>,
    rel_ids: Option<&[usize]>,
    dir: TraverseDir,
    batch: &BatchFrontier<'_>,
    max: u32,
) -> Vec<Record> {
    let forward = matches!(dir, TraverseDir::Outgoing | TraverseDir::Both);
    let backward = matches!(dir, TraverseDir::Incoming | TraverseDir::Both);

    // Traversal matrices in the requested direction. The boolean semiring
    // distributes over ∨, so each hop multiplies the frontier against every
    // matrix separately and ORs the frontier-sized products — never
    // materialising an O(nnz) union matrix (the `Cow`s below only merge
    // when the graph has pending deltas).
    let adjacency: Vec<Cow<'_, SparseMatrix<bool>>> = match rel_ids {
        None => {
            let mut mats = Vec::new();
            if forward {
                mats.push(graph.adjacency_matrix());
            }
            if backward {
                mats.push(graph.adjacency_matrix_t());
            }
            mats
        }
        Some(_) => Vec::new(),
    };
    let relations: Vec<Cow<'_, SparseMatrix<u64>>> = match rel_ids {
        None => Vec::new(),
        Some(ids) => {
            let mut mats = Vec::new();
            for &rel in ids {
                if forward {
                    mats.extend(graph.relation_matrix(rel));
                }
                if backward {
                    mats.extend(graph.relation_matrix_t(rel));
                }
            }
            mats
        }
    };

    let bool_semiring = Semiring::lor_land();
    let pair_semiring = Semiring::<u64>::any_pair();
    let desc =
        Descriptor::new().with_mask_complement().with_mask_structure().with_nthreads(spec.nthreads);
    let mut frontier = frontier_matrix::<bool>(batch.nrows(), batch.dim, batch.entries, true);
    let mut visited = frontier.clone();
    // Hop 0 is each source node itself.
    let mut reached = if spec.min_hops == 0 {
        frontier.clone()
    } else {
        SparseMatrix::<bool>::new(batch.nrows(), batch.dim)
    };

    for hop in 1..=max {
        if frontier.nvals() == 0 {
            break;
        }
        let next = {
            let mask = MatrixMask::new(&visited);
            let mut acc: Option<SparseMatrix<bool>> = None;
            let mut fold = |p: SparseMatrix<bool>| {
                acc = Some(match acc.take() {
                    None => p,
                    Some(prev) => ewise_add_matrix(&prev, &p, &BinaryOp::LOr),
                });
            };
            for m in &adjacency {
                fold(mxm(&frontier, m.as_ref(), &bool_semiring, Some(&mask), &desc));
            }
            if !relations.is_empty() {
                // Relation matrices hold edge ids; retype the (small)
                // frontier to u64 and take the structure of each product
                // rather than copying whole relation matrices to bool.
                let triples: Vec<(u64, u64, u64)> =
                    frontier.iter().map(|(r, c, _)| (r, c, 1)).collect();
                let frontier_u64 = SparseMatrix::from_triples(batch.nrows(), batch.dim, &triples)
                    .expect("frontier coordinates are in bounds");
                for m in &relations {
                    let p = mxm(&frontier_u64, m.as_ref(), &pair_semiring, Some(&mask), &desc);
                    fold(structure(&p));
                }
            }
            match acc {
                Some(next) => next,
                None => break, // no matrices selected: nothing to traverse
            }
        };
        visited = ewise_add_matrix(&visited, &next, &BinaryOp::LOr);
        if hop >= spec.min_hops {
            reached = ewise_add_matrix(&reached, &next, &BinaryOp::LOr);
        }
        frontier = next;
    }

    let mut out = Vec::new();
    for (record, row) in records.iter().zip(batch.record_rows) {
        let Some(row) = *row else { continue };
        if spec.expand_into {
            if let Some(Value::Node(t)) = record.get(spec.dst_slot) {
                if *t < batch.dim && reached.extract_element(row, *t).is_some() {
                    out.push(record.clone());
                }
            }
        } else {
            let (cols, _) = probe_row(&reached, row);
            for &dst in cols {
                let mut r = record.clone();
                ensure_len(&mut r, bindings);
                r[spec.dst_slot] = Value::Node(dst);
                out.push(r);
            }
        }
    }
    out
}

/// Set-based BFS restricted to a list of relationship types (used when a
/// variable-length pattern names specific types on the scalar path; the
/// untyped case uses the algebraic `khop_reach`).
fn typed_bfs(
    graph: &Graph,
    src: NodeId,
    min_hops: u32,
    max_hops: u32,
    rel_ids: &[usize],
    dir: TraverseDir,
) -> Vec<NodeId> {
    let mut visited: HashSet<NodeId> = HashSet::new();
    visited.insert(src);
    let mut frontier: Vec<NodeId> = vec![src];
    let mut reached: HashSet<NodeId> = HashSet::new();
    // Hop 0 is the source itself (`*0..n` patterns).
    if min_hops == 0 {
        reached.insert(src);
    }
    for hop in 1..=max_hops {
        if frontier.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for &n in &frontier {
            for (nbr, _) in graph.neighbors(n, Some(rel_ids), dir) {
                if visited.insert(nbr) {
                    next.push(nbr);
                    if hop >= min_hops {
                        reached.insert(nbr);
                    }
                }
            }
        }
        frontier = next;
    }
    let mut out: Vec<NodeId> = reached.into_iter().collect();
    out.sort_unstable();
    out
}

/// An output row paired with its evaluated `ORDER BY` keys.
type SortableRow = (Vec<Value>, Vec<(Value, SortOrder)>);

/// Evaluate the sort keys of `ORDER BY` for one output row.
fn sort_keys(
    order_by: &[(Expr, SortOrder)],
    projection: &Projection,
    row: &[Value],
    record: &Record,
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<(Value, SortOrder)> {
    order_by
        .iter()
        .map(|(expr, order)| {
            // Prefer matching an output column (by alias or identical expression)
            // so aggregated columns can be sorted on.
            let col = projection.items.iter().position(|item| {
                &item.expr == expr
                    || matches!((expr, &item.alias), (Expr::Variable(v), Some(alias)) if v == alias)
            });
            let value = match col {
                Some(i) => row.get(i).cloned().unwrap_or(Value::Null),
                None => eval(expr, record, bindings, graph),
            };
            (value, *order)
        })
        .collect()
}

fn apply_order_skip_limit(projection: &Projection, mut rows: Vec<SortableRow>) -> Vec<Vec<Value>> {
    if !projection.order_by.is_empty() {
        rows.sort_by(|a, b| {
            for ((va, order), (vb, _)) in a.1.iter().zip(b.1.iter()) {
                let cmp = va.sort_cmp(vb);
                let cmp = match order {
                    SortOrder::Ascending => cmp,
                    SortOrder::Descending => cmp.reverse(),
                };
                if cmp != std::cmp::Ordering::Equal {
                    return cmp;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    let mut out: Vec<Vec<Value>> = rows.into_iter().map(|(row, _)| row).collect();
    if projection.distinct {
        // A row holding NaN has no key and is distinct from every other.
        let mut seen = HashSet::new();
        out.retain(|row| ValueKey::row(row).is_none_or(|key| seen.insert(key)));
    }
    let skip = projection.skip.unwrap_or(0) as usize;
    if skip > 0 {
        out.drain(..skip.min(out.len()));
    }
    if let Some(limit) = projection.limit {
        out.truncate(limit as usize);
    }
    out
}

/// Execute a plain projection (no aggregates): evaluate every item per record.
pub fn run_project(
    projection: &Projection,
    records: &[Record],
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<Vec<Value>> {
    let rows: Vec<SortableRow> = records
        .iter()
        .map(|record| {
            let row: Vec<Value> = projection
                .items
                .iter()
                .map(|item| eval(&item.expr, record, bindings, graph))
                .collect();
            let keys = sort_keys(&projection.order_by, projection, &row, record, bindings, graph);
            (row, keys)
        })
        .collect();
    apply_order_skip_limit(projection, rows)
}

/// Execute an aggregating projection: group records by the non-aggregate items
/// (under the [`ValueKey`] equivalence, so `1` and `1.0` share a group) and
/// fold the aggregate items with [`Accumulator`]s. `weight_slot` carries
/// the path-count weight of compact records emitted by a fused traversal
/// (`Null` or absent = weight 1, i.e. an ordinary record).
pub fn run_aggregate(
    projection: &Projection,
    weight_slot: Option<usize>,
    records: &[Record],
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<Vec<Value>> {
    // Split items into group keys and aggregates, remembering their positions.
    let mut group_positions = Vec::new();
    let mut agg_positions = Vec::new();
    for (i, item) in projection.items.iter().enumerate() {
        if contains_aggregate(&item.expr) {
            agg_positions.push(i);
        } else {
            group_positions.push(i);
        }
    }

    let new_accumulators = || -> Vec<Accumulator> {
        agg_positions
            .iter()
            .map(|&i| match &projection.items[i].expr {
                Expr::FunctionCall { name, distinct, .. } => {
                    Accumulator::new(AggFunc::from_name(name).unwrap_or(AggFunc::Count), *distinct)
                }
                _ => Accumulator::new(AggFunc::Count, false),
            })
            .collect()
    };
    // Groups in first-seen order, found through their keys' index.
    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
    let mut index: HashMap<Vec<ValueKey>, usize> = HashMap::new();

    for record in records {
        let key_values: Vec<Value> = group_positions
            .iter()
            .map(|&i| eval(&projection.items[i].expr, record, bindings, graph))
            .collect();
        let mut open_group = |key_values| {
            groups.push((key_values, new_accumulators()));
            groups.len() - 1
        };
        // A key holding NaN is equivalent to no other: it opens its own group.
        let g = match ValueKey::row(&key_values) {
            Some(key) => *index.entry(key).or_insert_with(|| open_group(key_values)),
            None => open_group(key_values),
        };
        let weight = weight_slot
            .and_then(|ws| record.get(ws))
            .and_then(Value::as_i64)
            .map_or(1, |w| w.max(0) as u64);
        for (acc, &item_pos) in groups[g].1.iter_mut().zip(agg_positions.iter()) {
            if let Expr::FunctionCall { args, .. } = &projection.items[item_pos].expr {
                let value = match args.first() {
                    Some(arg) => eval(arg, record, bindings, graph),
                    None => Value::Bool(true), // count(*): every record counts
                };
                acc.update_weighted(value, weight);
            }
        }
    }

    // Aggregations with no input records still produce one row (e.g. count = 0)
    // when there are no group keys.
    if groups.is_empty() && group_positions.is_empty() {
        groups.push((Vec::new(), new_accumulators()));
    }

    let rows: Vec<SortableRow> = groups
        .into_iter()
        .map(|(key_values, accs)| {
            let mut row = vec![Value::Null; projection.items.len()];
            for (value, &pos) in key_values.into_iter().zip(group_positions.iter()) {
                row[pos] = value;
            }
            for (acc, &pos) in accs.into_iter().zip(agg_positions.iter()) {
                row[pos] = acc.finish();
            }
            let keys =
                sort_keys(&projection.order_by, projection, &row, &Vec::new(), bindings, graph);
            (row, keys)
        })
        .collect();
    apply_order_skip_limit(projection, rows)
}

/// Execute a `CREATE` op for every incoming record.
pub fn run_create(
    patterns: &[PathPattern],
    records: &mut Vec<Record>,
    bindings: &Bindings,
    graph: &mut Graph,
    stats: &mut QueryStats,
) {
    if records.is_empty() {
        records.push(vec![Value::Null; bindings.len()]);
    }
    for record in records.iter_mut() {
        ensure_len(record, bindings);
        for pattern in patterns {
            // Create / resolve the start node, then walk the steps.
            let mut prev = resolve_or_create_node(&pattern.start, record, bindings, graph, stats);
            for (rel, node) in &pattern.steps {
                let current = resolve_or_create_node(node, record, bindings, graph, stats);
                let rel_type = rel.types.first().map(|s| s.as_str()).unwrap_or("RELATED_TO");
                let props: Vec<(&str, Value)> =
                    rel.properties.iter().map(|(k, lit)| (k.as_str(), Value::from(lit))).collect();
                stats.properties_set += props.len();
                let (src, dst) = match rel.direction {
                    Direction::Incoming => (current, prev),
                    _ => (prev, current),
                };
                let edge = graph.add_edge(src, dst, rel_type, props).expect("endpoints exist");
                stats.relationships_created += 1;
                if let Some(var) = &rel.variable {
                    if let Some(slot) = bindings.slot(var) {
                        record[slot] = Value::Edge(edge);
                    }
                }
                prev = current;
            }
        }
    }
}

fn resolve_or_create_node(
    pattern: &cypher::NodePattern,
    record: &mut Record,
    bindings: &Bindings,
    graph: &mut Graph,
    stats: &mut QueryStats,
) -> NodeId {
    if let Some(var) = &pattern.variable {
        if let Some(slot) = bindings.slot(var) {
            if let Some(Value::Node(id)) = record.get(slot) {
                return *id;
            }
        }
    }
    let labels: Vec<&str> = pattern.labels.iter().map(|s| s.as_str()).collect();
    let props: Vec<(&str, Value)> =
        pattern.properties.iter().map(|(k, lit)| (k.as_str(), Value::from(lit))).collect();
    stats.properties_set += props.len();
    stats.labels_added += labels.len();
    let id = graph.add_node(&labels, props);
    stats.nodes_created += 1;
    if let Some(var) = &pattern.variable {
        if let Some(slot) = bindings.slot(var) {
            record[slot] = Value::Node(id);
        }
    }
    id
}

/// Execute a `DELETE` op.
pub fn run_delete(
    vars: &[String],
    records: &[Record],
    bindings: &Bindings,
    graph: &mut Graph,
    stats: &mut QueryStats,
) {
    let mut nodes: HashSet<NodeId> = HashSet::new();
    let mut edges: HashSet<EdgeId> = HashSet::new();
    for record in records {
        for var in vars {
            if let Some(slot) = bindings.slot(var) {
                match record.get(slot) {
                    Some(Value::Node(id)) => {
                        nodes.insert(*id);
                    }
                    Some(Value::Edge(id)) => {
                        edges.insert(*id);
                    }
                    _ => {}
                }
            }
        }
    }
    for e in edges {
        if graph.delete_edge(e) {
            stats.relationships_deleted += 1;
        }
    }
    for n in nodes {
        let before = graph.edge_count();
        if graph.delete_node(n) {
            stats.nodes_deleted += 1;
            stats.relationships_deleted += before - graph.edge_count();
        }
    }
}

/// Execute a `SET` op.
pub fn run_set(
    items: &[SetItem],
    records: &[Record],
    bindings: &Bindings,
    graph: &mut Graph,
    stats: &mut QueryStats,
) {
    for record in records {
        for item in items {
            let Some(slot) = bindings.slot(&item.variable) else { continue };
            let value = eval(&item.value, record, bindings, graph);
            let updated = match record.get(slot) {
                Some(Value::Node(id)) => graph.set_node_property(*id, &item.property, value),
                Some(Value::Edge(id)) => graph.set_edge_property(*id, &item.property, value),
                _ => false,
            };
            if updated {
                stats.properties_set += 1;
            }
        }
    }
}

/// True if evaluating the expression can depend on the current record
/// (i.e. it reads a bound variable or property somewhere).
fn reads_record(expr: &Expr) -> bool {
    match expr {
        Expr::Variable(_) | Expr::Property(_, _) => true,
        Expr::Literal(_) | Expr::Parameter(_) => false,
        Expr::Unary(_, inner) => reads_record(inner),
        Expr::Binary(_, lhs, rhs) => reads_record(lhs) || reads_record(rhs),
        Expr::List(items) => items.iter().any(reads_record),
        Expr::FunctionCall { args, .. } => args.iter().any(reads_record),
    }
}

/// Execute a `CALL` op: run the registered procedure once per incoming record
/// (arguments are evaluated against that record) and emit one output record
/// per produced row, with the yielded columns written into their slots.
/// When every argument is record-independent (the common `CALL algo.x(…)`
/// with literal arguments) the algorithm runs once and its rows are reused
/// for every incoming record.
pub fn run_procedure(
    name: &str,
    args: &[Expr],
    outputs: &[(usize, usize)],
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
) -> Result<Vec<Record>, crate::error::QueryError> {
    let proc = crate::exec::procedures::find(name).ok_or_else(|| {
        crate::error::QueryError::Internal(format!("procedure `{name}` vanished after planning"))
    })?;
    let constant_args = !args.iter().any(reads_record);
    let mut cached_rows: Option<Vec<Vec<Value>>> = None;
    let mut out = Vec::new();
    for record in &records {
        if cached_rows.is_none() {
            let argv: Vec<Value> = args.iter().map(|a| eval(a, record, bindings, graph)).collect();
            cached_rows = Some((proc.run)(graph, &argv)?);
        }
        let rows = cached_rows.as_ref().expect("computed above");
        for row in rows {
            let mut r = record.clone();
            ensure_len(&mut r, bindings);
            for &(col, slot) in outputs {
                r[slot] = row[col].clone();
            }
            out.push(r);
        }
        if !constant_args {
            cached_rows = None;
        }
    }
    Ok(out)
}

/// Execute an `UNWIND` op.
pub fn run_unwind(
    list: &Expr,
    slot: usize,
    records: Vec<Record>,
    bindings: &Bindings,
    graph: &Graph,
) -> Vec<Record> {
    let mut out = Vec::new();
    for record in records {
        let value = eval(list, &record, bindings, graph);
        let items = match value {
            Value::List(items) => items,
            Value::Null => continue,
            single => vec![single],
        };
        for item in items {
            let mut r = record.clone();
            ensure_len(&mut r, bindings);
            r[slot] = item;
            out.push(r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_reexport_compiles() {
        // A smoke test that the cypher AST types used above stay in sync.
        let lit = cypher::Literal::Integer(1);
        assert_eq!(Value::from(&lit), Value::Int(1));
    }

    #[test]
    fn op_descriptions_for_explain() {
        let scan = PlanOp::AllNodeScan { slot: 0, var: "n".into() };
        assert!(scan.describe().contains("All Node Scan"));
        let traverse = PlanOp::Traverse {
            src_slot: 0,
            dst_slot: 1,
            dst_var: "m".into(),
            edge_slot: None,
            rel_types: vec!["KNOWS".into()],
            direction: Direction::Outgoing,
            min_hops: 1,
            max_hops: Some(3),
            expand_into: false,
        };
        let text = traverse.describe();
        assert!(text.contains("Conditional Traverse"));
        assert!(text.contains("KNOWS"));
        assert!(text.contains("*1..3"));
    }
}
