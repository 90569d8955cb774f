//! The algebraic expression optimizer.
//!
//! The paper's thesis is that a Cypher pattern *is* a product of sparse
//! matrices. The naive planner nevertheless emits one `Traverse` op per hop
//! and materialises a full record batch between hops — on a 3-hop chain with
//! millions of result rows, nearly all the wall time goes into cloning
//! intermediate records that the query never returns. This module closes
//! that gap: [`fuse_plan`] rewrites eligible runs of single-hop `Traverse`
//! ops (plus adjacent `LabelFilter`s) into one [`PlanOp::FusedTraverse`]
//! holding an [`AlgebraicExpression`], and [`run_fused`] evaluates the whole
//! chain as one matrix product `F·A_R·A_S` under the **counting semiring**
//! (⊕ = +, ⊗ = ×) so every output cell holds the exact number of distinct
//! paths — parallel edges included, via [`Graph::relation_count_matrix`].
//!
//! Three optimisations compose here:
//!
//! * **Chain fusion** — a fixed-length chain `(a)-[:R]->(b)-[:S]->(c)` whose
//!   intermediates are unbound (not referenced by any later op) becomes the
//!   single product `F·A_R·A_S`; no intermediate records exist at all.
//! * **Mask pushdown** — a label predicate adjacent to a fused hop becomes a
//!   structural column mask on the hop's operand (`(a)-[:R]->(b:B)` filters
//!   the columns of `A_R` by the `B` diagonal before multiplying) instead of
//!   a post-hoc record filter.
//! * **Cost-based ordering** — the product is parenthesised by a classic
//!   matrix-chain DP over nnz estimates taken from the operand CSRs at
//!   execution time (density model: `nnz(AB) ≈ nnz(A)·nnz(B)/inner`), so a
//!   tiny frontier is applied first but two mid-chain hops whose product is
//!   predicted smaller than either operand multiply each other first.
//!
//! When the op directly downstream of a fused chain is an `Aggregate` whose
//! aggregates are all *weightable* (`count`/`sum`/`avg`/`min`/`max`, no
//! `DISTINCT`, no `collect`), the fused op emits **one** compact record per
//! `(record, dst)` cell carrying the path count in a hidden weight slot and
//! the aggregation folds the weight (`count += k`, `sum += v·k`) — the
//! product's counts never get expanded into rows at all, which is where the
//! order-of-magnitude win on aggregate-only chains comes from. Any other
//! consumer gets full expansion: `k` identical records per cell, exactly the
//! multiset the unfused plan produces.
//!
//! The hand-off also fires after a `Node By Id Seek`: the planner drops the
//! `id(s) = …` conjunct the seek enforces from the `WHERE` filter, so a point
//! query such as `MATCH (s)-[:R]->()-[:R]->(t) WHERE id(s) = $k RETURN
//! count(t)` plans no `Filter` between the fused chain and its `Aggregate`.

use crate::exec::expr::contains_aggregate;
use crate::exec::ops::PlanOp;
use crate::exec::plan::Segment;
use crate::exec::record::{Bindings, Record};
use crate::store::graph::Graph;
use crate::value::Value;
use cypher::{Direction, Expr, Projection};
use graphblas::prelude::*;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// One multiplicative operand of an [`AlgebraicExpression`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraicOperand {
    /// A relation-matrix hop `A_R` (or `Aᵀ_R` against the incrementally
    /// maintained transpose for incoming hops). An empty type list is the
    /// untyped hop: the ⊕ of every relation matrix.
    Rel {
        /// Relationship type names (empty = any type).
        rel_types: Vec<String>,
        /// Traverse against the transpose (incoming pattern direction).
        transposed: bool,
        /// Label mask pushed down onto this operand's columns
        /// (`(…)-[:R]->(b:B)` stores `B` here, not a `LabelFilter` op).
        dst_labels: Vec<String>,
    },
}

/// A fused fixed-length chain as one algebraic product, e.g. `(a:F)·A_R·A_S`.
///
/// The frontier `F` (one row per distinct bound source) is always the
/// leftmost operand; the rendering carries the source variable (and its
/// scanned label, when the access path pinned one) so `GRAPH.EXPLAIN` reads
/// like the paper's notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgebraicExpression {
    /// Source variable name (the frontier operand).
    pub src_var: String,
    /// Label of the source access path, when it was a label scan.
    pub src_label: Option<String>,
    /// The hop operands, left to right.
    pub operands: Vec<AlgebraicOperand>,
}

impl fmt::Display for AlgebraicExpression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.src_label {
            Some(label) => write!(f, "({}:{})", self.src_var, label)?,
            None => write!(f, "({})", self.src_var)?,
        }
        for op in &self.operands {
            let AlgebraicOperand::Rel { rel_types, transposed, dst_labels } = op;
            let types = if rel_types.is_empty() { "*".to_string() } else { rel_types.join("|") };
            let t = if *transposed { "ᵀ" } else { "" };
            write!(f, "·A{t}_{types}")?;
            for label in dst_labels {
                write!(f, "·L_{label}")?;
            }
        }
        Ok(())
    }
}

// --------------------------------------------------------------- execution

/// Evaluate a fused chain: build the frontier, materialise the counting
/// operands (label masks pushed into their columns), multiply in the
/// DP-chosen parenthesisation under ⊕=+/⊗=×, and emit records.
#[allow(clippy::too_many_arguments)]
pub fn run_fused(
    records: &[Record],
    bindings: &Bindings,
    graph: &Graph,
    src_slot: usize,
    dst_slot: usize,
    expr: &AlgebraicExpression,
    weight_slot: Option<usize>,
    nthreads: usize,
) -> Vec<Record> {
    let Some(operands) = materialise_operands(graph, expr) else {
        return Vec::new(); // an unknown type or label matches nothing
    };

    // One frontier row per distinct source node (records fanning out of the
    // same hub share one product row).
    let mut src_row: HashMap<u64, u64> = HashMap::new();
    let mut entries: Vec<(u64, u64)> = Vec::new();
    let mut record_rows: Vec<Option<u64>> = Vec::with_capacity(records.len());
    for r in records {
        match r.get(src_slot) {
            Some(Value::Node(s)) => {
                let row = *src_row.entry(*s).or_insert_with(|| {
                    let row = entries.len() as u64;
                    entries.push((row, *s));
                    row
                });
                record_rows.push(Some(row));
            }
            _ => record_rows.push(None),
        }
    }
    if entries.is_empty() {
        return Vec::new();
    }
    let frontier = Arc::new(frontier_matrix::<u64>(entries.len() as u64, graph.dim(), &entries, 1));

    let mut chain = Vec::with_capacity(operands.len() + 1);
    chain.push(frontier);
    chain.extend(operands);
    let product = chain_product(chain, nthreads);

    // Emission: record-major, destinations ascending. With a weight slot the
    // count stays algebraic — one compact record per cell; otherwise each
    // cell expands to `count` identical records (the unfused multiset).
    let mut out = Vec::new();
    for (record, row) in records.iter().zip(&record_rows) {
        let Some(row) = *row else { continue };
        let (cols, counts) = probe_row(&product, row);
        for (&dst, &count) in cols.iter().zip(counts.iter()) {
            let copies = if weight_slot.is_some() { 1 } else { count };
            for _ in 0..copies {
                let mut r = record.clone();
                if r.len() < bindings.len() {
                    r.resize(bindings.len(), Value::Null);
                }
                r[dst_slot] = Value::Node(dst);
                if let Some(ws) = weight_slot {
                    r[ws] = Value::Int(count as i64);
                }
                out.push(r);
            }
        }
    }
    out
}

/// Build the counting matrices for every hop operand. `None` when a named
/// relationship type or label does not exist (nothing can match). The plain
/// single-type, unmasked operand — the common case — comes straight out of
/// the graph's epoch-scoped memo (`Arc`-shared, no per-query rebuild); only
/// multi-type sums and label-masked operands construct a fresh matrix.
fn materialise_operands(
    graph: &Graph,
    expr: &AlgebraicExpression,
) -> Option<Vec<Arc<SparseMatrix<u64>>>> {
    let mut out = Vec::with_capacity(expr.operands.len());
    for op in &expr.operands {
        let AlgebraicOperand::Rel { rel_types, transposed, dst_labels } = op;
        let rels: Vec<usize> = if rel_types.is_empty() {
            (0..graph.relation_type_count()).collect()
        } else {
            let ids: Vec<usize> =
                rel_types.iter().filter_map(|t| graph.schema.rel_type_id(t)).collect();
            if ids.len() != rel_types.len() {
                return None;
            }
            ids
        };
        // ⊕ the per-type counting matrices (multi-type / untyped hops).
        let mut acc: Option<Arc<SparseMatrix<u64>>> = None;
        for rel in rels {
            if let Some(m) = graph.relation_count_matrix_cached(rel, *transposed) {
                acc = Some(match acc.take() {
                    None => m,
                    Some(prev) => Arc::new(ewise_add_matrix(&prev, &m, &BinaryOp::Plus)),
                });
            }
        }
        let mut m = acc.unwrap_or_else(|| Arc::new(SparseMatrix::new(graph.dim(), graph.dim())));
        // Mask pushdown: restrict the operand's columns to the labelled
        // destinations before any multiplication sees them.
        for label in dst_labels {
            graph.schema.label_id(label)?;
            let keep: HashSet<u64> = graph.nodes_with_label(label).into_iter().collect();
            let triples: Vec<(u64, u64, u64)> =
                m.iter().filter(|(_, c, _)| keep.contains(c)).collect();
            m = Arc::new(
                SparseMatrix::from_triples(m.nrows(), m.ncols(), &triples)
                    .expect("filtered triples stay in range"),
            );
        }
        out.push(m);
    }
    Some(out)
}

/// Multiply a chain of counting matrices in the cheapest parenthesisation.
///
/// Classic matrix-chain DP, costing each candidate product by the density
/// estimate `flops(AB) ≈ nnz(A)·nnz(B)/inner` and carrying
/// `nnz(AB) ≈ min(rows·cols, flops)` upward — the nnz figures come straight
/// from the operand CSRs, so the ordering adapts to the actual graph (a
/// selective label mask mid-chain pulls its neighbours together first).
fn chain_product(mats: Vec<Arc<SparseMatrix<u64>>>, nthreads: usize) -> SparseMatrix<u64> {
    let n = mats.len();
    let mut mats: Vec<Option<Arc<SparseMatrix<u64>>>> = mats.into_iter().map(Some).collect();
    if n == 1 {
        let only = mats[0].take().expect("single operand");
        return Arc::try_unwrap(only).unwrap_or_else(|shared| (*shared).clone());
    }
    let rows: Vec<f64> = mats.iter().map(|m| m.as_ref().unwrap().nrows() as f64).collect();
    let cols: Vec<f64> = mats.iter().map(|m| m.as_ref().unwrap().ncols() as f64).collect();

    // est[i][j]: estimated nnz of the product of operands i..=j (independent
    // of parenthesisation under the density model).
    let mut est = vec![vec![0f64; n]; n];
    for i in 0..n {
        est[i][i] = mats[i].as_ref().unwrap().nvals() as f64;
        for j in i + 1..n {
            let grow = est[j][j] / rows[j].max(1.0); // avg out-degree of operand j
            est[i][j] = (est[i][j - 1] * grow).min(rows[i] * cols[j]);
        }
    }
    let mut cost = vec![vec![0f64; n]; n];
    let mut split = vec![vec![0usize; n]; n];
    for len in 2..=n {
        for i in 0..=n - len {
            let j = i + len - 1;
            cost[i][j] = f64::INFINITY;
            for s in i..j {
                let flops = est[i][s] * est[s + 1][j] / cols[s].max(1.0);
                let c = cost[i][s] + cost[s + 1][j] + flops;
                if c < cost[i][j] {
                    cost[i][j] = c;
                    split[i][j] = s;
                }
            }
        }
    }

    let semiring = Semiring::<u64>::plus_times();
    let desc = Descriptor::new().with_nthreads(nthreads);
    fn eval(
        i: usize,
        j: usize,
        mats: &mut [Option<Arc<SparseMatrix<u64>>>],
        split: &[Vec<usize>],
        semiring: &Semiring<u64>,
        desc: &Descriptor,
    ) -> Arc<SparseMatrix<u64>> {
        if i == j {
            return mats[i].take().expect("each leaf is consumed once");
        }
        let s = split[i][j];
        let left = eval(i, s, mats, split, semiring, desc);
        let right = eval(s + 1, j, mats, split, semiring, desc);
        Arc::new(mxm(&left, &right, semiring, None, desc))
    }
    let product = eval(0, n - 1, &mut mats, &split, &semiring, &desc);
    // The root product was just built here, so this unwrap never copies.
    Arc::try_unwrap(product).unwrap_or_else(|shared| (*shared).clone())
}

// ---------------------------------------------------------------- fusion

/// Rewrite every segment of a freshly built plan: eligible traverse chains
/// become [`PlanOp::FusedTraverse`] ops (see the module docs for the rules).
pub(crate) fn fuse_plan(segments: &mut [Segment]) {
    for seg in segments {
        fuse_segment(seg);
    }
}

/// A traverse op's fields, when it is fusable on its own terms: exactly one
/// hop, a fresh (not expand-into) destination, no bound edge, and a fixed
/// direction (`Both` would double-count self-loops in a summed operand).
struct Hop<'a> {
    src_slot: usize,
    dst_slot: usize,
    dst_var: &'a str,
    rel_types: &'a [String],
    transposed: bool,
}

fn fusable_hop(op: &PlanOp) -> Option<Hop<'_>> {
    match op {
        PlanOp::Traverse {
            src_slot,
            dst_slot,
            dst_var,
            edge_slot: None,
            rel_types,
            direction,
            min_hops: 1,
            max_hops: Some(1),
            expand_into: false,
        } => {
            let transposed = match direction {
                Direction::Outgoing => false,
                Direction::Incoming => true,
                Direction::Both => return None,
            };
            Some(Hop { src_slot: *src_slot, dst_slot: *dst_slot, dst_var, rel_types, transposed })
        }
        _ => None,
    }
}

fn fuse_segment(seg: &mut Segment) {
    let mut i = 0;
    while i < seg.ops.len() {
        match try_fuse_at(seg, i) {
            Some(next) => i = next,
            None => i += 1,
        }
    }
}

/// One chain element: the traverse op's index plus the indices of the
/// `LabelFilter` ops immediately following it that constrain its destination.
struct ChainElem {
    traverse: usize,
    labels: Vec<usize>,
    /// Index of the first op after this element (traverse + labels).
    end: usize,
}

/// Attempt to fuse a chain starting at op `i`. Returns the index to resume
/// scanning from when a rewrite happened.
fn try_fuse_at(seg: &mut Segment, i: usize) -> Option<usize> {
    let ops = &seg.ops;
    fusable_hop(&ops[i])?;

    // Collect the maximal structural chain: traverse, its dst label filters,
    // then a traverse continuing from that dst, and so on.
    let mut chain: Vec<ChainElem> = Vec::new();
    let mut j = i;
    loop {
        let hop = fusable_hop(&ops[j]).expect("checked before entering");
        let mut k = j + 1;
        let mut labels = Vec::new();
        while k < ops.len() {
            match &ops[k] {
                PlanOp::LabelFilter { slot, .. } if *slot == hop.dst_slot => {
                    labels.push(k);
                    k += 1;
                }
                _ => break,
            }
        }
        let dst_slot = hop.dst_slot;
        chain.push(ChainElem { traverse: j, labels, end: k });
        match ops.get(k).and_then(fusable_hop) {
            Some(next) if next.src_slot == dst_slot => j = k,
            _ => break,
        }
    }
    let chain_end = chain.last().expect("non-empty").end;

    // The run extends while each intermediate destination is dead weight:
    // not referenced by any op outside the chain. The first live destination
    // ends the run (it becomes the fused op's output).
    let mut last = chain.len() - 1;
    for (m, elem) in chain.iter().enumerate() {
        if m == chain.len() - 1 {
            break;
        }
        let hop = fusable_hop(&seg.ops[elem.traverse]).expect("chain element");
        let used = seg.ops[chain_end..].iter().any(|op| op_uses(op, hop.dst_var, hop.dst_slot));
        if used {
            last = m;
            break;
        }
    }
    let run = &chain[..=last];
    let n_labels: usize = run.iter().map(|e| e.labels.len()).sum();
    // A lone unlabelled hop gains nothing from fusion (and would lose the
    // batched path's shared-row probing); require a real chain or a pushdown.
    if run.len() < 2 && n_labels == 0 {
        return None;
    }

    // Assemble the expression.
    let first = fusable_hop(&seg.ops[run[0].traverse]).expect("chain element");
    let src_slot = first.src_slot;
    let src_var = seg.bindings.name(src_slot).to_string();
    let src_label = seg.ops[..i].iter().find_map(|op| match op {
        PlanOp::NodeByLabelScan { slot, label, .. } if *slot == src_slot => Some(label.clone()),
        _ => None,
    });
    let mut operands = Vec::with_capacity(run.len());
    for elem in run {
        let hop = fusable_hop(&seg.ops[elem.traverse]).expect("chain element");
        let dst_labels = elem
            .labels
            .iter()
            .map(|&k| match &seg.ops[k] {
                PlanOp::LabelFilter { label, .. } => label.clone(),
                _ => unreachable!("collected as a label filter"),
            })
            .collect();
        operands.push(AlgebraicOperand::Rel {
            rel_types: hop.rel_types.to_vec(),
            transposed: hop.transposed,
            dst_labels,
        });
    }
    let final_hop = fusable_hop(&seg.ops[run[last].traverse]).expect("chain element");
    let (dst_slot, dst_var) = (final_hop.dst_slot, final_hop.dst_var.to_string());
    let run_end = run[last].end;

    // Weighted emission: the op right after the run must be an aggregation
    // that folds weights exactly (no DISTINCT, no collect). The hidden slot
    // is appended to the segment's bindings; records not produced by the
    // fused op leave it Null, which the aggregation reads as weight 1.
    let weight_slot = match seg.ops.get(run_end) {
        Some(PlanOp::Aggregate { projection, .. }) if weightable(projection) => {
            Some(seg.bindings.slot_or_create(&format!("@weight_{i}")))
        }
        _ => None,
    };

    let fused = PlanOp::FusedTraverse {
        src_slot,
        dst_slot,
        dst_var,
        expr: AlgebraicExpression { src_var, src_label, operands },
        weight_slot,
    };
    seg.ops.splice(i..run_end, [fused]);
    if let Some(ws) = weight_slot {
        if let Some(PlanOp::Aggregate { weight_slot, .. }) = seg.ops.get_mut(i + 1) {
            *weight_slot = Some(ws);
        }
    }
    Some(i + 1)
}

/// True when every aggregate of the projection folds a per-record weight
/// exactly: `count`/`sum`/`avg` scale linearly, `min`/`max` ignore
/// duplicates. `DISTINCT` and `collect` need the expanded multiset.
fn weightable(projection: &Projection) -> bool {
    use crate::exec::aggregate::AggFunc;
    projection.items.iter().all(|item| {
        if !contains_aggregate(&item.expr) {
            return true;
        }
        match &item.expr {
            Expr::FunctionCall { name, distinct, .. } => {
                !*distinct
                    && matches!(
                        AggFunc::from_name(name),
                        Some(
                            AggFunc::Count
                                | AggFunc::Sum
                                | AggFunc::Avg
                                | AggFunc::Min
                                | AggFunc::Max
                        )
                    )
            }
            _ => false,
        }
    })
}

/// Does an op read or write the given variable (by slot or by name)?
/// Conservative: any mention counts as a use.
fn op_uses(op: &PlanOp, var: &str, slot: usize) -> bool {
    let expr_uses = |e: &Expr| expr_mentions(e, var);
    match op {
        PlanOp::AllNodeScan { slot: s, .. } | PlanOp::NodeByLabelScan { slot: s, .. } => *s == slot,
        PlanOp::NodeByIdSeek { slot: s, id_expr, .. } => *s == slot || expr_uses(id_expr),
        PlanOp::Filter { expr } => expr_uses(expr),
        PlanOp::LabelFilter { slot: s, .. } => *s == slot,
        PlanOp::PropFilter { slot: s, .. } => *s == slot,
        PlanOp::Traverse { src_slot, dst_slot, edge_slot, .. } => {
            *src_slot == slot || *dst_slot == slot || *edge_slot == Some(slot)
        }
        PlanOp::FusedTraverse { src_slot, dst_slot, .. } => *src_slot == slot || *dst_slot == slot,
        PlanOp::Project(p) | PlanOp::With(p) => projection_uses(p, var),
        PlanOp::Aggregate { projection, .. } => projection_uses(projection, var),
        PlanOp::Create { patterns } => patterns.iter().any(|pat| {
            pat.nodes().iter().any(|n| n.variable.as_deref() == Some(var))
                || pat.steps.iter().any(|(r, _)| r.variable.as_deref() == Some(var))
        }),
        PlanOp::Delete { vars, .. } => vars.iter().any(|v| v == var),
        PlanOp::SetProps { items } => {
            items.iter().any(|item| item.variable == var || expr_uses(&item.value))
        }
        PlanOp::Unwind { list, slot: s, .. } => *s == slot || expr_uses(list),
        PlanOp::ProcedureCall { args, outputs, .. } => {
            args.iter().any(expr_uses) || outputs.iter().any(|&(_, s)| s == slot)
        }
    }
}

fn projection_uses(p: &Projection, var: &str) -> bool {
    p.items.iter().any(|item| expr_mentions(&item.expr, var))
        || p.order_by.iter().any(|(e, _)| expr_mentions(e, var))
}

fn expr_mentions(expr: &Expr, var: &str) -> bool {
    match expr {
        Expr::Variable(v) | Expr::Property(v, _) => v == var,
        Expr::Literal(_) | Expr::Parameter(_) => false,
        Expr::Unary(_, inner) => expr_mentions(inner, var),
        Expr::Binary(_, lhs, rhs) => expr_mentions(lhs, var) || expr_mentions(rhs, var),
        Expr::List(items) => items.iter().any(|e| expr_mentions(e, var)),
        Expr::FunctionCall { args, .. } => args.iter().any(|e| expr_mentions(e, var)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_renders_paper_notation() {
        let expr = AlgebraicExpression {
            src_var: "a".into(),
            src_label: Some("F".into()),
            operands: vec![
                AlgebraicOperand::Rel {
                    rel_types: vec!["R".into()],
                    transposed: false,
                    dst_labels: vec![],
                },
                AlgebraicOperand::Rel {
                    rel_types: vec!["S".into()],
                    transposed: true,
                    dst_labels: vec!["B".into()],
                },
            ],
        };
        assert_eq!(expr.to_string(), "(a:F)·A_R·Aᵀ_S·L_B");
    }

    #[test]
    fn untyped_hop_renders_star() {
        let expr = AlgebraicExpression {
            src_var: "n".into(),
            src_label: None,
            operands: vec![AlgebraicOperand::Rel {
                rel_types: vec![],
                transposed: false,
                dst_labels: vec![],
            }],
        };
        assert_eq!(expr.to_string(), "(n)·A_*");
    }

    #[test]
    fn chain_product_counts_paths() {
        // F = [1 at (0,0)], A = 0→1 and 0→2, B = 1→3 and 2→3: two paths 0→3.
        let f = SparseMatrix::from_triples(1, 4, &[(0, 0, 1u64)]).unwrap();
        let a = SparseMatrix::from_triples(4, 4, &[(0, 1, 1u64), (0, 2, 1)]).unwrap();
        let b = SparseMatrix::from_triples(4, 4, &[(1, 3, 1u64), (2, 3, 1)]).unwrap();
        let c = chain_product(vec![Arc::new(f), Arc::new(a), Arc::new(b)], 1);
        assert_eq!(c.extract_element(0, 3), Some(2));
        assert_eq!(c.nvals(), 1);
    }

    #[test]
    fn chain_product_respects_multiplicity_weights() {
        // A parallel pair (count 2) times a count-3 cell = 6 paths.
        let f = SparseMatrix::from_triples(1, 3, &[(0, 0, 1u64)]).unwrap();
        let a = SparseMatrix::from_triples(3, 3, &[(0, 1, 2u64)]).unwrap();
        let b = SparseMatrix::from_triples(3, 3, &[(1, 2, 3u64)]).unwrap();
        let c = chain_product(vec![Arc::new(f), Arc::new(a), Arc::new(b)], 1);
        assert_eq!(c.extract_element(0, 2), Some(6));
    }
}
