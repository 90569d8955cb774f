//! Execution-plan construction and evaluation.
//!
//! [`ExecutionPlan::build`] compiles a parsed [`cypher::Query`] into segments
//! of [`PlanOp`]s (segments are separated by `WITH`, which re-binds the record
//! layout). [`ExecutionPlan::execute`] interprets the plan against a graph.
//!
//! Plan construction mirrors RedisGraph's planner for the supported subset:
//!
//! * the first node of a `MATCH` pattern chooses its access path — `Node By Id
//!   Seek` when that `MATCH`'s own `WHERE` pins `id(n)` to a literal or a
//!   parameter, `Node By Label Scan` when the pattern has a label, otherwise
//!   `All Node Scan`. The seek enforces the `id(n) = …` conjunct it consumed,
//!   so that conjunct leaves the `WHERE` filter (and with nothing left, no
//!   `Filter` is planned at all);
//! * every relationship step becomes a `Conditional Traverse` (or `Expand
//!   Into` when both endpoints are already bound), executed against the
//!   graph's sparse matrices;
//! * inline property maps and label constraints on non-scan nodes become
//!   filters directly after the traverse that binds them.

use crate::error::QueryError;
use crate::exec::expr::contains_aggregate;
use crate::exec::ops::*;
use crate::exec::record::{Bindings, Record};
use crate::exec::resultset::{QueryStats, ResultSet};
use crate::store::graph::Graph;
use crate::value::Value;
use cypher::{Clause, Expr, NodePattern, PathPattern, Query};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Query parameters (`CYPHER name=value …`): name → constant expression.
/// Values are the literal / list-of-literal expressions the server parses
/// from the `CYPHER` header; [`ExecutionPlan::bind`] substitutes them for
/// `$name` references at plan-bind time — never by splicing query text.
pub type Params = HashMap<String, Expr>;

/// What one operator did during a profiled execution (`GRAPH.PROFILE`): the
/// operator's `describe()` line plus how many records it left in the
/// interpreter's working set and how long its invocation took. The executor
/// is a batch interpreter — each operator consumes the whole record vector
/// and produces the next one — so an operator's wall time is exactly the
/// span of its invocation; there is no child time to subtract.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// The operator's `GRAPH.EXPLAIN` line.
    pub description: String,
    /// Records in the working set after the operator ran.
    pub records_produced: usize,
    /// Wall time of the operator's invocation.
    pub elapsed: Duration,
    /// Index of the plan segment the operator belongs to (segments are
    /// separated by `WITH`; the formatter reinserts `--- segment ---`).
    pub segment: usize,
}

/// Render profiled operators as the annotated `GRAPH.EXPLAIN` tree
/// `GRAPH.PROFILE` returns: one line per operator, segment separators
/// preserved.
pub fn format_profile(profiles: &[OpProfile]) -> Vec<String> {
    let mut out = Vec::new();
    let mut segment = 0;
    for p in profiles {
        if p.segment != segment {
            out.push("--- segment ---".to_string());
            segment = p.segment;
        }
        out.push(format!(
            "{} | Records produced: {}, Execution time: {:.6} ms",
            p.description,
            p.records_produced,
            p.elapsed.as_secs_f64() * 1e3
        ));
    }
    out
}

/// One plan segment: a record layout plus the operations that run under it.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Variable → slot table for this segment.
    pub bindings: Bindings,
    /// Operations, in execution order.
    pub ops: Vec<PlanOp>,
}

/// A compiled query plan.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    segments: Vec<Segment>,
    /// Intra-query GraphBLAS thread budget (`QUERY_THREADS`), snapshotted
    /// from the process-wide [`graphblas::Context`] when the plan is built —
    /// i.e. at dispatch. A concurrent `GRAPH.CONFIG SET QUERY_THREADS`
    /// retunes *later* queries; a query that already started keeps the
    /// budget it was dispatched with, so its kernels never observe the knob
    /// moving mid-flight.
    thread_budget: usize,
}

impl ExecutionPlan {
    /// Compile a parsed query into an execution plan and run the algebraic
    /// optimizer over it (chain fusion, mask pushdown — see
    /// [`crate::exec::algebraic`]).
    pub fn build(query: &Query) -> Result<Self, QueryError> {
        let mut plan = Self::build_unoptimized(query)?;
        crate::exec::algebraic::fuse_plan(&mut plan.segments);
        Ok(plan)
    }

    /// Compile without the optimizer pass: one `Traverse` op per hop, label
    /// predicates as record filters. The differential suites compare this
    /// plan's output against the optimized plan's row for row.
    pub fn build_unoptimized(query: &Query) -> Result<Self, QueryError> {
        Builder::new().build(query)
    }

    /// Human-readable plan description (`GRAPH.EXPLAIN`).
    pub fn describe(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, segment) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push("--- segment ---".to_string());
            }
            for op in &segment.ops {
                out.push(op.describe());
            }
        }
        out
    }

    /// The segments of the plan (exposed for tests and the server module).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The intra-query thread budget this plan was dispatched with (the
    /// `QUERY_THREADS` value at build time).
    pub fn thread_budget(&self) -> usize {
        self.thread_budget
    }

    /// True if any expression in the plan references a `$parameter`. Plans
    /// without parameter references execute a cached skeleton directly;
    /// plans with them go through [`ExecutionPlan::bind`] first.
    pub fn has_params(&self) -> bool {
        let mut found = false;
        self.visit_exprs(&mut |expr| found |= expr_has_param(expr));
        found
    }

    /// Clone the plan with every `$name` reference replaced by its value
    /// from `params` — substitution happens on the plan's expressions, so a
    /// cached skeleton is never re-parsed or re-planned per execution, and
    /// parameter values can never be misread as query text. Errors if the
    /// plan references a parameter `params` does not supply.
    pub fn bind(&self, params: &Params) -> Result<ExecutionPlan, QueryError> {
        let mut plan = self.clone();
        let mut missing: Option<String> = None;
        plan.visit_exprs_mut(&mut |expr| substitute_params(expr, params, &mut missing));
        match missing {
            Some(name) => Err(QueryError::Type(format!("missing query parameter `${name}`"))),
            None => Ok(plan),
        }
    }

    /// Visit every expression embedded in the plan's operators.
    fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        for segment in &self.segments {
            for op in &segment.ops {
                match op {
                    PlanOp::NodeByIdSeek { id_expr, .. } => f(id_expr),
                    PlanOp::Filter { expr } => f(expr),
                    PlanOp::Unwind { list, .. } => f(list),
                    PlanOp::ProcedureCall { args, .. } => args.iter().for_each(&mut *f),
                    PlanOp::Project(p)
                    | PlanOp::With(p)
                    | PlanOp::Aggregate { projection: p, .. } => {
                        p.items.iter().for_each(|i| f(&i.expr));
                        p.order_by.iter().for_each(|(e, _)| f(e));
                    }
                    PlanOp::SetProps { items } => items.iter().for_each(|i| f(&i.value)),
                    _ => {}
                }
            }
        }
    }

    /// Mutable counterpart of [`ExecutionPlan::visit_exprs`].
    fn visit_exprs_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        for segment in &mut self.segments {
            for op in &mut segment.ops {
                match op {
                    PlanOp::NodeByIdSeek { id_expr, .. } => f(id_expr),
                    PlanOp::Filter { expr } => f(expr),
                    PlanOp::Unwind { list, .. } => f(list),
                    PlanOp::ProcedureCall { args, .. } => args.iter_mut().for_each(&mut *f),
                    PlanOp::Project(p)
                    | PlanOp::With(p)
                    | PlanOp::Aggregate { projection: p, .. } => {
                        p.items.iter_mut().for_each(|i| f(&mut i.expr));
                        p.order_by.iter_mut().for_each(|(e, _)| f(e));
                    }
                    PlanOp::SetProps { items } => items.iter_mut().for_each(|i| f(&mut i.value)),
                    _ => {}
                }
            }
        }
    }

    /// Execute the plan against a graph, producing a result set.
    pub fn execute(&self, graph: &mut Graph) -> Result<ResultSet, QueryError> {
        self.run(GraphAccess::Write(graph), Instant::now(), None)
    }

    /// Execute against a graph, timing the result set's statistics footer
    /// from `started` — the single `Instant` the server captures at dispatch,
    /// so the reported time covers parse/queue/execute without being
    /// re-measured per layer.
    pub fn execute_at(&self, graph: &mut Graph, started: Instant) -> Result<ResultSet, QueryError> {
        self.run(GraphAccess::Write(graph), started, None)
    }

    /// Execute a plan that contains no write operations against a shared graph
    /// reference. Used by the server's read path so that many read queries can
    /// run concurrently on different threadpool workers under a read lock.
    /// Returns an error if the plan contains a write operation.
    pub fn execute_read_only(&self, graph: &Graph) -> Result<ResultSet, QueryError> {
        self.run(GraphAccess::Read(graph), Instant::now(), None)
    }

    /// Read-only execution timed from a dispatch-captured `started` (see
    /// [`ExecutionPlan::execute_at`]).
    pub fn execute_read_only_at(
        &self,
        graph: &Graph,
        started: Instant,
    ) -> Result<ResultSet, QueryError> {
        self.run(GraphAccess::Read(graph), started, None)
    }

    /// Execute with per-operator instrumentation (`GRAPH.PROFILE`): every
    /// operator's records-produced count and wall time are collected
    /// alongside the ordinary result set. Write operators mutate the graph
    /// exactly as [`ExecutionPlan::execute`] would.
    pub fn profile(
        &self,
        graph: &mut Graph,
        started: Instant,
    ) -> Result<(ResultSet, Vec<OpProfile>), QueryError> {
        let mut profiles = Vec::new();
        let rs = self.run(GraphAccess::Write(graph), started, Some(&mut profiles))?;
        Ok((rs, profiles))
    }

    /// Read-only counterpart of [`ExecutionPlan::profile`].
    pub fn profile_read_only(
        &self,
        graph: &Graph,
        started: Instant,
    ) -> Result<(ResultSet, Vec<OpProfile>), QueryError> {
        let mut profiles = Vec::new();
        let rs = self.run(GraphAccess::Read(graph), started, Some(&mut profiles))?;
        Ok((rs, profiles))
    }

    /// True when executing the plan reads whole matrices *per record*
    /// (scalar variable-length traversals run the algebraic `khop_reach`,
    /// procedures hand the adjacency matrix to `algo::*`), where flushing
    /// once clearly beats merging per read. Single-hop traversals are
    /// deliberately excluded: the scalar strategy reads merged row views and
    /// the batched strategy materialises at most one merged `Cow` view per
    /// relation matrix per batch, so forcing a flush here would reintroduce
    /// the per-query sync cost the delta write path exists to avoid.
    /// `GraphSnapshot` consults this to decide whether a query runs on its
    /// pinned (possibly delta-dirty) graph or on its lazily folded twin.
    pub(crate) fn needs_matrix_views(&self) -> bool {
        self.segments.iter().flat_map(|s| &s.ops).any(|op| match op {
            PlanOp::Traverse { min_hops, max_hops, .. } => {
                !(*min_hops == 1 && *max_hops == Some(1))
            }
            PlanOp::ProcedureCall { .. } => true,
            _ => false,
        })
    }

    fn run(
        &self,
        mut access: GraphAccess<'_>,
        started: Instant,
        mut profiles: Option<&mut Vec<OpProfile>>,
    ) -> Result<ResultSet, QueryError> {
        // Read barrier for whole-matrix consumers: with exclusive access a
        // flush is cheap and lets `khop_reach` / procedures borrow the main
        // matrices once, instead of materialising a merged copy per record.
        // (The server's read-only path runs against a shared `GraphSnapshot`,
        // which routes whole-matrix plans to a lazily folded private twin;
        // single-hop traversals use merged row views and need no flush at
        // all.)
        if self.needs_matrix_views() {
            if let GraphAccess::Write(graph) = &mut access {
                graph.sync_matrices();
            }
        }
        let mut stats = QueryStats::default();
        let mut records: Vec<Record> = vec![Vec::new()];
        let mut columns: Vec<String> = Vec::new();
        let mut rows: Vec<Vec<Value>> = Vec::new();

        for (si, segment) in self.segments.iter().enumerate() {
            let bindings = &segment.bindings;
            for op in &segment.ops {
                // Per-op timing only when profiling: the 40k+-qps point-read
                // path pays nothing for the instrumentation's existence.
                let op_started = profiles.as_ref().map(|_| Instant::now());
                match op {
                    PlanOp::AllNodeScan { .. }
                    | PlanOp::NodeByLabelScan { .. }
                    | PlanOp::NodeByIdSeek { .. } => {
                        records = run_scan(op, records, bindings, access.graph());
                    }
                    PlanOp::Filter { .. }
                    | PlanOp::LabelFilter { .. }
                    | PlanOp::PropFilter { .. } => {
                        records = run_filter(op, records, bindings, access.graph());
                    }
                    PlanOp::Traverse {
                        src_slot,
                        dst_slot,
                        edge_slot,
                        rel_types,
                        direction,
                        min_hops,
                        max_hops,
                        expand_into,
                        ..
                    } => {
                        let spec = TraverseSpec {
                            src_slot: *src_slot,
                            dst_slot: *dst_slot,
                            edge_slot: *edge_slot,
                            rel_types,
                            direction: *direction,
                            min_hops: *min_hops,
                            max_hops: *max_hops,
                            expand_into: *expand_into,
                            nthreads: self.thread_budget,
                        };
                        records = run_traverse(records, bindings, access.graph(), &spec);
                    }
                    PlanOp::FusedTraverse { src_slot, dst_slot, expr, weight_slot, .. } => {
                        records = crate::exec::algebraic::run_fused(
                            &records,
                            bindings,
                            access.graph(),
                            *src_slot,
                            *dst_slot,
                            expr,
                            *weight_slot,
                            self.thread_budget,
                        );
                    }
                    PlanOp::Project(projection) => {
                        columns = projection.items.iter().map(|i| i.column_name()).collect();
                        rows = run_project(projection, &records, bindings, access.graph());
                    }
                    PlanOp::Aggregate { projection, weight_slot } => {
                        columns = projection.items.iter().map(|i| i.column_name()).collect();
                        rows = run_aggregate(
                            projection,
                            *weight_slot,
                            &records,
                            bindings,
                            access.graph(),
                        );
                    }
                    PlanOp::With(projection) => {
                        let agg = projection.items.iter().any(|i| contains_aggregate(&i.expr));
                        let produced = if agg {
                            run_aggregate(projection, None, &records, bindings, access.graph())
                        } else {
                            run_project(projection, &records, bindings, access.graph())
                        };
                        let next_bindings = &self.segments[si + 1].bindings;
                        records = produced
                            .into_iter()
                            .map(|row| {
                                let mut r = vec![Value::Null; next_bindings.len()];
                                for (item, value) in projection.items.iter().zip(row) {
                                    if let Some(slot) = next_bindings.slot(&item.column_name()) {
                                        r[slot] = value;
                                    }
                                }
                                r
                            })
                            .collect();
                    }
                    PlanOp::Create { patterns } => {
                        run_create(
                            patterns,
                            &mut records,
                            bindings,
                            access.graph_mut()?,
                            &mut stats,
                        );
                    }
                    PlanOp::Delete { vars, .. } => {
                        run_delete(vars, &records, bindings, access.graph_mut()?, &mut stats);
                    }
                    PlanOp::SetProps { items } => {
                        run_set(items, &records, bindings, access.graph_mut()?, &mut stats);
                    }
                    PlanOp::Unwind { list, slot, .. } => {
                        records = run_unwind(list, *slot, records, bindings, access.graph());
                    }
                    PlanOp::ProcedureCall { name, args, outputs } => {
                        records =
                            run_procedure(name, args, outputs, records, bindings, access.graph())?;
                    }
                }
                if let Some(profiles) = profiles.as_deref_mut() {
                    // Projections emit rows, every other operator leaves its
                    // output in the record working set.
                    let produced = match op {
                        PlanOp::Project(_) | PlanOp::Aggregate { .. } => rows.len(),
                        _ => records.len(),
                    };
                    profiles.push(OpProfile {
                        description: op.describe(),
                        records_produced: produced,
                        elapsed: op_started.expect("set when profiling").elapsed(),
                        segment: si,
                    });
                }
            }
        }
        // Write queries no longer resync matrices here: mutations append to
        // each DeltaMatrix's pending buffers and readers see the merged view.
        // Buffers fold into the main CSRs when a matrix crosses its flush
        // threshold, or at the read barriers above.
        stats.execution_time = started.elapsed();
        Ok(ResultSet { columns, rows, stats })
    }
}

/// How the executor is allowed to touch the graph: read-only plans can run
/// against a shared reference (many at once on different threadpool workers),
/// write plans need exclusive access.
enum GraphAccess<'a> {
    /// Shared, read-only access.
    Read(&'a Graph),
    /// Exclusive access, required by write operations.
    Write(&'a mut Graph),
}

impl<'a> GraphAccess<'a> {
    fn graph(&self) -> &Graph {
        match self {
            GraphAccess::Read(g) => g,
            GraphAccess::Write(g) => g,
        }
    }

    fn graph_mut(&mut self) -> Result<&mut Graph, QueryError> {
        match self {
            GraphAccess::Read(_) => Err(QueryError::Internal(
                "write operation reached the read-only execution path".into(),
            )),
            GraphAccess::Write(g) => Ok(g),
        }
    }
}

/// Internal plan builder state.
struct Builder {
    segments: Vec<Segment>,
    bindings: Bindings,
    ops: Vec<PlanOp>,
    anon_counter: usize,
    /// Variables the last `MATCH` bound through a `Node By Id Seek`, whose
    /// `id(v) = …` conjunct its `WHERE` no longer needs to check.
    seeked: Vec<String>,
}

impl Builder {
    fn new() -> Self {
        Builder {
            segments: Vec::new(),
            bindings: Bindings::new(),
            ops: Vec::new(),
            anon_counter: 0,
            seeked: Vec::new(),
        }
    }

    fn anon_var(&mut self) -> String {
        self.anon_counter += 1;
        format!("@anon_{}", self.anon_counter)
    }

    fn finish_segment(&mut self) {
        let bindings = std::mem::take(&mut self.bindings);
        let ops = std::mem::take(&mut self.ops);
        self.segments.push(Segment { bindings, ops });
    }

    fn build(mut self, query: &Query) -> Result<ExecutionPlan, QueryError> {
        for (ci, clause) in query.clauses.iter().enumerate() {
            match clause {
                Clause::Match { optional, patterns } => {
                    if *optional {
                        return Err(QueryError::Unsupported(
                            "OPTIONAL MATCH is not supported by this RedisGraph version".into(),
                        ));
                    }
                    // Only this MATCH's own WHERE may pin its start nodes: a
                    // later clause's predicate must not narrow an earlier scan.
                    let id_seeks = match query.clauses.get(ci + 1) {
                        Some(Clause::Where(expr)) => collect_id_seeks(expr),
                        _ => HashMap::new(),
                    };
                    for pattern in patterns {
                        self.plan_pattern(pattern, &id_seeks)?;
                    }
                }
                Clause::Where(expr) => {
                    let seeked = std::mem::take(&mut self.seeked);
                    if let Some(expr) = without_seek_conjuncts(expr, &seeked) {
                        self.ops.push(PlanOp::Filter { expr });
                    }
                }
                Clause::Return(projection) => {
                    let agg = projection.items.iter().any(|i| contains_aggregate(&i.expr));
                    self.ops.push(if agg {
                        PlanOp::Aggregate { projection: projection.clone(), weight_slot: None }
                    } else {
                        PlanOp::Project(projection.clone())
                    });
                }
                Clause::With(projection) => {
                    self.ops.push(PlanOp::With(projection.clone()));
                    self.finish_segment();
                    // The next segment's variables are the projected column names.
                    for item in &projection.items {
                        self.bindings.slot_or_create(&item.column_name());
                    }
                }
                Clause::Create(patterns) => {
                    // Named entities introduced by CREATE get slots so later
                    // clauses (RETURN, SET) can reference them.
                    for pattern in patterns {
                        for node in pattern.nodes() {
                            if let Some(var) = &node.variable {
                                self.bindings.slot_or_create(var);
                            }
                        }
                        for (rel, _) in &pattern.steps {
                            if let Some(var) = &rel.variable {
                                self.bindings.slot_or_create(var);
                            }
                        }
                    }
                    self.ops.push(PlanOp::Create { patterns: patterns.clone() });
                }
                Clause::Delete { detach, variables } => {
                    for var in variables {
                        if !self.bindings.is_bound(var) {
                            return Err(QueryError::UnknownVariable(var.clone()));
                        }
                    }
                    self.ops.push(PlanOp::Delete { detach: *detach, vars: variables.clone() });
                }
                Clause::Set(items) => {
                    for item in items {
                        if !self.bindings.is_bound(&item.variable) {
                            return Err(QueryError::UnknownVariable(item.variable.clone()));
                        }
                    }
                    self.ops.push(PlanOp::SetProps { items: items.clone() });
                }
                Clause::Unwind { list, variable } => {
                    let slot = self.bindings.slot_or_create(variable);
                    self.ops.push(PlanOp::Unwind {
                        list: list.clone(),
                        slot,
                        var: variable.clone(),
                    });
                }
                Clause::Call { procedure, args, yields } => {
                    self.plan_call(procedure, args, yields)?;
                }
            }
        }
        self.finish_segment();
        // Snapshot `QUERY_THREADS` here, at build (= dispatch) time: the knob
        // is process-global, and reading it per kernel call would let a
        // concurrent `GRAPH.CONFIG SET` change a running query's parallelism.
        Ok(ExecutionPlan { segments: self.segments, thread_budget: graphblas::Context::nthreads() })
    }

    /// Plan a `CALL … YIELD` clause: resolve the procedure, validate arity and
    /// the yield list, and bind the yielded columns as ordinary variables.
    fn plan_call(
        &mut self,
        procedure: &str,
        args: &[Expr],
        yields: &[cypher::YieldItem],
    ) -> Result<(), QueryError> {
        let proc = crate::exec::procedures::find(procedure)
            .ok_or_else(|| QueryError::UnknownProcedure(procedure.to_string()))?;
        if args.len() < proc.min_args || args.len() > proc.max_args {
            return Err(QueryError::Type(format!(
                "procedure `{}` takes {} to {} arguments, got {}",
                proc.name,
                proc.min_args,
                proc.max_args,
                args.len()
            )));
        }
        // Yielded names must be fresh bindings (openCypher forbids YIELD from
        // shadowing an existing variable — rebinding would silently clobber
        // the earlier values).
        let bind_fresh = |bindings: &mut Bindings, name: &str| -> Result<usize, QueryError> {
            if bindings.is_bound(name) {
                return Err(QueryError::Type(format!(
                    "variable `{name}` already declared; YIELD names must be new (use `AS` to \
                     rename)"
                )));
            }
            Ok(bindings.slot_or_create(name))
        };
        // An empty YIELD list yields every output column under its own name.
        let outputs: Vec<(usize, usize)> = if yields.is_empty() {
            proc.yields
                .iter()
                .enumerate()
                .map(|(col, name)| Ok((col, bind_fresh(&mut self.bindings, name)?)))
                .collect::<Result<_, QueryError>>()?
        } else {
            yields
                .iter()
                .map(|item| {
                    let col =
                        proc.yields.iter().position(|c| *c == item.column).ok_or_else(|| {
                            QueryError::Type(format!(
                                "procedure `{}` does not yield `{}` (yields: {})",
                                proc.name,
                                item.column,
                                proc.yields.join(", ")
                            ))
                        })?;
                    Ok((col, bind_fresh(&mut self.bindings, item.binding_name())?))
                })
                .collect::<Result<_, QueryError>>()?
        };
        self.ops.push(PlanOp::ProcedureCall {
            name: proc.name.to_string(),
            args: args.to_vec(),
            outputs,
        });
        Ok(())
    }

    /// Plan one linear path pattern of a MATCH clause.
    fn plan_pattern(
        &mut self,
        pattern: &PathPattern,
        id_seeks: &HashMap<String, Expr>,
    ) -> Result<(), QueryError> {
        // Start node.
        let start_var = pattern.start.variable.clone().unwrap_or_else(|| self.anon_var());
        let start_bound = self.bindings.is_bound(&start_var);
        let start_slot = self.bindings.slot_or_create(&start_var);
        if !start_bound {
            self.plan_node_access(&pattern.start, &start_var, start_slot, id_seeks);
        } else {
            self.plan_node_constraints(&pattern.start, start_slot);
        }

        // Relationship steps.
        let mut src_slot = start_slot;
        for (rel, node) in &pattern.steps {
            let dst_var = node.variable.clone().unwrap_or_else(|| self.anon_var());
            let expand_into = self.bindings.is_bound(&dst_var);
            let dst_slot = self.bindings.slot_or_create(&dst_var);
            // An edge slot is needed when the edge is named or when inline
            // property constraints must be checked against it (single hop only).
            let edge_slot = if rel.var_length.is_none()
                && (rel.variable.is_some() || !rel.properties.is_empty())
            {
                let name = rel.variable.clone().unwrap_or_else(|| self.anon_var());
                Some(self.bindings.slot_or_create(&name))
            } else {
                None
            };
            let (min_hops, max_hops) = match rel.var_length {
                None => (1, Some(1)),
                Some((min, max)) => (min, max),
            };
            self.ops.push(PlanOp::Traverse {
                src_slot,
                dst_slot,
                dst_var: dst_var.clone(),
                edge_slot,
                rel_types: rel.types.clone(),
                direction: rel.direction,
                min_hops,
                max_hops,
                expand_into,
            });
            // Edge property constraints (single hop only).
            if let Some(es) = edge_slot {
                for (key, lit) in &rel.properties {
                    self.ops.push(PlanOp::PropFilter {
                        slot: es,
                        key: key.clone(),
                        value: Value::from(lit),
                    });
                }
            }
            // Destination constraints apply whether the traversal expands into
            // a fresh slot or re-checks an already-bound one.
            self.plan_node_constraints(node, dst_slot);
            src_slot = dst_slot;
        }
        Ok(())
    }

    /// Choose the access path for an unbound start node.
    fn plan_node_access(
        &mut self,
        node: &NodePattern,
        var: &str,
        slot: usize,
        id_seeks: &HashMap<String, Expr>,
    ) {
        if let Some(id_expr) = id_seeks.get(var) {
            self.ops.push(PlanOp::NodeByIdSeek {
                slot,
                var: var.to_string(),
                id_expr: id_expr.clone(),
            });
            self.seeked.push(var.to_string());
            // Remaining label/property constraints still apply.
            self.plan_node_constraints(node, slot);
            return;
        }
        if let Some(first_label) = node.labels.first() {
            self.ops.push(PlanOp::NodeByLabelScan {
                slot,
                var: var.to_string(),
                label: first_label.clone(),
            });
            for label in node.labels.iter().skip(1) {
                self.ops.push(PlanOp::LabelFilter { slot, label: label.clone() });
            }
        } else {
            self.ops.push(PlanOp::AllNodeScan { slot, var: var.to_string() });
        }
        for (key, lit) in &node.properties {
            self.ops.push(PlanOp::PropFilter { slot, key: key.clone(), value: Value::from(lit) });
        }
    }

    /// Emit label / property filters for a node that is bound by a traverse or
    /// by an earlier pattern.
    fn plan_node_constraints(&mut self, node: &NodePattern, slot: usize) {
        for label in &node.labels {
            self.ops.push(PlanOp::LabelFilter { slot, label: label.clone() });
        }
        for (key, lit) in &node.properties {
            self.ops.push(PlanOp::PropFilter { slot, key: key.clone(), value: Value::from(lit) });
        }
    }
}

/// The top-level `AND` conjuncts of a predicate, left to right.
fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::Binary(cypher::BinaryOperator::And, lhs, rhs) => {
            let mut out = conjuncts(lhs);
            out.extend(conjuncts(rhs));
            out
        }
        _ => vec![expr],
    }
}

/// `id(var) = <literal | $param>`, either way round: a conjunct a `Node By
/// Id Seek` on `var` can serve.
fn id_seek_conjunct(expr: &Expr) -> Option<(&str, &Expr)> {
    match expr {
        Expr::Binary(cypher::BinaryOperator::Eq, lhs, rhs) => {
            match_id_eq(lhs, rhs).or_else(|| match_id_eq(rhs, lhs))
        }
        _ => None,
    }
}

/// The seekable conjuncts of one WHERE predicate: variable → id expression,
/// the first conjunct per variable winning.
fn collect_id_seeks(expr: &Expr) -> HashMap<String, Expr> {
    let mut seeks = HashMap::new();
    for (var, value) in conjuncts(expr).into_iter().filter_map(id_seek_conjunct) {
        seeks.entry(var.to_string()).or_insert_with(|| value.clone());
    }
    seeks
}

/// `expr` without the first seekable conjunct of each variable in `seeked`
/// (the one [`collect_id_seeks`] chose, which its seek now enforces); `None`
/// when no conjunct is left. Any other conjunct on the same variable stays,
/// so `id(a) = 1 AND id(a) = 2` seeks 1 and still filters on 2.
fn without_seek_conjuncts(expr: &Expr, seeked: &[String]) -> Option<Expr> {
    let mut pending: Vec<&str> = seeked.iter().map(String::as_str).collect();
    conjuncts(expr)
        .into_iter()
        .filter(|conjunct| {
            let consumed = id_seek_conjunct(conjunct)
                .and_then(|(var, _)| pending.iter().position(|v| *v == var));
            consumed.map(|i| pending.swap_remove(i)).is_none()
        })
        .cloned()
        .reduce(|lhs, rhs| Expr::Binary(cypher::BinaryOperator::And, Box::new(lhs), Box::new(rhs)))
}

/// True if `expr` contains a `$parameter` reference anywhere.
fn expr_has_param(expr: &Expr) -> bool {
    match expr {
        Expr::Parameter(_) => true,
        Expr::Unary(_, inner) => expr_has_param(inner),
        Expr::Binary(_, lhs, rhs) => expr_has_param(lhs) || expr_has_param(rhs),
        Expr::FunctionCall { args, .. } => args.iter().any(expr_has_param),
        Expr::List(items) => items.iter().any(expr_has_param),
        Expr::Literal(_) | Expr::Variable(_) | Expr::Property(_, _) => false,
    }
}

/// Replace every `$name` in `expr` with its value from `params`, recording
/// the first missing name in `missing`.
fn substitute_params(expr: &mut Expr, params: &Params, missing: &mut Option<String>) {
    match expr {
        Expr::Parameter(name) => match params.get(name.as_str()) {
            Some(value) => *expr = value.clone(),
            None => {
                if missing.is_none() {
                    *missing = Some(name.clone());
                }
            }
        },
        Expr::Unary(_, inner) => substitute_params(inner, params, missing),
        Expr::Binary(_, lhs, rhs) => {
            substitute_params(lhs, params, missing);
            substitute_params(rhs, params, missing);
        }
        Expr::FunctionCall { args, .. } => {
            args.iter_mut().for_each(|a| substitute_params(a, params, missing))
        }
        Expr::List(items) => items.iter_mut().for_each(|i| substitute_params(i, params, missing)),
        Expr::Literal(_) | Expr::Variable(_) | Expr::Property(_, _) => {}
    }
}

fn match_id_eq<'e>(call: &'e Expr, value: &'e Expr) -> Option<(&'e str, &'e Expr)> {
    if let Expr::FunctionCall { name, args, .. } = call {
        if name == "id" && args.len() == 1 {
            if let Expr::Variable(var) = &args[0] {
                if matches!(value, Expr::Literal(_) | Expr::Parameter(_)) {
                    return Some((var, value));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(q: &str) -> ExecutionPlan {
        ExecutionPlan::build(&cypher::parse(q).unwrap()).unwrap()
    }

    #[test]
    fn label_scan_chosen_when_label_present() {
        let p = plan("MATCH (a:Person) RETURN a");
        let text = p.describe().join("\n");
        assert!(text.contains("Node By Label Scan"));
        assert!(!text.contains("All Node Scan"));
    }

    #[test]
    fn all_node_scan_when_no_label() {
        let p = plan("MATCH (a) RETURN a");
        assert!(p.describe().join("\n").contains("All Node Scan"));
    }

    #[test]
    fn id_seek_chosen_when_where_pins_id() {
        let p = plan("MATCH (s:Node)-[*1..2]->(t) WHERE id(s) = 5 RETURN count(t)");
        let text = p.describe().join("\n");
        assert!(text.contains("Node By Id Seek"), "plan was:\n{text}");
        assert!(text.contains("Conditional Traverse"));
        assert!(text.contains("Aggregate"));
    }

    #[test]
    fn expand_into_when_destination_already_bound() {
        let p = plan("MATCH (a:Person)-[:KNOWS]->(b:Person), (a)-[:LIKES]->(b) RETURN a");
        let text = p.describe().join("\n");
        assert!(text.contains("Expand Into"), "plan was:\n{text}");
    }

    #[test]
    fn with_splits_segments() {
        let p = plan("MATCH (a:Person) WITH a.name AS n RETURN n");
        assert_eq!(p.segments().len(), 2);
        assert!(p.describe().join("\n").contains("--- segment ---"));
    }

    #[test]
    fn unknown_variable_in_delete_is_an_error() {
        let err = ExecutionPlan::build(&cypher::parse("MATCH (a) DELETE b").unwrap()).unwrap_err();
        assert!(matches!(err, QueryError::UnknownVariable(v) if v == "b"));
    }

    #[test]
    fn plan_snapshots_query_threads_at_build_time() {
        // The only core test that writes the process-wide context (the knob
        // only tunes parallelism degree, never results, so concurrent readers
        // in other tests are unaffected).
        graphblas::Context::set_nthreads(2);
        let p = plan("MATCH (s)-[*1..2]->(t) RETURN count(t)");
        assert_eq!(p.thread_budget(), 2);
        graphblas::Context::set_nthreads(7);
        assert_eq!(
            p.thread_budget(),
            2,
            "a runtime QUERY_THREADS change must not retune an already-built plan"
        );
        let fresh = plan("MATCH (s)-[*1..2]->(t) RETURN count(t)");
        assert_eq!(fresh.thread_budget(), 7, "later dispatches pick up the new value");
        graphblas::Context::set_nthreads(1);
    }

    #[test]
    fn bind_substitutes_parameters_at_plan_level() {
        let p = plan("MATCH (s)-[:L]->(t) WHERE id(s) = $src AND t.name = $name RETURN t");
        assert!(p.has_params());
        let params: Params = [
            ("src".to_string(), Expr::Literal(cypher::Literal::Integer(3))),
            ("name".to_string(), Expr::Literal(cypher::Literal::Str("x".into()))),
        ]
        .into_iter()
        .collect();
        let bound = p.bind(&params).unwrap();
        assert!(!bound.has_params(), "all $refs must be substituted");
        // The skeleton itself is untouched: it can be re-bound with other values.
        assert!(p.has_params());
    }

    #[test]
    fn bind_errors_on_missing_parameter() {
        let p = plan("MATCH (s) WHERE id(s) = $src RETURN s");
        let err = p.bind(&Params::new()).unwrap_err();
        assert!(matches!(&err, QueryError::Type(m) if m.contains("$src")), "{err}");
    }

    #[test]
    fn params_reach_every_expression_position() {
        // UNWIND list, projection item, ORDER BY key, and SET value.
        let p = plan("UNWIND $xs AS x RETURN x + $inc AS y ORDER BY $inc");
        assert!(p.has_params());
        let params: Params = [
            (
                "xs".to_string(),
                Expr::List(vec![
                    Expr::Literal(cypher::Literal::Integer(1)),
                    Expr::Literal(cypher::Literal::Integer(2)),
                ]),
            ),
            ("inc".to_string(), Expr::Literal(cypher::Literal::Integer(10))),
        ]
        .into_iter()
        .collect();
        assert!(!p.bind(&params).unwrap().has_params());

        let p = plan("MATCH (a) SET a.v = $v");
        assert!(p.has_params());
        let params: Params =
            [("v".to_string(), Expr::Literal(cypher::Literal::Integer(1)))].into_iter().collect();
        assert!(!p.bind(&params).unwrap().has_params());
    }

    #[test]
    fn optional_match_is_rejected() {
        let err = ExecutionPlan::build(&cypher::parse("OPTIONAL MATCH (a) RETURN a").unwrap())
            .unwrap_err();
        assert!(matches!(err, QueryError::Unsupported(_)));
    }
}
