//! The traced run's replay: each sampled request of the traced window goes
//! again, one at a time, through every rung and layer the benchmark can reach
//! from outside the program — isolated TCP, in-process
//! `RedisGraphServer::execute`, and the public functions each module exports —
//! with every call recorded as a child span of the request's root span.

use crate::check::{check_final_state, check_window, cross_check, info};
use crate::load::{self, classify, Outcome, Sample};
use crate::{latencies, repo_root, Args, Report, Run};
use perfbench::workload::GRAPH;
use perfbench::{stats, Op, OpStream, Oracle, Shape, Workload};
use redisgraph_core::{ExecutionPlan, Graph, GraphSnapshot, OpProfile};
use redisgraph_server::commands::resultset_to_resp;
use redisgraph_server::{
    normalize, split_cypher_params, CachedPlan, Command, GraphServer, Lookup, Metrics, PlanCache,
    RespClient, RespValue, RwLock, StreamDecoder,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests the traced run aims to replay (it stops early at its deadline).
const REPLAY_TARGET: usize = 3000;

/// One recorded call: the replayed request it belongs to, the layer, and
/// its start and end relative to the trace epoch.
pub struct Span {
    pub request: usize,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

/// Collects spans in memory; they are written out when the run ends.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new() }
    }

    /// Run `f` as span `name` of `request`; returns its result and duration
    /// in microseconds.
    fn span<T>(&mut self, request: usize, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span { request, name, start, end });
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self, roots: &[(usize, &Sample)], root_offset: Duration) -> String {
        let mut out = String::new();
        for (id, s) in roots {
            let start = root_offset + s.start;
            let _ = writeln!(
                out,
                "{{\"request\": {id}, \"name\": \"root:{}\", \"conn\": {}, \"start_us\": {:.3}, \
                 \"end_us\": {:.3}}}",
                s.op.shape.name(),
                s.conn,
                start.as_secs_f64() * 1e6,
                (start + s.latency).as_secs_f64() * 1e6
            );
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"request\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.request,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
        }
        out
    }
}

/// One replayed request's measurements, in microseconds.
#[derive(Default)]
pub struct Replayed {
    pub op: Option<Op>,
    /// The root span: the request under the concurrent closed-loop load.
    pub loaded_us: f64,
    /// The same request over TCP with nothing else in flight.
    pub tcp_us: f64,
    /// `RedisGraphServer::execute` in process.
    pub inproc_us: f64,
    /// Request encode, `StreamDecoder::feed` and reply encode (the wire
    /// side of the codec).
    pub wire_codec_us: f64,
    /// `commands::resultset_to_resp` (the server side of the codec).
    pub to_resp_us: f64,
    pub lookup_us: f64,
    pub parse_us: Option<f64>,
    pub plan_us: Option<f64>,
    pub bind_us: f64,
    /// `Graph::clone` + `GraphSnapshot::seal`, and the pending deltas folded
    /// into the sealed copy, when this request found a stale snapshot.
    pub seal: Option<(f64, usize)>,
    pub execute_us: f64,
    pub write_us: f64,
    pub traverse_us: f64,
    pub filter_us: f64,
    pub aggregate_us: f64,
    pub records: usize,
    pub rows: usize,
    pub kernel_us: Option<f64>,
    pub baseline_us: Option<f64>,
    /// Replies of the three paths that answered the request.
    pub answers: Vec<Outcome>,
    /// `GRAPH.QUERY` requests the replay sent to the server (TCP and in
    /// process).
    pub sent: usize,
}

impl Replayed {
    /// The layer calls inside `execute`.
    fn layers_us(&self) -> f64 {
        self.lookup_us
            + self.parse_us.unwrap_or(0.0)
            + self.plan_us.unwrap_or(0.0)
            + self.bind_us
            + self.execute_us
            + self.write_us
            + self.to_resp_us
    }

    fn seal_us(&self) -> f64 {
        self.seal.map_or(0.0, |s| s.0)
    }

    /// TCP minus in-process `execute` minus the wire codec.
    pub fn rtt_self_us(&self) -> f64 {
        self.tcp_us - self.inproc_us - self.wire_codec_us
    }

    /// In-process `execute` minus the layer calls below it.
    pub fn dispatch_self_us(&self) -> f64 {
        self.inproc_us - self.layers_us()
    }

    /// Loaded TCP minus isolated TCP minus the snapshot rebuild: the rebuild
    /// a write forces is paid by a read of the loaded run but by none of the
    /// replay's rungs (each read keeps its faster run), so it is counted
    /// once, as `store.seal`.
    pub fn unattributed_us(&self) -> f64 {
        self.loaded_us - self.tcp_us - self.seal_us()
    }
}

/// Replays requests against the live server of the run, mirroring the
/// server's read path with its public pieces: its own plan cache (same
/// capacity, private counters) and its own per-epoch snapshot.
pub struct Replayer<'a> {
    net: &'a GraphServer,
    graph: Arc<RwLock<Graph>>,
    cache: PlanCache,
    cache_metrics: Metrics,
    snapshot: Option<Arc<GraphSnapshot>>,
    client: RespClient,
    oracle: &'a Oracle,
    /// Rung runs of literal point reads so far (see [`Replayer::query`]).
    runs: u64,
}

impl<'a> Replayer<'a> {
    pub fn new(net: &'a GraphServer, oracle: &'a Oracle) -> std::io::Result<Replayer<'a>> {
        let server = net.server();
        Ok(Replayer {
            net,
            graph: server.graph(GRAPH),
            cache: PlanCache::new(server.plan_cache_size()),
            cache_metrics: Metrics::default(),
            snapshot: None,
            client: RespClient::connect(net.local_addr())?,
            oracle,
            runs: 0,
        })
    }

    /// The query text of one rung's run of `op`. A literal point read names
    /// its count column afresh on every run (`AS c<run>`), so each run, like
    /// the literal reads of the loaded window, misses both the server's plan
    /// cache and the replay's own and pays parse, plan and insert; otherwise
    /// the first rung would warm the cache for the rest.
    fn query(&mut self, op: &Op) -> String {
        let text = op.query();
        if op.shape != Shape::PointLiteral {
            return text;
        }
        self.runs += 1;
        format!("{text} AS c{}", self.runs)
    }

    /// Replay root span `root` as request `id`.
    pub fn replay(&mut self, rec: &mut Recorder, id: usize, root: &Sample) -> Replayed {
        let op = root.op;
        let mut r = Replayed {
            op: Some(op),
            loaded_us: root.latency.as_secs_f64() * 1e6,
            ..Replayed::default()
        };

        // Wire rung: the request alone on the socket. Every read rung runs
        // twice and keeps the faster run: the first TCP trip also warms the
        // caches the later rungs read through, and a rung that picked the
        // better of two runs is not compared against one that had a single
        // try. A write runs once per rung.
        let write = op.shape.is_write();
        let tries = if write { 1 } else { 2 };
        let mut reply = RespValue::Null;
        r.tcp_us = f64::INFINITY;
        let mut request = Vec::new();
        for _ in 0..tries {
            let query = self.query(&op);
            let parts = ["GRAPH.QUERY", GRAPH, query.as_str()];
            let (got, us) = rec.span(id, "conn.tcp_isolated", || self.client.command(&parts));
            request = RespValue::command(&parts).encode();
            if us < r.tcp_us {
                r.tcp_us = us;
                reply = got.unwrap_or_else(|e| RespValue::Error(format!("io: {e}")));
            }
        }
        r.sent = 2 * tries;
        r.answers.push(classify(&op, &reply));
        // Each write rung must find the live graph shared with a sealed
        // snapshot, as every write of the loaded run does (a read sealed
        // one since the connection's previous write), so each pays the same
        // copy-on-write; the first rung alone would pay it otherwise.
        if write {
            self.seal(rec, id, None);
        }

        // The wire side of the codec, on the same frames.
        let query = self.query(&op);
        let parts = ["GRAPH.QUERY", GRAPH, query.as_str()];
        let (_, req_encode) =
            rec.span(id, "resp.request_encode", || RespValue::command(&parts).encode());
        let (_, feed) = rec.span(id, "resp.feed", || StreamDecoder::new().feed(&request));
        let (_, reply_encode) = rec.span(id, "resp.reply_encode", || reply.encode());
        r.wire_codec_us = req_encode + feed + reply_encode;

        // Dispatch rung: the whole server path, in process.
        let server = self.net.server();
        r.inproc_us = f64::INFINITY;
        for _ in 0..tries {
            let command = Command::GraphQuery { graph: GRAPH.to_string(), query: self.query(&op) };
            let (got, us) = rec.span(id, "server.execute", || server.execute(command));
            if us < r.inproc_us {
                r.inproc_us = us;
                reply = got;
            }
        }
        r.answers.push(classify(&op, &reply));
        if write {
            self.seal(rec, id, None);
        }

        // Layer rung: the public pieces `execute` is made of.
        let query = self.query(&op);
        let layered = self.layers(rec, id, &op, &query, &mut r);
        r.answers.push(classify(&op, &layered));
        if write {
            // The rebuild this write forces on the next read, timed.
            self.seal(rec, id, Some(&mut r));
        }
        r
    }

    fn layers(
        &mut self,
        rec: &mut Recorder,
        id: usize,
        op: &Op,
        query: &str,
        r: &mut Replayed,
    ) -> RespValue {
        let err = |e: &dyn std::fmt::Display| RespValue::Error(format!("ERR {e}"));
        let (looked_up, lookup_us) = rec.span(id, "plan_cache.lookup", || {
            split_cypher_params(query).map(|(params, body)| {
                let key = normalize(body);
                let found = self.cache.lookup(&key, &self.cache_metrics);
                (params, body, key, found)
            })
        });
        r.lookup_us = lookup_us;
        let (params, body, key, found) = match looked_up {
            Ok(parts) => parts,
            Err(e) => return err(&e),
        };
        let skeleton = match found {
            Lookup::Hit(skeleton) => skeleton,
            Lookup::Miss(generation) => {
                let (ast, parse_us) = rec.span(id, "cypher.parse", || cypher::parse(body));
                r.parse_us = Some(parse_us);
                let ast = match ast {
                    Ok(ast) => ast,
                    Err(e) => return err(&e),
                };
                let graph = &self.graph;
                let (plan, plan_us) = rec.span(id, "exec.plan", || graph.read().build_plan(&ast));
                r.plan_us = Some(plan_us);
                let plan = match plan {
                    Ok(plan) => plan,
                    Err(e) => return err(&e),
                };
                let skeleton = Arc::new(CachedPlan {
                    read_only: ast.is_read_only(),
                    has_params: plan.has_params(),
                    plan: Arc::new(plan),
                    optimized: graph.read().optimizer_enabled(),
                });
                self.cache.insert(key, Arc::clone(&skeleton), generation, &self.cache_metrics);
                skeleton
            }
        };
        let bound: ExecutionPlan;
        let plan: &ExecutionPlan = if skeleton.has_params {
            let (b, bind_us) = rec.span(id, "exec.bind", || skeleton.plan.bind(&params));
            r.bind_us = bind_us;
            match b {
                Ok(b) => {
                    bound = b;
                    &bound
                }
                Err(e) => return err(&e),
            }
        } else {
            &skeleton.plan
        };

        let result = if skeleton.read_only {
            let snapshot = self.snapshot(rec, id, r);
            let (result, first_us) =
                rec.span(id, "exec.execute", || snapshot.execute_plan_at(plan, Instant::now()));
            let (_, second_us) =
                rec.span(id, "exec.execute", || snapshot.execute_plan_at(plan, Instant::now()));
            r.execute_us = first_us.min(second_us);
            // Operator times come from a second, profiled execution: the
            // profile sink would otherwise inflate `exec.execute`.
            if let Ok((rs, profiles)) = snapshot.profile_plan_at(plan, Instant::now()) {
                r.rows = rs.rows.len();
                add_operator_times(r, &profiles);
            }
            if let Some(k) = op.shape.hops() {
                let (_, kernel_us) =
                    rec.span(id, "graphblas.khop", || snapshot.khop_count(op.node, k));
                r.kernel_us = Some(kernel_us);
                let baseline = self.oracle.baseline();
                let (_, baseline_us) =
                    rec.span(id, "baseline.khop", || baseline.khop_count(op.node, k));
                r.baseline_us = Some(baseline_us);
            }
            result
        } else {
            let graph = &self.graph;
            let (result, write_us) = rec.span(id, "store.write", || {
                let mut g = graph.write();
                plan.execute_at(&mut g, Instant::now())
            });
            r.write_us = write_us;
            result
        };
        match result {
            Ok(rs) => {
                let (reply, to_resp_us) =
                    rec.span(id, "resp.resultset_to_resp", || resultset_to_resp(&rs));
                r.to_resp_us = to_resp_us;
                reply
            }
            Err(e) => err(&e),
        }
    }

    /// The sealed snapshot of the graph's current epoch. The replay keeps
    /// it current after every write (see [`Replayer::seal`]), so a read
    /// finds it stale only on the first replayed request.
    fn snapshot(&mut self, rec: &mut Recorder, id: usize, r: &mut Replayed) -> Arc<GraphSnapshot> {
        match &self.snapshot {
            Some(s) if s.epoch() == self.graph.read().epoch() => Arc::clone(s),
            _ => self.seal(rec, id, Some(r)),
        }
    }

    /// `Graph::clone` under the read lock, then `GraphSnapshot::seal`: what
    /// the server does when a read finds its snapshot stale. Timed as
    /// `store.seal` (with the pending deltas the copy carries) when `r` is
    /// given.
    fn seal(
        &mut self,
        rec: &mut Recorder,
        id: usize,
        r: Option<&mut Replayed>,
    ) -> Arc<GraphSnapshot> {
        let graph = self.graph.read();
        let pending = graph.pending_delta_count();
        let sealed = match r {
            Some(r) => {
                let (sealed, us) =
                    rec.span(id, "store.seal", || Arc::new(GraphSnapshot::seal(graph.clone())));
                r.seal = Some((us, pending));
                sealed
            }
            None => Arc::new(GraphSnapshot::seal(graph.clone())),
        };
        drop(graph);
        self.snapshot = Some(Arc::clone(&sealed));
        sealed
    }
}

/// Sum profiled operator times by kind.
fn add_operator_times(r: &mut Replayed, profiles: &[OpProfile]) {
    for p in profiles {
        let us = p.elapsed.as_secs_f64() * 1e6;
        let kind = p.description.split(" |").next().unwrap_or("");
        match kind {
            "Conditional Traverse" | "Expand Into" => r.traverse_us += us,
            "Filter" => r.filter_us += us,
            "Aggregate" => r.aggregate_us += us,
            _ => {}
        }
        r.records += p.records_produced;
    }
}

/// Answers among a replay's three that failed or, when `oracle` is given
/// (no write has touched the graph since it was loaded), disagree with it.
pub fn bad_answers(r: &Replayed, oracle: Option<&Oracle>) -> usize {
    let Some(op) = r.op else { return 0 };
    let expected = oracle.filter(|_| !op.shape.is_write()).map(|o| o.expected(&op) as i64);
    r.answers
        .iter()
        .filter(|a| match (a, expected) {
            (Outcome::Failed(_), _) => true,
            (Outcome::Read(v), Some(e)) => *v != Some(e),
            _ => false,
        })
        .count()
}

/// The traced run: untraced window, traced window, oracle checks, replay.
pub fn traced(
    args: &Args,
    run: &mut Run,
    net: &GraphServer,
    poll: &mut RespClient,
) -> Result<(), String> {
    let Run { streams, oracle, tally, metrics, samples } = run;
    let addr = net.local_addr();
    // A quarter of the run untraced, a quarter traced, half replaying.
    let phase = Duration::from_secs_f64(args.seconds * 0.25);
    let untraced = load::run(addr, streams, phase, OpStream::next_op);
    check_window(&untraced, oracle, tally);
    let epoch = Instant::now();
    let info_before = info(poll)?;
    let root_offset = epoch.elapsed();
    let traced = load::run(addr, streams, phase, OpStream::next_op);
    let info_after = info(poll)?;
    check_window(&traced, oracle, tally);
    check_final_state(addr, oracle, tally)?;

    // Replay an evenly strided sample of the traced requests, in send order,
    // until the replay budget runs out. The graph no longer matches the
    // oracle once a replayed write lands twice, so replayed answers are
    // checked only on the read-only workloads.
    let mut order: Vec<(usize, &Sample)> = traced.iter().enumerate().collect();
    order.sort_by_key(|(_, s)| s.start);
    let stride = (order.len() / REPLAY_TARGET).max(1);
    let info_replay = info(poll)?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * 0.5);
    let mut rec = Recorder::new(epoch);
    let mut replayed: Vec<(usize, Replayed)> = Vec::new();
    {
        let mut replayer =
            Replayer::new(net, oracle).map_err(|e| format!("replay connect: {e}"))?;
        let check = (args.workload != Workload::MixedRw).then_some(&*oracle);
        for &(id, root) in order.iter().step_by(stride) {
            if Instant::now() > deadline && !replayed.is_empty() {
                break;
            }
            let r = replayer.replay(&mut rec, id, root);
            let bad = bad_answers(&r, check);
            if bad > 0 {
                tally.failed += 1;
                tally.problem(format!(
                    "replay of {} on node {} disagreed: {:?}",
                    root.op.shape.name(),
                    root.op.node,
                    r.answers
                ));
            }
            replayed.push((id, r));
        }
    }
    let sent: usize = replayed.iter().map(|(_, r)| r.sent).sum();
    tally.attempted += sent;
    cross_check("replay", &info_replay, &info(poll)?, sent, tally);

    let roots: Vec<(usize, &Sample)> = traced.iter().enumerate().collect();
    let spans_dir = repo_root().join(".perfbench");
    let spans_path = spans_dir.join(format!("spans-{}.jsonl", args.workload.name()));
    std::fs::create_dir_all(&spans_dir)
        .and_then(|()| std::fs::write(&spans_path, rec.to_jsonl(&roots, root_offset)))
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let untraced_p50 = stats::median(&latencies(&untraced));
    let traced_all = latencies(&traced);
    let traced_p50 = stats::median(&traced_all);
    layer_metrics(metrics, &replayed, &traced, &info_before, &info_after);
    metrics.add("trace.untraced_p50_us", untraced_p50, "us", untraced.len());
    metrics.add("trace.client_p50_us", traced_p50, "us", traced_all.len());
    metrics.add(
        "trace.overhead_ratio",
        stats::ratio(traced_p50, untraced_p50),
        "ratio",
        traced_all.len(),
    );
    let failed =
        untraced.iter().chain(&traced).filter(|s| matches!(s.outcome, Outcome::Failed(_))).count();
    let total = untraced.len() + traced.len();
    samples.extend([
        ("untraced_requests", untraced.len()),
        ("traced_requests", traced.len()),
        ("window_failures", failed),
        ("window_requests", total),
        ("replayed", replayed.len()),
        ("replay_stride", stride),
        ("spans", rec.spans.len() + roots.len()),
    ]);
    println!("spans written to {}", spans_path.display());
    Ok(())
}

/// The per-layer metrics of a traced run.
///
/// Self times are means per replayed request (a layer that runs on one
/// request in four contributes a quarter of its per-call time), so they add
/// up: `conn.rtt_self_us + resp.codec_us + server.dispatch_self_us +
/// plan_cache.lookup_us + cypher.parse_us + exec.plan_us + exec.bind_us +
/// exec.execute_us + store.seal_us + store.write_us + unattributed_us =
/// trace.client_mean_us`, the mean loaded latency of the replayed requests.
fn layer_metrics(
    m: &mut Report,
    replayed: &[(usize, Replayed)],
    traced: &[Sample],
    before: &BTreeMap<String, i64>,
    after: &BTreeMap<String, i64>,
) {
    let n = replayed.len();
    let rs: Vec<&Replayed> = replayed.iter().map(|(_, r)| r).collect();
    let share =
        |f: &dyn Fn(&Replayed) -> f64| stats::mean(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let per_call = |f: &dyn Fn(&Replayed) -> Option<f64>| {
        let v: Vec<f64> = rs.iter().filter_map(|r| f(r)).collect();
        (stats::mean(&v), v.len())
    };
    let delta =
        |k: &str| (after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0)) as f64;
    let ops = traced.len().max(1) as f64;

    let rtt = share(&|r| r.rtt_self_us());
    let codec = share(&|r| r.wire_codec_us + r.to_resp_us);
    let dispatch = share(&|r| r.dispatch_self_us());
    let lookup = share(&|r| r.lookup_us);
    let parse = share(&|r| r.parse_us.unwrap_or(0.0));
    let plan = share(&|r| r.plan_us.unwrap_or(0.0));
    let bind = share(&|r| r.bind_us);
    let execute = share(&|r| r.execute_us);
    let seal = share(&|r| r.seal_us());
    let write = share(&|r| r.write_us);
    let client_mean = share(&|r| r.loaded_us);
    let unattributed = share(&|r| r.unattributed_us());
    let rows: usize = rs.iter().map(|r| r.rows).sum();
    let records: usize = rs.iter().map(|r| r.records).sum();
    let (parse_per_miss, misses) = per_call(&|r| r.parse_us);
    let (plan_per_miss, _) = per_call(&|r| r.plan_us);
    let (pending, seals) = per_call(&|r| r.seal.map(|s| s.1 as f64));

    m.add("conn.rtt_self_us", rtt, "us", n);
    m.add("resp.codec_us", codec, "us", n);
    m.add(
        "resp.bytes_per_op",
        (delta("bytes_in") + delta("bytes_out")) / ops,
        "bytes",
        traced.len(),
    );
    m.add("server.dispatch_self_us", dispatch, "us", n);
    m.add("plan_cache.lookup_us", lookup, "us", n);
    let (hits, misses_info) = (delta("plan_cache_hits"), delta("plan_cache_misses"));
    m.add(
        "plan_cache.hit_ratio",
        stats::ratio(hits, hits + misses_info),
        "ratio",
        (hits + misses_info) as usize,
    );
    m.add(
        "plan_cache.evictions_per_kop",
        delta("plan_cache_evictions") * 1000.0 / ops,
        "count/kop",
        traced.len(),
    );
    m.add("cypher.parse_us", parse, "us", n);
    m.add("cypher.parse_per_miss_us", parse_per_miss, "us", misses);
    m.add("exec.plan_us", plan, "us", n);
    m.add("exec.plan_per_miss_us", plan_per_miss, "us", misses);
    m.add("exec.bind_us", bind, "us", n);
    m.add("exec.execute_us", execute, "us", n);
    m.add("exec.traverse_us", share(&|r| r.traverse_us), "us", n);
    m.add("exec.filter_us", share(&|r| r.filter_us), "us", n);
    m.add("exec.aggregate_us", share(&|r| r.aggregate_us), "us", n);
    m.add("exec.records_per_row", stats::ratio(records as f64, rows as f64), "records/row", rows);
    let (snap_hits, rebuilds) = (delta("snapshot_hits"), delta("snapshot_rebuilds"));
    m.add(
        "store.snapshot_hit_ratio",
        stats::ratio(snap_hits, snap_hits + rebuilds),
        "ratio",
        (snap_hits + rebuilds) as usize,
    );
    m.add("store.seal_us", seal, "us", n);
    m.add("store.pending_deltas", pending, "count", seals);
    m.add("store.write_us", write, "us", n);
    m.add("store.delta_flushes", delta("delta_flushes"), "count", traced.len());
    m.add("unattributed_us", unattributed, "us", n);
    m.add("trace.client_mean_us", client_mean, "us", n);

    // The latency ladder over the requests that count a k-hop
    // neighbourhood (k = 1 for point reads): each rung the mean time per
    // request, the paper's average response time, on the same requests.
    let hop: Vec<&&Replayed> = rs.iter().filter(|r| r.kernel_us.is_some()).collect();
    let rung =
        |f: &dyn Fn(&Replayed) -> f64| stats::mean(&hop.iter().map(|r| f(r)).collect::<Vec<_>>());
    let baseline = rung(&|r| r.baseline_us.unwrap_or(0.0));
    let kernel = rung(&|r| r.kernel_us.unwrap_or(0.0));
    let tcp = rung(&|r| r.tcp_us);
    m.add("baseline.khop_us", baseline, "us", hop.len());
    m.add("graphblas.khop_us", kernel, "us", hop.len());
    m.add("ladder.executor_us", rung(&|r| r.execute_us), "us", hop.len());
    m.add("ladder.inproc_us", rung(&|r| r.inproc_us), "us", hop.len());
    m.add("ladder.tcp_us", tcp, "us", hop.len());
    m.add("ladder.tcp_loaded_us", rung(&|r| r.loaded_us), "us", hop.len());
    m.add("ladder.speedup_kernel_x", stats::ratio(baseline, kernel), "x", hop.len());
    m.add("ladder.speedup_tcp_x", stats::ratio(baseline, tcp), "x", hop.len());
}
