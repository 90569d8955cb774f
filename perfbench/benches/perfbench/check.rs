//! The correctness checks every run makes: each reply against the oracle,
//! the final state against every acknowledged write, and `GRAPH.INFO`
//! against the requests sent.

use crate::load::{self, Outcome, Sample};
use crate::server::{command, connect};
use perfbench::workload::GRAPH;
use perfbench::{reply, Op, Oracle, Shape};
use redisgraph_server::RespClient;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How long the server may take to notice closed client connections.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// The integer counters of `GRAPH.INFO`.
pub fn info(client: &mut RespClient) -> Result<BTreeMap<String, i64>, String> {
    reply::info_counters(&command(client, &["GRAPH.INFO"])?)
}

/// Requests sent and failed, plus what went wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// Check a window's replies against the oracle and apply its acknowledged
/// writes. A read that raced with writes must lie between the oracle's
/// answer before and after the window; with no writes in the window, the
/// two are the same and the check is exact.
pub fn check_window(window: &[Sample], oracle: &mut Oracle, tally: &mut Tally) {
    // k-hop answers repeat across a window and cost a BFS each.
    let mut memo: HashMap<(Shape, u64), u64> = HashMap::new();
    let expected = |memo: &mut HashMap<(Shape, u64), u64>, oracle: &Oracle, op: &Op| {
        *memo.entry((op.shape, op.node)).or_insert_with(|| oracle.expected(op))
    };
    let before: Vec<Option<u64>> = window
        .iter()
        .map(|s| (!s.op.shape.is_write()).then(|| expected(&mut memo, oracle, &s.op)))
        .collect();
    let writes: Vec<&Op> =
        window.iter().filter(|s| s.outcome == Outcome::Written).map(|s| &s.op).collect();
    if !writes.is_empty() {
        writes.into_iter().for_each(|op| oracle.apply(op));
        memo.clear();
    }
    tally.attempted += window.len();
    for (s, lo) in window.iter().zip(before) {
        match (&s.outcome, lo) {
            (Outcome::Failed(e), _) => {
                tally.failed += 1;
                tally.problem(format!("{} on node {} failed: {e}", s.op.shape.name(), s.op.node));
            }
            (Outcome::Read(v), Some(lo)) => {
                let hi = expected(&mut memo, oracle, &s.op);
                if !v.is_some_and(|v| (lo as i64..=hi as i64).contains(&v)) {
                    tally.failed += 1;
                    tally.problem(format!(
                        "{} on node {} returned {v:?}, expected {lo}..={hi}",
                        s.op.shape.name(),
                        s.op.node
                    ));
                }
            }
            _ => {}
        }
    }
}

/// After the load: every created edge and every `SET` value must be in the
/// graph, exactly as the oracle applied them.
pub fn check_final_state(
    addr: SocketAddr,
    oracle: &Oracle,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut client = connect(addr)?;
    for (node, degree) in oracle.touched_degrees() {
        let op = Op { shape: Shape::PointParam, node, arg: 0 };
        tally.attempted += 1;
        let got = load::send(&mut client, &op).map_err(|e| format!("final check: {e}"))?;
        if got != Outcome::Read(Some(degree as i64)) {
            tally.failed += 1;
            tally.problem(format!(
                "node {node} has out-degree {got:?} after the run, expected {degree}"
            ));
        }
    }
    for (node, value) in oracle.props() {
        let q = format!("CYPHER k={node} MATCH (s:Node) WHERE id(s) = $k RETURN s.val");
        tally.attempted += 1;
        let got = reply::scalar(&command(&mut client, &["GRAPH.QUERY", GRAPH, &q])?);
        if got != Ok(Some(value)) {
            tally.failed += 1;
            tally.problem(format!("node {node} has val {got:?} after the run, expected {value}"));
        }
    }
    Ok(())
}

/// `GRAPH.INFO` must account for exactly the queries sent between two
/// snapshots.
pub fn cross_check(
    what: &str,
    before: &BTreeMap<String, i64>,
    after: &BTreeMap<String, i64>,
    sent: usize,
    tally: &mut Tally,
) {
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    let counted = delta("queries_executed") + delta("queries_failed");
    if counted != sent as i64 {
        tally.failed += 1;
        tally.problem(format!("{what}: GRAPH.INFO counted {counted} queries, {sent} were sent"));
    }
}

/// Wait until the polling client is the server's only connection.
pub fn await_idle(poll: &mut RespClient, tally: &mut Tally) -> Result<(), String> {
    let deadline = Instant::now() + IDLE_TIMEOUT;
    loop {
        let active = info(poll)?.get("connections_active").copied().unwrap_or(-1);
        if active == 1 {
            return Ok(());
        }
        if Instant::now() > deadline {
            tally.failed += 1;
            tally.problem(format!("{active} connections still active after the run, expected 1"));
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
