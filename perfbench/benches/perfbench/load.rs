//! The closed-loop load: one thread per connection, each sending its next
//! request only after the reply to the previous one arrived.

use perfbench::reply;
use perfbench::workload::GRAPH;
use perfbench::{Op, OpStream, Shape};
use redisgraph_server::{RespClient, RespValue};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A read's count (`None` for a `null` cell).
    Read(Option<i64>),
    /// A write the server acknowledged with the expected statistics.
    Written,
    /// An error reply, a malformed reply, or a broken connection.
    Failed(String),
}

/// One request as the client saw it: the root span of the traced run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Connection index.
    pub conn: usize,
    /// The request.
    pub op: Op,
    /// Send time, from the start of the window.
    pub start: Duration,
    /// Send to reply.
    pub latency: Duration,
    /// The reply, classified.
    pub outcome: Outcome,
}

/// Send one `GRAPH.QUERY` and classify the reply.
pub fn send(client: &mut RespClient, op: &Op) -> std::io::Result<Outcome> {
    let reply = client.command(&["GRAPH.QUERY", GRAPH, &op.query()])?;
    Ok(classify(op, &reply))
}

/// Classify a `GRAPH.QUERY` reply to `op`.
pub fn classify(op: &Op, reply: &RespValue) -> Outcome {
    if let RespValue::Error(e) = reply {
        return Outcome::Failed(e.clone());
    }
    let acknowledged = |stat: &str| match reply::statistic(reply, stat) {
        Some(1) => Outcome::Written,
        other => Outcome::Failed(format!("{stat}: {other:?} in {reply}")),
    };
    match op.shape {
        Shape::CreateEdge => acknowledged("Relationships created"),
        Shape::SetProp => acknowledged("Properties set"),
        _ => match reply::scalar(reply) {
            Ok(v) => Outcome::Read(v),
            Err(e) => Outcome::Failed(e),
        },
    }
}

/// Drive every stream over its own connection to `addr` for `duration`,
/// taking each request from the stream with `next`. Returns every request,
/// grouped by connection, each group in send order.
pub fn run(
    addr: SocketAddr,
    streams: &mut [OpStream],
    duration: Duration,
    next: fn(&mut OpStream) -> Op,
) -> Vec<Sample> {
    let start = Instant::now();
    let deadline = start + duration;
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(conn, stream)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut client = match RespClient::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            let op = next(stream);
                            samples.push(failed(conn, op, start, format!("connect: {e}")));
                            return samples;
                        }
                    };
                    while Instant::now() < deadline {
                        let op = next(stream);
                        let sent = Instant::now();
                        let result = send(&mut client, &op);
                        let latency = sent.elapsed();
                        let outcome = match result {
                            Ok(outcome) => outcome,
                            Err(e) => {
                                samples.push(failed(conn, op, start, format!("io: {e}")));
                                // A dropped connection is one failure; a
                                // refused reconnect ends this connection.
                                match RespClient::connect(addr) {
                                    Ok(c) => client = c,
                                    Err(_) => break,
                                }
                                continue;
                            }
                        };
                        samples.push(Sample { conn, op, start: sent - start, latency, outcome });
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    per_conn.into_iter().flatten().collect()
}

fn failed(conn: usize, op: Op, start: Instant, why: String) -> Sample {
    Sample {
        conn,
        op,
        start: start.elapsed(),
        latency: Duration::ZERO,
        outcome: Outcome::Failed(why),
    }
}
