//! Where the graph lives during a run: a `GraphServer` in this process (the
//! traced run, whose replay calls into it), or one in a child process of its
//! own (the untraced run, so that its peak resident set is the graph's).

use crate::load;
use crate::load::Outcome;
use perfbench::workload::{self, GRAPH};
use perfbench::{Op, Shape, Workload};
use redisgraph_server::{GraphServer, RedisGraphServer, RespClient, RespValue, ServerConfig};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a child server may take to exit once asked to.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// The default server configuration, with the workload's delta-threshold
/// override.
fn config(workload: Workload) -> ServerConfig {
    let mut config = ServerConfig::default();
    if let Some(threshold) = workload.delta_threshold() {
        config.delta_max_pending_changes = threshold;
    }
    config
}

/// Generate the graph of `seed`, bulk-load it, and bind a loopback server.
pub fn load(workload: Workload, seed: u64) -> Result<GraphServer, String> {
    let edges = workload::generate_graph(seed);
    let server = Arc::new(RedisGraphServer::new(config(workload)));
    server.graph(GRAPH).write().bulk_load(edges.num_vertices, &edges.edges);
    GraphServer::bind_with("127.0.0.1:0", server).map_err(|e| format!("bind: {e}"))
}

pub fn connect(addr: SocketAddr) -> Result<RespClient, String> {
    RespClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

pub fn command(client: &mut RespClient, parts: &[&str]) -> Result<RespValue, String> {
    client.command(parts).map_err(|e| format!("{}: {e}", parts[0]))
}

/// Put the workload's parameterized plans in the plan cache (`EXPLAIN`
/// plans without executing) and seal the snapshot of the loaded epoch with
/// one read.
pub fn warm(addr: SocketAddr, workload: Workload) -> Result<(), String> {
    let mut client = connect(addr)?;
    for &shape in workload.cached_shapes() {
        let op = Op { shape, node: 0, arg: 1 };
        let reply = command(&mut client, &["GRAPH.EXPLAIN", GRAPH, &op.query()])?;
        if !matches!(reply, RespValue::Array(_)) {
            return Err(format!("warm-up EXPLAIN of {}: {reply}", shape.name()));
        }
    }
    let read = Op { shape: Shape::PointParam, node: 0, arg: 0 };
    match load::send(&mut client, &read).map_err(|e| format!("warm-up read: {e}"))? {
        Outcome::Read(_) => Ok(()),
        other => Err(format!("warm-up read: {other:?}")),
    }
}

/// The child side: load, print the bound address, serve until `SHUTDOWN`
/// or until the parent closes our stdin.
pub fn serve(workload: Workload, seed: u64) -> Result<(), String> {
    let net = load(workload, seed)?;
    println!("{}", net.local_addr());
    let flag = net.shutdown_flag();
    std::thread::spawn(move || {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        flag.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    net.wait();
    Ok(())
}

/// A server running in a child process.
pub struct ChildServer {
    child: Child,
    pub addr: SocketAddr,
}

impl ChildServer {
    /// Start a child serving the graph of `seed`, and wait until it listens.
    pub fn spawn(workload: Workload, seed: u64) -> Result<ChildServer, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--serve", "--workload", workload.name(), "--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let read = child.stdout.take().map(|out| BufReader::new(out).read_line(&mut line));
        let mut server = ChildServer { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        match (read, line.trim().parse()) {
            (Some(Ok(_)), Ok(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("server child did not report its address (got `{}`)", line.trim())),
        }
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn rss_peak_mib(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// Ask the child to shut down gracefully and wait for it.
    pub fn stop(mut self) -> Result<(), String> {
        let mut client = connect(self.addr)?;
        let reply = command(&mut client, &["SHUTDOWN"])?;
        drop(client);
        if matches!(reply, RespValue::Error(_)) {
            return Err(format!("SHUTDOWN refused: {reply}"));
        }
        match self.wait_exit() {
            Some(status) if status.success() => Ok(()),
            Some(status) => Err(format!("server child exited with {status}")),
            None => Err("server child did not exit after SHUTDOWN".to_string()),
        }
    }

    /// Close the child's stdin and wait for it to exit; `None` on timeout.
    fn wait_exit(&mut self) -> Option<std::process::ExitStatus> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return None,
            }
        }
    }
}

impl Drop for ChildServer {
    /// Whatever happened, the child is gone when its handle is.
    fn drop(&mut self) {
        if self.wait_exit().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
