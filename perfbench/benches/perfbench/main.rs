//! The repository benchmark.
//!
//! ```text
//! cargo bench --manifest-path perfbench/Cargo.toml --bench perfbench -- \
//!     --workload point_read|khop|mixed_rw --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates a Graph500 RMAT graph from the seed, bulk-loads it into
//! a `GraphServer` with the default `ServerConfig` on a loopback port, and
//! drives it with two closed-loop client connections (one thread each,
//! unpipelined). Every reply is checked against the `baseline` adjacency-list
//! engine, and `GRAPH.INFO` is cross-checked against the requests sent.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the workload
//! untraced and then traced (client root spans), replays a sample of the
//! traced requests one at a time through each module's public entry points,
//! and reports the per-layer metrics. The last stdout line is the result
//! object; the lines above it are the provenance and a metric table.

mod check;
mod load;
mod server;
mod trace;

use check::{await_idle, check_final_state, check_window, cross_check, info, Tally};
use load::{Outcome, Sample};
use perfbench::json::Json;
use perfbench::workload::{self, CONNECTIONS};
use perfbench::{stats, OpStream, Oracle, Workload};
use redisgraph_server::{RespClient, RespValue};
use server::{command, connect, ChildServer};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Most slices a window is cut into; the end-to-end figures are medians
/// over slices.
const CHUNKS: usize = 30;
/// Share of `--seconds` the write probe of the read-only workloads takes;
/// their load window gets the rest. The probe drives both connections with
/// writes alone, closed loop, as the window drives them with reads, so that
/// no core idles between a write's hops.
const PROBE_SHARE: f64 = 0.2;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run as the server child of an untraced run.
    serve: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        // `cargo bench` appends `--bench` to a harness-less bench's arguments.
        if flag == "--bench" {
            continue;
        }
        if flag == "--serve" {
            serve = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad("expected one of point_read, khop, mixed_rw"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("expected a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        serve,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.serve {
        if let Err(e) = server::serve(args.workload, args.seed) {
            eprintln!("perfbench server: {e}");
            std::process::exit(1);
        }
        return;
    }
    match run(&args) {
        Ok(result) => println!("{}", result.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Every metric of a run, in the order reported.
#[derive(Default)]
pub struct Report(Vec<Metric>);

/// What a run carries from set-up to its result.
pub struct Run {
    pub streams: Vec<OpStream>,
    pub oracle: Oracle,
    pub tally: Tally,
    pub metrics: Report,
    /// Sample counts, for the provenance.
    pub samples: Vec<(&'static str, usize)>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric { name, value, unit, samples });
    }

    fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            out.push_str(&format!(
                "{:<28} {:>16.4} {:<10} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out
    }

    fn json(&self) -> Json {
        Json::obj(self.0.iter().map(|m| {
            (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
        }))
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A request's latency in µs; a failed request counts as slower than every
/// other.
fn latency_us(s: &Sample) -> f64 {
    match s.outcome {
        Outcome::Failed(_) => f64::INFINITY,
        _ => us(s.latency),
    }
}

/// Latencies in µs of every sample.
pub fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(latency_us).collect()
}

fn is_read(s: &Sample) -> bool {
    !s.op.shape.is_write()
}

fn is_write(s: &Sample) -> bool {
    s.op.shape.is_write()
}

/// The checkout the benchmark was built in.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The commit checked out, when the checkout is a git work tree.
fn git_sha() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(
    args: &Args,
    server_config: &RespValue,
    graph: &datagen::EdgeList,
    samples: Vec<(&'static str, usize)>,
) -> Json {
    let config = match server_config {
        RespValue::Array(pairs) => Json::obj(pairs.iter().filter_map(|p| match p {
            RespValue::Array(kv) => match kv.as_slice() {
                [RespValue::BulkString(k), RespValue::Integer(v)] => {
                    Some((k.clone(), Json::Int(*v)))
                }
                _ => None,
            },
            _ => None,
        })),
        other => Json::str(other.to_string()),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("why", Json::str(args.workload.why())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc as i64)),
        ("git_sha", Json::str(git_sha())),
        ("build_profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("server_config", config),
        (
            "delta_threshold_override",
            args.workload
                .delta_threshold()
                .map_or(Json::Str("none".into()), |t| Json::Int(t as i64)),
        ),
        (
            "graph",
            Json::obj([
                ("generator", Json::str("datagen::rmat (Graph500 a=0.57 b=0.19 c=0.19)")),
                ("scale", Json::Int(workload::SCALE as i64)),
                ("edge_factor", Json::Int(workload::EDGE_FACTOR as i64)),
                ("nodes", Json::Int(graph.num_vertices as i64)),
                ("edges_loaded", Json::Int(graph.distinct_edge_count() as i64)),
            ]),
        ),
        ("connections", Json::Int(CONNECTIONS as i64)),
        ("samples", Json::obj(samples.into_iter().map(|(k, n)| (k, Json::Int(n as i64))))),
    ])
}

fn run(args: &Args) -> Result<Json, String> {
    let w = args.workload;
    let edges = workload::generate_graph(args.seed);
    let oracle = Oracle::new(&edges);
    let sources = Arc::new(workload::khop_sources(&edges, oracle.baseline(), args.seed));
    let streams = (0..CONNECTIONS)
        .map(|c| OpStream::new(w, args.seed, c, edges.num_vertices, Arc::clone(&sources)))
        .collect();
    let mut run = Run {
        streams,
        oracle,
        tally: Tally::default(),
        metrics: Report::default(),
        samples: Vec::new(),
    };

    let server_config = if args.trace {
        let net = server::load(w, args.seed)?;
        server::warm(net.local_addr(), w)?;
        let mut poll = connect(net.local_addr())?;
        let config = command(&mut poll, &["GRAPH.CONFIG", "GET", "*"])?;
        let info_start = info(&mut poll)?;
        trace::traced(args, &mut run, &net, &mut poll)?;
        let tally = &mut run.tally;
        cross_check("run", &info_start, &info(&mut poll)?, tally.attempted, tally);
        await_idle(&mut poll, tally)?;
        let error_rate = stats::ratio(tally.failed as f64, tally.attempted as f64);
        run.metrics.add("error_rate", error_rate, "ratio", tally.attempted);
        drop(poll);
        net.shutdown();
        config
    } else {
        // Set up several times; the last server stays up for the load.
        let mut setup_s = Vec::new();
        let mut child: Option<ChildServer> = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(previous) = child.take() {
                previous.stop()?;
            }
            let t0 = Instant::now();
            let started = ChildServer::spawn(w, args.seed)?;
            server::warm(started.addr, w)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            child = Some(started);
        }
        let child = child.expect("at least one set-up");
        let mut poll = connect(child.addr)?;
        let config = command(&mut poll, &["GRAPH.CONFIG", "GET", "*"])?;
        untraced(args, &mut run, &child, &mut poll)?;
        run.metrics.add("setup_s", stats::median(&setup_s), "s", setup_s.len());
        run.samples.push(("setups", setup_s.len()));
        drop(poll);
        child.stop()?;
        config
    };

    let Run { tally, metrics, samples, .. } = run;
    let provenance = provenance(args, &server_config, &edges, samples);
    println!("{}", Json::obj([("provenance", provenance)]).render());
    print!("{}", metrics.table());
    for p in &tally.problems {
        println!("problem: {p}");
    }
    Ok(Json::obj([
        ("correct", Json::Bool(tally.failed == 0 && tally.problems.is_empty())),
        ("attempted", Json::Int(tally.attempted as i64)),
        ("failed", Json::Int(tally.failed as i64)),
        ("metrics", metrics.json()),
    ]))
}

/// Completed requests per second: the median over the window's slices of
/// the requests each slice saw through. A request spanning slices counts in
/// each by the share of its time spent there, so a slice's count is not a
/// whole number even when requests take longer than a slice.
fn throughput(samples: &[Sample], span: Duration) -> f64 {
    let slice = span.as_secs_f64() / CHUNKS as f64;
    let mut done = vec![0.0; CHUNKS + 1];
    for s in samples.iter().filter(|s| !matches!(s.outcome, Outcome::Failed(_))) {
        let (start, end) = (s.start.as_secs_f64(), (s.start + s.latency).as_secs_f64());
        let first = (start / slice) as usize;
        let last = ((end / slice) as usize).max(first);
        for (j, d) in done.iter_mut().enumerate().take(last.min(CHUNKS) + 1).skip(first) {
            let overlap = end.min((j + 1) as f64 * slice) - start.max(j as f64 * slice);
            *d += if end > start { overlap.max(0.0) / (end - start) } else { 1.0 };
        }
    }
    // The extra slot holds requests that finished after the window closed.
    let rates: Vec<f64> = done[..CHUNKS].iter().map(|d| d / slice).collect();
    stats::median(&rates)
}

/// A latency quantile of the samples `keep` selects, in µs: the median
/// over equal slices of the window (by send time) of each slice's quantile,
/// so a burst of interference from elsewhere on the host moves one slice, not
/// the figure. The window is cut into as many slices, up to [`CHUNKS`], as
/// leave each at least ten samples beyond the quantile.
fn latency(samples: &[Sample], span: Duration, keep: fn(&Sample) -> bool, q: f64) -> f64 {
    let kept: Vec<&Sample> = samples.iter().filter(|s| keep(s)).collect();
    let slices = ((kept.len() as f64 * (1.0 - q) / 10.0) as usize).clamp(1, CHUNKS);
    let width = span.as_secs_f64() / slices as f64;
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for s in kept {
        let at = ((s.start.as_secs_f64() / width) as usize).min(slices - 1);
        per_slice[at].push(latency_us(s));
    }
    let quantiles: Vec<f64> =
        per_slice.iter().filter(|v| !v.is_empty()).map(|v| stats::quantile(v, q)).collect();
    stats::median(&quantiles)
}

/// The untraced run: the closed-loop window, the write probe of the
/// read-only workloads, and the checks.
fn untraced(
    args: &Args,
    run: &mut Run,
    child: &ChildServer,
    poll: &mut RespClient,
) -> Result<(), String> {
    let Run { streams, oracle, tally, metrics, samples } = run;
    let addr = child.addr;
    let info_start = info(poll)?;
    let read_only = args.workload != Workload::MixedRw;
    let share = if read_only { 1.0 - PROBE_SHARE } else { 1.0 };
    let span = Duration::from_secs_f64(args.seconds * share);
    let window = load::run(addr, streams, span, OpStream::next_op);
    // The peak of the workload itself: the write probe, whose write count
    // follows the host's speed, must not move it.
    let rss_peak_mb = child.rss_peak_mib();
    check_window(&window, oracle, tally);
    // Writes of the read-only workloads come from a probe after the window.
    let (writes, writes_span) = if read_only {
        let probe_span = Duration::from_secs_f64(args.seconds * PROBE_SHARE);
        let probe = load::run(addr, streams, probe_span, OpStream::next_write);
        check_window(&probe, oracle, tally);
        (probe, probe_span)
    } else {
        (window.clone(), span)
    };
    check_final_state(addr, oracle, tally)?;
    cross_check("run", &info_start, &info(poll)?, tally.attempted, tally);
    await_idle(poll, tally)?;

    let ok = |s: &Sample| !matches!(s.outcome, Outcome::Failed(_));
    let completed = window.iter().filter(|s| ok(s)).count();
    let reads = window.iter().filter(|s| is_read(s)).count();
    let writes_timed = writes.iter().filter(|s| is_write(s)).count();
    let qps = throughput(&window, span);
    metrics.add("qps", qps, "ops/s", completed);
    metrics.add("p50_us", latency(&window, span, is_read, 0.5), "us", reads);
    metrics.add("p99_us", latency(&window, span, is_read, 0.99), "us", reads);
    metrics.add("write_p50_us", latency(&writes, writes_span, is_write, 0.5), "us", writes_timed);
    metrics.add("rss_peak_mb", rss_peak_mb, "MiB", 1);
    samples.extend([
        ("window_requests", window.len()),
        ("reads", reads),
        ("writes_timed", writes_timed),
        ("max_slices", CHUNKS),
    ]);
    Ok(())
}
