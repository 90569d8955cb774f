//! The three workloads and the requests they send.
//!
//! Every run loads a fresh Graph500 RMAT graph (scale 14, edge factor 8)
//! generated from the run's seed, and each client connection draws its
//! requests from an [`OpStream`] seeded from the same seed and the
//! connection's index, so the request sequence is a pure function of the
//! seed.

use baseline::AdjacencyListGraph;
use datagen::{EdgeList, KhopWorkload, RmatConfig, SeedSelection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// log2 of the node count (16,384 nodes).
pub const SCALE: u32 = 14;
/// Generated edges per node (about 131k edges before deduplication).
pub const EDGE_FACTOR: u32 = 8;
/// The graph key every request names.
pub const GRAPH: &str = "perfbench";
/// Client connections: one thread each, unpipelined, closed loop.
pub const CONNECTIONS: usize = 2;
/// Size of the `khop` source pool drawn with [`SeedSelection::NonIsolated`].
const KHOP_SOURCE_POOL: usize = 4096;
/// One request in this many is a write on `mixed_rw`.
const MIXED_RW_WRITE_EVERY: u64 = 10;
/// One point read in this many sends its id as a literal instead of a
/// parameter, so it misses the plan cache.
const LITERAL_EVERY: u64 = 4;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1-hop `count(t)` from a uniform source; a quarter of the requests
    /// carry the id as a literal.
    PointRead,
    /// The paper's k-hop neighbourhood counts (k = 2, 3) and a fixed 2-hop
    /// chain, from non-isolated sources.
    Khop,
    /// Parameterized point reads with one write in ten per connection.
    MixedRw,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::PointRead, Workload::Khop, Workload::MixedRw];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::Khop => "khop",
            Workload::MixedRw => "mixed_rw",
        }
    }

    /// The one-line reason the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PointRead => {
                "cheap 1-hop counts: wire, dispatch, plan cache and parser do most of the work"
            }
            Workload::Khop => {
                "k-hop counts and a 2-hop chain: the executor and GraphBLAS kernels do the work"
            }
            Workload::MixedRw => {
                "point reads beside 1-in-10 writes: snapshot rebuilds and delta flushes in the store"
            }
        }
    }

    /// The `DELTA_MAX_PENDING_CHANGES` this workload runs with, when it
    /// overrides the server default. `mixed_rw` issues a few thousand edge
    /// creations per run, far fewer than the default threshold of 10,000
    /// pending changes per matrix, so at the default a run would never see a
    /// delta flush. At 256 a run spans dozens of flushes.
    pub fn delta_threshold(self) -> Option<usize> {
        match self {
            Workload::MixedRw => Some(256),
            Workload::PointRead | Workload::Khop => None,
        }
    }

    /// The request shapes whose plans the warm-up puts in the plan cache.
    pub fn cached_shapes(self) -> &'static [Shape] {
        match self {
            Workload::PointRead => &[Shape::PointParam],
            Workload::Khop => &[Shape::Khop2, Shape::Khop3, Shape::Chain2],
            Workload::MixedRw => &[Shape::PointParam, Shape::CreateEdge, Shape::SetProp],
        }
    }
}

/// The graph every run of `seed` loads.
pub fn generate_graph(seed: u64) -> EdgeList {
    datagen::rmat::generate(&RmatConfig {
        scale: SCALE,
        edge_factor: EDGE_FACTOR,
        seed,
        ..RmatConfig::default()
    })
}

/// The `khop` source pool: distinct non-isolated nodes drawn from `seed`,
/// in stratified order. The pool is sorted by each source's 2-hop path count
/// (a proxy for what a k-hop request from it costs) and then visited in
/// bit-reversed rank order, so every prefix of the sequence samples the cost
/// distribution evenly: a run that gets through a few hundred requests sees
/// the same spread of cheap and expensive sources as one that gets through
/// thousands.
pub fn khop_sources(graph: &EdgeList, adjacency: &AdjacencyListGraph, seed: u64) -> Vec<u64> {
    let mut pool = KhopWorkload::with_seed_count(
        2,
        graph.num_vertices,
        &graph.out_degrees(),
        SeedSelection::NonIsolated,
        seed,
        KHOP_SOURCE_POOL,
    )
    .seeds;
    let paths = |s: u64| -> usize {
        adjacency.out_neighbors(s).iter().map(|&m| adjacency.out_degree(m)).sum()
    };
    pool.sort_by_key(|&s| (paths(s), s));
    let bits = pool.len().next_power_of_two().trailing_zeros();
    (0..pool.len().next_power_of_two())
        .map(|i| if bits == 0 { 0 } else { i.reverse_bits() >> (usize::BITS - bits) })
        .filter(|&rank| rank < pool.len())
        .map(|rank| pool[rank])
        .collect()
}

/// The shape of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// `CYPHER k=… MATCH (s:Node)-[:LINK]->(t) WHERE id(s) = $k RETURN count(t)`
    PointParam,
    /// The same read with the id as a literal: a new plan-cache key each time.
    PointLiteral,
    /// `count(DISTINCT t)` over `[:LINK*1..2]` (k = 2).
    Khop2,
    /// `count(DISTINCT t)` over `[:LINK*1..3]` (k = 3).
    Khop3,
    /// `count(t)` over the fixed chain `(s)-[:LINK]->()-[:LINK]->(t)`.
    Chain2,
    /// `CREATE` of a `:LINK` edge between two existing nodes.
    CreateEdge,
    /// `SET` of the integer property `val`.
    SetProp,
}

impl Shape {
    /// The shape's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Shape::PointParam => "point_param",
            Shape::PointLiteral => "point_literal",
            Shape::Khop2 => "khop_2",
            Shape::Khop3 => "khop_3",
            Shape::Chain2 => "chain_2hop",
            Shape::CreateEdge => "create_edge",
            Shape::SetProp => "set_prop",
        }
    }

    /// True for the write shapes.
    pub fn is_write(self) -> bool {
        matches!(self, Shape::CreateEdge | Shape::SetProp)
    }

    /// The hop count of a read that counts a k-hop neighbourhood, which the
    /// GraphBLAS kernel and the baseline engine answer directly.
    pub fn hops(self) -> Option<u32> {
        match self {
            Shape::PointParam | Shape::PointLiteral => Some(1),
            Shape::Khop2 => Some(2),
            Shape::Khop3 => Some(3),
            Shape::Chain2 | Shape::CreateEdge | Shape::SetProp => None,
        }
    }
}

/// One request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What the request asks.
    pub shape: Shape,
    /// The source node of a read or an edge, or the node a `SET` writes.
    pub node: u64,
    /// The destination of a created edge, or the value a `SET` writes.
    pub arg: i64,
}

impl Op {
    /// The Cypher text sent with `GRAPH.QUERY`.
    pub fn query(&self) -> String {
        let n = self.node;
        match self.shape {
            Shape::PointParam => {
                format!("CYPHER k={n} MATCH (s:Node)-[:LINK]->(t) WHERE id(s) = $k RETURN count(t)")
            }
            Shape::PointLiteral => {
                format!("MATCH (s:Node)-[:LINK]->(t) WHERE id(s) = {n} RETURN count(t)")
            }
            Shape::Khop2 => format!(
                "CYPHER s={n} MATCH (s:Node)-[:LINK*1..2]->(t) WHERE id(s) = $s \
                 RETURN count(DISTINCT t)"
            ),
            Shape::Khop3 => format!(
                "CYPHER s={n} MATCH (s:Node)-[:LINK*1..3]->(t) WHERE id(s) = $s \
                 RETURN count(DISTINCT t)"
            ),
            Shape::Chain2 => format!(
                "CYPHER s={n} MATCH (s:Node)-[:LINK]->()-[:LINK]->(t) WHERE id(s) = $s \
                 RETURN count(t)"
            ),
            Shape::CreateEdge => format!(
                "CYPHER a={n} b={} MATCH (s:Node) WHERE id(s) = $a MATCH (t:Node) \
                 WHERE id(t) = $b CREATE (s)-[:LINK]->(t)",
                self.arg
            ),
            Shape::SetProp => {
                format!(
                    "CYPHER n={n} v={} MATCH (s:Node) WHERE id(s) = $n SET s.val = $v",
                    self.arg
                )
            }
        }
    }
}

/// The request sequence of one client connection.
pub struct OpStream {
    workload: Workload,
    conn: usize,
    rng: StdRng,
    issued: u64,
    writes: u64,
    /// `khop` requests issued per shape: the index into the source pool.
    per_shape: [u64; 3],
    nodes: u64,
    khop_sources: Arc<Vec<u64>>,
}

impl OpStream {
    /// The stream connection `conn` of a `workload` run with `seed` sends,
    /// over a graph of `nodes` nodes.
    pub fn new(
        workload: Workload,
        seed: u64,
        conn: usize,
        nodes: u64,
        khop_sources: Arc<Vec<u64>>,
    ) -> OpStream {
        let salt = (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        OpStream {
            workload,
            conn,
            rng: StdRng::seed_from_u64(seed ^ salt),
            issued: 0,
            writes: 0,
            per_shape: [0; 3],
            nodes,
            khop_sources,
        }
    }

    /// The next request of the workload.
    pub fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::PointRead => {
                let shape = if i % LITERAL_EVERY == LITERAL_EVERY - 1 {
                    Shape::PointLiteral
                } else {
                    Shape::PointParam
                };
                Op { shape, node: self.rng.gen_range(0..self.nodes), arg: 0 }
            }
            Workload::Khop => {
                // Each shape walks the stratified pool on its own; the two
                // connections take alternate positions, so together they
                // cover a prefix of the pool.
                const ROTATION: [Shape; 3] = [Shape::Khop2, Shape::Khop3, Shape::Chain2];
                let slot = (i as usize + self.conn) % ROTATION.len();
                let k = self.per_shape[slot];
                self.per_shape[slot] += 1;
                let pool = &self.khop_sources;
                let at = (k * CONNECTIONS as u64 + self.conn as u64) as usize % pool.len();
                Op { shape: ROTATION[slot], node: pool[at], arg: 0 }
            }
            Workload::MixedRw => {
                if i % MIXED_RW_WRITE_EVERY == MIXED_RW_WRITE_EVERY - 1 {
                    self.next_write()
                } else {
                    Op { shape: Shape::PointParam, node: self.rng.gen_range(0..self.nodes), arg: 0 }
                }
            }
        }
    }

    /// The next write: edge creations and property sets alternate. Writes
    /// touch only nodes whose id is congruent to the connection index modulo
    /// [`CONNECTIONS`], so connections write disjoint node sets and the final
    /// state is known whatever the interleaving.
    pub fn next_write(&mut self) -> Op {
        let w = self.writes;
        self.writes += 1;
        let per_conn = self.nodes / CONNECTIONS as u64;
        let node = self.rng.gen_range(0..per_conn) * CONNECTIONS as u64 + self.conn as u64;
        if w.is_multiple_of(2) {
            let mut dst = self.rng.gen_range(0..self.nodes);
            if dst == node {
                dst = (dst + 1) % self.nodes;
            }
            Op { shape: Shape::CreateEdge, node, arg: dst as i64 }
        } else {
            // Globally unique, so a stale value can never pass the check.
            let value = (w * CONNECTIONS as u64 + self.conn as u64 + 1) as i64;
            Op { shape: Shape::SetProp, node, arg: value }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64, conn: usize) -> OpStream {
        OpStream::new(workload, seed, conn, 1 << 10, Arc::new((0..100).collect()))
    }

    fn ops(workload: Workload, seed: u64) -> Vec<Op> {
        let mut s = stream(workload, seed, 0);
        (0..50).map(|_| s.next_op()).collect()
    }

    #[test]
    fn sequences_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(ops(w, 7), ops(w, 7));
        }
        // `khop` depends on the seed through its source pool alone.
        assert_ne!(ops(Workload::PointRead, 7), ops(Workload::PointRead, 8));
        assert_ne!(ops(Workload::MixedRw, 7), ops(Workload::MixedRw, 8));
    }

    #[test]
    fn khop_sources_are_a_stratified_permutation_of_the_pool() {
        let graph = generate_graph(3);
        let adjacency = AdjacencyListGraph::from_edge_list(graph.num_vertices, &graph.edges);
        let paths = |s: u64| -> usize {
            adjacency.out_neighbors(s).iter().map(|&m| adjacency.out_degree(m)).sum()
        };
        let sources = khop_sources(&graph, &adjacency, 3);
        let mut sorted = sources.clone();
        sorted.sort_by_key(|&s| (paths(s), s));
        sorted.dedup();
        assert_eq!(sorted.len(), sources.len());
        assert!(sources.iter().all(|&s| adjacency.out_degree(s) > 0));
        // Rank 0, then the median rank, then the quartiles.
        let n = sorted.len();
        assert_eq!(&sources[..4], &[sorted[0], sorted[n / 2], sorted[n / 4], sorted[3 * n / 4]]);
    }

    #[test]
    fn connections_write_disjoint_nodes() {
        for conn in 0..CONNECTIONS {
            let mut s = stream(Workload::MixedRw, 3, conn);
            for _ in 0..200 {
                let op = s.next_write();
                assert_eq!(op.node as usize % CONNECTIONS, conn);
                if op.shape == Shape::CreateEdge {
                    assert_ne!(op.arg as u64, op.node);
                }
            }
        }
    }

    #[test]
    fn mixes_follow_the_workload_definitions() {
        let mut s = stream(Workload::MixedRw, 1, 1);
        let ops: Vec<Op> = (0..100).map(|_| s.next_op()).collect();
        assert_eq!(ops.iter().filter(|o| o.shape.is_write()).count(), 10);
        let mut s = stream(Workload::PointRead, 1, 0);
        let ops: Vec<Op> = (0..100).map(|_| s.next_op()).collect();
        assert_eq!(ops.iter().filter(|o| o.shape == Shape::PointLiteral).count(), 25);
        let mut s = stream(Workload::Khop, 1, 0);
        let shapes: Vec<Shape> = (0..3).map(|_| s.next_op().shape).collect();
        assert_eq!(shapes, [Shape::Khop2, Shape::Khop3, Shape::Chain2]);
    }
}
