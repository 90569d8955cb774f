//! The independent answer key: the `baseline` adjacency-list engine built
//! from the same edge list, plus every acknowledged write.

use crate::workload::{Op, Shape};
use baseline::AdjacencyListGraph;
use datagen::EdgeList;
use std::collections::{BTreeMap, BTreeSet};

/// What the graph must answer.
pub struct Oracle {
    graph: AdjacencyListGraph,
    /// Sources of created edges.
    touched: BTreeSet<u64>,
    /// The last value each `SET` wrote.
    props: BTreeMap<u64, i64>,
}

impl Oracle {
    /// The oracle of a freshly loaded `graph` (duplicate edges and
    /// self-loops are dropped, as `Graph::bulk_load` drops them).
    pub fn new(graph: &EdgeList) -> Oracle {
        let graph = AdjacencyListGraph::from_edge_list(graph.num_vertices, &graph.edges);
        Oracle { graph, touched: BTreeSet::new(), props: BTreeMap::new() }
    }

    /// The baseline engine (the pointer-chasing rung of the latency ladder).
    pub fn baseline(&self) -> &AdjacencyListGraph {
        &self.graph
    }

    /// The answer to a read, against the loaded graph plus every write
    /// applied so far. A k-hop count is the baseline engine's: distinct
    /// nodes within `k` hops, the source excluded.
    pub fn expected(&self, op: &Op) -> u64 {
        let g = &self.graph;
        match op.shape {
            Shape::PointParam | Shape::PointLiteral => g.out_degree(op.node) as u64,
            Shape::Khop2 => g.khop_count(op.node, 2),
            Shape::Khop3 => g.khop_count(op.node, 3),
            Shape::Chain2 => g.out_neighbors(op.node).iter().map(|&m| g.out_degree(m) as u64).sum(),
            Shape::CreateEdge | Shape::SetProp => panic!("{} is not a read", op.shape.name()),
        }
    }

    /// Apply an acknowledged write.
    pub fn apply(&mut self, op: &Op) {
        match op.shape {
            Shape::CreateEdge => {
                self.graph.add_edge(op.node, op.arg as u64);
                self.touched.insert(op.node);
            }
            Shape::SetProp => {
                self.props.insert(op.node, op.arg);
            }
            _ => panic!("{} is not a write", op.shape.name()),
        }
    }

    /// Sources of created edges, each with its expected out-degree.
    pub fn touched_degrees(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.touched.iter().map(|&n| (n, self.graph.out_degree(n) as u64))
    }

    /// Nodes a `SET` wrote, each with the last value written.
    pub fn props(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        self.props.iter().map(|(&n, &v)| (n, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(shape: Shape, node: u64) -> Op {
        Op { shape, node, arg: 0 }
    }

    #[test]
    fn answers_reads_and_tracks_writes() {
        // 0→1, 0→2, 1→2, 2→0, duplicate 0→1 and self-loop 2→2 dropped.
        let edges = EdgeList {
            num_vertices: 4,
            edges: vec![(0, 1), (0, 2), (1, 2), (2, 0), (0, 1), (2, 2)],
        };
        let mut o = Oracle::new(&edges);
        assert_eq!(o.expected(&op(Shape::PointParam, 0)), 2);
        assert_eq!(o.expected(&op(Shape::Chain2, 0)), 2);
        // 1 and 2; the walk 0→2→0 does not count the source.
        assert_eq!(o.expected(&op(Shape::Khop2, 0)), 2);
        assert_eq!(o.expected(&op(Shape::Khop3, 3)), 0);
        o.apply(&Op { shape: Shape::CreateEdge, node: 0, arg: 1 });
        o.apply(&Op { shape: Shape::SetProp, node: 3, arg: 9 });
        o.apply(&Op { shape: Shape::SetProp, node: 3, arg: 11 });
        assert_eq!(o.expected(&op(Shape::PointParam, 0)), 3);
        assert_eq!(o.touched_degrees().collect::<Vec<_>>(), [(0, 3)]);
        assert_eq!(o.props().collect::<Vec<_>>(), [(3, 11)]);
    }
}
