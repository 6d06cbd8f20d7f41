//! The reference checker: exact roundtrip distances computed apart from the
//! program, by a plain Dijkstra over `DiGraph::out_edges` / `in_edges`.
//! Nothing here touches `rtr-metric`, so a fault in the program's oracles
//! cannot hide a fault in its verification.

use rtr_engine::{Request, StretchBound};
use rtr_graph::{DiGraph, Distance, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const UNREACHED: Distance = Distance::MAX;

/// One-source shortest distances; `forward` follows out-edges from `root`
/// (giving `d(root, v)`), otherwise in-edges into `root` (giving `d(v, root)`).
fn dijkstra(g: &DiGraph, root: NodeId, forward: bool) -> Vec<Distance> {
    let mut dist = vec![UNREACHED; g.node_count()];
    let mut heap = BinaryHeap::new();
    dist[root.index()] = 0;
    heap.push(Reverse((0, root.0)));
    while let Some(Reverse((d, u))) = heap.pop() {
        let u = NodeId(u);
        if d > dist[u.index()] {
            continue;
        }
        let mut relax = |v: NodeId, w: u64| {
            let nd = d + w;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Reverse((nd, v.0)));
            }
        };
        if forward {
            for e in g.out_edges(u) {
                relax(e.to, e.weight);
            }
        } else {
            for &(v, w) in g.in_edges(u) {
                relax(v, w);
            }
        }
    }
    dist
}

/// `r(s, t)` for every source `s`: two Dijkstras rooted at `t`.
fn roundtrips_to(g: &DiGraph, t: NodeId) -> Vec<Distance> {
    let from_t = dijkstra(g, t, true);
    let to_t = dijkstra(g, t, false);
    from_t
        .iter()
        .zip(&to_t)
        .map(|(&a, &b)| if a == UNREACHED || b == UNREACHED { UNREACHED } else { a + b })
        .collect()
}

/// Exact roundtrip distance of every request, in request order.  One
/// destination's row is alive at a time, so checking adds little to the
/// process's resident set.
pub fn exact_roundtrips(g: &DiGraph, requests: &[Request]) -> Vec<Distance> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_unstable_by_key(|&i| requests[i].dst);
    let mut exact = vec![UNREACHED; requests.len()];
    for group in order.chunk_by(|&a, &b| requests[a].dst == requests[b].dst) {
        let row = roundtrips_to(g, requests[group[0]].dst);
        for &i in group {
            exact[i] = row[requests[i].src.index()];
        }
    }
    exact
}

/// The served-weight property every sampled reply must have: never shorter
/// than the exact roundtrip, and within the scheme's proven ceiling when it
/// has one.
pub fn weight_ok(measured: Distance, exact: Distance, bound: Option<StretchBound>) -> bool {
    exact != UNREACHED && measured >= exact && bound.is_none_or(|b| !b.exceeded_by(measured, exact))
}
