//! The substrate of `warm-mix` and its wire probe: the weighted ring with
//! chords, the sparse scheme suite built through the lazy oracle, and its
//! three planes frozen and sharded.

use crate::common::{salted, DEPLOYMENT_SEED, SHARDS};
use crate::trace;
use rtr_core::naming::NamingAssignment;
use rtr_core::{ExStretch, PolynomialStretch, SparseSchemeSuite, SparseSuiteParams, StretchSix};
use rtr_engine::{FrozenPlane, Request, ShardMap, ShardedPlane, StretchBound};
use rtr_graph::generators::ring_with_chords;
use rtr_graph::DiGraph;
use rtr_metric::LazyDijkstraOracle;
use rtr_namedep::{LandmarkBallScheme, TreeCoverScheme};
use rtr_sim::RoundtripRouting;
use std::sync::Arc;

const GRAPH_SALT: u64 = 1;
const NAMES_SALT: u64 = 2;
const SHARD_SALT: u64 = 3;

/// The ring with `3n` random chords the serving benches use.
pub fn graph(n: usize) -> Arc<DiGraph> {
    let _s = trace::span("graph.generate");
    let seed = salted(DEPLOYMENT_SEED, GRAPH_SALT);
    Arc::new(ring_with_chords(n, 3 * n, seed).expect("generator failed"))
}

/// The three planes of the sparse suite, each frozen and sharded.
pub struct Planes {
    pub stretch6: ShardedPlane<StretchSix<LandmarkBallScheme>>,
    pub exstretch: ShardedPlane<ExStretch<TreeCoverScheme>>,
    pub poly: ShardedPlane<PolynomialStretch>,
    pub ex_bound: StretchBound,
    pub poly_bound: StretchBound,
}

impl Planes {
    /// Builds the suite through a lazy oracle with the `n/50`-row cache the
    /// large-n serving benches use, then freezes and shards every plane.
    pub fn build(g: &Arc<DiGraph>) -> Planes {
        let n = g.node_count();
        let oracle = LazyDijkstraOracle::new(g, (n / 50).max(16));
        let names = NamingAssignment::random(n, salted(DEPLOYMENT_SEED, NAMES_SALT));
        let suite = {
            let _s = trace::span("core.suite_build");
            SparseSchemeSuite::build(g, &oracle, &names, SparseSuiteParams::default())
        };
        let stats = oracle.stats();
        trace::count("metric.build_rows", "", stats.rows_computed as f64);
        trace::count("metric.build_peak_rows", "", stats.peak_resident_rows as f64);
        let ex_bound = suite
            .exstretch
            .paper_stretch_bound()
            .expect("the tree-cover substrate carries a proven stretch");
        let poly_bound = suite.poly.paper_stretch_bound();
        let (stretch6, exstretch, poly) = suite.into_parts();
        let _s = trace::span("engine.freeze");
        let names = Arc::new(names.to_names());
        let map = ShardMap::hashed(n, SHARDS, salted(DEPLOYMENT_SEED, SHARD_SALT));
        Planes {
            stretch6: ShardedPlane::new(
                FrozenPlane::freeze(Arc::clone(g), stretch6, Arc::clone(&names)),
                map,
            ),
            exstretch: ShardedPlane::new(
                FrozenPlane::freeze(Arc::clone(g), exstretch, Arc::clone(&names)),
                map,
            ),
            poly: ShardedPlane::new(FrozenPlane::freeze(Arc::clone(g), poly, names), map),
            ex_bound: StretchBound::at_most(ex_bound),
            poly_bound: StretchBound::at_most(poly_bound),
        }
    }
}

/// The verify oracle every serving path checks against: a lazy oracle whose
/// `2n` rows hold every destination's roundtrip row once warmed.
pub fn verify_oracle(g: &DiGraph) -> LazyDijkstraOracle<'_> {
    LazyDijkstraOracle::new(g, 2 * g.node_count())
}

/// Single-thread simulator loop over `requests` on one plane: the hop loop
/// with no engine, pool or verification around it.  Traced runs only.
pub fn sim_loop<S: RoundtripRouting>(plane: &ShardedPlane<S>, requests: &[Request]) {
    let plane = plane.plane();
    let tag = plane.scheme_name();
    let sim = plane.simulator();
    let mut hops = 0u64;
    let mut served = 0u64;
    {
        let _s = trace::span_tagged("sim.loop", tag);
        for r in requests {
            if let Ok(brief) =
                sim.roundtrip_brief(plane.scheme(), r.src, r.dst, plane.name_of(r.dst))
            {
                hops += brief.total_hops() as u64;
                served += 1;
            }
        }
    }
    trace::count("sim.hops", tag, hops as f64);
    trace::count("sim.queries", tag, served as f64);
}
