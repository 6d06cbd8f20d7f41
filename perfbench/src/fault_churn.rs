//! `fault-churn`: the write path.  A `SparseRepairKit` is built on the
//! weighted ring with chords; every epoch then applies a handful of
//! uniformly random chord faults to that healthy base, repairs the kit
//! (invalidation → rebase → repair → schemes → freeze), and serves a
//! verified uniform stream on the repaired §3 plane through a streaming
//! session, checked against the repaired oracle.  Epochs all start from the
//! same base, so every epoch is the same kind of operation and a run's
//! figures do not drift with the number of epochs it fits.

use crate::common::{
    check_report, median, peak_rss_mib, probe_rows, salted, table_bytes, EndToEnd, Ops, Outcome,
};
use crate::common::{RunConfig, DEPLOYMENT_SEED, SHARDS};
use crate::reference::{exact_roundtrips, weight_ok};
use crate::trace;
use rtr_core::naming::NamingAssignment;
use rtr_core::{ExStretch, SparseRepairKit, SparseSuiteParams, StretchSix};
use rtr_engine::{Engine, EngineConfig, FrozenPlane, ShardMap, ShardedPlane, StretchBound};
use rtr_engine::{VerifyConfig, Workload};
use rtr_graph::generators::{ring_with_chords_weighted, WeightRange};
use rtr_graph::{DiGraph, FaultPlan, NodeId};
use rtr_metric::{CachedSubsetOracle, RowInvalidation};
use rtr_namedep::{LandmarkBallScheme, TreeCoverScheme};
use rtr_sim::RoundtripRouting;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const N: usize = 600;
/// Faults per epoch; every third is a ×4 weight inflation, the rest removals.
const FAULTS: usize = 6;
const INFLATE_STRIDE: usize = 3;
const INFLATE_FACTOR: u32 = 4;
/// Largest chord weight: chords heavier than typical distances are spare
/// capacity, as in `chaos_sweep`.
const CHORD_WMAX: u64 = 256;
const EPOCH_QUERIES: usize = 1024;
/// Queries per `serve_batch` call: above the engine's 256-query chunk, so
/// batches fan out over the worker pool.
const SERVE_BATCH: usize = 512;
/// Pairs whose routes the repair-equivalence check compares.
const SAMPLED_ROUTES: usize = 256;
const GRAPH_SALT: u64 = 30;
const NAMES_SALT: u64 = 31;
const SHARD_SALT: u64 = 32;
const FAULT_SALT: u64 = 1_000;
const STREAM_SALT: u64 = 2_000;

type Planes =
    (ShardedPlane<StretchSix<LandmarkBallScheme>>, ShardedPlane<ExStretch<TreeCoverScheme>>);

fn freeze(
    g: &Arc<DiGraph>,
    schemes: (StretchSix<LandmarkBallScheme>, ExStretch<TreeCoverScheme>),
    names: &NamingAssignment,
    map: ShardMap,
) -> Planes {
    let _s = trace::span("engine.freeze");
    let names = Arc::new(names.to_names());
    (
        ShardedPlane::new(FrozenPlane::freeze(Arc::clone(g), schemes.0, Arc::clone(&names)), map),
        ShardedPlane::new(FrozenPlane::freeze(Arc::clone(g), schemes.1, names), map),
    )
}

/// Node ids whose table stats differ between two planes of the same scheme.
fn table_diffs<S: RoundtripRouting>(a: &FrozenPlane<S>, b: &FrozenPlane<S>) -> usize {
    (0..a.node_count())
        .map(NodeId::from_index)
        .filter(|&v| a.scheme().table_stats(v) != b.scheme().table_stats(v))
        .count()
}

/// True when both planes route every sampled pair along a route of the same
/// weight and hop count.
fn same_routes<S: RoundtripRouting>(a: &FrozenPlane<S>, b: &FrozenPlane<S>, seed: u64) -> bool {
    let (sa, sb) = (a.simulator(), b.simulator());
    Workload::Uniform.generate(a.node_count(), SAMPLED_ROUTES, seed).iter().all(|r| {
        let ra = sa.roundtrip_brief(a.scheme(), r.src, r.dst, a.name_of(r.dst));
        let rb = sb.roundtrip_brief(b.scheme(), r.src, r.dst, b.name_of(r.dst));
        match (ra, rb) {
            (Ok(x), Ok(y)) => {
                x.total_weight() == y.total_weight() && x.total_hops() == y.total_hops()
            }
            _ => false,
        }
    })
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let engine = Engine::new(EngineConfig::with_workers(cfg.workers));
    let params = SparseSuiteParams::default();
    let mut e2e = EndToEnd::default();
    let mut ops = Ops::default();
    let setup_span = trace::span("setup");
    let started = Instant::now();
    let g0 = {
        let _s = trace::span("graph.generate");
        Arc::new(
            ring_with_chords_weighted(
                N,
                3 * N,
                salted(DEPLOYMENT_SEED, GRAPH_SALT),
                WeightRange::default(),
                WeightRange::new(1, CHORD_WMAX),
            )
            .expect("generator failed"),
        )
    };
    let m0 = CachedSubsetOracle::new(&g0);
    let kit = {
        let _s = trace::span("core.kit_build");
        SparseRepairKit::build(&g0, &m0, params)
    };
    let stats = m0.stats();
    trace::count("metric.build_rows", "", stats.rows_computed as f64);
    trace::count("metric.build_peak_rows", "", stats.peak_resident_rows as f64);
    let names = NamingAssignment::random(N, salted(DEPLOYMENT_SEED, NAMES_SALT));
    let schemes = {
        let _s = trace::span("core.mint");
        kit.schemes(&g0, &m0, &names)
    };
    let map = ShardMap::hashed(N, SHARDS, salted(DEPLOYMENT_SEED, SHARD_SALT));
    let base = freeze(&g0, schemes, &names, map);
    e2e.setup = started.elapsed();
    drop(setup_span);
    if cfg.setup_only {
        return e2e.setup_only(true);
    }
    probe_rows(&g0);
    let bound = StretchBound::at_most(
        base.1
            .plane()
            .scheme()
            .paper_stretch_bound()
            .expect("the tree-cover substrate carries a proven stretch"),
    );
    e2e.table_bytes = table_bytes(base.1.plane());
    let config = VerifyConfig::full().with_bound(bound);
    // The ring is never faulted, so every mutated graph stays strongly
    // connected and no route can fail.
    let chords: Vec<(NodeId, NodeId)> = g0
        .nodes()
        .flat_map(|u| g0.out_edges(u).iter().map(move |e| (u, e.to)))
        .filter(|&(u, v)| (u.index() + 1) % N != v.index())
        .collect();

    let timed = trace::span("timed");
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut epoch = 0u64;
    let mut epoch_rates = Vec::new();
    let last = loop {
        let _epoch_span = trace::span("epoch");
        let plan = FaultPlan::mixed_from_candidates(
            &chords,
            FAULTS,
            INFLATE_STRIDE,
            INFLATE_FACTOR,
            salted(cfg.seed, FAULT_SALT + epoch),
        );
        let mut mutated = (*g0).clone();
        let started = Instant::now();
        let application = {
            let _s = trace::span("graph.fault_apply");
            plan.apply(&mut mutated)
        };
        let g1 = Arc::new(mutated);
        let invalidation = {
            let _s = trace::span("metric.invalidate");
            RowInvalidation::for_application(&m0, &application)
        };
        trace::count(
            "metric.dirty_rows",
            "",
            (invalidation.dirty_fwd_rows() + invalidation.dirty_rev_rows()) as f64,
        );
        let m1 = {
            let _s = trace::span("metric.rebase");
            CachedSubsetOracle::rebased(&m0, &g1, &invalidation)
        };
        let (kit1, repair) = {
            let _s = trace::span("core.repair_kit");
            kit.repair(&g1, &m1, &invalidation, &application)
        };
        trace::count("core.repair_rows", "", repair.rows_recomputed as f64);
        trace::count("core.clusters_reanchored", "", repair.clusters_reanchored as f64);
        let schemes = {
            let _s = trace::span("core.mint");
            kit1.schemes(&g1, &m1, &names)
        };
        let planes = freeze(&g1, schemes, &names, map);
        let repair_wall = started.elapsed();

        let requests =
            Workload::Uniform.generate(N, EPOCH_QUERIES, salted(cfg.seed, STREAM_SALT + epoch));
        let rows_before = m1.stats().rows_computed;
        let started = Instant::now();
        let mut replies = Vec::with_capacity(requests.len());
        let served = {
            let _s = trace::span_tagged("engine.serve", "exstretch");
            let mut session = engine.open_stream(&planes.1, &m1, &config);
            let batches: Result<(), _> = requests.chunks(SERVE_BATCH).try_for_each(|batch| {
                replies.extend(session.serve_batch(batch)?);
                Ok(())
            });
            trace::count("engine.queries", "exstretch", requests.len() as f64);
            batches.and_then(|()| session.finish())
        };
        let serve_wall = started.elapsed();
        trace::count("metric.timed_rows", "", (m1.stats().rows_computed - rows_before) as f64);

        // Checks, off the clock.
        let exact = exact_roundtrips(&g1, &requests);
        let checked = served.map_err(|e| e.to_string()).and_then(|out| {
            trace::count("engine.flush_ns", "", out.cost.flush_wall.as_nanos() as f64);
            let handoffs: u64 = out.shards.iter().map(|s| s.handoffs).sum();
            trace::count("engine.handoffs", "", handoffs as f64);
            let exact_sum = exact.iter().map(|&d| d as u128).sum();
            check_report(&out.report, requests.len(), exact_sum, Some(bound), |i| {
                exact.get(i).copied()
            })?;
            e2e.absorb(&out.report);
            Ok(())
        });
        let mut bad_replies = 0u64;
        for (i, trip) in replies.iter().enumerate() {
            let ok = trip.index == i
                && exact.get(i).is_some_and(|&x| weight_ok(trip.weight, x, Some(bound)));
            bad_replies += u64::from(!ok);
        }
        let epoch_ok = checked.is_ok() && application.skipped == 0;
        if let Err(why) = &checked {
            ops.problem(format!("epoch {epoch}: {why}"));
        }
        if bad_replies > 0 {
            ops.problem(format!(
                "epoch {epoch}: {bad_replies} replies outside [exact, bound·exact]"
            ));
        }
        let queries_ok = epoch_ok && bad_replies == 0;
        ops.queries.record(requests.len() as u64, queries_ok);
        ops.epochs.record(1, queries_ok);
        let served = if queries_ok { requests.len() as f64 } else { 0.0 };
        epoch_rates.push(served / (repair_wall + serve_wall).as_secs_f64());
        e2e.op_latency.push(repair_wall);
        epoch += 1;
        if Instant::now() >= deadline {
            break (g1, planes, queries_ok);
        }
    };
    drop(timed);
    e2e.peak_rss_mib = peak_rss_mib();
    e2e.qps = median(&mut epoch_rates);

    // The last epoch's repaired planes against planes minted from a rebuild
    // of the same substrate (`rebuild_reference`, which keeps the covers
    // anchored as repair does), and a fresh build, timed as what replacing
    // repair by rebuild would cost and compared node by node.
    let (g1, planes, last_ok) = last;
    let fresh = {
        let _s = trace::span("core.rebuild");
        let m = CachedSubsetOracle::new(&g1);
        let fresh = SparseRepairKit::build(&g1, &m, params);
        freeze(&g1, fresh.schemes(&g1, &m, &names), &names, map)
    };
    let fresh_diffs = table_diffs(planes.0.plane(), fresh.0.plane())
        + table_diffs(planes.1.plane(), fresh.1.plane());
    trace::count("core.fresh_diff_nodes", "", fresh_diffs as f64);
    let sample_seed = salted(cfg.seed, STREAM_SALT + epoch);
    let m = CachedSubsetOracle::new(&g1);
    let reference = kit.rebuild_reference(&g1, &m);
    let reference = freeze(&g1, reference.schemes(&g1, &m, &names), &names, map);
    let same = table_diffs(planes.0.plane(), reference.0.plane()) == 0
        && table_diffs(planes.1.plane(), reference.1.plane()) == 0
        && same_routes(planes.0.plane(), reference.0.plane(), sample_seed)
        && same_routes(planes.1.plane(), reference.1.plane(), sample_seed);
    if !same {
        ops.problem("the repaired kit differs from its rebuild reference".to_string());
        if last_ok {
            ops.epochs.failed += 1;
        }
    }
    // Repair keeps the cover hierarchy anchored, and after some fault plans
    // a fresh build picks other covers.  Whether it does depends on the seed,
    // so the difference fails no operation; every run reports it.
    let fresh_routes = same_routes(planes.0.plane(), fresh.0.plane(), sample_seed)
        && same_routes(planes.1.plane(), fresh.1.plane(), sample_seed);
    if fresh_diffs > 0 || !fresh_routes {
        ops.notes.push(format!(
            "the repaired kit differs from a fresh SparseRepairKit::build: {fresh_diffs} nodes' \
             table stats, sampled routes equal: {fresh_routes}"
        ));
    }
    if trace::enabled() {
        let sample = Workload::Uniform.generate(N, 4096, sample_seed);
        crate::suite::sim_loop(&planes.0, &sample);
        crate::suite::sim_loop(&planes.1, &sample);
    }
    e2e.outcome(ops, true)
}
