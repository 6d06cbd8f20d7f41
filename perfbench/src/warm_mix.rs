//! `warm-mix`: in-process steady state.  The sparse suite is built and the
//! verify oracle warmed during set-up; the timed phase serves whole cycles of
//! the seeded Mix stream through each scheme's sharded plane at nproc engine
//! workers, fully verified, so no Dijkstra runs while the clock is on.
//! Traced runs then drive the §3 plane through the TCP front door as well
//! (`wire.rs`), which is where the serve layer's figures come from.

use crate::common::{check_report, median, peak_rss_mib, probe_rows, salted, table_bytes};
use crate::common::{steady_state, EndToEnd, Ops, Outcome, RunConfig};
use crate::reference::exact_roundtrips;
use crate::suite::{graph, sim_loop, verify_oracle, Planes};
use crate::trace;
use rtr_engine::Workload;
use rtr_engine::{Engine, EngineConfig, Request, ShardedPlane, StretchBound, VerifyConfig};
use rtr_graph::{DiGraph, Distance};
use rtr_metric::LazyDijkstraOracle;
use rtr_sim::RoundtripRouting;
use std::time::{Duration, Instant};

pub const N: usize = 1200;
/// Queries per verified serve call; one round serves one chunk on each of
/// the three planes, and a run is whole cycles of every chunk.
const CHUNK: usize = 4096;
/// Distinct chunks the rounds cycle through.
const POOL_CHUNKS: usize = 8;
const POOL_SALT: u64 = 100;

/// Requests with their reference roundtrips, cut into whole rounds.
struct Pool {
    chunks: Vec<Vec<Request>>,
    exact: Vec<Vec<Distance>>,
    exact_sum: Vec<u128>,
}

impl Pool {
    fn new(g: &DiGraph, requests: Vec<Request>, chunk: usize) -> Pool {
        let exact_all = exact_roundtrips(g, &requests);
        let chunks: Vec<Vec<Request>> = requests.chunks(chunk).map(<[Request]>::to_vec).collect();
        let exact: Vec<Vec<Distance>> = exact_all.chunks(chunk).map(<[Distance]>::to_vec).collect();
        let exact_sum = exact.iter().map(|e| e.iter().map(|&d| d as u128).sum()).collect();
        Pool { chunks, exact, exact_sum }
    }
}

/// One verified serve call of a chunk on one plane, checked against the
/// reference; returns the call's wall time and how many verified queries it
/// served.
#[allow(clippy::too_many_arguments)]
fn serve_chunk<S: RoundtripRouting + Send + Sync>(
    engine: &Engine,
    plane: &ShardedPlane<S>,
    pool: &Pool,
    chunk: usize,
    verify: &LazyDijkstraOracle<'_>,
    bound: Option<StretchBound>,
    e2e: &mut EndToEnd,
    ops: &mut Ops,
) -> (Duration, u64) {
    let requests: &[Request] = &pool.chunks[chunk];
    let config = VerifyConfig { bound, ..VerifyConfig::full() };
    let tag = plane.plane().scheme_name();
    let started = Instant::now();
    let served = {
        let _s = trace::span_tagged("engine.serve", tag);
        let served = engine.serve_verified_sharded(plane, requests, verify, &config);
        trace::count("engine.queries", tag, requests.len() as f64);
        served
    };
    let wall = started.elapsed();
    let checked = served.map_err(|e| e.to_string()).and_then(|out| {
        trace::count("engine.flush_ns", "", out.cost.flush_wall.as_nanos() as f64);
        trace::count(
            "engine.handoffs",
            "",
            out.shards.iter().map(|s| s.handoffs).sum::<u64>() as f64,
        );
        let exact = &pool.exact[chunk];
        check_report(&out.report, requests.len(), pool.exact_sum[chunk], bound, |i| {
            exact.get(i).copied()
        })?;
        e2e.absorb(&out.report);
        Ok(())
    });
    if let Err(why) = &checked {
        ops.problem(format!("{tag} chunk {chunk}: {why}"));
    }
    ops.queries.record(requests.len() as u64, checked.is_ok());
    (wall, if checked.is_ok() { requests.len() as u64 } else { 0 })
}

/// The first verified pass over the whole pool on every plane: fills the
/// verify oracle with every destination row the timed phase will need.
fn warm(
    engine: &Engine,
    planes: &Planes,
    pool: &[Request],
    verify: &LazyDijkstraOracle<'_>,
) -> bool {
    let _s = trace::span("engine.warmup");
    let config = VerifyConfig::full();
    engine.serve_verified_sharded(&planes.stretch6, pool, verify, &config).is_ok()
        & engine.serve_verified_sharded(&planes.exstretch, pool, verify, &config).is_ok()
        & engine.serve_verified_sharded(&planes.poly, pool, verify, &config).is_ok()
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let engine = Engine::new(EngineConfig::with_workers(cfg.workers));
    let mut e2e = EndToEnd::default();
    let mut ops = Ops::default();
    // Each chunk is its own Mix stream, so the run's hotspots are eight nodes
    // rather than one and a seed's figures do not hinge on a single node.
    let requests: Vec<Request> = (0..POOL_CHUNKS as u64)
        .flat_map(|c| Workload::Mix.generate(N, CHUNK, salted(cfg.seed, POOL_SALT + c)))
        .collect();
    let setup_span = trace::span("setup");
    let started = Instant::now();
    let g = graph(N);
    let planes = Planes::build(&g);
    let verify = verify_oracle(&g);
    let warmed = warm(&engine, &planes, &requests, &verify);
    e2e.setup = started.elapsed();
    let warm_rows = verify.stats().rows_computed;
    trace::count("metric.warmup_rows", "", warm_rows as f64);
    drop(setup_span);
    if cfg.setup_only {
        return e2e.setup_only(warmed);
    }
    probe_rows(&g);
    let pool = Pool::new(&g, requests, CHUNK);
    e2e.table_bytes = table_bytes(planes.stretch6.plane())
        + table_bytes(planes.exstretch.plane())
        + table_bytes(planes.poly.plane());

    let timed = trace::span("timed");
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let ex = Some(planes.ex_bound);
    let poly = Some(planes.poly_bound);
    // Whole pool cycles: every round of the pool on every plane.
    let mut cycle_rates = Vec::new();
    loop {
        let (mut cycle_time, mut cycle_ok) = (Duration::ZERO, 0u64);
        for chunk in 0..POOL_CHUNKS {
            let mut round = Duration::ZERO;
            for (wall, ok) in [
                serve_chunk(
                    &engine,
                    &planes.stretch6,
                    &pool,
                    chunk,
                    &verify,
                    None,
                    &mut e2e,
                    &mut ops,
                ),
                serve_chunk(
                    &engine,
                    &planes.exstretch,
                    &pool,
                    chunk,
                    &verify,
                    ex,
                    &mut e2e,
                    &mut ops,
                ),
                serve_chunk(&engine, &planes.poly, &pool, chunk, &verify, poly, &mut e2e, &mut ops),
            ] {
                round += wall;
                cycle_ok += ok;
            }
            e2e.op_latency.push(round);
            cycle_time += round;
        }
        cycle_rates.push(cycle_ok as f64 / cycle_time.as_secs_f64());
        if Instant::now() >= deadline {
            break;
        }
    }
    e2e.qps = median(&mut cycle_rates);
    drop(timed);
    e2e.peak_rss_mib = peak_rss_mib();
    let timed_rows = verify.stats().rows_computed - warm_rows;
    trace::count("metric.timed_rows", "", timed_rows as f64);
    let mut correct = warmed && steady_state(timed_rows, &mut ops);
    if trace::enabled() {
        let sample = &pool.chunks[0];
        sim_loop(&planes.stretch6, sample);
        sim_loop(&planes.exstretch, sample);
        sim_loop(&planes.poly, sample);
        correct &= crate::wire::probe(&engine, &g, &planes, &verify, cfg.seed, &mut ops);
    }
    e2e.outcome(ops, correct)
}
