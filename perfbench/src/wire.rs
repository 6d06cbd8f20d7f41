//! The wire probe of traced `warm-mix` runs: the TCP front door on loopback.
//! The §3 plane is served by `rtr_serve::serve`; one connection sends rounds
//! of single-query `ROUTE` frames and 64-pair `BATCH` frames with Zipf(1.2)
//! destinations, each frame only after the reply to the last one arrived.
//! Every reply and the session's report are checked against the reference,
//! and the serve layer's per-layer metrics come from here.
//!
//! The wire path is not a workload of its own: on a shared two-core host its
//! throughput swung by a factor of three between runs of the same code while
//! `warm-mix` moved by a tenth (README.md has the figures), so no bound on it
//! could tell a change of the code from a change of the host.

use crate::common::{check_report, quantile, salted, steady_state, Ops};
use crate::reference::{exact_roundtrips, weight_ok};
use crate::suite::Planes;
use crate::trace;
use rtr_engine::{Engine, Request, StretchBound, VerifyConfig, Workload};
use rtr_graph::{DiGraph, Distance};
use rtr_metric::LazyDijkstraOracle;
use rtr_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use rtr_serve::{Client, ServeConfig, ServedRoute, WireRequest, WireResponse};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const BATCH: usize = 64;
/// A round: 16 groups of 16 single-query `ROUTE` frames followed by one
/// 64-pair `BATCH` frame, 1280 queries in 272 frames.
const GROUPS: usize = 16;
const ROUTES_PER_GROUP: usize = 16;
const ROUND_FRAMES: usize = GROUPS * (ROUTES_PER_GROUP + 1);
const ROUND_QUERIES: usize = GROUPS * (ROUTES_PER_GROUP + BATCH);
/// Distinct rounds in the pool; the probe sends the pool twice.
const POOL_ROUNDS: usize = 8;
const ROUNDS: usize = 2 * POOL_ROUNDS;
const POOL_SALT: u64 = 200;
const ZIPF: Workload = Workload::Zipf { exponent: 1.2 };

/// The connection's traffic: its frames, in sending order (a one-pair frame
/// goes out as `ROUTE`, a longer one as `BATCH`), and the reference
/// roundtrip of every pair.
struct Stream {
    frames: Vec<Vec<(u32, u32)>>,
    exact: Vec<Vec<Distance>>,
}

impl Stream {
    fn new(g: &DiGraph, requests: &[Request]) -> Stream {
        let exact = exact_roundtrips(g, requests);
        let mut stream = Stream { frames: Vec::new(), exact: Vec::new() };
        let mut at = 0;
        while at < requests.len() {
            for _ in 0..ROUTES_PER_GROUP {
                stream.push(&requests[at..at + 1], &exact[at..at + 1]);
                at += 1;
            }
            stream.push(&requests[at..at + BATCH], &exact[at..at + BATCH]);
            at += BATCH;
        }
        stream
    }

    fn push(&mut self, requests: &[Request], exact: &[Distance]) {
        self.frames.push(requests.iter().map(|r| (r.src.0, r.dst.0)).collect());
        self.exact.push(exact.to_vec());
    }
}

/// What the client saw.
#[derive(Default)]
struct ClientLog {
    /// `(stream index, reference roundtrip)` of every served query.
    served: Vec<(u64, Distance)>,
    route_rtt: Vec<Duration>,
    busy: Duration,
}

/// Sends `ROUNDS` rounds of `stream`'s frames, checking every served weight
/// and counting every frame and query in `ops`.
fn drive(
    addr: SocketAddr,
    client: &mut Client,
    stream: &Stream,
    bound: StretchBound,
    log: &mut ClientLog,
    ops: &mut Ops,
) {
    for frame in 0..ROUNDS * ROUND_FRAMES {
        let _s = (frame % ROUND_FRAMES == 0).then(|| trace::span("wire.round"));
        let pairs = &stream.frames[frame % stream.frames.len()];
        let exact = &stream.exact[frame % stream.frames.len()];
        let started = Instant::now();
        let batched = pairs.len() > 1;
        let reply = if batched {
            client.batch(pairs)
        } else {
            client.route(pairs[0].0, pairs[0].1).map(|r| vec![r])
        };
        let rtt = started.elapsed();
        log.busy += rtt;
        match reply {
            Ok(routes) if routes.len() == pairs.len() => {
                ops.frames.record(1, true);
                if !batched {
                    log.route_rtt.push(rtt);
                }
                for (route, &exact) in routes.iter().zip(exact) {
                    let ok = route.hops > 0 && weight_ok(route.weight, exact, Some(bound));
                    if !ok {
                        ops.problem(format!("reply {route:?} breaks the bound for exact {exact}"));
                    }
                    ops.queries.record(1, ok);
                    log.served.push((route.index, exact));
                }
            }
            other => {
                ops.problem(format!("frame {frame}: {:?}", other.map(|r| r.len())));
                ops.frames.record(1, false);
                ops.queries.record(pairs.len() as u64, false);
                // The connection state is unknown after a failed call:
                // start a fresh one and go on with the next frame.
                if let Ok(fresh) = Client::connect(addr) {
                    *client = fresh;
                }
            }
        }
    }
}

/// Encodes and decodes every frame of the pool, request and response, as
/// the client and the server do per frame.
fn codec_probe(stream: &Stream) {
    {
        let _s = trace::span("serve.codec");
        for pairs in &stream.frames {
            let route = |i: usize| ServedRoute { index: i as u64, hops: 24, weight: 4096 };
            let (request, response) = if pairs.len() > 1 {
                (
                    WireRequest::Batch(pairs.clone()),
                    WireResponse::Batch((0..pairs.len()).map(route).collect()),
                )
            } else {
                let (src, dst) = pairs[0];
                (WireRequest::Route { src, dst }, WireResponse::Route(route(0)))
            };
            let sent = encode_request(&request);
            std::hint::black_box(decode_request(&sent).is_ok());
            let back = encode_response(&response);
            std::hint::black_box(decode_response(&back).is_ok());
        }
    }
    trace::count("serve.codec_frames", "", stream.frames.len() as f64);
}

/// Serves the §3 plane on a loopback port, first warming `verify` with the
/// probe's destinations in process, and drives one connection through it.
/// Frames and queries are counted in `ops`; returns false on a run-level
/// fault: a failed warm-up or server, a verify row computed during the
/// session (the warm-up should have left none to compute), or a session
/// report that disagrees with the replies the client holds.
pub fn probe(
    engine: &Engine,
    g: &DiGraph,
    planes: &Planes,
    verify: &LazyDijkstraOracle<'_>,
    seed: u64,
    ops: &mut Ops,
) -> bool {
    let requests: Vec<Request> = (0..POOL_ROUNDS as u64)
        .flat_map(|r| ZIPF.generate(g.node_count(), ROUND_QUERIES, salted(seed, POOL_SALT + r)))
        .collect();
    if let Err(e) =
        engine.serve_verified_sharded(&planes.exstretch, &requests, verify, &VerifyConfig::full())
    {
        ops.problem(format!("wire probe warm-up: {e}"));
        return false;
    }
    let warm_rows = verify.stats().rows_computed;
    let stream = Stream::new(g, &requests);
    codec_probe(&stream);
    let bound = planes.ex_bound;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("loopback address");
    let shutdown = AtomicBool::new(false);
    let config = VerifyConfig::full().with_bound(bound);
    let mut log = ClientLog::default();
    let (connected, served) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            rtr_serve::serve(
                listener,
                engine,
                &planes.exstretch,
                verify,
                &config,
                &ServeConfig::default(),
                &shutdown,
            )
        });
        let connected = (|| -> Result<(), rtr_serve::ClientError> {
            let mut client = Client::connect(addr)?;
            client.health()?;
            let _s = trace::span("serve.session");
            drive(addr, &mut client, &stream, bound, &mut log, ops);
            Ok(())
        })();
        let stopped = Client::connect(addr).ok().and_then(|mut c| c.shutdown().ok());
        if stopped.is_none() {
            shutdown.store(true, Ordering::SeqCst);
        }
        (connected, server.join().expect("server thread panicked"))
    });
    if let Err(e) = connected {
        ops.problem(format!("wire probe: the listener never came up: {e}"));
        return false;
    }
    let mut rtt_us: Vec<f64> = log.route_rtt.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    trace::count("serve.route_p99_us", "", quantile(&mut rtt_us, 0.99));
    trace::count("serve.client_ns", "", log.busy.as_nanos() as f64);
    trace::count("serve.client_frames", "", (ROUNDS * ROUND_FRAMES) as f64);
    let steady = steady_state(verify.stats().rows_computed - warm_rows, ops);

    // The session report must cover exactly the replies the client holds.
    let outcome = match served {
        Ok(outcome) => outcome,
        Err(e) => {
            ops.problem(format!("wire probe: server failed: {e}"));
            return false;
        }
    };
    trace::count("serve.frames", "", outcome.frames as f64);
    trace::count("serve.rejected", "", outcome.rejected as f64);
    trace::count("serve.engine_ns", "", outcome.verified.summary.elapsed.as_nanos() as f64);
    let mut replies = log.served;
    replies.sort_unstable();
    let dense = replies.iter().enumerate().all(|(i, &(index, _))| index == i as u64);
    let exact_sum: u128 = replies.iter().map(|&(_, d)| d as u128).sum();
    let checked = if dense && outcome.served == replies.len() as u64 {
        check_report(&outcome.verified.report, replies.len(), exact_sum, Some(bound), |i| {
            replies.get(i).map(|&(_, d)| d)
        })
    } else {
        Err(format!(
            "the server served {} queries; the client holds {} replies, indices dense: {dense}",
            outcome.served,
            replies.len()
        ))
    };
    if let Err(why) = &checked {
        ops.problem(format!("wire probe session report: {why}"));
    }
    checked.is_ok() && steady
}
