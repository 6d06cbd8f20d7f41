//! Pieces every workload shares: the run configuration, operation
//! accounting, report checks, statistics and the end-to-end metric record.

use crate::reference;
use rtr_engine::{FrozenPlane, StretchBound, StretchHistogram, VerifiedReport};
use rtr_graph::{Distance, NodeId};
use rtr_sim::RoundtripRouting;
use std::time::Duration;

/// Destination shards of every sharded plane (hashed).  Shards are not
/// threads, so this does not depend on the host.
pub const SHARDS: usize = 4;

/// Seed of the deployment: topology, node names and shard map.  It is the
/// same in every run, so `--seed` varies the traffic and the faults only, and
/// two runs differ in what they serve, not in what they serve it on.
pub const DEPLOYMENT_SEED: u64 = 42;

/// How often each run sets up; `setup_s` is the median.  All but one of the
/// set-ups run in child processes, so each starts from a fresh heap and the
/// timed process's resident set holds one set-up only.
pub const SETUP_REPS: usize = 3;

/// Sources of the `metric.row_us` probe: rows fetched from a fresh oracle.
pub const ROW_PROBE_SOURCES: usize = 32;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    /// Engine workers: the host's `available_parallelism`, so the pool
    /// never holds more threads than there are cores.
    pub workers: usize,
    /// Set up, report the set-up time and stop.
    pub setup_only: bool,
}

/// Attempted and failed operations of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, count: u64, ok: bool) {
        self.attempted += count;
        if !ok {
            self.failed += count;
        }
    }
}

/// The operations a run attempted: queries, wire frames and repair epochs.
#[derive(Debug, Default)]
pub struct Ops {
    pub queries: Tally,
    pub frames: Tally,
    pub epochs: Tally,
    /// The first few failure descriptions, for the log.
    pub problems: Vec<String>,
    /// Findings that fail no operation, printed with the tallies in every
    /// run.
    pub notes: Vec<String>,
}

impl Ops {
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.queries.attempted + self.frames.attempted + self.epochs.attempted
    }

    pub fn failed(&self) -> u64 {
        self.queries.failed + self.frames.failed + self.epochs.failed
    }
}

/// One metric value as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.to_string(), unit, value }
}

/// What one pass of a workload hands back.
#[derive(Debug)]
pub struct Outcome {
    /// This process's set-up time.
    pub setup: Duration,
    /// Empty after a set-up-only run.
    pub end_to_end: Vec<Metric>,
    pub ops: Ops,
    /// False when a run-level property failed that no single operation
    /// accounts for.
    pub correct: bool,
}

/// The end-to-end figures every workload reports, in `BENCHMARK.json` order.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// This process's set-up; `setup_s` is the first metric.
    pub setup: Duration,
    /// Verified queries per second: the median over the timed phase's
    /// slices (pool cycles, epochs), so that a few seconds of a
    /// slow host move it less than they would move a plain ratio.
    pub qps: f64,
    /// Latency samples of the workload's unit operation.
    pub op_latency: Vec<Duration>,
    /// The resident high-water mark when the timed phase ended, before the
    /// benchmark's own closing checks.
    pub peak_rss_mib: f64,
    pub table_bytes: u64,
    pub total_measured: u128,
    pub total_exact: u128,
    /// The timed reports' stretch histograms, merged bucket by bucket.
    pub stretch_buckets: Vec<u64>,
}

impl EndToEnd {
    pub fn absorb(&mut self, report: &VerifiedReport) {
        self.total_measured += report.total_measured;
        self.total_exact += report.total_exact;
        self.stretch_buckets.resize(StretchHistogram::BUCKET_COUNT, 0);
        for (b, c) in report.histogram.nonzero_buckets() {
            self.stretch_buckets[b] += c;
        }
        crate::trace::count("engine.stretch_max", "", report.max_stretch());
    }

    /// A set-up-only run's outcome.
    pub fn setup_only(&self, correct: bool) -> Outcome {
        Outcome { setup: self.setup, end_to_end: Vec::new(), ops: Ops::default(), correct }
    }

    /// The run's outcome.  Its `setup_s` is this process's set-up; the
    /// caller replaces it by the median over every set-up of the run.
    pub fn outcome(&self, ops: Ops, correct: bool) -> Outcome {
        Outcome { setup: self.setup, end_to_end: self.metrics(), ops, correct }
    }

    /// The 99th percentile of every timed query's verified stretch, exact to
    /// the histogram's 1/32 buckets.
    fn stretch_p99(&self) -> f64 {
        let pairs: Vec<(usize, u64)> = (self.stretch_buckets.iter().enumerate())
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
            .collect();
        StretchHistogram::from_nonzero_buckets(&pairs).map_or(0.0, |h| h.percentile(0.99))
    }

    fn metrics(&self) -> Vec<Metric> {
        let mut lat: Vec<f64> = self.op_latency.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        vec![
            metric("setup_s", "s", self.setup.as_secs_f64()),
            metric("qps", "1/s", self.qps),
            metric("lat_p50_us", "us", median(&mut lat)),
            metric("peak_rss_mib", "MiB", self.peak_rss_mib),
            metric("table_bytes", "bytes", self.table_bytes as f64),
            metric(
                "stretch_mean",
                "ratio",
                self.total_measured as f64 / (self.total_exact as f64).max(1.0),
            ),
            metric("stretch_p99", "ratio", self.stretch_p99()),
        ]
    }
}

/// Checks one verified report against the reference: every query checked,
/// `total_exact` equal to the independently computed sum, no violation of the
/// proven ceiling, and the worst trip's exact distance confirmed.
/// `exact_of(i)` is the reference roundtrip of the report's stream index `i`.
pub fn check_report(
    report: &VerifiedReport,
    queries: usize,
    expected_total_exact: u128,
    bound: Option<StretchBound>,
    exact_of: impl Fn(usize) -> Option<Distance>,
) -> Result<(), String> {
    if report.queries != queries || report.checked != queries {
        return Err(format!(
            "report covers {} queries with {} checked, expected {queries} fully checked",
            report.queries, report.checked
        ));
    }
    if report.total_exact != expected_total_exact {
        return Err(format!(
            "report total_exact {} differs from the reference {expected_total_exact}",
            report.total_exact
        ));
    }
    if !report.violations.is_empty() {
        return Err(format!("{} trips exceed the proven ceiling", report.violations.len()));
    }
    if let Some(worst) = &report.worst {
        if exact_of(worst.index) != Some(worst.exact) {
            return Err(format!(
                "worst trip #{} claims exact {} but the reference says {:?}",
                worst.index,
                worst.exact,
                exact_of(worst.index)
            ));
        }
        if !reference::weight_ok(worst.measured, worst.exact, bound) {
            return Err(format!(
                "worst trip #{} weight {} breaks [exact, bound·exact] for exact {}",
                worst.index, worst.measured, worst.exact
            ));
        }
    }
    Ok(())
}

/// The steady-state premise of the serving workloads: the warm-up filled the
/// verify oracle, so no row is computed while the clock runs.  A row computed
/// under the clock puts oracle work into `qps`, which makes the run's figures
/// wrong as a whole, so it fails the run rather than an operation.
pub fn steady_state(timed_rows: usize, ops: &mut Ops) -> bool {
    if timed_rows > 0 {
        ops.problem(format!("{timed_rows} verify-oracle rows were computed while the clock ran"));
    }
    timed_rows == 0
}

/// Σ `table_stats(v).bits / 8` over the plane's nodes.
pub fn table_bytes<S: RoundtripRouting>(plane: &FrozenPlane<S>) -> u64 {
    let bits: u128 = (0..plane.node_count())
        .map(|i| plane.scheme().table_stats(NodeId::from_index(i)).bits as u128)
        .sum();
    (bits / 8) as u64
}

/// Median of `values` (0 when empty); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 when empty); sorts in
/// place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// The process's high-water resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mixes a per-purpose salt into the run seed, so each input stream of a
/// run is independent of the others.
pub fn salted(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times `ROW_PROBE_SOURCES` forward and reverse row fetches on a fresh lazy
/// oracle over `g`, one `metric.row` span per fetch.
pub fn probe_rows(g: &rtr_graph::DiGraph) {
    use rtr_metric::DistanceOracle;
    let n = g.node_count();
    let oracle = rtr_metric::LazyDijkstraOracle::new(g, 2 * ROW_PROBE_SOURCES);
    for i in 0..ROW_PROBE_SOURCES {
        let v = NodeId::from_index(i * n / ROW_PROBE_SOURCES);
        {
            let _s = crate::trace::span("metric.row");
            std::hint::black_box(oracle.row(v));
        }
        let _s = crate::trace::span("metric.row");
        std::hint::black_box(oracle.rev_row(v));
    }
}
