//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <warm-mix|fault-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The engine runs `available_parallelism` workers and the wire probe of
//! traced `warm-mix` runs one client connection, so no run holds more busy
//! threads than the host has cores.
//!
//! `--setup-only 1` sets up once, prints the set-up time and exits; untraced
//! runs start two such children to take the median `setup_s`.
//!
//! Runs one workload in this process, driving the program only through its
//! public functions, checks every output against an independent reference,
//! and prints as its last line one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
//! ones; with `--trace 1` the run serves the workload twice, untraced and
//! then traced, prints how far each end-to-end metric moved under tracing,
//! writes the spans to `out/`, and reports the per-layer metrics taken from
//! them.  README.md describes the workloads and every metric.

mod common;
mod fault_churn;
mod reference;
mod suite;
mod trace;
mod warm_mix;
mod wire;

use common::{median, Metric, Outcome, RunConfig, SETUP_REPS};
use std::fmt::Write as _;
use std::process::ExitCode;

const WORKLOADS: [&str; 2] = ["warm-mix", "fault-churn"];

struct Args {
    workload: String,
    trace: bool,
    config: RunConfig,
}

fn parse(args: &[String], nproc: usize) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--setup-only" => setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload,
        trace,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            workers: nproc,
            setup_only,
        },
    })
}

fn run(workload: &str, config: &RunConfig) -> Outcome {
    match workload {
        "warm-mix" => warm_mix::run(config),
        "fault-churn" => fault_churn::run(config),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Sum of the traced durations named `name`/`tag`, in seconds.
fn total_secs(name: &str, tag: &str) -> f64 {
    trace::durations(name, tag).iter().sum()
}

fn median_secs(name: &str) -> f64 {
    median(&mut trace::durations(name, ""))
}

fn total_count(name: &str, tag: &str) -> f64 {
    trace::counts(name, tag).iter().sum()
}

fn median_count(name: &str) -> f64 {
    median(&mut trace::counts(name, ""))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, aggregated from the traced pass's spans and
/// counts.  A layer the workload does not exercise reads 0.
fn per_layer() -> Vec<Metric> {
    use common::metric;
    let mut out = vec![
        metric("graph.generate_s", "s", median_secs("graph.generate")),
        metric("graph.fault_apply_s", "s", median_secs("graph.fault_apply")),
        metric("metric.row_us", "us", median_secs("metric.row") * 1e6),
        metric("metric.build_rows", "count", median_count("metric.build_rows")),
        metric("metric.build_peak_rows", "count", median_count("metric.build_peak_rows")),
        metric("metric.warmup_rows", "count", median_count("metric.warmup_rows")),
        metric("metric.timed_rows", "count", total_count("metric.timed_rows", "")),
        metric("metric.invalidate_s", "s", median_secs("metric.invalidate")),
        metric("metric.rebase_s", "s", median_secs("metric.rebase")),
        metric("metric.dirty_rows", "count", median_count("metric.dirty_rows")),
        metric("core.suite_build_s", "s", median_secs("core.suite_build")),
        metric("core.kit_build_s", "s", median_secs("core.kit_build")),
        metric("core.mint_s", "s", median_secs("core.mint")),
        metric("core.repair_kit_s", "s", median_secs("core.repair_kit")),
        metric("core.rebuild_s", "s", median_secs("core.rebuild")),
        metric("core.repair_rows", "count", median_count("core.repair_rows")),
        metric("core.clusters_reanchored", "count", median_count("core.clusters_reanchored")),
        metric("core.fresh_diff_nodes", "count", total_count("core.fresh_diff_nodes", "")),
    ];
    for scheme in ["stretch6", "exstretch", "polystretch"] {
        let hops = total_count("sim.hops", scheme);
        out.push(metric(
            &format!("sim.ns_per_hop.{scheme}"),
            "ns",
            ratio(total_secs("sim.loop", scheme) * 1e9, hops),
        ));
        out.push(metric(
            &format!("sim.hops_per_query.{scheme}"),
            "count",
            ratio(hops, total_count("sim.queries", scheme)),
        ));
    }
    out.push(metric("engine.freeze_s", "s", median_secs("engine.freeze")));
    out.push(metric("engine.warmup_s", "s", median_secs("engine.warmup")));
    out.push(metric("engine.verify_flush_s", "s", total_count("engine.flush_ns", "") / 1e9));
    for scheme in ["stretch6", "exstretch", "polystretch"] {
        out.push(metric(
            &format!("engine.qps.{scheme}"),
            "1/s",
            ratio(
                total_count("engine.queries", scheme),
                total_secs("engine.serve", scheme) + total_count("engine.serve_ns", scheme) / 1e9,
            ),
        ));
    }
    out.push(metric("engine.handoffs", "count", total_count("engine.handoffs", "")));
    let worst = trace::counts("engine.stretch_max", "").into_iter().fold(0.0, f64::max);
    out.push(metric("engine.stretch_max", "ratio", worst));
    out.push(metric(
        "serve.codec_ns_per_frame",
        "ns",
        ratio(total_secs("serve.codec", "") * 1e9, total_count("serve.codec_frames", "")),
    ));
    out.push(metric("serve.engine_s", "s", total_count("serve.engine_ns", "") / 1e9));
    out.push(metric(
        "serve.wire_us_per_frame",
        "us",
        ratio(total_count("serve.client_ns", "") / 1e3, total_count("serve.client_frames", "")),
    ));
    out.push(metric("serve.route_p99_us", "us", total_count("serve.route_p99_us", "")));
    out.push(metric("serve.frames", "count", total_count("serve.frames", "")));
    out.push(metric("serve.rejected", "count", total_count("serve.rejected", "")));
    out
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

/// Runs `SETUP_REPS - 1` set-ups, one child process each, one after the
/// other; returns their set-up times in seconds.
fn child_setups(argv: &[String]) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (1..SETUP_REPS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(argv)
                .args(["--setup-only", "1"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            match stdout.lines().last().map(str::parse::<f64>) {
                Some(Ok(secs)) if out.status.success() => Ok(secs),
                _ => Err(format!("set-up child exited {} printing {stdout:?}", out.status)),
            }
        })
        .collect()
}

fn log_outcome(label: &str, outcome: &Outcome) {
    let ops = &outcome.ops;
    eprintln!(
        "{label}: queries {}/{} failed, frames {}/{} failed, epochs {}/{} failed, correct {}",
        ops.queries.failed,
        ops.queries.attempted,
        ops.frames.failed,
        ops.frames.attempted,
        ops.epochs.failed,
        ops.epochs.attempted,
        outcome.correct
    );
    for p in &ops.problems {
        eprintln!("  problem: {p}");
    }
    for n in &ops.notes {
        eprintln!("  note: {n}");
    }
    for m in &outcome.end_to_end {
        eprintln!("  {:<14} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv, nproc) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.config;
    eprintln!(
        "perfbench {} seed {} for {}s: {} engine workers (available_parallelism)",
        args.workload, cfg.seed, cfg.seconds, cfg.workers
    );
    if cfg.setup_only {
        let outcome = run(&args.workload, cfg);
        println!("{}", outcome.setup.as_secs_f64());
        return if outcome.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    // Untraced runs set up in child processes too, before the timed
    // process's own set-up; traced runs compare single set-ups.
    let children = if args.trace { Ok(Vec::new()) } else { child_setups(&argv) };
    let mut untraced = run(&args.workload, cfg);
    match children {
        Ok(mut setups) => {
            setups.push(untraced.setup.as_secs_f64());
            let shown: Vec<String> = setups.iter().map(|s| format!("{s:.4}")).collect();
            eprintln!("set-ups (children, then this process): {} s", shown.join(" "));
            if let Some(setup) = untraced.end_to_end.iter_mut().find(|m| m.name == "setup_s") {
                setup.value = median(&mut setups);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            untraced.correct = false;
        }
    }
    log_outcome("untraced", &untraced);
    if !args.trace {
        println!(
            "{}",
            json_line(
                untraced.correct,
                untraced.ops.attempted(),
                untraced.ops.failed(),
                &untraced.end_to_end
            )
        );
        return ExitCode::SUCCESS;
    }

    trace::start();
    let traced = run(&args.workload, cfg);
    trace::stop();
    log_outcome("traced", &traced);
    println!("tracing overhead (traced against untraced, same process):");
    for (u, t) in untraced.end_to_end.iter().zip(&traced.end_to_end) {
        println!(
            "  {:<14} {:>16.6} -> {:>16.6} {:<6} ({:+.2}%)",
            u.name,
            u.value,
            t.value,
            u.unit,
            100.0 * ratio(t.value - u.value, u.value)
        );
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.json", args.workload, cfg.seed));
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"workers\":{},\"available_parallelism\":{nproc}",
        args.workload, cfg.seed, cfg.seconds, cfg.workers
    );
    match trace::write_json(&path, &header) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!(
        "{}",
        json_line(
            untraced.correct && traced.correct,
            untraced.ops.attempted() + traced.ops.attempted(),
            untraced.ops.failed() + traced.ops.failed(),
            &per_layer()
        )
    );
    ExitCode::SUCCESS
}
