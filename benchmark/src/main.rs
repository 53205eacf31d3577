//! End-to-end benchmark of the pLUTo reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve_small|qnn_mlp|registry_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this fresh process: the packed-row
//! and plan caches are process-wide, so workloads must not share one.
//! Requests come from the seed alone, never from timing, so the simulated
//! ledger repeats exactly for a fixed seed.
//!
//! `--trace 0` prints every end-to-end metric. Set-up is measured here and
//! in fresh child processes (`--setup-only`), and `setup_s` is the median.
//!
//! `--trace 1` first runs the untraced measurement in a child process,
//! then runs the same loop here with spans recorded around every call into
//! a layer, followed by shadow replays of sampled requests. It prints both
//! sets of end-to-end figures and their difference (the tracing overhead),
//! a stage table, and every per-layer metric; the spans are written to
//! `benchmark/traces/`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod gen;
mod ledger;
mod qnn;
mod serve;
mod shadow;
mod stats;
mod sweep;
mod trace;

use ledger::Outcome;
use pluto_baselines::WorkloadId;
use pluto_qnn::QuantModel;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["serve_small", "qnn_mlp", "registry_sweep"];

/// Set-ups measured per untraced run, this process's own included: at
/// least the first figure, and more while their sum stays under
/// [`SETUP_BUDGET_S`], up to the second. `setup_s` is their median.
const SETUP_SAMPLES: (usize, usize) = (3, 41);
/// Set-up seconds after which no further set-up samples are taken.
const SETUP_BUDGET_S: f64 = 1.0;

#[derive(Debug, Clone)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    /// Set-up samples to take (`--setup-samples`, internal; the
    /// default takes [`SETUP_SAMPLES`]).
    setup_samples: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        setup_samples: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            opts.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--setup-samples" => opts.setup_samples = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) || opts.setup_samples == Some(0) {
        return Err("--seconds and --setup-samples must be positive".into());
    }
    Ok(opts)
}

/// A workload, set up and ready for its timed loop.
enum Bench {
    Serve(serve::ServeBench),
    Qnn(qnn::QnnBench),
    Sweep(sweep::SweepBench),
}

impl Bench {
    fn setup(workload: &str, seed: u64) -> Bench {
        match workload {
            "serve_small" => Bench::Serve(serve::ServeBench::new(seed)),
            "qnn_mlp" => Bench::Qnn(qnn::QnnBench::new(seed)),
            "registry_sweep" => Bench::Sweep(sweep::SweepBench::new()),
            other => unreachable!("workload {other} was validated"),
        }
    }

    fn setup_problems(&self) -> Vec<String> {
        match self {
            Bench::Serve(b) => b.setup_problems().to_vec(),
            Bench::Qnn(b) => b.setup_problems().to_vec(),
            Bench::Sweep(b) => b.setup_problems().to_vec(),
        }
    }

    fn measure(self, seconds: f64, tr: &mut Tracer) -> Outcome {
        match self {
            Bench::Serve(b) => b.measure(seconds, tr),
            Bench::Qnn(b) => b.measure(seconds, tr),
            Bench::Sweep(b) => b.measure(seconds, tr),
        }
    }
}

/// One named metric value.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Every per-layer metric, in report order, with its unit.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("serve.enqueue_ns", "ns"),
        ("serve.flush_ns", "ns"),
        ("serve.wait_ns", "ns"),
        ("serve.batch_fill", "count"),
        ("serve.affinities", "count"),
        ("cluster.steals_per_kreq", "count/kreq"),
        ("library.reset_ns", "ns"),
        ("library.load_ns", "ns"),
        ("library.apply_warm_ns", "ns"),
        ("library.load_share", "ratio"),
        ("session.build_ns", "ns"),
        ("session.oracle_ns", "ns"),
        ("lut.apply_all_ns", "ns"),
        ("store.packed_hits", "count"),
        ("store.packed_misses", "count"),
        ("store.packed_hit_ratio", "ratio"),
        ("store.packed_entries", "count"),
        ("plan.hits", "count"),
        ("plan.misses", "count"),
        ("plan.fallbacks", "count"),
        ("plan.hit_ratio", "ratio"),
        ("plan.entries", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    let model = QuantModel::mnist_mlp(0);
    for layer in &model.layers {
        m.push((format!("qnn.gemv_ns.{}", layer.linear.name()), "ns"));
    }
    for layer in model.layers.iter().filter(|l| l.requant.is_some()) {
        m.push((format!("qnn.requant_ns.{}", layer.linear.name()), "ns"));
    }
    m.push(("qnn.lookups_per_sample".into(), "count"));
    m.push(("cluster.submit_ns".into(), "ns"));
    m.push(("cluster.run_s".into(), "s"));
    for stage in ["prepare", "run_pluto", "reference"] {
        for id in WorkloadId::CANONICAL {
            m.push((format!("workloads.{stage}_ns.{id:?}"), "ns"));
        }
    }
    for name in [
        "dram.acts_per_req",
        "dram.row_hits",
        "dram.row_misses",
        "dram.row_conflicts",
        "dram.queue_stalls",
    ] {
        m.push((name.into(), "count/req"));
    }
    m.push(("trace.overhead_throughput_pct".into(), "%"));
    m.push(("trace.overhead_p50_us".into(), "us"));
    m.push(("trace.spans".into(), "count"));
    m
}

/// The end-to-end metrics of a run, and a note on the tail percentile.
fn end_to_end(out: &Outcome, setup_s: f64, rss_mib: f64) -> (Vec<Metric>, String) {
    let (tput, p50, tail, note) = match out.windows.summary() {
        Some(w) => (
            w.throughput,
            w.p50,
            w.tail.value,
            format!(
                "medians over {} windows; tail is p{} with {} samples beyond it per window",
                w.windows, w.tail.pct, w.tail.beyond
            ),
        ),
        None => (0.0, 0.0, 0.0, String::from("no samples")),
    };
    let metrics = vec![
        Metric::new("throughput_rps", tput, "1/s"),
        Metric::new("latency_p50_us", p50, "us"),
        Metric::new("latency_tail_us", tail, "us"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mib", rss_mib, "MiB"),
        Metric::new("sim_time_ps_per_req", out.sim.time_per_req(), "ps/req"),
        Metric::new("sim_energy_pj_per_req", out.sim.energy_per_req(), "pJ/req"),
    ];
    (metrics, note)
}

/// Failed requests over attempted. Printed beside the end-to-end metrics;
/// the JSON result carries the same counts as `attempted` and `failed`.
fn error_rate(out: &Outcome) -> f64 {
    out.failed as f64 / out.attempted.max(1) as f64
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The result line. A non-finite value (a run too broken to measure,
/// already marked incorrect) is written as 0 to keep the line valid JSON.
fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn print_metrics(tag: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{tag}\t{}\t{}\t{}", m.name, m.value, m.unit);
    }
}

fn report_problems(out: &Outcome, setup: &[String]) -> bool {
    for p in setup.iter().chain(&out.problems) {
        println!("problem\t{p}");
    }
    setup.is_empty() && out.problems.is_empty() && out.failed == 0
}

fn child(opts: &Opts, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("child run exited with {}", output.status));
    }
    String::from_utf8(output.stdout).map_err(|e| e.to_string())
}

/// A fresh process's set-up time.
fn setup_child(opts: &Opts) -> Result<f64, String> {
    let stdout = child(opts, &["--setup-only"])?;
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup_s\t"))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "setup child printed no setup_s".into())
}

/// The untraced end-to-end figures and verdict, from a fresh process.
fn untraced_child(opts: &Opts) -> Result<(bool, BTreeMap<String, f64>), String> {
    let stdout = child(opts, &["--trace", "0", "--setup-samples", "1"])?;
    let figures = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("e2e\t"))
        .filter_map(|l| {
            let mut f = l.split('\t');
            Some((f.next()?.to_string(), f.next()?.parse().ok()?))
        })
        .collect();
    let correct = stdout
        .lines()
        .last()
        .is_some_and(|l| l.contains("\"correct\": true"));
    Ok((correct, figures))
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.setup_only {
        let bench = Bench::setup(&opts.workload, opts.seed);
        let setup_s = start.elapsed().as_secs_f64();
        if !bench.setup_problems().is_empty() {
            return ExitCode::FAILURE;
        }
        println!("setup_s\t{setup_s}");
        return ExitCode::SUCCESS;
    }
    println!(
        "workload\t{}\tseed\t{}\tseconds\t{}\ttrace\t{}\tworkers\t{}\tcpus\t{}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        serve::WORKERS,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    if opts.trace {
        traced_run(&opts)
    } else {
        untraced_run(&opts, start)
    }
}

fn untraced_run(opts: &Opts, start: Instant) -> ExitCode {
    let bench = Bench::setup(&opts.workload, opts.seed);
    let own_setup = start.elapsed().as_secs_f64();
    let setup_problems = bench.setup_problems();
    let out = bench.measure(opts.seconds, &mut Tracer::new(false));
    let mut correct = report_problems(&out, &setup_problems);
    let mut setups = vec![own_setup];
    let more = |setups: &[f64]| match opts.setup_samples {
        Some(n) => setups.len() < n,
        None => {
            let (min, max) = SETUP_SAMPLES;
            setups.len() < min
                || (setups.len() < max && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
        }
    };
    while more(&setups) {
        match setup_child(opts) {
            Ok(s) => setups.push(s),
            Err(e) => {
                println!("problem\t{e}");
                correct = false;
                break;
            }
        }
    }
    let rss = peak_rss_mib().unwrap_or_else(|e| {
        println!("problem\t{e}");
        correct = false;
        0.0
    });
    let (metrics, tail_note) = end_to_end(&out, stats::median(&setups), rss);
    println!(
        "requests\tsent\t{}\tsucceeded\t{}\tfailed\t{}",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    );
    println!("setup_samples_s\t{setups:?}");
    println!("tail\t{tail_note}");
    print_metrics("e2e", &metrics);
    println!("e2e\terror_rate\t{}\tratio", error_rate(&out));
    correct &= metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0);
    println!(
        "{}",
        json_result(correct, out.attempted, out.failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn traced_run(opts: &Opts) -> ExitCode {
    let (mut correct, untraced) = untraced_child(opts).unwrap_or_else(|e| {
        println!("problem\tuntraced run: {e}");
        (false, BTreeMap::new())
    });
    if !correct {
        println!("problem\tthe untraced run was not correct");
    }

    let setup_start = Instant::now();
    let bench = Bench::setup(&opts.workload, opts.seed);
    let setup_s = setup_start.elapsed().as_secs_f64();
    let setup_problems = bench.setup_problems();
    let mut tr = Tracer::new(true);
    let out = bench.measure(opts.seconds, &mut tr);
    correct &= report_problems(&out, &setup_problems);
    let rss = peak_rss_mib().unwrap_or(0.0);
    let (traced, _) = end_to_end(&out, setup_s, rss);

    println!("overhead\tmetric\tuntraced\ttraced\ttraced-untraced\tunit");
    let mut overhead = BTreeMap::new();
    for m in &traced {
        let base = untraced.get(&m.name).copied().unwrap_or(f64::NAN);
        overhead.insert(m.name.clone(), (base, m.value));
        println!(
            "overhead\t{}\t{base}\t{}\t{}\t{}",
            m.name,
            m.value,
            m.value - base,
            m.unit
        );
    }

    println!("stage\tname\tcount\tmean_ns\tself_mean_ns\ttotal_ms");
    for (name, s) in tr.stages() {
        println!(
            "stage\t{name}\t{}\t{:.0}\t{:.0}\t{:.3}",
            s.count,
            s.total_ns as f64 / s.count as f64,
            s.self_ns as f64 / s.count as f64,
            s.total_ns as f64 / 1e6
        );
    }
    match write_spans(opts, &tr) {
        Ok(path) => println!("spans\t{}\t{path}", tr.spans().len()),
        Err(e) => {
            println!("problem\twriting spans: {e}");
            correct = false;
        }
    }

    let metrics = layer_values(&out, &tr, &overhead);
    print_metrics("layer", &metrics);
    println!(
        "{}",
        json_result(correct, out.attempted, out.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Fills every per-layer metric: from the workload's own counters, else
/// from the mean of the span named after it (`a.b_ns.c` from spans
/// `a.b.c`), else 0 for a layer this workload does not enter.
fn layer_values(
    out: &Outcome,
    tr: &Tracer,
    overhead: &BTreeMap<String, (f64, f64)>,
) -> Vec<Metric> {
    let reset = tr.mean_ns("library.reset");
    let load = tr.mean_ns("library.load");
    let warm = tr.mean_ns("library.apply_warm");
    let (tput_base, tput) = overhead
        .get("throughput_rps")
        .copied()
        .unwrap_or((f64::NAN, 0.0));
    let (p50_base, p50) = overhead
        .get("latency_p50_us")
        .copied()
        .unwrap_or((f64::NAN, 0.0));
    let zero_if_nan = |v: f64| if v.is_finite() { v } else { 0.0 };
    per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = match name.as_str() {
                _ if out.layers.contains_key(&name) => out.layers[&name],
                "library.load_share" if load > 0.0 => load / (reset + load + warm),
                "cluster.run_s" => tr.mean_ns("cluster.run") / 1e9,
                "trace.overhead_throughput_pct" => {
                    zero_if_nan((tput - tput_base) / tput_base * 100.0)
                }
                "trace.overhead_p50_us" => zero_if_nan(p50 - p50_base),
                "trace.spans" => tr.spans().len() as f64,
                n if n.contains("_ns") => tr.mean_ns(&n.replacen("_ns", "", 1)),
                _ => 0.0,
            };
            Metric::new(name, value, unit)
        })
        .collect()
}

fn write_spans(opts: &Opts, tr: &Tracer) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
    std::fs::write(&path, tr.to_json_lines()).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(&args("--workload qnn_mlp --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("qnn_mlp", 7, 3.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload qnn_mlp --trace 2")).is_err());
        assert!(parse_args(&args("--workload qnn_mlp --seconds")).is_err());
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        for (name, unit) in per_layer_metrics() {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let (e2e, _) = end_to_end(&Outcome::default(), 1.0, 1.0);
        for m in e2e {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
    }

    #[test]
    fn json_result_shape() {
        let line = json_result(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
