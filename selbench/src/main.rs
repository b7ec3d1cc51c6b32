//! `selbench` — the selcache benchmark.
//!
//! ```text
//! selbench --workload paper-suite|sampled-large|service-mixed \
//!          --seed N --seconds S --trace 0|1 [--threads N]
//! selbench --regen-expected
//! ```
//!
//! Prints a labelled header and every metric by name and unit, then, as
//! the last line, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones (and writes its spans under `.selbench_out/`). The
//! end-to-end times are calibrated for the host's speed (`host.rs`). See
//! `README.md` next to `Cargo.toml`.

mod decompose;
mod expected;
mod host;
mod jobs;
mod service;
mod suite;
mod trace;
mod util;

use selcache_core::json::Json;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// End-to-end metrics: every workload reports all of them.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "Minst/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run; layers a workload does not
/// exercise report 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("workloads.build_ms", "ms"),
    ("workloads.programs", "count"),
    ("compiler.prepare_ms", "ms"),
    ("engine.programs_prepared", "count"),
    ("ir.interp_ms", "ms"),
    ("ir.trace_ops", "count"),
    ("ir.interp_mops_per_s", "Mop/s"),
    ("ir.checkpoint_advance_ms", "ms"),
    ("mem.replay_ms", "ms"),
    ("mem.data_accesses", "count"),
    ("mem.l1d_miss_pct", "%"),
    ("mem.l2_miss_pct", "%"),
    ("mem.assist_useful_ratio", "ratio"),
    ("mem.warm_ms", "ms"),
    ("mem.adapt.overhead_ms", "ms"),
    ("mem.adapt.switches", "count"),
    ("cpu.pipeline_ms", "ms"),
    ("cpu.self_ms", "ms"),
    ("cpu.ipc", "inst/cycle"),
    ("cpu.issue_stall_cycles", "count"),
    ("cpu.mispredicts", "count"),
    ("analysis.profile_ms", "ms"),
    ("analysis.select_ms", "ms"),
    ("analysis.intervals", "count"),
    ("analysis.representatives", "count"),
    ("engine.executed", "count"),
    ("engine.dedup_hits", "count"),
    ("engine.parallel_efficiency", "ratio"),
    ("engine.straggler_ms", "ms"),
    ("sampled.cold_job_ms", "ms"),
    ("sampled.warm_job_ms", "ms"),
    ("sampled.detailed_frac", "ratio"),
    ("sampled.warmup_ops", "count"),
    ("store.get_p50_ms", "ms"),
    ("store.get_p99_ms", "ms"),
    ("store.put_p50_ms", "ms"),
    ("store.put_p99_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.bytes_written", "bytes"),
    ("service.ping_ms", "ms"),
    ("service.connect_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.errors", "count"),
    ("hit_req_p50_ms", "ms"),
    ("sampled_cpi_err_pct", "%"),
    ("sampled_l1_err_pts", "pts"),
    ("failed_frac", "ratio"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str = "usage: selbench --workload paper-suite|sampled-large|service-mixed \
--seed N --seconds S --trace 0|1 [--threads N]   |   selbench --regen-expected";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Engine thread budget of the suite workloads' passes.
    pub threads: usize,
    /// `--solo`: time each distinct suite job alone (the traced run's
    /// child).
    pub solo: bool,
    /// `--group K`: a single-pass run measures only the K-th benchmark's
    /// request of the pass (a `sampled-large` pass's child).
    pub group: Option<usize>,
}

/// What a run measured: operation counts, metrics, and header labels.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: HashMap<&'static str, f64>,
    labels: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(setup_s: f64) -> Outcome {
        let mut o =
            Outcome { attempted: 0, failed: 0, metrics: HashMap::new(), labels: Vec::new() };
        o.set("setup_s", setup_s);
        o
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn label(&mut self, key: &str, value: String) {
        self.labels.push((key.to_string(), value));
    }

    /// Writes the recorder's spans to `.selbench_out/`.
    pub fn write_trace(&mut self, rec: &trace::Recorder, args: &Args) {
        let path = PathBuf::from(".selbench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match rec.write_jsonl(&path) {
            Ok(()) => self.label("spans", path.display().to_string()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// The last line a child run printed, parsed, and its `# key: value`
/// header labels.
pub struct ChildResult {
    pub attempted: u64,
    pub failed: u64,
    doc: Json,
    labels: Vec<(String, String)>,
}

impl ChildResult {
    pub fn metric(&self, name: &str) -> Result<f64, String> {
        self.doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("child run reported no {name}"))
    }

    /// A numeric header label, such as `raw_wall_s`.
    pub fn label_f64(&self, key: &str) -> Result<f64, String> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| format!("child run reported no {key}"))
    }

    /// The per-job times of a `--solo` child, ms.
    pub fn solo_ms(&self) -> Result<Vec<f64>, String> {
        let items = self.doc.get("solo_ms").and_then(Json::as_arr).ok_or("no solo_ms")?;
        items.iter().map(|v| v.as_f64().ok_or("solo_ms: not a number".to_string())).collect()
    }
}

/// Runs this benchmark again in a fresh process, untraced, for a single
/// pass (`--seconds 0`), with `extra` arguments.
pub fn run_child(args: &Args, extra: &[&str]) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", "0", "--trace", "0"])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!("child run exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or("");
    let doc = Json::parse(last).map_err(|e| format!("child run output: {e}"))?;
    let num = |k: &str| doc.get(k).and_then(Json::as_u64).ok_or(format!("child run: no {k}"));
    let labels = text
        .lines()
        .filter_map(|l| l.strip_prefix("# ")?.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(ChildResult { attempted: num("attempted")?, failed: num("failed")?, doc, labels })
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = suite::THREADS;
    let mut solo = false;
    let mut group = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--threads" => {
                threads = value()?.parse::<usize>().map_err(|e| format!("--threads: {e}"))?.max(1)
            }
            "--solo" => solo = true,
            "--group" => {
                group = Some(value()?.parse::<usize>().map_err(|e| format!("--group: {e}"))?)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
        solo,
        group,
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--regen-expected") {
        if let Err(e) = expected::regenerate(suite::TRACE_THREADS) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if raw.first().map(String::as_str) == Some("--serve") {
        std::process::exit(service::serve(&raw[1..]));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.solo {
        let solo = match args.workload.as_str() {
            "paper-suite" => suite::solo(suite::Kind::PaperSuite, &args),
            "sampled-large" => suite::solo(suite::Kind::SampledLarge, &args),
            other => Err(format!("--solo runs a suite workload, not {other:?}")),
        };
        if let Err(e) = solo {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let outcome = match args.workload.as_str() {
        "paper-suite" => suite::run(suite::Kind::PaperSuite, &args),
        "sampled-large" => suite::run(suite::Kind::SampledLarge, &args),
        "service-mixed" => service::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok(o) => report(&args, o),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints the labelled header, every metric with its unit, and the JSON
/// result line.
fn report(args: &Args, mut o: Outcome) {
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    o.set("failed_frac", failed_frac);
    if let (Some(&u), Some(&t)) =
        (o.metrics.get("trace.untraced_wall_s"), o.metrics.get("trace.traced_wall_s"))
    {
        o.set("trace.overhead_pct", (t - u) / u * 100.0);
    }
    println!(
        "# selbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# host: nproc={} cpu=\"{}\"", util::nproc(), util::cpu_model());
    for (k, v) in &o.labels {
        println!("# {k}: {v}");
    }
    println!("# attempted={} failed={} failed_frac={failed_frac}", o.attempted, o.failed);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match o.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("error: workload {} did not measure {name}", args.workload);
                std::process::exit(1);
            }
        };
        println!("{name} = {value} {unit}");
        metrics.push((name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])));
    }
    let line = Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::UInt(o.attempted.max(1))),
        ("failed", Json::UInt(o.failed)),
        ("metrics", Json::Obj(metrics.into_iter().map(|(k, v)| (k.to_string(), v)).collect())),
    ]);
    println!("{line}");
}
