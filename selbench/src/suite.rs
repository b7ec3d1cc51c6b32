//! The engine workloads: `paper-suite` and `sampled-large`.
//!
//! A pass (a sweep of the whole job set) submits the jobs one benchmark at
//! a time, in the seeded order, each benchmark's jobs as one `JobEngine`
//! request, and checks every result against `expected.json`. On the
//! one-thread engine of the measured passes this is the same work as one
//! request of the whole set: jobs of different benchmarks share no
//! identity and no prepared program, so deduplication and program
//! preparation happen within each benchmark either way (set-up checks
//! that the engine's plan agrees). Each request is one calibrated unit
//! (see `host.rs`). A new pass starts while `--seconds` have not yet
//! elapsed, and at least one runs; a pass of either workload outlasts the
//! 10 s the benchmark is run with. `sampled-large` runs each benchmark's
//! request of a pass in a fresh child process (`--seconds 0 --group K`
//! makes a run the K-th request alone, in-process), so every job is cold
//! and every request's peak memory is its own.

use crate::decompose::{self, Tally};
use crate::expected::Expected;
use crate::host::Host;
use crate::trace::Recorder;
use crate::util::{median, ms_since, peak_rss_mb, percentile, tail_percentile, Rng};
use crate::{Args, Outcome};
use selcache_core::json::Json;
use selcache_core::{EngineStats, JobEngine, SimJob, SimResult};
use std::collections::HashSet;
use std::time::Instant;

/// Engine thread budget of the end-to-end passes. On a 2-core machine
/// `fig4 --scale small` took 11.0–11.7 s on one thread but 5.6–7.8 s on
/// two (three runs each): two threads spread several times wider.
pub const THREADS: usize = 1;

/// Engine thread budget of the traced run's passes (all cores of the
/// 2-core machine the benchmark is sized for), so parallel efficiency and
/// stragglers show.
pub const TRACE_THREADS: usize = 2;

/// Sampled jobs the traced run re-runs warm.
const WARM_SAMPLES: usize = 6;

/// One in this many distinct jobs of the traced run is rebuilt a second
/// time with the recorder off, to measure what tracing costs.
const PAIRED_SHARE: usize = 6;

/// Set-up repeats at least `SETUPS` times and until `SETUP_SECONDS` have
/// passed; `setup_s` is the median calibrated repetition. A paper-suite
/// set-up takes milliseconds, so a few repetitions would measure host
/// noise.
const SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperSuite,
    SampledLarge,
}

struct Pass {
    wall_s: f64,
    stats: EngineStats,
    results: Vec<SimResult>,
}

/// One traced pass: the job set as a single engine request.
fn pass(engine: &JobEngine, jobs: &[SimJob]) -> Pass {
    let t = Instant::now();
    let (results, stats) = engine.run_with_stats(jobs);
    Pass { wall_s: t.elapsed().as_secs_f64(), stats, results }
}

/// The job set split into one request per benchmark, in order of first
/// appearance, each keeping the set's order.
fn by_benchmark(jobs: &[SimJob]) -> Vec<Vec<SimJob>> {
    let mut groups: Vec<Vec<SimJob>> = Vec::new();
    for job in jobs {
        match groups.iter_mut().find(|g| g[0].benchmark == job.benchmark) {
            Some(g) => g.push(job.clone()),
            None => groups.push(vec![job.clone()]),
        }
    }
    groups
}

/// What one measured pass cost and returned.
struct Sweep {
    /// Calibrated and raw pass time, s.
    wall_s: f64,
    raw_s: f64,
    attempted: u64,
    failed: u64,
    instructions: u64,
}

/// One measured pass: each benchmark's jobs as one calibrated engine
/// request, every result checked.
fn sweep(
    engine: &JobEngine,
    groups: &[Vec<SimJob>],
    expected: &Expected,
    host: &mut Host,
) -> Sweep {
    let mut s = Sweep { wall_s: 0.0, raw_s: 0.0, attempted: 0, failed: 0, instructions: 0 };
    for group in groups {
        let t = host.time(|| engine.run(group));
        s.wall_s += t.s;
        s.raw_s += t.raw_s;
        let (a, f) = check(expected, group, &t.value);
        s.attempted += a;
        s.failed += f;
        s.instructions += instructions(group, &t.value);
    }
    s
}

/// Set-up: build the seeded job set, plan it, and build each benchmark
/// program once at the workload's scale, each repetition a calibrated
/// unit.
fn setup(kind: Kind, args: &Args, host: &mut Host) -> (Vec<SimJob>, f64) {
    let seeded = || {
        let mut jobs = match kind {
            Kind::PaperSuite => crate::jobs::paper_suite(),
            Kind::SampledLarge => crate::jobs::sampled_large(),
        };
        // The seed fixes the submission order.
        Rng::new(args.seed).shuffle(&mut jobs);
        jobs
    };
    if args.seconds == 0 {
        // A single-pass run (the unit a parent run spawns) reports no
        // set-up time. Building the programs here would leave its heap,
        // and so the peak memory of the request it measures, depending on
        // the seeded build order.
        return (seeded(), 0.0);
    }
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = host.time(|| {
            let jobs = seeded();
            JobEngine::serial().dry_run(&jobs);
            let mut built = HashSet::new();
            for job in &jobs {
                if built.insert(job.benchmark) {
                    std::hint::black_box(job.benchmark.build(job.scale));
                }
            }
            jobs
        });
        times.push(t.s);
        last = Some(t.value);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Checks that one request per benchmark plans the same work as one
/// request of the whole set.
fn check_split(jobs: &[SimJob], groups: &[Vec<SimJob>]) -> Result<(), String> {
    let engine = JobEngine::serial();
    let whole = engine.dry_run(jobs);
    let parts = groups.iter().map(|g| engine.dry_run(g));
    let (executed, prepared) =
        parts.fold((0, 0), |(e, p), s| (e + s.executed, p + s.programs_prepared));
    if (executed, prepared) != (whole.executed, whole.programs_prepared) {
        return Err(format!(
            "per-benchmark requests plan {executed} executions and {prepared} programs, \
the whole set {} and {}",
            whole.executed, whole.programs_prepared
        ));
    }
    Ok(())
}

/// Checks a pass; returns (attempted, failed).
fn check(expected: &Expected, jobs: &[SimJob], results: &[SimResult]) -> (u64, u64) {
    let mut failed = 0;
    for (job, r) in jobs.iter().zip(results) {
        if let Err(e) = expected.check(job, r) {
            eprintln!("mismatch: {e}");
            failed += 1;
        }
    }
    (jobs.len() as u64, failed)
}

/// Index of the first job of each distinct execution, in submission order.
fn distinct(jobs: &[SimJob]) -> Vec<usize> {
    let mut seen = HashSet::new();
    (0..jobs.len()).filter(|&i| seen.insert(jobs[i].job_id())).collect()
}

/// Simulated instructions of the distinct executions in a pass (committed
/// for exact jobs, represented for sampled ones).
fn instructions(jobs: &[SimJob], results: &[SimResult]) -> u64 {
    distinct(jobs).into_iter().map(|i| results[i].instructions).sum()
}

/// `--solo`: runs each distinct job alone on a one-thread engine, checks
/// it, and prints `{"attempted", "failed", "solo_ms"}` (one time per
/// distinct job, in submission order). The traced run spawns this in a
/// fresh process, so every sampled job finds the selection cache cold.
pub fn solo(kind: Kind, args: &Args) -> Result<(), String> {
    let expected = Expected::load()?;
    let (jobs, _) = setup(kind, args, &mut Host::new());
    let mut times = Vec::new();
    let mut failed = 0;
    let order = distinct(&jobs);
    for &i in &order {
        let job = std::slice::from_ref(&jobs[i]);
        let t = Instant::now();
        let results = JobEngine::serial().run(job);
        times.push(Json::Num(ms_since(t)));
        failed += check(&expected, job, &results).1;
    }
    let line = Json::obj([
        ("attempted", Json::UInt(order.len() as u64)),
        ("failed", Json::UInt(failed)),
        ("solo_ms", Json::Arr(times)),
    ]);
    println!("{line}");
    Ok(())
}

pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    // The output check's reference data: parsed once, outside set-up.
    let expected = Expected::load()?;
    let mut host = Host::new();
    let (jobs, setup_s) = setup(kind, args, &mut host);
    let mut out = Outcome::new(setup_s);
    let threads = if args.trace { TRACE_THREADS } else { args.threads };
    out.label("engine_threads", threads.to_string());
    out.label("timing", "cold (fresh process, no store)".into());
    out.label("jobs", jobs.len().to_string());
    if args.trace {
        traced(kind, args, &expected, &jobs, &mut out)?;
        return Ok(out);
    }
    let groups = by_benchmark(&jobs);
    check_split(&jobs, &groups)?;
    out.label("requests_per_pass", format!("{} (one per benchmark)", groups.len()));

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut insts = 0.0;
    let mut peak_mb: f64 = 0.0;
    let engine = JobEngine::new(threads);
    loop {
        if kind == Kind::SampledLarge && args.seconds > 0 {
            // The selection cache lives as long as the process, and a
            // process's peak memory depends on what ran in it before, so
            // each benchmark's request runs in a fresh child process, as a
            // CLI run of that benchmark does.
            let (mut wall, mut raw) = (0.0, 0.0);
            for k in 0..groups.len() {
                let child = crate::run_child(
                    args,
                    &["--threads", &threads.to_string(), "--group", &k.to_string()],
                )?;
                out.attempted += child.attempted;
                out.failed += child.failed;
                let w = child.metric("wall_s")?;
                insts += child.metric("sim_mips")? * 1e6 * w;
                peak_mb = peak_mb.max(child.metric("peak_rss_mb")?);
                wall += w;
                raw += child.label_f64("raw_wall_s")?;
            }
            walls.push(wall);
            raw_walls.push(raw);
        } else {
            let measured = match args.group {
                Some(k) => groups.get(k..=k).ok_or(format!("--group {k}: no such request"))?,
                None => &groups[..],
            };
            let s = sweep(&engine, measured, &expected, &mut host);
            out.attempted += s.attempted;
            out.failed += s.failed;
            insts += s.instructions as f64;
            walls.push(s.wall_s);
            raw_walls.push(s.raw_s);
            peak_mb = peak_rss_mb(None);
        }
        if start.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
    }
    let total: f64 = walls.iter().sum();
    let wall_s = median(&walls);
    out.set("wall_s", wall_s);
    out.set("sim_mips", insts / total / 1e6);
    out.set("req_p50_ms", wall_s * 1e3);
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.set("req_p99_ms", percentile(&ms, tail_percentile(ms.len())));
    out.set("req_per_s", walls.len() as f64 / total);
    out.set("peak_rss_mb", peak_mb);
    out.label("passes", walls.len().to_string());
    out.label("raw_wall_s", median(&raw_walls).to_string());
    out.label("calibration", host.describe());
    if kind == Kind::SampledLarge && args.seconds > 0 {
        out.label(
            "children",
            format!("{} per pass, each calibrating its own request", groups.len()),
        );
    }
    Ok(out)
}

/// The traced run: a traced engine pass, each distinct job's solo engine
/// time from a fresh child process, then the layer-by-layer rebuild of
/// every distinct job of the pass, a seeded share of them also with the
/// recorder off. The pass and the child are cold; the rebuild never
/// touches the engine's selection cache; the one-thread engine re-runs
/// after it are warm (selection-cache hits).
fn traced(
    kind: Kind,
    args: &Args,
    expected: &Expected,
    jobs: &[SimJob],
    out: &mut Outcome,
) -> Result<(), String> {
    let rec = Recorder::new();
    let engine = JobEngine::new(TRACE_THREADS);
    let span = rec.open("core.engine", None, None);
    let p = pass(&engine, jobs);
    rec.close(span);
    let (a, f) = check(expected, jobs, &p.results);
    out.attempted += a;
    out.failed += f;

    let child = crate::run_child(args, &["--solo"])?;
    out.attempted += child.attempted;
    out.failed += child.failed;
    let order = distinct(jobs);
    let solo_ms = child.solo_ms()?;
    if solo_ms.len() != order.len() {
        return Err(format!("solo run timed {} jobs, expected {}", solo_ms.len(), order.len()));
    }
    out.label("solo_jobs", "one-thread engine, one job per request, fresh process (cold)".into());

    let mut pairs = order.clone();
    Rng::new(args.seed ^ 0x91d3).shuffle(&mut pairs);
    pairs.truncate(order.len().div_ceil(PAIRED_SHARE));
    let pairs: HashSet<usize> = pairs.into_iter().collect();
    let mut tally = Tally::default();
    match kind {
        Kind::PaperSuite => decompose::exact_jobs(&rec, jobs, &p.results, &pairs, &mut tally),
        Kind::SampledLarge => decompose::sampled_jobs(&rec, jobs, &p.results, &pairs, &mut tally),
    }
    out.attempted += tally.matched + tally.mismatches.len() as u64;
    out.failed += tally.mismatches.len() as u64;
    for m in &tally.mismatches {
        eprintln!("rebuild mismatch: {m}");
    }
    out.label(
        "traced_jobs",
        format!(
            "{} rebuilt, {} matched, {} also rebuilt untraced",
            tally.matched as usize + tally.mismatches.len(),
            tally.matched,
            tally.paired
        ),
    );

    if kind == Kind::SampledLarge {
        // Warm re-runs of a seeded sample of jobs on a one-thread engine,
        // now answered from the selection cache the pass filled; their
        // cold counterparts are the same jobs' solo times.
        let mut sample: Vec<usize> = (0..order.len()).collect();
        Rng::new(args.seed ^ 0x3a7f).shuffle(&mut sample);
        sample.truncate(WARM_SAMPLES);
        let serial = JobEngine::serial();
        let warm: Vec<f64> = sample
            .iter()
            .map(|&k| {
                let t = Instant::now();
                serial.run(std::slice::from_ref(&jobs[order[k]]));
                ms_since(t)
            })
            .collect();
        let cold: Vec<f64> = sample.iter().map(|&k| solo_ms[k]).collect();
        out.label("sampled_job_timing", "cold_job_ms: solo (cold); warm_job_ms: warm".into());
        out.set("sampled.cold_job_ms", median(&cold));
        out.set("sampled.warm_job_ms", median(&warm));
        out.set("sampled.detailed_frac", tally.detailed_ops as f64 / tally.total_ops.max(1) as f64);
        out.set("sampled.warmup_ops", tally.warmup_ops as f64);
        out.set("analysis.profile_ms", rec.total_ms("analysis.profile"));
        out.set("analysis.select_ms", rec.total_ms("analysis.select"));
        out.set("analysis.intervals", tally.intervals as f64);
        out.set("analysis.representatives", tally.representatives as f64);
        out.set("ir.checkpoint_advance_ms", rec.total_ms("ir.checkpoint_advance"));
        out.set("mem.warm_ms", rec.total_ms("mem.warm"));
        let (cpi, l1) = expected.sampling_errors(jobs, &p.results)?;
        out.set("sampled_cpi_err_pct", cpi);
        out.set("sampled_l1_err_pts", l1);
    } else {
        out.set("mem.replay_ms", rec.total_ms("mem.replay"));
        out.set("mem.data_accesses", tally.data_accesses as f64);
        out.set("mem.adapt.overhead_ms", tally.adapt_overhead_ms);
        out.set("mem.adapt.switches", tally.adapt_switches as f64);
        out.set("cpu.self_ms", rec.total_ms("cpu.pipeline") - rec.total_ms("mem.replay"));
    }
    // The solo times sum to the serial work the engine spread over its
    // threads.
    let solo: f64 = solo_ms.iter().sum();
    out.set("engine.parallel_efficiency", solo / 1e3 / (TRACE_THREADS as f64 * p.wall_s));
    out.set("engine.straggler_ms", solo_ms.iter().cloned().fold(0.0, f64::max));
    out.set("workloads.build_ms", rec.total_ms("workloads.build"));
    out.set("workloads.programs", tally.programs as f64);
    out.set("compiler.prepare_ms", rec.total_ms("compiler.prepare"));
    out.set("engine.programs_prepared", p.stats.programs_prepared as f64);
    out.set("engine.executed", p.stats.executed as f64);
    out.set("engine.dedup_hits", p.stats.dedup_hits as f64);
    let interp_ms = rec.total_ms("ir.interp");
    out.set("ir.interp_ms", interp_ms);
    out.set("ir.trace_ops", tally.trace_ops as f64);
    out.set("ir.interp_mops_per_s", tally.trace_ops as f64 / interp_ms.max(1e-9) / 1e3);
    out.set("cpu.pipeline_ms", rec.total_ms("cpu.pipeline"));
    out.set("mem.l1d_miss_pct", pct(tally.l1d_misses, tally.l1d_accesses));
    out.set("mem.l2_miss_pct", pct(tally.l2_misses, tally.l2_accesses));
    out.set("mem.assist_useful_ratio", tally.assist_hits as f64 / tally.assisted.max(1) as f64);
    out.set("cpu.ipc", tally.committed as f64 / tally.cycles.max(1) as f64);
    out.set("cpu.issue_stall_cycles", tally.issue_stall_cycles as f64);
    out.set("cpu.mispredicts", tally.mispredicts as f64);
    out.set("trace.untraced_wall_s", tally.untraced_ms / 1e3);
    out.set("trace.traced_wall_s", tally.traced_ms / 1e3);
    out.set("trace.overhead_s", (tally.traced_ms - tally.untraced_ms) / 1e3);
    out.set("trace.spans", rec.len() as f64);
    out.write_trace(&rec, args);
    Ok(())
}

fn pct(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64 * 100.0
}
