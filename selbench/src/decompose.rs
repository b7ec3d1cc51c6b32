//! Layer-by-layer re-execution of engine jobs for the traced run.
//!
//! Each traced job is rebuilt from the crates' public functions — program
//! build (`workloads`), preparation (`compiler`), interpretation (`ir`),
//! the memory hierarchy (`mem`) and the pipeline (`cpu`), plus interval
//! profiling and selection (`analysis`) for sampled jobs — with a span
//! around every call. The rebuilt result must equal the engine's
//! `SimResult` exactly; a mismatch is a failure, since it would mean the
//! layer times measure different work from the engine.
//!
//! Jobs in the `paired` set are rebuilt a second time, right before or
//! after the traced rebuild, with a disabled recorder: the difference of
//! the two is what the spans themselves cost.

use crate::trace::Recorder;
use crate::util::ms_since;
use selcache_analysis::{select, IntervalConfig, IntervalProfiler};
use selcache_compiler::{optimize, region_partition, selective, selective_for, AssistPolicy};
use selcache_core::{AssistKind, SimJob, SimMode, SimResult, Version};
use selcache_cpu::{CpuStats, Pipeline, Predictor};
use selcache_ir::{Interp, InterpCheckpoint, OpKind, Plan, Program, TraceOp};
use selcache_mem::{HierarchyConfig, HierarchyStats, MemoryHierarchy};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Counters summed over every traced job (times live in the recorder).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub programs: u64,
    pub trace_ops: u64,
    pub data_accesses: u64,
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub assisted: u64,
    pub assist_hits: u64,
    pub adapt_switches: u64,
    pub cycles: u64,
    pub committed: u64,
    pub issue_stall_cycles: u64,
    pub mispredicts: u64,
    pub adapt_overhead_ms: f64,
    pub intervals: u64,
    pub representatives: u64,
    pub detailed_ops: u64,
    pub total_ops: u64,
    pub warmup_ops: u64,
    /// Paired jobs' rebuild time (after program preparation) with the
    /// recorder on and with it off, ms.
    pub traced_ms: f64,
    pub untraced_ms: f64,
    pub paired: u64,
    /// Jobs whose rebuilt result matched the engine's.
    pub matched: u64,
    /// Mismatch descriptions.
    pub mismatches: Vec<String>,
}

impl Tally {
    fn absorb_result(&mut self, cpu: &CpuStats, mem: &HierarchyStats) {
        self.l1d_accesses += mem.l1d.accesses;
        self.l1d_misses += mem.l1d.misses;
        self.l2_accesses += mem.l2.accesses;
        self.l2_misses += mem.l2.misses;
        let a = &mem.assist;
        self.assisted += a.assisted_accesses;
        self.assist_hits +=
            a.bypass_buffer_hits + a.l1_victim_hits + a.l2_victim_hits + a.stream_hits;
        self.adapt_switches += a.adapt_switches;
        self.cycles += cpu.cycles;
        self.committed += cpu.committed;
        self.issue_stall_cycles += cpu.issue_stall_cycles;
        self.mispredicts += cpu.mispredicts;
    }
}

/// How the engine prepares a job's program; jobs with equal keys share
/// one prepared program, as they do in the engine.
fn program_key(job: &SimJob) -> String {
    let opt = match job.version {
        Version::Base | Version::PureHardware => String::new(),
        _ => format!("{:?}", job.opt),
    };
    let dynamic = job.machine.mem.controller.is_some() && job.version == Version::Selective;
    format!("{:?}/{:?}/{}/{dynamic}/{opt}", job.benchmark, job.scale, prep_name(job.version))
}

fn prep_name(v: Version) -> &'static str {
    match v {
        Version::Base | Version::PureHardware => "raw",
        Version::PureSoftware | Version::Combined => "optimized",
        Version::Selective => "selective",
    }
}

/// The assist a version attaches and whether it starts enabled.
fn assist_of(job: &SimJob) -> (AssistKind, bool) {
    let assist = match job.version {
        Version::Base | Version::PureSoftware => AssistKind::None,
        _ => job.assist,
    };
    (assist, job.version != Version::Selective)
}

fn hierarchy(job: &SimJob, assist: AssistKind, enabled: bool) -> MemoryHierarchy {
    let mut cfg: HierarchyConfig = job.machine.mem.clone();
    cfg.assist = assist;
    let mut mem = MemoryHierarchy::new(cfg);
    mem.set_assist_enabled(enabled);
    mem
}

/// Builds and prepares the job's program, spanning `workloads` and
/// `compiler`.
fn prepare(rec: &Recorder, parent: usize, j: usize, job: &SimJob) -> Program {
    let (base, _) =
        rec.time("workloads.build", Some(parent), Some(j), || job.benchmark.build(job.scale));
    let dynamic = job.machine.mem.controller.is_some();
    match job.version {
        Version::Base | Version::PureHardware => base,
        Version::PureSoftware | Version::Combined => {
            rec.time("compiler.prepare", Some(parent), Some(j), || optimize(&base, &job.opt)).0
        }
        Version::Selective if dynamic => {
            rec.time("compiler.prepare", Some(parent), Some(j), || {
                selective_for(&base, &job.opt, AssistPolicy::Dynamic)
            })
            .0
        }
        Version::Selective => {
            rec.time("compiler.prepare", Some(parent), Some(j), || selective(&base, &job.opt)).0
        }
    }
}

/// Runs `rebuild` with the recorder on and, for a paired job, once more
/// with a disabled recorder — first or second in turn, so neither run
/// always finds the caches warm — and adds both times to the tally.
fn paired<R>(
    rec: &Recorder,
    is_paired: bool,
    tally: &mut Tally,
    mut rebuild: impl FnMut(&Recorder) -> R,
) -> R {
    if !is_paired {
        return rebuild(rec);
    }
    let off = Recorder::disabled();
    let off_first = tally.paired.is_multiple_of(2);
    let mut untraced_ms = 0.0;
    if off_first {
        let t = Instant::now();
        rebuild(&off);
        untraced_ms = ms_since(t);
    }
    let t = Instant::now();
    let out = rebuild(rec);
    tally.traced_ms += ms_since(t);
    if !off_first {
        let t = Instant::now();
        rebuild(&off);
        untraced_ms = ms_since(t);
    }
    tally.untraced_ms += untraced_ms;
    tally.paired += 1;
    out
}

/// An exact job's rebuild: its result and the counts the layers reported.
struct Exact {
    cpu: CpuStats,
    mem: HierarchyStats,
    trace_ops: u64,
    data_accesses: u64,
    adapt_overhead_ms: f64,
}

/// Exact jobs: materialize the trace, replay its accesses through a bare
/// hierarchy, then run the pipeline over the same `TraceOp` stream.
pub fn exact_jobs(
    rec: &Recorder,
    jobs: &[SimJob],
    results: &[SimResult],
    pairs: &HashSet<usize>,
    tally: &mut Tally,
) {
    let mut programs: HashMap<String, Program> = HashMap::new();
    let mut seen = HashSet::new();
    for (j, (job, r)) in jobs.iter().zip(results).enumerate() {
        if !seen.insert(job.job_id()) {
            continue;
        }
        let parent = rec.open("job", None, Some(j));
        let key = program_key(job);
        if !programs.contains_key(&key) {
            programs.insert(key.clone(), prepare(rec, parent, j, job));
            tally.programs += 1;
        }
        let program = &programs[&key];
        let x =
            paired(rec, pairs.contains(&j), tally, |rec| exact_one(rec, parent, j, job, program));
        rec.close(parent);

        tally.absorb_result(&x.cpu, &x.mem);
        tally.trace_ops += x.trace_ops;
        tally.data_accesses += x.data_accesses;
        tally.adapt_overhead_ms += x.adapt_overhead_ms;
        if x.cpu.cycles == r.cycles
            && x.cpu.committed == r.instructions
            && x.cpu == r.cpu
            && x.mem == r.mem
        {
            tally.matched += 1;
        } else {
            tally.mismatches.push(format!(
                "{}: rebuilt cycles {} vs engine {}",
                crate::jobs::label(job),
                x.cpu.cycles,
                r.cycles
            ));
        }
    }
}

fn exact_one(rec: &Recorder, parent: usize, j: usize, job: &SimJob, program: &Program) -> Exact {
    let dynamic = job.machine.mem.controller.is_some();
    let (trace, _): (Vec<TraceOp>, f64) = if dynamic {
        let (map, _) = rec.time("compiler.prepare", Some(parent), Some(j), || {
            region_partition(program, job.opt.threshold)
        });
        rec.time("ir.interp", Some(parent), Some(j), || {
            Interp::with_regions(program, &map).collect()
        })
    } else {
        rec.time("ir.interp", Some(parent), Some(j), || Interp::new(program).collect())
    };

    let (assist, enabled) = assist_of(job);
    let fetch_block = job.machine.cpu.fetch_block;
    let (data_accesses, _) = rec.time("mem.replay", Some(parent), Some(j), || {
        let mut mem = hierarchy(job, assist, enabled);
        let mut last_fb = u64::MAX;
        let mut n = 0u64;
        for (now, op) in trace.iter().enumerate() {
            let now = now as u64;
            if op.pc / fetch_block != last_fb {
                last_fb = op.pc / fetch_block;
                mem.inst_fetch(op.pc, now);
            }
            match op.kind {
                OpKind::Load(a) => {
                    mem.data_access(a, false, now);
                    n += 1;
                }
                OpKind::Store(a) => {
                    mem.data_access(a, true, now);
                    n += 1;
                }
                OpKind::AssistOn => mem.set_assist_enabled(true),
                OpKind::AssistOff => mem.set_assist_enabled(false),
                _ => {}
            }
        }
        n
    });

    let ((cpu, mem), pipe_ms) = rec.time("cpu.pipeline", Some(parent), Some(j), || {
        let mut mem = hierarchy(job, assist, enabled);
        let cpu = Pipeline::new(job.machine.cpu).run(trace.iter().copied(), &mut mem);
        (cpu, mem.stats())
    });
    let mut adapt_overhead_ms = 0.0;
    if dynamic {
        let (_, base_ms) = rec.time("mem.adapt.baseline", Some(parent), Some(j), || {
            let mut plain = job.clone();
            plain.machine.mem.controller = None;
            let mut mem = hierarchy(&plain, assist, enabled);
            Pipeline::new(job.machine.cpu).run(trace.iter().copied(), &mut mem)
        });
        adapt_overhead_ms = pipe_ms - base_ms;
    }
    Exact { cpu, mem, trace_ops: trace.len() as u64, data_accesses, adapt_overhead_ms }
}

/// An interval-boundary checkpoint of the profile pass.
struct Ckpt {
    pos: u64,
    assist: Option<bool>,
    state: InterpCheckpoint,
}

/// Checkpoints kept by the engine's profile pass before stride thinning.
const CKPT_CAP: usize = 512;

/// A sampled job's rebuild: its weighted result and sampling counts.
struct Sampled {
    cpu: CpuStats,
    mem: HierarchyStats,
    trace_ops: u64,
    total_ops: u64,
    intervals: usize,
    representatives: usize,
    detailed_ops: u64,
    warmup_ops: u64,
}

/// Sampled jobs: profile pass, selection, then per representative the
/// checkpoint restore and advance, functional warmup, and detailed
/// interval, reconstructed with the representative weights.
pub fn sampled_jobs(
    rec: &Recorder,
    jobs: &[SimJob],
    results: &[SimResult],
    pairs: &HashSet<usize>,
    tally: &mut Tally,
) {
    for (j, (job, r)) in jobs.iter().zip(results).enumerate() {
        let SimMode::Sampled { interval_ops, max_intervals, warmup } = job.mode else {
            continue;
        };
        let parent = rec.open("job", None, Some(j));
        let program = prepare(rec, parent, j, job);
        tally.programs += 1;
        let s = paired(rec, pairs.contains(&j), tally, |rec| {
            sampled_one(rec, parent, j, job, &program, (interval_ops, max_intervals, warmup))
        });
        rec.close(parent);

        tally.absorb_result(&s.cpu, &s.mem);
        tally.trace_ops += s.trace_ops;
        tally.intervals += s.intervals as u64;
        tally.representatives += s.representatives as u64;
        tally.detailed_ops += s.detailed_ops;
        tally.total_ops += s.total_ops;
        tally.warmup_ops += s.warmup_ops;
        let info_matches = r.sampled.is_some_and(|i| {
            i.total_ops == s.total_ops
                && i.intervals == s.intervals
                && i.representatives == s.representatives
                && i.detailed_ops == s.detailed_ops
                && i.warmup_ops == s.warmup_ops
        });
        if s.cpu.cycles == r.cycles
            && s.total_ops == r.instructions
            && s.cpu == r.cpu
            && s.mem == r.mem
            && info_matches
        {
            tally.matched += 1;
        } else {
            tally.mismatches.push(format!(
                "{}: rebuilt cycles {} vs engine {}",
                crate::jobs::label(job),
                s.cpu.cycles,
                r.cycles
            ));
        }
    }
}

fn sampled_one(
    rec: &Recorder,
    parent: usize,
    j: usize,
    job: &SimJob,
    program: &Program,
    (interval_ops, max_intervals, warmup): (u64, usize, u64),
) -> Sampled {
    let (plan, _) = rec.time("ir.plan", Some(parent), Some(j), || Plan::compile(program));
    // A pure interpretation pass: the `ir` share of the profile pass.
    let (trace_ops, _) = rec.time("ir.interp", Some(parent), Some(j), || {
        Interp::with_plan(program, &plan).count() as u64
    });

    let ((fps, checkpoints, total_ops), _) =
        rec.time("analysis.profile", Some(parent), Some(j), || {
            let mut interp = Interp::with_plan(program, &plan);
            let mut profiler = IntervalProfiler::new(IntervalConfig {
                interval_ops,
                max_intervals,
                ..IntervalConfig::default()
            });
            let mut ckpts = vec![Ckpt { pos: 0, assist: None, state: interp.checkpoint() }];
            let mut cur = None;
            let mut emitted = 0u64;
            while let Some(op) = interp.next() {
                match op.kind {
                    OpKind::AssistOn => cur = Some(true),
                    OpKind::AssistOff => cur = Some(false),
                    _ => {}
                }
                profiler.record(op.pc, op.kind.addr());
                emitted += 1;
                if emitted.is_multiple_of(interval_ops) {
                    ckpts.push(Ckpt { pos: emitted, assist: cur, state: interp.checkpoint() });
                }
            }
            if ckpts.len() > CKPT_CAP {
                let stride = ckpts.len().div_ceil(CKPT_CAP);
                ckpts = ckpts
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| i % stride == 0)
                    .map(|(_, c)| c)
                    .collect();
            }
            (profiler.finish(), ckpts, emitted)
        });
    let (reps, _) =
        rec.time("analysis.select", Some(parent), Some(j), || select(&fps, max_intervals));

    let (assist, enabled) = assist_of(job);
    let mut out = Sampled {
        cpu: CpuStats::default(),
        mem: HierarchyStats::default(),
        trace_ops,
        total_ops,
        intervals: fps.len(),
        representatives: reps.len(),
        detailed_ops: 0,
        warmup_ops: 0,
    };
    for rep in &reps {
        let start = rep.interval as u64 * interval_ops;
        let rep_len = interval_ops.min(total_ops - start);
        let warm_start = start.saturating_sub(warmup);
        let ckpt =
            checkpoints.iter().take_while(|c| c.pos <= warm_start).last().expect("checkpoint 0");
        let ((mut interp, state), _) =
            rec.time("ir.checkpoint_advance", Some(parent), Some(j), || {
                let mut interp = Interp::with_plan(program, &plan);
                interp.restore(&ckpt.state);
                let (_, skipped) = interp.advance(warm_start - ckpt.pos);
                (interp, skipped.or(ckpt.assist).unwrap_or(enabled))
            });
        let ((mut mem, predictor), _) = rec.time("mem.warm", Some(parent), Some(j), || {
            let mut mem = hierarchy(job, assist, state);
            let mut predictor = Predictor::from_config(&job.machine.cpu);
            let mut last_fb = u64::MAX;
            for _ in 0..start - warm_start {
                let Some(op) = interp.next() else { break };
                let fb = op.pc / job.machine.cpu.fetch_block;
                if fb != last_fb {
                    last_fb = fb;
                    mem.warm_fetch(op.pc);
                }
                match op.kind {
                    OpKind::Load(a) => mem.warm_access(a, false),
                    OpKind::Store(a) => mem.warm_access(a, true),
                    OpKind::Branch { taken } => {
                        predictor.update(op.pc, taken);
                    }
                    OpKind::AssistOn => mem.set_assist_enabled(true),
                    OpKind::AssistOff => mem.set_assist_enabled(false),
                    OpKind::IntAlu | OpKind::FpAlu => {}
                }
            }
            (mem, predictor)
        });
        let ((cpu, delta), _) = rec.time("cpu.pipeline", Some(parent), Some(j), || {
            mem.reset_timing();
            let baseline = mem.stats();
            let cpu = Pipeline::with_predictor(job.machine.cpu, predictor)
                .run((&mut interp).take(rep_len as usize), &mut mem);
            (cpu, mem.stats().since(&baseline))
        });
        add_scaled_cpu(&mut out.cpu, &cpu, rep.weight);
        out.mem.add_scaled(&delta, rep.weight);
        out.detailed_ops += rep_len;
        out.warmup_ops += start - warm_start;
    }
    out
}

/// Weighted accumulation of pipeline counters, rounding to nearest (the
/// `CpuStats` analogue of `HierarchyStats::add_scaled`).
fn add_scaled_cpu(dst: &mut CpuStats, src: &CpuStats, w: f64) {
    let s = |x: u64| (x as f64 * w).round().max(0.0) as u64;
    dst.cycles += s(src.cycles);
    dst.committed += s(src.committed);
    dst.loads += s(src.loads);
    dst.stores += s(src.stores);
    dst.branches += s(src.branches);
    dst.int_ops += s(src.int_ops);
    dst.fp_ops += s(src.fp_ops);
    dst.assist_toggles += s(src.assist_toggles);
    dst.mispredicts += s(src.mispredicts);
    dst.fetch_stall_cycles += s(src.fetch_stall_cycles);
    dst.issue_stall_cycles += s(src.issue_stall_cycles);
}
