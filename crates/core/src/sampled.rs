//! Sampled simulation: SimPoint-style interval selection with
//! checkpointed functional warmup.
//!
//! Detailed simulation cost grows linearly with trace length, which makes
//! the large workload scales (tens of millions of ops) painful to iterate
//! on. Sampled mode replaces the detailed run with:
//!
//! 1. **Profile pass.** One cheap functional pass over the trace
//!    fingerprints every fixed-size interval
//!    ([`selcache_analysis::IntervalProfiler`]) and captures an
//!    interpreter checkpoint ([`selcache_ir::InterpCheckpoint`]) at every
//!    interval boundary, along with the last assist ON/OFF marker seen.
//! 2. **Selection.** K-medoids clustering over the fingerprints
//!    ([`selcache_analysis::select`]) picks one representative interval
//!    per cluster with a weight proportional to the work its cluster
//!    covers.
//! 3. **Checkpointed warmup + detailed measurement.** For each
//!    representative the interpreter is restored from the nearest
//!    checkpoint, fast-forwarded to the warmup window, and the memory
//!    hierarchy and branch predictor are warmed *functionally* (state
//!    transitions only, no timing). Timing state is then reset, a stats
//!    baseline is taken, and only the representative interval runs through
//!    the full out-of-order pipeline.
//! 4. **Weighted reconstruction.** Per-interval counter deltas are scaled
//!    by the representative weights and summed, reconstructing whole-trace
//!    cycles and miss counts.
//!
//! Functional warmup is exact here, not an approximation: the hierarchy's
//! timed path affects only returned latencies, never which blocks fill or
//! evict, so warming with `now = 0` accesses leaves bit-identical
//! functional state (pinned by `warm_access_matches_timed_state` in
//! `selcache-mem`).
//!
//! The profile pass and its checkpoints depend only on the prepared
//! program, so they are shared process-wide across machine variants,
//! assists, and the Base/Selective version pair whenever the preparation
//! coincides (see [`selection`]'s cache).

use crate::config::MachineConfig;
use crate::executor::Executor;
use crate::runner::SimResult;
use selcache_analysis::{select, IntervalConfig, IntervalProfiler, Representative};
use selcache_cpu::{CpuStats, Pipeline, Predictor};
use selcache_ir::{Interp, InterpCheckpoint, OpKind, Plan, Program};
use selcache_mem::{AssistKind, HierarchyStats, MemoryHierarchy};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// How a job is simulated: exactly (every op through the detailed
/// pipeline) or sampled (representative intervals only, extrapolated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SimMode {
    /// Detailed simulation of the whole trace (the default).
    #[default]
    Exact,
    /// SimPoint-style sampled simulation.
    Sampled {
        /// Ops per interval (the sampling unit).
        interval_ops: u64,
        /// Maximum number of representative intervals simulated in detail.
        max_intervals: usize,
        /// Ops of functional cache/predictor warmup before each measured
        /// interval.
        warmup: u64,
    },
}

impl SimMode {
    /// Sampled mode with the default parameters: 128 Ki-op intervals, at
    /// most 6 representatives, 64 Ki-op warmup. Tuned so the large scales
    /// sample well under a tenth of the trace while keeping CPI and
    /// miss-rate errors within a few percent.
    pub fn sampled() -> SimMode {
        SimMode::Sampled { interval_ops: 1 << 17, max_intervals: 6, warmup: 1 << 16 }
    }

    /// True for [`SimMode::Sampled`].
    pub fn is_sampled(&self) -> bool {
        matches!(self, SimMode::Sampled { .. })
    }
}

/// How a sampled result was produced — attached to
/// [`SimResult::sampled`](crate::SimResult) so consumers can see the
/// coverage behind the extrapolated counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledInfo {
    /// Exact dynamic op count of the full trace (from the profile pass).
    pub total_ops: u64,
    /// Intervals the trace was cut into.
    pub intervals: usize,
    /// Representatives simulated in detail.
    pub representatives: usize,
    /// Ops that went through the detailed pipeline.
    pub detailed_ops: u64,
    /// Ops of functional warmup executed across all representatives.
    pub warmup_ops: u64,
}

impl SampledInfo {
    /// Fraction of the trace simulated in detail, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.detailed_ops as f64 / self.total_ops as f64
        }
    }
}

/// One interval-boundary checkpoint from the profile pass.
#[derive(Debug, Clone)]
struct Ckpt {
    /// Trace position (ops emitted before this point).
    pos: u64,
    /// Last assist marker seen before this point (`None`: no marker yet).
    assist: Option<bool>,
    state: InterpCheckpoint,
}

/// The reusable product of the profile pass: everything pass 2 needs that
/// depends only on the prepared program and the interval geometry.
#[derive(Debug)]
pub(crate) struct Selection {
    total_ops: u64,
    intervals: usize,
    interval_ops: u64,
    reps: Vec<Representative>,
    checkpoints: Vec<Ckpt>,
}

/// Upper bound on retained checkpoints; boundaries beyond it are thinned
/// to a uniform stride (warmup then fast-forwards a little further).
const CKPT_CAP: usize = 512;

/// Runs the profile pass: fingerprints every interval, selects the
/// representatives, and captures boundary checkpoints.
fn profile(program: &Program, plan: &Plan, interval_ops: u64, max_intervals: usize) -> Selection {
    let mut interp = Interp::with_plan(program, plan);
    let mut profiler = IntervalProfiler::new(IntervalConfig {
        interval_ops,
        max_intervals,
        ..IntervalConfig::default()
    });
    let mut checkpoints = vec![Ckpt { pos: 0, assist: None, state: interp.checkpoint() }];
    let mut cur_assist = None;
    let mut emitted = 0u64;
    let mut until_boundary = interval_ops;
    while let Some(op) = interp.next() {
        match op.kind {
            OpKind::AssistOn => cur_assist = Some(true),
            OpKind::AssistOff => cur_assist = Some(false),
            _ => {}
        }
        profiler.record(op.pc, op.kind.addr());
        emitted += 1;
        // Countdown instead of `emitted % interval_ops`: this runs once per
        // op of the whole trace, and the division is measurable there.
        until_boundary -= 1;
        if until_boundary == 0 {
            until_boundary = interval_ops;
            checkpoints.push(Ckpt { pos: emitted, assist: cur_assist, state: interp.checkpoint() });
        }
    }
    if checkpoints.len() > CKPT_CAP {
        let stride = checkpoints.len().div_ceil(CKPT_CAP);
        checkpoints = checkpoints
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % stride == 0)
            .map(|(_, c)| c)
            .collect();
    }
    let fps = profiler.finish();
    let reps = select(&fps, max_intervals);
    Selection { total_ops: emitted, intervals: fps.len(), interval_ops, reps, checkpoints }
}

/// Process-wide cache of profile passes, keyed by the caller-provided
/// selection key (a hash of the prepared-program identity and the interval
/// geometry). Lets the Base/PureHardware pair, assist variants, and sweep
/// points that execute the same prepared program share one profile pass
/// and one set of checkpoints.
fn selection_cache() -> &'static Mutex<HashMap<u128, Arc<Selection>>> {
    static CACHE: OnceLock<Mutex<HashMap<u128, Arc<Selection>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The profile pass for `program`, answered from the process-wide cache
/// when `key` is provided and already profiled.
pub(crate) fn selection(
    program: &Program,
    plan: &Plan,
    interval_ops: u64,
    max_intervals: usize,
    key: Option<u128>,
) -> Arc<Selection> {
    if let Some(key) = key {
        if let Some(sel) = selection_cache().lock().expect("selection cache").get(&key) {
            return Arc::clone(sel);
        }
    }
    let sel = Arc::new(profile(program, plan, interval_ops, max_intervals));
    if let Some(key) = key {
        // A concurrent profiler of the same key computed an identical
        // selection (the pass is deterministic); either insert is fine.
        selection_cache().lock().expect("selection cache").insert(key, Arc::clone(&sel));
    }
    sel
}

/// Adds `w`-scaled counters of `src` into `dst`, rounding to nearest —
/// the [`CpuStats`] analogue of [`HierarchyStats::add_scaled`].
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

/// What one representative's detailed run measured, before weighting:
/// integer counter deltas, so the parallel fan-out stays bit-exact.
struct RepMeasure {
    cpu: CpuStats,
    mem: HierarchyStats,
    rep_len: u64,
    warm_ops: u64,
}

/// Restores, warms, and measures one representative interval — the
/// independent unit the executor fans out. Everything it touches is
/// per-call state (fresh interpreter, hierarchy, and predictor per
/// representative), so representatives never share mutable state.
#[allow(clippy::too_many_arguments)]
fn measure_rep(
    machine: &MachineConfig,
    assist: AssistKind,
    assist_enabled: bool,
    program: &Program,
    plan: &Plan,
    sel: &Selection,
    warmup: u64,
    rep: &Representative,
) -> RepMeasure {
    let start = rep.interval as u64 * sel.interval_ops;
    let rep_len = sel.interval_ops.min(sel.total_ops - start);
    let warm_start = start.saturating_sub(warmup);

    // Restore the nearest checkpoint at or before the warmup window
    // and fast-forward to its start, tracking assist markers skipped.
    let ckpt = sel
        .checkpoints
        .iter()
        .take_while(|c| c.pos <= warm_start)
        .last()
        .expect("checkpoint 0 is always present");
    let mut interp = Interp::with_plan(program, plan);
    interp.restore(&ckpt.state);
    let (_, skipped_marker) = interp.advance(warm_start - ckpt.pos);
    let assist_state = skipped_marker.or(ckpt.assist).unwrap_or(assist_enabled);

    // Functional warmup: caches, TLB, and predictor see every access
    // of the warmup window, but no timing accumulates.
    let mut hier_cfg = machine.mem.clone();
    hier_cfg.assist = assist;
    let mut mem = MemoryHierarchy::new(hier_cfg);
    mem.set_assist_enabled(assist_state);
    let mut predictor = Predictor::from_config(&machine.cpu);
    let mut last_fetch_block = u64::MAX;
    for _ in 0..start - warm_start {
        let Some(op) = interp.next() else { break };
        let fb = op.pc / machine.cpu.fetch_block;
        if fb != last_fetch_block {
            last_fetch_block = fb;
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

    // Detailed measurement of the representative interval, isolated
    // from warmup via timing reset and a stats baseline.
    mem.reset_timing();
    let baseline = mem.stats();
    let stats = Pipeline::with_predictor(machine.cpu, predictor)
        .run((&mut interp).take(rep_len as usize), &mut mem);
    let mem_delta = mem.stats().since(&baseline);
    RepMeasure { cpu: stats, mem: mem_delta, rep_len, warm_ops: start - warm_start }
}

/// Runs one prepared program in sampled mode. The sampled counterpart of
/// [`crate::runner::simulate`]: the same machine, assist, and program plus
/// the sampling parameters, an optional process-wide selection-cache key, and
/// the executor whose thread budget the per-representative fan-out leases
/// workers from.
///
/// Each representative (checkpoint restore → functional warmup → detailed
/// interval) is fully independent, so they run concurrently; the weighted
/// reconstruction then folds the integer deltas in representative order,
/// which keeps the floating-point accumulation order — and therefore the
/// output — bit-identical to a serial run at every thread count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_sampled(
    machine: &MachineConfig,
    assist: AssistKind,
    assist_enabled: bool,
    program: &Program,
    interval_ops: u64,
    max_intervals: usize,
    warmup: u64,
    selection_key: Option<u128>,
    executor: &Executor,
) -> SimResult {
    // Warmup divides by the fetch-block size before any pipeline (whose
    // constructor checks the same) exists.
    if let Err(e) = machine.cpu.validate() {
        panic!("invalid CpuConfig: {e}");
    }
    let plan = Plan::compile(program);
    let sel = selection(program, &plan, interval_ops, max_intervals, selection_key);

    let measures = executor.map(&sel.reps, |rep| {
        measure_rep(machine, assist, assist_enabled, program, &plan, &sel, warmup, rep)
    });

    // Slot-ordered reconstruction: identical accumulation order (and thus
    // identical rounding) to the historical serial loop.
    let mut cpu = CpuStats::default();
    let mut mem_total = HierarchyStats::default();
    let mut detailed_ops = 0u64;
    let mut warmup_ops = 0u64;
    for (rep, m) in sel.reps.iter().zip(&measures) {
        add_scaled_cpu(&mut cpu, &m.cpu, rep.weight);
        mem_total.add_scaled(&m.mem, rep.weight);
        detailed_ops += m.rep_len;
        warmup_ops += m.warm_ops;
    }

    SimResult {
        cycles: cpu.cycles,
        // The profile pass counts every committed op exactly; only cycles
        // and miss counters are extrapolated.
        instructions: sel.total_ops,
        cpu,
        mem: mem_total,
        regions: None,
        sampled: Some(SampledInfo {
            total_ops: sel.total_ops,
            intervals: sel.intervals,
            representatives: sel.reps.len(),
            detailed_ops,
            warmup_ops,
        }),
        job_id: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate;
    use selcache_workloads::{Benchmark, Scale};

    fn base() -> MachineConfig {
        MachineConfig::base()
    }

    #[test]
    fn single_interval_trace_matches_exact_simulation() {
        // A trace shorter than one interval has exactly one representative
        // with weight 1 and no warmup to skip: the sampled path degenerates
        // to the exact pipeline run and must agree bit-for-bit.
        let program = Benchmark::Adi.build(Scale::Tiny);
        let exact = simulate(&base(), AssistKind::None, true, &program, None);
        let sampled = simulate_sampled(
            &base(),
            AssistKind::None,
            true,
            &program,
            u64::MAX,
            4,
            1 << 16,
            None,
            &Executor::serial(),
        );
        assert_eq!(sampled.cycles, exact.cycles);
        assert_eq!(sampled.instructions, exact.instructions);
        assert_eq!(sampled.cpu, exact.cpu);
        assert_eq!(sampled.mem, exact.mem);
        let info = sampled.sampled.expect("sampled info");
        assert_eq!(info.intervals, 1);
        assert_eq!(info.representatives, 1);
        assert_eq!(info.detailed_ops, info.total_ops);
        assert!((info.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid CpuConfig: fetch_block must be at least 1")]
    fn invalid_cpu_config_is_rejected_before_warmup() {
        let mut machine = base();
        machine.cpu.fetch_block = 0;
        let program = Benchmark::Adi.build(Scale::Tiny);
        simulate_sampled(
            &machine,
            AssistKind::None,
            true,
            &program,
            1 << 10,
            4,
            1 << 10,
            None,
            &Executor::serial(),
        );
    }

    #[test]
    fn sampled_is_deterministic_and_cache_transparent() {
        let program = Benchmark::Vpenta.build(Scale::Small);
        let ex = Executor::new(4);
        let run = |key| {
            simulate_sampled(&base(), AssistKind::None, true, &program, 4096, 4, 1024, key, &ex)
        };
        let fresh = run(None);
        let a = run(Some(0xfeed_beef));
        let b = run(Some(0xfeed_beef)); // answered from the cache
        assert_eq!(fresh, a, "cache key must not change the result");
        assert_eq!(a, b);
        let info = a.sampled.expect("sampled info");
        assert!(info.representatives <= 4);
        assert!(info.detailed_ops < info.total_ops, "must actually sample");
    }

    #[test]
    fn sampled_tracks_exact_within_tolerance() {
        // Accuracy smoke at a scale that exercises selection, warmup, and
        // extrapolation; the strict 3% gate at Scale::Large lives in the
        // sampled_run example (wired into CI).
        let program = Benchmark::Vpenta.build(Scale::Medium);
        let exact = simulate(&base(), AssistKind::None, true, &program, None);
        let sampled = simulate_sampled(
            &base(),
            AssistKind::None,
            true,
            &program,
            1 << 16,
            6,
            1 << 14,
            None,
            &Executor::new(4),
        );
        assert_eq!(sampled.instructions, exact.instructions, "op counts are exact");
        let cpi = |r: &SimResult| r.cycles as f64 / r.instructions as f64;
        let cpi_err = (cpi(&sampled) - cpi(&exact)).abs() / cpi(&exact);
        assert!(cpi_err < 0.05, "CPI error {:.2}% too large", cpi_err * 100.0);
        let miss_err = (sampled.l1_miss_pct() - exact.l1_miss_pct()).abs();
        assert!(miss_err < 2.0, "L1 miss-rate error {miss_err:.2} points too large");
    }

    #[test]
    fn selective_version_warms_assist_state_from_markers() {
        // A selectively-marked program starts with the assist off and
        // toggles it mid-trace; the sampled run must reproduce toggles and
        // assisted accesses in proportion.
        let opt = crate::runner::default_opt(&base());
        let program = selcache_compiler::selective(&Benchmark::Chaos.build(Scale::Small), &opt);
        let exact = simulate(&base(), AssistKind::Bypass, false, &program, None);
        let sampled = simulate_sampled(
            &base(),
            AssistKind::Bypass,
            false,
            &program,
            4096,
            6,
            2048,
            None,
            &Executor::new(2),
        );
        assert!(exact.cpu.assist_toggles > 0);
        assert!(sampled.cpu.assist_toggles > 0, "markers must survive sampling");
        let share = |r: &SimResult| {
            r.mem.assist.assisted_accesses as f64 / r.mem.l1d.accesses.max(1) as f64
        };
        assert!(
            (share(&sampled) - share(&exact)).abs() < 0.15,
            "assisted-access share: sampled {:.3} vs exact {:.3}",
            share(&sampled),
            share(&exact)
        );
    }

    #[test]
    fn parallel_fanout_is_bit_identical_to_serial() {
        // The executor only changes which thread measures a representative;
        // the slot-ordered reconstruction makes the totals bit-identical.
        let program = Benchmark::Vpenta.build(Scale::Small);
        let run = |threads| {
            simulate_sampled(
                &base(),
                AssistKind::None,
                true,
                &program,
                4096,
                4,
                1024,
                None,
                &Executor::new(threads),
            )
        };
        let serial = run(1);
        assert!(serial.sampled.expect("sampled info").representatives > 1);
        for threads in [2, 8] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn mode_constructors() {
        assert_eq!(SimMode::default(), SimMode::Exact);
        assert!(!SimMode::Exact.is_sampled());
        let s = SimMode::sampled();
        assert!(s.is_sampled());
        let SimMode::Sampled { interval_ops, max_intervals, warmup } = s else {
            panic!("sampled() must be Sampled");
        };
        assert!(interval_ops > warmup);
        assert!(max_intervals > 0);
    }
}
