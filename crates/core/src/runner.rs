//! The experiment front end and the simulation primitive.
//!
//! An [`Experiment`] fixes a machine, an assist, a compiler configuration,
//! and a mode; [`Experiment::run`] and [`Experiment::run_profiled`] turn a
//! `(benchmark, scale, version)` into one [`SimJob`] and submit it to the
//! experiment's [`JobEngine`]. The engine owns the one execution path:
//! preparation for the paper's simulated versions (Section 4.3), the
//! exact/sampled, controller, and profiled dispatch, and the store. Ad-hoc
//! programs ([`Experiment::run_program`]) enter the same dispatch without
//! an identity. Every exact run bottoms out in [`simulate`].

use crate::config::MachineConfig;
use crate::engine::{dispatch, JobEngine, PrepKind, SimJob, SimSpec};
use crate::profile::{RegionProfile, RegionProfileProbe};
use crate::sampled::{SampledInfo, SimMode};
use selcache_compiler::OptConfig;
use selcache_cpu::{CpuStats, Pipeline};
use selcache_ir::{Interp, Program, RegionMap};
use selcache_mem::{AssistKind, ControllerConfig, HierarchyStats, MemoryHierarchy};
use selcache_workloads::{Benchmark, Scale};
use std::fmt;

/// The four simulated versions of Section 4.3, plus the base run that
/// improvements are measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Base code on the base machine (the 100% reference).
    Base,
    /// Base code with the hardware assist always on.
    PureHardware,
    /// Compiler-optimized code, no hardware assist.
    PureSoftware,
    /// Compiler-optimized code with the assist always on.
    Combined,
    /// Compiler-optimized code with compiler-inserted ON/OFF instructions
    /// driving the assist (this paper's approach).
    Selective,
}

impl Version {
    /// The four versions the paper's figures report (everything but
    /// [`Version::Base`]).
    pub const REPORTED: [Version; 4] =
        [Version::PureHardware, Version::PureSoftware, Version::Combined, Version::Selective];
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Version::Base => "Base",
            Version::PureHardware => "Pure Hardware",
            Version::PureSoftware => "Pure Software",
            Version::Combined => "Combined",
            Version::Selective => "Selective",
        };
        f.write_str(s)
    }
}

/// Outcome of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total execution cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Core statistics.
    pub cpu: CpuStats,
    /// Memory-hierarchy statistics.
    pub mem: HierarchyStats,
    /// Per-region attribution, present when the run was profiled
    /// ([`Experiment::run_profiled`], [`JobEngine::run_profiled`]).
    pub regions: Option<RegionProfile>,
    /// Sampling coverage, present when the run used [`SimMode::Sampled`]
    /// (cycles and miss counters are then weighted extrapolations from the
    /// representative intervals; `instructions` stays exact).
    pub sampled: Option<SampledInfo>,
    /// The stable execution-identity hash of the job that produced this
    /// result: the [`JobEngine`]'s dedup key and store address. Every
    /// engine and [`Experiment`] run carries one; only
    /// [`Experiment::run_program`], whose ad-hoc programs have no identity,
    /// returns `None`.
    pub job_id: Option<crate::identity::JobId>,
}

impl SimResult {
    /// L1 data-cache miss rate in percent (0 when no access was made, so
    /// an empty run never reports NaN).
    pub fn l1_miss_pct(&self) -> f64 {
        self.mem.l1d.miss_rate() * 100.0
    }

    /// L2 miss rate in percent (0 when no access was made).
    pub fn l2_miss_pct(&self) -> f64 {
        self.mem.l2.miss_rate() * 100.0
    }

    /// Percent improvement of `self` relative to a base run (positive =
    /// faster).
    pub fn improvement_over(&self, base: &SimResult) -> f64 {
        if base.cycles == 0 {
            return 0.0;
        }
        (base.cycles as f64 - self.cycles as f64) / base.cycles as f64 * 100.0
    }
}

/// The compiler configuration an experiment derives from its machine: the
/// locality passes target the L1 data cache's block size and capacity.
pub(crate) fn default_opt(machine: &MachineConfig) -> OptConfig {
    let mut opt = OptConfig { block_bytes: machine.mem.l1d.block_size, ..OptConfig::default() };
    opt.tiling.cache_bytes = machine.mem.l1d.size;
    opt
}

/// Runs one prepared program on one machine in detail — the one
/// whole-program simulation primitive. With `regions`, a
/// [`RegionProfileProbe`] attributes every cycle, commit, cache access,
/// and assist event to its region (the aggregate counters are identical);
/// without, the plain [`Interp`] and the null probe keep the hot path free
/// of attribution.
pub(crate) fn simulate(
    machine: &MachineConfig,
    assist: AssistKind,
    assist_enabled: bool,
    program: &Program,
    regions: Option<&RegionMap>,
) -> SimResult {
    let mut hier_cfg = machine.mem.clone();
    hier_cfg.assist = assist;
    let mut mem = MemoryHierarchy::new(hier_cfg);
    mem.set_assist_enabled(assist_enabled);
    let mut pipeline = Pipeline::new(machine.cpu);
    let (stats, regions) = match regions {
        None => (pipeline.run(Interp::new(program), &mut mem), None),
        Some(map) => {
            let mut probe = RegionProfileProbe::new(map);
            let stats =
                pipeline.run_probed(Interp::with_regions(program, map), &mut mem, &mut probe);
            (stats, Some(probe.finish()))
        }
    };
    SimResult {
        cycles: stats.cycles,
        instructions: stats.committed,
        cpu: stats,
        mem: mem.stats(),
        regions,
        sampled: None,
        job_id: None,
    }
}

/// Fluent constructor for [`Experiment`] — the primary way to configure a
/// run.
///
/// Every knob has a sensible default (base machine, no assist, compiler
/// config derived from the machine, all available cores), so callers state
/// only what they vary:
///
/// ```
/// use selcache_core::{ExperimentBuilder, MachineConfig};
/// use selcache_mem::AssistKind;
///
/// let exp = ExperimentBuilder::new()
///     .machine(MachineConfig::base())
///     .assist(AssistKind::Victim)
///     .threads(2)
///     .build();
/// assert_eq!(exp.threads(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExperimentBuilder {
    machine: Option<MachineConfig>,
    assist: AssistKind,
    opt: Option<OptConfig>,
    threads: usize,
    mode: SimMode,
    controller: Option<ControllerConfig>,
}

impl ExperimentBuilder {
    /// A builder with every knob at its default.
    pub fn new() -> Self {
        ExperimentBuilder::default()
    }

    /// Sets the machine under test (default: [`MachineConfig::base`]).
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Sets the hardware assist under study (default: [`AssistKind::None`]).
    pub fn assist(mut self, assist: AssistKind) -> Self {
        self.assist = assist;
        self
    }

    /// Overrides the compiler configuration (default: derived from the
    /// machine's L1 block size and capacity).
    pub fn opt(mut self, opt: OptConfig) -> Self {
        self.opt = Some(opt);
        self
    }

    /// Sets the worker-thread count for suite execution. `0` (the default)
    /// means [`JobEngine::default_parallelism`]; `1` reproduces the
    /// historical serial execution exactly.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the simulation mode (default [`SimMode::Exact`]). Pass
    /// [`SimMode::sampled`] (or a hand-tuned [`SimMode::Sampled`]) to
    /// replace detailed whole-trace simulation with interval sampling.
    pub fn mode(mut self, mode: SimMode) -> Self {
        self.mode = mode;
        self
    }

    /// Attaches the online assist controller to the machine under test
    /// (default: none — fully static assist selection). With a controller,
    /// [`Version::Selective`] prepares its code with every region marked
    /// ON and the hardware picks {off, bypass, victim} per region at run
    /// time.
    pub fn controller(mut self, ctl: ControllerConfig) -> Self {
        self.controller = Some(ctl);
        self
    }

    /// Builds the experiment.
    pub fn build(self) -> Experiment {
        let mut machine = self.machine.unwrap_or_else(MachineConfig::base);
        if let Some(ctl) = self.controller {
            machine.mem.controller = Some(ctl);
        }
        let opt = self.opt.unwrap_or_else(|| default_opt(&machine));
        Experiment {
            machine,
            assist: self.assist,
            opt,
            threads: self.threads,
            mode: self.mode,
            engine: JobEngine::new(self.threads),
        }
    }
}

/// An experiment: a machine configuration plus the hardware assist under
/// study.
///
/// Construct one with [`ExperimentBuilder`] (or the [`Experiment::new`] /
/// [`Experiment::with_opt`] shorthands).
///
/// ```
/// use selcache_core::{Experiment, MachineConfig, Version};
/// use selcache_mem::AssistKind;
/// use selcache_workloads::{Benchmark, Scale};
///
/// let exp = Experiment::new(MachineConfig::base(), AssistKind::Victim);
/// let base = exp.run(Benchmark::Adi, Scale::Tiny, Version::Base);
/// let sel = exp.run(Benchmark::Adi, Scale::Tiny, Version::Selective);
/// assert!(sel.cycles > 0 && base.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    machine: MachineConfig,
    assist: AssistKind,
    opt: OptConfig,
    threads: usize,
    mode: SimMode,
    engine: JobEngine,
}

impl Experiment {
    /// Creates an experiment with the default compiler configuration.
    pub fn new(machine: MachineConfig, assist: AssistKind) -> Self {
        ExperimentBuilder::new().machine(machine).assist(assist).build()
    }

    /// Creates an experiment with an explicit compiler configuration.
    pub fn with_opt(machine: MachineConfig, assist: AssistKind, opt: OptConfig) -> Self {
        ExperimentBuilder::new().machine(machine).assist(assist).opt(opt).build()
    }

    /// The machine under test.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The assist under study.
    pub fn assist(&self) -> AssistKind {
        self.assist
    }

    /// The compiler configuration.
    pub fn opt(&self) -> &OptConfig {
        &self.opt
    }

    /// The configured worker-thread count (`0` = all available cores).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The simulation mode.
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// The experiment's [`JobEngine`], sharing its thread budget: job sets
    /// run through the returned engine and [`Experiment::run`]'s sampled
    /// intervals lease workers from one pool.
    pub fn engine(&self) -> JobEngine {
        self.engine.clone()
    }

    /// Prepares the program a version executes (Section 4.4's software
    /// development flow) — the same rule the [`JobEngine`] applies. Under a
    /// controller, the selective version marks every region ON (the
    /// hardware decides); statically, it follows the paper's
    /// irregular-regions rule.
    pub fn prepare(&self, program: &Program, version: Version) -> Program {
        PrepKind::of(version, self.machine.mem.controller.is_some())
            .apply(program.clone(), &self.opt)
    }

    /// Runs a prepared program under the experiment's [`SimMode`], through
    /// the engine's dispatch. Ad-hoc programs carry no stable identity, so
    /// the result has no `job_id`, exact runs partition regions (needed by
    /// a controller) at the experiment's threshold, and sampled runs
    /// profile the trace afresh each call; [`Experiment::run`] and the
    /// [`JobEngine`] share profile passes process-wide.
    pub fn run_program(&self, program: &Program, version: Version) -> SimResult {
        let spec = SimSpec::new(&self.machine, self.assist, version, self.mode);
        let mut result =
            dispatch(&spec, program, None, self.opt.threshold, false, self.engine.executor());
        result.regions = None;
        result
    }

    /// The job [`Experiment::run`] submits: a benchmark under a version,
    /// with the experiment's machine, assist, compiler configuration, and
    /// mode.
    fn job(&self, benchmark: Benchmark, scale: Scale, version: Version) -> SimJob {
        SimJob {
            benchmark,
            scale,
            machine: self.machine.clone(),
            assist: self.assist,
            version,
            opt: self.opt,
            mode: self.mode,
        }
    }

    /// Builds, prepares, and runs a benchmark under a version: one job
    /// through the experiment's [`JobEngine`], so the result equals
    /// `self.engine().run(..)` on the same job, `job_id` included.
    pub fn run(&self, benchmark: Benchmark, scale: Scale, version: Version) -> SimResult {
        self.engine.run(&[self.job(benchmark, scale, version)]).remove(0)
    }

    /// [`Experiment::run`] with region profiling, through
    /// [`JobEngine::run_profiled`]: every cycle, commit, cache access, and
    /// assist event is attributed to its region, and the result's
    /// `regions` field is populated; aggregate counters are unchanged.
    /// Compiler-prepared code is partitioned at the experiment's threshold;
    /// raw code (Base, PureHardware) at the default threshold, because its
    /// identity ignores the compiler configuration. Attribution needs every
    /// op through the detailed pipeline, so a [`SimMode::Sampled`]
    /// experiment returns its sampled result without regions.
    pub fn run_profiled(&self, benchmark: Benchmark, scale: Scale, version: Version) -> SimResult {
        self.engine.run_profiled(&[self.job(benchmark, scale, version)]).remove(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(assist: AssistKind) -> Experiment {
        Experiment::new(MachineConfig::base(), assist)
    }

    #[test]
    fn base_and_versions_commit_same_work() {
        // Base and PureHardware run identical code; Selective adds only the
        // ON/OFF instructions.
        let e = exp(AssistKind::Bypass);
        let base = e.run(Benchmark::Chaos, Scale::Tiny, Version::Base);
        let hw = e.run(Benchmark::Chaos, Scale::Tiny, Version::PureHardware);
        assert_eq!(base.instructions, hw.instructions);
        let sel = e.run(Benchmark::Chaos, Scale::Tiny, Version::Selective);
        assert!(sel.cpu.assist_toggles > 0, "selective must toggle the assist");
    }

    #[test]
    fn software_helps_regular_code() {
        let e = exp(AssistKind::Bypass);
        let base = e.run(Benchmark::Vpenta, Scale::Tiny, Version::Base);
        let sw = e.run(Benchmark::Vpenta, Scale::Tiny, Version::PureSoftware);
        assert!(
            sw.improvement_over(&base) > 5.0,
            "vpenta software improvement {:.2}%",
            sw.improvement_over(&base)
        );
    }

    #[test]
    fn software_cannot_help_irregular_code() {
        let e = exp(AssistKind::Bypass);
        let base = e.run(Benchmark::Li, Scale::Tiny, Version::Base);
        let sw = e.run(Benchmark::Li, Scale::Tiny, Version::PureSoftware);
        let imp = sw.improvement_over(&base).abs();
        assert!(imp < 3.0, "li software improvement should be tiny, got {imp:.2}%");
    }

    #[test]
    fn miss_rates_reported() {
        let e = exp(AssistKind::None);
        let r = e.run(Benchmark::Vpenta, Scale::Tiny, Version::Base);
        assert!(r.l1_miss_pct() > 5.0, "vpenta base L1 miss {:.1}%", r.l1_miss_pct());
        assert!(r.l2_miss_pct() >= 0.0);
    }

    #[test]
    fn prepare_is_deterministic() {
        let e = exp(AssistKind::Victim);
        let p = Benchmark::Swim.build(Scale::Tiny);
        assert_eq!(e.prepare(&p, Version::Selective), e.prepare(&p, Version::Selective));
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let d = ExperimentBuilder::new().build();
        assert_eq!(*d.machine(), MachineConfig::base());
        assert_eq!(d.assist(), AssistKind::None);
        assert_eq!(d.threads(), 0);
        assert!(d.engine().threads() >= 1);

        let machine = MachineConfig::base();
        let derived = default_opt(&machine);
        let e =
            ExperimentBuilder::new().machine(machine).assist(AssistKind::Stream).threads(1).build();
        assert_eq!(*e.opt(), derived);
        assert_eq!(e.assist(), AssistKind::Stream);
        assert_eq!(e.engine().threads(), 1);
    }

    #[test]
    fn profiled_run_matches_unprofiled_aggregates() {
        let e = exp(AssistKind::Bypass);
        let plain = e.run(Benchmark::Li, Scale::Tiny, Version::Selective);
        let prof = e.run_profiled(Benchmark::Li, Scale::Tiny, Version::Selective);
        assert_eq!(plain.cycles, prof.cycles, "the probe must not perturb the run");
        assert_eq!(plain.cpu, prof.cpu);
        assert_eq!(plain.mem, prof.mem);
        let total = prof.regions.as_ref().expect("profiled").total();
        assert_eq!(total.cycles, prof.cycles);
        assert_eq!(total.committed, prof.instructions);
        assert_eq!(total.l1d_accesses, prof.mem.l1d.accesses);
        assert_eq!(total.l1d_misses, prof.mem.l1d.misses);
    }

    #[test]
    fn dynamic_experiment_runs_and_profiles_consistently() {
        let e = ExperimentBuilder::new()
            .controller(ControllerConfig { interval_accesses: 128, ..ControllerConfig::default() })
            .threads(1)
            .build();
        assert!(e.machine().mem.controller.is_some());
        let plain = e.run(Benchmark::Li, Scale::Tiny, Version::Selective);
        assert!(plain.regions.is_none(), "plain dynamic runs stay region-less");
        let prof = e.run_profiled(Benchmark::Li, Scale::Tiny, Version::Selective);
        assert_eq!(plain.cycles, prof.cycles, "profiling must not perturb dynamic runs");
        assert_eq!(plain.mem, prof.mem);
        assert!(prof.regions.is_some());
    }

    #[test]
    fn builder_matches_legacy_constructors() {
        let m = MachineConfig::larger_l1();
        let a = Experiment::new(m.clone(), AssistKind::Victim);
        let b = ExperimentBuilder::new().machine(m).assist(AssistKind::Victim).build();
        assert_eq!(a.opt(), b.opt());
        assert_eq!(a.machine(), b.machine());
    }
}
