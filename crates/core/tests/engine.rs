//! Engine-level guarantees the unified run API is built on: thread-count
//! independence (byte-identical reports), job deduplication, and
//! `Experiment` runs answered by the engine.

use selcache_compiler::OptConfig;
use selcache_core::{
    AssistKind, Benchmark, ControllerConfig, Executor, ExperimentBuilder, JobEngine, MachineConfig,
    Scale, SimJob, SimMode, SuiteResult, Version,
};

const BENCHMARKS: [Benchmark; 2] = [Benchmark::Vpenta, Benchmark::Compress];

/// Runs the same two-benchmark suite serially and on an 8-worker pool and
/// demands identical results row by row — and byte-identical formatted
/// output, the acceptance bar for the parallel engine.
#[test]
fn parallel_suite_is_deterministic() {
    let suite = |threads: usize| {
        SuiteResult::run_with(
            &JobEngine::new(threads),
            MachineConfig::base(),
            AssistKind::Bypass,
            Scale::Tiny,
            &BENCHMARKS,
        )
    };
    let serial = suite(1);
    let parallel = suite(8);

    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (s, p) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(s.benchmark, p.benchmark);
        assert_eq!(s.base.cycles, p.base.cycles);
        assert_eq!(s.base.instructions, p.base.instructions);
        assert_eq!(s.base.l1_miss_pct(), p.base.l1_miss_pct());
        assert_eq!(s.improvements, p.improvements);
    }
    assert_eq!(serial.format_figure(4), parallel.format_figure(4));
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

/// One benchmark studied under two assists submits 10 jobs but only 8
/// distinct simulations: Base and PureSoftware never touch the assist, so
/// each executes exactly once per machine and serves both studies.
#[test]
fn base_runs_are_shared_across_assist_studies() {
    let machine = MachineConfig::base();
    let mut jobs = Vec::new();
    for assist in [AssistKind::Bypass, AssistKind::Victim] {
        jobs.push(SimJob::new(Benchmark::Li, Scale::Tiny, machine.clone(), assist, Version::Base));
        for &v in &Version::REPORTED {
            jobs.push(SimJob::new(Benchmark::Li, Scale::Tiny, machine.clone(), assist, v));
        }
    }
    let (results, stats) = JobEngine::default().run_with_stats(&jobs);

    assert_eq!(stats.submitted, 10);
    assert_eq!(stats.executed, 8, "Base and PureSoftware unify across assists");
    assert_eq!(stats.dedup_hits, 2);
    assert_eq!(stats.programs_prepared, 3, "raw, optimized, selective");

    // The deduplicated slots still answer with full, identical results.
    assert_eq!(results[0], results[5], "Base slot answered by the shared run");
    assert_eq!(results[2], results[7], "PureSoftware slot answered by the shared run");
    assert_ne!(results[1], results[6], "assist-dependent runs stay distinct");
}

/// `Experiment` is a front end over `JobEngine`: for every benchmark and
/// version, an experiment's plain and profiled runs equal the engine's
/// answer to the same `SimJob` — whole results, `regions` and `job_id`
/// included. Covers exact, sampled and controller-attached runs, at the
/// default region threshold and at a non-default one (raw code must then
/// still partition at the default threshold, as its identity says).
#[test]
fn experiment_runs_equal_engine_runs() {
    let machine = MachineConfig::base();
    let derived = *ExperimentBuilder::new().machine(machine.clone()).build().opt();
    let low = OptConfig { threshold: 0.1, ..derived };
    let sampled = SimMode::Sampled { interval_ops: 4096, max_intervals: 4, warmup: 1024 };
    let versions = [Version::Base, Version::PureHardware, Version::Selective];

    let mut mismatches = Vec::new();
    for (label, mode, controller) in [
        ("exact", SimMode::Exact, None),
        ("sampled", sampled, None),
        ("controller", SimMode::Exact, Some(ControllerConfig::default())),
    ] {
        for opt in [derived, low] {
            let mut builder = ExperimentBuilder::new()
                .machine(machine.clone())
                .assist(AssistKind::Bypass)
                .opt(opt)
                .mode(mode)
                .threads(1);
            if let Some(ctl) = controller {
                builder = builder.controller(ctl);
            }
            let exp = builder.build();
            let jobs: Vec<SimJob> = Benchmark::ALL
                .iter()
                .flat_map(|&b| versions.map(|v| (b, v)))
                .map(|(b, v)| {
                    SimJob::new(b, Scale::Tiny, machine.clone(), AssistKind::Bypass, v)
                        .with_opt(opt)
                        .with_mode(mode)
                })
                .map(|job| match controller {
                    Some(ctl) => job.with_controller(ctl),
                    None => job,
                })
                .collect();
            let engine = JobEngine::new(2);
            let plain = engine.run(&jobs);
            let profiled = engine.run_profiled(&jobs);
            let via_exp = Executor::new(2).map(&jobs, |job| {
                let (b, v) = (job.benchmark, job.version);
                (exp.run(b, Scale::Tiny, v), exp.run_profiled(b, Scale::Tiny, v))
            });
            for (k, (run, run_profiled)) in via_exp.into_iter().enumerate() {
                let (b, v, t) = (jobs[k].benchmark, jobs[k].version, opt.threshold);
                if run != plain[k] {
                    mismatches.push(format!("{label} t={t} run {b} {v:?}"));
                }
                if run_profiled != profiled[k] {
                    mismatches.push(format!("{label} t={t} run_profiled {b} {v:?}"));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "experiment and engine disagree: {mismatches:#?}");
}
