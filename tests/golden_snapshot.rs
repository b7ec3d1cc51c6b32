//! Golden snapshots of simulation results, guarding the hot-path
//! optimizations: every observable counter must stay bit-identical across
//! performance work on the interpreter, the cache model, and the pipeline.
//!
//! - `tests/golden/tiny_snapshot.txt`: all 13 benchmarks at `Scale::Tiny`
//!   under `Base` and `Selective` (bypass assist) — cycles, committed
//!   instructions, L1/L2 hits and misses, the three-C classification, and
//!   assist toggles.
//! - `tests/golden/pipeline_snapshot.txt`: the pipeline's own counters —
//!   every `CpuStats` field, including the fetch- and issue-stall cycles
//!   and mispredictions, and the summed per-region cycles of a profiled
//!   run — for the same runs on four machines that exercise different
//!   pipeline paths: the Table 1 base machine, the in-order core, the
//!   gshare predictor, and the 200-cycle memory latency.
//!
//! Regenerate with `GOLDEN_REGEN=1 cargo test --test golden_snapshot` —
//! only when a *semantic* change is intended, never for a perf change.

use selcache::core::{AssistKind, Experiment, MachineConfig, SimResult, Version};
use selcache::cpu::{CpuModel, PredictorKind};
use selcache::workloads::{Benchmark, Scale};
use std::fmt::Write as _;
use std::path::Path;

fn snapshot_line(bm: Benchmark, version: Version, r: &SimResult) -> String {
    format!(
        "{} {} cycles={} committed={} \
         l1d_hits={} l1d_misses={} l1d_comp={} l1d_cap={} l1d_conf={} \
         l2_hits={} l2_misses={} l2_comp={} l2_cap={} l2_conf={} \
         toggles={}",
        bm.name(),
        version.to_string().replace(' ', ""),
        r.cycles,
        r.instructions,
        r.mem.l1d.hits,
        r.mem.l1d.misses,
        r.mem.l1d.compulsory,
        r.mem.l1d.capacity,
        r.mem.l1d.conflict,
        r.mem.l2.hits,
        r.mem.l2.misses,
        r.mem.l2.compulsory,
        r.mem.l2.capacity,
        r.mem.l2.conflict,
        r.cpu.assist_toggles,
    )
}

fn compute_snapshot() -> String {
    let exp = Experiment::new(MachineConfig::base(), AssistKind::Bypass);
    let mut out = String::new();
    for bm in Benchmark::ALL {
        for version in [Version::Base, Version::Selective] {
            let r = exp.run(bm, Scale::Tiny, version);
            let _ = writeln!(out, "{}", snapshot_line(bm, version, &r));
        }
    }
    out
}

fn machines() -> [(&'static str, MachineConfig); 4] {
    let mut in_order = MachineConfig::base();
    in_order.cpu.model = CpuModel::InOrder;
    let mut gshare = MachineConfig::base();
    gshare.cpu.predictor = PredictorKind::Gshare;
    [
        ("base", MachineConfig::base()),
        ("inorder", in_order),
        ("gshare", gshare),
        ("memlat", MachineConfig::higher_mem_latency()),
    ]
}

fn pipeline_line(machine: &str, bm: Benchmark, version: Version, r: &SimResult) -> String {
    let c = &r.cpu;
    let region_cycles: u64 =
        r.regions.as_ref().expect("profiled run").regions().iter().map(|s| s.cycles).sum();
    format!(
        "{machine} {} {} cycles={} committed={} loads={} stores={} branches={} \
         int={} fp={} toggles={} mispredicts={} fetch_stall={} issue_stall={} \
         region_cycles={region_cycles}",
        bm.name(),
        version.to_string().replace(' ', ""),
        c.cycles,
        c.committed,
        c.loads,
        c.stores,
        c.branches,
        c.int_ops,
        c.fp_ops,
        c.assist_toggles,
        c.mispredicts,
        c.fetch_stall_cycles,
        c.issue_stall_cycles,
    )
}

fn compute_pipeline_snapshot() -> String {
    let mut out = String::new();
    for (name, machine) in machines() {
        let exp = Experiment::new(machine, AssistKind::Bypass);
        for bm in Benchmark::ALL {
            for version in [Version::Base, Version::Selective] {
                let r = exp.run_profiled(bm, Scale::Tiny, version);
                let _ = writeln!(out, "{}", pipeline_line(name, bm, version, &r));
            }
        }
    }
    out
}

/// Compares `actual` with the golden file at `rel` (under the crate root),
/// or rewrites the file when `GOLDEN_REGEN` is set.
fn check_golden(rel: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    for (k, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "{rel} line {} diverged", k + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "{rel} row count changed; regenerate deliberately with GOLDEN_REGEN=1"
    );
}

#[test]
fn results_match_golden_snapshot() {
    check_golden("tests/golden/tiny_snapshot.txt", &compute_snapshot());
}

#[test]
fn pipeline_counters_match_golden_snapshot() {
    check_golden("tests/golden/pipeline_snapshot.txt", &compute_pipeline_snapshot());
}
