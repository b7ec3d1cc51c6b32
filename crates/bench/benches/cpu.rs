//! Pipeline simulation throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use selcache_cpu::{CpuConfig, CpuModel, Pipeline};
use selcache_ir::{Addr, OpKind, TraceOp};
use selcache_mem::{AssistKind, HierarchyConfig, MemoryHierarchy};

fn alu_trace(n: u64) -> Vec<TraceOp> {
    (0..n).map(|i| TraceOp::new(0x40_0000 + (i % 16) * 4, OpKind::IntAlu)).collect()
}

fn mixed_trace(n: u64) -> Vec<TraceOp> {
    (0..n)
        .map(|i| match i % 4 {
            0 => TraceOp::new(0x40_0000, OpKind::Load(Addr(0x1000_0000 + (i * 8) % (1 << 18)))),
            1 => TraceOp::with_dep(0x40_0004, OpKind::FpAlu, 1),
            2 => TraceOp::with_dep(
                0x40_0008,
                OpKind::Store(Addr(0x1200_0000 + (i * 8) % (1 << 18))),
                1,
            ),
            _ => TraceOp::new(0x40_000C, OpKind::Branch { taken: i % 64 != 0 }),
        })
        .collect()
}

/// A pointer chase: every load depends on the previous one and misses to
/// memory (a fresh page and L2 block each time), so IPC sits far below 1
/// and most cycles are idle — the regime wakeup issue and idle-cycle
/// skipping target.
fn dependent_miss_trace(n: u64) -> Vec<TraceOp> {
    (0..n)
        .map(|i| match i % 4 {
            0 => TraceOp::with_dep(
                0x40_0000,
                OpKind::Load(Addr(0x1000_0000 + (i * 4160) % (1 << 28))),
                u16::from(i > 0) * 4,
            ),
            1 => TraceOp::with_dep(0x40_0004, OpKind::IntAlu, 1),
            2 => TraceOp::with_dep(0x40_0008, OpKind::FpAlu, 1),
            _ => TraceOp::with_dep(0x40_000C, OpKind::Branch { taken: true }, 1),
        })
        .collect()
}

fn bench_cpu(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu");
    let n = 100_000u64;
    g.throughput(Throughput::Elements(n));
    g.sample_size(20);

    g.bench_function("ooo_alu_only", |b| {
        let trace = alu_trace(n);
        b.iter(|| {
            let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
            Pipeline::new(CpuConfig::paper_base()).run(trace.iter().copied(), &mut mem)
        });
    });

    g.bench_function("ooo_mixed", |b| {
        let trace = mixed_trace(n);
        b.iter(|| {
            let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
            Pipeline::new(CpuConfig::paper_base()).run(trace.iter().copied(), &mut mem)
        });
    });

    g.bench_function("ooo_dependent_misses", |b| {
        let trace = dependent_miss_trace(n);
        b.iter(|| {
            let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
            Pipeline::new(CpuConfig::paper_base()).run(trace.iter().copied(), &mut mem)
        });
    });

    g.bench_function("in_order_mixed", |b| {
        let trace = mixed_trace(n);
        let mut cfg = CpuConfig::paper_base();
        cfg.model = CpuModel::InOrder;
        b.iter(|| {
            let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
            Pipeline::new(cfg).run(trace.iter().copied(), &mut mem)
        });
    });

    g.finish();
}

criterion_group!(benches, bench_cpu);
criterion_main!(benches);
