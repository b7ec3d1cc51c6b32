//! Writing a custom probe: count cache-bypassed line fills per array.
//!
//! The probe layer delivers every simulation event (commits, cache
//! accesses, assist decisions) with the static site that issued it, so a
//! user probe can answer questions the built-in statistics don't — here,
//! *which arrays* the bypass assist diverts around the L1, per region.
//! Cycle and stall events are counted: the pipeline skips idle stretches
//! and reports each as one event covering all of its cycles, so a probe
//! that counts them adds `n` per call. The example also prints the
//! built-in per-region report for comparison.
//!
//! ```text
//! cargo run --release --example region_report [-- <benchmark>]
//! ```

use selcache::compiler::{region_partition, selective, OptConfig};
use selcache::core::{format_region_report, AssistKind, Experiment, MachineConfig, Version};
use selcache::cpu::{CpuConfig, Pipeline};
use selcache::ir::{ArrayId, Interp, Program};
use selcache::mem::{AssistEvent, HierarchyConfig, MemoryHierarchy, Probe, Site};
use selcache::workloads::{Benchmark, Scale};

/// A user-written probe: bypassed fills and buffer hits, per array.
struct BypassByArray {
    names: Vec<String>,
    ranges: Vec<(u64, u64)>,
    bypassed: Vec<u64>,
    buffer_hits: Vec<u64>,
}

impl BypassByArray {
    fn new(program: &Program) -> Self {
        let map = program.address_map();
        let ranges = program
            .arrays
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let base = map.array_base(ArrayId(k as u32)).0;
                (base, base + a.size_bytes())
            })
            .collect::<Vec<_>>();
        BypassByArray {
            names: program.arrays.iter().map(|a| a.name.clone()).collect(),
            bypassed: vec![0; ranges.len()],
            buffer_hits: vec![0; ranges.len()],
            ranges,
        }
    }

    fn array_of(&self, addr: u64) -> Option<usize> {
        let i = self.ranges.partition_point(|&(base, _)| base <= addr);
        let (base, end) = *self.ranges.get(i.checked_sub(1)?)?;
        (addr >= base && addr < end).then_some(i - 1)
    }
}

impl Probe for BypassByArray {
    fn assist(&mut self, _site: Site, addr: selcache::ir::Addr, event: AssistEvent) {
        let Some(k) = self.array_of(addr.0) else { return };
        match event {
            AssistEvent::BypassFill => self.bypassed[k] += 1,
            AssistEvent::BufferHit => self.buffer_hits[k] += 1,
            _ => {}
        }
    }
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "TPC-C".to_string());
    let benchmark = Benchmark::parse(&name).expect("benchmark name");
    let opt = OptConfig::default();
    let program = selective(&benchmark.build(Scale::Tiny), &opt);
    let map = region_partition(&program, opt.threshold);

    // Drive the pipeline with the custom probe attached.
    let mut probe = BypassByArray::new(&program);
    let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::Bypass));
    mem.set_assist_enabled(false); // selective code starts with the assist off
    let stats = Pipeline::new(CpuConfig::paper_base()).run_probed(
        Interp::with_regions(&program, &map),
        &mut mem,
        &mut probe,
    );

    println!("{benchmark} (selective, bypass assist): {}", stats);
    println!();
    println!("{:<12} {:>10} {:>12}", "array", "bypassed", "buffer hits");
    for (k, name) in probe.names.iter().enumerate() {
        if probe.bypassed[k] + probe.buffer_hits[k] > 0 {
            println!("{:<12} {:>10} {:>12}", name, probe.bypassed[k], probe.buffer_hits[k]);
        }
    }
    println!();

    // The built-in region profile of the same configuration.
    let exp = Experiment::new(MachineConfig::base(), AssistKind::Bypass);
    let result = exp.run_profiled(benchmark, Scale::Tiny, Version::Selective);
    print!("{}", format_region_report(benchmark.name(), &result));
}
