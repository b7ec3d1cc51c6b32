//! Differential test: the event-driven pipeline must time every trace
//! exactly like a naive core that scans its whole RUU every cycle.
//!
//! `reference` below is that naive core: each cycle it commits, scans the
//! RUU front to back for issuable ops (no ready set, no wakeup lists, no
//! memo), and fetches — and it never skips a cycle. Both cores run the
//! same random traces (dependences, assist markers, branches, hits and
//! misses) over random valid configurations: RUU sizes from 1 to 160
//! (including 65 and 100, which fill only part of a two-word ring),
//! widths 1–8, unit counts 1–4, ALU latencies 1–6, both timing models and
//! both predictors, and memory latencies from 8 to 600 cycles.
//! They must agree on `CpuStats`, `HierarchyStats`, and every counted
//! event: per-region cycles, issue and fetch stalls, the commit stream,
//! and the order of the accesses the hierarchy sees.
//!
//! Test builds keep debug assertions on, so every pipeline run here also
//! checks the pipeline's waiting-place invariant periodically.

use selcache_cpu::{CpuConfig, CpuModel, CpuStats, Pipeline, PredictorKind};
use selcache_ir::{Addr, OpKind, RegionId, TraceOp};
use selcache_mem::{
    AssistKind, CacheLevel, HierarchyConfig, HierarchyStats, Lookup, MemoryHierarchy, Probe, Site,
};
use std::collections::BTreeMap;

mod reference {
    use selcache_cpu::{CpuConfig, CpuModel, CpuStats, CpuStatsProbe, Predictor};
    use selcache_ir::{OpKind, RegionId, TraceOp};
    use selcache_mem::{MemoryHierarchy, Probe, Site};
    use std::collections::VecDeque;

    struct Slot {
        seq: u64,
        op: TraceOp,
        /// Producer's sequence number, when the op has one.
        dep: Option<u64>,
        issued: bool,
        ready_at: u64,
    }

    /// The naive per-cycle core.
    pub struct RefCore {
        cfg: CpuConfig,
        predictor: Predictor,
        ruu: VecDeque<Slot>,
        lsq_used: u32,
        cycle: u64,
        seq: u64,
        fetch_resume: u64,
        blocked_on: Option<u64>,
        last_fetch_block: u64,
        staged: Option<TraceOp>,
        done: bool,
        region: RegionId,
    }

    impl RefCore {
        pub fn new(cfg: CpuConfig) -> Self {
            RefCore {
                predictor: Predictor::from_config(&cfg),
                cfg,
                ruu: VecDeque::new(),
                lsq_used: 0,
                cycle: 0,
                seq: 0,
                fetch_resume: 0,
                blocked_on: None,
                last_fetch_block: u64::MAX,
                staged: None,
                done: false,
                region: RegionId::NONE,
            }
        }

        pub fn run<P: Probe>(
            &mut self,
            trace: &[TraceOp],
            mem: &mut MemoryHierarchy,
            probe: &mut P,
        ) -> CpuStats {
            let mut stats = CpuStatsProbe::default();
            let mut fan = (&mut stats, probe);
            let mut trace = trace.iter().copied();
            while !(self.done && self.ruu.is_empty() && self.staged.is_none()) {
                if let Some(front) = self.ruu.front() {
                    self.region = front.op.region;
                }
                fan.cycles(self.region, 1);
                self.commit(&mut fan);
                self.issue(mem, &mut fan);
                self.fetch(&mut trace, mem, &mut fan);
                self.cycle += 1;
            }
            let mut s = stats.stats();
            s.cycles = self.cycle;
            s
        }

        fn commit<P: Probe>(&mut self, probe: &mut P) {
            for _ in 0..self.cfg.commit_width {
                match self.ruu.front() {
                    Some(s) if s.issued && s.ready_at <= self.cycle => {}
                    _ => break,
                }
                let s = self.ruu.pop_front().unwrap();
                if s.op.kind.is_mem() {
                    self.lsq_used -= 1;
                }
                probe.commit(Site::new(s.op.pc, s.op.region), s.op.kind);
            }
        }

        /// True when the producer `dep` has completed by `cycle`: it has
        /// committed, or it issued and its result is available.
        fn operand_ready(&self, dep: Option<u64>) -> bool {
            let Some(d) = dep else { return true };
            let front = self.ruu.front().map_or(self.seq, |s| s.seq);
            if d < front {
                return true;
            }
            let p = &self.ruu[(d - front) as usize];
            p.issued && p.ready_at <= self.cycle
        }

        fn issue<P: Probe>(&mut self, mem: &mut MemoryHierarchy, probe: &mut P) {
            if self.ruu.is_empty() {
                return;
            }
            let in_order = self.cfg.model == CpuModel::InOrder;
            let limit = [self.cfg.mem_ports, self.cfg.int_units, self.cfg.fp_units];
            let mut used = [0u32; 3];
            let mut issued = 0;
            for k in 0..self.ruu.len() {
                if issued == self.cfg.issue_width {
                    break;
                }
                if self.ruu[k].issued {
                    continue;
                }
                let op = self.ruu[k].op;
                let class = match op.kind {
                    OpKind::Load(_) | OpKind::Store(_) => 0,
                    OpKind::FpAlu => 2,
                    _ => 1,
                };
                if !self.operand_ready(self.ruu[k].dep) || used[class] >= limit[class] {
                    if in_order {
                        break;
                    }
                    continue;
                }
                let site = Site::new(op.pc, op.region);
                let latency = match op.kind {
                    OpKind::FpAlu => self.cfg.fp_latency,
                    OpKind::Load(a) => mem.data_access_probed(a, false, self.cycle, site, probe),
                    OpKind::Store(a) => mem.data_access_probed(a, true, self.cycle, site, probe),
                    _ => self.cfg.int_latency,
                };
                let slot = &mut self.ruu[k];
                slot.issued = true;
                slot.ready_at = self.cycle + latency;
                used[class] += 1;
                issued += 1;
                if self.blocked_on == Some(slot.seq) {
                    self.blocked_on = None;
                    let resume = slot.ready_at + self.cfg.mispredict_penalty;
                    self.fetch_resume = self.fetch_resume.max(resume);
                }
            }
            if issued == 0 {
                probe.issue_stalls(1);
            }
        }

        fn fetch<P: Probe>(
            &mut self,
            trace: &mut impl Iterator<Item = TraceOp>,
            mem: &mut MemoryHierarchy,
            probe: &mut P,
        ) {
            if self.done && self.staged.is_none() {
                return;
            }
            if self.blocked_on.is_some() || self.cycle < self.fetch_resume {
                probe.fetch_stalls(1);
                return;
            }
            for _ in 0..self.cfg.fetch_width {
                if self.ruu.len() == self.cfg.ruu_entries as usize {
                    break;
                }
                let Some(op) = self.staged.take().or_else(|| trace.next()) else {
                    self.done = true;
                    break;
                };
                if op.kind.is_mem() && self.lsq_used == self.cfg.lsq_entries {
                    self.staged = Some(op);
                    break;
                }
                let site = Site::new(op.pc, op.region);
                let block = op.pc / self.cfg.fetch_block;
                if block != self.last_fetch_block {
                    self.last_fetch_block = block;
                    let lat = mem.inst_fetch_probed(op.pc, self.cycle, site, probe);
                    if lat > 0 {
                        self.fetch_resume = self.cycle + lat;
                    }
                }
                match op.kind {
                    OpKind::Branch { taken } => {
                        let correct = self.predictor.update(op.pc, taken);
                        if !correct {
                            probe.mispredict(site);
                            self.blocked_on = Some(self.seq);
                        }
                    }
                    OpKind::AssistOn | OpKind::AssistOff => {
                        let on = op.kind == OpKind::AssistOn;
                        mem.set_assist_enabled(on);
                        probe.assist_toggle(site, on);
                    }
                    _ => {}
                }
                // Dependences reaching 1024 or more ops back count as none.
                let d = u64::from(op.dep);
                let dep = (d != 0 && d <= self.seq && d < 1024).then(|| self.seq - d);
                if op.kind.is_mem() {
                    self.lsq_used += 1;
                }
                self.ruu.push_back(Slot { seq: self.seq, op, dep, issued: false, ready_at: 0 });
                self.seq += 1;
                if self.blocked_on.is_some() || self.cycle < self.fetch_resume {
                    break;
                }
            }
        }
    }
}

/// Counts every pipeline-level event the cores report.
#[derive(Debug, Default, PartialEq)]
struct Events {
    /// `cycles` calls: one per cycle from the reference, fewer from a
    /// pipeline that skips idle stretches.
    cycle_events: u64,
    region_cycles: BTreeMap<RegionId, u64>,
    issue_stalls: u64,
    fetch_stalls: u64,
    commits: Vec<(u64, RegionId, OpKind)>,
    accesses: Vec<(CacheLevel, u64, bool)>,
    mispredicts: Vec<u64>,
    toggles: Vec<(u64, bool)>,
}

impl Probe for Events {
    fn cycles(&mut self, region: RegionId, n: u64) {
        assert!(n >= 1, "counted events carry at least one cycle");
        self.cycle_events += 1;
        *self.region_cycles.entry(region).or_default() += n;
    }
    fn issue_stalls(&mut self, n: u64) {
        assert!(n >= 1);
        self.issue_stalls += n;
    }
    fn fetch_stalls(&mut self, n: u64) {
        assert!(n >= 1);
        self.fetch_stalls += n;
    }
    fn commit(&mut self, site: Site, kind: OpKind) {
        self.commits.push((site.pc, site.region, kind));
    }
    fn cache_access(&mut self, level: CacheLevel, _s: Site, addr: Addr, write: bool, _l: Lookup) {
        self.accesses.push((level, addr.0, write));
    }
    fn mispredict(&mut self, site: Site) {
        self.mispredicts.push(site.pc);
    }
    fn assist_toggle(&mut self, site: Site, on: bool) {
        self.toggles.push((site.pc, on));
    }
}

/// Splitmix-style deterministic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

fn random_cpu(rng: &mut Rng) -> CpuConfig {
    let ruu = if rng.below(3) == 0 {
        rng.pick(&[1, 2, 63, 64, 65, 100, 128, 160])
    } else {
        1 + rng.below(160) as u32
    };
    CpuConfig {
        issue_width: 1 + rng.below(8) as u32,
        fetch_width: 1 + rng.below(8) as u32,
        commit_width: 1 + rng.below(8) as u32,
        ruu_entries: ruu,
        lsq_entries: 1 + rng.below(ruu as u64) as u32,
        mem_ports: 1 + rng.below(4) as u32,
        int_units: 1 + rng.below(4) as u32,
        fp_units: 1 + rng.below(4) as u32,
        predictor_entries: rng.pick(&[16, 256, 2048]),
        predictor: rng.pick(&[PredictorKind::Bimodal, PredictorKind::Gshare]),
        mispredict_penalty: rng.below(6),
        int_latency: 1 + rng.below(6),
        fp_latency: 1 + rng.below(6),
        fetch_block: rng.pick(&[4, 8, 24, 32, 64]),
        model: rng.pick(&[CpuModel::OutOfOrder, CpuModel::InOrder]),
    }
}

fn random_mem(rng: &mut Rng) -> HierarchyConfig {
    let assist =
        rng.pick(&[AssistKind::None, AssistKind::Bypass, AssistKind::Victim, AssistKind::Stream]);
    let mut cfg = HierarchyConfig::paper_base(assist);
    // Memory latencies from a few cycles to several hundred; a zero L1
    // latency lets a hit complete in the cycle it issues.
    cfg.mem_latency = rng.pick(&[8, 40, 100, 300, 600]);
    cfg.dram_hit_latency = cfg.dram_hit_latency.min(cfg.mem_latency);
    cfg.l1_latency = rng.pick(&[0, 1, 2, 3]);
    cfg
}

fn random_trace(rng: &mut Rng, len: usize) -> Vec<TraceOp> {
    let mut region = RegionId::NONE;
    let mut pc = 0x40_0000u64;
    (0..len)
        .map(|k| {
            if k % 97 == 0 {
                region =
                    if rng.below(4) == 0 { RegionId::NONE } else { RegionId(rng.below(5) as u32) };
            }
            // Mostly straight-line code with loops back and long jumps.
            pc = match rng.below(20) {
                0 => 0x40_0000 + rng.below(64) * 4,
                1 => 0x40_0000 + rng.below(1 << 16) * 4,
                _ => pc + 4,
            };
            let addr = |rng: &mut Rng| {
                let a = if rng.below(3) == 0 {
                    0x1000_0000 + rng.below(1 << 24)
                } else {
                    0x2000_0000 + rng.below(1 << 12)
                };
                Addr(a & !7)
            };
            let kind = match rng.below(20) {
                0..=4 => OpKind::Load(addr(rng)),
                5 | 6 => OpKind::Store(addr(rng)),
                7..=9 => OpKind::FpAlu,
                10 | 11 => OpKind::Branch { taken: rng.below(4) != 0 },
                12 if rng.below(8) == 0 => OpKind::AssistOn,
                13 if rng.below(8) == 0 => OpKind::AssistOff,
                _ => OpKind::IntAlu,
            };
            let dep = match rng.below(20) {
                0..=7 => 0,
                8..=15 => 1 + rng.below(4),
                16 | 17 => 5 + rng.below(200),
                18 => 1000 + rng.below(48),
                _ => rng.below(u64::from(u16::MAX) + 1),
            } as u16;
            TraceOp { pc, kind, dep, region }
        })
        .collect()
}

struct Outcome {
    cpu: CpuStats,
    mem: HierarchyStats,
    events: Events,
}

fn run_event(cpu: CpuConfig, mem: &HierarchyConfig, trace: &[TraceOp]) -> Outcome {
    let mut h = MemoryHierarchy::new(mem.clone());
    let mut events = Events::default();
    let cpu = Pipeline::new(cpu).run_probed(trace.iter().copied(), &mut h, &mut events);
    Outcome { cpu, mem: h.stats(), events }
}

fn run_reference(cpu: CpuConfig, mem: &HierarchyConfig, trace: &[TraceOp]) -> Outcome {
    let mut h = MemoryHierarchy::new(mem.clone());
    let mut events = Events::default();
    let cpu = reference::RefCore::new(cpu).run(trace, &mut h, &mut events);
    Outcome { cpu, mem: h.stats(), events }
}

fn assert_same(case: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.cpu, b.cpu, "{case}: CpuStats");
    assert_eq!(a.mem, b.mem, "{case}: HierarchyStats");
    let (e, r) = (&a.events, &b.events);
    assert_eq!(e.region_cycles, r.region_cycles, "{case}: per-region cycles");
    assert_eq!(
        (e.issue_stalls, e.fetch_stalls),
        (r.issue_stalls, r.fetch_stalls),
        "{case}: stalls"
    );
    assert!(e.commits == r.commits, "{case}: commit stream differs");
    assert!(e.accesses == r.accesses, "{case}: hierarchy access order differs");
    assert_eq!(e.mispredicts, r.mispredicts, "{case}: mispredicts");
    assert_eq!(e.toggles, r.toggles, "{case}: assist toggles");
}

#[test]
fn random_configs_match_the_reference_core() {
    let mut rng = Rng(0x5EED_CAFE);
    for case in 0..160 {
        let cpu = random_cpu(&mut rng);
        let mem = random_mem(&mut rng);
        let len = 400 + rng.below(2500) as usize;
        let trace = random_trace(&mut rng, len);
        let label = format!("case {case} ({cpu:?}, mem_latency {})", mem.mem_latency);
        let event = run_event(cpu, &mem, &trace);
        assert_eq!(event.cpu.committed, trace.len() as u64, "{label}: lost ops");
        assert_same(&label, &event, &run_reference(cpu, &mem, &trace));
    }
}

#[test]
fn long_miss_chains_match_the_reference_core() {
    // Dependent loads that miss to memory: the regime idle-cycle skipping
    // and the wake heap exist for. Every RUU size up to 160 (and both
    // models) sees the same chain.
    let trace: Vec<TraceOp> = (0..600u64)
        .map(|k| {
            let kind = match k % 3 {
                0 => OpKind::Load(Addr(0x1000_0000 + k * 4160)),
                1 => OpKind::IntAlu,
                _ => OpKind::FpAlu,
            };
            TraceOp::with_dep(0x40_0000 + (k % 16) * 4, kind, u16::from(k > 0))
        })
        .collect();
    let mem = HierarchyConfig::paper_base(AssistKind::None);
    for ruu in 1..=160 {
        for model in [CpuModel::OutOfOrder, CpuModel::InOrder] {
            let cpu = CpuConfig { ruu_entries: ruu, model, ..CpuConfig::paper_base() };
            let label = format!("ruu {ruu} {model:?}");
            let (event, reference) =
                (run_event(cpu, &mem, &trace), run_reference(cpu, &mem, &trace));
            assert_same(&label, &event, &reference);
            assert_eq!(reference.events.cycle_events, reference.cpu.cycles);
            assert!(
                event.events.cycle_events < event.cpu.cycles / 2,
                "{label}: idle cycles were not skipped"
            );
        }
    }
}
