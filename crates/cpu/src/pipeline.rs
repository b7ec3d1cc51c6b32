//! The trace-driven out-of-order pipeline.
//!
//! Structure per simulated cycle: **commit** (in order, up to the commit
//! width), **issue** (out of order from the RUU, bounded by issue width and
//! functional units; operands must be complete), **fetch/dispatch** (in
//! order, bounded by fetch width, RUU and LSQ occupancy; branches consult
//! the direction predictor and a misprediction blocks fetch until the
//! branch resolves plus a refill penalty; instruction-cache misses stall
//! fetch).
//!
//! Memory operations perform their hierarchy access at issue time; the
//! access latency becomes the op's completion latency. `AssistOn`/`AssistOff`
//! markers toggle the hierarchy's assist flag at dispatch (in program order
//! with respect to all later dispatches) and cost one pipeline slot each —
//! the instruction overhead the paper accounts for.

use crate::config::{CpuConfig, CpuModel};
use crate::predictor::Predictor;
use crate::stats::{CpuStats, CpuStatsProbe};
use selcache_ir::{OpKind, RegionId, TraceOp};
use selcache_mem::{MemoryHierarchy, NullProbe, Probe, Site};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Dependence horizon: an op whose producer is `DEP_HORIZON` or more ops
/// earlier is treated as independent (a producer that far back has long
/// committed on any realistic RUU).
const DEP_HORIZON: u64 = 1024;

/// End-of-list marker for the intrusive ring-position lists.
const NIL: u32 = u32::MAX;

/// Executed (not skipped) cycles between invariant checks in debug builds.
const INVARIANT_PERIOD: u64 = 32;

/// One RUU entry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pc: u64,
    /// Completion cycle, valid once `issued`.
    ready_at: u64,
    kind: OpKind,
    region: RegionId,
    class: UnitClass,
    issued: bool,
    /// Ring position of the first op waiting on this op's result (`NIL`
    /// when none); the list is emptied when this op issues.
    first_dependent: u32,
    /// Ring position of the next op waiting on the same producer.
    next_dependent: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        pc: 0,
        ready_at: 0,
        kind: OpKind::IntAlu,
        region: RegionId::NONE,
        class: UnitClass::Int,
        issued: false,
        first_dependent: NIL,
        next_dependent: NIL,
    };

    fn site(&self) -> Site {
        Site::new(self.pc, self.region)
    }
}

/// Functional-unit class an op contends for: memory ports, integer ALUs
/// (integer, branch and assist-toggle ops), or FP units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitClass {
    Mem,
    Int,
    Fp,
}

impl UnitClass {
    fn of(kind: OpKind) -> UnitClass {
        match kind {
            OpKind::Load(_) | OpKind::Store(_) => UnitClass::Mem,
            OpKind::FpAlu => UnitClass::Fp,
            _ => UnitClass::Int,
        }
    }
}

/// A set of RUU ring positions with a search for the next member in ring
/// order. The ring is the whole set: a power-of-two number of words.
#[derive(Debug, Clone)]
struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    fn new(positions: usize) -> Self {
        debug_assert!(positions.is_power_of_two() && positions >= 64);
        BitSet { words: vec![0; positions / 64], len: 0 }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn contains(&self, pos: usize) -> bool {
        self.words[pos / 64] & (1 << (pos % 64)) != 0
    }

    fn insert(&mut self, pos: usize) {
        debug_assert!(!self.contains(pos), "position {pos} is already set");
        self.words[pos / 64] |= 1 << (pos % 64);
        self.len += 1;
    }

    fn remove(&mut self, pos: usize) {
        debug_assert!(self.contains(pos), "position {pos} is not set");
        self.words[pos / 64] &= !(1 << (pos % 64));
        self.len -= 1;
    }

    /// Walking the ring from `start`, the distance `d < limit` to the
    /// first member.
    fn ring_next(&self, start: usize, limit: usize) -> Option<usize> {
        let (first, skip) = (start / 64, start % 64);
        let mask = self.words.len() - 1;
        let mut bits = self.words[first] & (!0 << skip);
        // Word `k` past `first` starts `64 * k - skip` positions ahead; the
        // last pass revisits `first` for the positions before `start`.
        for k in 1..=self.words.len() + 1 {
            if bits != 0 {
                let d = 64 * (k - 1) + bits.trailing_zeros() as usize - skip;
                return (d < limit).then_some(d);
            }
            if 64 * k - skip >= limit {
                return None;
            }
            bits = self.words[(first + k) & mask];
        }
        None
    }
}

/// The wake queue: unissued ops whose producer has issued but not yet
/// completed, in a min-heap keyed by `(ready cycle, ring position)`. Only
/// the ready cycle matters: due entries drain into the ready set, which
/// restores sequence order.
#[derive(Debug, Clone, Default)]
struct WakeQueue {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl WakeQueue {
    /// Queues the op at `pos` to become ready at cycle `at`.
    fn push(&mut self, pos: usize, at: u64) {
        self.heap.push(Reverse((at, pos as u32)));
    }

    /// Moves every op due at or before `now` into `ready`.
    fn drain_into(&mut self, now: u64, ready: &mut BitSet) {
        while let Some(&Reverse((at, pos))) = self.heap.peek() {
            if at > now {
                break;
            }
            self.heap.pop();
            ready.insert(pos as usize);
        }
    }

    /// The earliest cycle at which a queued op falls due.
    fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((at, _))| at)
    }
}

/// An out-of-order (or in-order, per [`CpuModel`]) processor pipeline.
///
/// # Event-driven simulation
///
/// The timing is exactly that of a core that rescans its whole RUU every
/// cycle, but the implementation neither scans nor steps through idle
/// cycles:
///
/// - **Wakeup issue.** Every unissued op waits in exactly one place: the
///   *ready set* (a bitset over RUU ring positions, any RUU size) when its
///   operand is available, the *dependent list* of its producer while
///   that producer has not issued, or the *wake queue* — a min-heap keyed
///   by ready cycle — while the producer's completion time is known but
///   still in the future. Issuing a producer moves its dependents into the
///   wake queue; each cycle moves the due entries into the ready set.
///   Issue walks only the set bits, in sequence order, under the scan's
///   width, unit and in-order rules — so the memory hierarchy sees the
///   same accesses in the same order.
/// - **Idle-cycle skipping.** When commit, issue and fetch provably do
///   nothing in a cycle, nothing changes until the earliest of the head's
///   completion, the next wakeup, and the end of a fetch stall.
///   [`Pipeline::run_probed`] jumps there directly and charges the skipped
///   cycles to the probe in bulk through the counted
///   [`Probe::cycles`]/[`Probe::issue_stalls`]/[`Probe::fetch_stalls`]
///   events.
///
/// Test and debug builds periodically check that every unissued op is in
/// exactly one of the three places and no issued op is in any.
///
/// ```
/// use selcache_cpu::{CpuConfig, Pipeline};
/// use selcache_ir::{OpKind, TraceOp};
/// use selcache_mem::{AssistKind, HierarchyConfig, MemoryHierarchy};
///
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None));
/// let trace = (0..2000).map(|i| TraceOp::new(0x40_0000 + (i % 8) * 4, OpKind::IntAlu));
/// let stats = Pipeline::new(CpuConfig::paper_base()).run(trace, &mut mem);
/// assert_eq!(stats.committed, 2000);
/// assert!(stats.ipc() > 1.0);
/// ```
#[derive(Debug)]
pub struct Pipeline {
    cfg: CpuConfig,
    predictor: Predictor,
    stats: CpuStatsProbe,
    /// The RUU as a ring of slots, at most `ruu_entries` of them in use;
    /// the oldest op sits at `head` and the op `k` places younger at
    /// `(head + k) % ruu.len()`. The length is a power of two and at least
    /// 64, so ring positions wrap with a mask and at a ready-set word
    /// boundary.
    ruu: Vec<Slot>,
    head: usize,
    len: usize,
    lsq_used: u32,
    /// The ready set: the unissued ops whose operand is available, by ring
    /// position.
    ready: BitSet,
    wakeups: WakeQueue,
    /// In-order model only: sequence number of the oldest unissued op
    /// (in-order issue keeps the unissued ops a suffix of the RUU).
    next_in_order: u64,
    /// `log2(fetch_block)` when the fetch-block size is a power of two
    /// (`u32::MAX` otherwise): fetch-block numbering shifts instead of
    /// dividing on every dispatched op.
    fetch_shift: u32,
    cycle: u64,
    /// Sequence number the next dispatched op receives.
    seq: u64,
    fetch_resume: u64,
    blocked_on: Option<u64>,
    last_fetch_block: u64,
    staged: Option<TraceOp>,
    done_fetching: bool,
    /// Region the pipeline is currently attributed to: the region of the
    /// oldest in-flight instruction, held over empty-RUU cycles.
    cur_region: RegionId,
}

impl Pipeline {
    /// Creates a pipeline with fresh predictor state.
    ///
    /// # Panics
    ///
    /// If `cfg` fails [`CpuConfig::validate`].
    pub fn new(cfg: CpuConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid CpuConfig: {e}");
        }
        let positions = (cfg.ruu_entries as usize).next_power_of_two().max(64);
        Pipeline {
            predictor: Predictor::from_config(&cfg),
            stats: CpuStatsProbe::default(),
            ruu: vec![Slot::EMPTY; positions],
            head: 0,
            len: 0,
            lsq_used: 0,
            ready: BitSet::new(positions),
            wakeups: WakeQueue::default(),
            next_in_order: 0,
            fetch_shift: if cfg.fetch_block.is_power_of_two() {
                cfg.fetch_block.trailing_zeros()
            } else {
                u32::MAX
            },
            cycle: 0,
            seq: 0,
            fetch_resume: 0,
            blocked_on: None,
            last_fetch_block: u64::MAX,
            staged: None,
            done_fetching: false,
            cur_region: RegionId::NONE,
            cfg,
        }
    }

    /// Creates a pipeline whose branch predictor starts from `predictor`
    /// (e.g. one warmed functionally by the sampled execution mode via
    /// [`Predictor::update`]) instead of a cold table. The caller is
    /// responsible for sizing the predictor consistently with `cfg`.
    pub fn with_predictor(cfg: CpuConfig, predictor: Predictor) -> Self {
        let mut p = Pipeline::new(cfg);
        p.predictor = predictor;
        p
    }

    /// The pipeline's branch predictor (e.g. to snapshot its learned state
    /// for reuse by a later measured interval).
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// Runs the given trace to completion against `mem` and returns the
    /// accumulated statistics. The pipeline can be reused for another trace;
    /// predictor and statistics carry over (create a new [`Pipeline`] for an
    /// independent run).
    pub fn run(
        &mut self,
        trace: impl IntoIterator<Item = TraceOp>,
        mem: &mut MemoryHierarchy,
    ) -> CpuStats {
        self.run_probed(trace, mem, &mut NullProbe)
    }

    /// [`Pipeline::run`] with event instrumentation: `probe` observes every
    /// cycle, commit, stall, misprediction, assist toggle and memory-system
    /// event, each attributed to the PC and region of the instruction that
    /// caused it. Idle stretches arrive as one counted
    /// [`Probe::cycles`]/[`Probe::issue_stalls`]/[`Probe::fetch_stalls`]
    /// event each. The built-in [`CpuStats`] accounting runs alongside
    /// unconditionally; with [`NullProbe`] this monomorphizes to the plain
    /// [`Pipeline::run`] path.
    pub fn run_probed<P: Probe>(
        &mut self,
        trace: impl IntoIterator<Item = TraceOp>,
        mem: &mut MemoryHierarchy,
        probe: &mut P,
    ) -> CpuStats {
        let mut trace = trace.into_iter();
        self.done_fetching = false;
        // Move the default probe out of `self` so both it and the caller's
        // probe can fan out through one tuple while `self` stays mutable.
        let mut default_probe = std::mem::take(&mut self.stats);
        let mut fan = (&mut default_probe, probe);
        let mut steps = 0u64;
        while !(self.done_fetching && self.len == 0 && self.staged.is_none()) {
            self.step(&mut trace, mem, &mut fan);
            steps += 1;
            if cfg!(debug_assertions) && steps.is_multiple_of(INVARIANT_PERIOD) {
                debug_assert_eq!(self.check_invariants(), Ok(()), "cycle {}", self.cycle);
            }
        }
        default_probe.stats.cycles = self.cycle;
        self.stats = default_probe;
        self.stats.stats()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CpuStats {
        &self.stats.stats
    }

    /// Branch-predictor accuracy so far (0.0 before any branch executes).
    pub fn predictor_accuracy(&self) -> f64 {
        self.predictor.accuracy()
    }

    /// Skips the idle cycles ahead, if any, then simulates one cycle.
    fn step<P: Probe>(
        &mut self,
        trace: &mut impl Iterator<Item = TraceOp>,
        mem: &mut MemoryHierarchy,
        probe: &mut P,
    ) {
        if self.len > 0 {
            self.cur_region = self.ruu[self.head].region;
        }
        if let Some(until) = self.idle_until() {
            self.skip_to(until, probe);
        }
        probe.cycles(self.cur_region, 1);
        self.commit(probe);
        self.issue(mem, probe);
        self.fetch(trace, mem, probe);
        self.cycle += 1;
    }

    /// Ring position of the op `offset` places younger than the head.
    fn ring_pos(&self, offset: usize) -> usize {
        (self.head + offset) & (self.ruu.len() - 1)
    }

    /// Places from the head to ring position `pos`.
    fn offset_of(&self, pos: usize) -> usize {
        pos.wrapping_sub(self.head) & (self.ruu.len() - 1)
    }

    /// Sequence number of the op at ring position `pos`.
    fn seq_at(&self, pos: usize) -> u64 {
        self.seq - self.len as u64 + self.offset_of(pos) as u64
    }

    /// Ring position of the in-flight op `seq`.
    fn pos_of(&self, seq: u64) -> usize {
        self.ring_pos((seq - (self.seq - self.len as u64)) as usize)
    }

    /// Offset from the head of the oldest ready op at offset `from` or
    /// younger.
    fn next_ready(&self, from: usize) -> Option<usize> {
        let limit = self.len.checked_sub(from)?;
        self.ready.ring_next(self.ring_pos(from), limit).map(|d| from + d)
    }

    /// Makes the unissued op at `pos` issuable from cycle `at`: ready now
    /// if `at` has arrived, otherwise queued for wakeup.
    fn wake(&mut self, pos: usize, at: u64) {
        if at <= self.cycle {
            self.ready.insert(pos);
        } else {
            self.wakeups.push(pos, at);
        }
    }

    /// True when issue would issue something this cycle if no wakeup were
    /// due: out of order, any ready op; in order, the oldest unissued
    /// op being ready.
    fn ready_to_issue(&self) -> bool {
        match self.cfg.model {
            CpuModel::OutOfOrder => !self.ready.is_empty(),
            CpuModel::InOrder => {
                self.next_in_order < self.seq
                    && self.ready.contains(self.pos_of(self.next_in_order))
            }
        }
    }

    /// When commit, issue and fetch all provably do nothing this cycle,
    /// the first later cycle at which one of them can act; nothing changes
    /// in between. `None` when this cycle may do work.
    fn idle_until(&self) -> Option<u64> {
        let now = self.cycle;
        let mut until = u64::MAX;
        // Commit waits for the head to issue and complete.
        if self.len > 0 {
            let head = &self.ruu[self.head];
            if head.issued {
                if head.ready_at <= now {
                    return None;
                }
                until = head.ready_at;
            }
        }
        // Issue waits for a ready op or the next wakeup.
        if self.ready_to_issue() {
            return None;
        }
        // Fetch waits out a mispredict (resolved only by an issue), an
        // I-cache stall, or a full RUU or LSQ (freed only by a commit).
        if !(self.done_fetching && self.staged.is_none()) && self.blocked_on.is_none() {
            if now < self.fetch_resume {
                until = until.min(self.fetch_resume);
            } else if !self.dispatch_blocked() {
                return None;
            }
        }
        if let Some(at) = self.wakeups.next_due() {
            if at <= now {
                return None;
            }
            until = until.min(at);
        }
        assert!(until != u64::MAX, "pipeline deadlocked at cycle {now}");
        Some(until)
    }

    /// True when dispatch cannot place another op: the RUU is full, or the
    /// staged memory op waits for an LSQ entry.
    fn dispatch_blocked(&self) -> bool {
        self.len == self.cfg.ruu_entries as usize
            || self
                .staged
                .is_some_and(|op| op.kind.is_mem() && self.lsq_used == self.cfg.lsq_entries)
    }

    /// Jumps over the idle cycles before `until`, charging each to the
    /// current region and the stall counters exactly as stepping would.
    fn skip_to<P: Probe>(&mut self, until: u64, probe: &mut P) {
        let n = until - self.cycle;
        probe.cycles(self.cur_region, n);
        if self.len > 0 {
            probe.issue_stalls(n);
        }
        let fetching = !(self.done_fetching && self.staged.is_none());
        if fetching && (self.blocked_on.is_some() || self.cycle < self.fetch_resume) {
            probe.fetch_stalls(n);
        }
        self.cycle = until;
    }

    fn commit<P: Probe>(&mut self, probe: &mut P) {
        for _ in 0..self.cfg.commit_width {
            if self.len == 0 {
                break;
            }
            let slot = self.ruu[self.head];
            if !slot.issued || slot.ready_at > self.cycle {
                break;
            }
            self.head = self.ring_pos(1);
            self.len -= 1;
            if slot.class == UnitClass::Mem {
                self.lsq_used -= 1;
            }
            probe.commit(slot.site(), slot.kind);
        }
    }

    fn issue<P: Probe>(&mut self, mem: &mut MemoryHierarchy, probe: &mut P) {
        if self.len == 0 {
            return;
        }
        let cycle = self.cycle;
        self.wakeups.drain_into(cycle, &mut self.ready);
        let in_order = self.cfg.model == CpuModel::InOrder;
        let unit_limit = [self.cfg.mem_ports, self.cfg.int_units, self.cfg.fp_units];
        let mut unit_used = [0u32; 3];
        let mut issued = 0;
        let front_seq = self.seq - self.len as u64;
        // Walk the ready ops oldest first — the candidates a front-to-back
        // scan would accept, in the same order. Re-searching from the last
        // position picks up ops woken by a zero-latency producer.
        let mut from = 0;
        while issued < self.cfg.issue_width {
            let Some(offset) = self.next_ready(from) else {
                break;
            };
            from = offset + 1;
            let seq = front_seq + offset as u64;
            if in_order && seq != self.next_in_order {
                break;
            }
            let pos = self.ring_pos(offset);
            let slot = self.ruu[pos];
            let class = slot.class as usize;
            if unit_used[class] >= unit_limit[class] {
                if in_order {
                    break;
                }
                continue;
            }
            let latency = match slot.kind {
                OpKind::IntAlu | OpKind::AssistOn | OpKind::AssistOff => self.cfg.int_latency,
                OpKind::Branch { .. } => self.cfg.int_latency,
                OpKind::FpAlu => self.cfg.fp_latency,
                OpKind::Load(a) => mem.data_access_probed(a, false, cycle, slot.site(), probe),
                OpKind::Store(a) => mem.data_access_probed(a, true, cycle, slot.site(), probe),
            };
            let done = cycle + latency;
            self.ready.remove(pos);
            let slot = &mut self.ruu[pos];
            slot.issued = true;
            slot.ready_at = done;
            let mut dependent = std::mem::replace(&mut slot.first_dependent, NIL);
            while dependent != NIL {
                let d = dependent as usize;
                dependent = std::mem::replace(&mut self.ruu[d].next_dependent, NIL);
                self.wake(d, done);
            }
            unit_used[class] += 1;
            issued += 1;
            if in_order {
                self.next_in_order = seq + 1;
            }
            if self.blocked_on == Some(seq) {
                self.blocked_on = None;
                self.fetch_resume = self.fetch_resume.max(done + self.cfg.mispredict_penalty);
            }
            if (0..3).all(|c| unit_used[c] >= unit_limit[c]) {
                break;
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
        if self.done_fetching && self.staged.is_none() {
            return;
        }
        if self.blocked_on.is_some() || self.cycle < self.fetch_resume {
            probe.fetch_stalls(1);
            return;
        }
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width {
            if self.len == self.cfg.ruu_entries as usize {
                break;
            }
            let op = match self.staged.take().or_else(|| trace.next()) {
                Some(op) => op,
                None => {
                    self.done_fetching = true;
                    break;
                }
            };
            let class = UnitClass::of(op.kind);
            if class == UnitClass::Mem && self.lsq_used == self.cfg.lsq_entries {
                self.staged = Some(op);
                break;
            }
            // Instruction fetch for a new fetch block.
            let fb = if self.fetch_shift < 64 {
                op.pc >> self.fetch_shift
            } else {
                op.pc / self.cfg.fetch_block
            };
            if fb != self.last_fetch_block {
                self.last_fetch_block = fb;
                let lat =
                    mem.inst_fetch_probed(op.pc, self.cycle, Site::new(op.pc, op.region), probe);
                if lat > 0 {
                    self.fetch_resume = self.cycle + lat;
                }
            }
            match op.kind {
                OpKind::Branch { taken } => {
                    let correct = self.predictor.update(op.pc, taken);
                    if !correct {
                        probe.mispredict(Site::new(op.pc, op.region));
                        self.blocked_on = Some(self.seq);
                    }
                }
                OpKind::AssistOn => {
                    mem.set_assist_enabled(true);
                    probe.assist_toggle(Site::new(op.pc, op.region), true);
                }
                OpKind::AssistOff => {
                    mem.set_assist_enabled(false);
                    probe.assist_toggle(Site::new(op.pc, op.region), false);
                }
                _ => {}
            }
            self.dispatch(op, class);
            fetched += 1;
            if self.blocked_on.is_some() || self.cycle < self.fetch_resume {
                break;
            }
        }
    }

    /// Appends `op` to the RUU and files it in exactly one waiting place:
    /// the ready set when it has no in-flight producer or the producer has
    /// completed, the wake heap when the producer's completion is known,
    /// and the producer's dependent list while the producer is unissued.
    fn dispatch(&mut self, op: TraceOp, class: UnitClass) {
        let front_seq = self.seq - self.len as u64;
        let dep = u64::from(op.dep);
        // A producer older than the RUU head has committed, so it is
        // complete; one beyond the horizon counts as no dependence.
        let producer = (dep != 0 && dep <= self.seq && dep < DEP_HORIZON)
            .then(|| self.seq - dep)
            .filter(|&p| p >= front_seq)
            .map(|p| self.ring_pos((p - front_seq) as usize));
        let pos = self.ring_pos(self.len);
        self.ruu[pos] = Slot { pc: op.pc, kind: op.kind, region: op.region, class, ..Slot::EMPTY };
        self.len += 1;
        self.seq += 1;
        if class == UnitClass::Mem {
            self.lsq_used += 1;
        }
        match producer {
            Some(p) if !self.ruu[p].issued => {
                self.ruu[pos].next_dependent = self.ruu[p].first_dependent;
                self.ruu[p].first_dependent = pos as u32;
            }
            Some(p) => self.wake(pos, self.ruu[p].ready_at),
            None => self.ready.insert(pos),
        }
    }

    /// Checks that every unissued op waits in exactly one place — the
    /// ready set, the wake queue, or its producer's dependent list — and no
    /// issued op waits anywhere. Run periodically by debug builds.
    fn check_invariants(&self) -> Result<(), String> {
        let cap = self.ruu.len();
        let front_seq = self.seq - self.len as u64;
        let occupied = |pos: usize| self.offset_of(pos) < self.len;
        let mut places = vec![0u32; cap];
        let mut ready_bits = 0;
        for (pos, n) in places.iter_mut().enumerate() {
            if self.ready.contains(pos) {
                *n += 1;
                ready_bits += 1;
            }
        }
        if ready_bits != self.ready.len {
            return Err(format!("ready set counts {} ops but holds {ready_bits}", self.ready.len));
        }
        let heap = &self.wakeups.heap;
        if heap.peek().is_some_and(|&Reverse((at, _))| at < self.cycle) {
            return Err("wake queue holds an overdue op".into());
        }
        for pos in heap.iter().map(|&Reverse((_, pos))| pos as usize) {
            if pos >= cap || !occupied(pos) {
                return Err(format!("wake queue holds free position {pos}"));
            }
            places[pos] += 1;
        }
        for offset in 0..self.len {
            let pos = self.ring_pos(offset);
            let mut d = self.ruu[pos].first_dependent;
            let mut hops = 0;
            while d != NIL {
                let dpos = d as usize;
                if dpos >= cap || !occupied(dpos) || self.seq_at(dpos) <= front_seq + offset as u64
                {
                    return Err(format!("op {} lists a bad dependent at {dpos}", self.seq_at(pos)));
                }
                places[dpos] += 1;
                hops += 1;
                if hops > self.len {
                    return Err(format!("op {}'s dependent list loops", self.seq_at(pos)));
                }
                d = self.ruu[dpos].next_dependent;
            }
        }
        for (pos, &n) in places.iter().enumerate() {
            let want = u32::from(occupied(pos) && !self.ruu[pos].issued);
            if n != want {
                let what = if occupied(pos) {
                    format!("op {}", self.seq_at(pos))
                } else {
                    "a free slot".into()
                };
                return Err(format!(
                    "{what} at position {pos} waits in {n} places, expected {want}"
                ));
            }
        }
        if self.cfg.model == CpuModel::InOrder {
            for offset in 0..self.len {
                let pos = self.ring_pos(offset);
                let seq = front_seq + offset as u64;
                if self.ruu[pos].issued != (seq < self.next_in_order) {
                    return Err(format!("in-order issue left op {seq} out of sequence"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selcache_ir::Addr;
    use selcache_mem::{AssistKind, ControllerConfig, HierarchyConfig};

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::None))
    }

    fn run(ops: Vec<TraceOp>) -> CpuStats {
        let mut m = mem();
        Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m)
    }

    fn alu(pc: u64) -> TraceOp {
        TraceOp::new(pc, OpKind::IntAlu)
    }

    #[test]
    fn empty_trace_finishes() {
        let s = run(vec![]);
        assert_eq!(s.committed, 0);
        assert!(s.cycles <= 2);
    }

    #[test]
    fn independent_alus_reach_issue_width() {
        // 4000 independent ALU ops in one fetch-block neighborhood (long
        // enough to amortize the cold I-cache miss).
        let ops: Vec<_> = (0..4000).map(|i| alu(0x40_0000 + (i % 8) * 4)).collect();
        let s = run(ops);
        assert_eq!(s.committed, 4000);
        // 4-wide machine: should sustain close to 4 IPC after warmup.
        assert!(s.ipc() > 2.5, "ipc {}", s.ipc());
    }

    #[test]
    fn dependent_chain_serializes() {
        let ops: Vec<_> = (0..400)
            .map(|i| TraceOp::with_dep(0x40_0000, OpKind::IntAlu, u16::from(i > 0)))
            .collect();
        let s = run(ops);
        // Fully serial chain: at most ~1 IPC.
        assert!(s.ipc() < 1.2, "ipc {}", s.ipc());
    }

    #[test]
    fn fp_latency_slows_dependent_chain() {
        let int_ops: Vec<_> =
            (0..200).map(|_| TraceOp::with_dep(0x40_0000, OpKind::IntAlu, 1)).collect();
        let fp_ops: Vec<_> =
            (0..200).map(|_| TraceOp::with_dep(0x40_0000, OpKind::FpAlu, 1)).collect();
        let si = run(int_ops);
        let sf = run(fp_ops);
        assert!(sf.cycles > si.cycles * 2, "fp {} int {}", sf.cycles, si.cycles);
    }

    #[test]
    fn independent_loads_overlap_misses() {
        // 8 loads to distinct L2 blocks: independent -> overlapped misses.
        let indep: Vec<_> = (0..8u64)
            .map(|i| TraceOp::new(0x40_0000, OpKind::Load(Addr(0x1000_0000 + i * 4096))))
            .collect();
        let dep: Vec<_> = (0..8u64)
            .map(|i| {
                TraceOp::with_dep(
                    0x40_0000,
                    OpKind::Load(Addr(0x2000_0000 + i * 4096)),
                    u16::from(i > 0),
                )
            })
            .collect();
        let si = run(indep);
        let sd = run(dep);
        assert!(sd.cycles > si.cycles * 2, "dependent {} independent {}", sd.cycles, si.cycles);
    }

    #[test]
    fn mispredicted_branch_costs_cycles() {
        // Alternating branch directions defeat the bimodal predictor.
        let flaky: Vec<_> = (0..200)
            .map(|i| TraceOp::new(0x40_0000, OpKind::Branch { taken: i % 2 == 0 }))
            .collect();
        let steady: Vec<_> =
            (0..200).map(|_| TraceOp::new(0x40_0000, OpKind::Branch { taken: true })).collect();
        let sf = run(flaky);
        let ss = run(steady);
        assert!(sf.mispredicts > 50);
        assert!(ss.mispredicts < 5);
        assert!(sf.cycles > ss.cycles);
        assert!(sf.fetch_stall_cycles > 0);
    }

    #[test]
    fn assist_markers_toggle_hierarchy() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper_base(AssistKind::Victim));
        assert!(m.assist_enabled());
        let ops = vec![TraceOp::new(0x40_0000, OpKind::AssistOff), alu(0x40_0004)];
        let s = Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m);
        assert!(!m.assist_enabled());
        assert_eq!(s.assist_toggles, 1);
        let ops = vec![TraceOp::new(0x40_0000, OpKind::AssistOn)];
        Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m);
        assert!(m.assist_enabled());
    }

    #[test]
    fn assist_markers_freeze_and_thaw_the_controller() {
        // Under the adaptive controller the same ON/OFF markers gate the
        // whole mechanism: an OFF window freezes the controller (no
        // decisions, no switches), ON thaws it again.
        let mut cfg = HierarchyConfig::paper_base(AssistKind::None);
        cfg.controller =
            Some(ControllerConfig { interval_accesses: 8, ..ControllerConfig::default() });
        let mut m = MemoryHierarchy::new(cfg);
        // Conflict traffic (5 blocks cycling one 4-way set) drives the
        // controller through its exploration trials.
        let load =
            |i: u64| TraceOp::new(0x40_0000, OpKind::Load(Addr(0x1000_0000 + (i % 5) * 8192)));
        let mut ops = vec![TraceOp::new(0x40_0000, OpKind::AssistOn)];
        ops.extend((0..64).map(load));
        ops.push(TraceOp::new(0x40_0000, OpKind::AssistOff));
        Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m);
        assert!(!m.assist_enabled());
        let switches = m.stats().assist.adapt_switches;
        assert!(switches > 0, "the ON window must drive controller decisions");
        // OFF window: further traffic changes nothing.
        let ops: Vec<TraceOp> = (0..64).map(load).collect();
        Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m);
        assert_eq!(m.stats().assist.adapt_switches, switches, "frozen while OFF");
        // ON again with streaming traffic the locked-in winner cannot help:
        // the hysteresis trips and the controller re-explores — decisions
        // resume.
        let mut ops = vec![TraceOp::new(0x40_0000, OpKind::AssistOn)];
        ops.extend(
            (0..64u64).map(|i| TraceOp::new(0x40_0000, OpKind::Load(Addr(0x3000_0000 + i * 64)))),
        );
        Pipeline::new(CpuConfig::paper_base()).run(ops, &mut m);
        assert!(m.stats().assist.adapt_switches > switches, "thawed by ON");
    }

    #[test]
    fn lsq_limits_outstanding_memory_ops() {
        // More loads than LSQ entries; all must still commit.
        let ops: Vec<_> = (0..100u64)
            .map(|i| TraceOp::new(0x40_0000, OpKind::Load(Addr(0x1000_0000 + i * 8))))
            .collect();
        let s = run(ops);
        assert_eq!(s.loads, 100);
        assert_eq!(s.committed, 100);
    }

    #[test]
    fn in_order_model_is_slower_on_mixed_trace() {
        // Each load feeds two dependent ALUs: in-order issue blocks on the
        // pending load and cannot overlap the next miss; out-of-order can.
        let mk = || {
            (0..64u64).flat_map(|i| {
                vec![
                    TraceOp::new(0x40_0000, OpKind::Load(Addr(0x1000_0000 + i * 4096))),
                    TraceOp::with_dep(0x40_0004, OpKind::IntAlu, 1),
                    TraceOp::with_dep(0x40_0008, OpKind::IntAlu, 1),
                ]
            })
        };
        let mut m1 = mem();
        let ooo = Pipeline::new(CpuConfig::paper_base()).run(mk(), &mut m1);
        let mut m2 = mem();
        let mut cfg = CpuConfig::paper_base();
        cfg.model = CpuModel::InOrder;
        let ino = Pipeline::new(cfg).run(mk(), &mut m2);
        assert!(ino.cycles > ooo.cycles, "in-order {} ooo {}", ino.cycles, ooo.cycles);
    }

    #[test]
    fn invariant_check_catches_misplaced_ops() {
        // A missing load and a chain of dependents: once all are
        // dispatched, the load has issued, its consumer waits in the wake
        // queue and the rest on their producers' dependent lists.
        let mut ops = vec![TraceOp::new(0x40_0000, OpKind::Load(Addr(0x1000_0000)))];
        ops.extend((0..6).map(|_| TraceOp::with_dep(0x40_0004, OpKind::IntAlu, 1)));
        let mut m = mem();
        let mut p = Pipeline::new(CpuConfig::paper_base());
        let mut trace = ops.into_iter();
        for _ in 0..50 {
            if p.len == 7 {
                break;
            }
            p.step(&mut trace, &mut m, &mut NullProbe);
        }
        assert_eq!(p.len, 7, "all ops dispatched");
        assert!(p.ruu[p.head].issued && p.ready.is_empty());
        assert_eq!(p.check_invariants(), Ok(()));
        // An op on a dependent list must not also be ready.
        let waiting = p.ring_pos(3);
        p.ready.insert(waiting);
        assert!(p.check_invariants().is_err());
        p.ready.remove(waiting);
        assert_eq!(p.check_invariants(), Ok(()));
        // An unissued op must wait somewhere.
        p.ruu[p.head].issued = false;
        assert!(p.check_invariants().is_err());
    }

    #[test]
    fn ring_search_wraps_and_respects_the_limit() {
        for positions in [64, 128, 256] {
            for members in [vec![], vec![0], vec![63], vec![5, 64, 127], vec![1, 100, 200, 255]] {
                let mut set = BitSet::new(positions);
                for &m in members.iter().filter(|&&m| m < positions) {
                    set.insert(m);
                }
                for start in 0..positions {
                    for limit in [0, 1, 2, 63, 64, 65, positions - 1, positions] {
                        let naive = (0..limit).find(|d| set.contains((start + d) % positions));
                        assert_eq!(set.ring_next(start, limit), naive, "{positions} {start}");
                    }
                }
            }
        }
    }

    #[test]
    fn stats_partition_by_kind() {
        let ops = vec![
            alu(0x40_0000),
            TraceOp::new(0x40_0004, OpKind::FpAlu),
            TraceOp::new(0x40_0008, OpKind::Load(Addr(0x1000_0000))),
            TraceOp::new(0x40_000C, OpKind::Store(Addr(0x1000_0008))),
            TraceOp::new(0x40_0010, OpKind::Branch { taken: true }),
        ];
        let s = run(ops);
        assert_eq!(s.committed, 5);
        assert_eq!((s.int_ops, s.fp_ops, s.loads, s.stores, s.branches), (1, 1, 1, 1, 1));
    }
}
