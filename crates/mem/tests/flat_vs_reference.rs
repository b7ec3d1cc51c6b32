//! Differential test: the flattened cache must behave bit-identically to the
//! original nested-`Vec` geometry for every replacement policy.
//!
//! `reference` below is a scalar re-model of the pre-flattening cache: one
//! `Vec<Line>` per set, a `HashSet` first-touch tracker, and an O(n)
//! fully-associative LRU shadow. Both models are driven through the same
//! mixed workload (accesses, fills, invalidations, victim previews) per
//! policy and must agree on every lookup result, every eviction, every
//! preview, and the final `CacheStats` including the three-C classification.
//! The cache's own invariant check runs throughout. Besides a 128-line cache,
//! classified caches of 1 to 8 lines run long streams, which compact the
//! cache's stamp-ring shadow thousands of times.

use selcache_mem::{Cache, CacheConfig, Lookup, Replacement};

mod reference {
    use selcache_mem::{CacheConfig, MissClass, Replacement};
    use std::collections::HashSet;

    #[derive(Debug, Clone, Copy, Default)]
    struct Line {
        block: u64,
        valid: bool,
        dirty: bool,
        stamp: u64,
    }

    /// O(n) fully-associative LRU (MRU at the back of the list).
    struct SlowShadow {
        order: Vec<(u64, bool)>,
        capacity: usize,
    }

    impl SlowShadow {
        fn contains(&self, key: u64) -> bool {
            self.order.iter().any(|&(k, _)| k == key)
        }

        fn insert(&mut self, key: u64, dirty: bool) {
            if let Some(pos) = self.order.iter().position(|&(k, _)| k == key) {
                let (k, d) = self.order.remove(pos);
                self.order.push((k, d | dirty));
                return;
            }
            if self.order.len() == self.capacity {
                self.order.remove(0);
            }
            self.order.push((key, dirty));
        }
    }

    /// Pre-flattening cache model: nested sets, `HashSet` seen-tracking, and
    /// the historical two-touch shadow update on the miss path.
    pub struct RefCache {
        cfg: CacheConfig,
        sets: Vec<Vec<Line>>,
        plru: Vec<u64>,
        stamp: u64,
        pub accesses: u64,
        pub hits: u64,
        pub misses: u64,
        pub compulsory: u64,
        pub capacity: u64,
        pub conflict: u64,
        pub writebacks: u64,
        shadow: SlowShadow,
        seen: HashSet<u64>,
        rng: u64,
    }

    impl RefCache {
        pub fn new(cfg: CacheConfig) -> Self {
            let sets = cfg.num_sets();
            RefCache {
                cfg,
                sets: vec![vec![Line::default(); cfg.assoc as usize]; sets as usize],
                plru: vec![0; sets as usize],
                stamp: 0,
                accesses: 0,
                hits: 0,
                misses: 0,
                compulsory: 0,
                capacity: 0,
                conflict: 0,
                writebacks: 0,
                shadow: SlowShadow { order: Vec::new(), capacity: cfg.num_lines() as usize },
                seen: HashSet::new(),
                rng: 0x9E37_79B9_7F4A_7C15,
            }
        }

        fn set_index(&self, block: u64) -> usize {
            (block % self.cfg.num_sets()) as usize
        }

        /// Returns `None` on a hit, `Some(class)` on a miss.
        pub fn access(&mut self, block: u64, write: bool) -> Option<MissClass> {
            self.stamp += 1;
            self.accesses += 1;
            let si = self.set_index(block);
            let stamp = self.stamp;
            let is_lru = self.cfg.replacement == Replacement::Lru;
            if let Some(way) = self.sets[si].iter().position(|l| l.valid && l.block == block) {
                let line = &mut self.sets[si][way];
                if is_lru {
                    line.stamp = stamp;
                }
                line.dirty |= write;
                self.hits += 1;
                if self.cfg.replacement == Replacement::Plru {
                    self.plru_touch(si, way);
                }
                self.shadow.insert(block, false);
                return None;
            }
            let first_touch = self.seen.insert(block);
            let shadow_hit = self.shadow.contains(block);
            self.shadow.insert(block, false);
            let class = if first_touch {
                MissClass::Compulsory
            } else if shadow_hit {
                MissClass::Conflict
            } else {
                MissClass::Capacity
            };
            self.misses += 1;
            match class {
                MissClass::Compulsory => self.compulsory += 1,
                MissClass::Capacity => self.capacity += 1,
                MissClass::Conflict => self.conflict += 1,
            }
            Some(class)
        }

        pub fn fill(&mut self, block: u64, dirty: bool) -> Option<(u64, bool)> {
            self.stamp += 1;
            let si = self.set_index(block);
            let stamp = self.stamp;
            let is_lru = self.cfg.replacement == Replacement::Lru;
            if let Some(line) = self.sets[si].iter_mut().find(|l| l.valid && l.block == block) {
                line.dirty |= dirty;
                if is_lru {
                    line.stamp = stamp;
                }
                return None;
            }
            let way = self.choose_victim(si);
            let line = &mut self.sets[si][way];
            let evicted = line.valid.then_some((line.block, line.dirty));
            if let Some((_, d)) = evicted {
                if d {
                    self.writebacks += 1;
                }
            }
            *line = Line { block, valid: true, dirty, stamp };
            if self.cfg.replacement == Replacement::Plru {
                self.plru_touch(si, way);
            }
            evicted
        }

        pub fn invalidate(&mut self, block: u64) -> Option<bool> {
            let si = self.set_index(block);
            let line = self.sets[si].iter_mut().find(|l| l.valid && l.block == block)?;
            line.valid = false;
            Some(line.dirty)
        }

        pub fn probe(&self, block: u64) -> bool {
            let si = self.set_index(block);
            self.sets[si].iter().any(|l| l.valid && l.block == block)
        }

        pub fn victim_for(&self, block: u64) -> Option<(u64, bool)> {
            let si = self.set_index(block);
            if self.sets[si].iter().any(|l| l.valid && l.block == block) {
                return None;
            }
            if self.sets[si].iter().any(|l| !l.valid) {
                return None;
            }
            let way = self.peek_victim(si);
            let line = &self.sets[si][way];
            Some((line.block, line.dirty))
        }

        pub fn resident(&self) -> usize {
            self.sets.iter().flatten().filter(|l| l.valid).count()
        }

        /// The way a fill into the full set would evict: the PLRU tree's
        /// choice, else the oldest line (exact for LRU and FIFO, the
        /// documented stand-in for the random draw).
        fn peek_victim(&self, si: usize) -> usize {
            if self.cfg.replacement == Replacement::Plru {
                return self.plru_victim(si);
            }
            self.sets[si]
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .map(|(i, _)| i)
                .unwrap_or(0)
        }

        fn choose_victim(&mut self, si: usize) -> usize {
            if let Some(way) = self.sets[si].iter().position(|l| !l.valid) {
                return way;
            }
            match self.cfg.replacement {
                Replacement::Lru | Replacement::Fifo | Replacement::Plru => self.peek_victim(si),
                Replacement::Random => {
                    self.rng ^= self.rng >> 12;
                    self.rng ^= self.rng << 25;
                    self.rng ^= self.rng >> 27;
                    (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.cfg.assoc as u64) as usize
                }
            }
        }

        fn plru_touch(&mut self, si: usize, way: usize) {
            let assoc = self.cfg.assoc as usize;
            if assoc == 1 {
                return;
            }
            let bits = &mut self.plru[si];
            let mut node = 1usize;
            let levels = assoc.trailing_zeros();
            for level in (0..levels).rev() {
                let dir = (way >> level) & 1;
                if dir == 0 {
                    *bits |= 1 << (node - 1);
                } else {
                    *bits &= !(1 << (node - 1));
                }
                node = node * 2 + dir;
            }
        }

        fn plru_victim(&self, si: usize) -> usize {
            let assoc = self.cfg.assoc as usize;
            if assoc == 1 {
                return 0;
            }
            let bits = self.plru[si];
            let levels = assoc.trailing_zeros();
            let mut node = 1usize;
            let mut way = 0usize;
            for _ in 0..levels {
                let dir = ((bits >> (node - 1)) & 1) as usize;
                way = way * 2 + dir;
                node = node * 2 + dir;
            }
            way
        }
    }
}

/// Splitmix-style deterministic stream for the workload driver.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Runs `steps` mixed operations over blocks drawn half from `0..hot` and
/// half from `0..wide` through both models, from stream seed `seed`.
fn drive(cfg: CacheConfig, seed: u64, steps: u64, hot: u64, wide: u64) {
    let replacement = cfg.replacement;
    let mut flat = Cache::with_classification(cfg);
    let mut refc = reference::RefCache::new(cfg);
    let mut s = Stream(seed);

    for step in 0..steps {
        if step % 997 == 0 {
            assert_eq!(flat.check_invariants(), Ok(()), "{cfg:?} step {step}");
        }
        let r = s.next();
        let block = if r & 1 == 0 { r % hot } else { (r >> 8) % wide };
        match r % 100 {
            0..=84 => {
                let write = r & 4 != 0;
                let got = flat.access(block, write);
                let want = refc.access(block, write);
                match (got, want) {
                    (Lookup::Hit, None) => {}
                    (Lookup::Miss(a), Some(b)) => {
                        assert_eq!(a, b, "{replacement:?} step {step}: class mismatch");
                        let ev_flat = flat.fill(block, write).map(|e| (e.block, e.dirty));
                        let ev_ref = refc.fill(block, write);
                        assert_eq!(ev_flat, ev_ref, "{replacement:?} step {step}: eviction");
                    }
                    (a, b) => panic!("{replacement:?} step {step}: {a:?} vs {b:?}"),
                }
            }
            85..=91 => {
                let ev_flat = flat.fill(block, r & 8 != 0).map(|e| (e.block, e.dirty));
                let ev_ref = refc.fill(block, r & 8 != 0);
                assert_eq!(ev_flat, ev_ref, "{replacement:?} step {step}: bare fill");
            }
            92..=95 => {
                assert_eq!(
                    flat.invalidate(block),
                    refc.invalidate(block),
                    "{replacement:?} step {step}: invalidate"
                );
            }
            96..=97 => {
                assert_eq!(
                    flat.victim_for(block).map(|e| (e.block, e.dirty)),
                    refc.victim_for(block),
                    "{replacement:?} step {step}: victim preview"
                );
            }
            _ => {
                assert_eq!(
                    flat.probe(block),
                    refc.probe(block),
                    "{replacement:?} step {step}: probe"
                );
            }
        }
    }

    let st = flat.stats();
    assert_eq!(
        (st.accesses, st.hits, st.misses),
        (refc.accesses, refc.hits, refc.misses),
        "{replacement:?}: aggregate counts"
    );
    assert_eq!(
        (st.compulsory, st.capacity, st.conflict),
        (refc.compulsory, refc.capacity, refc.conflict),
        "{replacement:?}: three-C classification"
    );
    assert_eq!(st.writebacks, refc.writebacks, "{replacement:?}: writebacks");
    assert_eq!(flat.resident(), refc.resident(), "{replacement:?}: resident lines");
    assert_eq!(flat.check_invariants(), Ok(()), "{cfg:?}: final state");
    assert!(st.misses > 0 && st.hits > 0, "{replacement:?}: workload must mix hits and misses");
    assert!(
        st.compulsory > 0 && st.capacity > 0 && st.conflict > 0,
        "{cfg:?}: workload must exercise all three miss classes"
    );
}

/// 4KiB, 4-way, 32B blocks: 32 sets, 128 lines. The block universe is 4x
/// the cache capacity with a strided hot region, so all three miss classes
/// occur under every policy.
fn drive_128_lines(replacement: Replacement) {
    let cfg = CacheConfig { size: 4096, assoc: 4, block_size: 32, replacement };
    drive(cfg, 0xDEAD_BEEF ^ replacement as u64, 100_000, 96, 512);
}

/// Every geometry of 1 to 8 lines (direct-mapped, fully associative, and
/// 2-way where it divides), 40k operations each over a universe about
/// three times the capacity.
fn drive_tiny(replacement: Replacement) {
    for lines in 1..=8u64 {
        for assoc in [1, 2, lines] {
            if lines % assoc != 0 || (replacement == Replacement::Plru && !assoc.is_power_of_two())
            {
                continue;
            }
            let cfg =
                CacheConfig { size: lines * 32, assoc: assoc as u32, block_size: 32, replacement };
            let seed = 0xDEAD_BEEF ^ replacement as u64 ^ lines << 8 ^ assoc << 16;
            drive(cfg, seed, 40_000, lines + 1, 3 * lines + 2);
        }
    }
}

#[test]
fn lru_matches_reference() {
    drive_128_lines(Replacement::Lru);
}

#[test]
fn fifo_matches_reference() {
    drive_128_lines(Replacement::Fifo);
}

#[test]
fn random_matches_reference() {
    drive_128_lines(Replacement::Random);
}

#[test]
fn plru_matches_reference() {
    drive_128_lines(Replacement::Plru);
}

#[test]
fn tiny_lru_caches_match_reference() {
    drive_tiny(Replacement::Lru);
}

#[test]
fn tiny_fifo_caches_match_reference() {
    drive_tiny(Replacement::Fifo);
}

#[test]
fn tiny_random_caches_match_reference() {
    drive_tiny(Replacement::Random);
}

#[test]
fn tiny_plru_caches_match_reference() {
    drive_tiny(Replacement::Plru);
}
