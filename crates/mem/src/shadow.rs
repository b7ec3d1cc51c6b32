//! The fully-associative LRU shadow behind three-C miss classification.

use crate::table::PagedTable;

/// First-touch flag of a table entry: set by the block's first miss.
const SEEN: u32 = 1 << 31;
/// Stamp bits of a table entry.
const STAMP: u32 = SEEN - 1;
/// The first stamp issued. A fresh entry's stamp, 0, is below every tail,
/// so a block never touched is never resident.
const FIRST: u32 = 1;

/// A fully-associative LRU set of `cap` blocks kept as a *stamp ring*, plus
/// every block's first-touch bit.
///
/// Each touch appends the block to the ring under the next sequence stamp,
/// records that stamp in the block's table entry, and marks the block's
/// previous slot dead, so the stamps from `tail` to `head` list the blocks
/// in LRU-to-MRU order. Stamps only grow, and a block's recorded stamp is
/// its latest, so a block is resident exactly when that stamp is at least
/// `tail`. Evicting the LRU block advances `tail` past dead slots to the
/// oldest live one. When the window spans the whole ring, the live slots
/// are compacted: re-appended in order above `head`, which leaves the order
/// and every answer unchanged. Before stamps outgrow the table entry, the
/// table's stamps are cleared and the live blocks rebased to [`FIRST`].
///
/// A touch costs one table lookup, and a repeat touch of the MRU block none.
#[derive(Debug, Clone)]
pub(crate) struct StampLru {
    /// Per block: [`SEEN`] plus the stamp of the block's latest touch, in
    /// 16 KiB pages.
    table: PagedTable<u32, 4096>,
    /// Slot `stamp & mask` holds the block touched at `stamp`.
    ring: Box<[u64]>,
    /// One bit per slot, set while the slot holds a resident block's latest
    /// touch.
    live: Box<[u64]>,
    mask: u32,
    /// Oldest stamp of the window.
    tail: u32,
    /// Stamp of the next touch.
    head: u32,
    /// Resident blocks (live slots).
    len: u32,
    cap: u32,
}

impl StampLru {
    /// An empty shadow of `cap` blocks.
    pub fn new(cap: usize) -> Self {
        Self::starting_at(cap, FIRST)
    }

    /// Ring slots for `cap` blocks: twice the capacity at least, so that a
    /// compaction, which moves at most `cap` blocks, comes at most once
    /// every `cap` touches.
    fn slots(cap: usize) -> usize {
        assert!((1..=1 << 26).contains(&cap), "shadow capacity out of range");
        (2 * cap).next_power_of_two()
    }

    /// An empty shadow whose first touch gets stamp `start` (tests start
    /// near [`STAMP`] to reach the rebase).
    fn starting_at(cap: usize, start: u32) -> Self {
        let slots = Self::slots(cap);
        assert!((FIRST..STAMP).contains(&start), "stamps must fit the table");
        StampLru {
            table: PagedTable::default(),
            ring: vec![0; slots].into_boxed_slice(),
            live: vec![0; slots.div_ceil(64)].into_boxed_slice(),
            mask: slots as u32 - 1,
            tail: start,
            head: start,
            len: 0,
            cap: cap as u32,
        }
    }

    #[inline]
    fn slot(&self, stamp: u32) -> usize {
        (stamp & self.mask) as usize
    }

    #[inline]
    fn is_live(&self, stamp: u32) -> bool {
        let slot = self.slot(stamp);
        self.live[slot >> 6] >> (slot & 63) & 1 == 1
    }

    #[inline]
    fn set_live(&mut self, stamp: u32, live: bool) {
        let slot = self.slot(stamp);
        let bit = 1 << (slot & 63);
        if live {
            self.live[slot >> 6] |= bit;
        } else {
            self.live[slot >> 6] &= !bit;
        }
    }

    /// Records a hit on `block`: it becomes MRU, and is inserted (evicting
    /// the LRU block when full) if the shadow did not hold it.
    #[inline]
    pub fn hit(&mut self, block: u64) {
        // Repeating the MRU block changes no order. The newest slot of a
        // non-empty window is always live.
        if self.head != self.tail && self.ring[self.slot(self.head - 1)] == block {
            return;
        }
        self.touch(block, false);
    }

    /// Records a miss on `block` like [`StampLru::hit`], setting its
    /// first-touch bit. Returns whether this was the block's first miss and
    /// whether the shadow held the block.
    #[inline]
    pub fn miss(&mut self, block: u64) -> (bool, bool) {
        self.touch(block, true)
    }

    fn touch(&mut self, block: u64, miss: bool) -> (bool, bool) {
        if self.head - self.tail > self.mask || self.head >= STAMP {
            // Both re-append the live blocks. A compaction stacks them above
            // `head`, so near the stamp limit the stamps restart instead.
            if self.head + self.len >= STAMP {
                self.rebase();
            } else {
                self.compact();
            }
        }
        let (tail, head) = (self.tail, self.head);
        let entry = self.table.entry(block);
        let first = miss && *entry & SEEN == 0;
        let stamp = *entry & STAMP;
        *entry = (*entry | if miss { SEEN } else { 0 }) & SEEN | head;
        let resident = stamp >= tail;
        if resident {
            self.set_live(stamp, false);
        } else if self.len == self.cap {
            self.evict_lru();
        } else {
            self.len += 1;
        }
        let slot = self.slot(head);
        self.ring[slot] = block;
        self.set_live(head, true);
        self.head = head + 1;
        (first, resident)
    }

    /// Drops the LRU block: the oldest live slot.
    fn evict_lru(&mut self) {
        while !self.is_live(self.tail) {
            self.tail += 1;
        }
        self.set_live(self.tail, false);
        self.tail += 1;
    }

    /// Re-appends the live slots, oldest first, above `head` and starts the
    /// window at the first of them. Each copy lands on a slot whose old
    /// content was already read (or on its own slot), so this runs in place.
    fn compact(&mut self) {
        let (tail, head) = (self.tail, self.head);
        let mut next = head;
        for stamp in tail..head {
            if !self.is_live(stamp) {
                continue;
            }
            let block = self.ring[self.slot(stamp)];
            self.set_live(stamp, false);
            let slot = self.slot(next);
            self.ring[slot] = block;
            self.set_live(next, true);
            let entry = self.table.entry(block);
            *entry = *entry & SEEN | next;
            next += 1;
        }
        self.tail = head;
        self.head = next;
    }

    /// Clears every recorded stamp (first-touch bits stay) and re-appends
    /// the live blocks, oldest first, from [`FIRST`].
    fn rebase(&mut self) {
        let blocks: Vec<u64> = (self.tail..self.head)
            .filter(|&s| self.is_live(s))
            .map(|s| self.ring[self.slot(s)])
            .collect();
        self.table.update_all(|entry| *entry &= SEEN);
        self.live.fill(0);
        for (stamp, &block) in (FIRST..).zip(&blocks) {
            let slot = self.slot(stamp);
            self.ring[slot] = block;
            self.set_live(stamp, true);
            *self.table.entry(block) |= stamp;
        }
        self.tail = FIRST;
        self.head = FIRST + self.len;
    }

    /// Checks the ring against the table: `len` is at most the capacity and
    /// counts the live slots, which all lie in the window, the newest slot
    /// of the window is live, and each live slot's block records that
    /// slot's stamp.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.len > self.cap {
            return Err(format!("shadow holds {} blocks, capacity {}", self.len, self.cap));
        }
        if self.tail < FIRST || self.head - self.tail > self.mask + 1 {
            return Err(format!("shadow window {}..{} is not in the ring", self.tail, self.head));
        }
        let mut live = 0;
        for stamp in self.tail..self.head {
            if !self.is_live(stamp) {
                continue;
            }
            live += 1;
            let block = self.ring[self.slot(stamp)];
            let recorded = self.table.get(block) & STAMP;
            if recorded != stamp {
                return Err(format!("block {block} in slot of stamp {stamp} records {recorded}"));
            }
        }
        let all: u32 = self.live.iter().map(|w| w.count_ones()).sum();
        if live != self.len || all != self.len {
            return Err(format!(
                "shadow len {} but {live} live slots in the window, {all} in the ring",
                self.len
            ));
        }
        if self.head != self.tail && !self.is_live(self.head - 1) {
            return Err("the newest slot of the window is dead".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n) fully-associative LRU (MRU at the back) with first-touch bits.
    struct Naive {
        order: Vec<u64>,
        cap: usize,
        seen: std::collections::HashSet<u64>,
    }

    impl Naive {
        fn touch(&mut self, block: u64, miss: bool) -> (bool, bool) {
            let first = miss && self.seen.insert(block);
            let resident = match self.order.iter().position(|&b| b == block) {
                Some(pos) => {
                    self.order.remove(pos);
                    true
                }
                None => {
                    if self.order.len() == self.cap {
                        self.order.remove(0);
                    }
                    false
                }
            };
            self.order.push(block);
            (first, resident)
        }
    }

    /// Drives `shadow` and the naive model through one stream and requires
    /// identical answers and intact invariants throughout. With
    /// `compact_first`, the ring is compacted before every touch.
    fn agree(mut shadow: StampLru, cap: usize, universe: u64, steps: u64, compact_first: bool) {
        let mut naive = Naive { order: Vec::new(), cap, seen: Default::default() };
        let mut state = 0x5EED ^ universe;
        for step in 0..steps {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = state >> 33;
            let block = if r & 3 == 0 { r % 4 } else { (r >> 2) % universe };
            let miss = r & 4 == 0;
            let want = naive.touch(block, miss);
            if compact_first {
                shadow.compact();
            }
            if miss {
                assert_eq!(shadow.miss(block), want, "step {step}: block {block}");
            } else {
                shadow.hit(block);
            }
            if step % 61 == 0 {
                assert_eq!(shadow.check_invariants(), Ok(()), "step {step}");
            }
        }
        assert_eq!(shadow.len as usize, naive.order.len());
    }

    #[test]
    fn matches_naive_lru_across_capacities() {
        for cap in [1, 2, 3, 8, 64, 100] {
            agree(StampLru::new(cap), cap, 3 * cap as u64 + 2, 20_000, false);
        }
    }

    #[test]
    fn compacting_before_every_touch_changes_no_result() {
        for cap in [1, 5, 64] {
            agree(StampLru::new(cap), cap, 2 * cap as u64 + 3, 5_000, true);
        }
    }

    #[test]
    fn rebase_near_the_stamp_limit_changes_no_result() {
        // Start a few hundred stamps below the table's limit, so the stamp
        // limit (not a full ring) forces the rebase.
        let start = STAMP - 300;
        let mut shadow = StampLru::starting_at(4096, start);
        for b in 0..200 {
            assert_eq!(shadow.miss(b), (true, false));
        }
        assert_eq!(shadow.tail, start, "no rebase yet");
        for b in 200..400 {
            shadow.miss(b);
        }
        assert!(shadow.head < start, "the stamp limit rebased the ring");
        assert_eq!(shadow.check_invariants(), Ok(()));
        assert_eq!(shadow.miss(0), (false, true), "rebasing keeps every resident block");
        // Long streams across the limit, with a full ring compacting too.
        agree(StampLru::starting_at(4096, start), 4096, 300, 50_000, false);
        agree(StampLru::starting_at(8, STAMP - 1000), 8, 30, 50_000, false);
    }

    #[test]
    fn a_full_ring_at_the_stamp_limit_rebases_instead_of_compacting() {
        // Hits only, so no first-touch bit is set, until the window fills
        // one stamp below the limit. Compacting there would push the next
        // touch's stamp past the 31 stamp bits, into block 3's first-touch
        // bit.
        let mut s = StampLru::starting_at(2, STAMP - 5);
        for b in [1, 2, 1, 2, 3] {
            s.hit(b);
        }
        assert_eq!(s.check_invariants(), Ok(()));
        assert_eq!(s.miss(3), (true, true), "block 3 never missed and is resident");
        assert_eq!(s.miss(2), (true, true));
        assert_eq!(s.miss(1), (true, false), "block 3 evicted block 1");
    }

    #[test]
    fn first_touch_is_set_by_misses_only() {
        let mut s = StampLru::new(4);
        s.hit(7);
        assert_eq!(s.miss(7), (true, true), "a hit does not count as the first miss");
        assert_eq!(s.miss(7), (false, true));
    }
}
