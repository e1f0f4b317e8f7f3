//! The counter subsystem: split-counter store + sectored counter cache +
//! BMT, composed behind one interface used by every engine.

use crate::bmt::{Bmt, Walk};
use crate::config::SecureMemConfig;
use crate::counter_store::{CounterStore, IncrementOutcome};
use crate::layout::Layout;
use gpu_sim::cache::SectoredCache;
use gpu_sim::{DramReq, SectorAddr, TrafficClass, Violation, SECTOR_SIZE};

/// Everything an engine needs from one counter operation.
#[derive(Debug, Clone, Default)]
pub struct CounterAccess {
    /// The sector's (post-increment, for writes) tweak counter value.
    pub value: u64,
    /// Whether the counter sector was already cached.
    pub hit: bool,
    /// Critical-path reads: counter fetch followed by BMT verification
    /// nodes, sequential.
    pub chain: Vec<DramReq>,
    /// Non-critical reads (lazy-update RMW fetches).
    pub async_reads: Vec<DramReq>,
    /// Metadata writebacks (evicted dirty counter sectors / tree nodes).
    pub writes: Vec<DramReq>,
    /// Counter-integrity violation, if verification failed.
    pub violation: Option<Violation>,
    /// On a split-counter group overflow: the *previous* counter value of
    /// each sector in the group, which the engine must use to re-encrypt.
    pub overflow_old_values: Option<Vec<u64>>,
}

impl CounterAccess {
    fn absorb(&mut self, walk: Walk) {
        self.chain.extend(walk.chain);
        self.async_reads.extend(walk.async_reads);
        self.writes.extend(walk.writes);
        if self.violation.is_none() {
            self.violation = walk.violation;
        }
    }
}

/// Counter cache + store + integrity tree.
#[derive(Debug, Clone)]
pub struct CounterSystem {
    layout: Layout,
    store: CounterStore,
    cache: SectoredCache,
    bmt: Bmt,
    hits: u64,
    misses: u64,
}

impl CounterSystem {
    /// Builds the subsystem from the configuration.
    pub fn new(cfg: &SecureMemConfig) -> Self {
        let layout = Layout::new(cfg);
        Self {
            bmt: Bmt::new(cfg, layout.clone()),
            cache: SectoredCache::new(
                cfg.meta_cache_bytes,
                cfg.meta_cache_ways,
                cfg.ctr_cache_line(),
                false,
            ),
            store: CounterStore::with_org(cfg.counter_org),
            layout,
            hits: 0,
            misses: 0,
        }
    }

    /// The metadata layout in use.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Current counter value without generating any traffic (for install
    /// and for schemes that keep the counter on-chip).
    pub fn peek_value(&self, sector: SectorAddr) -> u64 {
        self.store.value(sector)
    }

    /// Ensures `sector`'s counter is on-chip and verified; returns its
    /// value plus the timing plan.
    pub fn read(&mut self, sector: SectorAddr) -> CounterAccess {
        let mut out = CounterAccess::default();
        self.ensure_present(sector, &mut out);
        out.value = self.store.value(sector);
        out
    }

    /// Increments `sector`'s counter for a write (fetching and verifying it
    /// first if absent), propagating group overflow.
    pub fn increment(&mut self, sector: SectorAddr) -> CounterAccess {
        let mut out = CounterAccess::default();
        self.ensure_present(sector, &mut out);
        // Mark the counter sector dirty (lazy BMT update happens when it is
        // evicted).
        self.cache
            .access(self.layout.ctr_sector_addr(sector), true, None);
        let outcome = self.store.increment(sector);
        let leaf = self.layout.leaf_of(self.layout.ctr_fetch_addr(sector));
        let new_hash = self.bmt.recompute_leaf(leaf, &self.store);
        self.bmt.set_leaf(leaf, new_hash);
        match outcome {
            IncrementOutcome::Normal { new_value } => out.value = new_value,
            IncrementOutcome::GroupOverflow {
                new_value,
                old_values,
            } => {
                out.value = new_value;
                out.overflow_old_values = Some(old_values);
            }
        }
        out
    }

    /// Raises `sector`'s counter to exactly `value` (compact-counter
    /// propagation), fetching and verifying the counter sector first if
    /// absent. `value` must fit the minor range and not decrease the
    /// counter.
    ///
    /// # Panics
    ///
    /// Panics if the propagation would move the counter backwards.
    pub fn raise_to(&mut self, sector: SectorAddr, value: u8) -> CounterAccess {
        let mut out = CounterAccess::default();
        self.ensure_present(sector, &mut out);
        self.cache
            .access(self.layout.ctr_sector_addr(sector), true, None);
        self.store.set_minor(sector, value);
        let leaf = self.layout.leaf_of(self.layout.ctr_fetch_addr(sector));
        let new_hash = self.bmt.recompute_leaf(leaf, &self.store);
        self.bmt.set_leaf(leaf, new_hash);
        out.value = self.store.value(sector);
        out
    }

    fn ensure_present(&mut self, sector: SectorAddr, out: &mut CounterAccess) {
        let ctr_sec = self.layout.ctr_sector_addr(sector);
        if self.cache.probe(ctr_sec) {
            self.cache.access(ctr_sec, false, None);
            self.hits += 1;
            out.hit = true;
            return;
        }
        self.misses += 1;
        let fetch_addr = self.layout.ctr_fetch_addr(sector);
        let fetch_bytes = self.layout.ctr_fetch_bytes();
        out.chain.push(DramReq::new(
            fetch_addr,
            fetch_bytes as u32,
            TrafficClass::Counter,
        ));
        // Install every 32 B piece of the fetch unit, writing back any
        // dirty counter sectors displaced and lazily propagating their
        // leaf updates into the tree.
        for p in 0..fetch_bytes / SECTOR_SIZE {
            let outcome = self.cache.access(fetch_addr + p * SECTOR_SIZE, false, None);
            for ev in outcome.evicted {
                out.writes.push(DramReq::new(
                    ev.addr,
                    SECTOR_SIZE as u32,
                    TrafficClass::Counter,
                ));
                let ev_leaf = self.layout.leaf_of(ev.addr);
                let walk = self.bmt.touch_leaf_parent(ev_leaf);
                out.absorb(walk);
            }
        }
        let leaf = self.layout.leaf_of(fetch_addr);
        let walk = self.bmt.verify(leaf, &self.store, sector);
        out.absorb(walk);
    }

    /// Crash-recovery hook: overwrite `sector`'s counter with a
    /// MAC-verified value and rebuild the covering BMT leaf so subsequent
    /// verifications pass. Generates no DRAM traffic — recovery cost is
    /// accounted by the recovery harness, not the timing model.
    pub fn restore_value(&mut self, sector: SectorAddr, value: u64) {
        self.store.restore(sector, value);
        let leaf = self.layout.leaf_of(self.layout.ctr_fetch_addr(sector));
        let new_hash = self.bmt.recompute_leaf(leaf, &self.store);
        self.bmt.set_leaf(leaf, new_hash);
    }

    /// Lowest counter value a crash-recovery probe for `sector` must
    /// consider (see [`CounterStore::recovery_floor`]).
    pub fn recovery_floor(&self, sector: SectorAddr) -> u64 {
        self.store.recovery_floor(sector)
    }

    /// Attack hook: tamper with the stored minor counter of `sector`.
    /// Returns `false` when `value` equals the current counter (a
    /// rollback to the present value changes nothing).
    pub fn tamper_minor(&mut self, sector: SectorAddr, value: u8) -> bool {
        let before = self.store.value(sector);
        self.store.tamper_minor(sector, value);
        self.store.value(sector) != before
    }

    /// Attack hook: corrupts the stored BMT leaf covering `sector`'s
    /// counter fetch unit. Detected on the next counter-cache miss that
    /// re-verifies the leaf.
    pub fn tamper_bmt(&mut self, sector: SectorAddr) {
        let leaf = self.layout.leaf_of(self.layout.ctr_fetch_addr(sector));
        self.bmt.tamper_leaf(leaf);
    }

    /// `(counter-cache hits, misses, bmt node fetches, bmt node hits)`.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        let (f, h) = self.bmt.stats();
        (self.hits, self.misses, f, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> CounterSystem {
        CounterSystem::new(&SecureMemConfig::test_small())
    }

    fn sector(i: u64) -> SectorAddr {
        SectorAddr::new(i * 32)
    }

    #[test]
    fn first_read_misses_and_fetches_chain() {
        let mut s = sys();
        let a = s.read(sector(0));
        assert!(!a.hit);
        assert_eq!(a.value, 0);
        // Counter fetch + one BMT level (test_small has 2 levels, root
        // on-chip).
        assert_eq!(a.chain.len(), 2);
        assert_eq!(a.chain[0].class, TrafficClass::Counter);
        assert_eq!(a.chain[1].class, TrafficClass::BmtNode);
        assert!(a.violation.is_none());
    }

    #[test]
    fn second_read_hits() {
        let mut s = sys();
        s.read(sector(0));
        let a = s.read(sector(0));
        assert!(a.hit);
        assert!(a.chain.is_empty());
    }

    #[test]
    fn same_fetch_unit_hits_across_sectors() {
        let mut s = sys();
        s.read(sector(0));
        // Sector 31 shares the counter sector (group 0) with sector 0.
        let a = s.read(sector(31));
        assert!(a.hit);
        // Group 1 (sector 32) shares the 128 B fetch unit → also cached.
        let b = s.read(sector(32));
        assert!(b.hit, "128B fetch unit spans 4 groups");
        // Group 4 (sector 128) is a different fetch unit.
        let c = s.read(sector(128));
        assert!(!c.hit);
    }

    #[test]
    fn increment_then_read_verifies() {
        let mut s = sys();
        let w = s.increment(sector(5));
        assert_eq!(w.value, 1);
        assert!(w.violation.is_none());
        let r = s.read(sector(5));
        assert_eq!(r.value, 1);
        assert!(r.violation.is_none());
    }

    #[test]
    fn eviction_then_reload_still_verifies() {
        // Cycle enough distinct counter fetch units through the 2 KiB cache
        // to evict the dirty one, then reload and verify it.
        let mut s = sys();
        s.increment(sector(5));
        // 2 KiB / 128 B lines = 16 lines; touch 64 distinct units: each
        // unit covers 4 KiB of data → stride data sectors by 128.
        let mut wrote_back = false;
        for i in 1..64 {
            let a = s.read(sector(i * 128));
            wrote_back |= a.writes.iter().any(|w| w.class == TrafficClass::Counter);
        }
        assert!(
            wrote_back,
            "dirty counter sector must be written back on eviction"
        );
        let r = s.read(sector(5));
        assert!(!r.hit);
        assert_eq!(r.value, 1);
        assert!(
            r.violation.is_none(),
            "reloaded counter must verify against the tree"
        );
    }

    #[test]
    fn rollback_attack_detected() {
        let mut s = sys();
        s.increment(sector(9));
        s.increment(sector(9));
        // Evict so the next access re-verifies.
        for i in 1..64 {
            s.read(sector(i * 128));
        }
        s.tamper_minor(sector(9), 1); // roll back 2 → 1
        let r = s.read(sector(9));
        assert!(matches!(r.violation, Some(Violation::TreeMismatch { .. })));
    }

    #[test]
    fn group_overflow_surfaces_old_values() {
        let mut s = sys();
        for _ in 0..127 {
            s.increment(sector(0));
        }
        let last = s.increment(sector(0));
        let old = last
            .overflow_old_values
            .expect("128th write overflows the 7-bit minor");
        assert_eq!(old.len(), 32);
        assert_eq!(old[0], 127);
        assert_eq!(last.value, 128);
        // Neighbors now share the new major.
        assert_eq!(s.peek_value(sector(1)), 128);
    }

    #[test]
    fn fine_grain_fetch_only_loads_one_group() {
        let cfg = SecureMemConfig {
            ctr_fetch_bytes: 32,
            bmt_node_bytes: 32,
            ..SecureMemConfig::test_small()
        };
        let mut s = CounterSystem::new(&cfg);
        let a = s.read(sector(0));
        assert_eq!(a.chain[0].bytes, 32, "fine-grain design fetches 32B");
        // Next group is *not* resident now.
        let b = s.read(sector(32));
        assert!(!b.hit);
    }

    #[test]
    fn restore_value_rebuilds_leaf_so_reload_verifies() {
        let mut s = sys();
        s.increment(sector(9));
        // Simulate a crash-reverted counter: roll it forward via restore.
        s.restore_value(sector(9), 5);
        assert_eq!(s.peek_value(sector(9)), 5);
        // Evict so the next access re-verifies against the rebuilt leaf.
        for i in 1..64 {
            s.read(sector(i * 128));
        }
        let r = s.read(sector(9));
        assert_eq!(r.value, 5);
        assert!(
            r.violation.is_none(),
            "restored counter must verify against the rebuilt tree"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut s = sys();
        s.read(sector(0));
        s.read(sector(0));
        let (hits, misses, fetches, _) = s.stats();
        assert_eq!((hits, misses), (1, 1));
        assert!(fetches >= 1);
    }
}
