//! The Plutus value cache: recently seen 32-bit values used to verify
//! integrity without MAC fetches (paper Section IV-C).
//!
//! A small, fully associative structure per memory partition. Values match
//! on their upper 28 bits (the 4 least-significant bits are masked to
//! capture nearby values). Entries carry a 4-bit use counter; entries whose
//! counter reaches the promotion threshold move to a *pinned* region
//! (default: a quarter of the capacity) and are never evicted afterwards —
//! pinned hits are what let a *write* guarantee it will pass value
//! verification on its next read, so its MAC update can be skipped
//! entirely.
//!
//! The modeled structure is a 256-entry fully associative cache with LRU
//! replacement. On the host, a key→slot index makes `probe`, `is_pinned`
//! and an `insert` of a cached value O(1); an `insert` that must evict
//! still scans the transient entries for the victim. The victim is the
//! first least-recently-used transient entry in list order: an insert of
//! a present value refreshes it with the current tick, so ties are common
//! and list order decides them.

use gpu_sim::FastHashMap;

/// Value-cache configuration (paper Table II: 1 kB, fully associative,
/// 25% pinned, 256 entries of 28-bit value + 4-bit counter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueCacheConfig {
    /// Total entries (pinned + transient).
    pub entries: usize,
    /// Fraction of entries reserved for pinned values.
    pub pinned_fraction: f64,
    /// Use-counter value at which a transient entry is promoted.
    pub promote_threshold: u8,
    /// Low bits of each 32-bit value masked before matching.
    pub masked_bits: u32,
}

impl Default for ValueCacheConfig {
    fn default() -> Self {
        Self {
            entries: 256,
            pinned_fraction: 0.25,
            promote_threshold: 8,
            masked_bits: 4,
        }
    }
}

impl ValueCacheConfig {
    /// Effective matched bits per 32-bit value.
    pub fn effective_bits(&self) -> u32 {
        32 - self.masked_bits
    }

    /// Pinned-region capacity in entries: `entries × pinned_fraction`
    /// rounded half-up, clamped to `[0, entries]`. Truncation instead
    /// of rounding would under-provision the pinned region — down to
    /// zero on small caches, where a fraction like 0.25 of 2 entries
    /// must still pin one — silently disabling the skip-MAC write path.
    pub fn pinned_capacity(&self) -> usize {
        let exact = self.entries as f64 * self.pinned_fraction;
        (((exact + 0.5).floor()) as usize).min(self.entries)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.entries == 0 {
            return Err("value cache must have entries".into());
        }
        if !(0.0..1.0).contains(&self.pinned_fraction) {
            return Err("pinned_fraction must be in [0, 1)".into());
        }
        if self.masked_bits >= 32 {
            return Err("masked_bits must be < 32".into());
        }
        if self.promote_threshold == 0 || self.promote_threshold > 15 {
            return Err("promote_threshold must fit the 4-bit use counter (1..=15)".into());
        }
        Ok(())
    }
}

/// A transient entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u32,
    uses: u8,
    last_used: u64,
}

/// Where a cached key lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Pinned,
    /// Position in the transient list.
    Transient(usize),
}

/// How a probe resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// Matched a pinned entry.
    HitPinned,
    /// Matched a transient entry.
    HitTransient,
    /// No match.
    Miss,
}

impl ProbeResult {
    /// Any kind of hit.
    pub fn is_hit(self) -> bool {
        !matches!(self, ProbeResult::Miss)
    }
}

/// The fully associative value cache.
#[derive(Debug, Clone)]
pub struct ValueCache {
    cfg: ValueCacheConfig,
    /// Pinned keys in pinning order.
    pinned: Vec<u32>,
    /// Transient entries in list order.
    transient: Vec<Entry>,
    /// Slot of every cached key.
    index: FastHashMap<u32, Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
    promotions: u64,
}

impl ValueCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(cfg: ValueCacheConfig) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid ValueCacheConfig: {e}"));
        Self {
            cfg,
            pinned: Vec::with_capacity(cfg.pinned_capacity()),
            transient: Vec::new(),
            index: FastHashMap::default(),
            tick: 0,
            hits: 0,
            misses: 0,
            promotions: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ValueCacheConfig {
        &self.cfg
    }

    fn key_of(&self, value: u32) -> u32 {
        value >> self.cfg.masked_bits
    }

    /// Removes the transient entry at `pos` by swapping the last entry
    /// into its place, keeping the index in step.
    fn remove_transient(&mut self, pos: usize) {
        let removed = self.transient.swap_remove(pos);
        self.index.remove(&removed.key);
        if let Some(moved) = self.transient.get(pos) {
            self.index.insert(moved.key, Slot::Transient(pos));
        }
    }

    /// Probes for `value` without inserting, updating recency and use
    /// counters on a hit.
    pub fn probe(&mut self, value: u32) -> ProbeResult {
        self.tick += 1;
        let key = self.key_of(value);
        let pos = match self.index.get(&key) {
            Some(Slot::Pinned) => {
                self.hits += 1;
                return ProbeResult::HitPinned;
            }
            Some(&Slot::Transient(pos)) => pos,
            None => {
                self.misses += 1;
                return ProbeResult::Miss;
            }
        };
        let e = &mut self.transient[pos];
        e.last_used = self.tick;
        e.uses = (e.uses + 1).min(15);
        self.hits += 1;
        if e.uses >= self.cfg.promote_threshold && self.pinned.len() < self.cfg.pinned_capacity() {
            self.remove_transient(pos);
            self.pin(key);
            self.promotions += 1;
            return ProbeResult::HitPinned;
        }
        ProbeResult::HitTransient
    }

    fn pin(&mut self, key: u32) {
        self.pinned.push(key);
        self.index.insert(key, Slot::Pinned);
    }

    /// Inserts `value` if absent (recently seen). Present values only have
    /// their recency refreshed: the use counter that drives promotion is
    /// advanced by *probe hits* alone, so that the counted uses, the hits
    /// reported by [`ValueCache::stats`], and the pinning decision all
    /// measure the same thing. (The usual probe-miss-then-insert sequence
    /// also advances the recency clock exactly once, in the probe.)
    pub fn insert(&mut self, value: u32) {
        let key = self.key_of(value);
        match self.index.get(&key) {
            Some(Slot::Pinned) => return,
            Some(&Slot::Transient(pos)) => {
                self.transient[pos].last_used = self.tick;
                return;
            }
            None => {}
        }
        self.tick += 1;
        let capacity = self.cfg.entries - self.pinned.len();
        if self.transient.len() >= capacity {
            self.evict_lru();
        }
        self.index
            .insert(key, Slot::Transient(self.transient.len()));
        self.transient.push(Entry {
            key,
            uses: 1,
            last_used: self.tick,
        });
    }

    /// Evicts the first least recently used transient entry, if any.
    fn evict_lru(&mut self) {
        // `min_by_key` keeps the first of equal minima.
        let victim = self
            .transient
            .iter()
            .enumerate()
            .min_by_key(|&(_, e)| e.last_used);
        if let Some((pos, _)) = victim {
            self.remove_transient(pos);
        }
    }

    /// True if `value` currently matches a pinned entry (no state change).
    pub fn is_pinned(&self, value: u32) -> bool {
        self.index.get(&self.key_of(value)) == Some(&Slot::Pinned)
    }

    /// Raw keys (already shifted by `masked_bits`) of every pinned entry.
    /// The pinned set is the only value-cache state that must survive a
    /// crash: skip-MAC writes rely on it, so it is modeled as flushed to
    /// persistent storage on each promotion (tens of bytes, append-only).
    pub fn pinned_keys(&self) -> Vec<u32> {
        self.pinned.clone()
    }

    /// Crash-recovery hook: re-pins raw `keys` previously captured with
    /// [`ValueCache::pinned_keys`], up to the pinned capacity; keys already
    /// pinned are skipped. A grafted key leaves the transient list, and
    /// least recently used transient entries are then evicted until the
    /// cache fits its capacity again.
    pub fn graft_pinned(&mut self, keys: &[u32]) {
        for &key in keys {
            let slot = self.index.get(&key).copied();
            if slot == Some(Slot::Pinned) {
                continue;
            }
            if self.pinned.len() >= self.cfg.pinned_capacity() {
                break;
            }
            if let Some(Slot::Transient(pos)) = slot {
                self.remove_transient(pos);
            }
            self.tick += 1;
            self.pin(key);
        }
        while self.pinned.len() + self.transient.len() > self.cfg.entries {
            self.evict_lru();
        }
    }

    /// Occupancy `(pinned, transient)`.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.pinned.len(), self.transient.len())
    }

    /// Lifetime statistics `(hits, misses, promotions)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.promotions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> ValueCache {
        ValueCache::new(ValueCacheConfig::default())
    }

    #[test]
    fn pinned_capacity_rounds_half_up() {
        let cap = |entries, pinned_fraction| {
            ValueCacheConfig {
                entries,
                pinned_fraction,
                ..Default::default()
            }
            .pinned_capacity()
        };
        // The paper configuration is exact and must not drift.
        assert_eq!(cap(256, 0.25), 64);
        // Regression: truncation pinned 2 of 15 at fraction 0.2.
        assert_eq!(cap(15, 0.2), 3);
        // Fractions that land just below an integer round up…
        assert_eq!(cap(29, 0.1), 3, "2.9 rounds to 3, not truncates to 2");
        assert_eq!(cap(7, 0.5), 4, "3.5 rounds half-up");
        // …and small caches never round their pinned region to zero
        // for a meaningful fraction.
        assert_eq!(cap(2, 0.25), 1);
        assert_eq!(cap(3, 0.25), 1);
        // Boundary fractions stay within [0, entries].
        assert_eq!(cap(16, 0.0), 0);
        assert_eq!(cap(2, 0.99), 2, "clamped to the cache size");
        assert_eq!(cap(1, 0.4), 0, "0.4 still rounds down");
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut c = cache();
        assert_eq!(c.probe(0x1234_5670), ProbeResult::Miss);
        c.insert(0x1234_5670);
        assert!(c.probe(0x1234_5670).is_hit());
    }

    #[test]
    fn masked_bits_capture_nearby_values() {
        let mut c = cache();
        c.insert(0x1234_5670);
        // Same upper 28 bits, different low nibble → hit.
        assert!(c.probe(0x1234_567f).is_hit());
        // Different upper bits → miss.
        assert_eq!(c.probe(0x1234_5680), ProbeResult::Miss);
    }

    #[test]
    fn promotion_after_threshold_hits() {
        let mut c = cache();
        c.insert(42 << 4);
        for _ in 0..ValueCacheConfig::default().promote_threshold {
            c.probe(42 << 4);
        }
        assert!(c.is_pinned(42 << 4));
        let (_, _, promotions) = c.stats();
        assert_eq!(promotions, 1);
    }

    #[test]
    fn pinned_entries_survive_capacity_churn() {
        let mut c = cache();
        c.insert(7 << 4);
        for _ in 0..15 {
            c.probe(7 << 4); // promote
        }
        assert!(c.is_pinned(7 << 4));
        // Flood with 10× capacity of distinct values.
        for i in 0..2560u32 {
            c.insert((1000 + i) << 4);
        }
        assert!(c.is_pinned(7 << 4), "pinned values must never be evicted");
        assert!(c.probe(7 << 4).is_hit());
    }

    #[test]
    fn transient_lru_eviction() {
        let cfg = ValueCacheConfig {
            entries: 4,
            pinned_fraction: 0.25,
            ..Default::default()
        };
        let mut c = ValueCache::new(cfg);
        // Transient capacity = 4 (pinned region empty so far).
        for i in 0..4u32 {
            c.insert(i << 4);
        }
        c.probe(0); // refresh value 0
        c.insert(100 << 4); // evicts LRU = value 1
        assert!(c.probe(0).is_hit());
        assert_eq!(c.probe(1 << 4), ProbeResult::Miss);
    }

    #[test]
    fn pinned_region_bounded() {
        let cfg = ValueCacheConfig {
            entries: 8,
            pinned_fraction: 0.25,
            promote_threshold: 1,
            ..Default::default()
        };
        let mut c = ValueCache::new(cfg);
        // Try to promote many values; only 2 slots exist.
        for i in 0..8u32 {
            c.insert(i << 4);
            c.probe(i << 4);
            c.probe(i << 4);
        }
        let (pinned, _) = c.occupancy();
        assert!(pinned <= 2, "pinned occupancy {pinned} exceeds capacity");
    }

    #[test]
    fn total_occupancy_never_exceeds_entries() {
        let mut c = cache();
        for i in 0..10_000u32 {
            c.insert(i);
            if i % 3 == 0 {
                c.probe(i);
            }
            let (p, t) = c.occupancy();
            assert!(p + t <= 256);
        }
    }

    #[test]
    fn insert_is_idempotent_for_present_values() {
        let mut c = cache();
        c.insert(5 << 4);
        c.insert(5 << 4);
        let (_, t) = c.occupancy();
        assert_eq!(t, 1);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = cache();
        c.probe(1 << 4);
        c.insert(1 << 4);
        c.probe(1 << 4);
        let (h, m, _) = c.stats();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    #[should_panic(expected = "invalid ValueCacheConfig")]
    fn invalid_config_rejected() {
        ValueCache::new(ValueCacheConfig {
            entries: 0,
            ..Default::default()
        });
    }

    #[test]
    fn pinned_keys_roundtrip_through_graft() {
        let mut c = cache();
        c.insert(7 << 4);
        for _ in 0..15 {
            c.probe(7 << 4); // promote
        }
        let keys = c.pinned_keys();
        assert_eq!(keys, vec![7]);
        // Graft into a fresh cache: the value is pinned without any probes.
        let mut fresh = cache();
        fresh.graft_pinned(&keys);
        assert!(fresh.is_pinned(7 << 4));
        // Grafting again does not duplicate.
        fresh.graft_pinned(&keys);
        assert_eq!(fresh.pinned_keys(), vec![7]);
    }

    /// Regression: re-inserting a present value used to bump its use
    /// counter, so repeated *writes* of a value could pin it without a
    /// single probe hit — promotion must be earned by probe hits alone.
    #[test]
    fn insert_refreshes_do_not_count_toward_promotion() {
        let cfg = ValueCacheConfig {
            promote_threshold: 3,
            ..Default::default()
        };
        let mut c = ValueCache::new(cfg);
        for _ in 0..20 {
            c.insert(9 << 4);
        }
        assert!(!c.is_pinned(9 << 4), "inserts alone must never pin");
        // One probe hit is still below the threshold of 3.
        assert!(c.probe(9 << 4).is_hit());
        assert!(!c.is_pinned(9 << 4));
        let (h, _, _) = c.stats();
        assert_eq!(h, 1, "only the probe counts as a hit");
    }

    /// An insert refresh must still update recency, or hot written values
    /// would be evicted as stale.
    #[test]
    fn insert_refresh_updates_recency() {
        let cfg = ValueCacheConfig {
            entries: 4,
            pinned_fraction: 0.25,
            ..Default::default()
        };
        let mut c = ValueCache::new(cfg);
        for i in 0..4u32 {
            c.insert(i << 4);
        }
        c.insert(0); // refresh value 0 (oldest) via insert, not probe
        c.insert(100 << 4); // evicts LRU, which must now be value 1
        assert!(c.probe(0).is_hit(), "refreshed entry was evicted");
        assert_eq!(c.probe(1 << 4), ProbeResult::Miss);
    }
}
