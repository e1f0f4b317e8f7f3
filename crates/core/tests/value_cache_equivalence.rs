//! The indexed [`ValueCache`] against a linear-scan reference: a list of
//! pinned and a list of transient entries, scanned on every operation,
//! with the eviction and crash-graft rules the cache documents. Seeded
//! probe / insert / `is_pinned` / graft sequences over small value pools
//! force tied ticks, promotions and eviction churn; after every
//! operation both caches must agree on the probe result, `stats()`,
//! `occupancy()` and `pinned_keys()`.

use plutus_core::value_cache::ProbeResult;
use plutus_core::{ValueCache, ValueCacheConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u32,
    uses: u8,
    last_used: u64,
}

/// The value cache as a pair of linearly scanned lists.
struct LinearValueCache {
    cfg: ValueCacheConfig,
    pinned: Vec<Entry>,
    transient: Vec<Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    promotions: u64,
}

impl LinearValueCache {
    fn new(cfg: ValueCacheConfig) -> Self {
        Self {
            cfg,
            pinned: Vec::new(),
            transient: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            promotions: 0,
        }
    }

    fn key_of(&self, value: u32) -> u32 {
        value >> self.cfg.masked_bits
    }

    fn probe(&mut self, value: u32) -> ProbeResult {
        self.tick += 1;
        let key = self.key_of(value);
        if let Some(e) = self.pinned.iter_mut().find(|e| e.key == key) {
            e.last_used = self.tick;
            self.hits += 1;
            return ProbeResult::HitPinned;
        }
        if let Some(pos) = self.transient.iter().position(|e| e.key == key) {
            self.transient[pos].last_used = self.tick;
            self.transient[pos].uses = (self.transient[pos].uses + 1).min(15);
            self.hits += 1;
            if self.transient[pos].uses >= self.cfg.promote_threshold
                && self.pinned.len() < self.cfg.pinned_capacity()
            {
                let e = self.transient.swap_remove(pos);
                self.pinned.push(e);
                self.promotions += 1;
                return ProbeResult::HitPinned;
            }
            return ProbeResult::HitTransient;
        }
        self.misses += 1;
        ProbeResult::Miss
    }

    /// Evicts the first least recently used transient entry.
    fn evict_lru(&mut self) {
        if let Some(pos) = self
            .transient
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
        {
            self.transient.swap_remove(pos);
        }
    }

    fn insert(&mut self, value: u32) {
        let key = self.key_of(value);
        if let Some(e) = self.pinned.iter_mut().find(|e| e.key == key) {
            e.last_used = self.tick;
            return;
        }
        if let Some(e) = self.transient.iter_mut().find(|e| e.key == key) {
            e.last_used = self.tick;
            return;
        }
        self.tick += 1;
        if self.transient.len() >= self.cfg.entries - self.pinned.len() {
            self.evict_lru();
        }
        self.transient.push(Entry {
            key,
            uses: 1,
            last_used: self.tick,
        });
    }

    fn is_pinned(&self, value: u32) -> bool {
        let key = self.key_of(value);
        self.pinned.iter().any(|e| e.key == key)
    }

    fn pinned_keys(&self) -> Vec<u32> {
        self.pinned.iter().map(|e| e.key).collect()
    }

    fn graft_pinned(&mut self, keys: &[u32]) {
        for &key in keys {
            if self.pinned.iter().any(|e| e.key == key) {
                continue;
            }
            if self.pinned.len() >= self.cfg.pinned_capacity() {
                break;
            }
            if let Some(pos) = self.transient.iter().position(|e| e.key == key) {
                self.transient.swap_remove(pos);
            }
            self.tick += 1;
            self.pinned.push(Entry {
                key,
                uses: self.cfg.promote_threshold,
                last_used: self.tick,
            });
        }
        while self.pinned.len() + self.transient.len() > self.cfg.entries {
            self.evict_lru();
        }
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.pinned.len(), self.transient.len())
    }

    fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.promotions)
    }
}

fn assert_same(indexed: &ValueCache, linear: &LinearValueCache, step: usize) {
    assert_eq!(indexed.stats(), linear.stats(), "stats at step {step}");
    assert_eq!(
        indexed.occupancy(),
        linear.occupancy(),
        "occupancy at step {step}"
    );
    assert_eq!(
        indexed.pinned_keys(),
        linear.pinned_keys(),
        "pinned keys at step {step}"
    );
}

#[test]
fn indexed_value_cache_matches_linear_reference() {
    let sizes = (2..=16).chain([256]);
    for entries in sizes {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed * 1000 + entries as u64);
            let cfg = ValueCacheConfig {
                entries,
                pinned_fraction: [0.0, 0.25, 0.5, 0.75][rng.gen_range(0..4)],
                promote_threshold: rng.gen_range(1u8..=15),
                ..Default::default()
            };
            // A pool barely larger than the cache keeps values returning:
            // refreshes tie ticks, hits promote, misses evict.
            let pool: Vec<u32> = (0..entries + rng.gen_range(1..entries + 2))
                .map(|_| rng.gen::<u32>() >> cfg.masked_bits)
                .collect();
            let mut indexed = ValueCache::new(cfg);
            let mut linear = LinearValueCache::new(cfg);
            let steps = if entries == 256 { 20_000 } else { 1_500 };
            for step in 0..steps {
                let key = pool[rng.gen_range(0..pool.len())];
                let value = (key << cfg.masked_bits) | rng.gen_range(0u32..1 << cfg.masked_bits);
                match rng.gen_range(0u32..100) {
                    0..=39 => assert_eq!(indexed.probe(value), linear.probe(value), "step {step}"),
                    40..=79 => {
                        indexed.insert(value);
                        linear.insert(value);
                    }
                    80..=89 => assert_eq!(indexed.is_pinned(value), linear.is_pinned(value)),
                    90..=97 => {
                        // The engine's usual read sequence: probe, insert on a miss.
                        let hit = indexed.probe(value);
                        assert_eq!(hit, linear.probe(value), "step {step}");
                        if !hit.is_hit() {
                            indexed.insert(value);
                            linear.insert(value);
                        }
                    }
                    _ => {
                        let keys: Vec<u32> = (0..rng.gen_range(1..5))
                            .map(|_| pool[rng.gen_range(0..pool.len())])
                            .collect();
                        indexed.graft_pinned(&keys);
                        linear.graft_pinned(&keys);
                    }
                }
                assert_same(&indexed, &linear, step);
            }
        }
    }
}
