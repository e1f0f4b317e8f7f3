//! The MAC subsystem: per-sector tags + sectored MAC cache.
//!
//! Reads fetch the MAC's fetch unit on a miss (32 B under the PSSM sectored
//! design — the case the paper highlights as the sectored cache's win).
//! Writes allocate without fetching (the whole tag is overwritten), which is
//! the other half of that win.

use crate::config::SecureMemConfig;
use crate::layout::Layout;
use crate::mac_store::MacStore;
use gpu_sim::cache::SectoredCache;
use gpu_sim::{DramReq, SectorAddr, TrafficClass, SECTOR_SIZE};

/// Timing products of one MAC-cache operation.
#[derive(Debug, Clone, Default)]
pub struct MacAccess {
    /// Whether the tag's cache sector was present.
    pub hit: bool,
    /// Critical-path fetch of the MAC unit (empty on hits).
    pub chain: Vec<DramReq>,
    /// Dirty MAC sectors written back on eviction.
    pub writes: Vec<DramReq>,
}

/// MAC store + cache + layout.
#[derive(Debug, Clone)]
pub struct MacSystem {
    layout: Layout,
    store: MacStore,
    cache: SectoredCache,
    hits: u64,
    misses: u64,
}

impl MacSystem {
    /// Builds the subsystem from the configuration. Under tenancy, the
    /// store switches to per-tenant MAC keys (generation-stable, so tags
    /// survive key rotation).
    pub fn new(cfg: &SecureMemConfig) -> Self {
        let mut store = MacStore::new(cfg.mac_key, cfg.mac_bytes.min(8));
        if let Some(t) = &cfg.tenancy {
            store.set_tenant_keys(t.map.clone(), t.master_seed);
        }
        Self {
            layout: Layout::new(cfg),
            store,
            cache: SectoredCache::new(
                cfg.meta_cache_bytes,
                cfg.meta_cache_ways,
                cfg.mac_cache_line(),
                false,
            ),
            hits: 0,
            misses: 0,
        }
    }

    fn mac_piece(&self, sector: SectorAddr) -> u64 {
        let a = self.layout.mac_addr(sector);
        a - a % SECTOR_SIZE
    }

    /// Brings `sector`'s MAC on-chip for verification.
    pub fn read(&mut self, sector: SectorAddr) -> MacAccess {
        let mut out = MacAccess::default();
        let piece = self.mac_piece(sector);
        if self.cache.probe(piece) {
            self.cache.access(piece, false, None);
            self.hits += 1;
            out.hit = true;
            return out;
        }
        self.misses += 1;
        let fetch_addr = self.layout.mac_fetch_addr(sector);
        let fetch_bytes = self.layout.mac_fetch_bytes();
        out.chain.push(DramReq::new(
            fetch_addr,
            fetch_bytes as u32,
            TrafficClass::Mac,
        ));
        for p in 0..fetch_bytes / SECTOR_SIZE {
            let outcome = self.cache.access(fetch_addr + p * SECTOR_SIZE, false, None);
            for ev in outcome.evicted {
                out.writes
                    .push(DramReq::new(ev.addr, SECTOR_SIZE as u32, TrafficClass::Mac));
            }
        }
        out
    }

    /// Records a fresh tag for a written sector (write-allocate, no fetch).
    pub fn write(&mut self, sector: SectorAddr, plaintext: &[u8; 32], counter: u64) -> MacAccess {
        self.store.update(sector, plaintext, counter);
        let mut out = MacAccess::default();
        let piece = self.mac_piece(sector);
        out.hit = self.cache.probe(piece);
        if out.hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        let outcome = self.cache.access(piece, true, None);
        for ev in outcome.evicted {
            out.writes
                .push(DramReq::new(ev.addr, SECTOR_SIZE as u32, TrafficClass::Mac));
        }
        out
    }

    /// Functionally verifies `plaintext` against the stored tag.
    pub fn verify(&self, sector: SectorAddr, plaintext: &[u8; 32], counter: u64) -> bool {
        self.store.verify(sector, plaintext, counter)
    }

    /// Functionally verifies many `(plaintext, counter)` candidates as one
    /// batched CMAC pass, preserving input order — the recovery-probe and
    /// group-verification entry point.
    pub fn verify_many(&self, plaintexts: &[[u8; 32]], at: &[(SectorAddr, u64)]) -> Vec<bool> {
        self.store.verify_many(plaintexts, at)
    }

    /// Updates the stored tag without touching the cache (used during
    /// install and overflow re-encryption bookkeeping by engines that also
    /// account the traffic separately).
    pub fn update_silently(&mut self, sector: SectorAddr, plaintext: &[u8; 32], counter: u64) {
        self.store.update(sector, plaintext, counter);
    }

    /// Batch form of [`MacSystem::update_silently`]: one CMAC pass over
    /// the whole group (group re-encryption, rotation walks).
    pub fn update_silently_many(&mut self, plaintexts: &[[u8; 32]], at: &[(SectorAddr, u64)]) {
        self.store.update_many(plaintexts, at);
    }

    /// Attack hook: tamper with the stored tag of `sector`.
    pub fn tamper(&mut self, sector: SectorAddr) {
        self.store.tamper(sector);
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MacSystem {
        MacSystem::new(&SecureMemConfig::test_small())
    }

    fn sector(i: u64) -> SectorAddr {
        SectorAddr::new(i * 32)
    }

    #[test]
    fn read_miss_fetches_32_bytes() {
        let mut m = sys();
        let a = m.read(sector(0));
        assert!(!a.hit);
        assert_eq!(a.chain.len(), 1);
        assert_eq!(a.chain[0].bytes, 32);
        assert_eq!(a.chain[0].class, TrafficClass::Mac);
    }

    #[test]
    fn macs_for_adjacent_sectors_share_a_unit() {
        let mut m = sys();
        m.read(sector(0));
        // 8 B MACs: sectors 0..4 share one 32 B MAC unit.
        assert!(m.read(sector(3)).hit);
        assert!(!m.read(sector(4)).hit);
    }

    #[test]
    fn write_allocates_without_fetch() {
        let mut m = sys();
        let a = m.write(sector(0), &[1; 32], 1);
        assert!(a.chain.is_empty(), "MAC writes must not fetch");
        // Subsequent read of the same unit hits.
        assert!(m.read(sector(0)).hit);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        // 2 KiB cache, 128 B lines, 4-way → 4 sets; each MAC unit of 32 B,
        // 4 units per line; one line covers 16 data sectors.
        let mut m = sys();
        m.write(sector(0), &[1; 32], 1);
        let mut writes = 0;
        // Touch many distinct MAC lines: line covers 16 sectors → stride 16
        // sectors; 4 sets × 4 ways = 16 lines; 64 lines cycles the cache.
        for i in 1..64 {
            writes += m.read(sector(i * 16)).writes.len();
        }
        assert!(writes > 0, "dirty MAC sector must be written back");
    }

    #[test]
    fn verify_roundtrip_and_tamper() {
        let mut m = sys();
        m.write(sector(7), &[9; 32], 2);
        assert!(m.verify(sector(7), &[9; 32], 2));
        m.tamper(sector(7));
        assert!(!m.verify(sector(7), &[9; 32], 2));
    }

    #[test]
    fn coarse_fetch_configuration_fetches_128() {
        let cfg = SecureMemConfig {
            mac_fetch_bytes: 128,
            ..SecureMemConfig::test_small()
        };
        let mut m = MacSystem::new(&cfg);
        let a = m.read(sector(0));
        assert_eq!(a.chain[0].bytes, 128);
        // The whole 128 B unit (16 sectors' MACs) is now resident.
        assert!(m.read(sector(15)).hit);
    }
}
