//! Sectored set-associative cache with optional data storage.
//!
//! Used for the L2 data slices (which hold real bytes so dirty evictions
//! carry their payload back through the security engine) and for the
//! security-metadata caches (tags only — metadata *values* live in the
//! engine's functional tables; only hit/miss behavior and eviction traffic
//! matter).
//!
//! Lines are `line_size` bytes split into `line_size / sector_size` sectors
//! with independent valid and dirty bits, modeling Volta's sectored caches
//! and the PSSM sectored metadata caches. Setting `line_size == sector_size`
//! yields the plain (non-sectored) 32-byte-block caches of Plutus's
//! fine-grain metadata designs.

use crate::address::SECTOR_SIZE;

/// Maximum sectors per line supported (128 B line / 32 B sector).
const MAX_SECTORS: usize = 4;

/// A dirty sector pushed out of the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedSector {
    /// Address of the evicted sector.
    pub addr: u64,
    /// The sector's bytes, if this cache stores data.
    pub data: Option<[u8; 32]>,
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    valid_mask: u8,
    dirty_mask: u8,
    lru: u64,
    data: Option<Box<[[u8; 32]; MAX_SECTORS]>>,
}

impl Line {
    fn empty() -> Self {
        Self {
            tag: u64::MAX,
            valid_mask: 0,
            dirty_mask: 0,
            lru: 0,
            data: None,
        }
    }
}

/// Outcome of a lookup-with-allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The requested sector was already valid.
    pub hit: bool,
    /// Dirty sectors displaced by the allocation (empty on hits).
    pub evicted: Vec<EvictedSector>,
}

/// A sectored, set-associative, write-back cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    sets: usize,
    ways: usize,
    line_size: u64,
    sectors_per_line: usize,
    store_data: bool,
    lines: Vec<Line>,
    lru_tick: u64,
    hits: u64,
    misses: u64,
}

impl SectoredCache {
    /// Builds a cache of `capacity_bytes` with `ways` associativity and
    /// `line_size`-byte lines (a multiple of 32, at most 128).
    ///
    /// `store_data` selects whether sector payloads are kept (L2) or only
    /// tags (metadata caches).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not a multiple of
    /// `ways × line_size`, or unsupported line size).
    pub fn new(capacity_bytes: u64, ways: usize, line_size: u64, store_data: bool) -> Self {
        assert!(
            line_size.is_multiple_of(SECTOR_SIZE) && (SECTOR_SIZE..=128).contains(&line_size),
            "line_size must be 32, 64, 96 or 128 bytes, got {line_size}"
        );
        assert!(ways > 0, "ways must be positive");
        let lines_total = capacity_bytes / line_size;
        assert!(
            lines_total >= ways as u64 && lines_total.is_multiple_of(ways as u64),
            "capacity {capacity_bytes} must hold a whole number of {ways}-way sets of {line_size}B lines"
        );
        let sets = (lines_total / ways as u64) as usize;
        Self {
            sets,
            ways,
            line_size,
            sectors_per_line: (line_size / SECTOR_SIZE) as usize,
            store_data,
            lines: vec![Line::empty(); (lines_total) as usize],
            lru_tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line_size) % self.sets as u64) as usize
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.line_size / self.sets as u64
    }

    fn sector_of(&self, addr: u64) -> usize {
        ((addr % self.line_size) / SECTOR_SIZE) as usize
    }

    fn line_base(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets as u64 + set as u64) * self.line_size
    }

    fn set_lines(&mut self, set: usize) -> &mut [Line] {
        &mut self.lines[set * self.ways..(set + 1) * self.ways]
    }

    /// True if the sector is currently valid (no state change, no LRU touch).
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let sector = self.sector_of(addr);
        self.lines[set * self.ways..(set + 1) * self.ways]
            .iter()
            .any(|l| l.tag == tag && l.valid_mask & (1 << sector) != 0)
    }

    /// Looks up `addr`, allocating the line and marking the sector valid on
    /// a miss. Returns whether it hit and any dirty sectors evicted.
    ///
    /// `write` marks the sector dirty; `data` (for data-storing caches)
    /// installs the sector payload.
    pub fn access(&mut self, addr: u64, write: bool, data: Option<[u8; 32]>) -> AccessOutcome {
        self.lru_tick += 1;
        let tick = self.lru_tick;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let sector = self.sector_of(addr);
        let store_data = self.store_data;
        let ways = self.ways;

        // Existing line?
        let lines = self.set_lines(set);
        if let Some(way) = lines.iter().position(|l| l.tag == tag && l.valid_mask != 0) {
            let line = &mut lines[way];
            line.lru = tick;
            let was_valid = line.valid_mask & (1 << sector) != 0;
            line.valid_mask |= 1 << sector;
            if write {
                line.dirty_mask |= 1 << sector;
            }
            if store_data {
                if let Some(d) = data {
                    line.data
                        .get_or_insert_with(|| Box::new([[0; 32]; MAX_SECTORS]))[sector] = d;
                }
            }
            if was_valid {
                self.hits += 1;
                return AccessOutcome {
                    hit: true,
                    evicted: Vec::new(),
                };
            }
            // Sector miss within a present line: no eviction needed.
            self.misses += 1;
            return AccessOutcome {
                hit: false,
                evicted: Vec::new(),
            };
        }

        // Allocate: pick invalid way or LRU victim.
        self.misses += 1;
        let lines = self.set_lines(set);
        let victim_way = lines
            .iter()
            .position(|l| l.valid_mask == 0)
            .unwrap_or_else(|| {
                (0..ways)
                    .min_by_key(|&w| lines[w].lru)
                    .expect("cache set has at least one way")
            });

        // Collect dirty evictions from the victim.
        let victim_tag = lines[victim_way].tag;
        let mut evicted = Vec::new();
        if lines[victim_way].valid_mask != 0 {
            let base = self.line_base(set, victim_tag);
            let sectors_per_line = self.sectors_per_line;
            let line = &self.lines[set * ways + victim_way];
            for s in 0..sectors_per_line {
                if line.dirty_mask & (1 << s) != 0 {
                    let payload = line.data.as_ref().map(|d| d[s]);
                    evicted.push(EvictedSector {
                        addr: base + s as u64 * SECTOR_SIZE,
                        data: payload,
                    });
                }
            }
        }

        let line = &mut self.set_lines(set)[victim_way];
        line.tag = tag;
        line.valid_mask = 1 << sector;
        line.dirty_mask = if write { 1 << sector } else { 0 };
        line.lru = tick;
        line.data = None;
        if store_data {
            if let Some(d) = data {
                line.data
                    .get_or_insert_with(|| Box::new([[0; 32]; MAX_SECTORS]))[sector] = d;
            }
        }
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Installs sector data without changing hit statistics (used when a
    /// fill completes). No-op if the line was since evicted or the sector
    /// was overwritten by a newer store (dirty).
    pub fn fill_data(&mut self, addr: u64, data: [u8; 32]) {
        if !self.store_data {
            return;
        }
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let sector = self.sector_of(addr);
        let lines = self.set_lines(set);
        if let Some(line) = lines.iter_mut().find(|l| l.tag == tag && l.valid_mask != 0) {
            if line.dirty_mask & (1 << sector) == 0 {
                line.data
                    .get_or_insert_with(|| Box::new([[0; 32]; MAX_SECTORS]))[sector] = data;
            }
        }
    }

    /// Reads a valid sector's stored payload, if present.
    pub fn peek_data(&self, addr: u64) -> Option<[u8; 32]> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let sector = self.sector_of(addr);
        self.lines[set * self.ways..(set + 1) * self.ways]
            .iter()
            .find(|l| l.tag == tag && l.valid_mask & (1 << sector) != 0)
            .and_then(|l| l.data.as_ref().map(|d| d[sector]))
    }

    /// Drains every dirty sector (end-of-kernel flush), clearing dirty bits.
    pub fn flush_dirty(&mut self) -> Vec<EvictedSector> {
        let mut out = Vec::new();
        for set in 0..self.sets {
            for way in 0..self.ways {
                let idx = set * self.ways + way;
                let (tag, dirty_mask) = (self.lines[idx].tag, self.lines[idx].dirty_mask);
                if self.lines[idx].valid_mask == 0 || dirty_mask == 0 {
                    continue;
                }
                let base = self.line_base(set, tag);
                for s in 0..self.sectors_per_line {
                    if dirty_mask & (1 << s) != 0 {
                        let payload = self.lines[idx].data.as_ref().map(|d| d[s]);
                        out.push(EvictedSector {
                            addr: base + s as u64 * SECTOR_SIZE,
                            data: payload,
                        });
                    }
                }
                self.lines[idx].dirty_mask = 0;
            }
        }
        out
    }

    /// (hits, misses) so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SectoredCache {
        // 4 sets × 2 ways × 128 B = 1 KiB.
        SectoredCache::new(1024, 2, 128, true)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let o = c.access(0x40, false, Some([1; 32]));
        assert!(!o.hit);
        let o = c.access(0x40, false, None);
        assert!(o.hit);
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn sector_miss_in_present_line() {
        let mut c = small();
        c.access(0x00, false, None);
        // Different sector, same 128B line: miss but no eviction.
        let o = c.access(0x20, false, None);
        assert!(!o.hit);
        assert!(o.evicted.is_empty());
        // Both sectors now valid.
        assert!(c.probe(0x00));
        assert!(c.probe(0x20));
    }

    #[test]
    fn dirty_eviction_carries_data() {
        let mut c = small();
        // Set count = 1024/128/2 = 4 sets. Addresses with the same
        // (addr/128)%4 map to the same set: 0x000, 0x200, 0x400 (set 0).
        c.access(0x000, true, Some([0xaa; 32]));
        c.access(0x200, false, None);
        let o = c.access(0x400, false, None); // evicts LRU = 0x000 line
        assert_eq!(o.evicted.len(), 1);
        assert_eq!(o.evicted[0].addr, 0x000);
        assert_eq!(o.evicted[0].data, Some([0xaa; 32]));
    }

    #[test]
    fn lru_order_respected() {
        let mut c = small();
        c.access(0x000, false, None);
        c.access(0x200, false, None);
        c.access(0x000, false, None); // touch 0x000 so 0x200 is LRU
        c.access(0x400, false, None); // should evict 0x200
        assert!(c.probe(0x000));
        assert!(!c.probe(0x200));
        assert!(c.probe(0x400));
    }

    #[test]
    fn fill_data_respects_newer_store() {
        let mut c = small();
        c.access(0x40, false, None); // read miss, no data yet
        c.access(0x40, true, Some([2; 32])); // store overwrites while "pending"
        c.fill_data(0x40, [1; 32]); // stale fill must not clobber
        assert_eq!(c.peek_data(0x40), Some([2; 32]));
    }

    #[test]
    fn fill_data_installs_on_clean_sector() {
        let mut c = small();
        c.access(0x40, false, None);
        c.fill_data(0x40, [3; 32]);
        assert_eq!(c.peek_data(0x40), Some([3; 32]));
    }

    #[test]
    fn flush_collects_all_dirty_sectors() {
        let mut c = small();
        c.access(0x00, true, Some([1; 32]));
        c.access(0x20, true, Some([2; 32]));
        c.access(0x80, false, None);
        let mut flushed = c.flush_dirty();
        flushed.sort_by_key(|e| e.addr);
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].addr, 0x00);
        assert_eq!(flushed[1].addr, 0x20);
        // Second flush is empty.
        assert!(c.flush_dirty().is_empty());
    }

    #[test]
    fn tagless_cache_tracks_hits_without_data() {
        let mut c = SectoredCache::new(2048, 4, 128, false);
        assert!(!c.access(0x100, false, None).hit);
        assert!(c.access(0x100, false, None).hit);
        assert_eq!(c.peek_data(0x100), None);
    }

    #[test]
    fn thirty_two_byte_line_mode() {
        // Plutus fine-grain metadata cache: line == sector == 32 B.
        let mut c = SectoredCache::new(256, 2, 32, false);
        assert!(!c.access(0x00, false, None).hit);
        // Adjacent 32B address is a *different* line now.
        assert!(!c.access(0x20, false, None).hit);
        assert!(c.access(0x00, false, None).hit);
    }

    #[test]
    #[should_panic(expected = "line_size")]
    fn rejects_bad_line_size() {
        SectoredCache::new(1024, 2, 48, false);
    }

    #[test]
    fn line_addresses_reconstructed_correctly() {
        // Eviction addresses must be the original addresses.
        let mut c = SectoredCache::new(1024, 1, 128, true); // 8 sets direct-mapped
        let addr = 8 * 128 * 5 + 0x60; // set 5... tag 5? compute: line 45 → set 45%8=5, tag 5
        c.access(addr, true, Some([9; 32]));
        // Conflict: same set, different tag.
        let conflict = addr + 8 * 128;
        let o = c.access(conflict, false, None);
        assert_eq!(o.evicted.len(), 1);
        assert_eq!(
            o.evicted[0].addr,
            addr & !(31),
            "evicted addr must match original"
        );
    }
}
