//! Compact mirrored counters (paper Section IV-D, Fig. 13).
//!
//! A second, much denser layer of per-sector write counters sits in front
//! of the original split counters: 2-bit (4× compaction) or 3-bit (2×
//! compaction) counters, protected by their own small BMT. While a sector's
//! compact counter is below its saturation value, *it is* the encryption
//! counter — the original counter (and the big BMT) are never touched. On
//! the saturating write the compact value is propagated to the original
//! split counter and the sector permanently falls back to the original
//! path.
//!
//! The **adaptive** variant additionally tracks, per compact-counter block,
//! how many of its 64 counters have saturated; at a threshold (8 — half of
//! the ≈25% of counters prior work observed are ever written) an on-chip
//! enable bit disables the whole block: every unsaturated compact value is
//! copied to the original counters (no re-encryption needed — the values
//! are preserved) and subsequent accesses skip the compact layer entirely,
//! avoiding the double-lookup penalty of write-heavy data.
//!
//! The compact values live in a [`BlockMap`], one record per 128 B data
//! block, so a 3-bit block's leaf is read from 16 records. The leaf hash
//! input (block id, then one byte per sector) is assembled in a stack
//! buffer. A block
//! with no recorded leaf hash is checked against the hash of all-zero
//! values; when its live values are all zero the two inputs are the same
//! bytes, so the check passes without computing either CMAC.

use gpu_sim::cache::SectoredCache;
use gpu_sim::{
    DramReq, FastHashMap, FastHashSet, SectorAddr, TrafficClass, Violation, SECTORS_PER_BLOCK,
    SECTOR_SIZE,
};
use plutus_crypto::Cmac;
use secure_mem::BlockMap;

/// Which compact-counter design is active (the paper's three options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactKind {
    /// 2-bit counters: 4× compaction, saturates on the third write.
    TwoBit,
    /// 3-bit counters: 2× compaction, saturates on the seventh write.
    ThreeBit,
    /// 3-bit counters with per-block adaptive disable (Plutus's choice).
    Adaptive3,
}

impl CompactKind {
    /// Saturation marker value (all-ones for the width).
    pub fn saturation(self) -> u8 {
        match self {
            CompactKind::TwoBit => 3,
            CompactKind::ThreeBit | CompactKind::Adaptive3 => 7,
        }
    }

    /// Data sectors covered by one 32 B compact-counter sector.
    pub fn sectors_per_block(self) -> u64 {
        match self {
            CompactKind::TwoBit => 128,
            CompactKind::ThreeBit | CompactKind::Adaptive3 => 64,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CompactKind::TwoBit => "2bit",
            CompactKind::ThreeBit => "3bit",
            CompactKind::Adaptive3 => "adaptive3",
        }
    }
}

/// Configuration of the compact layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactConfig {
    /// Counter design.
    pub kind: CompactKind,
    /// Saturated counters per block before the adaptive variant disables
    /// the block (paper: 8).
    pub disable_threshold: u8,
    /// Compact metadata cache capacity (paper: 2 KiB per partition).
    pub cache_bytes: u64,
    /// Compact metadata cache associativity.
    pub cache_ways: usize,
}

impl Default for CompactConfig {
    fn default() -> Self {
        Self {
            kind: CompactKind::Adaptive3,
            disable_threshold: 8,
            cache_bytes: 2048,
            cache_ways: 4,
        }
    }
}

/// What the compact layer resolved for one access.
#[derive(Debug, Clone, Default)]
pub struct CompactAccess {
    /// `Some(v)` — the compact layer holds the live counter `v`.
    /// `None` — saturated or disabled: the caller must use the original
    /// split-counter path.
    pub counter: Option<u64>,
    /// On the *saturating* write: the value that must be propagated into
    /// the original counter before encrypting with it.
    pub propagate: Option<u8>,
    /// On an adaptive block-disable: `(sector, value)` pairs to copy into
    /// the original counters.
    pub block_disable: Option<Vec<(SectorAddr, u8)>>,
    /// Critical-path reads (compact counter fetch + compact BMT walk).
    pub chain: Vec<DramReq>,
    /// Dirty compact metadata written back on eviction.
    pub writes: Vec<DramReq>,
    /// Compact-tree verification failure.
    pub violation: Option<Violation>,
    /// Whether the compact sector was already cached (or the block was
    /// disabled, costing nothing).
    pub hit: bool,
}

/// Region base for compact metadata (clear of data + original metadata).
const COMPACT_BASE: u64 = 1 << 45;

/// Largest leaf-hash input: the block id plus one byte per sector of a
/// 2-bit block.
const MAX_LEAF_BYTES: usize = 8 + 128;

/// The compact mirrored-counter subsystem (one per partition).
#[derive(Debug, Clone)]
pub struct CompactCounters {
    cfg: CompactConfig,
    values: BlockMap<u8>,
    saturated_in_block: FastHashMap<u64, u8>,
    disabled_blocks: FastHashSet<u64>,
    cache: SectoredCache,
    tree_cache: SectoredCache,
    leaf_hashes: FastHashMap<u64, u64>,
    cmac: Cmac,
    /// `(base, count)` per tree level, level 1 first; 4-ary 32 B nodes.
    levels: Vec<(u64, u64)>,
    partitions: u64,
    /// Fig. 20 mode: no tree traffic (functional checks remain).
    tree_disabled: bool,
    hits: u64,
    misses: u64,
    saturations: u64,
    disables: u64,
    tree_fetches: u64,
}

const TREE_ARITY: u64 = 4;
const NODE_BYTES: u64 = 32;

impl CompactCounters {
    /// Builds the compact layer for a `protected_bytes` region shared by
    /// `partitions` memory partitions, keyed for its small BMT. As with
    /// the main BMT, each partition keeps its own small tree over its
    /// local share of the compact-counter blocks.
    pub fn new(
        cfg: CompactConfig,
        protected_bytes: u64,
        partitions: usize,
        tree_key: [u8; 16],
    ) -> Self {
        Self::with_tree_disabled(cfg, protected_bytes, partitions, tree_key, false)
    }

    /// Like [`CompactCounters::new`], optionally eliminating all
    /// compact-tree traffic (the paper's Fig. 20 mode; functional
    /// verification still runs).
    pub fn with_tree_disabled(
        cfg: CompactConfig,
        protected_bytes: u64,
        partitions: usize,
        tree_key: [u8; 16],
        tree_disabled: bool,
    ) -> Self {
        let data_sectors = protected_bytes / SECTOR_SIZE;
        let blocks = data_sectors.div_ceil(cfg.kind.sectors_per_block());
        let region_bytes = blocks * SECTOR_SIZE;
        let local_blocks = blocks.div_ceil(partitions.max(1) as u64);

        let mut levels = Vec::new();
        let mut base = COMPACT_BASE + region_bytes;
        let mut count = local_blocks.div_ceil(TREE_ARITY);
        loop {
            levels.push((base, count));
            if count <= 1 {
                break;
            }
            base += count * NODE_BYTES;
            count = count.div_ceil(TREE_ARITY);
        }

        Self {
            values: BlockMap::default(),
            saturated_in_block: FastHashMap::default(),
            disabled_blocks: FastHashSet::default(),
            cache: SectoredCache::new(cfg.cache_bytes, cfg.cache_ways, 32, false),
            tree_cache: SectoredCache::new(cfg.cache_bytes, cfg.cache_ways, 32, false),
            leaf_hashes: FastHashMap::default(),
            cmac: Cmac::new(tree_key),
            levels,
            partitions: partitions.max(1) as u64,
            tree_disabled,
            cfg,
            hits: 0,
            misses: 0,
            saturations: 0,
            disables: 0,
            tree_fetches: 0,
        }
    }

    fn block_of(&self, sector: SectorAddr) -> u64 {
        sector.index() / self.cfg.kind.sectors_per_block()
    }

    fn block_addr(&self, block: u64) -> u64 {
        COMPACT_BASE + block * SECTOR_SIZE
    }

    /// `(sector index, value)` of every sector in compact `block`, in
    /// address order.
    fn block_values(&self, block: u64) -> impl Iterator<Item = (u64, u8)> + '_ {
        let per_record = SECTORS_PER_BLOCK as u64;
        let records = self.cfg.kind.sectors_per_block() / per_record;
        let first = block * records;
        (first..first + records).flat_map(move |r| {
            (0..per_record)
                .zip(self.values.record(r))
                .map(move |(slot, v)| (r * per_record + slot, v))
        })
    }

    /// Writes `block`'s leaf-hash input (block id, then one value byte per
    /// sector) into `buf`, returning its length.
    fn leaf_input(&self, block: u64, buf: &mut [u8; MAX_LEAF_BYTES]) -> usize {
        buf[..8].copy_from_slice(&block.to_le_bytes());
        for (b, (_, v)) in buf[8..].iter_mut().zip(self.block_values(block)) {
            *b = v;
        }
        8 + self.cfg.kind.sectors_per_block() as usize
    }

    fn hash(&self, input: &[u8]) -> u64 {
        u64::from_le_bytes(
            self.cmac.mac(input)[..8]
                .try_into()
                .expect("a CMAC tag has 16 bytes"),
        )
    }

    fn leaf_hash(&self, block: u64) -> u64 {
        let mut buf = [0; MAX_LEAF_BYTES];
        let len = self.leaf_input(block, &mut buf);
        self.hash(&buf[..len])
    }

    fn zero_leaf_hash(&self, block: u64) -> u64 {
        let mut buf = [0; MAX_LEAF_BYTES];
        buf[..8].copy_from_slice(&block.to_le_bytes());
        self.hash(&buf[..8 + self.cfg.kind.sectors_per_block() as usize])
    }

    /// True when `block`'s live values hash to its recorded leaf hash, or
    /// to the zero-leaf hash when none is recorded. All-zero live values
    /// are the zero-leaf input itself, so they pass without hashing.
    fn leaf_matches(&self, block: u64) -> bool {
        let mut buf = [0; MAX_LEAF_BYTES];
        let len = self.leaf_input(block, &mut buf);
        match self.leaf_hashes.get(&block) {
            Some(&h) => self.hash(&buf[..len]) == h,
            None => {
                buf[8..len].iter().all(|&b| b == 0)
                    || self.hash(&buf[..len]) == self.zero_leaf_hash(block)
            }
        }
    }

    fn is_root_level(&self, level: u32) -> bool {
        level as usize >= self.levels.len() || self.levels[level as usize - 1].1 <= 1
    }

    fn node_addr(&self, level: u32, idx: u64) -> u64 {
        let (base, count) = self.levels[level as usize - 1];
        debug_assert!(idx < count);
        base + idx * NODE_BYTES
    }

    /// Ensures the compact sector for `sector` is cached and verified.
    fn ensure_present(&mut self, sector: SectorAddr, out: &mut CompactAccess) {
        let block = self.block_of(sector);
        let addr = self.block_addr(block);
        if self.cache.probe(addr) {
            self.cache.access(addr, false, None);
            self.hits += 1;
            out.hit = true;
            return;
        }
        self.misses += 1;
        out.chain.push(DramReq::new(
            addr,
            SECTOR_SIZE as u32,
            TrafficClass::CompactCounter,
        ));
        let outcome = self.cache.access(addr, false, None);
        for ev in outcome.evicted {
            out.writes.push(DramReq::new(
                ev.addr,
                SECTOR_SIZE as u32,
                TrafficClass::CompactCounter,
            ));
            let ev_block = (ev.addr - COMPACT_BASE) / SECTOR_SIZE;
            self.touch_tree_dirty(1, ev_block / self.partitions / TREE_ARITY, out);
        }
        // Verify against the authoritative small tree.
        if !self.leaf_matches(block) && out.violation.is_none() {
            out.violation = Some(Violation::CompactTreeMismatch {
                addr: sector,
                level: 0,
            });
        }
        if self.tree_disabled {
            return;
        }
        // Walk the small tree until a cached node or the root, using the
        // partition-local block numbering for geometry.
        let mut level = 1u32;
        let mut idx = block / self.partitions / TREE_ARITY;
        loop {
            if self.is_root_level(level) {
                break;
            }
            let naddr = self.node_addr(level, idx);
            if self.tree_cache.probe(naddr) {
                self.tree_cache.access(naddr, false, None);
                break;
            }
            self.tree_fetches += 1;
            out.chain.push(
                DramReq::new(naddr, NODE_BYTES as u32, TrafficClass::CompactBmt).at_level(level),
            );
            let outcome = self.tree_cache.access(naddr, false, None);
            for ev in outcome.evicted {
                out.writes.push(DramReq::new(
                    ev.addr,
                    NODE_BYTES as u32,
                    TrafficClass::CompactBmt,
                ));
            }
            level += 1;
            idx /= TREE_ARITY;
        }
    }

    fn touch_tree_dirty(&mut self, level: u32, idx: u64, out: &mut CompactAccess) {
        if self.tree_disabled || self.is_root_level(level) {
            return;
        }
        let addr = self.node_addr(level, idx);
        let outcome = self.tree_cache.access(addr, true, None);
        for ev in outcome.evicted {
            out.writes.push(DramReq::new(
                ev.addr,
                NODE_BYTES as u32,
                TrafficClass::CompactBmt,
            ));
        }
    }

    /// Resolves the counter for a **read** of `sector` (paper Fig. 13 flow:
    /// enable bit → compact value → original on saturation).
    pub fn read(&mut self, sector: SectorAddr) -> CompactAccess {
        let mut out = CompactAccess::default();
        let block = self.block_of(sector);
        // Disabled blocks (adaptive disable or a reliability freeze) are
        // redirected for every kind; only Adaptive3 *creates* disables on
        // its own.
        if self.disabled_blocks.contains(&block) {
            out.hit = true; // enable bits are on-chip: free redirect
            return out; // counter = None → original path
        }
        self.ensure_present(sector, &mut out);
        let v = self.values.get(sector);
        if v < self.cfg.kind.saturation() {
            out.counter = Some(u64::from(v));
        }
        out
    }

    /// Resolves the counter for a **write** of `sector`, advancing the
    /// compact counter and handling saturation/propagation.
    pub fn increment(&mut self, sector: SectorAddr) -> CompactAccess {
        let mut out = CompactAccess::default();
        let block = self.block_of(sector);
        let sat = self.cfg.kind.saturation();
        if self.disabled_blocks.contains(&block) {
            out.hit = true;
            return out; // original path handles the increment
        }
        self.ensure_present(sector, &mut out);
        let v = self.values.get(sector);
        if v >= sat {
            return out; // already saturated: original path
        }
        // Mark dirty in the compact cache (lazy writeback).
        self.cache.access(self.block_addr(block), true, None);
        let new = v + 1;
        *self.values.slot_mut(sector) = new;
        if new < sat {
            out.counter = Some(u64::from(new));
        } else {
            // Saturating write: propagate to the original counters.
            self.saturations += 1;
            out.propagate = Some(sat);
            let count = self.saturated_in_block.entry(block).or_insert(0);
            *count += 1;
            if self.cfg.kind == CompactKind::Adaptive3 && *count >= self.cfg.disable_threshold {
                self.disables += 1;
                self.disabled_blocks.insert(block);
                let copies = self
                    .block_values(block)
                    .filter(|&(idx, v)| v < sat && idx != sector.index())
                    .map(|(idx, v)| (SectorAddr::new(idx * SECTOR_SIZE), v))
                    .collect();
                out.block_disable = Some(copies);
            }
        }
        let h = self.leaf_hash(block);
        self.leaf_hashes.insert(block, h);
        out
    }

    /// True if `sector`'s *live* encryption counter comes from the
    /// original split counters (compact saturated, or block disabled) —
    /// i.e. split-counter maintenance such as group-overflow re-encryption
    /// applies to it. Unsaturated sectors are encrypted under their
    /// compact value and must be left alone.
    pub fn uses_original(&self, sector: SectorAddr) -> bool {
        let block = self.block_of(sector);
        self.disabled_blocks.contains(&block)
            || self.values.get(sector) >= self.cfg.kind.saturation()
    }

    /// The counter design in use.
    pub fn kind(&self) -> CompactKind {
        self.cfg.kind
    }

    /// Block index covering `sector` (degradation bookkeeping).
    pub fn block_index(&self, sector: SectorAddr) -> u64 {
        self.block_of(sector)
    }

    /// True if `sector`'s block is disabled (adaptively or frozen).
    pub fn is_disabled(&self, sector: SectorAddr) -> bool {
        self.disabled_blocks.contains(&self.block_of(sector))
    }

    /// Live compact counter without traffic or cache effects: `Some(v)`
    /// while the compact layer serves `sector`, `None` when saturated or
    /// the block is disabled.
    pub fn peek_live(&self, sector: SectorAddr) -> Option<u64> {
        if self.is_disabled(sector) {
            return None;
        }
        let v = self.values.get(sector);
        (v < self.cfg.kind.saturation()).then_some(u64::from(v))
    }

    /// Reliability freeze: permanently disables `sector`'s block so every
    /// sector in it moves to the original split-counter path, returning the
    /// `(sector, value)` copies the caller must propagate into the original
    /// counters (unwritten and saturated sectors need no copy). Works for
    /// every kind, unlike the adaptive disable which only Adaptive3
    /// triggers on its own.
    pub fn freeze_block(&mut self, sector: SectorAddr) -> Vec<(SectorAddr, u8)> {
        let block = self.block_of(sector);
        if self.disabled_blocks.contains(&block) {
            return Vec::new();
        }
        self.disables += 1;
        self.disabled_blocks.insert(block);
        let sat = self.cfg.kind.saturation();
        self.block_values(block)
            .filter(|&(_, v)| v > 0 && v < sat)
            .map(|(idx, v)| (SectorAddr::new(idx * SECTOR_SIZE), v))
            .collect()
    }

    /// Crash-recovery hook: overwrite `sector`'s compact counter with a
    /// value proven against a persistent MAC, rebuilding the small-tree
    /// leaf so subsequent verifications pass.
    pub fn restore_value(&mut self, sector: SectorAddr, value: u8) {
        let block = self.block_of(sector);
        let sat = self.cfg.kind.saturation();
        let old = self.values.get(sector);
        *self.values.slot_mut(sector) = value;
        if old < sat && value >= sat {
            *self.saturated_in_block.entry(block).or_insert(0) += 1;
        }
        let h = self.leaf_hash(block);
        self.leaf_hashes.insert(block, h);
    }

    /// Attack hook: tamper with a stored compact counter. Returns `false`
    /// when `value` equals the current counter (rolling back to the
    /// present value changes nothing).
    pub fn tamper(&mut self, sector: SectorAddr, value: u8) -> bool {
        if self.values.get(sector) == value {
            return false;
        }
        *self.values.slot_mut(sector) = value;
        true
    }

    /// `(cache hits, cache misses, saturations, adaptive disables, tree
    /// node fetches)`.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.hits,
            self.misses,
            self.saturations,
            self.disables,
            self.tree_fetches,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(kind: CompactKind) -> CompactCounters {
        CompactCounters::new(
            CompactConfig {
                kind,
                ..Default::default()
            },
            1 << 20,
            1,
            [9; 16],
        )
    }

    fn sector(i: u64) -> SectorAddr {
        SectorAddr::new(i * 32)
    }

    #[test]
    fn fresh_sector_reads_counter_zero() {
        let mut c = sys(CompactKind::ThreeBit);
        let a = c.read(sector(0));
        assert_eq!(a.counter, Some(0));
        assert!(!a.hit);
        assert_eq!(a.chain[0].class, TrafficClass::CompactCounter);
        assert!(a.violation.is_none());
    }

    #[test]
    fn second_read_hits_cache() {
        let mut c = sys(CompactKind::ThreeBit);
        c.read(sector(0));
        let a = c.read(sector(0));
        assert!(a.hit);
        assert!(a.chain.is_empty());
    }

    #[test]
    fn increments_stay_compact_until_saturation() {
        let mut c = sys(CompactKind::ThreeBit);
        for expect in 1..7u64 {
            let a = c.increment(sector(0));
            assert_eq!(a.counter, Some(expect));
            assert!(a.propagate.is_none());
        }
        // Seventh write saturates.
        let a = c.increment(sector(0));
        assert_eq!(a.counter, None);
        assert_eq!(a.propagate, Some(7));
        // Reads now defer to the original path.
        let r = c.read(sector(0));
        assert_eq!(r.counter, None);
    }

    #[test]
    fn two_bit_saturates_on_third_write() {
        let mut c = sys(CompactKind::TwoBit);
        assert_eq!(c.increment(sector(0)).counter, Some(1));
        assert_eq!(c.increment(sector(0)).counter, Some(2));
        let third = c.increment(sector(0));
        assert_eq!(third.counter, None);
        assert_eq!(third.propagate, Some(3));
    }

    #[test]
    fn two_bit_packs_128_sectors_per_block() {
        let mut c = sys(CompactKind::TwoBit);
        c.read(sector(0));
        assert!(c.read(sector(127)).hit);
        assert!(!c.read(sector(128)).hit);
    }

    #[test]
    fn three_bit_packs_64_sectors_per_block() {
        let mut c = sys(CompactKind::ThreeBit);
        c.read(sector(0));
        assert!(c.read(sector(63)).hit);
        assert!(!c.read(sector(64)).hit);
    }

    #[test]
    fn adaptive_disables_block_after_threshold_saturations() {
        let mut c = sys(CompactKind::Adaptive3);
        // Saturate 8 distinct sectors in block 0 (7 writes each).
        for s in 0..8u64 {
            for _ in 0..7 {
                c.increment(sector(s));
            }
        }
        let (.., disables, _) = c.stats();
        assert_eq!(disables, 1);
        // The last saturating increment carries the copy list.
        // Block now disabled: reads bypass with zero traffic.
        let r = c.read(sector(20));
        assert!(r.hit);
        assert_eq!(r.counter, None);
        assert!(r.chain.is_empty());
    }

    #[test]
    fn adaptive_disable_reports_unsaturated_copies() {
        let mut c = sys(CompactKind::Adaptive3);
        // Give sector 60 two writes (unsaturated).
        c.increment(sector(60));
        c.increment(sector(60));
        let mut disable_copies = None;
        for s in 0..8u64 {
            for _ in 0..7 {
                let a = c.increment(sector(s));
                if a.block_disable.is_some() {
                    disable_copies = a.block_disable;
                }
            }
        }
        let copies = disable_copies.expect("8th saturation disables the block");
        let entry = copies.iter().find(|(a, _)| *a == sector(60)).unwrap();
        assert_eq!(entry.1, 2, "unsaturated value must be copied verbatim");
    }

    #[test]
    fn plain_three_bit_never_disables() {
        let mut c = sys(CompactKind::ThreeBit);
        for s in 0..16u64 {
            for _ in 0..7 {
                c.increment(sector(s));
            }
        }
        let (.., disables, _) = c.stats();
        assert_eq!(disables, 0);
        // Saturated sectors still pay the compact lookup before deferring —
        // the double-access cost the adaptive scheme avoids.
        let r = c.read(sector(0));
        assert_eq!(r.counter, None);
        assert!(r.hit || !r.chain.is_empty());
    }

    #[test]
    fn tamper_detected_on_reload() {
        let mut c = sys(CompactKind::ThreeBit);
        c.increment(sector(0));
        // Evict block 0 by touching many other blocks (2 KiB cache, 32 B
        // lines → 64 lines).
        for b in 1..200u64 {
            c.read(sector(b * 64));
        }
        assert!(c.tamper(sector(0), 0)); // roll back 1 → 0
        let a = c.read(sector(0));
        assert!(matches!(
            a.violation,
            Some(Violation::CompactTreeMismatch { .. })
        ));
    }

    /// Negative control for the zero-leaf shortcut: a never-written
    /// block has no recorded leaf hash, so a tampered counter in it must
    /// still be checked against the zero-leaf hash, not waved through.
    #[test]
    fn tamper_of_never_written_block_detected() {
        let mut c = sys(CompactKind::ThreeBit);
        assert!(c.tamper(sector(5), 3));
        let a = c.read(sector(5));
        assert!(matches!(
            a.violation,
            Some(Violation::CompactTreeMismatch { level: 0, .. })
        ));
    }

    #[test]
    fn freeze_block_redirects_all_kinds_and_reports_copies() {
        let mut c = sys(CompactKind::ThreeBit);
        c.increment(sector(3));
        c.increment(sector(3));
        let copies = c.freeze_block(sector(0));
        assert_eq!(copies, vec![(sector(3), 2)]);
        assert!(c.uses_original(sector(3)));
        // Reads now bypass the compact layer with zero traffic even for the
        // non-adaptive kind.
        let r = c.read(sector(3));
        assert!(r.hit);
        assert_eq!(r.counter, None);
        assert!(r.chain.is_empty());
        // Freezing again is a no-op.
        assert!(c.freeze_block(sector(0)).is_empty());
    }

    #[test]
    fn restore_value_rebuilds_leaf_so_reload_verifies() {
        let mut c = sys(CompactKind::ThreeBit);
        c.increment(sector(0));
        c.restore_value(sector(0), 4);
        assert_eq!(c.peek_live(sector(0)), Some(4));
        // Evict block 0, then reload: the rebuilt leaf must verify.
        for b in 1..200u64 {
            c.read(sector(b * 64));
        }
        let a = c.read(sector(0));
        assert_eq!(a.counter, Some(4));
        assert!(a.violation.is_none());
    }

    #[test]
    fn peek_live_reports_saturation_and_disable() {
        let mut c = sys(CompactKind::ThreeBit);
        assert_eq!(c.peek_live(sector(0)), Some(0));
        for _ in 0..7 {
            c.increment(sector(0));
        }
        assert_eq!(c.peek_live(sector(0)), None, "saturated");
        assert_eq!(c.peek_live(sector(1)), Some(0));
        c.freeze_block(sector(1));
        assert_eq!(c.peek_live(sector(1)), None, "frozen block");
    }

    #[test]
    fn compact_chain_includes_small_tree_on_cold_miss() {
        let mut c = sys(CompactKind::ThreeBit);
        let a = c.read(sector(0));
        let classes: Vec<_> = a.chain.iter().map(|r| r.class).collect();
        assert!(classes.contains(&TrafficClass::CompactCounter));
        assert!(classes.contains(&TrafficClass::CompactBmt));
    }
}
