//! Offline data-value-locality analysis (paper Section III-B, Figs. 8–9).
//!
//! Replays a workload trace functionally (no timing) against per-partition
//! value caches and reports, for every read, whether it would count as
//! "reused" under the paper's three matching scenarios:
//!
//! 1. **All eight** 32-bit values of the sector hit the value cache.
//! 2. **Two halves, 3-of-4**: each 128-bit half needs 3 of its 4 values to
//!    hit (the Plutus verification rule, exact 32-bit matching).
//! 3. **Two halves, 3-of-4, masked**: as above with the 4 least-significant
//!    bits masked (captures nearby values; the rule Plutus ships).

use crate::value_cache::{ValueCache, ValueCacheConfig};
use gpu_sim::{partition_of, AccessKind, BackingMemory, Trace};

/// Reuse fractions (0..=1) over all reads in the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ValueReuse {
    /// Scenario 1: whole sector (8/8 values) reused.
    pub all_eight: f64,
    /// Scenario 2: both halves score ≥ 3-of-4, exact matching.
    pub halves: f64,
    /// Scenario 3: both halves score ≥ 3-of-4, low 4 bits masked.
    pub halves_masked: f64,
    /// Reads analyzed.
    pub reads: u64,
}

fn values_of(sector: &[u8; 32]) -> [u32; 8] {
    let mut out = [0u32; 8];
    for (i, chunk) in sector.chunks_exact(4).enumerate() {
        out[i] = u32::from_le_bytes(chunk.try_into().unwrap());
    }
    out
}

struct ScenarioCaches {
    exact: ValueCache,
    masked: ValueCache,
}

impl ScenarioCaches {
    fn new(entries: usize) -> Self {
        let exact = ValueCacheConfig {
            entries,
            pinned_fraction: 0.0,
            masked_bits: 0,
            ..ValueCacheConfig::default()
        };
        let masked = ValueCacheConfig {
            entries,
            pinned_fraction: 0.0,
            masked_bits: 4,
            ..ValueCacheConfig::default()
        };
        Self {
            exact: ValueCache::new(exact),
            masked: ValueCache::new(masked),
        }
    }
}

/// Replays `trace` and measures value reuse with `entries`-entry caches per
/// partition (paper: 512 entries = 2 kB per partition, `partitions` = 32).
pub fn analyze_trace(trace: &Trace, partitions: usize, entries: usize) -> ValueReuse {
    let mut caches: Vec<ScenarioCaches> = (0..partitions)
        .map(|_| ScenarioCaches::new(entries))
        .collect();
    let mut memory = BackingMemory::new();
    for &(addr, data) in &trace.initial_image {
        memory.write(addr, data);
    }

    let mut reuse = ValueReuse::default();
    for access in &trace.accesses {
        let p = partition_of(access.addr.block(), partitions);
        let caches = &mut caches[p];
        match access.kind {
            AccessKind::Write => {
                let data = trace.data_of(access);
                memory.write(access.addr, *data);
                for v in values_of(data) {
                    caches.exact.insert(v);
                    caches.masked.insert(v);
                }
            }
            AccessKind::Read => {
                let data = memory.read(access.addr).unwrap_or([0; 32]);
                let values = values_of(&data);
                reuse.reads += 1;

                let exact_hits: Vec<bool> = values
                    .iter()
                    .map(|v| caches.exact.probe(*v).is_hit())
                    .collect();
                let masked_hits: Vec<bool> = values
                    .iter()
                    .map(|v| caches.masked.probe(*v).is_hit())
                    .collect();

                if exact_hits.iter().all(|&h| h) {
                    reuse.all_eight += 1.0;
                }
                let rule = |hits: &[bool]| {
                    hits[..4].iter().filter(|&&h| h).count() >= 3
                        && hits[4..].iter().filter(|&&h| h).count() >= 3
                };
                if rule(&exact_hits) {
                    reuse.halves += 1.0;
                }
                if rule(&masked_hits) {
                    reuse.halves_masked += 1.0;
                }

                for v in values {
                    caches.exact.insert(v);
                    caches.masked.insert(v);
                }
            }
        }
    }
    if reuse.reads > 0 {
        let n = reuse.reads as f64;
        reuse.all_eight /= n;
        reuse.halves /= n;
        reuse.halves_masked /= n;
    }
    reuse
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SectorAddr;

    fn sector_bytes(values: [u32; 8]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, v) in values.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn fully_repeated_reads_score_high_everywhere() {
        let mut t = Trace::new("hot");
        let data = sector_bytes([7, 8, 9, 10, 11, 12, 13, 14]);
        for i in 0..8u64 {
            t.set_initial(SectorAddr::new(i * 32), data);
        }
        for _ in 0..4 {
            for i in 0..8u64 {
                t.push_read(SectorAddr::new(i * 32), 0, 1);
            }
        }
        let r = analyze_trace(&t, 1, 512);
        assert_eq!(r.reads, 32);
        assert!(r.all_eight > 0.7, "all_eight = {}", r.all_eight);
        assert!(r.halves >= r.all_eight);
        assert!(r.halves_masked >= r.halves - 1e-12);
    }

    #[test]
    fn unique_values_score_zero() {
        let mut t = Trace::new("cold");
        for i in 0..64u64 {
            let base = (i as u32) * 1000 + 1;
            t.set_initial(
                SectorAddr::new(i * 32),
                sector_bytes([
                    base * 37,
                    base * 59 + 7,
                    base * 83 + 13,
                    base * 101 + 29,
                    base * 131 + 31,
                    base * 151 + 41,
                    base * 181 + 47,
                    base * 191 + 53,
                ]),
            );
            t.push_read(SectorAddr::new(i * 32), 0, 1);
        }
        let r = analyze_trace(&t, 1, 512);
        assert_eq!(r.all_eight, 0.0);
        assert_eq!(r.halves, 0.0);
    }

    #[test]
    fn masking_captures_nearby_values() {
        let mut t = Trace::new("near");
        // First sector inserts values; second has values differing only in
        // the low 4 bits.
        t.set_initial(
            SectorAddr::new(0),
            sector_bytes([0x100, 0x200, 0x300, 0x400, 0x500, 0x600, 0x700, 0x800]),
        );
        t.set_initial(
            SectorAddr::new(32),
            sector_bytes([0x10f, 0x20e, 0x30d, 0x40c, 0x50b, 0x60a, 0x709, 0x808]),
        );
        t.push_read(SectorAddr::new(0), 0, 1);
        t.push_read(SectorAddr::new(32), 0, 1);
        let r = analyze_trace(&t, 1, 512);
        // Exact matching misses the second read; masked matching catches it.
        assert_eq!(r.halves, 0.0);
        assert!((r.halves_masked - 0.5).abs() < 1e-12);
    }

    #[test]
    fn writes_seed_the_cache_for_later_reads() {
        let mut t = Trace::new("write-seed");
        let data = sector_bytes([21, 22, 23, 24, 25, 26, 27, 28]);
        t.push_write(SectorAddr::new(0), data, 0, 1);
        t.push_read(SectorAddr::new(0), 0, 1);
        let r = analyze_trace(&t, 1, 512);
        assert_eq!(r.reads, 1);
        assert_eq!(r.all_eight, 1.0);
    }

    #[test]
    fn empty_trace_is_well_defined() {
        let t = Trace::new("empty");
        let r = analyze_trace(&t, 4, 512);
        assert_eq!(r.reads, 0);
        assert_eq!(r.all_eight, 0.0);
    }
}
