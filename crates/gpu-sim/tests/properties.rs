//! Property-style tests for the simulator substrate, run over many seeded
//! random inputs: the sectored cache and the paged backing memory are
//! checked against reference models, the DRAM channel against its
//! throughput/latency contracts, and [`SimStats`] against its aggregation
//! invariants.

use gpu_sim::cache::SectoredCache;
use gpu_sim::dram::DramChannel;
use gpu_sim::{
    partition_of, BackingMemory, BlockAddr, DramConfig, SectorAddr, SimStats, TrafficClass,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

const SEEDS: u64 = 32;

#[derive(Debug, Clone)]
enum CacheOp {
    Read(u64),
    Write(u64, u8),
}

fn cache_ops(rng: &mut StdRng) -> Vec<CacheOp> {
    let n = rng.gen_range(1..300);
    (0..n)
        .map(|_| {
            let addr = rng.gen_range(0u64..256) * 32;
            if rng.gen_bool(0.5) {
                CacheOp::Read(addr)
            } else {
                CacheOp::Write(addr, rng.gen::<u8>())
            }
        })
        .collect()
}

/// Write-back correctness: every byte the cache ever returns (via eviction
/// or final flush) matches the last value written there.
#[test]
fn cache_is_a_faithful_writeback_store() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = cache_ops(&mut rng);
        let mut cache = SectoredCache::new(2048, 4, 128, true);
        let mut reference: HashMap<u64, [u8; 32]> = HashMap::new();
        let mut evictions: Vec<(u64, Option<[u8; 32]>, [u8; 32])> = Vec::new();
        for op in &ops {
            let out = match *op {
                CacheOp::Read(addr) => cache.access(addr, false, None),
                CacheOp::Write(addr, v) => {
                    let data = [v; 32];
                    let out = cache.access(addr, true, Some(data));
                    reference.insert(addr, data);
                    out
                }
            };
            for ev in out.evicted {
                let expected = reference.get(&ev.addr).copied().unwrap_or([0; 32]);
                evictions.push((ev.addr, ev.data, expected));
            }
        }
        for ev in cache.flush_dirty() {
            let expected = reference.get(&ev.addr).copied().unwrap_or([0; 32]);
            evictions.push((ev.addr, ev.data, expected));
        }
        for (addr, data, expected) in evictions {
            if let Some(d) = data {
                assert_eq!(d, expected, "stale eviction at {addr:#x} (seed {seed})");
            }
        }
    }
}

/// A probe after an access to the same sector always hits until an
/// intervening eviction; stats never decrease.
#[test]
fn cache_probe_agrees_with_access() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..100);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..64)).collect();
        let mut cache = SectoredCache::new(4096, 4, 128, false);
        for &a in &addrs {
            let addr = a * 32;
            cache.access(addr, false, None);
            // 4 KiB cache, 64 sectors ≤ capacity: nothing evicts, so the
            // sector must be present.
            assert!(cache.probe(addr), "probe miss after access (seed {seed})");
        }
        let (hits, misses) = cache.hit_stats();
        assert_eq!(hits + misses, addrs.len() as u64);
    }
}

/// DRAM completions respect arrival time plus minimum service, and a dense
/// batch never exceeds either throughput bound: the bus bandwidth or the
/// activation rate of its busiest bank.
#[test]
fn dram_respects_time_and_bandwidth() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..200);
        let cfg = DramConfig::default();
        let bpc = cfg.bytes_per_cycle;
        let activation = cfg.t_rp + cfg.t_rcd;
        let mut d = DramChannel::new(cfg);
        let mut last_done = 0u64;
        let mut total = 0u64;
        for now in 0..n as u64 {
            let addr = u64::from(rng.gen::<u16>()) * 32;
            let bytes = if rng.gen_bool(0.5) { 32u32 } else { 128u32 };
            let done = d.access(now, addr, bytes);
            assert!(done >= now, "completion before arrival (seed {seed})");
            total += u64::from(bytes);
            last_done = last_done.max(done);
        }
        // Bandwidth cap: the whole batch cannot finish faster than the bus
        // can move its bytes.
        assert!((last_done as f64) + 1e-9 >= total as f64 / bpc);
        // Activation cap: a bank serializes its row activations, so the
        // batch cannot finish before its busiest bank has opened every
        // row it missed.
        let busiest = d.bank_stats().iter().map(|b| b.row_misses).max();
        let activations = busiest.unwrap_or(0) * activation;
        assert!(
            last_done >= activations,
            "done at {last_done} before {activations} cycles of activations (seed {seed})"
        );
        assert_eq!(d.bytes_transferred(), total);
    }
}

/// Address arithmetic invariants.
#[test]
fn address_roundtrips() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..4096 {
        let addr = rng.gen::<u64>();
        let s = SectorAddr::containing(addr);
        assert!(s.raw() <= addr);
        assert!(addr - s.raw() < 32);
        assert_eq!(s.block().sector(s.sector_in_block()).raw(), s.raw());
        let p = partition_of(s.block(), 32);
        assert!(p < 32);
        assert_eq!(p, partition_of(BlockAddr::containing(addr), 32));
    }
}

/// `total_bytes` is exactly the sum of the per-class byte totals, and
/// `metadata_bytes` counts exactly the classes flagged `is_metadata`, no
/// matter what mix of transfers is recorded.
#[test]
fn stats_totals_decompose_by_class() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = SimStats::default();
        let n = rng.gen_range(0..500);
        for _ in 0..n {
            let class = TrafficClass::ALL[rng.gen_range(0..TrafficClass::ALL.len())];
            let bytes = 32 * rng.gen_range(1u64..5);
            s.record_traffic(class, bytes, rng.gen_bool(0.4));
        }
        let by_class: u64 = TrafficClass::ALL.iter().map(|&c| s.class_bytes(c)).sum();
        assert_eq!(s.total_bytes(), by_class, "seed {seed}");
        let metadata: u64 = TrafficClass::ALL
            .iter()
            .filter(|c| c.is_metadata())
            .map(|&c| s.class_bytes(c))
            .sum();
        assert_eq!(s.metadata_bytes(), metadata, "seed {seed}");
        assert_eq!(
            s.total_bytes(),
            s.metadata_bytes() + s.class_bytes(TrafficClass::Data),
            "metadata must be everything except Data (seed {seed})"
        );
    }
}

/// Requests and bytes recorded per class agree in direction: read requests
/// move read bytes only, write requests write bytes only.
#[test]
fn stats_directions_are_independent() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut s = SimStats::default();
    let mut reads = 0u64;
    let mut writes = 0u64;
    for _ in 0..300 {
        let class = TrafficClass::ALL[rng.gen_range(0..TrafficClass::ALL.len())];
        let is_write = rng.gen_bool(0.5);
        s.record_traffic(class, 32, is_write);
        if is_write {
            writes += 32;
        } else {
            reads += 32;
        }
    }
    let read_total: u64 = s.traffic.iter().map(|t| t.read_bytes).sum();
    let write_total: u64 = s.traffic.iter().map(|t| t.write_bytes).sum();
    assert_eq!(read_total, reads);
    assert_eq!(write_total, writes);
    assert_eq!(s.total_bytes(), reads + writes);
}

/// A sector from one of three ranges: dense low sectors, the sectors
/// either side of the first page boundary (4095 | 4096), and sparse
/// sectors at or above 2^40 bytes, many pages apart.
fn memory_addr(rng: &mut StdRng) -> SectorAddr {
    let index = match rng.gen_range(0..3u32) {
        0 => rng.gen_range(0..256u64),
        1 => rng.gen_range(4094..4098u64),
        _ => (1 << 35) + rng.gen_range(0..64u64) * 0x1_0000_0001,
    };
    SectorAddr::new(index * 32)
}

/// The paged store behaves as a map from sector to bytes: every return
/// value of `write`/`read`/`corrupt`/`snapshot`/`replay`, the resident
/// count and the ordered resident addresses match a `BTreeMap`.
#[test]
fn backing_memory_matches_reference_model() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mem = BackingMemory::new();
        let mut reference: BTreeMap<u64, [u8; 32]> = BTreeMap::new();
        let mut captured: Vec<(SectorAddr, [u8; 32])> = Vec::new();
        for _ in 0..rng.gen_range(1..600u32) {
            let addr = memory_addr(&mut rng);
            let held = reference.get(&addr.raw()).copied();
            match rng.gen_range(0..5u32) {
                0 => {
                    let data: [u8; 32] = rng.gen();
                    mem.write(addr, data);
                    reference.insert(addr.raw(), data);
                }
                1 => assert_eq!(mem.read(addr), held, "read {addr} (seed {seed})"),
                2 => {
                    let mask: [u8; 32] = rng.gen();
                    assert_eq!(mem.corrupt(addr, &mask), held.is_some(), "corrupt {addr}");
                    if let Some(bytes) = reference.get_mut(&addr.raw()) {
                        for (b, m) in bytes.iter_mut().zip(mask) {
                            *b ^= m;
                        }
                    }
                }
                3 => {
                    let snap = mem.snapshot(addr);
                    assert_eq!(snap, held, "snapshot {addr} (seed {seed})");
                    captured.extend(snap.map(|bytes| (addr, bytes)));
                }
                _ => {
                    // Replay a captured sector, or bytes never captured
                    // at a possibly non-resident address.
                    let (target, old) = if !captured.is_empty() && rng.gen_bool(0.7) {
                        captured[rng.gen_range(0..captured.len())]
                    } else {
                        (addr, rng.gen())
                    };
                    let resident = reference.contains_key(&target.raw());
                    assert_eq!(mem.replay(target, old), resident, "replay {target}");
                    if let Some(bytes) = reference.get_mut(&target.raw()) {
                        *bytes = old;
                    }
                }
            }
            assert_eq!(mem.resident_sectors(), reference.len(), "seed {seed}");
        }
        let addrs: Vec<u64> = mem.resident_addrs().iter().map(|a| a.raw()).collect();
        let want: Vec<u64> = reference.keys().copied().collect();
        assert_eq!(addrs, want, "resident_addrs (seed {seed})");
        for (&raw, bytes) in &reference {
            assert_eq!(mem.read(SectorAddr::new(raw)), Some(*bytes));
        }
    }
}
