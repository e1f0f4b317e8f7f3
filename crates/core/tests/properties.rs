//! Property-style tests for the Plutus core structures, driven by
//! seeded random sampling (the build resolves no external crates, so
//! these loops stand in for proptest).

use gpu_sim::{BackingMemory, SectorAddr, SecurityEngine};
use plutus_core::binomial::{binomial_tail, min_hits_required, tamper_hit_probability};
use plutus_core::{
    CompactConfig, CompactCounters, CompactKind, PlutusConfig, PlutusEngine, ValueCache,
    ValueCacheConfig, ValueVerifier, Verdict, WriteScreen,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const SEEDS: u64 = 24;

fn sector_of(values: [u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, v) in values.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// The value cache never exceeds its capacity and pinned entries
/// survive arbitrary churn.
#[test]
fn value_cache_capacity_and_pinning() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = ValueCacheConfig::default();
        let mut c = ValueCache::new(cfg);
        // Pin one value by hammering it.
        let hot = 0xdead_bee0u32;
        c.insert(hot);
        for _ in 0..16 {
            c.probe(hot);
        }
        assert!(c.is_pinned(hot));
        for _ in 0..rng.gen_range(1usize..2000) {
            c.insert(rng.gen());
            let (p, t) = c.occupancy();
            assert!(p + t <= cfg.entries);
            assert!(p <= cfg.pinned_capacity());
        }
        assert!(c.is_pinned(hot), "pinned entry evicted by churn");

        // Crash recovery grafts pinned keys into a full cache: a fresh key
        // and a key already in the transient list must both leave the
        // cache within its capacity, with no key held twice.
        let small = ValueCacheConfig {
            entries: rng.gen_range(4usize..16),
            pinned_fraction: 0.5,
            ..cfg
        };
        let mut c = ValueCache::new(small);
        let mut inserted = Vec::new();
        for _ in 0..rng.gen_range(small.entries..4 * small.entries) {
            let v: u32 = rng.gen();
            c.insert(v);
            inserted.push(v >> small.masked_bits);
        }
        let transient = *inserted.last().unwrap();
        let fresh = loop {
            let k = rng.gen::<u32>() >> small.masked_bits;
            if !inserted.contains(&k) {
                break k;
            }
        };
        let keys = if rng.gen_bool(0.5) {
            [fresh, transient]
        } else {
            [transient, fresh]
        };
        c.graft_pinned(&keys);
        let fits = |c: &ValueCache| {
            let (p, t) = c.occupancy();
            p + t <= small.entries && p <= small.pinned_capacity()
        };
        assert!(fits(&c), "graft overfilled the cache: {:?}", c.occupancy());
        assert_eq!(c.pinned_keys(), keys);
        assert_eq!(c.occupancy().0 + c.occupancy().1, small.entries);
        for _ in 0..2 * small.entries {
            c.insert(rng.gen());
            assert!(
                fits(&c),
                "cache overfilled after a graft: {:?}",
                c.occupancy()
            );
        }
        assert!(keys.iter().all(|&k| c.is_pinned(k << small.masked_bits)));
    }
}

/// Eq. 1 sanity: the binomial tail decreases in x and increases in p;
/// the minimum-hits solution actually satisfies the budget.
#[test]
fn binomial_solution_meets_budget() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = rng.gen_range(1usize..4096);
        let bits = rng.gen_range(20u32..32);
        let p = tamper_hit_probability(entries, bits);
        for x in 1..4 {
            assert!(binomial_tail(4, x + 1, p) <= binomial_tail(4, x, p));
        }
        let budget = 1e-12;
        if let Some(x) = min_hits_required(4, p, budget) {
            assert!(binomial_tail(4, x, p) < budget);
            if x > 1 {
                assert!(binomial_tail(4, x - 1, p) >= budget);
            }
        }
    }
}

/// The write-screen guarantee: once `SkipMac`, the next read of the
/// same bytes passes value verification, no matter what runs between.
#[test]
fn skip_mac_guarantee_is_unconditional() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = ValueVerifier::new(ValueCacheConfig::default());
        let hot = sector_of([0x70; 8]);
        let mut screened = WriteScreen::UpdateMac;
        for _ in 0..20 {
            screened = v.screen_write(&hot);
            if screened == WriteScreen::SkipMac {
                break;
            }
        }
        assert_eq!(screened, WriteScreen::SkipMac);
        for _ in 0..rng.gen_range(0usize..400) {
            v.verify_read(&sector_of(rng.gen()));
        }
        assert_eq!(v.verify_read(&hot), Verdict::Verified);
    }
}

/// Compact counters produce strictly increasing live counter values
/// across the compact → original handoff.
#[test]
fn compact_counter_values_monotonic() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = match rng.gen_range(0u8..3) {
            0 => CompactKind::TwoBit,
            1 => CompactKind::ThreeBit,
            _ => CompactKind::Adaptive3,
        };
        let mut c = CompactCounters::new(
            CompactConfig {
                kind,
                ..Default::default()
            },
            1 << 20,
            1,
            [3; 16],
        );
        let s = SectorAddr::new(0);
        let mut last = 0u64;
        let mut saturated = false;
        for _ in 0..rng.gen_range(1usize..20) {
            let a = c.increment(s);
            match a.counter {
                Some(v) => {
                    assert!(!saturated, "compact counter revived after saturation");
                    assert!(v > last, "compact counter did not advance: {last} -> {v}");
                    last = v;
                }
                None => {
                    if let Some(p) = a.propagate {
                        assert_eq!(
                            u64::from(p),
                            last + 1,
                            "propagated value must continue the sequence"
                        );
                        last = u64::from(p);
                    }
                    saturated = true;
                }
            }
        }
    }
}

/// Per-sector reference model of [`CompactCounters`]: one map entry per
/// sector value, plus the values the small tree last recorded for each
/// compact block.
struct CompactModel {
    kind: CompactKind,
    threshold: u8,
    values: BTreeMap<u64, u8>,
    recorded: BTreeMap<u64, Vec<u8>>,
    saturated_in_block: BTreeMap<u64, u8>,
    disabled: BTreeSet<u64>,
    saturations: u64,
    disables: u64,
}

impl CompactModel {
    fn new(kind: CompactKind, threshold: u8) -> Self {
        Self {
            kind,
            threshold,
            values: BTreeMap::new(),
            recorded: BTreeMap::new(),
            saturated_in_block: BTreeMap::new(),
            disabled: BTreeSet::new(),
            saturations: 0,
            disables: 0,
        }
    }

    fn block(&self, idx: u64) -> u64 {
        idx / self.kind.sectors_per_block()
    }

    fn sectors(&self, block: u64) -> std::ops::Range<u64> {
        let per = self.kind.sectors_per_block();
        block * per..(block + 1) * per
    }

    fn value(&self, idx: u64) -> u8 {
        *self.values.get(&idx).unwrap_or(&0)
    }

    fn live(&self, block: u64) -> Vec<u8> {
        self.sectors(block).map(|i| self.value(i)).collect()
    }

    /// True when `block`'s live values differ from what its tree leaf
    /// recorded (all zero until the first record).
    fn mismatch(&self, block: u64) -> bool {
        let live = self.live(block);
        match self.recorded.get(&block) {
            Some(r) => *r != live,
            None => live.iter().any(|&v| v != 0),
        }
    }

    fn record(&mut self, block: u64) {
        self.recorded.insert(block, self.live(block));
    }

    fn peek_live(&self, idx: u64) -> Option<u64> {
        let v = self.value(idx);
        (!self.disabled.contains(&self.block(idx)) && v < self.kind.saturation())
            .then_some(u64::from(v))
    }

    fn uses_original(&self, idx: u64) -> bool {
        self.disabled.contains(&self.block(idx)) || self.value(idx) >= self.kind.saturation()
    }

    fn copies(&self, block: u64, keep: impl Fn(u64, u8) -> bool) -> Vec<(SectorAddr, u8)> {
        self.sectors(block)
            .filter(|&i| keep(i, self.value(i)))
            .map(|i| (SectorAddr::new(i * 32), self.value(i)))
            .collect()
    }

    /// `(counter, propagate, block_disable)` of a write.
    #[allow(clippy::type_complexity)]
    fn increment(&mut self, idx: u64) -> (Option<u64>, Option<u8>, Option<Vec<(SectorAddr, u8)>>) {
        let block = self.block(idx);
        let sat = self.kind.saturation();
        let v = self.value(idx);
        if self.disabled.contains(&block) || v >= sat {
            return (None, None, None);
        }
        self.values.insert(idx, v + 1);
        let mut out = (None, None, None);
        if v + 1 < sat {
            out.0 = Some(u64::from(v + 1));
        } else {
            self.saturations += 1;
            out.1 = Some(sat);
            let count = self.saturated_in_block.entry(block).or_insert(0);
            *count += 1;
            if self.kind == CompactKind::Adaptive3 && *count >= self.threshold {
                self.disables += 1;
                self.disabled.insert(block);
                out.2 = Some(self.copies(block, |i, v| v < sat && i != idx));
            }
        }
        self.record(block);
        out
    }

    fn freeze_block(&mut self, idx: u64) -> Vec<(SectorAddr, u8)> {
        let block = self.block(idx);
        if !self.disabled.insert(block) {
            return Vec::new();
        }
        self.disables += 1;
        let sat = self.kind.saturation();
        self.copies(block, |_, v| v > 0 && v < sat)
    }

    fn restore_value(&mut self, idx: u64, value: u8) {
        let sat = self.kind.saturation();
        if self.value(idx) < sat && value >= sat {
            *self.saturated_in_block.entry(self.block(idx)).or_insert(0) += 1;
        }
        self.values.insert(idx, value);
        self.record(self.block(idx));
    }

    fn tamper(&mut self, idx: u64, value: u8) -> bool {
        if self.value(idx) == value {
            return false;
        }
        self.values.insert(idx, value);
        true
    }
}

/// The block-keyed [`CompactCounters`] agrees with a per-sector model
/// after every operation of seeded sequences: increments through
/// saturation, the adaptive-disable and `freeze_block` copies,
/// `restore_value`, `tamper`, `peek_live`, `uses_original`, and a tree
/// check on every compact-cache miss.
#[test]
fn compact_counters_match_per_sector_model() {
    let (mut disables, mut violations) = (0, 0);
    for kind in [
        CompactKind::TwoBit,
        CompactKind::ThreeBit,
        CompactKind::Adaptive3,
    ] {
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = CompactConfig {
                kind,
                ..Default::default()
            };
            let protected = 1u64 << 22;
            let all_sectors = protected / 32;
            let per = kind.sectors_per_block();
            let first = rng.gen_range(0..all_sectors / per - 3) * per;
            let tracked = first..first + 3 * per;
            let hot: Vec<u64> = (0..12).map(|_| rng.gen_range(first..first + per)).collect();
            let mut c = CompactCounters::new(cfg, protected, 1, [4; 16]);
            let mut m = CompactModel::new(kind, cfg.disable_threshold);
            for _ in 0..rng.gen_range(100usize..600) {
                let idx = if rng.gen_bool(0.5) {
                    hot[rng.gen_range(0..hot.len())]
                } else {
                    rng.gen_range(tracked.clone())
                };
                let addr = SectorAddr::new(idx * 32);
                let mismatch = m.mismatch(m.block(idx));
                match rng.gen_range(0u32..20) {
                    0..=8 => {
                        let a = c.increment(addr);
                        assert_eq!(a.violation.is_some(), !a.hit && mismatch);
                        let want = m.increment(idx);
                        assert_eq!((a.counter, a.propagate, a.block_disable), want);
                    }
                    9..=11 => {
                        // Churn through far blocks so tracked ones reload.
                        let far = rng.gen_range(0..all_sectors);
                        let far_mismatch = m.mismatch(m.block(far));
                        let a = c.read(SectorAddr::new(far * 32));
                        assert_eq!(a.violation.is_some(), !a.hit && far_mismatch);
                        assert_eq!(a.counter, m.peek_live(far));
                    }
                    12 => assert_eq!(c.freeze_block(addr), m.freeze_block(idx)),
                    13 => {
                        let v = rng.gen_range(0..=kind.saturation());
                        c.restore_value(addr, v);
                        m.restore_value(idx, v);
                    }
                    14 => {
                        let v = rng.gen_range(0..=kind.saturation());
                        assert_eq!(c.tamper(addr, v), m.tamper(idx, v));
                    }
                    _ => {
                        let a = c.read(addr);
                        assert_eq!(a.violation.is_some(), !a.hit && mismatch);
                        assert_eq!(a.counter, m.peek_live(idx));
                    }
                }
                violations += usize::from(mismatch);
                for i in tracked.clone() {
                    let a = SectorAddr::new(i * 32);
                    assert_eq!(c.peek_live(a), m.peek_live(i), "sector {i}");
                    assert_eq!(c.uses_original(a), m.uses_original(i), "sector {i}");
                    assert_eq!(c.is_disabled(a), m.disabled.contains(&m.block(i)));
                }
                let (_, _, saturations, block_disables, _) = c.stats();
                assert_eq!((saturations, block_disables), (m.saturations, m.disables));
            }
            disables += m.disables;
        }
    }
    assert!(disables > 0 && violations > 0, "sequences too tame");
}

/// Full Plutus engine round-trips random write/read interleavings with
/// zero false violations.
#[test]
fn plutus_engine_roundtrips() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut engine = PlutusEngine::new(PlutusConfig::test_small());
        let mut mem = BackingMemory::new();
        let mut reference: std::collections::HashMap<u64, [u8; 32]> = Default::default();
        for _ in 0..rng.gen_range(1usize..150) {
            let addr = SectorAddr::new(rng.gen_range(0u64..64) * 32);
            let v = rng.gen::<u8>();
            if rng.gen::<bool>() {
                engine.on_writeback(addr, &[v; 32], &mut mem);
                reference.insert(addr.raw(), [v; 32]);
            } else {
                let fill = engine.on_fill(addr, &mut mem);
                let expected = reference.get(&addr.raw()).copied().unwrap_or([0; 32]);
                assert_eq!(fill.plaintext, expected);
                assert!(fill.violation.is_none());
            }
        }
    }
}
