//! Property-style tests for the secure-memory machinery, driven by
//! seeded random sampling (the build resolves no external crates, so
//! these loops stand in for proptest).

use gpu_sim::{BackingMemory, SectorAddr, SecurityEngine, TenantMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_mem::counter_store::{MAX_GROUP_BYTES, MINOR_BITS, MINOR_MAX};
use secure_mem::{
    CounterOrg, CounterStore, IncrementOutcome, MacStore, PssmEngine, SecureMemConfig,
};
use std::collections::BTreeMap;

const SEEDS: u64 = 24;

/// Per-sector reference model of [`CounterStore`]: one map entry per
/// sector counter (the minor, or the whole monolithic value) and one
/// per split group's major.
struct CounterModel {
    org: CounterOrg,
    majors: BTreeMap<u64, u32>,
    counters: BTreeMap<u64, u64>,
}

impl CounterModel {
    fn new(org: CounterOrg) -> Self {
        Self {
            org,
            majors: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    fn group(&self, idx: u64) -> u64 {
        idx / self.org.sectors_per_group()
    }

    fn major(&self, idx: u64) -> u32 {
        match self.org {
            CounterOrg::Monolithic => 0,
            CounterOrg::SplitSectored => *self.majors.get(&self.group(idx)).unwrap_or(&0),
        }
    }

    fn minor(&self, idx: u64) -> u8 {
        match self.org {
            CounterOrg::Monolithic => 0,
            CounterOrg::SplitSectored => *self.counters.get(&idx).unwrap_or(&0) as u8,
        }
    }

    fn value(&self, idx: u64) -> u64 {
        match self.org {
            CounterOrg::Monolithic => *self.counters.get(&idx).unwrap_or(&0),
            CounterOrg::SplitSectored => {
                (u64::from(self.major(idx)) << MINOR_BITS) | u64::from(self.minor(idx))
            }
        }
    }

    fn recovery_floor(&self, idx: u64) -> u64 {
        match self.org {
            CounterOrg::Monolithic => self.value(idx),
            CounterOrg::SplitSectored => self.value(idx) & !u64::from(MINOR_MAX),
        }
    }

    fn increment(&mut self, idx: u64) -> IncrementOutcome {
        if self.org == CounterOrg::Monolithic {
            let v = self.counters.entry(idx).or_insert(0);
            *v += 1;
            return IncrementOutcome::Normal { new_value: *v };
        }
        if self.minor(idx) < MINOR_MAX {
            *self.counters.entry(idx).or_insert(0) += 1;
            return IncrementOutcome::Normal {
                new_value: self.value(idx),
            };
        }
        let per = self.org.sectors_per_group();
        let base = self.group(idx) * per;
        let old_values = (base..base + per).map(|i| self.value(i)).collect();
        let major = self.major(idx) + 1;
        self.majors.insert(self.group(idx), major);
        for i in base..base + per {
            self.counters.insert(i, 0);
        }
        IncrementOutcome::GroupOverflow {
            new_value: u64::from(major) << MINOR_BITS,
            old_values,
        }
    }

    fn restore(&mut self, idx: u64, value: u64) {
        match self.org {
            CounterOrg::Monolithic => {
                self.counters.insert(idx, value);
            }
            CounterOrg::SplitSectored => {
                self.majors
                    .insert(self.group(idx), (value >> MINOR_BITS) as u32);
                self.counters.insert(idx, value & u64::from(MINOR_MAX));
            }
        }
    }

    fn tamper_minor(&mut self, idx: u64, value: u8) {
        self.counters.insert(idx, u64::from(value));
    }

    fn serialize_group(&self, group: u64) -> Vec<u8> {
        let per = self.org.sectors_per_group();
        let sectors = group * per..(group + 1) * per;
        match self.org {
            CounterOrg::Monolithic => sectors.flat_map(|i| self.value(i).to_le_bytes()).collect(),
            CounterOrg::SplitSectored => {
                let mut out = self.major(group * per).to_le_bytes().to_vec();
                out.extend(sectors.map(|i| self.minor(i)));
                out
            }
        }
    }
}

/// The block-keyed [`CounterStore`] agrees with a per-sector model after
/// every operation of seeded sequences over a few groups, for both
/// organizations: values, majors, minors, recovery floors, serialized
/// groups and overflow `old_values`.
#[test]
fn counter_store_matches_per_sector_model() {
    let mut overflows = 0;
    for org in [CounterOrg::SplitSectored, CounterOrg::Monolithic] {
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let per = org.sectors_per_group();
            let first_group = rng.gen_range(0u64..1000);
            let groups = first_group..first_group + 3;
            let sectors = first_group * per..groups.end * per;
            let hot = rng.gen_range(sectors.clone());
            let mut store = CounterStore::with_org(org);
            let mut model = CounterModel::new(org);
            for _ in 0..rng.gen_range(200usize..700) {
                let idx = if rng.gen_bool(0.5) {
                    hot
                } else {
                    rng.gen_range(sectors.clone())
                };
                let addr = SectorAddr::new(idx * 32);
                match rng.gen_range(0u32..10) {
                    0 if org == CounterOrg::SplitSectored => {
                        let v = rng.gen_range(model.minor(idx)..=MINOR_MAX);
                        store.set_minor(addr, v);
                        model.counters.insert(idx, u64::from(v));
                    }
                    1 => {
                        let v = (rng.gen_range(0u64..4) << MINOR_BITS) | rng.gen_range(0u64..128);
                        store.restore(addr, v);
                        model.restore(idx, v);
                    }
                    2 => {
                        let v = rng.gen::<u8>() & MINOR_MAX;
                        store.tamper_minor(addr, v);
                        model.tamper_minor(idx, v);
                    }
                    _ => {
                        let outcome = store.increment(addr);
                        overflows +=
                            usize::from(matches!(outcome, IncrementOutcome::GroupOverflow { .. }));
                        assert_eq!(outcome, model.increment(idx));
                    }
                }
                for i in sectors.clone() {
                    let a = SectorAddr::new(i * 32);
                    assert_eq!(store.value(a), model.value(i), "value of sector {i}");
                    assert_eq!(store.major(a), model.major(i), "major of sector {i}");
                    assert_eq!(store.minor(a), model.minor(i), "minor of sector {i}");
                    assert_eq!(store.recovery_floor(a), model.recovery_floor(i));
                }
                for g in groups.clone() {
                    let mut buf = [0; MAX_GROUP_BYTES];
                    let len = store.serialize_group(g, &mut buf);
                    assert_eq!(buf[..len], model.serialize_group(g)[..], "group {g}");
                }
            }
        }
    }
    assert!(overflows > 0, "no sequence reached a group overflow");
}

/// The block-keyed [`MacStore`] verifies exactly as a per-sector tag map
/// does, including never-written sectors, under one key and under
/// per-tenant keys.
#[test]
fn mac_store_matches_per_sector_model() {
    for tenants in [false, true] {
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let first = rng.gen_range(0u64..1000) * 4;
            let sectors = first..first + 24;
            let new_store = || {
                let mut m = MacStore::new([3; 16], 8);
                if tenants {
                    let mut map = TenantMap::new();
                    map.add_range(first * 32, (first + 8) * 32, 1);
                    map.add_range((first + 8) * 32, (first + 17) * 32, 2);
                    m.set_tenant_keys(map, 77);
                }
                m
            };
            let mut store = new_store();
            // A store that is never written: its `compute` is the oracle.
            let oracle = new_store();
            let mut tags: BTreeMap<u64, u64> = BTreeMap::new();
            let mut written: BTreeMap<u64, ([u8; 32], u64)> = BTreeMap::new();
            let expected = |tags: &BTreeMap<u64, u64>, a: SectorAddr| {
                tags.get(&a.index())
                    .copied()
                    .unwrap_or_else(|| oracle.compute(&[0; 32], a, 0))
            };
            for _ in 0..rng.gen_range(20usize..120) {
                let idx = rng.gen_range(sectors.clone());
                let addr = SectorAddr::new(idx * 32);
                match rng.gen_range(0u32..6) {
                    0 => {
                        store.tamper(addr);
                        let t = expected(&tags, addr) ^ 1;
                        tags.insert(idx, t);
                    }
                    1 => {
                        let n = rng.gen_range(1usize..6);
                        let at: Vec<(SectorAddr, u64)> = (0..n)
                            .map(|_| {
                                let i = rng.gen_range(sectors.clone());
                                (SectorAddr::new(i * 32), rng.gen_range(0u64..50))
                            })
                            .collect();
                        let pts: Vec<[u8; 32]> = (0..n).map(|_| rng.gen()).collect();
                        store.update_many(&pts, &at);
                        for (pt, &(a, c)) in pts.iter().zip(&at) {
                            tags.insert(a.index(), oracle.compute(pt, a, c));
                            written.insert(a.index(), (*pt, c));
                        }
                    }
                    _ => {
                        let pt: [u8; 32] = rng.gen();
                        let ctr = rng.gen_range(0u64..50);
                        store.update(addr, &pt, ctr);
                        tags.insert(idx, oracle.compute(&pt, addr, ctr));
                        written.insert(idx, (pt, ctr));
                    }
                }
                let mut pts = Vec::new();
                let mut at = Vec::new();
                for i in sectors.clone() {
                    let a = SectorAddr::new(i * 32);
                    let (pt, ctr) = written.get(&i).copied().unwrap_or(([0; 32], 0));
                    let random: [u8; 32] = rng.gen();
                    for (pt, ctr) in [(pt, ctr), ([0; 32], 0), (random, ctr)] {
                        let want = oracle.compute(&pt, a, ctr) == expected(&tags, a);
                        assert_eq!(store.verify(a, &pt, ctr), want, "sector {i}");
                        pts.push(pt);
                        at.push((a, ctr));
                    }
                }
                let want: Vec<bool> = pts
                    .iter()
                    .zip(&at)
                    .map(|(pt, &(a, c))| oracle.compute(pt, a, c) == expected(&tags, a))
                    .collect();
                assert_eq!(store.verify_many(&pts, &at), want);
            }
        }
    }
}

/// Split counters are strictly monotonic per sector across any
/// interleaving of increments, including group overflows.
#[test]
fn counters_never_repeat() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = CounterStore::new();
        let mut last: std::collections::HashMap<u64, u64> = Default::default();
        for _ in 0..rng.gen_range(1usize..600) {
            let sector = SectorAddr::new(rng.gen_range(0u64..8) * 32);
            store.increment(sector);
            // All 8 tracked sectors must stay monotonic (group resets bump
            // the shared major, so values may jump, never fall or repeat
            // on the *written* sector; others may only grow).
            for t in 0..8u64 {
                let addr = SectorAddr::new(t * 32);
                let v = store.value(addr);
                let prev = last.insert(t, v).unwrap_or(0);
                assert!(v >= prev, "sector {t} went {prev} -> {v}");
            }
            let v = store.value(sector);
            assert!(v > 0);
        }
    }
}

/// Group overflow reports exactly the pre-overflow values.
#[test]
fn overflow_old_values_match_observations() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let extra = rng.gen_range(0u32..120);
        let mut store = CounterStore::new();
        let a = SectorAddr::new(0);
        let b = SectorAddr::new(32); // same group
        for _ in 0..extra {
            store.increment(b);
        }
        let b_value = store.value(b);
        for _ in 0..127 {
            store.increment(a); // minor reaches its 127 maximum
        }
        match store.increment(a) {
            IncrementOutcome::GroupOverflow {
                old_values,
                new_value,
            } => {
                assert_eq!(old_values[0], 127);
                assert_eq!(old_values[1], b_value);
                assert_eq!(new_value, 128);
            }
            other => panic!("expected overflow, got {other:?}"),
        }
    }
}

/// MAC verification accepts exactly the (data, counter) pair it was
/// computed over.
#[test]
fn mac_verification_is_sound_and_complete() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: [u8; 32] = rng.gen();
        let other: [u8; 32] = rng.gen();
        let ctr = rng.gen_range(0u64..1000);
        let mut m = MacStore::new([5; 16], 8);
        let addr = SectorAddr::new(0x40);
        m.update(addr, &data, ctr);
        assert!(m.verify(addr, &data, ctr));
        assert!(!m.verify(addr, &data, ctr + 1), "stale counter accepted");
        if other != data {
            assert!(!m.verify(addr, &other, ctr), "forged data accepted");
        }
    }
}

/// The PSSM engine round-trips arbitrary write sequences (random
/// addresses within a few groups, random payloads).
#[test]
fn pssm_roundtrips_random_sequences() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut engine = PssmEngine::new(SecureMemConfig::test_small());
        let mut mem = BackingMemory::new();
        let mut reference: std::collections::HashMap<u64, [u8; 32]> = Default::default();
        for _ in 0..rng.gen_range(1usize..120) {
            let addr = SectorAddr::new(rng.gen_range(0u64..96) * 32);
            let v = rng.gen::<u8>();
            engine.on_writeback(addr, &[v; 32], &mut mem);
            reference.insert(addr.raw(), [v; 32]);
        }
        for (&raw, expected) in &reference {
            let fill = engine.on_fill(SectorAddr::new(raw), &mut mem);
            assert_eq!(&fill.plaintext, expected);
            assert!(fill.violation.is_none());
        }
    }
}

/// Any single-bit corruption of a written sector is detected by PSSM.
#[test]
fn pssm_detects_arbitrary_bit_flips() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let byte = rng.gen_range(0usize..32);
        let bit = rng.gen_range(0u8..8);
        let v = rng.gen::<u8>();
        let mut engine = PssmEngine::new(SecureMemConfig::test_small());
        let mut mem = BackingMemory::new();
        let addr = SectorAddr::new(0x80);
        engine.on_writeback(addr, &[v; 32], &mut mem);
        let mut mask = [0u8; 32];
        mask[byte] = 1 << bit;
        assert!(mem.corrupt(addr, &mask));
        let fill = engine.on_fill(addr, &mut mem);
        assert!(fill.violation.is_some());
    }
}
