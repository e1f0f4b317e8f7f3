//! Functional split-counter state (paper Fig. 4 organization).
//!
//! Each group of 32 data sectors shares a 32-bit *major* counter and has a
//! 7-bit *minor* counter per sector; the encryption tweak uses
//! `major << 7 | minor`. When a minor overflows, the group's major is
//! incremented, every minor resets, and all sectors in the group must be
//! re-encrypted under the new counters — the classic split-counter overflow
//! cost, surfaced to the engine via [`IncrementOutcome::GroupOverflow`].
//!
//! Minors and monolithic counters live in [`BlockMap`]s, one record per
//! 128 B block, so serializing a split group costs one major lookup plus
//! eight block lookups.

use crate::block_map::BlockMap;
use crate::layout::SECTORS_PER_COUNTER_GROUP;
use gpu_sim::{FastHashMap, SectorAddr, SECTORS_PER_BLOCK};

/// Minor counter width in bits.
pub const MINOR_BITS: u32 = 7;
/// Maximum minor counter value before a group overflow.
pub const MINOR_MAX: u8 = (1 << MINOR_BITS) - 1;
/// Largest serialized counter group: a split group's 4-byte major plus its
/// 32 minor bytes (a monolithic group is 4 × 8 = 32 bytes).
pub const MAX_GROUP_BYTES: usize = 4 + SECTORS_PER_COUNTER_GROUP as usize;

/// Result of incrementing a sector's write counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncrementOutcome {
    /// The minor counter incremented normally; the tweak counter is given.
    Normal {
        /// New combined counter value for the written sector.
        new_value: u64,
    },
    /// The minor overflowed: the major was bumped and all minors reset.
    /// Every sector in the group must be re-encrypted with counter
    /// `new_value` (major′ << 7).
    GroupOverflow {
        /// New combined counter value now shared by the whole group.
        new_value: u64,
        /// Counter values each group member had *before* the overflow,
        /// indexed by position in the group (needed to decrypt for
        /// re-encryption).
        old_values: Vec<u64>,
    },
}

/// Functional storage for encryption counters (split-sectored by default,
/// SGX-style monolithic as the comparison organization).
#[derive(Debug, Clone)]
pub struct CounterStore {
    org: crate::config::CounterOrg,
    /// Split majors, keyed by counter group.
    majors: FastHashMap<u64, u32>,
    /// Split minors.
    minors: BlockMap<u8>,
    /// Monolithic counters.
    monolithic: BlockMap<u64>,
}

impl Default for CounterStore {
    fn default() -> Self {
        Self::with_org(crate::config::CounterOrg::SplitSectored)
    }
}

impl CounterStore {
    /// Creates an empty split-sectored store (all counters zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with the given organization.
    pub fn with_org(org: crate::config::CounterOrg) -> Self {
        Self {
            org,
            majors: FastHashMap::default(),
            minors: BlockMap::default(),
            monolithic: BlockMap::default(),
        }
    }

    fn group_of(&self, sector: SectorAddr) -> u64 {
        sector.index() / self.org.sectors_per_group()
    }

    /// The 128 B blocks whose sectors make up counter `group`.
    fn blocks_of_group(&self, group: u64) -> std::ops::Range<u64> {
        let per = self.org.sectors_per_group() / SECTORS_PER_BLOCK as u64;
        group * per..(group + 1) * per
    }

    /// Combined tweak-counter value of `sector`.
    pub fn value(&self, sector: SectorAddr) -> u64 {
        match self.org {
            crate::config::CounterOrg::Monolithic => self.monolithic.get(sector),
            crate::config::CounterOrg::SplitSectored => {
                (u64::from(self.major(sector)) << MINOR_BITS) | u64::from(self.minor(sector))
            }
        }
    }

    /// Major counter of `sector`'s group (split organization).
    pub fn major(&self, sector: SectorAddr) -> u32 {
        *self.majors.get(&self.group_of(sector)).unwrap_or(&0)
    }

    /// Minor counter of `sector`.
    pub fn minor(&self, sector: SectorAddr) -> u8 {
        self.minors.get(sector)
    }

    /// Increments `sector`'s counter for a write, handling group overflow.
    pub fn increment(&mut self, sector: SectorAddr) -> IncrementOutcome {
        if self.org == crate::config::CounterOrg::Monolithic {
            let v = self.monolithic.slot_mut(sector);
            *v += 1;
            return IncrementOutcome::Normal { new_value: *v };
        }
        let minor = self.minors.slot_mut(sector);
        if *minor < MINOR_MAX {
            *minor += 1;
            return IncrementOutcome::Normal {
                new_value: self.value(sector),
            };
        }
        // Overflow: capture old values, bump major, clear minors.
        let group = self.group_of(sector);
        let major = self.major(sector);
        let blocks = self.blocks_of_group(group);
        let old_values = blocks
            .clone()
            .flat_map(|b| self.minors.record(b))
            .map(|minor| (u64::from(major) << MINOR_BITS) | u64::from(minor))
            .collect();
        let new_major = major.checked_add(1).expect("major counter exhausted");
        self.majors.insert(group, new_major);
        for b in blocks {
            self.minors.reset(b);
        }
        IncrementOutcome::GroupOverflow {
            new_value: u64::from(new_major) << MINOR_BITS,
            old_values,
        }
    }

    /// Serializes the counter sector of `group` into the front of `out`
    /// for BMT leaf hashing: major (LE) followed by the 32 minor bytes
    /// (split), or the four 64-bit counters (monolithic). Returns the
    /// bytes written, [`CounterOrg::group_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`CounterOrg::group_bytes`].
    ///
    /// [`CounterOrg::group_bytes`]: crate::config::CounterOrg::group_bytes
    pub fn serialize_group(&self, group: u64, out: &mut [u8]) -> usize {
        let len = self.org.group_bytes();
        let out = &mut out[..len];
        let blocks = self.blocks_of_group(group);
        match self.org {
            crate::config::CounterOrg::Monolithic => {
                // A monolithic group is exactly one block.
                let values = self.monolithic.record(blocks.start);
                for (chunk, v) in out.chunks_exact_mut(8).zip(values) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
            }
            crate::config::CounterOrg::SplitSectored => {
                let major = *self.majors.get(&group).unwrap_or(&0);
                out[..4].copy_from_slice(&major.to_le_bytes());
                for (chunk, b) in out[4..].chunks_exact_mut(SECTORS_PER_BLOCK).zip(blocks) {
                    chunk.copy_from_slice(&self.minors.record(b));
                }
            }
        }
        len
    }

    /// Raises `sector`'s minor counter to exactly `value` (used when a
    /// Plutus compact counter saturates and its value is propagated to the
    /// original copy). The counter must not move backwards.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds the minor range or would decrease the
    /// sector's current minor.
    pub fn set_minor(&mut self, sector: SectorAddr, value: u8) {
        assert_eq!(
            self.org,
            crate::config::CounterOrg::SplitSectored,
            "compact-counter propagation requires the split organization"
        );
        assert!(value <= MINOR_MAX, "minor {value} out of range");
        let cur = self.minor(sector);
        assert!(
            value >= cur,
            "counter must not move backwards ({cur} -> {value})"
        );
        *self.minors.slot_mut(sector) = value;
    }

    /// Crash-recovery hook: overwrite `sector`'s counter with a value
    /// proven correct against a persistent MAC (Phoenix-style probing).
    ///
    /// Unlike [`CounterStore::set_minor`] this may move the *combined*
    /// value in either direction: after a crash the reverted checkpoint
    /// state can sit above or below the true value once a neighbouring
    /// sector has already restored the group's shared major. Callers must
    /// only pass MAC-verified values.
    pub fn restore(&mut self, sector: SectorAddr, value: u64) {
        match self.org {
            crate::config::CounterOrg::Monolithic => *self.monolithic.slot_mut(sector) = value,
            crate::config::CounterOrg::SplitSectored => {
                let major = u32::try_from(value >> MINOR_BITS)
                    .expect("recovered counter exceeds the 32-bit major range");
                self.majors.insert(self.group_of(sector), major);
                *self.minors.slot_mut(sector) = (value & u64::from(MINOR_MAX)) as u8;
            }
        }
    }

    /// Lowest combined value a crash-recovery probe for `sector` must
    /// consider: the current value with the minor cleared (split — a group
    /// overflow since the checkpoint zeroed every minor, so the true value
    /// can sit *below* `value | minor`), or the current value itself
    /// (monolithic — strictly increasing per sector).
    pub fn recovery_floor(&self, sector: SectorAddr) -> u64 {
        match self.org {
            crate::config::CounterOrg::Monolithic => self.value(sector),
            crate::config::CounterOrg::SplitSectored => self.value(sector) & !u64::from(MINOR_MAX),
        }
    }

    /// Attack hook: overwrite `sector`'s counter without touching the
    /// integrity tree (models tampering with the counter block in DRAM).
    pub fn tamper_minor(&mut self, sector: SectorAddr, value: u8) {
        match self.org {
            crate::config::CounterOrg::Monolithic => {
                *self.monolithic.slot_mut(sector) = u64::from(value);
            }
            crate::config::CounterOrg::SplitSectored => *self.minors.slot_mut(sector) = value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u64) -> SectorAddr {
        SectorAddr::new(i * 32)
    }

    fn ser(c: &CounterStore, group: u64) -> Vec<u8> {
        let mut buf = [0; MAX_GROUP_BYTES];
        let len = c.serialize_group(group, &mut buf);
        buf[..len].to_vec()
    }

    #[test]
    fn counters_start_at_zero() {
        let c = CounterStore::new();
        assert_eq!(c.value(s(0)), 0);
        assert_eq!(c.major(s(0)), 0);
        assert_eq!(c.minor(s(0)), 0);
    }

    #[test]
    fn increment_bumps_minor() {
        let mut c = CounterStore::new();
        match c.increment(s(5)) {
            IncrementOutcome::Normal { new_value } => assert_eq!(new_value, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.value(s(5)), 1);
        // Neighbors unaffected.
        assert_eq!(c.value(s(6)), 0);
    }

    #[test]
    fn group_members_share_major() {
        let mut c = CounterStore::new();
        // Overflow sector 0's minor.
        for _ in 0..=MINOR_MAX {
            c.increment(s(0));
        }
        // Sector 0 overflowed the group: all members see the new major.
        assert_eq!(c.major(s(0)), 1);
        assert_eq!(c.major(s(31)), 1);
        assert_eq!(c.minor(s(31)), 0);
        // But a different group is untouched.
        assert_eq!(c.major(s(32)), 0);
    }

    #[test]
    fn overflow_reports_old_values() {
        let mut c = CounterStore::new();
        c.increment(s(1)); // sector 1 minor = 1
        for _ in 0..MINOR_MAX {
            c.increment(s(0)); // sector 0 minor = 127
        }
        match c.increment(s(0)) {
            IncrementOutcome::GroupOverflow {
                new_value,
                old_values,
            } => {
                assert_eq!(new_value, 1 << MINOR_BITS);
                assert_eq!(old_values.len(), 32);
                assert_eq!(old_values[0], u64::from(MINOR_MAX));
                assert_eq!(old_values[1], 1);
                assert_eq!(old_values[2], 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Post-overflow values: major 1, minors 0.
        assert_eq!(c.value(s(0)), 128);
        assert_eq!(c.value(s(1)), 128);
    }

    #[test]
    fn values_never_repeat_across_overflow() {
        // The combined counter is strictly increasing for a given sector.
        let mut c = CounterStore::new();
        let mut last = c.value(s(0));
        for _ in 0..300 {
            c.increment(s(0));
            let v = c.value(s(0));
            assert!(v > last, "counter value repeated: {v} after {last}");
            last = v;
        }
    }

    #[test]
    fn serialize_group_reflects_state() {
        let mut c = CounterStore::new();
        let before = ser(&c, 0);
        c.increment(s(3));
        let after = ser(&c, 0);
        assert_ne!(before, after);
        assert_eq!(after.len(), 36);
        assert_eq!(after[4 + 3], 1);
    }

    #[test]
    fn monolithic_counters_increment_independently() {
        let mut c = CounterStore::with_org(crate::config::CounterOrg::Monolithic);
        for _ in 0..200 {
            c.increment(s(0));
        }
        assert_eq!(c.value(s(0)), 200);
        // No group sharing: the neighbor is untouched even past 128.
        assert_eq!(c.value(s(1)), 0);
        // And no overflow outcome ever fires.
        assert!(matches!(
            c.increment(s(0)),
            IncrementOutcome::Normal { new_value: 201 }
        ));
    }

    #[test]
    fn monolithic_serialization_covers_four_sectors() {
        let mut c = CounterStore::with_org(crate::config::CounterOrg::Monolithic);
        c.increment(s(1));
        let bytes = ser(&c, 0);
        assert_eq!(bytes.len(), 32, "4 × 64-bit counters fill the 32 B sector");
        assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 1);
    }

    #[test]
    #[should_panic(expected = "split organization")]
    fn set_minor_rejects_monolithic() {
        let mut c = CounterStore::with_org(crate::config::CounterOrg::Monolithic);
        c.set_minor(s(0), 3);
    }

    #[test]
    fn restore_overwrites_split_major_and_minor() {
        let mut c = CounterStore::new();
        c.restore(s(3), (5 << MINOR_BITS) | 9);
        assert_eq!(c.major(s(3)), 5);
        assert_eq!(c.minor(s(3)), 9);
        assert_eq!(c.value(s(3)), (5 << MINOR_BITS) | 9);
        // The group-shared major moved for neighbours too.
        assert_eq!(c.major(s(4)), 5);
    }

    #[test]
    fn restore_overwrites_monolithic_value() {
        let mut c = CounterStore::with_org(crate::config::CounterOrg::Monolithic);
        c.restore(s(2), 7777);
        assert_eq!(c.value(s(2)), 7777);
    }

    #[test]
    fn recovery_floor_clears_minor_for_split() {
        let mut c = CounterStore::new();
        c.restore(s(0), (3 << MINOR_BITS) | 42);
        assert_eq!(c.recovery_floor(s(0)), 3 << MINOR_BITS);
        let mut m = CounterStore::with_org(crate::config::CounterOrg::Monolithic);
        m.restore(s(0), 42);
        assert_eq!(m.recovery_floor(s(0)), 42);
    }

    #[test]
    fn tamper_changes_serialization() {
        let mut c = CounterStore::new();
        c.increment(s(0));
        let honest = ser(&c, 0);
        c.tamper_minor(s(0), 99);
        assert_ne!(ser(&c, 0), honest);
    }
}
