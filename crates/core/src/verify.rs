//! Value-based integrity verification (paper Section IV-C, Figs. 11–12).
//!
//! A 32-byte sector is two 128-bit AES-XTS cipher blocks; each splits into
//! four 32-bit values. A sector is **verified without its MAC** when *both*
//! 128-bit units score at least [`min_hits`](ValueVerifier::min_hits) value-
//! cache hits (3 of 4 at the paper's design point) — the binomial analysis
//! in [`crate::binomial`] bounds the probability that a *tampered* sector
//! passes below a 56-bit MAC's collision rate.
//!
//! On the write side, a sector whose units all score enough *pinned* hits
//! is guaranteed to pass value verification on its next read (pinned
//! entries are never evicted), so its MAC update can be skipped entirely.

use crate::binomial::{plutus_min_hits, VALUES_PER_UNIT};
use crate::value_cache::{ValueCache, ValueCacheConfig};

/// Verdict for one sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both 128-bit units scored enough hits: integrity assured without a
    /// MAC fetch.
    Verified,
    /// At least one unit fell short: the MAC must be fetched and checked.
    NeedMac,
}

/// Result of screening a write for MAC-skip eligibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteScreen {
    /// Every unit scored enough *pinned* hits: the next read is guaranteed
    /// to pass value verification, so the MAC update can be skipped.
    SkipMac,
    /// The MAC must be computed and stored as usual.
    UpdateMac,
}

/// The per-partition value-verification engine.
#[derive(Debug, Clone)]
pub struct ValueVerifier {
    cache: ValueCache,
    min_hits: u32,
    sectors_verified: u64,
    sectors_need_mac: u64,
    writes_skipped: u64,
    writes_with_mac: u64,
}

impl ValueVerifier {
    /// Builds a verifier, deriving the hit requirement from the cache
    /// geometry via the Eq. 1 analysis.
    pub fn new(cfg: ValueCacheConfig) -> Self {
        let min_hits = plutus_min_hits(cfg.entries, cfg.effective_bits());
        Self {
            cache: ValueCache::new(cfg),
            min_hits,
            sectors_verified: 0,
            sectors_need_mac: 0,
            writes_skipped: 0,
            writes_with_mac: 0,
        }
    }

    /// Hits required per 128-bit unit (3 at the paper's design point).
    pub fn min_hits(&self) -> u32 {
        self.min_hits
    }

    /// The underlying value cache.
    pub fn cache(&self) -> &ValueCache {
        &self.cache
    }

    fn values_of(sector: &[u8; 32]) -> [u32; 8] {
        let mut out = [0u32; 8];
        for (i, chunk) in sector.chunks_exact(4).enumerate() {
            out[i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        out
    }

    /// Screens a decrypted read sector: probes all eight values, then
    /// inserts them as recently seen (paper: "On reads, before inserting
    /// values, the read value is checked for reuse").
    pub fn verify_read(&mut self, plaintext: &[u8; 32]) -> Verdict {
        let values = Self::values_of(plaintext);
        let mut verdict = Verdict::Verified;
        for unit in values.chunks_exact(VALUES_PER_UNIT as usize) {
            let hits = unit
                .iter()
                .filter(|v| self.cache.probe(**v).is_hit())
                .count() as u32;
            if hits < self.min_hits {
                verdict = Verdict::NeedMac;
            }
        }
        for v in values {
            self.cache.insert(v);
        }
        match verdict {
            Verdict::Verified => self.sectors_verified += 1,
            Verdict::NeedMac => self.sectors_need_mac += 1,
        }
        verdict
    }

    /// Screens a written sector: inserts its values, then decides whether
    /// the MAC update may be skipped (pinned hits only — the guarantee must
    /// survive arbitrary future evictions).
    pub fn screen_write(&mut self, plaintext: &[u8; 32]) -> WriteScreen {
        let values = Self::values_of(plaintext);
        for v in values {
            self.cache.insert(v);
            // Writes also exercise reuse counters so hot values get pinned.
            self.cache.probe(v);
        }
        let mut screen = WriteScreen::SkipMac;
        for unit in values.chunks_exact(VALUES_PER_UNIT as usize) {
            let pinned = unit.iter().filter(|v| self.cache.is_pinned(**v)).count() as u32;
            if pinned < self.min_hits {
                screen = WriteScreen::UpdateMac;
            }
        }
        match screen {
            WriteScreen::SkipMac => self.writes_skipped += 1,
            WriteScreen::UpdateMac => self.writes_with_mac += 1,
        }
        screen
    }

    /// Non-mutating pinned-only screen: would `plaintext` pass value
    /// verification on pinned entries alone? This is exactly the guarantee
    /// [`ValueVerifier::screen_write`] relied on when a MAC update was
    /// skipped, so crash recovery and the degraded (frozen) read path use
    /// it to vouch for sectors that have no fresh MAC.
    pub fn screen_pinned(&self, plaintext: &[u8; 32]) -> bool {
        let values = Self::values_of(plaintext);
        for unit in values.chunks_exact(VALUES_PER_UNIT as usize) {
            let pinned = unit.iter().filter(|v| self.cache.is_pinned(**v)).count() as u32;
            if pinned < self.min_hits {
                return false;
            }
        }
        true
    }

    /// Raw pinned keys (see [`ValueCache::pinned_keys`]).
    pub fn pinned_keys(&self) -> Vec<u32> {
        self.cache.pinned_keys()
    }

    /// Re-pins keys captured before a crash (see
    /// [`ValueCache::graft_pinned`]).
    pub fn graft_pinned(&mut self, keys: &[u32]) {
        self.cache.graft_pinned(keys);
    }

    /// `(reads verified, reads needing MAC, writes skipping MAC, writes
    /// updating MAC)`.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        (
            self.sectors_verified,
            self.sectors_need_mac,
            self.writes_skipped,
            self.writes_with_mac,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verifier() -> ValueVerifier {
        ValueVerifier::new(ValueCacheConfig::default())
    }

    fn sector_of(values: [u32; 8]) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, v) in values.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn paper_rule_is_three_of_four() {
        assert_eq!(verifier().min_hits(), 3);
    }

    #[test]
    fn cold_cache_needs_mac() {
        let mut v = verifier();
        assert_eq!(
            v.verify_read(&sector_of([1, 2, 3, 4, 5, 6, 7, 8])),
            Verdict::NeedMac
        );
    }

    #[test]
    fn repeated_sector_verifies_second_time() {
        let mut v = verifier();
        let s = sector_of([
            10 << 4,
            20 << 4,
            30 << 4,
            40 << 4,
            50 << 4,
            60 << 4,
            70 << 4,
            80 << 4,
        ]);
        assert_eq!(v.verify_read(&s), Verdict::NeedMac);
        assert_eq!(v.verify_read(&s), Verdict::Verified);
    }

    #[test]
    fn three_of_four_suffices_per_unit() {
        let mut v = verifier();
        let base = [
            1u32 << 4,
            2 << 4,
            3 << 4,
            4 << 4,
            5 << 4,
            6 << 4,
            7 << 4,
            8 << 4,
        ];
        v.verify_read(&sector_of(base));
        // One novel value in each unit: still 3 hits per unit.
        let variant = [
            1 << 4,
            2 << 4,
            3 << 4,
            999 << 4,
            5 << 4,
            6 << 4,
            7 << 4,
            888 << 4,
        ];
        assert_eq!(v.verify_read(&sector_of(variant)), Verdict::Verified);
    }

    #[test]
    fn two_of_four_fails_a_unit() {
        let mut v = verifier();
        let base = [
            1u32 << 4,
            2 << 4,
            3 << 4,
            4 << 4,
            5 << 4,
            6 << 4,
            7 << 4,
            8 << 4,
        ];
        v.verify_read(&sector_of(base));
        let variant = [
            1 << 4,
            2 << 4,
            777 << 4,
            999 << 4,
            5 << 4,
            6 << 4,
            7 << 4,
            8 << 4,
        ];
        assert_eq!(v.verify_read(&sector_of(variant)), Verdict::NeedMac);
    }

    #[test]
    fn both_units_must_pass() {
        let mut v = verifier();
        let base = [
            1u32 << 4,
            2 << 4,
            3 << 4,
            4 << 4,
            5 << 4,
            6 << 4,
            7 << 4,
            8 << 4,
        ];
        v.verify_read(&sector_of(base));
        // First unit fully reused, second unit novel.
        let variant = [
            1 << 4,
            2 << 4,
            3 << 4,
            4 << 4,
            91 << 4,
            92 << 4,
            93 << 4,
            94 << 4,
        ];
        assert_eq!(v.verify_read(&sector_of(variant)), Verdict::NeedMac);
    }

    #[test]
    fn hot_write_values_eventually_skip_mac() {
        let mut v = verifier();
        let s = sector_of([7 << 4; 8]);
        // Repeated writes of a hot pattern (e.g. zero-fill / constant fill):
        // once the values are pinned, MAC updates stop.
        let mut saw_skip = false;
        for _ in 0..20 {
            if v.screen_write(&s) == WriteScreen::SkipMac {
                saw_skip = true;
                break;
            }
        }
        assert!(saw_skip, "hot constant writes must eventually skip the MAC");
    }

    /// The soundness contract behind MAC skipping: once a write is screened
    /// `SkipMac`, the very next read of those bytes passes value
    /// verification — even after heavy cache churn — because the guarantee
    /// rests on pinned entries only.
    #[test]
    fn skip_mac_guarantee_survives_churn() {
        let mut v = verifier();
        let s = sector_of([7 << 4; 8]);
        while v.screen_write(&s) != WriteScreen::SkipMac {}
        // Churn: thousands of distinct transient values.
        for i in 0..10_000u32 {
            v.verify_read(&sector_of([
                i << 4,
                (i + 1) << 4,
                (i + 2) << 4,
                (i + 3) << 4,
                (i + 4) << 4,
                (i + 5) << 4,
                (i + 6) << 4,
                (i + 7) << 4,
            ]));
        }
        assert_eq!(v.verify_read(&s), Verdict::Verified);
    }

    #[test]
    fn screen_pinned_matches_skip_mac_guarantee() {
        let mut v = verifier();
        let s = sector_of([7 << 4; 8]);
        assert!(!v.screen_pinned(&s), "cold cache vouches for nothing");
        while v.screen_write(&s) != WriteScreen::SkipMac {}
        assert!(v.screen_pinned(&s), "a SkipMac write implies a pinned pass");
        // And it is non-mutating: repeated calls don't change stats.
        let stats = v.stats();
        v.screen_pinned(&s);
        assert_eq!(v.stats(), stats);
    }

    #[test]
    fn cold_write_updates_mac() {
        let mut v = verifier();
        assert_eq!(
            v.screen_write(&sector_of([
                11 << 4,
                22 << 4,
                33 << 4,
                44 << 4,
                55 << 4,
                66 << 4,
                77 << 4,
                88 << 4
            ])),
            WriteScreen::UpdateMac
        );
    }

    #[test]
    fn tampered_random_data_is_rejected() {
        // Simulate tamper diffusion: uniform random plaintext essentially
        // never scores 3-of-4 against 256 entries of 28-bit keys.
        let mut v = verifier();
        // Warm the cache with a realistic working set.
        for i in 0..256u32 {
            v.verify_read(&sector_of([i << 4; 8]));
        }
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        };
        let mut accepted = 0;
        for _ in 0..2000 {
            let s = sector_of([rng(), rng(), rng(), rng(), rng(), rng(), rng(), rng()]);
            if v.verify_read(&s) == Verdict::Verified {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 0, "uniform data must not pass value verification");
    }

    #[test]
    fn stats_accumulate() {
        let mut v = verifier();
        let s = sector_of([5 << 4; 8]);
        v.verify_read(&s);
        v.verify_read(&s);
        v.screen_write(&s);
        let (ok, need, _, with_mac) = v.stats();
        assert_eq!(ok, 1);
        assert_eq!(need, 1);
        assert_eq!(with_mac + v.stats().2, 1);
    }
}
