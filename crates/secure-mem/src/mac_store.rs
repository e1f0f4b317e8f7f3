//! Functional per-sector MAC storage.
//!
//! MACs are stateful (keyed over plaintext **and** the `(address, counter)`
//! tweak), so a replayed `(ciphertext, MAC)` pair fails verification against
//! the current counter. A sector with no stored tag is interpreted as
//! never-written zero-initialized memory: its expected tag is the MAC of an
//! all-zero sector under counter 0.
//!
//! Tags live in a [`BlockMap`], one record per 128 B block. A slot
//! without a tag is a never-written sector, so it still verifies against
//! the zero-sector expectation.

use crate::block_map::BlockMap;
use crate::tenant::derive_mac_key;
use gpu_sim::{FastHashMap, SectorAddr, TenantMap};
use plutus_crypto::{Cmac, Tweak};

/// One sector's stored tag; `present` is false until the sector is
/// written. Packed, so a block's four slots take 36 bytes rather than
/// the 64 of `Option<u64>` slots.
#[repr(C, packed)]
#[derive(Debug, Clone, Copy, Default)]
struct TagSlot {
    present: bool,
    tag: u64,
}

impl TagSlot {
    fn stored(tag: u64) -> Self {
        Self { present: true, tag }
    }
}

/// Functional MAC table with configurable truncation.
#[derive(Debug, Clone)]
pub struct MacStore {
    /// Stored tags.
    tags: BlockMap<TagSlot>,
    cmac: Cmac,
    /// Per-tenant CMACs (multi-tenant operation). Keys are derived
    /// generation-free, so live key rotation never invalidates a tag.
    tenants: Option<(TenantMap, FastHashMap<u32, Cmac>)>,
    mask: u64,
}

impl MacStore {
    /// Creates a store truncating tags to `mac_bytes` (≤ 8 stored here).
    ///
    /// # Panics
    ///
    /// Panics if `mac_bytes` is 0 or greater than 8.
    pub fn new(key: [u8; 16], mac_bytes: u32) -> Self {
        assert!(
            (1..=8).contains(&mac_bytes),
            "mac_bytes must be 1..=8, got {mac_bytes}"
        );
        let mask = if mac_bytes == 8 {
            u64::MAX
        } else {
            (1u64 << (mac_bytes * 8)) - 1
        };
        Self {
            tags: BlockMap::default(),
            cmac: Cmac::new(key),
            tenants: None,
            mask,
        }
    }

    /// Switches to per-tenant MAC keys derived from `seed` for every
    /// tenant in `map` (plus the default tenant for unmapped addresses).
    pub fn set_tenant_keys(&mut self, map: TenantMap, seed: u64) {
        let mut ids = map.tenants();
        if !ids.contains(&TenantMap::DEFAULT_TENANT) {
            ids.push(TenantMap::DEFAULT_TENANT);
        }
        let keys = ids
            .into_iter()
            .map(|t| (t, Cmac::new(derive_mac_key(seed, t))))
            .collect();
        self.tenants = Some((map, keys));
    }

    fn cmac_of(&self, addr: SectorAddr) -> &Cmac {
        match &self.tenants {
            Some((map, keys)) => keys.get(&map.tenant_of(addr)).unwrap_or(&self.cmac),
            None => &self.cmac,
        }
    }

    /// Computes the truncated tag of `plaintext` under `(addr, counter)`.
    pub fn compute(&self, plaintext: &[u8; 32], addr: SectorAddr, counter: u64) -> u64 {
        self.cmac_of(addr)
            .stateful_tag64(plaintext, Tweak::new(addr.raw(), counter))
            & self.mask
    }

    /// Computes the truncated tags of many sectors in one batched CMAC
    /// pass, grouping multi-tenant inputs by key so every group's chains
    /// run in lockstep.
    ///
    /// # Panics
    ///
    /// Panics if `plaintexts.len() != at.len()`.
    pub fn compute_many(&self, plaintexts: &[[u8; 32]], at: &[(SectorAddr, u64)]) -> Vec<u64> {
        assert_eq!(
            plaintexts.len(),
            at.len(),
            "one (addr, counter) per plaintext"
        );
        let tweaks: Vec<Tweak> = at.iter().map(|&(a, c)| Tweak::new(a.raw(), c)).collect();
        match &self.tenants {
            None => self
                .cmac
                .stateful_tag64_many(plaintexts, &tweaks)
                .into_iter()
                .map(|t| t & self.mask)
                .collect(),
            Some((map, _)) => {
                // Partition by tenant key, batch each partition, scatter
                // the tags back in input order.
                let mut groups: FastHashMap<u32, Vec<usize>> = FastHashMap::default();
                for (i, (addr, _)) in at.iter().enumerate() {
                    groups.entry(map.tenant_of(*addr)).or_default().push(i);
                }
                let mut tags = vec![0u64; at.len()];
                for (tenant, indices) in groups {
                    let cmac = self.cmac_of_tenant(tenant);
                    let group_pts: Vec<[u8; 32]> = indices.iter().map(|&i| plaintexts[i]).collect();
                    let group_tweaks: Vec<Tweak> = indices.iter().map(|&i| tweaks[i]).collect();
                    for (&i, tag) in indices
                        .iter()
                        .zip(cmac.stateful_tag64_many(&group_pts, &group_tweaks))
                    {
                        tags[i] = tag & self.mask;
                    }
                }
                tags
            }
        }
    }

    fn cmac_of_tenant(&self, tenant: u32) -> &Cmac {
        match &self.tenants {
            Some((_, keys)) => keys.get(&tenant).unwrap_or(&self.cmac),
            None => &self.cmac,
        }
    }

    /// Verifies many `(plaintext, counter)` candidates in one batched
    /// pass, preserving input order (see [`MacStore::verify`] for the
    /// missing-tag fallback).
    ///
    /// # Panics
    ///
    /// Panics if `plaintexts.len() != at.len()`.
    pub fn verify_many(&self, plaintexts: &[[u8; 32]], at: &[(SectorAddr, u64)]) -> Vec<bool> {
        self.compute_many(plaintexts, at)
            .into_iter()
            .zip(at.iter())
            .map(|(tag, (addr, _))| tag == self.expected_tag(*addr))
            .collect()
    }

    /// The stored tag for `addr`, or the never-written zero-sector
    /// expectation.
    fn expected_tag(&self, addr: SectorAddr) -> u64 {
        let slot = self.tags.get(addr);
        if slot.present {
            slot.tag
        } else {
            self.compute(&[0; 32], addr, 0)
        }
    }

    /// Stores the tag for a freshly written sector.
    pub fn update(&mut self, addr: SectorAddr, plaintext: &[u8; 32], counter: u64) {
        *self.tags.slot_mut(addr) = TagSlot::stored(self.compute(plaintext, addr, counter));
    }

    /// Stores the tags of many freshly written sectors, computing them as
    /// one batch.
    ///
    /// # Panics
    ///
    /// Panics if `plaintexts.len() != at.len()`.
    pub fn update_many(&mut self, plaintexts: &[[u8; 32]], at: &[(SectorAddr, u64)]) {
        let tags = self.compute_many(plaintexts, at);
        for (&(addr, _), tag) in at.iter().zip(tags) {
            *self.tags.slot_mut(addr) = TagSlot::stored(tag);
        }
    }

    /// Verifies `plaintext` against the stored tag under the current
    /// counter. Missing tags fall back to the zero-sector/zero-counter
    /// expectation.
    pub fn verify(&self, addr: SectorAddr, plaintext: &[u8; 32], counter: u64) -> bool {
        self.compute(plaintext, addr, counter) == self.expected_tag(addr)
    }

    /// Attack hook: flips the low bit of the stored tag (tampering with the
    /// MAC block in DRAM).
    pub fn tamper(&mut self, addr: SectorAddr) {
        *self.tags.slot_mut(addr) = TagSlot::stored(self.expected_tag(addr) ^ 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> MacStore {
        MacStore::new([7; 16], 8)
    }

    #[test]
    fn update_then_verify() {
        let mut m = store();
        let a = SectorAddr::new(0x100);
        m.update(a, &[5; 32], 3);
        assert!(m.verify(a, &[5; 32], 3));
    }

    #[test]
    fn wrong_plaintext_fails() {
        let mut m = store();
        let a = SectorAddr::new(0x100);
        m.update(a, &[5; 32], 3);
        assert!(!m.verify(a, &[6; 32], 3));
    }

    #[test]
    fn stale_counter_fails_replay() {
        let mut m = store();
        let a = SectorAddr::new(0x100);
        m.update(a, &[5; 32], 4);
        // Attacker replays the old data under the old counter; the engine
        // verifies with the *current* counter.
        assert!(!m.verify(a, &[5; 32], 3));
    }

    #[test]
    fn unwritten_sector_verifies_as_zero() {
        let m = store();
        assert!(m.verify(SectorAddr::new(0x40), &[0; 32], 0));
        assert!(!m.verify(SectorAddr::new(0x40), &[1; 32], 0));
    }

    #[test]
    fn tamper_breaks_verification() {
        let mut m = store();
        let a = SectorAddr::new(0x40);
        m.update(a, &[9; 32], 1);
        m.tamper(a);
        assert!(!m.verify(a, &[9; 32], 1));
    }

    #[test]
    fn truncation_masks_tag() {
        let m4 = MacStore::new([7; 16], 4);
        let t = m4.compute(&[1; 32], SectorAddr::new(0), 0);
        assert!(t <= u32::MAX as u64);
    }

    #[test]
    #[should_panic(expected = "mac_bytes")]
    fn rejects_oversized_mac() {
        MacStore::new([0; 16], 9);
    }

    #[test]
    fn tenant_keys_separate_tags() {
        let mut map = TenantMap::new();
        map.add_range(0, 0x1000, 1);
        map.add_range(0x1000, 0x2000, 2);
        let mut m = store();
        let shared_key_tag = m.compute(&[5; 32], SectorAddr::new(0x40), 3);
        m.set_tenant_keys(map, 99);
        let t1 = m.compute(&[5; 32], SectorAddr::new(0x40), 3);
        // Same plaintext/counter, same slab offset, different tenant key.
        let t2 = m.compute(&[5; 32], SectorAddr::new(0x1040), 3);
        assert_ne!(t1, shared_key_tag);
        // Tweak already differs by address; the stronger check is that
        // tenant 1's tag under tenant 2's address-tweak differs too —
        // covered by key derivation tests; here assert tags are stable.
        assert_eq!(t1, m.compute(&[5; 32], SectorAddr::new(0x40), 3));
        assert_ne!(t1, t2);
    }

    #[test]
    fn batch_compute_update_verify_match_serial() {
        // Single-tenant and multi-tenant stores must both produce the
        // serial tags through the batched paths.
        let mut tenant_store = store();
        let mut map = TenantMap::new();
        map.add_range(0, 0x1000, 1);
        map.add_range(0x1000, 0x2000, 2);
        tenant_store.set_tenant_keys(map, 99);
        for mut m in [store(), tenant_store] {
            let at: Vec<(SectorAddr, u64)> = (0..12u64)
                .map(|i| (SectorAddr::new(0x800 + 0x100 * i), i + 1))
                .collect();
            let plaintexts: Vec<[u8; 32]> = (0..12u8).map(|i| [i.wrapping_mul(41); 32]).collect();
            let batch = m.compute_many(&plaintexts, &at);
            for ((pt, &(addr, ctr)), tag) in plaintexts.iter().zip(at.iter()).zip(batch.iter()) {
                assert_eq!(*tag, m.compute(pt, addr, ctr));
            }
            m.update_many(&plaintexts, &at);
            let ok = m.verify_many(&plaintexts, &at);
            assert!(ok.iter().all(|&v| v), "freshly updated tags must verify");
            let mut wrong = plaintexts.clone();
            wrong[5][0] ^= 1;
            let mixed = m.verify_many(&wrong, &at);
            assert!(!mixed[5], "tampered sector must fail in the batch");
            assert!(mixed.iter().enumerate().all(|(i, &v)| v || i == 5));
        }
    }
}
