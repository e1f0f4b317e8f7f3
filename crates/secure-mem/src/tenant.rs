//! Per-tenant key management: master-seed key derivation, live key
//! rotation, and overflow-storm backpressure.
//!
//! # Key table
//!
//! Each tenant's XTS/CME data and tweak keys are derived from the
//! configuration's master seed, the tenant id, and a *generation*
//! number; MAC keys are derived from the seed and tenant only
//! (generation-stable), so a key rotation — which re-encrypts data under
//! the next-generation data key while leaving plaintext and counters
//! unchanged — never invalidates a stored MAC. That is what keeps
//! Phoenix-style MAC-probe crash recovery working across a rotation.
//!
//! # Rotation walk
//!
//! [`TenantCrypto::start_rotation`] bumps the tenant's generation and
//! opens an address-ordered walk over the tenant's slab. The invariant:
//! sectors below the walk frontier are encrypted under the new
//! generation, sectors at or past it under the old one, and both the
//! encrypt and decrypt paths select the cipher through the same
//! frontier ([`TenantCrypto::cipher_for`]), so the walk can be
//! suspended, crash-reverted, and resumed at any point. Engines advance
//! the walk a bounded number of sectors per memory access
//! (`rotation_sectors_per_step`), charging the re-encryption traffic to
//! their own plans.
//!
//! # Storm gate
//!
//! Counter-group overflows trigger group re-encryption storms. The gate
//! allows each tenant `storm_burst` inline overflows per window of
//! `storm_window` of its own writebacks; past that, the overflow's DRAM
//! traffic is deferred into a per-tenant queue and drained
//! (`storm_drain` requests at a time) into the *offender's* later
//! plans. The functional re-encryption always happens immediately —
//! only the bandwidth bill is deferred — so correctness is untouched
//! while victim tenants keep their share of the bus.

use crate::cipher::DataCipher;
use crate::config::CipherKind;
use gpu_sim::{BackingMemory, DramReq, FastHashMap, SectorAddr, TenantMap};
use std::collections::{BTreeSet, VecDeque};

/// Tenancy configuration attached to
/// [`SecureMemConfig`](crate::SecureMemConfig).
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyConfig {
    /// Address-range → tenant mapping (slabs must be 4 KiB-aligned so
    /// counter groups and fetch units never span tenants).
    pub map: TenantMap,
    /// Master seed every per-tenant key is derived from.
    pub master_seed: u64,
    /// Sectors re-encrypted per memory access while a rotation walk is
    /// live.
    pub rotation_sectors_per_step: u32,
    /// Inline counter-group overflow re-encryptions allowed per window.
    pub storm_burst: u32,
    /// Storm window length, counted in the tenant's own writebacks.
    pub storm_window: u32,
    /// Deferred storm requests drained per subsequent plan of the
    /// offending tenant.
    pub storm_drain: u32,
}

impl TenancyConfig {
    /// Tenancy over `map` with default rotation/storm pacing.
    pub fn new(map: TenantMap, master_seed: u64) -> Self {
        Self {
            map,
            master_seed,
            rotation_sectors_per_step: 8,
            storm_burst: 2,
            storm_window: 64,
            storm_drain: 4,
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn derive16(seed: u64, tenant: u32, generation: u32, purpose: u64) -> [u8; 16] {
    let mut x = splitmix64(seed ^ purpose);
    x = splitmix64(x ^ u64::from(tenant));
    x = splitmix64(x ^ u64::from(generation));
    let lo = splitmix64(x);
    let hi = splitmix64(lo ^ x);
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&lo.to_le_bytes());
    key[8..].copy_from_slice(&hi.to_le_bytes());
    key
}

/// Derives `tenant`'s data key for `generation`.
pub fn derive_data_key(seed: u64, tenant: u32, generation: u32) -> [u8; 16] {
    derive16(seed, tenant, generation, 0x11)
}

/// Derives `tenant`'s tweak key for `generation`.
pub fn derive_tweak_key(seed: u64, tenant: u32, generation: u32) -> [u8; 16] {
    derive16(seed, tenant, generation, 0x22)
}

/// Derives `tenant`'s MAC key. Deliberately generation-free: rotation
/// re-encrypts data without touching plaintext or counters, so stored
/// MACs stay valid across it.
pub fn derive_mac_key(seed: u64, tenant: u32) -> [u8; 16] {
    derive16(seed, tenant, 0, 0x33)
}

/// A live key-rotation walk over one tenant's slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationWalk {
    /// The tenant being rotated.
    pub tenant: u32,
    /// Next address to re-encrypt; everything below it is new-generation.
    pub frontier: u64,
    /// Exclusive end of the tenant's slab.
    pub end: u64,
}

#[derive(Debug, Clone)]
struct TenantCiphers {
    generation: u32,
    current: DataCipher,
    /// Previous-generation cipher, kept only while a rotation walk is
    /// mid-flight over this tenant's slab.
    old: Option<DataCipher>,
}

#[derive(Debug, Clone, Default)]
struct StormState {
    window_writebacks: u32,
    burst_used: u32,
    /// Deferred overflow traffic as `(request, is_write)`.
    deferred: VecDeque<(DramReq, bool)>,
}

/// Per-engine tenant key table, rotation walk, and storm gate.
#[derive(Debug, Clone)]
pub struct TenantCrypto {
    cfg: TenancyConfig,
    kind: CipherKind,
    ciphers: FastHashMap<u32, TenantCiphers>,
    walk: Option<RotationWalk>,
    /// Every sector this engine has encrypted — the rotation walk's work
    /// list. MAC tag tables under-count (Plutus legitimately skips MAC
    /// updates for pinned-value sectors), so ownership is tracked here.
    owned: BTreeSet<u64>,
    storm: FastHashMap<u32, StormState>,
    rotations_started: u64,
    rotations_completed: u64,
    rotated_sectors: u64,
    storm_suppressed: u64,
    storm_deferred_reqs: u64,
    storm_drained_reqs: u64,
}

impl TenantCrypto {
    /// Builds the key table for every tenant in the map (plus the
    /// default tenant 0 for unmapped addresses).
    pub fn new(kind: CipherKind, cfg: TenancyConfig) -> Self {
        let mut ids = cfg.map.tenants();
        if !ids.contains(&TenantMap::DEFAULT_TENANT) {
            ids.push(TenantMap::DEFAULT_TENANT);
        }
        let ciphers = ids
            .into_iter()
            .map(|t| {
                let c = Self::build_cipher(kind, cfg.master_seed, t, 0);
                (
                    t,
                    TenantCiphers {
                        generation: 0,
                        current: c,
                        old: None,
                    },
                )
            })
            .collect();
        Self {
            cfg,
            kind,
            ciphers,
            walk: None,
            owned: BTreeSet::new(),
            storm: FastHashMap::default(),
            rotations_started: 0,
            rotations_completed: 0,
            rotated_sectors: 0,
            storm_suppressed: 0,
            storm_deferred_reqs: 0,
            storm_drained_reqs: 0,
        }
    }

    fn build_cipher(kind: CipherKind, seed: u64, tenant: u32, generation: u32) -> DataCipher {
        DataCipher::from_keys(
            kind,
            derive_data_key(seed, tenant, generation),
            derive_tweak_key(seed, tenant, generation),
        )
    }

    /// The tenancy configuration.
    pub fn config(&self) -> &TenancyConfig {
        &self.cfg
    }

    /// The tenant owning `addr`.
    pub fn tenant_of(&self, addr: SectorAddr) -> u32 {
        self.cfg.map.tenant_of(addr)
    }

    /// `tenant`'s current key generation.
    pub fn generation_of(&self, tenant: u32) -> u32 {
        self.ciphers.get(&tenant).map_or(0, |c| c.generation)
    }

    /// The effective cipher for `addr`: the owning tenant's current
    /// generation, or — while a rotation walk is mid-flight and `addr`
    /// sits at or past the frontier — the previous generation.
    pub fn cipher_for(&self, addr: SectorAddr) -> &DataCipher {
        let t = self.tenant_of(addr);
        let st = &self.ciphers[&t];
        if let Some(w) = &self.walk {
            if w.tenant == t && addr.raw() >= w.frontier && addr.raw() < w.end {
                if let Some(old) = &st.old {
                    return old;
                }
            }
        }
        &st.current
    }

    /// Second cipher candidate for crash-recovery probes: the *new*
    /// generation, offered when a walk is mid-flight over `addr`. A
    /// crash reverts the frontier to the last checkpoint, so sectors the
    /// walk passed after it look old-generation to [`Self::cipher_for`]
    /// while memory actually holds new-generation ciphertext.
    pub fn pending_new_gen(&self, addr: SectorAddr) -> Option<&DataCipher> {
        let w = self.walk.as_ref()?;
        let t = self.tenant_of(addr);
        if w.tenant != t || addr.raw() < w.frontier || addr.raw() >= w.end {
            return None;
        }
        let st = &self.ciphers[&t];
        st.old.as_ref()?;
        Some(&st.current)
    }

    /// Begins a rotation walk for `tenant`. Refuses when a walk is
    /// already live, the tenant has no registered slab, or the tenant is
    /// unknown.
    pub fn start_rotation(&mut self, tenant: u32) -> bool {
        if self.walk.is_some() {
            return false;
        }
        let Some((start, end)) = self.cfg.map.range_of(tenant) else {
            return false;
        };
        let Some(st) = self.ciphers.get_mut(&tenant) else {
            return false;
        };
        let next = st.generation + 1;
        let fresh = Self::build_cipher(self.kind, self.cfg.master_seed, tenant, next);
        st.old = Some(std::mem::replace(&mut st.current, fresh));
        st.generation = next;
        self.walk = Some(RotationWalk {
            tenant,
            frontier: start,
            end,
        });
        self.rotations_started += 1;
        true
    }

    /// True while a rotation walk is live.
    pub fn rotation_active(&self) -> bool {
        self.walk.is_some()
    }

    /// `(frontier, end, sectors_per_step)` of the live walk.
    pub fn walk_window(&self) -> Option<(u64, u64, u32)> {
        self.walk
            .map(|w| (w.frontier, w.end, self.cfg.rotation_sectors_per_step))
    }

    /// Records `addr` as carrying ciphertext written by this engine.
    /// Engines call this on every data-sector encryption (install and
    /// writeback); crash recovery re-notes verified sectors, restoring
    /// entries a revert rolled back.
    pub fn note_owned(&mut self, addr: SectorAddr) {
        self.owned.insert(addr.raw());
    }

    /// Owned addresses inside `[start, end)`, ascending, at most
    /// `limit` — the rotation walk's next batch.
    pub fn owned_in_range(&self, start: u64, end: u64, limit: usize) -> Vec<SectorAddr> {
        self.owned
            .range(start..end)
            .take(limit)
            .map(|&a| SectorAddr::new(a))
            .collect()
    }

    /// Functionally re-encrypts a walk step's sectors from the old to the
    /// new generation under their unchanged counters (MACs need no
    /// update: MAC keys are generation-stable and the tag covers
    /// plaintext). One batched decrypt under the old generation and one
    /// batched encrypt under the new cover the whole step. Returns
    /// per-sector "memory changed" flags in input order.
    pub fn rotate_sectors(
        &mut self,
        items: &[(SectorAddr, u64)],
        mem: &mut BackingMemory,
    ) -> Vec<bool> {
        let mut changed = vec![false; items.len()];
        let Some(w) = self.walk else {
            return changed;
        };
        let st = &self.ciphers[&w.tenant];
        let Some(old) = &st.old else {
            return changed;
        };
        // Gather the resident sectors, run both generations' cipher work
        // as two batches, then scatter the results back to memory.
        let mut data: Vec<[u8; 32]> = Vec::with_capacity(items.len());
        let mut at: Vec<(SectorAddr, u64)> = Vec::with_capacity(items.len());
        let mut input_idx: Vec<usize> = Vec::with_capacity(items.len());
        for (i, &(addr, ctr)) in items.iter().enumerate() {
            if let Some(ct) = mem.read(addr) {
                data.push(ct);
                at.push((addr, ctr));
                input_idx.push(i);
            }
        }
        old.decrypt_many(&mut data, &at);
        st.current.encrypt_many(&mut data, &at);
        for ((&i, sector), &(addr, _)) in input_idx.iter().zip(data.iter()).zip(at.iter()) {
            mem.write(addr, *sector);
            changed[i] = true;
        }
        self.rotated_sectors += at.len() as u64;
        changed
    }

    /// Advances the walk frontier to `to` (never backwards).
    pub fn advance_frontier(&mut self, to: u64) {
        if let Some(w) = &mut self.walk {
            w.frontier = w.frontier.max(to);
        }
    }

    /// Completes the walk: the old-generation cipher is destroyed.
    pub fn finish_walk(&mut self) {
        if let Some(w) = self.walk.take() {
            if let Some(st) = self.ciphers.get_mut(&w.tenant) {
                st.old = None;
            }
            self.rotations_completed += 1;
        }
    }

    /// Post-crash-recovery frontier reconciliation: recovery proved
    /// every sector up to `max_new_gen` already carries the new
    /// generation (the walk is address-ordered), so the walk resumes
    /// just past it instead of re-encrypting twice.
    pub fn reconcile_frontier(&mut self, max_new_gen: Option<u64>) {
        if let (Some(w), Some(m)) = (&mut self.walk, max_new_gen) {
            w.frontier = w.frontier.max(m + gpu_sim::SECTOR_SIZE);
        }
    }

    /// Counts one writeback by `tenant`, opening a fresh storm window
    /// (and burst budget) when the current one ends.
    pub fn storm_tick(&mut self, tenant: u32) {
        let window = self.cfg.storm_window;
        let st = self.storm.entry(tenant).or_default();
        st.window_writebacks += 1;
        if st.window_writebacks >= window {
            st.window_writebacks = 0;
            st.burst_used = 0;
        }
    }

    /// Whether `tenant` may issue one more inline overflow
    /// re-encryption this window; charges the burst budget when granted.
    pub fn storm_admit(&mut self, tenant: u32) -> bool {
        let burst = self.cfg.storm_burst;
        let st = self.storm.entry(tenant).or_default();
        if st.burst_used < burst {
            st.burst_used += 1;
            true
        } else {
            self.storm_suppressed += 1;
            false
        }
    }

    /// Queues an over-budget overflow's DRAM traffic for later draining
    /// by the offender's own accesses.
    pub fn storm_defer(&mut self, tenant: u32, reads: Vec<DramReq>, writes: Vec<DramReq>) {
        self.storm_deferred_reqs += (reads.len() + writes.len()) as u64;
        let st = self.storm.entry(tenant).or_default();
        for r in reads {
            st.deferred.push_back((r, false));
        }
        for w in writes {
            st.deferred.push_back((w, true));
        }
    }

    /// Drains up to `storm_drain` deferred requests into `tenant`'s own
    /// plan.
    pub fn storm_drain_into(
        &mut self,
        tenant: u32,
        reads: &mut Vec<DramReq>,
        writes: &mut Vec<DramReq>,
    ) {
        let budget = self.cfg.storm_drain;
        let Some(st) = self.storm.get_mut(&tenant) else {
            return;
        };
        let mut drained = 0u64;
        for _ in 0..budget {
            let Some((req, is_write)) = st.deferred.pop_front() else {
                break;
            };
            if is_write {
                writes.push(req);
            } else {
                reads.push(req);
            }
            drained += 1;
        }
        self.storm_drained_reqs += drained;
    }

    /// Rotation/storm counters for the engine's `extra_stats`.
    pub fn extra_stats(&self) -> Vec<(String, u64)> {
        let backlog: u64 = self.storm.values().map(|s| s.deferred.len() as u64).sum();
        vec![
            ("rotations_started".into(), self.rotations_started),
            ("rotations_completed".into(), self.rotations_completed),
            ("rotated_sectors".into(), self.rotated_sectors),
            ("storm_suppressed_overflows".into(), self.storm_suppressed),
            ("storm_deferred_reqs".into(), self.storm_deferred_reqs),
            ("storm_drained_reqs".into(), self.storm_drained_reqs),
            ("storm_backlog_reqs".into(), backlog),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_map() -> TenantMap {
        let mut m = TenantMap::new();
        m.add_range(0, 0x1000, 1);
        m.add_range(0x1000, 0x2000, 2);
        m
    }

    fn crypto() -> TenantCrypto {
        TenantCrypto::new(CipherKind::Xts, TenancyConfig::new(two_tenant_map(), 42))
    }

    #[test]
    fn key_derivation_is_deterministic_and_tenant_separated() {
        assert_eq!(derive_data_key(1, 2, 0), derive_data_key(1, 2, 0));
        assert_ne!(derive_data_key(1, 2, 0), derive_data_key(1, 3, 0));
        assert_ne!(derive_data_key(1, 2, 0), derive_data_key(1, 2, 1));
        assert_ne!(derive_data_key(1, 2, 0), derive_data_key(2, 2, 0));
        assert_ne!(derive_data_key(1, 2, 0), derive_mac_key(1, 2));
        // MAC keys are generation-free by construction.
        assert_eq!(derive_mac_key(1, 2), derive_mac_key(1, 2));
    }

    #[test]
    fn tenants_get_distinct_ciphertexts() {
        let tc = crypto();
        let mut a = [7u8; 32];
        let mut b = [7u8; 32];
        // Same relative offset inside each slab, same counter.
        tc.cipher_for(SectorAddr::new(0x40))
            .encrypt(&mut a, SectorAddr::new(0x40), 1);
        tc.cipher_for(SectorAddr::new(0x1040))
            .encrypt(&mut b, SectorAddr::new(0x1040), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn rotation_walk_switches_cipher_at_frontier() {
        let mut tc = crypto();
        let addr_lo = SectorAddr::new(0x40);
        let addr_hi = SectorAddr::new(0x800);
        let mut before = [3u8; 32];
        tc.cipher_for(addr_lo).encrypt(&mut before, addr_lo, 5);
        assert!(tc.start_rotation(1));
        assert!(tc.rotation_active());
        // Everything ≥ frontier (= slab start) still uses the old key.
        let mut still_old = [3u8; 32];
        tc.cipher_for(addr_lo).encrypt(&mut still_old, addr_lo, 5);
        assert_eq!(still_old, before);
        // Advance the frontier past addr_lo: it flips to the new key.
        tc.advance_frontier(0x80);
        let mut now_new = [3u8; 32];
        tc.cipher_for(addr_lo).encrypt(&mut now_new, addr_lo, 5);
        assert_ne!(now_new, before);
        // addr_hi is still old-generation.
        let mut hi = [3u8; 32];
        tc.cipher_for(addr_hi).encrypt(&mut hi, addr_hi, 5);
        let mut hi_old = [3u8; 32];
        TenantCrypto::build_cipher(CipherKind::Xts, 42, 1, 0).encrypt(&mut hi_old, addr_hi, 5);
        assert_eq!(hi, hi_old);
        tc.finish_walk();
        assert!(!tc.rotation_active());
        assert_eq!(tc.generation_of(1), 1);
    }

    #[test]
    fn rotate_sector_roundtrips_through_memory() {
        let mut tc = crypto();
        let addr = SectorAddr::new(0x40);
        let plaintext = [0x5a_u8; 32];
        let mut ct = plaintext;
        tc.cipher_for(addr).encrypt(&mut ct, addr, 9);
        let mut mem = BackingMemory::new();
        mem.write(addr, ct);
        assert!(tc.start_rotation(1));
        assert_eq!(tc.rotate_sectors(&[(addr, 9)], &mut mem), vec![true]);
        tc.advance_frontier(addr.raw() + 32);
        // Decrypt through the effective cipher (now new-gen): bit-identical.
        let mut got = mem.read(addr).unwrap();
        tc.cipher_for(addr).decrypt(&mut got, addr, 9);
        assert_eq!(got, plaintext);
    }

    #[test]
    fn one_walk_at_a_time_and_unknown_tenants_refused() {
        let mut tc = crypto();
        assert!(!tc.start_rotation(9), "no slab registered");
        assert!(tc.start_rotation(1));
        assert!(!tc.start_rotation(2), "one walk at a time");
    }

    #[test]
    fn storm_gate_defers_past_burst_and_drains() {
        let mut tc = crypto();
        assert!(tc.storm_admit(1));
        assert!(tc.storm_admit(1));
        assert!(!tc.storm_admit(1), "burst budget is 2");
        // Other tenants have their own budget.
        assert!(tc.storm_admit(2));
        let reads = vec![DramReq::new(0, 32, gpu_sim::TrafficClass::Data)];
        let writes = vec![DramReq::new(0, 32, gpu_sim::TrafficClass::Data)];
        tc.storm_defer(1, reads, writes);
        let mut r = Vec::new();
        let mut w = Vec::new();
        tc.storm_drain_into(1, &mut r, &mut w);
        assert_eq!(r.len() + w.len(), 2);
        // Window rollover restores the burst budget.
        for _ in 0..64 {
            tc.storm_tick(1);
        }
        assert!(tc.storm_admit(1));
    }
}
