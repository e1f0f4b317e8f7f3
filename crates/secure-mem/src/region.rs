//! The protected region: the per-partition security state every engine
//! is built on.
//!
//! PSSM, Common Counters and Plutus protect a partition the same way:
//! one data cipher (or, under tenancy, a per-tenant key table with a
//! rotation walk and a storm gate), the split-counter system with its
//! Bonsai Merkle Tree, and per-sector MACs. They differ only in how a
//! read resolves its counter and whether the MAC is fetched or updated.
//! [`ProtectedRegion`] owns the shared state and every operation that
//! acts on it the same way in each engine:
//!
//! - effective-cipher selection, functional decrypt, encrypt-store and
//!   the batched image install;
//! - the background tenancy work of each access (one rotation-walk step
//!   and a drain of the tenant's deferred storm traffic), and the storm
//!   gate's booking of a counter-group overflow re-encryption;
//! - Phoenix-style crash recovery: the candidate-counter scan against the
//!   persistent MACs, the per-sector bookkeeping, and the crash revert
//!   that keeps the MAC store.
//!
//! An engine passes in what only it knows as closures: the live counter
//! of a sector, which sectors an overflow re-encryption must skip, and an
//! optional value screen that may vouch for a recovery candidate.

use crate::cipher::DataCipher;
use crate::config::SecureMemConfig;
use crate::counter_system::CounterSystem;
use crate::mac_system::MacSystem;
use crate::tenant::TenantCrypto;
use gpu_sim::{BackingMemory, DramReq, RecoveryReport, SectorAddr, TrafficClass, WritePlan};
use std::ops::Range;

/// Upper bound on split-counter candidates probed per sector during
/// crash recovery (128 group overflows past the checkpointed value).
const RECOVERY_PROBE_BOUND: u64 = 1 << 14;

/// Candidates decrypted and MAC-verified per batched cipher call during
/// the recovery scan.
const SCAN_CHUNK: u64 = 16;

/// A value screen that may vouch for a decrypted recovery candidate
/// whose MAC is legitimately stale (Plutus's pinned-value screen).
pub type Vouch<'a> = Option<&'a dyn Fn(&[u8; 32]) -> bool>;

/// A counter candidate that checked out during crash recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The candidate counter value.
    pub value: u64,
    /// Proven by the persistent MAC (vs vouched by the value screen).
    pub by_mac: bool,
    /// Verified under the pending new-generation cipher of a mid-flight
    /// key-rotation walk: the crash reverted the walk frontier, so the
    /// sector sits past it while memory holds new-generation ciphertext.
    pub new_gen: bool,
}

/// How crash recovery settled one sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Settled {
    /// The checkpointed counter already verifies against the MAC.
    Consistent {
        /// Verified under the pending new-generation cipher.
        new_gen: bool,
    },
    /// The engine adopted this candidate.
    Recovered(Candidate),
}

/// The shared per-partition security state of a secure engine.
#[derive(Debug, Clone)]
pub struct ProtectedRegion {
    cipher: DataCipher,
    /// Split counters, counter cache and BMT (attack hooks live here).
    pub counters: CounterSystem,
    /// Per-sector MACs and the MAC cache (attack hooks live here).
    pub macs: MacSystem,
    /// Per-tenant key table, rotation walk, and storm gate (multi-tenant
    /// operation only).
    tenancy: Option<TenantCrypto>,
    /// Fills served.
    pub fills: u64,
    /// Writebacks served.
    pub writebacks: u64,
}

impl ProtectedRegion {
    /// Builds the region's metadata systems from an already validated
    /// `cfg`.
    pub fn new(cfg: &SecureMemConfig) -> Self {
        Self {
            cipher: DataCipher::new(cfg),
            counters: CounterSystem::new(cfg),
            macs: MacSystem::new(cfg),
            tenancy: cfg
                .tenancy
                .clone()
                .map(|t| TenantCrypto::new(cfg.cipher, t)),
            fills: 0,
            writebacks: 0,
        }
    }

    /// True when the configured cipher overlaps pad generation with the
    /// data fetch (CME); XTS decrypts only after the data arrives.
    pub fn overlaps_fetch(&self) -> bool {
        self.cipher.overlaps_fetch()
    }

    /// The tenancy state, when the region serves several tenants.
    pub fn tenancy(&self) -> Option<&TenantCrypto> {
        self.tenancy.as_ref()
    }

    /// The tenant owning `addr` (tenancy only).
    pub fn tenant_of(&self, addr: SectorAddr) -> Option<u32> {
        self.tenancy.as_ref().map(|tc| tc.tenant_of(addr))
    }

    /// The effective cipher for `sector`: the single shared cipher, or —
    /// under tenancy — the owning tenant's current generation (old
    /// generation past a live rotation-walk frontier).
    pub fn cipher_for(&self, sector: SectorAddr) -> &DataCipher {
        match &self.tenancy {
            Some(tc) => tc.cipher_for(sector),
            None => &self.cipher,
        }
    }

    /// Decrypts (functionally) what memory holds for `sector` under
    /// counter `ctr` and the effective cipher.
    pub fn read_plaintext(&self, sector: SectorAddr, ctr: u64, mem: &BackingMemory) -> [u8; 32] {
        Self::read_plaintext_with(self.cipher_for(sector), sector, ctr, mem)
    }

    /// [`Self::read_plaintext`] under an explicit cipher.
    fn read_plaintext_with(
        cipher: &DataCipher,
        sector: SectorAddr,
        ctr: u64,
        mem: &BackingMemory,
    ) -> [u8; 32] {
        match mem.read(sector) {
            Some(mut ct) => {
                cipher.decrypt(&mut ct, sector, ctr);
                ct
            }
            None => [0; 32], // zero-initialized device memory
        }
    }

    /// Encrypts `plaintext` under counter `ctr` and the effective cipher,
    /// stores it, and records the sector as owned for rotation walks.
    pub fn encrypt_store(
        &mut self,
        addr: SectorAddr,
        plaintext: &[u8; 32],
        ctr: u64,
        mem: &mut BackingMemory,
    ) {
        let mut ct = *plaintext;
        self.cipher_for(addr).encrypt(&mut ct, addr, ctr);
        mem.write(addr, ct);
        if let Some(tc) = &mut self.tenancy {
            tc.note_owned(addr);
        }
    }

    /// Writes pre-kernel image sectors, in order, each under the counter
    /// `ctr` gives it, with their MACs and no traffic. The MACs run as
    /// one batched pass and the encrypts as one batched cipher call per
    /// cipher run.
    pub fn install(
        &mut self,
        image: &[(SectorAddr, [u8; 32])],
        ctr: impl Fn(&CounterSystem, SectorAddr) -> u64,
        mem: &mut BackingMemory,
    ) {
        let at: Vec<(SectorAddr, u64)> = image
            .iter()
            .map(|&(addr, _)| (addr, ctr(&self.counters, addr)))
            .collect();
        let mut data: Vec<[u8; 32]> = image.iter().map(|&(_, pt)| pt).collect();
        self.macs.update_silently_many(&data, &at);
        self.cipher_runs(&at, |c, r| {
            c.encrypt_many(&mut data[r.clone()], &at[r]);
        });
        for (ct, &(addr, _)) in data.iter().zip(&at) {
            mem.write(addr, *ct);
        }
        if let Some(tc) = &mut self.tenancy {
            for &(addr, _) in image {
                tc.note_owned(addr);
            }
        }
    }

    /// Counts one writeback against `addr`'s tenant's storm window.
    pub fn storm_tick(&mut self, addr: SectorAddr) {
        if let Some(tc) = &mut self.tenancy {
            let t = tc.tenant_of(addr);
            tc.storm_tick(t);
        }
    }

    /// The background tenancy work that rides on every access's plan:
    /// one rotation-walk step, then a drain of `addr`'s tenant's deferred
    /// storm backlog (the offender pays, victims do not). `live` gives a
    /// sector's current counter, which the walk re-encrypts under.
    pub fn background_step(
        &mut self,
        addr: SectorAddr,
        mem: &mut BackingMemory,
        reads: &mut Vec<DramReq>,
        writes: &mut Vec<DramReq>,
        live: impl Fn(&CounterSystem, SectorAddr) -> u64,
    ) {
        self.rotation_step(mem, reads, writes, live);
        if let Some(tc) = &mut self.tenancy {
            let t = tc.tenant_of(addr);
            tc.storm_drain_into(t, reads, writes);
        }
    }

    /// Advances a live key-rotation walk by at most
    /// `rotation_sectors_per_step` sectors, charging each re-encryption
    /// as a Data-class read + write on the current plan. The frontier
    /// moves only after the batch, so in-batch decrypts still see the
    /// old generation.
    fn rotation_step(
        &mut self,
        mem: &mut BackingMemory,
        reads: &mut Vec<DramReq>,
        writes: &mut Vec<DramReq>,
        live: impl Fn(&CounterSystem, SectorAddr) -> u64,
    ) {
        let Some(tc) = &mut self.tenancy else {
            return;
        };
        let Some((frontier, end, step)) = tc.walk_window() else {
            return;
        };
        let step = step as usize;
        // The work list is the ownership registry, not the MAC tag
        // table: MAC-skip sectors carry ciphertext but no stored tag.
        let addrs = tc.owned_in_range(frontier, end, step);
        let done = addrs.len() < step;
        // One batched rotate call re-encrypts the whole step: the old and
        // new generations' cipher blocks each run as a single batch.
        let items: Vec<(SectorAddr, u64)> = addrs
            .iter()
            .map(|&a| (a, live(&self.counters, a)))
            .collect();
        let last = items.last().map_or(frontier, |&(a, _)| a.raw());
        for (&(addr, _), changed) in items.iter().zip(tc.rotate_sectors(&items, mem)) {
            if changed {
                reads.push(DramReq::new(addr.raw(), 32, TrafficClass::Data));
                writes.push(DramReq::new(addr.raw(), 32, TrafficClass::Data));
            }
        }
        if done {
            tc.finish_walk();
        } else {
            tc.advance_frontier(last + 32);
        }
    }

    /// Re-encrypts the counter group that overflowed on a write to
    /// `written` and books its traffic: inline on `plan` within the
    /// tenant's storm burst budget, deferred to the offender's own later
    /// accesses past it. The functional re-encryption always happens
    /// now; only the bandwidth bill is deferred. `skip` names group
    /// members the re-encryption must leave alone.
    pub fn book_overflow(
        &mut self,
        written: SectorAddr,
        old_values: &[u64],
        new_value: u64,
        mem: &mut BackingMemory,
        plan: &mut WritePlan,
        skip: impl Fn(SectorAddr) -> bool,
    ) {
        let (reads, writes) = self.reencrypt_group(written, old_values, new_value, mem, skip);
        if let Some(tc) = &mut self.tenancy {
            let t = tc.tenant_of(written);
            if !tc.storm_admit(t) {
                tc.storm_defer(t, reads, writes);
                return;
            }
        }
        plan.async_reads.extend(reads);
        plan.writes.extend(writes);
    }

    /// Re-encrypts every resident sector of `written`'s counter group
    /// (bar `written` itself, which the caller re-encrypts, and `skip`'d
    /// members) under the shared new counter, refreshing MACs. Returns
    /// the DRAM reads and writes the re-encryption costs.
    fn reencrypt_group(
        &mut self,
        written: SectorAddr,
        old_values: &[u64],
        new_value: u64,
        mem: &mut BackingMemory,
        skip: impl Fn(SectorAddr) -> bool,
    ) -> (Vec<DramReq>, Vec<DramReq>) {
        let group = self.counters.layout().group_of(written);
        let first = self.counters.layout().group_first_sector(group);
        // Gather the group's resident sectors, then run the old-counter
        // decrypts, new-counter encrypts, and MAC refreshes as three
        // batches instead of sector-at-a-time.
        let mut data: Vec<[u8; 32]> = Vec::with_capacity(old_values.len());
        let mut old_at: Vec<(SectorAddr, u64)> = Vec::with_capacity(old_values.len());
        for (i, old) in old_values.iter().enumerate() {
            let sector = SectorAddr::new(first.raw() + (i as u64) * 32);
            if sector == written || skip(sector) {
                continue;
            }
            let Some(ct) = mem.read(sector) else {
                continue;
            };
            data.push(ct);
            old_at.push((sector, *old));
        }
        self.cipher_runs(&old_at, |c, r| {
            c.decrypt_many(&mut data[r.clone()], &old_at[r]);
        });
        let plaintexts = data.clone();
        let new_at: Vec<(SectorAddr, u64)> = old_at.iter().map(|&(s, _)| (s, new_value)).collect();
        self.cipher_runs(&new_at, |c, r| {
            c.encrypt_many(&mut data[r.clone()], &new_at[r]);
        });
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for (ct, &(sector, _)) in data.iter().zip(new_at.iter()) {
            mem.write(sector, *ct);
            reads.push(DramReq::new(sector.raw(), 32, TrafficClass::Data));
            writes.push(DramReq::new(sector.raw(), 32, TrafficClass::Data));
        }
        self.macs.update_silently_many(&plaintexts, &new_at);
        (reads, writes)
    }

    /// Splits `at` into maximal runs of consecutive sectors sharing one
    /// effective cipher (tenant boundaries are slab-aligned, so this is
    /// nearly always one run) and hands each run to `f` for one batched
    /// cipher call.
    fn cipher_runs(&self, at: &[(SectorAddr, u64)], mut f: impl FnMut(&DataCipher, Range<usize>)) {
        let mut start = 0;
        while start < at.len() {
            let cipher = self.cipher_for(at[start].0);
            let mut end = start + 1;
            while end < at.len() && std::ptr::eq(cipher, self.cipher_for(at[end].0)) {
                end += 1;
            }
            f(cipher, start..end);
            start = end;
        }
    }

    /// Scans candidate counters `values` (bar `skip`) for `addr` in
    /// order and returns the first that checks out. Per candidate the
    /// checks run in a fixed order: the persistent MAC under the
    /// effective cipher, then — while a rotation walk is mid-flight over
    /// `addr` — under the pending new generation (MAC keys are
    /// generation-stable, so the tag arbitrates), then `vouch` on each
    /// generation's plaintext. The decrypts and MAC checks run as batched
    /// cipher calls over chunks of the scan; walking each chunk's
    /// verdicts in candidate order keeps the first-match semantics.
    pub fn scan(
        &self,
        addr: SectorAddr,
        values: Range<u64>,
        skip: Option<u64>,
        vouch: Vouch<'_>,
        mem: &BackingMemory,
    ) -> Option<Candidate> {
        let pending = self
            .tenancy
            .as_ref()
            .and_then(|tc| tc.pending_new_gen(addr));
        let effective = self.cipher_for(addr);
        let ct = mem.read(addr);
        let mut v = values.start;
        while v < values.end {
            let chunk_end = values.end.min(v + SCAN_CHUNK);
            let at: Vec<(SectorAddr, u64)> = (v..chunk_end)
                .filter(|&x| Some(x) != skip)
                .map(|x| (addr, x))
                .collect();
            v = chunk_end;
            if at.is_empty() {
                continue;
            }
            let eff_pts = decrypt_candidates(effective, ct, &at);
            let eff_mac = self.macs.verify_many(&eff_pts, &at);
            let pend = pending.map(|cipher| {
                let pts = decrypt_candidates(cipher, ct, &at);
                let ok = self.macs.verify_many(&pts, &at);
                (pts, ok)
            });
            for (i, &(_, value)) in at.iter().enumerate() {
                let found = |by_mac, new_gen| {
                    Some(Candidate {
                        value,
                        by_mac,
                        new_gen,
                    })
                };
                if eff_mac[i] {
                    return found(true, false);
                }
                if pend.as_ref().is_some_and(|(_, ok)| ok[i]) {
                    return found(true, true);
                }
                if let Some(vouch) = vouch {
                    if vouch(&eff_pts[i]) {
                        return found(false, false);
                    }
                    if pend.as_ref().is_some_and(|(pts, _)| vouch(&pts[i])) {
                        return found(false, true);
                    }
                }
            }
        }
        None
    }

    /// Scans the split-counter candidates upward from the recovery floor
    /// (bar `skip`, the value already checked). The floor clears the
    /// minor: a group overflow since the checkpoint zeroes every minor, so
    /// the true value can sit below the reverted one once a neighbour has
    /// already restored the group's shared major.
    pub fn floor_scan(
        &self,
        addr: SectorAddr,
        skip: u64,
        vouch: Vouch<'_>,
        mem: &BackingMemory,
    ) -> Option<Candidate> {
        let base = self.counters.recovery_floor(addr);
        let end = base.saturating_add(RECOVERY_PROBE_BOUND);
        self.scan(addr, base..end, Some(skip), vouch, mem)
    }

    /// Repairs the MAC of a value-vouched candidate in place, decrypting
    /// under the generation the candidate verified with.
    pub fn repair_mac(&mut self, addr: SectorAddr, cand: Candidate, mem: &BackingMemory) {
        let pt = if cand.new_gen {
            match self
                .tenancy
                .as_ref()
                .and_then(|tc| tc.pending_new_gen(addr))
            {
                Some(cipher) => Self::read_plaintext_with(cipher, addr, cand.value, mem),
                None => return,
            }
        } else {
            self.read_plaintext(addr, cand.value, mem)
        };
        self.macs.update_silently(addr, &pt, cand.value);
    }

    /// Phoenix-style crash recovery over `sectors`: `settle` proves (and
    /// adopts) each sector's counter, or returns `None` when no candidate
    /// checks out. Every settled sector is re-noted as owned — the revert
    /// may have rolled the registry back past sectors that verifiably
    /// hold our ciphertext, and a rotation walk must not skip them — and
    /// the walk frontier resumes past the highest sector proven to carry
    /// the new generation (the walk is address-ordered, so everything up
    /// to it is done).
    pub fn recover(
        &mut self,
        sectors: &[SectorAddr],
        mut settle: impl FnMut(&mut Self, SectorAddr) -> Option<Settled>,
    ) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let mut max_new_gen: Option<u64> = None;
        for &addr in sectors {
            let Some(settled) = settle(self, addr) else {
                report.failed.push(addr.raw());
                continue;
            };
            let new_gen = match settled {
                Settled::Consistent { new_gen } => {
                    report.already_consistent += 1;
                    new_gen
                }
                Settled::Recovered(c) => {
                    if c.by_mac {
                        report.recovered_by_mac += 1;
                    } else {
                        report.recovered_by_value += 1;
                    }
                    c.new_gen
                }
            };
            if new_gen {
                max_new_gen = Some(max_new_gen.map_or(addr.raw(), |m| m.max(addr.raw())));
            }
            if let Some(tc) = &mut self.tenancy {
                tc.note_owned(addr);
            }
        }
        if let Some(tc) = &mut self.tenancy {
            tc.reconcile_frontier(max_new_gen);
        }
        report
    }

    /// Second half of a crash revert, after the engine was reset to a
    /// clone of its checkpoint: carries the crashed region's MAC store
    /// across. MACs are modeled write-through persistent, so they survive
    /// the crash and anchor recovery; everything else here is volatile.
    pub fn keep_persistent(&mut self, crashed: ProtectedRegion) {
        self.macs = crashed.macs;
    }

    /// Starts a key rotation for `tenant` (tenancy only).
    pub fn start_key_rotation(&mut self, tenant: u32) -> bool {
        self.tenancy
            .as_mut()
            .is_some_and(|tc| tc.start_rotation(tenant))
    }

    /// True while a rotation walk is live.
    pub fn rotation_active(&self) -> bool {
        self.tenancy.as_ref().is_some_and(|tc| tc.rotation_active())
    }

    /// The statistics every engine reports first, in this order: fills,
    /// writebacks, counter-cache and BMT stats, MAC-cache stats.
    pub fn stats_prefix(&self) -> Vec<(String, u64)> {
        let (ch, cm, bf, bh) = self.counters.stats();
        let (mh, mm) = self.macs.stats();
        vec![
            ("fills".into(), self.fills),
            ("writebacks".into(), self.writebacks),
            ("ctr_cache_hits".into(), ch),
            ("ctr_cache_misses".into(), cm),
            ("bmt_node_fetches".into(), bf),
            ("bmt_node_hits".into(), bh),
            ("mac_cache_hits".into(), mh),
            ("mac_cache_misses".into(), mm),
        ]
    }
}

/// Decrypts the (single) resident ciphertext under every candidate
/// counter in one batched call; a non-resident sector reads as zeros
/// under any counter, matching [`ProtectedRegion::read_plaintext_with`].
fn decrypt_candidates(
    cipher: &DataCipher,
    ct: Option<[u8; 32]>,
    at: &[(SectorAddr, u64)],
) -> Vec<[u8; 32]> {
    let mut pts = vec![ct.unwrap_or([0; 32]); at.len()];
    if ct.is_some() {
        cipher.decrypt_many(&mut pts, at);
    }
    pts
}
