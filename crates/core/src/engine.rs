//! The Plutus security engine: the paper's three techniques composed
//! behind the simulator's [`SecurityEngine`] interface.
//!
//! Per L2 read miss (paper Fig. 11, left):
//!
//! 1. **Counter** — the compact layer resolves the write counter on-chip
//!    cheaply when enabled; saturated/disabled sectors fall back to the
//!    original split counters + BMT (charged as a *second*, sequential
//!    access, exactly the double-lookup cost the adaptive variant avoids).
//! 2. **Decrypt** — AES-XTS after the data arrives (GPU warps hide the
//!    serialization).
//! 3. **Verify** — the decrypted values probe the value cache; a sector
//!    scoring ≥ 3 hits per 128-bit half is *verified without its MAC*.
//!    Otherwise the MAC is fetched **after** decryption (`post_chain`) and
//!    checked — the deferred-MAC serialization the paper accepts in
//!    exchange for eliminating most MAC traffic.
//!
//! Per writeback (paper Fig. 11, right): the compact counter advances (or
//! propagates into the original on saturation); the sector's values are
//! screened against the *pinned* region — hits there guarantee the next
//! read passes value verification, so the MAC update itself is skipped.
//!
//! Everything else — the cipher and tenant key table, the split counters
//! and MACs, the rotation walk, the storm gate, group re-encryption and
//! crash recovery — is the [`ProtectedRegion`] the PSSM baseline also
//! builds on; this engine adds the verifier, the compact layer, the
//! degradation ladder and the skip-MAC decision.

use crate::compact::CompactCounters;
use crate::config::PlutusConfig;
use crate::verify::{ValueVerifier, Verdict, WriteScreen};
use gpu_sim::{
    BackingMemory, DramReq, EngineFactory, FastHashMap, FillPlan, MetaFault, RecoveryError,
    RecoveryReport, SectorAddr, SecurityEngine, Violation, WritePlan,
};
use plutus_telemetry::{Counter, Event, Telemetry, TraceId, Tracer};
use secure_mem::{
    Candidate, CounterAccess, CounterSystem, ProtectedRegion, SecureMemError, Settled, Vouch,
};
use std::collections::{BTreeMap, BTreeSet};

/// Fill failures (retries or escalations) before the value-cache fast path
/// is frozen and every read pays full MAC verification.
const VERIFIER_FREEZE_FAILURES: u64 = 4;

/// Fill failures attributed to one compact-counter block before the block
/// is frozen onto the split-counter path.
const BLOCK_FREEZE_FAILURES: u32 = 8;

/// The Plutus engine (one per memory partition).
#[derive(Debug, Clone)]
pub struct PlutusEngine {
    cfg: PlutusConfig,
    region: ProtectedRegion,
    verifier: Option<ValueVerifier>,
    compact: Option<CompactCounters>,
    mac_fetches_avoided: u64,
    mac_updates_skipped: u64,
    compact_fallbacks: u64,
    fill_failures: u64,
    verifier_frozen: bool,
    /// Per-tenant ladder state (tenancy only): an attacked tenant's
    /// value-cache freeze never widens to other tenants.
    tenant_fill_failures: BTreeMap<u32, u64>,
    frozen_tenants: BTreeSet<u32>,
    block_failures: FastHashMap<u64, u32>,
    blocks_frozen: u64,
    tel: Telemetry,
    tel_mac_avoided: Counter,
    tel_mac_skipped: Counter,
    tel_compact_fallbacks: Counter,
    tracer: Tracer,
    /// Trace root of the demand access currently being served (set by
    /// the simulator via `begin_access_trace`), so engine-internal
    /// causal marks attribute to the right access.
    cur_trace: TraceId,
}

impl PlutusEngine {
    /// Builds an engine from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: PlutusConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an engine from `cfg`, returning a typed error instead of
    /// panicking when the configuration is invalid (the CLI path).
    pub fn try_new(cfg: PlutusConfig) -> Result<Self, SecureMemError> {
        cfg.validate()
            .map_err(|reason| SecureMemError::InvalidConfig { reason })?;
        Ok(Self {
            region: ProtectedRegion::new(&cfg.mem),
            verifier: cfg
                .value_verify
                .then(|| ValueVerifier::new(cfg.value_cache)),
            compact: cfg.compact.map(|cc| {
                CompactCounters::with_tree_disabled(
                    cc,
                    cfg.mem.protected_bytes,
                    cfg.mem.partitions,
                    cfg.mem.bmt_key,
                    cfg.mem.disable_tree,
                )
            }),
            cfg,
            mac_fetches_avoided: 0,
            mac_updates_skipped: 0,
            compact_fallbacks: 0,
            fill_failures: 0,
            verifier_frozen: false,
            tenant_fill_failures: BTreeMap::new(),
            frozen_tenants: BTreeSet::new(),
            block_failures: FastHashMap::default(),
            blocks_frozen: 0,
            tel: Telemetry::disabled(),
            tel_mac_avoided: Counter::disabled(),
            tel_mac_skipped: Counter::disabled(),
            tel_compact_fallbacks: Counter::disabled(),
            tracer: Tracer::disabled(),
            cur_trace: TraceId::NONE,
        })
    }

    /// An [`EngineFactory`] producing one engine per partition.
    pub fn factory(cfg: PlutusConfig) -> PlutusFactory {
        PlutusFactory { cfg }
    }

    /// The protected region (attack hooks on the counter and MAC systems
    /// live here).
    pub fn region_mut(&mut self) -> &mut ProtectedRegion {
        &mut self.region
    }

    /// The compact layer, if enabled.
    pub fn compact_mut(&mut self) -> Option<&mut CompactCounters> {
        self.compact.as_mut()
    }

    /// Resolves the read counter: compact layer first, original on
    /// fallback. Returns `(value, chain, hit)` with auxiliary traffic
    /// merged into the plan buffers.
    fn resolve_read_counter(
        &mut self,
        addr: SectorAddr,
        chain: &mut Vec<gpu_sim::DramReq>,
        async_reads: &mut Vec<gpu_sim::DramReq>,
        writes: &mut Vec<gpu_sim::DramReq>,
        violation: &mut Option<Violation>,
    ) -> (u64, bool) {
        if let Some(compact) = self.compact.as_mut() {
            let ca = compact.read(addr);
            chain.extend(ca.chain);
            writes.extend(ca.writes);
            if violation.is_none() {
                *violation = ca.violation;
            }
            if let Some(v) = ca.counter {
                return (v, ca.hit);
            }
            // Saturated or disabled: the original counter path follows,
            // sequentially (the paper's two-access cost).
            self.compact_fallbacks += 1;
            self.tel_compact_fallbacks.inc();
            self.tracer
                .mark(self.cur_trace, "compact_fallback", addr.raw(), 0);
        }
        let oa = self.region.counters.read(addr);
        let hit = oa.hit;
        Self::merge_counter(oa, chain, async_reads, writes, violation);
        (self.region.counters.peek_value(addr), hit)
    }

    fn merge_counter(
        oa: CounterAccess,
        chain: &mut Vec<gpu_sim::DramReq>,
        async_reads: &mut Vec<gpu_sim::DramReq>,
        writes: &mut Vec<gpu_sim::DramReq>,
        violation: &mut Option<Violation>,
    ) {
        chain.extend(oa.chain);
        async_reads.extend(oa.async_reads);
        writes.extend(oa.writes);
        if violation.is_none() {
            *violation = oa.violation;
        }
    }

    /// Merges an original-counter advance into the write plan; when it
    /// overflowed the counter group, the region re-encrypts the group.
    /// Returns the sector's new counter value.
    fn advance_original(
        &mut self,
        addr: SectorAddr,
        mut oa: CounterAccess,
        chain: &mut Vec<DramReq>,
        plan: &mut WritePlan,
        mem: &mut BackingMemory,
    ) -> u64 {
        let value = oa.value;
        let old_values = oa.overflow_old_values.take();
        Self::merge_counter(
            oa,
            chain,
            &mut plan.async_reads,
            &mut plan.writes,
            &mut plan.violation,
        );
        if let Some(old) = old_values {
            self.tracer.mark(
                self.cur_trace,
                "counter_overflow_spill",
                addr.raw(),
                old.len() as u64,
            );
            // Sectors still in the compact regime are encrypted under
            // their compact counter; the original-counter reset does not
            // affect them.
            let compact = &self.compact;
            self.region
                .book_overflow(addr, &old, value, mem, plan, |s| {
                    compact.as_ref().is_some_and(|c| !c.uses_original(s))
                });
        }
        value
    }

    /// True while the value-verification fast path is in use (configured
    /// and not frozen by the degradation ladder). Under tenancy this is
    /// the any-tenant view; [`Self::verifier_active_for`] scopes it to
    /// one tenant.
    pub fn verifier_active(&self) -> bool {
        self.verifier.is_some() && !self.verifier_frozen
    }

    /// True when `tenant`'s value-verification fast path is still live
    /// (tenancy only; single-tenant callers use
    /// [`Self::verifier_active`]).
    pub fn verifier_active_for(&self, tenant: u32) -> bool {
        self.verifier.is_some() && !self.verifier_frozen && !self.frozen_tenants.contains(&tenant)
    }

    /// Whether the degradation ladder has frozen the fast path for reads
    /// of `addr`: per-tenant under tenancy, global otherwise.
    fn verifier_frozen_for(&self, addr: SectorAddr) -> bool {
        if self.verifier_frozen {
            return true;
        }
        self.region
            .tenant_of(addr)
            .is_some_and(|t| self.frozen_tenants.contains(&t))
    }
}

/// The counter a read of `addr` would decrypt with right now, without
/// generating traffic: the compact value while that layer serves the
/// sector, the original split value otherwise.
fn live_counter(
    compact: Option<&CompactCounters>,
    counters: &CounterSystem,
    addr: SectorAddr,
) -> u64 {
    compact
        .and_then(|c| c.peek_live(addr))
        .unwrap_or_else(|| counters.peek_value(addr))
}

/// Phoenix-style recovery of one sector: the live value first, then the
/// compact range, then the split range from the recovery floor. The
/// persistent MAC proves a candidate; failing that, the pinned-value
/// `screen` may vouch for a sector whose MAC update was legitimately
/// skipped, and the MAC is repaired in place.
fn settle(
    region: &mut ProtectedRegion,
    compact: &mut Option<CompactCounters>,
    screen: Vouch<'_>,
    addr: SectorAddr,
    mem: &BackingMemory,
) -> Option<Settled> {
    let live = live_counter(compact.as_ref(), &region.counters, addr);
    if let Some(c) = region.scan(addr, live..live + 1, None, screen, mem) {
        if c.by_mac {
            return Some(Settled::Consistent { new_gen: c.new_gen });
        }
        region.repair_mac(addr, c, mem);
        return Some(Settled::Recovered(c));
    }
    let compact_range = compact
        .as_ref()
        .filter(|c| !c.is_disabled(addr))
        .map(|c| 0..u64::from(c.kind().saturation()));
    let c = compact_range
        .and_then(|range| region.scan(addr, range, Some(live), screen, mem))
        .or_else(|| region.floor_scan(addr, live, screen, mem))?;
    accept_candidate(region, compact, addr, c, mem);
    Some(Settled::Recovered(c))
}

/// Accepts candidate `c` for `addr`: places the value in the layer that
/// serves the sector and repairs the MAC if it was vouched by value.
fn accept_candidate(
    region: &mut ProtectedRegion,
    compact: &mut Option<CompactCounters>,
    addr: SectorAddr,
    c: Candidate,
    mem: &BackingMemory,
) {
    let compact_live = match compact.as_ref() {
        Some(cc) if !cc.is_disabled(addr) => c.value < u64::from(cc.kind().saturation()),
        _ => false,
    };
    if compact_live {
        compact
            .as_mut()
            .expect("checked above")
            .restore_value(addr, c.value as u8);
    } else {
        region.counters.restore_value(addr, c.value);
        // A sector recovered past the compact range must read as
        // saturated so the original path serves it.
        if let Some(cc) = compact.as_mut() {
            if !cc.is_disabled(addr) {
                let sat = cc.kind().saturation();
                cc.restore_value(addr, sat);
            }
        }
    }
    if !c.by_mac {
        region.repair_mac(addr, c, mem);
    }
}

impl SecurityEngine for PlutusEngine {
    fn name(&self) -> &'static str {
        "plutus"
    }

    fn install(&mut self, addr: SectorAddr, plaintext: &[u8; 32], mem: &mut BackingMemory) {
        self.install_image(&[(addr, *plaintext)], mem);
    }

    fn install_image(&mut self, image: &[(SectorAddr, [u8; 32])], mem: &mut BackingMemory) {
        // Counter 0 in both the compact and original layers.
        self.region.install(image, |_, _| 0, mem);
    }

    fn on_fill(&mut self, addr: SectorAddr, mem: &mut BackingMemory) -> FillPlan {
        self.region.fills += 1;
        let mut plan = FillPlan::default();
        let mut chain = Vec::new();
        let (ctr, ctr_hit) = self.resolve_read_counter(
            addr,
            &mut chain,
            &mut plan.async_reads,
            &mut plan.writes,
            &mut plan.violation,
        );
        if !chain.is_empty() {
            plan.pre_chains.push(chain);
        }

        let plaintext = self.region.read_plaintext(addr, ctr, mem);
        plan.plaintext = plaintext;

        let lat = self.cfg.mem.latencies;
        // Decrypt: XTS serializes after data; CME (compact-only ablations)
        // overlaps unless the counter had to be fetched.
        plan.crypto_latency = if self.region.overlaps_fetch() {
            if ctr_hit {
                0
            } else {
                lat.aes_latency
            }
        } else {
            lat.aes_latency
        };

        let frozen = self.verifier_frozen_for(addr);
        let verdict = if frozen {
            // Degraded mode (global, or this address's tenant): the fast
            // path is frozen; every read takes the conventional
            // parallel-MAC branch below.
            None
        } else {
            self.verifier.as_mut().map(|v| v.verify_read(&plaintext))
        };
        match verdict {
            Some(Verdict::Verified) => {
                // Integrity assured by value locality: no MAC at all.
                plan.verified_by_value = true;
                self.mac_fetches_avoided += 1;
                self.tel_mac_avoided.inc();
                self.tracer
                    .mark(self.cur_trace, "value_vouch", addr.raw(), 0);
            }
            Some(Verdict::NeedMac) => {
                // Deferred MAC: fetched only now, after decryption. A
                // mismatch here means the value screen rejected the sector
                // and the deferred MAC confirmed it (Fig. 11 read flow) —
                // attributed to the value-verification layer.
                let ma = self.region.macs.read(addr);
                plan.post_chain = ma.chain;
                plan.writes.extend(ma.writes);
                plan.post_latency = lat.mac_latency;
                if !self.region.macs.verify(addr, &plaintext, ctr) && plan.violation.is_none() {
                    plan.violation = Some(Violation::ValueMismatch { addr });
                }
            }
            None => {
                // Value verification disabled or frozen: conventional
                // parallel MAC.
                let ma = self.region.macs.read(addr);
                if !ma.chain.is_empty() {
                    plan.pre_chains.push(ma.chain);
                }
                plan.writes.extend(ma.writes);
                plan.crypto_latency += lat.mac_latency;
                if !self.region.macs.verify(addr, &plaintext, ctr) && plan.violation.is_none() {
                    // A sector whose MAC update was legitimately skipped
                    // before the freeze has no fresh MAC; the pinned-value
                    // screen (the guarantee skip-MAC relied on) still
                    // vouches for it. Repair the MAC so the fallback is
                    // one-time.
                    let vouched = frozen
                        && self
                            .verifier
                            .as_ref()
                            .is_some_and(|v| v.screen_pinned(&plaintext));
                    if vouched {
                        self.region.macs.update_silently(addr, &plaintext, ctr);
                    } else {
                        plan.violation = Some(Violation::MacMismatch { addr });
                    }
                }
            }
        }
        let compact = self.compact.as_ref();
        self.region.background_step(
            addr,
            mem,
            &mut plan.async_reads,
            &mut plan.writes,
            |c, a| live_counter(compact, c, a),
        );
        plan
    }

    fn on_writeback(
        &mut self,
        addr: SectorAddr,
        plaintext: &[u8; 32],
        mem: &mut BackingMemory,
    ) -> WritePlan {
        self.region.writebacks += 1;
        let mut plan = WritePlan::default();
        let mut chain = Vec::new();
        self.region.storm_tick(addr);

        // Advance the counter through the compact layer when present.
        let ctr = if let Some(compact) = self.compact.as_mut() {
            let ca = compact.increment(addr);
            chain.extend(ca.chain);
            plan.writes.extend(ca.writes);
            if plan.violation.is_none() {
                plan.violation = ca.violation;
            }
            let propagate = ca.propagate;
            let block_disable = ca.block_disable.clone();
            let value = match ca.counter {
                Some(v) => v,
                None => {
                    let oa = if let Some(sat) = propagate {
                        // Saturating write: copy the compact value into the
                        // original split counter.
                        self.region.counters.raise_to(addr, sat)
                    } else {
                        self.compact_fallbacks += 1;
                        self.tel_compact_fallbacks.inc();
                        self.tracer
                            .mark(self.cur_trace, "compact_fallback", addr.raw(), 0);
                        self.region.counters.increment(addr)
                    };
                    self.advance_original(addr, oa, &mut chain, &mut plan, mem)
                }
            };
            // Adaptive block disable: copy every unsaturated compact value
            // into the original counters (no re-encryption needed).
            if let Some(copies) = block_disable {
                for (s, v) in copies {
                    let oa = self.region.counters.raise_to(s, v);
                    Self::merge_counter(
                        oa,
                        &mut chain,
                        &mut plan.async_reads,
                        &mut plan.writes,
                        &mut plan.violation,
                    );
                }
            }
            value
        } else {
            let oa = self.region.counters.increment(addr);
            self.advance_original(addr, oa, &mut chain, &mut plan, mem)
        };
        if !chain.is_empty() {
            plan.pre_chains.push(chain);
        }

        self.region.encrypt_store(addr, plaintext, ctr, mem);

        // MAC update, unless the pinned value screen guarantees the next
        // read verifies by value.
        let lat = self.cfg.mem.latencies;
        let screen = if self.verifier_frozen_for(addr) {
            None // degraded mode: never skip MAC updates
        } else {
            self.verifier.as_mut().map(|v| v.screen_write(plaintext))
        };
        let skip = match screen {
            Some(WriteScreen::SkipMac) => {
                self.mac_updates_skipped += 1;
                self.tel_mac_skipped.inc();
                self.tracer.mark(self.cur_trace, "mac_skip", addr.raw(), 0);
                true
            }
            _ => false,
        };
        if skip {
            plan.crypto_latency = lat.aes_latency;
        } else {
            let ma = self.region.macs.write(addr, plaintext, ctr);
            plan.writes.extend(ma.writes);
            plan.crypto_latency = lat.aes_latency + lat.mac_latency;
        }
        let compact = self.compact.as_ref();
        self.region.background_step(
            addr,
            mem,
            &mut plan.async_reads,
            &mut plan.writes,
            |c, a| live_counter(compact, c, a),
        );
        plan
    }

    fn attach_telemetry(&mut self, tel: &Telemetry) {
        self.region.attach_telemetry(tel);
        if let Some(v) = self.verifier.as_mut() {
            v.attach_telemetry(tel);
        }
        if let Some(c) = self.compact.as_mut() {
            c.attach_telemetry(tel);
        }
        self.tel_mac_avoided = tel.counter("engine.mac_fetches_avoided");
        self.tel_mac_skipped = tel.counter("engine.mac_updates_skipped");
        self.tel_compact_fallbacks = tel.counter("engine.compact_fallbacks");
        self.tracer = tel.tracer();
        self.tel = tel.clone();
    }

    fn begin_access_trace(&mut self, id: TraceId) {
        self.cur_trace = id;
    }

    fn extra_stats(&self) -> Vec<(String, u64)> {
        let mut out = self.region.stats_prefix();
        out.push(("mac_fetches_avoided".into(), self.mac_fetches_avoided));
        out.push(("mac_updates_skipped".into(), self.mac_updates_skipped));
        out.push(("compact_fallbacks".into(), self.compact_fallbacks));
        if let Some(v) = &self.verifier {
            let (ok, need, wskip, wmac) = v.stats();
            let (vh, vm, promo) = v.cache().stats();
            out.push(("vv_reads_verified".into(), ok));
            out.push(("vv_reads_need_mac".into(), need));
            out.push(("vv_writes_skipped".into(), wskip));
            out.push(("vv_writes_with_mac".into(), wmac));
            out.push(("value_cache_hits".into(), vh));
            out.push(("value_cache_misses".into(), vm));
            out.push(("value_cache_promotions".into(), promo));
        }
        if let Some(c) = &self.compact {
            let (h, m, sat, dis, tf) = c.stats();
            out.push(("compact_cache_hits".into(), h));
            out.push(("compact_cache_misses".into(), m));
            out.push(("compact_saturations".into(), sat));
            out.push(("compact_block_disables".into(), dis));
            out.push(("compact_tree_fetches".into(), tf));
        }
        out.push(("fill_failures".into(), self.fill_failures));
        out.push((
            "degraded_verifier_frozen".into(),
            u64::from(self.verifier_frozen),
        ));
        out.push(("degraded_blocks_frozen".into(), self.blocks_frozen));
        if let Some(tc) = self.region.tenancy() {
            out.extend(tc.extra_stats());
            for (&t, &n) in &self.tenant_fill_failures {
                out.push((format!("ladder_fill_failures_t{t}"), n));
            }
            for &t in &self.frozen_tenants {
                out.push((format!("ladder_frozen_t{t}"), 1));
            }
        }
        out
    }

    fn start_key_rotation(&mut self, tenant: u32) -> bool {
        self.region.start_key_rotation(tenant)
    }

    fn rotation_active(&self) -> bool {
        self.region.rotation_active()
    }

    fn inject_fault(&mut self, addr: SectorAddr, fault: MetaFault) -> bool {
        // While a sector's live counter is served by the compact layer, the
        // original split counter (and the main BMT protecting it) are never
        // consulted on its read path — faults against them are not applied,
        // so campaigns don't count honest-data reads as escapes.
        let original_live = self.compact.as_ref().is_none_or(|c| c.uses_original(addr));
        match fault {
            MetaFault::RollbackCounter { value } => {
                original_live && self.region.counters.tamper_minor(addr, value)
            }
            MetaFault::TamperMac => {
                self.region.macs.tamper(addr);
                true
            }
            MetaFault::TamperBmtNode => {
                if original_live {
                    self.region.counters.tamper_bmt(addr);
                }
                original_live
            }
            MetaFault::RollbackCompact { value } => match self.compact.as_mut() {
                Some(c) if !c.uses_original(addr) => c.tamper(addr, value),
                _ => false,
            },
        }
    }

    fn note_fill_failure(&mut self, addr: SectorAddr, _recovered: bool) {
        self.fill_failures += 1;
        if let Some(tenant) = self.region.tenant_of(addr) {
            // Tenancy: the ladder is scoped to the failing address's
            // tenant — an attacked tenant's freeze never widens.
            let n = self.tenant_fill_failures.entry(tenant).or_insert(0);
            *n += 1;
            if *n >= VERIFIER_FREEZE_FAILURES
                && self.verifier.is_some()
                && self.frozen_tenants.insert(tenant)
            {
                if self.tel.enabled() {
                    self.tel.event(Event::Degraded {
                        mode: format!("value_cache_disabled_t{tenant}"),
                        addr: addr.raw(),
                    });
                }
                self.tracer.mark(self.cur_trace, "degrade", addr.raw(), 1);
            }
        } else if !self.verifier_frozen
            && self.verifier.is_some()
            && self.fill_failures >= VERIFIER_FREEZE_FAILURES
        {
            self.verifier_frozen = true;
            if self.tel.enabled() {
                self.tel.event(Event::Degraded {
                    mode: "value_cache_disabled".into(),
                    addr: addr.raw(),
                });
            }
            self.tracer.mark(self.cur_trace, "degrade", addr.raw(), 1);
        }
        if let Some(compact) = self.compact.as_mut() {
            let block = compact.block_index(addr);
            let n = self.block_failures.entry(block).or_insert(0);
            *n += 1;
            if *n >= BLOCK_FREEZE_FAILURES && !compact.is_disabled(addr) {
                // Freeze the failing block onto the split-counter path.
                // The transition is out-of-band (no DRAM traffic charged):
                // it is rare and its copies move counter state only.
                let copies = compact.freeze_block(addr);
                for (s, v) in copies {
                    let _ = self.region.counters.raise_to(s, v);
                }
                self.blocks_frozen += 1;
                if self.tel.enabled() {
                    self.tel.event(Event::Degraded {
                        mode: "compact_block_frozen".into(),
                        addr: addr.raw(),
                    });
                }
                self.tracer.mark(self.cur_trace, "degrade", addr.raw(), 2);
            }
        }
    }

    fn checkpoint(&self) -> Option<Box<dyn SecurityEngine>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn crash_revert(&mut self, checkpoint: &dyn SecurityEngine) -> bool {
        let Some(ck) = checkpoint
            .as_any()
            .and_then(|a| a.downcast_ref::<PlutusEngine>())
        else {
            return false;
        };
        // MACs are write-through persistent; the pinned value set is tiny,
        // monotone, and flushed on promotion — both survive the crash.
        let crashed = std::mem::replace(self, ck.clone());
        self.region.keep_persistent(crashed.region);
        if let (Some(v), Some(old)) = (self.verifier.as_mut(), crashed.verifier.as_ref()) {
            v.graft_pinned(&old.pinned_keys());
        }
        true
    }

    fn recover(
        &mut self,
        mem: &BackingMemory,
        sectors: &[SectorAddr],
    ) -> Result<RecoveryReport, RecoveryError> {
        let verifier = self.verifier.as_ref();
        let screen = |pt: &[u8; 32]| verifier.is_some_and(|v| v.screen_pinned(pt));
        let compact = &mut self.compact;
        Ok(self.region.recover(sectors, |region, addr| {
            settle(region, compact, Some(&screen), addr, mem)
        }))
    }

    fn peek_plaintext(&self, addr: SectorAddr, mem: &BackingMemory) -> Option<[u8; 32]> {
        let ctr = live_counter(self.compact.as_ref(), &self.region.counters, addr);
        Some(self.region.read_plaintext(addr, ctr, mem))
    }
}

/// Factory building [`PlutusEngine`] instances per partition.
#[derive(Debug, Clone)]
pub struct PlutusFactory {
    cfg: PlutusConfig,
}

impl EngineFactory for PlutusFactory {
    fn build(&self, _partition: usize) -> Box<dyn SecurityEngine> {
        Box::new(PlutusEngine::new(self.cfg.clone()))
    }

    fn scheme_name(&self) -> &'static str {
        "plutus"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::CompactKind;
    use gpu_sim::TrafficClass;

    fn engine() -> (PlutusEngine, BackingMemory) {
        (
            PlutusEngine::new(PlutusConfig::test_small()),
            BackingMemory::new(),
        )
    }

    fn sector(i: u64) -> SectorAddr {
        SectorAddr::new(i * 32)
    }

    #[test]
    fn write_then_read_roundtrips() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[0x42; 32], &mut mem);
        let fill = e.on_fill(sector(0), &mut mem);
        assert_eq!(fill.plaintext, [0x42; 32]);
        assert!(fill.violation.is_none());
    }

    #[test]
    fn install_then_read_roundtrips() {
        let (mut e, mut mem) = engine();
        e.install(sector(5), &[9; 32], &mut mem);
        let fill = e.on_fill(sector(5), &mut mem);
        assert_eq!(fill.plaintext, [9; 32]);
        assert!(fill.violation.is_none());
    }

    #[test]
    fn first_fill_uses_compact_not_original_counters() {
        let (mut e, mut mem) = engine();
        let fill = e.on_fill(sector(0), &mut mem);
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(classes.contains(&TrafficClass::CompactCounter));
        assert!(
            !classes.contains(&TrafficClass::Counter),
            "unsaturated sectors must not touch original counters"
        );
        assert!(!classes.contains(&TrafficClass::BmtNode));
    }

    #[test]
    fn repeated_value_reads_avoid_mac_entirely() {
        let (mut e, mut mem) = engine();
        // Two sectors with the same hot values in the same MAC unit region.
        e.install(sector(0), &[0x11; 32], &mut mem);
        e.install(sector(100), &[0x11; 32], &mut mem);
        let first = e.on_fill(sector(0), &mut mem);
        // Cold value cache: MAC deferred-fetched.
        assert!(!first.post_chain.is_empty() || first.post_latency > 0);
        let second = e.on_fill(sector(100), &mut mem);
        // Values now cached: no MAC fetch, no MAC latency.
        assert!(second.post_chain.is_empty());
        assert_eq!(second.post_latency, 0);
        assert!(second.violation.is_none());
        assert!(e.mac_fetches_avoided >= 1);
    }

    #[test]
    fn hot_writes_skip_mac_updates() {
        let (mut e, mut mem) = engine();
        for i in 0..30u64 {
            e.on_writeback(sector(i), &[0x77; 32], &mut mem);
        }
        assert!(
            e.mac_updates_skipped > 0,
            "hot constant writes must skip MAC updates"
        );
        // And the skipped sectors still read back clean (value-verified).
        for i in 0..30u64 {
            let fill = e.on_fill(sector(i), &mut mem);
            assert_eq!(fill.plaintext, [0x77; 32]);
            assert!(
                fill.violation.is_none(),
                "skip-MAC sector must verify by value"
            );
        }
    }

    #[test]
    fn data_tamper_detected() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[0x42; 32], &mut mem);
        let mut mask = [0u8; 32];
        mask[7] = 0x20;
        mem.corrupt(sector(0), &mask);
        let fill = e.on_fill(sector(0), &mut mem);
        assert!(
            fill.violation.is_some(),
            "tampered data must fail value verification and then the MAC"
        );
    }

    #[test]
    fn replay_detected() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        let old = mem.snapshot(sector(0)).unwrap();
        e.on_writeback(sector(0), &[2; 32], &mut mem);
        assert!(mem.replay(sector(0), old));
        let fill = e.on_fill(sector(0), &mut mem);
        assert!(
            fill.violation.is_some(),
            "replayed ciphertext must be detected"
        );
    }

    #[test]
    fn compact_saturation_falls_back_to_original() {
        let (mut e, mut mem) = engine();
        // 3-bit compact saturates on the 7th write.
        for _ in 0..7 {
            e.on_writeback(sector(0), &[5; 32], &mut mem);
        }
        // Counter continuity across the handoff.
        let fill = e.on_fill(sector(0), &mut mem);
        assert_eq!(fill.plaintext, [5; 32]);
        assert!(fill.violation.is_none());
        // Further writes use the original path.
        e.on_writeback(sector(0), &[6; 32], &mut mem);
        let fill = e.on_fill(sector(0), &mut mem);
        assert_eq!(fill.plaintext, [6; 32]);
        assert!(fill.violation.is_none());
    }

    #[test]
    fn adaptive_disable_keeps_all_sectors_readable() {
        let (mut e, mut mem) = engine();
        // Partially write one sector, then saturate 8 others to trigger the
        // block disable with a pending unsaturated copy.
        e.on_writeback(sector(60), &[0xee; 32], &mut mem);
        for s in 0..8u64 {
            for _ in 0..7 {
                e.on_writeback(sector(s), &[s as u8; 32], &mut mem);
            }
        }
        let (.., disables, _) = e.compact_mut().unwrap().stats();
        assert!(
            disables >= 1,
            "threshold saturations must disable the block"
        );
        // Every sector still decrypts and verifies.
        let fill = e.on_fill(sector(60), &mut mem);
        assert_eq!(fill.plaintext, [0xee; 32]);
        assert!(fill.violation.is_none());
        for s in 0..8u64 {
            let fill = e.on_fill(sector(s), &mut mem);
            assert_eq!(fill.plaintext, [s as u8; 32]);
            assert!(fill.violation.is_none());
        }
    }

    #[test]
    fn value_only_config_uses_original_counters() {
        let mut cfg = PlutusConfig::value_verify_only();
        cfg.mem.protected_bytes = 1 << 20;
        let mut e = PlutusEngine::new(cfg);
        let mut mem = BackingMemory::new();
        let fill = e.on_fill(sector(0), &mut mem);
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(classes.contains(&TrafficClass::Counter));
        assert!(!classes.contains(&TrafficClass::CompactCounter));
    }

    #[test]
    fn compact_only_config_fetches_mac_in_parallel() {
        let mut cfg = PlutusConfig::compact_only(CompactKind::Adaptive3);
        cfg.mem.protected_bytes = 1 << 20;
        let mut e = PlutusEngine::new(cfg);
        let mut mem = BackingMemory::new();
        let fill = e.on_fill(sector(0), &mut mem);
        assert!(
            fill.post_chain.is_empty(),
            "no deferred MAC without value verification"
        );
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(classes.contains(&TrafficClass::Mac));
    }

    #[test]
    fn no_tree_mode_removes_tree_traffic() {
        let mut cfg = PlutusConfig::full_no_tree();
        cfg.mem.protected_bytes = 1 << 20;
        let mut e = PlutusEngine::new(cfg);
        let mut mem = BackingMemory::new();
        // Saturate a sector so the original counter path is exercised too.
        for _ in 0..8 {
            e.on_writeback(sector(0), &[1; 32], &mut mem);
        }
        let fill = e.on_fill(sector(0), &mut mem);
        let classes: Vec<_> = fill
            .pre_chains
            .iter()
            .flat_map(|c| c.iter().map(|r| r.class))
            .collect();
        assert!(!classes.contains(&TrafficClass::BmtNode));
        assert!(fill.violation.is_none());
    }

    #[test]
    fn frozen_verifier_keeps_skip_mac_sectors_readable() {
        let (mut e, mut mem) = engine();
        for i in 0..30u64 {
            e.on_writeback(sector(i), &[0x77; 32], &mut mem);
        }
        assert!(e.mac_updates_skipped > 0, "test needs skip-MAC sectors");
        for _ in 0..VERIFIER_FREEZE_FAILURES {
            e.note_fill_failure(sector(0), true);
        }
        assert!(!e.verifier_active(), "ladder must freeze the fast path");
        // Sectors with no fresh MAC are vouched by the pinned screen.
        for i in 0..30u64 {
            let fill = e.on_fill(sector(i), &mut mem);
            assert_eq!(fill.plaintext, [0x77; 32]);
            assert!(fill.violation.is_none(), "sector {i} spuriously flagged");
        }
        // Degraded mode still detects real tampering.
        let mut mask = [0u8; 32];
        mask[3] = 9;
        mem.corrupt(sector(0), &mask);
        assert!(e.on_fill(sector(0), &mut mem).violation.is_some());
    }

    #[test]
    fn degraded_engine_still_detects_replay() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem);
        for _ in 0..VERIFIER_FREEZE_FAILURES {
            e.note_fill_failure(sector(9), true);
        }
        let old = mem.snapshot(sector(0)).unwrap();
        e.on_writeback(sector(0), &[2; 32], &mut mem);
        assert!(mem.replay(sector(0), old));
        assert!(e.on_fill(sector(0), &mut mem).violation.is_some());
    }

    #[test]
    fn repeated_block_failures_freeze_compact_block() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem); // compact value 1
        for _ in 0..BLOCK_FREEZE_FAILURES {
            e.note_fill_failure(sector(0), true);
        }
        assert!(e.compact_mut().unwrap().uses_original(sector(0)));
        // The copied counter keeps the sector decryptable on the new path.
        let fill = e.on_fill(sector(0), &mut mem);
        assert_eq!(fill.plaintext, [1; 32]);
        assert!(fill.violation.is_none());
        let stats = e.extra_stats();
        let frozen = stats
            .iter()
            .find(|(n, _)| n == "degraded_blocks_frozen")
            .unwrap()
            .1;
        assert_eq!(frozen, 1);
    }

    #[test]
    fn crash_recovery_restores_compact_and_split_state() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[1; 32], &mut mem); // compact regime
        for _ in 0..9 {
            e.on_writeback(sector(1), &[2; 32], &mut mem); // saturates → split
        }
        let ck = e.checkpoint().expect("plutus supports checkpointing");
        e.on_writeback(sector(0), &[3; 32], &mut mem);
        e.on_writeback(sector(1), &[4; 32], &mut mem);
        e.on_writeback(sector(5), &[5; 32], &mut mem); // first write post-ck
        assert!(e.crash_revert(ck.as_ref()));
        let report = e.recover(&mem, &mem.resident_addrs()).unwrap();
        assert!(report.failed.is_empty(), "failed: {:?}", report.failed);
        for (s, want) in [(0u64, [3u8; 32]), (1, [4; 32]), (5, [5; 32])] {
            let f = e.on_fill(sector(s), &mut mem);
            assert_eq!(f.plaintext, want, "sector {s} diverged after recovery");
            assert!(f.violation.is_none(), "sector {s} spuriously flagged");
        }
    }

    #[test]
    fn crash_recovery_vouches_skip_mac_sectors_by_pinned_values() {
        let (mut e, mut mem) = engine();
        // Pin a hot pattern; later writes of it skip their MAC updates.
        for i in 0..30u64 {
            e.on_writeback(sector(i), &[0x77; 32], &mut mem);
        }
        assert!(e.mac_updates_skipped > 0);
        let ck = e.checkpoint().unwrap();
        e.on_writeback(sector(40), &[0x77; 32], &mut mem); // skip-MAC, post-ck
        assert!(e.crash_revert(ck.as_ref()));
        let report = e.recover(&mem, &mem.resident_addrs()).unwrap();
        assert!(report.failed.is_empty(), "failed: {:?}", report.failed);
        assert!(
            report.recovered_by_value >= 1,
            "pinned screen must vouch for MAC-skipped sectors"
        );
        let f = e.on_fill(sector(40), &mut mem);
        assert_eq!(f.plaintext, [0x77; 32]);
        assert!(f.violation.is_none());
    }

    #[test]
    fn peek_plaintext_tracks_live_counter_across_layers() {
        let (mut e, mut mem) = engine();
        e.on_writeback(sector(0), &[8; 32], &mut mem); // compact regime
        assert_eq!(e.peek_plaintext(sector(0), &mem), Some([8; 32]));
        for _ in 0..9 {
            e.on_writeback(sector(1), &[6; 32], &mut mem); // split regime
        }
        assert_eq!(e.peek_plaintext(sector(1), &mem), Some([6; 32]));
    }

    #[test]
    fn stats_expose_technique_counters() {
        let (mut e, mut mem) = engine();
        e.on_fill(sector(0), &mut mem);
        let stats = e.extra_stats();
        for key in [
            "mac_fetches_avoided",
            "compact_cache_misses",
            "vv_reads_need_mac",
        ] {
            assert!(stats.iter().any(|(n, _)| n == key), "missing stat {key}");
        }
    }

    fn tenant_engine() -> (PlutusEngine, BackingMemory) {
        use gpu_sim::TenantMap;
        use secure_mem::TenancyConfig;
        let mut map = TenantMap::new();
        map.add_range(0, 0x10000, 1);
        map.add_range(0x10000, 0x20000, 2);
        let mut cfg = PlutusConfig::test_small();
        cfg.mem.tenancy = Some(TenancyConfig::new(map, 11));
        (PlutusEngine::new(cfg), BackingMemory::new())
    }

    #[test]
    fn ladder_freeze_is_scoped_to_the_failing_tenant() {
        let (mut e, mut mem) = tenant_engine();
        let victim = SectorAddr::new(0x10040); // tenant 2
        e.on_writeback(victim, &[7; 32], &mut mem);
        // Attack tenant 1 past the freeze threshold.
        for _ in 0..VERIFIER_FREEZE_FAILURES {
            e.note_fill_failure(sector(0), true);
        }
        assert!(!e.verifier_active_for(1), "attacked tenant must freeze");
        assert!(e.verifier_active_for(2), "victim tenant must stay live");
        // Victim reads still use the value-verification fast path.
        let f = e.on_fill(victim, &mut mem);
        assert_eq!(f.plaintext, [7; 32]);
        assert!(f.violation.is_none());
        let stats = e.extra_stats();
        assert!(stats
            .iter()
            .any(|(n, v)| n == "ladder_frozen_t1" && *v == 1));
        assert!(!stats.iter().any(|(n, _)| n == "ladder_frozen_t2"));
    }

    #[test]
    fn tenant_rotation_preserves_plaintext_and_macs() {
        let (mut e, mut mem) = tenant_engine();
        for i in 0..20u64 {
            e.on_writeback(sector(i), &[i as u8; 32], &mut mem);
        }
        let before = mem.read(sector(0)).unwrap();
        assert!(e.start_key_rotation(1));
        let other = SectorAddr::new(0x10000);
        let mut guard = 0;
        while e.rotation_active() {
            e.on_fill(other, &mut mem);
            guard += 1;
            assert!(guard < 100, "rotation walk must terminate");
        }
        assert_ne!(mem.read(sector(0)).unwrap(), before, "ciphertext rotated");
        for i in 0..20u64 {
            let f = e.on_fill(sector(i), &mut mem);
            assert_eq!(f.plaintext, [i as u8; 32]);
            assert!(
                f.violation.is_none(),
                "sector {i} must verify post-rotation"
            );
        }
    }
}
