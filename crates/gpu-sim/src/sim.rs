//! The trace-driven simulator: warp pool, L2 slices, MSHRs, security
//! engines, and DRAM channels.
//!
//! # Model
//!
//! A pool of warps round-robins over the trace: each warp claims the next
//! access, spends its `think_cycles`, then issues. Reads block the warp
//! until the fill returns; writes are fire-and-forget (GPU store buffers).
//! With the default 4096-warp pool, latency is hidden and throughput is set
//! by DRAM bandwidth — the regime in which the paper's security-metadata
//! traffic matters.
//!
//! Every L2 miss and dirty writeback is routed through the partition's
//! [`SecurityEngine`], which returns a [`FillPlan`]/[`WritePlan`] of extra
//! metadata DRAM requests and crypto latencies; `Simulator::book_plan`
//! books those on the partition's DRAM channel and classifies the
//! traffic.

use crate::address::{partition_of, SectorAddr, SECTOR_SIZE};
use crate::cache::{EvictedSector, SectoredCache};
use crate::config::GpuConfig;
use crate::dram::DramChannel;
use crate::fault::{FaultKind, FaultSchedule, ScheduledFault};
use crate::hash::FastHashMap;
use crate::ledger::{CycleLedger, LedgerWeights, StallBucket};
use crate::mem::BackingMemory;
use crate::publish::Publisher;
use crate::queue::EventQueue;
use crate::security::{
    DramReq, EngineFactory, FillPlan, MetaFault, RecoveryError, RecoveryReport, SecurityEngine,
    Violation, WritePlan,
};
use crate::stats::{
    DramStats, FaultOutcome, FaultRecord, SimStats, TrafficClass, TransientOutcome,
    TransientRecord, ViolationRecord,
};
use crate::tenant::{TenantMap, TenantStat};
use crate::trace::{AccessKind, Trace, TraceAccess};
use crate::transient::{RetryPolicy, TransientConfig, TransientKind, TransientSampler};
use plutus_telemetry::{Telemetry, TraceId, Tracer};
use std::collections::VecDeque;

/// Initial-image sectors buffered per partition before one
/// [`SecurityEngine::install_image`] call.
const INSTALL_BATCH: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A warp is free and may claim its next trace access.
    WarpNext { warp: u32 },
    /// An access arrives at its partition's L2 after the interconnect.
    Arrive { access: TraceAccess },
    /// A miss's fill is complete at the memory controller.
    FillDone { partition: u32, sector: SectorAddr },
}

/// A fault applied to a sector, awaiting resolution (detected / escaped /
/// clobbered) at the sector's next verification.
#[derive(Debug, Clone, Copy)]
struct ArmedFault {
    /// Cycle at which the fault was applied.
    cycle: u64,
    /// Stable label of the fault kind.
    kind: &'static str,
}

/// A transient fault applied for the duration of one fill attempt.
/// Every injection primitive is an involution, so undoing is re-applying.
#[derive(Debug, Clone, Copy)]
struct PendingTransient {
    kind: TransientKind,
    mask: [u8; 32],
}

/// Last metadata checkpoint: one cloned engine per partition, plus the
/// cycle the snapshot was taken at.
struct CheckpointState {
    cycle: u64,
    engines: Vec<Box<dyn SecurityEngine>>,
}

/// Outcome of a crash-inject → restore → recover → re-read audit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrashAudit {
    /// Cycle of the checkpoint the crash was restored from.
    pub checkpoint_cycle: u64,
    /// Cycle the crash was injected at (last event processed).
    pub crash_cycle: u64,
    /// Tally of the Phoenix-style recovery pass.
    pub report: RecoveryReport,
    /// Resident sectors compared against the pre-crash oracle.
    pub audited: u64,
    /// Sectors whose post-recovery plaintext diverged from the oracle.
    pub mismatches: u64,
    /// Post-recovery fills that raised a violation on honest data.
    pub spurious_violations: u64,
}

impl CrashAudit {
    /// True when every read came back bit-identical with no spurious
    /// violations — the condition crash campaigns gate on.
    pub fn is_clean(&self) -> bool {
        self.mismatches == 0 && self.spurious_violations == 0 && self.report.failed.is_empty()
    }
}

#[derive(Debug)]
struct Waiter {
    warp: u32,
    instructions: u32,
}

#[derive(Debug)]
struct MshrEntry {
    waiters: Vec<Waiter>,
    plaintext: [u8; 32],
}

struct Partition {
    l2: Vec<SectoredCache>,
    mshr: FastHashMap<SectorAddr, MshrEntry>,
    mshr_capacity: usize,
    /// Accesses waiting for a free MSHR (with the cycle they started
    /// waiting at, so the ledger can charge the wait to
    /// [`StallBucket::MshrFull`]), admitted in FIFO order as fills
    /// complete (avoids retry storms that would synchronize warps into
    /// convoys).
    pending: VecDeque<(TraceAccess, u64)>,
    dram: DramChannel,
    engine: Box<dyn SecurityEngine>,
}

/// Folds one DRAM request's wait breakdown into ledger weights: service
/// (activation + burst + CAS) is charged to the request's traffic class,
/// bank serialization to [`StallBucket::BankConflict`], and bus-queue
/// drain to [`StallBucket::BusBacklog`].
fn weigh_breakdown(
    weights: &mut LedgerWeights,
    class: TrafficClass,
    rep: &crate::dram::DramBreakdown,
) {
    weights.add_class(class, rep.activation + rep.service);
    weights.add(StallBucket::BankConflict, rep.bank_wait);
    weights.add(StallBucket::BusBacklog, rep.backlog_wait);
}

/// One fill's or writeback's DRAM requests, borrowed from its
/// [`FillPlan`] or [`WritePlan`], for `Simulator::book_plan`.
struct Requests<'a> {
    /// The 32 B data sector is written after the async reads (a
    /// writeback) rather than read first (a fill).
    data_write: bool,
    pre_chains: &'a [Vec<DramReq>],
    crypto_latency: u64,
    post_chain: &'a [DramReq],
    post_latency: u64,
    async_reads: &'a [DramReq],
    writes: &'a [DramReq],
}

impl<'a> From<&'a FillPlan> for Requests<'a> {
    fn from(plan: &'a FillPlan) -> Self {
        Requests {
            data_write: false,
            pre_chains: &plan.pre_chains,
            crypto_latency: plan.crypto_latency,
            post_chain: &plan.post_chain,
            post_latency: plan.post_latency,
            async_reads: &plan.async_reads,
            writes: &plan.writes,
        }
    }
}

impl<'a> From<&'a WritePlan> for Requests<'a> {
    fn from(plan: &'a WritePlan) -> Self {
        Requests {
            data_write: true,
            pre_chains: &plan.pre_chains,
            crypto_latency: plan.crypto_latency,
            post_chain: &[],
            post_latency: 0,
            async_reads: &plan.async_reads,
            writes: &plan.writes,
        }
    }
}

/// The disjoint `Simulator` borrows that booking one request needs.
struct Booker<'a> {
    dram: &'a mut DramChannel,
    stats: &'a mut SimStats,
    tracer: &'a Tracer,
    weights: &'a mut LedgerWeights,
    /// Trace root of the access the requests serve.
    root: TraceId,
}

impl Booker<'_> {
    /// Books `req` on the channel at cycle `at`, weighs its wait into
    /// the ledger weights, and records its bytes in [`SimStats`] and the
    /// flight recorder. Returns its completion cycle.
    fn book(&mut self, at: u64, req: &DramReq, is_write: bool) -> u64 {
        let rep = self.dram.access_report(at, req.addr, req.bytes);
        weigh_breakdown(self.weights, req.class, &rep);
        let bytes = u64::from(req.bytes);
        self.stats.record_traffic(req.class, bytes, is_write);
        self.tracer
            .traffic(self.root, req.class.label(), bytes, is_write, req.level);
        rep.done
    }
}

/// Result of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheme name reported by the engine.
    pub engine: String,
    /// Workload name from the trace.
    pub workload: String,
    /// Aggregated statistics.
    pub stats: SimStats,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// The trace-driven GPU memory-system simulator.
///
/// # Example
///
/// ```
/// use gpu_sim::{Simulator, GpuConfig, Trace, SectorAddr, NoSecurityEngine};
///
/// let mut trace = Trace::new("demo");
/// for i in 0..64 {
///     trace.push_read(SectorAddr::new(i * 32), 4, 10);
/// }
/// let mut sim = Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
/// let result = sim.run();
/// assert_eq!(result.stats.accesses, 64);
/// assert!(result.stats.cycles > 0);
/// ```
pub struct Simulator {
    cfg: GpuConfig,
    trace: Trace,
    cursor: usize,
    partitions: Vec<Partition>,
    backing: BackingMemory,
    events: EventQueue<EventKind>,
    horizon: u64,
    stats: SimStats,
    engine_name: &'static str,
    tel: Telemetry,
    /// The registry metrics, fed from the simulator's records.
    publisher: Publisher,
    /// The causal flight recorder (disarmed unless the run enabled
    /// tracing; every call against it is then a single compare).
    tracer: Tracer,
    /// Close a telemetry epoch every this many simulated cycles.
    epoch_interval: Option<u64>,
    next_epoch_at: u64,
    /// Faults still waiting for their trigger.
    faults: FaultSchedule,
    /// Attacker snapshots captured by [`FaultKind::SnapshotData`].
    snapshots: FastHashMap<u64, [u8; 32]>,
    /// Applied faults awaiting resolution, keyed by raw sector address.
    armed: FastHashMap<u64, ArmedFault>,
    /// Accesses that have arrived at their partition (drives
    /// [`crate::FaultTrigger::AtAccess`]).
    accesses_seen: u64,
    /// Soft-error process sampling transient faults per fill.
    transients: Option<TransientSampler>,
    /// Bounded-retry policy for failed fills (limit 0 = fail-stop).
    retry: RetryPolicy,
    /// Fill ordinal feeding the transient sampler.
    fill_ordinal: u64,
    /// Take a metadata checkpoint every this many cycles.
    checkpoint_interval: Option<u64>,
    next_checkpoint_at: u64,
    checkpoint: Option<CheckpointState>,
    /// The per-partition cycle ledger (CPI-stack attribution), closed at
    /// finalize.
    ledger: CycleLedger,
    /// Whether the warp pool has been launched (guards re-entry of
    /// [`Simulator::run_until`]).
    started: bool,
    /// Time of the last processed event (the crash cycle on early stop).
    last_event_time: u64,
    /// Whether the warm-up boundary has been crossed (instruction
    /// snapshot taken).
    warmup_done: bool,
    /// Address-range → tenant mapping (empty = single-tenant; no
    /// per-tenant stats are kept then).
    tenants: TenantMap,
    /// Per-tenant progress accumulation, folded into
    /// [`SimStats::tenants`] at finalize.
    tenant_acc: FastHashMap<u32, TenantStat>,
}

impl Simulator {
    /// Builds a simulator for `trace` with engines from `factory`,
    /// installing the trace's initial memory image through the engines.
    /// Telemetry is disabled; see [`Simulator::with_telemetry`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: GpuConfig, trace: Trace, factory: &dyn EngineFactory) -> Self {
        Self::with_telemetry(cfg, trace, factory, Telemetry::disabled())
    }

    /// Builds a simulator whose statistics also feed `tel`'s registry:
    /// each counter's growth is published at every epoch boundary and at
    /// the end of the run, engine statistics as `engine.<key>`. The
    /// engines are handed the same handle through
    /// [`SecurityEngine::attach_telemetry`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_telemetry(
        cfg: GpuConfig,
        trace: Trace,
        factory: &dyn EngineFactory,
        tel: Telemetry,
    ) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid GpuConfig: {e}"));
        let mut backing = BackingMemory::new();
        let mut partitions: Vec<Partition> = (0..cfg.partitions)
            .map(|p| {
                let mut engine = factory.build(p);
                engine.attach_telemetry(&tel);
                let l2 = (0..cfg.l2_banks_per_partition)
                    .map(|_| SectoredCache::new(cfg.l2_bank_bytes, cfg.l2_ways, 128, true))
                    .collect();
                Partition {
                    l2,
                    mshr: FastHashMap::default(),
                    mshr_capacity: cfg.mshrs_per_partition,
                    pending: VecDeque::new(),
                    dram: DramChannel::new(cfg.dram.clone()),
                    engine,
                }
            })
            .collect();
        let engine_name = partitions
            .first()
            .map(|p| p.engine.name())
            .unwrap_or("none");

        // One pass over the image: each partition's sectors are buffered
        // and installed in batches, in image order.
        let mut batches: Vec<Vec<(SectorAddr, [u8; 32])>> = (0..cfg.partitions)
            .map(|_| Vec::with_capacity(INSTALL_BATCH))
            .collect();
        for &(addr, data) in &trace.initial_image {
            let p = partition_of(addr.block(), cfg.partitions);
            let batch = &mut batches[p];
            batch.push((addr, data));
            if batch.len() == INSTALL_BATCH {
                partitions[p].engine.install_image(batch, &mut backing);
                batch.clear();
            }
        }
        for (part, batch) in partitions.iter_mut().zip(&batches) {
            if !batch.is_empty() {
                part.engine.install_image(batch, &mut backing);
            }
        }

        let ledger = CycleLedger::new(cfg.partitions);
        Self {
            cfg,
            trace,
            cursor: 0,
            partitions,
            backing,
            events: EventQueue::new(),
            horizon: 0,
            stats: SimStats::default(),
            engine_name,
            publisher: Publisher::new(&tel),
            tracer: tel.tracer(),
            tel,
            epoch_interval: None,
            next_epoch_at: u64::MAX,
            faults: FaultSchedule::new(),
            snapshots: FastHashMap::default(),
            armed: FastHashMap::default(),
            accesses_seen: 0,
            transients: None,
            retry: RetryPolicy::default(),
            fill_ordinal: 0,
            checkpoint_interval: None,
            next_checkpoint_at: u64::MAX,
            checkpoint: None,
            ledger,
            started: false,
            last_event_time: 0,
            warmup_done: false,
            tenants: TenantMap::new(),
            tenant_acc: FastHashMap::default(),
        }
    }

    /// Closes a telemetry epoch every `cycles` simulated cycles, labelled
    /// with the cycle boundary. No effect when telemetry is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn set_epoch_interval(&mut self, cycles: u64) {
        assert!(cycles > 0, "epoch interval must be positive");
        self.epoch_interval = Some(cycles);
        self.next_epoch_at = cycles;
    }

    /// Enables the seeded soft-error process: each fill may suffer a
    /// transient fault per `cfg`. Pair with
    /// [`Simulator::set_retry_policy`] so detections are retried rather
    /// than escalated.
    pub fn set_transient_faults(&mut self, cfg: TransientConfig) {
        self.transients = Some(TransientSampler::new(cfg));
    }

    /// Sets the bounded-retry policy for failed fills. The default
    /// (limit 0) escalates the first failed verification immediately,
    /// matching pre-recovery behavior.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Takes a metadata checkpoint at run start and then every `cycles`
    /// simulated cycles. Requires every partition engine to support
    /// [`SecurityEngine::checkpoint`].
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn set_checkpoint_interval(&mut self, cycles: u64) {
        assert!(cycles > 0, "checkpoint interval must be positive");
        self.checkpoint_interval = Some(cycles);
        self.next_checkpoint_at = cycles;
    }

    /// Installs the address-range → tenant mapping. Violations, fault
    /// records, and per-tenant progress ([`SimStats::tenants`]) are
    /// attributed through it; an empty map keeps single-tenant behavior
    /// (every record tagged tenant 0, no per-tenant stats).
    pub fn set_tenant_map(&mut self, map: TenantMap) {
        self.tenants = map;
    }

    /// Starts a live key-rotation walk for `tenant` on every partition
    /// engine. Returns `true` only if every engine accepted (engines
    /// without tenancy configured refuse).
    pub fn start_key_rotation(&mut self, tenant: u32) -> bool {
        let mut all = !self.partitions.is_empty();
        for p in &mut self.partitions {
            all &= p.engine.start_key_rotation(tenant);
        }
        all
    }

    /// True while any partition engine still has an unfinished
    /// key-rotation walk.
    pub fn rotation_active(&self) -> bool {
        self.partitions.iter().any(|p| p.engine.rotation_active())
    }

    /// Mutable access to the functional memory, for injecting physical
    /// attacks before (or between) runs. Mid-run attacks go through
    /// [`Simulator::set_fault_schedule`] instead, which also tracks each
    /// fault's outcome.
    pub fn backing_mut(&mut self) -> &mut BackingMemory {
        &mut self.backing
    }

    /// Installs a schedule of faults to inject *during* the run.
    ///
    /// Each applied fault is resolved into a
    /// [`FaultOutcome`] in [`SimStats::fault_records`]: detected (with the
    /// detecting layer and injection-to-detection latency), escaped,
    /// clobbered by a writeback, or unobserved. The simulation continues
    /// and counts violations rather than stopping at the first one, so a
    /// schedule with thousands of faults measures detection rates in one
    /// run. Replaces any previously installed schedule.
    pub fn set_fault_schedule(&mut self, mut schedule: FaultSchedule) {
        schedule.normalize();
        self.faults = schedule;
    }

    /// Read access to the functional memory.
    pub fn backing(&self) -> &BackingMemory {
        &self.backing
    }

    fn schedule(&mut self, time: u64, kind: EventKind) {
        self.events.push(time, kind);
    }

    /// Extends the measured horizon to `time`. Called only at points where
    /// work *retires* — instruction retirement, fill readiness, DRAM
    /// activity completion — never for merely scheduled events. A
    /// `WarpNext` that finds the trace drained is a no-op and must not
    /// define the cycle count (staggered launches of a 4k-warp pool would
    /// otherwise floor every run at the launch tail).
    fn retire_at(&mut self, time: u64) {
        self.horizon = self.horizon.max(time);
    }

    /// Credits `instructions` retiring at `time` to the tenant owning
    /// `addr`. No-op in single-tenant runs (empty map) so existing
    /// configurations keep an empty [`SimStats::tenants`].
    fn retire_tenant(&mut self, addr: SectorAddr, instructions: u64, time: u64) {
        if self.tenants.is_empty() {
            return;
        }
        let tenant = self.tenants.tenant_of(addr);
        let acc = self.tenant_acc.entry(tenant).or_default();
        acc.tenant = tenant;
        acc.instructions += instructions;
        acc.last_retire_cycle = acc.last_retire_cycle.max(time);
    }

    /// Publishes every per-epoch counter's growth into the registry.
    fn publish(&mut self) {
        let dram = self.dram_stats();
        let ledger = self.ledger.totals();
        self.publisher
            .publish(&self.stats, &ledger, &dram, &self.tenant_acc);
    }

    /// DRAM internals aggregated across partitions: per-bank counters
    /// sum by bank index, the backlog high-water mark takes the deepest
    /// single channel.
    fn dram_stats(&self) -> DramStats {
        let mut dram = DramStats {
            per_bank: vec![crate::dram::BankStat::default(); self.cfg.dram.banks],
            ..DramStats::default()
        };
        for p in &self.partitions {
            dram.backlog_hwm_bytes = dram
                .backlog_hwm_bytes
                .max(p.dram.backlog_high_water_bytes());
            for (agg, b) in dram.per_bank.iter_mut().zip(p.dram.bank_stats()) {
                agg.row_hits += b.row_hits;
                agg.row_misses += b.row_misses;
                agg.busy_cycles += b.busy_cycles;
                dram.row_hits += b.row_hits;
                dram.row_misses += b.row_misses;
                dram.bank_busy_cycles += b.busy_cycles;
            }
        }
        dram
    }

    /// Runs the simulation to completion and returns the results.
    pub fn run(&mut self) -> SimResult {
        self.run_until(u64::MAX)
    }

    /// Runs the simulation until the event queue drains or the next event
    /// would be after `limit` — the crash-injection point. On early
    /// termination the remaining events are abandoned (a crash, not a
    /// pause), stats are finalized from the last processed event, and any
    /// open telemetry epoch is flushed so nothing observed is lost.
    pub fn run_until(&mut self, limit: u64) -> SimResult {
        if !self.started {
            self.started = true;
            let warps = self.cfg.warps.min(self.trace.len().max(1));
            for w in 0..warps {
                // Stagger warp launches (thread-block wave scheduling): an
                // instantaneous 4k-warp burst would create an artificial
                // standing convoy at the memory controllers.
                self.schedule(w as u64 / 2, EventKind::WarpNext { warp: w as u32 });
            }
            if self.checkpoint_interval.is_some() {
                self.take_checkpoint(0);
            }
        }
        let mut halted = false;
        while let Some(due) = self.events.peek() {
            if due > limit {
                halted = true;
                break;
            }
            let (time, kind) = self.events.pop().expect("a peeked event is queued");
            self.last_event_time = time;
            if !self.warmup_done && time >= self.cfg.warmup_cycles {
                // Steady-state cutoff: events are processed in time
                // order, so this snapshots the instruction count exactly
                // at the warm-up boundary.
                self.stats.warmup_cycles = self.cfg.warmup_cycles;
                self.stats.warmup_instructions = self.stats.instructions;
                self.warmup_done = true;
            }
            if self.tel.enabled() {
                self.tel.advance_clock(time);
                if time >= self.next_epoch_at {
                    self.roll_epochs(time);
                }
            }
            if time >= self.next_checkpoint_at {
                self.roll_checkpoints(time);
            }
            if !self.faults.is_empty() {
                if matches!(kind, EventKind::Arrive { .. }) {
                    self.accesses_seen += 1;
                }
                while let Some(f) = self.faults.pop_due(time, self.accesses_seen) {
                    self.apply_fault(time, f);
                }
            }
            match kind {
                EventKind::WarpNext { warp } => self.warp_next(time, warp),
                EventKind::Arrive { access } => self.arrive(time, access, 0),
                EventKind::FillDone { partition, sector } => {
                    self.fill_done(time, partition as usize, sector)
                }
            }
        }
        if halted {
            // Early termination: the future scheduled work never happens,
            // so the run's horizon is the moment of the stop — without
            // this, in-flight fills would inflate the cycle count of a
            // run that was cut short.
            self.horizon = self.last_event_time;
            if self.tel.enabled() {
                self.publish();
                self.tel.advance_clock(self.last_event_time);
                self.tel
                    .end_epoch(&format!("halt-{}", self.last_event_time));
            }
        } else if self.cfg.flush_l2_at_end {
            self.flush_l2();
        }
        self.finalize()
    }

    /// Closes every epoch boundary at or before `now` (several may pass at
    /// once when the event queue jumps across idle time). Epochs carry
    /// counter deltas only, published first; the `ledger.*` deltas give
    /// the per-epoch pressure timeline.
    fn roll_epochs(&mut self, now: u64) {
        let Some(interval) = self.epoch_interval else {
            return;
        };
        self.publish();
        while now >= self.next_epoch_at {
            self.tel.end_epoch(&format!("cycle-{}", self.next_epoch_at));
            self.next_epoch_at += interval;
        }
    }

    /// Takes one checkpoint when `now` crosses a checkpoint boundary and
    /// advances the boundary past `now` (state is snapshotted as-of `now`,
    /// so crossing several idle boundaries at once yields one snapshot).
    fn roll_checkpoints(&mut self, now: u64) {
        let Some(interval) = self.checkpoint_interval else {
            return;
        };
        if now >= self.next_checkpoint_at {
            self.take_checkpoint(now);
            while self.next_checkpoint_at <= now {
                self.next_checkpoint_at += interval;
            }
        }
    }

    /// Clones every partition engine's metadata as the current
    /// checkpoint. Returns `false` (keeping any previous checkpoint) if
    /// an engine does not support checkpointing.
    fn take_checkpoint(&mut self, now: u64) -> bool {
        let mut engines = Vec::with_capacity(self.partitions.len());
        for p in &self.partitions {
            match p.engine.checkpoint() {
                Some(e) => engines.push(e),
                None => return false,
            }
        }
        self.checkpoint = Some(CheckpointState {
            cycle: now,
            engines,
        });
        self.stats.checkpoints += 1;
        true
    }

    /// Simulates a crash at the current point: every partition engine's
    /// volatile metadata reverts to the last checkpoint (persistent state
    /// — write-through MACs, the pinned value set — survives). Returns
    /// the checkpoint cycle restored to.
    fn crash_revert_to_checkpoint(&mut self) -> Result<u64, RecoveryError> {
        let ck = self
            .checkpoint
            .as_ref()
            .ok_or(RecoveryError::NoCheckpoint)?;
        for (p, saved) in self.partitions.iter_mut().zip(ck.engines.iter()) {
            if !p.engine.crash_revert(saved.as_ref()) {
                return Err(RecoveryError::Unsupported {
                    engine: p.engine.name(),
                });
            }
        }
        Ok(ck.cycle)
    }

    /// Resident data sectors grouped by owning partition.
    fn sectors_by_partition(&self) -> Vec<Vec<SectorAddr>> {
        let mut per: Vec<Vec<SectorAddr>> = vec![Vec::new(); self.partitions.len()];
        for addr in self.backing.resident_addrs() {
            per[partition_of(addr.block(), self.cfg.partitions)].push(addr);
        }
        per
    }

    /// Phoenix-style reconstruction of metadata lost since the restored
    /// checkpoint: every partition engine probes its resident sectors'
    /// counters against the persistent MACs. Call after
    /// `crash_revert_to_checkpoint`.
    fn recover_metadata(&mut self) -> Result<RecoveryReport, RecoveryError> {
        let per = self.sectors_by_partition();
        let mut total = RecoveryReport::default();
        for (p, sectors) in self.partitions.iter_mut().zip(per) {
            let r = p.engine.recover(&self.backing, &sectors)?;
            total.merge(&r);
        }
        Ok(total)
    }

    /// Full crash-consistency audit: record what every resident sector
    /// decrypts to *now* (the pre-crash oracle), crash-revert to the last
    /// checkpoint, run metadata recovery, then re-read every sector and
    /// count divergences and spurious violations. Call after
    /// [`Simulator::run_until`] stopped at the crash point.
    pub fn crash_recover_audit(&mut self) -> Result<CrashAudit, RecoveryError> {
        let per = self.sectors_by_partition();
        let mut expected: Vec<(usize, SectorAddr, [u8; 32])> = Vec::new();
        for (p_idx, sectors) in per.iter().enumerate() {
            for &s in sectors {
                let pt = self.partitions[p_idx]
                    .engine
                    .peek_plaintext(s, &self.backing)
                    .ok_or(RecoveryError::Unsupported {
                        engine: self.partitions[p_idx].engine.name(),
                    })?;
                expected.push((p_idx, s, pt));
            }
        }
        let checkpoint_cycle = self.crash_revert_to_checkpoint()?;
        let report = self.recover_metadata()?;
        let mut audit = CrashAudit {
            checkpoint_cycle,
            crash_cycle: self.last_event_time,
            report,
            ..CrashAudit::default()
        };
        for (p_idx, s, want) in expected {
            audit.audited += 1;
            let part = &mut self.partitions[p_idx];
            let got = part.engine.peek_plaintext(s, &self.backing);
            if got != Some(want) {
                audit.mismatches += 1;
                continue;
            }
            // Drive the real fill path too: recovery must not leave state
            // that verifies under peek but trips the production read.
            let plan = part.engine.on_fill(s, &mut self.backing);
            if plan.violation.is_some() {
                audit.spurious_violations += 1;
            } else if plan.plaintext != want {
                audit.mismatches += 1;
            }
        }
        Ok(audit)
    }

    /// Applies one scheduled fault: data faults go straight to the
    /// backing store; metadata faults are delegated to the partition
    /// engine owning the sector. Applied faults are armed on the sector
    /// for outcome resolution; faults that could not change state are
    /// recorded as [`FaultOutcome::NotApplied`] immediately.
    fn apply_fault(&mut self, now: u64, f: ScheduledFault) {
        let applied = match f.kind {
            FaultKind::CorruptData { mask } => self.backing.corrupt(f.addr, &mask),
            FaultKind::SnapshotData => {
                if let Some(bytes) = self.backing.snapshot(f.addr) {
                    self.snapshots.insert(f.addr.raw(), bytes);
                }
                return; // bookkeeping only, no fault record
            }
            FaultKind::ReplayData => match self.snapshots.get(&f.addr.raw()) {
                Some(&old) if self.backing.read(f.addr) != Some(old) => {
                    self.backing.replay(f.addr, old)
                }
                _ => false,
            },
            FaultKind::Metadata(mf) => {
                let p = partition_of(f.addr.block(), self.cfg.partitions);
                self.partitions[p].engine.inject_fault(f.addr, mf)
            }
        };
        let kind = f.kind.label();
        if applied {
            let armed = ArmedFault { cycle: now, kind };
            // A second fault on an already-armed sector takes over the
            // arming; the first can no longer be told apart and resolves
            // as unobserved.
            let tenant = self.tenants.tenant_of(f.addr);
            if let Some(prev) = self.armed.insert(f.addr.raw(), armed) {
                self.stats.fault_records.push(FaultRecord {
                    addr: f.addr.raw(),
                    tenant,
                    kind: prev.kind,
                    injected_cycle: prev.cycle,
                    outcome: FaultOutcome::Unobserved,
                });
            }
        } else {
            self.stats.fault_records.push(FaultRecord {
                addr: f.addr.raw(),
                tenant: self.tenants.tenant_of(f.addr),
                kind,
                injected_cycle: now,
                outcome: FaultOutcome::NotApplied,
            });
        }
    }

    /// Books a detected violation into stats, marking it
    /// under the trace root `root` of the detecting access. `latency` is
    /// the verification latency of the detecting request (0 on the
    /// writeback path, which nothing waits on).
    fn record_violation(&mut self, now: u64, v: Violation, latency: u64, root: TraceId) {
        self.stats.violations += 1;
        let tenant = self.tenants.tenant_of(v.addr());
        if !self.tenants.is_empty() {
            let acc = self.tenant_acc.entry(tenant).or_default();
            acc.tenant = tenant;
            acc.violations += 1;
        }
        self.stats.violation_records.push(ViolationRecord {
            cycle: now,
            addr: v.addr().raw(),
            tenant,
            layer: v.layer(),
            latency,
        });
        self.tracer.mark(root, "violation", v.addr().raw(), latency);
    }

    /// Resolves the armed fault on `sector` (if any) into a fault record,
    /// computing the outcome from the armed state.
    fn resolve_armed(
        &mut self,
        sector: SectorAddr,
        outcome_of: impl FnOnce(&ArmedFault) -> FaultOutcome,
    ) {
        if let Some(armed) = self.armed.remove(&sector.raw()) {
            self.stats.fault_records.push(FaultRecord {
                addr: sector.raw(),
                tenant: self.tenants.tenant_of(sector),
                kind: armed.kind,
                injected_cycle: armed.cycle,
                outcome: outcome_of(&armed),
            });
        }
    }

    fn finalize(&mut self) -> SimResult {
        self.stats.cycles = self.horizon;
        // Close the cycle ledger at the horizon: remaining unattributed
        // time becomes issue/compute, overruns from early halts are
        // trimmed, and conservation (bucket sums == cycles per partition)
        // holds from here on.
        self.ledger.close(self.horizon);
        self.stats.ledgers = self.ledger.ledgers();
        self.stats.dram = self.dram_stats();
        // Faults never verified again resolve as unobserved; sort for
        // deterministic record order (the armed map is a HashMap).
        let mut leftovers: Vec<(u64, ArmedFault)> = self.armed.drain().collect();
        leftovers.sort_by_key(|(addr, armed)| (armed.cycle, *addr));
        for (addr, armed) in leftovers {
            self.stats.fault_records.push(FaultRecord {
                addr,
                tenant: self.tenants.tenant_of_raw(addr),
                kind: armed.kind,
                injected_cycle: armed.cycle,
                outcome: FaultOutcome::Unobserved,
            });
        }
        // Merge engine-specific counters across partitions.
        let mut merged: Vec<(String, u64)> = Vec::new();
        for p in &self.partitions {
            for (name, value) in p.engine.extra_stats() {
                match merged.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, v)) => *v += value,
                    None => merged.push((name, value)),
                }
            }
        }
        self.stats.engine = merged;
        // Per-tenant progress, sorted by tenant id for deterministic
        // output (the accumulator is a HashMap).
        let mut tenants: Vec<TenantStat> = self.tenant_acc.values().copied().collect();
        tenants.sort_by_key(|t| t.tenant);
        self.stats.tenants = tenants;
        // Publish the final counts and close a terminal epoch at the
        // horizon, so the streamed epoch deltas sum exactly to the run's
        // counter totals (conservation over the stream).
        if self.tel.enabled() {
            self.publish();
            self.publisher.publish_engine(&self.stats.engine);
            if self.epoch_interval.is_some() {
                self.tel.advance_clock(self.horizon);
                self.tel.end_epoch(&format!("final-{}", self.horizon));
            }
        }
        SimResult {
            engine: self.engine_name.to_string(),
            workload: self.trace.name.clone(),
            stats: self.stats.clone(),
        }
    }

    fn warp_next(&mut self, now: u64, warp: u32) {
        let Some(&access) = self.trace.accesses.get(self.cursor) else {
            return; // trace drained; warp retires
        };
        self.cursor += 1;
        let issue = now + access.think_cycles as u64;
        let arrive = issue + self.cfg.interconnect_latency;
        match access.kind {
            AccessKind::Read => {
                self.stats.read_accesses += 1;
                // Warp blocks; it is rescheduled when the fill (or hit)
                // completes.
                self.schedule_arrive(arrive, access, warp);
            }
            AccessKind::Write => {
                self.stats.write_accesses += 1;
                // Fire-and-forget store: retire instructions at issue and
                // let the warp continue.
                self.stats.instructions += access.instructions as u64;
                self.stats.accesses += 1;
                self.retire_at(issue);
                self.retire_tenant(access.addr, access.instructions as u64, issue);
                self.schedule_arrive(arrive, access, warp);
                // Store-buffer backpressure: when the target partition's
                // bus backlog exceeds the buffer depth, the issuing warp
                // stalls until the excess drains — bus saturation
                // throttles write issue instead of letting stores pile
                // bytes onto an unbounded queue for free.
                let p_idx = partition_of(access.addr.block(), self.cfg.partitions);
                let backlog = self.partitions[p_idx].dram.backlog_bytes_at(issue);
                let resume = if backlog > self.cfg.write_throttle_bytes {
                    let excess = (backlog - self.cfg.write_throttle_bytes) as f64;
                    let stall = (excess / self.cfg.dram.bytes_per_cycle).ceil() as u64;
                    self.stats.write_throttle_cycles += stall;
                    issue + stall
                } else {
                    issue
                };
                self.schedule(resume, EventKind::WarpNext { warp });
            }
        }
    }

    fn schedule_arrive(&mut self, time: u64, access: TraceAccess, warp: u32) {
        // A read carries its issuing warp to `arrive` in `data_idx`, which
        // only writes use, so the warp can be woken when the read is
        // served.
        let mut tagged = access;
        if access.kind == AccessKind::Read {
            tagged.data_idx = warp;
        }
        self.schedule(time, EventKind::Arrive { access: tagged });
    }

    fn bank_of(&self, sector: SectorAddr) -> usize {
        let idx = sector.block().index() / self.cfg.partitions as u64;
        (idx % self.cfg.l2_banks_per_partition as u64) as usize
    }

    /// Handles an access arriving at its partition. `mshr_wait` is the
    /// cycles the access already spent queued for a free MSHR (nonzero
    /// only when re-admitted from the pending queue); the ledger charges
    /// it to [`StallBucket::MshrFull`].
    fn arrive(&mut self, now: u64, access: TraceAccess, mshr_wait: u64) {
        let sector = access.addr;
        let p_idx = partition_of(sector.block(), self.cfg.partitions);
        let bank = self.bank_of(sector);
        match access.kind {
            AccessKind::Write => {
                let data = *self.trace.data_of(&access);
                let outcome =
                    self.partitions[p_idx].l2[bank].access(sector.raw(), true, Some(data));
                if outcome.hit {
                    self.stats.l2_hits += 1;
                } else {
                    self.stats.l2_misses += 1;
                }
                self.handle_evictions(now, p_idx, &outcome.evicted);
            }
            AccessKind::Read => {
                let warp = access.data_idx; // see schedule_arrive
                                            // Merge into an outstanding miss?
                if let Some(entry) = self.partitions[p_idx].mshr.get_mut(&sector) {
                    entry.waiters.push(Waiter {
                        warp,
                        instructions: access.instructions,
                    });
                    self.stats.mshr_merges += 1;
                    return;
                }
                if self.partitions[p_idx].l2[bank].probe(sector.raw()) {
                    // Hit.
                    self.partitions[p_idx].l2[bank].access(sector.raw(), false, None);
                    self.stats.l2_hits += 1;
                    self.stats.instructions += access.instructions as u64;
                    self.stats.accesses += 1;
                    let wake = now + self.cfg.l2_hit_latency + self.cfg.interconnect_latency;
                    self.retire_at(wake);
                    self.retire_tenant(sector, access.instructions as u64, wake);
                    self.schedule(wake, EventKind::WarpNext { warp });
                    return;
                }
                // Miss.
                if self.partitions[p_idx].mshr.len() >= self.partitions[p_idx].mshr_capacity {
                    self.stats.mshr_stalls += 1;
                    // Back-date the queue entry by any wait already served
                    // so the accumulated MSHR wait survives re-queueing.
                    self.partitions[p_idx]
                        .pending
                        .push_back((access, now - mshr_wait.min(now)));
                    return;
                }
                self.stats.l2_misses += 1;
                let outcome = self.partitions[p_idx].l2[bank].access(sector.raw(), false, None);
                self.handle_evictions(now, p_idx, &outcome.evicted);
                let (ready, plaintext) = self.execute_fill(now, p_idx, sector, mshr_wait);
                self.partitions[p_idx].mshr.insert(
                    sector,
                    MshrEntry {
                        waiters: vec![Waiter {
                            warp,
                            instructions: access.instructions,
                        }],
                        plaintext,
                    },
                );
                self.schedule(
                    ready,
                    EventKind::FillDone {
                        partition: p_idx as u32,
                        sector,
                    },
                );
            }
        }
    }

    fn fill_done(&mut self, now: u64, p_idx: usize, sector: SectorAddr) {
        let bank = self.bank_of(sector);
        let Some(entry) = self.partitions[p_idx].mshr.remove(&sector) else {
            return;
        };
        self.partitions[p_idx].l2[bank].fill_data(sector.raw(), entry.plaintext);
        for w in entry.waiters {
            self.stats.instructions += w.instructions as u64;
            self.stats.accesses += 1;
            let wake = now + self.cfg.interconnect_latency;
            self.retire_at(wake);
            self.retire_tenant(sector, w.instructions as u64, wake);
            self.schedule(wake, EventKind::WarpNext { warp: w.warp });
        }
        // Admit queued accesses while MSHRs are free (merges and hits do
        // not consume a slot, so keep draining).
        while self.partitions[p_idx].mshr.len() < self.partitions[p_idx].mshr_capacity {
            let Some((next, queued_at)) = self.partitions[p_idx].pending.pop_front() else {
                break;
            };
            self.arrive(now, next, now.saturating_sub(queued_at));
        }
    }

    /// Books one fill's or writeback's DRAM requests on partition
    /// `p_idx`, issued at `start`: the one place the simulator books DRAM
    /// traffic. The order is fixed: the 32 B data read (fills), each
    /// metadata chain in `pre_chains`, the post-decryption chain, the
    /// async reads, the 32 B data write (writebacks), the metadata writes.
    ///
    /// Every request books its bus bandwidth at `start`, and dependence
    /// extends latency only: bandwidth contention stays exact while
    /// latency, which the warp pool hides, is approximated. Two rules
    /// follow from that:
    ///
    /// - Under [`GpuConfig::serial_metadata_chains`] a chain's dependent
    ///   fetch books when its predecessor completes, so it sees the
    ///   backlog built up by then and adds its bytes to what later
    ///   fetches see. Otherwise (index-computable addresses) a whole
    ///   chain books at `start`.
    /// - A post-chain read (Plutus's deferred MAC) issues after
    ///   decryption, but booking it then would drag the monotonic channel
    ///   clock forward and serialize every later request on the
    ///   partition. It books at `start` and adds one unloaded round trip
    ///   to `ready`, weighed to its class.
    ///
    /// Each request's wait is weighed into `weights`, and its bytes are
    /// attributed to the trace root `root`. The crypto time, meaning
    /// `crypto_latency` plus `post_latency`, is weighed to
    /// [`StallBucket::MetaMac`] when the plan has any metadata request
    /// (the MAC check is what serializes), else to
    /// [`StallBucket::DataFill`].
    ///
    /// Returns `(ready, end)`. `ready` is when the data transfer and every
    /// chain are done, plus crypto and post-chain time: a fill's verified
    /// plaintext, or a writeback's drained write. `end` (≥ `ready`) also
    /// covers the async reads and metadata writes, which nothing waits
    /// on. The horizon advances to `end`.
    fn book_plan(
        &mut self,
        p_idx: usize,
        start: u64,
        sector: SectorAddr,
        reqs: Requests<'_>,
        root: TraceId,
        weights: &mut LedgerWeights,
    ) -> (u64, u64) {
        let serial = self.cfg.serial_metadata_chains;
        let mut b = Booker {
            dram: &mut self.partitions[p_idx].dram,
            stats: &mut self.stats,
            tracer: &self.tracer,
            weights,
            root,
        };
        let data = DramReq::new(sector.raw(), SECTOR_SIZE as u32, TrafficClass::Data);
        let mut ready = start;
        if !reqs.data_write {
            ready = b.book(start, &data, false);
        }
        for chain in reqs.pre_chains {
            let mut t = start;
            for (i, req) in chain.iter().enumerate() {
                let issue_at = if serial && i > 0 { t } else { start };
                t = t.max(b.book(issue_at, req, false));
            }
            ready = ready.max(t);
        }
        // Crypto and each post-chain round trip follow the transfers.
        let crypto = reqs.crypto_latency + reqs.post_latency;
        let mut after = crypto;
        for req in reqs.post_chain {
            b.book(start, req, false);
            let unloaded = b.dram.unloaded_latency(req.bytes);
            b.weights.add_class(req.class, unloaded);
            after += unloaded;
        }
        let mut end = start;
        for req in reqs.async_reads {
            end = end.max(b.book(start, req, false));
        }
        if reqs.data_write {
            ready = ready.max(b.book(start, &data, true));
        }
        for req in reqs.writes {
            end = end.max(b.book(start, req, true));
        }
        let has_meta = !(reqs.pre_chains.is_empty()
            && reqs.post_chain.is_empty()
            && reqs.async_reads.is_empty()
            && reqs.writes.is_empty());
        let bucket = if has_meta {
            StallBucket::MetaMac
        } else {
            StallBucket::DataFill
        };
        b.weights.add(bucket, crypto);
        let ready = ready + after;
        let end = end.max(ready);
        self.horizon = self.horizon.max(end); // DRAM activity retires
        (ready, end)
    }

    /// Samples the soft-error process for this fill and, if a fault
    /// fires, applies it. Returns the pending fault so the fill path can
    /// undo it (transients are in-flight transfer errors: the stored
    /// bytes were never wrong).
    fn begin_transient(
        &mut self,
        now: u64,
        p_idx: usize,
        sector: SectorAddr,
    ) -> Option<PendingTransient> {
        let sampler = self.transients.as_ref()?;
        let (kind, mask) = sampler.sample(self.fill_ordinal)?;
        self.stats.transients_injected += 1;
        let applied = self.apply_transient(p_idx, sector, kind, &mask);
        if !applied {
            self.stats.transients_not_applied += 1;
            self.stats.transient_records.push(TransientRecord {
                addr: sector.raw(),
                kind: kind.label(),
                cycle: now,
                outcome: TransientOutcome::NotApplied,
            });
            return None;
        }
        Some(PendingTransient { kind, mask })
    }

    /// Applies (or, because every primitive is an involution, undoes) a
    /// transient fault. Returns whether state changed.
    fn apply_transient(
        &mut self,
        p_idx: usize,
        sector: SectorAddr,
        kind: TransientKind,
        mask: &[u8; 32],
    ) -> bool {
        match kind {
            TransientKind::Data => self.backing.corrupt(sector, mask),
            TransientKind::Mac => self.partitions[p_idx]
                .engine
                .inject_fault(sector, MetaFault::TamperMac),
            TransientKind::BmtNode => self.partitions[p_idx]
                .engine
                .inject_fault(sector, MetaFault::TamperBmtNode),
        }
    }

    /// Serves one L2 read miss, with bounded retry: a failed verification
    /// is re-fetched up to the retry limit with exponential backoff, and
    /// only the final attempt's outcome escalates to a recorded
    /// [`Violation`]. `mshr_wait` is time already spent queued for an
    /// MSHR, charged to [`StallBucket::MshrFull`] in the ledger. Returns
    /// the cycle at which verified plaintext is ready, along with the
    /// plaintext itself.
    fn execute_fill(
        &mut self,
        now: u64,
        p_idx: usize,
        sector: SectorAddr,
        mshr_wait: u64,
    ) -> (u64, [u8; 32]) {
        self.fill_ordinal += 1;
        let root = self.tracer.begin("fill", sector.raw());
        let transient = self.begin_transient(now, p_idx, sector);
        let mut transient_active = transient.is_some();
        let mut transient_tripped = false;
        let mut attempt: u32 = 0;
        let mut start = now;
        loop {
            let part = &mut self.partitions[p_idx];
            part.engine.begin_access_trace(root);
            let plan = part.engine.on_fill(sector, &mut self.backing);
            let mut weights = LedgerWeights::default();
            if attempt == 0 {
                weights.add(StallBucket::MshrFull, mshr_wait);
            }
            let (ready, end) =
                self.book_plan(p_idx, start, sector, (&plan).into(), root, &mut weights);
            if plan.violation.is_some() && attempt < self.retry.limit {
                // Failed verification with retries remaining: undo any
                // in-flight transient (a re-fetch observes clean data),
                // charge backoff, and re-issue the whole fetch.
                attempt += 1;
                self.stats.retries += 1;
                let backoff = self.retry.backoff(attempt);
                self.stats.retry_cycles += ready.saturating_sub(start) + backoff;
                // The whole failed attempt is wasted work: charge its span
                // to transient-retry, and the backoff window to recovery.
                weights.collapse_into(StallBucket::TransientRetry);
                self.ledger
                    .commit(p_idx, start, end, &weights, StallBucket::TransientRetry);
                if backoff > 0 {
                    let mut bw = LedgerWeights::default();
                    bw.add(StallBucket::Recovery, backoff);
                    self.ledger
                        .commit(p_idx, ready, ready + backoff, &bw, StallBucket::Recovery);
                }
                if let Some(t) = transient {
                    if transient_active {
                        transient_tripped = true;
                        self.apply_transient(p_idx, sector, t.kind, &t.mask);
                        transient_active = false;
                    }
                }
                self.tracer
                    .mark(root, "retry", sector.raw(), u64::from(attempt));
                start = ready + backoff;
                continue;
            }

            // Final attempt: undo a still-active transient (the stored
            // bytes were never wrong, only this transfer), then resolve.
            if let Some(t) = transient {
                if transient_active {
                    self.apply_transient(p_idx, sector, t.kind, &t.mask);
                }
                let outcome = if plan.violation.is_some() {
                    self.stats.transients_escalated += 1;
                    TransientOutcome::Escalated { retries: attempt }
                } else if transient_tripped {
                    self.stats.transients_recovered += 1;
                    TransientOutcome::Recovered { retries: attempt }
                } else {
                    self.stats.transients_undetected += 1;
                    TransientOutcome::Undetected
                };
                self.stats.transient_records.push(TransientRecord {
                    addr: sector.raw(),
                    kind: t.kind.label(),
                    cycle: now,
                    outcome,
                });
            }
            if self.retry.limit > 0 && (transient_tripped || plan.violation.is_some()) {
                // Degradation hook: the engine learns this fill needed
                // the retry path (only when retry is enabled, so legacy
                // fail-stop campaigns keep their exact behavior).
                self.partitions[p_idx]
                    .engine
                    .note_fill_failure(sector, plan.violation.is_none());
            }
            let latency = ready.saturating_sub(now);
            if let Some(v) = plan.violation {
                self.record_violation(now, v, latency, root);
            }
            if !self.armed.is_empty() {
                self.resolve_armed(sector, |armed| match plan.violation {
                    Some(v) => FaultOutcome::Detected {
                        layer: v.layer(),
                        latency: ready.saturating_sub(armed.cycle),
                    },
                    None => FaultOutcome::Escaped {
                        value_verified: plan.verified_by_value,
                    },
                });
            }
            self.stats.fill_latency_sum += latency;
            self.stats.fill_count += 1;
            self.publisher.fill_latency.record(latency);
            self.ledger
                .commit(p_idx, start, end, &weights, StallBucket::DataFill);
            return (ready, plan.plaintext);
        }
    }

    fn handle_evictions(&mut self, now: u64, p_idx: usize, evicted: &[EvictedSector]) {
        for ev in evicted {
            let sector = SectorAddr::new(ev.addr);
            let data = ev.data.unwrap_or([0; 32]);
            self.writeback(now, p_idx, sector, &data);
        }
    }

    fn writeback(&mut self, now: u64, p_idx: usize, sector: SectorAddr, data: &[u8; 32]) {
        let root = self.tracer.begin("writeback", sector.raw());
        let part = &mut self.partitions[p_idx];
        part.engine.begin_access_trace(root);
        let plan = part.engine.on_writeback(sector, data, &mut self.backing);
        let mut weights = LedgerWeights::default();
        let (_, end) = self.book_plan(p_idx, now, sector, (&plan).into(), root, &mut weights);
        self.ledger
            .commit(p_idx, now, end, &weights, StallBucket::DataFill);
        if let Some(v) = plan.violation {
            self.record_violation(now, v, 0, root);
        }
        if !self.armed.is_empty() {
            // A writeback either trips verification (metadata fetched for
            // the read-modify-write fails) or overwrites the faulted state
            // with fresh ciphertext and metadata before any verification
            // saw it.
            self.resolve_armed(sector, |armed| match plan.violation {
                Some(v) => FaultOutcome::Detected {
                    layer: v.layer(),
                    latency: now.saturating_sub(armed.cycle),
                },
                None => FaultOutcome::Clobbered,
            });
        }
    }

    fn flush_l2(&mut self) {
        let now = self.horizon;
        for p_idx in 0..self.partitions.len() {
            for bank in 0..self.partitions[p_idx].l2.len() {
                let flushed = self.partitions[p_idx].l2[bank].flush_dirty();
                self.handle_evictions(now, p_idx, &flushed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::security::NoSecurityEngine;
    use plutus_telemetry::{CycleClock, Telemetry};

    fn read_trace(n: u64, stride: u64) -> Trace {
        let mut t = Trace::new("reads");
        for i in 0..n {
            t.push_read(SectorAddr::new(i * stride), 2, 10);
        }
        t
    }

    #[test]
    fn all_reads_complete() {
        let trace = read_trace(200, 32);
        let mut sim = Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
        let r = sim.run();
        assert_eq!(r.stats.accesses, 200);
        assert_eq!(r.stats.instructions, 2000);
        assert!(r.stats.cycles > 0);
        assert_eq!(r.stats.violations, 0);
    }

    #[test]
    fn repeated_reads_hit_in_l2() {
        let mut trace = Trace::new("rehit");
        for _ in 0..4 {
            for i in 0..16u64 {
                trace.push_read(SectorAddr::new(i * 32), 1, 1);
            }
        }
        let mut sim = Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
        let r = sim.run();
        // 16 distinct sectors: ≥ one miss each, everything else hits or
        // merges.
        assert!(r.stats.l2_misses >= 16);
        assert!(r.stats.l2_hits + r.stats.mshr_merges >= 3 * 16);
        // DRAM data read traffic = misses × 32B.
        assert_eq!(
            r.stats.traffic[TrafficClass::Data.idx()].read_bytes,
            r.stats.l2_misses * 32
        );
    }

    #[test]
    fn writes_produce_writeback_traffic_on_eviction() {
        // Write far more sectors than the small L2 holds, forcing dirty
        // evictions.
        let mut trace = Trace::new("writes");
        for i in 0..4096u64 {
            trace.push_write(SectorAddr::new(i * 32), [i as u8; 32], 1, 1);
        }
        let mut sim = Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
        let r = sim.run();
        assert_eq!(r.stats.write_accesses, 4096);
        assert!(
            r.stats.traffic[TrafficClass::Data.idx()].write_bytes > 0,
            "expected dirty evictions to reach DRAM"
        );
    }

    #[test]
    fn written_data_reaches_backing_memory_after_flush() {
        let mut trace = Trace::new("wb");
        trace.push_write(SectorAddr::new(0x40), [0xcd; 32], 0, 1);
        let mut cfg = GpuConfig::test_small();
        cfg.flush_l2_at_end = true;
        let mut sim = Simulator::new(cfg, trace, &NoSecurityEngine::factory());
        sim.run();
        assert_eq!(sim.backing().read(SectorAddr::new(0x40)), Some([0xcd; 32]));
    }

    #[test]
    fn initial_image_is_readable() {
        let mut trace = Trace::new("init");
        trace.set_initial(SectorAddr::new(0x80), [7; 32]);
        trace.push_read(SectorAddr::new(0x80), 0, 1);
        let mut sim = Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
        let r = sim.run();
        assert_eq!(r.stats.accesses, 1);
        // The fill read the installed image functionally.
        assert_eq!(sim.backing().read(SectorAddr::new(0x80)), Some([7; 32]));
    }

    #[test]
    fn mshr_merges_coalesce_same_sector_reads() {
        let mut trace = Trace::new("merge");
        for _ in 0..32 {
            trace.push_read(SectorAddr::new(0x100), 0, 1);
        }
        let mut sim = Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
        let r = sim.run();
        assert_eq!(r.stats.accesses, 32);
        // One miss; the rest merge or hit after fill.
        assert_eq!(r.stats.l2_misses, 1);
        assert!(r.stats.mshr_merges > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let trace = read_trace(500, 96);
            let mut sim =
                Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
            let r = sim.run();
            (r.stats.cycles, r.stats.l2_hits, r.stats.total_bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_shorter_than_warp_pool_completes() {
        let mut trace = Trace::new("tiny");
        trace.push_read(SectorAddr::new(0), 0, 5);
        trace.push_write(SectorAddr::new(32), [1; 32], 0, 5);
        let mut sim = Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
        let r = sim.run();
        assert_eq!(r.stats.accesses, 2);
        assert_eq!(r.stats.instructions, 10);
    }

    #[test]
    fn write_while_read_pending_is_not_clobbered_by_fill() {
        // A read miss to sector S followed immediately by a write to S:
        // when the (stale) fill completes it must not overwrite the newer
        // store, and the final flush must carry the written value.
        let mut trace = Trace::new("raw-hazard");
        trace.set_initial(SectorAddr::new(0x40), [7; 32]);
        trace.push_read(SectorAddr::new(0x40), 0, 1);
        trace.push_write(SectorAddr::new(0x40), [9; 32], 0, 1);
        let mut cfg = GpuConfig::test_small();
        cfg.warps = 2; // read and write issue concurrently
        cfg.flush_l2_at_end = true;
        let mut sim = Simulator::new(cfg, trace, &NoSecurityEngine::factory());
        sim.run();
        assert_eq!(
            sim.backing().read(SectorAddr::new(0x40)),
            Some([9; 32]),
            "fill must not clobber a newer store"
        );
    }

    #[test]
    fn empty_trace_is_harmless() {
        let mut sim = Simulator::new(
            GpuConfig::test_small(),
            Trace::new("empty"),
            &NoSecurityEngine::factory(),
        );
        let r = sim.run();
        assert_eq!(r.stats.accesses, 0);
    }

    #[test]
    fn mshr_pressure_queues_instead_of_losing_accesses() {
        let mut cfg = GpuConfig::test_small();
        cfg.mshrs_per_partition = 2;
        cfg.warps = 64;
        let trace = read_trace(400, 32);
        let mut sim = Simulator::new(cfg, trace, &NoSecurityEngine::factory());
        let r = sim.run();
        assert_eq!(r.stats.accesses, 400, "queued accesses must all complete");
        assert!(r.stats.mshr_stalls > 0, "tiny MSHR must actually saturate");
    }

    #[test]
    fn ledger_conserves_cycles_under_mshr_pressure() {
        let mut cfg = GpuConfig::test_small();
        cfg.mshrs_per_partition = 2;
        cfg.warps = 64;
        let trace = read_trace(400, 32);
        let mut sim = Simulator::new(cfg, trace, &NoSecurityEngine::factory());
        let r = sim.run();
        assert_eq!(r.stats.ledgers.len(), 4, "one ledger per partition");
        assert!(
            r.stats.ledger_conserved(),
            "every partition's buckets must sum to {} cycles",
            r.stats.cycles
        );
        let stack = r.stats.cpi_stack();
        assert_eq!(stack.iter().sum::<u64>(), r.stats.cycles * 4);
        assert!(r.stats.ledger_cycles(crate::ledger::StallBucket::DataFill) > 0);
        assert!(
            r.stats.ledger_cycles(crate::ledger::StallBucket::MshrFull) > 0,
            "saturated MSHRs must show up in the ledger"
        );
    }

    #[test]
    fn ledger_conserves_cycles_with_writebacks() {
        let mut trace = Trace::new("writes");
        for i in 0..4096u64 {
            trace.push_write(SectorAddr::new(i * 32), [i as u8; 32], 1, 1);
        }
        let mut sim = Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
        let r = sim.run();
        assert!(r.stats.ledger_conserved());
    }

    #[test]
    fn ledger_conserved_on_early_halt() {
        let trace = read_trace(400, 32);
        let mut sim = Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
        let r = sim.run_until(100);
        assert!(r.stats.cycles <= 100);
        assert!(
            r.stats.ledger_conserved(),
            "crashed runs must still conserve: totals {:?} vs cycles {}",
            r.stats
                .ledgers
                .iter()
                .map(|l| l.total())
                .collect::<Vec<_>>(),
            r.stats.cycles
        );
    }

    #[test]
    fn dram_stats_aggregate_across_partitions() {
        let trace = read_trace(400, 32);
        let mut sim = Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
        let r = sim.run();
        let d = &r.stats.dram;
        assert_eq!(
            d.row_hits + d.row_misses,
            r.stats
                .traffic
                .iter()
                .map(|t| t.read_reqs + t.write_reqs)
                .sum::<u64>()
        );
        assert_eq!(
            d.per_bank.iter().map(|b| b.row_misses).sum::<u64>(),
            d.row_misses
        );
        assert_eq!(
            d.per_bank.iter().map(|b| b.busy_cycles).sum::<u64>(),
            d.bank_busy_cycles
        );
        assert!(d.backlog_hwm_bytes > 0, "misses must queue bus bytes");
    }

    #[test]
    fn telemetry_mirrors_stats_and_rolls_epochs() {
        let tel = Telemetry::with_clock(std::sync::Arc::new(CycleClock::new()));
        let trace = read_trace(400, 32);
        let mut sim = Simulator::with_telemetry(
            GpuConfig::test_small(),
            trace,
            &NoSecurityEngine::factory(),
            tel.clone(),
        );
        sim.set_epoch_interval(50);
        let r = sim.run();
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter("traffic.data.read_bytes"),
            Some(r.stats.traffic[TrafficClass::Data.idx()].read_bytes)
        );
        assert_eq!(snap.counter("l2.hits"), Some(r.stats.l2_hits));
        assert_eq!(snap.counter("l2.misses"), Some(r.stats.l2_misses));
        assert_eq!(snap.counter("violations"), Some(0));
        let (row_hits, row_misses) = (
            snap.counter("dram.row_hits"),
            snap.counter("dram.row_misses"),
        );
        assert_eq!(
            row_hits.unwrap() + row_misses.unwrap(),
            r.stats
                .traffic
                .iter()
                .map(|t| t.read_reqs + t.write_reqs)
                .sum::<u64>()
        );
        // Fill-latency histogram observed every fill.
        let hist = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "fill.latency_cycles")
            .map(|(_, h)| h.clone())
            .expect("fill latency histogram registered");
        assert_eq!(hist.count, r.stats.fill_count);
        assert_eq!(hist.sum, r.stats.fill_latency_sum);
        // 400 misses over hundreds of cycles at a 50-cycle interval must
        // close multiple epochs, and their deltas chain contiguously.
        let epochs = tel.epochs();
        assert!(
            epochs.len() >= 2,
            "expected >=2 epochs, got {}",
            epochs.len()
        );
        for w in epochs.windows(2) {
            assert_eq!(w[1].start_time, w[0].end_time);
        }
    }

    #[test]
    fn tenant_rollups_mirror_into_epochs_and_sum_to_stats() {
        let tel = Telemetry::with_clock(std::sync::Arc::new(CycleClock::new()));
        let trace = read_trace(400, 32);
        let mut sim = Simulator::with_telemetry(
            GpuConfig::test_small(),
            trace,
            &NoSecurityEngine::factory(),
            tel.clone(),
        );
        // Split the touched address range between two tenants.
        let mut map = TenantMap::new();
        map.add_range(0, 400 * 32 / 2, 1);
        map.add_range(400 * 32 / 2, u64::MAX, 2);
        sim.set_tenant_map(map);
        sim.set_epoch_interval(50);
        let r = sim.run();
        assert!(r.stats.tenants.len() == 2, "both tenants progressed");
        let snap = tel.snapshot();
        for t in &r.stats.tenants {
            let name = format!("tenant.t{}.instructions", t.tenant);
            assert_eq!(
                snap.counter(&name),
                Some(t.instructions),
                "{name} total mismatch"
            );
            // Per-tenant epoch deltas chain back to the same total —
            // this is what the NDJSON stream serializes per line.
            let from_epochs: u64 = tel.epochs().iter().map(|e| e.delta(&name)).sum();
            assert_eq!(from_epochs, t.instructions, "{name} epoch sum mismatch");
        }
        // The terminal epoch captures the tail past the last boundary.
        let labels: Vec<String> = tel.epochs().iter().map(|e| e.label.clone()).collect();
        assert!(
            labels.last().unwrap().starts_with("final-"),
            "missing terminal epoch: {labels:?}"
        );
    }

    #[test]
    fn disabled_telemetry_changes_nothing() {
        let run = |tel: Telemetry| {
            let mut sim = Simulator::with_telemetry(
                GpuConfig::test_small(),
                read_trace(300, 64),
                &NoSecurityEngine::factory(),
                tel,
            );
            let r = sim.run();
            (r.stats.cycles, r.stats.total_bytes(), r.stats.l2_hits)
        };
        assert_eq!(run(Telemetry::disabled()), run(Telemetry::new()));
    }

    #[test]
    fn drained_trace_wakeups_do_not_define_cycles() {
        // 8192 same-sector reads with zero think time: a handful of early
        // warps recycle through the trace and drain it long before the
        // last of 4096 staggered launches at cycle (4096-1)/2 = 2047.
        // Those late launches find the trace drained; the measured cycle
        // count must come from the last retirement, not the launch tail.
        let mk_trace = || {
            let mut t = Trace::new("drain");
            for _ in 0..8192 {
                t.push_read(SectorAddr::new(0x100), 0, 1);
            }
            t
        };
        let mut cfg = GpuConfig::test_small();
        cfg.warps = 4096;
        let r = Simulator::new(cfg, mk_trace(), &NoSecurityEngine::factory()).run();
        assert_eq!(r.stats.accesses, 8192);
        assert!(
            r.stats.cycles < 4096 / 2,
            "launch-stagger tail must not floor cycles, got {}",
            r.stats.cycles
        );
        assert!(r.stats.ledger_conserved());
        // A 1-access trace's cycle count is independent of the warp pool.
        let one = |warps: usize| {
            let mut cfg = GpuConfig::test_small();
            cfg.warps = warps;
            Simulator::new(cfg, read_trace(1, 32), &NoSecurityEngine::factory())
                .run()
                .stats
                .cycles
        };
        assert_eq!(one(2), one(4096));
    }

    #[test]
    fn serial_chain_requests_book_at_dependent_time() {
        use crate::security::{DramReq, FillPlan, WritePlan};
        // Book one fill, and one writeback, with a serial two-element
        // metadata chain onto a saturated channel, once with serial
        // chains and once with parallel ones. `backlog_bytes_at` clamps a
        // past `now` up to the channel's last issue time, so probing at
        // cycle 100 reads the queue as of the latest booking: for the
        // serial chain that is the dependent element's issue time t1 (=
        // its predecessor's completion, after the burst drained), where
        // only the dependent element's own bytes remain queued, plus a
        // writeback's 32 B data write, which books after the chains.
        let book = |serial: bool, writeback: bool| {
            let mut cfg = GpuConfig::test_small();
            cfg.serial_metadata_chains = serial;
            let mut sim = Simulator::new(cfg, Trace::new("sat"), &NoSecurityEngine::factory());
            // 24 KiB burst at cycle 0: ~1024 cycles of bus backlog at
            // 24 B/cycle.
            sim.partitions[0].dram.access_report(0, 0, 24 * 1024);
            let pre_chains = vec![vec![
                DramReq::new(0x10_0000, 32, TrafficClass::Counter),
                DramReq::new(0x20_0000, 4096, TrafficClass::BmtNode),
            ]];
            let fill = FillPlan {
                pre_chains: pre_chains.clone(),
                ..FillPlan::default()
            };
            let write = WritePlan {
                pre_chains,
                ..WritePlan::default()
            };
            let reqs = if writeback {
                Requests::from(&write)
            } else {
                Requests::from(&fill)
            };
            let mut w = LedgerWeights::default();
            let (ready, _end) =
                sim.book_plan(0, 0, SectorAddr::new(0x40), reqs, TraceId::NONE, &mut w);
            let backlog = sim.partitions[0].dram.backlog_bytes_at(100);
            (ready, backlog)
        };
        for writeback in [false, true] {
            let (ready_serial, backlog_serial) = book(true, writeback);
            let (ready_parallel, backlog_parallel) = book(false, writeback);
            let after_chain = if writeback { 32 } else { 0 };
            // Serial: the dependent 4 KiB element was booked at t1 ≈ 1060,
            // after the burst drained — it is the only thing in the queue
            // but for what books after it. Booking it at the plan's start
            // (the old bug) would leave the channel clock at 0 and the
            // probe would see the whole burst.
            assert!(
                backlog_serial <= 4096 + after_chain,
                "dependent fetch must be booked at its issue time t1, after \
                 the burst drained (writeback {writeback}, backlog {backlog_serial})"
            );
            assert!(
                backlog_serial >= 4000,
                "dependent fetch's bytes must enter the backlog at t1 \
                 (writeback {writeback}, backlog {backlog_serial})"
            );
            // Parallel: everything was booked at cycle 0; mid-drain the
            // burst still dominates the queue.
            assert!(
                backlog_parallel > 20_000,
                "parallel chains book at the plan's start \
                 (writeback {writeback}, backlog {backlog_parallel})"
            );
            assert!(
                ready_serial >= ready_parallel,
                "serialized chain cannot be faster than a parallel one \
                 (writeback {writeback}, {ready_serial} vs {ready_parallel})"
            );
        }
    }

    #[test]
    fn write_backpressure_throttles_issue_on_saturated_channel() {
        // Stores headed for a saturated partition must stall the issuing
        // warp until the excess backlog drains; with the throttle disabled
        // the same trace issues freely and finishes sooner.
        let run = |throttle: u64| {
            // 64 distinct sectors, all mapping to partition 0.
            let addrs: Vec<SectorAddr> = (0u64..)
                .map(|i| SectorAddr::new(i * 32))
                .filter(|a| partition_of(a.block(), 4) == 0)
                .take(64)
                .collect();
            let mut trace = Trace::new("wthrottle");
            for (i, a) in addrs.iter().enumerate() {
                trace.push_write(*a, [i as u8; 32], 1, 1);
            }
            let mut cfg = GpuConfig::test_small();
            cfg.write_throttle_bytes = throttle;
            let mut sim = Simulator::new(cfg, trace, &NoSecurityEngine::factory());
            // ~100 KiB burst at cycle 0: far beyond the 8 KiB store-buffer
            // depth, ~4300 cycles of bus backlog at 24 B/cycle.
            sim.partitions[0].dram.access_report(0, 0, 100 * 1024);
            let r = sim.run();
            assert_eq!(r.stats.write_accesses, 64, "all stores must complete");
            r.stats.clone()
        };
        let throttled = run(8 * 1024);
        let free = run(u64::MAX);
        assert!(
            throttled.write_throttle_cycles > 0,
            "saturated channel must stall write issue"
        );
        assert_eq!(free.write_throttle_cycles, 0);
        assert!(
            throttled.cycles > free.cycles,
            "backpressure must show up in measured cycles \
             ({} vs {})",
            throttled.cycles,
            free.cycles
        );
    }

    #[test]
    fn more_warps_do_not_change_work_done() {
        let mut cfg_few = GpuConfig::test_small();
        cfg_few.warps = 2;
        let mut cfg_many = GpuConfig::test_small();
        cfg_many.warps = 64;
        let r1 = Simulator::new(cfg_few, read_trace(300, 32), &NoSecurityEngine::factory()).run();
        let r2 = Simulator::new(cfg_many, read_trace(300, 32), &NoSecurityEngine::factory()).run();
        assert_eq!(r1.stats.accesses, r2.stats.accesses);
        // More parallelism should not slow things down.
        assert!(r2.stats.cycles <= r1.stats.cycles);
    }
}
