//! The multi-tenant overflow-storm / soak chaos campaign.
//!
//! One adversarial tenant and several victim tenants share the GPU: the
//! adversary hammers a tiny sector set with locality-free writes (a
//! counter-group overflow storm, `workloads::overflow_storm_trace`) and
//! fires tamper/replay/metadata faults at its *own* slab, while a live
//! key rotation of a victim tenant walks underneath and — in the crash
//! phase — the whole machine is kill-9'd mid-walk and recovered.
//!
//! Continuous invariant monitors turn the chaos into a pass/fail gate
//! ([`storm_gate`]):
//!
//! - **isolation** — victims record zero violations and zero degradation-
//!   ladder transitions, no matter what the adversary does;
//! - **backpressure** — every victim's per-tenant IPC stays within a
//!   configured tolerance of an honest-company baseline (the adversary
//!   slot replaced by an equal-volume neutral workload);
//! - **conservation** — the per-partition cycle ledger still sums to the
//!   run length;
//! - **Eq. 1** — the measured value-verification forgery-acceptance
//!   rate stays at or below the paper's analytic binomial bound;
//! - **rotation** — the walk completes under fire, and a crash-kill in
//!   the middle of it recovers bit-identical plaintext under the
//!   post-rotation key schedule.
//!
//! The soak variant additionally pours seeded benign soft errors over
//! the same storm (no transient may escalate into a recorded violation)
//! and probes more crash points.

use crate::campaign::{eq1_bound, CampaignRow, CAMPAIGN_ENGINES};
use crate::crash::crash_audit;
use crate::runner::{tenant_keyed, Scheme};
use gpu_sim::{
    AccessKind, CrashAudit, FaultKind, FaultSchedule, FaultTrigger, GpuConfig, MetaFault,
    RetryPolicy, ScheduledFault, SectorAddr, SimStats, Simulator, TenantMap, Trace,
    TransientConfig,
};
use plutus_exec::{expect_all, Executor, Job};
use plutus_telemetry::{Gate, GateFailure, Json, Table};
use secure_mem::TenancyConfig;
use std::collections::BTreeMap;
use workloads::{
    generate, multi_tenant_trace, overflow_storm_trace, GenParams, Pattern, ValueProfile,
};

/// The adversary's tenant id (slot 0 of the composed trace).
pub const ADVERSARY: u32 = 1;
/// First victim tenant id; victims are numbered consecutively from it.
pub const FIRST_VICTIM: u32 = 2;

/// Parameters of a storm/soak campaign.
#[derive(Debug, Clone, Copy)]
pub struct StormCampaignConfig {
    /// Master seed: trace generation, fault placement, key derivation.
    pub seed: u64,
    /// Victim tenants co-resident with the adversary (≥ 1; the
    /// acceptance configuration uses 3).
    pub victims: usize,
    /// Accesses each tenant issues.
    pub accesses_per_tenant: usize,
    /// Bytes of protected memory per tenant slab (4 KiB-aligned).
    pub slab_bytes: u64,
    /// Metadata checkpoint cadence for the crash phase.
    pub checkpoint_cycles: u64,
    /// Adversarial tamper/replay/metadata faults fired during the storm.
    pub faults: usize,
    /// Mid-rotation crash-kills probed per scheme.
    pub crash_points: usize,
    /// Victim IPC must stay ≥ `1 - ipc_tolerance` of its honest
    /// baseline.
    pub ipc_tolerance: f64,
    /// Run the soak extension: seeded soft errors over the storm plus
    /// the transient-escalation monitor.
    pub soak: bool,
    /// Soft-error probability per fill in the soak phase.
    pub soft_error_rate: f64,
    /// Bounded re-fetch attempts for the soak phase.
    pub retry_limit: u32,
    /// Deliberately fault a victim's slab during the storm — an
    /// injected isolation breach that must make [`storm_gate`] fail
    /// (used to prove the monitors are live).
    pub inject_breach: bool,
}

impl StormCampaignConfig {
    /// The default storm campaign: 3 victims, one adversary, a
    /// mid-storm key rotation, and 2 mid-rotation crash-kills.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            victims: 3,
            accesses_per_tenant: 2500,
            slab_bytes: 0x10000,
            checkpoint_cycles: 2000,
            faults: 24,
            crash_points: 2,
            ipc_tolerance: 0.25,
            soak: false,
            // High enough that every scheme's soak takes several soft
            // errors at test scale; the gate refuses a soak with none.
            soft_error_rate: 0.005,
            retry_limit: 3,
            inject_breach: false,
        }
    }

    /// The soak campaign: the storm plus soft errors and more crash
    /// points.
    pub fn soak(seed: u64) -> Self {
        Self {
            soak: true,
            crash_points: 4,
            ..Self::new(seed)
        }
    }

    fn victim_ids(&self) -> Vec<u32> {
        (0..self.victims as u32).map(|v| FIRST_VICTIM + v).collect()
    }
}

/// One monitored phase of the campaign for one scheme.
#[derive(Debug, Clone, Default)]
pub struct StormRow {
    /// Scheme label.
    pub scheme: String,
    /// `baseline`, `storm`, `soak`, or `rotation@<cycle>`.
    pub phase: String,
    /// Run length in cycles.
    pub cycles: u64,
    /// Per-victim `(tenant, ipc)` for this run.
    pub victim_ipc: Vec<(u32, f64)>,
    /// Worst victim IPC relative to the honest baseline (1.0 for the
    /// baseline itself and for phases without an IPC monitor).
    pub min_ipc_ratio: f64,
    /// Violations recorded against victim addresses.
    pub victim_violations: u64,
    /// Victim tenants the degradation ladder froze.
    pub victim_frozen: u64,
    /// Violations recorded against the adversary's addresses.
    pub adversary_violations: u64,
    /// Whether every partition's cycle ledger summed to the run length.
    pub ledger_conserved: bool,
    /// Overflow re-encryptions the per-tenant storm gate rate-limited.
    pub storm_suppressed: u64,
    /// DRAM requests the storm gate deferred onto the offender.
    pub storm_deferred: u64,
    /// Key-rotation walks completed during the run.
    pub rotations_completed: u64,
    /// Sectors re-encrypted by rotation walks.
    pub rotated_sectors: u64,
    /// Scheduled faults a verification layer ruled on.
    pub faults_adjudicated: u64,
    /// Value-verification forgery acceptances among them (Eq. 1).
    pub forgeries: u64,
    /// Whether the measured forgery rate respects the analytic bound.
    pub eq1_ok: bool,
    /// Soft errors the soak phase injected (0 elsewhere).
    pub transients_injected: u64,
    /// Benign transients misclassified as attacks (soak phase).
    pub transients_escalated: u64,
    /// The mid-rotation crash audit (`rotation@` phases; empty
    /// elsewhere).
    pub rotation: CrashAudit,
    /// Machinery error, if the phase could not run.
    pub error: Option<String>,
}

impl StormRow {
    fn new(scheme: &str, phase: impl Into<String>) -> Self {
        Self {
            scheme: scheme.to_string(),
            phase: phase.into(),
            min_ipc_ratio: 1.0,
            ledger_conserved: true,
            eq1_ok: true,
            ..Self::default()
        }
    }

    /// The per-row invariants ([`storm_gate`] also checks cross-row
    /// conditions): no victim violation or freeze, ledger conserved,
    /// IPC within tolerance, Eq. 1 respected, crash audits bit-identical.
    pub fn is_clean(&self, ipc_tolerance: f64) -> bool {
        self.error.is_none()
            && self.victim_violations == 0
            && self.victim_frozen == 0
            && self.ledger_conserved
            && self.min_ipc_ratio >= 1.0 - ipc_tolerance
            && self.eq1_ok
            && self.transients_escalated == 0
            && self.rotation.is_clean()
    }
}

/// The composed campaign inputs: both traces and the shared tenant map.
struct StormFixture {
    storm: Trace,
    honest: Trace,
    map: TenantMap,
    tenancy: TenancyConfig,
}

impl StormFixture {
    /// A simulator of `trace` under `scheme`'s tenant-keyed engine.
    fn simulator(&self, cfg: &GpuConfig, scheme: Scheme, trace: &Trace) -> Simulator {
        let factory = tenant_keyed(scheme, self.tenancy.clone());
        let mut sim = Simulator::new(cfg.clone(), trace.clone(), factory.as_ref());
        sim.set_tenant_map(self.map.clone());
        sim
    }
}

/// Builds one victim workload; patterns rotate by victim index so the
/// company mixes regular and irregular traffic.
fn victim_trace(cfg: &StormCampaignConfig, index: usize) -> Trace {
    let params = GenParams {
        footprint_sectors: (cfg.slab_bytes / gpu_sim::SECTOR_SIZE / 2).clamp(64, 1024),
        accesses: cfg.accesses_per_tenant,
        think_cycles: (1, 4),
        instructions: 8,
        seed: cfg.seed ^ (0x51C7 + index as u64),
    };
    let (name, pattern) = match index % 3 {
        0 => ("victim-rmw", Pattern::RandomRmw),
        1 => (
            "victim-graph",
            Pattern::Graph {
                degree: 3,
                write_permille: 150,
            },
        ),
        _ => (
            "victim-stencil",
            Pattern::Stencil {
                read_arrays: 2,
                write_period: 4,
                passes: 8,
            },
        ),
    };
    generate(
        name,
        pattern,
        params,
        ValueProfile::SmallInts { max: 100 },
        ValueProfile::Mixed {
            small_permille: 500,
            max: 100,
        },
    )
}

/// A neutral equal-volume workload standing in for the adversary in the
/// honest baseline: same access count, benign streaming behaviour.
fn neutral_trace(cfg: &StormCampaignConfig) -> Trace {
    generate(
        "neutral",
        Pattern::Stencil {
            read_arrays: 2,
            write_period: 4,
            passes: 16,
        },
        GenParams {
            footprint_sectors: (cfg.slab_bytes / gpu_sim::SECTOR_SIZE / 2).clamp(64, 1024),
            accesses: cfg.accesses_per_tenant,
            think_cycles: (1, 4),
            instructions: 8,
            seed: cfg.seed ^ 0x4EA7,
        },
        ValueProfile::SmallInts { max: 100 },
        ValueProfile::SmallInts { max: 100 },
    )
}

/// The adversary's write-hammer footprint — small enough to stay
/// cache-hot, so overflow storms are pure writeback pressure.
const HAMMER_SECTORS: u64 = 4;

/// The adversary's read-probe footprint. Probe sectors are read rarely,
/// get evicted by co-tenant thrash in between, and are re-filled on the
/// next probe — the fill path where injected tampering is adjudicated.
const PROBE_SECTORS: u64 = 64;

fn build_fixture(cfg: &StormCampaignConfig) -> StormFixture {
    assert!(cfg.victims >= 1, "storm campaign needs at least one victim");
    let adversary = overflow_storm_trace(
        "adversary",
        cfg.seed ^ 0xAD,
        HAMMER_SECTORS,
        PROBE_SECTORS,
        cfg.accesses_per_tenant,
    );
    let neutral = neutral_trace(cfg);
    let victims: Vec<Trace> = (0..cfg.victims).map(|i| victim_trace(cfg, i)).collect();

    let mut storm_slots = vec![(ADVERSARY, adversary)];
    let mut honest_slots = vec![(ADVERSARY, neutral)];
    for (i, v) in victims.into_iter().enumerate() {
        storm_slots.push((FIRST_VICTIM + i as u32, v.clone()));
        honest_slots.push((FIRST_VICTIM + i as u32, v));
    }
    let (storm, map) = multi_tenant_trace("storm", &storm_slots, cfg.slab_bytes);
    let (honest, honest_map) = multi_tenant_trace("storm-honest", &honest_slots, cfg.slab_bytes);
    assert_eq!(
        map, honest_map,
        "storm and baseline must share the slab map"
    );
    let tenancy = TenancyConfig::new(map.clone(), cfg.seed ^ 0x7E4A);
    StormFixture {
        storm,
        honest,
        map,
        tenancy,
    }
}

/// The adversary's fault barrage, spread evenly through the run's steady
/// state by access count — all aimed at the adversary's own slab:
///
/// - ciphertext corruption and MAC tamper target the *probe* region,
///   whose sectors are evicted and re-filled, so the verifier actually
///   rules on each fault (the cache-hot hammer set would leave tampered
///   DRAM unread);
/// - snapshot/replay pairs target a *hammer* sector — the classic
///   replay against a constantly-rewritten line.
///
/// With `inject_breach`, cross-tenant corruption is added on top: the
/// first victim's longest-reuse-distance reads (sectors certain to have
/// been evicted and re-filled) are each corrupted shortly before the
/// victim fetches them — the breach the isolation gate must catch as
/// victim-attributed violations.
fn adversary_faults(cfg: &StormCampaignConfig, trace: &Trace, map: &TenantMap) -> FaultSchedule {
    let total_accesses = trace.accesses.len() as u64;
    let mut schedule = FaultSchedule::new();
    let n = cfg.faults.max(1) as u64;
    if cfg.inject_breach {
        for (at, addr) in breach_targets(trace, map, (cfg.faults / 2).max(3)) {
            schedule.push(ScheduledFault {
                trigger: FaultTrigger::AtAccess(at),
                addr,
                kind: FaultKind::CorruptData { mask: [0x5A; 32] },
            });
        }
    }
    for i in 0..n {
        // Skip the first and last tenth so faults land in steady state.
        let at = (total_accesses / 10 + (total_accesses * 8 / 10) * i / n).max(1);
        let probe = SectorAddr::new((HAMMER_SECTORS + i % PROBE_SECTORS) * gpu_sim::SECTOR_SIZE);
        match i % 4 {
            1 => {
                let addr = SectorAddr::new((i / 4 % HAMMER_SECTORS) * gpu_sim::SECTOR_SIZE);
                schedule.push(ScheduledFault {
                    trigger: FaultTrigger::AtAccess(at),
                    addr,
                    kind: FaultKind::SnapshotData,
                });
                schedule.push(ScheduledFault {
                    trigger: FaultTrigger::AtAccess(at + total_accesses / 12),
                    addr,
                    kind: FaultKind::ReplayData,
                });
            }
            3 => schedule.push(ScheduledFault {
                trigger: FaultTrigger::AtAccess(at),
                addr: probe,
                kind: FaultKind::Metadata(MetaFault::TamperMac),
            }),
            _ => schedule.push(ScheduledFault {
                trigger: FaultTrigger::AtAccess(at),
                addr: probe,
                kind: FaultKind::CorruptData { mask: [0x5A; 32] },
            }),
        }
    }
    schedule
}

/// Picks up to `want` first-victim reads in the second half of the
/// merged trace, preferring the longest reuse distance since the
/// sector's previous access — those sectors are certain to have been
/// evicted by co-tenant thrash, so the pre-read corruption is actually
/// fetched and adjudicated. Returns `(fault_access, sector)` pairs with
/// the fault scheduled shortly before the victim's read.
fn breach_targets(trace: &Trace, map: &TenantMap, want: usize) -> Vec<(u64, SectorAddr)> {
    let mut last_touch: BTreeMap<u64, usize> = BTreeMap::new();
    // (reuse distance, read index, sector)
    let mut candidates: Vec<(usize, usize, SectorAddr)> = Vec::new();
    let half = trace.accesses.len() / 2;
    for (i, a) in trace.accesses.iter().enumerate() {
        if map.tenant_of(a.addr) != FIRST_VICTIM {
            continue;
        }
        if a.kind == AccessKind::Read && i >= half {
            if let Some(&prev) = last_touch.get(&a.addr.raw()) {
                candidates.push((i - prev, i, a.addr));
            }
        }
        last_touch.insert(a.addr.raw(), i);
    }
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    candidates.truncate(want);
    candidates.sort_by_key(|c| c.1);
    candidates
        .into_iter()
        .map(|(_, i, addr)| ((i as u64).saturating_sub(32).max(1), addr))
        .collect()
}

/// Folds a finished run's stats into `row`: tenant attribution, ladder
/// freezes, ledger conservation, storm/rotation counters, and Eq. 1.
fn absorb_stats(row: &mut StormRow, stats: &SimStats, victims: &[u32]) {
    row.cycles = stats.cycles;
    row.ledger_conserved = stats.ledger_conserved();
    for &v in victims {
        let t = stats.tenant_stat(v);
        row.victim_ipc.push((v, t.map_or(0.0, |t| t.ipc())));
        row.victim_violations += t.map_or(0, |t| t.violations);
        if stats
            .engine_counter(&format!("ladder_frozen_t{v}"))
            .unwrap_or(0)
            > 0
        {
            row.victim_frozen += 1;
        }
    }
    row.adversary_violations = stats.tenant_stat(ADVERSARY).map_or(0, |t| t.violations);
    row.storm_suppressed = stats
        .engine_counter("storm_suppressed_overflows")
        .unwrap_or(0);
    row.storm_deferred = stats.engine_counter("storm_deferred_reqs").unwrap_or(0);
    row.rotations_completed = stats.engine_counter("rotations_completed").unwrap_or(0);
    row.rotated_sectors = stats.engine_counter("rotated_sectors").unwrap_or(0);
    row.transients_injected = stats.transients_injected;
    row.transients_escalated = stats.transients_escalated;
    let mut faults = CampaignRow::default();
    faults.absorb(&stats.fault_records);
    row.faults_adjudicated = faults.adjudicated();
    row.forgeries = faults.value_forgeries;
    row.eq1_ok = faults.forgery_rate() <= eq1_bound();
}

/// Applies the baseline IPC reference to a monitored row.
fn apply_ipc_ratio(row: &mut StormRow, baseline: &StormRow) {
    let mut min_ratio = f64::INFINITY;
    for &(v, ipc) in &row.victim_ipc {
        let base = baseline
            .victim_ipc
            .iter()
            .find(|&&(bv, _)| bv == v)
            .map_or(0.0, |&(_, b)| b);
        if base > 0.0 {
            min_ratio = min_ratio.min(ipc / base);
        }
    }
    row.min_ipc_ratio = if min_ratio.is_finite() {
        min_ratio
    } else {
        0.0
    };
}

/// Round 1's phases, in the order their rows are observed; `soak` runs
/// in soak mode only.
const ROUND1: [&str; 3] = ["baseline", "storm", "soak"];

/// Runs the storm (or soak) campaign on `exec`. Per campaign engine
/// (PSSM, Common Counters, Plutus — all with per-tenant keys):
///
/// 1. **baseline** — the honest company (adversary slot replaced by a
///    neutral equal-volume workload) establishes each victim's IPC;
/// 2. **storm** — the adversary hammers overflows and fires
///    tamper/replay/MAC faults at its own slab while the first victim's
///    key rotation walks live;
/// 3. **soak** (soak mode only) — the same storm under seeded soft
///    errors with bounded retry;
/// 4. **rotation@c** — `crash_points` kill-cycles: rotation started
///    before the first covering checkpoint, crash mid-walk, revert,
///    Phoenix-recover, and audit every resident sector bit-identically.
///
/// Rows come back in a fixed phase order per scheme, identical for any
/// worker count. Unlike the crash/transient campaigns the storm
/// campaign composes its own multi-tenant traces, so it takes no
/// workload list.
///
/// `observer` is called on the caller thread the moment each campaign
/// row is assembled: the baseline, storm and soak rows once the first
/// parallel round has finished, phase by phase, and the crash rows
/// after the second round, which is submitted only after the first
/// round's rows were observed. Observation order is the fixed phase
/// order, independent of worker count, so observers that mirror rows
/// into telemetry epochs stay deterministic.
///
/// # Panics
///
/// Panics if a campaign job panics.
pub fn run_storm_campaign_observed(
    exec: &Executor,
    campaign: &StormCampaignConfig,
    cfg: &GpuConfig,
    observer: &mut dyn FnMut(&StormRow),
) -> Vec<StormRow> {
    let fx = &build_fixture(campaign);
    let victims = campaign.victim_ids();
    let phases = &ROUND1[..if campaign.soak { 3 } else { 2 }];
    let engines = CAMPAIGN_ENGINES.len();

    // Round 1: baseline, storm (and soak) runs, phase-major. Each job
    // returns the finished stats and whether the live rotation of the
    // first victim, under fire from the adversary, completed.
    let mut round1: Vec<Job<'_, (Box<SimStats>, bool)>> = Vec::new();
    for &phase in phases {
        for scheme in CAMPAIGN_ENGINES {
            round1.push(Job::new(format!("{}/{phase}", scheme.label()), move || {
                if phase == "baseline" {
                    let mut sim = fx.simulator(cfg, scheme, &fx.honest);
                    return (Box::new(sim.run().stats), true);
                }
                let mut sim = fx.simulator(cfg, scheme, &fx.storm);
                if phase == "storm" {
                    sim.set_fault_schedule(adversary_faults(campaign, &fx.storm, &fx.map));
                } else {
                    sim.set_transient_faults(TransientConfig::new(
                        campaign.soft_error_rate,
                        campaign.seed ^ 0x050A_CE44,
                    ));
                    sim.set_retry_policy(RetryPolicy::with_limit(campaign.retry_limit));
                }
                let rotation_ok = sim.start_key_rotation(FIRST_VICTIM);
                let stats = sim.run().stats;
                (Box::new(stats), rotation_ok && !sim.rotation_active())
            }));
        }
    }
    let mut round1_out = expect_all(exec.run(round1), "storm campaign runs").into_iter();
    let mut rows: Vec<StormRow> = Vec::new();
    for &phase in phases {
        for (si, scheme) in CAMPAIGN_ENGINES.iter().enumerate() {
            let (stats, rotation_done) = round1_out.next().expect("one result per round-1 job");
            let mut row = StormRow::new(&scheme.label(), phase);
            absorb_stats(&mut row, &stats, &victims);
            if phase != "baseline" {
                apply_ipc_ratio(&mut row, &rows[si]);
                if !rotation_done {
                    row.error = Some("key-rotation walk did not complete".into());
                }
            }
            observer(&row);
            rows.push(row);
        }
    }

    // Round 2: mid-rotation crash-kills. Crash cycles span the storm
    // run's measured length; rotation starts before the first covering
    // checkpoint so the restored checkpoint always postdates the
    // generation bump (the dual-generation recovery invariant).
    let mut crash_jobs: Vec<Job<'_, StormRow>> = Vec::new();
    for (si, &scheme) in CAMPAIGN_ENGINES.iter().enumerate() {
        let total = rows[engines + si]
            .cycles
            .max(campaign.checkpoint_cycles + 2);
        for i in 1..=campaign.crash_points {
            let lo = campaign.checkpoint_cycles + 1;
            let hi = (total * 9 / 10).max(lo + 1);
            let crash_at = lo + (hi - lo) * i as u64 / (campaign.crash_points as u64 + 1);
            let phase = format!("rotation@{crash_at}");
            crash_jobs.push(Job::new(format!("{}/{phase}", scheme.label()), move || {
                let mut sim = fx.simulator(cfg, scheme, &fx.storm);
                sim.set_checkpoint_interval(campaign.checkpoint_cycles);
                let mut row = StormRow::new(&scheme.label(), phase);
                // Start the walk before the first periodic checkpoint
                // covers it.
                let _ = sim.run_until((campaign.checkpoint_cycles / 2).max(1));
                if !sim.start_key_rotation(FIRST_VICTIM) {
                    row.error = Some("engine refused key rotation".into());
                    return row;
                }
                row.cycles = sim.run_until(crash_at).stats.cycles;
                (row.rotation, row.error) = crash_audit(&mut sim, crash_at);
                row
            }));
        }
    }
    let mut crash_rows =
        expect_all(exec.run(crash_jobs), "storm rotation-crash audits").into_iter();

    // Assemble: per scheme — baseline, storm, (soak), rotation crashes.
    let mut out = Vec::new();
    for si in 0..engines {
        out.extend(rows.iter().skip(si).step_by(engines).cloned());
        for _ in 0..campaign.crash_points {
            let row = crash_rows.next().expect("one row per crash job");
            observer(&row);
            out.push(row);
        }
    }
    out
}

/// The storm gate: every row's invariants hold, the storm actually
/// exercised the machinery (faults adjudicated, rotation completed and
/// re-encrypted sectors, crash audits audited sectors), and victims
/// were never disturbed.
///
/// # Errors
///
/// Returns the failure naming every violated check.
pub fn storm_gate(rows: &[StormRow], campaign: &StormCampaignConfig) -> Result<(), GateFailure> {
    let mut gate = Gate::new();
    gate.check("rows", !rows.is_empty(), || {
        "storm campaign produced no rows".into()
    });
    for r in rows {
        let (key, ran) = (format!("{}/{}", r.scheme, r.phase), r.error.is_none());
        gate.check("clean", r.is_clean(campaign.ipc_tolerance), || {
            match &r.error {
                Some(e) => format!("{key}: {e}"),
                None => format!(
                    "{key}: {} victim violations, {} frozen victims, ipc ratio {:.3}, \
                     ledger conserved {}, eq1 {}, {} escalated transients, \
                     rotation {}/{}/{} mismatch/spurious/failed",
                    r.victim_violations,
                    r.victim_frozen,
                    r.min_ipc_ratio,
                    r.ledger_conserved,
                    r.eq1_ok,
                    r.transients_escalated,
                    r.rotation.mismatches,
                    r.rotation.spurious_violations,
                    r.rotation.report.failed.len()
                ),
            }
        });
        // A phase that ran must have exercised what it exists to test.
        let idle = ran && r.phase == "storm" && r.faults_adjudicated == 0;
        gate.check("adjudicated", !idle, || {
            format!("{key}: no adversarial fault was ever adjudicated")
        });
        let walked = r.rotations_completed > 0 && r.rotated_sectors > 0;
        let stalled = ran && (r.phase == "storm" || r.phase == "soak") && !walked;
        gate.check("rotation", !stalled, || {
            format!(
                "{key}: key rotation did not complete ({} walks, {} sectors)",
                r.rotations_completed, r.rotated_sectors
            )
        });
        let dry = ran && r.phase == "soak" && r.transients_injected == 0;
        gate.check("injected", !dry, || {
            format!("{key}: the soak injected no soft error (rate too low for scale?)")
        });
        let blind = ran && r.phase.starts_with("rotation@") && r.rotation.audited == 0;
        gate.check("audit", !blind, || {
            format!("{key}: crash audit saw no sectors")
        });
    }
    gate.finish()
}

/// The storm report: one row per monitored phase per scheme.
pub fn storm_report<'a>(
    rows: &'a [StormRow],
    campaign: &StormCampaignConfig,
) -> Table<'a, StormRow> {
    let tolerance = campaign.ipc_tolerance;
    Table::new(rows)
        .show("scheme", |r| r.scheme.as_str().into())
        .show("phase", |r| r.phase.as_str().into())
        .show("cycles", |r| r.cycles.into())
        .nest("victim_ipc", |r| {
            let ipc = r.victim_ipc.iter();
            ipc.fold(Json::object(), |o, (t, v)| o.set(&format!("t{t}"), *v))
        })
        .show("min_ipc_ratio", |r| r.min_ipc_ratio.into())
        .show("victim_violations", |r| r.victim_violations.into())
        .col("victim_frozen", |r| r.victim_frozen.into())
        .col("adversary_violations", |r| r.adversary_violations.into())
        .col("ledger_conserved", |r| r.ledger_conserved.into())
        .col("storm_suppressed", |r| r.storm_suppressed.into())
        .col("storm_deferred", |r| r.storm_deferred.into())
        .col("rotations_completed", |r| r.rotations_completed.into())
        .show("rotated_sectors", |r| r.rotated_sectors.into())
        .show("faults_adjudicated", |r| r.faults_adjudicated.into())
        .col("forgeries", |r| r.forgeries.into())
        .col("eq1_ok", |r| r.eq1_ok.into())
        .show("transients_injected", |r| r.transients_injected.into())
        .col("transients_escalated", |r| r.transients_escalated.into())
        .show("rotation_audited", |r| r.rotation.audited.into())
        .show("rotation_mismatches", |r| r.rotation.mismatches.into())
        .col("rotation_spurious", |r| {
            r.rotation.spurious_violations.into()
        })
        .col("rotation_failed", |r| {
            (r.rotation.report.failed.len() as u64).into()
        })
        .show("clean", move |r| r.is_clean(tolerance).into())
        .col("error", |r| {
            r.error.as_deref().map_or(Json::Null, Json::from)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> StormCampaignConfig {
        StormCampaignConfig {
            accesses_per_tenant: 700,
            faults: 12,
            crash_points: 1,
            ..StormCampaignConfig::new(seed)
        }
    }

    #[test]
    fn honest_storm_campaign_passes_the_gate() {
        let campaign = quick(0xB00C);
        let rows = run_storm_campaign_observed(
            &Executor::new(None),
            &campaign,
            &GpuConfig::test_small(),
            &mut |_| {},
        );
        // baseline + storm + 1 rotation crash, per scheme.
        assert_eq!(rows.len(), 3 * 3);
        storm_gate(&rows, &campaign).expect("honest storm must pass");
        // The campaign must actually exercise the machinery: overflows
        // suppressed or deferred somewhere, sectors rotated, faults
        // adjudicated against the adversary.
        let storm = |r: &StormRow| r.phase == "storm";
        assert!(rows
            .iter()
            .filter(|r| storm(r))
            .all(|r| r.rotated_sectors > 0));
        assert!(rows
            .iter()
            .filter(|r| storm(r))
            .any(|r| r.faults_adjudicated > 0));
        assert!(rows
            .iter()
            .any(|r| r.phase.starts_with("rotation@") && r.rotation.audited > 0));
    }

    #[test]
    fn a_soak_without_soft_errors_fails_the_gate() {
        let campaign = StormCampaignConfig {
            soak: true,
            soft_error_rate: 0.0,
            ..quick(0xB00C)
        };
        let rows = run_storm_campaign_observed(
            &Executor::new(None),
            &campaign,
            &GpuConfig::test_small(),
            &mut |_| {},
        );
        let err = storm_gate(&rows, &campaign).unwrap_err();
        let dry: Vec<&str> = err
            .violations
            .iter()
            .filter(|(check, _)| *check == "injected")
            .map(|(_, detail)| detail.as_str())
            .collect();
        assert_eq!(dry.len(), 3, "one failure per soak row: {err}");
        for (detail, scheme) in dry.iter().zip(CAMPAIGN_ENGINES) {
            assert!(
                detail.starts_with(&format!("{}/soak: ", scheme.label())),
                "{detail}"
            );
        }
    }

    #[test]
    fn injected_breach_fails_the_gate() {
        let campaign = StormCampaignConfig {
            inject_breach: true,
            ..quick(0xB00C)
        };
        let rows = run_storm_campaign_observed(
            &Executor::new(None),
            &campaign,
            &GpuConfig::test_small(),
            &mut |_| {},
        );
        let err = storm_gate(&rows, &campaign).unwrap_err().to_string();
        assert!(
            err.contains("victim violations") || err.contains("frozen"),
            "breach must surface as a victim-isolation failure: {err}"
        );
    }

    #[test]
    fn is_clean_rejects_each_victim_isolation_breach() {
        let clean = StormRow::new("plutus", "storm");
        let at_floor = StormRow {
            min_ipc_ratio: 0.75,
            ..clean.clone()
        };
        assert!(at_floor.is_clean(0.25), "the IPC floor is inclusive");
        let breaches = [
            StormRow {
                victim_violations: 1,
                ..clean.clone()
            },
            StormRow {
                victim_frozen: 1,
                ..clean.clone()
            },
            StormRow {
                min_ipc_ratio: 0.7499,
                ..clean.clone()
            },
            StormRow {
                min_ipc_ratio: f64::NAN,
                ..clean
            },
        ];
        for row in breaches {
            assert!(!row.is_clean(0.25), "{row:?}");
        }
    }

    #[test]
    fn storm_campaign_is_deterministic_across_worker_counts() {
        let campaign = quick(7);
        let cfg = GpuConfig::test_small();
        let run = |workers| {
            run_storm_campaign_observed(&Executor::new(Some(workers)), &campaign, &cfg, &mut |_| {})
        };
        let (a, b) = (run(1), run(4));
        let (a, b) = (storm_report(&a, &campaign), storm_report(&b, &campaign));
        assert_eq!(
            a.to_csv(),
            b.to_csv(),
            "storm rows must not depend on worker count"
        );
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
    }

    #[test]
    fn reports_serialize() {
        let campaign = StormCampaignConfig::new(1);
        let mut row = StormRow::new("plutus", "storm");
        row.victim_ipc = vec![(2, 0.5), (3, 0.4)];
        row.min_ipc_ratio = 0.93;
        row.rotated_sectors = 40;
        let rows = [row];
        let report = storm_report(&rows, &campaign);
        let json = report.to_json().to_string_pretty();
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"t2\""));
        assert!(report.to_csv().contains("plutus,storm"));
        assert!(report.to_console().contains("true"));
    }
}
