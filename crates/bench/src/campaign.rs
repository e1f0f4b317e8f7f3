//! Seeded Monte Carlo fault-injection campaigns.
//!
//! A campaign hammers every security engine with randomized mid-run
//! faults — data corruption, replay, counter/MAC/BMT metadata rollback —
//! scheduled through [`gpu_sim::FaultSchedule`] while real workload
//! traces run, and aggregates how each fault resolved: which
//! verification layer caught it, how many cycles detection took, and
//! whether anything escaped. The campaign also validates the paper's
//! Eq. 1 claim empirically: the measured forgery-acceptance rate of the
//! value-verification fast path must stay at or below the analytic
//! binomial-tail bound.
//!
//! Engines continue-and-count: a run does not stop at its first
//! violation, so one run adjudicates every fault it was given.
//!
//! This module also holds what every campaign shares: the engines they
//! attack ([`CAMPAIGN_ENGINES`]), the Eq. 1 bound, the fault tally of
//! [`CampaignRow`] and the trace-driven job rounds. The other campaigns
//! sit beside it: transient retry ([`crate::transient`]), crash restore
//! ([`crate::crash`]) and the multi-tenant storm and soak
//! ([`crate::storm`]).

use crate::runner::Scheme;
use gpu_sim::{
    FaultKind, FaultOutcome, FaultRecord, FaultSchedule, FaultTrigger, GpuConfig, MetaFault,
    ScheduledFault, SectorAddr, Simulator, Trace,
};
use plutus_core::binomial::{
    binomial_tail, plutus_min_hits, tamper_hit_probability, VALUES_PER_UNIT,
};
use plutus_core::{CompactKind, ValueCacheConfig};
use plutus_exec::{derive_seed, expect_all, Executor, Job};
use plutus_telemetry::{Gate, GateFailure, Json, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use workloads::{Scale, WorkloadSpec};

/// The engines every campaign attacks. The order is part of each
/// report: [`derive_seed`] takes an engine's index here.
pub const CAMPAIGN_ENGINES: [Scheme; 3] = [Scheme::Pssm, Scheme::CommonCounters, Scheme::Plutus];

/// The analytic Eq. 1 forgery bound at the default value-cache design
/// point: `P(X ≥ x)` for one 128-bit unit under a tampered decrypt.
/// Every campaign that counts value-verification forgeries gates on it.
pub fn eq1_bound() -> f64 {
    let vc = ValueCacheConfig::default();
    let p = tamper_hit_probability(vc.entries, vc.effective_bits());
    binomial_tail(
        VALUES_PER_UNIT,
        plutus_min_hits(vc.entries, vc.effective_bits()),
        p,
    )
}

/// Fault kinds whose applied effect changes the plaintext served to the
/// core — the only kinds whose value-verified escapes count as forgery
/// acceptances under Eq. 1. A tampered MAC or BMT node leaves the data
/// path honest (the tampered structure simply goes unconsulted on a
/// value-verified read), so such escapes are expected behaviour, not
/// forgeries: Eq. 1 bounds the chance that *non-authentic* plaintext
/// clears the 3-of-4 value screen.
pub fn randomizes_plaintext(kind: &str) -> bool {
    matches!(
        kind,
        "corrupt_data" | "replay_data" | "rollback_counter" | "rollback_compact"
    )
}

/// Which fault family a campaign injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// Ciphertext corruption plus MAC and BMT-node tampering.
    Tamper,
    /// Snapshot/restore replay of stale ciphertext.
    Replay,
    /// Encryption-counter and compact-counter rollback.
    Rollback,
    /// All of the above, mixed uniformly.
    Sweep,
}

impl CampaignKind {
    /// Parses a CLI spelling (the [`CampaignKind::label`]).
    pub fn parse(s: &str) -> Option<CampaignKind> {
        [Self::Tamper, Self::Replay, Self::Rollback, Self::Sweep]
            .into_iter()
            .find(|k| k.label() == s)
    }

    /// Stable label used in report file names.
    pub fn label(self) -> &'static str {
        match self {
            CampaignKind::Tamper => "tamper",
            CampaignKind::Replay => "replay",
            CampaignKind::Rollback => "rollback",
            CampaignKind::Sweep => "sweep",
        }
    }
}

/// Campaign parameters. `runs × faults_per_run` faults are injected per
/// engine per workload, all derived deterministically from `seed`.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Fault family to inject.
    pub kind: CampaignKind,
    /// Randomized runs per engine per workload.
    pub runs: usize,
    /// Faults scheduled in each run.
    pub faults_per_run: usize,
    /// Master seed; every run's schedule derives from it.
    pub seed: u64,
    /// Trace scale the victim workloads run at.
    pub scale: Scale,
}

impl CampaignConfig {
    /// The default campaign: 150 runs × 8 faults ≈ 1200 randomized
    /// faults per engine per workload.
    pub fn new(kind: CampaignKind, seed: u64, scale: Scale) -> Self {
        Self {
            kind,
            runs: 150,
            faults_per_run: 8,
            seed,
            scale,
        }
    }
}

/// Aggregated campaign outcome for one (workload, engine) pair.
#[derive(Debug, Clone, Default)]
pub struct CampaignRow {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Faults scheduled (snapshot bookkeeping excluded).
    pub injected: u64,
    /// Faults that changed simulator state.
    pub applied: u64,
    /// Applied faults caught by a verification layer.
    pub detected: u64,
    /// Applied faults served to the core with no violation.
    pub escaped: u64,
    /// Escapes of plaintext-changing faults accepted by the
    /// value-verification fast path alone — forgery acceptances in
    /// Eq. 1's terms (see [`randomizes_plaintext`]).
    pub value_forgeries: u64,
    /// Applied faults overwritten by a writeback before verification.
    pub clobbered: u64,
    /// Applied faults never verified again before the run ended.
    pub unobserved: u64,
    /// Faults that could not change state (target absent, metadata the
    /// scheme does not keep, or a rollback to the current value).
    pub not_applied: u64,
    /// Detections per verification layer, stable label → count.
    pub layer_hist: BTreeMap<&'static str, u64>,
    /// Injection-to-detection latency of every detected fault, cycles.
    pub latencies: Vec<u64>,
}

impl CampaignRow {
    fn new(workload: &str, scheme: &Scheme) -> Self {
        Self {
            workload: workload.to_string(),
            scheme: scheme.label(),
            ..Self::default()
        }
    }

    /// Faults a verification layer actually ruled on.
    pub fn adjudicated(&self) -> u64 {
        self.detected + self.escaped
    }

    /// Detected fraction of adjudicated faults.
    pub fn detection_rate(&self) -> f64 {
        ratio(self.detected, self.adjudicated())
    }

    /// Escaped fraction of adjudicated faults.
    pub fn escape_rate(&self) -> f64 {
        ratio(self.escaped, self.adjudicated())
    }

    /// Measured forgery-acceptance rate of the value-verification fast
    /// path: value-verified escapes over adjudicated faults.
    pub fn forgery_rate(&self) -> f64 {
        ratio(self.value_forgeries, self.adjudicated())
    }

    /// `(min, mean, p50, max)` of the detection-latency distribution,
    /// all zero when nothing was detected.
    pub fn latency_summary(&self) -> (u64, f64, u64, u64) {
        if self.latencies.is_empty() {
            return (0, 0.0, 0, 0);
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let sum: u64 = sorted.iter().sum();
        (
            sorted[0],
            sum as f64 / sorted.len() as f64,
            sorted[sorted.len() / 2],
            sorted[sorted.len() - 1],
        )
    }

    /// Tallies one run's fault records: how each fault resolved, which
    /// layer caught it, and which value-verified escapes were forgeries.
    pub(crate) fn absorb(&mut self, records: &[FaultRecord]) {
        for r in records {
            self.injected += 1;
            match r.outcome {
                FaultOutcome::Detected { layer, latency } => {
                    self.applied += 1;
                    self.detected += 1;
                    self.latencies.push(latency);
                    *self.layer_hist.entry(layer.label()).or_insert(0) += 1;
                }
                FaultOutcome::Escaped { value_verified } => {
                    self.applied += 1;
                    self.escaped += 1;
                    if value_verified && randomizes_plaintext(r.kind) {
                        self.value_forgeries += 1;
                    }
                }
                FaultOutcome::Clobbered => {
                    self.applied += 1;
                    self.clobbered += 1;
                }
                FaultOutcome::Unobserved => {
                    self.applied += 1;
                    self.unobserved += 1;
                }
                FaultOutcome::NotApplied => self.not_applied += 1,
            }
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Address pools a schedule draws targets from, extracted once per
/// workload trace.
struct TargetPools {
    /// Sectors resident in DRAM before the first access (initial image).
    resident: Vec<SectorAddr>,
    /// Every distinct sector the trace touches, first-seen order.
    touched: Vec<SectorAddr>,
    /// Distinct sectors the trace writes, first-seen order.
    written: Vec<SectorAddr>,
    /// Total accesses in the trace.
    accesses: u64,
}

impl TargetPools {
    fn of(trace: &Trace) -> Self {
        let resident: Vec<SectorAddr> = trace.initial_image.iter().map(|(a, _)| *a).collect();
        let mut touched = Vec::new();
        let mut written = Vec::new();
        let mut seen_touched = std::collections::HashSet::new();
        let mut seen_written = std::collections::HashSet::new();
        for a in &trace.accesses {
            if seen_touched.insert(a.addr.raw()) {
                touched.push(a.addr);
            }
            if a.kind == gpu_sim::AccessKind::Write && seen_written.insert(a.addr.raw()) {
                written.push(a.addr);
            }
        }
        Self {
            resident,
            touched,
            written,
            accesses: trace.accesses.len() as u64,
        }
    }

    fn pick(pool: &[SectorAddr], fallback: &[SectorAddr], rng: &mut StdRng) -> Option<SectorAddr> {
        let pool = if pool.is_empty() { fallback } else { pool };
        if pool.is_empty() {
            None
        } else {
            Some(pool[rng.gen_range(0..pool.len())])
        }
    }
}

/// Builds one randomized schedule. Returns the schedule and the number
/// of scheduled faults (snapshot bookkeeping excluded).
fn build_schedule(
    kind: CampaignKind,
    pools: &TargetPools,
    faults_per_run: usize,
    rng: &mut StdRng,
) -> (FaultSchedule, u64) {
    let mut schedule = FaultSchedule::new();
    let mut injected = 0u64;
    if pools.accesses < 2 {
        return (schedule, injected);
    }
    for _ in 0..faults_per_run {
        let sub = match kind {
            CampaignKind::Sweep => match rng.gen_range(0..3u32) {
                0 => CampaignKind::Tamper,
                1 => CampaignKind::Replay,
                _ => CampaignKind::Rollback,
            },
            k => k,
        };
        match sub {
            CampaignKind::Tamper => {
                let (addr, fk) = match rng.gen_range(0..3u32) {
                    0 => {
                        // Corrupt ciphertext of a sector known to be in
                        // DRAM (initial image), with a nonzero mask.
                        let Some(addr) = TargetPools::pick(&pools.resident, &pools.touched, rng)
                        else {
                            continue;
                        };
                        let mut mask = [0u8; 32];
                        mask[rng.gen_range(0..32usize)] = rng.gen_range(1..=255u32) as u8;
                        (addr, FaultKind::CorruptData { mask })
                    }
                    1 => {
                        let Some(addr) = TargetPools::pick(&pools.touched, &pools.resident, rng)
                        else {
                            continue;
                        };
                        (addr, FaultKind::Metadata(MetaFault::TamperMac))
                    }
                    _ => {
                        let Some(addr) = TargetPools::pick(&pools.touched, &pools.resident, rng)
                        else {
                            continue;
                        };
                        (addr, FaultKind::Metadata(MetaFault::TamperBmtNode))
                    }
                };
                schedule.push(ScheduledFault {
                    trigger: FaultTrigger::AtAccess(rng.gen_range(1..pools.accesses)),
                    addr,
                    kind: fk,
                });
                injected += 1;
            }
            CampaignKind::Replay => {
                // Snapshot early, restore later: only pairs where the
                // sector was rewritten in between actually change state.
                let Some(addr) = TargetPools::pick(&pools.written, &pools.touched, rng) else {
                    continue;
                };
                let snap_at = rng.gen_range(1..pools.accesses);
                let replay_at = rng.gen_range(snap_at..=pools.accesses);
                schedule.push(ScheduledFault {
                    trigger: FaultTrigger::AtAccess(snap_at),
                    addr,
                    kind: FaultKind::SnapshotData,
                });
                schedule.push(ScheduledFault {
                    trigger: FaultTrigger::AtAccess(replay_at),
                    addr,
                    kind: FaultKind::ReplayData,
                });
                injected += 1;
            }
            CampaignKind::Rollback => {
                let Some(addr) = TargetPools::pick(&pools.written, &pools.touched, rng) else {
                    continue;
                };
                let fk = if rng.gen_range(0..2u32) == 0 {
                    FaultKind::Metadata(MetaFault::RollbackCounter {
                        value: rng.gen_range(0..=255u32) as u8,
                    })
                } else {
                    // Below saturation: the saturated value hands the
                    // read to the untouched split counter, so it would
                    // leave the counter the compact layer serves intact.
                    let saturation = CompactKind::Adaptive3.saturation();
                    FaultKind::Metadata(MetaFault::RollbackCompact {
                        value: rng.gen_range(0..u32::from(saturation)) as u8,
                    })
                };
                schedule.push(ScheduledFault {
                    trigger: FaultTrigger::AtAccess(rng.gen_range(1..pools.accesses)),
                    addr,
                    kind: fk,
                });
                injected += 1;
            }
            CampaignKind::Sweep => unreachable!("sweep resolved above"),
        }
    }
    (schedule, injected)
}

/// One trial of a trace-driven campaign: a (workload, engine, trial)
/// coordinate and what [`prepare`] built from the workload's trace.
pub(crate) struct Trial<'a, P> {
    wi: usize,
    si: usize,
    /// Workload name.
    pub workload: &'a str,
    /// The engine under test.
    pub scheme: Scheme,
    /// Trial index within its (workload, engine) pair.
    pub index: usize,
    /// The workload's prepared input.
    pub prep: &'a P,
}

impl<P> Trial<'_, P> {
    /// The trial's seed, a pure function of its coordinates.
    pub fn seed(&self, base: u64) -> u64 {
        derive_seed(base, self.wi, self.si, self.index)
    }

    /// Index of the trial's (workload, engine) pair in [`run_trials`]'
    /// output.
    pub fn pair(&self) -> usize {
        self.wi * CAMPAIGN_ENGINES.len() + self.si
    }
}

/// Builds every workload's trace and turns it into what the campaign's
/// jobs read, one job per workload in one parallel round.
pub(crate) fn prepare<P: Send>(
    exec: &Executor,
    workloads: &[WorkloadSpec],
    scale: Scale,
    build: impl Fn(Trace) -> P + Sync,
) -> Vec<P> {
    let build = &build;
    let jobs: Vec<Job<'_, P>> = workloads
        .iter()
        .map(|w| Job::new(w.name, move || build(w.trace(scale))))
        .collect();
    expect_all(exec.run(jobs), "campaign trace preparation")
}

/// Runs `trial` for every workload × [`CAMPAIGN_ENGINES`] × `trials`, one
/// job each in one parallel round. Returns every (workload, engine)
/// pair's results in trial order, pairs workload-major: the order of
/// every campaign's rows, for any worker count.
pub(crate) fn run_trials<'a, P: Sync, T: Send>(
    exec: &Executor,
    workloads: &'a [WorkloadSpec],
    prepped: &'a [P],
    trials: usize,
    trial: impl Fn(&Trial<'a, P>) -> T + Sync,
) -> Vec<(&'a str, Scheme, Vec<T>)> {
    let trial = &trial;
    let mut jobs: Vec<Job<'_, T>> = Vec::new();
    for (wi, (w, prep)) in workloads.iter().zip(prepped).enumerate() {
        for (si, &scheme) in CAMPAIGN_ENGINES.iter().enumerate() {
            for index in 0..trials {
                let label = format!("{}/{}/run{index}", w.name, scheme.label());
                let t = Trial {
                    wi,
                    si,
                    workload: w.name,
                    scheme,
                    index,
                    prep,
                };
                jobs.push(Job::new(label, move || trial(&t)));
            }
        }
    }
    let mut results = expect_all(exec.run(jobs), "campaign trial").into_iter();
    let pairs = workloads
        .iter()
        .flat_map(|w| CAMPAIGN_ENGINES.map(|scheme| (w.name, scheme)));
    pairs
        .map(|(w, scheme)| (w, scheme, results.by_ref().take(trials).collect()))
        .collect()
}

/// Runs the campaign on `exec`: every workload × every security engine
/// × `runs` seeded runs. Traces and target pools are prepared once per
/// workload, then every (workload, engine, run) triple is one job whose
/// randomized schedule derives from [`derive_seed`].
///
/// # Panics
///
/// Panics if a campaign job panics.
pub fn run_campaign_on(
    exec: &Executor,
    workloads: &[WorkloadSpec],
    campaign: &CampaignConfig,
    cfg: &GpuConfig,
) -> Vec<CampaignRow> {
    let prepped = prepare(exec, workloads, campaign.scale, |trace| {
        let pools = TargetPools::of(&trace);
        (trace, pools)
    });
    let runs = run_trials(exec, workloads, &prepped, campaign.runs, |t| {
        let (trace, pools) = t.prep;
        let mut rng = StdRng::seed_from_u64(t.seed(campaign.seed));
        let (schedule, _) = build_schedule(campaign.kind, pools, campaign.faults_per_run, &mut rng);
        if schedule.is_empty() {
            return Vec::new();
        }
        let mut sim = Simulator::new(cfg.clone(), trace.clone(), t.scheme.factory().as_ref());
        sim.set_fault_schedule(schedule);
        sim.run().stats.fault_records
    });
    runs.into_iter()
        .map(|(workload, scheme, runs)| {
            let mut row = CampaignRow::new(workload, &scheme);
            for records in &runs {
                row.absorb(records);
            }
            row
        })
        .collect()
}

/// The campaign gate (paper Section IV-C): on every row, the measured
/// forgery-acceptance rate stays at or below the analytic Eq. 1 bound.
/// Only a value-verifying engine can forge, so the other rows read 0.
///
/// # Errors
///
/// Returns the failure naming every row over the bound.
pub fn campaign_gate(rows: &[CampaignRow]) -> Result<(), GateFailure> {
    let bound = eq1_bound();
    let mut gate = Gate::new();
    for r in rows {
        gate.check("eq1", r.forgery_rate() <= bound, || {
            format!(
                "{}/{}: {} forgeries / {} adjudicated = {:.3e} exceeds the bound {bound:.3e}",
                r.workload,
                r.scheme,
                r.value_forgeries,
                r.adjudicated(),
                r.forgery_rate()
            )
        });
    }
    gate.finish()
}

/// The campaign report: one row per (workload, engine).
pub fn campaign_report(rows: &[CampaignRow]) -> Table<'_, CampaignRow> {
    Table::new(rows)
        .show("workload", |r| r.workload.as_str().into())
        .show("scheme", |r| r.scheme.as_str().into())
        .show("injected", |r| r.injected.into())
        .show("applied", |r| r.applied.into())
        .show("detected", |r| r.detected.into())
        .show("escaped", |r| r.escaped.into())
        .show("value_forgeries", |r| r.value_forgeries.into())
        .col("clobbered", |r| r.clobbered.into())
        .col("unobserved", |r| r.unobserved.into())
        .col("not_applied", |r| r.not_applied.into())
        .show("detection_rate", |r| r.detection_rate().into())
        .col("escape_rate", |r| r.escape_rate().into())
        .col("forgery_rate", |r| r.forgery_rate().into())
        .nest("layer_histogram", |r| {
            r.layer_hist
                .iter()
                .fold(Json::object(), |o, (&k, &v)| o.set(k, v))
        })
        .col("latency_min", |r| r.latency_summary().0.into())
        .col("latency_mean", |r| r.latency_summary().1.into())
        .show("latency_p50", |r| r.latency_summary().2.into())
        .col("latency_max", |r| r.latency_summary().3.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::by_name;

    fn tiny_campaign(kind: CampaignKind) -> CampaignConfig {
        CampaignConfig {
            kind,
            runs: 3,
            faults_per_run: 4,
            seed: 7,
            scale: Scale::Test,
        }
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let w = [by_name("bfs").unwrap()];
        let (exec, cfg) = (Executor::new(None), GpuConfig::test_small());
        let a = run_campaign_on(&exec, &w, &tiny_campaign(CampaignKind::Tamper), &cfg);
        let b = run_campaign_on(&exec, &w, &tiny_campaign(CampaignKind::Tamper), &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.injected, x.detected, x.escaped, x.not_applied),
                (y.injected, y.detected, y.escaped, y.not_applied),
                "{}/{} not reproducible",
                x.workload,
                x.scheme
            );
        }
    }

    #[test]
    fn tamper_campaign_detects_and_never_forges() {
        let w = [by_name("bfs").unwrap()];
        let (exec, cfg) = (Executor::new(None), GpuConfig::test_small());
        let rows = run_campaign_on(&exec, &w, &tiny_campaign(CampaignKind::Sweep), &cfg);
        assert_eq!(rows.len(), CAMPAIGN_ENGINES.len());
        let total_detected: u64 = rows.iter().map(|r| r.detected).sum();
        assert!(total_detected > 0, "campaign must catch something");
        campaign_gate(&rows).expect("value-verification forgeries stay within Eq. 1");
        // Detected faults carry the detecting layer and a latency sample.
        for r in &rows {
            let hist_total: u64 = r.layer_hist.values().sum();
            assert_eq!(hist_total, r.detected, "{}: histogram mismatch", r.scheme);
            assert_eq!(r.latencies.len() as u64, r.detected);
        }
    }

    #[test]
    fn reports_serialize() {
        let rows = vec![CampaignRow {
            layer_hist: BTreeMap::from([("mac", 2)]),
            latencies: vec![10, 30],
            injected: 4,
            applied: 3,
            detected: 2,
            escaped: 0,
            ..CampaignRow::new("bfs", &Scheme::Plutus)
        }];
        let report = campaign_report(&rows);
        let json = report.to_json().to_string_pretty();
        assert!(json.contains("\"detection_rate\""));
        assert!(json.contains("\"mac\": 2"));
        let csv = report.to_csv();
        assert!(csv.starts_with("workload,scheme"));
        assert!(csv.contains("bfs,plutus,4,3,2,0,0"));
        assert!(report.to_console().contains("plutus"));
        // A forgery rate over the Eq. 1 bound fails the gate by name.
        let forged = [CampaignRow {
            value_forgeries: 1,
            ..rows[0].clone()
        }];
        assert_eq!(campaign_gate(&forged).unwrap_err().violations[0].0, "eq1");
    }

    #[test]
    fn compact_rollbacks_draw_below_saturation() {
        // The schedule keeps its faults private; its Debug rendering
        // spells each compact rollback's value.
        let pools = TargetPools::of(&by_name("bfs").unwrap().trace(Scale::Test));
        let mut values = Vec::new();
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (schedule, _) = build_schedule(CampaignKind::Rollback, &pools, 64, &mut rng);
            let text = format!("{schedule:?}");
            for rest in text.split("RollbackCompact { value: ").skip(1) {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                values.push(digits.parse::<u8>().unwrap());
            }
        }
        assert!(!values.is_empty(), "no compact rollback drawn");
        let saturation = CompactKind::Adaptive3.saturation();
        assert!(values.iter().all(|&v| v < saturation), "{values:?}");
    }

    #[test]
    fn eq1_bound_matches_design_point() {
        // 256 entries × 28 bits, 3-of-4: the bound is strictly positive
        // and far below 1.
        let b = eq1_bound();
        assert!(b > 0.0 && b < 1e-10, "bound {b}");
    }
}
