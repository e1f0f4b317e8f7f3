//! Shared experiment runner: schemes × workloads → results.

use gpu_sim::{EngineFactory, GpuConfig, NoSecurityEngine, SimResult, Simulator};
use plutus_core::{CompactConfig, CompactKind, PlutusConfig, PlutusEngine};
use plutus_exec::{Executor, Job, JobPanic};
use plutus_telemetry::{CycleClock, Telemetry, TraceRecord};
use secure_mem::{CipherKind, CommonCountersEngine, PssmEngine, SecureMemConfig, TenancyConfig};
use std::sync::Arc;
use workloads::{Scale, WorkloadSpec};

/// Every security scheme the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No memory security (the normalization baseline).
    None,
    /// PSSM baseline (8 B MAC, 128 B metadata, CME).
    Pssm,
    /// PSSM with the original 4 B MAC.
    PssmMac4,
    /// PSSM with SGX-style monolithic counters: one 64-bit counter per
    /// sector instead of split counters.
    PssmMonolithic,
    /// PSSM with the AES-XTS data cipher instead of CME.
    PssmXts,
    /// Common Counters layered on PSSM.
    CommonCounters,
    /// Fig. 14 design ②: 32 B counter/MAC blocks, 128 B BMT nodes.
    FineLeafCoarseTree,
    /// Fig. 14 design ③: all metadata 32 B.
    All32,
    /// Plutus idea ① only: value-based verification.
    ValueVerifyOnly,
    /// Plutus idea ② only, 2-bit compact counters.
    Compact2Bit,
    /// Plutus idea ② only, 3-bit compact counters.
    Compact3Bit,
    /// Plutus idea ② only, adaptive 3-bit compact counters.
    CompactAdaptive,
    /// Full Plutus (all three ideas).
    Plutus,
    /// Full Plutus with integrity-tree traffic eliminated (Fig. 20).
    PlutusNoTree,
    /// PSSM with integrity-tree traffic eliminated (MGX-style reference).
    PssmNoTree,
    /// Full Plutus with a custom value-cache entry count (Fig. 21).
    PlutusValueEntries(usize),
    /// Full Plutus pinning this many per-mille of its value-cache
    /// entries (the paper pins 250).
    PlutusPinnedPermille(u16),
    /// Full Plutus promoting a value-cache entry to pinned at this use
    /// count (the paper promotes at 8).
    PlutusPromoteAt(u8),
    /// Full Plutus disabling a compact-counter block at this many
    /// saturated counters (the paper disables at 8).
    PlutusDisableAt(u8),
}

impl Scheme {
    /// Display label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            Scheme::None => "no-security".into(),
            Scheme::Pssm => "pssm".into(),
            Scheme::PssmMac4 => "pssm-mac4".into(),
            Scheme::PssmMonolithic => "pssm-monolithic".into(),
            Scheme::PssmXts => "pssm-xts".into(),
            Scheme::CommonCounters => "common-counters".into(),
            Scheme::FineLeafCoarseTree => "leaf32-tree128".into(),
            Scheme::All32 => "all-32".into(),
            Scheme::ValueVerifyOnly => "value-verify".into(),
            Scheme::Compact2Bit => "compact-2bit".into(),
            Scheme::Compact3Bit => "compact-3bit".into(),
            Scheme::CompactAdaptive => "compact-adaptive".into(),
            Scheme::Plutus => "plutus".into(),
            Scheme::PlutusNoTree => "plutus-no-tree".into(),
            Scheme::PssmNoTree => "pssm-no-tree".into(),
            Scheme::PlutusValueEntries(n) => format!("plutus-vc{n}"),
            Scheme::PlutusPinnedPermille(n) => format!("plutus-pinned-{n}permille"),
            Scheme::PlutusPromoteAt(n) => format!("plutus-promote-at-{n}"),
            Scheme::PlutusDisableAt(n) => format!("plutus-disable-at-{n}"),
        }
    }

    /// A fresh engine factory for one simulator.
    pub fn factory(&self) -> Box<dyn EngineFactory> {
        match self {
            Scheme::None => Box::new(NoSecurityEngine::factory()),
            Scheme::Pssm => Box::new(PssmEngine::factory(SecureMemConfig::pssm())),
            Scheme::PssmMac4 => Box::new(PssmEngine::factory(SecureMemConfig::pssm_mac4())),
            Scheme::PssmMonolithic => {
                Box::new(PssmEngine::factory(SecureMemConfig::pssm_monolithic()))
            }
            Scheme::PssmXts => pssm_with(|c| c.cipher = CipherKind::Xts),
            Scheme::CommonCounters => {
                Box::new(CommonCountersEngine::factory(SecureMemConfig::pssm()))
            }
            Scheme::FineLeafCoarseTree => {
                Box::new(PssmEngine::factory(SecureMemConfig::fine_leaf_coarse_tree()))
            }
            Scheme::All32 => Box::new(PssmEngine::factory(SecureMemConfig::all_32())),
            Scheme::ValueVerifyOnly => {
                Box::new(PlutusEngine::factory(PlutusConfig::value_verify_only()))
            }
            Scheme::Compact2Bit => Box::new(PlutusEngine::factory(PlutusConfig::compact_only(
                CompactKind::TwoBit,
            ))),
            Scheme::Compact3Bit => Box::new(PlutusEngine::factory(PlutusConfig::compact_only(
                CompactKind::ThreeBit,
            ))),
            Scheme::CompactAdaptive => Box::new(PlutusEngine::factory(PlutusConfig::compact_only(
                CompactKind::Adaptive3,
            ))),
            Scheme::Plutus => Box::new(PlutusEngine::factory(PlutusConfig::full())),
            Scheme::PlutusNoTree => Box::new(PlutusEngine::factory(PlutusConfig::full_no_tree())),
            Scheme::PssmNoTree => pssm_with(|c| c.disable_tree = true),
            Scheme::PlutusValueEntries(n) => Box::new(PlutusEngine::factory(
                PlutusConfig::full_with_value_entries(*n),
            )),
            Scheme::PlutusPinnedPermille(n) => {
                plutus_with(|c| c.value_cache.pinned_fraction = f64::from(*n) / 1000.0)
            }
            Scheme::PlutusPromoteAt(n) => plutus_with(|c| c.value_cache.promote_threshold = *n),
            Scheme::PlutusDisableAt(n) => plutus_with(|c| {
                c.compact = Some(CompactConfig {
                    disable_threshold: *n,
                    ..CompactConfig::default()
                });
            }),
        }
    }
}

/// PSSM with one setting changed.
fn pssm_with(change: impl FnOnce(&mut SecureMemConfig)) -> Box<dyn EngineFactory> {
    let mut cfg = SecureMemConfig::pssm();
    change(&mut cfg);
    Box::new(PssmEngine::factory(cfg))
}

/// Full Plutus with one setting changed.
fn plutus_with(change: impl FnOnce(&mut PlutusConfig)) -> Box<dyn EngineFactory> {
    let mut cfg = PlutusConfig::full();
    change(&mut cfg);
    Box::new(PlutusEngine::factory(cfg))
}

/// `scheme` with per-tenant keys: the engines of the multi-tenant storm
/// campaign.
///
/// # Panics
///
/// Panics for a scheme outside [`crate::CAMPAIGN_ENGINES`], which has
/// no tenant-keyed form.
pub(crate) fn tenant_keyed(scheme: Scheme, tenancy: TenancyConfig) -> Box<dyn EngineFactory> {
    let mut cfg = SecureMemConfig::pssm();
    cfg.tenancy = Some(tenancy);
    match scheme {
        Scheme::Pssm => Box::new(PssmEngine::factory(cfg)),
        Scheme::CommonCounters => Box::new(CommonCountersEngine::factory(cfg)),
        Scheme::Plutus => plutus_with(|c| c.mem.tenancy = cfg.tenancy),
        other => panic!("{} has no tenant-keyed engine", other.label()),
    }
}

/// Runs one workload under one scheme (telemetry disabled).
pub fn run_one(
    workload: &WorkloadSpec,
    scheme: Scheme,
    scale: Scale,
    cfg: &GpuConfig,
) -> SimResult {
    Observe::default().run(workload, scheme, scale, cfg).0
}

/// Runs a prebuilt trace under one scheme (telemetry disabled) — the
/// escape hatch for callers that size traces themselves, e.g. with
/// [`workloads::ScaleKnobs`] multipliers instead of a stock [`Scale`].
pub fn run_trace(trace: gpu_sim::Trace, scheme: Scheme, cfg: &GpuConfig) -> SimResult {
    let factory = scheme.factory();
    let mut sim = Simulator::new(cfg.clone(), trace, factory.as_ref());
    sim.run()
}

/// One (workload × scheme) measurement with its baseline normalization.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Raw IPC.
    pub ipc: f64,
    /// IPC normalized to the no-security run of the same trace.
    pub norm_ipc: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Total DRAM bytes.
    pub total_bytes: u64,
    /// Security-metadata DRAM bytes.
    pub metadata_bytes: u64,
    /// Per-class byte totals `(label, bytes)`.
    pub class_bytes: Vec<(String, u64)>,
    /// Engine-specific counters.
    pub engine_stats: Vec<(String, u64)>,
    /// Average fill latency in cycles (0.0 when the run had no fills).
    pub avg_fill_latency: f64,
    /// Mean violation-detection latency in cycles (0.0 when the run
    /// raised no violations).
    pub detection_latency_mean: f64,
    /// CPI-stack totals `(bucket label, cycles)` summed across
    /// partitions, in [`gpu_sim::StallBucket::ALL`] order.
    pub cpi_stack: Vec<(String, u64)>,
    /// Per-partition cycle-ledger buckets, in
    /// [`gpu_sim::StallBucket::ALL`] order; each inner vector sums to
    /// the run's cycle count (the conservation invariant).
    pub ledger_partitions: Vec<Vec<u64>>,
}

/// Per-class byte totals `(label, bytes)` of a run, in
/// [`gpu_sim::TrafficClass::ALL`] order.
fn class_bytes(r: &SimResult) -> Vec<(String, u64)> {
    gpu_sim::TrafficClass::ALL
        .iter()
        .map(|c| (c.label().to_string(), r.stats.class_bytes(*c)))
        .collect()
}

fn measurement_of(w: &WorkloadSpec, scheme: Scheme, r: &SimResult, base_ipc: f64) -> Measurement {
    let detections = &r.stats.violation_records;
    // Steady-state IPC: identical to whole-run IPC unless the config set
    // a warm-up boundary (`GpuConfig::warmup_cycles`), in which case the
    // launch ramp is excluded from both the scheme run and its baseline.
    let ipc = r.stats.steady_ipc();
    Measurement {
        workload: w.name.to_string(),
        scheme: scheme.label(),
        ipc,
        norm_ipc: if base_ipc > 0.0 { ipc / base_ipc } else { 0.0 },
        cycles: r.stats.cycles,
        total_bytes: r.stats.total_bytes(),
        metadata_bytes: r.stats.metadata_bytes(),
        class_bytes: class_bytes(r),
        engine_stats: r.stats.engine.clone(),
        avg_fill_latency: r.stats.avg_fill_latency(),
        detection_latency_mean: if detections.is_empty() {
            0.0
        } else {
            detections.iter().map(|v| v.latency as f64).sum::<f64>() / detections.len() as f64
        },
        cpi_stack: gpu_sim::StallBucket::ALL
            .iter()
            .zip(r.stats.cpi_stack())
            .map(|(b, cycles)| (b.label().to_string(), cycles))
            .collect(),
        ledger_partitions: r.stats.ledgers.iter().map(|l| l.buckets.to_vec()).collect(),
    }
}

/// One traced (workload, scheme) run: the raw flight-recorder records
/// plus the aggregate per-class totals the conservation check compares
/// against.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Per-class byte totals `(label, bytes)` from [`gpu_sim::SimStats`].
    pub class_bytes: Vec<(String, u64)>,
    /// The flight-recorder records, oldest first.
    pub records: Vec<TraceRecord>,
    /// Records dropped because the ring buffer filled (nonzero voids the
    /// attribution conservation property).
    pub dropped: u64,
}

impl TracedRun {
    /// Sums this trace's per-class traffic bytes (reads + writes), in
    /// [`gpu_sim::TrafficClass::ALL`] order — with a sampling period of
    /// 1 and zero drops these equal `class_bytes` exactly.
    pub fn traced_class_bytes(&self) -> Vec<(String, u64)> {
        gpu_sim::TrafficClass::ALL
            .iter()
            .map(|c| {
                let total = self
                    .records
                    .iter()
                    .filter(|r| r.kind == "traffic" && r.class == c.label())
                    .map(|r| r.bytes)
                    .sum();
                (c.label().to_string(), total)
            })
            .collect()
    }
}

/// How each run of a [`run_matrix`] is observed. The default observes
/// nothing; the two parts combine freely. An observed run records into
/// a cycle-clocked telemetry instance of its own.
#[derive(Debug, Clone, Default)]
pub struct Observe {
    /// Feed this shared registry: every run closes one epoch labelled
    /// `workload/scheme` in its own instance, and [`run_matrix`] appends
    /// each phase's runs to this one in submission order once the phase
    /// has finished ([`Telemetry::absorb`]).
    pub registry: Option<Telemetry>,
    /// With a registry, also close an epoch every N simulated cycles
    /// inside each run.
    pub epoch_cycles: Option<u64>,
    /// Arm the causal flight recorder on every run, as
    /// `(sample, capacity)`: keep one demand access in every `sample`
    /// into a ring of `capacity` records. Trace ids restart in each run.
    pub trace: Option<(u64, usize)>,
}

/// One finished matrix run: its result, its trace when the recorder is
/// armed, and its own telemetry instance.
type Run = (SimResult, Option<TracedRun>, Telemetry);

impl Observe {
    /// Runs one workload under one scheme, observed as configured; the
    /// trace is `Some` exactly when the recorder is armed.
    fn run(&self, workload: &WorkloadSpec, scheme: Scheme, scale: Scale, cfg: &GpuConfig) -> Run {
        let tel = if self.registry.is_some() || self.trace.is_some() {
            Telemetry::with_clock(Arc::new(CycleClock::new()))
        } else {
            Telemetry::disabled()
        };
        if let Some((sample, capacity)) = self.trace {
            tel.enable_tracing(sample, capacity);
        }
        let trace = workload.trace(scale);
        let factory = scheme.factory();
        let mut sim = Simulator::with_telemetry(cfg.clone(), trace, factory.as_ref(), tel.clone());
        if let (Some(_), Some(cycles)) = (&self.registry, self.epoch_cycles) {
            sim.set_epoch_interval(cycles);
        }
        let (name, label) = (workload.name.to_string(), scheme.label());
        let result = sim.run();
        tel.end_epoch(&format!("{name}/{label}"));
        let traced = self.trace.map(|_| TracedRun {
            workload: name,
            scheme: label,
            cycles: result.stats.cycles,
            class_bytes: class_bytes(&result),
            records: tel.tracer().drain(),
            dropped: tel.tracer().dropped(),
        });
        (result, traced, tel)
    }
}

/// Runs `workloads × schemes` on `exec`, normalizing every scheme
/// against the no-security run of the same workload, and observing each
/// run as `observe` says. One job per (workload, scheme) pair — every
/// workload's no-security baseline first, then every secured scheme —
/// assembled in submission order, so the result is byte-identical for
/// any worker count. A registry receives each phase's runs in that
/// order once the phase has finished. Returns one measurement per
/// matrix row, plus one [`TracedRun`] per row when the recorder is armed
/// (none otherwise).
///
/// A panicking job is returned as a [`JobPanic`] value (after every job
/// of its phase has finished) rather than propagated, so CLI paths can
/// log the failure and exit nonzero instead of aborting mid-report.
///
/// # Errors
///
/// Returns the first panicked job, in submission order (baselines in
/// workload order, then scheme runs in workload-major order).
pub fn run_matrix(
    exec: &Executor,
    workloads: &[WorkloadSpec],
    schemes: &[Scheme],
    scale: Scale,
    cfg: &GpuConfig,
    observe: &Observe,
) -> Result<(Vec<Measurement>, Vec<TracedRun>), JobPanic> {
    let job = |w: WorkloadSpec, scheme: Scheme| {
        Job::new(format!("{}/{}", w.name, scheme.label()), move || {
            observe.run(&w, scheme, scale, cfg)
        })
    };
    // Runs one phase, then appends its runs to the shared registry in
    // submission order, dropping each run's own instance.
    let phase = |jobs: Vec<Job<'_, Run>>| {
        exec.run(jobs)
            .into_iter()
            .map(|run| {
                let (result, traced, tel) = run?;
                if let Some(shared) = &observe.registry {
                    shared.absorb(&tel);
                }
                Ok((result, traced))
            })
            .collect::<Result<Vec<_>, JobPanic>>()
    };
    // Phase 1: the no-security baseline of every workload — the
    // normalization denominator every other job of that workload needs.
    let mut baselines = phase(workloads.iter().map(|&w| job(w, Scheme::None)).collect())?;

    // Phase 2: one job per (workload, secured scheme); `Scheme::None`
    // rows reuse the phase-1 result.
    let scheme_jobs = workloads
        .iter()
        .flat_map(|&w| schemes.iter().map(move |&s| (w, s)))
        .filter(|&(_, s)| s != Scheme::None)
        .map(|(w, s)| job(w, s))
        .collect();
    let mut runs = phase(scheme_jobs)?.into_iter();

    // Deterministic submission-order assembly: walk the same loop nest
    // the jobs were submitted in.
    let (mut rows, mut traces) = (Vec::new(), Vec::new());
    for (w, (baseline, baseline_trace)) in workloads.iter().zip(&mut baselines) {
        let base_ipc = baseline.stats.steady_ipc();
        for &scheme in schemes {
            if scheme == Scheme::None {
                rows.push(measurement_of(w, scheme, baseline, base_ipc));
                traces.extend(baseline_trace.take());
            } else {
                let (r, t) = runs.next().expect("one result per submitted scheme job");
                rows.push(measurement_of(w, scheme, &r, base_ipc));
                traces.extend(t);
            }
        }
    }
    Ok((rows, traces))
}

/// Geometric mean of a non-empty series.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::by_name;

    fn small_cfg() -> GpuConfig {
        GpuConfig::test_small()
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn security_costs_performance() {
        let w = by_name("bfs").unwrap();
        let none = run_one(&w, Scheme::None, Scale::Test, &small_cfg());
        let pssm = run_one(&w, Scheme::Pssm, Scale::Test, &small_cfg());
        assert!(none.stats.violations == 0 && pssm.stats.violations == 0);
        assert!(
            pssm.stats.cycles > none.stats.cycles,
            "secure memory must cost cycles: {} vs {}",
            pssm.stats.cycles,
            none.stats.cycles
        );
        assert!(pssm.stats.metadata_bytes() > 0);
        assert_eq!(none.stats.metadata_bytes(), 0);
    }

    #[test]
    fn plutus_moves_less_metadata_than_pssm() {
        let w = by_name("bfs").unwrap();
        let pssm = run_one(&w, Scheme::Pssm, Scale::Test, &small_cfg());
        let plutus = run_one(&w, Scheme::Plutus, Scale::Test, &small_cfg());
        assert!(
            plutus.stats.violations == 0,
            "honest run must not raise violations"
        );
        assert!(
            plutus.stats.metadata_bytes() < pssm.stats.metadata_bytes(),
            "plutus {} >= pssm {}",
            plutus.stats.metadata_bytes(),
            pssm.stats.metadata_bytes()
        );
    }

    /// The plain fan-out on a two-worker pool, observing nothing.
    fn matrix(workloads: &[WorkloadSpec], schemes: &[Scheme]) -> Vec<Measurement> {
        let exec = Executor::new(Some(2));
        let observe = Observe::default();
        run_matrix(
            &exec,
            workloads,
            schemes,
            Scale::Test,
            &small_cfg(),
            &observe,
        )
        .expect("healthy matrix must succeed")
        .0
    }

    #[test]
    fn try_run_matrix_reports_results_as_values() {
        let w = [by_name("histo").unwrap()];
        let rows = matrix(&w, &[Scheme::None, Scheme::Pssm]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn measurements_carry_conserving_ledgers() {
        let w = [by_name("histo").unwrap()];
        let rows = matrix(&w, &[Scheme::None, Scheme::Pssm]);
        for r in &rows {
            assert!(!r.ledger_partitions.is_empty());
            for (p, buckets) in r.ledger_partitions.iter().enumerate() {
                assert_eq!(
                    buckets.iter().sum::<u64>(),
                    r.cycles,
                    "{}/{} partition {p} must conserve",
                    r.workload,
                    r.scheme
                );
            }
            let stack_total: u64 = r.cpi_stack.iter().map(|(_, c)| *c).sum();
            assert_eq!(
                stack_total,
                r.cycles * r.ledger_partitions.len() as u64,
                "summed CPI stack must equal cycles x partitions"
            );
        }
    }

    #[test]
    fn run_matrix_normalizes_against_baseline() {
        let w = [by_name("histo").unwrap()];
        let rows = matrix(&w, &[Scheme::None, Scheme::Pssm]);
        assert_eq!(rows.len(), 2);
        let none = rows.iter().find(|r| r.scheme == "no-security").unwrap();
        assert!((none.norm_ipc - 1.0).abs() < 1e-9);
        let pssm = rows.iter().find(|r| r.scheme == "pssm").unwrap();
        assert!(pssm.norm_ipc < 1.0);
    }

    /// Two workloads under {no-security, pssm}, feeding a fresh shared
    /// registry on a four-worker pool.
    fn registry_fed(trace: Option<(u64, usize)>) -> (Telemetry, Vec<Measurement>, Vec<TracedRun>) {
        let tel = Telemetry::with_clock(Arc::new(CycleClock::new()));
        let w = [by_name("bfs").unwrap(), by_name("histo").unwrap()];
        let observe = Observe {
            registry: Some(tel.clone()),
            epoch_cycles: None,
            trace,
        };
        let exec = Executor::new(Some(4));
        let schemes = [Scheme::None, Scheme::Pssm];
        let (rows, traces) =
            run_matrix(&exec, &w, &schemes, Scale::Test, &small_cfg(), &observe).unwrap();
        (tel, rows, traces)
    }

    /// The epoch labels in the fan-out's submission order: baselines
    /// first, then the secured runs.
    const SUBMISSION_ORDER: [&str; 4] = [
        "bfs/no-security",
        "histo/no-security",
        "bfs/pssm",
        "histo/pssm",
    ];

    #[test]
    fn registry_fed_matrix_closes_one_epoch_per_run() {
        let (tel, rows, traces) = registry_fed(None);
        let labels: Vec<String> = tel.epochs().into_iter().map(|e| e.label).collect();
        assert_eq!(labels, SUBMISSION_ORDER);
        assert_eq!(rows.len(), 4);
        assert!(traces.is_empty(), "no recorder was armed");
        // Every run counts its own cycles from 0.
        let starts: Vec<u64> = tel.epochs().iter().map(|e| e.start_time).collect();
        assert_eq!(starts, [0; 4]);
        // Each epoch carries exactly its own run's DRAM traffic.
        for epoch in tel.epochs() {
            let (workload, scheme) = epoch.label.split_once('/').unwrap();
            let row = rows
                .iter()
                .find(|r| r.workload == workload && r.scheme == scheme)
                .unwrap();
            let delta = |name: String| {
                epoch
                    .counter_deltas
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0, |(_, v)| *v)
            };
            for (class, bytes) in &row.class_bytes {
                let moved = delta(format!("traffic.{class}.read_bytes"))
                    + delta(format!("traffic.{class}.write_bytes"));
                assert_eq!(moved, *bytes, "{}: {class} bytes", epoch.label);
            }
        }
    }

    #[test]
    fn traced_registry_fed_matrix_keeps_epochs_and_conserves_bytes() {
        let (tel, rows, traces) = registry_fed(Some((1, 1 << 20)));
        let labels: Vec<String> = tel.epochs().into_iter().map(|e| e.label).collect();
        assert_eq!(labels, SUBMISSION_ORDER);
        assert_eq!(traces.len(), rows.len(), "one trace per matrix row");
        for (row, trace) in rows.iter().zip(&traces) {
            assert_eq!(
                (&row.workload, &row.scheme),
                (&trace.workload, &trace.scheme)
            );
            assert_eq!(trace.dropped, 0);
            assert!(!trace.records.is_empty());
            assert_eq!(trace.traced_class_bytes(), trace.class_bytes);
            assert_eq!(trace.class_bytes, row.class_bytes);
        }
    }
}
