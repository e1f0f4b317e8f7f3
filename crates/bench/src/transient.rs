//! The transient (soft-error) retry campaign.

use crate::campaign::{prepare, run_trials};
use gpu_sim::{GpuConfig, RetryPolicy, Simulator, TransientConfig};
use plutus_exec::Executor;
use plutus_telemetry::{Gate, GateFailure, Json, Table};
use workloads::{Scale, WorkloadSpec};

/// Parameters of a transient campaign. `runs` independently seeded
/// simulations execute per (workload, scheme) pair, all derived from
/// `seed`.
#[derive(Debug, Clone, Copy)]
pub struct TransientCampaignConfig {
    /// Probability that any given fill suffers a transient fault.
    pub soft_error_rate: f64,
    /// Maximum re-fetch attempts after a failed verification.
    pub retry_limit: u32,
    /// Independently seeded runs per (workload, scheme) pair.
    pub runs: usize,
    /// Master seed; every run's soft-error stream derives from it.
    pub seed: u64,
    /// Trace scale the workloads run at.
    pub scale: Scale,
}

impl TransientCampaignConfig {
    /// The default campaign: a 2% soft-error rate (high enough to hit
    /// every workload many times at test scale), 3 retries, 3 runs.
    pub fn new(seed: u64, scale: Scale) -> Self {
        Self {
            soft_error_rate: 0.02,
            retry_limit: 3,
            runs: 3,
            seed,
            scale,
        }
    }
}

/// Aggregated transient-campaign outcome for one (workload, engine)
/// pair, summed over all runs.
#[derive(Debug, Clone, Default)]
pub struct TransientRow {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Total L2-miss fills served.
    pub fills: u64,
    /// Transient faults the soft-error process fired.
    pub injected: u64,
    /// Detected transients cleared by the bounded retry path.
    pub recovered: u64,
    /// Transients still failing at the retry limit — benign faults
    /// misclassified as attacks. The gate requires zero.
    pub escalated: u64,
    /// Applied transients no verification layer observed (e.g. a MAC
    /// soft error under a value-verified read that never consults it).
    pub undetected: u64,
    /// Sampled faults that could not change state.
    pub not_applied: u64,
    /// Individual re-fetch attempts issued.
    pub retries: u64,
    /// Extra cycles charged to retries (wasted fetch + backoff).
    pub retry_cycles: u64,
    /// Violations recorded across all runs (should equal `escalated`
    /// in an attack-free campaign).
    pub violations: u64,
    /// Engine degradation counters observed (`degraded_*` stats).
    pub degraded: Vec<(String, u64)>,
}

impl TransientRow {
    fn new(workload: &str, scheme: String) -> Self {
        Self {
            workload: workload.to_string(),
            scheme,
            ..Self::default()
        }
    }

    /// Detected transients (those that tripped at least one fetch).
    pub fn detected(&self) -> u64 {
        self.recovered + self.escalated
    }

    /// Fraction of detected transients the retry path recovered.
    pub fn recovery_rate(&self) -> f64 {
        let det = self.detected();
        if det == 0 {
            0.0
        } else {
            self.recovered as f64 / det as f64
        }
    }
}

/// Runs the transient campaign on `exec`: every workload × every
/// campaign engine × `runs` seeded runs, each with an independent
/// soft-error stream. Traces are built once per workload, then every
/// (workload, engine, run) triple is one job whose soft-error stream
/// derives from [`plutus_exec::derive_seed`], so rows are identical for
/// any worker count.
///
/// # Panics
///
/// Panics if a campaign job panics.
pub fn run_transient_campaign_on(
    exec: &Executor,
    workloads: &[WorkloadSpec],
    campaign: &TransientCampaignConfig,
    cfg: &GpuConfig,
) -> Vec<TransientRow> {
    let traces = prepare(exec, workloads, campaign.scale, |t| t);
    let runs = run_trials(exec, workloads, &traces, campaign.runs, |t| {
        let mut sim = Simulator::new(cfg.clone(), t.prep.clone(), t.scheme.factory().as_ref());
        sim.set_transient_faults(TransientConfig::new(
            campaign.soft_error_rate,
            t.seed(campaign.seed),
        ));
        sim.set_retry_policy(RetryPolicy::with_limit(campaign.retry_limit));
        sim.run().stats
    });
    let mut out = Vec::new();
    for (workload, scheme, runs) in runs {
        let mut row = TransientRow::new(workload, scheme.label());
        for s in runs {
            row.fills += s.fill_count;
            row.injected += s.transients_injected;
            row.recovered += s.transients_recovered;
            row.escalated += s.transients_escalated;
            row.undetected += s.transients_undetected;
            row.not_applied += s.transients_not_applied;
            row.retries += s.retries;
            row.retry_cycles += s.retry_cycles;
            row.violations += s.violations;
            for (name, v) in &s.engine {
                if name.starts_with("degraded_") {
                    match row.degraded.iter_mut().find(|(n, _)| n == name) {
                        Some((_, acc)) => *acc += v,
                        None => row.degraded.push((name.clone(), *v)),
                    }
                }
            }
        }
        out.push(row);
    }
    out
}

/// The fail-operational gate: no transient fault may be misclassified
/// as an attack, and every row must actually have exercised the fault
/// path.
///
/// # Errors
///
/// Returns the failure naming every violated check.
pub fn transient_gate(rows: &[TransientRow]) -> Result<(), GateFailure> {
    let mut gate = Gate::new();
    gate.check("rows", !rows.is_empty(), || {
        "transient campaign produced no rows".into()
    });
    for r in rows {
        gate.check("injected", r.injected > 0, || {
            format!(
                "{}/{}: injected no soft error (rate too low for scale?)",
                r.workload, r.scheme
            )
        });
        gate.check("escalated", r.escalated == 0, || {
            format!(
                "{}/{}: {} transient fault(s) escalated to violations",
                r.workload, r.scheme, r.escalated
            )
        });
    }
    gate.finish()
}

/// The transient report: one row per (workload, engine).
pub fn transient_report(rows: &[TransientRow]) -> Table<'_, TransientRow> {
    Table::new(rows)
        .show("workload", |r| r.workload.as_str().into())
        .show("scheme", |r| r.scheme.as_str().into())
        .col("fills", |r| r.fills.into())
        .show("injected", |r| r.injected.into())
        .show("recovered", |r| r.recovered.into())
        .show("escalated", |r| r.escalated.into())
        .show("undetected", |r| r.undetected.into())
        .show("not_applied", |r| r.not_applied.into())
        .show("retries", |r| r.retries.into())
        .show("retry_cycles", |r| r.retry_cycles.into())
        .col("violations", |r| r.violations.into())
        .show("recovery_rate", |r| r.recovery_rate().into())
        .nest("degraded", |r| {
            r.degraded
                .iter()
                .fold(Json::object(), |o, (k, v)| o.set(k, *v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::by_name;

    fn pool() -> Executor {
        Executor::new(None)
    }

    fn tiny(retry_limit: u32) -> TransientCampaignConfig {
        TransientCampaignConfig {
            soft_error_rate: 0.05,
            retry_limit,
            runs: 2,
            seed: 11,
            scale: Scale::Test,
        }
    }

    #[test]
    fn retry_recovers_every_transient() {
        let w = [by_name("bfs").unwrap()];
        let rows = run_transient_campaign_on(&pool(), &w, &tiny(3), &GpuConfig::test_small());
        assert_eq!(rows.len(), 3);
        let injected: u64 = rows.iter().map(|r| r.injected).sum();
        let recovered: u64 = rows.iter().map(|r| r.recovered).sum();
        assert!(injected > 0, "campaign must inject at this rate");
        assert!(recovered > 0, "retry path must clear detected transients");
        transient_gate(&rows).expect("no transient may escalate with retries enabled");
        for r in &rows {
            assert_eq!(r.violations, 0, "{}: spurious violations", r.scheme);
        }
    }

    #[test]
    fn without_retry_transients_escalate() {
        let w = [by_name("bfs").unwrap()];
        let rows = run_transient_campaign_on(&pool(), &w, &tiny(0), &GpuConfig::test_small());
        let escalated: u64 = rows.iter().map(|r| r.escalated).sum();
        assert!(escalated > 0, "fail-stop must misclassify transients");
        assert!(transient_gate(&rows).is_err());
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let w = [by_name("bfs").unwrap()];
        let run = || {
            run_transient_campaign_on(&pool(), &w, &tiny(2), &GpuConfig::test_small())
                .iter()
                .map(|r| (r.injected, r.recovered, r.escalated, r.retry_cycles))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reports_serialize() {
        let mut row = TransientRow::new("bfs", "plutus".into());
        row.injected = 5;
        row.recovered = 4;
        row.escalated = 1;
        row.retries = 6;
        row.degraded = vec![("degraded_verifier_frozen".into(), 1)];
        let rows = [row];
        let report = transient_report(&rows);
        let json = report.to_json().to_string_pretty();
        assert!(json.contains("\"recovery_rate\""));
        assert!(json.contains("\"degraded_verifier_frozen\": 1"));
        let csv = report.to_csv();
        assert!(csv.starts_with("workload,scheme"));
        assert!(csv.contains("bfs,plutus"));
        assert!(!csv.contains("degraded"), "nested columns stay JSON-only");
        assert!((rows[0].recovery_rate() - 0.8).abs() < 1e-12);
        assert!(report.to_console().contains("plutus"));
    }

    #[test]
    fn gate_rejects_empty_and_fault_free_campaigns() {
        assert!(transient_gate(&[]).is_err());
        let row = TransientRow::new("bfs", "plutus".into());
        assert!(transient_gate(&[row]).is_err(), "zero injected is vacuous");
        // A row that injected does not cover for one that injected nothing.
        let exercised = TransientRow {
            injected: 3,
            recovered: 3,
            ..TransientRow::new("bfs", "plutus".into())
        };
        let idle = TransientRow::new("histo", "plutus".into());
        let err = transient_gate(&[exercised, idle]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "injected: histo/plutus: injected no soft error (rate too low for scale?)"
        );
    }
}
