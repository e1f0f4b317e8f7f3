//! The crash-injection / checkpoint-restore campaign.

use crate::SchemeProvider;
use gpu_sim::{GpuConfig, Simulator};
use plutus_exec::{expect_all, Executor, Job};
use plutus_telemetry::{Gate, GateFailure, Json, Table};
use workloads::{Scale, WorkloadSpec};

/// Parameters of a crash campaign. Each (workload, scheme) pair is
/// first run to completion to learn its cycle count, then killed at
/// `crash_points` evenly spaced cycles, restored from the last epoch
/// checkpoint, recovered, and audited.
#[derive(Debug, Clone, Copy)]
pub struct CrashCampaignConfig {
    /// Metadata checkpoint cadence in simulated cycles.
    pub checkpoint_cycles: u64,
    /// Crash points probed per (workload, scheme) pair.
    pub crash_points: usize,
    /// Trace scale the workloads run at.
    pub scale: Scale,
}

impl CrashCampaignConfig {
    /// The default campaign: checkpoints every `checkpoint_cycles`,
    /// 4 crash points per pair.
    pub fn new(checkpoint_cycles: u64, scale: Scale) -> Self {
        Self {
            checkpoint_cycles,
            crash_points: 4,
            scale,
        }
    }
}

/// One crash-inject → restore → recover → re-read audit.
#[derive(Debug, Clone, Default)]
pub struct CrashRow {
    /// Workload name.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Cycle the crash was injected at.
    pub crash_cycle: u64,
    /// Cycle of the checkpoint restored from.
    pub checkpoint_cycle: u64,
    /// Resident sectors compared against the pre-crash oracle.
    pub audited: u64,
    /// Sectors whose post-recovery plaintext diverged.
    pub mismatches: u64,
    /// Post-recovery fills that flagged honest data.
    pub spurious_violations: u64,
    /// Sectors already consistent with the checkpoint metadata.
    pub already_consistent: u64,
    /// Counters reconstructed by MAC probing.
    pub recovered_by_mac: u64,
    /// Sectors vouched by the pinned-value screen (skip-MAC writes).
    pub recovered_by_value: u64,
    /// Sectors recovery could not reconstruct.
    pub failed: u64,
    /// Recovery machinery error, if the engine rejected the audit.
    pub error: Option<String>,
}

impl CrashRow {
    /// True when the audit came back bit-identical with no spurious
    /// violations and no unrecoverable sectors.
    pub fn is_clean(&self) -> bool {
        self.error.is_none()
            && self.mismatches == 0
            && self.spurious_violations == 0
            && self.failed == 0
    }
}

/// Runs the crash campaign on `exec`: every workload × every scheme ×
/// `crash_points` kill cycles, in three phases: build
/// every trace, learn every (workload, scheme) pair's run length so
/// crash points span the whole execution, then audit every
/// (workload, scheme, crash point) as an independent job. Rows come
/// back in submission order, identical for any worker count.
///
/// # Panics
///
/// Panics if a campaign job panics.
pub fn run_crash_campaign_on(
    exec: &Executor,
    workloads: &[WorkloadSpec],
    schemes: &[Box<dyn SchemeProvider>],
    campaign: &CrashCampaignConfig,
    cfg: &GpuConfig,
) -> Vec<CrashRow> {
    // Phase 1: one trace per workload.
    let trace_jobs: Vec<Job<'_, gpu_sim::Trace>> = workloads
        .iter()
        .map(|w| Job::new(w.name, move || w.trace(campaign.scale)))
        .collect();
    let traces = expect_all(exec.run(trace_jobs), "crash trace preparation");

    // Phase 2: learn each pair's run length.
    let mut length_jobs: Vec<Job<'_, u64>> = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let trace = &traces[wi];
        for scheme in schemes {
            length_jobs.push(Job::new(
                format!("{}/{}/length", w.name, scheme.scheme_label()),
                move || {
                    let factory = scheme.make_factory();
                    let mut sim = Simulator::new(cfg.clone(), trace.clone(), factory.as_ref());
                    sim.run().stats.cycles
                },
            ));
        }
    }
    let totals = expect_all(exec.run(length_jobs), "crash run-length probe");

    // Phase 3: one crash-inject → restore → audit job per
    // (workload, scheme, crash point).
    let mut audit_jobs: Vec<Job<'_, CrashRow>> = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        let trace = &traces[wi];
        for (si, scheme) in schemes.iter().enumerate() {
            let total = totals[wi * schemes.len() + si];
            for i in 1..=campaign.crash_points {
                let crash_at = (total * i as u64 / (campaign.crash_points as u64 + 1)).max(1);
                audit_jobs.push(Job::new(
                    format!("{}/{}/crash@{crash_at}", w.name, scheme.scheme_label()),
                    move || {
                        let factory = scheme.make_factory();
                        let mut sim = Simulator::new(cfg.clone(), trace.clone(), factory.as_ref());
                        sim.set_checkpoint_interval(campaign.checkpoint_cycles);
                        let _ = sim.run_until(crash_at);
                        let mut row = CrashRow {
                            workload: w.name.to_string(),
                            scheme: scheme.scheme_label(),
                            crash_cycle: crash_at,
                            ..CrashRow::default()
                        };
                        match sim.crash_recover_audit() {
                            Ok(audit) => {
                                row.crash_cycle = audit.crash_cycle;
                                row.checkpoint_cycle = audit.checkpoint_cycle;
                                row.audited = audit.audited;
                                row.mismatches = audit.mismatches;
                                row.spurious_violations = audit.spurious_violations;
                                row.already_consistent = audit.report.already_consistent;
                                row.recovered_by_mac = audit.report.recovered_by_mac;
                                row.recovered_by_value = audit.report.recovered_by_value;
                                row.failed = audit.report.failed.len() as u64;
                            }
                            Err(e) => row.error = Some(e.to_string()),
                        }
                        row
                    },
                ));
            }
        }
    }
    expect_all(exec.run(audit_jobs), "crash audit")
}

/// The crash-consistency gate: every audit must be clean (bit-identical
/// re-reads, no spurious violations, nothing unrecoverable) and must
/// actually have audited sectors.
///
/// # Errors
///
/// Returns the failure naming every violated check.
pub fn crash_gate(rows: &[CrashRow]) -> Result<(), GateFailure> {
    let mut gate = Gate::new();
    gate.check("rows", !rows.is_empty(), || {
        "crash campaign produced no rows".into()
    });
    let audited: u64 = rows.iter().map(|r| r.audited).sum();
    gate.check("audited", audited > 0, || {
        "crash campaign audited no sectors".into()
    });
    for r in rows {
        gate.check("clean", r.is_clean(), || match &r.error {
            Some(e) => format!("{}/{} @{}: {e}", r.workload, r.scheme, r.crash_cycle),
            None => format!(
                "{}/{} @{}: {} mismatches, {} spurious violations, {} unrecoverable",
                r.workload, r.scheme, r.crash_cycle, r.mismatches, r.spurious_violations, r.failed
            ),
        });
    }
    gate.finish()
}

/// The crash report: one row per audit.
pub fn crash_report(rows: &[CrashRow]) -> Table<'_, CrashRow> {
    Table::new(rows)
        .show("workload", |r| r.workload.as_str().into())
        .show("scheme", |r| r.scheme.as_str().into())
        .show("crash_cycle", |r| r.crash_cycle.into())
        .show("checkpoint_cycle", |r| r.checkpoint_cycle.into())
        .show("audited", |r| r.audited.into())
        .col("mismatches", |r| r.mismatches.into())
        .col("spurious_violations", |r| r.spurious_violations.into())
        .show("already_consistent", |r| r.already_consistent.into())
        .show("recovered_by_mac", |r| r.recovered_by_mac.into())
        .show("recovered_by_value", |r| r.recovered_by_value.into())
        .show("failed", |r| r.failed.into())
        .show("clean", |r| r.is_clean().into())
        .col("error", |r| {
            r.error.as_deref().map_or(Json::Null, Json::from)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::all_schemes;
    use workloads::by_name;

    #[test]
    fn every_scheme_recovers_bit_identically() {
        let w = [by_name("bfs").unwrap()];
        let campaign = CrashCampaignConfig {
            checkpoint_cycles: 500,
            crash_points: 2,
            scale: Scale::Test,
        };
        let exec = Executor::new(None);
        let cfg = GpuConfig::test_small();
        let rows = run_crash_campaign_on(&exec, &w, &all_schemes(), &campaign, &cfg);
        assert_eq!(rows.len(), 3 * 2);
        crash_gate(&rows).expect("all audits must be clean");
        assert!(rows.iter().all(|r| r.audited > 0));
        // Mid-run crashes must actually exercise reconstruction, not
        // just find everything consistent.
        let reconstructed: u64 = rows
            .iter()
            .map(|r| r.recovered_by_mac + r.recovered_by_value)
            .sum();
        assert!(reconstructed > 0, "no counters were reconstructed");
    }

    #[test]
    fn reports_serialize() {
        let row = CrashRow {
            workload: "bfs".into(),
            scheme: "plutus".into(),
            crash_cycle: 900,
            checkpoint_cycle: 500,
            audited: 40,
            mismatches: 0,
            spurious_violations: 0,
            already_consistent: 30,
            recovered_by_mac: 9,
            recovered_by_value: 1,
            failed: 0,
            error: None,
        };
        let rows = [row];
        let report = crash_report(&rows);
        let json = report.to_json().to_string_pretty();
        assert!(json.contains("\"clean\": true"));
        assert!(!json.contains("\"error\""));
        assert!(report.to_csv().contains("bfs,plutus,900,500,40"));
        assert!(report.to_console().contains("true"));
    }

    #[test]
    fn gate_flags_dirty_audits() {
        let dirty = CrashRow {
            workload: "bfs".into(),
            scheme: "pssm".into(),
            crash_cycle: 10,
            checkpoint_cycle: 0,
            audited: 4,
            mismatches: 1,
            spurious_violations: 0,
            already_consistent: 3,
            recovered_by_mac: 0,
            recovered_by_value: 0,
            failed: 0,
            error: None,
        };
        let err = crash_gate(std::slice::from_ref(&dirty)).unwrap_err();
        assert_eq!(err.violations[0].0, "clean");
        assert!(err.to_string().contains("1 mismatches"));
        assert!(crash_gate(&[]).is_err());
    }
}
