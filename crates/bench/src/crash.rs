//! The crash-injection / checkpoint-restore campaign.

use crate::campaign::{prepare, run_trials};
use crate::runner::Scheme;
use gpu_sim::{CrashAudit, GpuConfig, Simulator, Trace};
use plutus_exec::Executor;
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
    /// What the audit found; only `crash_cycle` is set when it failed.
    pub audit: CrashAudit,
    /// Recovery machinery error, if the engine rejected the audit.
    pub error: Option<String>,
}

impl CrashRow {
    /// True when the audit came back bit-identical with no spurious
    /// violations and no unrecoverable sectors.
    pub fn is_clean(&self) -> bool {
        self.error.is_none() && self.audit.is_clean()
    }
}

/// Crashes `sim` where it stands, restores its last checkpoint,
/// recovers and re-reads every resident sector: the audit step of both
/// crash-driven campaigns. On an error the audit records only
/// `crash_cycle`.
pub(crate) fn crash_audit(sim: &mut Simulator, crash_cycle: u64) -> (CrashAudit, Option<String>) {
    match sim.crash_recover_audit() {
        Ok(audit) => (audit, None),
        Err(e) => {
            let audit = CrashAudit {
                crash_cycle,
                ..CrashAudit::default()
            };
            (audit, Some(e.to_string()))
        }
    }
}

/// Runs the crash campaign on `exec`: every workload × every campaign
/// engine × `crash_points` kill cycles, in three rounds: build every
/// trace, learn every (workload, engine) pair's run length so crash
/// points span the whole execution, then audit every (workload, engine,
/// crash point) as an independent job. Rows come back in submission
/// order, identical for any worker count.
///
/// # Panics
///
/// Panics if a campaign job panics.
pub fn run_crash_campaign_on(
    exec: &Executor,
    workloads: &[WorkloadSpec],
    campaign: &CrashCampaignConfig,
    cfg: &GpuConfig,
) -> Vec<CrashRow> {
    let traces = prepare(exec, workloads, campaign.scale, |t| t);
    let simulator = |trace: &Trace, scheme: Scheme| {
        Simulator::new(cfg.clone(), trace.clone(), scheme.factory().as_ref())
    };
    let lengths: Vec<u64> = run_trials(exec, workloads, &traces, 1, |t| {
        simulator(t.prep, t.scheme).run().stats.cycles
    })
    .into_iter()
    .flat_map(|(.., length)| length)
    .collect();
    let points = campaign.crash_points as u64 + 1;
    let rows = run_trials(exec, workloads, &traces, campaign.crash_points, |t| {
        let crash_at = (lengths[t.pair()] * (t.index as u64 + 1) / points).max(1);
        let mut sim = simulator(t.prep, t.scheme);
        sim.set_checkpoint_interval(campaign.checkpoint_cycles);
        let _ = sim.run_until(crash_at);
        let (audit, error) = crash_audit(&mut sim, crash_at);
        CrashRow {
            workload: t.workload.to_string(),
            scheme: t.scheme.label(),
            audit,
            error,
        }
    });
    rows.into_iter().flat_map(|(.., rows)| rows).collect()
}

/// The crash-consistency gate: every audit must be clean (bit-identical
/// re-reads, no spurious violations, nothing unrecoverable), and every
/// audit that ran must actually have audited sectors.
///
/// # Errors
///
/// Returns the failure naming every violated check.
pub fn crash_gate(rows: &[CrashRow]) -> Result<(), GateFailure> {
    let mut gate = Gate::new();
    gate.check("rows", !rows.is_empty(), || {
        "crash campaign produced no rows".into()
    });
    for r in rows {
        // An errored audit records nothing; its `clean` check names it.
        let blind = r.error.is_none() && r.audit.audited == 0;
        gate.check("audited", !blind, || {
            format!(
                "{}/{} @{}: audited no sectors",
                r.workload, r.scheme, r.audit.crash_cycle
            )
        });
        gate.check("clean", r.is_clean(), || {
            let (a, at) = (&r.audit, format!("{}/{}", r.workload, r.scheme));
            match &r.error {
                Some(e) => format!("{at} @{}: {e}", a.crash_cycle),
                None => format!(
                    "{at} @{}: {} mismatches, {} spurious violations, {} unrecoverable",
                    a.crash_cycle,
                    a.mismatches,
                    a.spurious_violations,
                    a.report.failed.len()
                ),
            }
        });
    }
    gate.finish()
}

/// The crash report: one row per audit.
pub fn crash_report(rows: &[CrashRow]) -> Table<'_, CrashRow> {
    Table::new(rows)
        .show("workload", |r| r.workload.as_str().into())
        .show("scheme", |r| r.scheme.as_str().into())
        .show("crash_cycle", |r| r.audit.crash_cycle.into())
        .show("checkpoint_cycle", |r| r.audit.checkpoint_cycle.into())
        .show("audited", |r| r.audit.audited.into())
        .col("mismatches", |r| r.audit.mismatches.into())
        .col("spurious_violations", |r| {
            r.audit.spurious_violations.into()
        })
        .show("already_consistent", |r| {
            r.audit.report.already_consistent.into()
        })
        .show("recovered_by_mac", |r| {
            r.audit.report.recovered_by_mac.into()
        })
        .show("recovered_by_value", |r| {
            r.audit.report.recovered_by_value.into()
        })
        .show("failed", |r| (r.audit.report.failed.len() as u64).into())
        .show("clean", |r| r.is_clean().into())
        .col("error", |r| {
            r.error.as_deref().map_or(Json::Null, Json::from)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::RecoveryReport;
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
        let rows = run_crash_campaign_on(&exec, &w, &campaign, &cfg);
        assert_eq!(rows.len(), 3 * 2);
        crash_gate(&rows).expect("all audits must be clean");
        assert!(rows.iter().all(|r| r.audit.audited > 0));
        // Mid-run crashes must actually exercise reconstruction, not
        // just find everything consistent.
        let reconstructed: u64 = rows
            .iter()
            .map(|r| r.audit.report.recovered_by_mac + r.audit.report.recovered_by_value)
            .sum();
        assert!(reconstructed > 0, "no counters were reconstructed");
    }

    #[test]
    fn reports_serialize() {
        let row = CrashRow {
            workload: "bfs".into(),
            scheme: "plutus".into(),
            audit: CrashAudit {
                crash_cycle: 900,
                checkpoint_cycle: 500,
                audited: 40,
                report: RecoveryReport {
                    already_consistent: 30,
                    recovered_by_mac: 9,
                    recovered_by_value: 1,
                    failed: Vec::new(),
                },
                ..CrashAudit::default()
            },
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
            audit: CrashAudit {
                crash_cycle: 10,
                audited: 4,
                mismatches: 1,
                ..CrashAudit::default()
            },
            error: None,
        };
        let err = crash_gate(std::slice::from_ref(&dirty)).unwrap_err();
        assert_eq!(err.violations[0].0, "clean");
        assert!(err.to_string().contains("1 mismatches"));
        assert!(crash_gate(&[]).is_err());
        // A row that audited does not cover for one that audited nothing.
        let exercised = CrashRow {
            audit: CrashAudit {
                mismatches: 0,
                ..dirty.audit.clone()
            },
            ..dirty.clone()
        };
        let idle = CrashRow {
            workload: "histo".into(),
            scheme: "plutus".into(),
            ..CrashRow::default()
        };
        let err = crash_gate(&[exercised, idle]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "audited: histo/plutus @0: audited no sectors"
        );
    }
}
