//! Cross-worker-count determinism of the experiment scheduler.
//!
//! Every fan-out in the workspace — the IPC matrix, the adversarial
//! fault campaign, the transient/crash recovery campaigns, and the
//! multi-tenant storm campaign — runs its simulations as jobs on a
//! `plutus_exec::Executor`. These tests
//! pin the scheduler's core contract: for a fixed seed, the rendered
//! reports (JSON and CSV) are **byte-identical** whether the pool has
//! one worker or many, because per-job seeds derive purely from the
//! (seed, workload, scheme, trial) coordinates and results assemble in
//! submission order.

use gpu_sim::GpuConfig;
use plutus_bench::{
    campaign_report, crash_report, run_campaign_on, run_crash_campaign_on, run_matrix,
    run_storm_campaign_observed, run_transient_campaign_on, storm_report, transient_report,
    CampaignConfig, CampaignKind, CrashCampaignConfig, Observe, Scheme, StormCampaignConfig,
    TransientCampaignConfig,
};
use plutus_exec::Executor;
use plutus_telemetry::{CycleClock, Table, Telemetry};
use std::sync::Arc;
use workloads::{by_name, Scale, WorkloadSpec};

/// One serial pool and one wide pool — wide enough that jobs outnumber
/// workers and the helpers run them newest first, out of submission
/// order.
fn pools() -> (Executor, Executor) {
    (Executor::sequential(), Executor::new(Some(4)))
}

/// Asserts that two renderings of one report declaration match byte
/// for byte, in JSON and in CSV.
fn assert_same<R>(a: Table<'_, R>, b: Table<'_, R>) {
    assert_eq!(
        a.to_json().to_string_pretty(),
        b.to_json().to_string_pretty()
    );
    assert_eq!(a.to_csv(), b.to_csv());
}

fn victims() -> Vec<WorkloadSpec> {
    vec![by_name("bfs").unwrap(), by_name("btree").unwrap()]
}

#[test]
fn matrix_is_identical_across_worker_counts() {
    let (serial, wide) = pools();
    let w = victims();
    let schemes = [Scheme::None, Scheme::Pssm, Scheme::Plutus];
    let cfg = GpuConfig::test_small();
    let run = |exec: &Executor, observe: &Observe| {
        run_matrix(exec, &w, &schemes, Scale::Test, &cfg, observe).unwrap()
    };
    let (a, _) = run(&serial, &Observe::default());
    let (b, _) = run(&wide, &Observe::default());
    // Measurement carries floats; the Debug rendering is bit-faithful,
    // so string equality here is value equality.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    // Observation never perturbs a measurement: feeding a registry and
    // arming the recorder on the wide pool yields the same rows.
    let traced = Observe {
        trace: Some((4, 1 << 16)),
        ..Observe::default()
    };
    let observed = Observe {
        registry: Some(Telemetry::with_clock(Arc::new(CycleClock::new()))),
        epoch_cycles: Some(2000),
        ..traced.clone()
    };
    let (rows, traces) = run(&wide, &observed);
    assert_eq!(format!("{a:?}"), format!("{rows:?}"));
    // Nor does the registry change what the recorder keeps: the traces
    // equal those of the serial pool's runs without one.
    assert_eq!(
        format!("{traces:?}"),
        format!("{:?}", run(&serial, &traced).1)
    );
    // Row order is the submission order: workload-major, scheme-minor.
    let order: Vec<(String, String)> = a
        .iter()
        .map(|m| (m.workload.clone(), m.scheme.clone()))
        .collect();
    let mut expect = Vec::new();
    for wl in &w {
        for s in &schemes {
            expect.push((wl.name.to_string(), s.label()));
        }
    }
    assert_eq!(order, expect);
}

#[test]
fn campaign_reports_are_byte_identical_across_worker_counts() {
    let (serial, wide) = pools();
    let w = victims();
    let campaign = CampaignConfig {
        kind: CampaignKind::Sweep,
        runs: 4,
        faults_per_run: 2,
        seed: 0xDEC0DE,
        scale: Scale::Test,
    };
    let cfg = GpuConfig::test_small();
    let a = run_campaign_on(&serial, &w, &campaign, &cfg);
    let b = run_campaign_on(&wide, &w, &campaign, &cfg);
    assert_same(campaign_report(&a), campaign_report(&b));
}

#[test]
fn transient_reports_are_byte_identical_across_worker_counts() {
    let (serial, wide) = pools();
    let w = victims();
    let campaign = TransientCampaignConfig {
        soft_error_rate: 0.05,
        retry_limit: 3,
        runs: 2,
        seed: 77,
        scale: Scale::Test,
    };
    let cfg = GpuConfig::test_small();
    let a = run_transient_campaign_on(&serial, &w, &campaign, &cfg);
    let b = run_transient_campaign_on(&wide, &w, &campaign, &cfg);
    assert_same(transient_report(&a), transient_report(&b));
}

#[test]
fn storm_reports_are_byte_identical_across_worker_counts() {
    let (serial, wide) = pools();
    let campaign = StormCampaignConfig {
        accesses_per_tenant: 700,
        faults: 12,
        crash_points: 1,
        ..StormCampaignConfig::new(0xD17E)
    };
    let cfg = GpuConfig::test_small();
    let a = run_storm_campaign_observed(&serial, &campaign, &cfg, &mut |_| {});
    let b = run_storm_campaign_observed(&wide, &campaign, &cfg, &mut |_| {});
    assert_same(storm_report(&a, &campaign), storm_report(&b, &campaign));
}

#[test]
fn crash_reports_are_byte_identical_across_worker_counts() {
    let (serial, wide) = pools();
    let w = victims();
    let campaign = CrashCampaignConfig {
        checkpoint_cycles: 500,
        crash_points: 2,
        scale: Scale::Test,
    };
    let cfg = GpuConfig::test_small();
    let a = run_crash_campaign_on(&serial, &w, &campaign, &cfg);
    let b = run_crash_campaign_on(&wide, &w, &campaign, &cfg);
    assert_same(crash_report(&a), crash_report(&b));
}
