//! Fail-operational properties of the recovery subsystem, end-to-end:
//! crash-consistent checkpoint/restore for every engine scheme, retry
//! cycle-accounting, and attack detection under graceful degradation.

use gpu_sim::{
    BackingMemory, FaultKind, FaultOutcome, FaultSchedule, FaultTrigger, GpuConfig, RetryPolicy,
    ScheduledFault, SectorAddr, Simulator, TransientConfig, SECTOR_SIZE,
};
use plutus_bench::{
    crash_gate, run_crash_campaign_on, run_transient_campaign_on, transient_gate,
    CrashCampaignConfig, Scheme, TransientCampaignConfig,
};
use plutus_exec::Executor;
use workloads::{by_name, Scale};

/// Every scheme whose engine supports checkpoint/restore — all of them
/// except the no-security baseline.
fn checkpointable_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Pssm,
        Scheme::PssmMac4,
        Scheme::CommonCounters,
        Scheme::FineLeafCoarseTree,
        Scheme::All32,
        Scheme::ValueVerifyOnly,
        Scheme::Compact2Bit,
        Scheme::Compact3Bit,
        Scheme::CompactAdaptive,
        Scheme::Plutus,
        Scheme::PlutusNoTree,
        Scheme::PssmNoTree,
    ]
}

/// Checkpoint → keep running (the doomed tail) → crash → restore →
/// recover must read back bit-identical, with no spurious violations,
/// for every engine scheme.
#[test]
fn crash_restore_is_bit_identical_for_every_scheme() {
    let w = by_name("bfs").unwrap();
    for scheme in checkpointable_schemes() {
        let factory = scheme.factory();
        let mut sim = Simulator::new(
            GpuConfig::test_small(),
            w.trace(Scale::Test),
            factory.as_ref(),
        );
        sim.set_checkpoint_interval(400);
        let _ = sim.run_until(1500);
        let audit = sim
            .crash_recover_audit()
            .unwrap_or_else(|e| panic!("{}: recovery refused: {e}", scheme.label()));
        assert!(audit.audited > 0, "{}: nothing audited", scheme.label());
        assert!(
            audit.is_clean(),
            "{}: {} mismatches, {} spurious violations, {} unrecoverable (crash@{} ckpt@{})",
            scheme.label(),
            audit.mismatches,
            audit.spurious_violations,
            audit.report.failed.len(),
            audit.crash_cycle,
            audit.checkpoint_cycle
        );
    }
}

/// The retry path must never charge fewer cycles than a clean fetch:
/// every retry books the wasted fetch plus at least the base backoff,
/// and the run as a whole cannot finish earlier than its fault-free
/// twin.
#[test]
fn retry_never_charges_fewer_cycles_than_clean() {
    let w = by_name("histo").unwrap();
    let run = |rate: f64| {
        let factory = Scheme::Pssm.factory();
        let mut sim = Simulator::new(
            GpuConfig::test_small(),
            w.trace(Scale::Test),
            factory.as_ref(),
        );
        if rate > 0.0 {
            sim.set_transient_faults(TransientConfig::new(rate, 99));
            sim.set_retry_policy(RetryPolicy::with_limit(3));
        }
        sim.run()
    };
    let clean = run(0.0);
    let faulty = run(0.1);
    assert_eq!(clean.stats.violations, 0);
    assert_eq!(faulty.stats.violations, 0, "transients must not escalate");
    assert!(faulty.stats.retries > 0, "rate 0.1 must force retries");
    assert!(
        faulty.stats.retry_cycles >= faulty.stats.retries * RetryPolicy::default().backoff_base,
        "each retry charges at least the base backoff on top of the re-fetch: {} cycles / {} retries",
        faulty.stats.retry_cycles,
        faulty.stats.retries
    );
    assert!(
        faulty.stats.cycles >= clean.stats.cycles,
        "retries cannot make the run finish earlier ({} < {})",
        faulty.stats.cycles,
        clean.stats.cycles
    );
}

/// A Plutus engine degraded by a soft-error barrage (value-cache fast
/// path frozen) must still detect persistent adversarial tampering.
#[test]
fn degraded_plutus_still_detects_tampering() {
    let w = by_name("bfs").unwrap();
    let trace = w.trace(Scale::Test);
    let n_accesses = trace.accesses.len() as u64;
    let targets: Vec<_> = trace
        .initial_image
        .iter()
        .map(|(a, _)| *a)
        .take(6)
        .collect();
    assert!(!targets.is_empty(), "bfs must have an initial image");
    let mut schedule = FaultSchedule::new();
    // Persistent corruption lands late in the run, after the soft-error
    // barrage below has had time to freeze the value-cache fast path.
    for (i, addr) in targets.iter().enumerate() {
        schedule.push(ScheduledFault {
            trigger: FaultTrigger::AtAccess(n_accesses * 3 / 4 + i as u64),
            addr: *addr,
            kind: FaultKind::CorruptData { mask: [0xA5; 32] },
        });
    }
    let factory = Scheme::Plutus.factory();
    let mut sim = Simulator::new(GpuConfig::test_small(), trace, factory.as_ref());
    sim.set_transient_faults(TransientConfig::new(0.2, 5));
    sim.set_retry_policy(RetryPolicy::with_limit(2));
    sim.set_fault_schedule(schedule);
    let r = sim.run();
    let frozen = r
        .stats
        .engine
        .iter()
        .find(|(n, _)| n == "degraded_verifier_frozen")
        .map_or(0, |(_, v)| *v);
    assert!(frozen >= 1, "soft-error barrage must freeze the fast path");
    assert!(
        r.stats.transients_recovered > 0,
        "retries must clear transients while degradation builds"
    );
    let detected = r
        .stats
        .fault_records
        .iter()
        .filter(|f| f.kind == "corrupt_data" && matches!(f.outcome, FaultOutcome::Detected { .. }))
        .count();
    assert!(
        detected >= 1,
        "degraded engine must still catch persistent tampering: {:?}",
        r.stats.fault_records
    );
}

/// A counter-group overflow landing *between* the checkpoint and the
/// crash is the hardest recovery case: the group major bumped and every
/// minor reset after the checkpointed state was taken, so a naive
/// restart from the reverted counters could accept stale values. The
/// recovery floor (major-with-cleared-minor for split counters, the
/// checkpointed value for monolithic ones) must re-prove every resident
/// sector against the persistent MACs and read back bit-identical, on
/// both the split-counter PSSM engine and the monolithic
/// common-counters engine.
#[test]
fn overflow_between_checkpoint_and_crash_recovers_bit_identical() {
    for scheme in [Scheme::Pssm, Scheme::CommonCounters] {
        for seed in [1u64, 7, 23] {
            let label = format!("{} seed {seed}", scheme.label());
            let factory = scheme.factory();
            let mut e = factory.build(0);
            let mut mem = BackingMemory::new();
            let s = |i: u64| SectorAddr::new(i * SECTOR_SIZE);
            let payload = |tag: u64| {
                let mut p = [0u8; 32];
                p[0] = tag as u8;
                p[1] = (tag >> 8) as u8;
                p[2] = seed as u8;
                p
            };
            // A neighbour resident in the hammered sector's group keeps
            // a low minor the overflow will clear.
            e.on_writeback(s(1), &payload(0x9999), &mut mem);
            // Most of the way to the 128-write minor overflow...
            let pre = 100 + (seed as usize % 20);
            for i in 0..pre {
                e.on_writeback(s(0), &payload(i as u64), &mut mem);
            }
            let ck = e
                .checkpoint()
                .unwrap_or_else(|| panic!("{label}: engine must checkpoint"));
            // ...and across it only after the checkpoint: these writes
            // (and the group re-encryption they trigger) are exactly
            // what the crash loses.
            let post = 40 + (seed as usize % 9);
            for i in 0..post {
                e.on_writeback(s(0), &payload(0x1000 + i as u64), &mut mem);
            }
            if scheme == Scheme::Pssm {
                let overflows = e
                    .extra_stats()
                    .iter()
                    .find(|(n, _)| n == "ctr_group_overflows")
                    .map_or(0, |(_, v)| *v);
                assert!(
                    overflows >= 1,
                    "{label}: the doomed tail must cross a group overflow"
                );
            }
            let oracle0 = e
                .peek_plaintext(s(0), &mem)
                .unwrap_or_else(|| panic!("{label}: peek before crash"));
            let oracle1 = e.peek_plaintext(s(1), &mem).unwrap();
            assert!(e.crash_revert(ck.as_ref()), "{label}: revert refused");
            let report = e
                .recover(&mem, &mem.resident_addrs())
                .unwrap_or_else(|e| panic!("{label}: recovery refused: {e}"));
            assert!(
                report.failed.is_empty(),
                "{label}: unrecoverable sectors {:?}",
                report.failed
            );
            let f0 = e.on_fill(s(0), &mut mem);
            assert_eq!(f0.plaintext, oracle0, "{label}: hammered sector drifted");
            assert!(f0.violation.is_none(), "{label}: {:?}", f0.violation);
            let f1 = e.on_fill(s(1), &mut mem);
            assert_eq!(f1.plaintext, oracle1, "{label}: neighbour drifted");
            assert!(f1.violation.is_none(), "{label}: {:?}", f1.violation);
        }
    }
}

/// The bench scheme catalogue drives both recovery campaigns through
/// the public gates cleanly.
#[test]
fn recovery_campaigns_gate_clean_through_bench_schemes() {
    let w = [by_name("bfs").unwrap()];
    let cfg = GpuConfig::test_small();
    let tc = TransientCampaignConfig {
        soft_error_rate: 0.1,
        retry_limit: 3,
        runs: 1,
        seed: 3,
        scale: Scale::Test,
    };
    let exec = Executor::new(None);
    let rows = run_transient_campaign_on(&exec, &w, &tc, &cfg);
    transient_gate(&rows).expect("no transient may be misclassified as an attack");
    let cc = CrashCampaignConfig {
        checkpoint_cycles: 600,
        crash_points: 2,
        scale: Scale::Test,
    };
    let crows = run_crash_campaign_on(&exec, &w, &cc, &cfg);
    crash_gate(&crows).expect("every crash audit must be bit-identical");
}
