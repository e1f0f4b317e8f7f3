//! Cycle-ledger properties across the experiment surface: every
//! (workload, scheme) run must be conservation-exact — each partition's
//! stall buckets sum to exactly the run's cycle count — including runs
//! with injected faults and transient soft errors, and the ledger
//! export must be byte-identical for any worker count.

use gpu_sim::{
    FaultKind, FaultSchedule, FaultTrigger, GpuConfig, MetaFault, RetryPolicy, ScheduledFault,
    SimResult, StallBucket, TransientConfig,
};
use plutus_bench::{ledger_gate, ledger_json, run_matrix, run_one, Observe, Scheme};
use plutus_exec::Executor;
use secure_mem::{PssmEngine, SecureMemConfig};
use workloads::{by_name, suite, Scale};

fn cfg() -> GpuConfig {
    GpuConfig::test_small()
}

/// Asserts the conservation invariant on a raw simulation result.
fn assert_conserved(context: &str, r: &SimResult) {
    assert!(
        !r.stats.ledgers.is_empty(),
        "{context}: run recorded no ledger"
    );
    for (p, ledger) in r.stats.ledgers.iter().enumerate() {
        assert_eq!(
            ledger.total(),
            r.stats.cycles,
            "{context}: partition {p} ledger sums to {} but the run took {} cycles",
            ledger.total(),
            r.stats.cycles
        );
    }
}

#[test]
fn every_workload_conserves_under_core_schemes() {
    for w in suite() {
        for scheme in [Scheme::None, Scheme::Pssm, Scheme::Plutus] {
            let r = run_one(&w, scheme, Scale::Test, &cfg());
            assert_conserved(&format!("{}/{}", w.name, scheme.label()), &r);
        }
    }
}

#[test]
fn every_scheme_conserves_on_one_workload() {
    let w = by_name("bfs").unwrap();
    let schemes = [
        Scheme::None,
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
        Scheme::PlutusValueEntries(256),
    ];
    for scheme in schemes {
        let r = run_one(&w, scheme, Scale::Test, &cfg());
        assert_conserved(&scheme.label(), &r);
    }
}

#[test]
fn fault_injection_runs_conserve() {
    let w = by_name("bfs").unwrap();
    let trace = w.trace(Scale::Test);
    let mut schedule = FaultSchedule::new();
    // Tamper a MAC and corrupt ciphertext mid-run; whatever the
    // detection outcome, every cycle must still land in a bucket.
    schedule.push(ScheduledFault {
        trigger: FaultTrigger::AtAccess(20),
        addr: trace.accesses[10].addr,
        kind: FaultKind::Metadata(MetaFault::TamperMac),
    });
    let mut mask = [0u8; 32];
    mask[0] = 0xFF;
    schedule.push(ScheduledFault {
        trigger: FaultTrigger::AtAccess(40),
        addr: trace.accesses[30].addr,
        kind: FaultKind::CorruptData { mask },
    });
    let factory = PssmEngine::factory(SecureMemConfig::pssm());
    let mut sim = gpu_sim::Simulator::new(cfg(), trace, &factory);
    sim.set_fault_schedule(schedule);
    let r = sim.run();
    assert_conserved("bfs/pssm+faults", &r);
}

#[test]
fn transient_retry_runs_conserve_and_book_retry_cycles() {
    let w = by_name("bfs").unwrap();
    let factory = PssmEngine::factory(SecureMemConfig::pssm());
    let mut sim = gpu_sim::Simulator::new(cfg(), w.trace(Scale::Test), &factory);
    sim.set_transient_faults(TransientConfig::new(0.2, 7));
    sim.set_retry_policy(RetryPolicy::with_limit(3));
    let r = sim.run();
    assert!(
        r.stats.transients_injected > 0,
        "a 20% soft-error rate must inject at least one transient"
    );
    assert_conserved("bfs/pssm+transients", &r);
    let retry_cycles: u64 = r
        .stats
        .ledgers
        .iter()
        .map(|l| l.get(StallBucket::TransientRetry) + l.get(StallBucket::Recovery))
        .sum();
    assert!(
        retry_cycles > 0,
        "retried fills must book transient-retry/recovery cycles"
    );
}

#[test]
fn ledger_export_is_identical_across_worker_counts() {
    let workloads = [by_name("bfs").unwrap(), by_name("histo").unwrap()];
    let schemes = [Scheme::None, Scheme::Pssm, Scheme::Plutus];
    let run = |workers| {
        let exec = Executor::new(Some(workers));
        run_matrix(
            &exec,
            &workloads,
            &schemes,
            Scale::Test,
            &cfg(),
            &Observe::default(),
        )
        .unwrap()
        .0
    };
    let (rows1, rows4) = (run(1), run(4));
    ledger_gate(&rows1).expect("matrix ledgers must conserve");
    let json1 = ledger_json(&rows1).to_string_pretty();
    let json4 = ledger_json(&rows4).to_string_pretty();
    assert_eq!(
        json1, json4,
        "ledger JSON must be byte-identical for --jobs 1 vs --jobs 4"
    );
}
