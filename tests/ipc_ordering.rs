//! Property tests for the paper's central performance result: in the
//! bandwidth-bound regime security metadata traffic costs cycles, so
//! the normalized-IPC ordering no-security > Plutus > PSSM emerges
//! (Figs. 11-14), and the matrix fan-out that measures it is
//! byte-deterministic for any worker count.

use gpu_sim::{GpuConfig, SimStats, StallBucket};
use plutus_bench::{bench_snapshot, run_matrix, run_trace, Observe, Scheme};
use plutus_exec::Executor;
use workloads::{by_name, Scale, ScaleKnobs};

/// The launch-ramp warm-up boundary the experiments binary uses: warps
/// launch one every other cycle, so the pool is full after warps/2.
fn bandwidth_bound_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::test_small();
    cfg.warmup_cycles = cfg.warps as u64 / 2;
    cfg
}

/// A synthetic workload firmly in the bandwidth-bound regime on the
/// test-small config: the knobbed bfs trace's footprint (32K sectors =
/// 1 MiB) defeats the 64 KiB of L2, and its 48K accesses keep the four
/// DRAM channels' bus queues saturated for the bulk of the run.
fn bandwidth_bound_stats(scheme: Scheme) -> SimStats {
    let w = by_name("bfs").expect("bfs is in the suite");
    let knobs = ScaleKnobs {
        length_mul: 8,
        footprint_mul: 4,
    };
    let trace = w.trace_knobbed(Scale::Test, knobs);
    run_trace(trace, scheme, &bandwidth_bound_cfg()).stats
}

#[test]
fn normalized_ipc_ordering_emerges_when_bandwidth_bound() {
    let none = bandwidth_bound_stats(Scheme::None);
    let plutus = bandwidth_bound_stats(Scheme::Plutus);
    let pssm = bandwidth_bound_stats(Scheme::Pssm);

    // Same trace, same retired work — only the timing may differ.
    assert_eq!(none.accesses, plutus.accesses);
    assert_eq!(none.accesses, pssm.accesses);

    let base = none.steady_ipc();
    assert!(base > 0.0, "baseline must retire work");
    let norm_plutus = plutus.steady_ipc() / base;
    let norm_pssm = pssm.steady_ipc() / base;

    // The paper's ordering, strictly: security is not free, and Plutus's
    // traffic reduction buys back part of PSSM's slowdown.
    assert!(
        norm_plutus < 1.0,
        "Plutus must cost cycles (norm IPC {norm_plutus:.4})"
    );
    assert!(
        norm_pssm < norm_plutus,
        "PSSM moves more metadata than Plutus and must be slower \
         (pssm {norm_pssm:.4} vs plutus {norm_plutus:.4})"
    );

    // The comparison only means something if the run is actually
    // bandwidth-bound and the attribution is trustworthy: PSSM's CPI
    // stack must show metadata transfers and bus-backlog waits, and
    // every ledger must conserve.
    let stack = pssm.cpi_stack();
    let meta_cycles = stack[StallBucket::MetaCounter.idx()]
        + stack[StallBucket::MetaMac.idx()]
        + stack[StallBucket::MetaBmt.idx()];
    assert!(meta_cycles > 0, "PSSM must stall on metadata transfers");
    assert!(
        stack[StallBucket::BusBacklog.idx()] > 0,
        "a bandwidth-bound run must accumulate bus-backlog waits"
    );
    for s in [&none, &plutus, &pssm] {
        assert!(s.ledger_conserved(), "cycle ledger must conserve");
    }
}

#[test]
fn matrix_rows_identical_for_any_worker_count() {
    let workloads = [
        by_name("bfs").expect("bfs is in the suite"),
        by_name("hotspot").expect("hotspot is in the suite"),
    ];
    let schemes = [
        Scheme::None,
        Scheme::Pssm,
        Scheme::CommonCounters,
        Scheme::Plutus,
    ];
    let cfg = bandwidth_bound_cfg();
    let run = |workers| {
        let exec = Executor::new(Some(workers));
        run_matrix(
            &exec,
            &workloads,
            &schemes,
            Scale::Test,
            &cfg,
            &Observe::default(),
        )
        .expect("matrix must succeed")
        .0
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(
        bench_snapshot(&one).to_string_pretty(),
        bench_snapshot(&four).to_string_pretty(),
        "matrix snapshot must be byte-identical for --jobs 1 vs --jobs 4"
    );
}
