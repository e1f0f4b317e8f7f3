//! End-to-end integration: full simulator runs across the workload suite
//! and every security scheme, checking completion, cleanliness, and the
//! paper's first-order traffic orderings.

use gpu_sim::GpuConfig;
use plutus_bench::{run_matrix, run_one, Observe, Scheme};
use plutus_exec::Executor;
use workloads::{by_name, suite, Scale};

fn cfg() -> GpuConfig {
    // The reduced test configuration: its 64 KiB of L2 against the 256 KiB
    // test-scale footprint reproduces the cache pressure of the paper's
    // memory-intensive regime at unit-test cost.
    GpuConfig::test_small()
}

#[test]
fn every_workload_completes_under_every_scheme() {
    let schemes = [
        Scheme::None,
        Scheme::Pssm,
        Scheme::CommonCounters,
        Scheme::All32,
        Scheme::ValueVerifyOnly,
        Scheme::CompactAdaptive,
        Scheme::Plutus,
        Scheme::PlutusNoTree,
    ];
    for w in suite() {
        let trace_len = w.trace(Scale::Test).len() as u64;
        for scheme in schemes {
            let r = run_one(&w, scheme, Scale::Test, &cfg());
            assert_eq!(
                r.stats.accesses, trace_len,
                "{} under {:?} lost accesses",
                w.name, scheme
            );
            assert_eq!(
                r.stats.violations, 0,
                "{} under {:?} raised violations",
                w.name, scheme
            );
            assert!(r.stats.cycles > 0);
        }
    }
}

#[test]
fn security_always_costs_cycles_and_metadata() {
    for name in ["bfs", "histo", "stencil"] {
        let w = by_name(name).unwrap();
        let none = run_one(&w, Scheme::None, Scale::Test, &cfg());
        let pssm = run_one(&w, Scheme::Pssm, Scale::Test, &cfg());
        assert!(
            pssm.stats.cycles > none.stats.cycles,
            "{name}: pssm not slower"
        );
        assert!(pssm.stats.metadata_bytes() > 0);
        assert_eq!(none.stats.metadata_bytes(), 0);
        assert_eq!(
            none.stats.total_bytes(),
            none.stats.class_bytes(gpu_sim::TrafficClass::Data)
        );
    }
}

#[test]
fn plutus_reduces_metadata_traffic_in_aggregate() {
    // Per-workload the ordering can flip for very cache-friendly traces
    // (PSSM's 128 B fetches amortize well when the hot set is tiny), so
    // assert the suite-level reduction plus a loose per-workload bound.
    let mut pssm_total = 0u64;
    let mut plutus_total = 0u64;
    for w in suite() {
        let pssm = run_one(&w, Scheme::Pssm, Scale::Test, &cfg());
        let plutus = run_one(&w, Scheme::Plutus, Scale::Test, &cfg());
        pssm_total += pssm.stats.metadata_bytes();
        plutus_total += plutus.stats.metadata_bytes();
        assert!(
            (plutus.stats.metadata_bytes() as f64)
                < 2.0 * pssm.stats.metadata_bytes().max(1) as f64,
            "{}: plutus {} far above pssm {}",
            w.name,
            plutus.stats.metadata_bytes(),
            pssm.stats.metadata_bytes()
        );
    }
    assert!(
        plutus_total < pssm_total,
        "suite aggregate: plutus {plutus_total} >= pssm {pssm_total}"
    );
}

#[test]
fn value_verification_eliminates_most_mac_traffic() {
    for name in ["bfs", "color", "mis"] {
        let w = by_name(name).unwrap();
        let pssm = run_one(&w, Scheme::Pssm, Scale::Test, &cfg());
        let vv = run_one(&w, Scheme::ValueVerifyOnly, Scale::Test, &cfg());
        let pssm_mac = pssm.stats.class_bytes(gpu_sim::TrafficClass::Mac);
        let vv_mac = vv.stats.class_bytes(gpu_sim::TrafficClass::Mac);
        assert!(
            (vv_mac as f64) < 0.5 * pssm_mac as f64,
            "{name}: MAC bytes {vv_mac} not well below PSSM's {pssm_mac}"
        );
    }
}

#[test]
fn no_tree_mode_removes_tree_traffic_only() {
    let w = by_name("sssp").unwrap();
    let plutus = run_one(&w, Scheme::Plutus, Scale::Test, &cfg());
    let no_tree = run_one(&w, Scheme::PlutusNoTree, Scale::Test, &cfg());
    assert_eq!(no_tree.stats.class_bytes(gpu_sim::TrafficClass::BmtNode), 0);
    assert_eq!(
        no_tree.stats.class_bytes(gpu_sim::TrafficClass::CompactBmt),
        0
    );
    assert!(plutus.stats.class_bytes(gpu_sim::TrafficClass::CompactBmt) > 0);
    // Still encrypted + counter-managed.
    assert!(
        no_tree
            .stats
            .class_bytes(gpu_sim::TrafficClass::CompactCounter)
            > 0
    );
}

#[test]
fn run_matrix_covers_all_cells_deterministically() {
    let ws = [by_name("kmeans").unwrap(), by_name("spmv").unwrap()];
    let schemes = [Scheme::None, Scheme::Pssm, Scheme::Plutus];
    let run = || {
        let exec = Executor::new(None);
        run_matrix(
            &exec,
            &ws,
            &schemes,
            Scale::Test,
            &cfg(),
            &Observe::default(),
        )
        .unwrap()
        .0
    };
    let (a, b) = (run(), run());
    assert_eq!(a.len(), 6);
    for row in &a {
        let twin = b
            .iter()
            .find(|r| r.workload == row.workload && r.scheme == row.scheme)
            .expect("matching cell");
        assert_eq!(
            row.cycles, twin.cycles,
            "nondeterministic cycles for {}",
            row.workload
        );
        assert_eq!(row.total_bytes, twin.total_bytes);
    }
    for row in a.iter().filter(|r| r.scheme != "no-security") {
        assert!(
            row.norm_ipc <= 1.0 + 1e-9,
            "secure scheme faster than no security?"
        );
    }
}

#[test]
fn flush_at_end_drains_dirty_lines() {
    let w = by_name("histo").unwrap();
    let trace = w.trace(Scale::Test);
    let mut flush_cfg = cfg();
    flush_cfg.flush_l2_at_end = true;
    let plutus = plutus_core::PlutusEngine::factory(plutus_core::PlutusConfig::full());
    let mut sim = gpu_sim::Simulator::new(flush_cfg, trace.clone(), &plutus);
    let with_flush = sim.run();
    let mut sim = gpu_sim::Simulator::new(cfg(), trace, &plutus);
    let without = sim.run();
    assert!(
        with_flush.stats.traffic[gpu_sim::TrafficClass::Data.idx()].write_bytes
            >= without.stats.traffic[gpu_sim::TrafficClass::Data.idx()].write_bytes,
        "flush must not reduce write traffic"
    );
}
