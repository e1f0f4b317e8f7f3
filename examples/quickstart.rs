//! Quickstart: simulate one GPU workload under no security, the PSSM
//! baseline, and Plutus, and compare throughput and DRAM traffic.
//!
//! ```text
//! cargo run --release -p plutus-bench --example quickstart
//! ```

use gpu_sim::{GpuConfig, NoSecurityEngine, Simulator, TrafficClass};
use plutus_core::{PlutusConfig, PlutusEngine};
use secure_mem::{PssmEngine, SecureMemConfig};
use workloads::{by_name, Scale};

fn main() {
    let cfg = GpuConfig::default();
    let workload = by_name("bfs").expect("bfs is part of the suite");
    println!(
        "workload: bfs (synthetic graph traversal), {:?} scale",
        Scale::Small
    );

    // 1. No security: the normalization baseline.
    let trace = workload.trace(Scale::Small);
    let baseline = Simulator::new(cfg.clone(), trace.clone(), &NoSecurityEngine::factory()).run();

    // 2. The PSSM secure-memory baseline (counters + MACs + BMT, CME).
    let pssm_factory = PssmEngine::factory(SecureMemConfig::pssm());
    let pssm = Simulator::new(cfg.clone(), trace.clone(), &pssm_factory).run();

    // 3. Full Plutus: value verification + compact counters + 32 B metadata.
    let plutus_factory = PlutusEngine::factory(PlutusConfig::full());
    let plutus = Simulator::new(cfg, trace, &plutus_factory).run();

    println!(
        "\n{:<14}{:>12}{:>14}{:>16}{:>16}",
        "scheme", "IPC", "norm. IPC", "DRAM bytes", "metadata bytes"
    );
    for run in [&baseline, &pssm, &plutus] {
        println!(
            "{:<14}{:>12.2}{:>14.3}{:>16}{:>16}",
            run.engine,
            run.ipc(),
            run.ipc() / baseline.ipc(),
            run.stats.total_bytes(),
            run.stats.metadata_bytes(),
        );
    }

    for (name, run) in [("PSSM", &pssm), ("Plutus", &plutus)] {
        println!("\n{name} traffic breakdown:");
        for class in TrafficClass::ALL {
            let bytes = run.stats.class_bytes(class);
            if bytes > 0 {
                println!("  {:<12}{:>14} bytes", class.label(), bytes);
            }
        }
    }

    let speedup = (plutus.ipc() / pssm.ipc() - 1.0) * 100.0;
    let saved =
        (1.0 - plutus.stats.metadata_bytes() as f64 / pssm.stats.metadata_bytes() as f64) * 100.0;
    println!("\nPlutus vs PSSM: {speedup:+.1}% IPC, {saved:.1}% less metadata traffic");
    if let Some(avoided) = plutus.stats.engine_counter("vv_reads_verified") {
        let fills = plutus.stats.engine_counter("fills").unwrap_or(1).max(1);
        println!(
            "value verification authenticated {:.1}% of fills without a MAC fetch",
            avoided as f64 / fills as f64 * 100.0
        );
    }
}
