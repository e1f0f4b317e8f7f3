//! Ablation studies for the design choices DESIGN.md calls out: the knobs
//! the paper fixes, swept so the fixed points can be justified.

use crate::runner::{geomean, run_one, run_with_factory, Scheme};
use gpu_sim::{EngineFactory, GpuConfig};
use plutus_core::{CompactConfig, PlutusConfig, PlutusEngine};
use secure_mem::{CipherKind, PssmEngine, SecureMemConfig};
use workloads::{Scale, WorkloadSpec};

/// One ablation row: a labeled configuration's geomean normalized IPC over
/// the chosen workloads.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Geomean steady-state IPC normalized to no security.
    pub norm_ipc: f64,
    /// Geomean metadata bytes relative to the first row.
    pub metadata_bytes: u64,
}

fn measure(
    label: &str,
    factory: &dyn EngineFactory,
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> AblationRow {
    let mut ratios = Vec::new();
    let mut meta = 0u64;
    for w in workloads {
        // Steady-state IPC, as `run_matrix` normalizes every figure.
        let base = run_one(w, Scheme::None, scale, cfg).stats.steady_ipc();
        let r = run_with_factory(w, factory, scale, cfg);
        if base > 0.0 {
            ratios.push(r.stats.steady_ipc() / base);
        }
        meta += r.stats.metadata_bytes();
    }
    AblationRow {
        label: label.into(),
        norm_ipc: geomean(ratios),
        metadata_bytes: meta,
    }
}

fn print_rows(title: &str, rows: &[AblationRow]) {
    println!("\n--- {title} ---");
    println!(
        "{:<28}{:>12}{:>18}",
        "config", "norm. IPC", "metadata bytes"
    );
    for r in rows {
        println!(
            "{:<28}{:>12.4}{:>18}",
            r.label, r.norm_ipc, r.metadata_bytes
        );
    }
}

/// MAC size: the PSSM paper's 4 B tag vs the 8 B tag Plutus adopts.
pub fn mac_size(workloads: &[WorkloadSpec], scale: Scale, cfg: &GpuConfig) -> Vec<AblationRow> {
    let rows = vec![
        measure(
            "pssm-mac4",
            &PssmEngine::factory(SecureMemConfig::pssm_mac4()),
            workloads,
            scale,
            cfg,
        ),
        measure(
            "pssm-mac8",
            &PssmEngine::factory(SecureMemConfig::pssm()),
            workloads,
            scale,
            cfg,
        ),
    ];
    print_rows("MAC size (4B halves storage, 8B halves collisions)", &rows);
    rows
}

/// Counter organization: state-of-the-art split counters vs SGX-style
/// monolithic counters (one 64-bit counter per sector, 8× the counter
/// footprint — the paper's Section II contrast).
pub fn counter_organization(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let rows = vec![
        measure(
            "pssm-split",
            &PssmEngine::factory(SecureMemConfig::pssm()),
            workloads,
            scale,
            cfg,
        ),
        measure(
            "pssm-monolithic",
            &PssmEngine::factory(SecureMemConfig::pssm_monolithic()),
            workloads,
            scale,
            cfg,
        ),
    ];
    print_rows("counter organization: split vs SGX-style monolithic", &rows);
    rows
}

/// Data-path cipher under PSSM: CME (overlapped pads) vs XTS (serialized
/// decrypt, diffusing) — the latency cost Plutus pays for soundness.
pub fn cipher_choice(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let xts = SecureMemConfig {
        cipher: CipherKind::Xts,
        ..SecureMemConfig::pssm()
    };
    let rows = vec![
        measure(
            "pssm-cme",
            &PssmEngine::factory(SecureMemConfig::pssm()),
            workloads,
            scale,
            cfg,
        ),
        measure("pssm-xts", &PssmEngine::factory(xts), workloads, scale, cfg),
    ];
    print_rows("cipher: CME vs AES-XTS on the PSSM baseline", &rows);
    rows
}

/// Value-cache pinned fraction (paper fixes 25%).
pub fn pinned_fraction(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for frac in [0.0, 0.125, 0.25, 0.5] {
        let mut pc = PlutusConfig::full();
        pc.value_cache.pinned_fraction = frac;
        rows.push(measure(
            &format!("pinned-{:.0}%", frac * 100.0),
            &PlutusEngine::factory(pc),
            workloads,
            scale,
            cfg,
        ));
    }
    print_rows("value-cache pinned fraction", &rows);
    rows
}

/// Promotion threshold for pinning (use-counter value).
pub fn promote_threshold(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for thr in [2u8, 8, 15] {
        let mut pc = PlutusConfig::full();
        pc.value_cache.promote_threshold = thr;
        rows.push(measure(
            &format!("promote-at-{thr}"),
            &PlutusEngine::factory(pc),
            workloads,
            scale,
            cfg,
        ));
    }
    print_rows("value-cache promotion threshold", &rows);
    rows
}

/// Adaptive compact-counter disable threshold (paper fixes 8 saturated
/// counters per 64-counter block).
pub fn disable_threshold(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for thr in [4u8, 8, 16, 32] {
        let mut pc = PlutusConfig::full();
        pc.compact = Some(CompactConfig {
            disable_threshold: thr,
            ..CompactConfig::default()
        });
        rows.push(measure(
            &format!("disable-at-{thr}"),
            &PlutusEngine::factory(pc),
            workloads,
            scale,
            cfg,
        ));
    }
    print_rows("adaptive compact-counter disable threshold", &rows);
    rows
}

/// Serialized vs parallel integrity-tree fetches (the modeling switch).
pub fn chain_serialization(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let mut serial_cfg = cfg.clone();
    serial_cfg.serial_metadata_chains = true;
    let rows = vec![
        measure(
            "plutus-parallel-walk",
            &PlutusEngine::factory(PlutusConfig::full()),
            workloads,
            scale,
            cfg,
        ),
        measure(
            "plutus-serial-walk",
            &PlutusEngine::factory(PlutusConfig::full()),
            workloads,
            scale,
            &serial_cfg,
        ),
        measure(
            "pssm-parallel-walk",
            &PssmEngine::factory(SecureMemConfig::pssm()),
            workloads,
            scale,
            cfg,
        ),
        measure(
            "pssm-serial-walk",
            &PssmEngine::factory(SecureMemConfig::pssm()),
            workloads,
            scale,
            &serial_cfg,
        ),
    ];
    print_rows("tree-walk fetch serialization", &rows);
    rows
}

/// Warp-pool size (latency-hiding capacity).
pub fn warp_sensitivity(
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for warps in [512usize, 2048, 4096] {
        let mut c = cfg.clone();
        c.warps = warps;
        rows.push(measure(
            &format!("plutus-{warps}-warps"),
            &PlutusEngine::factory(PlutusConfig::full()),
            workloads,
            scale,
            &c,
        ));
    }
    print_rows("warp-pool size (Plutus tolerates latency via TLP)", &rows);
    rows
}

/// Runs every ablation and returns all rows.
pub fn run_all(workloads: &[WorkloadSpec], scale: Scale, cfg: &GpuConfig) -> Vec<AblationRow> {
    let mut all = Vec::new();
    all.extend(mac_size(workloads, scale, cfg));
    all.extend(counter_organization(workloads, scale, cfg));
    all.extend(cipher_choice(workloads, scale, cfg));
    all.extend(pinned_fraction(workloads, scale, cfg));
    all.extend(promote_threshold(workloads, scale, cfg));
    all.extend(disable_threshold(workloads, scale, cfg));
    all.extend(chain_serialization(workloads, scale, cfg));
    all.extend(warp_sensitivity(workloads, scale, cfg));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_matrix, Observe};
    use workloads::by_name;

    fn setup() -> (Vec<WorkloadSpec>, GpuConfig) {
        (vec![by_name("histo").unwrap()], GpuConfig::test_small())
    }

    #[test]
    fn mac4_matches_mac8_traffic_within_tolerance() {
        // 4 B tags halve MAC *storage*, but the fetch unit (32 B) is
        // unchanged, so DRAM metadata traffic must stay within a few
        // percent — the schemes trade collision rate, not bandwidth.
        let (w, cfg) = setup();
        let rows = mac_size(&w, Scale::Test, &cfg);
        let (mac4, mac8) = (rows[0].metadata_bytes as f64, rows[1].metadata_bytes as f64);
        assert!(mac4 <= mac8 * 1.05, "mac4 metadata {mac4} vs mac8 {mac8}");
        assert!(mac8 <= mac4 * 1.05, "mac8 metadata {mac8} vs mac4 {mac4}");
    }

    #[test]
    fn serial_walks_never_beat_parallel() {
        let (w, cfg) = setup();
        let rows = chain_serialization(&w, Scale::Test, &cfg);
        let get = |l: &str| rows.iter().find(|r| r.label == l).unwrap().norm_ipc;
        assert!(get("plutus-serial-walk") <= get("plutus-parallel-walk") + 1e-9);
        assert!(get("pssm-serial-walk") <= get("pssm-parallel-walk") + 1e-9);
    }

    #[test]
    fn rows_normalize_steady_ipc_like_the_matrix() {
        // The experiments binary measures past the warp-launch ramp; an
        // ablation row must read the same steady-state IPC ratio as the
        // figure matrix does for the same configuration.
        let mut cfg = GpuConfig::test_small();
        cfg.warmup_cycles = cfg.warps as u64 / 2;
        let w: Vec<WorkloadSpec> = ["histo", "bfs"].map(|n| by_name(n).unwrap()).into();
        let exec = plutus_exec::Executor::new(Some(2));
        let schemes = [Scheme::None, Scheme::Pssm];
        let observe = Observe::default();
        let (rows, _) = run_matrix(&exec, &w, &schemes, Scale::Test, &cfg, &observe).unwrap();
        let pssm = rows.iter().filter(|r| r.scheme == "pssm");
        let matrix = geomean(pssm.map(|r| r.norm_ipc));
        let mac8 = &mac_size(&w, Scale::Test, &cfg)[1];
        assert_eq!(mac8.label, "pssm-mac8");
        assert_eq!(mac8.norm_ipc, matrix);
    }

    #[test]
    fn pinned_fraction_rows_complete() {
        let (w, cfg) = setup();
        let rows = pinned_fraction(&w, Scale::Test, &cfg);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.norm_ipc > 0.0));
    }
}
