//! Ablation studies for the design choices DESIGN.md calls out: the knobs
//! the paper fixes, swept so the fixed points can be justified.
//!
//! Each row is data: its sweep, a label, the [`Scheme`] it runs and how
//! it changes the base GPU configuration. A row at the paper's value
//! runs the paper's scheme, so [`run_all`] simulates each distinct
//! (configuration, scheme) cell once.

use crate::runner::{geomean, run_matrix, Observe, Scheme};
use gpu_sim::GpuConfig;
use plutus_exec::{Executor, JobPanic};
use plutus_telemetry::Table;
use workloads::{Scale, WorkloadSpec};

/// How an ablation row changes the base GPU configuration.
type Tweak = fn(&mut GpuConfig);

/// The base configuration, unchanged.
const BASE: Tweak = |_| {};

/// Dependent metadata fetches issue one after another.
const SERIAL: Tweak = |c| c.serial_metadata_chains = true;

const MAC: &str = "MAC size (4B halves storage, 8B halves collisions)";
// Split counters vs one 64-bit counter per sector, 8x the counter
// footprint: the paper's Section II contrast.
const COUNTERS: &str = "counter organization: split vs SGX-style monolithic";
// CME overlaps its pads with the fetch; XTS decrypts after it, the
// latency Plutus pays for soundness.
const CIPHER: &str = "cipher: CME vs AES-XTS on the PSSM baseline";
const PINNED: &str = "value-cache pinned fraction";
const PROMOTE: &str = "value-cache promotion threshold";
const DISABLE: &str = "adaptive compact-counter disable threshold";
const WALKS: &str = "tree-walk fetch serialization";
const WARPS: &str = "warp-pool size (Plutus tolerates latency via TLP)";

/// Every ablation row, in report order: its sweep, its label, the
/// scheme it runs and how it changes the base configuration.
const ROWS: &[(&str, &str, Scheme, Tweak)] = &[
    (MAC, "pssm-mac4", Scheme::PssmMac4, BASE),
    (MAC, "pssm-mac8", Scheme::Pssm, BASE),
    (COUNTERS, "pssm-split", Scheme::Pssm, BASE),
    (COUNTERS, "pssm-monolithic", Scheme::PssmMonolithic, BASE),
    (CIPHER, "pssm-cme", Scheme::Pssm, BASE),
    (CIPHER, "pssm-xts", Scheme::PssmXts, BASE),
    (PINNED, "pinned-0%", Scheme::PlutusPinnedPermille(0), BASE),
    (
        PINNED,
        "pinned-12%",
        Scheme::PlutusPinnedPermille(125),
        BASE,
    ),
    (PINNED, "pinned-25%", Scheme::Plutus, BASE),
    (
        PINNED,
        "pinned-50%",
        Scheme::PlutusPinnedPermille(500),
        BASE,
    ),
    (PROMOTE, "promote-at-2", Scheme::PlutusPromoteAt(2), BASE),
    (PROMOTE, "promote-at-8", Scheme::Plutus, BASE),
    (PROMOTE, "promote-at-15", Scheme::PlutusPromoteAt(15), BASE),
    (DISABLE, "disable-at-4", Scheme::PlutusDisableAt(4), BASE),
    (DISABLE, "disable-at-8", Scheme::Plutus, BASE),
    (DISABLE, "disable-at-16", Scheme::PlutusDisableAt(16), BASE),
    (DISABLE, "disable-at-32", Scheme::PlutusDisableAt(32), BASE),
    (WALKS, "plutus-parallel-walk", Scheme::Plutus, BASE),
    (WALKS, "plutus-serial-walk", Scheme::Plutus, SERIAL),
    (WALKS, "pssm-parallel-walk", Scheme::Pssm, BASE),
    (WALKS, "pssm-serial-walk", Scheme::Pssm, SERIAL),
    (WARPS, "plutus-512-warps", Scheme::Plutus, |c| c.warps = 512),
    (WARPS, "plutus-2048-warps", Scheme::Plutus, |c| {
        c.warps = 2048
    }),
    (WARPS, "plutus-4096-warps", Scheme::Plutus, |c| {
        c.warps = 4096
    }),
];

/// One ablation row: a labeled configuration's geomean normalized IPC over
/// the chosen workloads.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Title of the sweep the row belongs to.
    pub sweep: &'static str,
    /// Configuration label.
    pub label: &'static str,
    /// Geomean steady-state IPC normalized to no security.
    pub norm_ipc: f64,
    /// Metadata bytes summed over the workloads.
    pub metadata_bytes: u64,
}

/// Runs every ablation on `exec`: one [`run_matrix`] call per distinct
/// configuration, over the schemes its rows need, so each distinct cell
/// is simulated once. Returns the rows in sweep order.
///
/// # Errors
///
/// Returns the first panicked job, as [`run_matrix`] does.
pub fn run_all(
    exec: &Executor,
    workloads: &[WorkloadSpec],
    scale: Scale,
    cfg: &GpuConfig,
) -> Result<Vec<AblationRow>, JobPanic> {
    // Each distinct configuration with the schemes its rows run, and
    // per row the index of its configuration.
    let mut plans: Vec<(GpuConfig, Vec<Scheme>)> = Vec::new();
    let mut plan_of = Vec::new();
    for &(_, _, scheme, tweak) in ROWS {
        let mut c = cfg.clone();
        tweak(&mut c);
        let i = match plans.iter().position(|(p, _)| *p == c) {
            Some(i) => i,
            None => {
                plans.push((c, Vec::new()));
                plans.len() - 1
            }
        };
        if !plans[i].1.contains(&scheme) {
            plans[i].1.push(scheme);
        }
        plan_of.push(i);
    }
    let observe = Observe::default();
    let mut matrices = Vec::new();
    for (c, schemes) in &plans {
        matrices.push(run_matrix(exec, workloads, schemes, scale, c, &observe)?.0);
    }
    let rows = ROWS
        .iter()
        .zip(plan_of)
        .map(|(&(sweep, label, scheme, _), i)| {
            let scheme = scheme.label();
            let cells: Vec<_> = matrices[i].iter().filter(|m| m.scheme == scheme).collect();
            AblationRow {
                sweep,
                label,
                norm_ipc: geomean(cells.iter().map(|m| m.norm_ipc)),
                metadata_bytes: cells.iter().map(|m| m.metadata_bytes).sum(),
            }
        });
    Ok(rows.collect())
}

/// The ablation report: every row's sweep, label, normalized IPC and
/// metadata bytes; the console shows all but the sweep.
pub fn ablation_report(rows: &[AblationRow]) -> Table<'_, AblationRow> {
    Table::new(rows)
        .col("sweep", |r| r.sweep.into())
        .show("config", |r| r.label.into())
        .show("norm_ipc", |r| r.norm_ipc.into())
        .show("metadata_bytes", |r| r.metadata_bytes.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_one;
    use workloads::by_name;

    /// Every ablation on histo at test scale, on a two-worker pool.
    fn rows() -> Vec<AblationRow> {
        let w = [by_name("histo").unwrap()];
        let exec = Executor::new(Some(2));
        run_all(&exec, &w, Scale::Test, &GpuConfig::test_small()).unwrap()
    }

    fn get<'r>(rows: &'r [AblationRow], label: &str) -> &'r AblationRow {
        rows.iter().find(|r| r.label == label).unwrap()
    }

    #[test]
    fn mac4_matches_mac8_traffic_within_tolerance() {
        // 4 B tags halve MAC *storage*, but the fetch unit (32 B) is
        // unchanged, so DRAM metadata traffic must stay within a few
        // percent — the schemes trade collision rate, not bandwidth.
        let rows = rows();
        let mac4 = get(&rows, "pssm-mac4").metadata_bytes as f64;
        let mac8 = get(&rows, "pssm-mac8").metadata_bytes as f64;
        assert!(mac4 <= mac8 * 1.05, "mac4 metadata {mac4} vs mac8 {mac8}");
        assert!(mac8 <= mac4 * 1.05, "mac8 metadata {mac8} vs mac4 {mac4}");
    }

    #[test]
    fn serial_walks_never_beat_parallel() {
        let rows = rows();
        let ipc = |l: &str| get(&rows, l).norm_ipc;
        assert!(ipc("plutus-serial-walk") <= ipc("plutus-parallel-walk") + 1e-9);
        assert!(ipc("pssm-serial-walk") <= ipc("pssm-parallel-walk") + 1e-9);
    }

    #[test]
    fn paper_value_variants_simulate_like_plutus() {
        // A parameterised variant at the paper's value must build the
        // very engine `Scheme::Plutus` builds, on the same base config.
        let (w, cfg) = (by_name("bfs").unwrap(), GpuConfig::test_small());
        let plutus = format!("{:?}", run_one(&w, Scheme::Plutus, Scale::Test, &cfg));
        for scheme in [
            Scheme::PlutusPinnedPermille(250),
            Scheme::PlutusPromoteAt(8),
            Scheme::PlutusDisableAt(8),
        ] {
            let run = format!("{:?}", run_one(&w, scheme, Scale::Test, &cfg));
            assert_eq!(run, plutus, "{scheme:?}");
        }
    }

    #[test]
    fn pinned_fraction_rows_complete() {
        let rows = rows();
        let pinned: Vec<_> = rows.iter().filter(|r| r.sweep == PINNED).collect();
        assert_eq!(pinned.len(), 4);
        assert!(pinned.iter().all(|r| r.norm_ipc > 0.0));
        assert_eq!(rows.len(), 24);
    }
}
