//! Experiment harness for the Plutus (HPCA 2023) reproduction: shared
//! runner, energy model, and report formatting used by the `experiments`
//! binary.
//!
//! Run `cargo run --release -p plutus-bench --bin experiments -- all` to
//! regenerate every paper table and figure; see `EXPERIMENTS.md` at the
//! repository root for the measured-vs-paper record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod baseline;
pub mod campaign;
pub mod cipher_bench;
pub mod energy;
pub mod obsdiff;
pub mod report;
pub mod runner;
pub mod trace_export;

pub use baseline::{bench_snapshot, bench_snapshot_with, BenchProvenance, BENCH_SCHEMA};
pub use campaign::{
    campaign_gate, campaign_report, campaign_schemes, eq1_bound, run_campaign_on, CampaignConfig,
    CampaignKind, CampaignRow,
};
pub use cipher_bench::{cipher_bench_gate, cipher_bench_report, run_cipher_bench, CipherBenchRow};
pub use energy::EnergyModel;
pub use obsdiff::{
    diff_documents, diff_run_dirs, manifest_compat, obs_diff_table, read_report, DiffRow, ObsDiff,
};
pub use report::{
    cpi_stack_table, degenerate_warning, degenerate_workloads, figure_report, ledger_csv,
    ledger_folded, ledger_gate, ledger_json, matrix_table, measurement_table, pct_change,
    LEDGER_SCHEMA,
};
pub use runner::{
    geomean, recovery_schemes, run_matrix, run_one, run_trace, Measurement, Observe, RunnerError,
    Scheme, TracedRun,
};
pub use trace_export::{attribution_table, chrome_trace, collapsed_stack};
