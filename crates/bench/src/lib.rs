//! Experiment harness for the Plutus (HPCA 2023) reproduction: shared
//! runner, energy model, report formatting and the fault campaigns used
//! by the `experiments` binary.
//!
//! The campaigns attack [`CAMPAIGN_ENGINES`] and each renders through
//! one report declaration and one gate:
//!
//! - **Tamper / replay / rollback / sweep** ([`run_campaign_on`]):
//!   seeded mid-run faults, with the measured forgery rate gated
//!   against the Eq. 1 bound ([`campaign_gate`]).
//! - **Transient** ([`run_transient_campaign_on`]): seeded soft errors
//!   under a bounded retry policy; [`transient_gate`] fails if any
//!   benign fault escalated to a recorded violation.
//! - **Crash** ([`run_crash_campaign_on`]): runs killed mid-flight,
//!   restored from the last checkpoint, recovered Phoenix-style and
//!   re-read against a pre-crash oracle ([`crash_gate`]).
//! - **Storm / soak** ([`run_storm_campaign_observed`]): an adversarial
//!   tenant storms overflows and fires faults at its own slab beside
//!   victim tenants, a victim's key rotation walks live, and crash-kills
//!   land mid-walk; soak adds soft errors ([`storm_gate`]).
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
pub mod crash;
pub mod energy;
pub mod obsdiff;
pub mod report;
pub mod runner;
pub mod storm;
pub mod trace_export;
pub mod transient;

pub use baseline::{bench_snapshot, bench_snapshot_with, BenchProvenance, BENCH_SCHEMA};
pub use campaign::{
    campaign_gate, campaign_report, eq1_bound, run_campaign_on, CampaignConfig, CampaignKind,
    CampaignRow, CAMPAIGN_ENGINES,
};
pub use cipher_bench::{cipher_bench_gate, cipher_bench_report, run_cipher_bench, CipherBenchRow};
pub use crash::{crash_gate, crash_report, run_crash_campaign_on, CrashCampaignConfig, CrashRow};
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
    geomean, run_matrix, run_one, run_trace, Measurement, Observe, Scheme, TracedRun,
};
pub use storm::{
    run_storm_campaign_observed, storm_gate, storm_report, StormCampaignConfig, StormRow,
    ADVERSARY, FIRST_VICTIM,
};
pub use trace_export::{attribution_table, chrome_trace, collapsed_stack};
pub use transient::{
    run_transient_campaign_on, transient_gate, transient_report, TransientCampaignConfig,
    TransientRow,
};
