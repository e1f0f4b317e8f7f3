//! Fail-operational campaigns for the secure-memory pipeline.
//!
//! Three campaign families exercise the recovery machinery end-to-end:
//!
//! - **Transient** ([`run_transient_campaign_on`]): a seeded soft-error
//!   process ([`gpu_sim::TransientConfig`]) corrupts individual DRAM
//!   transfers while real workload traces run, and a bounded
//!   [`gpu_sim::RetryPolicy`] re-fetches failed fills. The campaign
//!   tallies how every transient resolved — recovered by retry,
//!   escalated to a recorded violation (a benign fault *misclassified*
//!   as an attack), or never observed — and [`transient_gate`] fails
//!   the run if any transient escalated.
//! - **Crash** ([`run_crash_campaign_on`]): runs are killed at arbitrary
//!   cycles, volatile security metadata reverts to the last epoch
//!   checkpoint, counters are reconstructed Phoenix-style against the
//!   persistent MACs, and every resident sector is re-read and compared
//!   against a pre-crash oracle. [`crash_gate`] fails unless every
//!   audit came back bit-identical with no spurious violations.
//! - **Storm / soak** ([`run_storm_campaign_observed`]): a multi-tenant
//!   chaos campaign — an adversarial tenant forces counter-group
//!   overflow storms and fires tamper/replay faults at its own slab
//!   while victim tenants run concurrently, a victim's key rotation
//!   walks live, and crash-kills land mid-walk. [`storm_gate`] fails on
//!   any isolation, conservation, Eq. 1, or recovery breach.
//!
//! Each family's rows render through one column declaration
//! (`*_report`, a [`plutus_telemetry::Table`]) and pass or fail through
//! one gate that names every violated check.
//!
//! Engines are supplied through [`SchemeProvider`] so the campaign
//! runners stay independent of any particular scheme catalogue; the
//! bench crate adapts its `Scheme` enum onto this trait.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crash;
mod storm;
mod transient;

pub use crash::{crash_gate, crash_report, run_crash_campaign_on, CrashCampaignConfig, CrashRow};
pub use storm::{
    run_storm_campaign_observed, storm_gate, storm_report, storm_schemes, StormCampaignConfig,
    StormRow, ADVERSARY, FIRST_VICTIM,
};
pub use transient::{
    run_transient_campaign_on, transient_gate, transient_report, TransientCampaignConfig,
    TransientRow,
};

use gpu_sim::EngineFactory;
use plutus_core::binomial::{
    binomial_tail, plutus_min_hits, tamper_hit_probability, VALUES_PER_UNIT,
};
use plutus_core::ValueCacheConfig;

/// A named source of security engines a campaign can instantiate.
///
/// Factories are built inside each campaign job, on whichever pool
/// worker runs it, so the provider itself only needs to be [`Sync`].
pub trait SchemeProvider: Sync {
    /// Display label used in campaign rows and reports.
    fn scheme_label(&self) -> String;
    /// Builds a fresh engine factory for one simulator instance.
    fn make_factory(&self) -> Box<dyn EngineFactory>;
}

/// The analytic Eq. 1 forgery bound at the default value-cache design
/// point: `P(X ≥ x)` for one 128-bit unit under a tampered decrypt.
/// Every campaign that counts value-verification forgeries gates on it.
pub fn eq1_bound() -> f64 {
    let vc = ValueCacheConfig::default();
    let p = tamper_hit_probability(vc.entries, vc.effective_bits());
    binomial_tail(
        VALUES_PER_UNIT,
        plutus_min_hits(vc.entries, vc.effective_bits()),
        p,
    )
}

/// Fault kinds whose applied effect changes the plaintext served to the
/// core — the only kinds whose value-verified escapes count as forgery
/// acceptances under Eq. 1. A tampered MAC or BMT node leaves the data
/// path honest (the tampered structure simply goes unconsulted on a
/// value-verified read), so such escapes are expected behaviour, not
/// forgeries: Eq. 1 bounds the chance that *non-authentic* plaintext
/// clears the 3-of-4 value screen.
pub fn randomizes_plaintext(kind: &str) -> bool {
    matches!(
        kind,
        "corrupt_data" | "replay_data" | "rollback_counter" | "rollback_compact"
    )
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::SchemeProvider;
    use gpu_sim::EngineFactory;
    use plutus_core::{PlutusConfig, PlutusEngine};
    use secure_mem::{CommonCountersEngine, PssmEngine, SecureMemConfig};

    /// The three checkpoint-capable engines, as test providers.
    pub enum TestScheme {
        Pssm,
        CommonCounters,
        Plutus,
    }

    impl SchemeProvider for TestScheme {
        fn scheme_label(&self) -> String {
            match self {
                TestScheme::Pssm => "pssm".into(),
                TestScheme::CommonCounters => "common-counters".into(),
                TestScheme::Plutus => "plutus".into(),
            }
        }

        fn make_factory(&self) -> Box<dyn EngineFactory> {
            match self {
                TestScheme::Pssm => Box::new(PssmEngine::factory(SecureMemConfig::pssm())),
                TestScheme::CommonCounters => {
                    Box::new(CommonCountersEngine::factory(SecureMemConfig::pssm()))
                }
                TestScheme::Plutus => Box::new(PlutusEngine::factory(PlutusConfig::full())),
            }
        }
    }

    pub fn all_schemes() -> Vec<Box<dyn SchemeProvider>> {
        vec![
            Box::new(TestScheme::Pssm),
            Box::new(TestScheme::CommonCounters),
            Box::new(TestScheme::Plutus),
        ]
    }
}
