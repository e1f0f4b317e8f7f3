//! **Plutus: bandwidth-efficient memory security for GPUs** — a
//! reproduction of the HPCA 2023 paper by Abdullah, Zhou and Awad.
//!
//! Secure GPU memory (encryption counters, per-sector MACs, an integrity
//! tree) can add >200% DRAM traffic for irregular workloads. Plutus cuts
//! that overhead with three composable techniques:
//!
//! 1. **Value-based integrity verification** ([`verify::ValueVerifier`]) —
//!    a small per-partition cache of recently seen 32-bit values
//!    authenticates most reads *without fetching their MAC*: under AES-XTS,
//!    tampered ciphertext decrypts to uniform noise, and the binomial
//!    analysis in [`binomial`] shows that demanding 3-of-4 value-cache hits
//!    per 128-bit block bounds forgery below a 56-bit MAC's collision rate.
//!    Writes whose values are *pinned* in the cache skip the MAC update
//!    altogether.
//! 2. **Compact mirrored counters** ([`compact::CompactCounters`]) — 2-/3-
//!    bit front-line write counters (plus a small BMT) serve the
//!    rarely-written majority of GPU data; the original split counters and
//!    big BMT are touched only on saturation. The adaptive variant disables
//!    itself per-block for write-hot data.
//! 3. **Fine-grain metadata blocks** (via
//!    [`secure_mem::SecureMemConfig::all_32`]) — 32 B counter/MAC/BMT
//!    blocks eliminate over-fetch at the cost of a taller tree; the paper's
//!    Fig. 14 trade-off is swept by `experiments fig16`.
//!
//! The [`engine::PlutusEngine`] composes all three behind the
//! [`gpu_sim::SecurityEngine`] interface, with per-technique toggles in
//! [`config::PlutusConfig`] matching each of the paper's figures.
//!
//! # Quick start
//!
//! ```
//! use gpu_sim::{BackingMemory, SectorAddr, SecurityEngine};
//! use plutus_core::{PlutusConfig, PlutusEngine};
//!
//! let mut engine = PlutusEngine::new(PlutusConfig::test_small());
//! let mut mem = BackingMemory::new();
//! let addr = SectorAddr::new(0x2000);
//! engine.on_writeback(addr, &[7; 32], &mut mem);
//! let fill = engine.on_fill(addr, &mut mem);
//! assert_eq!(fill.plaintext, [7; 32]);
//! assert!(fill.violation.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binomial;
pub mod compact;
pub mod config;
pub mod engine;
pub mod overheads;
pub mod value_analysis;
pub mod value_cache;
pub mod verify;

pub use compact::{CompactConfig, CompactCounters, CompactKind};
pub use config::PlutusConfig;
pub use engine::{PlutusEngine, PlutusFactory};
pub use value_analysis::{analyze_trace, ValueReuse};
pub use value_cache::{ValueCache, ValueCacheConfig};
pub use verify::{ValueVerifier, Verdict, WriteScreen};
