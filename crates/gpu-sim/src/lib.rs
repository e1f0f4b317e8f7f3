//! A trace-driven GPU memory-subsystem simulator, built as the substrate
//! for reproducing *"Plutus: Bandwidth-Efficient Memory Security for GPUs"*
//! (HPCA 2023).
//!
//! The simulator models the parts of a Volta-class GPU that determine the
//! cost of secure memory:
//!
//! - a **warp-pool core model** ([`Simulator`]) that keeps enough memory
//!   requests in flight to make DRAM bandwidth the bottleneck;
//! - **sectored L2 slices** with MSHRs ([`cache::SectoredCache`]), 128-byte
//!   lines transferring 32-byte sectors;
//! - a per-partition **DRAM channel model** ([`dram::DramChannel`]) with
//!   banks, row buffers, and a shared data bus;
//! - a pluggable **security engine** interface ([`SecurityEngine`]): every
//!   L2 miss and writeback is routed through the active memory-security
//!   scheme, which returns the metadata DRAM requests and crypto latencies
//!   to charge;
//! - a **functional backing store** ([`mem::BackingMemory`]) holding real
//!   (encrypted) bytes, which doubles as the physical-attack surface.
//!
//! # Quick start
//!
//! ```
//! use gpu_sim::{GpuConfig, NoSecurityEngine, SectorAddr, Simulator, Trace};
//!
//! let mut trace = Trace::new("stream");
//! for i in 0..256 {
//!     trace.push_read(SectorAddr::new(i * 32), 4, 10);
//! }
//! let mut sim = Simulator::new(GpuConfig::test_small(), trace, &NoSecurityEngine::factory());
//! let result = sim.run();
//! println!("IPC = {:.2}", result.ipc());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod cache;
pub mod config;
pub mod dram;
pub mod fault;
pub mod hash;
pub mod ledger;
pub mod mem;
mod publish;
mod queue;
pub mod security;
pub mod sim;
pub mod stats;
pub mod tenant;
pub mod trace;
pub mod transient;

pub use address::{
    partition_of, BlockAddr, SectorAddr, BLOCK_SIZE, SECTORS_PER_BLOCK, SECTOR_SIZE,
};
pub use config::{DramConfig, GpuConfig, SecurityLatencies};
pub use dram::{BankStat, DramBreakdown};
pub use fault::{FaultKind, FaultSchedule, FaultTrigger, ScheduledFault};
pub use hash::{FastHashMap, FastHashSet};
pub use ledger::{CycleLedger, LedgerWeights, PartitionLedger, StallBucket, NUM_STALL_BUCKETS};
pub use mem::BackingMemory;
pub use security::{
    DetectionLayer, DramReq, EngineFactory, FillPlan, MetaFault, NoSecurityEngine, RecoveryError,
    RecoveryReport, SecurityEngine, Violation, WritePlan,
};
pub use sim::{CrashAudit, SimResult, Simulator};
pub use stats::{
    DramStats, FaultOutcome, FaultRecord, SimStats, TrafficClass, TransientOutcome,
    TransientRecord, ViolationRecord,
};
pub use tenant::{TenantMap, TenantStat};
pub use trace::{AccessKind, Trace, TraceAccess};
pub use transient::{RetryPolicy, TransientConfig, TransientKind, TransientSampler};
