//! The interface between the memory controller and a memory-security
//! scheme.
//!
//! Every L2 miss (fill) and dirty writeback passes through a
//! [`SecurityEngine`]. The engine performs the *functional* work (real
//! encryption, MAC and integrity-tree bookkeeping against the
//! [`BackingMemory`]) and returns a *timing plan* describing the extra DRAM
//! requests and crypto latencies the simulator must charge. One engine
//! instance exists per memory partition, mirroring PSSM's per-partition
//! security engines and metadata caches.

use crate::address::SectorAddr;
use crate::mem::BackingMemory;
use crate::stats::TrafficClass;

/// One metadata DRAM request in a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramReq {
    /// Address (used for bank/row mapping; metadata is partition-local).
    pub addr: u64,
    /// Transfer size in bytes (32 for sectors, 128 for whole blocks).
    pub bytes: u32,
    /// Traffic classification for the statistics breakdown.
    pub class: TrafficClass,
    /// Integrity-tree level of the touched node (0 for leaves and
    /// non-tree metadata) — used by the bandwidth-attribution trace.
    pub level: u32,
}

impl DramReq {
    /// Convenience constructor (level 0).
    pub fn new(addr: u64, bytes: u32, class: TrafficClass) -> Self {
        Self {
            addr,
            bytes,
            class,
            level: 0,
        }
    }

    /// Tags the request with the integrity-tree level it touches.
    pub fn at_level(mut self, level: u32) -> Self {
        self.level = level;
        self
    }
}

/// The verification layer that caught an integrity violation.
///
/// Fault-injection campaigns histogram detections by layer to show which
/// mechanism each engine actually relies on: PSSM-style engines catch
/// data tampering at the MAC, Plutus catches it on the value-verification
/// read path, and counter replays surface in one of the two trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionLayer {
    /// The value-verification read path (value screen + deferred MAC).
    ValueVerification,
    /// The per-sector MAC, checked in parallel with decryption.
    Mac,
    /// The Bonsai Merkle Tree over the original counters.
    Bmt {
        /// Tree level at which verification failed (0 = leaf).
        level: u32,
    },
    /// The small BMT protecting the compact counters.
    CompactBmt {
        /// Tree level at which verification failed (0 = leaf).
        level: u32,
    },
}

impl DetectionLayer {
    /// Stable short label used in histograms and telemetry exports.
    pub fn label(&self) -> &'static str {
        match self {
            DetectionLayer::ValueVerification => "value_verification",
            DetectionLayer::Mac => "mac",
            DetectionLayer::Bmt { .. } => "bmt",
            DetectionLayer::CompactBmt { .. } => "compact_bmt",
        }
    }
}

impl std::fmt::Display for DetectionLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectionLayer::Bmt { level } => write!(f, "bmt[{level}]"),
            DetectionLayer::CompactBmt { level } => write!(f, "compact_bmt[{level}]"),
            other => f.write_str(other.label()),
        }
    }
}

/// A detected integrity violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// The per-sector MAC did not match the decrypted data.
    MacMismatch {
        /// The offending data sector.
        addr: SectorAddr,
    },
    /// Tampering caught on the value-verification read path: the value
    /// screen rejected the fast path and the deferred MAC confirmed the
    /// mismatch (the Plutus read flow of the paper's Fig. 11).
    ValueMismatch {
        /// The offending data sector.
        addr: SectorAddr,
    },
    /// An integrity-tree node failed verification (replayed counter).
    TreeMismatch {
        /// The offending data sector.
        addr: SectorAddr,
        /// Tree level at which verification failed (0 = leaf/counter).
        level: u32,
    },
    /// A node of the compact-counter BMT failed verification (tampered or
    /// rolled-back compact counter).
    CompactTreeMismatch {
        /// The offending data sector.
        addr: SectorAddr,
        /// Tree level at which verification failed (0 = leaf).
        level: u32,
    },
}

impl Violation {
    /// The data sector the violation was raised for.
    pub fn addr(&self) -> SectorAddr {
        match self {
            Violation::MacMismatch { addr }
            | Violation::ValueMismatch { addr }
            | Violation::TreeMismatch { addr, .. }
            | Violation::CompactTreeMismatch { addr, .. } => *addr,
        }
    }

    /// Which verification layer detected the violation.
    pub fn layer(&self) -> DetectionLayer {
        match self {
            Violation::MacMismatch { .. } => DetectionLayer::Mac,
            Violation::ValueMismatch { .. } => DetectionLayer::ValueVerification,
            Violation::TreeMismatch { level, .. } => DetectionLayer::Bmt { level: *level },
            Violation::CompactTreeMismatch { level, .. } => {
                DetectionLayer::CompactBmt { level: *level }
            }
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MacMismatch { addr } => write!(f, "MAC mismatch at {addr}"),
            Violation::ValueMismatch { addr } => {
                write!(f, "value-verification mismatch at {addr}")
            }
            Violation::TreeMismatch { addr, level } => {
                write!(f, "integrity-tree mismatch at {addr} (level {level})")
            }
            Violation::CompactTreeMismatch { addr, level } => {
                write!(f, "compact-tree mismatch at {addr} (level {level})")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Why a checkpoint/restore or metadata-recovery step could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// No checkpoint has been taken yet (enable checkpointing and run
    /// past at least one boundary first).
    NoCheckpoint,
    /// The active engine does not implement the recovery surface.
    Unsupported {
        /// Name of the engine that lacks support.
        engine: &'static str,
    },
    /// Phoenix-style counter reconstruction found no candidate counter
    /// consistent with the sector's persistent MAC (or pinned values).
    CounterUnrecoverable {
        /// Raw address of the unrecoverable sector.
        addr: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoCheckpoint => f.write_str("no metadata checkpoint available"),
            RecoveryError::Unsupported { engine } => {
                write!(f, "engine '{engine}' does not support checkpoint/recovery")
            }
            RecoveryError::CounterUnrecoverable { addr } => {
                write!(f, "no counter consistent with MAC at {addr:#x}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Tally of one Phoenix-style metadata-recovery pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sectors whose checkpointed counter already matched the MAC.
    pub already_consistent: u64,
    /// Sectors whose counter was reconstructed by probing candidate
    /// values against the persistent MAC.
    pub recovered_by_mac: u64,
    /// Sectors recovered through the pinned-value screen (Plutus
    /// skip-MAC writes leave the MAC stale; the persistent pinned set
    /// re-authenticates them and the MAC is then repaired).
    pub recovered_by_value: u64,
    /// Raw addresses of sectors no candidate counter could explain.
    pub failed: Vec<u64>,
}

impl RecoveryReport {
    /// Folds another partition's report into this one.
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.already_consistent += other.already_consistent;
        self.recovered_by_mac += other.recovered_by_mac;
        self.recovered_by_value += other.recovered_by_value;
        self.failed.extend_from_slice(&other.failed);
    }

    /// Sectors examined by the pass.
    pub fn total(&self) -> u64 {
        self.already_consistent
            + self.recovered_by_mac
            + self.recovered_by_value
            + self.failed.len() as u64
    }
}

/// A fault a [`crate::FaultSchedule`] asks the owning engine to apply to
/// its *metadata* structures mid-run (data-sector faults go straight to
/// the [`BackingMemory`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaFault {
    /// Roll the sector's encryption counter (minor part) back to `value`.
    RollbackCounter {
        /// Minor-counter value to roll back to.
        value: u8,
    },
    /// Corrupt the sector's stored MAC tag.
    TamperMac,
    /// Roll the sector's compact counter back to `value`.
    RollbackCompact {
        /// Compact-counter value to roll back to.
        value: u8,
    },
    /// Corrupt the BMT node (leaf record) covering the sector's counter.
    TamperBmtNode,
}

impl MetaFault {
    /// Stable short label used in campaign reports.
    pub fn label(&self) -> &'static str {
        match self {
            MetaFault::RollbackCounter { .. } => "rollback_counter",
            MetaFault::TamperMac => "tamper_mac",
            MetaFault::RollbackCompact { .. } => "rollback_compact",
            MetaFault::TamperBmtNode => "tamper_bmt_node",
        }
    }
}

/// Timing plan for serving one L2 read miss.
///
/// The simulator books it in `Simulator::book_plan` (`sim.rs`), whose
/// doc states the booking rule. In short:
///
/// ```text
/// t_data  = completion of the 32 B data-sector read (issued by the simulator)
/// t_meta  = latest completion of the pre_chains reads
/// t_ready = max(t_data, t_meta) + crypto_latency
///           + one unloaded DRAM round trip per post_chain read + post_latency
/// ```
///
/// A post-chain read's bandwidth is booked at the fill's start, not
/// after decryption; its dependence shows only as the added round trip.
/// Nothing waits on `async_reads` or the metadata writebacks in
/// `writes`; they consume bandwidth only.
#[derive(Debug, Clone, Default)]
pub struct FillPlan {
    /// Parallel chains of *sequential* metadata reads required before the
    /// data can be verified (e.g. counter → BMT level 1 → BMT level 2).
    pub pre_chains: Vec<Vec<DramReq>>,
    /// Latency charged once data and `pre_chains` complete (decryption).
    pub crypto_latency: u64,
    /// Reads issued only after decryption — Plutus's deferred MAC fetch.
    pub post_chain: Vec<DramReq>,
    /// Latency charged after `post_chain` (MAC verification).
    pub post_latency: u64,
    /// Reads nothing waits on (e.g. lazy-update fetches of integrity-tree
    /// nodes being propagated); they consume bandwidth only.
    pub async_reads: Vec<DramReq>,
    /// Asynchronous metadata writebacks (dirty metadata-cache evictions).
    pub writes: Vec<DramReq>,
    /// Decrypted sector contents delivered to the core.
    pub plaintext: [u8; 32],
    /// Set when verification failed (tampered/replayed memory).
    pub violation: Option<Violation>,
    /// True when the sector was accepted by value verification alone
    /// (no MAC fetched). Campaigns use this to classify an undetected
    /// tampered fill as a forgery acceptance of the fast path (Eq. 1).
    pub verified_by_value: bool,
}

/// Timing plan for one dirty-sector writeback, booked like a
/// [`FillPlan`] without a post chain; the simulator's 32 B data write
/// books after `async_reads`.
#[derive(Debug, Clone, Default)]
pub struct WritePlan {
    /// Parallel chains of sequential metadata reads needed to perform the
    /// write (e.g. counter fetch for read-modify-write on a miss).
    pub pre_chains: Vec<Vec<DramReq>>,
    /// Crypto latency (encryption + MAC generation).
    pub crypto_latency: u64,
    /// Reads nothing waits on (lazy-update and overflow re-encryption
    /// fetches); they consume bandwidth only.
    pub async_reads: Vec<DramReq>,
    /// Metadata writes (counter/MAC/BMT blocks); the 32 B data write itself
    /// is issued by the simulator.
    pub writes: Vec<DramReq>,
    /// Set when a metadata fetch performed for this write failed to verify.
    pub violation: Option<Violation>,
}

/// A pluggable memory-security scheme, one instance per memory partition.
pub trait SecurityEngine {
    /// Engine name used in reports (e.g. `"pssm"`, `"plutus"`).
    fn name(&self) -> &'static str;

    /// Installs one sector of the initial (pre-kernel) memory image,
    /// encrypting it with its current counter and establishing whatever
    /// metadata the scheme needs. Must not generate timing.
    fn install(&mut self, addr: SectorAddr, plaintext: &[u8; 32], mem: &mut BackingMemory);

    /// Installs a run of initial-image sectors with the effect of one
    /// [`SecurityEngine::install`] per sector in order, so a repeated
    /// address ends with its last contents. Engines override it to batch
    /// the crypto; the default loops `install`.
    fn install_image(&mut self, image: &[(SectorAddr, [u8; 32])], mem: &mut BackingMemory) {
        for (addr, plaintext) in image {
            self.install(*addr, plaintext, mem);
        }
    }

    /// Serves an L2 read miss of `addr`: decrypt + verify, returning the
    /// timing plan and plaintext.
    fn on_fill(&mut self, addr: SectorAddr, mem: &mut BackingMemory) -> FillPlan;

    /// Serves a dirty writeback of `addr` carrying `plaintext`: encrypt,
    /// update metadata, write ciphertext to `mem`, return the timing plan.
    fn on_writeback(
        &mut self,
        addr: SectorAddr,
        plaintext: &[u8; 32],
        mem: &mut BackingMemory,
    ) -> WritePlan;

    /// Engine-specific statistic counters folded into [`crate::stats::SimStats::engine`].
    fn extra_stats(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Hands the engine a telemetry handle so it can register metrics
    /// (value-cache hits, MAC fetches, BMT walk depths, …), emit run-level
    /// events such as degradation steps, and mark flight-recorder
    /// records. Called once per engine, right after construction and
    /// before any traffic.
    /// The default implementation ignores it.
    fn attach_telemetry(&mut self, _tel: &plutus_telemetry::Telemetry) {}

    /// Applies a mid-run metadata fault from a [`crate::FaultSchedule`]
    /// to the engine's functional structures (counters, MACs, BMT nodes,
    /// compact counters). Returns `true` only when the engine has such a
    /// structure *and* applying the fault changed its state — a rollback
    /// to the current value, or a fault against metadata the scheme does
    /// not keep, returns `false` so campaigns can count it as
    /// not-applied rather than an escape. Must not generate timing.
    fn inject_fault(&mut self, _addr: SectorAddr, _fault: MetaFault) -> bool {
        false
    }

    /// Clones the engine's full metadata state as an epoch checkpoint.
    /// Engines without checkpoint support return `None` (the default).
    fn checkpoint(&self) -> Option<Box<dyn SecurityEngine>> {
        None
    }

    /// Concrete-type escape hatch so [`SecurityEngine::crash_revert`]
    /// implementations can downcast the checkpoint handed back to them.
    /// Engines supporting recovery return `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Simulates a crash: replaces this engine's *volatile* metadata with
    /// `checkpoint`'s, keeping whatever state the scheme persists across
    /// power loss (write-through MACs, the pinned value set). Returns
    /// `false` when `checkpoint` is not a checkpoint of this engine type
    /// or the scheme has no recovery support.
    fn crash_revert(&mut self, _checkpoint: &dyn SecurityEngine) -> bool {
        false
    }

    /// Phoenix-style metadata reconstruction after a crash revert: for
    /// each resident sector, probe candidate counter values against the
    /// persistent MACs (and pinned values) and restore the metadata that
    /// was lost since the checkpoint. Must not generate timing.
    fn recover(
        &mut self,
        _mem: &BackingMemory,
        _sectors: &[SectorAddr],
    ) -> Result<RecoveryReport, RecoveryError> {
        Err(RecoveryError::Unsupported {
            engine: self.name(),
        })
    }

    /// Decrypts `addr` with the engine's *current* metadata without
    /// mutating any state or generating timing — the oracle crash audits
    /// compare reads against. `None` when the scheme cannot peek.
    fn peek_plaintext(&self, _addr: SectorAddr, _mem: &BackingMemory) -> Option<[u8; 32]> {
        None
    }

    /// Tells the engine one of its fills needed the retry path
    /// (`recovered` = the retry succeeded). Engines use this to drive
    /// graceful degradation after repeated failures; the default ignores
    /// it. Must not generate timing.
    fn note_fill_failure(&mut self, _addr: SectorAddr, _recovered: bool) {}

    /// Tells the engine which trace id the *next* `on_fill`/`on_writeback`
    /// call is attributed to, so engine-internal causal marks (value-cache
    /// vouches, skip-MAC screens, compact spills, degradations) land under
    /// the right root. [`plutus_telemetry::TraceId::NONE`] when the access
    /// is unsampled or tracing is off; the default ignores it.
    fn begin_access_trace(&mut self, _id: plutus_telemetry::TraceId) {}

    /// Starts a live key rotation for `tenant`: subsequent fills and
    /// writebacks interleave a bounded, cycle-charged re-encryption walk
    /// that moves the tenant's slab from its old data key to the next
    /// generation. Returns `false` when the engine has no tenancy/key
    /// table or the tenant is unknown (the default).
    fn start_key_rotation(&mut self, _tenant: u32) -> bool {
        false
    }

    /// True while a key-rotation walk started by
    /// [`SecurityEngine::start_key_rotation`] has not yet covered its
    /// whole range.
    fn rotation_active(&self) -> bool {
        false
    }
}

/// Builds one engine instance per partition.
///
/// Engines hold per-partition state (metadata caches, value caches), so the
/// simulator needs a fresh instance for each partition.
pub trait EngineFactory {
    /// Creates the engine for `partition`.
    fn build(&self, partition: usize) -> Box<dyn SecurityEngine>;

    /// Name of the scheme this factory builds.
    fn scheme_name(&self) -> &'static str;
}

impl<F> EngineFactory for F
where
    F: Fn(usize) -> Box<dyn SecurityEngine>,
{
    fn build(&self, partition: usize) -> Box<dyn SecurityEngine> {
        self(partition)
    }

    fn scheme_name(&self) -> &'static str {
        "custom"
    }
}

/// The no-security baseline: plaintext storage, no metadata, no latency.
///
/// Every paper figure normalizes against this engine.
#[derive(Debug, Default, Clone)]
pub struct NoSecurityEngine;

impl NoSecurityEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        Self
    }

    /// Factory for use with the simulator.
    pub fn factory() -> impl EngineFactory {
        |_p: usize| Box::new(NoSecurityEngine) as Box<dyn SecurityEngine>
    }
}

impl SecurityEngine for NoSecurityEngine {
    fn name(&self) -> &'static str {
        "none"
    }

    fn install(&mut self, addr: SectorAddr, plaintext: &[u8; 32], mem: &mut BackingMemory) {
        mem.write(addr, *plaintext);
    }

    fn on_fill(&mut self, addr: SectorAddr, mem: &mut BackingMemory) -> FillPlan {
        FillPlan {
            plaintext: mem.read(addr).unwrap_or([0; 32]),
            ..FillPlan::default()
        }
    }

    fn on_writeback(
        &mut self,
        addr: SectorAddr,
        plaintext: &[u8; 32],
        mem: &mut BackingMemory,
    ) -> WritePlan {
        mem.write(addr, *plaintext);
        WritePlan::default()
    }

    fn checkpoint(&self) -> Option<Box<dyn SecurityEngine>> {
        Some(Box::new(self.clone()))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn crash_revert(&mut self, checkpoint: &dyn SecurityEngine) -> bool {
        // Stateless: reverting is a no-op, but the checkpoint must at
        // least be of the right engine type.
        checkpoint
            .as_any()
            .is_some_and(|a| a.is::<NoSecurityEngine>())
    }

    fn recover(
        &mut self,
        _mem: &BackingMemory,
        _sectors: &[SectorAddr],
    ) -> Result<RecoveryReport, RecoveryError> {
        Ok(RecoveryReport::default())
    }

    fn peek_plaintext(&self, addr: SectorAddr, mem: &BackingMemory) -> Option<[u8; 32]> {
        Some(mem.read(addr).unwrap_or([0; 32]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_security_roundtrip() {
        let mut e = NoSecurityEngine::new();
        let mut mem = BackingMemory::new();
        let a = SectorAddr::new(0x100);
        let wp = e.on_writeback(a, &[5; 32], &mut mem);
        assert!(wp.writes.is_empty());
        assert_eq!(wp.crypto_latency, 0);
        let fp = e.on_fill(a, &mut mem);
        assert_eq!(fp.plaintext, [5; 32]);
        assert!(fp.pre_chains.is_empty());
        assert!(fp.violation.is_none());
    }

    #[test]
    fn no_security_unwritten_reads_zero() {
        let mut e = NoSecurityEngine::new();
        let mut mem = BackingMemory::new();
        let fp = e.on_fill(SectorAddr::new(0), &mut mem);
        assert_eq!(fp.plaintext, [0; 32]);
    }

    #[test]
    fn install_writes_plaintext() {
        let mut e = NoSecurityEngine::new();
        let mut mem = BackingMemory::new();
        e.install(SectorAddr::new(0x40), &[3; 32], &mut mem);
        assert_eq!(mem.read(SectorAddr::new(0x40)), Some([3; 32]));
    }

    #[test]
    fn factory_builds_engines() {
        let f = NoSecurityEngine::factory();
        let e = f.build(3);
        assert_eq!(e.name(), "none");
    }

    #[test]
    fn violation_display() {
        let v = Violation::MacMismatch {
            addr: SectorAddr::new(0x40),
        };
        assert!(v.to_string().contains("0x40"));
        let v = Violation::TreeMismatch {
            addr: SectorAddr::new(0x40),
            level: 2,
        };
        assert!(v.to_string().contains("level 2"));
    }

    #[test]
    fn violation_and_recovery_errors_are_std_errors() {
        let v: Box<dyn std::error::Error> = Box::new(Violation::MacMismatch {
            addr: SectorAddr::new(0x40),
        });
        assert!(v.to_string().contains("MAC"));
        let e: Box<dyn std::error::Error> = Box::new(RecoveryError::NoCheckpoint);
        assert!(e.to_string().contains("checkpoint"));
        assert!(RecoveryError::CounterUnrecoverable { addr: 0x40 }
            .to_string()
            .contains("0x40"));
    }

    #[test]
    fn no_security_checkpoint_revert_recover_roundtrip() {
        let mut e = NoSecurityEngine::new();
        let mut mem = BackingMemory::new();
        let a = SectorAddr::new(0x40);
        e.install(a, &[3; 32], &mut mem);
        let ck = e.checkpoint().expect("checkpoint supported");
        assert!(e.crash_revert(ck.as_ref()));
        let report = e.recover(&mem, &[a]).unwrap();
        assert_eq!(report.total(), 0);
        assert_eq!(e.peek_plaintext(a, &mem), Some([3; 32]));
        assert_eq!(e.peek_plaintext(SectorAddr::new(0x80), &mem), Some([0; 32]));
    }

    #[test]
    fn recovery_report_merges() {
        let mut a = RecoveryReport {
            already_consistent: 1,
            recovered_by_mac: 2,
            recovered_by_value: 0,
            failed: vec![0x40],
        };
        let b = RecoveryReport {
            already_consistent: 1,
            recovered_by_mac: 0,
            recovered_by_value: 3,
            failed: vec![],
        };
        a.merge(&b);
        assert_eq!(a.total(), 8);
        assert_eq!(a.failed, vec![0x40]);
    }
}
