//! Traffic and performance statistics.
//!
//! Everything the paper's figures plot comes from these counters: IPC
//! (Figs. 6, 15–18, 20–21), per-class DRAM traffic (Figs. 7, 19), request
//! mix (Fig. 10), and the DRAM-energy proxy behind the power figure
//! (Fig. 22).

use crate::dram::BankStat;
use crate::ledger::{PartitionLedger, StallBucket, NUM_STALL_BUCKETS};
use crate::security::DetectionLayer;
use crate::tenant::TenantStat;

/// Classification of DRAM traffic, matching the paper's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Application data sectors.
    Data,
    /// Encryption counter blocks (the original split counters).
    Counter,
    /// Per-sector MACs.
    Mac,
    /// Bonsai Merkle Tree nodes over the original counters.
    BmtNode,
    /// Plutus compact mirrored counter blocks.
    CompactCounter,
    /// Nodes of the small BMT protecting the compact counters.
    CompactBmt,
}

impl TrafficClass {
    /// All classes, in display order.
    pub const ALL: [TrafficClass; 6] = [
        TrafficClass::Data,
        TrafficClass::Counter,
        TrafficClass::Mac,
        TrafficClass::BmtNode,
        TrafficClass::CompactCounter,
        TrafficClass::CompactBmt,
    ];

    /// Index into per-class arrays.
    pub fn idx(self) -> usize {
        match self {
            TrafficClass::Data => 0,
            TrafficClass::Counter => 1,
            TrafficClass::Mac => 2,
            TrafficClass::BmtNode => 3,
            TrafficClass::CompactCounter => 4,
            TrafficClass::CompactBmt => 5,
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Data => "data",
            TrafficClass::Counter => "counter",
            TrafficClass::Mac => "mac",
            TrafficClass::BmtNode => "bmt",
            TrafficClass::CompactCounter => "compact_ctr",
            TrafficClass::CompactBmt => "compact_bmt",
        }
    }

    /// True for classes that are security metadata rather than data.
    pub fn is_metadata(self) -> bool {
        !matches!(self, TrafficClass::Data)
    }
}

impl std::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Byte/request counters for one traffic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTraffic {
    /// Bytes read from DRAM.
    pub read_bytes: u64,
    /// Bytes written to DRAM.
    pub write_bytes: u64,
    /// Read requests.
    pub read_reqs: u64,
    /// Write requests.
    pub write_reqs: u64,
}

impl ClassTraffic {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// One detected integrity violation, with where and when it was caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolationRecord {
    /// Cycle at which the offending request arrived at the controller.
    pub cycle: u64,
    /// Raw address of the offending data sector.
    pub addr: u64,
    /// Tenant owning the offending address (0 without a tenant map).
    pub tenant: u32,
    /// Verification layer that caught the violation.
    pub layer: DetectionLayer,
    /// Cycles from the request's arrival to verified rejection (the
    /// fill's verification latency; 0 for writeback-path detections,
    /// which nothing waits on).
    pub latency: u64,
}

/// How one scheduled fault resolved by the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Verification caught the fault.
    Detected {
        /// Layer that raised the violation.
        layer: DetectionLayer,
        /// Cycles from injection to detection.
        latency: u64,
    },
    /// The faulted sector was served to the core with no violation.
    Escaped {
        /// True when the sector was accepted by the value-verification
        /// fast path alone — a forgery acceptance in Eq. 1's terms.
        value_verified: bool,
    },
    /// The faulted state was overwritten (writeback) before any
    /// verification saw it.
    Clobbered,
    /// The faulted sector was never verified again before the run ended.
    Unobserved,
    /// The fault could not be applied (target not resident, metadata the
    /// scheme does not keep, or a rollback to the current value).
    NotApplied,
}

/// The full life of one scheduled fault: what was injected, when, and how
/// it resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Raw address of the targeted data sector.
    pub addr: u64,
    /// Tenant owning the targeted address (0 without a tenant map).
    pub tenant: u32,
    /// Stable label of the fault kind (see `FaultKind::label`).
    pub kind: &'static str,
    /// Cycle at which the fault was applied.
    pub injected_cycle: u64,
    /// How the fault resolved.
    pub outcome: FaultOutcome,
}

/// How one sampled transient (soft-error) fault resolved.
///
/// The crucial distinction against [`FaultOutcome`]: a transient fault
/// that is retried away is *recovered*, not an attack; only
/// [`TransientOutcome::Escalated`] means the controller misclassified a
/// soft error as tampering (the condition transient campaigns gate on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientOutcome {
    /// Verification tripped, and a bounded re-fetch then succeeded.
    Recovered {
        /// Number of retry attempts the recovery took.
        retries: u32,
    },
    /// Verification tripped and every allowed retry also failed, so the
    /// fill escalated to a recorded [`crate::Violation`].
    Escalated {
        /// Retry attempts charged before escalation.
        retries: u32,
    },
    /// The corrupted transfer was served without any verification layer
    /// noticing (silent data corruption; only possible when the active
    /// scheme does not cover the faulted structure).
    Undetected,
    /// The fault targeted state the engine does not keep (or a
    /// non-resident sector) and changed nothing.
    NotApplied,
}

/// One sampled transient fault: where it struck and how it resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientRecord {
    /// Raw address of the fill the fault struck.
    pub addr: u64,
    /// Stable label of the transient kind (see `TransientKind::label`).
    pub kind: &'static str,
    /// Cycle of the afflicted fill's arrival at the controller.
    pub cycle: u64,
    /// How the fault resolved.
    pub outcome: TransientOutcome,
}

/// DRAM-internal statistics aggregated across all partitions' channels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Requests that found their row open, all channels.
    pub row_hits: u64,
    /// Requests that paid a precharge+activate, all channels.
    pub row_misses: u64,
    /// Total cycles banks spent occupied by precharge+activate windows.
    pub bank_busy_cycles: u64,
    /// Deepest bus backlog observed on any single channel, in bytes.
    pub backlog_hwm_bytes: u64,
    /// Per-bank counters summed across partitions by bank index.
    pub per_bank: Vec<BankStat>,
}

/// Aggregated statistics for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles (time of the last retired event).
    pub cycles: u64,
    /// Instructions retired (from trace annotations).
    pub instructions: u64,
    /// Memory accesses completed.
    pub accesses: u64,
    /// Read accesses issued by the cores.
    pub read_accesses: u64,
    /// Write accesses issued by the cores.
    pub write_accesses: u64,
    /// L2 hits (sector present and not pending).
    pub l2_hits: u64,
    /// L2 misses that allocated an MSHR.
    pub l2_misses: u64,
    /// Accesses merged into an in-flight MSHR entry.
    pub mshr_merges: u64,
    /// Read misses queued because the MSHR file was full.
    pub mshr_stalls: u64,
    /// Per-class DRAM traffic, indexed by [`TrafficClass::idx`].
    pub traffic: [ClassTraffic; 6],
    /// Integrity violations detected (nonzero only under active attack).
    pub violations: u64,
    /// Per-violation records: detecting layer and detection latency.
    /// Accrues only under active attack (honest runs leave it empty).
    pub violation_records: Vec<ViolationRecord>,
    /// Resolution of every fault applied from a
    /// [`crate::FaultSchedule`], in deterministic order.
    pub fault_records: Vec<FaultRecord>,
    /// Transient faults sampled by the soft-error model (including
    /// not-applied samples).
    pub transients_injected: u64,
    /// Transient faults cleared by the bounded retry path.
    pub transients_recovered: u64,
    /// Transient faults that exhausted retries and escalated to a
    /// recorded violation (soft errors misclassified as attacks).
    pub transients_escalated: u64,
    /// Transient faults served without any verification layer noticing.
    pub transients_undetected: u64,
    /// Transient faults that could not change state.
    pub transients_not_applied: u64,
    /// Fill re-fetch attempts issued by the retry path.
    pub retries: u64,
    /// Extra cycles charged to retried fills (failed attempts + backoff).
    pub retry_cycles: u64,
    /// Metadata checkpoints taken during the run.
    pub checkpoints: u64,
    /// One record per sampled transient fault, in injection order.
    pub transient_records: Vec<TransientRecord>,
    /// Steady-state warm-up boundary in cycles (from
    /// [`crate::GpuConfig::warmup_cycles`]); 0 when the whole run is
    /// measured.
    pub warmup_cycles: u64,
    /// Instructions retired before the warm-up boundary, excluded from
    /// [`Self::steady_ipc`].
    pub warmup_instructions: u64,
    /// Cycles warps spent stalled by the store-buffer backpressure
    /// throttle (bus saturation pushing back on write issue).
    pub write_throttle_cycles: u64,
    /// Sum of fill latencies (ready − arrival), for average-latency
    /// diagnostics.
    pub fill_latency_sum: u64,
    /// Number of fills contributing to [`Self::fill_latency_sum`].
    pub fill_count: u64,
    /// Engine-specific counters (e.g. value-cache hits), name → count.
    pub engine: Vec<(String, u64)>,
    /// DRAM-internal counters: row locality, bank occupancy, and the bus
    /// backlog high-water mark.
    pub dram: DramStats,
    /// The closed cycle ledger, one [`PartitionLedger`] per partition —
    /// conservation-exact: each sums to [`SimStats::cycles`].
    pub ledgers: Vec<PartitionLedger>,
    /// Per-tenant progress and violation counters, sorted by tenant id.
    /// Empty when no tenant map was installed.
    pub tenants: Vec<TenantStat>,
}

impl SimStats {
    /// Records a DRAM transfer.
    pub fn record_traffic(&mut self, class: TrafficClass, bytes: u64, is_write: bool) {
        let t = &mut self.traffic[class.idx()];
        if is_write {
            t.write_bytes += bytes;
            t.write_reqs += 1;
        } else {
            t.read_bytes += bytes;
            t.read_reqs += 1;
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Steady-state instructions per cycle: retirement measured after
    /// the warm-up boundary, so the warp-pool launch ramp and cold-cache
    /// start do not dilute the bandwidth-bound regime the paper's
    /// figures study. Falls back to [`Self::ipc`] when no warm-up was
    /// configured or the run ended inside the warm-up window.
    pub fn steady_ipc(&self) -> f64 {
        if self.warmup_cycles == 0 || self.cycles <= self.warmup_cycles {
            return self.ipc();
        }
        (self.instructions - self.warmup_instructions) as f64
            / (self.cycles - self.warmup_cycles) as f64
    }

    /// Total DRAM bytes moved, all classes.
    pub fn total_bytes(&self) -> u64 {
        self.traffic.iter().map(ClassTraffic::total_bytes).sum()
    }

    /// Bytes of security metadata moved (everything but `Data`).
    pub fn metadata_bytes(&self) -> u64 {
        TrafficClass::ALL
            .iter()
            .filter(|c| c.is_metadata())
            .map(|c| self.traffic[c.idx()].total_bytes())
            .sum()
    }

    /// Bytes for one class.
    pub fn class_bytes(&self, class: TrafficClass) -> u64 {
        self.traffic[class.idx()].total_bytes()
    }

    /// Achieved DRAM bandwidth utilization against a theoretical peak,
    /// `bytes_per_cycle` aggregated over all partitions. Degenerate
    /// inputs (no cycles, or a non-positive/non-finite peak) return 0.0
    /// so empty or crashed runs can't push NaN/Inf into reports or
    /// `BENCH_*.json` snapshots.
    pub fn bandwidth_utilization(&self, peak_bytes_per_cycle: f64) -> f64 {
        if self.cycles == 0 || peak_bytes_per_cycle <= 0.0 || !peak_bytes_per_cycle.is_finite() {
            0.0
        } else {
            self.total_bytes() as f64 / (self.cycles as f64 * peak_bytes_per_cycle)
        }
    }

    /// Looks up an engine-specific counter by name.
    pub fn engine_counter(&self, name: &str) -> Option<u64> {
        self.engine.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up one tenant's progress counters.
    pub fn tenant_stat(&self, tenant: u32) -> Option<&TenantStat> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }

    /// DRAM energy proxy in picojoules: `pj_per_byte` × bytes moved.
    /// Used by the Fig. 22 power model.
    pub fn dram_energy_pj(&self, pj_per_byte: f64) -> f64 {
        self.total_bytes() as f64 * pj_per_byte
    }

    /// The run's CPI stack: per-bucket cycles summed across partitions,
    /// indexed by [`StallBucket::idx`]. Sums to
    /// `cycles × partitions` once the ledger is closed.
    pub fn cpi_stack(&self) -> [u64; NUM_STALL_BUCKETS] {
        let mut out = [0u64; NUM_STALL_BUCKETS];
        for led in &self.ledgers {
            for (o, b) in out.iter_mut().zip(led.buckets.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Cycles attributed to `bucket` across all partitions.
    pub fn ledger_cycles(&self, bucket: StallBucket) -> u64 {
        self.ledgers.iter().map(|l| l.get(bucket)).sum()
    }

    /// Conservation check: every partition's ledger sums exactly to
    /// [`SimStats::cycles`]. Vacuously true for stats with no ledger
    /// (hand-built defaults).
    pub fn ledger_conserved(&self) -> bool {
        self.ledgers.iter().all(|l| l.total() == self.cycles)
    }

    /// Average fill latency in cycles (arrival at the controller to
    /// verified data).
    pub fn avg_fill_latency(&self) -> f64 {
        if self.fill_count == 0 {
            0.0
        } else {
            self.fill_latency_sum as f64 / self.fill_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_denominators_yield_zero_not_nan() {
        // Empty/crashed runs must not leak NaN/Inf into reports.
        let empty = SimStats::default();
        assert_eq!(empty.avg_fill_latency(), 0.0);
        assert_eq!(empty.bandwidth_utilization(32.0), 0.0);

        let mut s = SimStats::default();
        s.record_traffic(TrafficClass::Data, 64, false);
        s.cycles = 100;
        assert_eq!(s.bandwidth_utilization(0.0), 0.0);
        assert_eq!(s.bandwidth_utilization(-4.0), 0.0);
        assert_eq!(s.bandwidth_utilization(f64::NAN), 0.0);
        assert_eq!(s.bandwidth_utilization(f64::INFINITY), 0.0);
        let util = s.bandwidth_utilization(32.0);
        assert!(util > 0.0 && util.is_finite());

        s.fill_latency_sum = 50;
        s.fill_count = 10;
        assert_eq!(s.avg_fill_latency(), 5.0);
    }

    #[test]
    fn traffic_classification() {
        let mut s = SimStats::default();
        s.record_traffic(TrafficClass::Data, 32, false);
        s.record_traffic(TrafficClass::Mac, 32, false);
        s.record_traffic(TrafficClass::Counter, 128, true);
        assert_eq!(s.total_bytes(), 192);
        assert_eq!(s.metadata_bytes(), 160);
        assert_eq!(s.class_bytes(TrafficClass::Mac), 32);
        assert_eq!(s.traffic[TrafficClass::Counter.idx()].write_reqs, 1);
    }

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn ipc_computation() {
        let s = SimStats {
            cycles: 100,
            instructions: 250,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn steady_ipc_excludes_warmup_window() {
        let mut s = SimStats {
            cycles: 1000,
            instructions: 1000,
            ..Default::default()
        };
        // No warm-up configured → whole-run IPC.
        assert!((s.steady_ipc() - s.ipc()).abs() < 1e-12);
        // 200 warm-up cycles retiring 50 instructions: steady window is
        // 950 instructions over 800 cycles.
        s.warmup_cycles = 200;
        s.warmup_instructions = 50;
        assert!((s.steady_ipc() - 950.0 / 800.0).abs() < 1e-12);
        // Run ended inside the warm-up window → fall back to full-run IPC.
        s.warmup_cycles = 2000;
        assert!((s.steady_ipc() - s.ipc()).abs() < 1e-12);
    }

    #[test]
    fn class_indices_are_unique_and_dense() {
        let mut seen = [false; 6];
        for c in TrafficClass::ALL {
            assert!(!seen[c.idx()], "duplicate idx for {c}");
            seen[c.idx()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bandwidth_utilization_bounds() {
        let mut s = SimStats {
            cycles: 10,
            ..Default::default()
        };
        s.record_traffic(TrafficClass::Data, 240, false);
        let u = s.bandwidth_utilization(24.0);
        assert!((u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cpi_stack_sums_partitions_and_checks_conservation() {
        let mut s = SimStats {
            cycles: 100,
            ..Default::default()
        };
        assert!(s.ledger_conserved(), "no ledger is vacuously conserved");
        let mut a = PartitionLedger::default();
        a.buckets[StallBucket::Issue.idx()] = 60;
        a.buckets[StallBucket::DataFill.idx()] = 40;
        let mut b = PartitionLedger::default();
        b.buckets[StallBucket::Issue.idx()] = 100;
        s.ledgers = vec![a, b];
        assert!(s.ledger_conserved());
        assert_eq!(s.ledger_cycles(StallBucket::Issue), 160);
        assert_eq!(s.cpi_stack().iter().sum::<u64>(), 200);
        s.ledgers[0].buckets[StallBucket::Issue.idx()] = 61;
        assert!(!s.ledger_conserved());
    }

    #[test]
    fn only_data_is_not_metadata() {
        for c in TrafficClass::ALL {
            assert_eq!(c.is_metadata(), c != TrafficClass::Data);
        }
    }
}
