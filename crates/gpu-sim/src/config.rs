//! Simulator configuration, defaulting to the paper's Table I Volta model.

/// Top-level GPU configuration (paper Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (informational; the warp pool
    /// abstracts cores).
    pub sm_count: usize,
    /// Core clock in MHz. All latencies and bandwidths are expressed in core
    /// cycles.
    pub core_clock_mhz: u64,
    /// Number of warps kept in flight by the warp-pool core model. Sized so
    /// that memory latency is fully hidden and bandwidth is the bottleneck,
    /// matching the memory-intensive regime the paper studies.
    pub warps: usize,
    /// Number of memory partitions, each with its own L2 slice, memory
    /// controller, DRAM channel, and security engine.
    pub partitions: usize,
    /// L2 banks per partition.
    pub l2_banks_per_partition: usize,
    /// Capacity of each L2 bank in bytes (Volta: 96 KiB × 2 banks × 32
    /// partitions = 6 MiB).
    pub l2_bank_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency in cycles.
    pub l2_hit_latency: u64,
    /// One-way core ↔ partition interconnect latency in cycles.
    pub interconnect_latency: u64,
    /// Data MSHRs per partition.
    pub mshrs_per_partition: usize,
    /// DRAM channel model parameters (per partition).
    pub dram: DramConfig,
    /// Flush dirty L2 lines through the security engine when the trace
    /// drains (off by default, mirroring end-of-kernel behavior).
    pub flush_l2_at_end: bool,
    /// Serialize dependent metadata fetches (counter → tree levels) as
    /// back-to-back DRAM round trips. Off by default: tree-node addresses
    /// are index-computable, so controllers issue the whole path in
    /// parallel and only the (pipelined) hash checks serialize.
    pub serial_metadata_chains: bool,
    /// Steady-state warm-up cutoff in cycles: instructions retired before
    /// this boundary are excluded from [`crate::SimStats::steady_ipc`], so
    /// measured IPC reflects the post-launch-ramp regime rather than the
    /// cold start. 0 (the default) measures the whole run.
    pub warmup_cycles: u64,
    /// Per-channel store-buffer depth in bytes: when a store's partition
    /// has more DRAM bus backlog than this, the issuing warp stalls until
    /// the excess drains — the feedback path that lets bus saturation
    /// throttle write traffic. `u64::MAX` disables the throttle.
    pub write_throttle_bytes: u64,
}

impl Default for GpuConfig {
    /// The paper's Table I configuration (NVIDIA Volta V100 class).
    fn default() -> Self {
        Self {
            sm_count: 80,
            core_clock_mhz: 1132,
            warps: 4096,
            partitions: 32,
            l2_banks_per_partition: 2,
            l2_bank_bytes: 96 * 1024,
            l2_ways: 16,
            l2_hit_latency: 32,
            interconnect_latency: 40,
            mshrs_per_partition: 256,
            dram: DramConfig::default(),
            flush_l2_at_end: false,
            serial_metadata_chains: false,
            warmup_cycles: 0,
            // 8 KiB ≈ 340 cycles of drain at 24 B/cycle: deep enough that
            // bursts pass untouched, shallow enough that a saturated
            // channel pushes back on the issuing warps.
            write_throttle_bytes: 8 * 1024,
        }
    }
}

impl GpuConfig {
    /// A reduced configuration for fast unit tests: 4 partitions, small L2,
    /// few warps. Keeps every mechanism active while letting tests run in
    /// milliseconds.
    pub fn test_small() -> Self {
        Self {
            sm_count: 4,
            warps: 32,
            partitions: 4,
            l2_banks_per_partition: 1,
            l2_bank_bytes: 16 * 1024,
            mshrs_per_partition: 32,
            ..Self::default()
        }
    }

    /// Total L2 capacity across the GPU in bytes.
    pub fn total_l2_bytes(&self) -> u64 {
        self.l2_bank_bytes * (self.l2_banks_per_partition * self.partitions) as u64
    }

    /// Aggregate DRAM bandwidth in GB/s implied by the DRAM model.
    pub fn total_dram_gbps(&self) -> f64 {
        self.dram.bytes_per_cycle * self.partitions as f64 * self.core_clock_mhz as f64 / 1000.0
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        if self.partitions == 0 {
            return Err("partitions must be > 0".into());
        }
        if self.warps == 0 {
            return Err("warps must be > 0".into());
        }
        if self.l2_banks_per_partition == 0 {
            return Err("l2_banks_per_partition must be > 0".into());
        }
        let line_bytes = crate::address::BLOCK_SIZE;
        let lines = self.l2_bank_bytes / line_bytes;
        if lines == 0 || !lines.is_multiple_of(self.l2_ways as u64) {
            return Err(format!(
                "l2_bank_bytes {} must hold a multiple of l2_ways {} lines",
                self.l2_bank_bytes, self.l2_ways
            ));
        }
        if self.mshrs_per_partition == 0 {
            return Err("mshrs_per_partition must be > 0".into());
        }
        self.dram.validate()
    }
}

/// DRAM channel model parameters (one channel per partition).
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Effective data-bus bandwidth per partition in bytes per core cycle.
    /// Default: 868 GB/s ÷ 32 partitions at 1132 MHz ≈ 24 B/cycle.
    pub bytes_per_cycle: f64,
    /// Banks per channel.
    pub banks: usize,
    /// Row-buffer size in bytes (contiguous addresses sharing an open row).
    pub row_bytes: u64,
    /// Column access latency in core cycles (row hit).
    pub t_cas: u64,
    /// Row activate latency in core cycles.
    pub t_rcd: u64,
    /// Precharge latency in core cycles.
    pub t_rp: u64,
}

impl Default for DramConfig {
    /// HBM2-class channel: with 4 bank groups × 4 banks per pseudo-channel
    /// and 2 pseudo-channels, ~32 banks are concurrently schedulable per
    /// partition. For random 32 B traffic the two limits nearly coincide:
    /// 32 banks ÷ a 40-cycle activation (`t_rp + t_rcd`) allow 0.8
    /// activations per cycle, and the 24 B/cycle bus moves 0.75 bursts
    /// per cycle. Measured, scattered workloads are activation-bound
    /// (no-security bfs: 70.7% of cycles in `bank_conflict`, 0% in
    /// `bus_backlog`) and streaming ones mixed (stencil: 20.3% and
    /// 42.9%); DESIGN.md lists the regime of each workload.
    fn default() -> Self {
        Self {
            bytes_per_cycle: 24.0,
            banks: 32,
            row_bytes: 2048,
            t_cas: 20,
            t_rcd: 20,
            t_rp: 20,
        }
    }
}

impl DramConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistent field.
    pub fn validate(&self) -> Result<(), String> {
        if self.bytes_per_cycle <= 0.0 {
            return Err("dram.bytes_per_cycle must be positive".into());
        }
        if self.banks == 0 || !self.banks.is_power_of_two() {
            return Err("dram.banks must be a positive power of two".into());
        }
        if self.row_bytes < crate::address::SECTOR_SIZE || !self.row_bytes.is_power_of_two() {
            return Err("dram.row_bytes must be a power of two ≥ 32".into());
        }
        Ok(())
    }
}

/// Security-engine latency parameters shared by all engines (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityLatencies {
    /// AES encryption/decryption pipeline latency in cycles.
    pub aes_latency: u64,
    /// MAC computation/verification latency in cycles.
    pub mac_latency: u64,
}

impl Default for SecurityLatencies {
    fn default() -> Self {
        Self {
            aes_latency: 40,
            mac_latency: 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = GpuConfig::default();
        assert_eq!(c.sm_count, 80);
        assert_eq!(c.partitions, 32);
        assert_eq!(c.total_l2_bytes(), 6 * 1024 * 1024);
        // 24 B/cycle × 32 partitions × 1.132 GHz ≈ 869 GB/s (Table I: 868).
        let bw = c.total_dram_gbps();
        assert!(
            (bw - 868.0).abs() < 5.0,
            "bandwidth {bw} too far from Table I"
        );
        c.validate().unwrap();
    }

    #[test]
    fn test_small_is_valid() {
        GpuConfig::test_small().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = GpuConfig {
            partitions: 0,
            ..GpuConfig::default()
        };
        assert!(c.validate().is_err());

        // Not a whole number of lines.
        let c = GpuConfig {
            l2_bank_bytes: 100,
            ..GpuConfig::default()
        };
        assert!(c.validate().is_err());

        let mut c = GpuConfig::default();
        c.dram.banks = 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn security_latencies_default_matches_table2() {
        let l = SecurityLatencies::default();
        assert_eq!(l.mac_latency, 40);
        assert_eq!(l.aes_latency, 40);
    }
}
