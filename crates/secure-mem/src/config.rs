//! Secure-memory configuration: metadata sizes, fetch granularities,
//! cipher selection, and cache geometry (paper Table II plus the Fig. 14
//! design space).

use crate::tenant::TenancyConfig;
use gpu_sim::SecurityLatencies;

/// Encryption-counter organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterOrg {
    /// Sectored split counters (paper Fig. 4 / Yan et al.): a 32 B counter
    /// sector holds one shared 32-bit major plus 32 seven-bit minors,
    /// covering 1 KiB of data. The state of the art; dense but pays group
    /// re-encryption on minor overflow.
    SplitSectored,
    /// SGX-style monolithic counters: one 64-bit counter per 32 B sector,
    /// so a counter sector covers only 128 B of data — 8× more counter
    /// traffic, no overflow handling. Kept as the Section II comparison
    /// point.
    Monolithic,
}

impl CounterOrg {
    /// Data sectors covered by one 32 B counter sector.
    pub fn sectors_per_group(self) -> u64 {
        match self {
            CounterOrg::SplitSectored => 32,
            CounterOrg::Monolithic => 4,
        }
    }

    /// Bytes one counter group serializes to for BMT leaf hashing: the
    /// 4-byte major plus 32 minor bytes (split), or four 8-byte counters
    /// (monolithic).
    pub fn group_bytes(self) -> usize {
        match self {
            CounterOrg::SplitSectored => 4 + 32,
            CounterOrg::Monolithic => 4 * 8,
        }
    }
}

/// Data-path encryption mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CipherKind {
    /// Counter-mode encryption (PSSM baseline). Pad generation overlaps the
    /// data fetch, but tampering is bit-localized (malleable).
    Cme,
    /// AES-XTS (Plutus). Decryption serializes after the data fetch, but
    /// tampering diffuses across the whole 16-byte cipher block.
    Xts,
}

/// Configuration shared by every secure-memory engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SecureMemConfig {
    /// Size of the protected data region in bytes (metadata regions are
    /// laid out above it).
    pub protected_bytes: u64,
    /// MAC size per 32 B data sector (PSSM: 4, Plutus baseline: 8).
    pub mac_bytes: u32,
    /// Counter fetch granularity — also the BMT leaf size (128 in the
    /// PSSM/B128 design, 32 in the fine-grain designs).
    pub ctr_fetch_bytes: u32,
    /// MAC fetch granularity (32 under sectored MAC caches).
    pub mac_fetch_bytes: u32,
    /// BMT node size: 128 → 16-ary tree, 32 → 4-ary tree.
    pub bmt_node_bytes: u32,
    /// Capacity of each metadata cache (counter / MAC / BMT), per
    /// partition. Paper Table II: 2 KiB each.
    pub meta_cache_bytes: u64,
    /// Metadata cache associativity.
    pub meta_cache_ways: usize,
    /// Crypto pipeline latencies.
    pub latencies: SecurityLatencies,
    /// Data-path cipher.
    pub cipher: CipherKind,
    /// Encryption-counter organization.
    pub counter_org: CounterOrg,
    /// Eliminate all integrity-tree traffic (models MGX/TNPU-style schemes
    /// for the paper's Fig. 20; counters are still fetched and MACs still
    /// verified).
    pub disable_tree: bool,
    /// Memory partitions sharing the protected region. Following PSSM,
    /// *each partition builds its own BMT over its local counter blocks*,
    /// so tree geometry (levels, node counts) is computed for a
    /// 1/`partitions` share of the leaves.
    pub partitions: usize,
    /// Multi-tenant operation: per-tenant key tables, live key rotation
    /// and overflow-storm backpressure. `None` (the default) keeps the
    /// single-key behaviour below.
    pub tenancy: Option<TenancyConfig>,
    /// AES data key.
    pub data_key: [u8; 16],
    /// AES tweak key (XTS) / pad key (CME).
    pub tweak_key: [u8; 16],
    /// MAC key.
    pub mac_key: [u8; 16],
    /// BMT hashing key.
    pub bmt_key: [u8; 16],
}

impl Default for SecureMemConfig {
    /// The paper's baseline: PSSM organization with an 8-byte MAC
    /// (Section II-B), 128 B metadata blocks, 16-ary BMT, CME.
    fn default() -> Self {
        Self {
            protected_bytes: 4 << 30,
            mac_bytes: 8,
            ctr_fetch_bytes: 128,
            mac_fetch_bytes: 32,
            bmt_node_bytes: 128,
            meta_cache_bytes: 2048,
            meta_cache_ways: 4,
            latencies: SecurityLatencies::default(),
            cipher: CipherKind::Cme,
            counter_org: CounterOrg::SplitSectored,
            disable_tree: false,
            partitions: 32,
            tenancy: None,
            data_key: [0x3c; 16],
            tweak_key: [0x5a; 16],
            mac_key: [0x96; 16],
            bmt_key: [0xc3; 16],
        }
    }
}

impl SecureMemConfig {
    /// The PSSM baseline configuration.
    pub fn pssm() -> Self {
        Self::default()
    }

    /// PSSM with the original 4-byte truncated MAC.
    pub fn pssm_mac4() -> Self {
        Self {
            mac_bytes: 4,
            ..Self::default()
        }
    }

    /// PSSM with SGX-style monolithic counters (Section II comparison:
    /// one 64-bit counter per sector, 8× the counter footprint).
    pub fn pssm_monolithic() -> Self {
        Self {
            counter_org: CounterOrg::Monolithic,
            ..Self::default()
        }
    }

    /// Fig. 14 design ②: 32 B counter/MAC blocks, 128 B BMT nodes.
    pub fn fine_leaf_coarse_tree() -> Self {
        Self {
            ctr_fetch_bytes: 32,
            mac_fetch_bytes: 32,
            bmt_node_bytes: 128,
            ..Self::default()
        }
    }

    /// Fig. 14 design ③ (Plutus's choice): all metadata in 32 B blocks.
    pub fn all_32() -> Self {
        Self {
            ctr_fetch_bytes: 32,
            mac_fetch_bytes: 32,
            bmt_node_bytes: 32,
            ..Self::default()
        }
    }

    /// Small protected region for fast unit tests (1 MiB, single
    /// partition so tree depths are deterministic in tests).
    pub fn test_small() -> Self {
        Self {
            protected_bytes: 1 << 20,
            partitions: 1,
            ..Self::default()
        }
    }

    /// Line size of the counter cache implied by the fetch granularity:
    /// 128 B sectored lines for coarse fetches, 32 B lines for fine.
    pub fn ctr_cache_line(&self) -> u64 {
        u64::from(self.ctr_fetch_bytes.max(32))
    }

    /// Line size of the MAC cache: sectored 128 B lines when MACs are
    /// fetched at 32 B within 128 B blocks (PSSM), 32 B lines in the
    /// all-32 design.
    pub fn mac_cache_line(&self) -> u64 {
        if self.bmt_node_bytes >= 128 && self.ctr_fetch_bytes >= 128 {
            128
        } else {
            u64::from(self.mac_fetch_bytes.max(32))
        }
    }

    /// Line size of the BMT node cache.
    pub fn bmt_cache_line(&self) -> u64 {
        u64::from(self.bmt_node_bytes.max(32))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !matches!(self.mac_bytes, 4 | 8 | 16) {
            return Err(format!(
                "mac_bytes must be 4, 8 or 16, got {}",
                self.mac_bytes
            ));
        }
        if !matches!(self.ctr_fetch_bytes, 32 | 128) {
            return Err(format!(
                "ctr_fetch_bytes must be 32 or 128, got {}",
                self.ctr_fetch_bytes
            ));
        }
        if !matches!(self.mac_fetch_bytes, 32 | 128) {
            return Err(format!(
                "mac_fetch_bytes must be 32 or 128, got {}",
                self.mac_fetch_bytes
            ));
        }
        if !matches!(self.bmt_node_bytes, 32 | 128) {
            return Err(format!(
                "bmt_node_bytes must be 32 or 128, got {}",
                self.bmt_node_bytes
            ));
        }
        if self.protected_bytes < (1 << 16) || !self.protected_bytes.is_multiple_of(4096) {
            return Err("protected_bytes must be ≥ 64 KiB and 4 KiB-aligned".into());
        }
        if self.meta_cache_bytes < 256 {
            return Err("meta_cache_bytes must be ≥ 256".into());
        }
        if self.partitions == 0 {
            return Err("partitions must be > 0".into());
        }
        if let Some(t) = &self.tenancy {
            if t.rotation_sectors_per_step == 0 {
                return Err("tenancy.rotation_sectors_per_step must be > 0".into());
            }
            if t.storm_window == 0 || t.storm_drain == 0 {
                return Err("tenancy.storm_window and storm_drain must be > 0".into());
            }
            for &(start, end, tenant) in t.map.ranges() {
                // 4 KiB slab alignment keeps counter groups (1 KiB) and
                // 128 B metadata fetch units from spanning tenants.
                if !start.is_multiple_of(4096) || !end.is_multiple_of(4096) {
                    return Err(format!(
                        "tenant {tenant} slab [{start:#x}, {end:#x}) is not 4 KiB-aligned"
                    ));
                }
                if end > self.protected_bytes {
                    return Err(format!(
                        "tenant {tenant} slab end {end:#x} exceeds protected_bytes"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            SecureMemConfig::pssm(),
            SecureMemConfig::pssm_mac4(),
            SecureMemConfig::fine_leaf_coarse_tree(),
            SecureMemConfig::all_32(),
            SecureMemConfig::test_small(),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn pssm_matches_paper_baseline() {
        let c = SecureMemConfig::pssm();
        assert_eq!(c.mac_bytes, 8);
        assert_eq!(c.ctr_fetch_bytes, 128);
        assert_eq!(c.meta_cache_bytes, 2048);
        assert_eq!(c.cipher, CipherKind::Cme);
    }

    #[test]
    fn cache_lines_follow_granularity() {
        assert_eq!(SecureMemConfig::pssm().ctr_cache_line(), 128);
        assert_eq!(SecureMemConfig::pssm().mac_cache_line(), 128);
        assert_eq!(SecureMemConfig::all_32().ctr_cache_line(), 32);
        assert_eq!(SecureMemConfig::all_32().mac_cache_line(), 32);
        assert_eq!(SecureMemConfig::all_32().bmt_cache_line(), 32);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let c = SecureMemConfig {
            mac_bytes: 3,
            ..SecureMemConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SecureMemConfig {
            ctr_fetch_bytes: 64,
            ..SecureMemConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SecureMemConfig {
            protected_bytes: 100,
            ..SecureMemConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
