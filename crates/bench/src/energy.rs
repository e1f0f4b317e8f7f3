//! The power model behind the paper's Fig. 22.
//!
//! The paper reports *average power normalized to a no-security system*.
//! Security changes two things: more DRAM bytes move per unit time, and
//! crypto engines burn energy per operation. We model GPU power as a
//! constant core component plus a traffic-proportional DRAM component plus
//! crypto-engine energy:
//!
//! ```text
//! P(run) = P_core + e_dram × bytes/cycle + (e_aes × aes_ops + e_mac × mac_ops)/cycle
//! ```
//!
//! Constants are chosen so DRAM at full Table-I bandwidth accounts for
//! ~40% of baseline board power — the published V100 breakdown
//! neighborhood — and are exposed for sensitivity studies.

use crate::runner::Measurement;

/// Energy-model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Constant core/SM power in arbitrary units.
    pub core_power: f64,
    /// DRAM energy per byte (same units × cycles).
    pub e_dram_per_byte: f64,
    /// AES engine energy per crypto operation.
    pub e_aes_op: f64,
    /// MAC engine energy per operation.
    pub e_mac_op: f64,
    /// Peak DRAM bytes per cycle (whole GPU) used to calibrate shares.
    pub peak_bytes_per_cycle: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // Calibration: at peak bandwidth (768 B/cycle for Table I), the
        // DRAM component equals 2/3 of the core component → DRAM is 40% of
        // total baseline power.
        let peak = 768.0;
        let core_power = 60.0;
        let e_dram_per_byte = (core_power * 2.0 / 3.0) / peak;
        Self {
            core_power,
            e_dram_per_byte,
            e_aes_op: 0.02,
            e_mac_op: 0.02,
            peak_bytes_per_cycle: peak,
        }
    }
}

impl EnergyModel {
    /// Average power of one measured run.
    pub fn power(&self, m: &Measurement) -> f64 {
        if m.cycles == 0 {
            return self.core_power;
        }
        let bpc = m.total_bytes as f64 / m.cycles as f64;
        let crypto_ops: u64 = m
            .engine_stats
            .iter()
            .filter(|(n, _)| n == "fills" || n == "writebacks")
            .map(|(_, v)| *v)
            .sum();
        let crypto_power = (crypto_ops as f64 * (self.e_aes_op + self.e_mac_op)) / m.cycles as f64;
        self.core_power + self.e_dram_per_byte * bpc + crypto_power
    }

    /// Power of `scheme_run` normalized to `baseline_run` (Fig. 22's
    /// y-axis).
    pub fn normalized_power(&self, scheme_run: &Measurement, baseline_run: &Measurement) -> f64 {
        self.power(scheme_run) / self.power(baseline_run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(cycles: u64, bytes: u64, ops: u64) -> Measurement {
        Measurement {
            workload: "w".into(),
            scheme: "s".into(),
            ipc: 1.0,
            norm_ipc: 1.0,
            cycles,
            total_bytes: bytes,
            engine_stats: vec![("fills".into(), ops)],
            ..Measurement::default()
        }
    }

    #[test]
    fn more_traffic_means_more_power() {
        let m = EnergyModel::default();
        let lo = meas(1000, 10_000, 0);
        let hi = meas(1000, 50_000, 0);
        assert!(m.power(&hi) > m.power(&lo));
    }

    #[test]
    fn normalized_power_of_identical_runs_is_one() {
        let m = EnergyModel::default();
        let a = meas(1000, 10_000, 0);
        assert!((m.normalized_power(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crypto_ops_add_power() {
        let m = EnergyModel::default();
        let without = meas(1000, 10_000, 0);
        let with = meas(1000, 10_000, 500);
        assert!(m.power(&with) > m.power(&without));
    }

    #[test]
    fn dram_share_calibration() {
        let m = EnergyModel::default();
        // At peak bandwidth, DRAM power = 40% of the total.
        let peak_run = meas(1000, (m.peak_bytes_per_cycle * 1000.0) as u64, 0);
        let total = m.power(&peak_run);
        let dram = total - m.core_power;
        assert!(
            (dram / total - 0.4).abs() < 0.01,
            "dram share {}",
            dram / total
        );
    }

    #[test]
    fn zero_cycles_is_safe() {
        let m = EnergyModel::default();
        assert_eq!(m.power(&meas(0, 0, 0)), m.core_power);
    }
}
