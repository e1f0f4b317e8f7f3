//! Per-partition DRAM channel timing model.
//!
//! Two resources are modeled per channel:
//!
//! - **Banks**: a row miss occupies its bank for the precharge+activate
//!   window; requests to the same bank serialize on that window while
//!   different banks overlap (bank-level parallelism).
//! - **Data bus**: a fluid backlog that accumulates one burst per request
//!   and drains at the configured bytes-per-cycle. Modeling the bus as a
//!   drainable backlog (rather than a single reservation frontier) lets an
//!   out-of-order controller backfill idle slots — a strict-FIFO frontier
//!   would let one bank-delayed request head-of-line-block the whole
//!   channel, which FR-FCFS schedulers specifically avoid.
//!
//! Sustained throughput is capped at `bytes_per_cycle`; scattered accesses
//! additionally pay activation latency and per-bank serialization. This
//! captures the two effects the paper's evaluation depends on: *bandwidth
//! contention* (metadata requests compete with data for bus time) and
//! *locality sensitivity* (scattered metadata fetches pay extra row
//! activations).

use crate::config::DramConfig;

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: u64,
    busy_until: f64,
}

/// Per-bank counters exposed for utilization analysis: row-buffer
/// locality and activation occupancy, per physical bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStat {
    /// Requests that found their row open in this bank.
    pub row_hits: u64,
    /// Requests that paid a precharge+activate in this bank.
    pub row_misses: u64,
    /// Cycles this bank spent occupied by precharge+activate windows
    /// (the resource row conflicts serialize on).
    pub busy_cycles: u64,
}

/// Why one DRAM request waited, phase by phase. The phases partition the
/// request's latency exactly: `bank_wait + activation + backlog_wait +
/// service` equals `done − now`, so ledger attribution built on top of
/// this report stays conservation-exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramBreakdown {
    /// Completion cycle (what [`DramChannel::access`] returns).
    pub done: u64,
    /// Cycles spent waiting for the target bank to finish an earlier
    /// activation (row-conflict serialization).
    pub bank_wait: u64,
    /// Precharge+activate cycles paid by a row miss (0 on a row hit).
    pub activation: u64,
    /// Cycles spent waiting for the bus backlog to drain before this
    /// burst could start.
    pub backlog_wait: u64,
    /// Burst + CAS service cycles (the residual, so phases sum exactly).
    pub service: u64,
    /// Whether the request hit an open row.
    pub row_hit: bool,
}

/// One DRAM channel (one per memory partition).
#[derive(Debug, Clone)]
pub struct DramChannel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    /// Outstanding bus bytes not yet drained.
    backlog_bytes: f64,
    /// Last time the backlog was drained to.
    last_time: f64,
    bytes_transferred: u64,
    /// Row hits, row misses and busy cycles per bank; the channel keeps
    /// no other count of them.
    bank_stats: Vec<BankStat>,
    /// Deepest bus backlog ever observed, in bytes.
    backlog_hwm_bytes: f64,
}

impl DramChannel {
    /// Creates a channel with the given timing parameters.
    pub fn new(cfg: DramConfig) -> Self {
        let banks = vec![
            Bank {
                open_row: u64::MAX,
                busy_until: 0.0
            };
            cfg.banks
        ];
        let bank_stats = vec![BankStat::default(); cfg.banks];
        Self {
            cfg,
            banks,
            backlog_bytes: 0.0,
            last_time: 0.0,
            bytes_transferred: 0,
            bank_stats,
            backlog_hwm_bytes: 0.0,
        }
    }

    /// Schedules a `bytes`-byte transfer touching `addr` at time `now`
    /// (core cycles) and returns its completion cycle.
    ///
    /// Calls must use non-decreasing `now` values (the event loop
    /// guarantees this); earlier values are treated as `last_time`.
    pub fn access(&mut self, now: u64, addr: u64, bytes: u32) -> u64 {
        self.access_report(now, addr, bytes).done
    }

    /// Like [`DramChannel::access`], but also reports *why* the request
    /// waited: bank serialization, row activation, bus-backlog drain, and
    /// burst+CAS service, as an exact partition of `done − now` (see
    /// [`DramBreakdown`]). The timing model is identical to `access`.
    pub fn access_report(&mut self, now: u64, addr: u64, bytes: u32) -> DramBreakdown {
        let nowf = (now as f64).max(self.last_time);
        // Drain the bus backlog with elapsed real time.
        self.backlog_bytes =
            (self.backlog_bytes - (nowf - self.last_time) * self.cfg.bytes_per_cycle).max(0.0);
        self.last_time = nowf;

        // Bank-address hashing (universal in GPU memory controllers):
        // XOR-fold upper block bits into the bank index so power-of-two
        // aligned regions — tree-level bases, metadata arrays — don't all
        // camp on bank 0.
        let block = addr / crate::address::BLOCK_SIZE;
        let bank_idx = ((block ^ (block >> 5) ^ (block >> 10) ^ (block >> 15))
            % self.cfg.banks as u64) as usize;
        let row = addr / self.cfg.row_bytes;
        let bank = &mut self.banks[bank_idx];
        let ready = nowf.max(bank.busy_until);
        let row_hit = bank.open_row == row;
        let stat = &mut self.bank_stats[bank_idx];
        let act_done = if row_hit {
            stat.row_hits += 1;
            ready
        } else {
            stat.row_misses += 1;
            bank.open_row = row;
            let act = self.cfg.t_rp + self.cfg.t_rcd;
            stat.busy_cycles += act;
            let done = ready + act as f64;
            bank.busy_until = done;
            done
        };

        let queue_ready = nowf + self.backlog_bytes / self.cfg.bytes_per_cycle;
        let burst = bytes as f64 / self.cfg.bytes_per_cycle;
        self.backlog_bytes += bytes as f64;
        self.backlog_hwm_bytes = self.backlog_hwm_bytes.max(self.backlog_bytes);
        self.bytes_transferred += bytes as u64;

        let start = act_done.max(queue_ready);
        let done = (start + burst + self.cfg.t_cas as f64).ceil() as u64;

        // Decompose done − now into waiting phases. Each phase rounds
        // down from the fluid model; the burst+CAS service absorbs the
        // residual so the phases always sum exactly to the latency.
        let bank_wait = (ready - nowf) as u64;
        let activation = if row_hit {
            0
        } else {
            self.cfg.t_rp + self.cfg.t_rcd
        };
        let backlog_wait = (queue_ready.max(nowf) - nowf) as u64;
        let visible_backlog = backlog_wait.saturating_sub(bank_wait + activation);
        let latency = done.saturating_sub(now);
        let accounted = bank_wait + activation + visible_backlog;
        DramBreakdown {
            done,
            bank_wait,
            activation,
            backlog_wait: visible_backlog,
            service: latency.saturating_sub(accounted),
            row_hit,
        }
    }

    /// Unloaded service latency estimate for one request (row activation +
    /// burst + CAS), used to extend a dependent chain's latency without
    /// double-booking the bus.
    pub fn unloaded_latency(&self, bytes: u32) -> u64 {
        let burst = bytes as f64 / self.cfg.bytes_per_cycle;
        (self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas) + burst.ceil() as u64
    }

    /// Total bytes moved over this channel.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Per-bank row-locality and occupancy counters, indexed by physical
    /// bank.
    pub fn bank_stats(&self) -> &[BankStat] {
        &self.bank_stats
    }

    /// Deepest bus backlog observed so far, in bytes (rounded up).
    pub fn backlog_high_water_bytes(&self) -> u64 {
        self.backlog_hwm_bytes.ceil() as u64
    }

    /// Bus backlog outstanding at `now`, in bytes (rounded up) — the
    /// instantaneous queue depth for epoch-sampled timelines.
    pub fn backlog_bytes_at(&self, now: u64) -> u64 {
        let elapsed = (now as f64 - self.last_time).max(0.0);
        (self.backlog_bytes - elapsed * self.cfg.bytes_per_cycle)
            .max(0.0)
            .ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (row hits, row misses) so far, summed over banks.
    fn row_stats(d: &DramChannel) -> (u64, u64) {
        let bs = d.bank_stats();
        (
            bs.iter().map(|b| b.row_hits).sum(),
            bs.iter().map(|b| b.row_misses).sum(),
        )
    }

    fn channel() -> DramChannel {
        DramChannel::new(DramConfig {
            bytes_per_cycle: 16.0,
            banks: 4,
            row_bytes: 1024,
            t_cas: 10,
            t_rcd: 10,
            t_rp: 10,
        })
    }

    #[test]
    fn first_access_pays_row_activation() {
        let mut d = channel();
        // Row miss: (10+10) activate + 32/16 burst + 10 CAS = 32.
        assert_eq!(d.access(0, 0x0, 32), 32);
    }

    #[test]
    fn row_hit_overlaps_activation_window() {
        let mut d = channel();
        let first = d.access(0, 0x0, 32);
        // Same row: backlog is only 2 cycles deep, so the burst rides just
        // behind the first while its activation completes.
        let second = d.access(0, 0x20, 32);
        assert_eq!(first, 32);
        assert_eq!(second, 32);
        assert_eq!(row_stats(&d), (1, 1));
    }

    #[test]
    fn different_banks_overlap_activation() {
        let mut d = channel();
        let a = d.access(0, 0x000, 32); // bank 0 (block 0)
        let b = d.access(0, 0x080, 32); // bank 1 (block 1)
        assert_eq!(a, 32);
        assert_eq!(b, 32);
    }

    #[test]
    fn bandwidth_saturates_bus() {
        let mut d = channel();
        // 100 transfers at time 0 over two banks in one row each: steady
        // state is bus-limited at 2 cycles per 32 B.
        let mut last = 0;
        for i in 0..100u64 {
            last = d.access(0, (i % 2) * 0x80 + (i / 2 % 8) * 0x20, 32);
        }
        // Backlog before the 100th access = 99 bursts = 198 cycles.
        assert_eq!(last, 210);
        assert_eq!(d.bytes_transferred(), 3200);
    }

    #[test]
    fn backlog_drains_with_time() {
        let mut d = channel();
        for i in 0..100u64 {
            d.access(0, (i % 2) * 0x80 + (i / 2 % 8) * 0x20, 32);
        }
        // 300 cycles later the backlog (200 cycles deep) has fully drained:
        // a fresh row hit completes unloaded.
        let done = d.access(300, 0x20, 32);
        assert_eq!(done, 312);
    }

    #[test]
    fn no_head_of_line_blocking_from_busy_banks() {
        let mut d = channel();
        // Three consecutive row conflicts pile 60+ cycles of activation
        // delay onto bank 0.
        d.access(0, 0x0, 32); // bank 0, row 0
        d.access(0, 1024, 32); // bank 0, row 1 (conflict)
        let slow = d.access(0, 2048, 32); // bank 0, row 2 (conflict)
        assert!(slow >= 70, "bank conflicts must serialize: {slow}");
        // A request to an idle bank is NOT stuck behind them on the bus.
        let fast = d.access(0, 0x080, 32);
        assert!(fast <= 40, "idle-bank access must backfill the bus: {fast}");
    }

    #[test]
    fn row_conflicts_serialize_on_the_bank() {
        let mut d = channel();
        let a = d.access(0, 0x0, 32); // row 0
        let b = d.access(0, 1024, 32); // bank 0, row 1
        assert_eq!(a, 32);
        // Bank re-activatable at 20, + 20 activate + 2 burst + 10 CAS.
        assert_eq!(b, 52);
        assert_eq!(row_stats(&d), (0, 2));
    }

    #[test]
    fn later_now_pushes_start_time() {
        let mut d = channel();
        assert_eq!(d.access(1000, 0x0, 32), 1032);
    }

    #[test]
    fn larger_transfers_occupy_proportional_bus_time() {
        let mut d = channel();
        // Back-to-back 128 B row hits at time 0: each adds 8 cycles of
        // backlog; completions stay at 38 while the backlog hides inside
        // the 20-cycle activation window, then fall behind at bus rate.
        assert_eq!(d.access(0, 0x0, 128), 38); // 20 act + 8 burst + 10 CAS
        assert_eq!(d.access(0, 0x20, 128), 38); // queue 8 < act 20
        assert_eq!(d.access(0, 0x40, 128), 38); // queue 16 < act 20
        assert_eq!(d.access(0, 0x60, 128), 42); // queue 24 > act 20
    }

    #[test]
    fn breakdown_phases_sum_to_latency() {
        let mut d = channel();
        for i in 0..200u64 {
            let now = i / 3;
            let b = d.access_report(now, (i % 8) * 0x20 + (i / 8) * 2048, 32);
            let latency = b.done - now;
            assert_eq!(
                b.bank_wait + b.activation + b.backlog_wait + b.service,
                latency,
                "phases must partition the latency exactly (req {i})"
            );
        }
    }

    #[test]
    fn breakdown_matches_access_timing() {
        let mut a = channel();
        let mut b = channel();
        for i in 0..100u64 {
            let addr = (i % 4) * 0x80 + (i / 4 % 8) * 0x20;
            assert_eq!(
                a.access(i / 2, addr, 32),
                b.access_report(i / 2, addr, 32).done
            );
        }
        assert_eq!(row_stats(&a), row_stats(&b));
    }

    #[test]
    fn bank_stats_and_backlog_hwm_accumulate() {
        let mut d = channel();
        d.access(0, 0x0, 32); // bank 0 row miss
        d.access(0, 1024, 32); // bank 0 row conflict
        d.access(0, 0x80, 32); // bank 1 row miss
        let bs = d.bank_stats();
        assert_eq!(bs[0].row_misses, 2);
        assert_eq!(bs[1].row_misses, 1);
        // Each miss occupies its bank for t_rp + t_rcd = 20 cycles.
        assert_eq!(bs[0].busy_cycles, 40);
        assert_eq!(bs[1].busy_cycles, 20);
        assert_eq!(row_stats(&d), (0, 3));
        // Three outstanding 32 B bursts at time 0 peak the backlog.
        assert_eq!(d.backlog_high_water_bytes(), 96);
        assert!(d.backlog_bytes_at(0) > 0);
        assert_eq!(d.backlog_bytes_at(1_000_000), 0);
    }

    #[test]
    fn sustained_throughput_capped_at_bus_rate() {
        let mut d = channel();
        // Issue one 32 B request per cycle (above the 16 B/cycle rate) on
        // rotating banks/rows kept hot; completions must fall behind at
        // the bus rate: 2 cycles per request.
        let mut last = 0;
        for i in 0..1000u64 {
            last = d.access(i, (i % 4) * 0x80 + ((i / 4) % 8) * 0x20, 32);
        }
        // 1000 requests × 32 B at 16 B/cycle ≈ 2000 cycles.
        assert!((1990..=2110).contains(&last), "last completion {last}");
    }
}
