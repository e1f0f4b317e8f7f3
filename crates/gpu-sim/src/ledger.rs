//! The cycle ledger: conservation-exact per-partition stall attribution.
//!
//! Every simulated cycle of every partition is attributed to exactly one
//! [`StallBucket`], producing a CPI stack per run. The invariant the whole
//! subsystem is built around:
//!
//! > **Conservation**: for every partition, the bucket sums equal
//! > [`crate::SimStats::cycles`] — no cycle is double-counted, none
//! > vanishes.
//!
//! # Attribution model
//!
//! Each partition keeps a *frontier* cursor: the cycle up to which its
//! timeline has already been attributed. When the simulator books a DRAM
//! activity span `[start, end)` (a fill, a retry attempt, a writeback), the
//! ledger:
//!
//! 1. attributes the gap `[frontier, start)` — time the partition spent
//!    with no memory activity to account — to [`StallBucket::Issue`];
//! 2. splits the *newly visible* part of the span,
//!    `[max(start, frontier), end)`, across the caller's weights with an
//!    exact integer largest-remainder division (so overlapping in-flight
//!    spans never double-book: only time past the frontier is charged);
//! 3. advances the frontier to `max(frontier, end)`.
//!
//! At finalize, [`CycleLedger::close`] attributes the tail
//! `[frontier, horizon)` to `Issue`; on early-halted runs whose in-flight
//! activity was booked past the halt cycle, the excess is trimmed back
//! deterministically so conservation holds for crashed runs too.

/// One destination for an attributed cycle. Every simulated cycle of every
/// partition lands in exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallBucket {
    /// Issue/compute: cycles with no DRAM-side activity to account —
    /// warps issuing, L2 hits, interconnect transit, or plain idleness.
    Issue,
    /// Waiting on application data transfers (DRAM service of `Data`
    /// class requests, plus crypto pipeline time of metadata-free plans).
    DataFill,
    /// Waiting on encryption-counter metadata transfers.
    MetaCounter,
    /// Waiting on MAC metadata transfers and on the crypto/verification
    /// pipeline of metadata-bearing plans.
    MetaMac,
    /// Waiting on Bonsai-Merkle-tree node transfers.
    MetaBmt,
    /// Waiting on Plutus compact-counter / compact-BMT transfers.
    MetaCompact,
    /// DRAM bank serialization: the target bank was still busy with an
    /// earlier activation (row-conflict wait).
    BankConflict,
    /// DRAM data-bus backlog: the channel's fluid bus queue had to drain
    /// before this burst could start.
    BusBacklog,
    /// MSHR-full backpressure: the access sat in the partition's pending
    /// queue waiting for a free MSHR.
    MshrFull,
    /// Failed fill attempts that were re-fetched by the bounded-retry
    /// path (the whole failed attempt's span).
    TransientRetry,
    /// Retry backoff windows and other recovery-path dead time.
    Recovery,
}

/// Number of [`StallBucket`] variants (length of per-bucket arrays).
pub const NUM_STALL_BUCKETS: usize = 11;

impl StallBucket {
    /// All buckets, in display (and array-index) order.
    pub const ALL: [StallBucket; NUM_STALL_BUCKETS] = [
        StallBucket::Issue,
        StallBucket::DataFill,
        StallBucket::MetaCounter,
        StallBucket::MetaMac,
        StallBucket::MetaBmt,
        StallBucket::MetaCompact,
        StallBucket::BankConflict,
        StallBucket::BusBacklog,
        StallBucket::MshrFull,
        StallBucket::TransientRetry,
        StallBucket::Recovery,
    ];

    /// Index into per-bucket arrays.
    pub fn idx(self) -> usize {
        match self {
            StallBucket::Issue => 0,
            StallBucket::DataFill => 1,
            StallBucket::MetaCounter => 2,
            StallBucket::MetaMac => 3,
            StallBucket::MetaBmt => 4,
            StallBucket::MetaCompact => 5,
            StallBucket::BankConflict => 6,
            StallBucket::BusBacklog => 7,
            StallBucket::MshrFull => 8,
            StallBucket::TransientRetry => 9,
            StallBucket::Recovery => 10,
        }
    }

    /// Stable snake_case label used in exports and telemetry names.
    pub fn label(self) -> &'static str {
        match self {
            StallBucket::Issue => "issue",
            StallBucket::DataFill => "data_fill",
            StallBucket::MetaCounter => "meta_counter",
            StallBucket::MetaMac => "meta_mac",
            StallBucket::MetaBmt => "meta_bmt",
            StallBucket::MetaCompact => "meta_compact",
            StallBucket::BankConflict => "bank_conflict",
            StallBucket::BusBacklog => "bus_backlog",
            StallBucket::MshrFull => "mshr_full",
            StallBucket::TransientRetry => "transient_retry",
            StallBucket::Recovery => "recovery",
        }
    }

    /// The bucket charged for DRAM service time of one traffic class.
    pub fn of_class(class: crate::stats::TrafficClass) -> StallBucket {
        use crate::stats::TrafficClass;
        match class {
            TrafficClass::Data => StallBucket::DataFill,
            TrafficClass::Counter => StallBucket::MetaCounter,
            TrafficClass::Mac => StallBucket::MetaMac,
            TrafficClass::BmtNode => StallBucket::MetaBmt,
            TrafficClass::CompactCounter | TrafficClass::CompactBmt => StallBucket::MetaCompact,
        }
    }
}

impl std::fmt::Display for StallBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The attributed cycles of one partition, indexed by
/// [`StallBucket::idx`]. Conservation-exact: totals equal the run's
/// cycle count (enforced by [`CycleLedger::close`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionLedger {
    /// Cycles per bucket.
    pub buckets: [u64; NUM_STALL_BUCKETS],
}

impl PartitionLedger {
    /// Cycles attributed to `bucket`.
    pub fn get(&self, bucket: StallBucket) -> u64 {
        self.buckets[bucket.idx()]
    }

    /// Sum over all buckets — equals the run's total cycles once closed.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Per-bucket weights describing how one activity span should be split.
/// Weights are in cycles of *booked component latency*; the span is
/// divided proportionally, so overlapping bookings shrink together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerWeights {
    w: [u64; NUM_STALL_BUCKETS],
}

impl LedgerWeights {
    /// Adds `cycles` of weight to `bucket`.
    pub fn add(&mut self, bucket: StallBucket, cycles: u64) {
        self.w[bucket.idx()] += cycles;
    }

    /// Adds DRAM-service weight for a request of traffic class `class`.
    pub fn add_class(&mut self, class: crate::stats::TrafficClass, cycles: u64) {
        self.add(StallBucket::of_class(class), cycles);
    }

    /// Moves every accumulated weight into `bucket` (used to charge a
    /// whole failed retry attempt to [`StallBucket::TransientRetry`]).
    pub fn collapse_into(&mut self, bucket: StallBucket) {
        let total: u64 = self.w.iter().sum();
        self.w = [0; NUM_STALL_BUCKETS];
        self.w[bucket.idx()] = total;
    }

    /// True when no weight has been added.
    pub fn is_empty(&self) -> bool {
        self.w.iter().all(|&w| w == 0)
    }
}

/// Splits `span` cycles across `weights` exactly: floor shares first,
/// then the remainder goes to the largest weight (lowest index on ties),
/// so the parts always sum to `span` and the split is deterministic.
/// A zero-weight span falls back entirely to `fallback`.
fn split_span(
    span: u64,
    weights: &[u64; NUM_STALL_BUCKETS],
    fallback: StallBucket,
) -> [u64; NUM_STALL_BUCKETS] {
    let mut out = [0u64; NUM_STALL_BUCKETS];
    if span == 0 {
        return out;
    }
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    if total == 0 {
        out[fallback.idx()] = span;
        return out;
    }
    let mut assigned: u64 = 0;
    for (o, &w) in out.iter_mut().zip(weights.iter()) {
        let share = (span as u128 * w as u128 / total) as u64;
        *o = share;
        assigned += share;
    }
    let mut max_i = 0;
    for (i, &w) in weights.iter().enumerate() {
        if w > weights[max_i] {
            max_i = i;
        }
    }
    out[max_i] += span - assigned;
    out
}

/// Per-partition frontier cursor plus its accumulating ledger.
#[derive(Debug, Clone, Default)]
struct Cursor {
    frontier: u64,
    ledger: PartitionLedger,
}

/// The run-wide cycle ledger: one frontier cursor and bucket array per
/// partition. Owned by the simulator; closed at finalize.
#[derive(Debug, Clone)]
pub struct CycleLedger {
    cursors: Vec<Cursor>,
}

impl CycleLedger {
    /// A ledger for `partitions` partitions, all frontiers at cycle 0.
    pub fn new(partitions: usize) -> Self {
        Self {
            cursors: vec![Cursor::default(); partitions],
        }
    }

    /// Attributes activity span `[start, end)` on partition `p`: the gap
    /// since the frontier goes to [`StallBucket::Issue`], the newly
    /// visible part of the span is split across `weights` (falling back
    /// to `fallback` when all weights are zero), and the frontier
    /// advances to `end`.
    pub fn commit(
        &mut self,
        p: usize,
        start: u64,
        end: u64,
        weights: &LedgerWeights,
        fallback: StallBucket,
    ) {
        let cur = &mut self.cursors[p];
        if start > cur.frontier {
            cur.ledger.buckets[StallBucket::Issue.idx()] += start - cur.frontier;
            cur.frontier = start;
        }
        let visible = end.saturating_sub(cur.frontier);
        if visible > 0 {
            let parts = split_span(visible, &weights.w, fallback);
            for (b, p) in cur.ledger.buckets.iter_mut().zip(parts.iter()) {
                *b += p;
            }
            cur.frontier = end;
        }
    }

    /// Closes the ledger at `horizon`: remaining unattributed time on each
    /// partition becomes [`StallBucket::Issue`]; partitions whose frontier
    /// ran past the horizon (early-halted runs with in-flight activity)
    /// are trimmed back deterministically, walking buckets in reverse
    /// order. After this, every partition's total equals `horizon`.
    pub fn close(&mut self, horizon: u64) {
        for cur in &mut self.cursors {
            if horizon >= cur.frontier {
                cur.ledger.buckets[StallBucket::Issue.idx()] += horizon - cur.frontier;
            } else {
                let mut trim = cur.frontier - horizon;
                for b in cur.ledger.buckets.iter_mut().rev() {
                    let cut = trim.min(*b);
                    *b -= cut;
                    trim -= cut;
                    if trim == 0 {
                        break;
                    }
                }
            }
            cur.frontier = horizon;
        }
    }

    /// Snapshot of every partition's ledger, in partition order.
    pub fn ledgers(&self) -> Vec<PartitionLedger> {
        self.cursors.iter().map(|c| c.ledger.clone()).collect()
    }

    /// Cycles attributed so far per bucket, summed over partitions and
    /// indexed by [`StallBucket::idx`]: the CPI stack once closed.
    pub fn totals(&self) -> [u64; NUM_STALL_BUCKETS] {
        let mut out = [0; NUM_STALL_BUCKETS];
        for cur in &self.cursors {
            for (o, b) in out.iter_mut().zip(cur.ledger.buckets) {
                *o += b;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_are_unique_and_dense() {
        let mut seen = [false; NUM_STALL_BUCKETS];
        for b in StallBucket::ALL {
            assert!(!seen[b.idx()], "duplicate idx for {b}");
            seen[b.idx()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn split_is_exact_and_deterministic() {
        let mut w = [0u64; NUM_STALL_BUCKETS];
        w[1] = 3;
        w[4] = 7;
        w[6] = 2;
        for span in [0u64, 1, 5, 12, 97, 1_000_003] {
            let parts = split_span(span, &w, StallBucket::Issue);
            assert_eq!(parts.iter().sum::<u64>(), span, "span {span} not conserved");
        }
        // Remainder lands on the largest weight.
        let parts = split_span(10, &w, StallBucket::Issue);
        assert!(parts[4] >= parts[1] && parts[4] >= parts[6]);
    }

    #[test]
    fn zero_weights_fall_back() {
        let w = [0u64; NUM_STALL_BUCKETS];
        let parts = split_span(42, &w, StallBucket::DataFill);
        assert_eq!(parts[StallBucket::DataFill.idx()], 42);
        assert_eq!(parts.iter().sum::<u64>(), 42);
    }

    #[test]
    fn commit_attributes_gap_to_issue_and_advances_frontier() {
        let mut l = CycleLedger::new(1);
        let mut w = LedgerWeights::default();
        w.add(StallBucket::DataFill, 10);
        l.commit(0, 100, 150, &w, StallBucket::DataFill);
        assert_eq!(l.totals()[StallBucket::Issue.idx()], 100);
        assert_eq!(l.totals()[StallBucket::DataFill.idx()], 50);
        l.close(150);
        let ledgers = l.ledgers();
        assert_eq!(ledgers[0].total(), 150);
    }

    #[test]
    fn overlapping_spans_do_not_double_book() {
        let mut l = CycleLedger::new(1);
        let mut w = LedgerWeights::default();
        w.add(StallBucket::DataFill, 1);
        l.commit(0, 0, 100, &w, StallBucket::DataFill);
        // Second span overlaps [50, 100): only [100, 120) is new.
        l.commit(0, 50, 120, &w, StallBucket::DataFill);
        assert_eq!(l.totals().iter().sum::<u64>(), 120);
        l.close(120);
        assert_eq!(l.ledgers()[0].total(), 120);
    }

    #[test]
    fn close_trims_overrun_on_early_halt() {
        let mut l = CycleLedger::new(2);
        let mut w = LedgerWeights::default();
        w.add(StallBucket::MetaMac, 1);
        l.commit(0, 0, 500, &w, StallBucket::DataFill);
        // Halt at 200: partition 0's frontier (500) must be trimmed back.
        l.close(200);
        for led in l.ledgers() {
            assert_eq!(led.total(), 200);
        }
    }

    #[test]
    fn collapse_moves_all_weight() {
        let mut w = LedgerWeights::default();
        w.add(StallBucket::DataFill, 10);
        w.add(StallBucket::BankConflict, 5);
        w.collapse_into(StallBucket::TransientRetry);
        let mut l = CycleLedger::new(1);
        l.commit(0, 0, 30, &w, StallBucket::Issue);
        assert_eq!(l.totals()[StallBucket::TransientRetry.idx()], 30);
    }

    #[test]
    fn untouched_partitions_close_to_pure_issue() {
        let mut l = CycleLedger::new(3);
        l.close(1000);
        for led in l.ledgers() {
            assert_eq!(led.get(StallBucket::Issue), 1000);
            assert_eq!(led.total(), 1000);
        }
    }
}
