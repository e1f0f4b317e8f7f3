//! Timers at the public engine boundary.
//!
//! [`TimedFactory`] wraps any [`EngineFactory`]; the engines it builds
//! delegate every [`SecurityEngine`] method to the wrapped engine and time
//! `install`, `on_fill` and `on_writeback`. There are millions of those
//! calls per job, so they are recorded as counts and log histograms in an
//! [`EngineProbe`], not as spans.

use gpu_sim::{
    BackingMemory, EngineFactory, FillPlan, MetaFault, RecoveryError, RecoveryReport, SectorAddr,
    SecurityEngine, WritePlan,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Sub-buckets per power of two: bucket width is at most 1/8 of its value.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Enough buckets for any `u64` nanosecond count.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// A log-linear histogram of nanosecond latencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LogHist {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let log = 63 - ns.leading_zeros();
        let mantissa = (ns >> (log - SUB_BITS)) & (SUB - 1);
        ((log - SUB_BITS + 1) as u64 * SUB + mantissa) as usize
    }

    /// Midpoint of bucket `idx`, in nanoseconds.
    fn midpoint(idx: usize) -> f64 {
        let idx = idx as u64;
        if idx < SUB {
            return idx as f64;
        }
        let shift = (idx / SUB - 1) as u32;
        let low = (SUB + idx % SUB) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    /// Adds one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q` quantile (bucket midpoint), or `None` unless at least ten
    /// samples lie above it — a percentile with fewer is not measured.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if self.total < rank + 10 {
            return None;
        }
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::midpoint(idx));
            }
        }
        None
    }
}

/// Count, total time and latency distribution of one engine entry point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside the calls.
    pub ns: u64,
    /// Per-call latency.
    pub hist: LogHist,
}

impl CallStats {
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        self.hist.record(ns);
    }

    /// Adds `other`'s calls.
    pub fn merge(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.hist.merge(&other.hist);
    }
}

/// What the timed engines of one job saw, summed over partitions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineProbe {
    /// `SecurityEngine::install` (inside `Simulator::new`).
    pub install: CallStats,
    /// `SecurityEngine::on_fill`.
    pub fill: CallStats,
    /// `SecurityEngine::on_writeback`.
    pub writeback: CallStats,
    /// Metadata DRAM requests in all fill plans.
    pub fill_meta_reqs: u64,
    /// Fills accepted by value verification alone.
    pub verified_by_value: u64,
}

impl EngineProbe {
    /// Adds `other`'s calls.
    pub fn merge(&mut self, other: &EngineProbe) {
        self.install.merge(&other.install);
        self.fill.merge(&other.fill);
        self.writeback.merge(&other.writeback);
        self.fill_meta_reqs += other.fill_meta_reqs;
        self.verified_by_value += other.verified_by_value;
    }
}

/// Nanoseconds since `start`.
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An [`EngineFactory`] whose engines time the wrapped factory's engines.
/// The simulator is single-threaded, so one probe is shared by all its
/// partitions through an `Rc`.
pub struct TimedFactory<'a> {
    inner: &'a dyn EngineFactory,
    probe: Rc<RefCell<EngineProbe>>,
}

impl<'a> TimedFactory<'a> {
    /// Wraps `inner`; read the calls back with [`TimedFactory::probe`].
    pub fn new(inner: &'a dyn EngineFactory) -> Self {
        Self {
            inner,
            probe: Rc::default(),
        }
    }

    /// Everything recorded so far.
    pub fn probe(&self) -> EngineProbe {
        self.probe.borrow().clone()
    }
}

impl EngineFactory for TimedFactory<'_> {
    fn build(&self, partition: usize) -> Box<dyn SecurityEngine> {
        Box::new(TimedEngine {
            inner: self.inner.build(partition),
            probe: Rc::clone(&self.probe),
        })
    }

    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }
}

struct TimedEngine {
    inner: Box<dyn SecurityEngine>,
    probe: Rc<RefCell<EngineProbe>>,
}

impl SecurityEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn install(&mut self, addr: SectorAddr, plaintext: &[u8; 32], mem: &mut BackingMemory) {
        let start = Instant::now();
        self.inner.install(addr, plaintext, mem);
        let ns = elapsed_ns(start);
        self.probe.borrow_mut().install.record(ns);
    }

    fn on_fill(&mut self, addr: SectorAddr, mem: &mut BackingMemory) -> FillPlan {
        let start = Instant::now();
        let plan = self.inner.on_fill(addr, mem);
        let ns = elapsed_ns(start);
        let mut probe = self.probe.borrow_mut();
        probe.fill.record(ns);
        probe.fill_meta_reqs += (plan.pre_chains.iter().map(Vec::len).sum::<usize>()
            + plan.post_chain.len()
            + plan.async_reads.len()
            + plan.writes.len()) as u64;
        probe.verified_by_value += u64::from(plan.verified_by_value);
        plan
    }

    fn on_writeback(
        &mut self,
        addr: SectorAddr,
        plaintext: &[u8; 32],
        mem: &mut BackingMemory,
    ) -> WritePlan {
        let start = Instant::now();
        let plan = self.inner.on_writeback(addr, plaintext, mem);
        let ns = elapsed_ns(start);
        self.probe.borrow_mut().writeback.record(ns);
        plan
    }

    fn extra_stats(&self) -> Vec<(String, u64)> {
        self.inner.extra_stats()
    }

    fn attach_telemetry(&mut self, tel: &plutus_telemetry::Telemetry) {
        self.inner.attach_telemetry(tel);
    }

    fn inject_fault(&mut self, addr: SectorAddr, fault: MetaFault) -> bool {
        self.inner.inject_fault(addr, fault)
    }

    fn checkpoint(&self) -> Option<Box<dyn SecurityEngine>> {
        self.inner.checkpoint()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn crash_revert(&mut self, checkpoint: &dyn SecurityEngine) -> bool {
        self.inner.crash_revert(checkpoint)
    }

    fn recover(
        &mut self,
        mem: &BackingMemory,
        sectors: &[SectorAddr],
    ) -> Result<RecoveryReport, RecoveryError> {
        self.inner.recover(mem, sectors)
    }

    fn peek_plaintext(&self, addr: SectorAddr, mem: &BackingMemory) -> Option<[u8; 32]> {
        self.inner.peek_plaintext(addr, mem)
    }

    fn note_fill_failure(&mut self, addr: SectorAddr, recovered: bool) {
        self.inner.note_fill_failure(addr, recovered);
    }

    fn begin_access_trace(&mut self, id: plutus_telemetry::TraceId) {
        self.inner.begin_access_trace(id);
    }

    fn start_key_rotation(&mut self, tenant: u32) -> bool {
        self.inner.start_key_rotation(tenant)
    }

    fn rotation_active(&self) -> bool {
        self.inner.rotation_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in (0..5000u64).chain([1 << 20, u64::MAX]) {
            let idx = LogHist::index(ns);
            assert!(idx >= last && idx < BUCKETS, "ns {ns} -> bucket {idx}");
            last = idx;
            let mid = LogHist::midpoint(idx);
            assert!(
                (mid - ns as f64).abs() <= ns as f64 / SUB as f64,
                "ns {ns} mid {mid}"
            );
        }
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut h = LogHist::default();
        for ns in 1..=999u64 {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.99), None);
        h.record(1000);
        let p99 = h.quantile(0.99).expect("1000 samples leave 10 above p99");
        assert!((p99 - 990.0).abs() <= 990.0 / 8.0);
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 500.0).abs() <= 500.0 / 8.0);
    }
}
