//! `plutus-trace` — the causal, per-access flight recorder.
//!
//! Aggregate counters answer "how many metadata bytes moved"; this module
//! answers "*which accesses caused them*". Each demand access (fill or
//! writeback) is assigned a [`TraceId`] root; every downstream effect —
//! counter fetch, each BMT level touched, MAC fetch, a value-cache vouch,
//! a compact-counter overflow spill, a retry attempt, a degradation-ladder
//! transition — is recorded as a child record carrying
//! `(cause id, traffic class, bytes, cycle)` into a bounded ring buffer.
//!
//! Sampling is 1-in-N by root id: an unsampled root returns
//! [`TraceId::NONE`] and every child call against it is a single compare
//! against zero — the same opt-out discipline as
//! [`crate::Telemetry::disabled`], so the simulator's hot paths carry no
//! cost when tracing is off.
//!
//! The buffer is bounded: once full, new records are
//! counted as dropped rather than evicting history, and consumers must
//! check [`Tracer::dropped`] before treating a trace as complete (the
//! bandwidth-attribution conservation property only holds for a trace
//! with zero drops and a sampling period of 1).

use crate::clock::{Clock, NullClock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default bound on retained trace records — generous, because the
/// attribution conservation property requires a lossless trace.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// Identity of one traced demand access. `NONE` (the zero id) means the
/// access was not sampled; children of `NONE` are discarded at the cost
/// of one compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(u64);

impl TraceId {
    /// The null id: not sampled, records nothing.
    pub const NONE: TraceId = TraceId(0);

    /// True when this id records nothing.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The raw id value (0 for [`TraceId::NONE`]).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One record in the flight recorder. Roots carry their own `id` and a
/// zero `cause`; children carry a zero `id` and their root's id in
/// `cause`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// This record's own id (roots only; 0 for children).
    pub id: u64,
    /// The root id this record is attributed to (0 for roots).
    pub cause: u64,
    /// Record kind: `"fill"` / `"writeback"` for roots, `"traffic"` for
    /// DRAM transfers, and marker kinds (`"value_vouch"`, `"mac_skip"`,
    /// `"compact_fallback"`, `"counter_overflow_spill"`, `"retry"`,
    /// `"violation"`, `"degrade"`) for causal annotations.
    pub kind: &'static str,
    /// Traffic class label (matches `TrafficClass::label`; empty for
    /// non-traffic records).
    pub class: &'static str,
    /// Bytes moved (0 for non-traffic records).
    pub bytes: u64,
    /// True when the transfer was a DRAM write.
    pub write: bool,
    /// Integrity-tree level of the transfer (0 = leaf / not a tree node).
    pub level: u32,
    /// Clock reading when the record was made (simulated cycles under
    /// the simulator's `CycleClock`).
    pub cycle: u64,
    /// Raw sector address for roots and addressed markers (0 otherwise).
    pub addr: u64,
    /// Kind-specific payload: retry attempt number, violation latency,
    /// degradation step code. 0 when unused.
    pub info: u64,
}

#[derive(Debug, Default)]
struct TraceBuf {
    records: VecDeque<TraceRecord>,
}

#[derive(Debug)]
struct TracerInner {
    enabled: AtomicBool,
    /// Keep one root in every `sample` ids (1 = keep all).
    sample: AtomicU64,
    capacity: AtomicUsize,
    next_id: AtomicU64,
    dropped: AtomicU64,
    clock: Arc<dyn Clock>,
    buf: Mutex<TraceBuf>,
}

/// The shared flight-recorder handle: clones are cheap and point at the
/// same ring buffer. Constructed disabled; [`Tracer::enable`] arms it
/// (usually via `Telemetry::enable_tracing`).
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A disarmed tracer stamping records with `clock` once enabled.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(false),
                sample: AtomicU64::new(1),
                capacity: AtomicUsize::new(DEFAULT_TRACE_CAPACITY),
                next_id: AtomicU64::new(1),
                dropped: AtomicU64::new(0),
                clock,
                buf: Mutex::new(TraceBuf::default()),
            }),
        }
    }

    /// A tracer that can never record (the default for engines before
    /// `attach_telemetry` hands them a live handle).
    pub fn disabled() -> Self {
        Self::new(Arc::new(NullClock))
    }

    /// Arms the recorder: keep one root in every `sample` ids (0 is
    /// treated as 1) into a ring buffer of `capacity` records.
    pub fn enable(&self, sample: u64, capacity: usize) {
        self.inner.sample.store(sample.max(1), Ordering::Relaxed);
        self.inner.capacity.store(capacity, Ordering::Relaxed);
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Whether the recorder is armed.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Opens a new root (a demand access): returns its id, or
    /// [`TraceId::NONE`] when tracing is off or this id fell outside the
    /// 1-in-N sample. `kind` is `"fill"` or `"writeback"`.
    pub fn begin(&self, kind: &'static str, addr: u64) -> TraceId {
        if !self.enabled() {
            return TraceId::NONE;
        }
        let seq = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let sample = self.inner.sample.load(Ordering::Relaxed);
        if !(seq - 1).is_multiple_of(sample) {
            return TraceId::NONE;
        }
        self.push(TraceRecord {
            id: seq,
            cause: 0,
            kind,
            class: "",
            bytes: 0,
            write: false,
            level: 0,
            cycle: self.inner.clock.now(),
            addr,
            info: 0,
        });
        TraceId(seq)
    }

    /// Records one DRAM transfer caused by `cause`. A `NONE` cause is a
    /// single compare and returns immediately.
    pub fn traffic(
        &self,
        cause: TraceId,
        class: &'static str,
        bytes: u64,
        write: bool,
        level: u32,
    ) {
        if cause.is_none() {
            return;
        }
        self.push(TraceRecord {
            id: 0,
            cause: cause.0,
            kind: "traffic",
            class,
            bytes,
            write,
            level,
            cycle: self.inner.clock.now(),
            addr: 0,
            info: 0,
        });
    }

    /// Records a non-traffic causal marker (`"value_vouch"`,
    /// `"mac_skip"`, `"compact_fallback"`, `"counter_overflow_spill"`,
    /// `"retry"`, `"violation"`, `"degrade"`) caused by `cause`. `info`
    /// carries a kind-specific payload (retry attempt, violation
    /// latency, degradation code).
    pub fn mark(&self, cause: TraceId, kind: &'static str, addr: u64, info: u64) {
        if cause.is_none() {
            return;
        }
        self.push(TraceRecord {
            id: 0,
            cause: cause.0,
            kind,
            class: "",
            bytes: 0,
            write: false,
            level: 0,
            cycle: self.inner.clock.now(),
            addr,
            info,
        });
    }

    fn push(&self, record: TraceRecord) {
        let capacity = self.inner.capacity.load(Ordering::Relaxed);
        let mut buf = self.inner.buf.lock().unwrap();
        if buf.records.len() >= capacity {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            buf.records.push_back(record);
        }
    }

    /// Records dropped because the ring buffer was full. A nonzero count
    /// voids the attribution conservation property.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner.buf.lock().unwrap().records.len()
    }

    /// Whether the recorder holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner
            .buf
            .lock()
            .unwrap()
            .records
            .iter()
            .cloned()
            .collect()
    }

    /// Removes and returns all retained records, oldest first.
    pub fn drain(&self) -> Vec<TraceRecord> {
        self.inner.buf.lock().unwrap().records.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::CycleClock;

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::disabled();
        let root = t.begin("fill", 0x40);
        assert!(root.is_none());
        t.traffic(root, "data", 32, false, 0);
        t.mark(root, "retry", 0x40, 1);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn roots_and_children_roundtrip() {
        let clock = Arc::new(CycleClock::new());
        let t = Tracer::new(clock.clone());
        t.enable(1, 16);
        let root = t.begin("fill", 0x40);
        assert_eq!(root.raw(), 1);
        clock.advance_to(7);
        t.traffic(root, "counter", 32, false, 0);
        t.traffic(root, "bmt", 32, false, 2);
        t.mark(root, "value_vouch", 0x40, 0);
        let recs = t.records();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].kind, "fill");
        assert_eq!(recs[0].id, 1);
        assert_eq!(recs[0].cycle, 0);
        assert_eq!(recs[1].cause, 1);
        assert_eq!(recs[1].cycle, 7);
        assert_eq!(recs[2].level, 2);
        assert_eq!(recs[3].kind, "value_vouch");
        assert_eq!(recs[3].bytes, 0);
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let t = Tracer::new(Arc::new(CycleClock::new()));
        t.enable(4, 64);
        let sampled: Vec<bool> = (0..8).map(|_| !t.begin("fill", 0).is_none()).collect();
        assert_eq!(
            sampled,
            [true, false, false, false, true, false, false, false]
        );
        // Children of unsampled roots vanish.
        assert_eq!(t.records().len(), 2);
    }

    #[test]
    fn bounded_buffer_counts_drops() {
        let t = Tracer::new(Arc::new(CycleClock::new()));
        t.enable(1, 2);
        let root = t.begin("fill", 0);
        t.traffic(root, "data", 32, false, 0);
        t.traffic(root, "mac", 32, false, 0); // over capacity
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn drain_empties_the_buffer() {
        let t = Tracer::new(Arc::new(CycleClock::new()));
        t.enable(1, 8);
        let root = t.begin("writeback", 0x80);
        t.traffic(root, "data", 32, true, 0);
        assert_eq!(t.drain().len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Tracer::new(Arc::new(CycleClock::new()));
        t.enable(1, 8);
        let other = t.clone();
        let root = other.begin("fill", 0);
        t.traffic(root, "data", 32, false, 0);
        assert_eq!(t.len(), 2);
        assert_eq!(other.len(), 2);
    }
}
