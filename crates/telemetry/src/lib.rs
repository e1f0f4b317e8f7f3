//! **plutus-telemetry** — a workspace-wide metrics, tracing, and
//! profiling layer for the Plutus secure-memory pipeline.
//!
//! The paper's whole argument is quantitative: Plutus wins by cutting
//! metadata *traffic*. This crate is the substrate every measurement
//! flows through:
//!
//! * a [`MetricsRegistry`] of named [`Counter`]s, [`Gauge`]s, and
//!   log-scale [`Histogram`]s with cheap `Arc`-shared handles and
//!   atomic updates;
//! * per-epoch snapshot/delta support ([`Telemetry::end_epoch`]) so
//!   long simulations can emit time-series, timestamped by a pluggable
//!   [`Clock`] (simulated cycles or nanoseconds);
//! * a causal flight recorder ([`Tracer`]) of per-access records;
//! * JSON and CSV exporters and a human-readable summary table
//!   ([`Report`]);
//! * row reports whose columns are declared once ([`Table`]), written
//!   through [`save_report`] and gated by named checks ([`Gate`]).
//!
//! Instrumentation is opt-out: [`Telemetry::disabled`] hands out
//! handles that hold no cell, so a record call is one predictable
//! branch and no atomic operation.
//!
//! ```
//! use plutus_telemetry::Telemetry;
//!
//! let tel = Telemetry::new();
//! let bytes = tel.counter("traffic.data.read_bytes");
//! bytes.add(4096);
//! tel.end_epoch("warmup");
//! let report = tel.report();
//! assert_eq!(report.totals.counter("traffic.data.read_bytes"), Some(4096));
//! println!("{}", report.to_json().to_string_pretty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod fsio;
pub mod json;
pub mod metrics;
pub mod rundir;
pub mod stream;
pub mod table;
pub mod trace;

pub use clock::{Clock, CycleClock, NullClock, WallClock};
pub use export::{EpochSnapshot, Report};
pub use fsio::atomic_write;
pub use json::Json;
pub use metrics::{
    BucketCount, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot,
};
pub use rundir::{
    clear_run_dir, in_run_dir, report_dir, run_dir, set_run_dir, MANIFEST_FILE, MANIFEST_SCHEMA,
};
pub use stream::{StreamSink, STREAM_SCHEMA};
pub use table::{save_report, Gate, GateFailure, Table};
pub use trace::{TraceId, TraceRecord, Tracer, DEFAULT_TRACE_CAPACITY};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct Inner {
    enabled: bool,
    clock: Arc<dyn Clock>,
    registry: MetricsRegistry,
    tracer: Tracer,
    epochs: Mutex<EpochState>,
    /// The live NDJSON sink, when `--stream-out` armed one.
    stream: Mutex<Option<StreamSink>>,
    /// Epoch lines dropped by stream backpressure (sink busy or I/O
    /// error) — the stream never blocks the simulation loop.
    stream_dropped: AtomicU64,
}

#[derive(Debug, Default)]
struct EpochState {
    last: Snapshot,
    closed: Vec<EpochSnapshot>,
}

/// The shared telemetry handle: clones are cheap and point at the same
/// registry, flight recorder, and epoch series.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Telemetry {
    /// An enabled instance with wall-clock timestamps.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// An enabled instance timestamping epochs and trace records with
    /// `clock`.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self::build(true, clock)
    }

    /// A disabled instance: every handle it hands out holds no cell and
    /// returns before any atomic operation; epochs are discarded.
    pub fn disabled() -> Self {
        Self::build(false, Arc::new(NullClock))
    }

    fn build(enabled: bool, clock: Arc<dyn Clock>) -> Self {
        let tracer = if enabled {
            Tracer::new(clock.clone())
        } else {
            Tracer::disabled()
        };
        Self {
            inner: Arc::new(Inner {
                enabled,
                clock,
                registry: MetricsRegistry::new(),
                tracer,
                epochs: Mutex::new(EpochState::default()),
                stream: Mutex::new(None),
                stream_dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Whether this instance records anything.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// The clock that timestamps epochs and trace records.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }

    /// Drives an externally-advanced clock (cycle clocks) to `t`.
    pub fn advance_clock(&self, t: u64) {
        self.inner.clock.advance_to(t);
    }

    /// A handle to counter `name` (no-op handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        if self.inner.enabled {
            self.inner.registry.counter(name)
        } else {
            Counter::disabled()
        }
    }

    /// A handle to gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if self.inner.enabled {
            self.inner.registry.gauge(name)
        } else {
            Gauge::disabled()
        }
    }

    /// A handle to histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if self.inner.enabled {
            self.inner.registry.histogram(name)
        } else {
            Histogram::disabled()
        }
    }

    /// The causal flight recorder sharing this instance's clock. Clones
    /// are cheap and point at the same ring buffer; the tracer stays
    /// disarmed until [`Telemetry::enable_tracing`].
    pub fn tracer(&self) -> Tracer {
        self.inner.tracer.clone()
    }

    /// Arms the flight recorder: keep one demand access in every
    /// `sample` (1 = all) into a ring of `capacity` records. No-op on a
    /// disabled instance — disabled telemetry never records anything.
    pub fn enable_tracing(&self, sample: u64, capacity: usize) {
        if self.inner.enabled {
            self.inner.tracer.enable(sample, capacity);
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.registry.snapshot(self.inner.clock.now())
    }

    /// Closes the current epoch: snapshots the registry, computes
    /// counter deltas since the previous epoch boundary, and streams the
    /// epoch when a sink is armed. Returns the closed epoch (None when
    /// disabled).
    pub fn end_epoch(&self, label: &str) -> Option<EpochSnapshot> {
        if !self.inner.enabled {
            return None;
        }
        let now = self.snapshot();
        let mut state = self.inner.epochs.lock().unwrap();
        let epoch = EpochSnapshot {
            index: state.closed.len(),
            label: label.to_string(),
            start_time: state.last.time,
            end_time: now.time,
            counter_deltas: now.counter_deltas(&state.last),
        };
        state.last = now;
        state.closed.push(epoch.clone());
        drop(state);
        self.stream_emit(&epoch);
        Some(epoch)
    }

    /// Appends `run`, the instance of one finished run, to this one: adds
    /// its counter and histogram totals, then appends its closed epochs,
    /// renumbered after this instance's, streaming each when a sink is
    /// armed. The epoch boundary moves past the absorbed totals, so a
    /// later [`Telemetry::end_epoch`] here does not count them again.
    /// No-op on a disabled instance.
    pub fn absorb(&self, run: &Telemetry) {
        if !self.inner.enabled {
            return;
        }
        let totals = run.snapshot();
        let mut state = self.inner.epochs.lock().unwrap();
        let before = self.snapshot();
        for (name, value) in &totals.counters {
            self.inner.registry.counter(name).add(*value);
        }
        for (name, h) in &totals.histograms {
            self.inner.registry.histogram(name).merge(h);
        }
        let absorbed = self.snapshot().counter_deltas(&before);
        for (i, (name, delta)) in absorbed.into_iter().enumerate() {
            match state.last.counters.get_mut(i) {
                Some((_, last)) => *last += delta,
                None => state.last.counters.push((name, delta)),
            }
        }
        for mut epoch in run.epochs() {
            epoch.index = state.closed.len();
            self.stream_emit(&epoch);
            state.closed.push(epoch);
        }
    }

    /// Arms the live NDJSON stream: every subsequently closed epoch is
    /// flushed to `out` as one [`STREAM_SCHEMA`] line. No-op on a
    /// disabled instance. Replaces any previous sink.
    pub fn stream_to(&self, out: Box<dyn std::io::Write + Send>) -> std::io::Result<()> {
        if !self.inner.enabled {
            return Ok(());
        }
        let sink = StreamSink::new(out, self.inner.clock.unit())?;
        *self.inner.stream.lock().unwrap() = Some(sink);
        Ok(())
    }

    /// Epoch lines dropped by stream backpressure so far.
    pub fn stream_dropped(&self) -> u64 {
        self.inner.stream_dropped.load(Ordering::Relaxed)
    }

    /// Flushes and closes the stream sink, returning the number of
    /// lines it wrote (header included); `None` when no stream was
    /// armed.
    pub fn close_stream(&self) -> Option<u64> {
        let mut sink = self.inner.stream.lock().unwrap().take()?;
        let _ = sink.finish();
        Some(sink.lines())
    }

    /// Non-blocking emission of one closed epoch onto the stream. Lock
    /// contention and write errors count a drop instead of stalling the
    /// caller — this runs inside the simulation loop.
    fn stream_emit(&self, epoch: &EpochSnapshot) {
        let Ok(mut guard) = self.inner.stream.try_lock() else {
            // Sink busy (or poisoned): count the drop, never wait.
            self.inner.stream_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let Some(sink) = guard.as_mut() else {
            return;
        };
        let dropped = self.inner.stream_dropped.load(Ordering::Relaxed);
        if sink.emit(epoch, dropped).is_err() {
            self.inner.stream_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The closed epochs so far, oldest first.
    pub fn epochs(&self) -> Vec<EpochSnapshot> {
        self.inner.epochs.lock().unwrap().closed.clone()
    }

    /// Builds the immutable export bundle (cumulative totals and
    /// epochs).
    pub fn report(&self) -> Report {
        Report {
            time_unit: self.inner.clock.unit(),
            totals: self.snapshot(),
            epochs: self.epochs(),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_roundtrip() {
        let tel = Telemetry::new();
        assert!(tel.enabled());
        tel.counter("c").add(2);
        tel.gauge("g").set(5);
        tel.histogram("h").record(9);
        let r = tel.report();
        assert_eq!(r.totals.counter("c"), Some(2));
        assert_eq!(r.time_unit, "ns");
    }

    #[test]
    fn disabled_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        tel.counter("c").add(2);
        assert!(tel.end_epoch("e").is_none());
        let r = tel.report();
        assert!(r.totals.counters.is_empty());
        assert!(r.epochs.is_empty());
    }

    #[test]
    fn epochs_chain_and_sum_to_totals() {
        let tel = Telemetry::new();
        let c = tel.counter("x");
        c.add(3);
        let e0 = tel.end_epoch("first").unwrap();
        c.add(4);
        let e1 = tel.end_epoch("second").unwrap();
        assert_eq!(e0.delta("x"), 3);
        assert_eq!(e1.delta("x"), 4);
        assert_eq!(e1.index, 1);
        let total: u64 = tel.epochs().iter().map(|e| e.delta("x")).sum();
        assert_eq!(total, tel.snapshot().counter("x").unwrap());
    }

    #[test]
    fn absorb_appends_a_runs_totals_and_epochs_once() {
        let shared = Telemetry::with_clock(Arc::new(CycleClock::new()));
        shared.stream_to(Box::new(std::io::sink())).unwrap();
        shared.counter("own").add(5);
        shared.end_epoch("warmup");
        shared.counter("late").inc();
        let run = Telemetry::with_clock(Arc::new(CycleClock::new()));
        run.counter("x").add(3);
        run.histogram("h").record(9);
        run.advance_clock(40);
        run.end_epoch("cycle-40");
        run.counter("x").add(4);
        run.advance_clock(70);
        run.end_epoch("bfs/pssm");
        shared.absorb(&run);
        let totals = shared.snapshot();
        assert_eq!(totals.counter("x"), Some(7));
        assert_eq!(totals.histograms[0].1.count, 1);
        let epochs = shared.epochs();
        let spans: Vec<_> = epochs
            .iter()
            .map(|e| (e.index, e.label.as_str(), e.start_time, e.delta("x")))
            .collect();
        let want = [(1, "cycle-40", 0, 3), (2, "bfs/pssm", 40, 4)];
        assert_eq!(spans[1..], want);
        // A later epoch counts this instance's own growth, not the
        // absorbed totals.
        shared.counter("own").add(2);
        let later = shared.end_epoch("later").unwrap();
        assert_eq!((later.delta("own"), later.delta("late")), (2, 1));
        assert_eq!(later.delta("x"), 0);
        assert_eq!(shared.close_stream(), Some(5));
    }

    #[test]
    fn clones_share_state() {
        let tel = Telemetry::new();
        let other = tel.clone();
        other.counter("shared").inc();
        assert_eq!(tel.snapshot().counter("shared"), Some(1));
    }

    #[test]
    fn tracing_arms_only_on_enabled_instances() {
        let off = Telemetry::disabled();
        off.enable_tracing(1, 64);
        assert!(off.tracer().begin("fill", 0).is_none());

        let tel = Telemetry::new();
        let tracer = tel.tracer();
        // Disarmed until enable_tracing.
        assert!(tracer.begin("fill", 0).is_none());
        tel.enable_tracing(1, 64);
        assert!(!tracer.begin("fill", 0).is_none());
        assert_eq!(tel.tracer().len(), 1);
    }

    #[test]
    fn stream_emits_one_line_per_epoch_and_closes() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let clock = Arc::new(CycleClock::new());
        let tel = Telemetry::with_clock(clock.clone());
        let buf = Arc::new(Mutex::new(Vec::new()));
        tel.stream_to(Box::new(Shared(buf.clone()))).unwrap();
        let c = tel.counter("traffic.data.read_bytes");
        c.add(64);
        clock.advance_to(100);
        tel.end_epoch("cycle-100");
        c.add(32);
        clock.advance_to(200);
        tel.end_epoch("cycle-200");
        assert_eq!(tel.close_stream(), Some(3));
        assert_eq!(tel.stream_dropped(), 0);
        // Closing twice is a no-op; epochs after close do not stream.
        assert_eq!(tel.close_stream(), None);
        tel.end_epoch("cycle-300");
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "stream: {text}");
        let header = Json::parse(lines[0]).unwrap();
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some(STREAM_SCHEMA)
        );
        let first = Json::parse(lines[1]).unwrap();
        assert_eq!(first.get("label").and_then(Json::as_str), Some("cycle-100"));
        assert_eq!(
            first
                .get("deltas")
                .and_then(|d| d.get("traffic.data.read_bytes"))
                .and_then(Json::as_u64),
            Some(64)
        );
        let second = Json::parse(lines[2]).unwrap();
        assert_eq!(
            second
                .get("deltas")
                .and_then(|d| d.get("traffic.data.read_bytes"))
                .and_then(Json::as_u64),
            Some(32)
        );
    }

    #[test]
    fn disabled_stream_to_is_a_noop() {
        let tel = Telemetry::disabled();
        tel.stream_to(Box::new(Vec::new())).unwrap();
        assert_eq!(tel.close_stream(), None);
        assert_eq!(tel.stream_dropped(), 0);
    }

    #[test]
    fn stream_write_errors_count_as_drops() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                // Let the header through, fail afterwards.
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("sink gone"))
            }
        }
        let tel = Telemetry::new();
        // Header flush fails already — stream_to surfaces it.
        assert!(tel.stream_to(Box::new(Failing)).is_err());
    }
}
