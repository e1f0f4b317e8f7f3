//! Typed events and the bounded event log.
//!
//! Events capture *discrete* happenings on the secure-memory pipeline —
//! a MAC fetch, a compact-counter overflow, a BMT walk of a given depth
//! — with a timestamp from the telemetry clock. High-frequency totals
//! belong in [`crate::MetricsRegistry`] counters; the event log is for
//! timelines and post-mortems, so it is bounded: once full, new events
//! are counted as dropped rather than growing without limit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A structured event on the secure-memory pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A benchmark run started.
    RunStart {
        /// Workload name.
        workload: String,
        /// Scheme label.
        scheme: String,
    },
    /// A benchmark run finished.
    RunEnd {
        /// Workload name.
        workload: String,
        /// Scheme label.
        scheme: String,
    },
    /// A sector was verified by value reuse alone (no MAC fetch).
    ValueVerified,
    /// A value-cache probe hit (`pinned` when the entry was pinned).
    ValueCacheHit {
        /// Whether the hit landed in the pinned region.
        pinned: bool,
    },
    /// A value-cache probe missed.
    ValueCacheMiss,
    /// A transient value-cache entry was promoted to pinned.
    ValueCachePromotion,
    /// A MAC line was fetched from DRAM.
    MacFetch {
        /// Sector address whose MAC was fetched.
        addr: u64,
    },
    /// A MAC fetch was avoided by value verification.
    MacFetchAvoided,
    /// A MAC update was skipped on a write (pinned-value guarantee).
    MacUpdateSkipped,
    /// A compact counter saturated and fell back to the original
    /// counters ("overflow" in the paper's Fig. 13 terminology).
    CompactOverflow {
        /// Sector address whose compact counter saturated.
        addr: u64,
    },
    /// Adaptive compaction disabled itself for a write-hot block.
    CompactDisable {
        /// Block address compaction gave up on.
        addr: u64,
    },
    /// A read fell back from compact to original counters.
    CompactFallback,
    /// An encryption-counter line was fetched from DRAM.
    CounterFetch {
        /// Sector address whose counter was fetched.
        addr: u64,
    },
    /// A BMT verification walk terminated after `depth` levels.
    BmtWalk {
        /// Number of tree levels climbed before hitting a cached node
        /// or the root.
        depth: u32,
    },
    /// An integrity violation was raised.
    Violation {
        /// Human-readable description of the violation.
        kind: String,
        /// Stable label of the verification layer that caught it
        /// (e.g. `"mac"`, `"value_verification"`, `"bmt"`).
        layer: String,
        /// Verification latency in cycles of the detecting request.
        latency: u64,
    },
    /// A scheduled fault was injected into the memory system.
    FaultInjected {
        /// Raw address of the targeted data sector.
        addr: u64,
        /// Stable label of the fault kind (e.g. `"corrupt_data"`).
        kind: String,
    },
    /// One simulation epoch ended (snapshot taken).
    EpochEnd {
        /// Epoch label.
        label: String,
    },
    /// A transient (soft-error) fault struck a fill.
    TransientFault {
        /// Raw address of the afflicted fill.
        addr: u64,
        /// Stable label of the transient kind (e.g. `"transient_data"`).
        kind: String,
    },
    /// A failed fill verification was re-fetched by the retry path.
    FillRetry {
        /// Raw address of the retried fill.
        addr: u64,
        /// Retry attempt number (1-based).
        attempt: u32,
    },
    /// A transient fault was cleared by the bounded retry path.
    TransientRecovered {
        /// Raw address of the recovered fill.
        addr: u64,
        /// Retry attempts the recovery took.
        retries: u32,
    },
    /// An engine downgraded itself after repeated fill failures.
    Degraded {
        /// Stable label of the degradation step (e.g.
        /// `"value_cache_disabled"`, `"compact_block_frozen"`).
        mode: String,
        /// Raw address of the fill that tripped the downgrade.
        addr: u64,
    },
    /// A metadata checkpoint was taken.
    Checkpoint {
        /// Simulated cycle of the snapshot.
        cycle: u64,
    },
    /// Volatile metadata was reverted to a checkpoint (simulated crash).
    CrashRestore {
        /// Cycle of the checkpoint restored to.
        checkpoint_cycle: u64,
    },
    /// A command-line error routed through the event log.
    CliError {
        /// The error message shown to the user.
        message: String,
    },
    /// A heartbeat progress tick from the executor pool.
    PoolProgress {
        /// Jobs finished so far this run.
        done: u64,
        /// Jobs submitted this run.
        total: u64,
        /// Jobs executing at tick time.
        running: u64,
    },
    /// The pool watchdog flagged a straggling job (`[SLOW]`).
    JobSlow {
        /// Label of the straggling job.
        label: String,
        /// How long it had been running when flagged, in milliseconds.
        elapsed_ms: u64,
    },
    /// An SLO detector finding (see [`crate::SloTracker`]). Fractional
    /// values ride as thousandths so payloads stay integral.
    Anomaly {
        /// Series the detector watched, e.g. `"tenant.t2.ipc"`.
        series: String,
        /// Which detector fired: `"zscore"`, `"floor"`, `"ceiling"`.
        detector: String,
        /// Observed value × 1000.
        value_milli: u64,
        /// Expected value (EWMA mean or bound) × 1000.
        expected_milli: u64,
        /// Whether this finding fails `--slo-gate`.
        gating: bool,
    },
    /// A free-form event for call sites without a dedicated variant.
    Custom {
        /// Static event name.
        name: &'static str,
        /// Event payload.
        value: u64,
    },
}

impl Event {
    /// Stable kind label used by exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::RunEnd { .. } => "run_end",
            Event::ValueVerified => "value_verified",
            Event::ValueCacheHit { .. } => "value_cache_hit",
            Event::ValueCacheMiss => "value_cache_miss",
            Event::ValueCachePromotion => "value_cache_promotion",
            Event::MacFetch { .. } => "mac_fetch",
            Event::MacFetchAvoided => "mac_fetch_avoided",
            Event::MacUpdateSkipped => "mac_update_skipped",
            Event::CompactOverflow { .. } => "compact_overflow",
            Event::CompactDisable { .. } => "compact_disable",
            Event::CompactFallback => "compact_fallback",
            Event::CounterFetch { .. } => "counter_fetch",
            Event::BmtWalk { .. } => "bmt_walk",
            Event::Violation { .. } => "violation",
            Event::FaultInjected { .. } => "fault_injected",
            Event::EpochEnd { .. } => "epoch_end",
            Event::TransientFault { .. } => "transient_fault",
            Event::FillRetry { .. } => "fill_retry",
            Event::TransientRecovered { .. } => "transient_recovered",
            Event::Degraded { .. } => "degraded",
            Event::Checkpoint { .. } => "checkpoint",
            Event::CrashRestore { .. } => "crash_restore",
            Event::CliError { .. } => "cli_error",
            Event::PoolProgress { .. } => "sched_progress",
            Event::JobSlow { .. } => "sched_slow",
            Event::Anomaly { .. } => "anomaly",
            Event::Custom { .. } => "custom",
        }
    }

    /// `(field, value)` payload pairs for exporters.
    pub fn fields(&self) -> Vec<(&'static str, FieldValue)> {
        use FieldValue::*;
        match self {
            Event::RunStart { workload, scheme } | Event::RunEnd { workload, scheme } => {
                vec![
                    ("workload", Str(workload.clone())),
                    ("scheme", Str(scheme.clone())),
                ]
            }
            Event::ValueCacheHit { pinned } => vec![("pinned", Bool(*pinned))],
            Event::MacFetch { addr }
            | Event::CompactOverflow { addr }
            | Event::CompactDisable { addr }
            | Event::CounterFetch { addr } => vec![("addr", Num(*addr))],
            Event::BmtWalk { depth } => vec![("depth", Num(u64::from(*depth)))],
            Event::Violation {
                kind,
                layer,
                latency,
            } => vec![
                ("kind", Str(kind.clone())),
                ("layer", Str(layer.clone())),
                ("latency_cycles", Num(*latency)),
            ],
            Event::FaultInjected { addr, kind } => {
                vec![("addr", Num(*addr)), ("kind", Str(kind.clone()))]
            }
            Event::EpochEnd { label } => vec![("label", Str(label.clone()))],
            Event::TransientFault { addr, kind } => {
                vec![("addr", Num(*addr)), ("kind", Str(kind.clone()))]
            }
            Event::FillRetry { addr, attempt } => {
                vec![("addr", Num(*addr)), ("attempt", Num(u64::from(*attempt)))]
            }
            Event::TransientRecovered { addr, retries } => {
                vec![("addr", Num(*addr)), ("retries", Num(u64::from(*retries)))]
            }
            Event::Degraded { mode, addr } => {
                vec![("mode", Str(mode.clone())), ("addr", Num(*addr))]
            }
            Event::Checkpoint { cycle } => vec![("cycle", Num(*cycle))],
            Event::CrashRestore { checkpoint_cycle } => {
                vec![("checkpoint_cycle", Num(*checkpoint_cycle))]
            }
            Event::CliError { message } => vec![("message", Str(message.clone()))],
            Event::PoolProgress {
                done,
                total,
                running,
            } => vec![
                ("done", Num(*done)),
                ("total", Num(*total)),
                ("running", Num(*running)),
            ],
            Event::JobSlow { label, elapsed_ms } => vec![
                ("label", Str(label.clone())),
                ("elapsed_ms", Num(*elapsed_ms)),
            ],
            Event::Anomaly {
                series,
                detector,
                value_milli,
                expected_milli,
                gating,
            } => vec![
                ("series", Str(series.clone())),
                ("detector", Str(detector.clone())),
                ("value_milli", Num(*value_milli)),
                ("expected_milli", Num(*expected_milli)),
                ("gating", Bool(*gating)),
            ],
            Event::Custom { name, value } => {
                vec![("name", Str((*name).to_string())), ("value", Num(*value))]
            }
            _ => vec![],
        }
    }
}

/// Every stable event kind label, in declaration order — the reference
/// the `METRICS.md` sync test checks documentation against. Adding an
/// [`Event`] variant without extending this list fails
/// `event_kinds_catalog_is_complete`.
pub const EVENT_KINDS: &[&str] = &[
    "run_start",
    "run_end",
    "value_verified",
    "value_cache_hit",
    "value_cache_miss",
    "value_cache_promotion",
    "mac_fetch",
    "mac_fetch_avoided",
    "mac_update_skipped",
    "compact_overflow",
    "compact_disable",
    "compact_fallback",
    "counter_fetch",
    "bmt_walk",
    "violation",
    "fault_injected",
    "epoch_end",
    "transient_fault",
    "fill_retry",
    "transient_recovered",
    "degraded",
    "checkpoint",
    "crash_restore",
    "cli_error",
    "sched_progress",
    "sched_slow",
    "anomaly",
    "custom",
];

/// A typed event payload value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer payload.
    Num(u64),
    /// String payload.
    Str(String),
    /// Boolean payload.
    Bool(bool),
}

/// An [`Event`] plus the clock reading when it was recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Clock reading at record time.
    pub time: u64,
    /// The event.
    pub event: Event,
}

/// Default bound on retained events.
pub const DEFAULT_EVENT_CAPACITY: usize = 16_384;

/// A bounded, thread-safe event log. When full, new events are dropped
/// (and counted) rather than evicting history: the head of a timeline
/// is usually more diagnostic than its tail. Lifecycle markers
/// (`run_start`, `run_end`, `epoch_end`) are kept even then, so a reader
/// still sees where every run and epoch ends; there is one per run or
/// epoch, so they cannot grow the log without bound.
#[derive(Debug)]
pub struct EventLog {
    events: Mutex<Retained>,
    capacity: usize,
    dropped: AtomicU64,
    high_water: AtomicU64,
}

/// The retained events: `head ++ markers` is record order.
#[derive(Debug, Default)]
struct Retained {
    /// The first `capacity` events.
    head: Vec<TimedEvent>,
    /// Markers recorded once `head` was full. A separate list, because
    /// pushing them onto a full `head` doubled its buffer: that raised
    /// the host benchmark's `observed` peak RSS by 6.3 MiB.
    markers: Vec<TimedEvent>,
}

impl EventLog {
    /// A log retaining at most `capacity` events besides the markers
    /// recorded once it is full.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Mutex::new(Retained::default()),
            capacity,
            dropped: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    /// A log that records nothing (capacity 0).
    pub fn disabled() -> Self {
        Self::with_capacity(0)
    }

    /// Records `event` at time `time`.
    pub fn record(&self, time: u64, event: Event) {
        if self.capacity == 0 {
            return;
        }
        let mut log = self.events.lock().unwrap();
        let timed = TimedEvent { time, event };
        if log.head.len() < self.capacity {
            log.head.push(timed);
        } else if matches!(
            timed.event,
            Event::RunStart { .. } | Event::RunEnd { .. } | Event::EpochEnd { .. }
        ) {
            log.markers.push(timed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let len = log.head.len() + log.markers.len();
        self.high_water.fetch_max(len as u64, Ordering::Relaxed);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        let log = self.events.lock().unwrap();
        log.head.len() + log.markers.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The most events the log ever held at once (a gauge of how close
    /// the run came to the capacity bound; at least `capacity` when any
    /// event was dropped, and past it by the markers kept since).
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// A copy of the retained events, oldest first.
    pub fn to_vec(&self) -> Vec<TimedEvent> {
        let log = self.events.lock().unwrap();
        log.head.iter().chain(&log.markers).cloned().collect()
    }

    /// Removes and returns all retained events, oldest first.
    pub fn drain(&self) -> Vec<TimedEvent> {
        let mut log = self.events.lock().unwrap();
        let Retained { head, markers } = &mut *log;
        head.drain(..).chain(markers.drain(..)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let log = EventLog::with_capacity(10);
        log.record(1, Event::ValueCacheMiss);
        log.record(2, Event::BmtWalk { depth: 3 });
        let v = log.to_vec();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].time, 1);
        assert_eq!(v[1].event, Event::BmtWalk { depth: 3 });
    }

    #[test]
    fn bounded_log_counts_drops() {
        let log = EventLog::with_capacity(2);
        for i in 0..5 {
            log.record(i, Event::ValueCacheMiss);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        // Overflow pins the high-water mark at capacity.
        assert_eq!(log.high_water(), 2);
    }

    #[test]
    fn full_log_keeps_lifecycle_markers_and_counts_other_drops() {
        let log = EventLog::with_capacity(2);
        let run = |workload: &str| Event::RunStart {
            workload: workload.into(),
            scheme: "pssm".into(),
        };
        log.record(0, run("bfs"));
        log.record(1, Event::BmtWalk { depth: 2 });
        log.record(2, Event::MacFetch { addr: 64 });
        log.record(
            3,
            Event::RunEnd {
                workload: "bfs".into(),
                scheme: "pssm".into(),
            },
        );
        log.record(
            4,
            Event::EpochEnd {
                label: "bfs/pssm".into(),
            },
        );
        log.record(5, run("lbm"));
        log.record(6, Event::CounterFetch { addr: 96 });
        let kinds: Vec<&str> = log.to_vec().iter().map(|e| e.event.kind()).collect();
        // The head is kept, so earlier indexes (a stream's cursor) stay valid.
        assert_eq!(
            kinds,
            ["run_start", "bmt_walk", "run_end", "epoch_end", "run_start"]
        );
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.high_water(), 5);
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let log = EventLog::with_capacity(8);
        assert_eq!(log.high_water(), 0);
        log.record(0, Event::ValueCacheMiss);
        log.record(1, Event::ValueCacheMiss);
        log.record(2, Event::ValueCacheMiss);
        assert_eq!(log.high_water(), 3);
        // Draining does not reset the peak.
        log.drain();
        assert_eq!(log.high_water(), 3);
        log.record(3, Event::ValueCacheMiss);
        assert_eq!(log.high_water(), 3);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = EventLog::disabled();
        log.record(0, Event::MacFetchAvoided);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.high_water(), 0);
    }

    #[test]
    fn drain_empties_the_log() {
        let log = EventLog::with_capacity(4);
        log.record(0, Event::ValueCacheMiss);
        assert_eq!(log.drain().len(), 1);
        assert!(log.is_empty());
    }

    #[test]
    fn kinds_and_fields_are_stable() {
        let e = Event::MacFetch { addr: 0x40 };
        assert_eq!(e.kind(), "mac_fetch");
        assert_eq!(e.fields(), vec![("addr", FieldValue::Num(0x40))]);
        assert!(Event::ValueCacheMiss.fields().is_empty());
        let v = Event::Violation {
            kind: "MAC mismatch at 0x40".into(),
            layer: "mac".into(),
            latency: 17,
        };
        assert_eq!(v.kind(), "violation");
        assert_eq!(
            v.fields(),
            vec![
                ("kind", FieldValue::Str("MAC mismatch at 0x40".into())),
                ("layer", FieldValue::Str("mac".into())),
                ("latency_cycles", FieldValue::Num(17)),
            ]
        );
        let fi = Event::FaultInjected {
            addr: 0x80,
            kind: "corrupt_data".into(),
        };
        assert_eq!(fi.kind(), "fault_injected");
        assert_eq!(
            fi.fields(),
            vec![
                ("addr", FieldValue::Num(0x80)),
                ("kind", FieldValue::Str("corrupt_data".into())),
            ]
        );
        assert_eq!(
            Event::RunStart {
                workload: "bfs".into(),
                scheme: "plutus".into()
            }
            .kind(),
            "run_start"
        );
    }

    /// One sample of every variant; the catalog must know each kind.
    fn one_of_each() -> Vec<Event> {
        vec![
            Event::RunStart {
                workload: "bfs".into(),
                scheme: "plutus".into(),
            },
            Event::RunEnd {
                workload: "bfs".into(),
                scheme: "plutus".into(),
            },
            Event::ValueVerified,
            Event::ValueCacheHit { pinned: true },
            Event::ValueCacheMiss,
            Event::ValueCachePromotion,
            Event::MacFetch { addr: 1 },
            Event::MacFetchAvoided,
            Event::MacUpdateSkipped,
            Event::CompactOverflow { addr: 1 },
            Event::CompactDisable { addr: 1 },
            Event::CompactFallback,
            Event::CounterFetch { addr: 1 },
            Event::BmtWalk { depth: 1 },
            Event::Violation {
                kind: "k".into(),
                layer: "mac".into(),
                latency: 1,
            },
            Event::FaultInjected {
                addr: 1,
                kind: "corrupt_data".into(),
            },
            Event::EpochEnd { label: "e".into() },
            Event::TransientFault {
                addr: 1,
                kind: "transient_data".into(),
            },
            Event::FillRetry {
                addr: 1,
                attempt: 1,
            },
            Event::TransientRecovered {
                addr: 1,
                retries: 1,
            },
            Event::Degraded {
                mode: "m".into(),
                addr: 1,
            },
            Event::Checkpoint { cycle: 1 },
            Event::CrashRestore {
                checkpoint_cycle: 1,
            },
            Event::CliError {
                message: "m".into(),
            },
            Event::PoolProgress {
                done: 1,
                total: 2,
                running: 1,
            },
            Event::JobSlow {
                label: "l".into(),
                elapsed_ms: 5,
            },
            Event::Anomaly {
                series: "s".into(),
                detector: "floor".into(),
                value_milli: 1,
                expected_milli: 2,
                gating: true,
            },
            Event::Custom {
                name: "n",
                value: 1,
            },
        ]
    }

    #[test]
    fn event_kinds_catalog_is_complete() {
        let samples = one_of_each();
        // Every sample's kind is cataloged, and the catalog holds no
        // stale entries beyond the sampled kinds.
        let mut kinds: Vec<&str> = samples.iter().map(Event::kind).collect();
        kinds.dedup();
        assert_eq!(kinds, EVENT_KINDS, "EVENT_KINDS out of sync with Event");
    }

    #[test]
    fn new_observability_events_carry_their_payloads() {
        let p = Event::PoolProgress {
            done: 3,
            total: 8,
            running: 2,
        };
        assert_eq!(p.kind(), "sched_progress");
        assert_eq!(
            p.fields(),
            vec![
                ("done", FieldValue::Num(3)),
                ("total", FieldValue::Num(8)),
                ("running", FieldValue::Num(2)),
            ]
        );
        let s = Event::JobSlow {
            label: "bfs/plutus#2".into(),
            elapsed_ms: 1500,
        };
        assert_eq!(s.kind(), "sched_slow");
        assert_eq!(
            s.fields(),
            vec![
                ("label", FieldValue::Str("bfs/plutus#2".into())),
                ("elapsed_ms", FieldValue::Num(1500)),
            ]
        );
        let a = Event::Anomaly {
            series: "tenant.t2.ipc".into(),
            detector: "zscore".into(),
            value_milli: 20,
            expected_milli: 500,
            gating: false,
        };
        assert_eq!(a.kind(), "anomaly");
        assert_eq!(a.fields().len(), 5);
    }
}
