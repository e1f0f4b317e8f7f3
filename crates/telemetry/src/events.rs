//! Typed events and the bounded event log.
//!
//! An event marks something that happens at most once per run, epoch,
//! injected fault, detected violation, recovery step or scheduler tick —
//! a run starting, a fault injected, an engine degrading — stamped with
//! the telemetry clock. Per-access happenings (a MAC fetch, a BMT walk, a
//! value-cache hit) are not events: [`crate::MetricsRegistry`] counters
//! total them, and the flight recorder ([`crate::Tracer`]) keeps each one
//! when it is armed. The log is still bounded, because a campaign logs
//! per injected fault or transient: once full, new events are counted as
//! dropped rather than growing without limit.

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
}

impl Event {
    /// Stable kind label used by exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::RunEnd { .. } => "run_end",
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
];

/// A typed event payload value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer payload.
    Num(u64),
    /// String payload.
    Str(String),
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
/// is usually more diagnostic than its tail, and earlier indexes stay
/// valid cursors for [`EventLog::since`]. Lifecycle markers
/// (`run_start`, `run_end`, `epoch_end`) are pushed even then, so a
/// reader still sees where every run and epoch ends; there is one per
/// run or epoch, so they cannot grow the log without bound.
#[derive(Debug)]
pub struct EventLog {
    events: Mutex<Vec<TimedEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl EventLog {
    /// A log retaining at most `capacity` events besides the lifecycle
    /// markers recorded once it is full.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Mutex::new(Vec::new()),
            capacity,
            dropped: AtomicU64::new(0),
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
        let marker = matches!(
            event,
            Event::RunStart { .. } | Event::RunEnd { .. } | Event::EpochEnd { .. }
        );
        let mut log = self.events.lock().unwrap();
        if log.len() >= self.capacity && !marker {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        log.push(TimedEvent { time, event });
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the events retained after the first `cursor`, oldest
    /// first (empty when `cursor` is at or past the end).
    pub fn since(&self, cursor: usize) -> Vec<TimedEvent> {
        let log = self.events.lock().unwrap();
        log.get(cursor..).unwrap_or_default().to_vec()
    }

    /// A copy of the retained events, oldest first.
    pub fn to_vec(&self) -> Vec<TimedEvent> {
        self.since(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkpoint(cycle: u64) -> Event {
        Event::Checkpoint { cycle }
    }

    fn run_start(workload: &str) -> Event {
        Event::RunStart {
            workload: workload.into(),
            scheme: "pssm".into(),
        }
    }

    #[test]
    fn records_in_order() {
        let log = EventLog::with_capacity(10);
        log.record(1, checkpoint(100));
        log.record(2, checkpoint(200));
        let v = log.to_vec();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].time, 1);
        assert_eq!(v[1].event, checkpoint(200));
    }

    #[test]
    fn bounded_log_counts_drops() {
        let log = EventLog::with_capacity(2);
        for i in 0..5 {
            log.record(i, checkpoint(i));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn full_log_keeps_lifecycle_markers_and_counts_other_drops() {
        let log = EventLog::with_capacity(2);
        let fault = |addr: u64| Event::FaultInjected {
            addr,
            kind: "corrupt_data".into(),
        };
        log.record(0, run_start("bfs"));
        log.record(1, fault(32));
        log.record(2, fault(64));
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
        log.record(5, run_start("lbm"));
        log.record(6, fault(96));
        let kinds: Vec<&str> = log.to_vec().iter().map(|e| e.event.kind()).collect();
        // The head is kept, so earlier indexes (a stream's cursor) stay valid.
        assert_eq!(
            kinds,
            [
                "run_start",
                "fault_injected",
                "run_end",
                "epoch_end",
                "run_start"
            ]
        );
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.len(), 5);
    }

    #[test]
    fn since_is_the_suffix_past_a_cursor() {
        let log = EventLog::with_capacity(3);
        for i in 0..3 {
            log.record(i, checkpoint(i));
        }
        // Full: one marker is pushed, the checkpoint after it dropped.
        log.record(3, run_start("bfs"));
        log.record(4, checkpoint(4));
        let all = log.to_vec();
        assert_eq!(all.len(), 4);
        for k in [0, 2, 3, all.len()] {
            assert_eq!(log.since(k), all[k..], "cursor {k}");
        }
        assert!(log.since(all.len() + 1).is_empty());
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = EventLog::disabled();
        log.record(0, checkpoint(0));
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn kinds_and_fields_are_stable() {
        let e = checkpoint(0x40);
        assert_eq!(e.kind(), "checkpoint");
        assert_eq!(e.fields(), vec![("cycle", FieldValue::Num(0x40))]);
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
    }
}
