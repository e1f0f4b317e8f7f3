//! The live NDJSON epoch stream (`plutus-stream/v1`).
//!
//! Batch exporters ([`crate::Report`]) only exist after a run ends; the
//! stream sink flushes each closed epoch as one JSON line the moment
//! [`crate::Telemetry::end_epoch`] closes it, so an hour-two IPC
//! collapse in a soak run is visible while the run is still going.
//!
//! Design constraints, in order:
//!
//! 1. **Never block the simulation loop.** Emission uses `try_lock` on
//!    the sink and counts a dropped line on contention or I/O error
//!    instead of waiting — the same drop-counting backpressure the
//!    bounded [`crate::EventLog`] uses.
//! 2. **Deterministic bytes.** A stream produced under `--jobs 4` must
//!    be byte-identical to one produced under `--jobs 1` (the repo's
//!    pinned determinism property). No registered counter depends on
//!    the worker count, so every nonzero delta is streamed; wall-clock
//!    timestamps are omitted entirely — epoch `start`/`end` and event
//!    `t` fields only appear when the telemetry clock counts simulated
//!    cycles.
//!
//! Stream grammar: the first line is a header object carrying the
//! schema tag; every following line is one closed epoch with its
//! nonzero counter deltas, the typed events recorded since the
//! previous line, and two cumulative loss counts: `stream_dropped`,
//! the lines lost to backpressure, and `events_dropped`, the events the
//! bounded [`crate::EventLog`] dropped because it was full. The log
//! holds only run-level events (per-access happenings are counters), so
//! `events_dropped` stays 0 unless a campaign injects more faults than
//! the log holds; a line whose count grew lists only part of its
//! epoch's events, but never loses a `run_start`, `run_end` or
//! `epoch_end` marker.

use std::io::Write;

use crate::events::TimedEvent;
use crate::export::EpochSnapshot;
use crate::json::Json;

/// Schema tag written in the stream header line.
pub const STREAM_SCHEMA: &str = "plutus-stream/v1";

/// One open stream: a writer plus the cursor of events already emitted.
pub struct StreamSink {
    out: Box<dyn Write + Send>,
    /// Events already emitted on earlier lines (the event log keeps its
    /// head when full, so earlier indexes stay stable).
    events_seen: usize,
    lines: u64,
    /// Whether epoch and event timestamps are deterministic (cycle
    /// clock) and therefore allowed into the stream.
    with_times: bool,
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("events_seen", &self.events_seen)
            .field("lines", &self.lines)
            .field("with_times", &self.with_times)
            .finish()
    }
}

impl StreamSink {
    /// Wraps `out` and writes the `plutus-stream/v1` header line.
    /// `time_unit` decides whether timestamps are streamed (only
    /// `"cycles"` is deterministic).
    pub fn new(mut out: Box<dyn Write + Send>, time_unit: &str) -> std::io::Result<StreamSink> {
        let with_times = time_unit == "cycles";
        let header = Json::object()
            .set("schema", STREAM_SCHEMA)
            .set("time_unit", time_unit)
            .set("times", with_times);
        writeln!(out, "{}", header.to_string_compact())?;
        out.flush()?;
        Ok(StreamSink {
            out,
            events_seen: 0,
            lines: 1,
            with_times,
        })
    }

    /// Lines written so far (header included).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The cursor into the event log: how many events earlier lines
    /// carried.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Serializes and flushes one epoch line. `fresh` is the event log
    /// past [`StreamSink::events_seen`], which moves past them;
    /// `events_dropped` is the log's cumulative drop count.
    pub fn emit(
        &mut self,
        epoch: &EpochSnapshot,
        fresh: &[TimedEvent],
        dropped_so_far: u64,
        events_dropped: u64,
    ) -> std::io::Result<()> {
        self.events_seen += fresh.len();
        let line = stream_line(
            epoch,
            fresh,
            dropped_so_far,
            events_dropped,
            self.with_times,
        );
        writeln!(self.out, "{}", line.to_string_compact())?;
        self.out.flush()?;
        self.lines += 1;
        Ok(())
    }

    /// Flushes buffered output (called on close).
    pub fn finish(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Renders one epoch line: index, label, optional deterministic
/// timestamps, nonzero counter deltas, fresh events, the cumulative
/// count of lines dropped by backpressure, and the cumulative count of
/// events the event log dropped.
pub fn stream_line(
    epoch: &EpochSnapshot,
    events: &[TimedEvent],
    dropped_so_far: u64,
    events_dropped: u64,
    with_times: bool,
) -> Json {
    let deltas = epoch
        .counter_deltas
        .iter()
        .filter(|(_, v)| *v != 0)
        .fold(Json::object(), |o, (n, v)| o.set(n, *v));
    let events: Vec<Json> = events
        .iter()
        .map(|te| {
            let base = if with_times {
                Json::object().set("t", te.time)
            } else {
                Json::object()
            };
            te.event
                .fields()
                .into_iter()
                .fold(base.set("kind", te.event.kind()), |o, (k, v)| o.set(k, v))
        })
        .collect();
    let mut line = Json::object()
        .set("epoch", epoch.index)
        .set("label", epoch.label.as_str());
    if with_times {
        line = line
            .set("start", epoch.start_time)
            .set("end", epoch.end_time);
    }
    line.set("deltas", deltas)
        .set("events", events)
        .set("stream_dropped", dropped_so_far)
        .set("events_dropped", events_dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;
    use crate::{CycleClock, Telemetry};
    use std::sync::{Arc, Mutex};

    fn epoch() -> EpochSnapshot {
        EpochSnapshot {
            index: 2,
            label: "cycle-400".into(),
            start_time: 200,
            end_time: 400,
            counter_deltas: vec![
                ("traffic.data.read_bytes".into(), 4096),
                ("sched.jobs".into(), 7),
                ("zeros".into(), 0),
            ],
        }
    }

    #[test]
    fn line_filters_zero_deltas() {
        let line = stream_line(&epoch(), &[], 0, 0, true);
        let deltas = line.get("deltas").unwrap();
        assert_eq!(
            deltas.get("traffic.data.read_bytes").and_then(Json::as_u64),
            Some(4096)
        );
        assert_eq!(deltas.get("sched.jobs").and_then(Json::as_u64), Some(7));
        assert!(deltas.get("zeros").is_none());
        assert_eq!(line.get("start").and_then(Json::as_u64), Some(200));
    }

    #[test]
    fn wall_clock_lines_omit_times() {
        let ev = TimedEvent {
            time: 123,
            event: Event::Checkpoint { cycle: 100 },
        };
        let line = stream_line(&epoch(), &[ev], 3, 5, false);
        assert!(line.get("start").is_none());
        assert!(line.get("end").is_none());
        let events = line.get("events").and_then(Json::as_array).unwrap();
        assert!(events[0].get("t").is_none());
        assert_eq!(
            events[0].get("kind").and_then(Json::as_str),
            Some("checkpoint")
        );
        assert_eq!(line.get("stream_dropped").and_then(Json::as_u64), Some(3));
        assert_eq!(line.get("events_dropped").and_then(Json::as_u64), Some(5));
    }

    /// A writer whose bytes stay readable through the shared buffer.
    struct Tee(Arc<Mutex<Vec<u8>>>);

    impl Write for Tee {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn lines_of(shared: &Mutex<Vec<u8>>) -> Vec<Json> {
        String::from_utf8(shared.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect()
    }

    #[test]
    fn sink_writes_header_then_epochs_and_tracks_cursor() {
        let shared = Arc::new(Mutex::new(Vec::new()));
        let mut sink = StreamSink::new(Box::new(Tee(shared.clone())), "cycles").unwrap();
        let evs = [
            TimedEvent {
                time: 1,
                event: Event::Checkpoint { cycle: 1 },
            },
            TimedEvent {
                time: 2,
                event: Event::CrashRestore {
                    checkpoint_cycle: 1,
                },
            },
        ];
        sink.emit(&epoch(), &evs[..1], 0, 0).unwrap();
        assert_eq!(sink.events_seen(), 1);
        sink.emit(&epoch(), &evs[1..], 0, 0).unwrap();
        assert_eq!(sink.events_seen(), 2);
        assert_eq!(sink.lines(), 3);
        let lines = lines_of(&shared);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0].get("schema").and_then(Json::as_str),
            Some(STREAM_SCHEMA)
        );
        // Each line carries only the events it was handed.
        let evs = lines[2].get("events").and_then(Json::as_array).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(
            evs[0].get("kind").and_then(Json::as_str),
            Some("crash_restore")
        );
    }

    /// Two runs overflow a two-event log: each line still carries its
    /// run's `run_end` and its epoch's `epoch_end`, the next run's
    /// `run_start` is not lost, and `events_dropped` counts the rest.
    #[test]
    fn full_event_log_streams_markers_and_its_drop_count() {
        let tel = Telemetry::with_event_capacity(Arc::new(CycleClock::new()), 2);
        let shared = Arc::new(Mutex::new(Vec::new()));
        tel.stream_to(Box::new(Tee(shared.clone()))).unwrap();
        for (end, workload) in [(100, "bfs"), (200, "lbm")] {
            let (workload, scheme) = (workload.to_string(), "pssm".to_string());
            tel.event(Event::RunStart {
                workload: workload.clone(),
                scheme: scheme.clone(),
            });
            for addr in 0..3 {
                tel.event(Event::FaultInjected {
                    addr,
                    kind: "corrupt_data".into(),
                });
            }
            tel.advance_clock(end);
            tel.event(Event::RunEnd {
                workload: workload.clone(),
                scheme,
            });
            tel.end_epoch(&format!("{workload}/pssm"));
        }
        tel.close_stream();
        let lines = lines_of(&shared);
        assert_eq!(lines.len(), 3);
        let kinds = |line: &Json| -> Vec<String> {
            line.get("events")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|e| e.get("kind").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            kinds(&lines[1]),
            ["run_start", "fault_injected", "run_end", "epoch_end"]
        );
        assert_eq!(kinds(&lines[2]), ["run_start", "run_end", "epoch_end"]);
        let dropped: Vec<u64> = lines[1..]
            .iter()
            .map(|l| l.get("events_dropped").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(dropped, [2, 5]);
    }
}
