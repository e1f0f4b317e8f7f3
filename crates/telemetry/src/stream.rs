//! The live NDJSON epoch stream (`plutus-stream/v2`).
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
//!    instead of waiting.
//! 2. **Deterministic bytes.** A stream produced under `--jobs 4` must
//!    be byte-identical to one produced under `--jobs 1` (the repo's
//!    pinned determinism property). No registered counter depends on
//!    the worker count, so every nonzero delta is streamed; wall-clock
//!    timestamps are omitted entirely — epoch `start`/`end` fields only
//!    appear when the telemetry clock counts simulated cycles.
//!
//! Stream grammar: the first line is a header object carrying the
//! schema tag; every following line is one closed epoch with its
//! nonzero counter deltas and `stream_dropped`, the cumulative count of
//! lines lost to backpressure.

use std::io::Write;

use crate::export::EpochSnapshot;
use crate::json::Json;

/// Schema tag written in the stream header line.
pub const STREAM_SCHEMA: &str = "plutus-stream/v2";

/// One open stream: a writer plus the count of lines written.
pub struct StreamSink {
    out: Box<dyn Write + Send>,
    lines: u64,
    /// Whether epoch timestamps are deterministic (cycle clock) and
    /// therefore allowed into the stream.
    with_times: bool,
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("lines", &self.lines)
            .field("with_times", &self.with_times)
            .finish()
    }
}

impl StreamSink {
    /// Wraps `out` and writes the [`STREAM_SCHEMA`] header line.
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
            lines: 1,
            with_times,
        })
    }

    /// Lines written so far (header included).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Serializes and flushes one epoch line; `dropped_so_far` is the
    /// cumulative count of lines lost to backpressure.
    pub fn emit(&mut self, epoch: &EpochSnapshot, dropped_so_far: u64) -> std::io::Result<()> {
        let line = stream_line(epoch, dropped_so_far, self.with_times);
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
/// timestamps, nonzero counter deltas, and the cumulative count of
/// lines dropped by backpressure.
pub fn stream_line(epoch: &EpochSnapshot, dropped_so_far: u64, with_times: bool) -> Json {
    let deltas = epoch
        .counter_deltas
        .iter()
        .filter(|(_, v)| *v != 0)
        .fold(Json::object(), |o, (n, v)| o.set(n, *v));
    let mut line = Json::object()
        .set("epoch", epoch.index)
        .set("label", epoch.label.as_str());
    if with_times {
        line = line
            .set("start", epoch.start_time)
            .set("end", epoch.end_time);
    }
    line.set("deltas", deltas)
        .set("stream_dropped", dropped_so_far)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let line = stream_line(&epoch(), 0, true);
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
        let line = stream_line(&epoch(), 3, false);
        assert!(line.get("start").is_none());
        assert!(line.get("end").is_none());
        assert_eq!(line.get("stream_dropped").and_then(Json::as_u64), Some(3));
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
    fn sink_writes_header_then_one_line_per_epoch() {
        let shared = Arc::new(Mutex::new(Vec::new()));
        let mut sink = StreamSink::new(Box::new(Tee(shared.clone())), "cycles").unwrap();
        sink.emit(&epoch(), 0).unwrap();
        sink.emit(&epoch(), 1).unwrap();
        assert_eq!(sink.lines(), 3);
        let lines = lines_of(&shared);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0].get("schema").and_then(Json::as_str),
            Some(STREAM_SCHEMA)
        );
        assert_eq!(
            lines[2].get("label").and_then(Json::as_str),
            Some("cycle-400")
        );
        assert_eq!(
            lines[2].get("stream_dropped").and_then(Json::as_u64),
            Some(1)
        );
    }
}
