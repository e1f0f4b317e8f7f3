//! Exporters: JSON, CSV, and a human-readable summary table.
//!
//! All three render a [`Report`] — an immutable bundle of the cumulative
//! registry snapshot, the per-epoch time series, and the event log — so
//! a single run can be exported to multiple sinks consistently.

use crate::events::{FieldValue, TimedEvent};
use crate::json::Json;
use crate::metrics::Snapshot;

/// One closed epoch: the counter deltas accumulated between two
/// consecutive snapshots.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Zero-based epoch index.
    pub index: usize,
    /// Caller-supplied label (e.g. `"bfs/plutus"` or `"cycle-100000"`).
    pub label: String,
    /// Clock reading when the epoch opened.
    pub start_time: u64,
    /// Clock reading when the epoch closed.
    pub end_time: u64,
    /// Non-negative per-counter deltas over the epoch.
    pub counter_deltas: Vec<(String, u64)>,
}

impl EpochSnapshot {
    /// Delta of counter `name` over this epoch (0 if unregistered).
    pub fn delta(&self, name: &str) -> u64 {
        self.counter_deltas
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// An immutable export bundle; build one with
/// [`crate::Telemetry::report`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Unit of every timestamp in the report (`"cycles"`, `"ns"`).
    pub time_unit: &'static str,
    /// Cumulative registry totals at report time.
    pub totals: Snapshot,
    /// Closed epochs, oldest first.
    pub epochs: Vec<EpochSnapshot>,
    /// Retained events, oldest first.
    pub events: Vec<TimedEvent>,
    /// Events dropped because the log was full.
    pub events_dropped: u64,
}

impl From<FieldValue> for Json {
    fn from(v: FieldValue) -> Json {
        match v {
            FieldValue::Num(n) => Json::U64(n),
            FieldValue::Str(s) => Json::Str(s),
            FieldValue::Bool(b) => Json::Bool(b),
        }
    }
}

impl Report {
    /// The full report as a JSON document.
    pub fn to_json(&self) -> Json {
        let counters = self
            .totals
            .counters
            .iter()
            .fold(Json::object(), |o, (n, v)| o.set(n, *v));
        let gauges = self
            .totals
            .gauges
            .iter()
            .fold(Json::object(), |o, (n, v)| o.set(n, *v));
        let histograms = self
            .totals
            .histograms
            .iter()
            .fold(Json::object(), |o, (n, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|b| {
                        Json::object()
                            .set("lo", b.lo)
                            .set("hi", b.hi)
                            .set("count", b.count)
                    })
                    .collect::<Vec<_>>();
                o.set(
                    n,
                    Json::object()
                        .set("count", h.count)
                        .set("sum", h.sum)
                        .set("min", h.min)
                        .set("max", h.max)
                        .set("mean", h.mean())
                        .set("p50", h.quantile(0.5))
                        .set("p95", h.quantile(0.95))
                        .set("buckets", buckets),
                )
            });
        let epochs = self
            .epochs
            .iter()
            .map(|e| {
                let deltas = e
                    .counter_deltas
                    .iter()
                    .filter(|(_, v)| *v != 0)
                    .fold(Json::object(), |o, (n, v)| o.set(n, *v));
                Json::object()
                    .set("index", e.index)
                    .set("label", e.label.as_str())
                    .set("start", e.start_time)
                    .set("end", e.end_time)
                    .set("deltas", deltas)
            })
            .collect::<Vec<_>>();
        let events = self
            .events
            .iter()
            .map(|te| {
                te.event.fields().into_iter().fold(
                    Json::object()
                        .set("t", te.time)
                        .set("kind", te.event.kind()),
                    |o, (k, v)| o.set(k, v),
                )
            })
            .collect::<Vec<_>>();
        Json::object()
            .set(
                "meta",
                Json::object()
                    .set("tool", "plutus-telemetry")
                    .set("time_unit", self.time_unit)
                    .set("snapshot_time", self.totals.time)
                    .set("epochs", self.epochs.len())
                    .set("events_dropped", self.events_dropped),
            )
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", histograms)
            .set("epochs", epochs)
            .set("events", events)
    }

    /// The full report as flat CSV with header
    /// `record,epoch,name,field,value`.
    ///
    /// Record kinds: `counter` / `gauge` (cumulative totals),
    /// `histogram` (one row per summary stat), `histogram_bucket`
    /// (field = bucket lower bound), `epoch` (one row per nonzero
    /// counter delta; `epoch` column = index, `name` = epoch label,
    /// `field` = counter name), and `event`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("record,epoch,name,field,value\n");
        let mut row = |record: &str, epoch: &str, name: &str, field: &str, value: String| {
            out.push_str(&csv_field(record));
            out.push(',');
            out.push_str(&csv_field(epoch));
            out.push(',');
            out.push_str(&csv_field(name));
            out.push(',');
            out.push_str(&csv_field(field));
            out.push(',');
            out.push_str(&csv_field(&value));
            out.push('\n');
        };
        for (n, v) in &self.totals.counters {
            row("counter", "", n, "total", v.to_string());
        }
        for (n, v) in &self.totals.gauges {
            row("gauge", "", n, "value", v.to_string());
        }
        for (n, h) in &self.totals.histograms {
            row("histogram", "", n, "count", h.count.to_string());
            row("histogram", "", n, "sum", h.sum.to_string());
            row("histogram", "", n, "min", h.min.to_string());
            row("histogram", "", n, "max", h.max.to_string());
            row("histogram", "", n, "mean", format!("{:.3}", h.mean()));
            for b in &h.buckets {
                row(
                    "histogram_bucket",
                    "",
                    n,
                    &b.lo.to_string(),
                    b.count.to_string(),
                );
            }
        }
        for e in &self.epochs {
            for (n, v) in &e.counter_deltas {
                if *v != 0 {
                    row("epoch", &e.index.to_string(), &e.label, n, v.to_string());
                }
            }
        }
        for te in &self.events {
            let fields = te
                .event
                .fields()
                .into_iter()
                .map(|(k, v)| {
                    let v = match v {
                        FieldValue::Num(n) => n.to_string(),
                        FieldValue::Str(s) => s,
                        FieldValue::Bool(b) => b.to_string(),
                    };
                    format!("{k}={v}")
                })
                .collect::<Vec<_>>()
                .join(";");
            row(
                "event",
                &te.time.to_string(),
                te.event.kind(),
                &fields,
                String::new(),
            );
        }
        out
    }

    /// A fixed-width summary table for terminal output: counters and
    /// histogram digests, epochs elided to a count.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let width = self
            .totals
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.totals.histograms.iter().map(|(n, _)| n.len()))
            .chain(self.totals.gauges.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(8)
            .max(8);
        out.push_str(&format!(
            "telemetry summary ({} epochs, {} events{})\n",
            self.epochs.len(),
            self.events.len(),
            if self.events_dropped > 0 {
                format!(", {} dropped", self.events_dropped)
            } else {
                String::new()
            }
        ));
        for (n, v) in &self.totals.counters {
            out.push_str(&format!("  {n:width$}  {v:>14}\n"));
        }
        for (n, v) in &self.totals.gauges {
            out.push_str(&format!("  {n:width$}  {v:>14}  (gauge)\n"));
        }
        for (n, h) in &self.totals.histograms {
            out.push_str(&format!(
                "  {n:width$}  n={} mean={:.1} p50={} p95={} max={}\n",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.max
            ));
        }
        out
    }
}

/// Quotes a CSV field when needed (commas, quotes, newlines).
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;
    use crate::metrics::MetricsRegistry;

    fn sample_report() -> Report {
        let reg = MetricsRegistry::new();
        reg.counter("traffic.data.read_bytes").add(4096);
        reg.gauge("occupancy").set(12);
        let h = reg.histogram("bmt.walk_depth");
        h.record(1);
        h.record(3);
        let totals = reg.snapshot(100);
        let epoch = EpochSnapshot {
            index: 0,
            label: "bfs/plutus".into(),
            start_time: 0,
            end_time: 100,
            counter_deltas: vec![("traffic.data.read_bytes".into(), 4096)],
        };
        Report {
            time_unit: "cycles",
            totals,
            epochs: vec![epoch],
            events: vec![TimedEvent {
                time: 42,
                event: Event::Checkpoint { cycle: 42 },
            }],
            events_dropped: 0,
        }
    }

    #[test]
    fn json_has_all_sections() {
        let doc = sample_report().to_json();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("traffic.data.read_bytes"))
                .and_then(Json::as_u64),
            Some(4096)
        );
        assert_eq!(
            doc.get("epochs")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        let h = doc
            .get("histograms")
            .and_then(|h| h.get("bmt.walk_depth"))
            .unwrap();
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(
            doc.get("events")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        // Must parse as a self-consistent document string.
        let s = doc.to_string_pretty();
        assert!(s.starts_with('{') && s.ends_with('}'));
    }

    #[test]
    fn csv_is_flat_and_parseable() {
        let csv = sample_report().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("record,epoch,name,field,value"));
        for line in lines {
            assert_eq!(line.split(',').count(), 5, "bad row: {line}");
        }
        assert!(csv.contains("counter,,traffic.data.read_bytes,total,4096"));
        assert!(csv.contains("epoch,0,bfs/plutus,traffic.data.read_bytes,4096"));
        assert!(csv.contains("histogram_bucket,,bmt.walk_depth,1,1"));
    }

    #[test]
    fn csv_quotes_embedded_commas() {
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn summary_mentions_counters_and_histograms() {
        let s = sample_report().summary_table();
        assert!(s.contains("traffic.data.read_bytes"));
        assert!(s.contains("bmt.walk_depth"));
        assert!(s.contains("1 epochs"));
    }
}
