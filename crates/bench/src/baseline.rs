//! The perf-regression baseline: canonical benchmark snapshots
//! (`--bench-out`). `--compare` diffs one against the committed
//! `BENCH_<pr>.json` through the obs-diff engine
//! ([`crate::obsdiff::diff_documents`]), where only moves in a metric's
//! *bad* direction fail: an IPC drop, a traffic or overhead rise, a
//! latency rise. Improvements pass silently — the snapshot is a floor,
//! not a pin.

use crate::report::degenerate_workloads;
use crate::runner::Measurement;
use plutus_telemetry::Json;

/// Schema tag stamped into every snapshot so future readers can detect
/// incompatible layouts instead of mis-parsing them.
pub const BENCH_SCHEMA: &str = "plutus-bench/v1";

/// Provenance embedded in a snapshot by [`bench_snapshot_with`]: the
/// knobs that make two snapshots comparable at all. The diff engine
/// refuses snapshots whose provenance disagrees — a scalar-vs-AES-NI
/// comparison or a cross-seed comparison is not a regression signal, it
/// is two different experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchProvenance {
    /// The `--seed` the run used.
    pub seed: u64,
    /// Active crypto backend label (e.g. `"scalar"`, `"aes-ni"`).
    pub crypto_backend: String,
    /// Workspace version that produced the snapshot.
    pub version: String,
}

impl BenchProvenance {
    fn to_json(&self) -> Json {
        Json::object()
            .set("seed", self.seed)
            .set("crypto_backend", self.crypto_backend.as_str())
            .set("version", self.version.as_str())
    }
}

/// Builds the canonical perf snapshot for a matrix of measurements:
/// per (workload, scheme) entry the IPC, normalized IPC, cycle count,
/// per-class DRAM bytes, metadata overhead, and latency figures the
/// regression gate compares. A top-level `degenerate_norm_ipc` array
/// names every workload whose schemes all finished in an identical
/// cycle count — the state where normalized IPC reads 1.0 everywhere
/// and the snapshot carries no real signal. (It holds strings, not
/// numeric leaves, so older baselines without it still compare.)
pub fn bench_snapshot(measurements: &[Measurement]) -> Json {
    snapshot_impl(measurements, None)
}

/// [`bench_snapshot`] with embedded [`BenchProvenance`]. Snapshots
/// without provenance (older baselines) still compare against anything;
/// once both sides carry it, mismatched seeds or crypto backends make
/// the comparison fail loudly instead of reporting nonsense deltas.
pub fn bench_snapshot_with(measurements: &[Measurement], provenance: &BenchProvenance) -> Json {
    snapshot_impl(measurements, Some(provenance))
}

fn snapshot_impl(measurements: &[Measurement], provenance: Option<&BenchProvenance>) -> Json {
    let mut entries = Vec::new();
    for m in measurements {
        let mut classes = Json::object();
        for (label, bytes) in &m.class_bytes {
            classes = classes.set(label, *bytes);
        }
        entries.push(
            Json::object()
                .set("workload", m.workload.as_str())
                .set("scheme", m.scheme.as_str())
                .set("ipc", m.ipc)
                .set("norm_ipc", m.norm_ipc)
                .set("cycles", m.cycles)
                .set("total_bytes", m.total_bytes)
                .set("metadata_bytes", m.metadata_bytes)
                .set("metadata_overhead_pct", overhead_pct(m))
                .set("class_bytes", classes)
                .set("avg_fill_latency", m.avg_fill_latency)
                .set("detection_latency_mean", m.detection_latency_mean),
        );
    }
    let mut doc = Json::object()
        .set("schema", BENCH_SCHEMA)
        .set(
            "degenerate_norm_ipc",
            Json::Array(
                degenerate_workloads(measurements)
                    .into_iter()
                    .map(Json::from)
                    .collect(),
            ),
        )
        .set("entries", Json::Array(entries));
    if let Some(p) = provenance {
        doc = doc.set("provenance", p.to_json());
    }
    doc
}

fn overhead_pct(m: &Measurement) -> f64 {
    if m.total_bytes == 0 {
        0.0
    } else {
        m.metadata_bytes as f64 / m.total_bytes as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obsdiff::diff_documents;

    fn sample_measurement(ipc: f64, total: u64, meta: u64) -> Measurement {
        Measurement {
            workload: "w".into(),
            scheme: "plutus".into(),
            ipc,
            norm_ipc: 0.9,
            cycles: 1000,
            total_bytes: total,
            metadata_bytes: meta,
            class_bytes: vec![("data".into(), total - meta), ("mac".into(), meta)],
            avg_fill_latency: 120.0,
            ..Measurement::default()
        }
    }

    #[test]
    fn snapshot_carries_schema_and_entries() {
        let snap = bench_snapshot(&[sample_measurement(1.5, 1000, 200)]);
        assert_eq!(snap.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        let entries = snap.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].get("metadata_overhead_pct").unwrap().as_f64(),
            Some(20.0)
        );
    }

    #[test]
    fn snapshot_flags_degenerate_workloads() {
        // Two schemes of workload "w" with the identical cycle count.
        let mut baseline = sample_measurement(1.5, 1000, 200);
        baseline.scheme = "no-security".into();
        let snap = bench_snapshot(&[baseline, sample_measurement(1.5, 1000, 200)]);
        let deg = snap.get("degenerate_norm_ipc").unwrap().as_array().unwrap();
        assert_eq!(deg.len(), 1);
        assert_eq!(deg[0].as_str(), Some("w"));
        // A lone entry can't be degenerate.
        let snap = bench_snapshot(&[sample_measurement(1.5, 1000, 200)]);
        let deg = snap.get("degenerate_norm_ipc").unwrap().as_array().unwrap();
        assert!(deg.is_empty());
    }

    /// The `--compare` gate: the paths of every leaf of `cur` that
    /// regressed against `base`.
    fn compare(cur: &Json, base: &Json, tolerance: f64) -> Result<Vec<String>, String> {
        let diff = diff_documents("bench", base, cur)?;
        Ok(diff
            .regressions(tolerance)
            .iter()
            .map(|r| r.path.clone())
            .collect())
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = bench_snapshot(&[sample_measurement(1.5, 1000, 200)]);
        assert!(compare(&s, &s, 0.02).unwrap().is_empty());
    }

    #[test]
    fn ipc_drop_beyond_tolerance_fails() {
        let base = bench_snapshot(&[sample_measurement(1.5, 1000, 200)]);
        let cur = bench_snapshot(&[sample_measurement(1.4, 1000, 200)]);
        let regressions = compare(&cur, &base, 0.02).unwrap();
        assert_eq!(regressions, vec!["entries[w/plutus].ipc"]);
        // A 6.7% drop inside a 10% tolerance passes.
        assert!(compare(&cur, &base, 0.10).unwrap().is_empty());
    }

    #[test]
    fn traffic_rise_fails_but_improvement_passes() {
        let base = bench_snapshot(&[sample_measurement(1.5, 1000, 200)]);
        let worse = bench_snapshot(&[sample_measurement(1.5, 1200, 300)]);
        let better = bench_snapshot(&[sample_measurement(1.6, 900, 150)]);
        let regressions = compare(&worse, &base, 0.02).unwrap();
        assert!(regressions.contains(&"entries[w/plutus].total_bytes".to_string()));
        assert!(regressions.contains(&"entries[w/plutus].class_bytes.mac".to_string()));
        assert!(compare(&better, &base, 0.02).unwrap().is_empty());
    }

    #[test]
    fn missing_entry_is_a_regression() {
        let other = Measurement {
            workload: "other".into(),
            ..sample_measurement(1.0, 500, 100)
        };
        let base = bench_snapshot(&[sample_measurement(1.5, 1000, 200), other]);
        let cur = bench_snapshot(&[sample_measurement(1.5, 1000, 200)]);
        let regressions = compare(&cur, &base, 0.02).unwrap();
        assert!(!regressions.is_empty());
        assert!(regressions
            .iter()
            .all(|r| r.starts_with("entries[other/plutus].")));
        // A metric missing from otherwise present entries fails too.
        let text = base.to_string_compact().replace("\"cycles\":1000,", "");
        assert_eq!(
            compare(&Json::parse(&text).unwrap(), &base, 0.02).unwrap(),
            vec!["entries[other/plutus].cycles", "entries[w/plutus].cycles"]
        );
    }

    #[test]
    fn non_finite_metric_fails_the_gate() {
        // NaN compares false against every threshold; before the guard,
        // a NaN metric sailed through `--compare --tolerance` silently.
        let base = bench_snapshot(&[sample_measurement(1.5, 1000, 200)]);
        for (cur_ipc, base_latency) in [(f64::NAN, 120.0), (1.5, f64::INFINITY)] {
            let cur = bench_snapshot(&[sample_measurement(cur_ipc, 1000, 200)]);
            let mut base_m = sample_measurement(1.5, 1000, 200);
            base_m.avg_fill_latency = base_latency;
            let regressions = compare(&cur, &bench_snapshot(&[base_m]), 0.5).unwrap();
            assert_eq!(
                regressions.len(),
                1,
                "non-finite value must fail: {regressions:?}"
            );
        }
        // Through the text round trip a NaN serializes as null: the leaf
        // vanishes, which fails as well.
        let cur = bench_snapshot(&[sample_measurement(f64::NAN, 1000, 200)]).to_string_pretty();
        let cur = Json::parse(&cur).unwrap();
        assert_eq!(
            compare(&cur, &base, 0.5).unwrap(),
            vec!["entries[w/plutus].ipc"]
        );
    }

    #[test]
    fn provenance_mismatch_is_an_error() {
        let rows = [sample_measurement(1.5, 1000, 200)];
        let scalar = BenchProvenance {
            seed: 42,
            crypto_backend: "scalar".into(),
            version: "0.1.0".into(),
        };
        let simd = BenchProvenance {
            crypto_backend: "aes-ni".into(),
            ..scalar.clone()
        };
        let reseeded = BenchProvenance {
            seed: 7,
            ..scalar.clone()
        };
        let a = bench_snapshot_with(&rows, &scalar);
        let b = bench_snapshot_with(&rows, &simd);
        let c = bench_snapshot_with(&rows, &reseeded);
        let bare = bench_snapshot(&rows);
        // Same provenance: compares normally.
        assert!(compare(&a, &a, 0.02).unwrap().is_empty());
        // Backend or seed mismatch: loud error, not a silent diff.
        let err = compare(&a, &b, 0.02).unwrap_err();
        assert!(err.contains("crypto_backend"), "got: {err}");
        let err = compare(&a, &c, 0.02).unwrap_err();
        assert!(err.contains("seed"), "got: {err}");
        // Provenance on one side only (older committed baselines):
        // the check stays disarmed so existing gates keep passing.
        assert!(compare(&a, &bare, 0.02).unwrap().is_empty());
        assert!(compare(&bare, &b, 0.02).unwrap().is_empty());
        // Version differences alone do not block comparison.
        let d = bench_snapshot_with(
            &rows,
            &BenchProvenance {
                version: "9.9.9".into(),
                ..scalar
            },
        );
        assert!(compare(&a, &d, 0.02).unwrap().is_empty());
    }

    #[test]
    fn provenance_is_an_identity_check_never_a_leaf() {
        let rows = [sample_measurement(1.5, 1000, 200)];
        let p = |seed| BenchProvenance {
            seed,
            crypto_backend: "scalar".into(),
            version: "0.1.0".into(),
        };
        // One-sided provenance carries a numeric seed, yet no leaf moves.
        let diff = diff_documents(
            "bench",
            &bench_snapshot(&rows),
            &bench_snapshot_with(&rows, &p(42)),
        );
        assert!(diff.unwrap().changed.is_empty());
        // The committed baseline has no provenance and compares clean
        // against itself with provenance attached.
        let committed = Json::parse(include_str!("../../../BENCH_8.json")).unwrap();
        let Json::Object(mut fields) = committed.clone() else {
            unreachable!()
        };
        fields.push(("provenance".into(), Json::object().set("seed", 42u64)));
        let diff = diff_documents("BENCH_8.json", &committed, &Json::Object(fields)).unwrap();
        assert!(diff.changed.is_empty());
        assert!(diff_documents("BENCH_8.json", &committed, &committed)
            .unwrap()
            .changed
            .is_empty());
    }

    #[test]
    fn reordered_or_inserted_entries_change_nothing() {
        let a = sample_measurement(1.5, 1000, 200);
        let b = Measurement {
            workload: "b".into(),
            ..sample_measurement(1.2, 800, 100)
        };
        let c = Measurement {
            workload: "c".into(),
            ..sample_measurement(1.1, 700, 50)
        };
        let base = bench_snapshot(&[a.clone(), b.clone()]);
        let reordered = bench_snapshot(&[b.clone(), a.clone()]);
        assert!(diff_documents("bench", &base, &reordered)
            .unwrap()
            .changed
            .is_empty());
        let inserted = diff_documents("bench", &base, &bench_snapshot(&[a, c, b])).unwrap();
        assert!(inserted
            .changed
            .iter()
            .all(|r| r.path.starts_with("entries[c/plutus].")));
        assert!(
            inserted.regressions(0.0).is_empty(),
            "new entries are not regressions"
        );
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let s = bench_snapshot(&[sample_measurement(1.5, 1000, 200)]);
        let v0 = Json::parse("{\"schema\":\"v0\",\"entries\":[]}").unwrap();
        assert!(compare(&s, &v0, 0.02).is_err());
        assert!(compare(&s, &Json::Array(Vec::new()), 0.02).is_err());
    }
}
