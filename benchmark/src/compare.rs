//! Reading run files back: the `compare` gate and the `baseline` summary.

use crate::metrics::{self, Better, MetricDef};
use crate::workload::Workload;
use plutus_telemetry::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One run file written by `run --out`.
#[derive(Debug, Clone)]
pub struct RunFile {
    /// Path it was read from.
    pub path: String,
    /// The run's seed.
    pub seed: u64,
    /// Whether it holds per-layer (traced) metrics.
    pub traced: bool,
    /// Jobs that failed, over all its workloads.
    pub failed: u64,
    /// Host description.
    pub host: Json,
    /// `(workload, metric, value)`.
    pub values: Vec<(String, String, f64)>,
}

/// Parses a run file.
///
/// # Errors
///
/// Returns a message when the file is unreadable or not a run file.
pub fn read_run(path: &str) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let bad = |what: &str| format!("{path}: not a run file ({what})");
    let seed = doc
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("seed"))?;
    let traced = matches!(doc.get("traced"), Some(Json::Bool(true)));
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or_else(|| bad("workloads"))?;
    let mut failed = 0;
    let mut values = Vec::new();
    for (workload, result) in workloads {
        failed += result
            .get("failed")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("failed"))?;
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| bad("metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("metric value"))?;
            values.push((workload.clone(), name.clone(), value));
        }
    }
    Ok(RunFile {
        path: path.to_string(),
        seed,
        traced,
        failed,
        host: doc.get("host").cloned().unwrap_or(Json::Null),
        values,
    })
}

/// Every `(workload, metric)` present in `files`, in report order.
fn keys(files: &[&RunFile]) -> Vec<(Workload, &'static MetricDef)> {
    let mut out = Vec::new();
    for w in Workload::ALL {
        for d in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let present = files.iter().any(|f| {
                f.values
                    .iter()
                    .any(|(fw, m, _)| fw == w.name() && m == d.name)
            });
            if present {
                out.push((w, d));
            }
        }
    }
    out
}

/// `(seed, value)` of one metric across `files`.
fn samples(files: &[RunFile], w: Workload, d: &MetricDef) -> Vec<(u64, f64)> {
    files
        .iter()
        .flat_map(|f| {
            f.values
                .iter()
                .filter(move |(fw, m, _)| fw == w.name() && m == d.name)
                .map(move |(_, _, v)| (f.seed, *v))
        })
        .collect()
}

/// The `end_to_end` bounds of a `BENCHMARK.json`, by metric name.
///
/// # Errors
///
/// Returns a message when the document lacks well-formed bounds.
pub fn read_bounds(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = Json::parse(benchmark_json)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str);
            let bound = e.get("bound").and_then(Json::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("end_to_end entry without name and bound".to_string()),
            }
        })
        .collect()
}

fn summary(values: &[f64]) -> String {
    if values.is_empty() {
        return format!("{:>3} {:>34}", 0, "-");
    }
    let (q1, q3) = metrics::quartiles(values);
    format!(
        "{:>3} {:>12.6e} [{:>9.4e}, {:>9.4e}]",
        values.len(),
        metrics::median(values),
        q1,
        q3
    )
}

/// How far `b` is worse than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Compares two sets of run files. Returns the report and whether every
/// check held: no failed jobs, every end-to-end median within its bound,
/// and every exact count equal between runs of the same seed.
pub fn compare(a: &[RunFile], b: &[RunFile], bounds: &BTreeMap<String, f64>) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for f in a.iter().chain(b) {
        if f.failed > 0 {
            ok = false;
            let _ = writeln!(out, "FAILED JOBS: {} has {} failed jobs", f.path, f.failed);
        }
    }
    let _ = writeln!(
        out,
        "{:<12} {:<32} {:<8} {:>53} {:>53} {:>9}  verdict",
        "workload", "metric", "unit", "A: n median [q1, q3]", "B: n median [q1, q3]", "change"
    );
    let all: Vec<&RunFile> = a.iter().chain(b).collect();
    for (w, d) in keys(&all) {
        let sa = samples(a, w, d);
        let sb = samples(b, w, d);
        let va: Vec<f64> = sa.iter().map(|s| s.1).collect();
        let vb: Vec<f64> = sb.iter().map(|s| s.1).collect();
        let (ma, mb) = (metrics::median(&va), metrics::median(&vb));
        let change = if va.is_empty() || vb.is_empty() || ma == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.2}%", 100.0 * (mb - ma) / ma.abs())
        };
        let verdict = if va.is_empty() || vb.is_empty() {
            "one side only".to_string()
        } else if d.exact {
            let both: Vec<&(u64, f64)> = sa.iter().chain(&sb).collect();
            let same = both
                .iter()
                .all(|x| both.iter().filter(|y| y.0 == x.0).all(|y| y.1 == x.1));
            let common = sa.iter().any(|x| sb.iter().any(|y| y.0 == x.0));
            match (same, common) {
                (false, _) => {
                    ok = false;
                    "DIFFERS".to_string()
                }
                (true, true) => "same".to_string(),
                (true, false) => "exact; no common seed".to_string(),
            }
        } else if let Some(&bound) = bounds.get(d.name) {
            let worse = worsening(d.better, ma, mb);
            if worse > bound {
                ok = false;
                format!("WORSE than bound {bound}")
            } else {
                format!("ok (bound {bound})")
            }
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{:<12} {:<32} {:<8} {:>53} {:>53} {:>9}  {}",
            w.name(),
            d.name,
            d.unit,
            summary(&va),
            summary(&vb),
            change,
            verdict
        );
    }
    (out, ok)
}

fn summarize_side(files: &[RunFile]) -> Json {
    let refs: Vec<&RunFile> = files.iter().collect();
    // `keys` is workload-major, so each workload's metrics are contiguous.
    let mut by_workload: Vec<(String, Vec<(String, Json)>)> = Vec::new();
    for (w, d) in keys(&refs) {
        let values: Vec<f64> = samples(files, w, d).into_iter().map(|s| s.1).collect();
        let (q1, q3) = metrics::quartiles(&values);
        let entry = Json::object()
            .set("unit", d.unit)
            .set("n", values.len())
            .set("median", metrics::median(&values))
            .set("q1", q1)
            .set("q3", q3);
        match by_workload.last_mut() {
            Some((name, fields)) if name == w.name() => fields.push((d.name.into(), entry)),
            _ => by_workload.push((w.name().into(), vec![(d.name.into(), entry)])),
        }
    }
    Json::Object(
        by_workload
            .into_iter()
            .map(|(name, fields)| (name, Json::Object(fields)))
            .collect(),
    )
}

/// The baseline document: host details, and the median and quartiles of
/// every metric over the untraced and over the traced run files.
pub fn baseline(files: &[RunFile]) -> Json {
    let (traced, untraced): (Vec<RunFile>, Vec<RunFile>) =
        files.iter().cloned().partition(|f| f.traced);
    let runs = files
        .iter()
        .map(|f| {
            Json::object()
                .set("seed", f.seed)
                .set("traced", f.traced)
                .set("failed", f.failed)
        })
        .collect::<Vec<_>>();
    Json::object()
        .set("host", files.first().map_or(Json::Null, |f| f.host.clone()))
        .set("runs", Json::Array(runs))
        .set("untraced", summarize_side(&untraced))
        .set("traced", summarize_side(&traced))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, wall: f64, cycles: f64) -> RunFile {
        RunFile {
            path: format!("run{seed}"),
            seed,
            traced: false,
            failed: 0,
            host: Json::Null,
            values: vec![
                ("figrepro".into(), "wall_s".into(), wall),
                ("figrepro".into(), "gpu-sim.sim_cycles".into(), cycles),
            ],
        }
    }

    fn bounds() -> BTreeMap<String, f64> {
        [("wall_s".to_string(), 0.1)].into_iter().collect()
    }

    #[test]
    fn medians_within_bound_and_equal_counts_pass() {
        let a = [run(1, 10.0, 5.0), run(1, 10.4, 5.0), run(1, 9.9, 5.0)];
        let b = [run(1, 10.8, 5.0), run(1, 10.7, 5.0), run(1, 11.2, 5.0)];
        let (report, ok) = compare(&a, &b, &bounds());
        assert!(ok, "{report}");
    }

    #[test]
    fn a_median_beyond_its_bound_fails() {
        let a = [run(1, 10.0, 5.0), run(1, 10.0, 5.0)];
        let b = [run(1, 11.5, 5.0), run(1, 11.5, 5.0)];
        let (report, ok) = compare(&a, &b, &bounds());
        assert!(!ok && report.contains("WORSE"), "{report}");
    }

    #[test]
    fn exact_counts_must_match_per_seed() {
        let a = [run(1, 10.0, 5.0), run(2, 10.0, 7.0)];
        let b = [run(1, 10.0, 5.0), run(2, 10.0, 7.0)];
        assert!(compare(&a, &b, &bounds()).1, "different seeds may differ");
        let b = [run(1, 10.0, 6.0)];
        let (report, ok) = compare(&a, &b, &bounds());
        assert!(!ok && report.contains("DIFFERS"), "{report}");
    }

    #[test]
    fn failed_jobs_fail_the_comparison() {
        let a = [run(1, 10.0, 5.0)];
        let mut bad = run(1, 10.0, 5.0);
        bad.failed = 1;
        assert!(!compare(&a, &[bad], &bounds()).1);
    }
}
