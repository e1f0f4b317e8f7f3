//! Cross-run diffing: the one engine behind `experiments obs-diff` and
//! the `--compare` regression gate.
//!
//! `experiments obs-diff A B [--tolerance F]` compares two run
//! directories produced with `--run-dir`, every `*.json` report both
//! carry; `--compare BASELINE` compares this run's bench snapshot with
//! a committed one. Both are the same diff of JSON documents:
//!
//! - **Identity first.** Runs that disagree on seed or crypto backend
//!   (and, for run directories, on scale, workload set, experiment or
//!   campaign) are different experiments, and diffing them produces
//!   noise, not regressions. Manifests and snapshot `provenance` blocks
//!   go through one identity check; `provenance` is never a diffed
//!   leaf. Documents whose `schema` differs are refused too.
//! - **Leaves by identity.** Every numeric (and boolean) leaf becomes a
//!   dotted path. Array rows carrying `workload`, `scheme`, `phase` or
//!   `primitive` are keyed by those values, repeats told apart by
//!   occurrence, so reordered or inserted rows shift nothing; other
//!   arrays are keyed by position.
//! - **Directions.** A leaf takes the direction of the nearest key on
//!   its path that has one: `ipc`/`norm_ipc` are higher-is-better;
//!   `cycles`, `*_bytes`, `metadata_overhead_pct` and latencies are
//!   lower-is-better; everything else is two-sided. A leaf regresses
//!   when it moves the bad way beyond the tolerance, when it is NaN, or
//!   when it vanished. A leaf that only B has is new coverage.
//!
//! Wall-time series (the `sched.queue_ns` and `sched.exec_ns`
//! histograms) and the worker-count gauge are skipped: they describe
//! the host and the `--jobs` setting, not the simulated run, so two
//! byte-identical simulations legitimately disagree on them.

use crate::report::pct_change;
use plutus_telemetry::{Json, MANIFEST_FILE, MANIFEST_SCHEMA};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// One numeric leaf that changed between run A and run B.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Report the leaf belongs to (e.g. `campaign-storm.json`).
    pub file: String,
    /// Dotted path to the leaf inside the document.
    pub path: String,
    /// Value in run A; `None` when the leaf exists only in B.
    pub a: Option<f64>,
    /// Value in run B; `None` when the leaf vanished.
    pub b: Option<f64>,
    /// `pct_change(b, a)` in percent; `+inf` for a leaf that appeared,
    /// `-inf` for one that vanished.
    pub pct: f64,
}

impl DiffRow {
    /// Whether this change fails a gate at `tolerance` (a fraction;
    /// 0.02 = 2%): a vanished leaf, a NaN, or a move in the leaf's bad
    /// direction beyond the tolerance.
    pub fn regressed(&self, tolerance: f64) -> bool {
        let limit = tolerance * 100.0;
        match (self.a, self.b) {
            (None, _) => false,
            (_, None) => true,
            _ if self.pct.is_nan() => true,
            _ => match direction(&self.path) {
                Some(Better::Higher) => self.pct < -limit,
                Some(Better::Lower) => self.pct > limit,
                None => self.pct.abs() > limit,
            },
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Higher,
    Lower,
}

/// The direction table: the nearest key on `path` that has a direction
/// decides; `None` means two-sided.
fn direction(path: &str) -> Option<Better> {
    path.rsplit('.')
        .map(|seg| seg.split('[').next().unwrap_or(seg))
        .find_map(|key| match key {
            "ipc" | "norm_ipc" => Some(Better::Higher),
            "cycles" | "metadata_overhead_pct" => Some(Better::Lower),
            k if k.ends_with("_bytes") || k.contains("latency") => Some(Better::Lower),
            _ => None,
        })
}

/// The outcome of diffing two documents or two run directories.
#[derive(Debug, Default)]
pub struct ObsDiff {
    /// Every changed leaf, ranked by |pct| descending (non-finite
    /// changes — NaNs and leaves that appeared or vanished — first).
    pub changed: Vec<DiffRow>,
    /// Reports present in exactly one directory (coverage changes).
    pub one_sided: Vec<String>,
    /// Reports compared on both sides.
    pub compared: Vec<String>,
}

impl ObsDiff {
    /// The changed leaves that fail a gate at `tolerance` (see
    /// [`DiffRow::regressed`]). One-sided reports are gated separately
    /// via [`ObsDiff::one_sided`].
    pub fn regressions(&self, tolerance: f64) -> Vec<&DiffRow> {
        self.changed
            .iter()
            .filter(|r| r.regressed(tolerance))
            .collect()
    }

    /// Sorts by |pct| descending; `total_cmp` ranks NaN above infinity.
    fn rank(&mut self) {
        self.changed.sort_by(|x, y| {
            y.pct
                .abs()
                .total_cmp(&x.pct.abs())
                .then_with(|| x.file.cmp(&y.file))
                .then_with(|| x.path.cmp(&y.path))
        });
    }
}

/// Fails when two identity blocks disagree on any of `fields`; a
/// missing field reads as `null`.
fn same_identity(what: &str, a: &Json, b: &Json, fields: &[&str]) -> Result<(), String> {
    for field in fields {
        let x = a.get(field).unwrap_or(&Json::Null);
        let y = b.get(field).unwrap_or(&Json::Null);
        if x != y {
            return Err(format!(
                "{what} disagree on {field}: {} vs {}; these runs are not comparable",
                x.to_string_compact(),
                y.to_string_compact()
            ));
        }
    }
    Ok(())
}

/// Checks that two manifests describe comparable runs: the manifest
/// schema plus every identity field (seed, crypto backend, scale,
/// workloads, experiment, campaign). The command line is deliberately
/// *not* compared — `--run-dir X` vs `--run-dir Y` is exactly the
/// difference a diff exists to bridge.
///
/// # Errors
///
/// Returns a human-readable description of the first mismatch.
pub fn manifest_compat(a: &Json, b: &Json) -> Result<(), String> {
    for (doc, name) in [(a, "A"), (b, "B")] {
        let schema = doc.get("schema").and_then(Json::as_str);
        if schema != Some(MANIFEST_SCHEMA) {
            let want = MANIFEST_SCHEMA;
            return Err(format!(
                "run {name}: expected manifest schema '{want}', found {schema:?}"
            ));
        }
    }
    let fields = [
        "seed",
        "crypto_backend",
        "scale",
        "workloads",
        "experiment",
        "campaign",
    ];
    same_identity("manifests", a, b, &fields)
}

/// Diffs two versions `a` and `b` of the report `file` leaf by leaf.
///
/// # Errors
///
/// Returns `Err` when the documents' `schema` differs, or when both
/// carry `provenance` and it disagrees on seed or crypto backend.
pub fn diff_documents(file: &str, a: &Json, b: &Json) -> Result<ObsDiff, String> {
    let schema = (a.get("schema"), b.get("schema"));
    if schema.0 != schema.1 {
        return Err(format!("{file}: schema differs {schema:?}"));
    }
    if let (Some(pa), Some(pb)) = (a.get("provenance"), b.get("provenance")) {
        same_identity("provenances", pa, pb, &["seed", "crypto_backend"])?;
    }
    let (mut la, mut lb) = (BTreeMap::new(), BTreeMap::new());
    walk("", a, &mut la);
    walk("", b, &mut lb);
    let mut out = ObsDiff {
        compared: vec![file.to_string()],
        ..ObsDiff::default()
    };
    for path in la.keys().chain(lb.keys().filter(|k| !la.contains_key(*k))) {
        let (x, y) = (la.get(path).copied(), lb.get(path).copied());
        let pct = match (x, y) {
            (Some(x), Some(y)) if x == y => continue,
            (Some(x), Some(y)) => pct_change(y, x),
            (Some(_), None) => f64::NEG_INFINITY,
            _ => f64::INFINITY,
        };
        let (file, path) = (file.to_string(), path.clone());
        out.changed.push(DiffRow {
            file,
            path,
            a: x,
            b: y,
            pct,
        });
    }
    out.rank();
    Ok(out)
}

/// Diffs two run directories: manifest compatibility first, then every
/// shared JSON report leaf by leaf.
///
/// # Errors
///
/// Returns `Err` when a manifest or report is missing or unreadable,
/// when the runs are incompatible, or when they share no report — the
/// caller should treat all of these as usage errors, not regressions.
pub fn diff_run_dirs(a: &Path, b: &Path) -> Result<ObsDiff, String> {
    let hint = |e: String| format!("{e}; was this directory produced with --run-dir?");
    let ma = read_report(&a.join(MANIFEST_FILE)).map_err(hint)?;
    let mb = read_report(&b.join(MANIFEST_FILE)).map_err(hint)?;
    manifest_compat(&ma, &mb)?;
    let fa = json_reports(a)?;
    let fb = json_reports(b)?;
    let mut out = ObsDiff::default();
    for name in fa.iter().filter(|n| !fb.contains(n)) {
        out.one_sided.push(format!("{name} (only in A)"));
    }
    for name in fb.iter().filter(|n| !fa.contains(n)) {
        out.one_sided.push(format!("{name} (only in B)"));
    }
    for name in fa.iter().filter(|n| fb.contains(n)) {
        let d = diff_documents(
            name,
            &read_report(&a.join(name))?,
            &read_report(&b.join(name))?,
        )?;
        out.changed.extend(d.changed);
        out.compared.extend(d.compared);
    }
    if out.compared.is_empty() {
        return Err(format!(
            "{} and {} share no report to compare",
            a.display(),
            b.display()
        ));
    }
    out.rank();
    Ok(out)
}

/// Renders the ranked regression table for the rows
/// [`ObsDiff::regressions`] selected.
pub fn obs_diff_table(rows: &[&DiffRow]) -> String {
    let value = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.4}"));
    let mut out = format!(
        "{:<24}{:<56}{:>14}{:>14}{:>10}\n",
        "report", "leaf", "A", "B", "change%"
    );
    for r in rows {
        let change = match (r.a, r.b) {
            (None, _) => "new".to_string(),
            (_, None) => "gone".to_string(),
            _ if r.pct.is_finite() => format!("{:+.2}", r.pct),
            _ => r.pct.to_string(),
        };
        out.push_str(&format!(
            "{:<24}{:<56}{:>14}{:>14}{change:>10}\n",
            r.file,
            r.path,
            value(r.a),
            value(r.b)
        ));
    }
    out
}

/// Reads and parses one JSON report.
///
/// # Errors
///
/// Returns a message naming the file when it cannot be read or parsed.
pub fn read_report(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Sorted `*.json` report names in `dir`, excluding the manifest.
fn json_reports(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".json") && name != MANIFEST_FILE {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// Wall-time and environment-shaped series excluded from cross-run
/// diffs: these measure the host and the worker count, not the
/// simulated run.
const WALL_TIME_NONDETERMINISTIC: &[&str] = &["sched.queue_ns", "sched.exec_ns", "sched.workers"];

/// True when a leaf path names a metric that legitimately differs
/// between byte-identical simulations.
fn nondeterministic(path: &str) -> bool {
    WALL_TIME_NONDETERMINISTIC.iter().any(|m| path.contains(m))
}

/// Fields that name an array row, joined with `/` into its key.
const ROW_IDENTITY: [&str; 4] = ["workload", "scheme", "phase", "primitive"];

/// Flattens the leaves of `v` under `prefix`. Booleans become 0/1 so a
/// `clean: true -> false` flip is visible. `provenance` blocks and
/// nondeterministic metric names are skipped.
fn walk(prefix: &str, v: &Json, out: &mut BTreeMap<String, f64>) {
    if nondeterministic(prefix) {
        return;
    }
    match v {
        Json::Object(pairs) => {
            for (k, val) in pairs.iter().filter(|(k, _)| k != "provenance") {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                walk(&path, val, out);
            }
        }
        Json::Array(items) => {
            let mut seen: HashMap<String, usize> = HashMap::new();
            for (i, val) in items.iter().enumerate() {
                let ids: Vec<&str> = ROW_IDENTITY
                    .iter()
                    .filter_map(|k| val.get(k).and_then(Json::as_str))
                    .collect();
                let key = if ids.is_empty() {
                    i.to_string()
                } else {
                    let id = ids.join("/");
                    let n = seen.entry(id.clone()).or_insert(0);
                    *n += 1;
                    if *n == 1 {
                        id
                    } else {
                        format!("{id}#{n}")
                    }
                };
                walk(&format!("{prefix}[{key}]"), val, out);
            }
        }
        Json::Bool(b) => {
            out.insert(prefix.to_string(), f64::from(u8::from(*b)));
        }
        other => {
            if let Some(x) = other.as_f64() {
                out.insert(prefix.to_string(), x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn manifest(seed: u64) -> Json {
        Json::object()
            .set("schema", MANIFEST_SCHEMA)
            .set("seed", seed)
            .set("crypto_backend", "scalar")
            .set("scale", "test")
            .set("experiment", "campaign")
            .set("campaign", "storm")
            .set("workloads", Json::Array(vec![Json::from("gemm")]))
    }

    fn write_run(dir: &Path, seed: u64, ipc: f64, clean: bool) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), manifest(seed).to_string_pretty()).unwrap();
        let report = Json::object().set(
            "rows",
            Json::Array(vec![Json::object()
                .set("ipc", ipc)
                .set("clean", clean)
                .set("sched.exec_ns", if clean { 100u64 } else { 999u64 })]),
        );
        std::fs::write(dir.join("campaign-storm.json"), report.to_string_pretty()).unwrap();
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plutus-obsdiff-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn identical_runs_diff_empty() {
        let (a, b) = (scratch("id-a"), scratch("id-b"));
        write_run(&a, 42, 1.5, true);
        write_run(&b, 42, 1.5, true);
        let diff = diff_run_dirs(&a, &b).unwrap();
        assert!(diff.changed.is_empty());
        assert!(diff.one_sided.is_empty());
        assert_eq!(diff.compared, vec!["campaign-storm.json"]);
    }

    #[test]
    fn changed_leaves_rank_by_magnitude() {
        let (a, b) = (scratch("rk-a"), scratch("rk-b"));
        write_run(&a, 42, 1.5, true);
        write_run(&b, 42, 1.2, false);
        let diff = diff_run_dirs(&a, &b).unwrap();
        // The clean flip (1 -> 0, -100%) outranks the 20% IPC drop;
        // the wall-time series (exec ns) never shows up even though it
        // changed too.
        let paths: Vec<&str> = diff.changed.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, vec!["rows[0].clean", "rows[0].ipc"]);
        assert_eq!(
            diff.regressions(0.25).len(),
            1,
            "20% drop inside 25% tolerance"
        );
        assert_eq!(diff.regressions(0.0).len(), 2);
        let table = obs_diff_table(&diff.regressions(0.0));
        assert!(table.contains("rows[0].ipc"));
    }

    #[test]
    fn seed_mismatch_refuses_to_diff() {
        let (a, b) = (scratch("sd-a"), scratch("sd-b"));
        write_run(&a, 42, 1.5, true);
        write_run(&b, 7, 1.5, true);
        let err = diff_run_dirs(&a, &b).unwrap_err();
        assert!(err.contains("seed"), "got: {err}");
    }

    #[test]
    fn missing_manifest_is_a_usage_error() {
        let (a, b) = (scratch("mm-a"), scratch("mm-b"));
        write_run(&a, 42, 1.5, true);
        std::fs::create_dir_all(&b).unwrap();
        let err = diff_run_dirs(&a, &b).unwrap_err();
        assert!(err.contains("--run-dir"), "got: {err}");
    }

    #[test]
    fn one_sided_reports_are_flagged() {
        let (a, b) = (scratch("os-a"), scratch("os-b"));
        write_run(&a, 42, 1.5, true);
        write_run(&b, 42, 1.5, true);
        std::fs::write(a.join("extra.json"), "{\"x\": 1}").unwrap();
        let diff = diff_run_dirs(&a, &b).unwrap();
        assert_eq!(diff.one_sided, vec!["extra.json (only in A)"]);
        assert!(diff.changed.is_empty());
    }

    #[test]
    fn runs_sharing_no_report_are_a_usage_error() {
        let (a, b) = (scratch("ns-a"), scratch("ns-b"));
        write_run(&a, 42, 1.5, true);
        write_run(&b, 42, 1.5, true);
        std::fs::rename(b.join("campaign-storm.json"), b.join("campaign-sweep.json")).unwrap();
        let err = diff_run_dirs(&a, &b).unwrap_err();
        assert!(err.contains("share no report"), "got: {err}");
    }

    #[test]
    fn rows_match_by_identity_and_leaves_know_their_direction() {
        let row = |scheme: &str, ipc: f64, bytes: u64| {
            Json::object()
                .set("workload", "bfs")
                .set("scheme", scheme)
                .set("ipc", ipc)
                .set("total_bytes", bytes)
                .set("injected", 4u64)
        };
        let a = Json::Array(vec![row("pssm", 1.0, 100), row("plutus", 1.0, 100)]);
        // Reordered, one row inserted, plutus better on both metrics.
        let b = Json::Array(vec![
            row("plutus", 1.1, 90),
            row("new", 9.0, 9),
            row("pssm", 1.0, 100),
        ]);
        let diff = diff_documents("r.json", &a, &b).unwrap();
        let paths: Vec<&str> = diff.changed.iter().map(|r| r.path.as_str()).collect();
        assert!(paths
            .iter()
            .all(|p| p.starts_with("[bfs/plutus]") || p.starts_with("[bfs/new]")));
        assert!(
            diff.regressions(0.0).is_empty(),
            "improvements and new rows pass"
        );
        // A worse move in either direction and a vanished row regress.
        let c = Json::Array(vec![row("pssm", 0.9, 110)]);
        let worse = diff_documents("r.json", &a, &c).unwrap();
        let failed: Vec<&str> = worse
            .regressions(0.02)
            .iter()
            .map(|r| r.path.as_str())
            .collect();
        assert!(failed.contains(&"[bfs/pssm].ipc"));
        assert!(failed.contains(&"[bfs/pssm].total_bytes"));
        assert!(
            failed.contains(&"[bfs/plutus].ipc"),
            "a vanished row regresses"
        );
        // Repeats are told apart by occurrence.
        let twice = Json::Array(vec![row("pssm", 1.0, 1), row("pssm", 2.0, 2)]);
        let mut leaves = BTreeMap::new();
        walk("", &twice, &mut leaves);
        assert!(leaves.contains_key("[bfs/pssm#2].ipc"));
        // NaN fails whichever way the leaf points.
        let nan = Json::Array(vec![row("pssm", f64::NAN, 100), row("plutus", 1.0, 100)]);
        let diff = diff_documents("r.json", &a, &nan).unwrap();
        assert_eq!(diff.regressions(1.0).len(), 1);
    }
}
