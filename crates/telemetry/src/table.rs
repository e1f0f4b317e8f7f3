//! Row reports and their gates.
//!
//! A report is a slice of rows plus the columns that describe them. The
//! columns are declared once, and every output format derives from that
//! one declaration, so this module is the one place where a report's
//! format is decided:
//!
//! - JSON: an array with one object per row, keys in column order; a
//!   `null` cell is left out of its row;
//! - CSV: the scalar columns in the same order ([`Table::nest`] columns
//!   stay JSON-only); a `null` cell is empty;
//! - the console table: the columns declared with [`Table::show`].
//!
//! Files reach the disk through [`save_report`]: a row table saves into
//! [`report_dir`] with [`Table::save`], and document-shaped reports
//! (the cycle ledger, bench snapshots) call it with their own path. A
//! report's gate collects named checks in a [`Gate`]; a failed gate is
//! a [`GateFailure`] that names every violated check.

use crate::export::csv_field;
use crate::fsio::atomic_write;
use crate::json::Json;
use crate::rundir::report_dir;
use std::fmt::{self, Write as _};
use std::io;
use std::path::{Path, PathBuf};

/// Where a column appears besides the JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// JSON only: a nested object or array.
    Nested,
    /// JSON and CSV.
    Scalar,
    /// JSON, CSV and the console table.
    Shown,
}

struct Column<'a, R> {
    name: String,
    shape: Shape,
    get: Box<dyn Fn(&R) -> Json + 'a>,
}

/// A row report: the rows and the columns declared once for JSON, CSV
/// and console output.
pub struct Table<'a, R> {
    rows: &'a [R],
    columns: Vec<Column<'a, R>>,
}

impl<'a, R> Table<'a, R> {
    /// A table over `rows` with no columns yet.
    pub fn new(rows: &'a [R]) -> Self {
        Self {
            rows,
            columns: Vec::new(),
        }
    }

    /// Adds a scalar column written to JSON and CSV.
    pub fn col(self, name: impl Into<String>, get: impl Fn(&R) -> Json + 'a) -> Self {
        self.push(name.into(), Shape::Scalar, get)
    }

    /// Adds a scalar column the console table shows as well.
    pub fn show(self, name: impl Into<String>, get: impl Fn(&R) -> Json + 'a) -> Self {
        self.push(name.into(), Shape::Shown, get)
    }

    /// Adds a nested column (an object or array) written to JSON only.
    pub fn nest(self, name: impl Into<String>, get: impl Fn(&R) -> Json + 'a) -> Self {
        self.push(name.into(), Shape::Nested, get)
    }

    fn push(mut self, name: String, shape: Shape, get: impl Fn(&R) -> Json + 'a) -> Self {
        self.columns.push(Column {
            name,
            shape,
            get: Box::new(get),
        });
        self
    }

    fn columns(&self, keep: impl Fn(Shape) -> bool) -> Vec<&Column<'a, R>> {
        self.columns.iter().filter(|c| keep(c.shape)).collect()
    }

    /// One object per row, keys in column order; `null` cells are left
    /// out.
    pub fn to_json(&self) -> Json {
        let object = |r: &R| {
            let cells = self.columns.iter().map(|c| (c.name.clone(), (c.get)(r)));
            Json::Object(cells.filter(|(_, v)| *v != Json::Null).collect())
        };
        Json::Array(self.rows.iter().map(object).collect())
    }

    /// The scalar columns as CSV with a header line, in JSON order.
    pub fn to_csv(&self) -> String {
        let cols = self.columns(|s| s != Shape::Nested);
        let mut out = cols
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for r in self.rows {
            let cells: Vec<String> = cols
                .iter()
                .map(|c| csv_field(&cell(&(c.get)(r), None)))
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// The [`Table::show`] columns, aligned under their names: text
    /// columns left, numeric ones right, floats to three places.
    pub fn to_console(&self) -> String {
        let cols = self.columns(|s| s == Shape::Shown);
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| cols.iter().map(|c| cell(&(c.get)(r), Some(3))).collect())
            .collect();
        let text_column: Vec<bool> = cols
            .iter()
            .map(|c| self.rows.iter().any(|r| matches!((c.get)(r), Json::Str(_))))
            .collect();
        let widths: Vec<usize> = (0..cols.len())
            .map(|i| {
                cells
                    .iter()
                    .map(|row| row[i].len())
                    .fold(cols[i].name.len(), usize::max)
            })
            .collect();
        let line = |values: Vec<&str>| {
            let mut s = String::new();
            for (i, v) in values.into_iter().enumerate() {
                let w = widths[i];
                let _ = if text_column[i] {
                    write!(s, "{v:<w$}  ")
                } else {
                    write!(s, "{v:>w$}  ")
                };
            }
            format!("{}\n", s.trim_end())
        };
        let mut out = line(cols.iter().map(|c| c.name.as_str()).collect());
        for row in &cells {
            out.push_str(&line(row.iter().map(String::as_str).collect()));
        }
        out
    }

    /// Writes `<name>.json` and `<name>.csv` into [`report_dir`] (the
    /// `--run-dir` when one is set), returning the paths written.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn save(&self, name: &str) -> io::Result<Vec<PathBuf>> {
        let path = report_dir().join(format!("{name}.json"));
        save_report(&path, &self.to_json(), &[("csv", self.to_csv())])
    }
}

/// A cell as text: strings as they are, `null` empty, floats to
/// `places` decimals when given, anything else as compact JSON.
fn cell(v: &Json, places: Option<usize>) -> String {
    match (v, places) {
        (Json::Str(s), _) => s.clone(),
        (Json::Null, _) => String::new(),
        (Json::F64(x), Some(p)) => format!("{x:.p$}"),
        _ => v.to_string_compact(),
    }
}

/// Writes one report: `json` pretty-printed to `path`, then every
/// `(extension, text)` sibling next to it, each atomically and after
/// creating the directory. Returns the paths written, JSON first.
///
/// # Errors
///
/// Returns any I/O error.
pub fn save_report(
    path: &Path,
    json: &Json,
    siblings: &[(&str, String)],
) -> io::Result<Vec<PathBuf>> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    atomic_write(path, json.to_string_pretty())?;
    let mut written = vec![path.to_path_buf()];
    for (ext, text) in siblings {
        let sibling = path.with_extension(ext);
        atomic_write(&sibling, text)?;
        written.push(sibling);
    }
    Ok(written)
}

/// Collects the named checks of a report gate.
#[derive(Debug, Default)]
pub struct Gate {
    violations: Vec<(&'static str, String)>,
}

impl Gate {
    /// A gate with no checks yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a violation of `check` unless `ok`; `detail` says what
    /// was wrong.
    pub fn check(&mut self, check: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.violations.push((check, detail()));
        }
    }

    /// Folds another gate's outcome into this one.
    pub fn absorb(&mut self, outcome: Result<(), GateFailure>) {
        if let Err(f) = outcome {
            self.violations.extend(f.violations);
        }
    }

    /// `Ok` when every check held, otherwise the failure naming each
    /// violated check.
    ///
    /// # Errors
    ///
    /// Returns every violation recorded.
    pub fn finish(self) -> Result<(), GateFailure> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(GateFailure {
                violations: self.violations,
            })
        }
    }
}

/// A failed gate: every violated check by name, with what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateFailure {
    /// `(check, detail)` per violation, in the order they were found.
    pub violations: Vec<(&'static str, String)>,
}

impl fmt::Display for GateFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let each = self.violations.iter().map(|(c, d)| format!("{c}: {d}"));
        f.write_str(&each.collect::<Vec<_>>().join("; "))
    }
}

impl std::error::Error for GateFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        name: &'static str,
        n: u64,
        rate: f64,
        error: Option<&'static str>,
    }

    fn table(rows: &[Row]) -> Table<'_, Row> {
        Table::new(rows)
            .show("name", |r| r.name.into())
            .show(String::from("n"), |r| r.n.into())
            .nest("hist", |r| Json::object().set("a", r.n))
            .col("rate", |r| r.rate.into())
            .show("error", |r| r.error.map_or(Json::Null, Json::from))
    }

    fn rows() -> Vec<Row> {
        vec![
            Row {
                name: "bfs",
                n: 3,
                rate: 0.5,
                error: None,
            },
            Row {
                name: "hotspot",
                n: 12,
                rate: 0.125,
                error: Some("lost, badly"),
            },
        ]
    }

    #[test]
    fn one_declaration_derives_json_csv_and_console() {
        let rows = rows();
        let t = table(&rows);
        assert_eq!(
            t.to_json().to_string_compact(),
            r#"[{"name":"bfs","n":3,"hist":{"a":3},"rate":0.5},{"name":"hotspot","n":12,"hist":{"a":12},"rate":0.125,"error":"lost, badly"}]"#
        );
        assert_eq!(
            t.to_csv(),
            "name,n,rate,error\nbfs,3,0.5,\nhotspot,12,0.125,\"lost, badly\"\n"
        );
        assert_eq!(
            t.to_console(),
            "name      n  error\nbfs       3\nhotspot  12  lost, badly\n"
        );
        assert_eq!(
            Table::new(&rows[..0]).show("n", |r| r.n.into()).to_csv(),
            "n\n"
        );
    }

    #[test]
    fn save_writes_json_and_csv_side_by_side() {
        let dir = std::env::temp_dir().join(format!("plutus-table-{}", std::process::id()));
        let rows = rows();
        let path = dir.join("nested/report.json");
        let written = save_report(
            &path,
            &table(&rows).to_json(),
            &[("csv", table(&rows).to_csv())],
        )
        .unwrap();
        assert_eq!(written, vec![path.clone(), dir.join("nested/report.csv")]);
        let json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(json, table(&rows).to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_names_every_violated_check() {
        let mut gate = Gate::new();
        gate.check("rows", true, || unreachable!());
        gate.check("clean", false, || "bfs/pssm: 1 mismatch".into());
        let mut other = Gate::new();
        other.check("eq1", false, || "plutus over bound".into());
        gate.absorb(other.finish());
        gate.absorb(Ok(()));
        let err = gate.finish().unwrap_err();
        assert_eq!(err.violations.len(), 2);
        assert_eq!(
            err.to_string(),
            "clean: bfs/pssm: 1 mismatch; eq1: plutus over bound"
        );
        assert!(Gate::new().finish().is_ok());
    }
}
