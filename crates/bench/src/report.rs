//! Figure reports for the experiments, as [`Table`] declarations: the
//! saved measurement report, the normalized-IPC matrix and the CPI
//! stacks. Also the other cycle-ledger consumers (ledger export
//! documents as JSON / CSV / flamegraph collapsed stacks, the
//! conservation gate) and the normalized-IPC figure-repro report with
//! its degenerate-case detector.

use crate::runner::{geomean, Measurement};
use gpu_sim::StallBucket;
use plutus_telemetry::{Gate, GateFailure, Json, Table};
use std::fmt::Write as _;

/// Schema tag stamped into every ledger export document.
pub const LEDGER_SCHEMA: &str = "plutus-ledger/v1";

/// Renders the normalized IPC of each workload, one row each in the
/// order `rows` lists them, under each of `schemes`, plus a geomean row.
/// A workload without a row for a scheme leaves that cell empty.
pub fn matrix_table(rows: &[Measurement], schemes: &[String]) -> String {
    let mut lines: Vec<(&str, Vec<Option<f64>>)> = Vec::new();
    for r in rows {
        if lines.iter().all(|(w, _)| *w != r.workload) {
            let cell = |s: &String| {
                let m = rows
                    .iter()
                    .find(|m| m.workload == r.workload && &m.scheme == s);
                m.map(|m| m.norm_ipc)
            };
            lines.push((&r.workload, schemes.iter().map(cell).collect()));
        }
    }
    let geomeans = (0..schemes.len())
        .map(|i| Some(geomean(lines.iter().filter_map(|(_, cells)| cells[i]))))
        .collect();
    lines.push(("geomean", geomeans));
    let mut table = Table::new(&lines).show("workload", |(w, _)| (*w).into());
    for (i, s) in schemes.iter().enumerate() {
        table = table.show(s, move |(_, cells)| cells[i].map_or(Json::Null, Json::from));
    }
    table.to_console() + "(values in IPC normalized to no security)\n"
}

/// The report of a measurement set, as every figure saves it: one
/// object per (workload, scheme) row with its IPC, cycles, traffic,
/// per-class bytes and engine counters.
pub fn measurement_table(rows: &[Measurement]) -> Table<'_, Measurement> {
    fn pairs(kv: &[(String, u64)]) -> Json {
        kv.iter().fold(Json::object(), |o, (k, v)| o.set(k, *v))
    }
    Table::new(rows)
        .col("workload", |m| m.workload.as_str().into())
        .col("scheme", |m| m.scheme.as_str().into())
        .col("ipc", |m| m.ipc.into())
        .col("norm_ipc", |m| m.norm_ipc.into())
        .col("cycles", |m| m.cycles.into())
        .col("total_bytes", |m| m.total_bytes.into())
        .col("metadata_bytes", |m| m.metadata_bytes.into())
        .nest("class_bytes", |m| pairs(&m.class_bytes))
        .nest("engine_stats", |m| pairs(&m.engine_stats))
}

/// Sorted, deduplicated workload names of a measurement set.
fn workload_names(rows: &[Measurement]) -> Vec<String> {
    let mut names: Vec<String> = rows.iter().map(|r| r.workload.clone()).collect();
    names.sort();
    names.dedup();
    names
}

/// Renders the CPI stack of every (workload, scheme) row: one column
/// per stall bucket, each cell the fraction of total cycles attributed
/// to that bucket (buckets sum to 1.0 under the conservation
/// invariant). Rows without a recorded ledger are skipped.
pub fn cpi_stack_table(rows: &[Measurement]) -> String {
    let recorded: Vec<&Measurement> = rows.iter().filter(|r| !r.cpi_stack.is_empty()).collect();
    let mut table = Table::new(&recorded).show("workload/scheme", |r| {
        format!("{}/{}", r.workload, r.scheme).into()
    });
    for (i, bucket) in StallBucket::ALL.iter().enumerate() {
        table = table.show(bucket.label(), move |r| {
            let total: u64 = r.cpi_stack.iter().map(|(_, c)| *c).sum();
            (r.cpi_stack[i].1 as f64 / total.max(1) as f64).into()
        });
    }
    table.to_console() + "(fractions of total cycles x partitions; rows sum to 1.0)\n"
}

/// Workloads whose schemes all finished in an identical cycle count —
/// the degenerate state where every normalized IPC reads exactly 1.0
/// and the figure reproduction is meaningless. Requires at least two
/// schemes per workload to flag anything.
pub fn degenerate_workloads(rows: &[Measurement]) -> Vec<String> {
    workload_names(rows)
        .into_iter()
        .filter(|w| {
            let cycles: Vec<u64> = rows
                .iter()
                .filter(|r| &r.workload == w)
                .map(|r| r.cycles)
                .collect();
            cycles.len() >= 2 && cycles.iter().all(|&c| c == cycles[0])
        })
        .collect()
}

/// The prominent warning block for a degenerate measurement set, or
/// `None` when at least one scheme pair differs per workload.
pub fn degenerate_warning(rows: &[Measurement]) -> Option<String> {
    let degenerate = degenerate_workloads(rows);
    if degenerate.is_empty() {
        return None;
    }
    let mut out = String::new();
    out.push_str("!!! DEGENERATE RESULT: every scheme finished in the identical cycle count on: ");
    out.push_str(&degenerate.join(", "));
    out.push('\n');
    out.push_str(
        "!!! All normalized IPCs read 1.0 — the configuration is not \
         bandwidth-bound, so security traffic is free and the figure \
         reproduction is vacuous. Increase --scale or shrink the DRAM \
         bus before trusting these numbers.\n",
    );
    Some(out)
}

/// The figure-reproduction report (paper Figs. 11-14 style): the
/// normalized-IPC table over `schemes`, per-scheme geomean slowdowns,
/// the CPI stacks behind them, and — when every scheme of a workload
/// ran in the identical cycle count — a prominent degenerate-case
/// warning.
pub fn figure_report(rows: &[Measurement], schemes: &[String]) -> String {
    let mut out = String::new();
    out.push_str("Normalized IPC (paper Figs. 11-14 style):\n");
    out.push_str(&matrix_table(rows, schemes));
    for s in schemes {
        let g = geomean(rows.iter().filter(|r| &r.scheme == s).map(|r| r.norm_ipc));
        let _ = writeln!(out, "{s}: {:.1}% of insecure IPC on geomean", g * 100.0);
    }
    out.push('\n');
    out.push_str(&cpi_stack_table(rows));
    match degenerate_warning(rows) {
        Some(w) => out.push_str(&w),
        None => out.push_str("degenerate-case check OK: scheme cycle counts differ per workload\n"),
    }
    out
}

/// One ledger entry as JSON: identity, cycles, the partition-summed
/// CPI stack, and the raw per-partition bucket matrix.
fn ledger_entry_json(m: &Measurement) -> Json {
    let stack = m
        .cpi_stack
        .iter()
        .fold(Json::object(), |o, (k, v)| o.set(k, *v));
    let partitions = Json::Array(
        m.ledger_partitions
            .iter()
            .map(|p| Json::Array(p.iter().map(|&c| Json::from(c)).collect()))
            .collect(),
    );
    Json::object()
        .set("workload", m.workload.as_str())
        .set("scheme", m.scheme.as_str())
        .set("cycles", m.cycles)
        .set("cpi_stack", stack)
        .set("partitions", partitions)
}

/// The `--ledger-out` JSON document: bucket taxonomy plus one entry
/// per (workload, scheme) with the summed CPI stack and the raw
/// per-partition matrix.
pub fn ledger_json(rows: &[Measurement]) -> Json {
    Json::object()
        .set("schema", LEDGER_SCHEMA)
        .set(
            "buckets",
            Json::Array(
                StallBucket::ALL
                    .iter()
                    .map(|b| Json::from(b.label()))
                    .collect(),
            ),
        )
        .set(
            "entries",
            Json::Array(rows.iter().map(ledger_entry_json).collect()),
        )
}

/// The `--ledger-out` CSV sibling: one line per
/// (workload, scheme, partition, bucket) with the attributed cycles.
pub fn ledger_csv(rows: &[Measurement]) -> String {
    let mut out = String::from("workload,scheme,partition,bucket,cycles\n");
    for m in rows {
        for (p, buckets) in m.ledger_partitions.iter().enumerate() {
            for (b, cycles) in StallBucket::ALL.iter().zip(buckets) {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{}",
                    m.workload,
                    m.scheme,
                    p,
                    b.label(),
                    cycles
                );
            }
        }
    }
    out
}

/// Flamegraph collapsed stacks for the cycle ledger —
/// `workload;scheme;bucket cycles` lines, same format the causal-trace
/// `--trace-out` `.folded` sibling uses, so the existing flamegraph
/// tooling renders CPI stacks unchanged. Zero-cycle buckets are
/// omitted.
pub fn ledger_folded(rows: &[Measurement]) -> String {
    let mut out = String::new();
    for m in rows {
        for (label, cycles) in &m.cpi_stack {
            if *cycles > 0 {
                let _ = writeln!(out, "{};{};{label} {cycles}", m.workload, m.scheme);
            }
        }
    }
    out
}

/// The conservation gate: every partition's bucket cycles must sum to
/// exactly the run's cycle count, for every measurement. Measurements
/// without a recorded ledger are violations too (the ledger must never
/// silently disappear).
///
/// # Errors
///
/// Returns the failure naming every violated check.
pub fn ledger_gate(rows: &[Measurement]) -> Result<(), GateFailure> {
    let mut gate = Gate::new();
    for m in rows {
        gate.check("recorded", !m.ledger_partitions.is_empty(), || {
            format!("{}/{}: no ledger recorded", m.workload, m.scheme)
        });
        for (p, buckets) in m.ledger_partitions.iter().enumerate() {
            let total: u64 = buckets.iter().sum();
            gate.check("conserved", total == m.cycles, || {
                format!(
                    "{}/{} partition {p}: ledger sums to {total} cycles, run took {}",
                    m.workload, m.scheme, m.cycles
                )
            });
        }
    }
    gate.finish()
}

/// Percentage-change helper: `(new / old - 1) × 100`.
///
/// The division is guarded so the regression gate cannot be silently
/// disarmed: a zero or non-finite baseline against a differing current
/// value returns the appropriately-signed infinity (every `>` tolerance
/// comparison then fires), `0 → 0` reports no change, and a non-finite
/// `new` propagates as NaN for the diff engine
/// ([`crate::obsdiff::DiffRow::regressed`]) to treat as a failure.
pub fn pct_change(new: f64, old: f64) -> f64 {
    if !new.is_finite() || !old.is_finite() {
        return f64::NAN;
    }
    if old == 0.0 {
        return if new == 0.0 {
            0.0
        } else if new > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    (new / old - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(w: &str, s: &str, ipc: f64) -> Measurement {
        meas_cycles(w, s, ipc, 100)
    }

    fn meas_cycles(w: &str, s: &str, ipc: f64, cycles: u64) -> Measurement {
        // A two-partition ledger that conserves: issue + data_fill per
        // partition sums to `cycles`.
        let mut part = vec![0u64; gpu_sim::NUM_STALL_BUCKETS];
        part[StallBucket::Issue.idx()] = cycles / 2;
        part[StallBucket::DataFill.idx()] = cycles - cycles / 2;
        let ledger = vec![part.clone(), part];
        let mut stack = vec![0u64; gpu_sim::NUM_STALL_BUCKETS];
        for p in &ledger {
            for (acc, v) in stack.iter_mut().zip(p) {
                *acc += v;
            }
        }
        Measurement {
            workload: w.into(),
            scheme: s.into(),
            ipc,
            norm_ipc: ipc,
            cycles,
            cpi_stack: StallBucket::ALL
                .iter()
                .zip(stack)
                .map(|(b, c)| (b.label().to_string(), c))
                .collect(),
            ledger_partitions: ledger,
            ..Measurement::default()
        }
    }

    #[test]
    fn table_contains_workloads_schemes_and_geomean() {
        let rows = vec![
            meas("lbm", "pssm", 0.5),
            meas("lbm", "plutus", 0.8),
            meas("bfs", "pssm", 0.8),
            meas("bfs", "plutus", 0.8),
        ];
        let t = matrix_table(&rows, &["pssm".into(), "plutus".into()]);
        // Workloads keep the view's order, not the alphabet's.
        assert_eq!(
            t,
            "workload   pssm  plutus\n\
             lbm       0.500   0.800\n\
             bfs       0.800   0.800\n\
             geomean   0.632   0.800\n\
             (values in IPC normalized to no security)\n"
        );
    }

    #[test]
    fn missing_cells_render_empty() {
        let rows = vec![meas("bfs", "pssm", 0.8)];
        let t = matrix_table(&rows, &["pssm".into(), "plutus".into()]);
        assert_eq!(t.lines().nth(1), Some("bfs       0.800"));
    }

    #[test]
    fn pct_change_math() {
        assert!((pct_change(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert!((pct_change(0.9, 1.0) + 10.0).abs() < 1e-9);
    }

    #[test]
    fn pct_change_guards_zero_and_non_finite_inputs() {
        // A metric that appears from a zero baseline (or vanishes into
        // one) must register as an infinite change, not 0%: the old
        // `old == 0.0 → 0.0` fold let such regressions slip the gate.
        assert_eq!(pct_change(0.0, 0.0), 0.0);
        assert_eq!(pct_change(1.0, 0.0), f64::INFINITY);
        assert_eq!(pct_change(-1.0, 0.0), f64::NEG_INFINITY);
        // Non-finite inputs propagate as NaN so comparators can refuse
        // them instead of comparing false against every tolerance.
        assert!(pct_change(f64::NAN, 1.0).is_nan());
        assert!(pct_change(1.0, f64::NAN).is_nan());
        assert!(pct_change(f64::INFINITY, 1.0).is_nan());
    }

    #[test]
    fn cpi_stack_rows_render_as_fractions() {
        let rows = vec![meas("bfs", "pssm", 0.8)];
        let t = cpi_stack_table(&rows);
        assert!(t.contains("bfs/pssm"));
        assert!(t.contains("issue"));
        assert!(t.contains("data_fill"));
        assert!(t.contains("0.500"));
    }

    #[test]
    fn degenerate_detection_needs_identical_cycles_across_schemes() {
        let degenerate = vec![
            meas_cycles("bfs", "no-security", 1.0, 100),
            meas_cycles("bfs", "pssm", 1.0, 100),
        ];
        assert_eq!(degenerate_workloads(&degenerate), vec!["bfs".to_string()]);
        assert!(degenerate_warning(&degenerate)
            .unwrap()
            .contains("DEGENERATE"));

        let healthy = vec![
            meas_cycles("bfs", "no-security", 1.0, 100),
            meas_cycles("bfs", "pssm", 0.8, 130),
        ];
        assert!(degenerate_workloads(&healthy).is_empty());
        assert!(degenerate_warning(&healthy).is_none());

        // A lone scheme can't be judged degenerate.
        let single = vec![meas_cycles("bfs", "pssm", 1.0, 100)];
        assert!(degenerate_workloads(&single).is_empty());
    }

    #[test]
    fn figure_report_flags_degenerate_and_healthy_states() {
        let schemes = vec!["pssm".to_string()];
        let degenerate = vec![
            meas_cycles("bfs", "no-security", 1.0, 100),
            meas_cycles("bfs", "pssm", 1.0, 100),
        ];
        let r = figure_report(&degenerate, &schemes);
        assert!(r.contains("Normalized IPC"));
        assert!(r.contains("DEGENERATE"));

        let healthy = vec![
            meas_cycles("bfs", "no-security", 1.0, 100),
            meas_cycles("bfs", "pssm", 0.8, 130),
        ];
        assert!(figure_report(&healthy, &schemes).contains("degenerate-case check OK"));
    }

    #[test]
    fn ledger_exports_carry_every_bucket() {
        let rows = vec![meas("bfs", "pssm", 0.8)];
        let doc = ledger_json(&rows);
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(LEDGER_SCHEMA));
        let buckets = doc.get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), gpu_sim::NUM_STALL_BUCKETS);
        let entries = doc.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 1);
        let parts = entries[0].get("partitions").unwrap().as_array().unwrap();
        assert_eq!(parts.len(), 2);

        let csv = ledger_csv(&rows);
        assert!(csv.starts_with("workload,scheme,partition,bucket,cycles"));
        assert!(csv.contains("bfs,pssm,1,issue,50"));

        let folded = ledger_folded(&rows);
        assert!(folded.contains("bfs;pssm;issue 100"));
        // Zero-cycle buckets stay out of the flamegraph.
        assert!(!folded.contains("mshr_full"));
    }

    #[test]
    fn ledger_gate_rejects_leaks_and_missing_ledgers() {
        let good = vec![meas("bfs", "pssm", 0.8)];
        assert!(ledger_gate(&good).is_ok());

        let mut leaking = meas("bfs", "pssm", 0.8);
        leaking.ledger_partitions[0][0] += 1;
        let err = ledger_gate(&[leaking]).unwrap_err().to_string();
        assert!(err.contains("conserved: bfs/pssm partition 0"));
        assert!(err.contains("sums to 101"));

        let mut missing = meas("bfs", "pssm", 0.8);
        missing.ledger_partitions.clear();
        let err = ledger_gate(&[missing]).unwrap_err();
        assert_eq!(err.violations[0].0, "recorded");
    }
}
