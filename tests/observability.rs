//! The live observability plane, end to end: epoch-stream delta
//! conservation under concurrent counter updates, byte-identity of the
//! stream across worker counts and with a heartbeat, run-directory
//! report routing, the registry agreeing with the run reports, and the
//! METRICS.md reference staying in sync with the registry.

use plutus_exec::{Executor, Job};
use plutus_telemetry::{CycleClock, Json, Telemetry};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A `Write + Send` sink the test can read back after the stream closes.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs three rounds of pool jobs that hammer shared counters from
/// `workers` threads, closing one epoch per round, and returns the
/// streamed bytes plus the final counter totals. Each job sleeps 2 ms,
/// so a `heartbeat` of 1 ms ticks while the rounds run.
///
/// Counters are registered on this thread before the pool runs — the
/// same discipline the product code follows (simulators register in
/// sorted order, the executor registers at construction), because
/// registration order is serialization order.
fn streamed_run(workers: usize, heartbeat: Option<Duration>) -> (String, Vec<(String, u64)>) {
    let tel = Telemetry::with_clock(Arc::new(CycleClock::new()));
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    tel.stream_to(Box::new(buf.clone())).unwrap();
    tel.counter("obs.work_units");
    tel.counter("obs.items");
    let mut exec = Executor::with_telemetry(Some(workers), tel.clone());
    if let Some(interval) = heartbeat {
        exec.set_heartbeat(interval);
    }
    for round in 1..=3u64 {
        let jobs: Vec<Job<()>> = (0..8u64)
            .map(|j| {
                let tel = tel.clone();
                Job::new(format!("r{round}-j{j}"), move || {
                    tel.counter("obs.work_units").add(round * (j + 1));
                    tel.counter("obs.items").add(j % 3);
                    std::thread::sleep(Duration::from_millis(2));
                })
            })
            .collect();
        for r in exec.run(jobs) {
            r.expect("observability job panicked");
        }
        tel.advance_clock(round * 100);
        tel.end_epoch(&format!("round-{round}"));
    }
    let lines = tel.close_stream().expect("stream was open");
    assert_eq!(lines, 4, "header + one line per closed epoch");
    assert_eq!(tel.stream_dropped(), 0);
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    (text, tel.snapshot().counters)
}

#[test]
fn streamed_epoch_deltas_conserve_and_match_across_worker_counts() {
    let (serial, totals_serial) = streamed_run(1, None);
    let (wide, totals_wide) = streamed_run(4, None);
    let (beating, _) = streamed_run(4, Some(Duration::from_millis(1)));
    // Byte-identity: the stream is part of the repo's determinism
    // contract, so `--jobs 1` and `--jobs 4` must produce the same
    // bytes, and a heartbeat, which reads the wall clock, must not
    // change them.
    assert_eq!(serial, wide, "stream bytes differ across worker counts");
    assert_eq!(serial, beating, "a heartbeat changed the stream bytes");

    let lines: Vec<&str> = serial.lines().collect();
    let header = Json::parse(lines[0]).unwrap();
    assert_eq!(
        header.get("schema").and_then(Json::as_str),
        Some("plutus-stream/v2")
    );
    assert!(matches!(header.get("times"), Some(Json::Bool(true))));

    // Conservation: summing every epoch's deltas per counter must
    // reproduce the final cumulative totals exactly — nothing lost,
    // nothing double-counted, even though the adds raced across
    // worker threads while rounds were in flight.
    let mut summed: BTreeMap<String, u64> = BTreeMap::new();
    for line in &lines[1..] {
        let doc = Json::parse(line).unwrap();
        let Some(Json::Object(deltas)) = doc.get("deltas") else {
            panic!("epoch line without deltas: {line}");
        };
        for (name, v) in deltas {
            *summed.entry(name.clone()).or_insert(0) += v.as_u64().unwrap();
        }
        assert!(
            doc.get("start").and_then(Json::as_u64).is_some(),
            "cycle-clock streams carry epoch times"
        );
    }
    for (name, total) in totals_serial {
        assert_eq!(
            summed.get(&name).copied().unwrap_or(0),
            total,
            "streamed deltas of {name} do not sum to the final total"
        );
    }
    // The raced counters really did race: totals agree across pools.
    let get =
        |ts: &[(String, u64)], n: &str| ts.iter().find(|(k, _)| k == n).map(|(_, v)| *v).unwrap();
    assert_eq!(
        get(&totals_wide, "obs.work_units"),
        (1 + 2 + 3) * (1..=8).sum::<u64>()
    );
    // j % 3 over j = 0..8 sums to 7, times three rounds.
    assert_eq!(get(&totals_wide, "obs.items"), 3 * 7);
}

#[test]
fn run_dir_routes_reports_into_one_directory() {
    let dir = std::env::temp_dir().join(format!("plutus-obs-rundir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    plutus_telemetry::set_run_dir(&dir).unwrap();
    // Figure and campaign reports both save through `Table::save`, so
    // they land in the run dir, JSON and CSV side by side.
    let campaign = plutus_bench::campaign_report(&[])
        .save("campaign-sweep")
        .unwrap();
    plutus_telemetry::clear_run_dir();
    assert_eq!(
        campaign,
        vec![
            dir.join("campaign-sweep.json"),
            dir.join("campaign-sweep.csv")
        ]
    );
    assert!(
        campaign.iter().all(|p| p.is_file()),
        "campaign not in the run dir"
    );
    // With the run dir cleared, writers fall back to the historical
    // default location.
    assert_eq!(
        plutus_telemetry::report_dir(),
        std::path::PathBuf::from("target/experiments")
    );
}

#[test]
fn registry_epochs_equal_the_run_reports() {
    // The registry reads the simulator's own records, so a run's one
    // epoch carries exactly its engine statistics and its CPI stack.
    let tel = Telemetry::with_clock(Arc::new(CycleClock::new()));
    let observe = plutus_bench::Observe {
        registry: Some(tel.clone()),
        epoch_cycles: None,
        trace: None,
    };
    let schemes = [
        plutus_bench::Scheme::Pssm,
        plutus_bench::Scheme::CommonCounters,
        plutus_bench::Scheme::Plutus,
    ];
    let (rows, _) = plutus_bench::run_matrix(
        &Executor::sequential(),
        &[workloads::by_name("bfs").unwrap()],
        &schemes,
        workloads::Scale::Test,
        &gpu_sim::GpuConfig::test_small(),
        &observe,
    )
    .expect("registry-fed matrix must succeed");
    let epochs = tel.epochs();
    assert_eq!(rows.len(), schemes.len());
    for row in &rows {
        let label = format!("{}/{}", row.workload, row.scheme);
        let epoch = epochs
            .iter()
            .find(|e| e.label == label)
            .unwrap_or_else(|| panic!("no epoch labelled {label}"));
        assert!(!row.engine_stats.is_empty(), "{label}: no engine stats");
        for (key, value) in &row.engine_stats {
            assert_eq!(
                epoch.delta(&format!("engine.{key}")),
                *value,
                "{label}: engine.{key}"
            );
        }
        for (bucket, cycles) in &row.cpi_stack {
            assert_eq!(
                epoch.delta(&format!("ledger.{bucket}")),
                *cycles,
                "{label}: ledger.{bucket}"
            );
        }
    }
}

#[test]
fn metrics_doc_covers_the_registry() {
    let doc = include_str!("../METRICS.md");
    // Populate a registry the way real runs do: an executor plus a
    // small instrumented matrix run.
    let tel = Telemetry::with_clock(Arc::new(CycleClock::new()));
    let exec = Executor::with_telemetry(Some(2), tel.clone());
    let done: Vec<_> = exec.run(vec![Job::new("noop", || ())]);
    assert_eq!(done.len(), 1);
    instrumented_matrix(&exec, &tel);
    let mut missing = Vec::new();
    for name in metric_names(&tel) {
        // Parameterized families are documented as patterns, not one
        // row per instance: `tenant.t<id>.*`.
        let doc_name = normalize(&name);
        if !doc.contains(&format!("`{doc_name}`")) {
            missing.push(doc_name);
        }
    }
    assert!(
        missing.is_empty(),
        "metrics registered but not documented in METRICS.md: {missing:?}"
    );
}

#[test]
fn metrics_doc_sched_rows_name_executor_metrics() {
    // The other direction for the scheduler's rows: a `sched.*` row in
    // METRICS.md must name a metric the executor registers, so a
    // deleted metric cannot linger in the reference.
    let tel = Telemetry::new();
    let _exec = Executor::with_telemetry(Some(1), tel.clone());
    let registered = metric_names(&tel);
    let stale: Vec<&str> = row_names(include_str!("../METRICS.md"))
        .filter(|name| name.starts_with("sched.") && !registered.iter().any(|r| r == name))
        .collect();
    assert!(
        stale.is_empty(),
        "METRICS.md documents sched metrics the executor does not register: {stale:?}"
    );
}

/// Runs `pssm` and `plutus` on one suite workload at test scale through
/// `exec`, feeding `tel` as `--metrics-out` runs do (one epoch per 500
/// cycles).
fn instrumented_matrix(exec: &Executor, tel: &Telemetry) {
    let workloads: Vec<_> = workloads::suite().into_iter().take(1).collect();
    let cfg = gpu_sim::GpuConfig::test_small();
    let observe = plutus_bench::Observe {
        registry: Some(tel.clone()),
        epoch_cycles: Some(500),
        trace: None,
    };
    let schemes = [plutus_bench::Scheme::Pssm, plutus_bench::Scheme::Plutus];
    plutus_bench::run_matrix(
        exec,
        &workloads,
        &schemes,
        workloads::Scale::Test,
        &cfg,
        &observe,
    )
    .expect("instrumented matrix must succeed");
}

/// The backticked name opening each table row of `text`.
fn row_names(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|row| row.split('`').next())
}

/// Every counter, gauge and histogram name registered in `tel`.
fn metric_names(tel: &Telemetry) -> Vec<String> {
    let snap = tel.snapshot();
    snap.counters
        .iter()
        .map(|(n, _)| n.clone())
        .chain(snap.gauges.iter().map(|(n, _)| n.clone()))
        .chain(snap.histograms.iter().map(|(n, _)| n.clone()))
        .collect()
}

/// `tenant.t7.instructions` -> `tenant.t<id>.instructions`, and
/// `engine.ladder_frozen_t7` -> `engine.ladder_frozen_t<id>`.
fn normalize(name: &str) -> String {
    let is_id = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_digit());
    if let Some(rest) = name.strip_prefix("tenant.t") {
        if let Some(dot) = rest.find('.') {
            if is_id(&rest[..dot]) {
                return format!("tenant.t<id>{}", &rest[dot..]);
            }
        }
    }
    if let Some((stem, id)) = name.rsplit_once("_t") {
        if name.starts_with("engine.") && is_id(id) {
            return format!("{stem}_t<id>");
        }
    }
    name.to_string()
}
