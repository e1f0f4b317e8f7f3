//! Integration tests for the causal flight recorder and its exporters.
//!
//! Pins the three contracts the tracing layer advertises:
//!
//! 1. **Conservation** — at a sampling period of 1 with zero drops, the
//!    per-class bytes summed over traced records equal the simulator's
//!    aggregate `SimStats` class totals *exactly*, for every scheme.
//! 2. **Determinism** — trace content is byte-identical across worker
//!    counts (`--jobs 1` vs `--jobs 4`), because each run owns its
//!    telemetry, cycle clock, and tracer; only scheduler lanes differ.
//! 3. **Golden output** — the collapsed-stack and Chrome-trace
//!    renderings match committed golden files, and the Chrome trace
//!    parses back as JSON (the Perfetto-loadable shape).

use gpu_sim::GpuConfig;
use plutus_bench::{
    chrome_trace, collapsed_stack, run_matrix, Measurement, Observe, Scheme, TracedRun,
};
use plutus_exec::Executor;
use plutus_telemetry::{Json, TraceRecord, DEFAULT_TRACE_CAPACITY};
use workloads::{by_name, Scale, WorkloadSpec};

fn victims() -> Vec<WorkloadSpec> {
    vec![by_name("bfs").unwrap(), by_name("backprop").unwrap()]
}

/// A traced matrix of `bfs` under `schemes` at test scale, recording
/// one access in every `sample` into a ring of `capacity` records.
fn traced_bfs(
    schemes: &[Scheme],
    sample: u64,
    capacity: usize,
) -> (Vec<Measurement>, Vec<TracedRun>) {
    let observe = Observe {
        trace: Some((sample, capacity)),
        ..Observe::default()
    };
    let w = [by_name("bfs").unwrap()];
    let cfg = GpuConfig::test_small();
    run_matrix(
        &Executor::new(Some(2)),
        &w,
        schemes,
        Scale::Test,
        &cfg,
        &observe,
    )
    .unwrap()
}

/// The flight-recorder trace of `bfs` under one scheme.
fn traced_run(scheme: Scheme, sample: u64, capacity: usize) -> TracedRun {
    traced_bfs(&[scheme], sample, capacity).1.remove(0)
}

#[test]
fn attribution_conserves_class_bytes_for_every_scheme() {
    let schemes = [
        Scheme::None,
        Scheme::Pssm,
        Scheme::CommonCounters,
        Scheme::Plutus,
    ];
    let (rows, traces) = traced_bfs(&schemes, 1, DEFAULT_TRACE_CAPACITY);
    assert_eq!(traces.len(), schemes.len(), "one trace per matrix row");
    for (row, traced) in rows.iter().zip(&traces) {
        let scheme = &row.scheme;
        assert_eq!(&traced.scheme, scheme);
        assert_eq!(traced.dropped, 0, "{scheme}: lossless trace expected");
        let sim: Vec<(String, u64)> = traced.class_bytes.clone();
        assert_eq!(
            traced.traced_class_bytes(),
            sim,
            "{scheme}: traced bytes must equal SimStats class totals"
        );
        let traced_total: u64 = traced.traced_class_bytes().iter().map(|(_, b)| b).sum();
        assert_eq!(traced_total, row.total_bytes);
    }
}

#[test]
fn sampling_preserves_causality_but_not_conservation() {
    let traced = traced_run(Scheme::Pssm, 8, 1 << 16);
    // Every child must reference a root that is present in the trace.
    let roots: Vec<u64> = traced
        .records
        .iter()
        .filter(|r| r.id != 0)
        .map(|r| r.id)
        .collect();
    assert!(!roots.is_empty());
    for rec in traced.records.iter().filter(|r| r.id == 0) {
        assert!(
            roots.contains(&rec.cause),
            "child record with cause {} has no sampled root",
            rec.cause
        );
    }
    // A 1-in-8 sample traces fewer bytes than the run moved.
    let traced_total: u64 = traced.traced_class_bytes().iter().map(|(_, b)| b).sum();
    let sim_total: u64 = traced.class_bytes.iter().map(|(_, b)| b).sum();
    assert!(traced_total < sim_total);
}

#[test]
fn trace_content_is_identical_across_worker_counts() {
    let cfg = GpuConfig::test_small();
    let w = victims();
    let schemes = [Scheme::None, Scheme::Pssm, Scheme::Plutus];
    let observe = Observe {
        trace: Some((1, 1 << 20)),
        ..Observe::default()
    };
    let run = |exec: Executor| run_matrix(&exec, &w, &schemes, Scale::Test, &cfg, &observe);
    let (rows_a, traces_a) = run(Executor::sequential()).unwrap();
    let (rows_b, traces_b) = run(Executor::new(Some(4))).unwrap();
    assert_eq!(format!("{rows_a:?}"), format!("{rows_b:?}"));
    // Trace content (collapsed stacks and the Chrome trace without
    // scheduler lanes) is byte-identical for any worker count.
    assert_eq!(collapsed_stack(&traces_a), collapsed_stack(&traces_b));
    assert_eq!(
        chrome_trace(&traces_a, None).to_string_compact(),
        chrome_trace(&traces_b, None).to_string_compact()
    );
}

/// Compares `actual` against a committed golden file, or rewrites the
/// file when `UPDATE_GOLDEN=1` (then fails, so a green run never
/// silently regenerates).
fn check_golden(actual: &str, golden: &str, path: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&full, actual).unwrap();
        panic!("regenerated {full}; rerun without UPDATE_GOLDEN");
    }
    assert_eq!(
        actual.trim_end(),
        golden.trim_end(),
        "output drifted from {path}; rerun with UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn collapsed_stack_matches_golden_file() {
    let text = collapsed_stack(&[traced_run(Scheme::Pssm, 1, 1 << 20)]);
    check_golden(
        &text,
        include_str!("golden/bfs_pssm.folded"),
        "../../tests/golden/bfs_pssm.folded",
    );
}

/// A hand-built two-access trace: the exporter-shape golden fixture.
fn tiny_fixture() -> TracedRun {
    let rec = |id, cause, kind, class, bytes, level, cycle| TraceRecord {
        id,
        cause,
        kind,
        class,
        bytes,
        write: false,
        level,
        cycle,
        addr: 0x40,
        info: 0,
    };
    TracedRun {
        workload: "w".into(),
        scheme: "plutus".into(),
        cycles: 100,
        class_bytes: vec![("data".into(), 64), ("counter".into(), 32)],
        records: vec![
            rec(1, 0, "fill", "", 0, 0, 10),
            rec(0, 1, "traffic", "data", 32, 0, 12),
            rec(0, 1, "traffic", "counter", 32, 0, 14),
            rec(0, 1, "value_vouch", "", 0, 0, 15),
            rec(2, 0, "writeback", "", 0, 0, 40),
            rec(0, 2, "traffic", "data", 32, 0, 41),
        ],
        dropped: 0,
    }
}

#[test]
fn chrome_trace_matches_golden_file() {
    let doc = chrome_trace(&[tiny_fixture()], None);
    check_golden(
        &doc.to_string_pretty(),
        include_str!("golden/tiny_trace.json"),
        "../../tests/golden/tiny_trace.json",
    );
}

#[test]
fn real_chrome_trace_is_loadable_json() {
    let doc = chrome_trace(&[traced_run(Scheme::Plutus, 1, 1 << 20)], None);
    let parsed = Json::parse(&doc.to_string_compact()).expect("Perfetto-loadable JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every event carries the mandatory Chrome trace fields.
    for e in events {
        assert!(e.get("ph").is_some());
        assert!(e.get("pid").is_some());
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        if ph != "M" {
            assert!(e.get("ts").is_some());
        }
    }
}
