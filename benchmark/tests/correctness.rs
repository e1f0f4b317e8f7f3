//! The benchmark measures what it claims: its timers change no simulated
//! result, its host-time stack accounts for every job's wall time, a
//! corrupted job is counted as failed, and `BENCHMARK.json` lists the
//! metrics the code reports.

use gpu_sim::{GpuConfig, SectorAddr};
use host_bench::job::{run_job, run_job_with, JobSpec, Scheme};
use host_bench::metrics::{self, CryptoTimes, END_TO_END, PER_LAYER};
use host_bench::workload::{run_pass, Pass};
use plutus_exec::Executor;
use plutus_telemetry::Json;
use std::time::Instant;
use workloads::Scale;

fn spec(trace: &'static str, scheme: Scheme) -> JobSpec {
    JobSpec {
        trace,
        scheme,
        scale: Scale::Test,
        length_mul: 1,
        observed: false,
    }
}

#[test]
fn engine_timers_leave_sim_stats_unchanged() {
    let cfg = GpuConfig::test_small();
    let observed = JobSpec {
        observed: true,
        ..spec("bfs", Scheme::Plutus)
    };
    let specs = Scheme::ALL.map(|s| spec("bfs", s));
    for spec in specs.iter().chain([&observed]) {
        let plain = run_job(spec, &cfg, 7, false, Instant::now());
        let timed = run_job(spec, &cfg, 7, true, Instant::now());
        assert_eq!(plain.failures, Vec::<String>::new(), "{}", spec.label());
        assert_eq!(timed.failures, Vec::<String>::new(), "{}", spec.label());
        assert_eq!(plain.stats, timed.stats, "{}", spec.label());
        let probe = timed.probe.expect("traced job has a probe");
        assert!(
            probe.install.calls > 0 && probe.fill.calls > 0 && probe.writeback.calls > 0,
            "{}: {probe:?}",
            spec.label()
        );
    }
}

#[test]
fn host_time_stack_conserves_and_every_catalogued_metric_is_reported() {
    let cfg = GpuConfig::test_small();
    let batches = vec![
        Scheme::ALL.map(|s| spec("histo", s)).to_vec(),
        vec![spec("bfs", Scheme::Plutus)],
    ];
    let untraced = run_pass(&batches, 2, &cfg, 3, false);
    let traced = run_pass(&batches, 2, &cfg, 3, true);
    assert_eq!(traced.failed(), 0, "{:?}", traced.failure_lines());
    let mut wall_ns = 0;
    for job in &traced.jobs {
        let stack = job.stack().expect("consistent stack");
        assert_eq!(stack.total_ns(), job.wall_ns(), "{}", job.spec.label());
        wall_ns += job.wall_ns();
    }
    let crypto = CryptoTimes {
        xts_ns_per_sector: 1.0,
        cme_ns_per_sector: 1.0,
        cmac_ns_per_tag: 1.0,
        simd: false,
    };
    let values = metrics::per_layer(&untraced, &traced, None, crypto);
    let names = |v: &metrics::Values| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    let catalogue = |c: &[metrics::MetricDef]| c.iter().map(|d| d.name).collect::<Vec<_>>();
    assert_eq!(names(&values), catalogue(PER_LAYER));
    assert_eq!(
        names(&metrics::end_to_end(&untraced, 1.0)),
        catalogue(END_TO_END)
    );
    let get = |name: &str| {
        values
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };
    let layers = [
        "workloads.trace_gen_s",
        "gpu-sim.setup_self_s",
        "gpu-sim.run_self_s",
        "gpu-sim.backing_s",
        "secure-mem.install_s",
        "secure-mem.fill_s",
        "secure-mem.writeback_s",
        "core.install_s",
        "core.fill_s",
        "core.writeback_s",
    ];
    let stacked: f64 = layers.iter().map(|l| get(l)).sum();
    let wall = wall_ns as f64 / 1e9;
    assert!(
        (stacked - wall).abs() < 1e-9 * wall.max(1.0),
        "{stacked} vs {wall}"
    );
}

#[test]
fn tampered_data_is_counted_as_a_failed_job() {
    let cfg = GpuConfig::test_small();
    for scheme in [Scheme::Pssm, Scheme::Plutus] {
        let tampered = run_job_with(
            &spec("bfs", scheme),
            &cfg,
            5,
            false,
            Instant::now(),
            |sim| {
                for i in 0..1024u64 {
                    sim.backing_mut()
                        .corrupt(SectorAddr::new(i * 32), &[0x5a; 32]);
                }
            },
        );
        assert!(
            tampered.failures.iter().any(|f| f.contains("violations")),
            "{}: {:?}",
            scheme.label(),
            tampered.failures
        );
        let pass = Pass {
            wall_ns: 1,
            cpu_s: 0.0,
            jobs: vec![
                tampered,
                run_job(&spec("bfs", scheme), &cfg, 5, false, Instant::now()),
            ],
            panics: Vec::new(),
            sched: Executor::sequential().stats(),
        };
        assert_eq!((pass.attempted(), pass.failed()), (2, 1));
    }
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String, String)> = doc
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let reported: Vec<(String, String, String)> = catalogue
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.label().into()))
            .collect();
        assert_eq!(listed, reported, "{key}");
    }
}
