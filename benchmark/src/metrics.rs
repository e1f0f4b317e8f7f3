//! The metric catalogue and how each metric is computed from passes.

use crate::job::{JobOutcome, Scheme, TelemetryCounts};
use crate::probe::{CallStats, EngineProbe};
use crate::workload::Pass;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name in reports and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// A deterministic count: runs of one seed must agree exactly.
    pub exact: bool,
}

const fn def(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the simulator sees, measured untraced.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s", Lower, false),
    def("cpu_s", "s", Lower, false),
    def("setup_s", "s", Lower, false),
    def("accesses_per_s", "1/s", Higher, false),
    def("sim_cycles_per_s", "1/s", Higher, false),
    def("peak_rss_mb", "MiB", Lower, false),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("workloads.trace_gen_s", "s", Lower, false),
    def("workloads.accesses", "count", Higher, true),
    def("gpu-sim.setup_self_s", "s", Lower, false),
    def("gpu-sim.run_self_s", "s", Lower, false),
    def("gpu-sim.run_self_ns_per_access", "ns", Lower, false),
    def("gpu-sim.backing_s", "s", Lower, false),
    def("gpu-sim.sim_cycles", "cycles", Lower, true),
    def("gpu-sim.l2_hit_ratio", "ratio", Higher, true),
    def("gpu-sim.mshr_stalls", "count", Lower, true),
    def("gpu-sim.dram_bytes", "B", Lower, true),
    def("gpu-sim.metadata_bytes", "B", Lower, true),
    def("gpu-sim.stats_digest", "fnv1a32", Lower, true),
    def("secure-mem.install_s", "s", Lower, false),
    def("secure-mem.fill_s", "s", Lower, false),
    def("secure-mem.fill_calls", "count", Lower, true),
    def("secure-mem.fill_ns_p50", "ns", Lower, false),
    def("secure-mem.fill_ns_p99", "ns", Lower, false),
    def("secure-mem.meta_reqs_per_fill", "count", Lower, true),
    def("secure-mem.writeback_s", "s", Lower, false),
    def("secure-mem.writeback_calls", "count", Lower, true),
    def("secure-mem.writeback_ns_p50", "ns", Lower, false),
    def("secure-mem.writeback_ns_p99", "ns", Lower, false),
    def("core.install_s", "s", Lower, false),
    def("core.fill_s", "s", Lower, false),
    def("core.fill_calls", "count", Lower, true),
    def("core.fill_ns_p50", "ns", Lower, false),
    def("core.fill_ns_p99", "ns", Lower, false),
    def("core.meta_reqs_per_fill", "count", Lower, true),
    def("core.writeback_s", "s", Lower, false),
    def("core.writeback_calls", "count", Lower, true),
    def("core.writeback_ns_p50", "ns", Lower, false),
    def("core.writeback_ns_p99", "ns", Lower, false),
    def("core.value_verified_ratio", "ratio", Higher, true),
    def("crypto.xts_ns_per_sector", "ns", Lower, false),
    def("crypto.cme_ns_per_sector", "ns", Lower, false),
    def("crypto.cmac_ns_per_tag", "ns", Lower, false),
    def("crypto.backend_simd", "flag", Higher, true),
    def("exec.makespan_ratio", "ratio", Lower, false),
    def("exec.queue_wait_s", "s", Lower, false),
    def("exec.worker_idle_s", "s", Lower, false),
    def("telemetry.overhead_pct", "%", Lower, false),
    def("telemetry.trace_records", "count", Lower, true),
    def("telemetry.trace_dropped", "count", Lower, true),
    def("telemetry.epochs", "count", Lower, true),
    def("trace_overhead_pct", "%", Lower, false),
];

/// The catalogue entry called `name`, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Metric values by name.
pub type Values = Vec<(String, f64)>;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end metrics of one untraced pass. `peak_rss_mib` is the
/// process's high-water mark, which no single pass owns.
pub fn end_to_end(pass: &Pass, peak_rss_mib: f64) -> Values {
    let sum = |f: fn(&JobOutcome) -> u64| pass.jobs.iter().map(f).sum::<u64>();
    let wall = secs(pass.wall_ns);
    vec![
        ("wall_s".into(), wall),
        ("cpu_s".into(), pass.cpu_s),
        ("setup_s".into(), secs(sum(JobOutcome::setup_ns))),
        (
            "accesses_per_s".into(),
            ratio(sum(|j| j.stats.accesses) as f64, wall),
        ),
        (
            "sim_cycles_per_s".into(),
            ratio(sum(|j| j.stats.cycles) as f64, secs(sum(|j| j.sim_run_ns))),
        ),
        ("peak_rss_mb".into(), peak_rss_mib),
    ]
}

/// Host cost of the crypto primitives, timed through their batch APIs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CryptoTimes {
    /// `Xts::encrypt_sectors`, per sector.
    pub xts_ns_per_sector: f64,
    /// `CounterMode::apply_sectors`, per sector.
    pub cme_ns_per_sector: f64,
    /// `Cmac::stateful_tag64_many`, per tag.
    pub cmac_ns_per_tag: f64,
    /// Whether the SIMD backend served the calls.
    pub simd: bool,
}

/// 32-bit FNV-1a of `bytes`, continuing from `h`.
fn fnv1a32(bytes: &[u8], mut h: u32) -> u32 {
    for &b in bytes {
        h = (h ^ u32::from(b)).wrapping_mul(0x0100_0193);
    }
    h
}

const FNV32_BASIS: u32 = 0x811c_9dc5;

fn call_metrics(out: &mut Values, layer: &str, what: &str, calls: &CallStats) {
    out.push((format!("{layer}.{what}_s"), secs(calls.ns)));
    out.push((format!("{layer}.{what}_calls"), calls.calls as f64));
    for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
        // A percentile without ten samples beyond it is not measured: 0.
        let v = calls.hist.quantile(q).unwrap_or(0.0);
        out.push((format!("{layer}.{what}_ns_{tag}"), v));
    }
}

/// Per-layer metrics of one round: the traced pass, the untraced pass
/// it is compared against, and — for observed workloads — the same jobs
/// with telemetry disabled.
///
/// # Panics
///
/// Panics when a traced job lacks its engine probe or a consistent
/// stack; the traced pass marks such jobs failed first.
pub fn per_layer(
    untraced: &Pass,
    traced: &Pass,
    telemetry_off: Option<&Pass>,
    crypto: CryptoTimes,
) -> Values {
    let jobs = &traced.jobs;
    let stacks: Vec<_> = jobs
        .iter()
        .map(|j| j.stack().expect("traced job with a consistent stack"))
        .collect();
    let sum = |f: &dyn Fn(&JobOutcome) -> u64| jobs.iter().map(f).sum::<u64>();
    let accesses = sum(&|j| j.stats.accesses);
    let run_self: u64 = stacks.iter().map(|s| s.run_self_ns).sum();
    let probe_of = |layer: &str| {
        let mut merged = EngineProbe::default();
        for j in jobs.iter().filter(|j| j.spec.scheme.layer() == layer) {
            merged.merge(j.probe.as_ref().expect("traced job has a probe"));
        }
        merged
    };
    let backing = probe_of(Scheme::NoSecurity.layer());
    let mut digest = FNV32_BASIS;
    for j in jobs {
        digest = fnv1a32(format!("{:?}", j.stats).as_bytes(), digest);
    }
    let l2_lookups = sum(&|j| j.stats.l2_hits + j.stats.l2_misses + j.stats.mshr_merges);

    let mut out: Values = vec![
        (
            "workloads.trace_gen_s".into(),
            secs(sum(&|j| j.trace_gen_ns)),
        ),
        ("workloads.accesses".into(), sum(&|j| j.trace_len) as f64),
        (
            "gpu-sim.setup_self_s".into(),
            secs(stacks.iter().map(|s| s.setup_self_ns).sum()),
        ),
        ("gpu-sim.run_self_s".into(), secs(run_self)),
        (
            "gpu-sim.run_self_ns_per_access".into(),
            ratio(run_self as f64, accesses as f64),
        ),
        (
            "gpu-sim.backing_s".into(),
            secs(backing.install.ns + backing.fill.ns + backing.writeback.ns),
        ),
        ("gpu-sim.sim_cycles".into(), sum(&|j| j.stats.cycles) as f64),
        (
            "gpu-sim.l2_hit_ratio".into(),
            ratio(sum(&|j| j.stats.l2_hits) as f64, l2_lookups as f64),
        ),
        (
            "gpu-sim.mshr_stalls".into(),
            sum(&|j| j.stats.mshr_stalls) as f64,
        ),
        (
            "gpu-sim.dram_bytes".into(),
            sum(&|j| j.stats.total_bytes()) as f64,
        ),
        (
            "gpu-sim.metadata_bytes".into(),
            sum(&|j| j.stats.metadata_bytes()) as f64,
        ),
        ("gpu-sim.stats_digest".into(), f64::from(digest)),
    ];
    for layer in ["secure-mem", "core"] {
        let p = probe_of(layer);
        out.push((format!("{layer}.install_s"), secs(p.install.ns)));
        call_metrics(&mut out, layer, "fill", &p.fill);
        out.push((
            format!("{layer}.meta_reqs_per_fill"),
            ratio(p.fill_meta_reqs as f64, p.fill.calls as f64),
        ));
        call_metrics(&mut out, layer, "writeback", &p.writeback);
        if layer == "core" {
            out.push((
                "core.value_verified_ratio".into(),
                ratio(p.verified_by_value as f64, p.fill.calls as f64),
            ));
        }
    }
    out.extend([
        ("crypto.xts_ns_per_sector".into(), crypto.xts_ns_per_sector),
        ("crypto.cme_ns_per_sector".into(), crypto.cme_ns_per_sector),
        ("crypto.cmac_ns_per_tag".into(), crypto.cmac_ns_per_tag),
        (
            "crypto.backend_simd".into(),
            f64::from(u8::from(crypto.simd)),
        ),
    ]);

    let sched = &traced.sched;
    let wall = sched.wall_ns_total as f64;
    let workers = sched.workers as f64;
    out.extend([
        (
            "exec.makespan_ratio".into(),
            ratio(wall, sched.exec_ns_total as f64 / workers),
        ),
        (
            "exec.queue_wait_s".into(),
            sched.queue_ns_mean * sched.jobs as f64 / 1e9,
        ),
        (
            "exec.worker_idle_s".into(),
            sched
                .worker_busy_ns
                .iter()
                .map(|&busy| (wall - busy as f64).max(0.0))
                .sum::<f64>()
                / 1e9,
        ),
    ]);

    let overhead = |on: &Pass, off: &Pass| {
        100.0 * ratio(on.wall_ns as f64 - off.wall_ns as f64, off.wall_ns as f64)
    };
    let tel_sum = |f: fn(&TelemetryCounts) -> u64| {
        jobs.iter()
            .filter_map(|j| j.telemetry.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    out.extend([
        (
            "telemetry.overhead_pct".into(),
            telemetry_off.map_or(0.0, |off| overhead(untraced, off)),
        ),
        ("telemetry.trace_records".into(), tel_sum(|t| t.records)),
        ("telemetry.trace_dropped".into(), tel_sum(|t| t.dropped)),
        ("telemetry.epochs".into(), tel_sum(|t| t.epochs)),
        ("trace_overhead_pct".into(), overhead(traced, untraced)),
    ]);
    out
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; a single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
        }
    }
}
