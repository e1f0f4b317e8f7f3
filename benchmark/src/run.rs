//! One workload measured in this process: warm-up, closed-loop rounds,
//! checks, and — traced — the per-layer numbers and spans.

use crate::host;
use crate::job::JobSpec;
use crate::metrics::{self, CryptoTimes, Values};
use crate::workload::{gpu_config, run_pass, warm_up, Pass, Workload};
use plutus_crypto::backend::{self, CryptoBackend};
use plutus_crypto::{Cmac, CounterMode, Tweak, Xts};
use plutus_telemetry::Json;
use std::hint::black_box;
use std::time::Instant;

/// The outcome of measuring one workload.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Jobs attempted, over every pass.
    pub attempted: u64,
    /// Jobs that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// End-to-end metrics untraced, per-layer metrics traced; each the
    /// median over rounds.
    pub metrics: Values,
    /// Chrome-trace spans of the traced passes (empty untraced).
    pub spans: Option<Json>,
}

impl RunReport {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        let mut m = Json::object();
        for (name, value) in &self.metrics {
            let unit = metrics::lookup(name).map_or("", |d| d.unit);
            m = m.set(name, Json::object().set("value", *value).set("unit", unit));
        }
        Json::object()
            .set("correct", self.failed == 0)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", m)
    }
}

/// Measures `workload`: untraced rounds until `seconds` have passed
/// (at least one); traced, as many traced rounds again.
pub fn measure(workload: Workload, seed: u64, seconds: f64, traced: bool) -> RunReport {
    let cfg = gpu_config();
    warm_up(&cfg);
    let batches = workload.batches();
    let threads = workload.threads();
    let start = Instant::now();
    let mut untraced = Vec::new();
    loop {
        untraced.push(run_pass(&batches, threads, &cfg, seed, false));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if !traced {
        let rss = host::peak_rss_mib();
        let rounds: Vec<Values> = untraced
            .iter()
            .map(|p| metrics::end_to_end(p, rss))
            .collect();
        return report(&untraced, &rounds, None);
    }

    // The telemetry overhead compares the observed jobs against the
    // same jobs with telemetry disabled.
    let has_observed = batches.iter().flatten().any(|j| j.observed);
    let quiet_batches: Vec<Vec<_>> = batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|j| JobSpec {
                    observed: false,
                    ..*j
                })
                .collect()
        })
        .collect();
    let crypto = crypto_times();
    let mut traced_passes = Vec::new();
    let mut quiet_passes = Vec::new();
    let mut rounds = Vec::new();
    for reference in &untraced {
        let mut t = run_pass(&batches, threads, &cfg, seed, true);
        expect_same_stats(&mut t, reference, "traced");
        let off = has_observed.then(|| {
            let mut off = run_pass(&quiet_batches, threads, &cfg, seed, false);
            expect_same_stats(&mut off, reference, "telemetry-disabled");
            off
        });
        if t.failed() == 0 {
            rounds.push(metrics::per_layer(reference, &t, off.as_ref(), crypto));
        }
        traced_passes.push(t);
        quiet_passes.extend(off);
    }
    let spans = spans_json(&traced_passes);
    let passes: Vec<Pass> = untraced
        .into_iter()
        .chain(traced_passes)
        .chain(quiet_passes)
        .collect();
    report(&passes, &rounds, Some(spans))
}

fn expect_same_stats(pass: &mut Pass, reference: &Pass, what: &str) {
    for job in &mut pass.jobs {
        let label = job.spec.label();
        let Some(r) = reference.jobs.iter().find(|r| r.spec.label() == label) else {
            continue;
        };
        if r.stats != job.stats {
            job.failures
                .push(format!("{what} SimStats differ from the untraced run"));
        }
    }
}

fn report(passes: &[Pass], rounds: &[Values], spans: Option<Json>) -> RunReport {
    let mut metrics = Values::new();
    if let Some(first) = rounds.first() {
        for (i, (name, _)) in first.iter().enumerate() {
            let values: Vec<f64> = rounds.iter().map(|r| r[i].1).collect();
            metrics.push((name.clone(), metrics::median(&values)));
        }
    }
    RunReport {
        attempted: passes.iter().map(Pass::attempted).sum(),
        failed: passes.iter().map(Pass::failed).sum(),
        failures: passes.iter().flat_map(Pass::failure_lines).collect(),
        metrics,
        spans,
    }
}

/// Sectors per timed crypto pass, and sectors per batch call.
const CRYPTO_SECTORS: usize = 1 << 16;
const CRYPTO_BATCH: usize = 8;
/// Timed passes per primitive; each takes a few milliseconds, and the
/// median of many damps the host's noise.
const CRYPTO_PASSES: usize = 31;

/// Median over [`CRYPTO_PASSES`] passes of `f`, in nanoseconds per sector.
fn ns_per_sector(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..CRYPTO_PASSES)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / CRYPTO_SECTORS as f64
        })
        .collect();
    metrics::median(&times)
}

/// Times the crypto batch APIs the engines call: batches of eight
/// sectors over 64k sectors.
pub fn crypto_times() -> CryptoTimes {
    let xts = Xts::new([0x11; 16], [0x22; 16]);
    let cme = CounterMode::new([0x33; 16]);
    let cmac = Cmac::new([0x44; 16]);
    let mut sectors: Vec<[u8; 32]> = (0..CRYPTO_SECTORS).map(|i| [i as u8; 32]).collect();
    let tweaks: Vec<Tweak> = (0..CRYPTO_SECTORS as u64)
        .map(|i| Tweak::new(i * 32, i))
        .collect();
    let xts_ns_per_sector = ns_per_sector(|| {
        for (s, t) in sectors
            .chunks_mut(CRYPTO_BATCH)
            .zip(tweaks.chunks(CRYPTO_BATCH))
        {
            xts.encrypt_sectors(black_box(s), t);
        }
    });
    let cme_ns_per_sector = ns_per_sector(|| {
        for (s, t) in sectors
            .chunks_mut(CRYPTO_BATCH)
            .zip(tweaks.chunks(CRYPTO_BATCH))
        {
            cme.apply_sectors(black_box(s), t);
        }
    });
    let cmac_ns_per_tag = ns_per_sector(|| {
        for (s, t) in sectors
            .chunks(CRYPTO_BATCH)
            .zip(tweaks.chunks(CRYPTO_BATCH))
        {
            black_box(cmac.stateful_tag64_many(black_box(s), t));
        }
    });
    CryptoTimes {
        xts_ns_per_sector,
        cme_ns_per_sector,
        cmac_ns_per_tag,
        simd: backend::active() == CryptoBackend::AesNi,
    }
}

fn span(
    name: &str,
    pid: usize,
    tid: usize,
    start_ns: u64,
    dur_ns: u64,
    job: &str,
    parent: &str,
) -> Json {
    Json::object()
        .set("name", name)
        .set("ph", "X")
        .set("pid", pid)
        .set("tid", tid)
        .set("ts", start_ns as f64 / 1e3)
        .set("dur", dur_ns as f64 / 1e3)
        .set("args", Json::object().set("job", job).set("parent", parent))
}

/// Chrome-trace JSON of the traced passes: one process per round, one
/// span per pass, per job and per job phase.
fn spans_json(passes: &[Pass]) -> Json {
    let mut events = Vec::new();
    for (round, pass) in passes.iter().enumerate() {
        let pid = round + 1;
        events.push(span("pass", pid, 0, 0, pass.wall_ns, "", ""));
        for (i, job) in pass.jobs.iter().enumerate() {
            let id = job.spec.label();
            let tid = i + 1;
            events.push(span(
                &id,
                pid,
                tid,
                job.start_ns,
                job.wall_ns(),
                &id,
                "pass",
            ));
            let mut t = job.start_ns;
            for (phase, ns) in [
                ("trace_gen", job.trace_gen_ns),
                ("sim_new", job.sim_new_ns),
                ("sim_run", job.sim_run_ns),
            ] {
                events.push(span(phase, pid, tid, t, ns, &id, &id));
                t += ns;
            }
        }
    }
    Json::object()
        .set("traceEvents", Json::Array(events))
        .set("displayTimeUnit", "ms")
}
