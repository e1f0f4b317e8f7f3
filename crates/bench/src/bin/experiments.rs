//! Regenerates every table and figure of the Plutus paper's evaluation.
//!
//! ```text
//! cargo run --release -p plutus-bench --bin experiments -- <id> [--scale test|small|paper] [--workloads a,b,c]
//! ```
//!
//! `experiments --help` prints every experiment id and every flag with
//! its value, generated from the `FIGURES`/`EXTRAS` and `FLAGS` tables
//! the dispatcher and the parser read; a bad value exits 2 with
//! `error: <flag> requires <value>`. `all` (the default) runs table1
//! through fig22.
//!
//! Run plan: an experiment is data — its id, the schemes its matrix
//! needs and a render function. One `run_matrix` call simulates the
//! union of the selected experiments' schemes (the plan), so `all` runs
//! each (workload, scheme) cell once; each experiment then renders its
//! view, per workload its own schemes in its own order, after the
//! degenerate gate, and saves it as `<id>.json` and `.csv`.
//! `ablations` declares its rows as (label, scheme, config tweak) and
//! makes one `run_matrix` call per distinct configuration, so it too
//! simulates each cell once on the executor.
//!
//! `figrepro` is the normalized-IPC figure-reproduction
//! report (Figs. 11-14 style): the no-security/PSSM/common-counters/
//! Plutus matrix with per-scheme geomeans, the CPI stacks behind the
//! numbers, and a prominent warning when the result is degenerate
//! (every scheme at norm_ipc = 1.0). `cipher_bench` times the
//! functional crypto primitives scalar vs the native SIMD backend
//! (`--assert-speedup X` gates the batched rows).
//!
//! Reports: every table prints through `plutus_telemetry::Table`, and
//! every row report is saved into the report directory —
//! `target/experiments/`, or the `--run-dir` — as JSON plus a CSV of its
//! scalar columns. Reports with a gate exit nonzero, naming every
//! violated check, when it fails.
//!
//! Crypto backend: every invocation logs `crypto backend: <name>` and
//! sets the `crypto.backend_simd` gauge; `--crypto-backend
//! auto|scalar|simd` overrides the CPUID-based runtime selection
//! (`scalar` forces the portable tables, e.g. to reproduce golden files
//! on any host; `simd` fails fast when the CPU lacks AES-NI).
//!
//! Scheduling: simulator runs execute as independent jobs on a bounded
//! pool with one job stack. `--jobs N` caps the worker count (default:
//! one per available core); results are byte-identical for any `N`.
//! `--sched-stats` prints the cumulative scheduler dump (queue latency,
//! execution time, per-worker utilization) on exit.
//! `--heartbeat S` prints a progress line to stderr every S seconds
//! while the pool runs (jobs done/total, the workload/scheme labels
//! currently executing, elapsed wall time). Heartbeat runs arm a soft
//! per-job watchdog: once three jobs have finished, any job still
//! executing past four times the running median duration is marked
//! `[SLOW]` in the progress line and counted in the `sched.watchdog`
//! telemetry counter; jobs are never cancelled.
//!
//! Cycle ledger: `--ledger-out <path>` writes the per-cycle stall
//! attribution of every cell of the run plan — the JSON document (per-partition
//! bucket matrix + summed CPI stack per workload/scheme), a `.csv`
//! sibling, and a `.folded` flamegraph collapsed-stack sibling — and
//! prints the CPI-stack table. Its conservation gate fails if any
//! partition's buckets do not sum exactly to the run's cycle count.
//!
//! Telemetry: `--metrics-out <path>` captures the full metrics registry
//! (per-class traffic counters, cache hit/miss counters, latency
//! histograms, per-run epoch snapshots) and writes it to
//! `<path>` on exit, as CSV when the path ends in `.csv` and as JSON
//! otherwise. Whenever `--metrics-out` or `--stream-out` reads the
//! registry, every matrix run closes one epoch labelled
//! `workload/scheme` in a telemetry instance of its own, appended to the
//! registry in submission order once its phase has finished;
//! `--epoch-cycles N` additionally closes an epoch every N simulated
//! cycles inside each run.
//!
//! Fault-injection campaigns: `--campaign tamper|replay|rollback|sweep`
//! replaces the experiment ids with a seeded Monte Carlo attack on every
//! security engine (`--trials R` runs × `--faults F` faults each,
//! `--seed S`), reporting detection rates, the detecting-layer
//! histogram, and detection latencies as `campaign-<kind>`. Its gate
//! fails if the measured value-verification forgery-acceptance rate
//! exceeds the analytic Eq. 1 binomial bound.
//!
//! Causal tracing: `--trace-out <path>` arms the per-access flight
//! recorder on every matrix run (sampling 1-in-N roots via
//! `--trace-sample N`, default 1 = lossless) and writes a
//! Perfetto-loadable Chrome trace to `<path>` plus flamegraph collapsed
//! stacks to `<path>.folded`, printing per-run bandwidth-attribution
//! tables on exit.
//!
//! Regression harness: `--bench-out <path>` writes the canonical perf
//! snapshot (IPC, per-class DRAM bytes, metadata overhead, latencies)
//! of every cell of the run plan; `--compare <baseline.json>` is the
//! obs-diff of a committed baseline and that snapshot, exiting 1 when
//! any metric moved its bad way beyond `--tolerance <frac>` (default
//! 0.02).
//!
//! Fail-operational campaigns: `--campaign transient` injects a seeded
//! soft-error process (`--soft-error-rate P` per fill) and retries
//! failed fills up to `--retry-limit N`; its gate fails if any benign
//! transient is misclassified as an attack. `--campaign crash` kills
//! runs at arbitrary cycles, restores the last metadata checkpoint
//! (`--checkpoint-cycles C` cadence), and reconstructs counters against
//! the persistent MACs; its gate fails unless every post-recovery read
//! is bit-identical with no spurious violations.
//!
//! Multi-tenant chaos: `--campaign storm` co-schedules an adversarial
//! tenant (counter-overflow write hammer + tamper/replay faults at its
//! own slab) with `--tenants N` victim tenants (default 3) under
//! per-tenant keys, rotates a victim's keys live, and crash-kills runs
//! mid-rotation. The gate fails unless victims record zero violations
//! and zero degradation-ladder freezes, victim IPC stays within
//! `--tolerance` (default 25%) of an honest baseline, the cycle ledger
//! conserves, Eq. 1 holds, and every mid-rotation crash recovers
//! bit-identical plaintext. `--campaign soak` adds seeded soft errors
//! (`--soft-error-rate`, `--retry-limit`) and more crash points;
//! `--inject-breach` deliberately faults a victim slab to prove the
//! monitors fail loudly.
//!
//! Live observability: `--run-dir DIR` routes every report writer into
//! one directory and stamps a `manifest.json` (cmdline, seed, scale,
//! workloads, crypto backend, workspace version) so runs are
//! self-describing and diffable. `--stream-out FILE|-` streams one
//! NDJSON line per closed telemetry epoch (its counter deltas) the
//! moment the epoch closes; a slow consumer drops lines
//! instead of stalling the run; storm/soak campaigns close one epoch
//! per row. `experiments obs-diff A B [--tolerance F]`
//! compares two run directories — manifests first, then every shared
//! JSON report leaf by leaf — exiting 1 on regressions beyond the
//! tolerance and 2 when the runs are incompatible or share no report.

use gpu_sim::GpuConfig;
use plutus_bench::ablations::{ablation_report, AblationRow};
use plutus_bench::{
    attribution_table, bench_snapshot_with, campaign_gate, campaign_report, chrome_trace,
    cipher_bench_gate, cipher_bench_report, collapsed_stack, cpi_stack_table, crash_gate,
    crash_report, degenerate_warning, diff_documents, diff_run_dirs, eq1_bound, figure_report,
    geomean, ledger_csv, ledger_folded, ledger_gate, ledger_json, matrix_table, measurement_table,
    obs_diff_table, read_report, run_campaign_on, run_crash_campaign_on, run_matrix,
    run_storm_campaign_observed, run_transient_campaign_on, storm_gate, storm_report,
    transient_gate, transient_report, BenchProvenance, CampaignConfig, CampaignKind,
    CrashCampaignConfig, EnergyModel, Measurement, ObsDiff, Observe, Scheme, StormCampaignConfig,
    StormRow, TracedRun, TransientCampaignConfig,
};
use plutus_core::value_analysis::analyze_trace;
use plutus_crypto::CryptoBackend;
use plutus_exec::Executor;
use plutus_telemetry::{
    save_report, CycleClock, GateFailure, Json, Table, Telemetry, DEFAULT_TRACE_CAPACITY,
    MANIFEST_FILE, MANIFEST_SCHEMA,
};
use secure_mem::SecureMemConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use workloads::{suite, Scale, WorkloadSpec};

/// One command-line flag. A switch takes no value; any other flag names
/// what its value is — `--help` lists it and a bad value fails with
/// `<flag> requires <value>` — and the check the value must pass.
struct Flag {
    name: &'static str,
    value: Option<(&'static str, Check)>,
}

/// The check a flag's value must pass.
type Check = fn(&str) -> bool;

const fn switch(name: &'static str) -> Flag {
    Flag { name, value: None }
}

const fn takes(name: &'static str, what: &'static str, check: Check) -> Flag {
    Flag {
        name,
        value: Some((what, check)),
    }
}

fn positive(v: &str) -> bool {
    v.parse::<u64>().is_ok_and(|n| n > 0)
}

fn unsigned(v: &str) -> bool {
    v.parse::<u64>().is_ok()
}

fn any(_: &str) -> bool {
    true
}

const CAMPAIGNS: &str = "tamper|replay|rollback|sweep|transient|crash|storm|soak";

/// Every flag `experiments` accepts; the parser, `--help` and the value
/// lookups all read this table.
const FLAGS: &[Flag] = &[
    switch("--help"),
    takes("--scale", "test|small|paper", |v| {
        matches!(v, "test" | "small" | "paper")
    }),
    takes("--workloads", "a comma-separated workload list", any),
    takes("--jobs", "a positive integer", positive),
    switch("--sched-stats"),
    takes("--heartbeat", "a positive number of seconds", positive),
    takes("--crypto-backend", "auto|scalar|simd", |v| {
        v == "auto" || v.parse::<CryptoBackend>().is_ok()
    }),
    takes("--seed", "an unsigned integer", unsigned),
    takes("--campaign", CAMPAIGNS, |v| {
        CAMPAIGNS.split('|').any(|c| c == v)
    }),
    takes("--trials", "a positive integer", positive),
    takes("--faults", "a positive integer", positive),
    takes("--soft-error-rate", "a probability in [0, 1]", |v| {
        v.parse::<f64>().is_ok_and(|r| (0.0..=1.0).contains(&r))
    }),
    takes("--retry-limit", "an unsigned integer", |v| {
        v.parse::<u32>().is_ok()
    }),
    takes("--checkpoint-cycles", "a positive integer", positive),
    takes("--tenants", "a positive victim count", positive),
    switch("--inject-breach"),
    takes("--tolerance", "a non-negative fraction", |v| {
        v.parse::<f64>().is_ok_and(|t| t >= 0.0 && t.is_finite())
    }),
    takes("--metrics-out", "a path", any),
    takes("--epoch-cycles", "a positive integer", positive),
    takes("--stream-out", "a path (or '-' for stdout)", any),
    takes("--run-dir", "a directory", any),
    takes("--trace-out", "a path", any),
    takes("--trace-sample", "a positive integer", positive),
    takes("--ledger-out", "a path", any),
    takes("--bench-out", "a path", any),
    takes("--compare", "a baseline snapshot path", any),
    takes("--assert-speedup", "a positive multiple", |v| {
        v.parse::<f64>().is_ok_and(|x| x > 0.0 && x.is_finite())
    }),
];

/// An experiment: its id, the schemes of its matrix (none when it
/// simulates no matrix) and how it renders its view of the run plan.
type Experiment = (&'static str, &'static [Scheme], Render);

/// Renders an experiment from its view: per workload, one row for each
/// of the experiment's schemes, in its order.
type Render = fn(&Args, &GpuConfig, &[Measurement]);

/// The normalized-IPC matrix of Fig. 18 and `figrepro`.
const HEADLINE: &[Scheme] = &[
    Scheme::None,
    Scheme::Pssm,
    Scheme::CommonCounters,
    Scheme::Plutus,
];

/// The experiments `all` runs, in order.
const FIGURES: &[Experiment] = &[
    ("table1", &[], |_, cfg, _| table1(cfg)),
    ("table2", &[], |_, _, _| table2()),
    ("fig6", &[Scheme::None, Scheme::Pssm], fig6),
    ("fig7", &[Scheme::Pssm], fig7),
    ("fig9", &[], |args, _, _| fig9(args)),
    ("fig10", &[], |args, _, _| fig10(args)),
    (
        "fig15",
        &[Scheme::None, Scheme::Pssm, Scheme::ValueVerifyOnly],
        ipc_figure,
    ),
    (
        "fig16",
        &[
            Scheme::None,
            Scheme::Pssm,
            Scheme::FineLeafCoarseTree,
            Scheme::All32,
        ],
        ipc_figure,
    ),
    (
        "fig17",
        &[
            Scheme::None,
            Scheme::Pssm,
            Scheme::Compact2Bit,
            Scheme::Compact3Bit,
            Scheme::CompactAdaptive,
        ],
        ipc_figure,
    ),
    ("fig18", HEADLINE, fig18),
    ("fig19", &[Scheme::Pssm, Scheme::Plutus], fig19),
    (
        "fig20",
        &[Scheme::None, Scheme::PssmNoTree, Scheme::PlutusNoTree],
        ipc_figure,
    ),
    (
        "fig21",
        &[
            Scheme::None,
            Scheme::PlutusValueEntries(64),
            Scheme::PlutusValueEntries(128),
            Scheme::PlutusValueEntries(256),
            Scheme::PlutusValueEntries(512),
            Scheme::PlutusValueEntries(1024),
        ],
        ipc_figure,
    ),
    (
        "fig22",
        &[Scheme::None, Scheme::Pssm, Scheme::Plutus],
        fig22,
    ),
];

/// The experiments `all` leaves out.
const EXTRAS: &[Experiment] = &[
    ("figrepro", HEADLINE, |_, _, rows| {
        print!("{}", figure_report(rows, &columns(rows)));
    }),
    ("cipher_bench", &[], |args, _, _| cipher_bench_cli(args)),
    ("overheads", &[], |_, _, _| overheads()),
    ("workloads", &[], |args, _, _| workload_report(args)),
    ("ablations", &[], |args, cfg, _| ablations(args, cfg)),
];

/// The experiment declared under `id`.
fn find_experiment(id: &str) -> Option<&'static Experiment> {
    FIGURES.iter().chain(EXTRAS).find(|(name, ..)| *name == id)
}

/// The run plan: every scheme the experiments need, once each, in
/// first-appearance order.
fn plan(experiments: &[Experiment]) -> Vec<Scheme> {
    let mut schemes = Vec::new();
    for &scheme in experiments.iter().flat_map(|(_, s, _)| *s) {
        if !schemes.contains(&scheme) {
            schemes.push(scheme);
        }
    }
    schemes
}

/// An experiment's view of the plan's rows: per workload, the row of
/// each of `schemes`, in `schemes` order.
fn view(rows: &[Measurement], schemes: &[Scheme]) -> Vec<Measurement> {
    let mut view = Vec::new();
    for cells in per_workload(rows) {
        for scheme in schemes {
            let label = scheme.label();
            let row = cells.iter().find(|r| r.scheme == label);
            view.push(row.expect("the plan covers every view").clone());
        }
    }
    view
}

/// The generated `--help` text: every experiment id and every flag with
/// its value, from the tables the parser and the dispatcher read.
fn usage() -> String {
    let ids = |table: &[Experiment]| table.iter().map(|(id, ..)| format!(" {id}")).collect();
    let (figures, extras): (String, String) = (ids(FIGURES), ids(EXTRAS));
    let mut text = format!(
        "usage: experiments [<id>] [<flag>...]\n       \
         experiments obs-diff <run-dir> <run-dir> [--tolerance <fraction>]\n\n\
         experiment ids:\n  all (the default) runs{figures}\n  also:{extras}\n\nflags:\n"
    );
    for flag in FLAGS {
        let what = flag.value.map_or("", |(what, _)| what);
        text += format!("  {:<20}{what}", flag.name).trim_end();
        text += "\n";
    }
    text
}

/// Every flag's last value, by name (a switch maps to `""`).
struct Flags(HashMap<&'static str, String>);

impl Flags {
    /// The value given for `flag`, if it was given.
    ///
    /// # Panics
    ///
    /// Panics if `flag` is not declared in [`FLAGS`].
    fn get(&self, flag: &str) -> Option<&str> {
        let declared = FLAGS.iter().any(|f| f.name == flag);
        assert!(declared, "undeclared flag {flag}");
        self.0.get(flag).map(String::as_str)
    }

    /// Whether `flag` was given.
    fn on(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// `flag`'s value as a `T` (the table's check already vetted it).
    fn value<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.get(flag).and_then(|v| v.parse().ok())
    }

    /// An output path, routed into the `--run-dir` when one is set.
    fn out(&self, flag: &str) -> Option<PathBuf> {
        self.get(flag).map(plutus_telemetry::in_run_dir)
    }

    fn scale(&self) -> Scale {
        match self.get("--scale") {
            Some("test") => Scale::Test,
            Some("paper") => Scale::Paper,
            _ => Scale::Small,
        }
    }

    fn seed(&self) -> u64 {
        self.value("--seed").unwrap_or(0xB00C_5EED)
    }
}

struct Args {
    experiment: String,
    /// Positional arguments after an `obs-diff` subcommand.
    obs_args: Vec<String>,
    flags: Flags,
    workloads: Vec<WorkloadSpec>,
    tel: Telemetry,
    exec: Executor,
    /// How matrix runs are observed: they feed the shared registry when
    /// `--metrics-out` or `--stream-out` reads it, and arm the flight
    /// recorder under `--trace-out`.
    observe: Observe,
}

/// Prints where report `name` was saved, or routes the I/O failure
/// through [`fail`] so the CLI exits nonzero instead of panicking.
fn report_saved(name: &str, saved: std::io::Result<Vec<PathBuf>>) {
    match saved {
        Ok(paths) => println!("saved {paths:?}"),
        Err(e) => fail(format!("cannot write {name}: {e}")),
    }
}

/// Prints the error and exits nonzero.
fn fail(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Splits `argv` against [`FLAGS`] into the experiment id, the
/// `obs-diff` run directories and every flag's value. A repeated flag's
/// last value wins, a value never begins with `--` (`-` alone is
/// stdout), and only `obs-diff` takes more than one positional.
fn parse_command_line(argv: &[String]) -> Result<(String, Vec<String>, Flags), String> {
    let mut values = HashMap::new();
    let mut positionals = Vec::new();
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        if !word.starts_with("--") {
            positionals.push(word.clone());
            continue;
        }
        let flag = FLAGS.iter().find(|f| f.name == word);
        let flag = flag.ok_or_else(|| format!("unknown flag {word}"))?;
        let value = match flag.value {
            None => String::new(),
            Some((what, check)) => match words.next() {
                Some(v) if !v.starts_with("--") && check(v) => v.clone(),
                _ => return Err(format!("{} requires {what}", flag.name)),
            },
        };
        values.insert(flag.name, value);
    }
    let mut positionals = positionals.into_iter();
    let experiment = positionals.next().unwrap_or_else(|| "all".into());
    let obs_args: Vec<String> = positionals.collect();
    let checked = match (experiment.as_str(), obs_args.as_slice()) {
        ("obs-diff", [_, _]) => Ok(()),
        ("obs-diff", dirs) => Err(format!(
            "obs-diff needs exactly two run directories, got {dirs:?}"
        )),
        (id, _) if id != "all" && find_experiment(id).is_none() => {
            Err(format!("unknown experiment {id}"))
        }
        (_, [extra, ..]) => Err(format!(
            "unexpected argument {extra}: one experiment id per run"
        )),
        _ => Ok(()),
    };
    checked.map(|()| (experiment, obs_args, Flags(values)))
}

/// Parses the command line — `--help` prints the generated usage and
/// exits 0 — then runs the post-parse steps: workload selection,
/// crypto-backend pinning, the run dir and manifest, the epoch stream
/// and the executor.
fn parse_args(tel: &Telemetry) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (experiment, obs_args, flags) = parse_command_line(&argv).unwrap_or_else(|e| fail(e));
    if flags.on("--help") {
        print!("{}", usage());
        std::process::exit(0);
    }
    let all = suite();
    let workloads = match flags.get("--workloads") {
        None => all,
        Some(list) => {
            let names: Vec<&str> = list.split(',').collect();
            let known: Vec<&str> = all.iter().map(|w| w.name).collect();
            if let Some(bad) = names.iter().find(|n| !known.contains(n)) {
                fail(format!(
                    "unknown workload {bad:?}; known: {}",
                    known.join(", ")
                ));
            }
            all.into_iter()
                .filter(|w| names.contains(&w.name))
                .collect()
        }
    };
    // Pin the crypto backend before any cipher is constructed so every
    // run in this process is uniform, then surface the choice: one log
    // line plus the `crypto.backend_simd` gauge (1 = AES-NI active).
    if let Some(backend) = flags.value::<CryptoBackend>("--crypto-backend") {
        if backend == CryptoBackend::AesNi && plutus_crypto::backend::detect() != backend {
            fail(
                "--crypto-backend simd requested, but this host has no \
                 AES-NI/PCLMULQDQ support"
                    .into(),
            );
        }
        plutus_crypto::backend::force(backend);
    }
    let active_backend = plutus_crypto::backend::active();
    eprintln!("crypto backend: {active_backend}");
    tel.gauge("crypto.backend_simd")
        .set(u64::from(active_backend == CryptoBackend::AesNi));
    // Arm the run directory before any writer runs: every report
    // (campaign JSON/CSV, figures, metrics, ledger, trace, bench)
    // routes through `plutus_telemetry::report_dir()`/`in_run_dir`,
    // and the manifest makes the directory self-describing.
    if let Some(dir) = flags.get("--run-dir") {
        if let Err(e) = plutus_telemetry::set_run_dir(dir) {
            fail(format!("cannot create run dir {dir}: {e}"));
        }
        let backend = active_backend.to_string();
        let manifest = build_manifest(&argv, &experiment, &flags, &workloads, &backend);
        let path = Path::new(dir).join(MANIFEST_FILE);
        if let Err(e) = plutus_telemetry::atomic_write(path, manifest.to_string_pretty()) {
            fail(format!("cannot write manifest: {e}"));
        }
        eprintln!("run dir: {dir}");
    }
    // Start the epoch stream before any run closes an epoch, so the
    // first line of the campaign is the first line of the stream.
    if let Some(spec) = flags.get("--stream-out") {
        let sink: Box<dyn std::io::Write + Send> = if spec == "-" {
            Box::new(std::io::stdout())
        } else {
            let path = plutus_telemetry::in_run_dir(spec);
            match std::fs::File::create(&path) {
                Ok(f) => Box::new(f),
                Err(e) => fail(format!("cannot open stream {}: {e}", path.display())),
            }
        };
        if let Err(e) = tel.stream_to(sink) {
            fail(format!("cannot start epoch stream: {e}"));
        }
    }
    let mut exec = Executor::with_telemetry(flags.value("--jobs"), tel.clone());
    if let Some(secs) = flags.value("--heartbeat") {
        exec.set_heartbeat(std::time::Duration::from_secs(secs));
    }
    let observe = Observe {
        registry: (flags.on("--metrics-out") || flags.on("--stream-out")).then(|| tel.clone()),
        epoch_cycles: flags.value("--epoch-cycles"),
        trace: flags.on("--trace-out").then(|| {
            let sample = flags.value("--trace-sample").unwrap_or(1);
            (sample, DEFAULT_TRACE_CAPACITY)
        }),
    };
    Args {
        experiment,
        obs_args,
        flags,
        workloads,
        tel: tel.clone(),
        exec,
        observe,
    }
}

/// The `manifest.json` document for a `--run-dir` run: everything that
/// identifies the experiment (and gates [`diff_run_dirs`]
/// comparability) plus the verbatim command line for humans.
fn build_manifest(
    argv: &[String],
    experiment: &str,
    flags: &Flags,
    workloads: &[WorkloadSpec],
    crypto_backend: &str,
) -> Json {
    let mut doc = Json::object()
        .set("schema", MANIFEST_SCHEMA)
        .set(
            "cmdline",
            Json::Array(argv.iter().map(|s| Json::from(s.as_str())).collect()),
        )
        .set("experiment", experiment)
        .set(
            "campaign",
            flags.get("--campaign").map_or(Json::Null, Json::from),
        )
        .set("scale", format!("{:?}", flags.scale()).to_lowercase())
        .set(
            "workloads",
            Json::Array(workloads.iter().map(|w| Json::from(w.name)).collect()),
        )
        .set("seed", flags.seed())
        .set("crypto_backend", crypto_backend)
        .set("version", env!("CARGO_PKG_VERSION"));
    if let Some(jobs) = flags.value::<u64>("--jobs") {
        doc = doc.set("jobs", jobs);
    }
    doc
}

/// Runs a fault-injection campaign, exiting nonzero when any measured
/// forgery-acceptance rate exceeds the Eq. 1 bound.
fn run_campaign_cli(args: &Args, cfg: &GpuConfig, kind: CampaignKind) {
    let mut campaign = CampaignConfig::new(kind, args.flags.seed(), args.flags.scale());
    campaign.runs = args.flags.value("--trials").unwrap_or(campaign.runs);
    campaign.faults_per_run = args
        .flags
        .value("--faults")
        .unwrap_or(campaign.faults_per_run);
    println!(
        "=== campaign {} ({} runs x {} faults, seed {}, {:?} scale) ===",
        kind.label(),
        campaign.runs,
        campaign.faults_per_run,
        campaign.seed,
        campaign.scale
    );
    let rows = run_campaign_on(&args.exec, &args.workloads, &campaign, cfg);
    let (name, report) = (format!("campaign-{}", kind.label()), campaign_report(&rows));
    let ok = format!("forgery rates within the Eq. 1 bound {:.3e}", eq1_bound());
    let (saved, gate) = (report.save(&name), campaign_gate(&rows));
    publish(&name, &report.to_console(), saved, gate, &ok);
}

/// The one reporting tail: prints a report's console table, saves it,
/// and runs its gate, exiting nonzero through [`fail`] when the save or
/// any gate check fails.
fn publish(
    name: &str,
    console: &str,
    saved: std::io::Result<Vec<PathBuf>>,
    gate: Result<(), GateFailure>,
    ok: &str,
) {
    println!("{console}");
    report_saved(name, saved);
    match gate {
        Ok(()) => println!("gate OK: {ok}"),
        Err(e) => fail(format!("{name} gate failed: {e}")),
    }
}

/// Runs the transient soft-error campaign, exiting nonzero when any
/// benign transient fault is misclassified as an attack.
fn run_transient_cli(args: &Args, cfg: &GpuConfig) {
    let mut campaign = TransientCampaignConfig::new(args.flags.seed(), args.flags.scale());
    campaign.soft_error_rate = args
        .flags
        .value("--soft-error-rate")
        .unwrap_or(campaign.soft_error_rate);
    campaign.retry_limit = args
        .flags
        .value("--retry-limit")
        .unwrap_or(campaign.retry_limit);
    campaign.runs = args.flags.value("--trials").unwrap_or(campaign.runs);
    println!(
        "=== campaign transient (rate {}, retry limit {}, {} runs, seed {}, {:?} scale) ===",
        campaign.soft_error_rate,
        campaign.retry_limit,
        campaign.runs,
        campaign.seed,
        campaign.scale
    );
    let rows = run_transient_campaign_on(&args.exec, &args.workloads, &campaign, cfg);
    let (name, report) = ("campaign-transient", transient_report(&rows));
    let ok = format!(
        "every detected transient recovered within {} retries",
        campaign.retry_limit
    );
    let (saved, gate) = (report.save(name), transient_gate(&rows));
    publish(name, &report.to_console(), saved, gate, &ok);
}

/// Runs the multi-tenant overflow-storm (or soak) chaos campaign,
/// exiting nonzero on any isolation, backpressure, conservation, Eq. 1,
/// or rotation-recovery breach.
fn run_storm_cli(args: &Args, soak: bool) {
    let mut campaign = if soak {
        StormCampaignConfig::soak(args.flags.seed())
    } else {
        StormCampaignConfig::new(args.flags.seed())
    };
    // The campaign composes its own multi-tenant traces sized against
    // the small simulator geometry: co-tenant thrash must actually evict
    // the adversary's probe sectors or injected tampering is never
    // re-verified. Scale stretches the run, not the machine.
    let cfg = GpuConfig::test_small();
    match args.flags.scale() {
        Scale::Test => {
            campaign.accesses_per_tenant = 900;
            campaign.faults = 12;
            campaign.crash_points = campaign.crash_points.min(1);
        }
        Scale::Small => {}
        Scale::Paper => {
            campaign.accesses_per_tenant = 8000;
            campaign.faults = 48;
            campaign.crash_points += 1;
        }
    }
    campaign.victims = args.flags.value("--tenants").unwrap_or(campaign.victims);
    campaign.crash_points = args
        .flags
        .value("--trials")
        .unwrap_or(campaign.crash_points);
    campaign.faults = args.flags.value("--faults").unwrap_or(campaign.faults);
    campaign.checkpoint_cycles = args
        .flags
        .value("--checkpoint-cycles")
        .unwrap_or(campaign.checkpoint_cycles);
    campaign.ipc_tolerance = args
        .flags
        .value("--tolerance")
        .unwrap_or(campaign.ipc_tolerance);
    campaign.soft_error_rate = args
        .flags
        .value("--soft-error-rate")
        .unwrap_or(campaign.soft_error_rate);
    campaign.retry_limit = args
        .flags
        .value("--retry-limit")
        .unwrap_or(campaign.retry_limit);
    campaign.inject_breach = args.flags.on("--inject-breach");
    let name = if soak { "soak" } else { "storm" };
    println!(
        "=== campaign {name} ({} victims + adversary, {} accesses/tenant, {} faults, \
         {} crash points, ipc tolerance {:.0}%, seed {}{}) ===",
        campaign.victims,
        campaign.accesses_per_tenant,
        campaign.faults,
        campaign.crash_points,
        campaign.ipc_tolerance * 100.0,
        campaign.seed,
        if campaign.inject_breach {
            ", BREACH INJECTED"
        } else {
            ""
        }
    );
    // Every campaign row flows through the observer on this thread, in
    // a fixed phase order regardless of worker count: mirror it into
    // the live registry, one telemetry epoch per row, so `--stream-out`
    // shows campaign progress.
    let tel = args.tel.clone();
    let rows = {
        let mut observe_row = |row: &StormRow| {
            tel.counter("storm.victim_violations")
                .add(row.victim_violations);
            tel.counter("storm.deferred").add(row.storm_deferred);
            tel.counter("storm.suppressed").add(row.storm_suppressed);
            tel.counter("storm.rotated_sectors")
                .add(row.rotated_sectors);
            tel.counter("storm.faults_adjudicated")
                .add(row.faults_adjudicated);
            tel.counter("storm.transients_escalated")
                .add(row.transients_escalated);
            tel.end_epoch(&format!("{}/{}", row.scheme, row.phase));
        };
        run_storm_campaign_observed(&args.exec, &campaign, &cfg, &mut observe_row)
    };
    let name = format!("campaign-{name}");
    let report = storm_report(&rows, &campaign);
    let ok = "victims isolated, backpressure held, rotation recovered bit-identical";
    let (saved, gate) = (report.save(&name), storm_gate(&rows, &campaign));
    publish(&name, &report.to_console(), saved, gate, ok);
}

/// Runs the crash-injection campaign, exiting nonzero unless every
/// restore-and-recover audit reads back bit-identical.
fn run_crash_cli(args: &Args, cfg: &GpuConfig) {
    let mut campaign = CrashCampaignConfig::new(
        args.flags.value("--checkpoint-cycles").unwrap_or(5000),
        args.flags.scale(),
    );
    campaign.crash_points = args
        .flags
        .value("--trials")
        .unwrap_or(campaign.crash_points);
    println!(
        "=== campaign crash (checkpoint every {} cycles, {} crash points, {:?} scale) ===",
        campaign.checkpoint_cycles, campaign.crash_points, campaign.scale
    );
    let rows = run_crash_campaign_on(&args.exec, &args.workloads, &campaign, cfg);
    let audited: u64 = rows.iter().map(|r| r.audit.audited).sum();
    let ok = format!("{audited} post-recovery reads bit-identical, no spurious violations");
    let (name, report) = ("campaign-crash", crash_report(&rows));
    let (saved, gate) = (report.save(name), crash_gate(&rows));
    publish(name, &report.to_console(), saved, gate, &ok);
}

fn main() {
    let tel = Telemetry::with_clock(Arc::new(CycleClock::new()));
    let args = parse_args(&tel);
    if args.experiment == "obs-diff" {
        run_obs_diff(&args);
        return;
    }
    let mut cfg = GpuConfig::default();
    // Measure steady-state IPC past the warp-launch ramp: warps launch
    // staggered at one every other cycle, so the pool is fully populated
    // after warps/2 cycles. Excluding the ramp keeps short traces from
    // reading as latency-bound cold starts.
    cfg.warmup_cycles = cfg.warps as u64 / 2;
    if let Some(kind) = args.flags.get("--campaign") {
        match kind {
            "transient" => run_transient_cli(&args, &cfg),
            "crash" => run_crash_cli(&args, &cfg),
            "storm" => run_storm_cli(&args, false),
            "soak" => run_storm_cli(&args, true),
            kind => {
                let kind =
                    CampaignKind::parse(kind).expect("the flag table admits only known kinds");
                run_campaign_cli(&args, &cfg, kind);
            }
        }
        write_sched_stats(&args);
        write_metrics(&args);
        finish_observability(&args);
        return;
    }
    let experiments = match args.experiment.as_str() {
        "all" => FIGURES,
        id => std::slice::from_ref(find_experiment(id).expect("the parser admits only known ids")),
    };
    let (exec, observe, scale) = (&args.exec, &args.observe, args.flags.scale());
    let (rows, traces) = match plan(experiments).as_slice() {
        [] => Default::default(),
        schemes => run_matrix(exec, &args.workloads, schemes, scale, &cfg, observe)
            .unwrap_or_else(|e| fail(e.to_string())),
    };
    for &(id, schemes, render) in experiments {
        println!("\n=== {id} ===");
        let view = view(&rows, schemes);
        // The central degenerate-case gate: when every scheme of a
        // workload ran in the identical cycle count, the run is not
        // bandwidth-bound, security traffic was free, and every figure
        // built from this matrix is meaningless — print the diagnosis
        // and exit nonzero so CI cannot green-light a decoupled model.
        if let Some(warning) = degenerate_warning(&view) {
            eprint!("{warning}");
            fail(
                "degenerate matrix: normalized IPC is 1.0 for every scheme; \
                 increase --scale (or the workload set) until the run is \
                 bandwidth-bound"
                    .into(),
            );
        }
        render(&args, &cfg, &view);
        if !schemes.is_empty() {
            report_saved(id, measurement_table(&view).save(id));
        }
    }
    write_sched_stats(&args);
    write_metrics(&args);
    write_trace(&args, &traces);
    write_ledger(&args, &rows);
    run_bench_gate(&args, &rows);
    finish_observability(&args);
}

/// Closes the epoch stream, reporting line/drop counts. Runs on every
/// successful exit path; `fail()` paths rely on process exit, which the
/// line-buffered stream survives.
fn finish_observability(args: &Args) {
    if let Some(lines) = args.tel.close_stream() {
        eprintln!(
            "epoch stream closed: {lines} lines, {} dropped",
            args.tel.stream_dropped()
        );
    }
}

/// The `obs-diff A B` subcommand: manifest-gated cross-run comparison
/// of two `--run-dir` directories. Exit codes: 0 no regressions, 1
/// regressions beyond `--tolerance`, 2 unreadable or incompatible runs.
fn run_obs_diff(args: &Args) {
    let (a, b) = (&args.obs_args[0], &args.obs_args[1]);
    let diff = diff_run_dirs(Path::new(a), Path::new(b))
        .unwrap_or_else(|e| fail(format!("obs-diff: {e}")));
    gate_diff(
        "obs-diff",
        &diff,
        args.flags.value("--tolerance").unwrap_or(0.0),
    );
}

/// Prints a diff's verdict at `tolerance` and exits 1 when a leaf
/// regressed or a report exists on one side only.
fn gate_diff(label: &str, diff: &ObsDiff, tolerance: f64) {
    for s in &diff.one_sided {
        eprintln!("coverage changed: {s}");
    }
    let regressions = diff.regressions(tolerance);
    let pct = tolerance * 100.0;
    if regressions.is_empty() && diff.one_sided.is_empty() {
        println!(
            "{label} OK: {} reports compared, no regressions beyond {pct:.1}% tolerance \
             ({} leaves changed within it)",
            diff.compared.len(),
            diff.changed.len()
        );
    } else {
        eprintln!(
            "{label} FAILED: {} leaves regressed beyond {pct:.1}% tolerance:",
            regressions.len()
        );
        eprint!("{}", obs_diff_table(&regressions));
        std::process::exit(1);
    }
}

/// The `cipher_bench` microbenchmark: scalar vs native crypto-backend
/// throughput, saved into the report directory as `cipher_bench.json`.
/// `--assert-speedup X` gates the batched primitives at X× native over
/// scalar (CI's proof that the SIMD backend actually engaged).
fn cipher_bench_cli(args: &Args) {
    let (native, rows) = plutus_bench::run_cipher_bench();
    let (gate, ok) = match args.flags.value("--assert-speedup") {
        Some(min) => (
            cipher_bench_gate(native, &rows, min),
            format!("every batched primitive at >= {min:.2}x over scalar"),
        ),
        None => (
            Ok(()),
            "no speedup asserted (pass --assert-speedup X)".into(),
        ),
    };
    let report = cipher_bench_report(native, &rows);
    let saved = report.save("cipher_bench");
    publish("cipher_bench", &report.to_console(), saved, gate, &ok);
}

/// Writes the cycle-ledger exports (`--ledger-out`): the JSON document,
/// a `.csv` sibling, and a `.folded` flamegraph collapsed-stack
/// sibling; prints the CPI-stack table; and runs the conservation gate,
/// exiting nonzero if any partition's buckets do not sum exactly to the
/// run's cycle count.
fn write_ledger(args: &Args, rows: &[Measurement]) {
    let Some(path) = args.flags.out("--ledger-out") else {
        return;
    };
    if rows.is_empty() {
        fail("--ledger-out needs at least one matrix experiment (e.g. fig6 or figrepro)".into());
    }
    let siblings = [("csv", ledger_csv(rows)), ("folded", ledger_folded(rows))];
    let saved = save_report(&path, &ledger_json(rows), &siblings);
    let ok = format!("{} runs conservation-exact", rows.len());
    let (table, gate) = (cpi_stack_table(rows), ledger_gate(rows));
    publish("cycle ledger", &table, saved, gate, &ok);
}

/// Prints the cumulative scheduler dump when `--sched-stats` is active.
fn write_sched_stats(args: &Args) {
    if args.flags.on("--sched-stats") {
        println!("\n{}", args.exec.stats().summary_table());
    }
}

fn write_metrics(args: &Args) {
    if let Some(path) = args.flags.out("--metrics-out") {
        let report = args.tel.report();
        // The extension picks the exporter: `.csv` is CSV, anything
        // else JSON.
        let text = if path.extension().is_some_and(|e| e == "csv") {
            report.to_csv()
        } else {
            report.to_json().to_string_pretty()
        };
        if let Err(e) = plutus_telemetry::atomic_write(&path, text) {
            fail(format!("cannot write metrics to {}: {e}", path.display()));
        }
        println!("\n{}", report.summary_table());
        println!("metrics written to {}", path.display());
    }
}

/// Writes the Perfetto-loadable Chrome trace (`--trace-out`), a sibling
/// `.folded` collapsed-stack file for flamegraphs, and prints the
/// per-run bandwidth-attribution tables.
fn write_trace(args: &Args, traces: &[TracedRun]) {
    let Some(path) = args.flags.out("--trace-out") else {
        return;
    };
    let sched = args.exec.stats();
    let doc = chrome_trace(traces, Some(&sched));
    if let Err(e) = plutus_telemetry::atomic_write(&path, doc.to_string_compact()) {
        fail(format!("cannot write trace to {}: {e}", path.display()));
    }
    let folded = path.with_extension("folded");
    if let Err(e) = plutus_telemetry::atomic_write(&folded, collapsed_stack(traces)) {
        fail(format!("cannot write stacks to {}: {e}", folded.display()));
    }
    println!("\n{}", attribution_table(traces));
    let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} trace records dropped (ring buffer full); \
             attribution is not conservation-exact"
        );
    }
    println!(
        "trace written to {} (Perfetto/chrome://tracing) and {} (flamegraph stacks)",
        path.display(),
        folded.display()
    );
}

/// Emits the canonical perf snapshot (`--bench-out`) and runs the
/// regression gate (`--compare`): the obs-diff of the committed
/// baseline and this snapshot, exiting with status 1 when any metric
/// regressed beyond `--tolerance`.
fn run_bench_gate(args: &Args, rows: &[Measurement]) {
    if !args.flags.on("--bench-out") && !args.flags.on("--compare") {
        return;
    }
    if rows.is_empty() {
        fail("--bench-out/--compare need at least one matrix experiment (e.g. fig6)".into());
    }
    let provenance = BenchProvenance {
        seed: args.flags.seed(),
        crypto_backend: plutus_crypto::backend::active().to_string(),
        version: env!("CARGO_PKG_VERSION").to_string(),
    };
    let snapshot = bench_snapshot_with(rows, &provenance);
    if let Some(path) = args.flags.out("--bench-out") {
        if let Err(e) = save_report(&path, &snapshot, &[]) {
            fail(format!(
                "cannot write bench snapshot to {}: {e}",
                path.display()
            ));
        }
        println!("bench snapshot written to {}", path.display());
    }
    if let Some(base) = args.flags.get("--compare").map(Path::new) {
        let diff = read_report(base)
            .and_then(|b| diff_documents(&base.display().to_string(), &b, &snapshot))
            .unwrap_or_else(|e| fail(format!("regression comparison failed: {e}")));
        gate_diff(
            "regression gate",
            &diff,
            args.flags.value("--tolerance").unwrap_or(0.02),
        );
    }
}

fn overheads() {
    println!("Hardware/storage overheads (paper Section IV-F; on-chip B/partition, off-chip KiB):");
    let protected = plutus_core::PlutusConfig::full().mem.protected_bytes;
    let reports = plutus_core::overheads::section_4f_report();
    let kib = |bytes: u64| Json::from(bytes / 1024);
    let table = Table::new(&reports)
        .show("config", |r| r.label.as_str().into())
        .show("on_chip", |r| r.on_chip.total().into())
        .show("counters", move |r| kib(r.off_chip.counters))
        .show("macs", move |r| kib(r.off_chip.macs))
        .show("bmt", move |r| kib(r.off_chip.bmt))
        .show("cmpct_ctr", move |r| kib(r.off_chip.compact_counters))
        .show("cmpct_bmt", move |r| kib(r.off_chip.compact_bmt))
        .show("off_chip_pct", move |r| {
            (r.off_chip.fraction_of(protected) * 100.0).into()
        });
    print!("{}", table.to_console());
}

fn workload_report(args: &Args) {
    let scale = args.flags.scale();
    println!("Synthetic benchmark characterization at {scale:?} scale:");
    let traits: Vec<_> = args
        .workloads
        .iter()
        .map(|w| {
            let t = w.trace(scale);
            (w, workloads::characterize(&t), workloads::value_census(&t))
        })
        .collect();
    let table = Table::new(&traits)
        .show("workload", |(w, ..)| w.name.into())
        .show("suite", |(w, ..)| w.suite.to_string().into())
        .show("writes", |(_, s, _)| s.write_fraction.into())
        .show("footprint_kib", |(_, s, _)| {
            (s.footprint_bytes / 1024).into()
        })
        .show("sequential", |(_, s, _)| s.sequential_fraction.into())
        .show("hot10", |(_, s, _)| s.hot_tenth_fraction.into())
        .show("reuse", |(_, s, _)| s.mean_reuse.into())
        .show("vals_exact", |(.., c)| c.distinct_exact.into())
        .show("vals_masked", |(.., c)| c.distinct_masked.into());
    print!("{}", table.to_console());
}

fn table1(cfg: &GpuConfig) {
    println!("Baseline GPU configuration (paper Table I):");
    println!(
        "  SMs                  {} @ {} MHz",
        cfg.sm_count, cfg.core_clock_mhz
    );
    println!("  warp pool            {} warps in flight", cfg.warps);
    println!(
        "  L2 cache             {} partitions x {} banks x {} KiB = {} MiB",
        cfg.partitions,
        cfg.l2_banks_per_partition,
        cfg.l2_bank_bytes / 1024,
        cfg.total_l2_bytes() / (1024 * 1024)
    );
    println!(
        "  DRAM                 {} partitions, {:.0} GB/s aggregate, {} banks/channel",
        cfg.partitions,
        cfg.total_dram_gbps(),
        cfg.dram.banks
    );
    println!("  interleaving         pseudo-random 128B block hash");
}

fn table2() {
    let sec = SecureMemConfig::pssm();
    println!("Metadata caches and security configuration (paper Table II):");
    println!(
        "  metadata caches      {} B each (counter / MAC / BMT), {}-way, per partition",
        sec.meta_cache_bytes, sec.meta_cache_ways
    );
    println!(
        "  MAC                  {} B per 32 B sector, latency {} cycles",
        sec.mac_bytes, sec.latencies.mac_latency
    );
    println!(
        "  AES                  {} cycle pipelined engine per partition",
        sec.latencies.aes_latency
    );
    println!("  counters             sectored split counters, 32 sectors/group");
    println!(
        "  BMT                  {}-ary over counters, lazy update",
        sec.bmt_node_bytes / 8
    );
    let vc = plutus_core::ValueCacheConfig::default();
    println!(
        "  value cache          {} entries, 25% pinned, 28-bit match, {}-of-4 rule",
        vc.entries,
        plutus_core::binomial::plutus_min_hits(vc.entries, vc.effective_bits())
    );
}

/// A view's rows, one slice per workload.
fn per_workload(rows: &[Measurement]) -> impl Iterator<Item = &[Measurement]> {
    rows.chunk_by(|a, b| a.workload == b.workload)
}

/// A view's secured scheme labels, in the experiment's order.
fn columns(rows: &[Measurement]) -> Vec<String> {
    let first = per_workload(rows).next().unwrap_or_default();
    let secured = first.iter().filter(|r| r.scheme != Scheme::None.label());
    secured.map(|r| r.scheme.clone()).collect()
}

/// Prints a view's IPC normalized to no security, one column per
/// secured scheme.
fn ipc_table(rows: &[Measurement]) {
    println!("{}", matrix_table(rows, &columns(rows)));
}

/// The largest `(value, workload)` of `cells`, the first on ties;
/// `None` when there are none.
fn best_of<'a>(cells: impl IntoIterator<Item = (f64, &'a str)>) -> Option<(f64, &'a str)> {
    cells
        .into_iter()
        .reduce(|best, c| if c.0 > best.0 { c } else { best })
}

fn summarize_vs(rows: &[Measurement], scheme: &str, baseline: &str) {
    let ratios: Vec<(f64, &str)> = rows
        .iter()
        .filter(|r| r.scheme == scheme)
        .filter_map(|r| {
            let b = rows
                .iter()
                .find(|x| x.workload == r.workload && x.scheme == baseline)?;
            (b.norm_ipc > 0.0).then(|| (r.norm_ipc / b.norm_ipc, r.workload.as_str()))
        })
        .collect();
    if let Some((best, workload)) = best_of(ratios.iter().copied()) {
        let g = geomean(ratios.iter().map(|(r, _)| *r));
        println!(
            "{scheme} vs {baseline}: {:+.2}% geomean IPC (best {:+.2}% on {workload})",
            (g - 1.0) * 100.0,
            (best - 1.0) * 100.0,
        );
    }
}

/// The IPC table, then every later secured scheme against the first.
fn ipc_figure(_: &Args, _: &GpuConfig, rows: &[Measurement]) {
    ipc_table(rows);
    if let [base, rest @ ..] = columns(rows).as_slice() {
        for s in rest {
            summarize_vs(rows, s, base);
        }
    }
}

fn fig6(_: &Args, _: &GpuConfig, rows: &[Measurement]) {
    ipc_table(rows);
    let pssm = rows.iter().filter(|r| r.scheme == "pssm");
    println!(
        "secure memory (PSSM) keeps {:.1}% of insecure IPC on geomean",
        geomean(pssm.map(|r| r.norm_ipc)) * 100.0
    );
}

fn fig7(_: &Args, _: &GpuConfig, rows: &[Measurement]) {
    println!("DRAM traffic breakdown under PSSM (fraction of total bytes):");
    let bytes = |r: &Measurement, class: &str| {
        let found = r.class_bytes.iter().find(|(l, _)| l == class);
        found.map_or(0, |(_, b)| *b) as f64
    };
    let mut table = Table::new(rows).show("workload", |r| r.workload.as_str().into());
    for class in ["data", "counter", "mac", "bmt"] {
        table = table.show(class, move |r| {
            (bytes(r, class) / r.total_bytes.max(1) as f64).into()
        });
    }
    let table = table.show("overhead_pct", move |r| {
        let data = bytes(r, "data").max(1.0);
        ((r.total_bytes.max(1) as f64 - data) / data * 100.0).into()
    });
    print!("{}", table.to_console());
}

fn fig9(args: &Args) {
    println!("Value reuse as a fraction of reads (paper Fig. 9; 512-entry caches/partition):");
    let reuse: Vec<_> = args
        .workloads
        .iter()
        .map(|w| (w.name, analyze_trace(&w.trace(args.flags.scale()), 32, 512)))
        .collect();
    let table = Table::new(&reuse)
        .show("workload", |(w, _)| (*w).into())
        .show("all-8/8", |(_, r)| r.all_eight.into())
        .show("halves-3of4", |(_, r)| r.halves.into())
        .show("halves-3of4-masked", |(_, r)| r.halves_masked.into());
    print!("{}", table.to_console());
    let json_rows: Vec<Measurement> = reuse
        .iter()
        .map(|(w, r)| Measurement {
            workload: w.to_string(),
            scheme: "value-analysis".into(),
            ipc: r.halves_masked,
            norm_ipc: r.halves_masked,
            cycles: r.reads,
            class_bytes: vec![
                ("all_eight_permille".into(), (r.all_eight * 1000.0) as u64),
                ("halves_permille".into(), (r.halves * 1000.0) as u64),
                (
                    "halves_masked_permille".into(),
                    (r.halves_masked * 1000.0) as u64,
                ),
            ],
            ..Measurement::default()
        })
        .collect();
    report_saved("fig9", measurement_table(&json_rows).save("fig9"));
}

fn fig10(args: &Args) {
    println!("Memory request mix (paper Fig. 10; fractions of requests):");
    let mix: Vec<_> = args
        .workloads
        .iter()
        .map(|w| (w.name, w.trace(args.flags.scale()).write_fraction()))
        .collect();
    let table = Table::new(&mix)
        .show("workload", |(w, _)| (*w).into())
        .show("reads", |(_, wf)| (1.0 - wf).into())
        .show("writes", |(_, wf)| (*wf).into());
    print!("{}", table.to_console());
}

fn fig18(_: &Args, _: &GpuConfig, rows: &[Measurement]) {
    ipc_table(rows);
    summarize_vs(rows, "plutus", "pssm");
    summarize_vs(rows, "plutus", "common-counters");
}

fn fig19(_: &Args, _: &GpuConfig, rows: &[Measurement]) {
    println!("Security-metadata DRAM traffic (bytes):");
    let pairs: Vec<_> = per_workload(rows)
        .map(|cells| {
            let [p, q] = cells else {
                unreachable!("fig19's view holds pssm and plutus per workload")
            };
            let reduction = 1.0 - q.metadata_bytes as f64 / p.metadata_bytes.max(1) as f64;
            (p, q, reduction)
        })
        .collect();
    let table = Table::new(&pairs)
        .show("workload", |(p, ..)| p.workload.as_str().into())
        .show("pssm", |(p, ..)| p.metadata_bytes.into())
        .show("plutus", |(_, q, _)| q.metadata_bytes.into())
        .show("reduction", |(.., r)| (*r).into());
    print!("{}", table.to_console());
    let best = best_of(pairs.iter().map(|(p, _, r)| (*r, p.workload.as_str())));
    let best = best.unwrap_or((0.0, ""));
    println!(
        "metadata traffic reduced {:.2}% on geomean (best {:.2}% on {})",
        (1.0 - geomean(pairs.iter().map(|(.., r)| 1.0 - r))) * 100.0,
        best.0 * 100.0,
        best.1
    );
}

fn fig22(_: &Args, _: &GpuConfig, rows: &[Measurement]) {
    let model = EnergyModel::default();
    println!("Average power normalized to no security (paper Fig. 22):");
    let power: Vec<_> = per_workload(rows)
        .map(|cells| {
            let [base, p, q] = cells else {
                unreachable!("fig22's view holds no-security, pssm and plutus per workload")
            };
            let np = model.normalized_power(p, base);
            (base.workload.as_str(), np, model.normalized_power(q, base))
        })
        .collect();
    let table = Table::new(&power)
        .show("workload", |(w, ..)| (*w).into())
        .show("pssm", |(_, p, _)| (*p).into())
        .show("plutus", |(.., q)| (*q).into());
    print!("{}", table.to_console());
    println!(
        "power overhead: PSSM {:+.1}%, Plutus {:+.1}% (geomean)",
        (geomean(power.iter().map(|(_, p, _)| *p)) - 1.0) * 100.0,
        (geomean(power.iter().map(|(.., q)| *q)) - 1.0) * 100.0
    );
}

/// Runs every ablation on the executor, prints each sweep's table and
/// saves the rows as `ablations.json` and `.csv`.
fn ablations(args: &Args, cfg: &GpuConfig) {
    let (exec, workloads, scale) = (&args.exec, &args.workloads, args.flags.scale());
    let rows = plutus_bench::ablations::run_all(exec, workloads, scale, cfg)
        .unwrap_or_else(|e| fail(e.to_string()));
    for sweep in rows.chunk_by(|a: &AblationRow, b| a.sweep == b.sweep) {
        println!("\n--- {} ---", sweep[0].sweep);
        print!("{}", ablation_report(sweep).to_console());
    }
    report_saved("ablations", ablation_report(&rows).save("ablations"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn best_of_takes_the_maximum_even_when_every_value_is_negative() {
        let cells = [(-0.524, "hotspot"), (-0.317, "bfs"), (-0.9, "lbm")];
        assert_eq!(best_of(cells), Some((-0.317, "bfs")));
        assert_eq!(best_of([(1.2, "a"), (1.2, "b")]), Some((1.2, "a")));
        assert_eq!(best_of([]), None);
    }

    fn parse(words: &[&str]) -> Result<(String, Vec<String>, Flags), String> {
        let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        parse_command_line(&argv)
    }

    /// One value each row's check accepts and one it rejects, keyed by
    /// the value description (a new description needs a sample here).
    fn samples(flag: &str, what: &str) -> (&'static str, &'static str) {
        match what {
            "a positive integer" | "a positive number of seconds" | "a positive victim count" => {
                ("4", "0")
            }
            "an unsigned integer" => ("3", "-1"),
            "test|small|paper" => ("test", "huge"),
            "auto|scalar|simd" => ("scalar", "neon"),
            CAMPAIGNS => ("storm", "flood"),
            "a probability in [0, 1]" => ("0.05", "1.5"),
            "a non-negative fraction" => ("0.02", "-0.1"),
            "a positive multiple" => ("4", "0"),
            "a path (or '-' for stdout)" => ("-", "--scale"),
            // Free-form values: only a value that looks like a flag is
            // refused.
            "a path"
            | "a directory"
            | "a baseline snapshot path"
            | "a comma-separated workload list" => ("out.json", "--scale"),
            _ => panic!("no sample values for {flag} <{what}>"),
        }
    }

    #[test]
    fn every_row_accepts_a_valid_value_and_rejects_an_invalid_one() {
        for flag in FLAGS {
            let Some((what, _)) = flag.value else {
                continue;
            };
            let (good, bad) = samples(flag.name, what);
            let (_, _, flags) = parse(&["fig6", flag.name, good]).unwrap();
            assert_eq!(flags.get(flag.name), Some(good), "{}", flag.name);
            let err = parse(&["fig6", flag.name, bad]).err();
            assert_eq!(err, Some(format!("{} requires {what}", flag.name)));
            let missing = parse(&["fig6", flag.name]).err();
            assert_eq!(missing, Some(format!("{} requires {what}", flag.name)));
        }
    }

    #[test]
    fn switches_take_no_value_and_unknown_flags_fail() {
        for flag in FLAGS.iter().filter(|f| f.value.is_none()) {
            let (experiment, _, flags) = parse(&[flag.name, "fig6"]).unwrap();
            assert_eq!(experiment, "fig6", "{} must not swallow the id", flag.name);
            assert_eq!(flags.get(flag.name), Some(""));
        }
        assert_eq!(
            parse(&["fig6", "--bogus"]).err(),
            Some("unknown flag --bogus".into())
        );
    }

    #[test]
    fn parser_keeps_the_last_value_and_one_experiment_id() {
        let (_, _, flags) = parse(&["--seed", "1", "--seed", "2"]).unwrap();
        assert_eq!(flags.seed(), 2, "a repeated flag's last value wins");
        // A missing value cannot swallow the next flag.
        assert_eq!(
            parse(&["fig10", "--metrics-out", "--scale", "test"]).err(),
            Some("--metrics-out requires a path".into())
        );
        assert!(parse(&["fig6", "fig10"]).is_err());
        assert!(parse(&["test"]).is_err(), "unknown experiment ids fail");
        let (experiment, dirs, _) = parse(&["obs-diff", "runs/A", "runs/B"]).unwrap();
        assert_eq!((experiment.as_str(), dirs.len()), ("obs-diff", 2));
        assert!(parse(&["obs-diff", "runs/A"]).is_err());
        let (experiment, _, flags) = parse(&[]).unwrap();
        assert_eq!((experiment.as_str(), flags.scale()), ("all", Scale::Small));
    }

    #[test]
    fn help_names_every_flag_and_experiment_id() {
        let help = usage();
        for flag in FLAGS {
            assert!(help.contains(flag.name), "--help omits {}", flag.name);
        }
        for (id, ..) in FIGURES.iter().chain(EXTRAS) {
            assert!(help.contains(id), "--help omits {id}");
        }
        assert!(help.contains("all") && help.contains("obs-diff"));
    }

    #[test]
    fn the_figure_plan_holds_each_scheme_once_baseline_first() {
        let schemes = plan(FIGURES);
        assert_eq!(schemes.len(), 17);
        assert_eq!(schemes[0], Scheme::None);
        for (i, scheme) in schemes.iter().enumerate() {
            assert!(!schemes[..i].contains(scheme), "{scheme:?} planned twice");
        }
    }

    #[test]
    fn every_view_equals_its_experiments_own_matrix() {
        let every: Vec<Experiment> = FIGURES.iter().chain(EXTRAS).copied().collect();
        let (exec, cfg) = (Executor::new(Some(2)), GpuConfig::test_small());
        let workloads = [workloads::by_name("hotspot").unwrap()];
        let matrix = |schemes: &[Scheme]| {
            let observe = Observe::default();
            run_matrix(&exec, &workloads, schemes, Scale::Test, &cfg, &observe)
                .unwrap()
                .0
        };
        let rows = matrix(&plan(&every));
        for (id, schemes, _) in every.iter().filter(|(_, s, _)| !s.is_empty()) {
            let (own, shared) = (matrix(schemes), view(&rows, schemes));
            assert_eq!(format!("{shared:?}"), format!("{own:?}"), "{id}");
        }
    }

    /// Every `--flag` token in a document, minus trailing dashes.
    fn doc_flags(doc: &str) -> BTreeSet<&str> {
        let bytes = doc.as_bytes();
        doc.match_indices("--")
            .filter(|&(i, _)| {
                i == 0 || !(bytes[i - 1] == b'-' || bytes[i - 1].is_ascii_alphanumeric())
            })
            .filter_map(|(i, _)| {
                let rest = &doc[i + 2..];
                let len = rest
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(rest.len());
                (len > 0 && rest.starts_with(|c: char| c.is_ascii_lowercase()))
                    .then(|| doc[i..i + 2 + len].trim_end_matches('-'))
            })
            .collect()
    }

    #[test]
    fn experiments_md_and_the_flag_table_agree() {
        let doc = include_str!("../../../../EXPERIMENTS.md");
        let documented = doc_flags(doc);
        for flag in FLAGS {
            assert!(
                documented.contains(flag.name),
                "EXPERIMENTS.md never mentions {}",
                flag.name
            );
        }
        for token in documented {
            assert!(
                FLAGS.iter().any(|f| f.name == token) || ["--release", "--bin"].contains(&token),
                "EXPERIMENTS.md documents {token}, which is not in the flag table"
            );
        }
    }
}
