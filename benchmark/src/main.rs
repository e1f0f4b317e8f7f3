//! `host-bench`: runs the host-performance benchmark, compares run files
//! and summarises them into a baseline. See `README.md`.

use host_bench::compare::{self, RunFile};
use host_bench::run::measure;
use host_bench::workload::Workload;
use host_bench::{host, metrics};
use plutus_telemetry::Json;
use std::path::Path;
use std::process::{Command, Stdio};

const USAGE: &str = "usage:
  host-bench run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--out FILE]
  host-bench compare A.json... -- B.json...
  host-bench baseline RUN.json...
workloads: figrepro, write-mix, l2-resident, observed";

/// Where traced runs write their spans, and where `BENCHMARK.json` is.
const CRATE_DIR: &str = env!("CARGO_MANIFEST_DIR");

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 0.0,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            run.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => run.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                run.workloads = vec![Workload::from_name(value).ok_or_else(bad)?];
            }
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad())?;
                if !(run.seconds >= 0.0 && run.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => run.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(run)
}

/// Measures one workload in this process and prints its result line.
fn cmd_child(args: &[String]) -> Result<i32, String> {
    let run = parse_run(args)?;
    let [workload] = run.workloads[..] else {
        return Err("child measures exactly one workload".into());
    };
    let report = measure(workload, run.seed, run.seconds, run.traced);
    for line in &report.failures {
        eprintln!("host-bench: {}: FAILED {line}", workload.name());
    }
    if let Some(spans) = &report.spans {
        let dir = Path::new(CRATE_DIR).join("out");
        let path = dir.join(format!("spans-{}.json", workload.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.to_string_compact()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", report.to_json().to_string_compact());
    Ok(0)
}

/// Runs each workload in a child process of its own, so no workload's
/// peak memory includes what an earlier one left behind.
fn cmd_run(args: &[String]) -> Result<i32, String> {
    let run = parse_run(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut results = Vec::new();
    for w in &run.workloads {
        let output = Command::new(&exe)
            .arg("child")
            .args(["--workload", w.name()])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {} child: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
        let result = match (output.status.success(), last.map(Json::parse)) {
            (true, Some(Ok(json))) => json,
            _ => return Err(format!("{} child failed ({})", w.name(), output.status)),
        };
        results.push((*w, result));
    }

    let mut failed = 0;
    let mut attempted = 0;
    let mut merged = Json::object();
    for (w, result) in &results {
        let jobs = result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        let bad = result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        attempted += jobs;
        failed += bad;
        println!("{}: {jobs} jobs attempted, {bad} failed", w.name());
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = metrics::lookup(name).map_or("", |d| d.unit);
            println!("  {name:<34} {value:>18.6} {unit}");
            merged = merged.set(&format!("{}.{name}", w.name()), m.clone());
        }
    }

    if let Some(path) = &run.out {
        let doc = Json::object()
            .set("seed", run.seed)
            .set("traced", run.traced)
            .set("seconds", run.seconds)
            .set("host", host_json())
            .set(
                "workloads",
                Json::Object(
                    results
                        .iter()
                        .map(|(w, r)| (w.name().to_string(), r.clone()))
                        .collect(),
                ),
            );
        std::fs::write(path, doc.to_string_pretty() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    let last_line = match &results[..] {
        [(_, only)] => only.clone(),
        _ => Json::object()
            .set("correct", failed == 0)
            .set("attempted", attempted)
            .set("failed", failed)
            .set("metrics", merged),
    };
    println!("{}", last_line.to_string_compact());
    Ok(i32::from(failed > 0))
}

fn host_json() -> Json {
    Json::object()
        .set("nproc", host::nproc())
        .set("cpu_model", host::cpu_model())
        .set(
            "crypto_backend",
            plutus_crypto::backend::active().to_string(),
        )
        .set("rustc", env!("HOST_BENCH_RUSTC"))
}

fn read_runs(paths: &[String]) -> Result<Vec<RunFile>, String> {
    if paths.is_empty() {
        return Err("no run files given".into());
    }
    paths.iter().map(|p| compare::read_run(p)).collect()
}

fn cmd_compare(args: &[String]) -> Result<i32, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs A files, `--`, then B files")?;
    let a = read_runs(&args[..split])?;
    let b = read_runs(&args[split + 1..])?;
    let path = Path::new(CRATE_DIR).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let bounds = compare::read_bounds(&text)?;
    let (report, ok) = compare::compare(&a, &b, &bounds);
    print!("{report}");
    println!("{}", if ok { "compare: ok" } else { "compare: FAILED" });
    Ok(i32::from(!ok))
}

fn cmd_baseline(args: &[String]) -> Result<i32, String> {
    let runs = read_runs(args)?;
    println!("{}", compare::baseline(&runs).to_string_pretty());
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]);
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("child") => cmd_child(rest),
        Some("compare") => cmd_compare(rest),
        Some("baseline") => cmd_baseline(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("host-bench: {e}");
            std::process::exit(2);
        }
    }
}
