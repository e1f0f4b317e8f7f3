//! The four workloads and the closed loop that runs their jobs.

use crate::host;
use crate::job::{run_job, JobOutcome, JobSpec, Scheme};
use crate::probe::elapsed_ns;
use gpu_sim::GpuConfig;
use plutus_exec::{Executor, Job, SchedStats};
use std::time::Instant;
use workloads::Scale;

/// A set of jobs run as one closed loop: the next job starts when a
/// worker is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The figure-reproduction matrix users run, on two workers.
    Figrepro,
    /// The one suite trace whose writebacks outnumber its fills.
    WriteMix,
    /// A footprint far smaller than the L2: engines are almost idle.
    L2Resident,
    /// Telemetry, epochs and the flight recorder switched on.
    Observed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Figrepro,
        Workload::WriteMix,
        Workload::L2Resident,
        Workload::Observed,
    ];

    /// Name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figrepro => "figrepro",
            Workload::WriteMix => "write-mix",
            Workload::L2Resident => "l2-resident",
            Workload::Observed => "observed",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the closed loop.
    pub fn threads(self) -> usize {
        match self {
            Workload::Figrepro => 2,
            _ => 1,
        }
    }

    /// The jobs, in submission batches: a batch is submitted when the
    /// previous one has finished.
    pub fn batches(self) -> Vec<Vec<JobSpec>> {
        let job = |trace, scheme, scale, length_mul| JobSpec {
            trace,
            scheme,
            scale,
            length_mul,
            observed: false,
        };
        match self {
            // The two phases of the experiment harness's matrix: every
            // no-security baseline, then every secured job.
            Workload::Figrepro => {
                let traces = ["bfs", "stencil", "lbm"];
                let baselines = traces
                    .iter()
                    .map(|t| job(t, Scheme::NoSecurity, Scale::Small, 1))
                    .collect();
                let secured = traces
                    .iter()
                    .flat_map(|t| {
                        [Scheme::Pssm, Scheme::CommonCounters, Scheme::Plutus]
                            .map(|s| job(t, s, Scale::Small, 1))
                    })
                    .collect();
                vec![baselines, secured]
            }
            Workload::WriteMix => vec![[Scheme::Pssm, Scheme::CommonCounters, Scheme::Plutus]
                .map(|s| job("histo", s, Scale::Small, 3))
                .to_vec()],
            Workload::L2Resident => vec![["kmeans", "sgemm", "streamcluster"]
                .iter()
                .flat_map(|t| {
                    [Scheme::NoSecurity, Scheme::Plutus].map(|s| job(t, s, Scale::Test, 2000))
                })
                .collect()],
            Workload::Observed => vec![["bfs", "histo", "lbm"]
                .map(|t| JobSpec {
                    observed: true,
                    ..job(t, Scheme::Plutus, Scale::Small, 1)
                })
                .to_vec()],
        }
    }
}

/// The simulated GPU: the paper's Table I model, with IPC measured past
/// the warp-launch ramp as the experiment harness does.
pub fn gpu_config() -> GpuConfig {
    let mut cfg = GpuConfig::default();
    cfg.warmup_cycles = cfg.warps as u64 / 2;
    cfg
}

/// One untimed test-scale job per scheme: loads code pages, selects the
/// crypto backend and warms the allocator before anything is timed.
pub fn warm_up(cfg: &GpuConfig) {
    for scheme in Scheme::ALL {
        let spec = JobSpec {
            trace: "bfs",
            scheme,
            scale: Scale::Test,
            length_mul: 1,
            observed: false,
        };
        run_job(&spec, cfg, 0, false, Instant::now());
    }
}

/// One run of every job of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time from the first submission to the last result.
    pub wall_ns: u64,
    /// Process CPU time (user + system) over the pass.
    pub cpu_s: f64,
    /// Finished jobs, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Labels and messages of jobs that panicked.
    pub panics: Vec<String>,
    /// The scheduler's view of the pass.
    pub sched: SchedStats,
}

impl Pass {
    /// Jobs submitted.
    pub fn attempted(&self) -> u64 {
        (self.jobs.len() + self.panics.len()) as u64
    }

    /// Jobs that panicked or failed a check.
    pub fn failed(&self) -> u64 {
        (self.panics.len() + self.jobs.iter().filter(|j| !j.failures.is_empty()).count()) as u64
    }

    /// One line per failure.
    pub fn failure_lines(&self) -> Vec<String> {
        let failed = self.jobs.iter().flat_map(|j| {
            j.failures
                .iter()
                .map(move |f| format!("{}: {f}", j.spec.label()))
        });
        self.panics.iter().cloned().chain(failed).collect()
    }
}

/// Runs every job of `batches` once on `threads` workers.
pub fn run_pass(
    batches: &[Vec<JobSpec>],
    threads: usize,
    cfg: &GpuConfig,
    seed: u64,
    traced: bool,
) -> Pass {
    let exec = Executor::new(Some(threads));
    let cpu_start = host::cpu_seconds();
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut panics = Vec::new();
    for batch in batches {
        let submitted = batch
            .iter()
            .map(|spec| {
                Job::new(spec.label(), move || {
                    run_job(spec, cfg, seed, traced, start)
                })
            })
            .collect();
        for result in exec.run(submitted) {
            match result {
                Ok(outcome) => jobs.push(outcome),
                Err(p) => panics.push(format!("{}: panicked: {}", p.label, p.message)),
            }
        }
    }
    Pass {
        wall_ns: elapsed_ns(start),
        cpu_s: host::cpu_seconds() - cpu_start,
        jobs,
        panics,
        sched: exec.stats(),
    }
}
