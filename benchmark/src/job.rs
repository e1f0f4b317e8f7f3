//! One job: generate a trace, build a simulator, run it, check it.

use crate::probe::{elapsed_ns, EngineProbe, TimedFactory};
use gpu_sim::{EngineFactory, GpuConfig, NoSecurityEngine, SimStats, Simulator};
use plutus_core::{PlutusConfig, PlutusEngine};
use plutus_telemetry::Telemetry;
use secure_mem::{CommonCountersEngine, PssmEngine, SecureMemConfig};
use std::time::Instant;
use workloads::{Scale, ScaleKnobs};

/// Epoch length of the observed jobs, in simulated cycles.
const EPOCH_CYCLES: u64 = 2000;
/// Flight-recorder capacity of the observed jobs, in records.
const TRACE_CAPACITY: usize = 1 << 22;

/// The security schemes the benchmark runs, built with the same public
/// constructors the experiment harness uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No memory security.
    NoSecurity,
    /// The PSSM baseline.
    Pssm,
    /// Common counters layered on PSSM.
    CommonCounters,
    /// Full Plutus.
    Plutus,
}

impl Scheme {
    /// Every scheme.
    pub const ALL: [Scheme; 4] = [
        Scheme::NoSecurity,
        Scheme::Pssm,
        Scheme::CommonCounters,
        Scheme::Plutus,
    ];

    /// Label used in job names.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::NoSecurity => "no-security",
            Scheme::Pssm => "pssm",
            Scheme::CommonCounters => "common-counters",
            Scheme::Plutus => "plutus",
        }
    }

    /// The crate whose engine serves this scheme: its engine time is
    /// reported under this layer name.
    pub fn layer(self) -> &'static str {
        match self {
            Scheme::NoSecurity => "gpu-sim",
            Scheme::Pssm | Scheme::CommonCounters => "secure-mem",
            Scheme::Plutus => "core",
        }
    }

    /// A fresh engine factory.
    pub fn factory(self) -> Box<dyn EngineFactory> {
        match self {
            Scheme::NoSecurity => Box::new(NoSecurityEngine::factory()),
            Scheme::Pssm => Box::new(PssmEngine::factory(SecureMemConfig::pssm())),
            Scheme::CommonCounters => {
                Box::new(CommonCountersEngine::factory(SecureMemConfig::pssm()))
            }
            Scheme::Plutus => Box::new(PlutusEngine::factory(PlutusConfig::full())),
        }
    }
}

/// What one job simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Name of the trace in the workload suite.
    pub trace: &'static str,
    /// Security scheme.
    pub scheme: Scheme,
    /// Base trace scale.
    pub scale: Scale,
    /// Trace-length multiplier on top of `scale`.
    pub length_mul: u32,
    /// Run with telemetry, epochs and the flight recorder switched on.
    pub observed: bool,
}

impl JobSpec {
    /// `trace/scheme`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.trace, self.scheme.label())
    }
}

/// The trace seed of `trace` under the run seed `seed`: every scheme
/// simulates the same input, and each trace gets its own stream.
fn trace_seed(seed: u64, trace: &str) -> u64 {
    let name = trace.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    // splitmix64 finaliser, so neighbouring seeds give unrelated streams.
    let mut z = name ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Flight-recorder and epoch counts of an observed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryCounts {
    /// Records retained by the flight recorder.
    pub records: u64,
    /// Records dropped because the recorder was full.
    pub dropped: u64,
    /// Telemetry epochs closed.
    pub epochs: u64,
}

/// A job's result, timings and failed checks.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// What was run.
    pub spec: JobSpec,
    /// Accesses in the generated trace.
    pub trace_len: u64,
    /// The simulator's statistics.
    pub stats: SimStats,
    /// Start of the job, nanoseconds after the pass began.
    pub start_ns: u64,
    /// Time in `trace_knobbed_seeded`.
    pub trace_gen_ns: u64,
    /// Time in `Simulator::new` / `Simulator::with_telemetry`.
    pub sim_new_ns: u64,
    /// Time in `Simulator::run`.
    pub sim_run_ns: u64,
    /// Engine calls, when the job ran traced.
    pub probe: Option<EngineProbe>,
    /// Flight-recorder counts, when the job was observed.
    pub telemetry: Option<TelemetryCounts>,
    /// Every check the job failed; empty when it is correct.
    pub failures: Vec<String>,
}

/// A traced job's wall time split across layers. The parts sum exactly
/// to [`JobOutcome::wall_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stack {
    /// Trace generation.
    pub trace_gen_ns: u64,
    /// `Simulator::new` minus engine `install` calls.
    pub setup_self_ns: u64,
    /// Engine `install` calls.
    pub install_ns: u64,
    /// `Simulator::run` minus engine fill and writeback calls.
    pub run_self_ns: u64,
    /// Engine `on_fill` calls.
    pub fill_ns: u64,
    /// Engine `on_writeback` calls.
    pub writeback_ns: u64,
}

impl Stack {
    /// Sum of the parts.
    pub fn total_ns(&self) -> u64 {
        self.trace_gen_ns
            + self.setup_self_ns
            + self.install_ns
            + self.run_self_ns
            + self.fill_ns
            + self.writeback_ns
    }
}

impl JobOutcome {
    /// Trace generation plus simulator construction.
    pub fn setup_ns(&self) -> u64 {
        self.trace_gen_ns + self.sim_new_ns
    }

    /// The job span: trace generation, construction and run.
    pub fn wall_ns(&self) -> u64 {
        self.setup_ns() + self.sim_run_ns
    }

    /// The per-layer split of a traced job; `Err` when engine time does
    /// not fit inside the span that made the calls.
    pub fn stack(&self) -> Result<Stack, String> {
        let probe = self.probe.as_ref().ok_or("job ran untraced")?;
        let setup_self_ns = self
            .sim_new_ns
            .checked_sub(probe.install.ns)
            .ok_or("install time exceeds Simulator::new")?;
        let run_self_ns = self
            .sim_run_ns
            .checked_sub(probe.fill.ns + probe.writeback.ns)
            .ok_or("fill + writeback time exceeds Simulator::run")?;
        Ok(Stack {
            trace_gen_ns: self.trace_gen_ns,
            setup_self_ns,
            install_ns: probe.install.ns,
            run_self_ns,
            fill_ns: probe.fill.ns,
            writeback_ns: probe.writeback.ns,
        })
    }
}

/// Runs `spec` with `cfg` on the trace seeded from `seed`. `traced`
/// wraps the engines in timers; `pass_start` anchors the job's start time.
pub fn run_job(
    spec: &JobSpec,
    cfg: &GpuConfig,
    seed: u64,
    traced: bool,
    pass_start: Instant,
) -> JobOutcome {
    run_job_with(spec, cfg, seed, traced, pass_start, |_| {})
}

/// [`run_job`] with `prepare` applied to the simulator before it runs —
/// the hook through which tests tamper with memory.
pub fn run_job_with(
    spec: &JobSpec,
    cfg: &GpuConfig,
    seed: u64,
    traced: bool,
    pass_start: Instant,
    prepare: impl FnOnce(&mut Simulator),
) -> JobOutcome {
    let workload =
        workloads::by_name(spec.trace).unwrap_or_else(|| panic!("unknown trace {:?}", spec.trace));
    let knobs = ScaleKnobs {
        length_mul: spec.length_mul,
        ..ScaleKnobs::default()
    };
    let tel = if spec.observed {
        let tel = Telemetry::new();
        tel.enable_tracing(1, TRACE_CAPACITY);
        tel
    } else {
        Telemetry::disabled()
    };
    let factory = spec.scheme.factory();
    let timed = TimedFactory::new(factory.as_ref());
    let engines: &dyn EngineFactory = if traced { &timed } else { factory.as_ref() };

    let start = Instant::now();
    let trace = workload.trace_knobbed_seeded(spec.scale, knobs, trace_seed(seed, spec.trace));
    let trace_gen_ns = elapsed_ns(start);
    let trace_len = trace.len() as u64;

    let new_start = Instant::now();
    let mut sim = Simulator::with_telemetry(cfg.clone(), trace, engines, tel.clone());
    let sim_new_ns = elapsed_ns(new_start);
    if spec.observed {
        sim.set_epoch_interval(EPOCH_CYCLES);
    }
    prepare(&mut sim);

    let run_start = Instant::now();
    let stats = sim.run().stats;
    let sim_run_ns = elapsed_ns(run_start);

    let mut failures = Vec::new();
    if stats.accesses != trace_len {
        failures.push(format!(
            "retired {} of {trace_len} accesses",
            stats.accesses
        ));
    }
    if stats.violations != 0 || !stats.violation_records.is_empty() {
        failures.push(format!(
            "honest trace raised {} violations",
            stats.violations
        ));
    }
    if !stats.ledger_conserved() {
        failures.push("cycle ledger does not conserve".into());
    }
    let tracer = tel.tracer();
    let telemetry = spec.observed.then(|| TelemetryCounts {
        records: tracer.len() as u64,
        dropped: tracer.dropped(),
        epochs: tel.epochs().len() as u64,
    });
    let mut outcome = JobOutcome {
        spec: *spec,
        trace_len,
        stats,
        start_ns: u64::try_from(start.saturating_duration_since(pass_start).as_nanos())
            .unwrap_or(u64::MAX),
        trace_gen_ns,
        sim_new_ns,
        sim_run_ns,
        probe: traced.then(|| timed.probe()),
        telemetry,
        failures,
    };
    if traced {
        if let Err(e) = outcome.stack() {
            outcome.failures.push(format!("host-time stack: {e}"));
        }
    }
    outcome
}
