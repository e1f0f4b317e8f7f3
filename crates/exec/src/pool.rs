//! The bounded job-stack pool.

use crate::stats::{JobSpan, SchedStats, StatsAcc, WorkerLocal};
use plutus_telemetry::{Counter, Histogram, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One schedulable unit of work: a label (used when reporting panics)
/// and a closure producing the job's result.
pub struct Job<'a, T> {
    label: String,
    run: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> Job<'a, T> {
    /// Wraps `run` as a job named `label`.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'a) -> Self {
        Self {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// The job's label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl<T> std::fmt::Debug for Job<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job").field("label", &self.label).finish()
    }
}

/// A job's panic, returned as a value: the pool catches worker panics
/// so one failing (workload, scheme, trial) cannot abort a whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Label of the job that panicked.
    pub label: String,
    /// Stringified panic payload.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {:?} panicked: {}", self.label, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Unwraps a whole result batch, panicking with `context` on the first
/// [`JobPanic`] in submission order — for fan-outs whose documented
/// contract is panic-propagating rather than panic-as-value.
///
/// # Panics
///
/// Panics if any job panicked.
pub fn expect_all<T>(results: Vec<Result<T, JobPanic>>, context: &str) -> Vec<T> {
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("{context}: {p}")))
        .collect()
}

/// Stringifies a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Locks one of the pool's mutexes. Jobs run outside every pool lock
/// and their panics are caught, so a poisoned lock is a pool bug.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("no pool lock is held while a job runs")
}

/// The soft watchdog's threshold, as a multiple of the running median
/// of completed job durations.
const WATCHDOG_MULTIPLE: u64 = 4;

/// A job currently executing, as seen by the heartbeat monitor.
struct RunningJob {
    label: String,
    started: Instant,
    /// Whether the watchdog has already flagged this job — the
    /// `sched.watchdog` counter increments once per straggler, not once
    /// per heartbeat tick.
    flagged: bool,
}

/// Progress of one `run` call, written by its workers and read by its
/// heartbeat monitor.
struct HeartbeatState {
    done: AtomicUsize,
    total: usize,
    /// The job each worker slot is executing. Keyed by slot, not label:
    /// labels need not be unique within a run.
    running: Mutex<Vec<Option<RunningJob>>>,
    /// Durations of completed jobs this run, in nanoseconds; feeds the
    /// watchdog's running median.
    finished_ns: Mutex<Vec<u64>>,
    start: Instant,
}

impl HeartbeatState {
    fn new(total: usize, workers: usize) -> Self {
        Self {
            done: AtomicUsize::new(0),
            total,
            running: Mutex::new((0..workers).map(|_| None).collect()),
            finished_ns: Mutex::new(Vec::new()),
            start: Instant::now(),
        }
    }

    fn begin(&self, slot: usize, label: &str, started: Instant) {
        lock(&self.running)[slot] = Some(RunningJob {
            label: label.to_string(),
            started,
            flagged: false,
        });
    }

    fn finish(&self, slot: usize, exec_ns: u64) {
        lock(&self.running)[slot] = None;
        lock(&self.finished_ns).push(exec_ns);
        self.done.fetch_add(1, Ordering::SeqCst);
    }

    /// The watchdog threshold in nanoseconds: [`WATCHDOG_MULTIPLE`]
    /// times the median completed-job duration, once at least three
    /// jobs have finished (before that there is no trustworthy
    /// baseline).
    fn watchdog_threshold_ns(&self) -> Option<u64> {
        let mut finished = lock(&self.finished_ns).clone();
        if finished.len() < 3 {
            return None;
        }
        finished.sort_unstable();
        Some(finished[finished.len() / 2].saturating_mul(WATCHDOG_MULTIPLE))
    }
}

/// The bounded job-stack executor.
///
/// `run` blocks until every submitted job finished and returns results
/// in **submission order** — callers can assemble reports by walking
/// their (workload, scheme, trial) loop nest in the same order they
/// submitted it, independent of which worker ran what.
pub struct Executor {
    workers: usize,
    queue_ns: Histogram,
    exec_ns: Histogram,
    jobs_ctr: Counter,
    panics_ctr: Counter,
    watchdog_ctr: Counter,
    stats: Mutex<StatsAcc>,
    /// Heartbeat interval; `None` disables progress lines and the
    /// watchdog.
    heartbeat: Option<Duration>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Executor {
    /// A pool of `workers` workers, or one per available core when
    /// `None`: the calling thread plus up to `workers - 1` helper
    /// threads. The cap is a hard bound: no `run` call ever has more
    /// jobs in flight than this, however many jobs it receives.
    pub fn new(workers: Option<usize>) -> Self {
        Self::with_telemetry(workers, Telemetry::disabled())
    }

    /// Like [`Executor::new`], recording `sched.*` metrics into `tel`:
    /// `sched.queue_ns` / `sched.exec_ns` histograms per job,
    /// `sched.jobs` / `sched.panics` / `sched.watchdog` counters, and a
    /// `sched.workers` gauge.
    pub fn with_telemetry(workers: Option<usize>, tel: Telemetry) -> Self {
        let workers = workers
            .map(|n| n.max(1))
            .unwrap_or_else(default_parallelism);
        tel.gauge("sched.workers").set(workers as u64);
        Self {
            workers,
            queue_ns: tel.histogram("sched.queue_ns"),
            exec_ns: tel.histogram("sched.exec_ns"),
            jobs_ctr: tel.counter("sched.jobs"),
            panics_ctr: tel.counter("sched.panics"),
            watchdog_ctr: tel.counter("sched.watchdog"),
            stats: Mutex::new(StatsAcc::default()),
            heartbeat: None,
        }
    }

    /// Enables periodic progress lines on stderr during every `run`
    /// call: jobs done/total, the labels currently executing, and
    /// elapsed wall time, printed every `interval` (clamped up to one
    /// millisecond).
    ///
    /// The heartbeat also arms the soft per-job watchdog: once at least
    /// three jobs of a `run` have completed, any job still executing
    /// past four times the running median of completed durations is
    /// flagged `[SLOW]` in the progress line and counted once in the
    /// `sched.watchdog` telemetry counter. Soft means observe-and-report
    /// only — the job is never cancelled.
    pub fn set_heartbeat(&mut self, interval: Duration) {
        self.heartbeat = Some(interval.max(Duration::from_millis(1)));
    }

    /// A single-worker pool: jobs run on the calling thread, in
    /// submission order, with no thread spawned. The `--jobs 1`
    /// reference configuration.
    pub fn sequential() -> Self {
        Self::new(Some(1))
    }

    /// The configured worker cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cumulative scheduler statistics over every `run` call so far.
    pub fn stats(&self) -> SchedStats {
        lock(&self.stats).snapshot(self.workers)
    }

    /// Runs every job to completion and returns their results in
    /// submission order. Panicking jobs come back as [`JobPanic`]
    /// values; the pool itself never unwinds.
    ///
    /// The jobs sit in one stack. The calling thread is worker 0 and
    /// `min(cap, jobs) - 1` scoped helper threads join it; each worker
    /// pops until the stack is empty. With helpers the newest job goes
    /// first, so a long job submitted last (`lbm/plutus` in the figure
    /// matrix) starts at once instead of setting the makespan. A lone
    /// worker runs the jobs in submission order: newest-first raised
    /// its peak memory.
    pub fn run<'a, T: Send>(&self, jobs: Vec<Job<'a, T>>) -> Vec<Result<T, JobPanic>> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        let submitted = Instant::now();
        let mut stack: Vec<(usize, Job<'a, T>)> = jobs.into_iter().enumerate().collect();
        if workers == 1 {
            stack.reverse();
        }
        let stack = Mutex::new(stack);
        let slots: Vec<Mutex<Option<Result<T, JobPanic>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let heartbeat = self.heartbeat.map(|_| HeartbeatState::new(n, workers));
        let hb = heartbeat.as_ref();

        let work = |slot: usize| {
            let mut local = WorkerLocal::default();
            loop {
                // Pop in its own statement: the guard must drop before
                // the job runs.
                let next = lock(&stack).pop();
                let Some((idx, job)) = next else { break };
                let depth = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(depth, Ordering::SeqCst);
                let res = self.execute(job, slot, submitted, &mut local, hb);
                in_flight.fetch_sub(1, Ordering::SeqCst);
                *lock(&slots[idx]) = Some(res);
            }
            local
        };
        let locals: Vec<WorkerLocal> = std::thread::scope(|scope| {
            // The monitor exits when `done` is dropped, after the last
            // worker joined (or while the caller unwinds).
            let (done, wait) = mpsc::channel::<()>();
            if let (Some(interval), Some(state)) = (self.heartbeat, hb) {
                scope.spawn(move || {
                    while let Err(RecvTimeoutError::Timeout) = wait.recv_timeout(interval) {
                        self.tick(state);
                    }
                });
            }
            let work = &work;
            let helpers: Vec<_> = (1..workers)
                .map(|slot| scope.spawn(move || work(slot)))
                .collect();
            let mut locals = vec![work(0)];
            locals.extend(
                helpers
                    .into_iter()
                    .map(|h| h.join().expect("pool workers catch every job panic")),
            );
            drop(done);
            locals
        });

        let mut acc = lock(&self.stats);
        for (slot, local) in locals.iter().enumerate() {
            acc.merge_worker(slot, local);
        }
        acc.raise_peak(peak.load(Ordering::SeqCst));
        acc.close_run(submitted.elapsed().as_nanos());
        drop(acc);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no pool lock is held while a job runs")
                    .expect("every job stores its result")
            })
            .collect()
    }

    /// Runs one job on worker `slot` with full timing/panic accounting,
    /// reporting to the heartbeat monitor when one is active.
    fn execute<T>(
        &self,
        job: Job<'_, T>,
        slot: usize,
        submitted: Instant,
        local: &mut WorkerLocal,
        hb: Option<&HeartbeatState>,
    ) -> Result<T, JobPanic> {
        let start = Instant::now();
        let queue_ns = start.duration_since(submitted).as_nanos() as u64;
        let Job { label, run } = job;
        if let Some(h) = hb {
            h.begin(slot, &label, start);
        }
        let outcome = catch_unwind(AssertUnwindSafe(run));
        let exec_ns = start.elapsed().as_nanos() as u64;
        if let Some(h) = hb {
            h.finish(slot, exec_ns);
        }
        self.queue_ns.record(queue_ns);
        self.exec_ns.record(exec_ns);
        self.jobs_ctr.inc();
        local.record_job(queue_ns, exec_ns);
        local.spans.push(JobSpan {
            label: label.clone(),
            worker: 0, // stamped with the real slot at merge time
            start_ns: queue_ns,
            end_ns: queue_ns.saturating_add(exec_ns),
        });
        match outcome {
            Ok(v) => Ok(v),
            Err(payload) => {
                self.panics_ctr.inc();
                local.panics += 1;
                Err(JobPanic {
                    label,
                    message: panic_message(payload),
                })
            }
        }
    }

    /// One heartbeat: the progress line on stderr, flagging jobs past
    /// the watchdog threshold.
    fn tick(&self, hb: &HeartbeatState) {
        let threshold = hb.watchdog_threshold_ns();
        let mut running = lock(&hb.running);
        let labels: Vec<String> = running
            .iter_mut()
            .flatten()
            .map(|job| {
                let elapsed = job.started.elapsed();
                match threshold {
                    Some(limit) if elapsed.as_nanos() > u128::from(limit) => {
                        if !job.flagged {
                            job.flagged = true;
                            self.watchdog_ctr.inc();
                        }
                        format!("{} [SLOW {:.1}s]", job.label, elapsed.as_secs_f64())
                    }
                    _ => job.label.clone(),
                }
            })
            .collect();
        drop(running);
        eprintln!(
            "[plutus-exec] {}/{} jobs done, elapsed {:.0}s, running: [{}]",
            hb.done.load(Ordering::SeqCst),
            hb.total,
            hb.start.elapsed().as_secs_f64(),
            labels.join(", "),
        );
    }
}

/// The default worker cap: one per core the OS will give us.
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn indexed_jobs(n: usize) -> Vec<Job<'static, usize>> {
        (0..n)
            .map(|i| Job::new(format!("j{i}"), move || i))
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 2, 4, 7] {
            let pool = Executor::new(Some(workers));
            let out = pool.run(indexed_jobs(33));
            let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..33).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn pool_never_exceeds_the_configured_cap() {
        // The cap regression test the schedulers' predecessors failed:
        // a 32-workload synthetic list on a 2-worker pool must never
        // have more than 2 jobs in flight.
        let pool = Executor::new(Some(2));
        let live = AtomicUsize::new(0);
        let observed_peak = AtomicUsize::new(0);
        let jobs: Vec<Job<'_, ()>> = (0..32)
            .map(|i| {
                let live = &live;
                let observed_peak = &observed_peak;
                Job::new(format!("w{i}"), move || {
                    let depth = live.fetch_add(1, Ordering::SeqCst) + 1;
                    observed_peak.fetch_max(depth, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    live.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out.len(), 32);
        assert!(out.iter().all(Result::is_ok));
        assert!(
            observed_peak.load(Ordering::SeqCst) <= 2,
            "jobs observed {} concurrent executions on a 2-worker pool",
            observed_peak.load(Ordering::SeqCst)
        );
        let stats = pool.stats();
        assert_eq!(stats.jobs, 32);
        assert!(stats.peak_in_flight <= 2, "peak {}", stats.peak_in_flight);
    }

    #[test]
    fn panics_are_returned_as_values_and_do_not_sink_the_pool() {
        let pool = Executor::new(Some(3));
        let jobs: Vec<Job<'_, u32>> = (0..9)
            .map(|i| {
                Job::new(format!("job-{i}"), move || {
                    if i == 4 {
                        panic!("boom {i}");
                    }
                    i
                })
            })
            .collect();
        let out = pool.run(jobs);
        for (i, res) in out.iter().enumerate() {
            if i == 4 {
                let err = res.as_ref().unwrap_err();
                assert_eq!(err.label, "job-4");
                assert!(err.message.contains("boom 4"));
                assert!(err.to_string().contains("job-4"));
            } else {
                assert_eq!(*res.as_ref().unwrap() as usize, i);
            }
        }
        assert_eq!(pool.stats().panics, 1);
    }

    #[test]
    fn empty_and_single_job_batches_work() {
        let pool = Executor::new(None);
        assert!(pool.run(Vec::<Job<'_, ()>>::new()).is_empty());
        let one = pool.run(vec![Job::new("solo", || 7u8)]);
        assert_eq!(one[0].as_ref().unwrap(), &7);
        assert!(pool.workers() >= 1);
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let inputs = [10u64, 20, 30];
        let pool = Executor::new(Some(2));
        let jobs: Vec<Job<'_, u64>> = inputs
            .iter()
            .map(|v| Job::new("borrow", move || v * 2))
            .collect();
        let out = pool.run(jobs);
        let doubled: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(doubled, vec![20, 40, 60]);
    }

    #[test]
    fn stats_accumulate_across_runs_and_feed_telemetry() {
        let tel = Telemetry::new();
        let pool = Executor::with_telemetry(Some(2), tel.clone());
        pool.run(indexed_jobs(5));
        pool.run(indexed_jobs(3));
        let stats = pool.stats();
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.jobs, 8);
        assert_eq!(stats.workers, 2);
        assert!(stats.exec_ns_total > 0);
        assert!(stats.wall_ns_total > 0);
        assert_eq!(stats.worker_busy_ns.len(), 2);
        let table = stats.summary_table();
        assert!(table.contains("workers"), "{table}");
        let report = tel.report();
        assert_eq!(report.totals.counter("sched.jobs"), Some(8));
        assert!(report
            .totals
            .histograms
            .iter()
            .any(|(name, _)| name == "sched.exec_ns"));
    }

    #[test]
    fn sequential_pool_runs_on_the_caller_thread() {
        let pool = Executor::sequential();
        let caller = std::thread::current().id();
        let out = pool.run(vec![Job::new("here", move || std::thread::current().id())]);
        assert_eq!(out[0].as_ref().unwrap(), &caller);
        assert_eq!(pool.stats().peak_in_flight, 1);
    }

    #[test]
    fn heartbeat_does_not_perturb_results() {
        for workers in [1, 4] {
            let mut pool = Executor::new(Some(workers));
            pool.set_heartbeat(std::time::Duration::from_millis(1));
            let jobs: Vec<Job<'_, usize>> = (0..16)
                .map(|i| {
                    Job::new(format!("hb{i}"), move || {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        i
                    })
                })
                .collect();
            let out: Vec<usize> = pool.run(jobs).into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(out, (0..16).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn watchdog_flags_the_straggler_exactly_once() {
        let tel = Telemetry::new();
        let mut pool = Executor::with_telemetry(Some(4), tel.clone());
        pool.set_heartbeat(std::time::Duration::from_millis(10));
        // 8 fast jobs establish a ~1ms median and finish before the
        // first heartbeat tick; the straggler runs ~150x the median,
        // far past the 4x threshold, across many ticks.
        let jobs: Vec<Job<'_, usize>> = (0..9)
            .map(|i| {
                Job::new(format!("wd{i}"), move || {
                    let ms = if i == 8 { 150 } else { 1 };
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    i
                })
            })
            .collect();
        let out: Vec<usize> = pool.run(jobs).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(out, (0..9).collect::<Vec<_>>());
        assert_eq!(
            tel.report().totals.counter("sched.watchdog"),
            Some(1),
            "the straggler must be counted once, not per tick"
        );
    }

    #[test]
    fn watchdog_stays_silent_when_disabled_or_all_jobs_are_uniform() {
        let tel = Telemetry::new();
        let mut pool = Executor::with_telemetry(Some(2), tel.clone());
        let watchdog = || tel.report().totals.counter("sched.watchdog").unwrap_or(0);
        // No heartbeat, no watchdog: a straggler goes unflagged.
        let jobs: Vec<Job<'_, ()>> = (0..8)
            .map(|i| {
                Job::new(format!("v{i}"), move || {
                    let ms = if i == 7 { 40 } else { 1 };
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                })
            })
            .collect();
        assert!(pool.run(jobs).iter().all(Result::is_ok));
        assert_eq!(watchdog(), 0);
        // Armed by the heartbeat: uniform 20 ms jobs stay far below 4x
        // their median even when a loaded host wakes one a little late.
        pool.set_heartbeat(std::time::Duration::from_millis(5));
        let jobs: Vec<Job<'_, ()>> = (0..8)
            .map(|i| {
                Job::new(format!("u{i}"), || {
                    std::thread::sleep(std::time::Duration::from_millis(20))
                })
            })
            .collect();
        assert!(pool.run(jobs).iter().all(Result::is_ok));
        assert_eq!(watchdog(), 0);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        for workers in [1, 2, 3, 4, 7] {
            let pool = Executor::new(Some(workers));
            let log = Mutex::new(Vec::new());
            let jobs: Vec<Job<'_, usize>> = (0..20)
                .map(|i| {
                    let log = &log;
                    Job::new(format!("e{i}"), move || {
                        std::thread::sleep(std::time::Duration::from_micros(100 * (i % 5) as u64));
                        log.lock().unwrap().push(i);
                        i
                    })
                })
                .collect();
            let out: Vec<usize> = pool.run(jobs).into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(out, (0..20).collect::<Vec<_>>(), "workers={workers}");
            let mut ran = log.into_inner().unwrap();
            if workers == 1 {
                assert_eq!(ran, out, "a lone worker runs jobs in submission order");
            }
            ran.sort_unstable();
            assert_eq!(ran, out, "workers={workers}: each job runs exactly once");
        }
    }

    #[test]
    fn a_run_spawns_at_most_one_thread_per_job() {
        // The barrier holds all three jobs in flight at once, so a cap-8
        // pool must run them on exactly three threads: the caller and
        // two helpers.
        let pool = Executor::new(Some(8));
        let barrier = std::sync::Barrier::new(3);
        let jobs: Vec<Job<'_, std::thread::ThreadId>> = (0..3)
            .map(|i| {
                let barrier = &barrier;
                Job::new(format!("t{i}"), move || {
                    barrier.wait();
                    std::thread::current().id()
                })
            })
            .collect();
        let threads: std::collections::HashSet<_> =
            pool.run(jobs).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(threads.len(), 3);
        assert!(threads.contains(&std::thread::current().id()));
        assert_eq!(pool.stats().worker_busy_ns.len(), 3, "one worker per job");
    }
}
