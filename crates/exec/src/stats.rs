//! Scheduler statistics: per-worker accounting merged into a
//! cumulative, queryable snapshot for the `--sched-stats` dump.

/// One executed job's wall-clock interval on a worker lane, for the
/// Chrome-trace scheduler export. Times are nanoseconds since the first
/// `run` call's submission instant (monotonic across runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpan {
    /// Job label as submitted.
    pub label: String,
    /// Worker slot the job executed on (0 is the calling thread).
    pub worker: usize,
    /// Execution start, ns since the executor's first submission.
    pub start_ns: u64,
    /// Execution end, ns since the executor's first submission.
    pub end_ns: u64,
}

/// Per-worker tallies collected lock-free on the worker's own stack and
/// merged into the shared accumulator when a `run` call ends.
#[derive(Debug, Default, Clone)]
pub(crate) struct WorkerLocal {
    pub jobs: u64,
    pub panics: u64,
    pub busy_ns: u128,
    pub queue_ns_total: u128,
    pub queue_ns_max: u64,
    pub exec_ns_max: u64,
    /// Spans of this run's jobs, start-relative to the run's submission
    /// instant; `merge_worker` rebases them and stamps the worker slot.
    pub spans: Vec<JobSpan>,
}

impl WorkerLocal {
    pub fn record_job(&mut self, queue_ns: u64, exec_ns: u64) {
        self.jobs += 1;
        self.busy_ns += u128::from(exec_ns);
        self.queue_ns_total += u128::from(queue_ns);
        self.queue_ns_max = self.queue_ns_max.max(queue_ns);
        self.exec_ns_max = self.exec_ns_max.max(exec_ns);
    }
}

/// The executor-lifetime accumulator behind [`SchedStats`].
#[derive(Debug, Default)]
pub(crate) struct StatsAcc {
    runs: u64,
    jobs: u64,
    panics: u64,
    queue_ns_total: u128,
    queue_ns_max: u64,
    exec_ns_total: u128,
    exec_ns_max: u64,
    wall_ns_total: u128,
    peak_in_flight: usize,
    worker_busy_ns: Vec<u128>,
    job_spans: Vec<JobSpan>,
}

impl StatsAcc {
    pub fn merge_worker(&mut self, slot: usize, local: &WorkerLocal) {
        self.jobs += local.jobs;
        self.panics += local.panics;
        self.queue_ns_total += local.queue_ns_total;
        self.queue_ns_max = self.queue_ns_max.max(local.queue_ns_max);
        self.exec_ns_total += local.busy_ns;
        self.exec_ns_max = self.exec_ns_max.max(local.exec_ns_max);
        if self.worker_busy_ns.len() <= slot {
            self.worker_busy_ns.resize(slot + 1, 0);
        }
        self.worker_busy_ns[slot] += local.busy_ns;
        // Rebase run-relative spans onto the executor-lifetime timeline
        // (wall_ns_total = time consumed by all earlier runs).
        let offset = u64::try_from(self.wall_ns_total).unwrap_or(u64::MAX);
        self.job_spans.extend(local.spans.iter().map(|s| JobSpan {
            label: s.label.clone(),
            worker: slot,
            start_ns: s.start_ns.saturating_add(offset),
            end_ns: s.end_ns.saturating_add(offset),
        }));
    }

    pub fn raise_peak(&mut self, peak: usize) {
        self.peak_in_flight = self.peak_in_flight.max(peak);
    }

    pub fn close_run(&mut self, wall_ns: u128) {
        self.runs += 1;
        self.wall_ns_total += wall_ns;
    }

    pub fn snapshot(&self, workers: usize) -> SchedStats {
        SchedStats {
            workers,
            runs: self.runs,
            jobs: self.jobs,
            panics: self.panics,
            queue_ns_mean: mean(self.queue_ns_total, self.jobs),
            queue_ns_max: self.queue_ns_max,
            exec_ns_mean: mean(self.exec_ns_total, self.jobs),
            exec_ns_max: self.exec_ns_max,
            exec_ns_total: self.exec_ns_total,
            wall_ns_total: self.wall_ns_total,
            peak_in_flight: self.peak_in_flight,
            worker_busy_ns: self.worker_busy_ns.clone(),
            job_spans: self.job_spans.clone(),
        }
    }
}

fn mean(total: u128, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// A point-in-time view of everything the scheduler has done: job
/// counts, queue/execution timing, wall-clock, and per-worker busy
/// time. Cumulative over every `run` call of one [`Executor`].
///
/// [`Executor`]: crate::Executor
#[derive(Debug, Clone, PartialEq)]
pub struct SchedStats {
    /// Configured worker cap.
    pub workers: usize,
    /// `run` calls completed.
    pub runs: u64,
    /// Jobs executed (including panicked ones).
    pub jobs: u64,
    /// Jobs that panicked (returned as `JobPanic` values).
    pub panics: u64,
    /// Mean submission-to-start latency, nanoseconds.
    pub queue_ns_mean: f64,
    /// Worst submission-to-start latency, nanoseconds.
    pub queue_ns_max: u64,
    /// Mean job execution time, nanoseconds.
    pub exec_ns_mean: f64,
    /// Longest job execution time, nanoseconds.
    pub exec_ns_max: u64,
    /// Total CPU time spent inside jobs, nanoseconds.
    pub exec_ns_total: u128,
    /// Total wall-clock across `run` calls, nanoseconds.
    pub wall_ns_total: u128,
    /// Most jobs ever simultaneously in flight (≤ `workers` always).
    pub peak_in_flight: usize,
    /// Busy nanoseconds per worker slot.
    pub worker_busy_ns: Vec<u128>,
    /// Wall-clock execution interval of every job, per worker lane —
    /// the scheduler lanes of the Chrome-trace export.
    pub job_spans: Vec<JobSpan>,
}

impl SchedStats {
    /// Aggregate speedup over a serial execution of the same jobs:
    /// total in-job CPU time over wall-clock.
    pub fn speedup(&self) -> f64 {
        if self.wall_ns_total == 0 {
            0.0
        } else {
            self.exec_ns_total as f64 / self.wall_ns_total as f64
        }
    }

    /// Per-worker utilization in `[0, 1]`: busy time over total
    /// wall-clock.
    pub fn utilization(&self) -> Vec<f64> {
        self.worker_busy_ns
            .iter()
            .map(|&busy| {
                if self.wall_ns_total == 0 {
                    0.0
                } else {
                    (busy as f64 / self.wall_ns_total as f64).min(1.0)
                }
            })
            .collect()
    }

    /// The human-readable `--sched-stats` dump.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scheduler: {} workers, {} run(s), {} jobs ({} panicked), peak in-flight {}",
            self.workers, self.runs, self.jobs, self.panics, self.peak_in_flight
        );
        let _ = writeln!(
            out,
            "  queue latency   mean {:>10}  max {:>10}",
            fmt_ns(self.queue_ns_mean),
            fmt_ns(self.queue_ns_max as f64)
        );
        let _ = writeln!(
            out,
            "  execution time  mean {:>10}  max {:>10}  total {:>10}",
            fmt_ns(self.exec_ns_mean),
            fmt_ns(self.exec_ns_max as f64),
            fmt_ns(self.exec_ns_total as f64)
        );
        let _ = writeln!(
            out,
            "  wall-clock {:>10}   speedup {:.2}x",
            fmt_ns(self.wall_ns_total as f64),
            self.speedup()
        );
        let util = self.utilization();
        if !util.is_empty() {
            let cells: Vec<String> = util
                .iter()
                .enumerate()
                .map(|(i, u)| format!("w{i} {:.0}%", u * 100.0))
                .collect();
            let _ = writeln!(out, "  worker utilization: {}", cells.join("  "));
        }
        out
    }
}

/// Renders nanoseconds at a readable scale.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_snapshot_roundtrip() {
        let mut acc = StatsAcc::default();
        let mut w0 = WorkerLocal::default();
        w0.record_job(100, 1_000);
        w0.record_job(300, 3_000);
        let mut w1 = WorkerLocal::default();
        w1.record_job(200, 2_000);
        acc.merge_worker(0, &w0);
        acc.merge_worker(1, &w1);
        acc.raise_peak(2);
        acc.close_run(3_000);
        let s = acc.snapshot(2);
        assert_eq!(s.jobs, 3);
        assert_eq!(s.exec_ns_total, 6_000);
        assert_eq!(s.exec_ns_max, 3_000);
        assert!((s.queue_ns_mean - 200.0).abs() < 1e-9);
        assert_eq!(s.peak_in_flight, 2);
        assert!((s.speedup() - 2.0).abs() < 1e-9);
        let util = s.utilization();
        assert_eq!(util[0], 1.0, "busy > wall clamps to full utilization");
        assert!((util[1] - 2_000.0 / 3_000.0).abs() < 1e-9);
        assert!(util.iter().all(|u| (0.0..=1.0).contains(u)));
    }

    #[test]
    fn job_spans_are_rebased_and_stamped() {
        let mut acc = StatsAcc::default();
        let mut w = WorkerLocal::default();
        w.record_job(0, 500);
        w.spans.push(JobSpan {
            label: "a".into(),
            worker: 0,
            start_ns: 10,
            end_ns: 510,
        });
        acc.merge_worker(1, &w);
        acc.close_run(600);
        // Second run's spans shift past the first run's wall time.
        let mut w2 = WorkerLocal::default();
        w2.spans.push(JobSpan {
            label: "b".into(),
            worker: 0,
            start_ns: 5,
            end_ns: 30,
        });
        acc.merge_worker(0, &w2);
        acc.close_run(100);
        let s = acc.snapshot(2);
        assert_eq!(s.job_spans.len(), 2);
        assert_eq!(s.job_spans[0].worker, 1);
        assert_eq!(s.job_spans[0].start_ns, 10);
        assert_eq!(s.job_spans[1].label, "b");
        assert_eq!(s.job_spans[1].worker, 0);
        assert_eq!(s.job_spans[1].start_ns, 605);
        assert_eq!(s.job_spans[1].end_ns, 630);
    }

    #[test]
    fn zero_state_is_well_defined() {
        let s = StatsAcc::default().snapshot(4);
        assert_eq!(s.speedup(), 0.0);
        assert_eq!(s.queue_ns_mean, 0.0);
        assert!(s.utilization().is_empty());
        assert!(s.summary_table().contains("4 workers"));
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_000_000.0), "2.00 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00 s");
    }
}
