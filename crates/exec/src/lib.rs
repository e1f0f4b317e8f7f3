//! **plutus-exec** — the bounded experiment scheduler.
//!
//! Every experiment surface in this workspace — the workload × scheme
//! IPC matrix, the adversarial fault campaigns, and the fail-operational
//! transient/crash campaigns — fans independent simulator runs out over
//! OS threads. Before this crate each surface hand-rolled its own
//! one-thread-per-workload `std::thread::scope` fan-out: core counts
//! were ignored (oversubscription on wide workload lists, idle cores on
//! narrow ones) and all schemes × trials within a workload ran
//! serially, so the slowest workload dominated wall-clock.
//!
//! [`Executor`] fixes the scheduling once, for everyone:
//!
//! * **Bounded.** Worker count defaults to
//!   [`std::thread::available_parallelism`] and never exceeds the
//!   configured cap, regardless of how many jobs are submitted.
//! * **One job stack.** A `run` call puts its jobs in one stack; the
//!   calling thread is worker 0 and `min(cap, jobs) - 1` scoped helper
//!   threads join it, each popping until the stack is empty. With
//!   helpers the newest job goes first; a lone worker runs the jobs in
//!   submission order on the calling thread.
//! * **Deterministic.** Results come back in submission order no matter
//!   which worker ran what, and [`derive_seed`] makes every job's
//!   random stream a pure function of (campaign seed, workload index,
//!   scheme index, trial index) — so reports are byte-identical across
//!   `--jobs 1` and `--jobs N`.
//! * **Panic-as-value.** A panicking job is caught and returned as a
//!   [`JobPanic`] carrying its label and payload; the pool and the
//!   remaining jobs keep running.
//! * **Observable.** Per-job queue latency and execution time, and
//!   per-worker busy time are recorded through `plutus-telemetry`
//!   (`sched.*` metrics) and aggregated in [`SchedStats`] for the
//!   `experiments --sched-stats` dump.
//!
//! ```
//! use plutus_exec::{Executor, Job};
//!
//! let pool = Executor::new(Some(2));
//! let jobs = (0..8)
//!     .map(|i| Job::new(format!("square-{i}"), move || i * i))
//!     .collect();
//! let results = pool.run(jobs);
//! let squares: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert!(pool.stats().peak_in_flight <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod stats;

pub use pool::{expect_all, Executor, Job, JobPanic};
pub use stats::{JobSpan, SchedStats};

/// SplitMix-style per-job seed derivation: a pure function of the
/// campaign seed and the (workload, scheme, trial) coordinates, so the
/// random stream a job consumes is independent of worker count,
/// scheduling order, and every other job.
///
/// This is the single derivation every campaign uses; detection and
/// escape rates measured under any `--jobs N` are bit-identical because
/// of it.
pub fn derive_seed(base: u64, workload: usize, scheme: usize, trial: usize) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((workload as u64) << 40) | ((scheme as u64) << 32) | trial as u64)
}

#[cfg(test)]
mod tests {
    use super::derive_seed;
    use std::collections::HashSet;

    #[test]
    fn seeds_are_a_pure_function_of_their_coordinates() {
        for (w, s, t) in [(0, 0, 0), (3, 2, 149), (255, 7, 1000)] {
            assert_eq!(derive_seed(42, w, s, t), derive_seed(42, w, s, t));
        }
    }

    #[test]
    fn seeds_differ_across_the_job_grid() {
        let mut seen = HashSet::new();
        for w in 0..8 {
            for s in 0..4 {
                for t in 0..64 {
                    assert!(
                        seen.insert(derive_seed(0xB00C_5EED, w, s, t)),
                        "seed collision at ({w}, {s}, {t})"
                    );
                }
            }
        }
    }

    #[test]
    fn base_seed_perturbs_every_job() {
        assert_ne!(derive_seed(1, 2, 1, 5), derive_seed(2, 2, 1, 5));
    }
}
