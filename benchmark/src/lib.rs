//! Host-performance benchmark of the Plutus simulator.
//!
//! It measures how fast the simulator itself runs — wall and CPU time,
//! set-up time, accesses and simulated cycles per host second, peak
//! memory — on four workloads that stress different layers, and splits
//! each job's wall time across the layers' public entry points in a
//! separate traced run. Simulated results are not its concern beyond
//! checking that every job is correct and that tracing changes nothing.
//! See `README.md` beside this crate for the workloads and metrics.

pub mod compare;
pub mod host;
pub mod job;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod workload;
