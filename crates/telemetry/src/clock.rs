//! Pluggable time sources for event timestamps and epoch boundaries.
//!
//! The simulator advances a [`CycleClock`] as its event loop drains, so
//! telemetry timestamps are *simulated cycles*; standalone tools use
//! [`WallClock`] and get nanoseconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic time source read by the telemetry layer.
///
/// Implementations must be cheap: `now` sits on event-record paths.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current time in this clock's unit (cycles, nanoseconds, ...).
    fn now(&self) -> u64;

    /// Unit label used by exporters (`"cycles"`, `"ns"`).
    fn unit(&self) -> &'static str;

    /// Advance an externally-driven clock to `t`. Self-driven clocks
    /// (wall time) ignore this.
    fn advance_to(&self, _t: u64) {}
}

/// Wall-clock time in nanoseconds since the clock was created.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock anchored at "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn unit(&self) -> &'static str {
        "ns"
    }
}

/// Simulated-cycle time, driven by whoever owns the simulation loop via
/// [`Clock::advance_to`]. Plain store: a new simulation run restarting at
/// cycle 0 simply rewinds the clock.
#[derive(Debug, Default)]
pub struct CycleClock {
    now: AtomicU64,
}

impl CycleClock {
    /// A cycle clock starting at 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for CycleClock {
    fn now(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    fn unit(&self) -> &'static str {
        "cycles"
    }

    fn advance_to(&self, t: u64) {
        self.now.store(t, Ordering::Relaxed);
    }
}

/// A clock frozen at 0 — used by the disabled telemetry instance.
#[derive(Debug, Default)]
pub struct NullClock;

impl Clock for NullClock {
    fn now(&self) -> u64 {
        0
    }

    fn unit(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert_eq!(c.unit(), "ns");
    }

    #[test]
    fn cycle_clock_follows_advance() {
        let c = CycleClock::new();
        assert_eq!(c.now(), 0);
        c.advance_to(120);
        assert_eq!(c.now(), 120);
        c.advance_to(7); // a fresh run may rewind
        assert_eq!(c.now(), 7);
        assert_eq!(c.unit(), "cycles");
    }

    #[test]
    fn null_clock_stays_at_zero() {
        let c = NullClock;
        c.advance_to(99);
        assert_eq!(c.now(), 0);
    }
}
