//! Runtime crypto backend selection.
//!
//! The crate ships two interchangeable implementations of every primitive:
//! the portable scalar T-table path (always available, the pinned reference
//! for golden-file determinism suites) and an `x86_64` AES-NI + PCLMULQDQ
//! path (the private `aesni` module) that pipelines batches of
//! independent blocks.
//! Both produce byte-identical output — the SIMD path is a pure speedup, so
//! simulated results never depend on the host CPU.
//!
//! Selection happens once, lazily, via CPUID ([`detect`]) the first time
//! [`active`] is consulted, and can be overridden (e.g. by the
//! `--crypto-backend scalar` experiment flag) with [`force`]. The choice is
//! process-global: secure-memory models clone ciphers freely across engines
//! and worker threads, so per-instance selection would be both racy to
//! configure and impossible to report as a single telemetry gauge.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which implementation services cipher calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoBackend {
    /// Portable table-based software path (the pinned reference).
    Scalar,
    /// `x86_64` AES-NI + PCLMULQDQ batch path.
    AesNi,
}

impl std::fmt::Display for CryptoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CryptoBackend::Scalar => "scalar",
            CryptoBackend::AesNi => "aes-ni",
        })
    }
}

/// 0 = not yet selected, 1 = scalar, 2 = AES-NI.
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// Probes the host CPU for the fast path, ignoring any [`force`] override.
///
/// Returns [`CryptoBackend::AesNi`] only when AES-NI, PCLMULQDQ, and SSE2
/// are all reported by CPUID (the batch kernels use all three).
pub fn detect() -> CryptoBackend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse2")
        {
            return CryptoBackend::AesNi;
        }
    }
    CryptoBackend::Scalar
}

/// The backend servicing cipher calls, selecting one via [`detect`] on
/// first use.
#[inline]
pub fn active() -> CryptoBackend {
    match BACKEND.load(Ordering::Relaxed) {
        1 => CryptoBackend::Scalar,
        2 => CryptoBackend::AesNi,
        _ => {
            let detected = detect();
            // Racing threads detect the same hardware; last store wins
            // with an identical value.
            BACKEND.store(
                match detected {
                    CryptoBackend::Scalar => 1,
                    CryptoBackend::AesNi => 2,
                },
                Ordering::Relaxed,
            );
            detected
        }
    }
}

/// Pins the process-wide backend, overriding (or pre-empting) detection.
///
/// Forcing [`CryptoBackend::AesNi`] on hardware without the features would
/// abort the process at the first cipher call, so this panics up front
/// instead.
pub fn force(backend: CryptoBackend) {
    assert!(
        backend != CryptoBackend::AesNi || detect() == CryptoBackend::AesNi,
        "cannot force the AES-NI backend: host CPU lacks aes/pclmulqdq/sse2"
    );
    BACKEND.store(
        match backend {
            CryptoBackend::Scalar => 1,
            CryptoBackend::AesNi => 2,
        },
        Ordering::Relaxed,
    );
}

/// Shorthand for `force(CryptoBackend::Scalar)` — the determinism suites'
/// pinned reference.
pub fn force_scalar() {
    force(CryptoBackend::Scalar);
}

impl std::str::FromStr for CryptoBackend {
    type Err = String;

    /// Parses the `--crypto-backend` flag values `scalar` and
    /// `simd`/`aes-ni` (`auto` is handled by the caller — it means "don't
    /// force anything").
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(CryptoBackend::Scalar),
            "simd" | "aes-ni" | "aesni" => Ok(CryptoBackend::AesNi),
            other => Err(format!(
                "unknown crypto backend {other:?} (expected auto, scalar, or simd)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable() {
        assert_eq!(detect(), detect());
    }

    #[test]
    fn parse_and_display() {
        assert_eq!("scalar".parse::<CryptoBackend>(), Ok(CryptoBackend::Scalar));
        assert_eq!("simd".parse::<CryptoBackend>(), Ok(CryptoBackend::AesNi));
        assert_eq!("aes-ni".parse::<CryptoBackend>(), Ok(CryptoBackend::AesNi));
        assert!("turbo".parse::<CryptoBackend>().is_err());
        assert_eq!(CryptoBackend::Scalar.to_string(), "scalar");
        assert_eq!(CryptoBackend::AesNi.to_string(), "aes-ni");
    }

    // `force`/`active` mutate process-global state shared with the
    // equivalence tests running in the same harness, so they are only
    // exercised via `detect`-consistent values here.
    #[test]
    fn active_matches_hardware_or_forced_value() {
        let a = active();
        assert!(a == CryptoBackend::Scalar || a == detect());
    }
}
