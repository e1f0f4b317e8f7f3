//! The `cipher_bench` microbenchmark: scalar vs native crypto-backend
//! throughput for the primitives the security engines drive per memory
//! access (AES-XTS sectors, CME pad streams, CMAC tags), in both the
//! block-at-a-time and batched entry points.
//!
//! Each primitive is timed twice — once with the backend forced to the
//! portable scalar tables, once under the backend that was active at
//! entry (AES-NI where the CPU has it, otherwise scalar again) — and
//! reported as MiB/s plus the native/scalar speedup.
//! [`cipher_bench_gate`] turns the batched-primitive speedups into a CI
//! assertion.

use plutus_crypto::backend::{self, CryptoBackend};
use plutus_crypto::{Cmac, CounterMode, Tweak, Xts};
use plutus_telemetry::{Gate, GateFailure, Table};
use std::hint::black_box;
use std::time::Instant;

/// Sectors per batched call: comfortably past the 8-lane kernel width so
/// the pipeline stays full, small enough to live in L1.
const BATCH: usize = 64;

/// One primitive's scalar-vs-native measurement.
#[derive(Debug, Clone)]
pub struct CipherBenchRow {
    /// Primitive label, e.g. `xts.process_sectors[64]`.
    pub primitive: &'static str,
    /// Plaintext bytes processed per timed call.
    pub bytes_per_call: usize,
    /// Scalar-tables throughput in MiB/s.
    pub scalar_mibps: f64,
    /// Native-backend throughput in MiB/s (equals the scalar run when no
    /// SIMD backend exists on this host).
    pub native_mibps: f64,
    /// Whether this row times a batched entry point (the speedup gate's
    /// population).
    pub batched: bool,
}

impl CipherBenchRow {
    /// Native over scalar throughput.
    pub fn speedup(&self) -> f64 {
        if self.scalar_mibps > 0.0 {
            self.native_mibps / self.scalar_mibps
        } else {
            f64::NAN
        }
    }
}

/// Times `f` (which processes `bytes_per_call` plaintext bytes per call)
/// and returns MiB/s. Iteration count is calibrated geometrically until
/// the timed region is long enough to dwarf timer noise.
fn throughput_mibps(bytes_per_call: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..16 {
        f(); // warmup: touch caches, settle the backend dispatch
    }
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 60 || iters >= 1 << 28 {
            let bytes = bytes_per_call as f64 * iters as f64;
            return bytes / elapsed.as_secs_f64().max(1e-9) / (1024.0 * 1024.0);
        }
        iters = iters.saturating_mul(4);
    }
}

fn tweaks() -> Vec<Tweak> {
    (0..BATCH as u64).map(|i| Tweak::new(i * 32, i)).collect()
}

/// One primitive's closure under whatever backend is currently forced.
fn measure(primitive: &'static str) -> f64 {
    let xts = Xts::new([0x11; 16], [0x22; 16]);
    let cme = CounterMode::new([0x33; 16]);
    let cmac = Cmac::new([0x44; 16]);
    let tweaks = tweaks();
    let mut sectors = vec![[0u8; 32]; BATCH];
    let mut sector = [0u8; 32];
    let msg = [0x5au8; 32];
    match primitive {
        "xts.encrypt_sector" => throughput_mibps(32, || {
            xts.encrypt_sector(black_box(&mut sector), Tweak::new(0x1000, 7));
        }),
        "xts.process_sectors[64]" => throughput_mibps(32 * BATCH, || {
            xts.encrypt_sectors(black_box(&mut sectors), &tweaks);
        }),
        "cme.apply" => throughput_mibps(32, || {
            cme.apply(black_box(&mut sector), Tweak::new(0x2000, 3));
        }),
        "cme.apply_sectors[64]" => throughput_mibps(32 * BATCH, || {
            cme.apply_sectors(black_box(&mut sectors), &tweaks);
        }),
        "cmac.stateful_tag64" => throughput_mibps(32, || {
            black_box(cmac.stateful_tag64(black_box(&msg), Tweak::new(0x40, 5)));
        }),
        "cmac.stateful_tag64_many[64]" => throughput_mibps(32 * BATCH, || {
            black_box(cmac.stateful_tag64_many(black_box(&sectors), &tweaks));
        }),
        other => unreachable!("unknown cipher_bench primitive {other}"),
    }
}

const PRIMITIVES: [(&str, bool); 6] = [
    ("xts.encrypt_sector", false),
    ("xts.process_sectors[64]", true),
    ("cme.apply", false),
    ("cme.apply_sectors[64]", true),
    ("cmac.stateful_tag64", false),
    ("cmac.stateful_tag64_many[64]", true),
];

/// Runs the full scalar-vs-native sweep. The backend active at entry is
/// treated as "native" (so `--crypto-backend scalar` yields a 1.0x
/// control run) and is restored before returning.
pub fn run_cipher_bench() -> (CryptoBackend, Vec<CipherBenchRow>) {
    let native = backend::active();
    let rows = PRIMITIVES
        .iter()
        .map(|&(primitive, batched)| {
            backend::force_scalar();
            let scalar_mibps = measure(primitive);
            backend::force(native);
            let native_mibps = measure(primitive);
            CipherBenchRow {
                primitive,
                bytes_per_call: if batched { 32 * BATCH } else { 32 },
                scalar_mibps,
                native_mibps,
                batched,
            }
        })
        .collect();
    backend::force(native);
    (native, rows)
}

/// The cipher_bench report: one row per primitive, stamped with the
/// native backend it ran against.
pub fn cipher_bench_report(
    native: CryptoBackend,
    rows: &[CipherBenchRow],
) -> Table<'_, CipherBenchRow> {
    Table::new(rows)
        .show("primitive", |r| r.primitive.into())
        .show("native_backend", move |_| native.to_string().into())
        .col("bytes_per_call", |r| r.bytes_per_call.into())
        .show("scalar_mibps", |r| r.scalar_mibps.into())
        .show("native_mibps", |r| r.native_mibps.into())
        .show("speedup", |r| r.speedup().into())
        .col("batched", |r| r.batched.into())
}

/// The `--assert-speedup` CI gate: every *batched* primitive must reach
/// `min` native/scalar speedup. Refuses to pass trivially when the
/// native backend is the scalar one.
///
/// # Errors
///
/// Returns the failure naming every violated check.
pub fn cipher_bench_gate(
    native: CryptoBackend,
    rows: &[CipherBenchRow],
    min: f64,
) -> Result<(), GateFailure> {
    let mut gate = Gate::new();
    gate.check("backend", native != CryptoBackend::Scalar, || {
        format!(
            "--assert-speedup {min} needs a SIMD backend, but the native backend is scalar \
             (no AES-NI on this host, or --crypto-backend scalar was passed)"
        )
    });
    for r in rows.iter().filter(|r| r.batched) {
        let s = r.speedup();
        gate.check("speedup", s >= min, || {
            format!(
                "{}: native/scalar speedup {s:.2}x below the required {min:.2}x",
                r.primitive
            )
        });
    }
    gate.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_rejects_scalar_native_and_slow_rows() {
        let rows = vec![CipherBenchRow {
            primitive: "xts.process_sectors[64]",
            bytes_per_call: 2048,
            scalar_mibps: 100.0,
            native_mibps: 150.0,
            batched: true,
        }];
        assert!(cipher_bench_gate(CryptoBackend::Scalar, &rows, 4.0).is_err());
        assert!(cipher_bench_gate(CryptoBackend::AesNi, &rows, 4.0).is_err());
        assert!(cipher_bench_gate(CryptoBackend::AesNi, &rows, 1.2).is_ok());
    }

    #[test]
    fn gate_treats_non_finite_speedup_as_failure() {
        let rows = vec![CipherBenchRow {
            primitive: "cmac.stateful_tag64_many[64]",
            bytes_per_call: 2048,
            scalar_mibps: 0.0,
            native_mibps: 100.0,
            batched: true,
        }];
        assert!(cipher_bench_gate(CryptoBackend::AesNi, &rows, 4.0).is_err());
    }

    #[test]
    fn json_and_table_render() {
        let rows = vec![CipherBenchRow {
            primitive: "cme.apply_sectors[64]",
            bytes_per_call: 2048,
            scalar_mibps: 100.0,
            native_mibps: 500.0,
            batched: true,
        }];
        let report = cipher_bench_report(CryptoBackend::AesNi, &rows);
        let doc = report.to_json().to_string_pretty();
        assert!(doc.contains("\"native_backend\": \"aes-ni\""));
        assert!(doc.contains("\"speedup\": 5"));
        assert!(report.to_console().contains("5.000"));
    }
}
