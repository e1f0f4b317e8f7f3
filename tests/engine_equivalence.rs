//! Functional equivalence: every security engine must behave as a plain
//! memory — whatever is written is read back, byte for byte, regardless of
//! eviction order, counter overflows, compact-counter saturation, or
//! adaptive block disables. The reference model is a `HashMap`.
//!
//! The fuzz also drives the tenancy, key-rotation and crash-recovery
//! paths, which no simulated workload reaches at test scale: each run
//! starts rotation walks, forces a storm of counter-group overflows, and
//! goes through several checkpoint → crash → recover cycles. The engines'
//! final `extra_stats` and summed recovery reports are pinned against
//! `tests/golden/engine_stats_*.txt`, so a refactor of the engines that
//! changes any of that bookkeeping fails here.
//!
//! A batched image install must leave an engine exactly as one
//! `install` per sector does.

use gpu_sim::{BackingMemory, RecoveryReport, SectorAddr, SecurityEngine, TenantMap};
use plutus_core::{CompactKind, PlutusConfig, PlutusEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_mem::{CommonCountersEngine, PssmEngine, SecureMemConfig, TenancyConfig};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Two tenants splitting the fuzzed address space, with a one-overflow
/// storm budget per (never-ending) window so the deferral path runs.
fn two_tenants() -> TenancyConfig {
    let mut map = TenantMap::new();
    map.add_range(0, 0x4000, 1);
    map.add_range(0x4000, 0x8000, 2);
    let mut ten = TenancyConfig::new(map, 0x7e4a);
    ten.storm_burst = 1;
    ten.storm_window = 1 << 20;
    ten
}

fn engines() -> Vec<(String, Box<dyn SecurityEngine>)> {
    let mem = SecureMemConfig::test_small();
    let tenant_mem = SecureMemConfig {
        tenancy: Some(two_tenants()),
        ..mem.clone()
    };
    let mut tenant_plutus = PlutusConfig::test_small();
    tenant_plutus.mem.tenancy = Some(two_tenants());
    let mut list: Vec<(String, Box<dyn SecurityEngine>)> = vec![
        ("pssm".into(), Box::new(PssmEngine::new(mem.clone()))),
        (
            "pssm-mac4".into(),
            Box::new(PssmEngine::new(SecureMemConfig {
                mac_bytes: 4,
                ..mem.clone()
            })),
        ),
        (
            "pssm-all32".into(),
            Box::new(PssmEngine::new(SecureMemConfig {
                ctr_fetch_bytes: 32,
                bmt_node_bytes: 32,
                ..mem.clone()
            })),
        ),
        (
            "common-counters".into(),
            Box::new(CommonCountersEngine::new(mem.clone())),
        ),
        (
            "plutus".into(),
            Box::new(PlutusEngine::new(PlutusConfig::test_small())),
        ),
        (
            "pssm-tenants".into(),
            Box::new(PssmEngine::new(tenant_mem.clone())),
        ),
        (
            "common-counters-tenants".into(),
            Box::new(CommonCountersEngine::new(tenant_mem)),
        ),
        (
            "plutus-tenants".into(),
            Box::new(PlutusEngine::new(tenant_plutus)),
        ),
    ];
    for kind in [
        CompactKind::TwoBit,
        CompactKind::ThreeBit,
        CompactKind::Adaptive3,
    ] {
        let mut cfg = PlutusConfig::compact_only(kind);
        cfg.mem = SecureMemConfig::test_small();
        list.push((
            format!("compact-{}", kind.label()),
            Box::new(PlutusEngine::new(cfg)),
        ));
    }
    let mut no_tree = PlutusConfig::test_small();
    no_tree.mem.disable_tree = true;
    list.push((
        "plutus-no-tree".into(),
        Box::new(PlutusEngine::new(no_tree)),
    ));
    list
}

/// Drives `ops` random write/read operations against one engine and the
/// reference model, and returns a one-line summary of the engine's final
/// `extra_stats` and its summed crash-recovery report.
///
/// Three crash cycles ride on the run. Each starts a key rotation (a
/// no-op without tenancy) *before* its checkpoint, the ordering the
/// rotation walk requires, and crashes `CRASH_AFTER` operations later.
/// Two overflow storms write a pair of sectors in different counter
/// groups in lockstep past the 7-bit minor, so both groups overflow
/// inside one storm window. The first storm falls inside the second crash
/// cycle, so recovery must see across it; the second one's bookkeeping
/// survives to the final stats.
fn fuzz_engine(name: &str, engine: &mut dyn SecurityEngine, seed: u64, ops: usize) -> String {
    const CRASH_AFTER: usize = 12;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mem = BackingMemory::new();
    let mut reference: HashMap<u64, [u8; 32]> = HashMap::new();
    let cycles = [(ops / 3, 1u32), (ops / 2, 2), (3 * ops / 4, 1)];
    let storms = [ops / 2 + 1, 5 * ops / 8];
    let mut checkpoint: Option<Box<dyn SecurityEngine>> = None;
    let mut recovered = RecoveryReport::default();

    // Pre-install an initial image over part of the space.
    for i in 0..64u64 {
        let addr = SectorAddr::new(i * 32);
        let data = [i as u8; 32];
        engine.install(addr, &data, &mut mem);
        reference.insert(addr.raw(), data);
    }

    // Cluster writes on a small set of sectors so compact counters
    // saturate and split-counter groups overflow during the run.
    let hot_sectors = 48u64;
    let cold_sectors = 1024u64;
    for op in 0..ops {
        if let Some(&(_, tenant)) = cycles.iter().find(|&&(at, _)| at == op) {
            engine.start_key_rotation(tenant);
            checkpoint = engine.checkpoint();
            assert!(checkpoint.is_some(), "{name}: checkpoint");
        }
        if cycles.iter().any(|&(at, _)| at + CRASH_AFTER == op) {
            let ck = checkpoint.take().expect("checkpoint precedes crash");
            assert!(engine.crash_revert(ck.as_ref()), "{name}: crash_revert");
            let report = engine
                .recover(&mem, &mem.resident_addrs())
                .unwrap_or_else(|e| panic!("{name}: recover on op {op}: {e:?}"));
            assert!(
                report.failed.is_empty(),
                "{name}: recovery failed on op {op}: {:x?}",
                report.failed
            );
            recovered.merge(&report);
            for (&addr, expected) in &reference {
                let got = engine.peek_plaintext(SectorAddr::new(addr), &mem);
                assert_eq!(
                    got.as_ref(),
                    Some(expected),
                    "{name}: {addr:#x} diverged after recovery on op {op}"
                );
            }
        }
        if storms.contains(&op) {
            let pair = [SectorAddr::new(5 * 32), SectorAddr::new(37 * 32)];
            for i in 0..136u32 {
                for (k, &sector) in pair.iter().enumerate() {
                    let data = [(i as u8).wrapping_mul(3) ^ k as u8; 32];
                    engine.on_writeback(sector, &data, &mut mem);
                    reference.insert(sector.raw(), data);
                }
            }
        }
        let sector = if rng.gen_bool(0.7) {
            SectorAddr::new(rng.gen_range(0..hot_sectors) * 32)
        } else {
            SectorAddr::new(rng.gen_range(0..cold_sectors) * 32)
        };
        if rng.gen_bool(0.5) {
            let mut data = [0u8; 32];
            rng.fill(&mut data[..]);
            // Bias toward repeated values so the value cache sees reuse.
            if rng.gen_bool(0.5) {
                data = [rng.gen_range(0..4u8); 32];
            }
            engine.on_writeback(sector, &data, &mut mem);
            reference.insert(sector.raw(), data);
        } else {
            let fill = engine.on_fill(sector, &mut mem);
            let expected = reference.get(&sector.raw()).copied().unwrap_or([0; 32]);
            assert_eq!(
                fill.plaintext, expected,
                "{name}: wrong plaintext at {sector} on op {op}"
            );
            assert!(
                fill.violation.is_none(),
                "{name}: false violation at {sector} on op {op}: {:?}",
                fill.violation
            );
        }
    }

    // Final sweep: every recorded sector reads back, in address order so
    // the metadata caches (and so the pinned stats) are deterministic.
    let mut sweep: Vec<(u64, [u8; 32])> = reference.into_iter().collect();
    sweep.sort_unstable_by_key(|&(addr, _)| addr);
    for (addr, expected) in sweep {
        let fill = engine.on_fill(SectorAddr::new(addr), &mut mem);
        assert_eq!(
            fill.plaintext, expected,
            "{name}: final sweep mismatch at {addr:#x}"
        );
        assert!(
            fill.violation.is_none(),
            "{name}: false violation in final sweep"
        );
    }

    let mut line = format!(
        "{name}: recovery consistent={} mac={} value={} |",
        recovered.already_consistent, recovered.recovered_by_mac, recovered.recovered_by_value
    );
    for (stat, v) in engine.extra_stats() {
        let _ = write!(line, " {stat}={v}");
    }
    line
}

/// Fuzzes every engine with `seed` and compares the summaries against
/// the pinned `golden` text (one line per engine).
fn fuzz_all_against_golden(seed: u64, ops: usize, golden: &str) {
    let mut got = String::new();
    for (name, mut engine) in engines() {
        got.push_str(&fuzz_engine(&name, engine.as_mut(), seed, ops));
        got.push('\n');
    }
    for (want, have) in golden.lines().zip(got.lines()) {
        assert_eq!(have, want, "engine stats diverged from the golden file");
    }
    assert_eq!(got, golden, "engine stats diverged from the golden file");
}

#[test]
fn all_engines_match_reference_memory() {
    fuzz_all_against_golden(0xfeed, 4_000, include_str!("golden/engine_stats_feed.txt"));
}

#[test]
fn heavy_write_clustering_exercises_overflow_paths() {
    // 4000+ writes over 48 hot sectors ≈ 40+ writes per sector: compact
    // counters saturate (3rd/7th write), and the lockstep storm pushes two
    // counter groups past the 7-bit minor. A second seed shifts the
    // interleaving.
    fuzz_all_against_golden(0xbeef, 6_000, include_str!("golden/engine_stats_beef.txt"));
}

#[test]
fn split_counter_group_overflow_preserves_group_contents() {
    // Direct, deterministic overflow: 130 writes to one sector forces the
    // shared major counter to bump and every group member to re-encrypt.
    for (name, mut engine) in engines() {
        let mut mem = BackingMemory::new();
        let neighbor = SectorAddr::new(3 * 32);
        let victim = SectorAddr::new(0);
        engine.on_writeback(neighbor, &[0xaa; 32], &mut mem);
        for i in 0..130u32 {
            engine.on_writeback(victim, &[(i % 251) as u8; 32], &mut mem);
        }
        let f = engine.on_fill(neighbor, &mut mem);
        assert_eq!(
            f.plaintext, [0xaa; 32],
            "{name}: neighbor corrupted by overflow"
        );
        assert!(
            f.violation.is_none(),
            "{name}: overflow raised a false violation"
        );
        let f = engine.on_fill(victim, &mut mem);
        assert_eq!(f.plaintext, [129u8; 32], "{name}: victim lost last write");
        assert!(f.violation.is_none());
    }
}

/// The engines that batch `install_image`, with their two-tenant variants.
const BATCHED_INSTALL: [&str; 6] = [
    "pssm",
    "common-counters",
    "plutus",
    "pssm-tenants",
    "common-counters-tenants",
    "plutus-tenants",
];

/// An image of `n` distinct sectors in scattered order, crossing both
/// tenants' slabs and the unmapped space past them.
fn scattered_image(n: u64) -> Vec<(SectorAddr, [u8; 32])> {
    (0..n)
        .map(|i| {
            let addr = SectorAddr::new((i * 37 % 8191) * 32);
            (addr, [(i as u8).wrapping_mul(29) ^ (i >> 8) as u8; 32])
        })
        .collect()
}

fn batching_engines() -> impl Iterator<Item = (String, Box<dyn SecurityEngine>)> {
    engines()
        .into_iter()
        .filter(|(name, _)| BATCHED_INSTALL.contains(&name.as_str()))
}

#[test]
fn batched_install_matches_per_sector_install() {
    let mut images: Vec<Vec<(SectorAddr, [u8; 32])>> = [0, 1, 255, 256, 257, 4099]
        .into_iter()
        .map(scattered_image)
        .collect();
    // One repeated address: the later contents must win.
    let mut repeated = scattered_image(300);
    repeated.push((repeated[7].0, [0xee; 32]));
    images.push(repeated);

    for image in &images {
        let expected: HashMap<u64, [u8; 32]> =
            image.iter().map(|&(addr, pt)| (addr.raw(), pt)).collect();
        let mut seen = 0;
        for ((name, mut batched), (_, mut serial)) in batching_engines().zip(batching_engines()) {
            seen += 1;
            let n = image.len();
            let mut batched_mem = BackingMemory::new();
            let mut serial_mem = BackingMemory::new();
            batched.install_image(image, &mut batched_mem);
            for (addr, pt) in image {
                serial.install(*addr, pt, &mut serial_mem);
            }
            let addrs = batched_mem.resident_addrs();
            assert_eq!(addrs, serial_mem.resident_addrs(), "{name}/{n}: residency");
            assert_eq!(addrs.len(), expected.len(), "{name}/{n}: resident count");
            for &addr in &addrs {
                let want = Some(expected[&addr.raw()]);
                assert_eq!(
                    batched_mem.read(addr),
                    serial_mem.read(addr),
                    "{name}/{n}: ciphertext at {addr}"
                );
                assert_eq!(batched.peek_plaintext(addr, &batched_mem), want);
                assert_eq!(serial.peek_plaintext(addr, &serial_mem), want);
            }
            // A rotation walk over tenant 1 during the fills re-encrypts
            // exactly the owned sectors, so the ownership registry shows
            // in `rotated_sectors` (a no-op without tenancy).
            assert_eq!(batched.start_key_rotation(1), serial.start_key_rotation(1));
            for &addr in &addrs {
                for (engine, mem) in [
                    (&mut batched, &mut batched_mem),
                    (&mut serial, &mut serial_mem),
                ] {
                    let fill = engine.on_fill(addr, mem);
                    assert_eq!(fill.plaintext, expected[&addr.raw()], "{name}/{n}: {addr}");
                    assert!(fill.violation.is_none(), "{name}/{n}: violation at {addr}");
                }
            }
            assert_eq!(batched.extra_stats(), serial.extra_stats(), "{name}/{n}");
        }
        assert_eq!(seen, BATCHED_INSTALL.len());
    }
}
