//! Adversarial integration tests: every engine must detect data
//! tampering, data replay, MAC tampering, and counter rollback — and the
//! probability machinery behind Plutus's value-based verification must
//! reject random (tamper-diffused) data in practice.

use gpu_sim::{
    BackingMemory, DetectionLayer, EngineFactory, FaultKind, FaultOutcome, FaultSchedule,
    FaultTrigger, GpuConfig, MetaFault, ScheduledFault, SectorAddr, SecurityEngine, Simulator,
    Trace,
};
use plutus_core::{PlutusConfig, PlutusEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_mem::{CommonCountersEngine, PssmEngine, SecureMemConfig};

fn victims() -> Vec<(&'static str, Box<dyn SecurityEngine>)> {
    vec![
        (
            "pssm",
            Box::new(PssmEngine::new(SecureMemConfig::test_small())),
        ),
        (
            "common-counters",
            Box::new(CommonCountersEngine::new(SecureMemConfig::test_small())),
        ),
        (
            "plutus",
            Box::new(PlutusEngine::new(PlutusConfig::test_small())),
        ),
    ]
}

#[test]
fn single_bit_flips_are_detected_at_any_position() {
    for (name, mut engine) in victims() {
        let mut mem = BackingMemory::new();
        let addr = SectorAddr::new(0x400);
        engine.on_writeback(addr, b"sensitive cloud workload output!", &mut mem);
        for byte in [0usize, 7, 15, 16, 31] {
            for bit in [0u8, 3, 7] {
                let mut mask = [0u8; 32];
                mask[byte] = 1 << bit;
                assert!(mem.corrupt(addr, &mask));
                let fill = engine.on_fill(addr, &mut mem);
                assert!(
                    fill.violation.is_some(),
                    "{name}: flip at byte {byte} bit {bit} undetected"
                );
                mem.corrupt(addr, &mask); // restore
            }
        }
    }
}

#[test]
fn multi_sector_garbage_rewrites_are_detected() {
    for (name, mut engine) in victims() {
        let mut mem = BackingMemory::new();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..16u64 {
            engine.on_writeback(SectorAddr::new(i * 32), &[i as u8; 32], &mut mem);
        }
        for i in 0..16u64 {
            let addr = SectorAddr::new(i * 32);
            let mut garbage = [0u8; 32];
            rng.fill(&mut garbage[..]);
            mem.write(addr, garbage);
            let fill = engine.on_fill(addr, &mut mem);
            assert!(
                fill.violation.is_some(),
                "{name}: garbage rewrite at {addr} undetected"
            );
        }
    }
}

#[test]
fn replay_of_stale_ciphertext_is_detected() {
    for (name, mut engine) in victims() {
        let mut mem = BackingMemory::new();
        let addr = SectorAddr::new(0x800);
        engine.on_writeback(addr, &[1; 32], &mut mem);
        let stale = mem.snapshot(addr).unwrap();
        engine.on_writeback(addr, &[2; 32], &mut mem);
        assert!(
            mem.replay(addr, stale),
            "{name}: replay target not resident"
        );
        let fill = engine.on_fill(addr, &mut mem);
        assert!(fill.violation.is_some(), "{name}: replay undetected");
    }
}

#[test]
fn cross_address_splicing_is_detected() {
    // Move valid ciphertext from one address to another (spoof/splice).
    for (name, mut engine) in victims() {
        let mut mem = BackingMemory::new();
        let a = SectorAddr::new(0x1000);
        let b = SectorAddr::new(0x2000);
        engine.on_writeback(a, &[0x11; 32], &mut mem);
        engine.on_writeback(b, &[0x22; 32], &mut mem);
        let stolen = mem.snapshot(a).unwrap();
        mem.write(b, stolen);
        let fill = engine.on_fill(b, &mut mem);
        assert!(fill.violation.is_some(), "{name}: splice undetected");
    }
}

#[test]
fn mac_store_tampering_is_detected() {
    let mut engine = PssmEngine::new(SecureMemConfig::test_small());
    let mut mem = BackingMemory::new();
    let addr = SectorAddr::new(0);
    engine.on_writeback(addr, &[5; 32], &mut mem);
    engine.region_mut().macs.tamper(addr);
    let fill = engine.on_fill(addr, &mut mem);
    assert!(fill.violation.is_some(), "MAC tamper undetected");
}

#[test]
fn counter_rollback_is_detected_after_eviction() {
    let mut engine = PlutusEngine::new(PlutusConfig::test_small());
    let mut mem = BackingMemory::new();
    let addr = SectorAddr::new(0);
    // Drive past compact saturation so the original counter is live.
    for i in 0..9u8 {
        engine.on_writeback(addr, &[i; 32], &mut mem);
    }
    // Evict the counter sector.
    for i in 1..80u64 {
        engine.on_fill(SectorAddr::new(i * 128 * 32), &mut mem);
    }
    engine.region_mut().counters.tamper_minor(addr, 0);
    let fill = engine.on_fill(addr, &mut mem);
    assert!(fill.violation.is_some(), "counter rollback undetected");
}

#[test]
fn compact_counter_tampering_is_detected() {
    let mut engine = PlutusEngine::new(PlutusConfig::test_small());
    let mut mem = BackingMemory::new();
    let addr = SectorAddr::new(0);
    engine.on_writeback(addr, &[1; 32], &mut mem);
    engine.on_writeback(addr, &[2; 32], &mut mem);
    // Evict the compact block by touching many distinct blocks.
    for i in 1..200u64 {
        engine.on_fill(SectorAddr::new(i * 64 * 32), &mut mem);
    }
    engine.compact_mut().unwrap().tamper(addr, 0);
    let fill = engine.on_fill(addr, &mut mem);
    assert!(
        fill.violation.is_some(),
        "compact counter rollback undetected"
    );
}

#[test]
fn tampered_data_never_passes_value_verification() {
    // The statistical heart of the paper: decrypting tampered AES-XTS
    // ciphertext yields uniform noise, which must not clear the 3-of-4
    // value-cache rule. 5000 tamper trials, zero tolerated acceptances
    // (expected rate < 2^-56 per unit).
    let mut engine = PlutusEngine::new(PlutusConfig::test_small());
    let mut mem = BackingMemory::new();
    let mut rng = StdRng::seed_from_u64(7);
    // Warm the value cache with honest, highly regular data.
    for i in 0..256u64 {
        let addr = SectorAddr::new(i * 32);
        engine.on_writeback(addr, &[(i % 7) as u8; 32], &mut mem);
        engine.on_fill(addr, &mut mem);
    }
    let mut undetected = 0;
    for trial in 0..5000u64 {
        let addr = SectorAddr::new((trial % 256) * 32);
        let mut mask = [0u8; 32];
        rng.fill(&mut mask[..]);
        mem.corrupt(addr, &mask);
        let fill = engine.on_fill(addr, &mut mem);
        if fill.violation.is_none() {
            undetected += 1;
        }
        mem.corrupt(addr, &mask); // restore
    }
    assert_eq!(
        undetected, 0,
        "{undetected}/5000 tampered sectors passed verification"
    );
}

// ---------------------------------------------------------------------------
// Mid-run faults: the attacks above poke engines directly between calls;
// these drive the full simulator and let a `FaultSchedule` strike while the
// workload is executing, then read the adjudicated `FaultRecord`s back out
// of `SimStats`.
// ---------------------------------------------------------------------------

fn sim_factories() -> Vec<(&'static str, Box<dyn EngineFactory>)> {
    vec![
        (
            "pssm",
            Box::new(PssmEngine::factory(SecureMemConfig::test_small())),
        ),
        (
            "common-counters",
            Box::new(CommonCountersEngine::factory(SecureMemConfig::test_small())),
        ),
        (
            "plutus",
            Box::new(PlutusEngine::factory(PlutusConfig::test_small())),
        ),
    ]
}

/// Single-partition, single-warp config so trace order is arrival order and
/// one engine sees every access.
fn serial_cfg() -> GpuConfig {
    GpuConfig {
        partitions: 1,
        warps: 1,
        ..GpuConfig::test_small()
    }
}

/// A trace that writes `victim` `writes` times, then streams enough
/// conflicting filler *writes* to force the victim's data line — and, via
/// the fillers' own writebacks, its counter metadata — out of every cache,
/// then reads the victim back. Fillers share the victim's L2 set (stride
/// 4 KiB from sector 0) so eviction is certain, and being writes they
/// dirty their regions, generating counter traffic under every scheme.
fn evict_then_read_trace(victim: SectorAddr, writes: u8) -> Trace {
    let mut t = Trace::new("midrun-fault");
    for i in 0..writes {
        t.push_write(victim, [i + 1; 32], 0, 1);
    }
    // Stay below test_small's 1 MiB protected range: 250 × 4 KiB < 2^20.
    for i in 1..=250u64 {
        t.push_write(SectorAddr::new(i * 4096), [i as u8; 32], 0, 1);
    }
    t.push_read(victim, 0, 1);
    t
}

fn one_fault(trigger: FaultTrigger, addr: SectorAddr, fault: MetaFault) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    s.push(ScheduledFault {
        trigger,
        addr,
        kind: FaultKind::Metadata(fault),
    });
    s
}

fn run_with_fault(
    factory: &dyn EngineFactory,
    trace: Trace,
    schedule: FaultSchedule,
) -> Vec<gpu_sim::FaultRecord> {
    let mut sim = Simulator::new(serial_cfg(), trace, factory);
    sim.set_fault_schedule(schedule);
    sim.run().stats.fault_records
}

#[test]
fn midrun_compact_rollback_is_adjudicated_per_engine() {
    // Strike just before the final read: roll the victim's compact counter
    // back to zero after two honest writes. Plutus (the only engine with a
    // compact layer) must detect the stale counter on the read-back fill;
    // the others must report the fault as not-applied, never as an escape.
    let victim = SectorAddr::new(0);
    for (name, factory) in sim_factories() {
        let trace = evict_then_read_trace(victim, 2);
        let last = trace.accesses.len() as u64;
        let schedule = one_fault(
            FaultTrigger::AtAccess(last),
            victim,
            MetaFault::RollbackCompact { value: 0 },
        );
        let records = run_with_fault(factory.as_ref(), trace, schedule);
        assert_eq!(records.len(), 1, "{name}: expected one fault record");
        match (name, records[0].outcome) {
            ("plutus", FaultOutcome::Detected { .. }) => {}
            ("plutus", outcome) => panic!("plutus: compact rollback not detected: {outcome:?}"),
            (_, FaultOutcome::NotApplied) => {}
            (_, outcome) => panic!("{name}: keeps no compact counters, got {outcome:?}"),
        }
    }
}

#[test]
fn midrun_bmt_node_tamper_is_adjudicated_per_engine() {
    // Strike just before the final read: tamper the BMT node covering the
    // victim's split counter. PSSM and common-counters (victim region is
    // dirty) must catch it at the counter re-fetch; Plutus's victim is
    // still compact-served (a writeback-coalesced pair of writes never
    // saturates the 3-bit counter), so its main BMT is dead state for this
    // sector and the fault must be reported as not-applied — never as an
    // escape.
    let victim = SectorAddr::new(0);
    for (name, factory) in sim_factories() {
        let trace = evict_then_read_trace(victim, 2);
        let last = trace.accesses.len() as u64;
        let schedule = one_fault(
            FaultTrigger::AtAccess(last),
            victim,
            MetaFault::TamperBmtNode,
        );
        let records = run_with_fault(factory.as_ref(), trace, schedule);
        assert_eq!(records.len(), 1, "{name}: expected one fault record");
        match (name, records[0].outcome) {
            ("plutus", FaultOutcome::NotApplied) => {}
            ("plutus", outcome) => {
                panic!("plutus: main BMT is dead while compact-served, got {outcome:?}")
            }
            (_, FaultOutcome::Detected { layer, latency }) => {
                assert!(
                    matches!(layer, DetectionLayer::Bmt { .. }),
                    "{name}: wrong detecting layer {layer:?}"
                );
                assert!(latency > 0, "{name}: detection latency must be positive");
            }
            (_, outcome) => panic!("{name}: BMT tamper not detected: {outcome:?}"),
        }
    }
}

#[test]
fn saturated_plutus_detects_injected_bmt_tamper() {
    // Once the compact counter saturates, the original counter (and the
    // main BMT over it) become live again — the same injected fault that
    // is a no-op pre-saturation must now land and be caught on re-fetch.
    let mut engine = PlutusEngine::new(PlutusConfig::test_small());
    let mut mem = BackingMemory::new();
    let addr = SectorAddr::new(0);
    engine.on_writeback(addr, &[1; 32], &mut mem);
    assert!(
        !engine.inject_fault(addr, MetaFault::TamperBmtNode),
        "BMT fault must not apply while the compact layer serves the counter"
    );
    // Drive past compact saturation, then evict the victim's counter
    // sector. Unsaturated sectors never touch the original counter cache
    // under Plutus, so the evicting fillers must be saturated too.
    for i in 1..9u8 {
        engine.on_writeback(addr, &[i; 32], &mut mem);
    }
    for i in 1..40u64 {
        let filler = SectorAddr::new(i * 128 * 32);
        for w in 0..9u8 {
            engine.on_writeback(filler, &[w; 32], &mut mem);
        }
    }
    assert!(engine.inject_fault(addr, MetaFault::TamperBmtNode));
    let fill = engine.on_fill(addr, &mut mem);
    assert!(
        matches!(fill.violation, Some(v) if matches!(v.layer(), DetectionLayer::Bmt { .. })),
        "saturated BMT tamper undetected or wrong layer: {:?}",
        fill.violation
    );
}

#[test]
fn cycle_scheduled_counter_rollback_respects_liveness() {
    // An AtCycle(1) strike lands before the first access: roll back the
    // split counter of a read-only (never-written) sector. PSSM always
    // consults its per-sector counters, so the BMT leaf check at counter
    // fetch catches the rollback; common-counters knows the region is
    // clean (counter is zero by construction) and Plutus serves the live
    // counter from the compact layer, so for both the stored split counter
    // is dead state and the fault must be reported as not-applied.
    let victim = SectorAddr::new(0x40);
    for (name, factory) in sim_factories() {
        let mut trace = Trace::new("cycle-fault");
        trace.set_initial(victim, *b"read-only victim sector contents");
        for i in 1..=8u64 {
            let filler = SectorAddr::new(0x1_0000 + i * 32);
            trace.set_initial(filler, [i as u8; 32]);
            trace.push_read(filler, 0, 1);
        }
        trace.push_read(victim, 0, 1);
        let schedule = one_fault(
            FaultTrigger::AtCycle(1),
            victim,
            MetaFault::RollbackCounter { value: 3 },
        );
        let records = run_with_fault(factory.as_ref(), trace, schedule);
        assert_eq!(records.len(), 1, "{name}: expected one fault record");
        match (name, records[0].outcome) {
            ("pssm", FaultOutcome::Detected { layer, .. }) => {
                assert!(
                    matches!(layer, DetectionLayer::Bmt { .. }),
                    "pssm detects counter rollback through the BMT, got {layer:?}"
                );
            }
            ("pssm", outcome) => panic!("pssm: rollback not detected: {outcome:?}"),
            (_, FaultOutcome::NotApplied) => {}
            (_, outcome) => panic!("{name}: dead split counter, got {outcome:?}"),
        }
    }
}

#[test]
fn honest_execution_raises_no_violations() {
    for (name, mut engine) in victims() {
        let mut mem = BackingMemory::new();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..3000 {
            let addr = SectorAddr::new(rng.gen_range(0..512u64) * 32);
            if rng.gen_bool(0.4) {
                engine.on_writeback(addr, &[rng.gen::<u8>(); 32], &mut mem);
            } else {
                let fill = engine.on_fill(addr, &mut mem);
                assert!(fill.violation.is_none(), "{name}: false positive at {addr}");
            }
        }
    }
}
