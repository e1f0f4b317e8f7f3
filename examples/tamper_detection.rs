//! Physical-attack demonstration: tamper with and replay simulated DRAM
//! contents and watch the Plutus engine detect every manipulation — while
//! honest traffic sails through on value verification without MAC fetches.
//!
//! ```text
//! cargo run --release -p plutus-bench --example tamper_detection
//! ```

use gpu_sim::{BackingMemory, SectorAddr, SecurityEngine};
use plutus_core::{PlutusConfig, PlutusEngine};

fn main() {
    let mut engine = PlutusEngine::new(PlutusConfig::test_small());
    let mut mem = BackingMemory::new();

    // The victim writes sensitive data.
    let secret = *b"model weights: proprietary data!";
    let addr = SectorAddr::new(0x4000);
    engine.on_writeback(addr, &secret, &mut mem);
    println!("victim wrote a sector at {addr}");

    // 1. Confidentiality: DRAM holds only ciphertext.
    let raw = mem.read(addr).expect("sector resident");
    assert_ne!(raw, secret);
    println!("DRAM contents (encrypted): {:02x?}...", &raw[..8]);

    // 2. Honest read: decrypts and verifies.
    let fill = engine.on_fill(addr, &mut mem);
    assert_eq!(fill.plaintext, secret);
    assert!(fill.violation.is_none());
    println!("honest read: verified, plaintext recovered");

    // 3. Tampering: flip one ciphertext bit.
    let mut mask = [0u8; 32];
    mask[5] = 0x10;
    mem.corrupt(addr, &mask);
    let fill = engine.on_fill(addr, &mut mem);
    println!(
        "bit-flip attack:  {}",
        fill.violation
            .map(|v| v.to_string())
            .unwrap_or_else(|| "UNDETECTED!".into())
    );
    assert!(fill.violation.is_some(), "tampering must be detected");
    // Undo the flip.
    mem.corrupt(addr, &mask);

    // 4. Replay: capture the current ciphertext, let the victim overwrite,
    //    then restore the stale bytes.
    let stale = mem.snapshot(addr).unwrap();
    engine.on_writeback(addr, b"model weights: revision 2 data!!", &mut mem);
    assert!(mem.replay(addr, stale));
    let fill = engine.on_fill(addr, &mut mem);
    println!(
        "replay attack:    {}",
        fill.violation
            .map(|v| v.to_string())
            .unwrap_or_else(|| "UNDETECTED!".into())
    );
    assert!(fill.violation.is_some(), "replay must be detected");

    // 5. Counter rollback: tamper with the stored write counter. The
    //    target must be written past compact-counter saturation first —
    //    until then the split counter is dead state (the compact layer
    //    serves the live counter) and rolling it back changes nothing.
    let target = SectorAddr::new(0x8000);
    for i in 1..=9u8 {
        engine.on_writeback(target, &[i; 32], &mut mem);
    }
    // Evict the counter so the next access re-verifies it against the BMT.
    for i in 1..64 {
        engine.on_fill(SectorAddr::new(0x8000 + i * 128 * 32), &mut mem);
    }
    engine.region_mut().counters.tamper_minor(target, 1);
    let fill = engine.on_fill(target, &mut mem);
    println!(
        "counter rollback: {}",
        fill.violation
            .map(|v| v.to_string())
            .unwrap_or_else(|| "UNDETECTED!".into())
    );
    assert!(
        fill.violation.is_some(),
        "counter rollback must be detected"
    );

    println!("\nall three attack classes detected; honest traffic unaffected");
}
