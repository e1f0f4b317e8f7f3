//! Functional backing store for simulated device memory.
//!
//! The store holds whatever bytes the active security engine writes —
//! ciphertext for encrypting engines, plaintext for the no-security
//! baseline. Sectors never written read back as `None`; engines interpret
//! that as an all-zero plaintext sector with a zero write counter, matching
//! zero-initialized device memory.
//!
//! Storage is paged: 128 KiB pages of 4096 sectors, each with a residency
//! bitmap, in a hashed map keyed by page number. Every partition's engine
//! writes into this one store, and a trace's image is dense over its
//! footprint, so nearly every slot of a page is live.
//!
//! The store doubles as the *attack surface*: [`BackingMemory::corrupt`]
//! and [`BackingMemory::replay`] model the physical attacker of the paper's
//! threat model, and integration tests drive detection through them.

use crate::address::{SectorAddr, SECTOR_SIZE};
use crate::hash::FastHashMap;

/// Sectors per page: 4096 × 32 B = 128 KiB of data.
const PAGE_SECTORS: usize = 4096;
/// `log2(PAGE_SECTORS)`: a sector index's page number is `index >> PAGE_SHIFT`.
const PAGE_SHIFT: u32 = PAGE_SECTORS.trailing_zeros();

type Sector = [u8; SECTOR_SIZE as usize];

/// One page of sectors with its residency bitmap.
#[derive(Debug, Clone)]
struct Page {
    /// Bit `i % 64` of word `i / 64` is set once sector `i` was written.
    resident: [u64; PAGE_SECTORS / 64],
    /// Allocated zeroed on the heap; only resident slots are meaningful.
    sectors: Box<[Sector]>,
}

impl Page {
    fn new() -> Self {
        Self {
            resident: [0; PAGE_SECTORS / 64],
            sectors: vec![[0; SECTOR_SIZE as usize]; PAGE_SECTORS].into_boxed_slice(),
        }
    }

    fn is_resident(&self, slot: usize) -> bool {
        self.resident[slot / 64] & (1 << (slot % 64)) != 0
    }
}

/// Functional memory, sector granularity, stored as 128 KiB pages.
///
/// Simulated images are dense over their footprint, so a page holds
/// thousands of live sectors and costs one map lookup per access; the
/// map of pages stays sparse, so far-apart addresses cost one page each.
#[derive(Debug, Default, Clone)]
pub struct BackingMemory {
    pages: FastHashMap<u64, Page>,
}

/// `(page number, slot in page)` of `addr`.
fn locate(addr: SectorAddr) -> (u64, usize) {
    let index = addr.index();
    (index >> PAGE_SHIFT, (index as usize) & (PAGE_SECTORS - 1))
}

impl BackingMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// The resident sector at `addr`, if any.
    fn resident_mut(&mut self, addr: SectorAddr) -> Option<&mut Sector> {
        let (page, slot) = locate(addr);
        let page = self.pages.get_mut(&page)?;
        page.is_resident(slot).then(|| &mut page.sectors[slot])
    }

    /// Reads a sector, or `None` if it was never written.
    pub fn read(&self, addr: SectorAddr) -> Option<[u8; 32]> {
        let (page, slot) = locate(addr);
        let page = self.pages.get(&page)?;
        page.is_resident(slot).then(|| page.sectors[slot])
    }

    /// Writes a sector.
    pub fn write(&mut self, addr: SectorAddr, data: [u8; 32]) {
        let (page, slot) = locate(addr);
        let page = self.pages.entry(page).or_insert_with(Page::new);
        page.resident[slot / 64] |= 1 << (slot % 64);
        page.sectors[slot] = data;
    }

    /// Number of distinct sectors ever written.
    pub fn resident_sectors(&self) -> usize {
        self.pages
            .values()
            .flat_map(|page| page.resident)
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// Addresses of every resident sector, ascending. Crash recovery
    /// walks this to rebuild metadata for exactly the data that reached
    /// DRAM.
    pub fn resident_addrs(&self) -> Vec<SectorAddr> {
        let mut pages: Vec<(&u64, &Page)> = self.pages.iter().collect();
        pages.sort_unstable_by_key(|&(&n, _)| n);
        let mut addrs = Vec::with_capacity(self.resident_sectors());
        for (&n, page) in pages {
            let first = n << PAGE_SHIFT;
            for (w, &word) in page.resident.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let slot = (w * 64) as u64 + u64::from(bits.trailing_zeros());
                    addrs.push(SectorAddr::new((first + slot) * SECTOR_SIZE));
                    bits &= bits - 1;
                }
            }
        }
        addrs
    }

    /// Physical attack: XORs `mask` into the stored bytes of `addr`.
    ///
    /// Returns `false` (and does nothing) if the sector is not resident —
    /// an attacker can only flip bits in bytes that exist.
    pub fn corrupt(&mut self, addr: SectorAddr, mask: &[u8; 32]) -> bool {
        match self.resident_mut(addr) {
            Some(data) => {
                for (b, m) in data.iter_mut().zip(mask.iter()) {
                    *b ^= m;
                }
                true
            }
            None => false,
        }
    }

    /// Physical attack: captures the current bytes of `addr` for later
    /// replay. Returns `None` if not resident.
    pub fn snapshot(&self, addr: SectorAddr) -> Option<[u8; 32]> {
        self.read(addr)
    }

    /// Physical attack: restores previously captured bytes (a replay).
    ///
    /// Returns `false` (and does nothing) if the sector is not resident —
    /// like [`BackingMemory::corrupt`], a physical attacker can overwrite
    /// bytes that exist but cannot materialize sectors the program never
    /// wrote.
    pub fn replay(&mut self, addr: SectorAddr, old: [u8; 32]) -> bool {
        match self.resident_mut(addr) {
            Some(data) => {
                *data = old;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_what_was_written() {
        let mut m = BackingMemory::new();
        let a = SectorAddr::new(0x40);
        assert_eq!(m.read(a), None);
        m.write(a, [9; 32]);
        assert_eq!(m.read(a), Some([9; 32]));
        assert_eq!(m.resident_sectors(), 1);
    }

    #[test]
    fn corrupt_flips_exactly_masked_bits() {
        let mut m = BackingMemory::new();
        let a = SectorAddr::new(0x40);
        m.write(a, [0xff; 32]);
        let mut mask = [0u8; 32];
        mask[5] = 0x0f;
        assert!(m.corrupt(a, &mask));
        let got = m.read(a).unwrap();
        assert_eq!(got[5], 0xf0);
        assert_eq!(got[4], 0xff);
    }

    #[test]
    fn resident_addrs_are_sorted() {
        let mut m = BackingMemory::new();
        m.write(SectorAddr::new(0xc0), [1; 32]);
        m.write(SectorAddr::new(0x40), [2; 32]);
        m.write(SectorAddr::new(0x80), [3; 32]);
        let addrs: Vec<u64> = m.resident_addrs().iter().map(|a| a.raw()).collect();
        assert_eq!(addrs, vec![0x40, 0x80, 0xc0]);
    }

    #[test]
    fn corrupt_missing_sector_is_noop() {
        let mut m = BackingMemory::new();
        assert!(!m.corrupt(SectorAddr::new(0), &[1; 32]));
    }

    #[test]
    fn snapshot_replay_roundtrip() {
        let mut m = BackingMemory::new();
        let a = SectorAddr::new(0x80);
        m.write(a, [1; 32]);
        let old = m.snapshot(a).unwrap();
        m.write(a, [2; 32]);
        assert!(m.replay(a, old));
        assert_eq!(m.read(a), Some([1; 32]));
    }

    #[test]
    fn replay_missing_sector_is_rejected() {
        // Regression: replay used to call `write` unconditionally, letting
        // an "attacker" materialize sectors the program never wrote.
        let mut m = BackingMemory::new();
        assert!(!m.replay(SectorAddr::new(0x100), [7; 32]));
        assert_eq!(m.read(SectorAddr::new(0x100)), None);
        assert_eq!(m.resident_sectors(), 0);
    }
}
