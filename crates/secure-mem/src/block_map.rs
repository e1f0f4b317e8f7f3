//! Per-sector state kept one hash record per 128 B block.
//!
//! `partition_of` assigns whole 128 B blocks to memory partitions, so the
//! four sectors of a block always belong to the same engine and a record
//! holding all four is fully live in the engine that owns it. A unit
//! larger than a block (a counter group, a compact-counter block) is a
//! run of consecutive records. The counter, MAC and compact-counter
//! stores keep their per-sector state in a [`BlockMap`].

use gpu_sim::{FastHashMap, SectorAddr, SECTORS_PER_BLOCK};

/// One `T` per sector, stored as one record of [`SECTORS_PER_BLOCK`]
/// slots per 128 B block. A block without a record reads as
/// default-valued slots.
#[derive(Debug, Clone)]
pub struct BlockMap<T> {
    records: FastHashMap<u64, [T; SECTORS_PER_BLOCK]>,
}

impl<T> Default for BlockMap<T> {
    fn default() -> Self {
        Self {
            records: FastHashMap::default(),
        }
    }
}

impl<T: Copy + Default> BlockMap<T> {
    /// The value in `sector`'s slot.
    pub fn get(&self, sector: SectorAddr) -> T {
        self.records
            .get(&sector.block().index())
            .map_or_else(T::default, |r| r[sector.sector_in_block()])
    }

    /// `sector`'s slot, creating its block's record if there is none.
    pub fn slot_mut(&mut self, sector: SectorAddr) -> &mut T {
        &mut self.records.entry(sector.block().index()).or_default()[sector.sector_in_block()]
    }

    /// The slots of 128 B block number `block`, in sector order.
    pub fn record(&self, block: u64) -> [T; SECTORS_PER_BLOCK] {
        self.records.get(&block).copied().unwrap_or_default()
    }

    /// Resets every slot of block number `block` to the default value.
    pub fn reset(&mut self, block: u64) {
        if let Some(r) = self.records.get_mut(&block) {
            *r = [T::default(); SECTORS_PER_BLOCK];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sector(i: u64) -> SectorAddr {
        SectorAddr::new(i * 32)
    }

    #[test]
    fn slots_follow_sector_order_within_a_block() {
        let mut m = BlockMap::<u8>::default();
        assert_eq!(m.get(sector(6)), 0);
        *m.slot_mut(sector(6)) = 9;
        *m.slot_mut(sector(4)) = 3;
        assert_eq!(m.get(sector(6)), 9);
        assert_eq!(m.get(sector(5)), 0);
        assert_eq!(m.record(1), [3, 0, 9, 0]);
        assert_eq!(m.record(0), [0; SECTORS_PER_BLOCK]);
    }

    #[test]
    fn reset_clears_only_its_block() {
        let mut m = BlockMap::<u64>::default();
        *m.slot_mut(sector(1)) = 7;
        *m.slot_mut(sector(5)) = 8;
        m.reset(0);
        m.reset(9); // no record: nothing to do
        assert_eq!(m.get(sector(1)), 0);
        assert_eq!(m.get(sector(5)), 8);
    }
}
