//! Functional (data-value) memory model.
//!
//! [`BankedMemory`] stores bytes keyed by *device* address, so data written
//! through one PA-to-DA mapping and read through another behaves exactly
//! like real DRAM cells: same cells, different views. This is what lets the
//! integration tests demonstrate FACIL's core claim — the SoC reads the same
//! weights the PIM computes on, without re-layout — at the level of actual
//! data values.
//!
//! Cells are kept the way the device is physically organized: one row image
//! per touched DRAM row, per bank. The all-bank PIM replay (`facil-fidelity`)
//! reads whole rows bank by bank, so this layout keeps the functional path
//! honest about *which bank's cells* every MAC beat touches.

use std::collections::HashMap;

use crate::addr::{DramAddress, Topology};
use crate::mapper::{AddressMapper, MapFault};

/// Byte-accurate DRAM contents, sliced per bank and per row (unwritten cells
/// read as zero).
#[derive(Debug, Clone)]
pub struct BankedMemory {
    topo: Topology,
    /// Indexed by flat bank; each bank maps a row index to its row image.
    banks: Vec<HashMap<u64, Vec<u8>>>,
}

impl BankedMemory {
    /// Create an empty banked memory with the given geometry.
    pub fn new(topo: Topology) -> Self {
        let banks = vec![HashMap::new(); topo.total_banks() as usize];
        BankedMemory { topo, banks }
    }

    /// Flat bank index of `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range: a bank or rank past the topology's
    /// would otherwise alias another bank's cells.
    fn flat_bank(&self, addr: DramAddress) -> usize {
        assert!(addr.is_valid(&self.topo), "DRAM address {addr} out of range for {:?}", self.topo);
        addr.flat_bank(&self.topo) as usize
    }

    /// Byte offset of `addr`'s transfer within its row image.
    fn offset(&self, addr: DramAddress) -> usize {
        (addr.column * self.topo.transfer_bytes) as usize
    }

    /// The whole row image of `addr`'s bank and row (its column is
    /// ignored), if that row was ever written: `row_bytes` long, transfer
    /// `c` at bytes `c * transfer_bytes ..`. The all-bank replay borrows one
    /// per bank at `ACT-AB` and reads every MAC beat's transfer from it.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range for the topology.
    pub fn row(&self, addr: DramAddress) -> Option<&[u8]> {
        self.banks[self.flat_bank(addr)].get(&addr.row).map(Vec::as_slice)
    }

    /// The row image holding `addr`, allocated (zeroed) on first write.
    fn row_mut(&mut self, addr: DramAddress) -> &mut [u8] {
        let row_bytes = self.topo.row_bytes as usize;
        let flat = self.flat_bank(addr);
        self.banks[flat].entry(addr.row).or_insert_with(|| vec![0u8; row_bytes])
    }

    /// Read one whole transfer at a device address (the PIM paths address
    /// cells directly). Cells never written read as zero.
    pub fn load_transfer(&self, addr: DramAddress) -> Vec<u8> {
        let tx = self.topo.transfer_bytes as usize;
        let off = self.offset(addr);
        match self.row(addr) {
            Some(row) => row[off..off + tx].to_vec(),
            None => vec![0u8; tx],
        }
    }

    /// One mapped run of a byte copy: the device address of `pa`, the
    /// byte offset of `pa` in that row image, and how many of the next
    /// `left` bytes sit contiguously from there (the mapper's
    /// [`AddressMapper::map_run`], cut at `left`).
    ///
    /// # Panics
    ///
    /// Panics if the mapper reports an empty run or one that leaves the row.
    fn run<M: AddressMapper>(
        &self,
        mapper: &M,
        pa: u64,
        left: usize,
    ) -> Result<(DramAddress, usize, usize), MapFault> {
        let tx = self.topo.transfer_bytes;
        let (addr, transfers) = mapper.map_run(pa)?;
        assert!(transfers >= 1, "a mapped run holds at least its own transfer");
        let off = self.offset(addr) + (pa % tx) as usize;
        let len = ((transfers * tx - pa % tx) as usize).min(left);
        assert!(
            off + len <= self.topo.row_bytes as usize,
            "mapped run of {transfers} transfers at {addr} leaves its row"
        );
        Ok((addr, off, len))
    }

    /// Write `data` starting at physical byte address `pa` through `mapper`,
    /// one row-image copy per mapped run ([`AddressMapper::map_run`]; one
    /// transfer for a mapper that promises no more). Partial transfers keep
    /// the rest of the stored transfer.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MapFault`] the mapper raises; bytes before the
    /// faulting run are already written.
    pub fn write_bytes<M: AddressMapper>(
        &mut self,
        mapper: &M,
        pa: u64,
        data: &[u8],
    ) -> Result<(), MapFault> {
        let mut cur = pa;
        let mut remaining = data;
        while !remaining.is_empty() {
            let (addr, off, len) = self.run(mapper, cur, remaining.len())?;
            self.row_mut(addr)[off..off + len].copy_from_slice(&remaining[..len]);
            remaining = &remaining[len..];
            cur += len as u64;
        }
        Ok(())
    }

    /// Read `len` bytes starting at physical byte address `pa` through
    /// `mapper`, one row-image copy per mapped run. Unwritten cells read as
    /// zero.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MapFault`] the mapper raises.
    pub fn read_bytes<M: AddressMapper>(
        &self,
        mapper: &M,
        pa: u64,
        len: usize,
    ) -> Result<Vec<u8>, MapFault> {
        let mut out = Vec::with_capacity(len);
        let mut cur = pa;
        while out.len() < len {
            let (addr, off, n) = self.run(mapper, cur, len - out.len())?;
            match self.row(addr) {
                Some(row) => out.extend_from_slice(&row[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
            cur += n as u64;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::FnMapper;

    fn topo() -> Topology {
        Topology::new(2, 1, 2, 2, 64, 256, 32)
    }

    fn identity_mapper(t: Topology) -> impl AddressMapper {
        FnMapper(move |pa: u64| {
            let mut x = pa >> t.tx_bits();
            let mut take = |bits: u32| {
                let v = x & ((1 << bits) - 1);
                x >>= bits;
                v
            };
            DramAddress {
                column: take(t.column_bits()),
                bank: take(t.bank_bits()),
                channel: take(t.channel_bits()),
                rank: take(t.rank_bits()),
                row: take(t.row_bits()),
            }
        })
    }

    /// A different (bank-swizzled) mapper over the same cells.
    fn swizzled_mapper(t: Topology) -> impl AddressMapper {
        FnMapper(move |pa: u64| {
            let mut x = pa >> t.tx_bits();
            let mut take = |bits: u32| {
                let v = x & ((1 << bits) - 1);
                x >>= bits;
                v
            };
            // Bank bits first instead of column bits.
            DramAddress {
                bank: take(t.bank_bits()),
                column: take(t.column_bits()),
                channel: take(t.channel_bits()),
                rank: take(t.rank_bits()),
                row: take(t.row_bits()),
            }
        })
    }

    #[test]
    fn roundtrip_same_mapper() {
        let t = topo();
        let m = identity_mapper(t);
        let mut mem = BankedMemory::new(t);
        let data: Vec<u8> = (0..=255).collect();
        mem.write_bytes(&m, 100, &data).unwrap(); // unaligned start
        assert_eq!(mem.read_bytes(&m, 100, 256).unwrap(), data);
        assert_eq!(mem.read_bytes(&m, 0, 4).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn different_mappers_see_same_cells_differently() {
        // Small topology so the test can cover the whole address space:
        // both mappers are permutations of the same PA space, so over the
        // full space the byte multiset must be preserved.
        let t = Topology::new(2, 1, 2, 2, 4, 256, 32);
        let a = identity_mapper(t);
        let b = swizzled_mapper(t);
        let cap = t.capacity_bytes() as usize;
        let mut mem = BankedMemory::new(t);
        let data: Vec<u8> = (0..cap).map(|i| (i % 251) as u8).collect();
        mem.write_bytes(&a, 0, &data).unwrap();
        let through_b = mem.read_bytes(&b, 0, cap).unwrap();
        // Different bit assignment => a different view...
        assert_ne!(through_b, data);
        // ...but the same cells: full-space multiset is preserved.
        let mut sorted_a = data.clone();
        let mut sorted_b = through_b.clone();
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        assert_eq!(sorted_a, sorted_b, "same multiset of bytes through any bijective mapping");
        // And reading back through the original mapping is intact.
        assert_eq!(mem.read_bytes(&a, 0, cap).unwrap(), data);
    }

    #[test]
    fn transfer_level_access() {
        let t = topo();
        let mut mem = BankedMemory::new(t);
        let addr = DramAddress { channel: 1, rank: 0, bank: 3, row: 5, column: 7 };
        mem.write_bytes(&FnMapper(move |_| addr), 0, &[7u8; 32]).unwrap();
        assert_eq!(mem.load_transfer(addr), vec![7u8; 32]);
        // Same row, untouched column: zero (the row image was allocated).
        assert_eq!(mem.row(addr).map(<[u8]>::len), Some(256));
        assert_eq!(mem.load_transfer(DramAddress { column: 0, ..addr }), vec![0u8; 32]);
        // Untouched rows, in another bank and in another channel: zero, and
        // still unallocated after the reads.
        for other in [DramAddress { bank: 0, ..addr }, DramAddress { channel: 0, ..addr }] {
            assert_eq!(mem.load_transfer(other), vec![0u8; 32]);
            assert!(mem.row(other).is_none());
        }
    }

    /// Bank 16 of a 16-bank rank would alias bank 0 of the next rank.
    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_bank() {
        let mut mem = BankedMemory::new(Topology::new(1, 2, 4, 4, 64, 256, 32));
        let bank16 = DramAddress { channel: 0, rank: 0, bank: 16, row: 0, column: 0 };
        mem.write_bytes(&FnMapper(move |_| bank16), 0, &[1; 32]).unwrap();
    }
}
