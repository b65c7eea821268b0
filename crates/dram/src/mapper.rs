//! The PA-to-DA translation interface consumed by the DRAM backend.

use std::fmt;

use crate::addr::DramAddress;

/// An address the mapper could not translate (e.g. an unmapped virtual
/// address when replaying a VA trace through a page table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapFault {
    /// The untranslatable byte address.
    pub addr: u64,
}

impl fmt::Display for MapFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "address {:#x} cannot be translated to a DRAM address", self.addr)
    }
}

impl std::error::Error for MapFault {}

/// Translates a physical address into a decoded DRAM device address.
///
/// The FACIL memory-controller frontend (`facil-core`) implements this for
/// conventional and PIM-optimized mapping schemes; the DRAM backend is
/// mapping-agnostic. Translation is fallible so that virtual-address views
/// (a page-table walk can fault) propagate errors instead of panicking;
/// plain PA-level schemes are total and always return `Ok`.
///
/// Implementations must be *bijective at transfer granularity* over the
/// addresses they accept: distinct transfer-aligned addresses must map to
/// distinct device addresses.
pub trait AddressMapper {
    /// Map a byte address to the device address of its transfer. The low
    /// `log2(transfer_bytes)` bits of `pa` are ignored.
    ///
    /// # Errors
    ///
    /// [`MapFault`] if the address has no translation (unmapped VA).
    fn map(&self, pa: u64) -> Result<DramAddress, MapFault>;

    /// Map `pa` as [`map`](Self::map) does, and say how many transfers,
    /// `pa`'s own first, the mapping guarantees to place at consecutive
    /// columns of the returned address's bank and row. Bulk copies map once
    /// per such run instead of once per transfer.
    ///
    /// The default promises only `pa`'s own transfer (a run of 1), which is
    /// always true; a mapper overrides it only where its layout guarantees
    /// longer runs.
    ///
    /// # Errors
    ///
    /// [`MapFault`] if the address has no translation (unmapped VA).
    fn map_run(&self, pa: u64) -> Result<(DramAddress, u64), MapFault> {
        Ok((self.map(pa)?, 1))
    }
}

/// Adapter turning an infallible closure into an [`AddressMapper`].
pub struct FnMapper<F>(pub F);

impl<F> std::fmt::Debug for FnMapper<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnMapper").finish_non_exhaustive()
    }
}

impl<F: Fn(u64) -> DramAddress> AddressMapper for FnMapper<F> {
    fn map(&self, pa: u64) -> Result<DramAddress, MapFault> {
        Ok((self.0)(pa))
    }
}

impl<M: AddressMapper + ?Sized> AddressMapper for &M {
    fn map(&self, pa: u64) -> Result<DramAddress, MapFault> {
        (**self).map(pa)
    }

    fn map_run(&self, pa: u64) -> Result<(DramAddress, u64), MapFault> {
        (**self).map_run(pa)
    }
}

impl<M: AddressMapper + ?Sized> AddressMapper for Box<M> {
    fn map(&self, pa: u64) -> Result<DramAddress, MapFault> {
        (**self).map(pa)
    }

    fn map_run(&self, pa: u64) -> Result<(DramAddress, u64), MapFault> {
        (**self).map_run(pa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_mapper_delegates() {
        let m = FnMapper(|pa: u64| DramAddress {
            channel: pa & 1,
            rank: 0,
            bank: 0,
            row: pa >> 1,
            column: 0,
        });
        assert_eq!(m.map(3).unwrap().channel, 1);
        assert_eq!(m.map(4).unwrap().row, 2);
        // Reference and Box blanket impls.
        let r: &dyn AddressMapper = &m;
        assert_eq!(r.map(3).unwrap().channel, 1);
    }

    #[test]
    fn map_fault_displays_the_address() {
        let e = MapFault { addr: 0x1000 };
        assert!(e.to_string().contains("0x1000"));
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<MapFault>();
    }
}
