//! Memory-controller frontend with the FACIL N-to-1 mapping mux
//! (paper Fig. 12).
//!
//! The frontend receives (physical address, optional MapID) from the core's
//! TLB/page-table path and performs PA-to-DA translation through one of a
//! small number of hardware mapping slots: slot ∅ is the SoC's conventional
//! mapping; the others are PIM-optimized schemes selected by MapID. The
//! hardware cost is five N-to-1 multiplexers (channel, rank, bank, column,
//! row) — pure combinational logic, which [`Frontend::mux_inputs`] reports.
//!
//! A slot is filled one way, [`Frontend::install_scheme`], with the scheme an
//! allocation's [`crate::MappingDecision`] carries, so every allocation is
//! translated through the scheme its decision names.

use facil_dram::{AddressMapper, DramAddress, MapFault, Topology};

use crate::error::{FacilError, Result};
use crate::scheme::MappingScheme;
use crate::select::MapId;

/// The FACIL-augmented PA-to-DA translation stage.
#[derive(Debug)]
pub struct Frontend {
    /// Slot ∅, whose topology every installed scheme must share.
    conventional: MappingScheme,
    /// Installed PIM-optimized schemes, keyed by their MapID.
    slots: Vec<Option<MappingScheme>>,
    /// Maximum number of concurrently-installed PIM mappings (hardware mux
    /// width minus the conventional input).
    max_slots: usize,
}

impl Frontend {
    /// Create a frontend for `topo` with `max_slots` PIM mapping slots (the
    /// paper's example hardware supports 3 PIM + 1 conventional).
    ///
    /// # Panics
    ///
    /// Panics if `max_slots` is 0 or exceeds 15 (4 PTE bits).
    pub fn new(topo: Topology, max_slots: usize) -> Self {
        assert!(max_slots > 0 && max_slots <= 15, "MapID field is 4 bits");
        Frontend {
            conventional: MappingScheme::conventional(topo),
            slots: vec![None; 16],
            max_slots,
        }
    }

    /// The conventional scheme (slot ∅).
    pub fn conventional(&self) -> &MappingScheme {
        &self.conventional
    }

    /// Number of PIM mappings currently installed.
    pub fn installed(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Install `scheme` into the slot for `map_id` — the one way a slot is
    /// filled, whether the scheme is the selector's pick or a mapsearch
    /// candidate with a non-default PU order.
    ///
    /// Installing an identical scheme into an occupied slot is a no-op;
    /// installing a *different* scheme into an occupied slot is rejected —
    /// live allocations translate through that slot, so hardware would never
    /// allow hot-swapping it.
    ///
    /// # Errors
    ///
    /// * [`FacilError::MapIdOutOfRange`] if `map_id` exceeds the 4-bit PTE
    ///   field;
    /// * [`FacilError::InvalidMapping`] if the scheme's topology differs
    ///   from the frontend's or the slot holds a different scheme;
    /// * [`FacilError::FrontendFull`] if a new slot is needed but all
    ///   `max_slots` are taken.
    pub fn install_scheme(&mut self, map_id: MapId, scheme: &MappingScheme) -> Result<()> {
        let idx = map_id.0 as usize;
        if idx >= self.slots.len() {
            return Err(FacilError::MapIdOutOfRange { requested: map_id.0, max: 15 });
        }
        if scheme.topology() != self.conventional.topology() {
            return Err(FacilError::InvalidMapping(format!(
                "scheme topology does not match frontend topology for MapID {map_id}"
            )));
        }
        match &self.slots[idx] {
            Some(existing) if existing == scheme => Ok(()),
            Some(_) => Err(FacilError::InvalidMapping(format!(
                "MapID {map_id} slot already holds a different scheme"
            ))),
            None => {
                if self.installed() >= self.max_slots {
                    return Err(FacilError::FrontendFull { slots: self.max_slots });
                }
                self.slots[idx] = Some(scheme.clone());
                Ok(())
            }
        }
    }

    /// Look up an installed scheme.
    pub fn scheme(&self, map_id: MapId) -> Option<&MappingScheme> {
        self.slots.get(map_id.0 as usize).and_then(|s| s.as_ref())
    }

    /// The mapping `map_id` selects (`None` = conventional).
    ///
    /// # Errors
    ///
    /// [`FacilError::MapIdOutOfRange`] if the MapID has no installed scheme
    /// (hardware would raise a machine check here).
    pub fn selected(&self, map_id: Option<MapId>) -> Result<&MappingScheme> {
        match map_id {
            None => Ok(&self.conventional),
            Some(id) => {
                self.scheme(id).ok_or(FacilError::MapIdOutOfRange { requested: id.0, max: 15 })
            }
        }
    }

    /// Translate a physical address under the mapping selected by `map_id`
    /// (`None` = conventional).
    ///
    /// # Errors
    ///
    /// [`FacilError::MapIdOutOfRange`] if the MapID has no installed scheme
    /// (hardware would raise a machine check here).
    pub fn translate(&self, pa: u64, map_id: Option<MapId>) -> Result<DramAddress> {
        Ok(self.selected(map_id)?.map_pa(pa))
    }

    /// Hardware-cost figure: inputs of each of the five field multiplexers
    /// (= installed mappings + 1 conventional). Paper Fig. 12 shows 4.
    pub fn mux_inputs(&self) -> usize {
        self.installed() + 1
    }
}

/// Adapter: a frontend pinned to one MapID behaves as a plain
/// [`AddressMapper`] for trace replay.
#[derive(Debug)]
pub struct PinnedMapper<'a> {
    frontend: &'a Frontend,
    map_id: Option<MapId>,
}

impl<'a> PinnedMapper<'a> {
    /// Pin `frontend` to `map_id`.
    ///
    /// # Panics
    ///
    /// Panics if `map_id` refers to an empty slot.
    pub fn new(frontend: &'a Frontend, map_id: Option<MapId>) -> Self {
        if let Some(id) = map_id {
            assert!(frontend.scheme(id).is_some(), "MapID {id} not installed");
        }
        PinnedMapper { frontend, map_id }
    }
}

impl AddressMapper for PinnedMapper<'_> {
    fn map(&self, pa: u64) -> std::result::Result<DramAddress, MapFault> {
        self.frontend.translate(pa, self.map_id).map_err(|_| MapFault { addr: pa })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::PimArch;
    use crate::scheme::HUGE_PAGE_BITS;

    fn topo() -> Topology {
        Topology::new(4, 2, 4, 4, 16384, 2048, 32)
    }

    fn frontend(slots: usize) -> Frontend {
        Frontend::new(topo(), slots)
    }

    /// The paper scheme for `map_id` on [`topo`].
    fn paper(map_id: u8) -> MappingScheme {
        let t = topo();
        MappingScheme::pim_optimized(t, &PimArch::aim(&t), map_id, HUGE_PAGE_BITS).unwrap()
    }

    #[test]
    fn conventional_translation_by_default() {
        let f = frontend(3);
        let a = f.translate(32, None).unwrap();
        assert_eq!(a.channel, 1, "conventional interleaves channels first");
    }

    #[test]
    fn install_and_translate_pim() {
        let mut f = frontend(3);
        f.install_scheme(MapId(1), &paper(1)).unwrap();
        let a = f.translate(32, Some(MapId(1))).unwrap();
        // PIM mapping keeps consecutive transfers in one bank.
        assert_eq!(a.channel, 0);
        assert_eq!(a.column, 1);
        assert_eq!(f.mux_inputs(), 2);
    }

    #[test]
    fn slots_are_limited_like_hardware() {
        let mut f = frontend(2);
        f.install_scheme(MapId(0), &paper(0)).unwrap();
        f.install_scheme(MapId(1), &paper(1)).unwrap();
        // Re-installing an installed scheme is free.
        f.install_scheme(MapId(1), &paper(1)).unwrap();
        let err = f.install_scheme(MapId(2), &paper(2)).unwrap_err();
        assert_eq!(err, FacilError::FrontendFull { slots: 2 });
    }

    #[test]
    fn install_scheme_accepts_custom_and_rejects_conflicts() {
        let mut f = frontend(3);
        // A custom scheme (bank hash on) in a fresh slot.
        let custom = paper(1).with_bank_hash();
        f.install_scheme(MapId(1), &custom).unwrap();
        assert_eq!(f.scheme(MapId(1)), Some(&custom));
        // Re-installing the identical scheme is a no-op.
        f.install_scheme(MapId(1), &custom).unwrap();
        assert_eq!(f.installed(), 1);
        // A different scheme under the same MapID is a conflict.
        assert!(matches!(
            f.install_scheme(MapId(1), &paper(1)),
            Err(FacilError::InvalidMapping(_))
        ));
        // A scheme built for another topology is rejected.
        let other_topo = Topology::new(2, 1, 2, 2, 1024, 2048, 32);
        let foreign =
            MappingScheme::pim_optimized(other_topo, &PimArch::aim(&other_topo), 0, HUGE_PAGE_BITS)
                .unwrap();
        assert!(matches!(f.install_scheme(MapId(0), &foreign), Err(FacilError::InvalidMapping(_))));
        // Slot capacity still applies.
        let mut small = frontend(1);
        small.install_scheme(MapId(1), &custom).unwrap();
        assert_eq!(
            small.install_scheme(MapId(0), &paper(0)),
            Err(FacilError::FrontendFull { slots: 1 })
        );
        // Out-of-range MapID.
        assert!(matches!(
            f.install_scheme(MapId(16), &custom),
            Err(FacilError::MapIdOutOfRange { .. })
        ));
    }

    #[test]
    fn uninstalled_mapid_is_rejected() {
        let f = frontend(3);
        assert!(matches!(f.translate(0, Some(MapId(2))), Err(FacilError::MapIdOutOfRange { .. })));
    }

    #[test]
    fn pinned_mapper_adapts_to_trait() {
        let mut f = frontend(3);
        f.install_scheme(MapId(0), &paper(0)).unwrap();
        let conv = PinnedMapper::new(&f, None);
        let pim = PinnedMapper::new(&f, Some(MapId(0)));
        assert_ne!(conv.map(32), pim.map(32));
    }

    #[test]
    #[should_panic(expected = "not installed")]
    fn pinning_empty_slot_panics() {
        let f = frontend(3);
        PinnedMapper::new(&f, Some(MapId(7)));
    }
}
