//! Candidate enumeration over legal PIM-optimized mapping schemes.
//!
//! The search space is the FACIL family that
//! [`MappingScheme::pim_optimized_ordered`] builds, along the two axes
//! user-level software controls:
//!
//! * **MapID** — how many DRAM row bits sit between the chunk-column bits
//!   and the PU-changing bits (`0..=in_page_row_bits`, the tight
//!   per-topology bound that the paper's loose `max_map_id_bound`
//!   upper-bounds);
//! * **PU-bit order** — the relative order of the bank/rank/channel
//!   segments (the paper fixes bank lowest; e.g. channel-lowest spreads a
//!   small matrix across channels before banks).
//!
//! facil-core states the segment layout, its geometry checks and the
//! partition formula once; a candidate only names its point in the space.
//! Every candidate is validated at construction (the DRAMsim3 lesson:
//! reject bad geometry when the mapping is *built*, not when the first
//! address faults), so an enumerated space contains only bijective,
//! topology-exact schemes.

pub use facil_core::PuOrder;
use facil_core::{
    decision_with_map_id, MappingDecision, MappingScheme, MatrixConfig, PimArch, Result,
    HUGE_PAGE_BITS,
};
use facil_dram::Topology;

/// One point of the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// Paper MapID: row bits below the PU-changing bits.
    pub map_id: u8,
    /// PU-changing segment order.
    pub pu_order: PuOrder,
}

impl Candidate {
    /// The paper's candidate for a given MapID (bank-first PU order) — the
    /// incumbent every search starts from.
    pub fn paper(map_id: u8) -> Self {
        Candidate { map_id, pu_order: PuOrder::paper() }
    }

    /// Short human label, e.g. `"AiM MapID=1 PU=ch-ba-rk"`.
    pub fn describe(&self, arch: &PimArch) -> String {
        format!("{} MapID={} PU={}", arch.style, self.map_id, self.pu_order.short())
    }

    /// Build the validated [`MappingScheme`] for this candidate
    /// ([`MappingScheme::pim_optimized_ordered`]); the paper candidate's
    /// scheme, label included, is the one `select_mapping` constructs.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation: MapID out of range for the
    /// topology/page size, chunk not tiling the DRAM row.
    pub fn build(&self, topo: Topology, arch: &PimArch) -> Result<MappingScheme> {
        MappingScheme::pim_optimized_ordered(topo, arch, self.map_id, self.pu_order, HUGE_PAGE_BITS)
    }

    /// Build the full [`MappingDecision`] for `matrix` under this
    /// candidate: [`decision_with_map_id`] at its MapID, with its scheme.
    ///
    /// # Errors
    ///
    /// As [`decision_with_map_id`] and [`Candidate::build`].
    pub fn decision(
        &self,
        matrix: &MatrixConfig,
        topo: Topology,
        arch: &PimArch,
    ) -> Result<MappingDecision> {
        let paper = decision_with_map_id(matrix, topo, arch, self.map_id, HUGE_PAGE_BITS)?;
        Ok(MappingDecision { scheme: self.build(topo, arch)?, ..paper })
    }
}

/// The enumerated, geometry-validated candidate space for one
/// (topology, PIM architecture), every scheme fitting a huge page.
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    topo: Topology,
    arch: PimArch,
    max_map_id: u8,
    candidates: Vec<Candidate>,
}

impl CandidateSpace {
    /// Enumerate every legal candidate in deterministic order: MapID
    /// ascending, PU orders in [`PuOrder::all`] order (paper first). Every
    /// candidate's scheme is constructed once here, so an enumerated space
    /// is known-valid.
    ///
    /// # Errors
    ///
    /// Propagates scheme-construction errors (e.g. a huge page that cannot
    /// hold the interleaving bits).
    pub fn enumerate(topo: Topology, arch: &PimArch) -> Result<Self> {
        let max_map_id = MappingScheme::in_page_row_bits(&topo, HUGE_PAGE_BITS)? as u8;
        let mut candidates = Vec::new();
        for map_id in 0..=max_map_id {
            for pu_order in PuOrder::all() {
                let c = Candidate { map_id, pu_order };
                // Validate now (DRAMsim3 lesson); the scheme itself is
                // rebuilt lazily by the evaluators.
                c.build(topo, arch)?;
                candidates.push(c);
            }
        }
        Ok(CandidateSpace { topo, arch: *arch, max_map_id, candidates })
    }

    /// All candidates in enumeration order.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the space is empty (never true for a valid enumeration).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Largest legal MapID (the tight in-page row-bit bound).
    pub fn max_map_id(&self) -> u8 {
        self.max_map_id
    }

    /// Topology the space addresses.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// PIM architecture the space was enumerated for.
    pub fn arch(&self) -> &PimArch {
        &self.arch
    }

    /// Index of `candidate` in enumeration order, if it is in the space.
    pub fn position(&self, candidate: &Candidate) -> Option<usize> {
        self.candidates.iter().position(|c| c == candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facil_core::{FacilError, Field, HUGE_PAGE_BITS};

    fn iphone() -> (Topology, PimArch) {
        let t = Topology::new(4, 2, 4, 4, 16384, 2048, 32);
        (t, PimArch::aim(&t))
    }

    #[test]
    fn space_size_matches_axes() {
        let (t, a) = iphone();
        let s = CandidateSpace::enumerate(t, &a).unwrap();
        // iPhone-like: 3 in-page row bits -> MapID 0..=3, x6 orders.
        assert_eq!(s.max_map_id(), 3);
        assert_eq!(s.len(), 4 * 6);
        assert!(!s.is_empty());
    }

    #[test]
    fn paper_candidate_is_first_of_its_mapid_and_findable() {
        let (t, a) = iphone();
        let s = CandidateSpace::enumerate(t, &a).unwrap();
        for map_id in 0..=s.max_map_id() {
            let idx = s.position(&Candidate::paper(map_id)).unwrap();
            assert_eq!(idx, map_id as usize * 6, "MapID block starts with the paper order");
        }
        assert_eq!(s.position(&Candidate::paper(s.max_map_id() + 1)), None);
    }

    #[test]
    fn paper_candidate_scheme_matches_pim_optimized() {
        let (t, a) = iphone();
        let c = Candidate::paper(2);
        let built = c.build(t, &a).unwrap();
        let reference = MappingScheme::pim_optimized(t, &a, 2, HUGE_PAGE_BITS).unwrap();
        assert_eq!(built, reference, "labels and segments must be bit-identical");
    }

    #[test]
    fn every_candidate_roundtrips_addresses() {
        let (t, a) = iphone();
        let s = CandidateSpace::enumerate(t, &a).unwrap();
        for c in s.candidates() {
            let scheme = c.build(t, &a).unwrap();
            for i in 0..256u64 {
                let pa = ((i * 977 * 32) % t.capacity_bytes()) & !31;
                let da = scheme.map_pa(pa);
                assert!(da.is_valid(&t), "{}", c.describe(&a));
                assert_eq!(scheme.unmap(da), pa, "{}", c.describe(&a));
            }
        }
    }

    #[test]
    fn channel_first_order_changes_pu_walk() {
        let (t, a) = iphone();
        let paper = Candidate::paper(0).build(t, &a).unwrap();
        let chan_first =
            Candidate { map_id: 0, pu_order: PuOrder([Field::Channel, Field::Bank, Field::Rank]) }
                .build(t, &a)
                .unwrap();
        // One chunk (2 KB) ahead: paper moves to the next bank, channel-first
        // moves to the next channel.
        let (p0, p1) = (paper.map_pa(0), paper.map_pa(2048));
        let (c0, c1) = (chan_first.map_pa(0), chan_first.map_pa(2048));
        assert_eq!(p1.bank, p0.bank + 1);
        assert_eq!(p1.channel, p0.channel);
        assert_eq!(c1.channel, c0.channel + 1);
        assert_eq!(c1.bank, c0.bank);
        // Only a non-paper order names itself in the scheme label.
        assert_eq!(paper.label(), "AiM MapID=0");
        assert_eq!(chan_first.label(), "AiM MapID=0 PU=ch-ba-rk");
    }

    #[test]
    fn out_of_range_mapid_rejected_at_construction() {
        let (t, a) = iphone();
        let c = Candidate { map_id: 9, pu_order: PuOrder::all()[3] };
        assert!(matches!(c.build(t, &a), Err(FacilError::MapIdOutOfRange { requested: 9, .. })));
    }

    #[test]
    fn decision_partitions_match_forced_mapid_rule() {
        use facil_core::{decision_with_map_id, DType};
        let (t, a) = iphone();
        let m = MatrixConfig::new(64, 4096, DType::F16); // 8 KB rows
        for map_id in 0..=3u8 {
            let ours = Candidate::paper(map_id).decision(&m, t, &a).unwrap();
            let reference = decision_with_map_id(&m, t, &a, map_id, HUGE_PAGE_BITS).unwrap();
            assert_eq!(ours, reference, "MapID {map_id}");
        }
    }

    #[test]
    fn narrow_matrix_rejected() {
        let (t, a) = iphone();
        let m = MatrixConfig::new(64, 256, facil_core::DType::F16);
        assert!(Candidate::paper(0).decision(&m, t, &a).is_err());
    }
}
