//! The FACIL mapping selector (paper Fig. 9 and Fig. 10).
//!
//! Given the matrix configuration, the memory-system configuration and the
//! PIM configuration — all available to user-level software — the selector
//! picks the MapID whose PIM-optimized scheme places the matrix optimally:
//!
//! * if a whole (power-of-two padded) matrix row fits in the per-bank slice
//!   of a huge page, the MapID is chosen so one matrix row maps entirely to
//!   one PU's bank (no inter-bank reduction);
//! * otherwise the PU-changing bits are pushed to the MSB of the page
//!   offset (maximum MapID) and the row is *column-partitioned* across
//!   several PUs, whose partial sums the SoC reduces afterwards (Fig. 10).

use facil_dram::Topology;

use crate::arch::PimArch;
use crate::error::{FacilError, Result};
use crate::matrix::MatrixConfig;
use crate::scheme::{MappingScheme, HUGE_PAGE_BITS};

/// Hardware mapping identifier stored in the page table entry and used by
/// the memory-controller frontend mux. `MapId(0)` is the first
/// *PIM-optimized* mapping; the conventional mapping is represented by the
/// absence of a MapID (`Option<MapId>` in the PTE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MapId(pub u8);

impl std::fmt::Display for MapId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MapID({})", self.0)
    }
}

/// Outcome of mapping selection for one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingDecision {
    /// Selected MapID (paper definition: row bits between the chunk-column
    /// bits and the PU-changing bits).
    pub map_id: MapId,
    /// Number of PUs that share one matrix row (1 = no partitioning; >1 =
    /// the Fig. 10 case, requiring an SoC-side reduction of partial sums).
    pub partitions: u64,
    /// The constructed scheme.
    pub scheme: MappingScheme,
    /// Bytes of huge-page memory one bank receives per page
    /// (`huge page size / total bank count`).
    pub memory_per_bank: u64,
}

/// Select the PA-to-DA mapping for `matrix` (paper Fig. 9 `select_mapping`).
///
/// ```
/// use facil_core::{select_mapping_2mb, DType, MapId, MatrixConfig, PimArch};
/// use facil_dram::DramSpec;
///
/// # fn main() -> facil_core::Result<()> {
/// let spec = DramSpec::lpddr5_6400(64, 8 << 30);
/// let arch = PimArch::aim(&spec.topology);
/// // A 2048-column fp16 weight: rows are 4 KB, two DRAM rows per bank.
/// let d = select_mapping_2mb(&MatrixConfig::new(2048, 2048, DType::F16), spec.topology, &arch)?;
/// assert_eq!(d.map_id, MapId(1));
/// assert_eq!(d.partitions, 1);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`FacilError::InvalidRequest`] if a matrix row is narrower than one
///   chunk row, wider than one huge page (it would need more PUs than a page
///   spreads over), or needs column partitioning on a multi-row-chunk
///   (HBM-PIM-style) architecture;
/// * scheme-construction errors from [`MappingScheme::pim_optimized`] if the
///   topology cannot support PIM-optimized mapping at this page size
///   (interleaving bits outside the page offset) or the chunk does not tile
///   the DRAM row.
pub fn select_mapping(
    matrix: &MatrixConfig,
    topo: Topology,
    arch: &PimArch,
    page_bits: u32,
) -> Result<MappingDecision> {
    let row_bytes = matrix.padded_row_bytes();
    // Paper Fig. 9: map_id = log2(need_partition ? memory_per_bank : row_size)
    //               - log2(chunk bytes).
    // The pseudocode assumes AiM (chunk_rows == 1); generalized here: one
    // bank stores `chunk_rows` matrix rows per tile, so the largest matrix
    // row a single PU can own within one huge page is
    // `memory_per_bank / chunk_rows`.
    let max_row_per_pu = (1u64 << page_bits) / topo.total_banks() / arch.chunk_rows;
    let need_partition = max_row_per_pu < row_bytes;
    if need_partition && arch.chunk_rows > 1 {
        // The paper defines column partitioning (Fig. 10) for AiM-style PIM
        // (chunk row dimension 1). With multi-row chunks, splitting a matrix
        // row across PUs by bit permutation would break the chunk-row
        // grouping, so we reject rather than mis-place.
        return Err(FacilError::InvalidRequest(format!(
            "matrix row ({row_bytes} B) exceeds the per-PU page share ({max_row_per_pu} B) and \
             column partitioning is only defined for chunk-row-1 (AiM-style) architectures"
        )));
    }
    let selected_bytes = if need_partition { max_row_per_pu } else { row_bytes };
    let map_id = (selected_bytes / arch.chunk_row_bytes).trailing_zeros() as u8;
    decision_with_map_id(matrix, topo, arch, map_id, page_bits)
}

/// Convenience wrapper using the default 2 MB huge page.
pub fn select_mapping_2mb(
    matrix: &MatrixConfig,
    topo: Topology,
    arch: &PimArch,
) -> Result<MappingDecision> {
    select_mapping(matrix, topo, arch, HUGE_PAGE_BITS)
}

/// The decision for `matrix` at a given MapID: the one decision path, which
/// [`select_mapping`] takes at its own pick. Forcing a MapID is the "one
/// global PIM mapping for every tensor" configuration of IANUS-style
/// systems, used by the mapping-flexibility ablation. A MapID smaller than
/// the matrix needs scatters each row over
/// `row_bytes / (chunk_row_bytes << map_id)` PUs, forcing partial-sum
/// reductions the flexible selector avoids.
///
/// # Errors
///
/// * [`FacilError::InvalidRequest`] if a matrix row is narrower than one
///   chunk row, or would be split over more PUs than one huge page spreads
///   over (Fig. 10 splits a row over at most every PU of a page);
/// * scheme-construction errors from [`MappingScheme::pim_optimized`].
pub fn decision_with_map_id(
    matrix: &MatrixConfig,
    topo: Topology,
    arch: &PimArch,
    map_id: u8,
    page_bits: u32,
) -> Result<MappingDecision> {
    let row_bytes = matrix.padded_row_bytes();
    if row_bytes < arch.chunk_row_bytes {
        return Err(FacilError::InvalidRequest(format!(
            "matrix row ({row_bytes} B) smaller than one chunk row ({} B); \
             pad the matrix columns to at least the chunk width",
            arch.chunk_row_bytes
        )));
    }
    let scheme = MappingScheme::pim_optimized(topo, arch, map_id, page_bits)?;
    let partitions = (row_bytes / (arch.chunk_row_bytes << map_id)).max(1);
    if partitions > topo.total_banks() {
        return Err(FacilError::InvalidRequest(format!(
            "matrix row ({row_bytes} B) would span {partitions} of the {} PUs of a page",
            topo.total_banks()
        )));
    }
    let memory_per_bank = (1u64 << page_bits) / topo.total_banks();
    Ok(MappingDecision { map_id: MapId(map_id), partitions, scheme, memory_per_bank })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DType;

    /// iPhone-like small system: 4 channels, 2 ranks, 16 banks.
    fn small_topo() -> Topology {
        Topology::new(4, 2, 4, 4, 16384, 2048, 32)
    }

    /// Jetson-like system: 16 channels, 2 ranks, 16 banks.
    fn jetson_topo() -> Topology {
        Topology::new(16, 2, 4, 4, 65536, 2048, 32)
    }

    #[test]
    fn small_matrix_fits_one_bank() {
        // 2048-column fp16 row = 4 KB; iPhone-like: 2MB/128 banks = 16 KB
        // per bank >= 4 KB, so no partitioning. MapID = log2(4K/2K) = 1.
        let t = small_topo();
        let m = MatrixConfig::new(2048, 2048, DType::F16);
        let d = select_mapping_2mb(&m, t, &PimArch::aim(&t)).unwrap();
        assert_eq!(d.map_id, MapId(1));
        assert_eq!(d.partitions, 1);
        assert_eq!(d.memory_per_bank, 16 << 10);
    }

    #[test]
    fn large_row_partitions_on_many_channel_system() {
        // Jetson-like: 512 banks; 2MB/512 = 4 KB per bank. A Llama3-8B
        // 4096-col fp16 row is 8 KB > 4 KB: partition across 2 PUs
        // (Fig. 10), PU bits at page-offset MSB.
        let t = jetson_topo();
        let m = MatrixConfig::new(4096, 4096, DType::F16);
        let d = select_mapping_2mb(&m, t, &PimArch::aim(&t)).unwrap();
        assert_eq!(d.partitions, 2);
        // memory_per_bank 4 KB / chunk 2 KB = MapID 1, which is also the max
        // (PU bits at MSB of the page offset).
        assert_eq!(d.map_id, MapId(1));
        let max = MappingScheme::in_page_row_bits(&t, HUGE_PAGE_BITS).unwrap() as u8;
        assert_eq!(d.map_id.0, max);
    }

    #[test]
    fn map_id_scales_with_matrix_columns() {
        let t = small_topo();
        let arch = PimArch::aim(&t);
        // 1024 cols fp16 = 2 KB row = 1 chunk -> MapID 0.
        let d0 = select_mapping_2mb(&MatrixConfig::new(64, 1024, DType::F16), t, &arch).unwrap();
        assert_eq!(d0.map_id, MapId(0));
        // 4096 cols = 8 KB -> MapID 2.
        let d2 = select_mapping_2mb(&MatrixConfig::new(64, 4096, DType::F16), t, &arch).unwrap();
        assert_eq!(d2.map_id, MapId(2));
        // 8192 cols = 16 KB = memory_per_bank -> MapID 3, still 1 partition.
        let d3 = select_mapping_2mb(&MatrixConfig::new(64, 8192, DType::F16), t, &arch).unwrap();
        assert_eq!(d3.map_id, MapId(3));
        assert_eq!(d3.partitions, 1);
        // 16384 cols = 32 KB -> partition by 2 at max MapID 3.
        let d4 = select_mapping_2mb(&MatrixConfig::new(64, 16384, DType::F16), t, &arch).unwrap();
        assert_eq!(d4.map_id, MapId(3));
        assert_eq!(d4.partitions, 2);
        // A 2 MB row spreads over every one of the 128 PUs of a page; a
        // 4 MB row would need 256 of them.
        let page = select_mapping_2mb(&MatrixConfig::new(4, 1 << 20, DType::F16), t, &arch);
        assert_eq!(page.unwrap().partitions, 128);
        let wide = select_mapping_2mb(&MatrixConfig::new(4, 1 << 21, DType::F16), t, &arch);
        assert!(matches!(wide, Err(FacilError::InvalidRequest(_))), "{wide:?}");
    }

    #[test]
    fn non_power_of_two_columns_are_padded() {
        let t = small_topo();
        let arch = PimArch::aim(&t);
        // 14336 cols (Llama3 FFN) pads to 16384 = 32 KB rows.
        let d = select_mapping_2mb(&MatrixConfig::new(4096, 14336, DType::F16), t, &arch).unwrap();
        assert_eq!(d.partitions, 2);
    }

    #[test]
    fn dtype_changes_row_bytes_and_mapid() {
        let t = small_topo();
        let arch = PimArch::aim(&t);
        let f16 = select_mapping_2mb(&MatrixConfig::new(64, 4096, DType::F16), t, &arch).unwrap();
        let i8 = select_mapping_2mb(&MatrixConfig::new(64, 4096, DType::I8), t, &arch).unwrap();
        assert_eq!(f16.map_id, MapId(2));
        assert_eq!(i8.map_id, MapId(1), "int8 rows are half the bytes");
    }

    #[test]
    fn hbm_pim_selection() {
        let t = small_topo();
        let arch = PimArch::hbm_pim(&t);
        // 1024-col fp16 row = 2 KB; chunk row = 256 B -> MapID = 3.
        let d = select_mapping_2mb(&MatrixConfig::new(64, 1024, DType::F16), t, &arch).unwrap();
        assert_eq!(d.map_id, MapId(3));
    }

    #[test]
    fn matrix_narrower_than_chunk_rejected() {
        let t = small_topo();
        let arch = PimArch::aim(&t);
        let err =
            select_mapping_2mb(&MatrixConfig::new(64, 256, DType::F16), t, &arch).unwrap_err();
        assert!(matches!(err, FacilError::InvalidRequest(_)));
    }

    #[test]
    fn forced_global_mapid_partitions_small_matrices() {
        // IANUS-style fixed MapID 0 scatters a 4096-col row over 4 PUs,
        // where the flexible selector would use MapID 2 with 1 partition.
        let t = small_topo();
        let arch = PimArch::aim(&t);
        let m = MatrixConfig::new(64, 4096, DType::F16);
        let flexible = select_mapping_2mb(&m, t, &arch).unwrap();
        let fixed = decision_with_map_id(&m, t, &arch, 0, HUGE_PAGE_BITS).unwrap();
        assert_eq!(flexible.partitions, 1);
        assert_eq!(fixed.partitions, 4);
        assert_eq!(fixed.map_id, MapId(0));
    }

    #[test]
    fn forced_oversized_mapid_keeps_one_partition() {
        let t = small_topo();
        let arch = PimArch::aim(&t);
        let m = MatrixConfig::new(64, 1024, DType::F16); // 1-chunk rows
        let fixed = decision_with_map_id(&m, t, &arch, 3, HUGE_PAGE_BITS).unwrap();
        assert_eq!(fixed.partitions, 1);
    }

    #[test]
    fn other_page_sizes_are_supported() {
        let t = small_topo();
        let arch = PimArch::aim(&t);
        let m = MatrixConfig::new(64, 16384, DType::F16); // 32 KB rows
                                                          // 2 MB pages: 16 KB per bank -> partition x2.
        let small_page = select_mapping(&m, t, &arch, 21).unwrap();
        assert_eq!(small_page.partitions, 2);
        // 1 GB pages: 8 MB per bank -> whole rows fit, no partitioning.
        let big_page = select_mapping(&m, t, &arch, 30).unwrap();
        assert_eq!(big_page.partitions, 1);
        assert!(big_page.map_id > small_page.map_id);
        // 64 KB pages: cannot even hold the interleaving bits x column
        // field for this topology -> clean error.
        assert!(select_mapping(&m, t, &arch, 16).is_err());
    }

    #[test]
    fn selected_scheme_is_consistent_with_mapid() {
        let t = small_topo();
        let arch = PimArch::aim(&t);
        let d = select_mapping_2mb(&MatrixConfig::new(64, 4096, DType::F16), t, &arch).unwrap();
        assert!(d.scheme.label().contains("MapID=2"));
    }
}
