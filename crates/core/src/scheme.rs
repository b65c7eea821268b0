//! The PA-to-DA mapping formulation (paper Section IV-B, Fig. 8).
//!
//! A [`MappingScheme`] assigns every physical-address bit to one DRAM
//! address field. It is an ordered list of bit segments from the PA LSB to
//! the MSB; since every PA bit feeds exactly one DA field bit, each scheme
//! is a *permutation* of the physical address — bijective by construction
//! (and property-tested).
//!
//! Two families are provided:
//!
//! * [`MappingScheme::conventional`] — the SoC default
//!   `row:rank:column:bank:channel` (MSB→LSB) mapping the paper assumes for
//!   non-PIM data (Section VI-A), which achieves near-peak sequential
//!   bandwidth;
//! * [`MappingScheme::pim_optimized`] — the FACIL PIM-optimized family
//!   parameterized by **MapID**: chunk-column bits first, then `MapID` DRAM
//!   row bits, then the chunk-row bits (HBM-PIM only), then the
//!   *PU-changing* bits (bank, rank, channel), then the remaining row bits.
//!   Only page-offset bits are permuted; bits above the huge-page offset
//!   keep the conventional assignment, so the OS can mix mapped and normal
//!   pages freely. [`MappingScheme::pim_optimized_ordered`] builds the same
//!   family with the PU-changing segments in any [`PuOrder`]; it is the one
//!   place the segment layout and its geometry checks are stated.

use facil_dram::{AddressMapper, DramAddress, MapFault, Topology};

use crate::arch::PimArch;
use crate::error::{FacilError, Result};
pub use crate::paging::pte::HUGE_PAGE_BITS;

/// Default huge-page size in bytes.
pub const HUGE_PAGE_BYTES: u64 = 1 << HUGE_PAGE_BITS;

/// DRAM address field a PA bit segment feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// Byte offset within one transfer (never remapped).
    Tx,
    /// Column (transfer index within a row).
    Column,
    /// Row.
    Row,
    /// Bank (flat within rank; bank-group bits are the high bits).
    Bank,
    /// Rank.
    Rank,
    /// Channel.
    Channel,
}

impl std::fmt::Display for Field {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Field::Tx => "tx",
            Field::Column => "col",
            Field::Row => "row",
            Field::Bank => "ba",
            Field::Rank => "rk",
            Field::Channel => "ch",
        };
        write!(f, "{s}")
    }
}

/// A run of consecutive PA bits feeding one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Target field.
    pub field: Field,
    /// Number of bits.
    pub width: u32,
}

/// Order of the PU-changing bit segments of a PIM-optimized scheme, from
/// PA LSB to MSB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PuOrder(pub [Field; 3]);

impl PuOrder {
    /// The paper's order (Fig. 8): bank, then rank, then channel.
    pub const fn paper() -> Self {
        PuOrder([Field::Bank, Field::Rank, Field::Channel])
    }

    /// All six permutations, paper order first (enumeration is
    /// deterministic, so search results are too).
    pub const fn all() -> [PuOrder; 6] {
        use Field::{Bank, Channel, Rank};
        [
            PuOrder([Bank, Rank, Channel]),
            PuOrder([Bank, Channel, Rank]),
            PuOrder([Rank, Bank, Channel]),
            PuOrder([Rank, Channel, Bank]),
            PuOrder([Channel, Bank, Rank]),
            PuOrder([Channel, Rank, Bank]),
        ]
    }

    /// Compact label, e.g. `"ba-rk-ch"`.
    pub fn short(&self) -> String {
        format!("{}-{}-{}", self.0[0], self.0[1], self.0[2])
    }
}

/// A complete PA-to-DA mapping: a permutation of physical-address bits into
/// DRAM address fields, optionally followed by an XOR bank hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MappingScheme {
    topo: Topology,
    /// Segments from PA LSB to MSB. Field widths sum to the topology bits.
    segments: Vec<Segment>,
    /// XOR the bank index with the low row bits (real memory controllers
    /// hash banks this way to spread pathological strides; DRAMA-style).
    /// XOR with a bijection of independent bits keeps the whole mapping a
    /// bijection, so FACIL composes with hashed controllers unchanged.
    bank_xor_row: bool,
    /// Human-readable label ("conventional", "AiM MapID=2", …).
    label: String,
}

impl MappingScheme {
    /// Build a scheme from explicit segments, validating that it is a
    /// permutation covering the whole topology.
    ///
    /// # Errors
    ///
    /// Returns [`FacilError::InvalidMapping`] if per-field widths do not
    /// match the topology exactly.
    pub fn from_segments(
        topo: Topology,
        segments: Vec<Segment>,
        label: impl Into<String>,
    ) -> Result<Self> {
        let mut widths = [0u32; 6];
        let idx = |f: Field| match f {
            Field::Tx => 0,
            Field::Column => 1,
            Field::Row => 2,
            Field::Bank => 3,
            Field::Rank => 4,
            Field::Channel => 5,
        };
        for s in &segments {
            widths[idx(s.field)] += s.width;
        }
        let expect = [
            (Field::Tx, topo.tx_bits()),
            (Field::Column, topo.column_bits()),
            (Field::Row, topo.row_bits()),
            (Field::Bank, topo.bank_bits()),
            (Field::Rank, topo.rank_bits()),
            (Field::Channel, topo.channel_bits()),
        ];
        for (f, want) in expect {
            let got = widths[idx(f)];
            if got != want {
                return Err(FacilError::InvalidMapping(format!(
                    "field {f} covers {got} bits, topology needs {want}"
                )));
            }
        }
        let segments = segments.into_iter().filter(|s| s.width > 0).collect();
        Ok(MappingScheme { topo, segments, bank_xor_row: false, label: label.into() })
    }

    /// The conventional SoC mapping `row:rank:column:bank:channel`
    /// (MSB→LSB), i.e. channel bits directly above the transfer offset
    /// (paper Section VI-A). Verified by the DRAM simulator to achieve
    /// near-peak sequential read bandwidth.
    ///
    /// ```
    /// use facil_core::MappingScheme;
    /// use facil_dram::Topology;
    ///
    /// let topo = Topology::new(4, 2, 4, 4, 16384, 2048, 32);
    /// let conv = MappingScheme::conventional(topo);
    /// // Consecutive transfers interleave channels.
    /// assert_eq!(conv.map_pa(0).channel, 0);
    /// assert_eq!(conv.map_pa(32).channel, 1);
    /// // And the mapping is invertible.
    /// assert_eq!(conv.unmap(conv.map_pa(123 * 32)), 123 * 32);
    /// ```
    pub fn conventional(topo: Topology) -> Self {
        let segments = vec![
            Segment { field: Field::Tx, width: topo.tx_bits() },
            Segment { field: Field::Channel, width: topo.channel_bits() },
            Segment { field: Field::Bank, width: topo.bank_bits() },
            Segment { field: Field::Column, width: topo.column_bits() },
            Segment { field: Field::Rank, width: topo.rank_bits() },
            Segment { field: Field::Row, width: topo.row_bits() },
        ];
        // The segment list covers exactly the topology's address bits, so
        // validation cannot fail for any topology this type accepts.
        #[allow(clippy::expect_used)]
        Self::from_segments(topo, segments, "conventional")
            .expect("conventional scheme is always valid")
    }

    /// Number of page-offset bits available for DRAM row bits in a
    /// PIM-optimized scheme: `page_bits - tx - column - PU bits`.
    ///
    /// This is the tight per-architecture maximum of the paper MapID when
    /// the chunk-column bits are excluded; the paper's loose bound
    /// `log2(hugepage / (total banks * transfer))` equals this value plus
    /// the column bits (see [`max_map_id_bound`]).
    pub fn in_page_row_bits(topo: &Topology, page_bits: u32) -> Result<u32> {
        let pu = topo.channel_bits() + topo.rank_bits() + topo.bank_bits();
        let fixed = topo.tx_bits() + topo.column_bits() + pu;
        if page_bits < fixed {
            return Err(FacilError::InvalidMapping(format!(
                "page offset ({page_bits} bits) cannot hold tx+column+interleaving ({fixed} bits)"
            )));
        }
        Ok((page_bits - fixed).min(topo.row_bits()))
    }

    /// A PIM-optimized mapping for `arch` with the given paper MapID
    /// (number of DRAM row bits between the chunk-column bits and the
    /// PU-changing bits; paper Fig. 8), PU-changing bits in the paper's
    /// [`PuOrder::paper`] order.
    ///
    /// `map_id == max` places the PU-changing bits at the MSB of the page
    /// offset, which is the column-partitioned mapping of Fig. 10.
    ///
    /// # Errors
    ///
    /// As [`MappingScheme::pim_optimized_ordered`].
    pub fn pim_optimized(
        topo: Topology,
        arch: &PimArch,
        map_id: u8,
        page_bits: u32,
    ) -> Result<Self> {
        Self::pim_optimized_ordered(topo, arch, map_id, PuOrder::paper(), page_bits)
    }

    /// The whole PIM-optimized family: [`MappingScheme::pim_optimized`]
    /// with the PU-changing segments in `pu_order`. The label is
    /// `"<style> MapID=<id>"`, followed by `" PU=<order>"` unless the order
    /// is the paper's.
    ///
    /// # Errors
    ///
    /// * [`FacilError::InvalidMapping`] if the chunk does not tile the DRAM
    ///   row, `pu_order` is not a permutation of bank, rank and channel, or
    ///   the interleaving bits do not fit in the page offset;
    /// * [`FacilError::MapIdOutOfRange`] if `map_id` exceeds the maximum for
    ///   this topology/page size.
    pub fn pim_optimized_ordered(
        topo: Topology,
        arch: &PimArch,
        map_id: u8,
        pu_order: PuOrder,
        page_bits: u32,
    ) -> Result<Self> {
        if !arch.tiles_row(&topo) {
            return Err(FacilError::InvalidMapping(format!(
                "chunk ({} rows x {} bytes) does not tile the {}-byte DRAM row",
                arch.chunk_rows, arch.chunk_row_bytes, topo.row_bytes
            )));
        }
        if !PuOrder::all().contains(&pu_order) {
            return Err(FacilError::InvalidMapping(format!(
                "PU order {} is not a permutation of ba, rk and ch",
                pu_order.short()
            )));
        }
        let in_page_rows = Self::in_page_row_bits(&topo, page_bits)?;
        if u32::from(map_id) > in_page_rows {
            return Err(FacilError::MapIdOutOfRange { requested: map_id, max: in_page_rows as u8 });
        }
        let mid = u32::from(map_id);
        let pu_width = |field| match field {
            Field::Bank => topo.bank_bits(),
            Field::Rank => topo.rank_bits(),
            _ => topo.channel_bits(),
        };
        let pu = pu_order.0.map(|field| Segment { field, width: pu_width(field) });
        let segments = vec![
            Segment { field: Field::Tx, width: topo.tx_bits() },
            Segment { field: Field::Column, width: arch.chunk_col_bits(&topo) },
            Segment { field: Field::Row, width: mid },
            Segment { field: Field::Column, width: arch.chunk_row_bits() },
            pu[0],
            pu[1],
            pu[2],
            // Row bits left inside the page offset, then the bits above the
            // page offset (always row bits, in the same order as the
            // conventional scheme, so the OS page frame number behaves
            // identically under both mappings).
            Segment { field: Field::Row, width: in_page_rows - mid },
            Segment { field: Field::Row, width: topo.row_bits() - in_page_rows },
        ];
        let label = if pu_order == PuOrder::paper() {
            format!("{} MapID={map_id}", arch.style)
        } else {
            format!("{} MapID={map_id} PU={}", arch.style, pu_order.short())
        };
        Self::from_segments(topo, segments, label)
    }

    /// Enable DRAMA-style bank hashing: the bank index is XOR-ed with the
    /// low DRAM row bits. Keeps the mapping bijective (XOR with independent
    /// bits is an involution) — verified by the round-trip property tests.
    pub fn with_bank_hash(mut self) -> Self {
        self.bank_xor_row = true;
        self.label = format!("{} (+bank hash)", self.label);
        self
    }

    /// Whether bank hashing is enabled.
    pub fn bank_hash(&self) -> bool {
        self.bank_xor_row
    }

    fn hash_bank(&self, bank: u64, row: u64) -> u64 {
        if self.bank_xor_row {
            bank ^ (row & (self.topo.banks() - 1))
        } else {
            bank
        }
    }

    /// Topology this scheme addresses.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Human-readable label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Segments from PA LSB to MSB.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Translate a physical byte address into a DRAM device address.
    /// Addresses beyond the topology capacity wrap (high bits are ignored).
    pub fn map_pa(&self, pa: u64) -> DramAddress {
        let mut x = pa;
        let mut channel = 0u64;
        let mut rank = 0u64;
        let mut bank = 0u64;
        let mut row = 0u64;
        let mut column = 0u64;
        let mut shift = [0u32; 6];
        for s in &self.segments {
            let bits = u64::from(s.width);
            let v = x & ((1u64 << bits) - 1);
            x >>= bits;
            let (dst, sh) = match s.field {
                Field::Tx => {
                    // Byte-in-transfer bits do not appear in the DA.
                    continue;
                }
                Field::Column => (&mut column, &mut shift[1]),
                Field::Row => (&mut row, &mut shift[2]),
                Field::Bank => (&mut bank, &mut shift[3]),
                Field::Rank => (&mut rank, &mut shift[4]),
                Field::Channel => (&mut channel, &mut shift[5]),
            };
            *dst |= v << *sh;
            *sh += s.width;
        }
        let bank = self.hash_bank(bank, row);
        DramAddress { channel, rank, bank, row, column }
    }

    /// Multi-line annotated bit-field layout, MSB to LSB — the debug dump
    /// used in search reports and mapping error messages. One line per
    /// segment showing which PA bit run feeds which DA field bits:
    ///
    /// ```text
    /// AiM MapID=2 (4ch x 2rk x 16ba, 16384 rows x 2048 B, bank hash off)
    ///   pa[33:21] -> row[13:3]
    ///   pa[20]    -> row[2]
    ///   pa[19:18] -> ch[1:0]
    ///   ...
    /// ```
    ///
    /// The one-line [`Display`](std::fmt::Display) form is the compact
    /// companion for log lines.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let t = &self.topo;
        let mut out = format!(
            "{} ({}ch x {}rk x {}ba, {} rows x {} B, bank hash {})\n",
            self.label,
            t.channels,
            t.ranks,
            t.banks(),
            t.rows,
            t.row_bytes,
            if self.bank_xor_row { "on" } else { "off" },
        );
        let span = |name: &str, lo: u32, width: u32| {
            if width == 1 {
                format!("{name}[{lo}]")
            } else {
                format!("{name}[{}:{lo}]", lo + width - 1)
            }
        };
        let mut pa_lo = 0u32;
        let mut taken = std::collections::HashMap::new();
        let mut lines = Vec::with_capacity(self.segments.len());
        for s in &self.segments {
            let f_lo = *taken.get(&(s.field as u8)).unwrap_or(&0);
            taken.insert(s.field as u8, f_lo + s.width);
            lines.push((span("pa", pa_lo, s.width), span(&s.field.to_string(), f_lo, s.width)));
            pa_lo += s.width;
        }
        let pa_width = lines.iter().map(|(p, _)| p.len()).max().unwrap_or(0);
        for (pa, da) in lines.iter().rev() {
            let _ = writeln!(out, "  {pa:<pa_width$} -> {da}");
        }
        out
    }

    /// Inverse translation: device address back to the (transfer-aligned)
    /// physical address.
    pub fn unmap(&self, addr: DramAddress) -> u64 {
        // Undo the bank hash first (XOR is its own inverse).
        let addr = DramAddress { bank: self.hash_bank(addr.bank, addr.row), ..addr };
        let mut pa = 0u64;
        let mut pa_shift = 0u32;
        let mut taken = [0u32; 6];
        for s in &self.segments {
            let (src, t) = match s.field {
                Field::Tx => (0u64, &mut taken[0]),
                Field::Column => (addr.column, &mut taken[1]),
                Field::Row => (addr.row, &mut taken[2]),
                Field::Bank => (addr.bank, &mut taken[3]),
                Field::Rank => (addr.rank, &mut taken[4]),
                Field::Channel => (addr.channel, &mut taken[5]),
            };
            let v = (src >> *t) & ((1u64 << s.width) - 1);
            *t += s.width;
            pa |= v << pa_shift;
            pa_shift += s.width;
        }
        pa
    }
}

impl AddressMapper for MappingScheme {
    fn map(&self, pa: u64) -> std::result::Result<DramAddress, MapFault> {
        Ok(self.map_pa(pa))
    }

    /// A layout that starts with all the transfer bits and then column bits
    /// (every PIM-optimized scheme: one chunk row) keeps the rest of that
    /// column run in one bank row, since the row, and so a hashed bank,
    /// comes from higher bits. Any other layout promises one transfer: the
    /// conventional scheme changes channel from one transfer to the next.
    fn map_run(&self, pa: u64) -> std::result::Result<(DramAddress, u64), MapFault> {
        let run = match self.segments.as_slice() {
            [Segment { field: Field::Tx, width: tx }, Segment { field: Field::Column, width: col }, ..]
                if *tx == self.topo.tx_bits() =>
            {
                let len = 1u64 << col;
                len - ((pa >> tx) & (len - 1))
            }
            _ => 1,
        };
        Ok((self.map_pa(pa), run))
    }
}

impl std::fmt::Display for MappingScheme {
    /// Renders the bit layout MSB→LSB, e.g.
    /// `row[15:1] ch[3:0] rk[0] ba[3:0] row[0] col[5:0] tx[4:0]`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: ", self.label)?;
        let mut taken = std::collections::HashMap::new();
        let mut parts = Vec::new();
        for s in &self.segments {
            let lo = *taken.get(&(s.field as u8)).unwrap_or(&0);
            let hi = lo + s.width - 1;
            taken.insert(s.field as u8, hi + 1);
            if s.width == 1 {
                parts.push(format!("{}[{lo}]", s.field));
            } else {
                parts.push(format!("{}[{hi}:{lo}]", s.field));
            }
        }
        parts.reverse();
        write!(f, "{}", parts.join(" "))
    }
}

/// The paper's loose upper bound on the number of PIM-optimized mappings:
/// `log2(huge page size / (total bank count * DRAM transfer size))`
/// (Section IV-B). For a single-channel/rank, 8-bank LPDDR5 system with
/// 2 MB pages this is 13, hence 4 PTE bits suffice.
pub fn max_map_id_bound(topo: &Topology, page_bits: u32) -> u32 {
    let denom_bits = topo.total_banks().trailing_zeros() + topo.tx_bits();
    page_bits.saturating_sub(denom_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DType;

    fn jetson_topo() -> Topology {
        Topology::new(16, 2, 4, 4, 65536, 2048, 32)
    }

    fn iphone_topo() -> Topology {
        // 64-bit bus = 4 channels... iPhone has 64-bit: 4 channels, 8 GB.
        Topology::new(4, 2, 4, 4, 16384, 2048, 32)
    }

    #[test]
    fn conventional_covers_all_bits() {
        let t = jetson_topo();
        let s = MappingScheme::conventional(t);
        let total: u32 = s.segments().iter().map(|x| x.width).sum();
        assert_eq!(total, t.pa_bits());
    }

    #[test]
    fn conventional_roundtrip() {
        let t = jetson_topo();
        let s = MappingScheme::conventional(t);
        for pa in [0u64, 32, 4096, 123456 * 32, (1 << 35) - 32] {
            let a = s.map_pa(pa);
            assert!(a.is_valid(&t));
            assert_eq!(s.unmap(a), pa & !31);
        }
    }

    #[test]
    fn conventional_interleaves_channels_first() {
        let t = jetson_topo();
        let s = MappingScheme::conventional(t);
        let a0 = s.map_pa(0);
        let a1 = s.map_pa(32);
        assert_eq!(a0.channel, 0);
        assert_eq!(a1.channel, 1);
        assert_eq!(a0.row, a1.row);
    }

    #[test]
    fn aim_scheme_layout_matches_fig8() {
        let t = iphone_topo();
        let arch = PimArch::aim(&t);
        let s = MappingScheme::pim_optimized(t, &arch, 1, HUGE_PAGE_BITS).unwrap();
        // Consecutive transfers within a chunk stay in the same bank/row.
        let a0 = s.map_pa(0);
        let a1 = s.map_pa(32);
        assert_eq!((a0.channel, a0.rank, a0.bank, a0.row), (a1.channel, a1.rank, a1.bank, a1.row));
        assert_eq!(a1.column, a0.column + 1);
        // After one chunk (2 KB) the ROW changes (MapID=1 row bit), not the PU.
        let a_chunk = s.map_pa(2048);
        assert_eq!((a0.channel, a0.rank, a0.bank), (a_chunk.channel, a_chunk.rank, a_chunk.bank));
        assert_eq!(a_chunk.row, a0.row + 1);
        // After 2^map_id chunks (one matrix row of 4 KB), the PU (bank) changes.
        let a_row = s.map_pa(4096);
        assert_ne!((a0.channel, a0.rank, a0.bank), (a_row.channel, a_row.rank, a_row.bank));
        assert_eq!(a_row.bank, a0.bank + 1);
        assert_eq!(a_row.row, a0.row);
    }

    #[test]
    fn map_id_zero_changes_pu_every_chunk() {
        let t = iphone_topo();
        let arch = PimArch::aim(&t);
        let s = MappingScheme::pim_optimized(t, &arch, 0, HUGE_PAGE_BITS).unwrap();
        let a0 = s.map_pa(0);
        let a1 = s.map_pa(2048);
        assert_eq!(a1.bank, a0.bank + 1);
    }

    #[test]
    fn hbm_pim_scheme_splits_column_bits() {
        let t = iphone_topo();
        let arch = PimArch::hbm_pim(&t);
        let s = MappingScheme::pim_optimized(t, &arch, 2, HUGE_PAGE_BITS).unwrap();
        // Within a chunk row (256 B) only columns advance.
        let a0 = s.map_pa(0);
        let a1 = s.map_pa(224);
        assert_eq!(a1.row, a0.row);
        assert_eq!(a1.column, 7);
        // After MapID=2 row bits (4 chunk-rows x 256 B = 1 KB steps), the next
        // 3 PA bits are again column bits (chunk row index).
        let a_cr = s.map_pa(256 << 2);
        assert_eq!(a_cr.row, a0.row);
        assert_eq!(a_cr.column, 8, "chunk-row bits are the high column bits");
    }

    #[test]
    fn high_bits_identical_across_schemes() {
        // PA bits above the page offset must behave identically under the
        // conventional and every PIM-optimized scheme (they are the page
        // frame number).
        let t = iphone_topo();
        let arch = PimArch::aim(&t);
        let conv = MappingScheme::conventional(t);
        let in_page = MappingScheme::in_page_row_bits(&t, HUGE_PAGE_BITS).unwrap();
        for map_id in 0..=in_page as u8 {
            let pim = MappingScheme::pim_optimized(t, &arch, map_id, HUGE_PAGE_BITS).unwrap();
            for pa in [0u64, 5 * 32, 77 * 2048] {
                let delta = 1u64 << HUGE_PAGE_BITS;
                let (c0, c1) = (conv.map_pa(pa), conv.map_pa(pa + delta));
                let (p0, p1) = (pim.map_pa(pa), pim.map_pa(pa + delta));
                assert_eq!(c1.row - c0.row, p1.row - p0.row, "MapID {map_id}");
                assert_eq!(c1.channel, c0.channel);
                assert_eq!(p1.channel, p0.channel);
            }
        }
    }

    #[test]
    fn max_map_id_bound_matches_paper_worst_case() {
        // Single channel/rank, 8-bank mode, 2 MB pages, 32 B transfers:
        // log2(2MB / (8 * 32B)) = 13 (paper Section IV-B).
        let t = Topology::new(1, 1, 2, 4, 1 << 18, 2048, 32);
        assert_eq!(max_map_id_bound(&t, HUGE_PAGE_BITS), 13);
    }

    #[test]
    fn in_page_rows_plus_columns_is_loose_bound() {
        for t in [jetson_topo(), iphone_topo()] {
            let tight = MappingScheme::in_page_row_bits(&t, HUGE_PAGE_BITS).unwrap();
            assert_eq!(tight + t.column_bits(), max_map_id_bound(&t, HUGE_PAGE_BITS));
        }
    }

    #[test]
    fn map_id_out_of_range_rejected() {
        let t = iphone_topo();
        let arch = PimArch::aim(&t);
        let max = MappingScheme::in_page_row_bits(&t, HUGE_PAGE_BITS).unwrap() as u8;
        assert!(MappingScheme::pim_optimized(t, &arch, max, HUGE_PAGE_BITS).is_ok());
        let err = MappingScheme::pim_optimized(t, &arch, max + 1, HUGE_PAGE_BITS).unwrap_err();
        assert!(matches!(err, FacilError::MapIdOutOfRange { .. }));
    }

    #[test]
    fn interleaving_must_fit_page_offset() {
        // A huge topology where channel+rank+bank+column+tx exceeds a 4 KB
        // page: the 4 KB page offset cannot hold the interleaving bits.
        let t = jetson_topo();
        let arch = PimArch::aim(&t);
        let err = MappingScheme::pim_optimized(t, &arch, 0, 12).unwrap_err();
        assert!(matches!(err, FacilError::InvalidMapping(_)));
    }

    #[test]
    fn pim_roundtrip_all_mapids() {
        let t = iphone_topo();
        for arch in [PimArch::aim(&t), PimArch::hbm_pim(&t)] {
            let max = MappingScheme::in_page_row_bits(&t, HUGE_PAGE_BITS).unwrap() as u8;
            for map_id in 0..=max {
                let s = MappingScheme::pim_optimized(t, &arch, map_id, HUGE_PAGE_BITS).unwrap();
                for i in 0..2048u64 {
                    let pa = i * 997 * 32 % t.capacity_bytes();
                    let pa = pa & !31;
                    assert_eq!(s.unmap(s.map_pa(pa)), pa, "{arch:?} map_id={map_id} pa={pa:#x}");
                }
            }
        }
    }

    #[test]
    fn display_shows_bit_layout() {
        let t = iphone_topo();
        let s = MappingScheme::conventional(t);
        let txt = s.to_string();
        assert!(txt.contains("conventional"));
        assert!(txt.contains("tx[4:0]"));
        assert!(txt.contains("ch["));
        let arch = PimArch::aim(&t);
        let p = MappingScheme::pim_optimized(t, &arch, 1, HUGE_PAGE_BITS).unwrap();
        assert!(p.to_string().contains("MapID=1"));
    }

    #[test]
    fn dump_annotates_every_pa_bit_msb_first() {
        let t = iphone_topo();
        let arch = PimArch::aim(&t);
        let s = MappingScheme::pim_optimized(t, &arch, 2, HUGE_PAGE_BITS).unwrap();
        let d = s.dump();
        let lines: Vec<&str> = d.lines().collect();
        // Header + one line per (non-zero-width) segment.
        assert_eq!(lines.len(), 1 + s.segments().len());
        assert!(lines[0].contains("AiM MapID=2"));
        assert!(lines[0].contains("4ch x 2rk x 16ba"));
        assert!(lines[0].contains("bank hash off"));
        // MSB first: the top row bits above the page offset...
        assert!(lines[1].contains("pa[31:21] -> row[13:3]"), "{d}");
        // ...and the LSB line is the transfer offset.
        assert!(lines.last().unwrap().contains("pa[4:0]"), "{d}");
        assert!(lines.last().unwrap().contains("tx[4:0]"), "{d}");
        // The MapID=2 row bits sit directly above the chunk-column bits.
        assert!(d.contains("pa[12:11] -> row[1:0]"), "{d}");
        // Single-bit segments collapse the range notation.
        assert!(d.contains("pa[17]"), "{d}");
        assert!(d.contains("rk[0]"), "{d}");
        // Hash state is reflected.
        assert!(s.with_bank_hash().dump().contains("bank hash on"));
    }

    #[test]
    fn dump_covers_pa_bits_contiguously() {
        let t = jetson_topo();
        for scheme in [
            MappingScheme::conventional(t),
            MappingScheme::pim_optimized(t, &PimArch::aim(&t), 1, HUGE_PAGE_BITS).unwrap(),
        ] {
            let d = scheme.dump();
            // Parse the pa spans back out and check they tile [0, pa_bits).
            let mut bits = vec![false; t.pa_bits() as usize];
            for line in d.lines().skip(1) {
                let span = line.trim().split(" -> ").next().unwrap();
                let inner = span.trim_start_matches("pa[").trim_end().trim_end_matches(']');
                let (hi, lo) = match inner.split_once(':') {
                    Some((h, l)) => (h.parse::<usize>().unwrap(), l.parse::<usize>().unwrap()),
                    None => {
                        let b = inner.parse::<usize>().unwrap();
                        (b, b)
                    }
                };
                for (b, seen) in bits.iter_mut().enumerate().take(hi + 1).skip(lo) {
                    assert!(!*seen, "pa bit {b} listed twice:\n{d}");
                    *seen = true;
                }
            }
            assert!(bits.iter().all(|&b| b), "pa bits missing from dump:\n{d}");
        }
    }

    #[test]
    fn bank_hash_keeps_bijectivity() {
        let t = iphone_topo();
        for scheme in [
            MappingScheme::conventional(t).with_bank_hash(),
            MappingScheme::pim_optimized(t, &PimArch::aim(&t), 1, HUGE_PAGE_BITS)
                .unwrap()
                .with_bank_hash(),
        ] {
            assert!(scheme.bank_hash());
            for i in 0..4096u64 {
                let pa = ((i * 977 * 32) % t.capacity_bytes()) & !31;
                let da = scheme.map_pa(pa);
                assert!(da.is_valid(&t));
                assert_eq!(scheme.unmap(da), pa, "{}", scheme.label());
            }
        }
    }

    #[test]
    fn bank_hash_spreads_same_bank_strides() {
        // A stride that hits one bank under the plain conventional mapping
        // spreads across banks once hashed.
        let t = iphone_topo();
        let plain = MappingScheme::conventional(t);
        let hashed = MappingScheme::conventional(t).with_bank_hash();
        // Stride of one full row group: same (ch, bank, col), row+1.
        let stride = t.capacity_bytes() / t.rows;
        let banks_plain: std::collections::HashSet<u64> =
            (0..16).map(|i| plain.map_pa(i * stride).bank).collect();
        let banks_hashed: std::collections::HashSet<u64> =
            (0..16).map(|i| hashed.map_pa(i * stride).bank).collect();
        assert_eq!(banks_plain.len(), 1, "pathological stride hits one bank");
        assert!(banks_hashed.len() > 4, "hash spreads it: {banks_hashed:?}");
    }

    #[test]
    fn from_segments_rejects_wrong_widths() {
        let t = iphone_topo();
        let bad = vec![Segment { field: Field::Tx, width: t.tx_bits() }];
        assert!(matches!(
            MappingScheme::from_segments(t, bad, "bad"),
            Err(FacilError::InvalidMapping(_))
        ));
    }

    #[test]
    fn chunk_cols_consistency() {
        let t = iphone_topo();
        assert_eq!(PimArch::aim(&t).chunk_cols(DType::F16), 1024);
    }
}
