//! DRAM geometry ([`Topology`]) and decoded device addresses ([`DramAddress`]).

/// Geometry of a DRAM memory system.
///
/// All dimensions must be powers of two so that physical-address bits can be
/// assigned to fields exactly (the FACIL mapping formulation operates on bit
/// positions; see `facil-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Number of independent channels.
    pub channels: u64,
    /// Ranks per channel.
    pub ranks: u64,
    /// Bank groups per rank.
    pub bank_groups: u64,
    /// Banks per bank group.
    pub banks_per_group: u64,
    /// Rows per bank.
    pub rows: u64,
    /// Row buffer size in bytes (2048 for LPDDR5).
    pub row_bytes: u64,
    /// Bytes moved by one column access (32 for LPDDR5 BL16 x16).
    pub transfer_bytes: u64,
}

impl Topology {
    /// Create a topology, validating that every dimension is a power of two.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or not a power of two, or if the row
    /// size is not a multiple of the transfer size.
    pub fn new(
        channels: u64,
        ranks: u64,
        bank_groups: u64,
        banks_per_group: u64,
        rows: u64,
        row_bytes: u64,
        transfer_bytes: u64,
    ) -> Self {
        for (name, v) in [
            ("channels", channels),
            ("ranks", ranks),
            ("bank_groups", bank_groups),
            ("banks_per_group", banks_per_group),
            ("rows", rows),
            ("row_bytes", row_bytes),
            ("transfer_bytes", transfer_bytes),
        ] {
            assert!(v > 0 && v.is_power_of_two(), "{name} must be a nonzero power of two, got {v}");
        }
        assert!(
            row_bytes.is_multiple_of(transfer_bytes),
            "row size must be a multiple of the transfer size"
        );
        Topology { channels, ranks, bank_groups, banks_per_group, rows, row_bytes, transfer_bytes }
    }

    /// Banks per rank (bank groups x banks per group).
    pub fn banks(&self) -> u64 {
        self.bank_groups * self.banks_per_group
    }

    /// Total number of banks in the memory system
    /// (channels x ranks x banks per rank) — the `total bank count` of the
    /// paper's max-MapID formula.
    pub fn total_banks(&self) -> u64 {
        self.channels * self.ranks * self.banks()
    }

    /// Column transfers per row.
    pub fn columns(&self) -> u64 {
        self.row_bytes / self.transfer_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.channels * self.ranks * self.banks() * self.rows * self.row_bytes
    }

    /// log2 of the channel count.
    pub fn channel_bits(&self) -> u32 {
        self.channels.trailing_zeros()
    }
    /// log2 of the rank count.
    pub fn rank_bits(&self) -> u32 {
        self.ranks.trailing_zeros()
    }
    /// log2 of the per-rank bank count.
    pub fn bank_bits(&self) -> u32 {
        self.banks().trailing_zeros()
    }
    /// log2 of the per-bank row count.
    pub fn row_bits(&self) -> u32 {
        self.rows.trailing_zeros()
    }
    /// log2 of the column-transfer count per row.
    pub fn column_bits(&self) -> u32 {
        self.columns().trailing_zeros()
    }
    /// log2 of the transfer size in bytes.
    pub fn tx_bits(&self) -> u32 {
        self.transfer_bytes.trailing_zeros()
    }
    /// Total physical address bits covered by the topology.
    pub fn pa_bits(&self) -> u32 {
        self.channel_bits()
            + self.rank_bits()
            + self.bank_bits()
            + self.row_bits()
            + self.column_bits()
            + self.tx_bits()
    }
}

/// A fully decoded DRAM device address.
///
/// `bank` is the flat bank index within a rank; `bank_group` can be derived
/// via [`DramAddress::bank_group`] given a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramAddress {
    /// Channel index.
    pub channel: u64,
    /// Rank index within the channel.
    pub rank: u64,
    /// Flat bank index within the rank (bank-group bits are the high bits).
    pub bank: u64,
    /// Row index within the bank.
    pub row: u64,
    /// Column transfer index within the row.
    pub column: u64,
}

impl DramAddress {
    /// Bank group of this address under the given topology.
    pub fn bank_group(&self, topo: &Topology) -> u64 {
        self.bank / topo.banks_per_group
    }

    /// Check that every field is in range for the topology.
    pub fn is_valid(&self, topo: &Topology) -> bool {
        self.channel < topo.channels
            && self.rank < topo.ranks
            && self.bank < topo.banks()
            && self.row < topo.rows
            && self.column < topo.columns()
    }

    /// Flat bank index across the whole system, (channel, rank, bank)-major:
    /// `(channel × ranks + rank) × banks + bank`, in `0..total_banks()`.
    pub fn flat_bank(&self, topo: &Topology) -> u64 {
        (self.channel * topo.ranks + self.rank) * topo.banks() + self.bank
    }

    /// Flatten into a unique transfer index (useful as a map key and for
    /// bijectivity testing). The field order here is arbitrary but fixed.
    pub fn flat_index(&self, topo: &Topology) -> u64 {
        debug_assert!(self.is_valid(topo));
        (self.flat_bank(topo) * topo.rows + self.row) * topo.columns() + self.column
    }
}

impl std::fmt::Display for DramAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ch{} rk{} ba{} row{:#x} col{}",
            self.channel, self.rank, self.bank, self.row, self.column
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(16, 2, 4, 4, 65536, 2048, 32)
    }

    #[test]
    fn bit_accounting_covers_capacity() {
        let t = topo();
        assert_eq!(1u64 << t.pa_bits(), t.capacity_bytes());
        assert_eq!(t.capacity_bytes(), 64 << 30);
    }

    #[test]
    fn total_banks_matches_paper_formula_inputs() {
        let t = topo();
        assert_eq!(t.total_banks(), 16 * 2 * 16);
        assert_eq!(t.columns(), 64);
        assert_eq!(t.column_bits(), 6);
        assert_eq!(t.tx_bits(), 5);
    }

    #[test]
    fn flat_index_is_injective_on_sample() {
        let t = Topology::new(2, 2, 2, 2, 16, 256, 32);
        let mut seen = std::collections::HashSet::new();
        for channel in 0..t.channels {
            for rank in 0..t.ranks {
                for bank in 0..t.banks() {
                    for row in 0..t.rows {
                        for column in 0..t.columns() {
                            let a = DramAddress { channel, rank, bank, row, column };
                            assert!(a.is_valid(&t));
                            assert!(seen.insert(a.flat_index(&t)), "duplicate flat index for {a}");
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len() as u64, t.capacity_bytes() / t.transfer_bytes);
    }

    #[test]
    fn bank_group_derivation() {
        let t = topo();
        let a = DramAddress { channel: 0, rank: 0, bank: 13, row: 0, column: 0 };
        assert_eq!(a.bank_group(&t), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Topology::new(3, 2, 4, 4, 65536, 2048, 32);
    }

    #[test]
    fn invalid_address_detected() {
        let t = topo();
        let a = DramAddress { channel: 16, rank: 0, bank: 0, row: 0, column: 0 };
        assert!(!a.is_valid(&t));
    }

    #[test]
    fn display_is_nonempty() {
        let a = DramAddress { channel: 1, rank: 0, bank: 2, row: 3, column: 4 };
        assert!(!a.to_string().is_empty());
    }
}
