//! Mapping explorer: for every platform and every weight of its model,
//! show what the FACIL selector decides — MapID, partitioning, the exact
//! PA-bit layout — and verify the placement properties of paper
//! Section II-C hold by tracing a row-capped copy of the weight.
//!
//! Run with: `cargo run --release --example mapping_explorer`

use facil::core::{
    max_map_id_bound, DType, FacilSystem, MappingScheme, MatrixConfig, HUGE_PAGE_BITS,
};
use facil::llm::ModelConfig;
use facil::pim::CommandSequence;
use facil::soc::{Platform, PlatformId};

fn main() {
    for id in PlatformId::all() {
        let platform = Platform::get(id);
        let topo = platform.dram.topology;
        let model = ModelConfig::by_name(platform.model_name);
        println!(
            "\n=== {} ({}, {} channels x {} ranks x {} banks) ===",
            id,
            platform.dram.kind,
            topo.channels,
            topo.ranks,
            topo.banks()
        );
        println!(
            "page-offset row bits available: {} | paper max-MapID bound: {}",
            MappingScheme::in_page_row_bits(&topo, HUGE_PAGE_BITS).unwrap(),
            max_map_id_bound(&topo, HUGE_PAGE_BITS)
        );
        println!("conventional: {}", MappingScheme::conventional(topo));

        let mut sys = FacilSystem::new(platform.dram.clone(), platform.pim_arch);
        let mut seen = std::collections::BTreeSet::new();
        for (op, _) in model.all_linears() {
            // The decision depends on the column count only; trace a copy
            // capped at 1024 rows rather than every row of the weight.
            let rows = op.out_features.min(1024);
            let alloc = sys
                .pimalloc(MatrixConfig::new(rows, op.in_features, DType::F16))
                .expect("mappable");
            let seq = CommandSequence::trace(&sys, &alloc).expect("placement invariants hold");
            let d = &alloc.decision;
            println!(
                "  {:<10} {:>14}  -> MapID {} | partitions {} | {} waves over {} rows | {}",
                op.name,
                format!("{}x{}", op.out_features, op.in_features),
                d.map_id.0,
                d.partitions,
                seq.waves().len(),
                rows,
                if seen.insert(d.map_id) { "new frontend slot" } else { "shares slot" },
            );
            if seen.len() == 1 {
                println!("             layout: {}", d.scheme);
            }
            sys.free(&alloc).expect("live allocation");
        }
        println!(
            "  distinct MapIDs for the whole model: {} (fits the paper's 4-slot mux: {})",
            seen.len(),
            seen.len() <= 3
        );
    }
}
