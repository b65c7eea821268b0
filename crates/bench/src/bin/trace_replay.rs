//! Replay a physical-address trace file through a chosen PA-to-DA mapping
//! on the cycle-level DRAM simulator and report bandwidth, row-buffer and
//! energy statistics.
//!
//! Usage:
//! ```text
//! trace_replay <trace-file> [--platform jetson|macbook|ideapad|iphone]
//!              [--mapping conventional|hashed|pim:<mapid>]
//!              [--json] [--out <path>] [--trace <path>]
//! ```
//! Trace format: one access per line, `R <addr>` or `W <addr>` (decimal or
//! 0x-hex); `#` starts a comment. Without a file argument a built-in demo
//! trace is used. `--trace <path>` re-exports the scheduled DRAM commands
//! as a Chrome/Perfetto trace with one track per bank.

use facil_bench::BenchCli;
use facil_core::{MappingScheme, HUGE_PAGE_BITS};
use facil_dram::{parse_trace, replay_on, DramSystem, EnergyModel, TraceEntry};
use facil_soc::{Platform, PlatformId};
use facil_telemetry::{RingSink, RunManifest};

fn platform_by_name(name: &str) -> PlatformId {
    match name {
        "jetson" => PlatformId::Jetson,
        "macbook" => PlatformId::Macbook,
        "ideapad" => PlatformId::Ideapad,
        "iphone" => PlatformId::Iphone,
        other => {
            eprintln!("unknown platform {other:?} (jetson|macbook|ideapad|iphone)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let (cli, rest) = BenchCli::parse();
    let mut file = None;
    let mut platform = PlatformId::Iphone;
    let mut mapping = "conventional".to_string();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--platform" => {
                platform = platform_by_name(it.next().map(String::as_str).unwrap_or(""))
            }
            "--mapping" => mapping = it.next().cloned().unwrap_or_default(),
            "--help" | "-h" => {
                println!(
                    "trace_replay <trace-file> [--platform P] \
                     [--mapping conventional|hashed|pim:<id>] [--json] [--out PATH] \
                     [--trace PATH]"
                );
                return;
            }
            other => file = Some(other.to_string()),
        }
    }

    let p = Platform::get(platform);
    let trace: Vec<TraceEntry> = match &file {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            parse_trace(&text).unwrap_or_else(|(line, msg)| {
                eprintln!("{path}:{line}: {msg}");
                std::process::exit(2);
            })
        }
        None => {
            if !cli.json {
                println!("(no trace file given; replaying a built-in 1 MB sequential demo trace)");
            }
            facil_dram::sequential_trace(0, 32768, 32, facil_dram::Op::Read)
        }
    };
    if trace.is_empty() {
        eprintln!("trace is empty");
        std::process::exit(2);
    }

    let scheme = match mapping.as_str() {
        "conventional" => MappingScheme::conventional(p.dram.topology),
        "hashed" => MappingScheme::conventional(p.dram.topology).with_bank_hash(),
        m if m.starts_with("pim:") => {
            let id: u8 = m[4..].parse().unwrap_or_else(|_| {
                eprintln!("bad MapID in {m:?}");
                std::process::exit(2);
            });
            MappingScheme::pim_optimized(p.dram.topology, &p.pim_arch, id, HUGE_PAGE_BITS)
                .unwrap_or_else(|e| {
                    eprintln!("cannot build PIM mapping: {e}");
                    std::process::exit(2);
                })
        }
        other => {
            eprintln!("unknown mapping {other:?}");
            std::process::exit(2);
        }
    };

    let accesses = trace.len();
    let mut sys = DramSystem::new(&p.dram);
    if cli.wants_trace() {
        sys.enable_logging();
    }
    let res = replay_on(&mut sys, &scheme, trace).unwrap_or_else(|e| {
        eprintln!("trace replay failed: {e}");
        std::process::exit(2);
    });
    if cli.wants_trace() {
        let mut sink = RingSink::new(1 << 20);
        sys.export_trace(&mut sink);
        cli.write_trace(&sink);
    }
    let energy = EnergyModel::default().energy(&p.dram, &res.stats, res.elapsed_ns);
    let utilization = res.utilization(p.dram.peak_bandwidth_bytes_per_sec());

    if !cli.json {
        println!("platform : {} ({})", p.id, p.dram.kind);
        println!("mapping  : {scheme}");
        println!("accesses : {accesses}");
        println!("elapsed  : {:.3} us", res.elapsed_ns / 1e3);
        println!(
            "bandwidth: {:.2} GB/s ({:.1}% of peak)",
            res.bandwidth_bytes_per_sec / 1e9,
            utilization * 100.0
        );
        println!(
            "rows     : {} hits / {} misses / {} conflicts (hit rate {:.1}%)",
            res.stats.row_hits,
            res.stats.row_misses,
            res.stats.row_conflicts,
            res.stats.hit_rate() * 100.0
        );
        println!(
            "commands : {} ACT, {} PRE, {} REF",
            res.stats.activates, res.stats.precharges, res.stats.refreshes
        );
        println!("energy   : {:.1} uJ total ({:.1} uJ interface)", energy.total_uj(), energy.io_uj);
    }

    let mut manifest = RunManifest::new("trace_replay", cli.seed_or(0));
    manifest
        .config_str("platform", &p.id.to_string())
        .config_str("mapping", &scheme.to_string())
        .config_uint("accesses", accesses as u64);
    manifest
        .result_num("elapsed_us", res.elapsed_ns / 1e3)
        .result_num("bandwidth_gbps", res.bandwidth_bytes_per_sec / 1e9)
        .result_num("utilization", utilization)
        .result_num("hit_rate", res.stats.hit_rate())
        .result_uint("activates", res.stats.activates)
        .result_num("energy_uj", energy.total_uj());
    cli.emit_manifest(&manifest);
}
