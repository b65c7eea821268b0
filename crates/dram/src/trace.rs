//! Physical-address trace replay: map a PA stream through an
//! [`AddressMapper`] and schedule it on the DRAM backend.

use crate::command::{Op, Request};
use crate::controller::DramSystem;
use crate::mapper::{AddressMapper, MapFault};
use crate::spec::DramSpec;
use crate::stats::SimResult;

/// One entry of a physical-address trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Physical byte address (interpreted at transfer granularity).
    pub pa: u64,
    /// Read or write.
    pub op: Op,
}

impl TraceEntry {
    /// A read of the transfer containing `pa`.
    pub fn read(pa: u64) -> Self {
        TraceEntry { pa, op: Op::Read }
    }
    /// A write of the transfer containing `pa`.
    pub fn write(pa: u64) -> Self {
        TraceEntry { pa, op: Op::Write }
    }
}

/// Replay `trace` through `mapper` on a fresh backend for `spec` and return
/// the schedule statistics.
///
/// Duplicate physical addresses are allowed (they model re-reads). Every
/// request arrives at cycle 0, modelling a fully memory-bound requester;
/// the trace order is the queue order.
///
/// # Errors
///
/// Propagates the first [`MapFault`] the mapper raises (e.g. an unmapped
/// virtual address in a VA-level trace).
pub fn run_trace<M: AddressMapper>(
    spec: &DramSpec,
    mapper: &M,
    trace: impl IntoIterator<Item = TraceEntry>,
) -> Result<SimResult, MapFault> {
    let mut sys = DramSystem::new(spec);
    replay_on(&mut sys, mapper, trace)
}

/// Like [`run_trace`], but on a caller-constructed backend — so the caller
/// can [`DramSystem::enable_logging`] first and
/// [`DramSystem::export_trace`] afterwards.
///
/// # Errors
///
/// Propagates the first [`MapFault`] the mapper raises; already-pushed
/// requests stay queued on `sys` in that case.
///
/// # Panics
///
/// Panics if the mapper produces an address out of range for `sys`'s
/// topology (see [`DramSystem::push`]).
pub fn replay_on<M: AddressMapper>(
    sys: &mut DramSystem,
    mapper: &M,
    trace: impl IntoIterator<Item = TraceEntry>,
) -> Result<SimResult, MapFault> {
    for e in trace {
        sys.push(Request { addr: mapper.map(e.pa)?, op: e.op, arrival: 0 });
    }
    Ok(sys.run())
}

/// Parse one line of a text trace: `R <addr>` or `W <addr>`, where the
/// address is decimal or `0x`-prefixed hex. Blank lines and lines starting
/// with `#` yield `Ok(None)`.
///
/// # Errors
///
/// Returns a description of the malformed line.
pub fn parse_trace_line(line: &str) -> std::result::Result<Option<TraceEntry>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let op = match parts.next() {
        Some("R") | Some("r") => Op::Read,
        Some("W") | Some("w") => Op::Write,
        Some(other) => return Err(format!("expected R or W, got {other:?}")),
        None => return Ok(None),
    };
    let addr = parts.next().ok_or_else(|| "missing address".to_string())?;
    let pa = if let Some(hex) = addr.strip_prefix("0x").or_else(|| addr.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex address {addr:?}: {e}"))?
    } else {
        addr.parse::<u64>().map_err(|e| format!("bad address {addr:?}: {e}"))?
    };
    if parts.next().is_some() {
        return Err(format!("trailing tokens in line {line:?}"));
    }
    Ok(Some(TraceEntry { pa, op }))
}

/// Parse a whole text trace (one access per line; `#` comments allowed).
///
/// # Errors
///
/// Returns `(line number, description)` of the first malformed line.
pub fn parse_trace(text: &str) -> std::result::Result<Vec<TraceEntry>, (usize, String)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if let Some(e) = parse_trace_line(line).map_err(|m| (i + 1, m))? {
            out.push(e);
        }
    }
    Ok(out)
}

/// Generate a sequential trace of `n` transfers starting at `base`
/// (convenience for bandwidth measurements).
pub fn sequential_trace(base: u64, n: u64, transfer_bytes: u64, op: Op) -> Vec<TraceEntry> {
    (0..n).map(|i| TraceEntry { pa: base + i * transfer_bytes, op }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DramAddress;
    use crate::mapper::FnMapper;

    /// A simple conventional-style mapper for tests: channel and bank bits
    /// directly above the transfer offset, then column, rank, row.
    fn test_mapper(spec: &DramSpec) -> impl AddressMapper + '_ {
        let t = spec.topology;
        FnMapper(move |pa: u64| {
            let mut x = pa >> t.tx_bits();
            let mut take = |bits: u32| {
                let v = x & ((1 << bits) - 1);
                x >>= bits;
                v
            };
            DramAddress {
                channel: take(t.channel_bits()),
                bank: take(t.bank_bits()),
                column: take(t.column_bits()),
                rank: take(t.rank_bits()),
                row: take(t.row_bits()) % t.rows,
            }
        })
    }

    #[test]
    fn trace_parser_roundtrip() {
        let text = "# comment\nR 0x1000\nW 4096\n\nr 0X20\nw 7\n";
        let t = parse_trace(text).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], TraceEntry::read(0x1000));
        assert_eq!(t[1], TraceEntry::write(4096));
        assert_eq!(t[2], TraceEntry::read(0x20));
        assert_eq!(t[3], TraceEntry::write(7));
    }

    #[test]
    fn trace_parser_rejects_garbage() {
        assert!(parse_trace("R 0x10\nX 5\n").unwrap_err().0 == 2);
        assert!(parse_trace_line("R").is_err());
        assert!(parse_trace_line("R 0xZZ").is_err());
        assert!(parse_trace_line("R 1 2").is_err());
        assert_eq!(parse_trace_line("  ").unwrap(), None);
    }

    #[test]
    fn sequential_read_bandwidth_is_near_peak() {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30); // 4 channels
        let mapper = test_mapper(&spec);
        let trace = sequential_trace(0, 16384, spec.topology.transfer_bytes, Op::Read);
        let res = run_trace(&spec, &mapper, trace).unwrap();
        let util = res.utilization(spec.peak_bandwidth_bytes_per_sec());
        assert!(util > 0.85, "sequential read utilization {util:.3} too low");
    }

    #[test]
    fn random_trace_is_slower_than_sequential() {
        let spec = DramSpec::lpddr5_6400(16, 256 << 20);
        let mapper = test_mapper(&spec);
        let n = 2048u64;
        let seq = sequential_trace(0, n, 32, Op::Read);
        // Deterministic pseudo-random PAs: large multiplicative stride.
        let cap = spec.capacity_bytes();
        let rnd: Vec<_> = (0..n)
            .map(|i| TraceEntry::read((i.wrapping_mul(0x9E3779B97F4A7C15) % cap) & !31))
            .collect();
        let s = run_trace(&spec, &mapper, seq).unwrap();
        let r = run_trace(&spec, &mapper, rnd).unwrap();
        assert!(
            r.bandwidth_bytes_per_sec < s.bandwidth_bytes_per_sec,
            "random ({:.2e}) should be slower than sequential ({:.2e})",
            r.bandwidth_bytes_per_sec,
            s.bandwidth_bytes_per_sec
        );
        assert!(r.stats.hit_rate() < s.stats.hit_rate());
    }

    #[test]
    fn replay_on_matches_run_trace_and_supports_logging() {
        let spec = DramSpec::lpddr5_6400(16, 256 << 20);
        let mapper = test_mapper(&spec);
        let trace = sequential_trace(0, 64, 32, Op::Read);
        let plain = run_trace(&spec, &mapper, trace.clone()).unwrap();
        let mut sys = DramSystem::new(&spec);
        sys.enable_logging();
        let logged = replay_on(&mut sys, &mapper, trace).unwrap();
        assert_eq!(plain, logged);
        let commands: usize = sys.logs().iter().map(|l| l.len()).sum();
        assert!(commands >= 64, "expected at least one command per access, got {commands}");
    }
}
