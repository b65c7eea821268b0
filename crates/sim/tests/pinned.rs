//! Byte-identity pins of the cost model: the FNV-1a digest of the four
//! stock platforms' DRAM-simulated `RelayoutProfile` bits, and the digest
//! of every strategy cost `InferenceSim` prices on those platforms.
//!
//! `facil-dram`'s schedule pin covers one 2-channel stream with staggered
//! arrivals. A re-layout slice is a different shape of the same FR-FCFS
//! decision: every request arrives at cycle 0, the platforms span 4 to 32
//! channels, reads and writes go through two different mappings, and the
//! window's span holds many already-completed requests. Any change to which
//! command issues when moves a profile, and so this digest. It holds in
//! debug and release builds alike.

use facil_sim::{InferenceSim, RelayoutModel, Strategy};
use facil_soc::Platform;
use facil_telemetry::json::fnv1a;
use facil_workloads::Query;

/// Digest of the `to_bits()` of every profile field, platform by platform.
const PINNED: u64 = 0x4739_baf3_2958_57b9;

/// Bytes of the simulated slice: small enough for a debug test run.
const SAMPLE_BYTES: u64 = 256 << 10;

#[test]
fn relayout_profiles_are_pinned_on_every_platform() {
    let mut bytes = Vec::new();
    for platform in Platform::all() {
        let p = RelayoutModel::new(platform.dram, platform.pim_arch)
            .with_sample_bytes(SAMPLE_BYTES)
            .profile();
        for v in [p.ns_per_byte, p.copy_bandwidth, p.efficiency] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let got = fnv1a(&bytes);
    assert_eq!(got, PINNED, "re-layout profile digest moved to {got:#018x}");
}

/// Digest of every strategy cost below, platform by platform.
const COSTS_PINNED: u64 = 0xd8b0_9554_d224_a5d8;

/// Prefill lengths: one token, odd lengths, one past a chunk boundary (a
/// one-token last chunk) and the longest prompt the figures sweep.
const PREFILLS: [u64; 7] = [1, 2, 7, 64, 65, 300, 2048];

/// Chunk sizes, the last one whole-prefill.
const CHUNKS: [u64; 5] = [1, 16, 64, 512, u64::MAX];

fn put(bytes: &mut Vec<u8>, v: f64) {
    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Every prefill chunk (healthy and degraded), whole prefill, query and
/// decode batch (healthy and degraded) of every strategy on every stock
/// platform, each cost's `to_bits()` hashed. Any change to how a strategy
/// is priced moves the digest; it holds in debug and release builds alike.
#[test]
fn strategy_costs_are_pinned() {
    let queries = [(1, 0), (2, 1), (16, 16), (64, 64), (300, 7), (2048, 3)];
    let batches: [&[u64]; 3] = [&[1], &[17, 64, 4096], &[1, 2, 100, 511, 512, 1000, 2048, 4096]];
    let mut bytes = Vec::new();
    for platform in Platform::all() {
        let sim = InferenceSim::new(platform).expect("stock platforms fit their model");
        for strategy in Strategy::all() {
            put(&mut bytes, sim.degraded_relayout_ns(strategy));
            for p in PREFILLS {
                let (ttft, relayout, on_pim) = sim.prefill_ns(strategy, p);
                put(&mut bytes, ttft);
                put(&mut bytes, relayout);
                bytes.push(u8::from(on_pim));
                for chunk in CHUNKS.into_iter().filter(|&c| c == u64::MAX || c < p) {
                    if chunk == 1 && p > 65 {
                        continue;
                    }
                    let mut start = 0;
                    while start < p {
                        let len = chunk.min(p - start);
                        for degraded in [false, true] {
                            put(
                                &mut bytes,
                                sim.prefill_chunk_ns(strategy, degraded, start, len, p),
                            );
                        }
                        start += len;
                    }
                }
            }
            for (prefill, decode) in queries {
                let r = sim.run_query(strategy, Query { prefill, decode });
                for v in [r.ttft_ns, r.ttlt_ns, r.relayout_ns] {
                    put(&mut bytes, v);
                }
                bytes.push(u8::from(r.prefill_on_pim));
            }
            for ctxs in batches {
                for degraded in [false, true] {
                    put(&mut bytes, sim.decode_batch_ns(strategy, degraded, ctxs));
                }
            }
        }
    }
    let got = fnv1a(&bytes);
    assert_eq!(got, COSTS_PINNED, "strategy cost digest moved to {got:#018x}");
}
