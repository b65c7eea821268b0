//! Byte-identity pin for the DRAM-simulated re-layout profiles: the FNV-1a
//! digest of the four stock platforms' `RelayoutProfile` bits.
//!
//! `facil-dram`'s schedule pin covers one 2-channel stream with staggered
//! arrivals. A re-layout slice is a different shape of the same FR-FCFS
//! decision: every request arrives at cycle 0, the platforms span 4 to 32
//! channels, reads and writes go through two different mappings, and the
//! window's span holds many already-completed requests. Any change to which
//! command issues when moves a profile, and so this digest. It holds in
//! debug and release builds alike.

use facil_sim::RelayoutModel;
use facil_soc::Platform;
use facil_telemetry::json::fnv1a;

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
