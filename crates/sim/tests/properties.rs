//! Property-based tests of the end-to-end strategy engine.

use facil_check::cases;
use facil_sim::{InferenceSim, Strategy};
use facil_soc::{Platform, PlatformId};
use facil_workloads::Query;
use std::sync::OnceLock;

/// One shared simulator (construction runs a DRAM simulation; reuse it).
fn sim() -> &'static InferenceSim {
    static SIM: OnceLock<InferenceSim> = OnceLock::new();
    SIM.get_or_init(|| InferenceSim::new(Platform::get(PlatformId::Iphone)).unwrap())
}

/// Structural invariants hold for every query under every strategy.
#[test]
fn query_results_are_well_formed() {
    cases(64, |g| {
        let (prefill, decode) = (g.u64(1..512), g.u64(0..128));
        let q = Query { prefill, decode };
        for strategy in Strategy::all() {
            let r = sim().run_query(strategy, q);
            assert!(r.ttft_ns > 0.0);
            assert!(r.ttlt_ns >= r.ttft_ns);
            assert!(r.relayout_ns >= 0.0);
            if decode == 0 {
                assert!((r.ttlt_ns - r.ttft_ns).abs() < 1.0);
            }
        }
    });
}

/// FACIL never loses TTFT to the hybrid-static baseline, and the
/// dynamic variants never lose to their static counterparts.
#[test]
fn facil_dominance() {
    cases(64, |g| {
        let prefill = g.u64(1..512);
        let q = Query { prefill, decode: 1 };
        let stat = sim().run_query(Strategy::HybridStatic, q);
        let facil = sim().run_query(Strategy::FacilStatic, q);
        let dyn_h = sim().run_query(Strategy::HybridDynamic, q);
        let dyn_f = sim().run_query(Strategy::FacilDynamic, q);
        assert!(facil.ttft_ns < stat.ttft_ns);
        assert!(dyn_h.ttft_ns <= stat.ttft_ns + 1.0);
        assert!(dyn_f.ttft_ns <= facil.ttft_ns + 1.0);
    });
}

/// TTFT is monotone in prefill length for every strategy.
#[test]
fn ttft_monotone_in_prefill() {
    cases(64, |g| {
        let (prefill, extra) = (g.u64(1..256), g.u64(1..256));
        for strategy in Strategy::all() {
            let a = sim().prefill_ns(strategy, prefill).0;
            let b = sim().prefill_ns(strategy, prefill + extra).0;
            assert!(b >= a * 0.999, "{strategy}: {a} -> {b}");
        }
    });
}

/// TTLT decomposes: prefill + sum of decode steps, and decode steps are
/// identical across PIM-decoding strategies.
#[test]
fn ttlt_decomposition() {
    cases(64, |g| {
        let (prefill, decode) = (g.u64(1..64), g.u64(1..32));
        let q = Query { prefill, decode };
        let a = sim().run_query(Strategy::HybridStatic, q);
        let b = sim().run_query(Strategy::FacilDynamic, q);
        let decode_a = a.ttlt_ns - a.ttft_ns;
        let decode_b = b.ttlt_ns - b.ttft_ns;
        assert!((decode_a - decode_b).abs() < 1.0, "{decode_a} vs {decode_b}");
        let manual: f64 = (0..decode)
            .map(|i| sim().decode_batch_ns(Strategy::FacilStatic, false, &[prefill + i]))
            .sum();
        assert!((decode_a - manual).abs() < 1.0);
    });
}
