//! End-to-end SoC-PIM cooperative inference: the five execution strategies
//! of the paper and their TTFT/TTLT accounting.
//!
//! The strategies differ in three choices only, each stated once as a
//! [`Strategy`] predicate: where decode GEMVs run, how the SoC reads weights
//! laid out for the PIM (as they are, after a re-layout, or in place at the
//! Table III slowdown), and whether short prefills offload to the PIM. Two
//! functions price everything from them: [`InferenceSim::prefill_chunk_ns`]
//! and [`InferenceSim::decode_batch_ns`].

use facil_core::{select_mapping_2mb, DType, MappingDecision, MatrixConfig};
use facil_llm::ModelConfig;
use facil_pim::PimEngine;
use facil_soc::Platform;
use facil_workloads::Query;

use crate::relayout::RelayoutModel;

/// Execution strategy for a query (paper Sections III, VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Everything on the SoC processor; weights in conventional layout.
    SocOnly,
    /// The paper's baseline ("hybrid static"): weights in PIM layout,
    /// prefill GEMMs on the SoC after an on-demand re-layout, decode on PIM.
    HybridStatic,
    /// "Hybrid dynamic": like the baseline, but short prefills run their
    /// GEMMs directly on the PIM (no re-layout), whichever is faster.
    HybridDynamic,
    /// FACIL as in Figs. 13/14: prefill GEMMs on the SoC *in place* over
    /// the PIM-optimized layout (Table III slowdown applied), decode on PIM.
    FacilStatic,
    /// FACIL with the dynamic prefill-offload optimization (the "FACIL" of
    /// Figs. 15/16).
    FacilDynamic,
}

impl Strategy {
    /// All strategies, baseline-first.
    pub fn all() -> [Strategy; 5] {
        [
            Strategy::SocOnly,
            Strategy::HybridStatic,
            Strategy::HybridDynamic,
            Strategy::FacilStatic,
            Strategy::FacilDynamic,
        ]
    }

    /// Whether decode GEMVs run on the PIM while it is up: every strategy
    /// but SoC-only.
    pub(crate) fn decodes_on_pim(self) -> bool {
        !matches!(self, Strategy::SocOnly)
    }

    /// Whether the SoC reads the PIM-laid-out weights only after re-laying
    /// them out to the conventional layout (the hybrid baselines). The
    /// re-layout is charged once per healthy prefill, and on entering and
    /// on leaving degraded mode.
    pub(crate) fn relayouts_for_soc(self) -> bool {
        matches!(self, Strategy::HybridStatic | Strategy::HybridDynamic)
    }

    /// Whether the SoC reads the PIM-laid-out weights in place, at the
    /// Table III GEMM slowdown (FACIL).
    pub(crate) fn soc_reads_in_place(self) -> bool {
        matches!(self, Strategy::FacilStatic | Strategy::FacilDynamic)
    }

    /// Whether short prefills may run their GEMMs on the PIM (the dynamic
    /// strategies). They do when the PIM is up and faster than the
    /// strategy's SoC path ([`InferenceSim::prefill_offloads_to_pim`]).
    pub(crate) fn may_offload_prefill(self) -> bool {
        matches!(self, Strategy::HybridDynamic | Strategy::FacilDynamic)
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::SocOnly => "SoC-only",
            Strategy::HybridStatic => "hybrid-static",
            Strategy::HybridDynamic => "hybrid-dynamic",
            Strategy::FacilStatic => "FACIL",
            Strategy::FacilDynamic => "FACIL+dynamic",
        };
        write!(f, "{s}")
    }
}

/// Timing result of one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryResult {
    /// Time to first token = prefill time (ns).
    pub ttft_ns: f64,
    /// Time to last token = prefill + all decode steps (ns).
    pub ttlt_ns: f64,
    /// Re-layout time included in the prefill (ns; 0 unless hybrid-*).
    pub relayout_ns: f64,
    /// Whether the prefill GEMMs ran on the PIM (dynamic offload).
    pub prefill_on_pim: bool,
}

/// Per-weight cached state.
#[derive(Debug, Clone)]
struct Weight {
    matrix: MatrixConfig,
    decision: MappingDecision,
    instances: u64,
    /// PIM GEMV time for one instance, ns, excluding dispatch overhead.
    pim_gemv_ns: f64,
}

/// The end-to-end simulator for one (platform, model) pair.
#[derive(Debug)]
pub struct InferenceSim {
    platform: Platform,
    model: ModelConfig,
    pim: PimEngine,
    relayout: RelayoutModel,
    weights: Vec<Weight>,
    /// Cached sum over weights of PIM GEMV x instances (no dispatch).
    pim_gemv_decode_ns: f64,
    /// Cached sum over weights of the dispatch overhead x instances.
    pim_dispatch_decode_ns: f64,
    /// Cached sum over weights of SoC GEMV x instances.
    soc_linear_decode_ns: f64,
}

impl InferenceSim {
    /// Build the simulator for a platform, using its Table II model.
    ///
    /// # Errors
    ///
    /// Propagates mapping-selection errors if a model weight cannot be
    /// placed on the platform's memory (cannot happen for the four presets).
    pub fn new(platform: Platform) -> facil_core::Result<Self> {
        let model = ModelConfig::by_name(platform.model_name);
        Self::with_model(platform, model)
    }

    /// Build the simulator with an explicit model.
    ///
    /// # Errors
    ///
    /// Propagates mapping-selection errors (unplaceable weight matrices).
    pub fn with_model(platform: Platform, model: ModelConfig) -> facil_core::Result<Self> {
        Self::with_model_and_dtype(platform, model, DType::F16)
    }

    /// Build the simulator with weight-only quantization: weights stored
    /// and streamed at `dtype`, activations/KV kept at the model precision.
    ///
    /// # Errors
    ///
    /// Propagates mapping-selection errors (unplaceable weight matrices).
    pub fn with_model_and_dtype(
        platform: Platform,
        model: ModelConfig,
        dtype: DType,
    ) -> facil_core::Result<Self> {
        let topo = platform.dram.topology;
        let arch = platform.pim_arch;
        Self::with_selector(platform, model, dtype, |matrix| {
            select_mapping_2mb(matrix, topo, &arch)
        })
    }

    /// Build the simulator with a pluggable mapping selector: every weight
    /// matrix's [`MappingDecision`] comes from `select` instead of the
    /// paper's closed-form rule. This is how a
    /// `facil_mapsearch::SearchReport` plugs its searched picks into the
    /// end-to-end simulation (`sim.with_selector(report.selector())`).
    ///
    /// # Errors
    ///
    /// Propagates selector errors (unplaceable weight matrices).
    pub fn with_selector(
        platform: Platform,
        model: ModelConfig,
        dtype: DType,
        select: impl Fn(&MatrixConfig) -> facil_core::Result<MappingDecision>,
    ) -> facil_core::Result<Self> {
        let pim = PimEngine::new(platform.dram.clone(), platform.pim_arch);
        let relayout = RelayoutModel::new(platform.dram.clone(), platform.pim_arch);
        let mut weights = Vec::new();
        for (op, instances) in model.all_linears() {
            let matrix = MatrixConfig::new(op.out_features, op.in_features, dtype);
            let decision = select(&matrix)?;
            let pim_gemv_ns = pim.gemv(&matrix, &decision).time_ns;
            weights.push(Weight { matrix, decision, instances, pim_gemv_ns });
        }
        let pim_gemv_decode_ns: f64 =
            weights.iter().map(|w| w.pim_gemv_ns * w.instances as f64).sum();
        let pim_dispatch_decode_ns: f64 =
            weights.iter().map(|w| platform.pim_op_overhead_ns * w.instances as f64).sum();
        let soc_linear_decode_ns = weights
            .iter()
            .map(|w| {
                platform.soc.gemv_ns(w.matrix.rows, w.matrix.cols, dtype.bytes())
                    * w.instances as f64
            })
            .sum();
        Ok(InferenceSim {
            platform,
            model,
            pim,
            relayout,
            weights,
            pim_gemv_decode_ns,
            pim_dispatch_decode_ns,
            soc_linear_decode_ns,
        })
    }

    /// The platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The model.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Total linear-weight bytes at the stored precision (the re-layout
    /// volume).
    pub fn weight_bytes(&self) -> u64 {
        self.weights.iter().map(|w| w.matrix.bytes() * w.instances).sum()
    }

    /// Re-layout time of all weights (the baseline's per-prefill penalty),
    /// ns. The first call simulates the representative slice only if no
    /// model in this process has simulated it for this memory system yet
    /// ([`RelayoutModel`]'s process-wide memo): the slice is simulated once
    /// per process per (spec, architecture, slice size), not once per
    /// `InferenceSim`.
    pub fn relayout_ns(&self) -> f64 {
        self.relayout.cost_ns(self.weight_bytes())
    }

    /// The re-layout `strategy` pays to make its weights SoC-readable, ns:
    /// on the first chunk of every healthy prefill, and as a stall when the
    /// PIM units fail and again when they recover — the paper's flexibility
    /// argument (§IV) made measurable.
    ///
    /// FACIL's PIM-optimized layout stays SoC-readable, so FACIL (and the
    /// SoC-only strategy, whose weights are conventional already) switch to
    /// the SoC path for free. A conventional PIM system's weights are *only*
    /// readable by the PIM datapath: before the SoC can serve, all weights
    /// must be re-laid-out to the conventional mapping — and converted back
    /// on recovery, which is why degraded mode charges it at both
    /// transitions.
    pub fn degraded_relayout_ns(&self, strategy: Strategy) -> f64 {
        if strategy.relayouts_for_soc() {
            self.relayout_ns()
        } else {
            0.0
        }
    }

    /// The SoC's GEMM/GEMV time factor over the layout `strategy` keeps its
    /// weights in: the Table III slowdown where it reads the PIM layout in
    /// place, 1 over a conventional layout.
    fn soc_layout_factor(&self, strategy: Strategy) -> f64 {
        if strategy.soc_reads_in_place() {
            1.0 + self.platform.gemm_layout_slowdown
        } else {
            1.0
        }
    }

    /// Attention + element-wise time of one decode step at context `ctx`,
    /// executed on the SoC under every strategy, ns.
    fn decode_epilogue_ns(&self, ctx: u64) -> f64 {
        let bytes = self.model.kv_read_bytes(ctx)
            + self.model.kv_write_bytes_per_token()
            + self.model.elementwise_bytes_per_token();
        self.platform.soc.stream_ns(bytes)
    }

    /// One *batched* decode iteration for in-flight requests at context
    /// lengths `ctxs` under `strategy`, ns (continuous batching,
    /// `facil-serve`); `degraded` means the PIM units are down. An empty
    /// batch costs 0; a batch of one is one decode step, which is how
    /// [`InferenceSim::run_query`] prices its steps.
    ///
    /// On the PIM (a PIM-decoding strategy while the PIM is up) the linears
    /// are weight-bound: each request needs its own GEMV pass over the
    /// weights (near-bank MACs consume one activation vector per pass), but
    /// the per-operation dispatch overhead (driver, DMA descriptor,
    /// synchronization) is paid once per weight op for the whole batch —
    /// the batched descriptor carries all activation vectors. On the SoC
    /// (SoC-only, or any strategy while degraded) the GEMV is
    /// bandwidth-bound on the weights, so batching amortizes nothing in this
    /// roofline model: the cost is the sum of the per-request steps, each at
    /// the strategy's layout factor (FACIL pays the Table III slowdown; the
    /// hybrid baselines read the conventional copy made on entering degraded
    /// mode). The per-request attention/element-wise epilogue runs on the
    /// SoC either way.
    // Inlined: `run_query` calls this once per decode step, and Figs. 15
    // and 16 take ~1.5x as long when it is not.
    #[inline]
    pub fn decode_batch_ns(&self, strategy: Strategy, degraded: bool, ctxs: &[u64]) -> f64 {
        if ctxs.is_empty() {
            return 0.0;
        }
        let epilogues = ctxs.iter().map(|&c| self.decode_epilogue_ns(c));
        if strategy.decodes_on_pim() && !degraded {
            self.pim_gemv_decode_ns * ctxs.len() as f64
                + self.pim_dispatch_decode_ns
                + epilogues.sum::<f64>()
        } else {
            let linears = self.soc_linear_decode_ns * self.soc_layout_factor(strategy);
            epilogues.map(|e| linears + e).sum()
        }
    }

    /// One decode step with *both* the linears and the attention
    /// score/value GEMVs on the PIM (AttAcc/NeuPIMs-style KV-cache
    /// offload — an extension beyond the paper, which keeps attention on
    /// the SoC). The KV cache streams at PIM internal bandwidth, but every
    /// layer pays two extra PIM dispatches (scores, values).
    pub fn decode_step_pim_attention_ns(&self, ctx: u64) -> f64 {
        let kv_bytes = self.model.kv_read_bytes(ctx) as f64;
        // KV tensors are small and freshly written: ~70% of the peak
        // internal bandwidth is achievable.
        let kv_stream = kv_bytes / (self.pim.peak_internal_bandwidth() * 0.7) * 1e9;
        let dispatches = 2.0 * self.model.layers as f64 * self.platform.pim_op_overhead_ns;
        let epilogue_bytes =
            self.model.kv_write_bytes_per_token() + self.model.elementwise_bytes_per_token();
        self.pim_gemv_decode_ns
            + self.pim_dispatch_decode_ns
            + kv_stream
            + dispatches
            + self.platform.soc.stream_ns(epilogue_bytes)
    }

    /// One decode step on a hypothetical ideal NPU: infinite FLOPS, 100% of
    /// peak bandwidth, no overheads (the comparator of paper Fig. 3).
    pub fn decode_step_ideal_npu_ns(&self, ctx: u64) -> f64 {
        let bytes = self.weight_bytes()
            + self.model.kv_read_bytes(ctx)
            + self.model.kv_write_bytes_per_token()
            + self.model.elementwise_bytes_per_token();
        bytes as f64 / self.platform.soc.peak_bw * 1e9
    }

    /// Linear time of a `len`-row prefill chunk on the PIM (GEMM as
    /// repeated MAC passes, plus dispatch) or on the SoC (conventional
    /// layout); the lm_head (vocab projection) runs for the last position
    /// only, so it is charged to the final chunk alone.
    fn prefill_linears_ns(&self, on_pim: bool, len: u64, last: bool) -> f64 {
        self.weights
            .iter()
            .map(|w| {
                let m = if w.matrix.rows != self.model.vocab {
                    len
                } else if last {
                    1
                } else {
                    return 0.0;
                };
                let one = if on_pim {
                    self.pim.gemm(&w.matrix, &w.decision, m).time_ns
                        + self.platform.pim_op_overhead_ns
                } else {
                    let bytes = w.matrix.dtype.bytes();
                    self.platform.soc.gemm_ns(m, w.matrix.rows, w.matrix.cols, bytes)
                };
                one * w.instances as f64
            })
            .sum()
    }

    /// Linear time of a `len`-row prefill chunk on `strategy`'s SoC path:
    /// the GEMMs at its layout factor, then `relayout`.
    fn soc_prefill_ns(&self, strategy: Strategy, len: u64, last: bool, relayout: f64) -> f64 {
        self.prefill_linears_ns(false, len, last) * self.soc_layout_factor(strategy) + relayout
    }

    /// Attention + element-wise time of prefill tokens `[start, start+len)`
    /// on the SoC: each token attends to all earlier ones.
    fn prefill_chunk_epilogue_ns(&self, start: u64, len: u64) -> f64 {
        // sum_{i = start+1 .. start+len} i — always an integer because
        // `len` and `2*start + len + 1` have opposite parity.
        let kv_pairs = len * (2 * start + len + 1) / 2;
        let bytes = self.model.kv_read_bytes(1) * kv_pairs
            + self.model.kv_write_bytes_per_token() * len
            + self.model.elementwise_bytes_per_token() * len;
        self.platform.soc.stream_ns(bytes)
    }

    /// Whether `strategy` offloads the prefill GEMMs of a `p`-token prefill
    /// to the PIM while the PIM is up: the per-query decision of the
    /// dynamic strategies, taken when the PIM beats the strategy's SoC path
    /// (re-layout included), as the paper's offline profiling does (Section
    /// VI-C). Always false for the static ones.
    pub fn prefill_offloads_to_pim(&self, strategy: Strategy, p: u64) -> bool {
        strategy.may_offload_prefill()
            && self.prefill_linears_ns(true, p, true)
                < self.soc_prefill_ns(strategy, p, true, self.degraded_relayout_ns(strategy))
    }

    /// TTFT (prefill time) under `strategy` for prefill length `p`, with
    /// the re-layout share and the PIM-offload decision: the healthy
    /// whole-prefill chunk of [`InferenceSim::prefill_chunk_ns`].
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn prefill_ns(&self, strategy: Strategy, p: u64) -> (f64, f64, bool) {
        self.prefill_chunk(strategy, false, 0, p, p)
    }

    /// Cost of processing prefill tokens `[start, start+len)` of a
    /// `total`-token prefill under `strategy`, ns — the *resumable* prefill
    /// unit that `facil-serve` interleaves with decode iterations (chunked
    /// prefill / continuous batching); `degraded` means the PIM units are
    /// down.
    ///
    /// Invariants (unit-tested):
    /// * one healthy whole-prefill chunk (`start == 0`, `len == total`)
    ///   costs exactly [`InferenceSim::prefill_ns`];
    /// * splitting a prefill into chunks never costs *less* than the whole
    ///   (each chunk pays its own kernel-launch / dispatch overheads);
    /// * the hybrid strategies pay the re-layout once, on the first chunk
    ///   of a healthy prefill; while degraded they serve from the
    ///   conventional copy made on entry, with no per-prefill re-layout;
    /// * the dynamic offload decision is made on `total` (the engine
    ///   profiles whole prefills, not chunks), and never while degraded.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `start + len > total`.
    pub fn prefill_chunk_ns(
        &self,
        strategy: Strategy,
        degraded: bool,
        start: u64,
        len: u64,
        total: u64,
    ) -> f64 {
        self.prefill_chunk(strategy, degraded, start, len, total).0
    }

    /// [`InferenceSim::prefill_chunk_ns`] with the chunk's re-layout share
    /// and whether its GEMMs ran on the PIM.
    fn prefill_chunk(
        &self,
        strategy: Strategy,
        degraded: bool,
        start: u64,
        len: u64,
        total: u64,
    ) -> (f64, f64, bool) {
        assert!(len > 0, "prefill chunk must be non-empty");
        assert!(start + len <= total, "chunk [{start}, {}) beyond prefill {total}", start + len);
        let last = start + len == total;
        let epilogue = self.prefill_chunk_epilogue_ns(start, len);
        if !degraded && self.prefill_offloads_to_pim(strategy, total) {
            return (self.prefill_linears_ns(true, len, last) + epilogue, 0.0, true);
        }
        let relayout =
            if start == 0 && !degraded { self.degraded_relayout_ns(strategy) } else { 0.0 };
        (self.soc_prefill_ns(strategy, len, last, relayout) + epilogue, relayout, false)
    }

    /// The *all-at-once* re-layout baseline of paper footnote 2: instead of
    /// re-laying each matrix out on demand (and discarding the conventional
    /// copy), all weights are converted to the conventional layout at the
    /// start of the prefill and converted *back* to the PIM layout when the
    /// decode phase begins — paying the re-layout cost twice per query.
    pub fn run_query_all_at_once(&self, q: Query) -> QueryResult {
        let mut r = self.run_query(Strategy::HybridStatic, q);
        let back = self.relayout_ns();
        r.ttlt_ns += back;
        r.relayout_ns += back;
        r
    }

    /// Run a full query under `strategy`: its whole prefill, then each
    /// decode step as a healthy batch of one. A zero-token prompt is
    /// prefilled as one token, and decoding starts from that context, as a
    /// serving device does.
    pub fn run_query(&self, strategy: Strategy, q: Query) -> QueryResult {
        let prefill = q.prefill.max(1);
        let (ttft_ns, relayout_ns, prefill_on_pim) = self.prefill_ns(strategy, prefill);
        let mut total = ttft_ns;
        for i in 0..q.decode {
            total += self.decode_batch_ns(strategy, false, &[prefill + i]);
        }
        QueryResult { ttft_ns, ttlt_ns: total, relayout_ns, prefill_on_pim }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facil_soc::PlatformId;

    fn iphone_sim() -> InferenceSim {
        InferenceSim::new(Platform::get(PlatformId::Iphone)).unwrap()
    }

    #[test]
    fn facil_beats_hybrid_static_ttft() {
        let sim = iphone_sim();
        let q = Query { prefill: 16, decode: 8 };
        let base = sim.run_query(Strategy::HybridStatic, q);
        let facil = sim.run_query(Strategy::FacilStatic, q);
        assert!(facil.ttft_ns < base.ttft_ns, "{} vs {}", facil.ttft_ns, base.ttft_ns);
        assert!(base.relayout_ns > 0.0);
        assert_eq!(facil.relayout_ns, 0.0);
        // The whole TTFT gap is (almost exactly) the re-layout cost.
        let gap = base.ttft_ns - facil.ttft_ns;
        assert!(
            (gap / base.relayout_ns - 1.0).abs() < 0.1,
            "gap {gap} vs relayout {}",
            base.relayout_ns
        );
    }

    #[test]
    fn ttft_speedup_decreases_with_prefill_length() {
        let sim = iphone_sim();
        let speedup = |p: u64| {
            let b = sim.prefill_ns(Strategy::HybridStatic, p).0;
            let f = sim.prefill_ns(Strategy::FacilStatic, p).0;
            b / f
        };
        let s8 = speedup(8);
        let s128 = speedup(128);
        assert!(s8 > s128, "paper Fig. 13: speedup inversely related to prefill ({s8} vs {s128})");
        assert!(s8 > 1.5, "s8 = {s8}");
    }

    #[test]
    fn dynamic_offload_helps_short_prefills() {
        let sim = iphone_sim();
        let dyn2 = sim.run_query(Strategy::HybridDynamic, Query { prefill: 2, decode: 1 });
        let stat2 = sim.run_query(Strategy::HybridStatic, Query { prefill: 2, decode: 1 });
        assert!(dyn2.ttft_ns <= stat2.ttft_ns);
        assert!(dyn2.prefill_on_pim, "tiny prefill should offload to PIM");
        // Long prefills stay on the SoC.
        let dyn256 = sim.run_query(Strategy::HybridDynamic, Query { prefill: 256, decode: 1 });
        assert!(!dyn256.prefill_on_pim);
    }

    /// One healthy decode step of a PIM-decoding strategy at context `ctx`.
    fn pim_step(sim: &InferenceSim, ctx: u64) -> f64 {
        sim.decode_batch_ns(Strategy::FacilStatic, false, &[ctx])
    }

    #[test]
    fn pim_decode_beats_soc_decode() {
        let sim = iphone_sim();
        let pim = pim_step(&sim, 64);
        let soc = sim.decode_batch_ns(Strategy::SocOnly, false, &[64]);
        assert!(pim < soc / 2.0, "PIM decode {pim} vs SoC {soc}");
    }

    #[test]
    fn pim_decode_beats_ideal_npu() {
        // Paper Fig. 3: PIM outruns even an ideal NPU bounded by peak BW.
        let sim = iphone_sim();
        let pim = pim_step(&sim, 64);
        let npu = sim.decode_step_ideal_npu_ns(64);
        assert!(pim < npu, "PIM {pim} vs ideal NPU {npu}");
    }

    #[test]
    fn soc_only_has_fast_ttft_but_slow_ttlt() {
        let sim = iphone_sim();
        let q = Query { prefill: 16, decode: 64 };
        let soc = sim.run_query(Strategy::SocOnly, q);
        let hybrid = sim.run_query(Strategy::HybridStatic, q);
        // SoC-only avoids re-layout => good TTFT...
        assert!(soc.ttft_ns < hybrid.ttft_ns);
        // ...but decode on the SoC ruins TTLT (paper Section VI-C).
        assert!(soc.ttlt_ns > hybrid.ttlt_ns);
    }

    #[test]
    fn ttlt_includes_all_decode_steps() {
        let sim = iphone_sim();
        let q = Query { prefill: 8, decode: 4 };
        let r = sim.run_query(Strategy::FacilStatic, q);
        let manual: f64 = (0..4).map(|i| pim_step(&sim, 8 + i)).sum::<f64>() + r.ttft_ns;
        assert!((r.ttlt_ns - manual).abs() < 1.0);
    }

    #[test]
    fn int8_weights_shrink_everything_but_keep_facil_ahead() {
        let platform = Platform::get(PlatformId::Iphone);
        let model = facil_llm::ModelConfig::phi_1_5();
        let f16 = InferenceSim::with_model_and_dtype(
            platform.clone(),
            model.clone(),
            facil_core::DType::F16,
        )
        .unwrap();
        let i8 =
            InferenceSim::with_model_and_dtype(platform, model, facil_core::DType::I8).unwrap();
        assert_eq!(i8.weight_bytes() * 2, f16.weight_bytes());
        // Quantization shrinks the re-layout and both decode paths...
        assert!(i8.relayout_ns() < 0.6 * f16.relayout_ns());
        assert!(pim_step(&i8, 64) < pim_step(&f16, 64));
        // ...and FACIL still beats the baseline on TTFT.
        let q = Query { prefill: 16, decode: 4 };
        let base = i8.run_query(Strategy::HybridStatic, q);
        let facil = i8.run_query(Strategy::FacilStatic, q);
        assert!(facil.ttft_ns < base.ttft_ns);
    }

    #[test]
    fn attention_on_pim_wins_only_at_long_contexts() {
        let sim = iphone_sim();
        // Short context: dispatch overheads dominate, SoC attention wins.
        assert!(sim.decode_step_pim_attention_ns(32) > pim_step(&sim, 32));
        // Very long context: KV streaming at internal bandwidth wins.
        assert!(
            sim.decode_step_pim_attention_ns(65536) < pim_step(&sim, 65536),
            "{} vs {}",
            sim.decode_step_pim_attention_ns(65536),
            pim_step(&sim, 65536)
        );
    }

    #[test]
    fn all_at_once_relayout_is_strictly_worse() {
        // Paper footnote 2: converting everything back after the prefill
        // doubles the re-layout cost per query.
        let sim = iphone_sim();
        let q = Query { prefill: 16, decode: 8 };
        let on_demand = sim.run_query(Strategy::HybridStatic, q);
        let all_at_once = sim.run_query_all_at_once(q);
        assert_eq!(all_at_once.ttft_ns, on_demand.ttft_ns, "TTFT unchanged");
        assert!((all_at_once.relayout_ns / on_demand.relayout_ns - 2.0).abs() < 1e-9);
        assert!(all_at_once.ttlt_ns > on_demand.ttlt_ns);
    }

    #[test]
    fn strategies_display() {
        for s in Strategy::all() {
            assert!(!s.to_string().is_empty());
        }
    }

    #[test]
    fn single_chunk_equals_whole_prefill() {
        let sim = iphone_sim();
        for strategy in Strategy::all() {
            for p in [1u64, 7, 64, 300] {
                let whole = sim.prefill_ns(strategy, p).0;
                let chunk = sim.prefill_chunk_ns(strategy, false, 0, p, p);
                assert_eq!(
                    whole.to_bits(),
                    chunk.to_bits(),
                    "{strategy} p={p}: whole {whole} vs chunk {chunk}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_prefill_panics() {
        iphone_sim().prefill_ns(Strategy::SocOnly, 0);
    }

    #[test]
    fn chunked_prefill_never_cheaper_than_whole() {
        let sim = iphone_sim();
        for strategy in Strategy::all() {
            let p = 130u64;
            let whole = sim.prefill_ns(strategy, p).0;
            let mut sum = 0.0;
            let mut start = 0;
            while start < p {
                let len = 32.min(p - start);
                sum += sim.prefill_chunk_ns(strategy, false, start, len, p);
                start += len;
            }
            // Chunking pays extra per-chunk kernel/dispatch overheads.
            assert!(sum >= whole - 1.0, "{strategy}: chunked {sum} vs whole {whole}");
        }
    }

    #[test]
    fn chunk_offload_decision_matches_whole_query() {
        let sim = iphone_sim();
        for strategy in Strategy::all() {
            for p in [2u64, 64, 512] {
                let decided =
                    sim.run_query(strategy, Query { prefill: p, decode: 1 }).prefill_on_pim;
                assert_eq!(sim.prefill_offloads_to_pim(strategy, p), decided, "{strategy} p={p}");
                if !strategy.may_offload_prefill() {
                    assert!(!decided, "{strategy} p={p} is static");
                }
            }
        }
        // The offload threshold: short prefills offload and long ones do
        // not, and the baseline, whose SoC path pays the re-layout, offloads
        // every prefill FACIL offloads.
        let offloads = |s, p| sim.prefill_offloads_to_pim(s, p);
        let (hybrid, facil) = (Strategy::HybridDynamic, Strategy::FacilDynamic);
        for s in [hybrid, facil] {
            let threshold = (1..=4096).take_while(|&p| offloads(s, p)).count() as u64;
            assert!(threshold > 0, "{s}: PIM must win short prefills");
            assert!((threshold + 1..=4096).all(|p| !offloads(s, p)), "{s}: one crossover");
        }
        assert!((1..=4096).all(|p| !offloads(facil, p) || offloads(hybrid, p)));
    }

    #[test]
    fn batch_of_one_decode_is_one_query_step() {
        let sim = iphone_sim();
        let ctxs = [1u64, 64, 1000];
        for strategy in Strategy::all() {
            // `run_query` adds each step as a batch of one.
            for ctx in ctxs {
                let q = sim.run_query(strategy, Query { prefill: ctx, decode: 1 });
                let step = sim.decode_batch_ns(strategy, false, &[ctx]);
                assert_eq!((q.ttft_ns + step).to_bits(), q.ttlt_ns.to_bits(), "{strategy}");
            }
            for degraded in [false, true] {
                // An empty batch is +0 on every path.
                assert_eq!(sim.decode_batch_ns(strategy, degraded, &[]).to_bits(), 0);
                // On the SoC a batch is exactly the sum of its steps.
                if degraded || !strategy.decodes_on_pim() {
                    let steps: f64 =
                        ctxs.iter().map(|&c| sim.decode_batch_ns(strategy, degraded, &[c])).sum();
                    let batch = sim.decode_batch_ns(strategy, degraded, &ctxs);
                    assert_eq!(batch.to_bits(), steps.to_bits(), "{strategy}");
                }
            }
        }
    }

    #[test]
    fn batched_decode_amortizes_dispatch() {
        // k requests batched must cost less than k isolated steps (the
        // dispatch overhead is shared) but more than one step (the GEMV
        // passes are not).
        let sim = iphone_sim();
        let ctxs = [64u64, 64, 64, 64];
        let batch = sim.decode_batch_ns(Strategy::FacilStatic, false, &ctxs);
        let isolated: f64 = ctxs.iter().map(|&c| pim_step(&sim, c)).sum();
        assert!(batch < isolated, "batch {batch} vs isolated {isolated}");
        assert!(batch > pim_step(&sim, 64));
        // Per-token cost strictly improves with batching.
        assert!(batch / 4.0 < pim_step(&sim, 64));
    }

    #[test]
    fn degraded_relayout_charged_only_to_hybrid() {
        let sim = iphone_sim();
        for s in [Strategy::SocOnly, Strategy::FacilStatic, Strategy::FacilDynamic] {
            assert_eq!(sim.degraded_relayout_ns(s), 0.0, "{s} switches for free");
        }
        for s in [Strategy::HybridStatic, Strategy::HybridDynamic] {
            assert_eq!(sim.degraded_relayout_ns(s), sim.relayout_ns(), "{s} pays full re-layout");
        }
    }

    #[test]
    fn degraded_decode_runs_at_soc_speed_with_layout_penalty() {
        let sim = iphone_sim();
        let ctxs = [64u64, 64];
        let soc = sim.decode_batch_ns(Strategy::SocOnly, false, &ctxs);
        let facil = sim.decode_batch_ns(Strategy::FacilDynamic, true, &ctxs);
        // FACIL degrades to SoC GEMV speed, inflated by the (small) Table
        // III slowdown — never by a re-layout.
        assert!(facil >= soc);
        assert!(facil <= soc * 1.05, "facil degraded {facil} vs soc {soc}");
        assert_eq!(sim.decode_batch_ns(Strategy::FacilStatic, true, &ctxs), facil);
        assert_eq!(sim.decode_batch_ns(Strategy::HybridStatic, true, &ctxs), soc);
        assert_eq!(sim.decode_batch_ns(Strategy::HybridDynamic, true, &ctxs), soc);
        assert_eq!(sim.decode_batch_ns(Strategy::SocOnly, true, &ctxs), soc);
        // Degraded decode is much slower than healthy PIM decode.
        assert!(facil > sim.decode_batch_ns(Strategy::FacilDynamic, false, &ctxs) * 2.0);
    }

    #[test]
    fn degraded_prefill_never_offloads_and_matches_soc_path() {
        let sim = iphone_sim();
        let p = 64u64;
        let soc_only = sim.prefill_chunk_ns(Strategy::SocOnly, true, 0, p, p);
        let facil = sim.prefill_chunk_ns(Strategy::FacilDynamic, true, 0, p, p);
        let hybrid = sim.prefill_chunk_ns(Strategy::HybridDynamic, true, 0, p, p);
        assert!(facil >= soc_only);
        assert!(facil <= soc_only * 1.05);
        assert_eq!(hybrid, soc_only, "hybrid serves from the conventional copy while degraded");
        assert_eq!(soc_only, sim.prefill_chunk_ns(Strategy::SocOnly, false, 0, p, p));
        // Even where the healthy dynamic strategies would offload to PIM,
        // the degraded path must not (prefill 2 offloads when healthy).
        assert!(sim.prefill_offloads_to_pim(Strategy::FacilDynamic, 2));
        let healthy = sim.prefill_chunk_ns(Strategy::FacilDynamic, false, 0, 2, 2);
        let degraded = sim.prefill_chunk_ns(Strategy::FacilDynamic, true, 0, 2, 2);
        assert!(degraded > healthy, "degraded {degraded} vs healthy (offloaded) {healthy}");
    }
}
