//! Exhaustive search over the candidate space.
//!
//! The driver scores every candidate with the analytic model (the space on
//! the paper's platforms holds 6 to 24 entries), replays the top few (plus
//! the paper's pick) through the cycle-accurate scheduler, and applies an
//! **epsilon incumbent rule**: the paper's selection is only displaced by a
//! candidate that beats it on *measured* cycles by more than
//! [`IMPROVEMENT_THRESHOLD`]. Closed-form and searched picks
//! therefore agree everywhere the paper's rule is already (near-)optimal —
//! reproducing Fig. 13's four platform baselines — while genuinely better
//! placements (e.g. a matrix too small to fill the paper-MapID window)
//! still win.
//!
//! Everything is deterministic: enumeration order is fixed, window
//! sampling is stride-based, and parallel evaluation uses the input-order
//! [`pool`] helpers, so the result is byte-identical across worker counts
//! (including under `FACIL_THREADS`).

use crate::candidates::{Candidate, CandidateSpace};
use crate::cost::{AnalyticCost, CostModel, MeasuredCost, ReplayMemo};
use crate::profile::{TensorSpec, WorkloadProfile};
use facil_core::{select_mapping, MatrixConfig, PimArch, Result, HUGE_PAGE_BITS};
use facil_dram::DramSpec;
use facil_telemetry::pool;

/// How many analytically top-ranked candidates get a cycle-accurate replay
/// (the paper's pick is always replayed in addition).
const SIM_TOP_K: usize = 3;

/// Relative measured-score margin a challenger must win by to displace the
/// paper's pick (the epsilon incumbent rule).
pub const IMPROVEMENT_THRESHOLD: f64 = 0.05;

/// Tunables for one search run. Every scheme fits a huge page
/// ([`HUGE_PAGE_BITS`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchConfig {
    /// Worker count for parallel evaluation; `None` uses the global
    /// [`pool::parallelism`] (which honors `FACIL_THREADS`). Results are
    /// identical either way — this only affects wall-clock time.
    pub workers: Option<usize>,
}

/// One improvement of the global analytic best, for the score trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePoint {
    /// Candidates analytically evaluated when the improvement happened.
    pub evaluated: usize,
    /// Candidate label.
    pub label: String,
    /// New best analytic score.
    pub score: f64,
}

/// Per-candidate evaluation record.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateOutcome {
    /// The candidate.
    pub candidate: Candidate,
    /// Human label (`"AiM MapID=1 PU=ba-rk-ch"`).
    pub label: String,
    /// Analytic score breakdown.
    pub analytic: AnalyticCost,
    /// Cycle-accurate replay, for the analytically top-ranked few.
    pub measured: Option<MeasuredCost>,
}

/// Search result for one tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSearchResult {
    /// Tensor name from the profile.
    pub tensor: String,
    /// Matrix that was placed.
    pub matrix: MatrixConfig,
    /// Winning candidate after the incumbent rule.
    pub best: Candidate,
    /// Paper's closed-form pick for the same matrix.
    pub paper: Candidate,
    /// Whether the search displaced the paper's pick.
    pub displaced: bool,
    /// Relative measured improvement over the paper's pick (0 when the
    /// incumbent was retained).
    pub improvement: f64,
    /// Measured cost of the winner.
    pub best_measured: MeasuredCost,
    /// Measured cost of the paper's pick.
    pub paper_measured: MeasuredCost,
    /// Candidates analytically evaluated (the whole space).
    pub evaluated: usize,
    /// Size of the legal candidate space.
    pub space_size: usize,
    /// Global-best improvements in evaluation order.
    pub trace: Vec<TracePoint>,
    /// Every evaluated candidate, in enumeration order.
    pub outcomes: Vec<CandidateOutcome>,
}

/// The analytic score of every candidate, in enumeration order, and the
/// trace of global-best improvements.
fn analytic_phase(
    space: &CandidateSpace,
    model: &CostModel<'_>,
    workers: usize,
) -> Result<(Vec<AnalyticCost>, Vec<TracePoint>)> {
    let scores = pool::par_map_with(workers, space.candidates(), |c| model.analytic(c))
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    let mut trace = Vec::new();
    let mut best = f64::INFINITY;
    for (i, cost) in scores.iter().enumerate() {
        if cost.score < best {
            best = cost.score;
            trace.push(TracePoint {
                evaluated: i + 1,
                label: space.candidates()[i].describe(space.arch()),
                score: cost.score,
            });
        }
    }
    Ok((scores, trace))
}

/// Search the candidate space for the best mapping of one tensor.
///
/// # Errors
///
/// Propagates space enumeration, paper-selector, and cost-model errors
/// (e.g. a matrix row narrower than a chunk row).
pub fn search_matrix(
    spec: &DramSpec,
    arch: &PimArch,
    tensor: &TensorSpec,
    profile: &WorkloadProfile,
    config: &SearchConfig,
) -> Result<MatrixSearchResult> {
    search_tensor(spec, arch, tensor, profile, config, &ReplayMemo::default())
}

/// [`search_matrix`], replaying only the windows `replays` does not hold
/// yet.
fn search_tensor(
    spec: &DramSpec,
    arch: &PimArch,
    tensor: &TensorSpec,
    profile: &WorkloadProfile,
    config: &SearchConfig,
    replays: &ReplayMemo,
) -> Result<MatrixSearchResult> {
    let topo = spec.topology;
    let space = CandidateSpace::enumerate(topo, arch)?;
    let model = CostModel::new(spec, arch, tensor.matrix, profile);
    let workers = config.workers.unwrap_or_else(pool::parallelism);

    let paper_decision = select_mapping(&tensor.matrix, topo, arch, HUGE_PAGE_BITS)?;
    let paper = Candidate::paper(paper_decision.map_id.0);

    let (scores, trace) = analytic_phase(&space, &model, workers)?;

    // Measured phase: the analytic top-k plus the paper incumbent, each
    // replayed through the cycle-accurate scheduler. Ranking ties break by
    // enumeration order, so the set is deterministic.
    let mut ranked: Vec<usize> = (0..space.len()).collect();
    ranked.sort_by(|&a, &b| {
        let (sa, sb) = (scores[a].score, scores[b].score);
        sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    ranked.truncate(SIM_TOP_K);
    let paper_idx = space.position(&paper);
    if let Some(pi) = paper_idx {
        if !ranked.contains(&pi) {
            ranked.push(pi);
        }
    }
    ranked.sort_unstable(); // enumeration order for the replay fan-out

    let measured: Vec<(usize, MeasuredCost)> =
        pool::par_map_with(workers, &ranked, |&i| -> Result<(usize, MeasuredCost)> {
            Ok((i, model.measured_in(&space.candidates()[i], replays)?))
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;

    let paper_measured = match paper_idx
        .and_then(|pi| measured.iter().find(|(i, _)| *i == pi).map(|(_, m)| m.clone()))
    {
        Some(m) => m,
        // Paper pick outside the enumerated space (cannot happen for the
        // PIM-optimized family, but stay total): replay it directly.
        None => model.measured_in(&paper, replays)?,
    };

    // Epsilon incumbent rule: lowest measured score wins, but only a
    // challenger more than `IMPROVEMENT_THRESHOLD` better than the paper's
    // measured score may displace it.
    let mut best = paper;
    let mut best_measured = paper_measured.clone();
    let bar = paper_measured.score * (1.0 - IMPROVEMENT_THRESHOLD);
    for (i, m) in &measured {
        let cand = space.candidates()[*i];
        if cand != paper && m.score < bar && m.score < best_measured.score {
            best = cand;
            best_measured = m.clone();
        }
    }
    let displaced = best != paper;
    let improvement = if displaced && paper_measured.score > 0.0 {
        (paper_measured.score - best_measured.score) / paper_measured.score
    } else {
        0.0
    };

    let outcomes = space
        .candidates()
        .iter()
        .zip(&scores)
        .enumerate()
        .map(|(i, (c, &analytic))| CandidateOutcome {
            candidate: *c,
            label: c.describe(space.arch()),
            analytic,
            measured: measured.iter().find(|(j, _)| *j == i).map(|(_, m)| m.clone()),
        })
        .collect();

    Ok(MatrixSearchResult {
        tensor: tensor.name.clone(),
        matrix: tensor.matrix,
        best,
        paper,
        displaced,
        improvement,
        best_measured,
        paper_measured,
        evaluated: space.len(),
        space_size: space.len(),
        trace,
        outcomes,
    })
}

/// Run [`search_matrix`] for every tensor in the profile, in order. The
/// tensors share one replay memo for this call, so a window that several
/// tensors' measured phases replay under the same scheme (every matrix
/// larger than a window starts with the same one) is simulated once; the
/// results equal the per-tensor searches' field for field.
///
/// # Errors
///
/// Fails on the first tensor whose search fails.
pub fn search_workload(
    spec: &DramSpec,
    arch: &PimArch,
    profile: &WorkloadProfile,
    config: &SearchConfig,
) -> Result<Vec<MatrixSearchResult>> {
    let replays = ReplayMemo::default();
    profile
        .tensors
        .iter()
        .map(|t| search_tensor(spec, arch, t, profile, config, &replays))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::PuOrder;
    use facil_core::DType;

    fn iphone_spec() -> (DramSpec, PimArch) {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        let arch = PimArch::aim(&spec.topology);
        (spec, arch)
    }

    fn profile_for(tensor: TensorSpec) -> WorkloadProfile {
        WorkloadProfile::decode_only("test", vec![tensor])
    }

    #[test]
    fn baseline_square_matrix_reproduces_paper_pick() {
        let (spec, arch) = iphone_spec();
        let t = TensorSpec::new("qkv", MatrixConfig::new(2048, 2048, DType::F16));
        let p = profile_for(t.clone());
        let r = search_matrix(&spec, &arch, &t, &p, &SearchConfig::default()).unwrap();
        assert!(!r.displaced, "epsilon rule must retain the paper's pick");
        assert_eq!(r.best, r.paper);
        assert_eq!(r.improvement, 0.0);
        assert_eq!(r.evaluated, r.space_size);
        assert!(!r.trace.is_empty());
    }

    #[test]
    fn skinny_moe_matrix_displaces_paper_pick() {
        let (spec, arch) = iphone_spec();
        // 64x4096 f16 (512 KB): paper picks MapID=2 whose window (1 MB)
        // the matrix only half fills. Under the paper's bank-first PU
        // order the channel bits sit at the top of the window, so half
        // the *channels* idle; an order with rank above channel parks the
        // idle bits on a rank instead and keeps the full bus busy.
        let t = TensorSpec::new("moe-expert", MatrixConfig::new(64, 4096, DType::F16));
        let p = profile_for(t.clone());
        let r = search_matrix(&spec, &arch, &t, &p, &SearchConfig::default()).unwrap();
        assert_eq!(r.paper.map_id, 2);
        assert!(r.displaced, "search must find the wider distribution");
        assert_eq!(r.best.map_id, 2, "the win comes from PU order, not extra partitioning");
        assert_ne!(r.best.pu_order, PuOrder::paper());
        assert!(r.improvement > IMPROVEMENT_THRESHOLD);
        assert!(r.best_measured.score < r.paper_measured.score);
    }

    #[test]
    fn repeat_runs_and_worker_count_are_byte_identical() {
        let (spec, arch) = iphone_spec();
        let t = TensorSpec::new("ffn", MatrixConfig::new(8192, 2048, DType::F16));
        let p = profile_for(t.clone());
        let base = SearchConfig { workers: Some(1) };
        let wide = SearchConfig { workers: Some(4) };
        let a = search_matrix(&spec, &arch, &t, &p, &base).unwrap();
        let b = search_matrix(&spec, &arch, &t, &p, &base).unwrap();
        let c = search_matrix(&spec, &arch, &t, &p, &wide).unwrap();
        assert_eq!(a, b, "same inputs, same result");
        assert_eq!(a, c, "worker count must not affect results");
    }

    /// Three tensors whose paper pick is MapID 2: two larger than every
    /// candidate's window, so both measured phases replay the pick's first
    /// window, then one that half-fills it (same base, shorter length).
    fn shared_window_profile() -> WorkloadProfile {
        WorkloadProfile::decode_only(
            "shared",
            vec![
                TensorSpec::new("qkv", MatrixConfig::new(2048, 4096, DType::F16)),
                TensorSpec::new("ffn", MatrixConfig::new(8192, 4096, DType::F16)),
                TensorSpec::new("moe-expert", MatrixConfig::new(64, 4096, DType::F16)),
            ],
        )
    }

    #[test]
    fn workload_search_equals_per_tensor_searches() {
        let (spec, arch) = iphone_spec();
        let p = shared_window_profile();
        for workers in [Some(1), Some(4)] {
            let config = SearchConfig { workers };
            let shared = search_workload(&spec, &arch, &p, &config).unwrap();
            let alone: Vec<_> = p
                .tensors
                .iter()
                .map(|t| search_matrix(&spec, &arch, t, &p, &config).unwrap())
                .collect();
            assert_eq!(shared, alone, "workers {workers:?}");
        }
    }

    #[test]
    fn replay_memo_replays_shared_windows_once() {
        let (spec, arch) = iphone_spec();
        let p = shared_window_profile();
        let config = SearchConfig::default();
        let replays = ReplayMemo::default();
        let results: Vec<_> = p
            .tensors
            .iter()
            .map(|t| search_tensor(&spec, &arch, t, &p, &config, &replays).unwrap())
            .collect();
        let requested: usize = results
            .iter()
            .flat_map(|r| &r.outcomes)
            .filter_map(|o| o.measured.as_ref())
            .map(|m| m.windows_sampled)
            .sum();
        assert!(
            !replays.is_empty() && replays.len() < requested,
            "{} distinct replays for {requested} requested",
            replays.len()
        );
    }

    #[test]
    fn workload_search_covers_every_tensor_in_order() {
        let (spec, arch) = iphone_spec();
        let p = WorkloadProfile::decode_only(
            "two",
            vec![
                TensorSpec::new("a", MatrixConfig::new(2048, 2048, DType::F16)),
                TensorSpec::new("b", MatrixConfig::new(64, 4096, DType::F16)),
            ],
        );
        let rs = search_workload(&spec, &arch, &p, &SearchConfig::default()).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].tensor, "a");
        assert_eq!(rs[1].tensor, "b");
    }
}
