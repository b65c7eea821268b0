//! Search reports: the durable output of a mapping search.
//!
//! A [`SearchReport`] bundles the per-tensor [`MatrixSearchResult`]s with
//! enough provenance (platform, profile, topology) to reproduce the
//! run, serializes through the workspace's hand-rolled
//! [`JsonWriter`] (byte-identical for
//! identical inputs — the determinism property tests diff these strings),
//! registers headline numbers into a [`RunManifest`], and adapts back into
//! the simulator as a mapping *selector*: a closure the
//! `InferenceSim::with_selector` constructor calls instead of the paper's
//! closed-form rule.

use crate::search::MatrixSearchResult;
use facil_core::{select_mapping, MappingDecision, MatrixConfig, PimArch, Result, HUGE_PAGE_BITS};
use facil_dram::Topology;
use facil_telemetry::{JsonWriter, RunManifest};

/// The durable result of one [`search_workload`](crate::search_workload)
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport {
    /// Platform label (e.g. `"iphone15pro"`).
    pub platform: String,
    /// Workload profile name.
    pub profile: String,
    /// Topology the search ran against.
    pub topology: Topology,
    /// PIM architecture the search ran against.
    pub arch: PimArch,
    /// Per-tensor results, in profile order.
    pub results: Vec<MatrixSearchResult>,
    /// Annotated bit-field layout ([`MappingScheme::dump`]) of each
    /// winner, aligned with `results`.
    ///
    /// [`MappingScheme::dump`]: facil_core::MappingScheme::dump
    pub layouts: Vec<String>,
}

impl SearchReport {
    /// Assemble a report, rendering each winner's bit-field layout.
    ///
    /// # Errors
    ///
    /// Propagates scheme construction errors (cannot happen for results
    /// produced by [`search_workload`](crate::search_workload), whose
    /// candidates were validated at enumeration).
    pub fn new(
        platform: impl Into<String>,
        profile: impl Into<String>,
        topology: Topology,
        arch: PimArch,
        results: Vec<MatrixSearchResult>,
    ) -> Result<Self> {
        let layouts = results
            .iter()
            .map(|r| Ok(r.best.build(topology, &arch)?.dump()))
            .collect::<Result<Vec<_>>>()?;
        Ok(SearchReport {
            platform: platform.into(),
            profile: profile.into(),
            topology,
            arch,
            results,
            layouts,
        })
    }

    /// The result for `matrix`, if a tensor of that exact shape was
    /// searched.
    pub fn result_for(&self, matrix: &MatrixConfig) -> Option<&MatrixSearchResult> {
        self.results.iter().find(|r| r.matrix == *matrix)
    }

    /// Searched [`MappingDecision`] for `matrix`, falling back to the
    /// paper's closed-form rule for shapes the search did not cover.
    ///
    /// # Errors
    ///
    /// Propagates decision-construction errors (unplaceable matrices).
    pub fn decision_for(&self, matrix: &MatrixConfig) -> Result<MappingDecision> {
        match self.result_for(matrix) {
            Some(r) => r.best.decision(matrix, self.topology, &self.arch),
            None => select_mapping(matrix, self.topology, &self.arch, HUGE_PAGE_BITS),
        }
    }

    /// The `SearchReport -> MappingDecision` adapter: a selector closure
    /// for `InferenceSim::with_selector`, replacing the paper's
    /// closed-form rule with the searched picks.
    pub fn selector(&self) -> impl Fn(&MatrixConfig) -> Result<MappingDecision> + '_ {
        move |matrix| self.decision_for(matrix)
    }

    /// How many tensors the search displaced the paper's pick on.
    pub fn displaced_count(&self) -> usize {
        self.results.iter().filter(|r| r.displaced).count()
    }

    /// Total candidates analytically evaluated across all tensors.
    pub fn evaluated_total(&self) -> u64 {
        self.results.iter().map(|r| r.evaluated as u64).sum()
    }

    /// Full JSON rendering (provenance, per-tensor scores, score traces,
    /// winner layouts). Deterministic: identical reports serialize to
    /// identical bytes.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object()
            .field_str("platform", &self.platform)
            .field_str("profile", &self.profile)
            .field_uint("page_bits", u64::from(HUGE_PAGE_BITS))
            .field_uint("displaced", self.displaced_count() as u64)
            .field_uint("evaluated", self.evaluated_total())
            .key("results")
            .begin_array();
        for (r, layout) in self.results.iter().zip(&self.layouts) {
            w.begin_object()
                .field_str("tensor", &r.tensor)
                .field_str("matrix", &r.matrix.to_string())
                .field_str("best", &r.best.describe(&self.arch))
                .field_uint("best_map_id", u64::from(r.best.map_id))
                .field_str("paper", &r.paper.describe(&self.arch))
                .field_uint("paper_map_id", u64::from(r.paper.map_id))
                .field_bool("displaced", r.displaced)
                .field_num("improvement", r.improvement)
                .field_num("best_score", r.best_measured.score)
                .field_num("paper_score", r.paper_measured.score)
                .field_num("best_hit_rate", r.best_measured.stats.hit_rate())
                .field_num("paper_hit_rate", r.paper_measured.stats.hit_rate())
                .field_uint("best_finish_cycle", r.best_measured.stats.finish_cycle)
                .field_uint("paper_finish_cycle", r.paper_measured.stats.finish_cycle)
                .field_uint("evaluated", r.evaluated as u64)
                .field_uint("space_size", r.space_size as u64)
                .key("trace")
                .begin_array();
            for t in &r.trace {
                w.begin_object()
                    .field_uint("evaluated", t.evaluated as u64)
                    .field_str("label", &t.label)
                    .field_num("score", t.score)
                    .end_object();
            }
            w.end_array().field_str("layout", layout).end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Register headline numbers and the full report into a
    /// [`RunManifest`].
    pub fn register_into(&self, manifest: &mut RunManifest) {
        manifest
            .config_str("platform", &self.platform)
            .config_str("profile", &self.profile)
            .config_uint("page_bits", u64::from(HUGE_PAGE_BITS));
        manifest
            .result_uint("tensors", self.results.len() as u64)
            .result_uint("displaced", self.displaced_count() as u64)
            .result_uint("evaluated", self.evaluated_total())
            .result_raw("search", &self.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{TensorSpec, WorkloadProfile};
    use crate::search::{search_workload, SearchConfig};
    use facil_core::DType;
    use facil_dram::DramSpec;

    fn report() -> SearchReport {
        let spec = DramSpec::lpddr5_6400(64, 8 << 30);
        let arch = PimArch::aim(&spec.topology);
        let profile = WorkloadProfile::decode_only(
            "unit",
            vec![
                TensorSpec::new("qkv", MatrixConfig::new(2048, 2048, DType::F16)),
                TensorSpec::new("moe-expert", MatrixConfig::new(64, 4096, DType::F16)),
            ],
        );
        let results = search_workload(&spec, &arch, &profile, &SearchConfig::default()).unwrap();
        SearchReport::new("iphone15pro", &profile.name, spec.topology, arch, results).unwrap()
    }

    #[test]
    fn selector_overrides_searched_shapes_only() {
        let r = report();
        let moe = MatrixConfig::new(64, 4096, DType::F16);
        let searched = r.decision_for(&moe).unwrap();
        let paper = select_mapping(&moe, r.topology, &r.arch, HUGE_PAGE_BITS).unwrap();
        assert_ne!(searched.scheme, paper.scheme, "the skinny tensor is re-laid-out");
        assert_eq!(searched.map_id, paper.map_id, "via PU order, at the same MapID");
        // A shape the search never saw falls back to the paper's rule.
        let other = MatrixConfig::new(4096, 4096, DType::F16);
        assert_eq!(
            r.selector()(&other).unwrap(),
            select_mapping(&other, r.topology, &r.arch, HUGE_PAGE_BITS).unwrap()
        );
        // A searched-but-not-displaced shape also matches the paper.
        let qkv = MatrixConfig::new(2048, 2048, DType::F16);
        assert_eq!(
            r.decision_for(&qkv).unwrap(),
            select_mapping(&qkv, r.topology, &r.arch, HUGE_PAGE_BITS).unwrap()
        );
    }

    #[test]
    fn json_is_deterministic_and_carries_layouts() {
        let a = report();
        let b = report();
        assert_eq!(a.to_json(), b.to_json(), "byte-identical for identical runs");
        let j = a.to_json();
        assert!(j.contains("\"platform\":\"iphone15pro\""));
        assert!(j.contains("\"tensor\":\"moe-expert\""));
        assert!(j.contains("\"displaced\":true"));
        assert!(j.contains("-> row["), "layout dump is embedded: {j}");
        assert_eq!(a.layouts.len(), a.results.len());
    }

    #[test]
    fn manifest_registration_round_trips_schema() {
        let r = report();
        let mut m = RunManifest::new("mapsearch", 0);
        r.register_into(&mut m);
        let line = m.to_json_line();
        assert!(line.contains("\"bench\":\"mapsearch\""));
        assert!(line.contains("\"tensors\":2"));
        assert!(line.contains("\"search\":{"));
        assert!(!line.contains('\n'), "layout newlines must be escaped");
    }
}
