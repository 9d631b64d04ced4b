//! The experiment registry: one experiment per paper artifact.
//!
//! [`all`] lists the experiments in order. Every experiment produces
//! tables (rendered as text and CSV) plus free-form notes recording the
//! paper-claim-versus-measured comparison.

pub mod e0_theorem1;
pub mod e1_examples;
pub mod e2_sync_upper;
pub mod e3_unfair;
pub mod e4_lower_bound;
pub mod e5_cherry_clock;
pub mod e6_unison_bounds;
pub mod e7_ablation;
pub mod e8_speculation;
pub mod e9_naive_contrast;

use crate::table::Table;

/// Shared experiment parameters.
#[derive(Copy, Clone, Debug)]
pub struct RunConfig {
    /// Quick mode: smaller sweeps and fewer seeds (used by tests).
    pub quick: bool,
    /// Base RNG seed for all sampled measurements.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self { quick: false, seed: 0xD1CE }
    }
}

/// Output of one experiment.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Experiment id (e.g. `"e2"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The paper artifact this regenerates.
    pub paper_artifact: String,
    /// Result tables.
    pub tables: Vec<Table>,
    /// Free-form observations (paper vs measured).
    pub notes: Vec<String>,
    /// Whether every checked claim held.
    pub all_claims_hold: bool,
}

impl ExperimentResult {
    /// Renders the full result as text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out =
            format!("# {} — {}\nregenerates: {}\n\n", self.id, self.title, self.paper_artifact);
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str("notes:\n");
            for n in &self.notes {
                out.push_str("  - ");
                out.push_str(n);
                out.push('\n');
            }
        }
        out.push_str(if self.all_claims_hold {
            "\nALL CLAIMS HOLD\n"
        } else {
            "\nSOME CLAIMS FAILED — see notes\n"
        });
        out
    }
}

/// An experiment regenerating one paper artifact.
pub trait Experiment {
    /// Short id (`"e0"` .. `"e9"`).
    fn id(&self) -> &'static str;
    /// Human-readable title.
    fn title(&self) -> &'static str;
    /// The paper artifact regenerated (theorem/figure/section).
    fn paper_artifact(&self) -> &'static str;
    /// Runs the experiment.
    fn run(&self, cfg: &RunConfig) -> ExperimentResult;
}

/// All experiments, in order.
#[must_use]
pub fn all() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(e0_theorem1::E0),
        Box::new(e1_examples::E1),
        Box::new(e2_sync_upper::E2),
        Box::new(e3_unfair::E3),
        Box::new(e4_lower_bound::E4),
        Box::new(e5_cherry_clock::E5),
        Box::new(e6_unison_bounds::E6),
        Box::new(e7_ablation::E7),
        Box::new(e8_speculation::E8),
        Box::new(e9_naive_contrast::E9),
    ]
}

/// Looks up an experiment by id.
#[must_use]
pub fn by_id(id: &str) -> Option<Box<dyn Experiment>> {
    all().into_iter().find(|e| e.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_e0_to_e8() {
        let ids: Vec<&str> = all().iter().map(|e| e.id()).collect();
        assert_eq!(ids, vec!["e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"]);
        assert!(by_id("e4").is_some());
        assert!(by_id("e9").is_some());
        assert!(by_id("e10").is_none());
    }

    #[test]
    fn result_render_contains_sections() {
        let r = ExperimentResult {
            id: "eX".into(),
            title: "demo".into(),
            paper_artifact: "Theorem 0".into(),
            tables: vec![],
            notes: vec!["a note".into()],
            all_claims_hold: true,
        };
        let s = r.render();
        assert!(s.contains("# eX — demo"));
        assert!(s.contains("a note"));
        assert!(s.contains("ALL CLAIMS HOLD"));
    }
}
