//! E0 — Theorem 1: SSME is self-stabilizing for `specME` under the unfair
//! distributed daemon.
//!
//! Runs on the campaign engine: random full bursts over the standard zoo
//! under two random distributed and two central daemons. Every cell is
//! judged on its own: it must end inside Γ1, enter Γ1 within the Theorem 3
//! bound, and show no safety violation after that entry.

use super::{Experiment, ExperimentResult, RunConfig};
use crate::table::Table;
use crate::zoo;
use specstab_campaign::executor::{run_campaign, CampaignConfig};
use specstab_campaign::matrix::ScenarioMatrix;
use specstab_core::bounds;

/// Theorem 1 experiment.
pub struct E0;

impl Experiment for E0 {
    fn id(&self) -> &'static str {
        "e0"
    }
    fn title(&self) -> &'static str {
        "SSME self-stabilization under unfair distributed schedules"
    }
    fn paper_artifact(&self) -> &'static str {
        "Theorem 1 (Section 4.2)"
    }

    fn run(&self, cfg: &RunConfig) -> ExperimentResult {
        let scale = if cfg.quick { 1 } else { 2 };
        let runs = if cfg.quick { 3 } else { 10 };
        let result = run_campaign(
            &ScenarioMatrix::builder()
                .topologies(zoo::standard_specs(scale))
                .protocols(["ssme"])
                .daemons(["dist:0.3", "dist:0.8", "central-rand", "central-rr"])
                .fault_bursts([0])
                .seeds(0..runs)
                .build(),
            &CampaignConfig { seed: cfg.seed, max_steps: 5_000_000, ..Default::default() },
        );
        let mut table = Table::new(
            "convergence of SSME to specME under asynchronous daemons",
            &[
                "graph",
                "daemon",
                "runs",
                "converged",
                "max stab steps",
                "max Γ1 entry",
                "Theorem 3 bound",
                "violations after entry",
                "cells holding",
            ],
        );
        let mut all_hold = true;
        for g in &result.groups {
            let bound = bounds::unfair_stabilization_bound(g.n, g.diam);
            let (mut holding, mut late_violations) = (0usize, 0usize);
            for c in result.cells.iter().filter(|c| c.cell.group_key() == g.key) {
                let Ok(o) = &c.outcome else { continue };
                let violated_after_entry = o.stabilization_steps > o.legitimacy_entry;
                late_violations += usize::from(violated_after_entry);
                let within = u128::try_from(o.legitimacy_entry).is_ok_and(|e| e <= bound);
                holding += usize::from(o.ended_legitimate && within && !violated_after_entry);
            }
            all_hold &= u64::try_from(holding) == Ok(g.runs);
            table.push_row(vec![
                g.topology.clone(),
                g.daemon.clone(),
                g.runs.to_string(),
                g.converged.to_string(),
                (g.stabilization.max() as usize).to_string(),
                (g.entry.max() as usize).to_string(),
                bound.to_string(),
                late_violations.to_string(),
                format!("{holding}/{}", g.runs),
            ]);
        }
        ExperimentResult {
            id: self.id().into(),
            title: self.title().into(),
            paper_artifact: self.paper_artifact().into(),
            tables: vec![table],
            notes: vec![format!(
                "claim: every execution reaches a suffix satisfying specME (safety + \
                 liveness); measured on the campaign engine ({} cells, {} threads): a cell \
                 holds when it ends inside Γ1, enters Γ1 within the Theorem 3 bound \
                 2·diam·n³+(n+1)n²+(n−2·diam)n, and has no safety violation after its entry",
                result.cells.len(),
                result.threads_used,
            )],
            all_claims_hold: all_hold,
        }
    }
}
