//! The merge layer: folds partial artifacts back into one campaign result.
//!
//! [`MergeAccumulator`] accepts partials **one at a time, in any order, at
//! any split granularity**, validating each on arrival (same campaign
//! parameters, same total cell count, same plan matrix fingerprint, no
//! range overlap with previously accepted partials) and detecting exact
//! duplicates — a re-dispatched straggler's second upload of the same
//! shard is acknowledged and dropped rather than double-counted.
//! [`MergeAccumulator::finish`] checks the accepted set tiles the plan
//! without gaps, sorts into canonical order, concatenates the per-cell
//! results, checks them against the plan fingerprint and their own
//! coordinates, and derives every group's statistics from them with
//! [`summarize_groups`] — the executor's own aggregation, run once over
//! the whole cell list. [`merge_partials`] is the batch wrapper over the
//! same machinery.
//!
//! Partials carry no statistics, so where the shards were cut never
//! matters: cut at group boundaries (the planner's invariant) or inside a
//! group, even inside one of the executor's statistics chunks, the merged
//! artifact is **byte-identical** to a single-process run of the same
//! plan.

use crate::artifact::PartialArtifact;
use crate::executor::{summarize_groups, CampaignResult};
use crate::plan::cells_fingerprint;
use std::time::Duration;

/// Outcome of feeding one partial to [`MergeAccumulator::accept`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accepted {
    /// First partial covering this range: validated and queued for the fold.
    Fresh,
    /// Exact duplicate of an already-accepted partial (same shard id and
    /// cell range): acknowledged and dropped without double-counting.
    Duplicate,
}

/// Incremental merge state: validated partials accumulated as they land.
///
/// The fold itself is deferred to [`finish`](Self::finish) because
/// byte-identity requires canonical (cell-range) order, which an
/// out-of-order arrival stream only fixes once complete; acceptance is
/// where per-partial validation and idempotency live.
#[derive(Debug, Default)]
pub struct MergeAccumulator {
    partials: Vec<PartialArtifact>,
}

impl MergeAccumulator {
    /// An empty accumulator; the first accepted partial pins the campaign
    /// parameters, total cell count, and plan fingerprint.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct partials accepted so far.
    #[must_use]
    pub fn accepted_count(&self) -> usize {
        self.partials.len()
    }

    /// Total cells covered by accepted partials.
    #[must_use]
    pub fn covered_cells(&self) -> usize {
        self.partials.iter().map(|p| p.end - p.start).sum()
    }

    /// Whether the accepted partials cover the whole plan (accepted ranges
    /// never overlap, so coverage equals the sum of range lengths).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.partials.first().is_some_and(|f| self.covered_cells() == f.total_cells)
    }

    /// Validates one partial against the accepted set and queues it.
    ///
    /// Returns [`Accepted::Duplicate`] — and drops the upload — when a
    /// partial with the same shard id and cell range was already accepted.
    ///
    /// # Errors
    ///
    /// Rejects partials with differing campaign parameters (seed, step
    /// budget, early-stop margin), total cell counts, or plan matrix
    /// fingerprints (partials of two different campaigns never mix, even
    /// when their counts and configuration coincide), and cell ranges that
    /// overlap previously accepted partials without being exact duplicates.
    pub fn accept(&mut self, p: PartialArtifact) -> Result<Accepted, String> {
        if let Some(first) = self.partials.first() {
            let (seed, max_steps, margin) =
                (first.config.seed, first.config.max_steps, first.config.early_stop_margin);
            if p.config.seed != seed
                || p.config.max_steps != max_steps
                || p.config.early_stop_margin != margin
            {
                return Err(format!(
                    "shard {} ran with different campaign parameters \
                     (seed {} / max_steps {} / margin {}, expected {seed} / {max_steps} / {margin})",
                    p.shard_id, p.config.seed, p.config.max_steps, p.config.early_stop_margin
                ));
            }
            if p.total_cells != first.total_cells {
                return Err(format!(
                    "shard {} describes a plan of {} cells, expected {}",
                    p.shard_id, p.total_cells, first.total_cells
                ));
            }
            if p.plan_fingerprint != first.plan_fingerprint {
                return Err(format!(
                    "shard {} belongs to a different plan (matrix fingerprint {:#018x}, \
                     expected {:#018x})",
                    p.shard_id, p.plan_fingerprint, first.plan_fingerprint
                ));
            }
        }
        if self
            .partials
            .iter()
            .any(|q| q.shard_id == p.shard_id && q.start == p.start && q.end == p.end)
        {
            return Ok(Accepted::Duplicate);
        }
        if self.partials.iter().any(|q| p.start < q.end && q.start < p.end) {
            return Err(format!(
                "shard {} (cells {}..{}) overlaps previously merged cells",
                p.shard_id, p.start, p.end
            ));
        }
        self.partials.push(p);
        Ok(Accepted::Fresh)
    }

    /// Checks the accepted set tiles the plan and folds it into a
    /// [`CampaignResult`], deriving the group statistics from the cells.
    ///
    /// # Errors
    ///
    /// Rejects an empty accumulator, accepted sets whose ranges leave
    /// gaps in the plan's cell range, merged cells whose coordinates do
    /// not hash to the partials' plan fingerprint, and cells whose
    /// `cell_seed` is not the one their coordinates derive.
    pub fn finish(mut self) -> Result<CampaignResult, String> {
        let Some(first) = self.partials.first() else {
            return Err("nothing to merge: no partial artifacts supplied".into());
        };
        let config = first.config.clone();
        let total = first.total_cells;
        let plan_fingerprint = first.plan_fingerprint;
        self.partials.sort_by_key(|p| p.start);
        let mut expected = 0usize;
        for p in &self.partials {
            if p.start != expected {
                debug_assert!(p.start > expected, "overlaps are rejected at accept time");
                return Err(format!("cells {expected}..{} are covered by no partial", p.start));
            }
            expected = p.end;
        }
        if expected != total {
            return Err(format!("cells {expected}..{total} are covered by no partial"));
        }

        let mut cells = Vec::with_capacity(total);
        for p in self.partials {
            cells.extend(p.cells);
        }
        let fingerprint = cells_fingerprint(cells.iter().map(|c| &c.cell));
        if fingerprint != plan_fingerprint {
            return Err(format!(
                "the merged cells hash to matrix fingerprint {fingerprint:#018x}, not their \
                 plan's {plan_fingerprint:#018x}: some cell's coordinates were altered"
            ));
        }
        if let Some((i, c)) =
            cells.iter().enumerate().find(|(_, c)| c.cell_seed != c.cell.cell_seed(config.seed))
        {
            return Err(format!(
                "cell {i} carries cell_seed {}, but its coordinates derive {}",
                c.cell_seed,
                c.cell.cell_seed(config.seed)
            ));
        }
        Ok(CampaignResult {
            groups: summarize_groups(&cells),
            cells,
            threads_used: 1,
            wall: Duration::ZERO,
            config,
        })
    }
}

/// Merges partial artifacts (any order, any granularity) into a
/// [`CampaignResult`]. Exact duplicates (same shard id and cell range) are
/// dropped rather than double-counted.
///
/// # Errors
///
/// Rejects an empty set, partials with differing campaign parameters
/// (seed, step budget, early-stop margin), total cell counts, or plan
/// matrix fingerprints (partials of two different campaigns never mix,
/// even when their counts and configuration coincide), non-duplicate
/// overlapping shard coverage, ranges that leave gaps, and cells that
/// disagree with the plan fingerprint or their own seeds.
pub fn merge_partials(partials: Vec<PartialArtifact>) -> Result<CampaignResult, String> {
    let mut acc = MergeAccumulator::new();
    for p in partials {
        acc.accept(p)?;
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::to_json;
    use crate::executor::{run_campaign, CampaignConfig};
    use crate::matrix::ScenarioMatrix;
    use crate::plan::CampaignPlan;
    use crate::shard::execute_shard;

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5"])
            .protocols(["ssme"])
            .daemons(["sync", "dist:0.5"])
            .fault_bursts([0, 1])
            .seeds(0..3)
            .build()
    }

    fn config() -> CampaignConfig {
        CampaignConfig { max_steps: 100_000, ..CampaignConfig::default() }
    }

    #[test]
    fn merged_shards_reproduce_the_single_process_artifact() {
        let m = matrix();
        let cfg = config();
        let golden = to_json(&run_campaign(&m, &cfg), true);
        let plan = CampaignPlan::new(&m, &cfg, 3);
        // Shuffled supply order: merge must canonicalize.
        let partials: Vec<_> = [2usize, 0, 1]
            .iter()
            .map(|&id| execute_shard(&plan, id, 1).expect("valid shard"))
            .collect();
        let merged = merge_partials(partials).expect("tiles");
        assert_eq!(to_json(&merged, true), golden, "merge must be byte-identical");
    }

    #[test]
    fn merge_validates_gaps_overlaps_and_parameters() {
        let plan = CampaignPlan::new(&matrix(), &config(), 3);
        let all: Vec<_> =
            (0..3).map(|id| execute_shard(&plan, id, 1).expect("valid shard")).collect();
        assert!(merge_partials(Vec::new()).is_err(), "empty set");
        let gap = vec![all[0].clone(), all[2].clone()];
        assert!(merge_partials(gap).unwrap_err().contains("covered by no partial"));
        // Overlap that is not an exact duplicate (different shard id over
        // the same range) is corruption, not a straggler retry.
        let mut imposter = all[0].clone();
        imposter.shard_id = 99;
        let overlap = vec![all[0].clone(), imposter, all[1].clone(), all[2].clone()];
        assert!(merge_partials(overlap).unwrap_err().contains("overlaps"));
        let mut wrong_seed = all.clone();
        wrong_seed[1].config.seed ^= 1;
        assert!(merge_partials(wrong_seed).unwrap_err().contains("different campaign parameters"));
        let mut wrong_total = all.clone();
        wrong_total[1].total_cells += 1;
        assert!(merge_partials(wrong_total).unwrap_err().contains("cells, expected"));
        // Partials of a different campaign with coincidentally matching
        // counts and configuration: the matrix fingerprint catches it.
        let mut wrong_plan = all.clone();
        wrong_plan[1].plan_fingerprint ^= 1;
        assert!(merge_partials(wrong_plan).unwrap_err().contains("different plan"));
        let missing_tail = vec![all[0].clone(), all[1].clone()];
        assert!(merge_partials(missing_tail).unwrap_err().contains("covered by no partial"));
    }

    #[test]
    fn duplicate_uploads_are_acknowledged_and_dropped() {
        let m = matrix();
        let cfg = config();
        let golden = to_json(&run_campaign(&m, &cfg), true);
        let plan = CampaignPlan::new(&m, &cfg, 3);
        let all: Vec<_> =
            (0..3).map(|id| execute_shard(&plan, id, 1).expect("valid shard")).collect();

        // The straggler story: shard 1 is re-dispatched and eventually both
        // executions upload. The accumulator folds it exactly once.
        let mut acc = MergeAccumulator::new();
        assert_eq!(acc.accept(all[1].clone()).unwrap(), Accepted::Fresh);
        assert_eq!(acc.accept(all[1].clone()).unwrap(), Accepted::Duplicate);
        assert_eq!(acc.accept(all[0].clone()).unwrap(), Accepted::Fresh);
        assert!(!acc.is_complete());
        assert_eq!(acc.accept(all[2].clone()).unwrap(), Accepted::Fresh);
        assert_eq!(acc.accept(all[0].clone()).unwrap(), Accepted::Duplicate);
        assert!(acc.is_complete());
        assert_eq!(acc.accepted_count(), 3);
        assert_eq!(acc.covered_cells(), all[0].total_cells);
        let merged = acc.finish().expect("tiles");
        assert_eq!(to_json(&merged, true), golden, "duplicates must not perturb the bytes");

        // Same behaviour through the batch wrapper.
        let dup = vec![all[2].clone(), all[0].clone(), all[2].clone(), all[1].clone()];
        let merged = merge_partials(dup).expect("duplicates dropped, tiling complete");
        assert_eq!(to_json(&merged, true), golden);
    }
}
