//! The shard execution layer: runs one shard of a [`CampaignPlan`] and
//! packages the result as a [`PartialArtifact`].
//!
//! There is one backend, [`execute_shard`]: the scoped-thread executor
//! ([`crate::executor::run_campaign`]) over the shard's cell slice.
//! Because every cell seeds purely from its coordinates, a shard run is
//! bit-identical to the same cells inside a full single-process sweep.
//! Every process boundary goes through it: `campaign shard` (the manual
//! multi-machine workflow, where only partial JSON files travel) and the
//! `campaign work` pull-worker, which `campaign serve` and
//! `campaign run --workers N` both lease shards to.
//! [`execute_shard_traced`] adds the shard's event stream.

use crate::artifact::PartialArtifact;
use crate::executor::{run_campaign, CampaignConfig, CampaignResult};
use crate::matrix::ScenarioMatrix;
use crate::plan::CampaignPlan;
use crate::trace::emit_result_events;
use specstab_telemetry::{EventKind, TraceWriter};
use std::time::Instant;

/// Executes shard `shard_id` of `plan` in-process on `threads` worker
/// threads (0 = all cores) and packages the result.
///
/// # Errors
///
/// Returns a message when `shard_id` is not a shard of the plan.
pub fn execute_shard(
    plan: &CampaignPlan,
    shard_id: usize,
    threads: usize,
) -> Result<PartialArtifact, String> {
    let result = run_shard(plan, shard_id, threads)?;
    Ok(package(plan, shard_id, result))
}

/// [`execute_shard`], recording the shard's event stream into `w`:
/// `shard_start`, the result's `cell` and `group` events, and `shard_end`
/// with the shard's wall clock and the sum of its cells' engine counters,
/// exact whatever else the process runs at the time.
///
/// # Errors
///
/// Returns a message when `shard_id` is not a shard of the plan, or the
/// first trace-write failure.
pub fn execute_shard_traced(
    w: &mut TraceWriter,
    plan: &CampaignPlan,
    shard_id: usize,
    threads: usize,
) -> Result<PartialArtifact, String> {
    let started = Instant::now();
    plan.shard_cells(shard_id)?;
    let shard = plan.shards[shard_id];
    w.emit(EventKind::ShardStart { start: shard.start as u64, end: shard.end as u64 })?;
    let result = run_shard(plan, shard_id, threads)?;
    emit_result_events(w, &result)?;
    w.emit(EventKind::ShardEnd {
        cells: result.cells.len() as u64,
        wall_us: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        counters: result.cells.iter().map(|cr| &cr.counters).sum(),
    })?;
    Ok(package(plan, shard_id, result))
}

/// Runs the cells of shard `shard_id` through the executor.
fn run_shard(
    plan: &CampaignPlan,
    shard_id: usize,
    threads: usize,
) -> Result<CampaignResult, String> {
    let matrix = ScenarioMatrix::from_cells(plan.shard_cells(shard_id)?.to_vec());
    Ok(run_campaign(&matrix, &CampaignConfig { threads, ..plan.config.clone() }))
}

/// Packages a shard's result as the partial of shard `shard_id`.
fn package(plan: &CampaignPlan, shard_id: usize, result: CampaignResult) -> PartialArtifact {
    let start = plan.shards[shard_id].start;
    PartialArtifact::from_result(result, shard_id, start, plan.cells.len(), plan.fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;
    use specstab_telemetry::RunCounters;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5"])
            .protocols(["ssme"])
            .daemons(["sync", "central-rr"])
            .fault_bursts([0, 1])
            .seeds(0..3)
            .build()
    }

    #[test]
    fn shard_execution_matches_the_full_run_slice() {
        let m = matrix();
        let cfg = CampaignConfig { max_steps: 100_000, ..CampaignConfig::default() };
        let plan = CampaignPlan::new(&m, &cfg, 3);
        let full = run_campaign(&m, &cfg);
        for shard in &plan.shards {
            let partial = execute_shard(&plan, shard.id, 1).expect("valid shard");
            assert_eq!(partial.start, shard.start);
            assert_eq!(partial.end, shard.end);
            assert_eq!(partial.total_cells, m.len());
            for (a, b) in partial.cells.iter().zip(&full.cells[shard.start..shard.end]) {
                assert_eq!(a.cell, b.cell);
                assert_eq!(a.cell_seed, b.cell_seed, "coordinate-pure seeding");
                assert_eq!(a.outcome, b.outcome);
            }
        }
        assert!(execute_shard(&plan, 99, 1).is_err());
    }

    /// A traced shard's `shard_end` counters are the sum of its own cells'
    /// counters while another thread keeps running campaigns in the same
    /// process. The shard reruns until a foreign campaign has finished
    /// during one of its runs, so the check covers a real overlap.
    #[test]
    fn traced_shard_counters_sum_its_own_cells_while_other_campaigns_run() {
        let cfg = CampaignConfig { max_steps: 100_000, ..CampaignConfig::default() };
        let plan = CampaignPlan::new(&matrix(), &cfg, 1);
        let foreign = ScenarioMatrix::builder()
            .topologies(["ring:5"])
            .protocols(["ssme"])
            .daemons(["sync", "central-rand"])
            .fault_bursts([0])
            .seeds(0..2)
            .build();
        let (stop, finished) = (AtomicBool::new(false), AtomicU64::new(0));
        let (runs, foreign_runs) = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let _ = run_campaign(&foreign, &cfg);
                    finished.fetch_add(1, Ordering::Relaxed);
                }
            });
            let mut runs = Vec::new();
            for _ in 0..50 {
                let before = finished.load(Ordering::Relaxed);
                let mut w = TraceWriter::in_memory(Some(0), "shard");
                let partial = execute_shard_traced(&mut w, &plan, 0, 1).expect("valid shard");
                let overlapped = finished.load(Ordering::Relaxed) > before;
                let reported = w.into_events().into_iter().find_map(|e| match e.kind {
                    EventKind::ShardEnd { counters, .. } => Some(counters),
                    _ => None,
                });
                let own: RunCounters = partial.cells.iter().map(|cr| &cr.counters).sum();
                runs.push((reported, own));
                if overlapped {
                    break;
                }
            }
            // Stop the foreign campaigns before asserting: the scope joins
            // their thread even when this closure panics.
            stop.store(true, Ordering::Relaxed);
            (runs, finished.load(Ordering::Relaxed))
        });
        assert!(foreign_runs > 0, "the foreign thread ran campaigns");
        for (reported, own) in &runs {
            assert!(own.steps > 0 && own.batch_lanes > 0, "the shard ran cells, some as lanes");
            assert_eq!(reported.as_ref(), Some(own), "shard_end counts only the shard's cells");
        }
        assert!(runs.len() < 50, "no foreign campaign finished during any of 50 shard runs");
    }

    #[test]
    fn partial_artifact_round_trips_through_json() {
        let plan = CampaignPlan::new(
            &matrix(),
            &CampaignConfig { max_steps: 100_000, ..CampaignConfig::default() },
            2,
        );
        let partial = execute_shard(&plan, 0, 1).expect("valid shard");
        let text = partial.to_json();
        let parsed = PartialArtifact::from_json(&text).expect("round trip");
        assert_eq!(parsed.to_json(), text, "lossless round trip");
        assert!(PartialArtifact::from_json(&text.replace("partial/v2", "partial/v9")).is_err());
    }
}
