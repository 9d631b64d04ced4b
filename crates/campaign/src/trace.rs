//! Bridges campaigns into the `specstab-events/v1` stream: the events
//! that open a campaign's trace, and the mapping from
//! [`CellResult`]/[`GroupSummary`] to event payloads, shared by every
//! `campaign` subcommand that takes `--trace`.
//!
//! Events are emitted **post-hoc** in canonical matrix order (cells of a
//! group, then the group), not in completion order — the executor's
//! workers finish out of order, and a canonical-order trace is the useful
//! one for downstream tooling. Timing still reflects reality: each cell
//! event carries the wall clock its run actually took, and each group
//! event the engine path its cells took ([`group_path`]).

use crate::executor::{group_path, CampaignConfig, CellResult, GroupSummary};
use crate::matrix::Cell;
use crate::plan::{group_boundaries, CampaignPlan};
use specstab_telemetry::event::{CellEvent, CellOutcomeEvent};
use specstab_telemetry::{EventKind, TraceWriter};

/// The `campaign_start` event of a campaign over `cells` (in canonical
/// matrix order) run with `config`.
#[must_use]
pub fn campaign_start(cells: &[Cell], config: &CampaignConfig) -> EventKind {
    EventKind::CampaignStart {
        cells: cells.len() as u64,
        groups: group_boundaries(cells).len().saturating_sub(1) as u64,
        seed: config.seed,
        max_steps: config.max_steps as u64,
    }
}

/// The events that open a planned campaign's trace (`campaign plan`'s and
/// the coordinator's): `campaign_start`, then `plan`.
#[must_use]
pub fn plan_events(plan: &CampaignPlan) -> [EventKind; 2] {
    [
        campaign_start(&plan.cells, &plan.config),
        EventKind::Plan { cells: plan.cells.len() as u64, shards: plan.shards.len() as u64 },
    ]
}

/// The event payload describing one executed cell.
#[must_use]
pub fn cell_event(cr: &CellResult) -> EventKind {
    EventKind::Cell(CellEvent {
        topology: cr.cell.topology.clone(),
        protocol: cr.cell.protocol.clone(),
        daemon: cr.cell.daemon.clone(),
        init: cr.cell.init.to_string(),
        seed_index: cr.cell.seed_index,
        wall_us: cr.wall_nanos / 1_000,
        moves: cr.counters.moves,
        outcome: match &cr.outcome {
            Ok(o) => Ok(CellOutcomeEvent {
                steps_run: o.steps_run as u64,
                stabilization_steps: o.stabilization_steps as u64,
                converged: o.ended_legitimate,
            }),
            Err(e) => Err(e.clone()),
        },
    })
}

/// Emits cell and group events for a slice of cells this process
/// executed, in canonical order: every cell of a scenario group, then the
/// group's summary, with the group wall clock summed over its cells and
/// the engine path derived from them — one event per group, however many
/// work chunks it spanned. `groups` is the matching aggregate list (a
/// full result's or a shard's).
///
/// # Errors
///
/// Returns the first trace-write failure.
pub fn emit_result_events(
    w: &mut TraceWriter,
    cells: &[CellResult],
    groups: &[GroupSummary],
) -> Result<(), String> {
    for group in cells.chunk_by(|a, b| a.cell.same_group(&b.cell)) {
        let mut wall_us = 0u64;
        for cr in group {
            wall_us += cr.wall_nanos / 1_000;
            w.emit(cell_event(cr))?;
        }
        let key = group[0].cell.group_key();
        if let Some(g) = groups.iter().find(|g| g.key == key) {
            w.emit(EventKind::Group {
                key,
                runs: g.runs,
                errors: g.errors,
                converged: g.converged,
                violations: g.violations,
                wall_us,
                path: group_path(group).into(),
            })?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_campaign;
    use crate::matrix::ScenarioMatrix;
    use specstab_telemetry::{metrics_from_events, parse_ndjson, validate_events, PATH_BATCHED};

    #[test]
    fn result_events_follow_canonical_order_and_validate() {
        let matrix = ScenarioMatrix::builder()
            .topologies(["ring:6"])
            .protocols(["ssme"])
            .daemons(["sync", "central-rr"])
            .fault_bursts([1])
            .seeds(0..2)
            .build();
        let result = run_campaign(
            &matrix,
            &CampaignConfig { max_steps: 100_000, ..CampaignConfig::default() },
        );
        let path =
            std::env::temp_dir().join(format!("specstab-trace-emit-{}.ndjson", std::process::id()));
        let mut w = TraceWriter::create(&path, None, "run").expect("create");
        emit_result_events(&mut w, &result.cells, &result.groups).expect("emit");
        w.finish().expect("finish");
        let events = parse_ndjson(&std::fs::read_to_string(&path).expect("read")).expect("parse");
        let _ = std::fs::remove_file(&path);
        validate_events(&events).expect("valid stream");
        // header + one event per cell + one per group, in matrix order.
        assert_eq!(events.len(), 1 + result.cells.len() + result.groups.len());
        let tags: Vec<&str> = events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(
            tags,
            ["stream", "cell", "cell", "group", "cell", "cell", "group"],
            "cells of a group precede the group summary"
        );
        let EventKind::Cell(c) = &events[1].kind else { panic!("cell event") };
        assert_eq!(c.topology, "ring:6");
        assert!(c.outcome.is_ok());
    }

    #[test]
    fn a_group_spanning_two_work_chunks_emits_one_labelled_group_event() {
        // 40 seeds are two work chunks (32 + 8 cells), run as two batches.
        let matrix = ScenarioMatrix::builder()
            .topologies(["ring:8"])
            .protocols(["ssme"])
            .daemons(["sync"])
            .fault_bursts([0])
            .seeds(0..40)
            .build();
        let result = run_campaign(
            &matrix,
            &CampaignConfig { max_steps: 100_000, ..CampaignConfig::default() },
        );
        let mut w = TraceWriter::in_memory(None, "run");
        emit_result_events(&mut w, &result.cells, &result.groups).expect("emit");
        let events = w.into_events();
        let groups: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Group { runs, path, .. } => Some((*runs, path.as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(groups, [(40, PATH_BATCHED)]);
        let paths = metrics_from_events(&events).req("paths").expect("paths").render_compact();
        assert_eq!(paths, "{\"batched\":1}", "the sidecar counts the group once");
    }
}
