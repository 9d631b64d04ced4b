//! Bridges campaign execution results into the `specstab-events/v1`
//! stream: the mapping from [`CellResult`]/[`GroupSummary`] to event
//! payloads, shared by every `campaign` subcommand that takes `--trace`.
//!
//! Events are emitted **post-hoc** in canonical matrix order (cells of a
//! group, then the group), not in completion order — the executor's
//! workers finish out of order, and a canonical-order trace is the useful
//! one for downstream tooling. Timing still reflects reality: each cell
//! event carries the wall clock its run actually took.

use crate::executor::{CellResult, GroupSummary};
use specstab_telemetry::event::{CellEvent, CellOutcomeEvent};
use specstab_telemetry::{CounterSnapshot, Event, EventKind, TraceWriter};

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

/// Emits cell and group events for an executed cell slice in canonical
/// order: every cell of a scenario group, then the group's summary (with
/// the group wall clock summed over its cells). `groups` is the matching
/// aggregate list (a full result's or a shard partial's).
///
/// # Errors
///
/// Returns the first trace-write failure.
pub fn emit_result_events(
    w: &mut TraceWriter,
    cells: &[CellResult],
    groups: &[GroupSummary],
) -> Result<(), String> {
    let mut i = 0;
    while i < cells.len() {
        let key = cells[i].cell.group_key();
        let mut wall_us = 0u64;
        while i < cells.len() && cells[i].cell.group_key() == key {
            wall_us += cells[i].wall_nanos / 1_000;
            w.emit(cell_event(&cells[i]))?;
            i += 1;
        }
        if let Some(g) = groups.iter().find(|g| g.key == key) {
            w.emit(EventKind::Group {
                key,
                runs: g.runs,
                errors: g.errors,
                converged: g.converged,
                violations: g.violations,
                wall_us,
            })?;
        }
    }
    Ok(())
}

/// Field-wise sum of every `shard_end` counter snapshot in an event
/// sequence — how the orchestrator reconstructs campaign-wide engine
/// counters it never observed in its own process.
#[must_use]
pub fn sum_shard_counters(events: &[Event]) -> CounterSnapshot {
    let mut total = CounterSnapshot::default();
    for e in events {
        if let EventKind::ShardEnd { counters, .. } = &e.kind {
            total.add(counters);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_campaign_sequential, CampaignConfig};
    use crate::matrix::ScenarioMatrix;
    use specstab_telemetry::{parse_ndjson, validate_events};

    #[test]
    fn result_events_follow_canonical_order_and_validate() {
        let matrix = ScenarioMatrix::builder()
            .topologies(["ring:6"])
            .protocols(["ssme"])
            .daemons(["sync", "central-rr"])
            .fault_bursts([1])
            .seeds(0..2)
            .build();
        let result = run_campaign_sequential(
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
    fn shard_counters_sum_field_wise() {
        let snap = |k: u64| CounterSnapshot {
            steps: k,
            moves: 2 * k,
            guard_evals: 3 * k,
            delta_bytes: 4 * k,
            monitor_evals: 19 * k,
            scratch_reuses: 5 * k,
            config_clones: 6 * k,
            batch_lanes: 7 * k,
            batch_lane_steps: 10 * k,
            batch_idle_lane_steps: 8 * k,
            batch_scalar_fallbacks: 9 * k,
            batch_routed_sync_groups: 11 * k,
            batch_routed_rr_groups: 12 * k,
            batch_routed_rand_groups: 15 * k,
            batch_routed_dist_groups: 16 * k,
            batch_fallback_sync_groups: 13 * k,
            batch_fallback_rr_groups: 14 * k,
            batch_fallback_rand_groups: 17 * k,
            batch_fallback_dist_groups: 18 * k,
        };
        let ev = |shard: u64, kind: EventKind| Event { shard: Some(shard), seq: 1, t_us: 0, kind };
        let events = vec![
            ev(0, EventKind::ShardEnd { cells: 4, wall_us: 1, counters: snap(1) }),
            ev(1, EventKind::MergeStart { partials: 2 }),
            ev(1, EventKind::ShardEnd { cells: 4, wall_us: 1, counters: snap(10) }),
        ];
        assert_eq!(sum_shard_counters(&events), snap(11));
    }
}
