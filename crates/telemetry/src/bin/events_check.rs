//! `events_check` — strict validator for `specstab-events/v1` NDJSON
//! trace files.
//!
//! Usage: `events_check <trace.ndjson>...`
//!
//! Each file is parsed line-by-line through the strict JSON reader and
//! checked against the stream discipline (schema header first, dense
//! per-stream sequence numbers, monotonic timestamps), the lease
//! discipline of coordinator traces, and two batch invariants: a counters
//! object with zero launched lanes carries no idle lane-steps, and the
//! `group` path labels agree with the lane counter. Each file's summary
//! line also counts the uploads a coordinator accepted without worker
//! telemetry (`shards_without_telemetry`), whose shards the trace's
//! counters and path tally leave out. Exit code 0 when every file
//! validates; 1 with a diagnostic on stderr otherwise. CI runs this over
//! the traces the distributed-pipeline job produces.

use specstab_telemetry::counters::RunCounters;
use specstab_telemetry::event::{
    parse_ndjson, validate_events, Event, EventKind, PATH_BATCHED, PATH_SCALAR,
    PATH_SCALAR_FALLBACK,
};
use specstab_telemetry::metrics::{shards_without_telemetry, sum_shard_counters, tally_paths};
use std::collections::BTreeMap;

/// Batch invariants over the counters objects and `group` events. Idle
/// lane-steps are only accumulated by replica lanes, so no total carries
/// them without launched lanes. The path labels agree with the
/// lane counter: every cell of a `batched` group ran as one lane, and
/// lanes launch only in `batched` and `scalar-fallback` groups (a fallback
/// group may have had a chunk batched), so the trace's `batch_lanes` (its
/// `campaign_end` counters, else its summed `shard_end`s) lies between the
/// runs of the `batched` groups and the runs of both. Unknown paths are
/// rejected; traces written before the label (a `group` event without
/// one) are not held to the agreement. Returns the trace's totals.
fn check_batch_telemetry(events: &[Event]) -> Result<RunCounters, String> {
    let mut campaign = None;
    let (mut batched, mut fallback, mut unlabelled) = (0u64, 0u64, false);
    for e in events {
        let counters = match &e.kind {
            EventKind::CampaignEnd { counters, .. } => {
                campaign = Some(*counters);
                counters
            }
            EventKind::ShardEnd { counters, .. } => counters,
            EventKind::Group { path, runs, .. } => {
                match path.as_str() {
                    PATH_BATCHED => batched += runs,
                    PATH_SCALAR_FALLBACK => fallback += runs,
                    PATH_SCALAR => {}
                    "" => unlabelled = true,
                    other => {
                        return Err(format!("event seq {}: unknown group path '{other}'", e.seq))
                    }
                }
                continue;
            }
            _ => continue,
        };
        if counters.batch_lanes == 0 && counters.batch_idle_lane_steps != 0 {
            return Err(format!(
                "event seq {}: {} idle lane-steps with zero batch lanes launched",
                e.seq, counters.batch_idle_lane_steps
            ));
        }
    }
    let totals = campaign.unwrap_or_else(|| sum_shard_counters(events));
    let lanes = totals.batch_lanes;
    if !unlabelled && !(batched..=batched + fallback).contains(&lanes) {
        return Err(format!(
            "{lanes} batch lanes launched, but batched groups hold {batched} runs and \
             scalar-fallback groups {fallback}"
        ));
    }
    Ok(totals)
}

/// Lease discipline for coordinator traces: every `lease_expired` must
/// reference a `(shard_id, lease_id)` pair previously granted to the same
/// worker, and lease ids must never be reused by a later grant.
fn check_lease_discipline(events: &[Event]) -> Result<(), String> {
    let mut granted: Vec<(u64, u64, &str)> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::LeaseGranted { shard_id, worker, lease_id, .. } => {
                if granted.iter().any(|(_, id, _)| id == lease_id) {
                    return Err(format!("event seq {}: lease id {lease_id} reused", e.seq));
                }
                granted.push((*shard_id, *lease_id, worker));
            }
            EventKind::LeaseExpired { shard_id, worker, lease_id } => {
                let known = granted
                    .iter()
                    .any(|(s, id, w)| s == shard_id && id == lease_id && *w == worker);
                if !known {
                    return Err(format!(
                        "event seq {}: lease {lease_id} on shard {shard_id} expired for \
                         worker {worker} but was never granted",
                        e.seq
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Runs every check over one parsed trace and returns its summary.
fn check_events(events: &[Event]) -> Result<String, String> {
    validate_events(events)?;
    check_lease_discipline(events)?;
    let totals = check_batch_telemetry(events)?;
    let mut paths = BTreeMap::new();
    tally_paths(&mut paths, events);
    Ok(format!(
        "{} events; batch: {} lanes, {} idle lane-steps; shards_without_telemetry {}; \
         group paths {paths:?}",
        events.len(),
        totals.batch_lanes,
        totals.batch_idle_lane_steps,
        shards_without_telemetry(events)
    ))
}

fn check_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let events = parse_ndjson(&text).map_err(|e| format!("{path}: {e}"))?;
    let summary = check_events(&events).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!("{path}: ok ({summary})"))
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: events_check <trace.ndjson>...");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &paths {
        match check_file(path) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("events_check: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specstab_telemetry::EVENTS_SCHEMA;

    /// One valid stream: the header, then `kinds` numbered densely.
    fn trace(kinds: Vec<EventKind>) -> Vec<Event> {
        std::iter::once(EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: "run".into() })
            .chain(kinds)
            .enumerate()
            .map(|(seq, kind)| Event { shard: None, seq: seq as u64, t_us: 0, kind })
            .collect()
    }

    fn group(path: &str, runs: u64) -> EventKind {
        EventKind::Group {
            key: format!("ring:8|ssme|sync|f{runs}"),
            runs,
            errors: 0,
            converged: runs,
            violations: 0,
            wall_us: 10,
            path: path.into(),
        }
    }

    fn campaign_end(batch_lanes: u64, batch_idle_lane_steps: u64) -> EventKind {
        EventKind::CampaignEnd {
            cells: 60,
            errors: 0,
            violations: 0,
            wall_us: 100,
            counters: RunCounters {
                batch_lanes,
                batch_lane_steps: 10 * batch_lanes,
                batch_idle_lane_steps,
                ..RunCounters::default()
            },
        }
    }

    fn shard_end(batch_lanes: u64) -> EventKind {
        EventKind::ShardEnd {
            cells: 20,
            wall_us: 50,
            counters: RunCounters { batch_lanes, ..RunCounters::default() },
        }
    }

    fn granted(shard_id: u64, worker: &str, lease_id: u64) -> EventKind {
        EventKind::LeaseGranted { shard_id, worker: worker.into(), lease_id, lease_ms: 1_000 }
    }

    fn rejected(kinds: Vec<EventKind>, reason: &str) {
        let err = check_events(&trace(kinds)).expect_err("the trace must be rejected");
        assert!(err.contains(reason), "expected '{reason}' in: {err}");
    }

    #[test]
    fn consistent_labelled_traces_pass_with_their_path_tally() {
        // 40 batched runs plus a fallback group with one batched chunk.
        let kinds = vec![
            group(PATH_BATCHED, 40),
            group(PATH_SCALAR_FALLBACK, 20),
            group(PATH_SCALAR, 20),
            campaign_end(40, 3),
        ];
        let summary = check_events(&trace(kinds.clone())).expect("consistent");
        assert!(
            summary.ends_with(r#"group paths {"batched": 1, "scalar": 1, "scalar-fallback": 1}"#),
            "{summary}"
        );
        let mut upper = kinds;
        upper[3] = campaign_end(60, 3);
        check_events(&trace(upper)).expect("every fallback run may have launched a lane");
        // Without `campaign_end` the totals are the summed `shard_end`s.
        check_events(&trace(vec![group(PATH_BATCHED, 40), shard_end(25), shard_end(15)]))
            .expect("shard totals");
    }

    #[test]
    fn the_summary_counts_uploads_without_telemetry() {
        let accepted = |shard_id: u64, telemetry_events: Option<u64>| EventKind::PartialAccepted {
            shard_id,
            worker: "w1".into(),
            cells: 9,
            telemetry_events,
        };
        let kinds = vec![accepted(0, Some(0)), accepted(1, Some(12)), accepted(2, None)];
        let summary = check_events(&trace(kinds)).expect("valid");
        assert!(summary.contains("; shards_without_telemetry 1;"), "{summary}");
    }

    #[test]
    fn reused_lease_ids_are_rejected() {
        rejected(vec![granted(0, "w1", 7), granted(1, "w2", 7)], "lease id 7 reused");
    }

    #[test]
    fn expiries_of_leases_never_granted_are_rejected() {
        let expired = EventKind::LeaseExpired { shard_id: 1, worker: "w1".into(), lease_id: 7 };
        rejected(vec![granted(0, "w1", 7), expired], "was never granted");
    }

    #[test]
    fn idle_lane_steps_without_lanes_are_rejected() {
        rejected(vec![group(PATH_SCALAR, 4), campaign_end(0, 5)], "with zero batch lanes");
    }

    #[test]
    fn batched_groups_need_one_lane_per_run() {
        rejected(
            vec![group(PATH_BATCHED, 40), group(PATH_BATCHED, 8), campaign_end(40, 0)],
            "40 batch lanes launched, but batched groups hold 48 runs",
        );
        rejected(
            vec![group(PATH_BATCHED, 40), shard_end(39)],
            "39 batch lanes launched, but batched groups hold 40 runs",
        );
    }

    #[test]
    fn lanes_in_an_all_scalar_trace_are_rejected() {
        rejected(
            vec![group(PATH_SCALAR, 12), group(PATH_SCALAR, 12), campaign_end(12, 0)],
            "12 batch lanes launched, but batched groups hold 0 runs and scalar-fallback groups 0",
        );
    }

    #[test]
    fn unknown_paths_are_rejected() {
        rejected(vec![group("batched:sync", 4), campaign_end(4, 0)], "unknown group path");
    }

    #[test]
    fn traces_without_path_labels_still_pass() {
        // Older traces carry no `path` on their group events, while their
        // counters still count the lanes.
        let summary = check_events(&trace(vec![group("", 12), group("", 6), campaign_end(12, 2)]))
            .expect("an unlabelled trace is not checked for agreement");
        assert!(summary.ends_with("group paths {}"), "{summary}");
    }
}
