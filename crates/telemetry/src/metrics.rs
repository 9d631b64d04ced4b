//! The `specstab-metrics/v1` sidecar: runtime metrics distilled from an
//! event stream.
//!
//! `metrics.json` is the artifact you look at to understand *how* a
//! campaign ran — wall clock per cell/group/shard, throughput, engine
//! counter totals — while `campaign.json` stays the artifact that says
//! *what* it computed. The two never mix: metrics carry wall-clock
//! timings and are therefore non-reproducible by design, which is exactly
//! why they are a separate file instead of extra fields on the
//! deterministic artifact.

use crate::counters::RunCounters;
use crate::event::{counters_json, Event, EventKind, ParseTally};
use crate::json::{obj, Json};
use std::collections::BTreeMap;

/// Schema identifier written into every metrics sidecar.
pub const METRICS_SCHEMA: &str = "specstab-metrics/v1";

fn moves_per_sec(moves: u64, wall_us: u64) -> Json {
    if wall_us == 0 {
        return Json::Num(0.0);
    }
    #[allow(clippy::cast_precision_loss)]
    Json::Num(moves as f64 / (wall_us as f64 / 1_000_000.0))
}

/// Counts the `group` events of `events` per engine `path` into `tally`:
/// the groups-per-path count the sidecar's `paths` object, the
/// coordinator's `/status` and `events_check` report. Groups of traces
/// written before the path label carry none and are not counted.
pub fn tally_paths(tally: &mut BTreeMap<String, u64>, events: &[Event]) {
    for e in events {
        if let EventKind::Group { path, .. } = &e.kind {
            if !path.is_empty() {
                *tally.entry(path.clone()).or_default() += 1;
            }
        }
    }
}

/// Sum of every `shard_end`'s counters in `events`: the engine counters
/// of the cells those shards ran, in whichever processes. The
/// coordinator's totals, and the sidecar's and `events_check`'s for a
/// trace without `campaign_end`, are this sum.
#[must_use]
pub fn sum_shard_counters(events: &[Event]) -> RunCounters {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ShardEnd { counters, .. } => Some(counters),
            _ => None,
        })
        .sum()
}

/// The uploads a coordinator accepted without worker telemetry: its
/// `partial_accepted` events that carried no events (a partial written by
/// `campaign shard --out` and resumed from the spool). Their shards'
/// cells, groups and counters are missing from the trace's tallies.
/// Events of traces older than the count are not counted.
#[must_use]
pub fn shards_without_telemetry(events: &[Event]) -> u64 {
    let bare =
        |e: &&Event| matches!(e.kind, EventKind::PartialAccepted { telemetry_events: Some(0), .. });
    events.iter().filter(bare).count() as u64
}

/// A [`tally_paths`] tally as a JSON object, paths in sorted order.
#[must_use]
pub fn paths_json(tally: &BTreeMap<String, u64>) -> Json {
    Json::Obj(tally.iter().map(|(path, groups)| (path.clone(), Json::UInt(*groups))).collect())
}

/// Builds the `specstab-metrics/v1` sidecar from a (merged) event
/// sequence.
///
/// Totals prefer the `campaign_end` event when present (its counters are
/// the sum of the campaign's cells); otherwise they are reconstructed by
/// summing `shard_end` events
/// ([`sum_shard_counters`]), with total wall clock
/// taken as the slowest shard. Cell and group rows are carried over in
/// stream order, which for a merged trace is the deterministic
/// `(shard, seq)` order; each group row names its engine `path`, and the
/// `paths` object counts the groups per path ([`tally_paths`]). Traces
/// containing lease-lifecycle events (a
/// `campaign serve` coordinator) additionally get a `serve` object with
/// lease/upload counts and per-worker accepted-cell tallies. Traces with a
/// `merge_end` event (`run --workers`, `merge`, `serve`) get a `transport`
/// object: the partial-artifact bytes the merge parsed, the microseconds
/// the parses took, their throughput in MiB/s, the microseconds the fold
/// into the result took, and the accepted uploads that carried no worker
/// telemetry ([`shards_without_telemetry`]).
#[must_use]
pub fn metrics_from_events(events: &[Event]) -> Json {
    let mut cells = Vec::new();
    let mut groups = Vec::new();
    let mut shards = Vec::new();
    let mut campaign_end = None;
    let mut shard_cells = 0u64;
    let mut shard_wall_max = 0u64;
    let mut total_moves = 0u64;
    let mut leases_granted = 0u64;
    let mut leases_expired = 0u64;
    let mut partials_accepted = 0u64;
    let mut partials_rejected = 0u64;
    let mut transport: Option<(ParseTally, u64)> = None;
    // Per-worker accepted shard/cell tallies, in first-seen order so the
    // sidecar stays deterministic for a deterministically merged trace.
    let mut workers: Vec<(String, u64, u64)> = Vec::new();

    for e in events {
        match &e.kind {
            EventKind::Cell(c) => {
                total_moves += c.moves;
                let mut fields = vec![
                    ("topology", Json::Str(c.topology.clone())),
                    ("protocol", Json::Str(c.protocol.clone())),
                    ("daemon", Json::Str(c.daemon.clone())),
                    ("init", Json::Str(c.init.clone())),
                    ("seed_index", Json::UInt(c.seed_index)),
                    ("wall_us", Json::UInt(c.wall_us)),
                    ("moves", Json::UInt(c.moves)),
                    ("ok", Json::Bool(c.outcome.is_ok())),
                ];
                if let Some(shard) = e.shard {
                    fields.insert(0, ("shard", Json::UInt(shard)));
                }
                cells.push(obj(fields));
            }
            EventKind::Group { key, runs, errors, converged, violations, wall_us, path } => {
                groups.push(obj(vec![
                    ("key", Json::Str(key.clone())),
                    ("runs", Json::UInt(*runs)),
                    ("errors", Json::UInt(*errors)),
                    ("converged", Json::UInt(*converged)),
                    ("violations", Json::UInt(*violations)),
                    ("wall_us", Json::UInt(*wall_us)),
                    ("path", Json::Str(path.clone())),
                ]));
            }
            EventKind::ShardEnd { cells: n, wall_us, counters } => {
                shard_cells += n;
                shard_wall_max = shard_wall_max.max(*wall_us);
                shards.push(obj(vec![
                    ("shard", e.shard.map_or(Json::Null, Json::UInt)),
                    ("cells", Json::UInt(*n)),
                    ("wall_us", Json::UInt(*wall_us)),
                    ("moves_per_sec", moves_per_sec(counters.moves, *wall_us)),
                    ("counters", counters_json(counters)),
                ]));
            }
            EventKind::CampaignEnd { cells, errors, violations, wall_us, counters } => {
                campaign_end = Some((*cells, *errors, *violations, *wall_us, *counters));
            }
            EventKind::LeaseGranted { .. } => leases_granted += 1,
            EventKind::LeaseExpired { .. } => leases_expired += 1,
            EventKind::PartialAccepted { worker, cells, .. } => {
                partials_accepted += 1;
                match workers.iter_mut().find(|(w, _, _)| w == worker) {
                    Some((_, shards, total)) => {
                        *shards += 1;
                        *total += cells;
                    }
                    None => workers.push((worker.clone(), 1, *cells)),
                }
            }
            EventKind::PartialRejected { .. } => partials_rejected += 1,
            EventKind::MergeEnd { parse, fold_us, .. } => {
                let (t, fold) = transport.get_or_insert_with(Default::default);
                t.bytes += parse.bytes;
                t.us += parse.us;
                *fold += fold_us;
            }
            _ => {}
        }
    }

    let totals = match campaign_end {
        Some((n, errors, violations, wall_us, counters)) => obj(vec![
            ("cells", Json::UInt(n)),
            ("errors", Json::UInt(errors)),
            ("violations", Json::UInt(violations)),
            ("wall_us", Json::UInt(wall_us)),
            ("moves_per_sec", moves_per_sec(counters.moves, wall_us)),
            ("counters", counters_json(&counters)),
        ]),
        None => obj(vec![
            ("cells", Json::UInt(shard_cells)),
            ("wall_us", Json::UInt(shard_wall_max)),
            ("moves_per_sec", moves_per_sec(total_moves, shard_wall_max)),
            ("counters", counters_json(&sum_shard_counters(events))),
        ]),
    };

    let mut paths = BTreeMap::new();
    tally_paths(&mut paths, events);
    let mut fields = vec![
        ("schema", Json::Str(METRICS_SCHEMA.into())),
        ("totals", totals),
        ("paths", paths_json(&paths)),
        ("shards", Json::Arr(shards)),
        ("groups", Json::Arr(groups)),
        ("cells", Json::Arr(cells)),
    ];
    if let Some((t, fold_us)) = transport {
        #[allow(clippy::cast_precision_loss)]
        let mib_per_s = if t.us == 0 {
            0.0
        } else {
            t.bytes as f64 / (1024.0 * 1024.0) / (t.us as f64 / 1_000_000.0)
        };
        fields.push((
            "transport",
            obj(vec![
                ("parsed_bytes", Json::UInt(t.bytes)),
                ("parse_us", Json::UInt(t.us)),
                ("parse_mib_per_s", Json::Num(mib_per_s)),
                ("fold_us", Json::UInt(fold_us)),
                ("shards_without_telemetry", Json::UInt(shards_without_telemetry(events))),
            ]),
        ));
    }
    // Only coordinator traces carry lease-lifecycle events; plain runs keep
    // their sidecar shape unchanged.
    if leases_granted + leases_expired + partials_accepted + partials_rejected > 0 {
        let worker_rows = workers
            .into_iter()
            .map(|(worker, shards_accepted, cells_accepted)| {
                obj(vec![
                    ("worker", Json::Str(worker)),
                    ("shards_accepted", Json::UInt(shards_accepted)),
                    ("cells_accepted", Json::UInt(cells_accepted)),
                ])
            })
            .collect();
        fields.push((
            "serve",
            obj(vec![
                ("leases_granted", Json::UInt(leases_granted)),
                ("leases_expired", Json::UInt(leases_expired)),
                ("partials_accepted", Json::UInt(partials_accepted)),
                ("partials_rejected", Json::UInt(partials_rejected)),
                ("workers", Json::Arr(worker_rows)),
            ]),
        ));
    }
    obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CellEvent, CellOutcomeEvent, EVENTS_SCHEMA};

    fn counters(moves: u64) -> RunCounters {
        RunCounters { steps: moves / 2, moves, ..Default::default() }
    }

    fn ev(shard: Option<u64>, seq: u64, kind: EventKind) -> Event {
        Event { shard, seq, t_us: seq, kind }
    }

    fn cell(seed_index: u64, moves: u64) -> EventKind {
        EventKind::Cell(CellEvent {
            topology: "ring:8".into(),
            protocol: "ssme".into(),
            daemon: "sync".into(),
            init: "burst:0".into(),
            seed_index,
            wall_us: 100,
            moves,
            outcome: Ok(CellOutcomeEvent { steps_run: 5, stabilization_steps: 3, converged: true }),
        })
    }

    #[test]
    fn sidecar_prefers_campaign_totals_and_lists_rows() {
        let events = vec![
            ev(None, 0, EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: "run".into() }),
            ev(None, 1, cell(0, 40)),
            ev(None, 2, cell(1, 60)),
            ev(
                None,
                3,
                EventKind::Group {
                    key: "g".into(),
                    runs: 2,
                    errors: 0,
                    converged: 2,
                    violations: 0,
                    wall_us: 200,
                    path: "batched".into(),
                },
            ),
            ev(
                None,
                4,
                EventKind::CampaignEnd {
                    cells: 2,
                    errors: 0,
                    violations: 0,
                    wall_us: 1_000_000,
                    counters: counters(100),
                },
            ),
        ];
        let m = metrics_from_events(&events);
        assert_eq!(m.req("schema").unwrap().as_str().unwrap(), METRICS_SCHEMA);
        let totals = m.req("totals").unwrap();
        assert_eq!(totals.req("cells").unwrap().as_u64().unwrap(), 2);
        let mps = totals.req("moves_per_sec").unwrap().as_f64().unwrap();
        assert!((mps - 100.0).abs() < 1e-9, "100 moves over 1s, got {mps}");
        assert_eq!(m.req("cells").unwrap().as_arr().unwrap().len(), 2);
        let groups = m.req("groups").unwrap().as_arr().unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].req("path").unwrap().as_str().unwrap(), "batched");
        assert_eq!(m.req("paths").unwrap().req("batched").unwrap().as_u64().unwrap(), 1);
        assert!(m.req("shards").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn path_tally_counts_labelled_groups_per_path() {
        let group = |seq, path: &str| {
            ev(
                None,
                seq,
                EventKind::Group {
                    key: format!("g{seq}"),
                    runs: 40,
                    errors: 0,
                    converged: 40,
                    violations: 0,
                    wall_us: 1,
                    path: path.into(),
                },
            )
        };
        let events = [
            group(0, "scalar"),
            group(1, "batched"),
            ev(None, 2, cell(0, 40)),
            group(3, "batched"),
            group(4, ""),
        ];
        let mut tally = BTreeMap::new();
        tally_paths(&mut tally, &events);
        tally_paths(&mut tally, &events[..2]);
        let counts: Vec<_> = tally.iter().map(|(p, n)| (p.as_str(), *n)).collect();
        assert_eq!(
            counts,
            [("batched", 3), ("scalar", 2)],
            "one count per group, unlabelled skipped"
        );
        assert_eq!(paths_json(&tally).render_compact(), "{\"batched\":3,\"scalar\":2}");
    }

    #[test]
    fn sidecar_reconstructs_totals_from_shard_ends() {
        let events = vec![
            ev(
                Some(0),
                0,
                EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: "shard".into() },
            ),
            ev(Some(0), 1, EventKind::ShardEnd { cells: 3, wall_us: 500, counters: counters(30) }),
            ev(
                Some(1),
                0,
                EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: "shard".into() },
            ),
            ev(Some(1), 1, EventKind::ShardEnd { cells: 4, wall_us: 900, counters: counters(70) }),
        ];
        let m = metrics_from_events(&events);
        let totals = m.req("totals").unwrap();
        assert_eq!(totals.req("cells").unwrap().as_u64().unwrap(), 7);
        assert_eq!(totals.req("wall_us").unwrap().as_u64().unwrap(), 900);
        assert_eq!(totals.req("counters").unwrap().req("moves").unwrap().as_u64().unwrap(), 100);
        assert_eq!(m.req("shards").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn sidecar_gains_serve_section_only_for_coordinator_traces() {
        let plain = metrics_from_events(&[ev(None, 0, cell(0, 40))]);
        assert!(plain.get("serve").is_none(), "plain runs carry no serve section");

        let events = vec![
            ev(
                None,
                0,
                EventKind::LeaseGranted {
                    shard_id: 0,
                    worker: "w1".into(),
                    lease_id: 1,
                    lease_ms: 30_000,
                },
            ),
            ev(None, 1, EventKind::LeaseExpired { shard_id: 0, worker: "w1".into(), lease_id: 1 }),
            ev(
                None,
                2,
                EventKind::LeaseGranted {
                    shard_id: 0,
                    worker: "w2".into(),
                    lease_id: 2,
                    lease_ms: 30_000,
                },
            ),
            ev(None, 3, accepted(0, 9, Some(14))),
            ev(None, 4, accepted(1, 3, None)),
            ev(
                None,
                5,
                EventKind::PartialRejected { worker: "w3".into(), reason: "bad schema".into() },
            ),
        ];
        let serve = metrics_from_events(&events);
        let serve = serve.req("serve").unwrap();
        assert_eq!(serve.req("leases_granted").unwrap().as_u64().unwrap(), 2);
        assert_eq!(serve.req("leases_expired").unwrap().as_u64().unwrap(), 1);
        assert_eq!(serve.req("partials_accepted").unwrap().as_u64().unwrap(), 2);
        assert_eq!(serve.req("partials_rejected").unwrap().as_u64().unwrap(), 1);
        let workers = serve.req("workers").unwrap().as_arr().unwrap();
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].req("worker").unwrap().as_str().unwrap(), "w2");
        assert_eq!(workers[0].req("shards_accepted").unwrap().as_u64().unwrap(), 2);
        assert_eq!(workers[0].req("cells_accepted").unwrap().as_u64().unwrap(), 12);
    }

    fn accepted(shard_id: u64, cells: u64, telemetry_events: Option<u64>) -> EventKind {
        EventKind::PartialAccepted { shard_id, worker: "w2".into(), cells, telemetry_events }
    }

    #[test]
    fn transport_counts_the_uploads_that_carried_no_telemetry() {
        let merge_end =
            EventKind::MergeEnd { cells: 27, groups: 3, parse: ParseTally::default(), fold_us: 0 };
        let count = |kinds: Vec<EventKind>| {
            let events: Vec<Event> =
                kinds.into_iter().enumerate().map(|(i, k)| ev(None, i as u64, k)).collect();
            let m = metrics_from_events(&events);
            let n = m.req("transport").unwrap().req("shards_without_telemetry").unwrap();
            (n.as_u64().unwrap(), shards_without_telemetry(&events))
        };
        // A `campaign shard` partial (0 events) counts; a worker upload
        // and an older trace's event (no count) do not.
        let kinds = vec![
            accepted(0, 9, Some(0)),
            accepted(1, 9, Some(12)),
            accepted(2, 9, None),
            merge_end.clone(),
        ];
        assert_eq!(count(kinds), (1, 1));
        assert_eq!(count(vec![accepted(1, 9, Some(12)), merge_end]), (0, 0));
    }

    #[test]
    fn sidecar_reports_transport_reads_only_for_merge_traces() {
        assert!(metrics_from_events(&[ev(None, 0, cell(0, 40))]).get("transport").is_none());
        let merge_end = |seq, bytes, us, fold_us| {
            ev(
                None,
                seq,
                EventKind::MergeEnd {
                    cells: 9,
                    groups: 3,
                    parse: ParseTally { bytes, us },
                    fold_us,
                },
            )
        };
        let m = metrics_from_events(&[
            merge_end(0, 3 << 20, 1_000_000, 700),
            merge_end(1, 1 << 20, 0, 50),
        ]);
        let t = m.req("transport").unwrap();
        assert_eq!(t.req("parsed_bytes").unwrap().as_u64().unwrap(), 4 << 20);
        assert_eq!(t.req("parse_us").unwrap().as_u64().unwrap(), 1_000_000);
        assert!((t.req("parse_mib_per_s").unwrap().as_f64().unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(t.req("fold_us").unwrap().as_u64().unwrap(), 750);
    }

    #[test]
    fn sidecar_round_trips_through_the_strict_reader() {
        let events = vec![
            ev(None, 0, EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: "run".into() }),
            ev(None, 1, cell(0, 40)),
        ];
        let rendered = metrics_from_events(&events).render();
        let back = Json::parse(&rendered).expect("metrics sidecar parses strictly");
        assert_eq!(back.req("schema").unwrap().as_str().unwrap(), METRICS_SCHEMA);
    }

    #[test]
    fn shard_counters_sum_field_wise() {
        let snap = |k: u64| RunCounters {
            steps: k,
            moves: 2 * k,
            guard_evals: 3 * k,
            delta_bytes: 4 * k,
            monitor_evals: 19 * k,
            batch_lanes: 7 * k,
            batch_lane_steps: 10 * k,
            batch_idle_lane_steps: 8 * k,
        };
        let events = vec![
            ev(Some(0), 1, EventKind::ShardEnd { cells: 4, wall_us: 1, counters: snap(1) }),
            ev(Some(1), 1, EventKind::MergeStart { partials: 2 }),
            ev(Some(1), 2, EventKind::ShardEnd { cells: 4, wall_us: 1, counters: snap(10) }),
        ];
        assert_eq!(sum_shard_counters(&events), snap(11));
    }
}
