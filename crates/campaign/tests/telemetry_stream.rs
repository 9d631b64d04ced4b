//! End-to-end gate for the telemetry layer, driven through the real
//! `campaign` binary (`CARGO_BIN_EXE_campaign`): `campaign run --workers 3
//! --trace ... --metrics ...` must produce a schema-valid
//! `specstab-events/v1` stream and a `specstab-metrics/v1` sidecar **while
//! the JSON artifact stays byte-identical to the checked-in golden**
//! (telemetry never perturbs determinism). The workers' shard streams
//! travel inside their uploads, so the coordinator's trace carries their
//! cell timing and group paths, and its `campaign_end` counters and
//! sidecar path tally equal an in-process run's.

use specstab_telemetry::{parse_ndjson, validate_events, EventKind, Json, RunCounters};
use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN: &str = include_str!("golden/campaign_golden.json");

fn campaign_exe() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("specstab-telemetry-test-{}-{name}", std::process::id()))
}

/// The golden invocation's matrix and campaign parameters.
const GOLDEN_MATRIX: [&str; 14] = [
    "--topologies",
    "ring:8,torus:3x4",
    "--protocols",
    "ssme",
    "--daemons",
    "sync,central-rand,dist:0.5",
    "--faults",
    "0,2,witness",
    "--seeds",
    "3",
    "--seed",
    "51966",
    "--max-steps",
    "500000",
];

/// The `campaign_end` counters of a parsed trace.
fn campaign_end_counters(trace: &Path) -> RunCounters {
    let events = parse_ndjson(&std::fs::read_to_string(trace).expect("trace written"))
        .expect("trace parses");
    events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::CampaignEnd { counters, .. } => Some(counters),
            _ => None,
        })
        .expect("campaign_end event")
}

#[test]
fn traced_workers_run_is_schema_valid_and_keeps_the_golden_byte_identical() {
    let json_path = temp_path("golden.json");
    let trace_path = temp_path("events.ndjson");
    let metrics_path = temp_path("metrics.json");
    let output = Command::new(campaign_exe())
        .arg("run")
        .args(GOLDEN_MATRIX)
        .args(["--workers", "3", "--cells-in-json"])
        .arg("--json")
        .arg(&json_path)
        .arg("--trace")
        .arg(&trace_path)
        .arg("--metrics")
        .arg(&metrics_path)
        .output()
        .expect("campaign run spawns");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "campaign run failed:\n{stderr}");
    assert!(stderr.contains("[serve]"), "coordinator heartbeat lines reach stderr:\n{stderr}");

    // Determinism: the artifact of the traced 3-worker run is the golden,
    // byte for byte.
    let artifact = std::fs::read_to_string(&json_path).expect("artifact written");
    assert_eq!(artifact, GOLDEN, "telemetry must not perturb the deterministic artifact");

    // The event stream parses strictly, validates, and covers the full
    // orchestrated lifecycle.
    let text = std::fs::read_to_string(&trace_path).expect("trace written");
    let events = parse_ndjson(&text).expect("trace parses");
    validate_events(&events).expect("trace validates");
    let has = |tag: &str| events.iter().any(|e| e.kind.tag() == tag);
    for tag in [
        "stream",
        "campaign_start",
        "plan",
        "shard_start",
        "cell",
        "group",
        "shard_end",
        "lease_granted",
        "partial_accepted",
        "merge_start",
        "merge_end",
        "campaign_end",
    ] {
        assert!(has(tag), "orchestrated trace carries a '{tag}' event");
    }
    let cells: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Cell(c) => Some((e.shard, c.wall_us)),
            _ => None,
        })
        .collect();
    assert_eq!(cells.len(), 54, "one cell event per executed cell");
    assert!(
        cells.iter().all(|(shard, _)| shard.is_some()),
        "cell events come from the workers' shard streams"
    );
    assert!(cells.iter().any(|(_, wall_us)| *wall_us > 0), "cells carry worker wall clock");

    // The counters the workers' cells carried add up to an in-process
    // run's, key for key: every total is a sum of cells.
    let inprocess_trace = temp_path("inprocess.events.ndjson");
    let inprocess_metrics = temp_path("inprocess.metrics.json");
    let status = Command::new(campaign_exe())
        .args(GOLDEN_MATRIX)
        .arg("--trace")
        .arg(&inprocess_trace)
        .arg("--metrics")
        .arg(&inprocess_metrics)
        .output()
        .expect("in-process campaign spawns")
        .status;
    assert!(status.success(), "in-process campaign failed");
    let (workers, inprocess) =
        (campaign_end_counters(&trace_path), campaign_end_counters(&inprocess_trace));
    assert_eq!(workers, inprocess, "campaign_end counters: workers vs in-process");
    assert!(workers.moves > 0 && workers.batch_lane_steps > 0);

    // The metrics sidecar parses strictly and its totals agree with the
    // campaign.
    let metrics = Json::parse(&std::fs::read_to_string(&metrics_path).expect("metrics written"))
        .expect("metrics parse");
    assert_eq!(metrics.req("schema").unwrap().as_str().unwrap(), "specstab-metrics/v1");
    let totals = metrics.req("totals").unwrap();
    assert_eq!(totals.req("cells").unwrap().as_u64().unwrap(), 54);
    assert_eq!(totals.req("errors").unwrap().as_u64().unwrap(), 0);
    assert!(totals.req("counters").unwrap().req("moves").unwrap().as_u64().unwrap() > 0);

    // One labelled `group` event per group, wherever it ran: the sync and
    // dist:0.5 groups on the lane engine, the central-rand ones scalar.
    let paths = metrics.req("paths").unwrap();
    assert_eq!(paths.render_compact(), "{\"batched\":12,\"scalar\":6}");
    let inprocess =
        Json::parse(&std::fs::read_to_string(&inprocess_metrics).expect("metrics written"))
            .expect("metrics parse");
    assert_eq!(inprocess.req("paths").unwrap(), paths, "sidecar paths: workers vs in-process");

    // The transport-read timer: `merge_end` counts every partial byte the
    // orchestrator parsed, and the sidecar reports the same total.
    let parse = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::MergeEnd { parse, .. } => Some(parse),
            _ => None,
        })
        .expect("merge_end event");
    assert!(parse.bytes > 0, "the orchestrator parsed three partials");
    let transport = metrics.req("transport").unwrap();
    assert_eq!(transport.req("parsed_bytes").unwrap().as_u64().unwrap(), parse.bytes);
    assert_eq!(transport.req("parse_us").unwrap().as_u64().unwrap(), parse.us);

    // The fold timer: `merge_end` carries `fold_us` (the coordinator's
    // `MergeAccumulator::finish`, which derives the group statistics) and
    // the sidecar reports the same value.
    let merge_end =
        text.lines().find(|l| l.contains("\"event\":\"merge_end\"")).expect("merge_end line");
    let fold_us = Json::parse(merge_end)
        .expect("merge_end parses")
        .req("fold_us")
        .expect("merge_end carries fold_us")
        .as_u64()
        .expect("fold_us is a count");
    assert_eq!(transport.req("fold_us").unwrap().as_u64().unwrap(), fold_us);

    for p in [&json_path, &trace_path, &metrics_path, &inprocess_trace, &inprocess_metrics] {
        let _ = std::fs::remove_file(p);
    }
}
