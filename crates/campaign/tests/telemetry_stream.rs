//! End-to-end gates for the telemetry layer, driven through the real
//! `campaign` binary (`CARGO_BIN_EXE_campaign`):
//!
//! * the acceptance scenario — `campaign run --workers 3 --trace ...
//!   --metrics ...` must produce a schema-valid `specstab-events/v1`
//!   stream and a `specstab-metrics/v1` sidecar **while the JSON artifact
//!   stays byte-identical to the checked-in golden** (telemetry never
//!   perturbs determinism);
//! * the merge-determinism property — the interleaving of a real 3-shard
//!   subprocess run's worker streams is independent of the order the
//!   streams are fed to `merge_streams` (proptest over permutations; the
//!   vendored proptest has no shuffle strategy, so permutations are
//!   derived from a `u64` seed).

use proptest::prelude::*;
use specstab_telemetry::{merge_streams, parse_ndjson, validate_events, Event, EventKind, Json};
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

const GOLDEN: &str = include_str!("golden/campaign_golden.json");

fn campaign_exe() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("specstab-telemetry-test-{}-{name}", std::process::id()))
}

#[test]
fn traced_workers_run_is_schema_valid_and_keeps_the_golden_byte_identical() {
    let json_path = temp_path("golden.json");
    let trace_path = temp_path("events.ndjson");
    let metrics_path = temp_path("metrics.json");
    let output = Command::new(campaign_exe())
        .args(["run", "--topologies", "ring:8,torus:3x4", "--protocols", "ssme"])
        .args(["--daemons", "sync,central-rand,dist:0.5", "--faults", "0,2,witness"])
        .args(["--seeds", "3", "--seed", "51966", "--max-steps", "500000"])
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
    assert!(stderr.contains("[campaign]"), "heartbeat lines reach stderr:\n{stderr}");

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
        "merge_start",
        "merge_end",
        "campaign_end",
    ] {
        assert!(has(tag), "orchestrated trace carries a '{tag}' event");
    }
    let cell_events = events.iter().filter(|e| e.kind.tag() == "cell").count();
    assert_eq!(cell_events, 54, "one cell event per executed cell");
    assert!(
        events.iter().any(|e| e.shard.is_some()),
        "worker streams are spliced into the orchestrator trace"
    );

    // The metrics sidecar parses strictly and its totals agree with the
    // campaign.
    let metrics = Json::parse(&std::fs::read_to_string(&metrics_path).expect("metrics written"))
        .expect("metrics parse");
    assert_eq!(metrics.req("schema").unwrap().as_str().unwrap(), "specstab-metrics/v1");
    let totals = metrics.req("totals").unwrap();
    assert_eq!(totals.req("cells").unwrap().as_u64().unwrap(), 54);
    assert_eq!(totals.req("errors").unwrap().as_u64().unwrap(), 0);
    assert!(totals.req("counters").unwrap().req("moves").unwrap().as_u64().unwrap() > 0);

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

    for p in [&json_path, &trace_path, &metrics_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// Runs one real 3-shard plan through `campaign shard --trace` worker
/// invocations and returns the three parsed worker streams (cached: the
/// subprocess sweep runs once, the property permutes in memory).
fn shard_streams() -> &'static Vec<Vec<Event>> {
    static STREAMS: OnceLock<Vec<Vec<Event>>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        let plan_path = temp_path("plan.json");
        let status = Command::new(campaign_exe())
            .args(["plan", "--topologies", "ring:6,path:5", "--protocols", "ssme"])
            .args(["--daemons", "sync,central-rr", "--faults", "0,1", "--seeds", "2"])
            .args(["--shards", "3", "--out"])
            .arg(&plan_path)
            .status()
            .expect("campaign plan spawns");
        assert!(status.success(), "campaign plan failed");
        let streams: Vec<Vec<Event>> = (0..3)
            .map(|id| {
                let out = temp_path(&format!("shard-{id}.partial.json"));
                let trace = temp_path(&format!("shard-{id}.events.ndjson"));
                let status = Command::new(campaign_exe())
                    .args(["shard", "--shard", &id.to_string(), "--plan"])
                    .arg(&plan_path)
                    .arg("--out")
                    .arg(&out)
                    .arg("--trace")
                    .arg(&trace)
                    .status()
                    .expect("campaign shard spawns");
                assert!(status.success(), "campaign shard {id} failed");
                let events = parse_ndjson(&std::fs::read_to_string(&trace).expect("trace"))
                    .expect("worker stream parses");
                validate_events(&events).expect("worker stream validates");
                let _ = std::fs::remove_file(&out);
                let _ = std::fs::remove_file(&trace);
                events
            })
            .collect();
        let _ = std::fs::remove_file(&plan_path);
        streams
    })
}

/// A permutation of `0..n` derived from `seed` (Fisher–Yates over a
/// SplitMix-style generator — the vendored proptest has no shuffle
/// strategy).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let j = usize::try_from(seed >> 33).unwrap() % (i + 1);
        idx.swap(i, j);
    }
    idx
}

proptest! {
    /// Feeding the worker streams of a real subprocess run to
    /// `merge_streams` in any order — and even re-chunked into singleton
    /// streams in any order — yields the identical merged sequence.
    #[test]
    fn merged_subprocess_stream_is_independent_of_stream_order(seed in any::<u64>()) {
        let streams = shard_streams();
        let canonical = merge_streams(streams.clone());
        validate_events(&canonical).expect("merged stream validates");
        prop_assert!(canonical.iter().any(|e| matches!(e.kind, EventKind::ShardEnd { .. })));

        let by_stream: Vec<Vec<Event>> =
            permutation(streams.len(), seed).into_iter().map(|i| streams[i].clone()).collect();
        prop_assert_eq!(&merge_streams(by_stream), &canonical);

        let flat: Vec<Event> = streams.iter().flatten().cloned().collect();
        let singletons: Vec<Vec<Event>> =
            permutation(flat.len(), seed ^ 0x9E37_79B9_7F4A_7C15)
                .into_iter()
                .map(|i| vec![flat[i].clone()])
                .collect();
        prop_assert_eq!(&merge_streams(singletons), &canonical);
    }
}
