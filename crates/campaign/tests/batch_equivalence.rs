//! Batched-vs-scalar equivalence at campaign granularity.
//!
//! The lane-packed batched group path (`specstab_kernel::batch`, wired in
//! through `executor::run_batched_group`) must be an invisible
//! optimization: flipping it off and rerunning the same matrix has to
//! produce a byte-identical campaign artifact, and the path-independent
//! engine counters (steps, moves, delta bytes) must read the same under
//! both settings. This suite lives in its own test binary because the
//! toggle and the batch telemetry counters are process-wide; the tests
//! additionally serialize on [`TOGGLE`] so their enable/disable windows
//! never overlap.

use specstab_campaign::artifact;
use specstab_campaign::executor::{run_campaign_sequential, set_batching_enabled, CampaignConfig};
use specstab_campaign::matrix::ScenarioMatrix;
use specstab_telemetry::CounterSnapshot;
use std::sync::Mutex;

/// Serializes the process-wide batching toggle across tests in this binary.
static TOGGLE: Mutex<()> = Mutex::new(());

/// The batched (`on`) and scalar (`off`) windows of one matrix executed
/// the same steps and moves and moved the same state bytes.
fn assert_engine_counters_match(on: &CounterSnapshot, off: &CounterSnapshot) {
    assert!(on.steps > 0, "the windows executed steps");
    assert_eq!(on.steps, off.steps, "steps must not depend on the engine path");
    assert_eq!(on.moves, off.moves, "moves must not depend on the engine path");
    assert_eq!(on.delta_bytes, off.delta_bytes, "delta bytes must not depend on the engine path");
}

#[test]
fn batched_campaign_artifact_is_byte_identical_to_scalar() {
    let _guard = TOGGLE.lock().unwrap();
    // Sync and random-distributed ssme cells across two topologies, full
    // bursts, partial bursts and the Theorem 4 witness — every init mode
    // the batched group runner has to reproduce seed-exactly, with the
    // dist lanes additionally replaying the scalar daemon's per-cell RNG
    // stream coin for coin.
    let m = ScenarioMatrix::builder()
        .topologies(["ring:8", "torus:3x4"])
        .protocols(["ssme"])
        .daemons(["sync", "dist:0.5"])
        .fault_bursts([0, 2])
        .with_witness()
        .seeds(0..6)
        .build();
    let cfg = CampaignConfig { max_steps: 200_000, ..CampaignConfig::default() };

    let before = specstab_telemetry::global().snapshot();
    set_batching_enabled(true);
    let batched = run_campaign_sequential(&m, &cfg);
    let mid = specstab_telemetry::global().snapshot();
    assert!(
        mid.batch_lanes > before.batch_lanes,
        "the batched path must actually engage on sync ssme groups"
    );
    assert!(
        mid.batch_routed_sync_groups > before.batch_routed_sync_groups,
        "sync groups must be counted under the sync routing class"
    );
    assert!(
        mid.batch_routed_dist_groups > before.batch_routed_dist_groups,
        "dist:0.5 groups must be counted under the dist routing class"
    );

    set_batching_enabled(false);
    let scalar = run_campaign_sequential(&m, &cfg);
    let after = specstab_telemetry::global().snapshot();
    set_batching_enabled(true);
    assert_eq!(
        after.batch_lanes, mid.batch_lanes,
        "no lanes may launch while batching is disabled"
    );
    assert!(
        after.batch_scalar_fallbacks > mid.batch_scalar_fallbacks,
        "disabled batching must be counted as scalar fallbacks on sync groups"
    );
    assert!(
        after.batch_fallback_sync_groups > mid.batch_fallback_sync_groups,
        "disabled sync groups must land in the sync fallback class"
    );
    assert!(
        after.batch_fallback_dist_groups > mid.batch_fallback_dist_groups,
        "disabled dist groups must land in the dist fallback class"
    );
    assert_engine_counters_match(&mid.delta(&before), &after.delta(&mid));

    assert_eq!(
        artifact::to_json(&batched, true),
        artifact::to_json(&scalar, true),
        "batched and scalar campaign artifacts must be byte-identical"
    );
}

#[test]
fn batched_dijkstra_central_rr_artifact_is_byte_identical_to_scalar() {
    let _guard = TOGGLE.lock().unwrap();
    // All three Dijkstra protocols under the two batchable daemons (sync,
    // and dist:0.5 with its per-lane RNG streams) plus daemons that never
    // batch (central-rr, central-rand, central-min), so routed sync
    // groups, routed dist groups and uncounted scalar central groups
    // coexist in one artifact. The ring matrix carries the two ring
    // protocols (K-state with the standard grid K = n, well under the
    // 256-state u8 lane gate); the four-state protocol needs a line, so
    // it gets its own path matrix.
    let daemons = ["sync", "dist:0.5", "central-rr", "central-rand", "central-min"];
    let rings = ScenarioMatrix::builder()
        .topologies(["ring:8", "ring:13"])
        .protocols(["dijkstra", "dijkstra3"])
        .daemons(daemons)
        .fault_bursts([0, 1])
        .seeds(0..5)
        .build();
    let lines = ScenarioMatrix::builder()
        .topologies(["path:8", "path:13"])
        .protocols(["dijkstra4"])
        .daemons(daemons)
        .fault_bursts([0, 1])
        .seeds(0..5)
        .build();
    let cfg = CampaignConfig { max_steps: 200_000, ..CampaignConfig::default() };

    let before = specstab_telemetry::global().snapshot();
    set_batching_enabled(true);
    let batched: Vec<_> =
        [&rings, &lines].iter().map(|m| run_campaign_sequential(m, &cfg)).collect();
    let mid = specstab_telemetry::global().snapshot();
    let on = mid.delta(&before);
    assert!(on.batch_routed_sync_groups > 0, "sync Dijkstra groups must route batched");
    assert!(on.batch_routed_dist_groups > 0, "dist:0.5 Dijkstra groups must route batched");
    // Central groups run scalar and are not routing-counted at all.
    assert_eq!(on.batch_routed_rr_groups + on.batch_routed_rand_groups, 0);
    assert_eq!(on.batch_fallback_rr_groups + on.batch_fallback_rand_groups, 0);
    assert_eq!(on.batch_scalar_fallbacks, 0, "every sync and dist group routes");

    set_batching_enabled(false);
    let scalar: Vec<_> =
        [&rings, &lines].iter().map(|m| run_campaign_sequential(m, &cfg)).collect();
    let after = specstab_telemetry::global().snapshot();
    set_batching_enabled(true);
    let off = after.delta(&mid);
    assert_eq!(off.batch_lanes, 0, "no lanes may launch while batching is disabled");
    assert!(off.batch_fallback_dist_groups > 0, "disabled dist groups are counted fallbacks");
    assert_eq!(off.batch_fallback_rr_groups + off.batch_fallback_rand_groups, 0);
    assert_engine_counters_match(&on, &off);

    for (b, s) in batched.iter().zip(&scalar) {
        assert_eq!(
            artifact::to_json(b, true),
            artifact::to_json(s, true),
            "batched and scalar Dijkstra campaign artifacts must be byte-identical"
        );
    }
}
