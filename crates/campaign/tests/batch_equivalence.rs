//! Batched-vs-scalar equivalence at campaign granularity.
//!
//! The lane-packed batched group path (`specstab_kernel::batch`, wired in
//! through `executor::run_batched_group`) must be an invisible
//! optimization: flipping it off and rerunning the same matrix has to
//! produce a byte-identical campaign artifact, and the path-independent
//! engine counters (steps, moves, delta bytes) summed over the cells must
//! read the same under both settings. The route each group took is read
//! back from its cells (`executor::group_path`). This suite lives in its
//! own test binary because the toggle is process-wide; the tests
//! additionally serialize on [`TOGGLE`] so their enable/disable windows
//! never overlap.

use specstab_campaign::artifact;
use specstab_campaign::executor::{
    group_path, run_campaign, set_batching_enabled, CampaignConfig, CampaignResult,
};
use specstab_campaign::matrix::ScenarioMatrix;
use specstab_kernel::batch::BatchDaemon;
use specstab_telemetry::{RunCounters, PATH_BATCHED, PATH_SCALAR, PATH_SCALAR_FALLBACK};
use std::sync::Mutex;

/// Serializes the process-wide batching toggle across tests in this binary.
static TOGGLE: Mutex<()> = Mutex::new(());

/// The cells of the batched (`on`) and scalar (`off`) runs of the same
/// matrices executed the same steps and moves and moved the same state
/// bytes. With batching on, every cell of a batchable daemon ran as one
/// lane; with it off, no cell did.
fn assert_engine_counters_match(on: &[CampaignResult], off: &[CampaignResult]) {
    let total = |results: &[CampaignResult]| -> RunCounters {
        results.iter().flat_map(|r| &r.cells).map(|cr| &cr.counters).sum()
    };
    let batchable = on
        .iter()
        .flat_map(|r| &r.cells)
        .filter(|cr| BatchDaemon::from_spec(&cr.cell.daemon).is_some())
        .count();
    let (on, off) = (total(on), total(off));
    assert!(on.steps > 0, "the runs executed steps");
    assert_eq!(on.steps, off.steps, "steps must not depend on the engine path");
    assert_eq!(on.moves, off.moves, "moves must not depend on the engine path");
    assert_eq!(on.delta_bytes, off.delta_bytes, "delta bytes must not depend on the engine path");
    assert_eq!(on.batch_lanes, batchable as u64, "one lane per batchable cell with batching on");
    assert_eq!(off.batch_lanes, 0, "no lanes may launch while batching is off");
    assert_eq!(off.batch_lane_steps, 0, "no lane-steps while batching is off");
}

/// Every group of `result` took the path its daemon and the toggle call
/// for: sync and dist groups `batched` with batching on (each cell one
/// lane) and `scalar-fallback` with it off (no cell a lane); every other
/// group `scalar`. Returns how many groups took each path, in that order.
fn assert_routes(result: &CampaignResult, batching: bool) -> [usize; 3] {
    let mut taken = [0; 3];
    for group in result.cells.chunk_by(|a, b| a.cell.same_group(&b.cell)) {
        let daemon = &group[0].cell.daemon;
        let batchable = BatchDaemon::from_spec(daemon).is_some();
        let lanes = u64::from(batchable && batching);
        assert!(
            group.iter().all(|cr| cr.counters.batch_lanes == lanes),
            "{}: every cell must read batch_lanes {lanes}",
            group[0].cell.group_key()
        );
        let (want, slot) = match (batchable, batching) {
            (true, true) => (PATH_BATCHED, 0),
            (true, false) => (PATH_SCALAR_FALLBACK, 1),
            (false, _) => (PATH_SCALAR, 2),
        };
        assert_eq!(group_path(group), want, "{}", group[0].cell.group_key());
        taken[slot] += 1;
    }
    taken
}

/// Runs `matrices` with batching on, then off, and switches it back on.
/// Callers hold [`TOGGLE`].
fn run_on_and_off(
    matrices: &[&ScenarioMatrix],
    cfg: &CampaignConfig,
) -> (Vec<CampaignResult>, Vec<CampaignResult>) {
    let run = |on: bool| {
        set_batching_enabled(on);
        matrices.iter().map(|m| run_campaign(m, cfg)).collect::<Vec<_>>()
    };
    let (batched, scalar) = (run(true), run(false));
    set_batching_enabled(true);
    (batched, scalar)
}

fn assert_artifacts_match(on: &[CampaignResult], off: &[CampaignResult]) {
    for (b, s) in on.iter().zip(off) {
        assert_eq!(
            artifact::to_json(b, true),
            artifact::to_json(s, true),
            "batched and scalar campaign artifacts must be byte-identical"
        );
    }
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
    let (batched, scalar) = run_on_and_off(&[&m], &cfg);
    // 2 topologies x 2 daemons x 3 init modes, every group batchable.
    assert_eq!(assert_routes(&batched[0], true), [12, 0, 0]);
    assert_eq!(assert_routes(&scalar[0], false), [0, 12, 0]);
    assert_engine_counters_match(&batched, &scalar);
    assert_artifacts_match(&batched, &scalar);
}

#[test]
fn batched_dijkstra_central_rr_artifact_is_byte_identical_to_scalar() {
    let _guard = TOGGLE.lock().unwrap();
    // All three Dijkstra protocols under the two batchable daemons (sync,
    // and dist:0.5 with its per-lane RNG streams) plus daemons that never
    // batch (central-rr, central-rand, central-min), so batched sync and
    // dist groups and scalar central groups coexist in one artifact. The ring matrix carries the two ring
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
    let (batched, scalar) = run_on_and_off(&[&rings, &lines], &cfg);
    // Per matrix: 2 topologies x 2 fault modes x (1 or 2 protocols) over
    // 2 batchable and 3 central daemons.
    assert_eq!(assert_routes(&batched[0], true), [16, 0, 24]);
    assert_eq!(assert_routes(&batched[1], true), [8, 0, 12]);
    assert_eq!(assert_routes(&scalar[0], false), [0, 16, 24]);
    assert_eq!(assert_routes(&scalar[1], false), [0, 8, 12]);
    assert_engine_counters_match(&batched, &scalar);
    assert_artifacts_match(&batched, &scalar);
}

/// The campaign parameters of the golden invocations.
fn golden_config() -> CampaignConfig {
    CampaignConfig { seed: 51966, max_steps: 500_000, ..CampaignConfig::default() }
}

#[test]
fn dijkstra3_rings_up_to_160_are_byte_identical_batched_and_scalar() {
    let _guard = TOGGLE.lock().unwrap();
    // The dense lane schedule at every ring size: dijkstra3's sync and
    // dist:0.5 groups run on the packed u8-lane engine (the dist lanes on
    // per-lane RNG streams that replay the scalar daemon seeds), while
    // central-rr and central-rand always run scalar.
    let m = ScenarioMatrix::builder()
        .topologies(["ring:8", "ring:13", "ring:40", "ring:160"])
        .protocols(["dijkstra3"])
        .daemons(["sync", "central-rr", "central-rand", "dist:0.5"])
        .fault_bursts([0, 1])
        .seeds(0..3)
        .build();
    let (batched, scalar) = run_on_and_off(&[&m], &golden_config());
    // 4 rings x 2 fault modes over 2 batchable and 2 central daemons.
    assert_eq!(assert_routes(&batched[0], true), [16, 0, 16]);
    assert_eq!(assert_routes(&scalar[0], false), [0, 16, 16]);
    assert_engine_counters_match(&batched, &scalar);
    assert_artifacts_match(&batched, &scalar);
}

#[test]
fn ssme_past_the_lane_monitor_block_is_byte_identical_batched_and_scalar() {
    let _guard = TOGGLE.lock().unwrap();
    // The lane monitor past its 32-row legitimacy block (n = 64) under
    // sync and three dist:p densities, from full bursts, 2-fault bursts
    // and the Theorem 4 witness.
    let m = ScenarioMatrix::builder()
        .topologies(["ring:64", "torus:8x8"])
        .protocols(["ssme"])
        .daemons(["sync", "dist:0.1", "dist:0.5", "dist:0.9"])
        .fault_bursts([0, 2])
        .with_witness()
        .seeds(0..3)
        .build();
    let (batched, scalar) = run_on_and_off(&[&m], &golden_config());
    // 2 topologies x 4 daemons x 3 init modes, every group batchable.
    assert_eq!(assert_routes(&batched[0], true), [24, 0, 0]);
    assert_eq!(assert_routes(&scalar[0], false), [0, 24, 0]);
    assert_engine_counters_match(&batched, &scalar);
    assert_artifacts_match(&batched, &scalar);
}
