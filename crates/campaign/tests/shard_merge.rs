//! Merge-algebra property suite: splitting a campaign into shards at
//! **any** cut points — group-aligned or inside a group — and merging the
//! partial artifacts in **any** order must reproduce the single-process
//! artifact byte for byte, and a [`PartialArtifact`] must round-trip
//! through JSON without losing a bit.
//!
//! The reference run executes once (per process); property cases then
//! assemble shard partials by slicing its cells — valid because a partial
//! carries only cells and the merge derives every group's statistics from
//! them, which the dedicated [`executed_shards_merge_byte_identically`]
//! test pins against real `execute_shard` executions for 1/2/3/7-way
//! splits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specstab_campaign::artifact::{to_csv, to_json, PartialArtifact};
use specstab_campaign::executor::{run_campaign, CampaignConfig, CampaignResult};
use specstab_campaign::matrix::ScenarioMatrix;
use specstab_campaign::merge::merge_partials;
use specstab_campaign::plan::{cells_fingerprint, group_boundaries, CampaignPlan};
use specstab_campaign::shard::execute_shard;
use std::ops::Range;
use std::sync::OnceLock;

/// Seeds of the suite's one seed-heavy group: more than the executor's
/// 32-cell work unit, so the group runs as two units and a cut can land
/// inside one. Its statistics are one ordered pass over all 40 cells
/// wherever the cuts fall.
const HEAVY_SEEDS: u64 = 40;

/// The suite's matrix: two protocols (one of which errors cleanly on
/// non-ring topologies — error cells must shard and merge just like
/// measured ones), three daemon classes, partial and full bursts, then
/// one seed-heavy group.
fn matrix() -> ScenarioMatrix {
    let grid = ScenarioMatrix::builder()
        .topologies(["ring:8", "path:6"])
        .protocols(["ssme", "dijkstra"])
        .daemons(["sync", "central-rand", "dist:0.5"])
        .fault_bursts([0, 1])
        .seeds(0..4)
        .build();
    let heavy = ScenarioMatrix::builder()
        .topologies(["ring:10"])
        .protocols(["ssme"])
        .daemons(["central-rand"])
        .fault_bursts([2])
        .seeds(0..HEAVY_SEEDS)
        .build();
    ScenarioMatrix::from_cells(grid.cells().iter().chain(heavy.cells()).cloned().collect())
}

fn config() -> CampaignConfig {
    CampaignConfig { max_steps: 100_000, seed: 0xBEEF, ..CampaignConfig::default() }
}

struct Reference {
    result: CampaignResult,
    golden_json: String,
    golden_csv: String,
    /// Group-aligned cut candidates: every interior group boundary.
    interior_cuts: Vec<usize>,
    /// Cell range of the seed-heavy group.
    heavy: Range<usize>,
    fingerprint: u64,
    total: usize,
}

fn reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let m = matrix();
        let result = run_campaign(&m, &config());
        let boundaries = group_boundaries(m.cells());
        Reference {
            golden_json: to_json(&result, true),
            golden_csv: to_csv(&result),
            interior_cuts: boundaries[1..boundaries.len() - 1].to_vec(),
            heavy: m.len() - HEAVY_SEEDS as usize..m.len(),
            fingerprint: cells_fingerprint(m.cells()),
            total: m.len(),
            result,
        }
    })
}

/// Builds the partial a shard covering `start..end` would produce, by
/// slicing the reference run's cells: a cell's result is independent of
/// which process ran it.
fn partial_for_range(shard_id: usize, start: usize, end: usize) -> PartialArtifact {
    let r = reference();
    PartialArtifact {
        shard_id,
        start,
        end,
        total_cells: r.total,
        plan_fingerprint: r.fingerprint,
        config: config(),
        cells: r.result.cells[start..end].to_vec(),
        telemetry: Vec::new(),
    }
}

/// The segment ranges between sorted, distinct interior `cuts`.
fn segments(cuts: &[usize]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut prev = 0usize;
    for &c in cuts {
        ranges.push((prev, c));
        prev = c;
    }
    ranges.push((prev, reference().total));
    ranges
}

/// Round-trips one partial per range through JSON, shuffles them, merges
/// them, and returns the merged JSON and CSV artifacts.
fn merge_ranges(ranges: &[(usize, usize)], shuffle_seed: u64) -> (String, String) {
    let mut partials: Vec<PartialArtifact> = ranges
        .iter()
        .enumerate()
        .map(|(id, &(s, e))| {
            PartialArtifact::from_json(&partial_for_range(id, s, e).to_json()).expect("round trip")
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(shuffle_seed);
    for i in (1..partials.len()).rev() {
        partials.swap(i, rng.gen_range(0..=i));
    }
    let merged = merge_partials(partials).expect("tiles the cell range");
    (to_json(&merged, true), to_csv(&merged))
}

/// Chooses `shards - 1` distinct group-aligned cut points and returns the
/// segment ranges, deterministically from `seed`.
fn random_split(shards: usize, seed: u64) -> Vec<(usize, usize)> {
    let r = reference();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cuts: Vec<usize> = Vec::new();
    let mut candidates = r.interior_cuts.clone();
    for _ in 0..shards - 1 {
        if candidates.is_empty() {
            break;
        }
        cuts.push(candidates.swap_remove(rng.gen_range(0..candidates.len())));
    }
    cuts.sort_unstable();
    segments(&cuts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary group-aligned splits into 1/2/3/7 shards, merged in a
    /// shuffled order, with every partial pushed through its JSON round
    /// trip first: byte-identical JSON and CSV artifacts.
    #[test]
    fn shuffled_group_aligned_merges_are_byte_identical(
        shard_sel in 0usize..4,
        cut_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        let shards = [1usize, 2, 3, 7][shard_sel];
        let (json, csv) = merge_ranges(&random_split(shards, cut_seed), shuffle_seed);
        let r = reference();
        prop_assert_eq!(&json, &r.golden_json);
        prop_assert_eq!(&csv, &r.golden_csv);
    }

    /// Cuts at arbitrary cell indices, inside groups too, plus one inside
    /// the seed-heavy group's first 32-cell work unit, merged in a
    /// shuffled order after a JSON round trip: still byte-identical JSON
    /// and CSV artifacts, because the merge derives every group's
    /// statistics from the whole cell list.
    #[test]
    fn shuffled_merges_cut_anywhere_are_byte_identical(
        extra_cuts in 0usize..8,
        cut_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        let r = reference();
        let mut rng = StdRng::seed_from_u64(cut_seed);
        let mut cuts = vec![rng.gen_range(r.heavy.start + 1..r.heavy.start + 32)];
        cuts.extend((0..extra_cuts).map(|_| rng.gen_range(1..r.total)));
        cuts.sort_unstable();
        cuts.dedup();
        let (json, csv) = merge_ranges(&segments(&cuts), shuffle_seed);
        prop_assert_eq!(&json, &r.golden_json);
        prop_assert_eq!(&csv, &r.golden_csv);
    }

    /// A partial artifact's JSON form is lossless: parse(render(p))
    /// renders to the same bytes, every cell included.
    #[test]
    fn partial_artifact_json_round_trip_is_lossless(
        cut_seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let ranges = random_split(3, cut_seed);
        let (s, e) = ranges[(pick % ranges.len() as u64) as usize];
        let p = partial_for_range(0, s, e);
        let text = p.to_json();
        let parsed = PartialArtifact::from_json(&text).expect("parses");
        prop_assert_eq!(&parsed.to_json(), &text, "render(parse(render)) drifted");
        let twice = PartialArtifact::from_json(&parsed.to_json()).expect("parses again");
        prop_assert_eq!(&twice.to_json(), &text);
    }
}

/// The real execution path (not sliced reference results): `execute_shard`
/// over planner-produced 1/2/3/7-way splits merges byte-identically.
#[test]
fn executed_shards_merge_byte_identically() {
    let m = matrix();
    let cfg = config();
    let r = reference();
    for shards in [1usize, 2, 3, 7] {
        let plan = CampaignPlan::new(&m, &cfg, shards);
        assert_eq!(plan.shards.len(), shards, "matrix has enough groups");
        let mut partials: Vec<PartialArtifact> = plan
            .shards
            .iter()
            .map(|s| {
                let p = execute_shard(&plan, s.id, 1).expect("valid shard");
                PartialArtifact::from_json(&p.to_json()).expect("round trip")
            })
            .collect();
        partials.reverse(); // merge must not rely on supply order
        let merged = merge_partials(partials).expect("tiles");
        assert_eq!(to_json(&merged, true), r.golden_json, "{shards}-way split drifted");
        assert_eq!(to_csv(&merged), r.golden_csv, "{shards}-way split drifted (csv)");
    }
}

/// Validation error paths of the merge layer, at the artifact level: the
/// wire and spool feed `PartialArtifact::from_json` + `merge_partials`
/// with whatever the network delivered, so every rejection branch needs
/// pinning, not just the happy path the proptests sweep.
#[test]
fn merge_rejects_schema_fingerprint_gap_and_overlap_corruption() {
    let ranges = random_split(3, 7);
    let all: Vec<PartialArtifact> =
        ranges.iter().enumerate().map(|(id, &(s, e))| partial_for_range(id, s, e)).collect();

    // Schema mismatch: a partial from a different (future or foreign)
    // format version never reaches the merge.
    let wrong_schema = all[0].to_json().replace("specstab-campaign-partial/v2", "who-knows/v9");
    let err = PartialArtifact::from_json(&wrong_schema).unwrap_err();
    assert!(err.contains("schema"), "got {err}");
    // A v1 partial (accumulator state, written by an older binary) is
    // rejected by name.
    let v1 =
        all[0].to_json().replace("specstab-campaign-partial/v2", "specstab-campaign-partial/v1");
    let err = PartialArtifact::from_json(&v1).unwrap_err();
    assert!(err.contains("partial/v1") && err.contains("partial/v2"), "got {err}");

    // Plan-fingerprint mismatch: same counts and configuration, different
    // campaign.
    let mut foreign = all.clone();
    foreign[1].plan_fingerprint ^= 0x1;
    let err = merge_partials(foreign).unwrap_err();
    assert!(err.contains("different plan"), "got {err}");

    // Gap tiling: a missing middle shard is named by cell range.
    let gap = vec![all[0].clone(), all[2].clone()];
    let err = merge_partials(gap).unwrap_err();
    assert!(err.contains("covered by no partial"), "got {err}");

    // Overlap tiling: a non-duplicate partial intruding into merged cells
    // (distinct shard id, same range) is corruption and is rejected...
    let mut imposter = all[1].clone();
    imposter.shard_id = 42;
    let err = merge_partials(vec![all[0].clone(), all[1].clone(), imposter]).unwrap_err();
    assert!(err.contains("overlaps previously merged cells"), "got {err}");

    // ...while an exact duplicate (a re-dispatched straggler's second
    // upload) is idempotently dropped and the merge still succeeds.
    let with_dup = vec![all[2].clone(), all[0].clone(), all[1].clone(), all[2].clone()];
    let merged = merge_partials(with_dup).expect("duplicate dropped, tiling complete");
    assert_eq!(to_json(&merged, true), reference().golden_json);
}

/// Plans round-trip through JSON and executing a shard from the parsed
/// plan equals executing it from the original.
#[test]
fn plan_file_round_trip_preserves_shard_execution() {
    let m = matrix();
    let cfg = config();
    let plan = CampaignPlan::new(&m, &cfg, 3);
    let parsed = CampaignPlan::from_json(&plan.to_json()).expect("round trip");
    for s in &plan.shards {
        let a = execute_shard(&plan, s.id, 1).expect("original");
        let b = execute_shard(&parsed, s.id, 1).expect("parsed");
        assert_eq!(a.to_json(), b.to_json());
    }
}

/// A real partial with one cell's coordinates or seed altered still
/// carries its plan's fingerprint in the header; the merge checks the
/// cells themselves and rejects it instead of deriving wrong statistics.
#[test]
fn merge_rejects_partials_whose_cells_were_altered() {
    let plan = CampaignPlan::new(&matrix(), &config(), 3);
    let all: Vec<PartialArtifact> =
        (0..3).map(|id| execute_shard(&plan, id, 1).expect("valid shard")).collect();
    let reread = |p: &PartialArtifact| PartialArtifact::from_json(&p.to_json()).expect("parses");

    let mut relabeled = all.clone();
    relabeled[1].cells[2].cell.seed_index += 1000;
    relabeled[1] = reread(&relabeled[1]);
    let err = merge_partials(relabeled).unwrap_err();
    assert!(err.contains("fingerprint"), "got {err}");

    let mut reseeded = all.clone();
    reseeded[2].cells[0].cell_seed ^= 1;
    reseeded[2] = reread(&reseeded[2]);
    let err = merge_partials(reseeded).unwrap_err();
    let index = plan.shards[2].start;
    assert!(err.contains(&format!("cell {index} carries cell_seed")), "got {err}");

    let merged = merge_partials(all).expect("untouched partials merge");
    assert_eq!(to_json(&merged, true), reference().golden_json);
}
