//! The campaign planner: deterministic, text-serializable shard plans.
//!
//! A [`CampaignPlan`] is a **complete work description**: the canonical
//! cell enumeration (every axis is already a plain string, so cells
//! serialize losslessly), the campaign configuration, and a partition of
//! the cell range into contiguous, **group-aligned** shards with stable
//! ids. Because the plan round-trips through JSON, any process — on this
//! machine or another — can execute `campaign shard --plan p.json
//! --shard i` with nothing but the plan file and the binary, and the
//! resulting partial artifacts merge back into the exact single-process
//! artifact.
//!
//! Group alignment keeps every scenario group (topology × protocol ×
//! daemon × init) inside one shard, so a worker can run a group's cells
//! through the lane-batched engine together and report per-group
//! telemetry for whole groups. It is not what makes the merge exact:
//! [`crate::merge::merge_partials`] derives every group's statistics from
//! the merged cells, so partials cut anywhere merge byte-identically.

use crate::artifact::{
    cell_coord_from_json, cell_coord_json, config_from_header, config_header_fields, obj, Json,
};
use crate::executor::CampaignConfig;
use crate::matrix::{Cell, ScenarioMatrix};
use std::collections::HashSet;

/// Schema identifier of the plan format. [`CampaignPlan::from_json`]
/// rejects every other value.
pub const PLAN_SCHEMA: &str = "specstab-campaign-plan/v1";

/// One shard: a contiguous, group-aligned range of the plan's canonical
/// cell order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardSpec {
    /// Stable shard id (its index in [`CampaignPlan::shards`]).
    pub id: usize,
    /// First cell index covered.
    pub start: usize,
    /// One past the last cell index covered.
    pub end: usize,
}

/// A fully planned campaign: cells, configuration, shard partition.
#[derive(Clone, Debug)]
pub struct CampaignPlan {
    /// Execution parameters shared by every shard (`threads` is a per-
    /// process choice and is not serialized).
    pub config: CampaignConfig,
    /// The canonical cell enumeration (matrix order).
    pub cells: Vec<Cell>,
    /// Contiguous group-aligned shards tiling `0..cells.len()`.
    pub shards: Vec<ShardSpec>,
}

impl CampaignPlan {
    /// Plans `matrix` into at most `shard_count` shards of roughly equal
    /// cell counts, cutting only at scenario-group boundaries.
    ///
    /// The partition is deterministic (a pure function of the matrix and
    /// `shard_count`). When the matrix has fewer groups than requested
    /// shards, every group becomes its own shard. `shard_count == 0` is
    /// treated as 1.
    #[must_use]
    pub fn new(matrix: &ScenarioMatrix, config: &CampaignConfig, shard_count: usize) -> Self {
        let cells = matrix.cells().to_vec();
        if cells.is_empty() {
            return Self { config: config.clone(), cells, shards: Vec::new() };
        }
        let boundaries = group_boundaries(&cells);
        let groups = boundaries.len() - 1;
        let want = shard_count.max(1).min(groups);
        // Balanced contiguous partition of the group list by cell count:
        // close the current shard once it reaches its fair share of the
        // remaining cells over the remaining shards.
        let mut shards = Vec::with_capacity(want);
        let mut start_group = 0usize;
        for _ in 0..want {
            let remaining_shards = want - shards.len();
            let remaining_cells = cells.len() - boundaries[start_group];
            let target = remaining_cells.div_ceil(remaining_shards);
            let start = boundaries[start_group];
            let mut end_group = start_group;
            while end_group < groups && boundaries[end_group + 1] - start < target {
                end_group += 1;
            }
            // Include the group that crosses the target (never split it),
            // and always take at least one group.
            end_group = (end_group + 1).min(groups);
            // Leave at least one group per remaining shard.
            end_group = end_group.min(groups - (remaining_shards - 1));
            end_group = end_group.max(start_group + 1);
            shards.push(ShardSpec { id: shards.len(), start, end: boundaries[end_group] });
            start_group = end_group;
        }
        debug_assert_eq!(shards.last().map_or(0, |s| s.end), cells.len());
        Self { config: config.clone(), cells, shards }
    }

    /// The plan's matrix fingerprint (see [`cells_fingerprint`]).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        cells_fingerprint(&self.cells)
    }

    /// The cell slice of shard `id`.
    ///
    /// # Errors
    ///
    /// Returns a message when `id` is not a shard of this plan.
    pub fn shard_cells(&self, id: usize) -> Result<&[Cell], String> {
        let shard = self
            .shards
            .get(id)
            .ok_or_else(|| format!("no shard {id} (plan has {})", self.shards.len()))?;
        Ok(&self.cells[shard.start..shard.end])
    }

    /// Serializes the plan.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut header = vec![("schema", Json::Str(PLAN_SCHEMA.into()))];
        header.extend(config_header_fields(&self.config));
        header.push(("cells", Json::UInt(self.cells.len() as u64)));
        header.push(("shards", Json::UInt(self.shards.len() as u64)));
        obj(vec![
            ("plan", obj(header)),
            (
                "shards",
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("id", Json::UInt(s.id as u64)),
                                ("start", Json::UInt(s.start as u64)),
                                ("end", Json::UInt(s.end as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cells", Json::Arr(self.cells.iter().map(cell_coord_json).collect())),
        ])
        .render()
    }

    /// Parses and validates a plan.
    ///
    /// # Errors
    ///
    /// Rejects invalid JSON, any schema other than [`PLAN_SCHEMA`],
    /// missing/mistyped fields, cell lists that split a scenario group
    /// ([`check_contiguous_groups`]), shard ids out of order, and shard
    /// ranges that fail to tile the cell range at group boundaries.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        let header = root.req("plan")?;
        let schema = header.req("schema")?.as_str()?;
        if schema != PLAN_SCHEMA {
            return Err(format!("unsupported plan schema '{schema}' (expected {PLAN_SCHEMA})"));
        }
        let config = config_from_header(header)?;
        let cells = root
            .req("cells")?
            .as_arr()?
            .iter()
            .map(cell_coord_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if cells.len() != header.req("cells")?.as_u64()? as usize {
            return Err("plan header cell count disagrees with cell list".into());
        }
        let shards = root
            .req("shards")?
            .as_arr()?
            .iter()
            .map(|j| {
                Ok(ShardSpec {
                    id: j.req("id")?.as_u64()? as usize,
                    start: j.req("start")?.as_u64()? as usize,
                    end: j.req("end")?.as_u64()? as usize,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if shards.len() != header.req("shards")?.as_u64()? as usize {
            return Err("plan header shard count disagrees with shard list".into());
        }
        let plan = Self { config, cells, shards };
        plan.validate()?;
        Ok(plan)
    }

    /// Checks the structural invariants: every scenario group is one run
    /// of cells, ids are `0..n` in order, ranges tile `0..cells.len()`
    /// without gaps or overlaps, and every cut is group-aligned.
    fn validate(&self) -> Result<(), String> {
        check_contiguous_groups(&self.cells)?;
        let boundaries = group_boundaries(&self.cells);
        let mut expected_start = 0usize;
        for (i, s) in self.shards.iter().enumerate() {
            if s.id != i {
                return Err(format!("shard ids out of order: position {i} holds id {}", s.id));
            }
            if s.start != expected_start || s.end <= s.start {
                return Err(format!(
                    "shard {i} range {}..{} does not tile the cell range (expected start {expected_start})",
                    s.start, s.end
                ));
            }
            if boundaries.binary_search(&s.end).is_err() {
                return Err(format!("shard {i} cut at {} is not group-aligned", s.end));
            }
            expected_start = s.end;
        }
        if expected_start != self.cells.len() {
            return Err(format!("shards cover {expected_start} of {} cells", self.cells.len()));
        }
        Ok(())
    }
}

/// FNV-1a fingerprint of a canonical cell list — the identity of a plan's
/// matrix. Every [`crate::artifact::PartialArtifact`] carries its plan's
/// fingerprint so [`crate::merge::merge_partials`] can reject partials
/// from different campaigns that happen to share cell counts and
/// configuration (two machines sweeping different `--topologies` lists,
/// say).
#[must_use]
pub fn cells_fingerprint<'a>(cells: impl IntoIterator<Item = &'a Cell>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for cell in cells {
        eat(cell.topology.as_bytes());
        eat(b"|");
        eat(cell.protocol.as_bytes());
        eat(b"|");
        eat(cell.daemon.as_bytes());
        eat(b"|");
        eat(cell.init.to_string().as_bytes());
        eat(&cell.seed_index.to_le_bytes());
        eat(b"\n");
    }
    h
}

/// Checks that every scenario group of `cells` is one contiguous run, as
/// in every matrix the builder enumerates: the planner's cuts, the
/// executor's work units and the per-group statistics all read a group as
/// one run of adjacent cells. Only a hand-edited plan or set of partials
/// splits one.
///
/// # Errors
///
/// Names the split group and the cell index where it reappears.
pub fn check_contiguous_groups<'a>(
    cells: impl IntoIterator<Item = &'a Cell>,
) -> Result<(), String> {
    let mut seen = HashSet::new();
    let mut prev: Option<&Cell> = None;
    for (i, cell) in cells.into_iter().enumerate() {
        if prev.is_none_or(|p| !p.same_group(cell)) && !seen.insert(cell.group_key()) {
            return Err(format!(
                "scenario group {} is split: cell {i} reopens it after other groups' cells",
                cell.group_key()
            ));
        }
        prev = Some(cell);
    }
    Ok(())
}

/// The sorted cut points between scenario groups in a canonical cell list:
/// `0`, every index where the group changes, and `cells.len()`.
#[must_use]
pub fn group_boundaries(cells: &[Cell]) -> Vec<usize> {
    let mut boundaries = vec![0];
    for group in cells.chunk_by(Cell::same_group) {
        boundaries.push(boundaries[boundaries.len() - 1] + group.len());
    }
    boundaries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5"])
            .protocols(["ssme", "dijkstra"])
            .daemons(["sync", "central-rr"])
            .fault_bursts([0, 1])
            .seeds(0..3)
            .build()
    }

    #[test]
    fn plans_tile_the_matrix_at_group_boundaries() {
        let m = matrix();
        let boundaries = group_boundaries(m.cells());
        assert_eq!(boundaries.len() - 1, 16, "16 scenario groups");
        for shard_count in [1, 2, 3, 5, 7, 16, 100] {
            let plan = CampaignPlan::new(&m, &CampaignConfig::default(), shard_count);
            assert!(plan.validate().is_ok(), "{shard_count} shards: {:?}", plan.validate());
            assert!(plan.shards.len() <= shard_count.max(1));
            assert_eq!(plan.shards.first().unwrap().start, 0);
            assert_eq!(plan.shards.last().unwrap().end, m.len());
        }
        // More shards than groups: one group per shard.
        let plan = CampaignPlan::new(&m, &CampaignConfig::default(), 100);
        assert_eq!(plan.shards.len(), 16);
    }

    #[test]
    fn planning_is_deterministic_and_balanced() {
        let m = matrix();
        let a = CampaignPlan::new(&m, &CampaignConfig::default(), 4);
        let b = CampaignPlan::new(&m, &CampaignConfig::default(), 4);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.shards.len(), 4);
        for s in &a.shards {
            let size = s.end - s.start;
            assert!((6..=18).contains(&size), "shard {} holds {size} cells", s.id);
        }
    }

    #[test]
    fn plan_round_trips_through_json() {
        let m = matrix();
        let cfg = CampaignConfig { seed: 99, max_steps: 1234, early_stop_margin: 5, threads: 3 };
        let plan = CampaignPlan::new(&m, &cfg, 3);
        let text = plan.to_json();
        let parsed = CampaignPlan::from_json(&text).expect("round trip");
        assert_eq!(parsed.cells, plan.cells);
        assert_eq!(parsed.shards, plan.shards);
        assert_eq!(parsed.config.seed, 99);
        assert_eq!(parsed.config.max_steps, 1234);
        assert_eq!(parsed.config.early_stop_margin, 5);
        // threads is an execution detail, not part of the work description.
        assert_eq!(parsed.config.threads, 0);
        assert_eq!(parsed.to_json(), text, "serialization is stable");
    }

    #[test]
    fn from_json_rejects_corrupt_plans() {
        let plan = CampaignPlan::new(&matrix(), &CampaignConfig::default(), 2);
        let good = plan.to_json();
        assert!(CampaignPlan::from_json(&good.replace(PLAN_SCHEMA, "nope/v9")).is_err());
        // A cut that is not group-aligned: move shard 0's end by one cell.
        let end = plan.shards[0].end;
        let bad = good
            .replace(&format!("\"end\": {end}"), &format!("\"end\": {}", end - 1))
            .replace(&format!("\"start\": {end}"), &format!("\"start\": {}", end - 1));
        assert!(CampaignPlan::from_json(&bad).is_err(), "mid-group cut must be rejected");
        assert!(CampaignPlan::from_json("{}").is_err());
        // One group in two runs of cells (sync/rr/sync/rr), tiled by one
        // shard: every cut is group-aligned, yet the group is split.
        let m = ScenarioMatrix::builder()
            .topologies(["ring:6"])
            .protocols(["ssme"])
            .daemons(["sync", "central-rr"])
            .seeds(0..2)
            .build();
        let mut split = CampaignPlan::new(&m, &CampaignConfig::default(), 1);
        split.cells.swap(1, 2);
        let err = CampaignPlan::from_json(&split.to_json()).unwrap_err();
        assert!(err.contains("ring:6|ssme|sync|f0 is split: cell 2"), "got {err}");
    }

    #[test]
    fn shard_cells_selects_the_documented_range() {
        let plan = CampaignPlan::new(&matrix(), &CampaignConfig::default(), 3);
        let mut total = 0;
        for s in &plan.shards {
            let cells = plan.shard_cells(s.id).expect("valid id");
            assert_eq!(cells.len(), s.end - s.start);
            total += cells.len();
        }
        assert_eq!(total, plan.cells.len());
        assert!(plan.shard_cells(99).is_err());
    }
}
