//! Campaign artifacts: deterministic JSON/CSV writers, a strict JSON
//! reader, and the versioned [`PartialArtifact`] shards exchange.
//!
//! No serde in this offline environment, so the writers are hand-rolled on
//! a tiny ordered JSON value type (and the reader is a small recursive
//! descent parser over the same type). Determinism is a hard requirement
//! (tested): serializing the same [`CampaignResult`] yields byte-identical
//! output regardless of thread count, machine or run — which is why wall
//! clock and host facts never enter the final artifact.
//!
//! A [`PartialArtifact`] is one shard's complete output: an env/provenance
//! header and the shard's per-cell results — every number a group
//! statistic is computed from, all integers, so a partial round-trips
//! through JSON losslessly. [`crate::merge::merge_partials`] derives the
//! group statistics from the merged cells, which is what makes it
//! reproduce the single-process artifact byte for byte. A partial a
//! `campaign work` worker uploads also carries the worker's shard event
//! stream in an optional `telemetry` section, which the merge and the
//! final artifact ignore.

use crate::executor::{CampaignConfig, CampaignResult, CellOutcome, CellResult, GroupSummary};
use crate::matrix::{Cell, InitMode};
use crate::stats::OnlineStats;
use specstab_kernel::daemon::DaemonClass;
use specstab_telemetry::{validate_events, Event};
use std::fmt::Write as _;

// The JSON value type moved down into `specstab-telemetry` (the event
// stream and metrics sidecar speak the same format); re-exported here so
// every existing `crate::artifact::{Json, obj}` caller keeps compiling.
pub use specstab_telemetry::json::{obj, Json, MAX_PARSE_DEPTH};

fn stats_json(s: &OnlineStats) -> Json {
    obj(vec![
        ("count", Json::UInt(s.count())),
        ("min", Json::Num(s.min())),
        ("max", Json::Num(s.max())),
        ("mean", Json::Num(s.mean())),
        ("stddev", Json::Num(s.stddev())),
        ("p50", Json::Num(s.p50())),
        ("p90", Json::Num(s.p90())),
        ("p99", Json::Num(s.p99())),
    ])
}

fn group_json(g: &GroupSummary) -> Json {
    obj(vec![
        ("key", Json::Str(g.key.clone())),
        ("topology", Json::Str(g.topology.clone())),
        ("protocol", Json::Str(g.protocol.to_string())),
        ("daemon", Json::Str(g.daemon.clone())),
        ("daemon_class", Json::Str(g.class_str())),
        ("init", Json::Str(g.init.to_string())),
        ("n", Json::UInt(g.n as u64)),
        ("diam", Json::UInt(u64::from(g.diam))),
        ("runs", Json::UInt(g.runs)),
        ("errors", Json::UInt(g.errors)),
        ("converged", Json::UInt(g.converged)),
        ("bound", g.bound.map_or(Json::Null, Json::UInt)),
        ("violations", Json::UInt(g.violations)),
        ("stabilization_steps", stats_json(&g.stabilization)),
        ("legitimacy_entry", stats_json(&g.entry)),
        ("moves", stats_json(&g.moves)),
    ])
}

fn cell_json(c: &CellResult) -> Json {
    let mut fields = vec![
        ("topology", Json::Str(c.cell.topology.clone())),
        ("protocol", Json::Str(c.cell.protocol.to_string())),
        ("daemon", Json::Str(c.cell.daemon.clone())),
        ("init", Json::Str(c.cell.init.to_string())),
        ("seed_index", Json::UInt(c.cell.seed_index)),
        ("cell_seed", Json::UInt(c.cell_seed)),
        ("n", Json::UInt(c.n as u64)),
        ("diam", Json::UInt(u64::from(c.diam))),
    ];
    match &c.outcome {
        Ok(o) => {
            fields.push(("steps_run", Json::UInt(o.steps_run as u64)));
            fields.push(("stabilization_steps", Json::UInt(o.stabilization_steps as u64)));
            fields.push(("legitimacy_entry", Json::UInt(o.legitimacy_entry as u64)));
            fields.push(("moves", Json::UInt(o.moves)));
            fields.push(("converged", Json::Bool(o.ended_legitimate)));
            fields.push(("bound", o.bound.map_or(Json::Null, Json::UInt)));
            fields.push(("violated_bound", Json::Bool(o.violated_bound)));
        }
        Err(e) => fields.push(("error", Json::Str(e.clone()))),
    }
    obj(fields)
}

/// Serializes a campaign result to the v1 JSON artifact.
///
/// `include_cells` controls whether the (potentially large) per-cell
/// section is embedded alongside the group aggregates.
#[must_use]
pub fn to_json(result: &CampaignResult, include_cells: bool) -> String {
    let mut root = vec![
        (
            "campaign",
            obj(vec![
                ("schema", Json::Str("specstab-campaign/v1".into())),
                ("seed", Json::UInt(result.config.seed)),
                ("max_steps", Json::UInt(result.config.max_steps as u64)),
                ("early_stop_margin", Json::UInt(result.config.early_stop_margin as u64)),
                ("cells", Json::UInt(result.cells.len() as u64)),
                ("groups", Json::UInt(result.groups.len() as u64)),
                ("violations", Json::UInt(result.total_violations())),
                ("errors", Json::UInt(result.total_errors())),
            ]),
        ),
        ("groups", Json::Arr(result.groups.iter().map(group_json).collect())),
    ];
    if include_cells {
        root.push(("cells", Json::Arr(result.cells.iter().map(cell_json).collect())));
    }
    obj(root).render()
}

/// Serializes the per-cell results as CSV (header + one row per cell).
#[must_use]
pub fn to_csv(result: &CampaignResult) -> String {
    let mut out = String::from(
        "topology,protocol,daemon,init,seed_index,cell_seed,n,diam,steps_run,\
         stabilization_steps,legitimacy_entry,moves,converged,bound,violated_bound,error\n",
    );
    for c in &result.cells {
        let (steps, stab, entry, moves, conv, bound, viol, err) = match &c.outcome {
            Ok(o) => (
                o.steps_run.to_string(),
                o.stabilization_steps.to_string(),
                o.legitimacy_entry.to_string(),
                o.moves.to_string(),
                o.ended_legitimate.to_string(),
                o.bound.map_or(String::new(), |b| b.to_string()),
                o.violated_bound.to_string(),
                String::new(),
            ),
            Err(e) => (
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                csv_escape(e),
            ),
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{steps},{stab},{entry},{moves},{conv},{bound},{viol},{err}",
            csv_escape(&c.cell.topology),
            c.cell.protocol,
            csv_escape(&c.cell.daemon),
            c.cell.init,
            c.cell.seed_index,
            c.cell_seed,
            c.n,
            c.diam,
        );
    }
    out
}

fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Writes `contents` to `path` atomically: the bytes land in `<path>.tmp`
/// first and are renamed into place, so a killed process never leaves a
/// truncated artifact that poisons a later merge or spool resume (readers
/// either see the old complete file or the new complete file, never a
/// prefix).
///
/// # Errors
///
/// Propagates I/O errors from the temp-file write or the rename; on a
/// failed rename the temp file is left behind for post-mortem.
pub fn write_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Schema identifier of the partial-artifact format. Bump on any change to
/// the layout below; [`PartialArtifact::from_json`] rejects every other
/// value, including the `v1` partials (and spools) of older binaries,
/// which carried accumulator state instead of deriving it.
pub const PARTIAL_SCHEMA: &str = "specstab-campaign-partial/v2";

/// The campaign-parameter header fields shared by the plan and partial
/// schemas (`threads` is a per-process execution detail and is never
/// serialized). Writers splice these into their headers; readers use
/// [`config_from_header`] — one place to extend when the config grows.
pub(crate) fn config_header_fields(config: &CampaignConfig) -> Vec<(&'static str, Json)> {
    vec![
        ("seed", Json::UInt(config.seed)),
        ("max_steps", Json::UInt(config.max_steps as u64)),
        ("early_stop_margin", Json::UInt(config.early_stop_margin as u64)),
    ]
}

/// Parses the shared campaign-parameter header fields (`threads` = 0).
pub(crate) fn config_from_header(header: &Json) -> Result<CampaignConfig, String> {
    Ok(CampaignConfig {
        threads: 0,
        max_steps: header.req("max_steps")?.as_u64()? as usize,
        seed: header.req("seed")?.as_u64()?,
        early_stop_margin: header.req("early_stop_margin")?.as_u64()? as usize,
    })
}

/// One shard's complete campaign output: which contiguous cell range of
/// which plan it covers, and the per-cell results.
///
/// Partials are the interchange format of the plan → shard → merge
/// pipeline: any set of partials that tiles a plan's cell range merges
/// (see [`crate::merge::merge_partials`]) into a [`CampaignResult`] whose
/// JSON/CSV artifacts are **byte-identical** to a single-process run,
/// wherever the shards were cut. A partial carries no statistics: the
/// merge derives every group's from the merged cells.
///
/// `telemetry` is observability data riding along with the results: the
/// `specstab-events/v1` stream of the worker that executed the shard
/// (`stream`, `shard_start`, `cell`, `group`, `shard_end`). An empty
/// stream is not serialized, so a partial without one — every
/// `campaign shard` output — carries no `telemetry` key at all.
#[derive(Clone, Debug)]
pub struct PartialArtifact {
    /// Shard id within the plan.
    pub shard_id: usize,
    /// First cell index (into the plan's canonical cell order) covered.
    pub start: usize,
    /// One past the last cell index covered.
    pub end: usize,
    /// Total cells in the plan (all shards together).
    pub total_cells: usize,
    /// Fingerprint of the plan's canonical cell list (see
    /// [`crate::plan::cells_fingerprint`]): the identity check that keeps
    /// partials of *different* campaigns from merging just because their
    /// cell counts and configuration agree.
    pub plan_fingerprint: u64,
    /// The campaign configuration the shard ran with (`threads` is an
    /// execution detail and is not serialized).
    pub config: CampaignConfig,
    /// Per-cell results, in canonical order, for cells `start..end`.
    pub cells: Vec<CellResult>,
    /// The executing worker's shard event stream (empty when none was
    /// recorded); every event carries this partial's shard id.
    pub telemetry: Vec<Event>,
}

impl PartialArtifact {
    /// Packages a shard execution (the [`CampaignResult`] of running cells
    /// `start..start + result.cells.len()` of a plan) as a partial. The
    /// result's group statistics are dropped: the merge derives them.
    #[must_use]
    pub fn from_result(
        result: CampaignResult,
        shard_id: usize,
        start: usize,
        total_cells: usize,
        plan_fingerprint: u64,
    ) -> Self {
        Self {
            shard_id,
            start,
            end: start + result.cells.len(),
            total_cells,
            plan_fingerprint,
            config: result.config,
            cells: result.cells,
            telemetry: Vec::new(),
        }
    }

    /// Serializes the partial (versioned header with provenance, cells,
    /// telemetry when recorded).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut header = vec![
            ("schema", Json::Str(PARTIAL_SCHEMA.into())),
            ("shard", Json::UInt(self.shard_id as u64)),
            ("start", Json::UInt(self.start as u64)),
            ("end", Json::UInt(self.end as u64)),
            ("total_cells", Json::UInt(self.total_cells as u64)),
            ("plan_fingerprint", Json::UInt(self.plan_fingerprint)),
        ];
        header.extend(config_header_fields(&self.config));
        header.push((
            "provenance",
            obj(vec![
                ("crate", Json::Str("specstab-campaign".into())),
                ("version", Json::Str(env!("CARGO_PKG_VERSION").into())),
                ("os", Json::Str(std::env::consts::OS.into())),
                ("arch", Json::Str(std::env::consts::ARCH.into())),
            ]),
        ));
        let mut root = vec![
            ("partial", obj(header)),
            ("cells", Json::Arr(self.cells.iter().map(cell_result_json).collect())),
        ];
        if !self.telemetry.is_empty() {
            root.push((
                "telemetry",
                Json::Arr(self.telemetry.iter().map(Event::to_json).collect()),
            ));
        }
        obj(root).render()
    }

    /// Parses and validates a partial artifact.
    ///
    /// # Errors
    ///
    /// Rejects syntactically invalid JSON, any schema string other than
    /// [`PARTIAL_SCHEMA`], missing or mistyped fields, structurally
    /// inconsistent partials (range/cell-count mismatch), and a
    /// `telemetry` section that is not one valid event stream of this
    /// partial's shard.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = Json::parse(text)?;
        let header = root.req("partial")?;
        let schema = header.req("schema")?.as_str()?;
        if schema != PARTIAL_SCHEMA {
            return Err(format!(
                "unsupported partial schema '{schema}' (expected {PARTIAL_SCHEMA})"
            ));
        }
        header.req("provenance")?; // required by the schema, contents informational
        let shard_id = header.req("shard")?.as_u64()? as usize;
        let start = header.req("start")?.as_u64()? as usize;
        let end = header.req("end")?.as_u64()? as usize;
        let total_cells = header.req("total_cells")?.as_u64()? as usize;
        let plan_fingerprint = header.req("plan_fingerprint")?.as_u64()?;
        let config = config_from_header(header)?;
        let cells = root
            .req("cells")?
            .as_arr()?
            .iter()
            .map(cell_result_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if start > end || end > total_cells {
            return Err(format!("bad cell range {start}..{end} of {total_cells}"));
        }
        if cells.len() != end - start {
            return Err(format!("cell count {} disagrees with range {start}..{end}", cells.len()));
        }
        let telemetry = match root.get("telemetry") {
            None => Vec::new(),
            Some(section) => {
                let events = section
                    .as_arr()?
                    .iter()
                    .map(Event::from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                if let Some(e) = events.iter().find(|e| e.shard != Some(shard_id as u64)) {
                    return Err(format!(
                        "telemetry event {} is stamped shard {:?}, expected {shard_id}",
                        e.seq, e.shard
                    ));
                }
                validate_events(&events).map_err(|e| format!("telemetry: {e}"))?;
                events
            }
        };
        Ok(Self { shard_id, start, end, total_cells, plan_fingerprint, config, cells, telemetry })
    }
}

fn class_to_json(class: Option<DaemonClass>) -> Json {
    class.map_or(Json::Null, |c| Json::Str(c.to_string()))
}

fn class_from_json(j: &Json) -> Result<Option<DaemonClass>, String> {
    match j {
        Json::Null => Ok(None),
        Json::Str(s) => s.parse::<DaemonClass>().map(Some),
        other => Err(format!("expected daemon class string or null, got {other:?}")),
    }
}

fn opt_u64_from_json(j: &Json) -> Result<Option<u64>, String> {
    match j {
        Json::Null => Ok(None),
        other => other.as_u64().map(Some),
    }
}

/// Serializes a cell's coordinates (the plan format's cell entry).
pub(crate) fn cell_coord_json(cell: &Cell) -> Json {
    obj(vec![
        ("topology", Json::Str(cell.topology.clone())),
        ("protocol", Json::Str(cell.protocol.clone())),
        ("daemon", Json::Str(cell.daemon.clone())),
        ("init", Json::Str(cell.init.to_string())),
        ("seed_index", Json::UInt(cell.seed_index)),
    ])
}

/// Parses a cell-coordinate object written by [`cell_coord_json`].
pub(crate) fn cell_coord_from_json(j: &Json) -> Result<Cell, String> {
    Ok(Cell {
        topology: j.req("topology")?.as_str()?.to_string(),
        protocol: j.req("protocol")?.as_str()?.to_string(),
        daemon: j.req("daemon")?.as_str()?.to_string(),
        init: InitMode::parse(j.req("init")?.as_str()?)?,
        seed_index: j.req("seed_index")?.as_u64()?,
    })
}

fn cell_result_json(c: &CellResult) -> Json {
    let mut fields = vec![
        ("cell", cell_coord_json(&c.cell)),
        ("n", Json::UInt(c.n as u64)),
        ("diam", Json::UInt(u64::from(c.diam))),
        ("class", class_to_json(c.class)),
        ("cell_seed", Json::UInt(c.cell_seed)),
    ];
    match &c.outcome {
        Ok(o) => fields.push((
            "outcome",
            obj(vec![
                ("steps_run", Json::UInt(o.steps_run as u64)),
                ("stabilization_steps", Json::UInt(o.stabilization_steps as u64)),
                ("legitimacy_entry", Json::UInt(o.legitimacy_entry as u64)),
                ("moves", Json::UInt(o.moves)),
                ("ended_legitimate", Json::Bool(o.ended_legitimate)),
                ("bound", o.bound.map_or(Json::Null, Json::UInt)),
                ("violated_bound", Json::Bool(o.violated_bound)),
            ]),
        )),
        Err(e) => fields.push(("error", Json::Str(e.clone()))),
    }
    obj(fields)
}

fn cell_result_from_json(j: &Json) -> Result<CellResult, String> {
    let outcome = match (j.get("outcome"), j.get("error")) {
        (Some(o), None) => Ok(CellOutcome {
            steps_run: o.req("steps_run")?.as_u64()? as usize,
            stabilization_steps: o.req("stabilization_steps")?.as_u64()? as usize,
            legitimacy_entry: o.req("legitimacy_entry")?.as_u64()? as usize,
            moves: o.req("moves")?.as_u64()?,
            ended_legitimate: o.req("ended_legitimate")?.as_bool()?,
            bound: opt_u64_from_json(o.req("bound")?)?,
            violated_bound: o.req("violated_bound")?.as_bool()?,
        }),
        (None, Some(e)) => Err(e.as_str()?.to_string()),
        _ => return Err("cell needs exactly one of 'outcome' or 'error'".into()),
    };
    Ok(CellResult {
        cell: cell_coord_from_json(j.req("cell")?)?,
        n: j.req("n")?.as_u64()? as usize,
        diam: u32::try_from(j.req("diam")?.as_u64()?).map_err(|e| e.to_string())?,
        class: class_from_json(j.req("class")?)?,
        cell_seed: j.req("cell_seed")?.as_u64()?,
        outcome,
        // Telemetry never travels in partials (it would poison the
        // byte-identical merge); cells read back carry zeroed telemetry.
        wall_nanos: 0,
        counters: specstab_telemetry::RunCounters::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
