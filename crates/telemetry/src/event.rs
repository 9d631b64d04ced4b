//! The `specstab-events/v1` structured event stream.
//!
//! An event stream is NDJSON: one self-contained JSON object per line,
//! written through [`Json::render_compact`]. Every stream starts with a
//! [`EventKind::Stream`] header naming the schema version and opens its own
//! **sequence space**: events carry a per-stream `seq` starting at 0 and
//! incrementing by exactly 1, plus a `t_us` timestamp (microseconds since
//! the stream's epoch) that is monotonically non-decreasing within the
//! stream. Shard worker processes stamp their events with their shard id;
//! orchestrator/in-process events carry no shard field.
//!
//! Timestamps and wall-clock fields are **observability data**: they make
//! event streams deliberately non-reproducible across runs, which is why
//! events live in their own sidecar files (or the `telemetry` section of a
//! partial artifact) and never feed the deterministic campaign artifacts.
//! A coordinator splices each worker's shard stream into its own trace as
//! the worker's upload is accepted; [`validate_events`] checks every
//! stream of such a trace independently.

use crate::counters::RunCounters;
use crate::json::{obj, Json};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

/// Schema identifier carried by every stream header. Bump on any change to
/// the event layouts below; readers reject every other value.
pub const EVENTS_SCHEMA: &str = "specstab-events/v1";

/// `group` event path: every cell of the group ran as a replica lane of
/// the batched engine.
pub const PATH_BATCHED: &str = "batched";
/// `group` event path: the group's daemon has a batched schedule, but not
/// every cell ran as a lane (protocol or instance not packed, batching
/// switched off in-process, a failed harness build or cell setup).
pub const PATH_SCALAR_FALLBACK: &str = "scalar-fallback";
/// `group` event path: the group's daemon has no batched schedule, so its
/// cells ran on the scalar engine.
pub const PATH_SCALAR: &str = "scalar";

/// Coordinates and outcome summary of one executed cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellEvent {
    /// Topology spec.
    pub topology: String,
    /// Protocol registry name.
    pub protocol: String,
    /// Daemon spec.
    pub daemon: String,
    /// Initial-configuration mode (display form, e.g. `burst:2`).
    pub init: String,
    /// Seed index within the group.
    pub seed_index: u64,
    /// Wall-clock microseconds the measured run took.
    pub wall_us: u64,
    /// Moves the run executed (0 for failed cells).
    pub moves: u64,
    /// Outcome summary, or the cell's error message.
    pub outcome: Result<CellOutcomeEvent, String>,
}

/// The successful-cell outcome summary carried in a [`CellEvent`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CellOutcomeEvent {
    /// Steps the run executed.
    pub steps_run: u64,
    /// Measured stabilization time.
    pub stabilization_steps: u64,
    /// Whether the run ended inside the legitimate region.
    pub converged: bool,
}

/// One lifecycle event. See each variant for its NDJSON `event` tag.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// `stream`: the mandatory first event of every stream.
    Stream {
        /// Schema version ([`EVENTS_SCHEMA`]).
        schema: String,
        /// Which producer opened the stream (`run`, `plan`, `shard`,
        /// `merge`, `bench`).
        source: String,
    },
    /// `campaign_start`: a sweep is about to execute.
    CampaignStart {
        /// Cells in the matrix.
        cells: u64,
        /// Scenario groups in the matrix.
        groups: u64,
        /// Campaign base seed.
        seed: u64,
        /// Per-run step budget.
        max_steps: u64,
    },
    /// `plan`: a shard plan was produced.
    Plan {
        /// Cells in the plan.
        cells: u64,
        /// Shards the plan was cut into.
        shards: u64,
    },
    /// `shard_start`: a shard began executing its cell range.
    ShardStart {
        /// First cell index covered.
        start: u64,
        /// One past the last cell index covered.
        end: u64,
    },
    /// `cell`: one cell finished (successfully or not).
    Cell(CellEvent),
    /// `group`: one scenario group finished.
    Group {
        /// Canonical group key.
        key: String,
        /// Cells executed.
        runs: u64,
        /// Cells that errored.
        errors: u64,
        /// Cells that ended legitimate.
        converged: u64,
        /// Theorem-bound violations.
        violations: u64,
        /// Wall-clock microseconds over the group's cells.
        wall_us: u64,
        /// Engine path that ran the group's cells: [`PATH_BATCHED`],
        /// [`PATH_SCALAR_FALLBACK`] or [`PATH_SCALAR`] (empty in traces
        /// written before the label existed).
        path: String,
    },
    /// `shard_end`: a shard finished all of its cells.
    ShardEnd {
        /// Cells the shard executed.
        cells: u64,
        /// Shard wall-clock microseconds.
        wall_us: u64,
        /// The sum of the shard's cells' engine counters.
        counters: RunCounters,
    },
    /// `lease_granted`: the serve coordinator leased a shard to a worker.
    LeaseGranted {
        /// Shard id leased (the *lease subject*, distinct from the
        /// stream-coordinate `shard` field every event carries).
        shard_id: u64,
        /// Worker the lease was granted to.
        worker: String,
        /// Unique lease id (coordinator-scoped, never reused).
        lease_id: u64,
        /// Lease duration in milliseconds.
        lease_ms: u64,
    },
    /// `lease_expired`: a lease deadline passed without an upload; the
    /// shard returns to the pending pool for re-dispatch.
    LeaseExpired {
        /// Shard id whose lease expired.
        shard_id: u64,
        /// Worker that held the expired lease.
        worker: String,
        /// The expired lease's id.
        lease_id: u64,
    },
    /// `partial_accepted`: the coordinator validated and folded an
    /// uploaded partial artifact (first upload of a shard only; duplicate
    /// uploads are acknowledged and dropped without an event).
    PartialAccepted {
        /// Shard id the partial covers.
        shard_id: u64,
        /// Worker that uploaded it (`"spool"` for partials resumed from
        /// the coordinator's spool directory).
        worker: String,
        /// Cells the partial carries.
        cells: u64,
        /// Events of worker telemetry the partial carried (0 for a
        /// partial written by `campaign shard --out`, which has none).
        /// `None` when read from a trace written before the count.
        telemetry_events: Option<u64>,
    },
    /// `partial_rejected`: an upload failed validation (bad schema, wrong
    /// plan fingerprint, range mismatch) and was discarded.
    PartialRejected {
        /// Worker that attempted the upload.
        worker: String,
        /// Human-readable rejection reason.
        reason: String,
    },
    /// `merge_start`: partial artifacts are about to be folded.
    MergeStart {
        /// Number of partials.
        partials: u64,
    },
    /// `merge_end`: the merged result exists.
    MergeEnd {
        /// Cells in the merged result.
        cells: u64,
        /// Groups in the merged result.
        groups: u64,
        /// Partial-artifact reads that fed the merge (`parsed_bytes`,
        /// `parse_us`; zero in traces written before they existed).
        parse: ParseTally,
        /// Wall-clock microseconds of the fold that turned the accepted
        /// partials into the result, group statistics included (zero in
        /// traces written before it existed).
        fold_us: u64,
    },
    /// `campaign_end`: the sweep finished.
    CampaignEnd {
        /// Cells executed.
        cells: u64,
        /// Cells that errored.
        errors: u64,
        /// Theorem-bound violations.
        violations: u64,
        /// Campaign wall-clock microseconds.
        wall_us: u64,
        /// The sum of the campaign's cells' engine counters (a
        /// coordinator's is the sum of its accepted shards' `shard_end`s).
        counters: RunCounters,
    },
}

impl EventKind {
    /// The NDJSON `event` tag of this kind.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Stream { .. } => "stream",
            EventKind::CampaignStart { .. } => "campaign_start",
            EventKind::Plan { .. } => "plan",
            EventKind::ShardStart { .. } => "shard_start",
            EventKind::Cell(_) => "cell",
            EventKind::Group { .. } => "group",
            EventKind::ShardEnd { .. } => "shard_end",
            EventKind::LeaseGranted { .. } => "lease_granted",
            EventKind::LeaseExpired { .. } => "lease_expired",
            EventKind::PartialAccepted { .. } => "partial_accepted",
            EventKind::PartialRejected { .. } => "partial_rejected",
            EventKind::MergeStart { .. } => "merge_start",
            EventKind::MergeEnd { .. } => "merge_end",
            EventKind::CampaignEnd { .. } => "campaign_end",
        }
    }
}

/// Bytes of partial artifacts a merge site parsed and the wall time those
/// parses took: the transport-read timer `merge_end` carries.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ParseTally {
    /// Input bytes handed to the parser.
    pub bytes: u64,
    /// Wall-clock microseconds spent parsing them.
    pub us: u64,
}

impl ParseTally {
    /// Runs `parse` over `text`, adding the text's length and the call's
    /// wall time to the tally, and returns what `parse` returned.
    pub fn time<T>(&mut self, text: &str, parse: impl FnOnce(&str) -> T) -> T {
        let started = Instant::now();
        let parsed = parse(text);
        self.bytes += text.len() as u64;
        self.us += u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        parsed
    }
}

/// One event: stream coordinates plus the lifecycle payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Shard id for shard-worker streams; `None` for orchestrator and
    /// in-process streams.
    pub shard: Option<u64>,
    /// Per-stream sequence number (0-based, dense).
    pub seq: u64,
    /// Microseconds since the stream's epoch; non-decreasing per stream.
    pub t_us: u64,
    /// The lifecycle payload.
    pub kind: EventKind,
}

pub(crate) fn counters_json(c: &RunCounters) -> Json {
    obj(vec![
        ("steps", Json::UInt(c.steps)),
        ("moves", Json::UInt(c.moves)),
        ("guard_evals", Json::UInt(c.guard_evals)),
        ("delta_bytes", Json::UInt(c.delta_bytes)),
        ("monitor_evals", Json::UInt(c.monitor_evals)),
        ("batch_lanes", Json::UInt(c.batch_lanes)),
        ("batch_lane_steps", Json::UInt(c.batch_lane_steps)),
        ("batch_idle_lane_steps", Json::UInt(c.batch_idle_lane_steps)),
    ])
}

/// Optional counter field: absent in traces written before the batch and
/// monitor counters existed, which still carry the `specstab-events/v1`
/// schema — absent reads as zero so old traces keep validating. Keys of
/// retired counters, which older traces still carry (the process-wide
/// `scratch_reuses` and `config_clones`, the routing tallies), are
/// ignored.
fn opt_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key).map_or(Ok(0), Json::as_u64)
}

fn counters_from_json(j: &Json) -> Result<RunCounters, String> {
    Ok(RunCounters {
        steps: j.req("steps")?.as_u64()?,
        moves: j.req("moves")?.as_u64()?,
        guard_evals: j.req("guard_evals")?.as_u64()?,
        delta_bytes: j.req("delta_bytes")?.as_u64()?,
        monitor_evals: opt_u64(j, "monitor_evals")?,
        batch_lanes: opt_u64(j, "batch_lanes")?,
        batch_lane_steps: opt_u64(j, "batch_lane_steps")?,
        batch_idle_lane_steps: opt_u64(j, "batch_idle_lane_steps")?,
    })
}

impl Event {
    /// Serializes to one NDJSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        self.to_json().render_compact()
    }

    /// The event as one JSON object (the NDJSON line's value).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("event", Json::Str(self.kind.tag().into()))];
        if let Some(shard) = self.shard {
            fields.push(("shard", Json::UInt(shard)));
        }
        fields.push(("seq", Json::UInt(self.seq)));
        fields.push(("t_us", Json::UInt(self.t_us)));
        match &self.kind {
            EventKind::Stream { schema, source } => {
                fields.push(("schema", Json::Str(schema.clone())));
                fields.push(("source", Json::Str(source.clone())));
            }
            EventKind::CampaignStart { cells, groups, seed, max_steps } => {
                fields.push(("cells", Json::UInt(*cells)));
                fields.push(("groups", Json::UInt(*groups)));
                fields.push(("seed", Json::UInt(*seed)));
                fields.push(("max_steps", Json::UInt(*max_steps)));
            }
            EventKind::Plan { cells, shards } => {
                fields.push(("cells", Json::UInt(*cells)));
                fields.push(("shards", Json::UInt(*shards)));
            }
            EventKind::ShardStart { start, end } => {
                fields.push(("start", Json::UInt(*start)));
                fields.push(("end", Json::UInt(*end)));
            }
            EventKind::Cell(c) => {
                fields.push(("topology", Json::Str(c.topology.clone())));
                fields.push(("protocol", Json::Str(c.protocol.clone())));
                fields.push(("daemon", Json::Str(c.daemon.clone())));
                fields.push(("init", Json::Str(c.init.clone())));
                fields.push(("seed_index", Json::UInt(c.seed_index)));
                fields.push(("wall_us", Json::UInt(c.wall_us)));
                fields.push(("moves", Json::UInt(c.moves)));
                match &c.outcome {
                    Ok(o) => {
                        fields.push(("ok", Json::Bool(true)));
                        fields.push(("steps_run", Json::UInt(o.steps_run)));
                        fields.push(("stabilization_steps", Json::UInt(o.stabilization_steps)));
                        fields.push(("converged", Json::Bool(o.converged)));
                    }
                    Err(e) => {
                        fields.push(("ok", Json::Bool(false)));
                        fields.push(("error", Json::Str(e.clone())));
                    }
                }
            }
            EventKind::Group { key, runs, errors, converged, violations, wall_us, path } => {
                fields.push(("key", Json::Str(key.clone())));
                fields.push(("runs", Json::UInt(*runs)));
                fields.push(("errors", Json::UInt(*errors)));
                fields.push(("converged", Json::UInt(*converged)));
                fields.push(("violations", Json::UInt(*violations)));
                fields.push(("wall_us", Json::UInt(*wall_us)));
                fields.push(("path", Json::Str(path.clone())));
            }
            EventKind::ShardEnd { cells, wall_us, counters } => {
                fields.push(("cells", Json::UInt(*cells)));
                fields.push(("wall_us", Json::UInt(*wall_us)));
                fields.push(("counters", counters_json(counters)));
            }
            EventKind::LeaseGranted { shard_id, worker, lease_id, lease_ms } => {
                fields.push(("shard_id", Json::UInt(*shard_id)));
                fields.push(("worker", Json::Str(worker.clone())));
                fields.push(("lease_id", Json::UInt(*lease_id)));
                fields.push(("lease_ms", Json::UInt(*lease_ms)));
            }
            EventKind::LeaseExpired { shard_id, worker, lease_id } => {
                fields.push(("shard_id", Json::UInt(*shard_id)));
                fields.push(("worker", Json::Str(worker.clone())));
                fields.push(("lease_id", Json::UInt(*lease_id)));
            }
            EventKind::PartialAccepted { shard_id, worker, cells, telemetry_events } => {
                fields.push(("shard_id", Json::UInt(*shard_id)));
                fields.push(("worker", Json::Str(worker.clone())));
                fields.push(("cells", Json::UInt(*cells)));
                if let Some(n) = telemetry_events {
                    fields.push(("telemetry_events", Json::UInt(*n)));
                }
            }
            EventKind::PartialRejected { worker, reason } => {
                fields.push(("worker", Json::Str(worker.clone())));
                fields.push(("reason", Json::Str(reason.clone())));
            }
            EventKind::MergeStart { partials } => {
                fields.push(("partials", Json::UInt(*partials)));
            }
            EventKind::MergeEnd { cells, groups, parse, fold_us } => {
                fields.push(("cells", Json::UInt(*cells)));
                fields.push(("groups", Json::UInt(*groups)));
                fields.push(("parsed_bytes", Json::UInt(parse.bytes)));
                fields.push(("parse_us", Json::UInt(parse.us)));
                fields.push(("fold_us", Json::UInt(*fold_us)));
            }
            EventKind::CampaignEnd { cells, errors, violations, wall_us, counters } => {
                fields.push(("cells", Json::UInt(*cells)));
                fields.push(("errors", Json::UInt(*errors)));
                fields.push(("violations", Json::UInt(*violations)));
                fields.push(("wall_us", Json::UInt(*wall_us)));
                fields.push(("counters", counters_json(counters)));
            }
        }
        obj(fields)
    }

    /// Parses one NDJSON line through the strict [`Json`] reader.
    ///
    /// # Errors
    ///
    /// Rejects malformed JSON, unknown `event` tags, and missing or
    /// mistyped fields.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(line)?)
    }

    /// Reads one event from its JSON object (see [`Event::to_json`]).
    ///
    /// # Errors
    ///
    /// Rejects unknown `event` tags and missing or mistyped fields.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let tag = j.req("event")?.as_str()?.to_string();
        let shard = match j.get("shard") {
            Some(s) => Some(s.as_u64()?),
            None => None,
        };
        let seq = j.req("seq")?.as_u64()?;
        let t_us = j.req("t_us")?.as_u64()?;
        let kind = match tag.as_str() {
            "stream" => EventKind::Stream {
                schema: j.req("schema")?.as_str()?.to_string(),
                source: j.req("source")?.as_str()?.to_string(),
            },
            "campaign_start" => EventKind::CampaignStart {
                cells: j.req("cells")?.as_u64()?,
                groups: j.req("groups")?.as_u64()?,
                seed: j.req("seed")?.as_u64()?,
                max_steps: j.req("max_steps")?.as_u64()?,
            },
            "plan" => EventKind::Plan {
                cells: j.req("cells")?.as_u64()?,
                shards: j.req("shards")?.as_u64()?,
            },
            "shard_start" => EventKind::ShardStart {
                start: j.req("start")?.as_u64()?,
                end: j.req("end")?.as_u64()?,
            },
            "cell" => EventKind::Cell(CellEvent {
                topology: j.req("topology")?.as_str()?.to_string(),
                protocol: j.req("protocol")?.as_str()?.to_string(),
                daemon: j.req("daemon")?.as_str()?.to_string(),
                init: j.req("init")?.as_str()?.to_string(),
                seed_index: j.req("seed_index")?.as_u64()?,
                wall_us: j.req("wall_us")?.as_u64()?,
                moves: j.req("moves")?.as_u64()?,
                outcome: if j.req("ok")?.as_bool()? {
                    Ok(CellOutcomeEvent {
                        steps_run: j.req("steps_run")?.as_u64()?,
                        stabilization_steps: j.req("stabilization_steps")?.as_u64()?,
                        converged: j.req("converged")?.as_bool()?,
                    })
                } else {
                    Err(j.req("error")?.as_str()?.to_string())
                },
            }),
            "group" => EventKind::Group {
                key: j.req("key")?.as_str()?.to_string(),
                runs: j.req("runs")?.as_u64()?,
                errors: j.req("errors")?.as_u64()?,
                converged: j.req("converged")?.as_u64()?,
                violations: j.req("violations")?.as_u64()?,
                wall_us: j.req("wall_us")?.as_u64()?,
                path: j.get("path").map_or(Ok(""), Json::as_str)?.to_string(),
            },
            "shard_end" => EventKind::ShardEnd {
                cells: j.req("cells")?.as_u64()?,
                wall_us: j.req("wall_us")?.as_u64()?,
                counters: counters_from_json(j.req("counters")?)?,
            },
            "lease_granted" => EventKind::LeaseGranted {
                shard_id: j.req("shard_id")?.as_u64()?,
                worker: j.req("worker")?.as_str()?.to_string(),
                lease_id: j.req("lease_id")?.as_u64()?,
                lease_ms: j.req("lease_ms")?.as_u64()?,
            },
            "lease_expired" => EventKind::LeaseExpired {
                shard_id: j.req("shard_id")?.as_u64()?,
                worker: j.req("worker")?.as_str()?.to_string(),
                lease_id: j.req("lease_id")?.as_u64()?,
            },
            "partial_accepted" => EventKind::PartialAccepted {
                shard_id: j.req("shard_id")?.as_u64()?,
                worker: j.req("worker")?.as_str()?.to_string(),
                cells: j.req("cells")?.as_u64()?,
                telemetry_events: j.get("telemetry_events").map(Json::as_u64).transpose()?,
            },
            "partial_rejected" => EventKind::PartialRejected {
                worker: j.req("worker")?.as_str()?.to_string(),
                reason: j.req("reason")?.as_str()?.to_string(),
            },
            "merge_start" => EventKind::MergeStart { partials: j.req("partials")?.as_u64()? },
            "merge_end" => EventKind::MergeEnd {
                cells: j.req("cells")?.as_u64()?,
                groups: j.req("groups")?.as_u64()?,
                parse: ParseTally {
                    bytes: opt_u64(j, "parsed_bytes")?,
                    us: opt_u64(j, "parse_us")?,
                },
                fold_us: opt_u64(j, "fold_us")?,
            },
            "campaign_end" => EventKind::CampaignEnd {
                cells: j.req("cells")?.as_u64()?,
                errors: j.req("errors")?.as_u64()?,
                violations: j.req("violations")?.as_u64()?,
                wall_us: j.req("wall_us")?.as_u64()?,
                counters: counters_from_json(j.req("counters")?)?,
            },
            other => return Err(format!("unknown event tag '{other}'")),
        };
        Ok(Self { shard, seq, t_us, kind })
    }
}

/// Parses a whole NDJSON document (one event per non-empty line).
///
/// # Errors
///
/// Returns the first per-line parse error, prefixed with its 1-based line
/// number.
pub fn parse_ndjson(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| Event::from_json_line(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Validates the `specstab-events/v1` stream discipline over a parsed
/// event sequence (e.g. a whole trace file): every per-shard stream must
/// start with a [`EventKind::Stream`] header carrying a supported schema,
/// number its events densely from 0, and keep `t_us` non-decreasing.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_events(events: &[Event]) -> Result<(), String> {
    if events.is_empty() {
        return Err("empty event stream".into());
    }
    // Per-stream running state, keyed by shard id (None = orchestrator).
    let mut states: Vec<(Option<u64>, u64, u64)> = Vec::new(); // (shard, next_seq, last_t)
    for (i, e) in events.iter().enumerate() {
        let line = i + 1;
        let state = states.iter_mut().find(|(shard, _, _)| *shard == e.shard);
        match state {
            None => {
                let EventKind::Stream { schema, .. } = &e.kind else {
                    return Err(format!(
                        "event {line}: stream {:?} opens with '{}', expected 'stream' header",
                        e.shard,
                        e.kind.tag()
                    ));
                };
                if schema != EVENTS_SCHEMA {
                    return Err(format!(
                        "event {line}: unsupported schema '{schema}' (expected {EVENTS_SCHEMA})"
                    ));
                }
                if e.seq != 0 {
                    return Err(format!(
                        "event {line}: stream {:?} header has seq {}, expected 0",
                        e.shard, e.seq
                    ));
                }
                states.push((e.shard, 1, e.t_us));
            }
            Some((shard, next_seq, last_t)) => {
                if e.seq != *next_seq {
                    return Err(format!(
                        "event {line}: stream {shard:?} has seq {} after {}, expected dense \
                         numbering",
                        e.seq,
                        *next_seq - 1
                    ));
                }
                if e.t_us < *last_t {
                    return Err(format!(
                        "event {line}: stream {shard:?} time went backwards ({} -> {})",
                        *last_t, e.t_us
                    ));
                }
                *next_seq += 1;
                *last_t = e.t_us;
            }
        }
    }
    Ok(())
}

/// A buffered NDJSON event-stream writer: stamps each event with the
/// stream's shard id, the next sequence number, and microseconds since the
/// writer's creation (the stream epoch), so emission order alone
/// guarantees the stream discipline [`validate_events`] checks.
///
/// A writer either streams to a file ([`TraceWriter::create`]) or keeps
/// its events in memory ([`TraceWriter::in_memory`]) — a `campaign work`
/// worker's shard stream, which travels inside its partial's `telemetry`
/// section instead of a file.
pub struct TraceWriter {
    sink: Sink,
    shard: Option<u64>,
    seq: u64,
    epoch: Instant,
}

enum Sink {
    File(BufWriter<File>),
    Memory(Vec<Event>),
}

impl TraceWriter {
    /// Creates the trace file and writes the stream header.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be created or written.
    pub fn create(path: &Path, shard: Option<u64>, source: &str) -> Result<Self, String> {
        let file =
            File::create(path).map_err(|e| format!("creating trace {}: {e}", path.display()))?;
        Self::open(Sink::File(BufWriter::new(file)), shard, source)
    }

    /// Starts a stream recorded in memory (read back with
    /// [`TraceWriter::into_events`]), header included.
    #[must_use]
    pub fn in_memory(shard: Option<u64>, source: &str) -> Self {
        Self::open(Sink::Memory(Vec::new()), shard, source)
            .expect("recording an event in memory cannot fail")
    }

    fn open(sink: Sink, shard: Option<u64>, source: &str) -> Result<Self, String> {
        let mut writer = Self { sink, shard, seq: 0, epoch: Instant::now() };
        writer
            .emit(EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: source.to_string() })?;
        Ok(writer)
    }

    /// Stamps and writes one event of this stream.
    ///
    /// # Errors
    ///
    /// Returns a message on write failure.
    pub fn emit(&mut self, kind: EventKind) -> Result<(), String> {
        let event = Event {
            shard: self.shard,
            seq: self.seq,
            t_us: u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX),
            kind,
        };
        self.seq += 1;
        self.emit_raw(event)
    }

    /// Writes an already-stamped event verbatim — the pass-through a
    /// coordinator uses to splice a worker's shard stream into its own
    /// trace without re-stamping it.
    ///
    /// # Errors
    ///
    /// Returns a message on write failure.
    pub fn emit_raw(&mut self, event: Event) -> Result<(), String> {
        match &mut self.sink {
            Sink::File(out) => out
                .write_all(event.to_json_line().as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .map_err(|e| format!("writing trace: {e}")),
            Sink::Memory(events) => {
                events.push(event);
                Ok(())
            }
        }
    }

    /// The events an in-memory stream recorded (a file stream's are on
    /// disk, so it returns none).
    #[must_use]
    pub fn into_events(self) -> Vec<Event> {
        match self.sink {
            Sink::File(_) => Vec::new(),
            Sink::Memory(events) => events,
        }
    }

    /// Flushes a file stream to disk.
    ///
    /// # Errors
    ///
    /// Returns a message on flush failure.
    pub fn finish(self) -> Result<(), String> {
        match self.sink {
            Sink::File(mut out) => out.flush().map_err(|e| format!("flushing trace: {e}")),
            Sink::Memory(_) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One exemplar of every event kind (used by the round-trip tests).
    pub(crate) fn one_of_each() -> Vec<EventKind> {
        let counters = RunCounters {
            steps: 1,
            moves: 2,
            guard_evals: 3,
            delta_bytes: 4,
            monitor_evals: 19,
            batch_lanes: 7,
            batch_lane_steps: 70,
            batch_idle_lane_steps: 8,
        };
        vec![
            EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: "shard".into() },
            EventKind::CampaignStart { cells: 108, groups: 9, seed: 51966, max_steps: 500_000 },
            EventKind::Plan { cells: 108, shards: 3 },
            EventKind::ShardStart { start: 36, end: 72 },
            EventKind::Cell(CellEvent {
                topology: "ring:8".into(),
                protocol: "ssme".into(),
                daemon: "dist:0.5".into(),
                init: "burst:2".into(),
                seed_index: 7,
                wall_us: 1234,
                moves: 99,
                outcome: Ok(CellOutcomeEvent {
                    steps_run: 41,
                    stabilization_steps: 12,
                    converged: true,
                }),
            }),
            EventKind::Cell(CellEvent {
                topology: "mobius:9".into(),
                protocol: "ssme".into(),
                daemon: "sync".into(),
                init: "witness".into(),
                seed_index: 0,
                wall_us: 3,
                moves: 0,
                outcome: Err("unknown topology 'mobius', a \"quoted\" spec".into()),
            }),
            EventKind::Group {
                key: "ring:8|ssme|sync|burst:0".into(),
                runs: 12,
                errors: 0,
                converged: 12,
                violations: 0,
                wall_us: 5678,
                path: PATH_BATCHED.into(),
            },
            EventKind::ShardEnd { cells: 36, wall_us: 9999, counters },
            EventKind::LeaseGranted {
                shard_id: 4,
                worker: "worker-\"a\"".into(),
                lease_id: 17,
                lease_ms: 30_000,
            },
            EventKind::LeaseExpired { shard_id: 4, worker: "worker-\"a\"".into(), lease_id: 17 },
            EventKind::PartialAccepted {
                shard_id: 4,
                worker: "w2".into(),
                cells: 18,
                telemetry_events: Some(0),
            },
            EventKind::PartialAccepted {
                shard_id: 5,
                worker: "w1".into(),
                cells: 18,
                telemetry_events: Some(31),
            },
            EventKind::PartialRejected {
                worker: "w3".into(),
                reason: "plan fingerprint mismatch\n(line two)".into(),
            },
            EventKind::MergeStart { partials: 3 },
            EventKind::MergeEnd {
                cells: 108,
                groups: 9,
                parse: ParseTally { bytes: 2_727_366, us: 29_000 },
                fold_us: 1_250,
            },
            EventKind::CampaignEnd {
                cells: 108,
                errors: 0,
                violations: 0,
                wall_us: 123_456,
                counters,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips_through_the_strict_reader() {
        for (i, kind) in one_of_each().into_iter().enumerate() {
            for shard in [None, Some(2)] {
                let event = Event { shard, seq: i as u64, t_us: 10 * i as u64, kind: kind.clone() };
                let line = event.to_json_line();
                assert!(!line.contains('\n'), "NDJSON line must be single-line: {line}");
                let back =
                    Event::from_json_line(&line).unwrap_or_else(|e| panic!("parsing {line}: {e}"));
                assert_eq!(back, event, "round trip of {}", event.kind.tag());
            }
        }
    }

    #[test]
    fn counter_objects_carry_the_eight_cell_counters() {
        let Json::Obj(fields) = counters_json(&RunCounters::default()) else {
            panic!("counters render as an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "steps",
                "moves",
                "guard_evals",
                "delta_bytes",
                "monitor_evals",
                "batch_lanes",
                "batch_lane_steps",
                "batch_idle_lane_steps"
            ],
            "process-wide instruments stay out of the events"
        );
    }

    #[test]
    fn pre_batch_counter_objects_still_parse_with_zeros() {
        // Traces written before the batch counters existed carry the same
        // schema tag; the batch fields are optional and default to 0.
        let line = "{\"event\":\"shard_end\",\"seq\":0,\"t_us\":0,\"cells\":1,\"wall_us\":2,\
                    \"counters\":{\"steps\":1,\"moves\":2,\"guard_evals\":3,\"delta_bytes\":4,\
                    \"scratch_reuses\":5,\"config_clones\":6}}";
        let event = Event::from_json_line(line).expect("legacy counters parse");
        match event.kind {
            EventKind::ShardEnd { counters, .. } => {
                assert_eq!(counters.moves, 2);
                assert_eq!(counters.monitor_evals, 0);
                assert_eq!(counters.batch_lanes, 0);
                assert_eq!(counters.batch_lane_steps, 0);
                assert_eq!(counters.batch_idle_lane_steps, 0);
            }
            other => panic!("expected shard_end, got {other:?}"),
        }
        // Older traces also carry counters that have since been retired
        // (the process-wide `scratch_reuses` and `config_clones`, routing
        // tallies); the reader ignores their keys.
        let retired = "{\"event\":\"campaign_end\",\"seq\":0,\"t_us\":0,\"cells\":1,\
                       \"errors\":0,\"violations\":0,\"wall_us\":2,\"counters\":{\"steps\":1,\
                       \"moves\":2,\"guard_evals\":3,\"delta_bytes\":4,\"scratch_reuses\":5,\
                       \"config_clones\":6,\"batch_lanes\":3,\"batch_retired_groups\":2}}";
        match Event::from_json_line(retired).expect("retired counter keys are ignored").kind {
            EventKind::CampaignEnd { counters, .. } => {
                let expected = RunCounters {
                    steps: 1,
                    moves: 2,
                    guard_evals: 3,
                    delta_bytes: 4,
                    batch_lanes: 3,
                    ..RunCounters::default()
                };
                assert_eq!(counters, expected);
            }
            other => panic!("expected campaign_end, got {other:?}"),
        }
        // Group events written before the path label read an empty path.
        let group = "{\"event\":\"group\",\"seq\":1,\"t_us\":3,\"key\":\"g\",\"runs\":2,\
                     \"errors\":0,\"converged\":2,\"violations\":0,\"wall_us\":7}";
        match Event::from_json_line(group).expect("unlabelled group parses").kind {
            EventKind::Group { runs, path, .. } => assert_eq!((runs, path.as_str()), (2, "")),
            other => panic!("expected group, got {other:?}"),
        }
        let merge_end = "{\"event\":\"merge_end\",\"seq\":3,\"t_us\":9,\"cells\":4,\"groups\":2}";
        assert_eq!(
            Event::from_json_line(merge_end).expect("legacy merge_end parses").kind,
            EventKind::MergeEnd { cells: 4, groups: 2, parse: ParseTally::default(), fold_us: 0 }
        );
        let accepted = "{\"event\":\"partial_accepted\",\"seq\":4,\"t_us\":9,\"shard_id\":0,\
                        \"worker\":\"spool\",\"cells\":9}";
        match Event::from_json_line(accepted).expect("legacy partial_accepted parses").kind {
            EventKind::PartialAccepted { telemetry_events, .. } => {
                assert_eq!(telemetry_events, None, "an older trace does not say");
            }
            other => panic!("expected partial_accepted, got {other:?}"),
        }
    }

    #[test]
    fn parse_tally_accumulates_bytes_across_calls() {
        let mut tally = ParseTally::default();
        assert_eq!(
            tally.time("[1,2]", Json::parse),
            Ok(Json::Arr(vec![Json::UInt(1), Json::UInt(2)]))
        );
        assert!(tally.time("{", Json::parse).is_err(), "failed parses still count");
        assert_eq!(tally.bytes, 6);
    }

    #[test]
    fn reader_rejects_unknown_tags_and_missing_fields() {
        assert!(Event::from_json_line("{\"event\":\"warp\",\"seq\":0,\"t_us\":0}")
            .unwrap_err()
            .contains("unknown event tag"));
        assert!(Event::from_json_line("{\"event\":\"plan\",\"seq\":0,\"t_us\":0}")
            .unwrap_err()
            .contains("missing field"));
        assert!(Event::from_json_line("not json").is_err());
    }

    fn stream(shard: u64, kinds: &[EventKind]) -> Vec<Event> {
        std::iter::once(EventKind::Stream { schema: EVENTS_SCHEMA.into(), source: "shard".into() })
            .chain(kinds.iter().cloned())
            .enumerate()
            .map(|(seq, kind)| Event {
                shard: Some(shard),
                seq: seq as u64,
                t_us: seq as u64,
                kind,
            })
            .collect()
    }

    #[test]
    fn validate_catches_stream_violations() {
        let good = stream(0, &[EventKind::MergeStart { partials: 1 }]);
        validate_events(&good).expect("valid");
        assert!(validate_events(&[]).is_err(), "empty");

        let mut no_header = good.clone();
        no_header.remove(0);
        assert!(validate_events(&no_header).unwrap_err().contains("expected 'stream' header"));

        let mut gap = good.clone();
        gap[1].seq = 5;
        assert!(validate_events(&gap).unwrap_err().contains("dense numbering"));

        let mut backwards = good.clone();
        backwards[0].t_us = 100;
        assert!(validate_events(&backwards).unwrap_err().contains("time went backwards"));

        let mut bad_schema = good;
        bad_schema[0].kind =
            EventKind::Stream { schema: "specstab-events/v9".into(), source: "shard".into() };
        assert!(validate_events(&bad_schema).unwrap_err().contains("unsupported schema"));
    }

    #[test]
    fn trace_writer_produces_a_valid_parseable_stream() {
        let path =
            std::env::temp_dir().join(format!("specstab-trace-{}.ndjson", std::process::id()));
        let mut w = TraceWriter::create(&path, Some(1), "shard").expect("create");
        w.emit(EventKind::ShardStart { start: 0, end: 4 }).expect("emit");
        w.emit(EventKind::MergeStart { partials: 2 }).expect("emit");
        w.finish().expect("flush");
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let events = parse_ndjson(&text).expect("parses");
        assert_eq!(events.len(), 3);
        validate_events(&events).expect("valid stream");
        assert_eq!(events[0].kind.tag(), "stream");
        assert_eq!(events[1].shard, Some(1));

        let mut w = TraceWriter::in_memory(Some(1), "shard");
        w.emit(EventKind::ShardStart { start: 0, end: 4 }).expect("emit");
        w.emit(EventKind::MergeStart { partials: 2 }).expect("emit");
        let recorded = w.into_events();
        assert_eq!(
            recorded.iter().map(|e| &e.kind).collect::<Vec<_>>(),
            [&events[0].kind, &events[1].kind, &events[2].kind]
        );
        validate_events(&recorded).expect("valid in-memory stream");
    }
}
