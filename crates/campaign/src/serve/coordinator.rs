//! The serve coordinator: one state thread that owns the lease table, the
//! incremental merge, the spool and the trace, fed parsed requests by
//! per-connection threads.
//!
//! Concurrency model: an acceptor thread blocks in `accept` and hands each
//! connection to a thread of its own, which reads and parses the request
//! under the socket timeouts, sends it to the state thread over a channel
//! and writes back the reply it gets. The state thread does no socket
//! I/O: it waits on the channel with a timeout bounded by the next lease
//! deadline, so a slow or stalled client holds only its own connection
//! thread and never delays another worker's lease, upload or expiry.
//! State stays single-owner — every transition is race-free, and the
//! trace's order is the order the state thread applied them. At the end
//! the coordinator closes the connections still reading a request and
//! joins every thread it started.
//!
//! Durability model: **a partial on disk is a checkpoint.** Every accepted
//! upload is written atomically to the spool directory, byte for byte as
//! received, before it is acknowledged, and [`Coordinator::bind`] replays
//! the spool before listening — a coordinator killed at any point resumes
//! without re-running completed shards, because their partials re-enter
//! the merge (telemetry included) exactly as if a worker had just
//! uploaded them.

use super::http::{read_request, set_socket_timeouts, write_response, Request};
use super::wire::{parse_worker_body, renew_reply, Lease, LeaseReply, UploadReply};
use crate::artifact::{write_atomic, PartialArtifact};
use crate::executor::CampaignResult;
use crate::merge::{Accepted, MergeAccumulator};
use crate::plan::CampaignPlan;
use crate::trace::plan_events;
use specstab_telemetry::{
    obj, paths_json, sum_shard_counters, tally_paths, EventKind, Json, ParseTally, RunCounters,
    ServeCounts, ServeHeartbeat, TraceWriter,
};
use std::collections::{BTreeMap, HashMap};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Coordinator knobs beyond the plan and listen address.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Lease duration; a shard not uploaded or renewed within this window
    /// returns to the pending pool for the next puller.
    pub lease_ms: u64,
    /// Spool directory for accepted partials (created if missing; replayed
    /// on startup).
    pub spool: PathBuf,
    /// `--trace` destination for the coordinator's
    /// `specstab-events/v1` stream: the lease lifecycle, and the worker
    /// shard stream of every accepted partial.
    pub trace_path: Option<PathBuf>,
    /// Fault-injection point for in-process tests: stop serving
    /// (simulating a coordinator crash) after accepting this many fresh
    /// uploads over the network. Spool replays don't count. No `campaign`
    /// flag sets it.
    pub stop_after_uploads: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            lease_ms: 30_000,
            spool: PathBuf::from("serve_spool"),
            trace_path: None,
            stop_after_uploads: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ShardState {
    Pending,
    Leased { worker: String, lease_id: u64, deadline: Instant },
    Done,
}

#[derive(Debug, Default)]
struct WorkerTally {
    worker: String,
    shards_accepted: u64,
    cells_accepted: u64,
    moves: u64,
}

/// The serve coordinator (see the module docs for the model).
pub struct Coordinator {
    plan: CampaignPlan,
    plan_json: String,
    listener: TcpListener,
    options: ServeOptions,
    states: Vec<ShardState>,
    acc: MergeAccumulator,
    trace: Option<TraceWriter>,
    heartbeat: ServeHeartbeat,
    next_lease_id: u64,
    expired_total: u64,
    uploads_accepted: u64,
    uploads_rejected: u64,
    workers: Vec<WorkerTally>,
    /// Sum of the `shard_end` counters of every accepted partial's
    /// telemetry, spool replays included.
    counters: RunCounters,
    /// Groups per engine path over the `group` events of the same
    /// telemetry (`/status` `paths`).
    paths: BTreeMap<String, u64>,
    /// Accepted partials that carried no telemetry (a `campaign shard`
    /// output resumed from the spool): their shards are missing from
    /// `counters` and `paths`.
    shards_without_telemetry: u64,
    /// Every partial parse, upload and spool alike (rejected ones too).
    parse: ParseTally,
    started: Instant,
}

/// A reply on its way back to a connection: status code, reason phrase,
/// JSON body.
type Reply = (u16, &'static str, String);

/// One parsed request on its way to the state thread, with the channel
/// its connection thread waits on for the reply.
struct Exchange {
    request: Request,
    reply: Sender<Reply>,
}

impl Coordinator {
    /// Binds the listener, opens the trace, creates the spool directory,
    /// and replays any partials already spooled (the resume path).
    ///
    /// # Errors
    ///
    /// Fails on bind/spool I/O errors, trace-creation errors, or a spooled
    /// partial belonging to a different plan (a corrupt spool is surfaced,
    /// not silently dropped — pass a fresh `--spool` to start over).
    pub fn bind(plan: CampaignPlan, listen: &str, options: ServeOptions) -> Result<Self, String> {
        let listener = TcpListener::bind(listen).map_err(|e| format!("binding {listen}: {e}"))?;
        std::fs::create_dir_all(&options.spool)
            .map_err(|e| format!("creating spool {}: {e}", options.spool.display()))?;
        let trace = options
            .trace_path
            .as_deref()
            .map(|p| TraceWriter::create(p, None, "serve"))
            .transpose()?;
        let plan_json = plan.to_json();
        let states = vec![ShardState::Pending; plan.shards.len()];
        let shard_count = plan.shards.len() as u64;
        let mut coordinator = Self {
            plan,
            plan_json,
            listener,
            options,
            states,
            acc: MergeAccumulator::new(),
            trace,
            heartbeat: ServeHeartbeat::new(shard_count),
            next_lease_id: 0,
            expired_total: 0,
            uploads_accepted: 0,
            uploads_rejected: 0,
            workers: Vec::new(),
            counters: RunCounters::default(),
            paths: BTreeMap::new(),
            shards_without_telemetry: 0,
            parse: ParseTally::default(),
            started: Instant::now(),
        };
        for event in plan_events(&coordinator.plan) {
            coordinator.emit(event)?;
        }
        coordinator.replay_spool()?;
        Ok(coordinator)
    }

    /// The bound listen address (useful after binding port 0 in tests).
    ///
    /// # Errors
    ///
    /// Propagates the (practically unfailable) `getsockname` error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Replays spooled partials through the merge accumulator, marking
    /// their shards done — completed work survives a coordinator kill.
    fn replay_spool(&mut self) -> Result<(), String> {
        let dir = std::fs::read_dir(&self.options.spool)
            .map_err(|e| format!("reading spool {}: {e}", self.options.spool.display()))?;
        let mut paths: Vec<PathBuf> = dir
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.to_string_lossy().ends_with(".partial.json"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading spooled {}: {e}", path.display()))?;
            let partial = self
                .parse
                .time(&text, PartialArtifact::from_json)
                .map_err(|e| format!("parsing spooled {}: {e}", path.display()))?;
            match self.fold_partial(partial, "spool", None)? {
                UploadReply::Accepted { .. } => {}
                UploadReply::Rejected { reason } => {
                    return Err(format!("spooled {} rejected: {reason}", path.display()));
                }
            }
        }
        if self.acc.accepted_count() > 0 {
            eprintln!(
                "serve: resumed {} completed shards ({} cells) from spool {}",
                self.acc.accepted_count(),
                self.acc.covered_cells(),
                self.options.spool.display()
            );
        }
        Ok(())
    }

    fn emit(&mut self, kind: EventKind) -> Result<(), String> {
        if let Some(w) = self.trace.as_mut() {
            w.emit(kind)?;
        }
        Ok(())
    }

    fn counts(&self) -> ServeCounts {
        let leased =
            self.states.iter().filter(|s| matches!(s, ShardState::Leased { .. })).count() as u64;
        let completed = self.states.iter().filter(|s| **s == ShardState::Done).count() as u64;
        ServeCounts {
            leased,
            completed,
            expired: self.expired_total,
            merged_cells: self.acc.covered_cells() as u64,
        }
    }

    /// The earliest deadline among live leases.
    fn next_deadline(&self) -> Option<Instant> {
        self.states
            .iter()
            .filter_map(|s| match s {
                ShardState::Leased { deadline, .. } => Some(*deadline),
                _ => None,
            })
            .min()
    }

    /// Returns expired leases to the pending pool.
    fn expire_leases(&mut self) -> Result<(), String> {
        let now = Instant::now();
        let mut expirations = Vec::new();
        for (shard_id, state) in self.states.iter_mut().enumerate() {
            if let ShardState::Leased { worker, lease_id, deadline } = state {
                if *deadline <= now {
                    expirations.push((shard_id as u64, worker.clone(), *lease_id));
                    *state = ShardState::Pending;
                }
            }
        }
        for (shard_id, worker, lease_id) in expirations {
            self.expired_total += 1;
            eprintln!("serve: lease {lease_id} on shard {shard_id} (worker {worker}) expired");
            self.emit(EventKind::LeaseExpired { shard_id, worker, lease_id })?;
            self.heartbeat.tick(self.counts());
        }
        Ok(())
    }

    /// Grants the lowest-id pending shard, or says wait/done.
    fn grant_lease(&mut self, worker: &str) -> Result<LeaseReply, String> {
        let Some(shard_id) = self.states.iter().position(|s| *s == ShardState::Pending) else {
            return Ok(if self.acc.is_complete() {
                LeaseReply::Done
            } else {
                // Everything is out on live leases; poll again at a pace
                // proportional to the lease window.
                LeaseReply::Wait { retry_ms: (self.options.lease_ms / 10).clamp(50, 2000) }
            });
        };
        let lease_id = self.next_lease_id;
        self.next_lease_id += 1;
        let lease_ms = self.options.lease_ms;
        let deadline = Instant::now() + Duration::from_millis(lease_ms);
        self.states[shard_id] =
            ShardState::Leased { worker: worker.to_string(), lease_id, deadline };
        self.emit(EventKind::LeaseGranted {
            shard_id: shard_id as u64,
            worker: worker.to_string(),
            lease_id,
            lease_ms,
        })?;
        self.heartbeat.tick(self.counts());
        let spec = self.plan.shards[shard_id];
        Ok(LeaseReply::Granted(Lease {
            shard: shard_id as u64,
            start: spec.start as u64,
            end: spec.end as u64,
            lease_id,
            lease_ms,
            plan_fingerprint: self.plan.fingerprint(),
        }))
    }

    /// Extends a still-valid lease; a `false` reply tells the worker its
    /// shard was re-dispatched (or already completed by someone else).
    fn renew_lease(&mut self, worker: &str, lease_id: u64) -> bool {
        let lease_ms = self.options.lease_ms;
        for state in &mut self.states {
            if let ShardState::Leased { worker: w, lease_id: id, deadline } = state {
                if *id == lease_id && w == worker {
                    *deadline = Instant::now() + Duration::from_millis(lease_ms);
                    return true;
                }
            }
        }
        false
    }

    /// Validates and folds one partial (uploaded or spooled). On first
    /// acceptance it spools `received` (the upload's bytes; `None` for a
    /// spool replay), marks the shard done, and splices the partial's
    /// telemetry into the trace, its `shard_end` counters into the
    /// campaign totals and its `group` paths into the path tally.
    fn fold_partial(
        &mut self,
        mut partial: PartialArtifact,
        worker: &str,
        received: Option<&str>,
    ) -> Result<UploadReply, String> {
        // Range check against the plan's own shard table first: the merge
        // accumulator would let a mis-ranged partial in and only notice the
        // gap at the very end.
        let reject = |reason: String| UploadReply::Rejected { reason };
        let Some(spec) = self.plan.shards.get(partial.shard_id).copied() else {
            return Ok(reject(format!(
                "shard {} does not exist in this plan ({} shards)",
                partial.shard_id,
                self.plan.shards.len()
            )));
        };
        if partial.start != spec.start || partial.end != spec.end {
            return Ok(reject(format!(
                "shard {} covers cells {}..{}, expected {}..{}",
                partial.shard_id, partial.start, partial.end, spec.start, spec.end
            )));
        }
        if partial.plan_fingerprint != self.plan.fingerprint() {
            return Ok(reject(format!(
                "partial belongs to a different plan (matrix fingerprint {:#018x}, \
                 expected {:#018x})",
                partial.plan_fingerprint,
                self.plan.fingerprint()
            )));
        }
        // The statistics are derived from the cells, so each one must be
        // the plan's cell at its index, seeded as the plan seeds it.
        let seed = self.plan.config.seed;
        let planned = &self.plan.cells[spec.start..spec.end];
        if let Some(i) = partial
            .cells
            .iter()
            .zip(planned)
            .position(|(c, want)| c.cell != *want || c.cell_seed != want.cell_seed(seed))
        {
            return Ok(reject(format!(
                "cell {} disagrees with the plan: got {:?} seeded {}, expected {:?} seeded {}",
                spec.start + i,
                partial.cells[i].cell,
                partial.cells[i].cell_seed,
                planned[i],
                planned[i].cell_seed(seed)
            )));
        }
        let shard_id = partial.shard_id;
        let cells = partial.cells.len() as u64;
        let moves: u64 =
            partial.cells.iter().filter_map(|c| c.outcome.as_ref().ok()).map(|o| o.moves).sum();
        let telemetry = std::mem::take(&mut partial.telemetry);
        match self.acc.accept(partial) {
            Ok(Accepted::Fresh) => {
                if let Some(body) = received {
                    let path = self.options.spool.join(format!("shard-{shard_id}.partial.json"));
                    write_atomic(&path, body)
                        .map_err(|e| format!("spooling {}: {e}", path.display()))?;
                }
                self.states[shard_id] = ShardState::Done;
                self.counters.add(&sum_shard_counters(&telemetry));
                tally_paths(&mut self.paths, &telemetry);
                match self.workers.iter_mut().find(|t| t.worker == worker) {
                    Some(t) => {
                        t.shards_accepted += 1;
                        t.cells_accepted += cells;
                        t.moves += moves;
                    }
                    None => self.workers.push(WorkerTally {
                        worker: worker.to_string(),
                        shards_accepted: 1,
                        cells_accepted: cells,
                        moves,
                    }),
                }
                self.shards_without_telemetry += u64::from(telemetry.is_empty());
                self.emit(EventKind::PartialAccepted {
                    shard_id: shard_id as u64,
                    worker: worker.to_string(),
                    cells,
                    telemetry_events: Some(telemetry.len() as u64),
                })?;
                if let Some(w) = self.trace.as_mut() {
                    for event in telemetry {
                        w.emit_raw(event)?;
                    }
                }
                self.heartbeat.tick(self.counts());
                Ok(UploadReply::Accepted { duplicate: false })
            }
            // A re-dispatched straggler finished after all: acknowledge so
            // it stops retrying, drop so nothing is double-counted.
            Ok(Accepted::Duplicate) => Ok(UploadReply::Accepted { duplicate: true }),
            Err(reason) => Ok(reject(reason)),
        }
    }

    /// Builds the live `/status` payload: a `specstab-metrics/v1` snapshot
    /// of the lease table, the groups per engine path and per-worker
    /// throughput.
    fn status_json(&self) -> String {
        let counts = self.counts();
        let wall_us = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let wall_secs = self.started.elapsed().as_secs_f64().max(1e-9);
        let workers = self
            .workers
            .iter()
            .map(|t| {
                #[allow(clippy::cast_precision_loss)]
                let rate = t.moves as f64 / wall_secs;
                obj(vec![
                    ("worker", Json::Str(t.worker.clone())),
                    ("shards_accepted", Json::UInt(t.shards_accepted)),
                    ("cells_accepted", Json::UInt(t.cells_accepted)),
                    ("moves", Json::UInt(t.moves)),
                    ("moves_per_sec", Json::Num(rate)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Json::Str(specstab_telemetry::METRICS_SCHEMA.into())),
            (
                "serve",
                obj(vec![
                    ("shards_total", Json::UInt(self.plan.shards.len() as u64)),
                    ("leased", Json::UInt(counts.leased)),
                    ("completed", Json::UInt(counts.completed)),
                    ("expired", Json::UInt(counts.expired)),
                    ("merged_cells", Json::UInt(counts.merged_cells)),
                    ("uploads_accepted", Json::UInt(self.uploads_accepted)),
                    ("uploads_rejected", Json::UInt(self.uploads_rejected)),
                    ("shards_without_telemetry", Json::UInt(self.shards_without_telemetry)),
                    ("wall_us", Json::UInt(wall_us)),
                    ("paths", paths_json(&self.paths)),
                    ("workers", Json::Arr(workers)),
                ]),
            ),
        ])
        .render()
    }

    /// Dispatches one parsed request to its reply.
    fn handle(&mut self, req: &Request) -> Result<Reply, String> {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/plan") => Ok((200, "OK", self.plan_json.clone())),
            ("GET", "/status") => Ok((200, "OK", self.status_json())),
            ("POST", "/lease") => match parse_worker_body(&req.body) {
                Ok((worker, _)) => Ok((200, "OK", self.grant_lease(&worker)?.to_json())),
                Err(e) => {
                    Ok((400, "Bad Request", obj(vec![("error", Json::Str(e))]).render_compact()))
                }
            },
            ("POST", "/renew") => match parse_worker_body(&req.body) {
                Ok((worker, Some(lease_id))) => {
                    Ok((200, "OK", renew_reply(self.renew_lease(&worker, lease_id))))
                }
                _ => Ok((400, "Bad Request", "{\"error\":\"renew needs a lease_id\"}".into())),
            },
            ("POST", "/upload") => {
                let worker = req.header("x-specstab-worker").unwrap_or("anonymous").to_string();
                let parsed = std::str::from_utf8(&req.body)
                    .map_err(|_| "non-UTF-8 upload body".to_string())
                    .and_then(|text| {
                        Ok((self.parse.time(text, PartialArtifact::from_json)?, text))
                    });
                let reply = match parsed {
                    Ok((partial, text)) => self.fold_partial(partial, &worker, Some(text))?,
                    Err(reason) => UploadReply::Rejected { reason },
                };
                match &reply {
                    UploadReply::Accepted { duplicate: false } => self.uploads_accepted += 1,
                    UploadReply::Accepted { duplicate: true } => {}
                    UploadReply::Rejected { reason } => {
                        self.uploads_rejected += 1;
                        eprintln!("serve: rejected upload from {worker}: {reason}");
                        self.emit(EventKind::PartialRejected {
                            worker: worker.clone(),
                            reason: reason.clone(),
                        })?;
                    }
                }
                let status = if matches!(reply, UploadReply::Rejected { .. }) {
                    (400, "Bad Request")
                } else {
                    (200, "OK")
                };
                Ok((status.0, status.1, reply.to_json()))
            }
            _ => Ok((404, "Not Found", "{\"error\":\"no such endpoint\"}".into())),
        }
    }

    /// The state loop: applies requests from connection threads one at a
    /// time, waiting no longer than the next lease deadline. Returns
    /// `false` when the `stop_after_uploads` fault-injection point stops
    /// it before completion.
    fn serve_requests(&mut self, requests: &Receiver<Exchange>) -> Result<bool, String> {
        while !self.acc.is_complete() {
            self.expire_leases()?;
            let received = match self.next_deadline() {
                Some(deadline) => {
                    requests.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                }
                None => requests.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            let exchange = match received {
                Ok(exchange) => exchange,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("the connection acceptor stopped".into());
                }
            };
            let reply = self.handle(&exchange.request)?;
            // A client that hung up meanwhile loses only its own reply.
            let _ = exchange.reply.send(reply);
            if let Some(limit) = self.options.stop_after_uploads {
                if self.uploads_accepted >= limit {
                    eprintln!(
                        "serve: stopping after {limit} uploads (fault injection); \
                         spool {} holds the checkpoints",
                        self.options.spool.display()
                    );
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Serves requests until the tiling is complete (returns the merged
    /// result) or the `stop_after_uploads` fault-injection point is
    /// reached (returns `None`, simulating a crash — the spool is the only
    /// thing that survives, which is the point).
    ///
    /// # Errors
    ///
    /// Fails on listener, spool and trace I/O errors and on a final merge
    /// that does not tile (impossible unless the plan's shard table itself
    /// is inconsistent).
    pub fn run(mut self) -> Result<Option<CampaignResult>, String> {
        let addr = self.local_addr().map_err(|e| format!("reading the listen address: {e}"))?;
        eprintln!(
            "serve: coordinating {} shards ({} cells) on {addr}",
            self.plan.shards.len(),
            self.plan.cells.len(),
        );
        let listener =
            self.listener.try_clone().map_err(|e| format!("sharing the listener: {e}"))?;
        let stop = AtomicBool::new(false);
        let reading = Mutex::new(HashMap::new());
        let (requests, received) = mpsc::channel();
        let completed = std::thread::scope(|scope| {
            let (listener, stop, reading) = (&listener, &stop, &reading);
            let acceptor =
                scope.spawn(move || accept_connections(scope, listener, stop, reading, &requests));
            let completed = self.serve_requests(&received);
            stop.store(true, Ordering::SeqCst);
            // Wake the blocking `accept` so the acceptor sees `stop`.
            let _ = TcpStream::connect(wake_address(addr));
            let accepted = acceptor.join();
            // Close the connections still reading a request, so a stalled
            // client cannot hold the shutdown, and drop queued requests
            // unanswered. The scope then joins every connection thread:
            // replies already sent are written before `run` returns.
            for stream in reading.lock().expect("no connection thread panics").values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            drop(received);
            accepted.map_err(|_| "the acceptor thread panicked")?.and(completed)
        })?;
        if !completed {
            return Ok(None);
        }
        self.heartbeat.finish(self.counts());
        self.emit(EventKind::MergeStart { partials: self.acc.accepted_count() as u64 })?;
        let wall_us = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let folding = Instant::now();
        let result = std::mem::take(&mut self.acc).finish()?;
        let fold_us = u64::try_from(folding.elapsed().as_micros()).unwrap_or(u64::MAX);
        if let Some(w) = self.trace.as_mut() {
            w.emit(EventKind::MergeEnd {
                cells: result.cells.len() as u64,
                groups: result.groups.len() as u64,
                parse: self.parse,
                fold_us,
            })?;
            w.emit(EventKind::CampaignEnd {
                cells: result.cells.len() as u64,
                errors: result.total_errors(),
                violations: result.total_violations(),
                wall_us,
                // The coordinator executes no cells itself: these are the
                // accepted shards' own `shard_end` counters.
                counters: self.counters,
            })?;
        }
        if let Some(w) = self.trace.take() {
            w.finish()?;
        }
        eprintln!(
            "serve: campaign complete ({} cells from {} shards) in {:?}",
            result.cells.len(),
            self.plan.shards.len(),
            self.started.elapsed()
        );
        Ok(Some(result))
    }
}

/// Hands every accepted connection to a thread of its own until `stop` is
/// set, registering its socket in `reading` until its request is read.
fn accept_connections<'scope>(
    scope: &'scope Scope<'scope, '_>,
    listener: &TcpListener,
    stop: &AtomicBool,
    reading: &'scope Mutex<HashMap<u64, TcpStream>>,
    requests: &Sender<Exchange>,
) -> Result<(), String> {
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream.map_err(|e| format!("accepting connections: {e}"))?;
        let handle = stream.try_clone().map_err(|e| format!("sharing a connection: {e}"))?;
        reading.lock().expect("no connection thread panics").insert(id, handle);
        let requests = requests.clone();
        std::thread::Builder::new()
            .name("serve-connection".into())
            .spawn_scoped(scope, move || serve_connection(stream, id, reading, &requests))
            .map_err(|e| format!("spawning a connection thread: {e}"))?;
    }
    Ok(())
}

/// One connection's life: read and parse its request, hand it to the
/// state thread, write back the reply. A malformed, timed-out or
/// abandoned request harms only its own connection.
fn serve_connection(
    mut stream: TcpStream,
    id: u64,
    reading: &Mutex<HashMap<u64, TcpStream>>,
    requests: &Sender<Exchange>,
) {
    let request = set_socket_timeouts(&stream)
        .map_err(|e| format!("configuring connection: {e}"))
        .and_then(|()| read_request(&mut stream));
    reading.lock().expect("no connection thread panics").remove(&id);
    let request = match request {
        Ok(request) => request,
        Err(e) => {
            eprintln!("serve: dropping connection: {e}");
            return;
        }
    };
    let (reply, replied) = mpsc::channel();
    // Both fail only once the state thread has finished: the client sees
    // the connection close.
    if requests.send(Exchange { request, reply }).is_err() {
        return;
    }
    let Ok((status, reason, body)) = replied.recv() else { return };
    if let Err(e) = write_response(&mut stream, status, reason, "application/json", body.as_bytes())
    {
        eprintln!("serve: dropping connection mid-response: {e}");
    }
}

/// Where to connect to reach a listener bound to `addr` (a wildcard bind
/// is reached over loopback).
fn wake_address(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    addr
}
