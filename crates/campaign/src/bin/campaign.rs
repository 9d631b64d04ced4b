//! The `campaign` CLI: sweep scenario grids in parallel and render
//! speculation profiles — in one process, or as a plan/shard/merge
//! pipeline across processes and machines.
//!
//! ```text
//! campaign                                   # the default 648-cell matrix
//! campaign --list-protocols                  # print the protocol registry
//! campaign --protocols all                   # every registered protocol,
//!                                            # on its compatible topologies
//! campaign --topologies ring:12,torus:4x5 --daemons sync,central-rand,dist:0.5 \
//!          --faults 0,2 --seeds 12 --json out.json --csv out.csv
//!
//! # Distributed pipeline (byte-identical to the single-process run):
//! campaign plan  --seeds 12 --shards 3 --out plan.json
//! campaign shard --plan plan.json --shard 0 --out shard-0.partial.json
//! campaign shard --plan plan.json --shard 1 --out shard-1.partial.json
//! campaign shard --plan plan.json --shard 2 --out shard-2.partial.json
//! campaign merge --json out.json shard-*.partial.json
//!
//! # Same plan served to 3 local worker processes (a loopback coordinator):
//! campaign run --workers 3 --seeds 12 --json out.json
//!
//! # Campaign as a service: lease shards to elastic pull-workers over HTTP
//! campaign serve --plan plan.json --listen 0.0.0.0:7177 --spool spool/ --json out.json
//! campaign work  --coordinator http://coordinator:7177     # on any machine, any count
//! ```
//!
//! Protocols are registry names (see `--list-protocols`); combinations a
//! protocol cannot run — incompatible topologies, witness injection for
//! protocols without a witness, daemons only other protocols define
//! (ssme's `adversary-*`) — are skipped up front with a note, so
//! `--protocols all` sweeps exactly the runnable grid.

use specstab_campaign::artifact::{to_csv, to_json, write_atomic, PartialArtifact};
use specstab_campaign::executor::{
    run_campaign_with_progress, set_batching_enabled, CampaignConfig, CampaignResult,
};
use specstab_campaign::matrix::{Cell, InitMode, ScenarioMatrix};
use specstab_campaign::merge::MergeAccumulator;
use specstab_campaign::plan::{group_boundaries, CampaignPlan};
use specstab_campaign::report::speculation_profile_table;
use specstab_campaign::serve::http::{request, CoordinatorUrl};
use specstab_campaign::serve::{run_worker, Coordinator, ServeOptions, WorkOptions};
use specstab_campaign::shard::{execute_shard, execute_shard_traced};
use specstab_campaign::trace::emit_result_events;
use specstab_protocols::registry;
use specstab_telemetry::{
    metrics_from_events, parse_ndjson, EventKind, Heartbeat, ParseTally, TraceWriter,
};
use specstab_topology::spec::parse_spec;
use specstab_topology::Graph;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: campaign [run|plan|shard|merge|serve|work] [options]\n\
         \n\
         campaign [run] [--topologies <spec,..>] [--protocols <name,..|all>] \
         [--daemons <spec,..>] [--faults <k|witness,..>] [--seeds <count>] [--threads <n>] \
         [--workers <n>] [--max-steps <n>] [--seed <base>] [--batch on|off] [--json <path>] \
         [--csv <path>] [--trace <path>] [--metrics <path>] [--cells-in-json] \
         [--list-protocols]\n\
         campaign plan  [matrix options as above] --shards <n> [--out <path>]\n\
         campaign shard --plan <path> --shard <id> [--threads <n>] [--batch on|off] \
         [--out <path>] [--trace <path>]\n\
         campaign merge [--json <path>] [--csv <path>] [--cells-in-json] [--trace <path>] \
         <partial.json>..\n\
         campaign serve --plan <path> [--listen <addr>] [--spool <dir>] [--lease-ms <n>] \
         [--stop-after-uploads <n>] [--json <path>] [--csv <path>] [--cells-in-json] \
         [--trace <path>] [--metrics <path>]\n\
         campaign work  --coordinator <http://host:port> [--worker-id <id>] [--threads <n>] \
         [--batch on|off] [--lease-only]\n\
         \n\
         run --workers N serves the plan from a coordinator on a loopback port to N local\n\
         campaign work processes (--threads then sets threads PER WORKER, default 1) --\n\
         the same lease/upload/spool transport as serve; artifacts are byte-identical to\n\
         the in-process run (--workers 0).\n\
         \n\
         --batch toggles the lane-packed batched group engine (default on; forwarded to\n\
         run's worker processes). Sync and dist:<p> groups of packed protocols route\n\
         through it at every size; dist lanes step per-lane RNG streams that replay the\n\
         scalar seeds exactly. Every other daemon, central-rr and central-rand included,\n\
         runs on the scalar engine. Batched and scalar execution produce byte-identical\n\
         artifacts — off exists for A/B timing and differential testing.\n\
         \n\
         serve coordinates a plan over HTTP: pull-workers (campaign work) lease shards,\n\
         execute, and upload partials; expired leases are re-dispatched; every accepted\n\
         partial is spooled to disk (default spool: serve_spool/) so a killed coordinator\n\
         resumes without re-running completed shards. GET /status serves a live\n\
         specstab-metrics/v1 snapshot. The final artifact is byte-identical to a\n\
         single-process run of the same plan.\n\
         \n\
         --trace writes a specstab-events/v1 NDJSON event stream (with --workers N and\n\
         serve, each worker's shard stream arrives inside its upload and is spliced in\n\
         when the upload is accepted); --metrics distills the stream into a\n\
         specstab-metrics/v1 runtime sidecar. Both are pure observability: JSON/CSV\n\
         artifacts stay byte-identical with tracing on.\n\
         \n\
         defaults: topologies ring:12,torus:3x4,tree:12,path:12,ring:1024,torus:32x32  \n\
         \x20         protocols ssme  \n\
         \x20         daemons sync,central-rand,dist:0.5  faults 0,2,witness  seeds 12\n\
         protocols:      {} | all  (see --list-protocols)\n\
         topology specs: {}\n\
         daemon specs:   sync | central-rr | central-rand | central-min | central-max \
         | central-oldest | dist:<p> | kbounded:<k>[:<p>] \
         | adversary-central | adversary-dist (greedy Γ1-disorder adversaries, ssme only)",
        registry::names().join(" | "),
        specstab_topology::spec::SPEC_GRAMMAR
    );
    std::process::exit(2)
}

/// Renders the protocol registry (the `--list-protocols` output).
fn registry_table() -> String {
    let mut out = String::from("registered protocols:\n");
    let rows: Vec<[String; 6]> = registry::PROTOCOLS
        .iter()
        .map(|p| {
            [
                p.name.to_string(),
                p.states.to_string(),
                p.topology.to_string(),
                if p.has_witness { "yes".into() } else { "-".into() },
                if p.batched { "yes".into() } else { "-".into() },
                p.summary.to_string(),
            ]
        })
        .collect();
    let headers = ["name", "states", "topology", "witness", "batched", "summary"];
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut line = |cells: &[String]| {
        let mut s = String::from("  ");
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(cell);
            s.extend(std::iter::repeat_n(' ', widths[i] - cell.chars().count()));
        }
        out.push_str(s.trim_end());
        out.push('\n');
    };
    line(&headers.iter().map(|h| (*h).to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in &rows {
        line(row.as_ref());
    }
    out
}

struct Args {
    topologies: Vec<String>,
    protocols: Vec<String>,
    daemons: Vec<String>,
    faults: Vec<InitMode>,
    seeds: u64,
    threads: usize,
    workers: usize,
    shards: usize,
    max_steps: usize,
    seed: u64,
    json: Option<String>,
    csv: Option<String>,
    out: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    cells_in_json: bool,
    batch: bool,
}

/// Parses a `--batch` value (`on`/`off`).
fn parse_batch(val: &str) -> bool {
    match val {
        "on" => true,
        "off" => false,
        _ => usage(),
    }
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        topologies: vec![
            "ring:12".into(),
            "torus:3x4".into(),
            "tree:12".into(),
            "path:12".into(),
            // Large instances: with the CSR topology + stamp-based step
            // loop these sweep at >1e7 moves/s, so thousand-vertex cells
            // are part of the default grid rather than a special request.
            "ring:1024".into(),
            "torus:32x32".into(),
        ],
        protocols: vec!["ssme".into()],
        daemons: vec!["sync".into(), "central-rand".into(), "dist:0.5".into()],
        faults: vec![InitMode::Burst(0), InitMode::Burst(2), InitMode::Witness],
        seeds: 12,
        threads: 0,
        workers: 0,
        shards: 0,
        max_steps: 2_000_000,
        seed: 0xC0FFEE,
        json: None,
        csv: None,
        out: None,
        trace: None,
        metrics: None,
        cells_in_json: false,
        batch: true,
    };
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        if key == "--help" || key == "-h" {
            usage();
        }
        if key == "--list-protocols" {
            print!("{}", registry_table());
            std::process::exit(0);
        }
        if key == "--cells-in-json" {
            args.cells_in_json = true;
            i += 1;
            continue;
        }
        let Some(val) = argv.get(i + 1).cloned() else { usage() };
        match key {
            "--topologies" => args.topologies = split_list(&val),
            "--protocols" => {
                args.protocols = registry::parse_protocol_list(&val).unwrap_or_else(|e| fail(&e));
            }
            "--daemons" => args.daemons = split_list(&val),
            "--faults" => {
                args.faults = split_list(&val)
                    .iter()
                    .map(|f| InitMode::parse(f).unwrap_or_else(|e| fail(&e)))
                    .collect();
            }
            "--seeds" => args.seeds = val.parse().unwrap_or_else(|_| usage()),
            "--threads" => args.threads = val.parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = val.parse().unwrap_or_else(|_| usage()),
            "--shards" => args.shards = val.parse().unwrap_or_else(|_| usage()),
            "--max-steps" => args.max_steps = val.parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val.parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = parse_batch(&val),
            "--json" => args.json = Some(val),
            "--csv" => args.csv = Some(val),
            "--out" => args.out = Some(val),
            "--trace" => args.trace = Some(val),
            "--metrics" => args.metrics = Some(val),
            _ => usage(),
        }
        i += 2;
    }
    if args.topologies.is_empty()
        || args.protocols.is_empty()
        || args.daemons.is_empty()
        || args.faults.is_empty()
        || args.seeds == 0
    {
        usage();
    }
    args
}

fn split_list(s: &str) -> Vec<String> {
    s.split(',').filter(|p| !p.is_empty()).map(str::to_string).collect()
}

fn fail(msg: &str) -> ! {
    eprintln!("campaign error: {msg}");
    std::process::exit(2)
}

/// Opens the `--trace` event stream when one was requested; every
/// subcommand funnels through here so streams carry a consistent header.
fn open_trace(path: Option<&str>, shard: Option<u64>, source: &str) -> Option<TraceWriter> {
    path.map(|p| TraceWriter::create(Path::new(p), shard, source).unwrap_or_else(|e| fail(&e)))
}

/// Emits one event into an open trace (no-op without `--trace`), dying on
/// write failure — a requested trace that silently loses events would be
/// worse than no trace.
fn trace_emit(trace: &mut Option<TraceWriter>, kind: EventKind) {
    if let Some(w) = trace.as_mut() {
        w.emit(kind).unwrap_or_else(|e| fail(&e));
    }
}

/// Flushes the trace and, when `--metrics` was also given, writes the
/// sidecar (see [`write_metrics`]).
fn finish_trace(trace: Option<TraceWriter>, trace_path: Option<&str>, metrics: Option<&str>) {
    let Some(w) = trace else { return };
    w.finish().unwrap_or_else(|e| fail(&e));
    let path = trace_path.expect("trace writer implies a trace path");
    eprintln!("campaign: event stream -> {path}");
    if let Some(out) = metrics {
        write_metrics(path, out);
    }
}

/// Reads a finished event stream back through the strict parser and
/// writes the `specstab-metrics/v1` sidecar distilled from it.
fn write_metrics(trace_path: &str, out: &str) {
    let text = std::fs::read_to_string(trace_path)
        .unwrap_or_else(|e| fail(&format!("reading {trace_path}: {e}")));
    let events =
        parse_ndjson(&text).unwrap_or_else(|e| fail(&format!("parsing {trace_path}: {e}")));
    if let Err(e) = std::fs::write(out, metrics_from_events(&events).render()) {
        fail(&format!("writing {out}: {e}"));
    }
    eprintln!("campaign: metrics sidecar -> {out}");
}

/// What the upfront compatibility filter skips, with one note per skip.
struct Compatibility {
    /// (topology, protocol) pairs the protocol cannot run on.
    incompatible: HashSet<(String, String)>,
    /// Protocols without a witness construction, when the witness init is
    /// on the init axis.
    no_witness: HashSet<String>,
    /// (protocol, daemon) pairs whose daemon only other protocols define:
    /// a handful at most, scanned without allocating per cell.
    foreign_daemons: Vec<(String, String)>,
    notes: Vec<String>,
}

impl Compatibility {
    /// Whether `cell` survives the filter.
    fn keeps(&self, cell: &Cell) -> bool {
        !self.incompatible.contains(&(cell.topology.clone(), cell.protocol.clone()))
            && (cell.init != InitMode::Witness || !self.no_witness.contains(&cell.protocol))
            && !self.foreign_daemons.iter().any(|(p, d)| *p == cell.protocol && *d == cell.daemon)
    }
}

/// Upfront compatibility filter: parses each topology once and asks the
/// registry which (topology, protocol) pairs can run (each harness's
/// structural `ProtocolHarness::check_graph`), which protocols support
/// the witness scenario, and which (protocol, daemon) pairs a daemon
/// defined only for other protocols rules out
/// (`ProtocolHarness::accepts_daemon`). Builds no harness and computes no
/// distance. Unparseable or disconnected topologies, and daemon specs no
/// registered protocol accepts (typos), stay in the matrix — they surface
/// as per-cell errors when the executor runs them.
fn compatibility(args: &Args) -> Compatibility {
    let mut compat = Compatibility {
        incompatible: HashSet::new(),
        no_witness: HashSet::new(),
        foreign_daemons: Vec::new(),
        notes: Vec::new(),
    };
    let mut graphs = HashMap::new();
    for t in &args.topologies {
        if let Some(g) = parse_spec(t).ok().filter(Graph::is_connected) {
            graphs.insert(t.clone(), g);
        }
    }
    for p in &args.protocols {
        for t in &args.topologies {
            let Some(g) = graphs.get(t) else { continue };
            match registry::check_graph(p, g) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    compat.notes.push(format!("skipping {p} on {t}: {e}"));
                    compat.incompatible.insert((t.clone(), p.clone()));
                }
                Err(e) => fail(&e),
            }
        }
        for d in &args.daemons {
            let accepts = |name: &str| registry::accepts_daemon(name, d) == Ok(true);
            if !accepts(p) && registry::names().into_iter().any(accepts) {
                compat
                    .notes
                    .push(format!("skipping daemon {d} for {p}: defined for other protocols"));
                compat.foreign_daemons.push((p.clone(), d.clone()));
            }
        }
        let wants_witness = args.faults.contains(&InitMode::Witness);
        let has_witness = registry::info(p).is_some_and(|i| i.has_witness);
        if wants_witness && !has_witness {
            compat.notes.push(format!(
                "skipping witness init for {p}: no adversarial witness construction"
            ));
            compat.no_witness.insert(p.clone());
        }
    }
    compat
}

/// Builds the (compatibility-filtered) matrix the argument set describes,
/// printing skip notes.
fn build_matrix(args: &Args) -> ScenarioMatrix {
    let compat = compatibility(args);
    for note in &compat.notes {
        eprintln!("campaign: {note}");
    }
    let matrix = ScenarioMatrix::builder()
        .topologies(args.topologies.clone())
        .protocols(args.protocols.clone())
        .daemons(args.daemons.clone())
        .init_modes(args.faults.clone())
        .seeds(0..args.seeds)
        .build_where(|cell| compat.keeps(cell));
    if matrix.is_empty() {
        fail("no runnable cells (every combination was skipped or an axis is empty)");
    }
    eprintln!(
        "campaign: {} cells ({} topologies x {} protocols x {} daemons x {} bursts x {} seeds{})",
        matrix.len(),
        args.topologies.len(),
        args.protocols.len(),
        args.daemons.len(),
        args.faults.len(),
        args.seeds,
        if compat.notes.is_empty() { "" } else { ", incompatible combinations skipped" },
    );
    matrix
}

fn config_of(args: &Args) -> CampaignConfig {
    CampaignConfig {
        threads: args.threads,
        max_steps: args.max_steps,
        seed: args.seed,
        early_stop_margin: 3,
    }
}

/// Renders the profile table, writes the requested artifacts, surfaces
/// cell errors/bound violations, and exits accordingly — the shared tail
/// of `campaign [run]` and `campaign merge`.
fn emit_result(result: &CampaignResult, json: Option<&str>, csv: Option<&str>, cells: bool) -> ! {
    print!("{}", speculation_profile_table(result));
    if let Some(path) = json {
        let body = to_json(result, cells);
        if let Err(e) = write_atomic(Path::new(path), &body) {
            fail(&format!("writing {path}: {e}"));
        }
        eprintln!("campaign: JSON artifact -> {path}");
    }
    if let Some(path) = csv {
        if let Err(e) = write_atomic(Path::new(path), &to_csv(result)) {
            fail(&format!("writing {path}: {e}"));
        }
        eprintln!("campaign: CSV artifact -> {path}");
    }
    if result.total_errors() > 0 {
        // Surface *what* failed, not just how often: distinct messages
        // (e.g. typed unsupported-scenario or incompatible-topology
        // errors from harnesses) with their cell counts.
        let mut by_msg: BTreeMap<&str, u64> = BTreeMap::new();
        for cell in &result.cells {
            if let Err(e) = &cell.outcome {
                *by_msg.entry(e.as_str()).or_default() += 1;
            }
        }
        eprintln!("campaign: {} cells errored:", result.total_errors());
        for (msg, count) in by_msg {
            eprintln!("campaign:   {count} x {msg}");
        }
        std::process::exit(1);
    }
    if result.total_violations() > 0 {
        eprintln!("campaign: {} BOUND VIOLATIONS", result.total_violations());
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// `campaign [run]`: the default sweep — in-process, or over `--workers N`
/// local `campaign work` processes (byte-identical either way).
fn cmd_run(argv: &[String]) -> ! {
    let args = parse_args(argv);
    set_batching_enabled(args.batch);
    if args.metrics.is_some() && args.trace.is_none() {
        fail("--metrics requires --trace (the sidecar is distilled from the event stream)");
    }
    let matrix = build_matrix(&args);
    let config = config_of(&args);
    if args.workers > 0 {
        run_workers(&args, &matrix, &config);
    }
    let mut trace = open_trace(args.trace.as_deref(), None, "run");
    trace_emit(
        &mut trace,
        EventKind::CampaignStart {
            cells: matrix.len() as u64,
            groups: group_boundaries(matrix.cells()).len().saturating_sub(1) as u64,
            seed: config.seed,
            max_steps: config.max_steps as u64,
        },
    );
    let heartbeat = Heartbeat::new(matrix.len() as u64);
    let result = run_campaign_with_progress(&matrix, &config, Some(&heartbeat));
    heartbeat.finish();
    eprintln!(
        "campaign: done in {:?} on {} threads ({:.0} cells/s)",
        result.wall,
        result.threads_used,
        result.cells.len() as f64 / result.wall.as_secs_f64().max(1e-9),
    );
    if let Some(w) = trace.as_mut() {
        emit_result_events(w, &result.cells, &result.groups).unwrap_or_else(|e| fail(&e));
    }
    trace_emit(
        &mut trace,
        EventKind::CampaignEnd {
            cells: result.cells.len() as u64,
            errors: result.total_errors(),
            violations: result.total_violations(),
            wall_us: u64::try_from(result.wall.as_micros()).unwrap_or(u64::MAX),
            counters: result.cells.iter().map(|cr| &cr.counters).sum(),
        },
    );
    finish_trace(trace, args.trace.as_deref(), args.metrics.as_deref());
    emit_result(&result, args.json.as_deref(), args.csv.as_deref(), args.cells_in_json);
}

/// `campaign run --workers N`: plans ~4 group-aligned shards per worker
/// (over-decomposition keeps stragglers from idling the others; any
/// split merges to the same bytes) and serves them from a
/// [`Coordinator`] on a loopback port and a temporary spool to N
/// `campaign work` children — the transport `campaign serve` uses. The
/// coordinator writes the `--trace` stream, worker shard streams included.
fn run_workers(args: &Args, matrix: &ScenarioMatrix, config: &CampaignConfig) -> ! {
    let shard_count =
        if args.shards > 0 { args.shards } else { args.workers.saturating_mul(4).max(1) };
    let plan = CampaignPlan::new(matrix, config, shard_count);
    let dir = std::env::temp_dir().join(format!("specstab-campaign-{}", std::process::id()));
    let started = Instant::now();
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("creating {}: {e}", dir.display()))
        .and_then(|()| serve_to_workers(args, plan, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    let result = outcome.unwrap_or_else(|e| fail(&e));
    if let (Some(trace), Some(out)) = (args.trace.as_deref(), args.metrics.as_deref()) {
        write_metrics(trace, out);
    }
    eprintln!(
        "campaign: done in {:?} on {} workers ({:.0} cells/s)",
        started.elapsed(),
        args.workers,
        result.cells.len() as f64 / started.elapsed().as_secs_f64().max(1e-9),
    );
    emit_result(&result, args.json.as_deref(), args.csv.as_deref(), args.cells_in_json);
}

/// One `campaign work` child and where its stderr goes: a file, because a
/// pipe nobody drains can fill and block the child.
struct WorkerProcess {
    child: Child,
    stderr: PathBuf,
    exited: Option<ExitStatus>,
}

/// How often [`serve_to_workers`] checks on its children while the
/// coordinator runs. Completion wakes it at once; this only bounds how
/// late it notices a child that died.
const CHILD_POLL: Duration = Duration::from_millis(50);

/// Binds the loopback coordinator on `dir`'s spool, spawns the children
/// (no more than there are shards) and supervises both. The run fails as
/// soon as a child exits unsuccessfully, or when every child has exited
/// while the coordinator still serves an incomplete tiling — it never
/// waits for leases nobody will take. Children still running when the
/// tiling completes (idle on a wait reply) are killed and reaped.
fn serve_to_workers(args: &Args, plan: CampaignPlan, dir: &Path) -> Result<CampaignResult, String> {
    let children = args.workers.min(plan.shards.len());
    let options = ServeOptions {
        spool: dir.join("spool"),
        trace_path: args.trace.as_deref().map(PathBuf::from),
        ..ServeOptions::default()
    };
    let coordinator = Coordinator::bind(plan, "127.0.0.1:0", options)?;
    let addr =
        coordinator.local_addr().map_err(|e| format!("reading the coordinator address: {e}"))?;
    let url = format!("http://{addr}");
    let coordinator_url = CoordinatorUrl::parse(&url)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the campaign binary: {e}"))?;
    let mut workers: Vec<WorkerProcess> = Vec::with_capacity(children);
    for i in 0..children {
        let stderr = dir.join(format!("worker-{i}.stderr"));
        let mut cmd = Command::new(&exe);
        cmd.args(["work", "--coordinator", &url, "--worker-id", &format!("worker-{i}")])
            .args(["--threads", &args.threads.max(1).to_string()]);
        if !args.batch {
            cmd.args(["--batch", "off"]);
        }
        let spawned = std::fs::File::create(&stderr)
            .and_then(|log| cmd.stdout(Stdio::null()).stderr(log).spawn())
            .map_err(|e| format!("spawning worker {i}: {e}"));
        match spawned {
            Ok(child) => workers.push(WorkerProcess { child, stderr, exited: None }),
            Err(e) => {
                stop_workers(&mut workers);
                return Err(e);
            }
        }
    }
    let (done, finished) = mpsc::channel();
    // Not joined on the failure paths below: the process exits right
    // after, and a coordinator with no workers left would wait forever.
    let serve = std::thread::spawn(move || {
        let _ = done.send(coordinator.run());
    });
    loop {
        match finished.recv_timeout(CHILD_POLL) {
            Ok(outcome) => {
                stop_workers(&mut workers);
                serve.join().map_err(|_| "the coordinator thread panicked")?;
                return outcome?.ok_or_else(|| "the coordinator stopped early".into());
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err("the coordinator thread panicked".into())
            }
            Err(RecvTimeoutError::Timeout) => {}
        }
        for w in workers.iter_mut().filter(|w| w.exited.is_none()) {
            w.exited = w.child.try_wait().map_err(|e| format!("waiting on a worker: {e}"))?;
        }
        let failed = workers.iter().any(|w| w.exited.is_some_and(|s| !s.success()));
        // Children also exit cleanly once the finished coordinator closes
        // its port; a coordinator that still answers is not finished.
        let abandoned = workers.iter().all(|w| w.exited.is_some())
            && request(&coordinator_url, "GET", "/status", &[], b"").is_ok();
        if failed || abandoned {
            stop_workers(&mut workers);
            let mut report = String::from(if failed {
                "a worker failed"
            } else {
                "every worker exited before the campaign completed"
            });
            for (i, w) in workers.iter().enumerate() {
                let status = w.exited.map_or_else(|| "not reaped".into(), |s| s.to_string());
                let stderr = std::fs::read_to_string(&w.stderr).unwrap_or_default();
                report.push_str(&format!("\nworker-{i} ({status}):\n{}", stderr.trim_end()));
            }
            return Err(report);
        }
    }
}

/// Kills and reaps every child that has not exited yet.
fn stop_workers(workers: &mut [WorkerProcess]) {
    for w in workers.iter_mut().filter(|w| w.exited.is_none()) {
        let _ = w.child.kill();
        w.exited = w.child.wait().ok();
    }
}

/// `campaign plan`: enumerate the matrix and write the shard plan.
fn cmd_plan(argv: &[String]) -> ! {
    let args = parse_args(argv);
    let matrix = build_matrix(&args);
    let shard_count = if args.shards > 0 { args.shards } else { 4 };
    let plan = CampaignPlan::new(&matrix, &config_of(&args), shard_count);
    let path = args.out.as_deref().unwrap_or("campaign_plan.json");
    if let Err(e) = std::fs::write(path, plan.to_json()) {
        fail(&format!("writing {path}: {e}"));
    }
    let groups = group_boundaries(&plan.cells).len().saturating_sub(1);
    let mut trace = open_trace(args.trace.as_deref(), None, "plan");
    trace_emit(
        &mut trace,
        EventKind::CampaignStart {
            cells: plan.cells.len() as u64,
            groups: groups as u64,
            seed: plan.config.seed,
            max_steps: plan.config.max_steps as u64,
        },
    );
    trace_emit(
        &mut trace,
        EventKind::Plan { cells: plan.cells.len() as u64, shards: plan.shards.len() as u64 },
    );
    finish_trace(trace, args.trace.as_deref(), None);
    eprintln!(
        "campaign: plan -> {path} ({} cells, {groups} groups, {} shards)",
        plan.cells.len(),
        plan.shards.len()
    );
    for s in &plan.shards {
        eprintln!("campaign:   shard {}: cells {}..{} ({})", s.id, s.start, s.end, s.end - s.start);
    }
    std::process::exit(0);
}

/// `campaign shard`: execute one shard of a plan file into a partial
/// artifact. Cell errors are recorded in the partial (the merge decides
/// the final exit code), so a shard run only fails on I/O or plan
/// problems.
fn cmd_shard(argv: &[String]) -> ! {
    let mut plan_path: Option<String> = None;
    let mut shard_id: Option<usize> = None;
    let mut threads = 1usize;
    let mut out: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        let Some(val) = argv.get(i + 1).cloned() else { usage() };
        match argv[i].as_str() {
            "--plan" => plan_path = Some(val),
            "--shard" => shard_id = Some(val.parse().unwrap_or_else(|_| usage())),
            "--threads" => threads = val.parse().unwrap_or_else(|_| usage()),
            "--batch" => set_batching_enabled(parse_batch(&val)),
            "--out" => out = Some(val),
            "--trace" => trace_path = Some(val),
            _ => usage(),
        }
        i += 2;
    }
    let (Some(plan_path), Some(shard_id)) = (plan_path, shard_id) else { usage() };
    let text = std::fs::read_to_string(&plan_path)
        .unwrap_or_else(|e| fail(&format!("reading {plan_path}: {e}")));
    let plan = CampaignPlan::from_json(&text)
        .unwrap_or_else(|e| fail(&format!("parsing {plan_path}: {e}")));
    let mut trace = open_trace(trace_path.as_deref(), Some(shard_id as u64), "shard");
    let started = Instant::now();
    let partial = match trace.as_mut() {
        Some(w) => execute_shard_traced(w, &plan, shard_id, threads),
        None => execute_shard(&plan, shard_id, threads),
    }
    .unwrap_or_else(|e| fail(&e));
    finish_trace(trace, trace_path.as_deref(), None);
    let out = out.unwrap_or_else(|| format!("shard-{shard_id}.partial.json"));
    // Atomic write: a shard worker killed mid-write must never leave a
    // truncated partial for a later merge or coordinator spool resume.
    if let Err(e) = write_atomic(Path::new(&out), &partial.to_json()) {
        fail(&format!("writing {out}: {e}"));
    }
    eprintln!(
        "campaign: shard {shard_id} (cells {}..{}) done in {:?} -> {out}",
        partial.start,
        partial.end,
        started.elapsed()
    );
    std::process::exit(0);
}

/// `campaign serve`: the networked coordinator — lease shards to
/// pull-workers over HTTP, fold uploads incrementally, spool checkpoints,
/// write the final artifact when the tiling completes.
fn cmd_serve(argv: &[String]) -> ! {
    let mut plan_path: Option<String> = None;
    let mut listen = String::from("127.0.0.1:7177");
    let mut options = ServeOptions::default();
    let mut json: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut cells_in_json = false;
    let mut trace_path: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--cells-in-json" {
            cells_in_json = true;
            i += 1;
            continue;
        }
        let Some(val) = argv.get(i + 1).cloned() else { usage() };
        match argv[i].as_str() {
            "--plan" => plan_path = Some(val),
            "--listen" => listen = val,
            "--spool" => options.spool = PathBuf::from(val),
            "--lease-ms" => options.lease_ms = val.parse().unwrap_or_else(|_| usage()),
            "--stop-after-uploads" => {
                options.stop_after_uploads = Some(val.parse().unwrap_or_else(|_| usage()));
            }
            "--json" => json = Some(val),
            "--csv" => csv = Some(val),
            "--trace" => trace_path = Some(val),
            "--metrics" => metrics = Some(val),
            _ => usage(),
        }
        i += 2;
    }
    let Some(plan_path) = plan_path else { usage() };
    if metrics.is_some() && trace_path.is_none() {
        fail("--metrics requires --trace (the sidecar is distilled from the event stream)");
    }
    options.trace_path = trace_path.as_deref().map(PathBuf::from);
    let text = std::fs::read_to_string(&plan_path)
        .unwrap_or_else(|e| fail(&format!("reading {plan_path}: {e}")));
    let plan = CampaignPlan::from_json(&text)
        .unwrap_or_else(|e| fail(&format!("parsing {plan_path}: {e}")));
    let coordinator = Coordinator::bind(plan, &listen, options).unwrap_or_else(|e| fail(&e));
    let outcome = coordinator.run().unwrap_or_else(|e| fail(&e));
    let Some(result) = outcome else {
        eprintln!("campaign: serve stopped before completion (fault injection)");
        std::process::exit(3);
    };
    if let (Some(trace), Some(out)) = (trace_path.as_deref(), metrics.as_deref()) {
        write_metrics(trace, out);
    }
    emit_result(&result, json.as_deref(), csv.as_deref(), cells_in_json);
}

/// `campaign work`: the elastic pull-worker loop against a coordinator.
fn cmd_work(argv: &[String]) -> ! {
    let mut opts = WorkOptions {
        coordinator: String::new(),
        worker_id: format!("worker-{}", std::process::id()),
        threads: 1,
        lease_only: false,
    };
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--lease-only" {
            opts.lease_only = true;
            i += 1;
            continue;
        }
        let Some(val) = argv.get(i + 1).cloned() else { usage() };
        match argv[i].as_str() {
            "--coordinator" => opts.coordinator = val,
            "--worker-id" => opts.worker_id = val,
            "--threads" => opts.threads = val.parse().unwrap_or_else(|_| usage()),
            "--batch" => set_batching_enabled(parse_batch(&val)),
            _ => usage(),
        }
        i += 2;
    }
    if opts.coordinator.is_empty() {
        usage();
    }
    let summary = run_worker(&opts).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "campaign: worker {} done ({} executed, {} duplicates, {} abandoned)",
        opts.worker_id, summary.executed, summary.duplicates, summary.abandoned
    );
    std::process::exit(0);
}

/// `campaign merge`: fold partial artifacts into the final artifact.
fn cmd_merge(argv: &[String]) -> ! {
    let mut json: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut cells_in_json = false;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--cells-in-json" => {
                cells_in_json = true;
                i += 1;
            }
            "--json" | "--csv" | "--trace" => {
                let Some(val) = argv.get(i + 1).cloned() else { usage() };
                match argv[i].as_str() {
                    "--json" => json = Some(val),
                    "--csv" => csv = Some(val),
                    _ => trace_path = Some(val),
                }
                i += 2;
            }
            flag if flag.starts_with("--") => usage(),
            path => {
                inputs.push(PathBuf::from(path));
                i += 1;
            }
        }
    }
    if inputs.is_empty() {
        fail("merge needs at least one partial artifact");
    }
    let mut parse = ParseTally::default();
    let mut acc = MergeAccumulator::new();
    for p in &inputs {
        let text = std::fs::read_to_string(p)
            .unwrap_or_else(|e| fail(&format!("reading {}: {e}", p.display())));
        let partial = parse
            .time(&text, PartialArtifact::from_json)
            .unwrap_or_else(|e| fail(&format!("parsing {}: {e}", p.display())));
        acc.accept(partial).unwrap_or_else(|e| fail(&format!("merging {}: {e}", p.display())));
    }
    eprintln!("campaign: merging {} partials", inputs.len());
    let mut trace = open_trace(trace_path.as_deref(), None, "merge");
    trace_emit(&mut trace, EventKind::MergeStart { partials: inputs.len() as u64 });
    let folding = Instant::now();
    let result = acc.finish().unwrap_or_else(|e| fail(&e));
    let fold_us = u64::try_from(folding.elapsed().as_micros()).unwrap_or(u64::MAX);
    trace_emit(
        &mut trace,
        EventKind::MergeEnd {
            cells: result.cells.len() as u64,
            groups: result.groups.len() as u64,
            parse,
            fold_us,
        },
    );
    finish_trace(trace, trace_path.as_deref(), None);
    emit_result(&result, json.as_deref(), csv.as_deref(), cells_in_json);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("plan") => cmd_plan(&argv[1..]),
        Some("shard") => cmd_shard(&argv[1..]),
        Some("merge") => cmd_merge(&argv[1..]),
        Some("serve") => cmd_serve(&argv[1..]),
        Some("work") => cmd_work(&argv[1..]),
        Some("run") => cmd_run(&argv[1..]),
        // Bare flags: the historical single-process interface (`campaign
        // --topologies ...`), equivalent to `campaign run`.
        _ => cmd_run(&argv),
    }
}
