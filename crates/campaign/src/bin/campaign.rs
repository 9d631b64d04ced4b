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
use specstab_campaign::executor::{run_campaign_with_progress, CampaignConfig, CampaignResult};
use specstab_campaign::matrix::{Cell, InitMode, ScenarioMatrix};
use specstab_campaign::merge::MergeAccumulator;
use specstab_campaign::plan::{group_boundaries, CampaignPlan};
use specstab_campaign::report::{render_table, speculation_profile_table};
use specstab_campaign::serve::http::{request, CoordinatorUrl};
use specstab_campaign::serve::{run_worker, Coordinator, ServeOptions, WorkOptions};
use specstab_campaign::shard::{execute_shard, execute_shard_traced};
use specstab_campaign::trace::{campaign_start, emit_result_events, plan_events};
use specstab_protocols::registry;
use specstab_telemetry::{
    metrics_from_events, parse_ndjson, EventKind, Heartbeat, ParseTally, TraceWriter,
};
use specstab_topology::spec::parse_spec;
use specstab_topology::Graph;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::str::FromStr;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

// Matrix defaults of `run` and `plan`. The large instances sweep at >1e7
// moves/s on the CSR topology and stamp-based step loop, so
// thousand-vertex cells are part of the default grid.
const DEFAULT_TOPOLOGIES: &str = "ring:12,torus:3x4,tree:12,path:12,ring:1024,torus:32x32";
const DEFAULT_PROTOCOLS: &str = "ssme";
const DEFAULT_DAEMONS: &str = "sync,central-rand,dist:0.5";
const DEFAULT_FAULTS: &str = "0,2,witness";
const DEFAULT_SEEDS: u64 = 12;

fn usage() -> ! {
    eprintln!(
        "usage: campaign [run|plan|shard|merge|serve|work] [options]\n\
         \n\
         campaign [run] [--topologies <spec,..>] [--protocols <name,..|all>] \
         [--daemons <spec,..>] [--faults <k|witness,..>] [--seeds <count>] [--max-steps <n>] \
         [--seed <base>] [--threads <n>] [--workers <n>] [--shards <n>] [--json <path>] \
         [--csv <path>] [--trace <path>] [--metrics <path>] [--cells-in-json] \
         [--list-protocols]\n\
         campaign plan  [--topologies .. --seed <base> as above] [--shards <n>] [--out <path>] \
         [--trace <path>] [--list-protocols]\n\
         campaign shard --plan <path> --shard <id> [--threads <n>] [--out <path>] \
         [--trace <path>]\n\
         campaign merge [--json <path>] [--csv <path>] [--cells-in-json] [--trace <path>] \
         <partial.json>..\n\
         campaign serve --plan <path> [--listen <addr>] [--spool <dir>] [--lease-ms <n>] \
         [--json <path>] [--csv <path>] [--cells-in-json] [--trace <path>] [--metrics <path>]\n\
         campaign work  --coordinator <http://host:port> [--worker-id <id>] [--threads <n>] \
         [--lease-only]\n\
         \n\
         run --workers N serves the plan (--shards of it, default 4 per worker) from a\n\
         coordinator on a loopback port to N local campaign work processes (--threads then\n\
         sets threads PER WORKER, default 1) -- the same lease/upload/spool transport as\n\
         serve; artifacts are byte-identical to the in-process run (--workers 0).\n\
         \n\
         Sync and dist:<p> groups of packed protocols run on the lane-packed batched\n\
         engine at every size; dist lanes step per-lane RNG streams that replay the\n\
         scalar seeds exactly. Every other daemon, central-rr and central-rand included,\n\
         runs on the scalar engine. Both engines produce byte-identical artifacts.\n\
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
         defaults: topologies {DEFAULT_TOPOLOGIES}  \n\
         \x20         protocols {DEFAULT_PROTOCOLS}  \n\
         \x20         daemons {DEFAULT_DAEMONS}  faults {DEFAULT_FAULTS}  seeds {DEFAULT_SEEDS}\n\
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

/// One subcommand: its name, the arguments it accepts and its body.
/// [`parse_flags`] walks `argv` against the two flag lists (each
/// whitespace-separated); any other argument is a usage error.
struct Subcommand {
    name: &'static str,
    /// Flags that take the next argument as their value.
    values: &'static str,
    /// Flags that take no value.
    switches: &'static str,
    /// Whether bare arguments are accepted (merge's partial artifacts).
    positional: bool,
    body: fn(&Flags) -> !,
}

/// The six subcommands; bare flags run the first.
const SUBCOMMANDS: [Subcommand; 6] = [
    Subcommand {
        name: "run",
        values: "--topologies --protocols --daemons --faults --seeds --max-steps --seed \
                 --threads --workers --shards --json --csv --trace --metrics",
        switches: "--cells-in-json --list-protocols",
        positional: false,
        body: cmd_run,
    },
    Subcommand {
        name: "plan",
        values: "--topologies --protocols --daemons --faults --seeds --max-steps --seed \
                 --shards --out --trace",
        switches: "--list-protocols",
        positional: false,
        body: cmd_plan,
    },
    Subcommand {
        name: "shard",
        values: "--plan --shard --threads --out --trace",
        switches: "",
        positional: false,
        body: cmd_shard,
    },
    Subcommand {
        name: "merge",
        values: "--json --csv --trace",
        switches: "--cells-in-json",
        positional: true,
        body: cmd_merge,
    },
    Subcommand {
        name: "serve",
        values: "--plan --listen --spool --lease-ms --json --csv --trace --metrics",
        switches: "--cells-in-json",
        positional: false,
        body: cmd_serve,
    },
    Subcommand {
        name: "work",
        values: "--coordinator --worker-id --threads",
        switches: "--lease-only",
        positional: false,
        body: cmd_work,
    },
];

/// The arguments of one invocation, as [`parse_flags`] read them.
#[derive(Default)]
struct Flags {
    values: HashMap<&'static str, String>,
    switches: HashSet<&'static str>,
    positional: Vec<String>,
}

impl Flags {
    /// The value of `flag`, if given (the last occurrence wins).
    fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// The value of `flag` as a number; an unparsable one is a usage error.
    fn num<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.get(flag).map(|v| v.parse().unwrap_or_else(|_| usage()))
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(switch)
    }
}

/// The one walk over `argv`: each argument must be one of `cmd`'s flags
/// (a valued flag followed by its value) or, where `cmd` takes them, a
/// bare argument. Also enforces the one rule between flags: `--metrics`
/// needs `--trace`, the stream the sidecar is distilled from.
fn parse_flags(cmd: &Subcommand, argv: &[String]) -> Flags {
    let find = |list: &'static str, arg: &str| list.split_whitespace().find(|f| *f == arg);
    let mut flags = Flags::default();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        if let Some(flag) = find(cmd.values, arg) {
            let Some(value) = args.next() else { usage() };
            flags.values.insert(flag, value.clone());
        } else if let Some(switch) = find(cmd.switches, arg) {
            flags.switches.insert(switch);
        } else if cmd.positional && !arg.starts_with("--") {
            flags.positional.push(arg.clone());
        } else {
            usage();
        }
    }
    if flags.get("--metrics").is_some() && flags.get("--trace").is_none() {
        fail("--metrics requires --trace (the sidecar is distilled from the event stream)");
    }
    flags
}

/// Renders the protocol registry (the `--list-protocols` output).
fn registry_table() -> String {
    let yes = |on: bool| if on { "yes" } else { "-" }.to_string();
    let rows: Vec<Vec<String>> = registry::PROTOCOLS
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                p.states.to_string(),
                p.topology.to_string(),
                yes(p.has_witness),
                yes(p.batched),
                p.summary.to_string(),
            ]
        })
        .collect();
    let headers = ["name", "states", "topology", "witness", "batched", "summary"];
    render_table("registered protocols", &headers, &rows)
}

/// The matrix and campaign parameters `run` and `plan` share.
struct Args {
    topologies: Vec<String>,
    protocols: Vec<String>,
    daemons: Vec<String>,
    faults: Vec<InitMode>,
    seeds: u64,
    /// `--shards`; 0 picks the subcommand's default.
    shards: usize,
    config: CampaignConfig,
}

/// Reads the matrix options, answering `--list-protocols` first.
fn matrix_args(flags: &Flags) -> Args {
    if flags.has("--list-protocols") {
        print!("{}", registry_table());
        std::process::exit(0);
    }
    let list = |flag: &str, default: &'static str| split_list(flags.get(flag).unwrap_or(default));
    let protocols = flags.get("--protocols").unwrap_or(DEFAULT_PROTOCOLS);
    let defaults = CampaignConfig::default();
    let args = Args {
        topologies: list("--topologies", DEFAULT_TOPOLOGIES),
        protocols: registry::parse_protocol_list(protocols).unwrap_or_else(|e| fail(&e)),
        daemons: list("--daemons", DEFAULT_DAEMONS),
        faults: list("--faults", DEFAULT_FAULTS)
            .iter()
            .map(|f| InitMode::parse(f).unwrap_or_else(|e| fail(&e)))
            .collect(),
        seeds: flags.num("--seeds").unwrap_or(DEFAULT_SEEDS),
        shards: flags.num("--shards").unwrap_or(0),
        config: CampaignConfig {
            threads: flags.num("--threads").unwrap_or(defaults.threads),
            max_steps: flags.num("--max-steps").unwrap_or(defaults.max_steps),
            seed: flags.num("--seed").unwrap_or(defaults.seed),
            ..defaults
        },
    };
    if args.topologies.is_empty()
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

/// Reads and parses a `--plan` file.
fn load_plan(path: &str) -> CampaignPlan {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}")));
    CampaignPlan::from_json(&text).unwrap_or_else(|e| fail(&format!("parsing {path}: {e}")))
}

/// Opens the `--trace` event stream when one was requested; every
/// subcommand funnels through here so streams carry a consistent header.
fn open_trace(flags: &Flags, shard: Option<u64>, source: &str) -> Option<TraceWriter> {
    let path = flags.get("--trace")?;
    Some(TraceWriter::create(Path::new(path), shard, source).unwrap_or_else(|e| fail(&e)))
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
fn finish_trace(trace: Option<TraceWriter>, flags: &Flags) {
    let (Some(w), Some(path)) = (trace, flags.get("--trace")) else { return };
    w.finish().unwrap_or_else(|e| fail(&e));
    eprintln!("campaign: event stream -> {path}");
    write_metrics(flags);
}

/// When `--metrics` was given, reads the finished `--trace` stream back
/// through the strict parser and writes the `specstab-metrics/v1` sidecar
/// distilled from it.
fn write_metrics(flags: &Flags) {
    let (Some(trace_path), Some(out)) = (flags.get("--trace"), flags.get("--metrics")) else {
        return;
    };
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

/// Renders the profile table, writes the requested artifacts (`--json`,
/// `--csv`, `--cells-in-json`), surfaces cell errors/bound violations, and
/// exits accordingly — the shared tail of `run`, `merge` and `serve`.
fn emit_result(result: &CampaignResult, flags: &Flags) -> ! {
    print!("{}", speculation_profile_table(result));
    if let Some(path) = flags.get("--json") {
        let body = to_json(result, flags.has("--cells-in-json"));
        if let Err(e) = write_atomic(Path::new(path), &body) {
            fail(&format!("writing {path}: {e}"));
        }
        eprintln!("campaign: JSON artifact -> {path}");
    }
    if let Some(path) = flags.get("--csv") {
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
fn cmd_run(flags: &Flags) -> ! {
    let args = matrix_args(flags);
    let workers = flags.num("--workers").unwrap_or(0);
    let matrix = build_matrix(&args);
    if workers > 0 {
        run_workers(flags, &args, &matrix, workers);
    }
    let mut trace = open_trace(flags, None, "run");
    trace_emit(&mut trace, campaign_start(matrix.cells(), &args.config));
    let heartbeat = Heartbeat::new(matrix.len() as u64);
    let result = run_campaign_with_progress(&matrix, &args.config, Some(&heartbeat));
    heartbeat.finish();
    eprintln!(
        "campaign: done in {:?} on {} threads ({:.0} cells/s)",
        result.wall,
        result.threads_used,
        result.cells.len() as f64 / result.wall.as_secs_f64().max(1e-9),
    );
    if let Some(w) = trace.as_mut() {
        emit_result_events(w, &result).unwrap_or_else(|e| fail(&e));
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
    finish_trace(trace, flags);
    emit_result(&result, flags);
}

/// `campaign run --workers N`: plans ~4 group-aligned shards per worker
/// (over-decomposition keeps stragglers from idling the others; any
/// split merges to the same bytes) and serves them from a
/// [`Coordinator`] on a loopback port and a temporary spool to N
/// `campaign work` children — the transport `campaign serve` uses. The
/// coordinator writes the `--trace` stream, worker shard streams included.
fn run_workers(flags: &Flags, args: &Args, matrix: &ScenarioMatrix, workers: usize) -> ! {
    let shard_count = if args.shards > 0 { args.shards } else { workers.saturating_mul(4).max(1) };
    let plan = CampaignPlan::new(matrix, &args.config, shard_count);
    let dir = std::env::temp_dir().join(format!("specstab-campaign-{}", std::process::id()));
    let started = Instant::now();
    let threads = args.config.threads.max(1);
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("creating {}: {e}", dir.display()))
        .and_then(|()| serve_to_workers(flags, plan, &dir, workers, threads));
    let _ = std::fs::remove_dir_all(&dir);
    let result = outcome.unwrap_or_else(|e| fail(&e));
    write_metrics(flags);
    eprintln!(
        "campaign: done in {:?} on {workers} workers ({:.0} cells/s)",
        started.elapsed(),
        result.cells.len() as f64 / started.elapsed().as_secs_f64().max(1e-9),
    );
    emit_result(&result, flags);
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
/// (no more than there are shards, each with `threads` threads) and
/// supervises both. The run fails as soon as a child exits unsuccessfully,
/// or when every child has exited while the coordinator still serves an
/// incomplete tiling — it never waits for leases nobody will take.
/// Children still running when the tiling completes (idle on a wait
/// reply) are killed and reaped.
fn serve_to_workers(
    flags: &Flags,
    plan: CampaignPlan,
    dir: &Path,
    workers: usize,
    threads: usize,
) -> Result<CampaignResult, String> {
    let children = workers.min(plan.shards.len());
    let options = ServeOptions {
        spool: dir.join("spool"),
        trace_path: flags.get("--trace").map(PathBuf::from),
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
            .args(["--threads", &threads.to_string()]);
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
fn cmd_plan(flags: &Flags) -> ! {
    let args = matrix_args(flags);
    let matrix = build_matrix(&args);
    let shard_count = if args.shards > 0 { args.shards } else { 4 };
    let plan = CampaignPlan::new(&matrix, &args.config, shard_count);
    let path = flags.get("--out").unwrap_or("campaign_plan.json");
    if let Err(e) = std::fs::write(path, plan.to_json()) {
        fail(&format!("writing {path}: {e}"));
    }
    let mut trace = open_trace(flags, None, "plan");
    for event in plan_events(&plan) {
        trace_emit(&mut trace, event);
    }
    finish_trace(trace, flags);
    eprintln!(
        "campaign: plan -> {path} ({} cells, {} groups, {} shards)",
        plan.cells.len(),
        group_boundaries(&plan.cells).len().saturating_sub(1),
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
fn cmd_shard(flags: &Flags) -> ! {
    let (Some(plan_path), Some(shard_id)) = (flags.get("--plan"), flags.num("--shard")) else {
        usage()
    };
    let threads = flags.num("--threads").unwrap_or(1);
    let plan = load_plan(plan_path);
    let mut trace = open_trace(flags, Some(shard_id as u64), "shard");
    let started = Instant::now();
    let partial = match trace.as_mut() {
        Some(w) => execute_shard_traced(w, &plan, shard_id, threads),
        None => execute_shard(&plan, shard_id, threads),
    }
    .unwrap_or_else(|e| fail(&e));
    finish_trace(trace, flags);
    let out =
        flags.get("--out").map_or_else(|| format!("shard-{shard_id}.partial.json"), str::to_string);
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
fn cmd_serve(flags: &Flags) -> ! {
    let Some(plan_path) = flags.get("--plan") else { usage() };
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        lease_ms: flags.num("--lease-ms").unwrap_or(defaults.lease_ms),
        spool: flags.get("--spool").map_or(defaults.spool, PathBuf::from),
        trace_path: flags.get("--trace").map(PathBuf::from),
        ..defaults
    };
    let listen = flags.get("--listen").unwrap_or("127.0.0.1:7177");
    let coordinator =
        Coordinator::bind(load_plan(plan_path), listen, options).unwrap_or_else(|e| fail(&e));
    let result = coordinator
        .run()
        .and_then(|outcome| outcome.ok_or_else(|| "the coordinator stopped early".into()))
        .unwrap_or_else(|e| fail(&e));
    write_metrics(flags);
    emit_result(&result, flags);
}

/// `campaign work`: the elastic pull-worker loop against a coordinator.
fn cmd_work(flags: &Flags) -> ! {
    let Some(coordinator) = flags.get("--coordinator").filter(|c| !c.is_empty()) else { usage() };
    let opts = WorkOptions {
        coordinator: coordinator.to_string(),
        worker_id: flags
            .get("--worker-id")
            .map_or_else(|| format!("worker-{}", std::process::id()), str::to_string),
        threads: flags.num("--threads").unwrap_or(1),
        lease_only: flags.has("--lease-only"),
    };
    let summary = run_worker(&opts).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "campaign: worker {} done ({} executed, {} duplicates, {} abandoned)",
        opts.worker_id, summary.executed, summary.duplicates, summary.abandoned
    );
    std::process::exit(0);
}

/// `campaign merge`: fold partial artifacts into the final artifact.
fn cmd_merge(flags: &Flags) -> ! {
    let inputs = &flags.positional;
    if inputs.is_empty() {
        fail("merge needs at least one partial artifact");
    }
    let mut parse = ParseTally::default();
    let mut acc = MergeAccumulator::new();
    for p in inputs {
        let text =
            std::fs::read_to_string(p).unwrap_or_else(|e| fail(&format!("reading {p}: {e}")));
        let partial = parse
            .time(&text, PartialArtifact::from_json)
            .unwrap_or_else(|e| fail(&format!("parsing {p}: {e}")));
        acc.accept(partial).unwrap_or_else(|e| fail(&format!("merging {p}: {e}")));
    }
    eprintln!("campaign: merging {} partials", inputs.len());
    let mut trace = open_trace(flags, None, "merge");
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
    finish_trace(trace, flags);
    emit_result(&result, flags);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Bare flags are the historical single-process interface (`campaign
    // --topologies ...`), equivalent to `campaign run`.
    let (cmd, rest) = match SUBCOMMANDS.iter().find(|c| argv.first().is_some_and(|a| a == c.name)) {
        Some(cmd) => (cmd, &argv[1..]),
        None => (&SUBCOMMANDS[0], &argv[..]),
    };
    (cmd.body)(&parse_flags(cmd, rest))
}
