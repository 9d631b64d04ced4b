//! The traced run of one `campaign` invocation.
//!
//! [`Invocation::parse`] reads the same arguments the untraced run hands
//! to the `campaign` binary. [`traced_run`] then performs that invocation
//! in-process through the layers' public calls, with a span around each
//! one: the upfront compatibility filter and matrix enumeration, then
//! either the in-process executor or the plan → shard → merge pipeline of
//! `campaign run --workers N`, then the report table and the JSON artifact.

use crate::replay::run_cells;
use crate::trace::{Breakdown, Counts, Recorder, Span, Trace};
use specstab_campaign::artifact::{self, PartialArtifact};
use specstab_campaign::executor::{resolve_topology, CampaignConfig, CampaignResult};
use specstab_campaign::matrix::{Cell, InitMode, ScenarioMatrix};
use specstab_campaign::merge_partials;
use specstab_campaign::plan::CampaignPlan;
use specstab_campaign::report::speculation_profile_table;
use specstab_protocols::registry;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The matrix and execution options of one `campaign [run]` invocation.
#[derive(Clone, Debug)]
pub struct Invocation {
    /// Topology specs.
    pub topologies: Vec<String>,
    /// Protocol registry names (`all` expanded).
    pub protocols: Vec<String>,
    /// Daemon specs.
    pub daemons: Vec<String>,
    /// Init modes.
    pub faults: Vec<InitMode>,
    /// Seed-axis length.
    pub seeds: u64,
    /// Executor threads (per worker process when `workers > 0`).
    pub threads: usize,
    /// Worker processes (0 = in-process).
    pub workers: usize,
    /// Step budget per run.
    pub max_steps: usize,
    /// Campaign base seed.
    pub seed: u64,
}

impl Invocation {
    /// Parses `campaign [run]` arguments; output flags (`--json`, `--csv`,
    /// `--cells-in-json`, ...) are accepted and ignored.
    ///
    /// # Errors
    ///
    /// Unknown flags, missing values and malformed numbers.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut inv = Self {
            topologies: Vec::new(),
            protocols: vec!["ssme".into()],
            daemons: vec!["sync".into(), "central-rand".into(), "dist:0.5".into()],
            faults: vec![InitMode::Burst(0), InitMode::Burst(2), InitMode::Witness],
            seeds: 12,
            threads: 0,
            workers: 0,
            max_steps: 2_000_000,
            seed: 0x00C0_FFEE,
        };
        let list = |v: &str| v.split(',').filter(|p| !p.is_empty()).map(str::to_string).collect();
        let num = |k: &str, v: &str| v.parse::<u64>().map_err(|_| format!("bad {k} '{v}'"));
        let argv = if argv.first().map(String::as_str) == Some("run") { &argv[1..] } else { argv };
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i].as_str();
            if key == "--cells-in-json" {
                i += 1;
                continue;
            }
            let val = argv.get(i + 1).ok_or_else(|| format!("{key} needs a value"))?;
            match key {
                "--topologies" => inv.topologies = list(val),
                "--protocols" => inv.protocols = registry::parse_protocol_list(val)?,
                "--daemons" => inv.daemons = list(val),
                "--faults" => {
                    inv.faults = val
                        .split(',')
                        .filter(|f| !f.is_empty())
                        .map(InitMode::parse)
                        .collect::<Result<_, _>>()?;
                }
                "--seeds" => inv.seeds = num(key, val)?,
                "--threads" => inv.threads = num(key, val)? as usize,
                "--workers" => inv.workers = num(key, val)? as usize,
                "--max-steps" => inv.max_steps = num(key, val)? as usize,
                "--seed" => inv.seed = num(key, val)?,
                "--json" | "--csv" | "--trace" | "--metrics" | "--batch" => {}
                _ => return Err(format!("unsupported campaign flag '{key}'")),
            }
            i += 2;
        }
        if inv.topologies.is_empty() {
            return Err("--topologies is required".into());
        }
        Ok(inv)
    }

    fn config(&self) -> CampaignConfig {
        CampaignConfig {
            threads: self.threads,
            max_steps: self.max_steps,
            seed: self.seed,
            early_stop_margin: 3,
        }
    }
}

/// What a traced run produced.
#[derive(Debug)]
pub struct TracedRun {
    /// Seconds from the first layer call to the artifact written.
    pub wall_s: f64,
    /// The JSON artifact (cells included) the run produced.
    pub artifact: String,
    /// Cells run.
    pub cells: u64,
    /// Every span, sorted by id.
    pub spans: Vec<Span>,
    /// Per-layer metrics by name (see [`per_layer_metrics`]).
    pub metrics: Vec<(&'static str, f64)>,
}

/// Where the traced run may write, and the binary for the shard probe.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Scratch directory for the plan and partial files.
    pub work_dir: PathBuf,
    /// The `campaign` binary; when set, sharded runs time one
    /// `campaign shard` subprocess after the traced wall closes.
    pub campaign_bin: Option<PathBuf>,
}

/// Performs `inv` in-process with spans around every layer call.
///
/// # Errors
///
/// I/O failures in the work directory and plan/partial/merge errors.
pub fn traced_run(inv: &Invocation, opts: &Options) -> Result<TracedRun, String> {
    std::fs::create_dir_all(&opts.work_dir).map_err(|e| format!("creating work dir: {e}"))?;
    let before = specstab_telemetry::global().snapshot();
    let trace = Trace::new();
    let mut rec = trace.recorder(None);
    let started = Instant::now();
    rec.open("bench", "workload");
    let matrix = build_matrix(&mut rec, inv);
    let config = inv.config();
    let cpu_before = cpu_seconds();
    let (result, plan_path) = if inv.workers == 0 {
        (run_cells(&trace, &mut rec, matrix.cells(), &config), None)
    } else {
        let (r, p) = sharded(&trace, &mut rec, inv, &matrix, &config, &opts.work_dir)?;
        (r, Some(p))
    };
    rec.count("executor.cpu_ms", ((cpu_seconds() - cpu_before) * 1e3) as u64);
    let table = rec.span("campaign.report", "speculation_profile_table", || {
        speculation_profile_table(&result)
    });
    std::hint::black_box(table);
    let json = rec.span("campaign.artifact", "to_json", || artifact::to_json(&result, true));
    rec.count("artifact.bytes_written", json.len() as u64);
    let out = opts.work_dir.join("traced.json");
    rec.span("campaign.artifact", "write", || artifact::write_atomic(&out, &json))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    rec.close();
    let wall_s = started.elapsed().as_secs_f64();
    drop(rec);
    let batch = specstab_telemetry::global().snapshot().delta(&before);
    let mut probe = (0.0, 0.0);
    if let (Some(bin), Some(plan)) = (&opts.campaign_bin, &plan_path) {
        probe = shard_probe(bin, plan, &opts.work_dir)?;
    }
    let (spans, mut counts) = trace.finish();
    counts.insert("batch.lane_steps", batch.batch_lane_steps);
    counts.insert("batch.idle_lane_steps", batch.batch_idle_lane_steps);
    let metrics = per_layer_metrics(&spans, &counts, probe);
    Ok(TracedRun { wall_s, artifact: json, cells: result.cells.len() as u64, spans, metrics })
}

/// The `campaign` front end's matrix: the upfront compatibility filter
/// (topology resolution plus a harness build per pair), then the
/// filtered enumeration.
fn build_matrix(rec: &mut Recorder<'_>, inv: &Invocation) -> ScenarioMatrix {
    let mut graphs = HashMap::new();
    for t in &inv.topologies {
        let resolved = rec.span("topology", "resolve_topology", || resolve_topology(t));
        rec.count("topology.resolves", 1);
        if let Ok(pair) = resolved {
            graphs.insert(t.clone(), pair);
        }
    }
    let mut incompatible: HashSet<(String, String)> = HashSet::new();
    let mut no_witness: HashSet<String> = HashSet::new();
    for p in &inv.protocols {
        for t in &inv.topologies {
            let Some((g, diam)) = graphs.get(t) else { continue };
            let ok = rec.span("protocols.harness", "check_topology", || {
                registry::check_topology(p, g, *diam)
            });
            rec.count("harness.builds", 1);
            if !matches!(ok, Ok(Ok(()))) {
                incompatible.insert((t.clone(), p.clone()));
            }
        }
        if inv.faults.contains(&InitMode::Witness)
            && !registry::info(p).is_some_and(|i| i.has_witness)
        {
            no_witness.insert(p.clone());
        }
    }
    let keep = |cell: &Cell| {
        !incompatible.contains(&(cell.topology.clone(), cell.protocol.clone()))
            && (cell.init != InitMode::Witness || !no_witness.contains(&cell.protocol))
    };
    let matrix = rec.span("campaign.plan", "build", || {
        ScenarioMatrix::builder()
            .topologies(inv.topologies.clone())
            .protocols(inv.protocols.clone())
            .daemons(inv.daemons.clone())
            .init_modes(inv.faults.clone())
            .seeds(0..inv.seeds)
            .build_where(keep)
    });
    rec.count("plan.cells", matrix.len() as u64);
    matrix
}

/// `campaign run --workers N`: plan, one plan parse plus shard execution
/// plus partial write per shard on N pool threads, then partial parses
/// and the merge.
fn sharded(
    trace: &Trace,
    rec: &mut Recorder<'_>,
    inv: &Invocation,
    matrix: &ScenarioMatrix,
    config: &CampaignConfig,
    dir: &Path,
) -> Result<(CampaignResult, PathBuf), String> {
    let shard_count = inv.workers.saturating_mul(4);
    let plan =
        rec.span("campaign.plan", "build", || CampaignPlan::new(matrix, config, shard_count));
    let plan_text = rec.span("campaign.plan", "to_json", || plan.to_json());
    rec.count("plan.shards", plan.shards.len() as u64);
    rec.count("plan.bytes", plan_text.len() as u64);
    let plan_path = dir.join("plan.json");
    rec.span("campaign.plan", "write", || std::fs::write(&plan_path, &plan_text))
        .map_err(|e| format!("writing {}: {e}", plan_path.display()))?;
    let threads_per_worker = inv.threads.max(1);
    let workers = inv.workers.clamp(1, plan.shards.len().max(1));
    let cursor = AtomicUsize::new(0);
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let pool = rec.open("campaign.shard", "pool");
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (cursor, failure, plan_text, plan) = (&cursor, &failure, &plan_text, &plan);
            scope.spawn(move || {
                let mut w = trace.recorder(Some(pool));
                w.open("campaign.shard", "worker");
                loop {
                    let id = cursor.fetch_add(1, Ordering::Relaxed);
                    if id >= plan.shards.len() {
                        break;
                    }
                    if let Err(e) =
                        execute_shard(trace, &mut w, plan_text, id, threads_per_worker, dir)
                    {
                        failure.lock().expect("no worker panicked").get_or_insert(e);
                    }
                }
                w.close();
            });
        }
    });
    rec.close();
    if let Some(e) = failure.into_inner().expect("no worker panicked") {
        return Err(e);
    }
    rec.count("shard.count", plan.shards.len() as u64);
    let mut partials = Vec::with_capacity(plan.shards.len());
    for s in &plan.shards {
        let path = partial_path(dir, s.id);
        let text = rec
            .span("campaign.artifact", "read", || std::fs::read_to_string(&path))
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        rec.count("artifact.bytes_parsed", text.len() as u64);
        partials.push(
            rec.span("campaign.artifact", "from_json", || PartialArtifact::from_json(&text))?,
        );
    }
    rec.count("merge.partials", partials.len() as u64);
    let result = rec.span("campaign.merge", "merge_partials", || merge_partials(partials))?;
    Ok((result, plan_path))
}

fn partial_path(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("shard-{id}.partial.json"))
}

/// One `campaign shard` worker's work, in-process: parse the plan, run
/// the shard's cells, write the partial.
fn execute_shard(
    trace: &Trace,
    rec: &mut Recorder<'_>,
    plan_text: &str,
    id: usize,
    threads: usize,
    dir: &Path,
) -> Result<(), String> {
    rec.open("campaign.shard", "execute_shard");
    let plan = rec.span("campaign.plan", "from_json", || CampaignPlan::from_json(plan_text))?;
    let cells = plan.shard_cells(id)?;
    let config = CampaignConfig { threads, ..plan.config.clone() };
    let result = run_cells(trace, rec, cells, &config);
    let partial = PartialArtifact::from_result(
        result,
        id,
        plan.shards[id].start,
        plan.cells.len(),
        plan.fingerprint(),
    );
    let text = rec.span("campaign.artifact", "partial_to_json", || partial.to_json());
    rec.count("artifact.bytes_written", text.len() as u64);
    let path = partial_path(dir, id);
    rec.span("campaign.artifact", "write", || artifact::write_atomic(&path, &text))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    rec.close();
    Ok(())
}

/// Shard 0 run twice outside the traced wall, one after the other: in
/// this process, then as one `campaign shard` subprocess. Returns both
/// wall times in seconds (compute, process); the difference is what the
/// process boundary costs.
fn shard_probe(bin: &Path, plan: &Path, dir: &Path) -> Result<(f64, f64), String> {
    let plan_text =
        std::fs::read_to_string(plan).map_err(|e| format!("reading {}: {e}", plan.display()))?;
    let trace = Trace::new();
    let started = Instant::now();
    execute_shard(&trace, &mut trace.recorder(None), &plan_text, 0, 1, dir)?;
    let compute_s = started.elapsed().as_secs_f64();
    let out = dir.join("probe.partial.json");
    let started = Instant::now();
    let status = std::process::Command::new(bin)
        .args(["shard", "--plan"])
        .arg(plan)
        .args(["--shard", "0", "--out"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let process_s = started.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("campaign shard probe failed: {status}"));
    }
    let probe =
        std::fs::read_to_string(&out).map_err(|e| format!("reading {}: {e}", out.display()))?;
    let inproc = std::fs::read_to_string(partial_path(dir, 0)).map_err(|e| e.to_string())?;
    if probe != inproc {
        return Err("campaign shard subprocess and in-process shard 0 disagree".into());
    }
    Ok((compute_s, process_s))
}

/// Process CPU seconds (user + system, all threads) from `/proc/self/stat`,
/// in the kernel's fixed 100 Hz reporting unit; 0 where unavailable.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |i: usize| rest.split_whitespace().nth(i).and_then(|x| x.parse::<u64>().ok());
    match (field(11), field(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derives the named per-layer metrics from a trace's spans and counts.
/// `probe` is the shard probe's (in-process, subprocess) wall seconds,
/// zeros when no probe ran.
#[must_use]
pub fn per_layer_metrics(
    spans: &[Span],
    counts: &Counts,
    probe: (f64, f64),
) -> Vec<(&'static str, f64)> {
    let b = Breakdown::of(spans);
    let c = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let group_runs: Vec<&Span> =
        spans.iter().filter(|s| s.layer == "campaign.executor" && s.name == "group_run").collect();
    let executor_threads = group_runs.iter().map(|s| s.thread).collect::<HashSet<_>>().len();
    let group_sum: f64 = group_runs.iter().map(|s| s.len().as_secs_f64()).sum();
    let group_max = group_runs.iter().map(|s| s.len().as_secs_f64()).fold(0.0, f64::max);
    let write_s = b.total("campaign.artifact", "to_json")
        + b.total("campaign.artifact", "partial_to_json")
        + b.total("campaign.artifact", "write");
    let parse_s = b.total("campaign.artifact", "read") + b.total("campaign.artifact", "from_json");
    let plan_parse_s = b.total("campaign.plan", "from_json");
    let (compute_s, process_s) = probe;
    vec![
        ("topology.resolves", c("topology.resolves")),
        ("topology.resolve_s", b.layer("topology")),
        ("harness.builds", c("harness.builds")),
        ("harness.build_s", b.layer("protocols.harness")),
        ("init.configs", c("init.configs")),
        ("init.s", b.layer("init")),
        ("daemon.selects", c("daemon.selects")),
        ("daemon.select_s", b.layer("kernel.daemon")),
        ("daemon.selected_per_call", ratio(c("daemon.selected"), c("daemon.selects"))),
        ("engine.steps", c("engine.steps")),
        ("engine.moves", c("engine.moves")),
        ("engine.guard_evals", c("engine.guard_evals")),
        ("engine.guard_evals_per_step", ratio(c("engine.guard_evals"), c("engine.steps"))),
        ("engine.delta_bytes", c("engine.delta_bytes")),
        ("engine.self_s", b.layer("kernel.engine")),
        ("monitor.safety_calls", c("monitor.safety_calls")),
        ("monitor.legitimacy_calls", c("monitor.legitimacy_calls")),
        ("monitor.vertices_scanned", c("monitor.vertices_scanned")),
        ("monitor.busy_s", b.layer("kernel.observer")),
        ("monitor.share", ratio(b.layer("kernel.observer"), b.busy_s)),
        ("batch.calls", c("batch.calls")),
        ("batch.lanes", c("batch.lanes")),
        ("batch.lane_steps", c("batch.lane_steps")),
        ("batch.idle_lane_steps", c("batch.idle_lane_steps")),
        (
            "batch.useful_lane_ratio",
            ratio(c("batch.lane_steps") - c("batch.idle_lane_steps"), c("batch.lane_steps")),
        ),
        ("batch.busy_s", b.layer("kernel.batch")),
        ("executor.threads", executor_threads as f64),
        ("executor.group_wall_max_s", group_max),
        ("executor.idle_s", (c("executor.capacity_ns") / 1e9 - group_sum).max(0.0)),
        ("executor.cpu_s", c("executor.cpu_ms") / 1e3),
        ("stats.pushes", c("stats.pushes")),
        ("stats.s", b.layer("campaign.stats")),
        ("artifact.bytes_written", c("artifact.bytes_written")),
        ("artifact.write_s", write_s),
        ("artifact.bytes_parsed", c("artifact.bytes_parsed")),
        ("artifact.parse_s", parse_s),
        (
            "artifact.parse_mib_per_s",
            ratio(c("artifact.bytes_parsed") / f64::from(1 << 20), parse_s),
        ),
        ("artifact.parse_share", ratio(parse_s + plan_parse_s, b.busy_s)),
        ("plan.cells", c("plan.cells")),
        ("plan.shards", c("plan.shards")),
        ("plan.bytes", c("plan.bytes")),
        (
            "plan.build_s",
            b.total("campaign.plan", "build")
                + b.total("campaign.plan", "to_json")
                + b.total("campaign.plan", "write"),
        ),
        ("plan.parse_s", plan_parse_s),
        ("shard.count", c("shard.count")),
        ("shard.compute_s", compute_s),
        ("shard.process_s", process_s),
        ("shard.overhead_s", process_s - compute_s),
        ("merge.partials", c("merge.partials")),
        ("merge.s", b.layer("campaign.merge")),
        ("report.s", b.layer("campaign.report")),
        ("trace.busy_s", b.busy_s),
        ("trace.attributed_share", 1.0 - ratio(b.layer("bench"), b.busy_s)),
    ]
}
