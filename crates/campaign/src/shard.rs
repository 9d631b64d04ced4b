//! The shard execution layer: runs one shard of a [`CampaignPlan`] and
//! packages the result as a [`PartialArtifact`].
//!
//! Two backends share the same per-cell semantics:
//!
//! * [`execute_shard`] — the **in-process** backend: the existing
//!   scoped-thread executor ([`crate::executor::run_campaign`]) over the
//!   shard's cell slice. Because every cell seeds purely from its
//!   coordinates, a shard run is bit-identical to the same cells inside a
//!   full single-process sweep.
//! * [`run_plan_subprocess`] — the **subprocess** backend: spawns worker
//!   processes (`campaign shard --plan <file> --shard <id> --out <file>`),
//!   bounded by a worker budget, and collects their partial artifacts.
//!   This is the local form of the multi-machine workflow — remote
//!   machines run the same `campaign shard` command by hand (or via any
//!   job scheduler) and only the partial JSON files travel.

use crate::artifact::PartialArtifact;
use crate::executor::run_campaign;
use crate::matrix::ScenarioMatrix;
use crate::plan::CampaignPlan;
use specstab_telemetry::{Heartbeat, ParseTally};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Executes shard `shard_id` of `plan` in-process on `threads` worker
/// threads (0 = all cores) and packages the result.
///
/// # Errors
///
/// Returns a message when `shard_id` is not a shard of the plan.
pub fn execute_shard(
    plan: &CampaignPlan,
    shard_id: usize,
    threads: usize,
) -> Result<PartialArtifact, String> {
    let cells = plan.shard_cells(shard_id)?.to_vec();
    let shard = plan.shards[shard_id];
    let matrix = ScenarioMatrix::from_cells(cells);
    let config = crate::executor::CampaignConfig { threads, ..plan.config.clone() };
    let result = run_campaign(&matrix, &config);
    Ok(PartialArtifact::from_result(
        result,
        shard_id,
        shard.start,
        plan.cells.len(),
        plan.fingerprint(),
    ))
}

/// One worker-process invocation: which shard, and where its partial goes.
#[derive(Clone, Debug)]
pub struct ShardJob {
    /// Shard id to execute.
    pub shard_id: usize,
    /// Output path for the partial artifact.
    pub out: PathBuf,
    /// Event-stream path passed to the worker as `--trace` (if tracing).
    pub trace: Option<PathBuf>,
}

/// Canonical per-shard event-stream path inside a trace directory — the
/// one place the `shard-<id>.events.ndjson` naming convention lives, so
/// the orchestrator and the worker pool always agree on it.
pub fn shard_trace_path(dir: &Path, shard_id: usize) -> PathBuf {
    dir.join(format!("shard-{shard_id}.events.ndjson"))
}

/// Knobs of the subprocess worker pool (everything beyond the plan
/// itself), so [`run_plan_subprocess`] keeps a readable signature.
#[derive(Clone, Copy, Default)]
pub struct PoolOptions<'a> {
    /// Maximum concurrent worker processes (clamped to at least 1).
    pub workers: usize,
    /// `--threads` passed to each worker (clamped to at least 1; default 1
    /// — the pool already fills the machine, and per-cell determinism
    /// makes the thread choice invisible in the output).
    pub threads_per_worker: usize,
    /// When set, each worker gets `--trace` pointing at
    /// [`shard_trace_path`]`(trace_dir, id)` and writes its own
    /// `specstab-events/v1` stream there for the orchestrator to merge.
    /// Tracing never touches the partial artifacts.
    pub trace_dir: Option<&'a Path>,
    /// Advanced by each shard's cell count as its worker exits — moves are
    /// reported as 0 because partials are only parsed after the pool
    /// drains, so the heartbeat shows cells/s without a moves/s segment.
    pub progress: Option<&'a Heartbeat>,
    /// When set, workers get `--batch off` (the orchestrator's `--batch`
    /// toggle forwarded; default keeps the lane-packed engine on).
    pub batch_off: bool,
}

/// Runs every shard of the plan at `plan_path` through worker subprocesses
/// of `exe` (the `campaign` binary), bounded by [`PoolOptions::workers`],
/// writing partials into `work_dir` and returning them parsed, in shard
/// order, with the bytes and wall time their parses took.
///
/// # Errors
///
/// Returns the first spawn failure, non-zero worker exit (with its
/// captured stderr), or partial-artifact parse error. On failure, any
/// still-running workers are killed and reaped before returning.
pub fn run_plan_subprocess(
    exe: &Path,
    plan: &CampaignPlan,
    plan_path: &Path,
    work_dir: &Path,
    opts: PoolOptions<'_>,
) -> Result<(Vec<PartialArtifact>, ParseTally), String> {
    let jobs: Vec<ShardJob> = plan
        .shards
        .iter()
        .map(|s| ShardJob {
            shard_id: s.id,
            out: work_dir.join(format!("shard-{}.partial.json", s.id)),
            trace: opts.trace_dir.map(|d| shard_trace_path(d, s.id)),
        })
        .collect();
    let workers = opts.workers.max(1).min(jobs.len().max(1));

    let spawn = |job: &ShardJob| -> Result<Child, String> {
        let mut cmd = Command::new(exe);
        cmd.arg("shard")
            .arg("--plan")
            .arg(plan_path)
            .arg("--shard")
            .arg(job.shard_id.to_string())
            .arg("--threads")
            .arg(opts.threads_per_worker.max(1).to_string())
            .arg("--out")
            .arg(&job.out);
        if let Some(trace) = &job.trace {
            cmd.arg("--trace").arg(trace);
        }
        if opts.batch_off {
            cmd.arg("--batch").arg("off");
        }
        cmd.stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning worker for shard {}: {e}", job.shard_id))
    };

    // A fixed-size pool over the job queue: fill the pool, then replace
    // each finished worker with the next queued job. On the first failure
    // (worker exit or spawn error) the remaining workers are killed and
    // reaped before returning — a dropped `Child` would keep running and
    // burn CPU for minutes on long shards.
    fn kill_all(running: &mut Vec<(usize, Child)>) {
        for (_, child) in running.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        running.clear();
    }
    let mut queue = jobs.iter();
    let mut running: Vec<(usize, Child)> = Vec::with_capacity(workers);
    let mut first_error: Option<String> = None;
    for job in queue.by_ref().take(workers) {
        match spawn(job) {
            Ok(child) => running.push((job.shard_id, child)),
            Err(e) => {
                first_error = Some(e);
                break;
            }
        }
    }
    while first_error.is_none() && !running.is_empty() {
        let mut finished: Option<usize> = None;
        for (i, (shard_id, child)) in running.iter_mut().enumerate() {
            match child.try_wait() {
                Ok(Some(status)) => {
                    if status.success() {
                        if let Some(hb) = opts.progress {
                            let s = plan.shards[*shard_id];
                            hb.add_done((s.end - s.start) as u64, 0);
                        }
                    } else {
                        let mut stderr = String::new();
                        if let Some(pipe) = child.stderr.take() {
                            use std::io::Read as _;
                            let mut pipe = pipe;
                            let _ = pipe.read_to_string(&mut stderr);
                        }
                        first_error = Some(format!(
                            "worker for shard {shard_id} exited with {status}: {}",
                            stderr.trim()
                        ));
                    }
                    finished = Some(i);
                    break;
                }
                Ok(None) => {}
                Err(e) => {
                    first_error = Some(format!("waiting on shard {shard_id}: {e}"));
                    finished = Some(i);
                    break;
                }
            }
        }
        match finished {
            Some(i) => {
                let (_, mut child) = running.swap_remove(i);
                let _ = child.wait(); // reap (try_wait already saw the exit)
                if first_error.is_none() {
                    if let Some(job) = queue.next() {
                        match spawn(job) {
                            Ok(child) => running.push((job.shard_id, child)),
                            Err(e) => first_error = Some(e),
                        }
                    }
                }
            }
            None => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    if let Some(e) = first_error {
        kill_all(&mut running);
        return Err(e);
    }

    let mut parse = ParseTally::default();
    let partials = jobs
        .iter()
        .map(|job| {
            let text = std::fs::read_to_string(&job.out)
                .map_err(|e| format!("reading {}: {e}", job.out.display()))?;
            parse
                .time(&text, PartialArtifact::from_json)
                .map_err(|e| format!("parsing {}: {e}", job.out.display()))
        })
        .collect::<Result<_, _>>()?;
    Ok((partials, parse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_campaign_sequential, CampaignConfig};
    use crate::matrix::ScenarioMatrix;

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5"])
            .protocols(["ssme"])
            .daemons(["sync", "central-rr"])
            .fault_bursts([0, 1])
            .seeds(0..3)
            .build()
    }

    #[test]
    fn shard_execution_matches_the_full_run_slice() {
        let m = matrix();
        let cfg = CampaignConfig { max_steps: 100_000, ..CampaignConfig::default() };
        let plan = CampaignPlan::new(&m, &cfg, 3);
        let full = run_campaign_sequential(&m, &cfg);
        for shard in &plan.shards {
            let partial = execute_shard(&plan, shard.id, 1).expect("valid shard");
            assert_eq!(partial.start, shard.start);
            assert_eq!(partial.end, shard.end);
            assert_eq!(partial.total_cells, m.len());
            for (a, b) in partial.cells.iter().zip(&full.cells[shard.start..shard.end]) {
                assert_eq!(a.cell, b.cell);
                assert_eq!(a.cell_seed, b.cell_seed, "coordinate-pure seeding");
                assert_eq!(a.outcome, b.outcome);
            }
        }
        assert!(execute_shard(&plan, 99, 1).is_err());
    }

    #[test]
    fn partial_artifact_round_trips_through_json() {
        let plan = CampaignPlan::new(
            &matrix(),
            &CampaignConfig { max_steps: 100_000, ..CampaignConfig::default() },
            2,
        );
        let partial = execute_shard(&plan, 0, 1).expect("valid shard");
        let text = partial.to_json();
        let parsed = PartialArtifact::from_json(&text).expect("round trip");
        assert_eq!(parsed.to_json(), text, "lossless round trip");
        assert!(PartialArtifact::from_json(&text.replace("partial/v1", "partial/v9")).is_err());
    }
}
