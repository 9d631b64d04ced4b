//! The traced run's work counts repeat exactly for a fixed seed, so a
//! later change can claim a count by name. Kept as the only test in this
//! binary: batch lane counts come from the process-global counters, which
//! a concurrently running test would disturb.

use perfbench::drive::{traced_run, Invocation, Options};

const EXACT: &[&str] = &[
    "engine.steps",
    "engine.moves",
    "engine.guard_evals",
    "monitor.safety_calls",
    "monitor.legitimacy_calls",
    "monitor.vertices_scanned",
    "daemon.selects",
    "batch.calls",
    "batch.lanes",
    "batch.lane_steps",
    "batch.idle_lane_steps",
    "stats.pushes",
    "artifact.bytes_written",
    "artifact.bytes_parsed",
    "plan.cells",
    "plan.shards",
    "plan.bytes",
];

#[test]
fn counts_repeat_exactly_across_traced_runs_of_one_seed() {
    // Scalar cells (bfs has no lane engine), lane cells (ssme), and the
    // plan/partial transport of `campaign run --workers 2`.
    let argv: Vec<String> = "run --workers 2 --topologies ring:8,torus:3x4 --protocols ssme,bfs \
         --daemons sync,central-rr,dist:0.5 --faults 0,2 --seeds 3 --seed 11"
        .split_whitespace()
        .map(String::from)
        .collect();
    let inv = Invocation::parse(&argv).expect("valid arguments");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exact-counts");
    let runs: Vec<_> = (0..2)
        .map(|i| {
            let opts = Options { work_dir: dir.join(i.to_string()), campaign_bin: None };
            traced_run(&inv, &opts).expect("traced run")
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(runs[0].artifact, runs[1].artifact);
    let value = |run: usize, name: &str| {
        runs[run].metrics.iter().find(|(k, _)| *k == name).map(|(_, v)| *v).expect(name)
    };
    for name in EXACT {
        let (a, b) = (value(0, name), value(1, name));
        assert!(a > 0.0, "{name} never counted");
        assert_eq!(a, b, "{name} differs between runs");
    }
}
