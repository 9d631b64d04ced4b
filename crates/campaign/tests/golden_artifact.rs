//! Golden-artifact regression gates: the campaign engine must keep
//! producing **byte-identical** JSON for pinned matrices + seeds.
//!
//! The checked-in goldens were produced by the `campaign` CLI with
//! exactly these parameters:
//!
//! `tests/golden/campaign_golden.json` (SSME, the original gate):
//!
//! ```text
//! campaign --topologies ring:8,torus:3x4 --protocols ssme \
//!          --daemons sync,central-rand,dist:0.5 --faults 0,2,witness \
//!          --seeds 3 --seed 51966 --max-steps 500000 \
//!          --cells-in-json --json campaign_golden.json
//! ```
//!
//! `tests/golden/campaign_golden_bfs.json` (a registry-resolved protocol
//! beyond the original two, pinning the harness-based runner path):
//!
//! ```text
//! campaign --topologies path:9 --protocols bfs \
//!          --daemons sync,central-rr,dist:0.5 --faults 0,1 \
//!          --seeds 3 --seed 51966 --max-steps 500000 \
//!          --cells-in-json --json campaign_golden_bfs.json
//! ```
//!
//! `tests/golden/plan_compat.json` (the compatibility filter: which
//! (topology, protocol) pairs and witness cells `campaign plan` keeps —
//! the Dijkstra harnesses only on rings or lines, the witness only for
//! ssme, the unparseable `mobius:9` left in as per-cell errors):
//!
//! ```text
//! campaign plan --topologies ring:8,path:6,torus:3x4,tree:9,star:5,mobius:9 \
//!          --protocols all --daemons sync,central-rr --faults 0,witness \
//!          --seeds 2 --shards 3 --out plan_compat.json
//! ```
//!
//! Any engine, daemon, RNG-stream, aggregation or serialization drift shows
//! up as a byte diff here (and in the CI steps that replay the CLI
//! invocations and `cmp` the output). If a change is *intentional* —
//! a new artifact field, a semantically justified engine change —
//! regenerate the goldens with the commands above and call the change out
//! in the PR.

use specstab_campaign::artifact::to_json;
use specstab_campaign::executor::{run_campaign, CampaignConfig};
use specstab_campaign::matrix::{InitMode, ScenarioMatrix};
use std::process::Command;

const GOLDEN: &str = include_str!("golden/campaign_golden.json");
const GOLDEN_BFS: &str = include_str!("golden/campaign_golden_bfs.json");
const GOLDEN_PLAN_COMPAT: &str = include_str!("golden/plan_compat.json");

fn golden_matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder()
        .topologies(["ring:8", "torus:3x4"])
        .protocols(["ssme"])
        .daemons(["sync", "central-rand", "dist:0.5"])
        .init_modes([InitMode::Burst(0), InitMode::Burst(2), InitMode::Witness])
        .seeds(0..3)
        .build()
}

fn golden_config() -> CampaignConfig {
    CampaignConfig { threads: 0, max_steps: 500_000, seed: 51966, early_stop_margin: 3 }
}

fn assert_matches_golden(json: &str, golden: &str, label: &str) {
    if json != golden {
        // Byte-diff context: first differing line, so drift is debuggable
        // without dumping 38 KB.
        for (i, (a, b)) in json.lines().zip(golden.lines()).enumerate() {
            assert_eq!(a, b, "{label} drifted from golden at line {}", i + 1);
        }
        assert_eq!(
            json.lines().count(),
            golden.lines().count(),
            "{label} drifted from golden: line count differs"
        );
        panic!("{label} drifted from golden (content equal per-line but bytes differ?)");
    }
}

#[test]
fn campaign_json_matches_checked_in_golden() {
    let result = run_campaign(&golden_matrix(), &golden_config());
    let json = to_json(&result, true);
    assert_eq!(result.total_errors(), 0, "golden matrix must be error-free");
    assert_eq!(result.total_violations(), 0, "golden matrix must respect the theorem bounds");
    assert_matches_golden(&json, GOLDEN, "campaign.json");
}

#[test]
fn bfs_campaign_json_matches_checked_in_golden() {
    let matrix = ScenarioMatrix::builder()
        .topologies(["path:9"])
        .protocols(["bfs"])
        .daemons(["sync", "central-rr", "dist:0.5"])
        .init_modes([InitMode::Burst(0), InitMode::Burst(1)])
        .seeds(0..3)
        .build();
    let result = run_campaign(&matrix, &golden_config());
    let json = to_json(&result, true);
    assert_eq!(result.total_errors(), 0, "bfs golden matrix must be error-free");
    assert_eq!(result.total_violations(), 0);
    assert_matches_golden(&json, GOLDEN_BFS, "campaign_bfs.json");
}

#[test]
fn compatibility_filtered_plan_matches_checked_in_golden() {
    let out =
        std::env::temp_dir().join(format!("specstab-plan-compat-{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["plan", "--topologies", "ring:8,path:6,torus:3x4,tree:9,star:5,mobius:9"])
        .args(["--protocols", "all", "--daemons", "sync,central-rr", "--faults", "0,witness"])
        .args(["--seeds", "2", "--shards", "3", "--out"])
        .arg(&out)
        .output()
        .expect("campaign spawns");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let plan = std::fs::read_to_string(&out).expect("plan written");
    let _ = std::fs::remove_file(&out);
    assert_matches_golden(&plan, GOLDEN_PLAN_COMPAT, "plan_compat.json");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("skipping dijkstra4 on ring:8: protocol 'dijkstra4' requires a line"));
    assert!(stderr.contains("skipping witness init for bfs"), "{stderr}");
}

#[test]
fn daemons_defined_for_other_protocols_are_skipped_up_front() {
    // ssme's greedy adversaries are no daemon of bfs: the filter drops
    // bfs x adversary-central with a note instead of erroring its cells.
    let output = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--topologies", "ring:6", "--protocols", "ssme,bfs"])
        .args(["--daemons", "sync,adversary-central", "--faults", "0", "--seeds", "2"])
        .output()
        .expect("campaign spawns");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    assert!(stderr.contains("skipping daemon adversary-central for bfs"), "{stderr}");
    assert!(!stderr.contains("for ssme"), "{stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("total: 6 cells, 3 groups, 0 violations, 0 errors"), "{stdout}");
}
