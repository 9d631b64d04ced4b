//! Campaign determinism contract: identical seeds produce byte-identical
//! artifacts, independent of thread count.

use specstab_campaign::artifact::{to_csv, to_json};
use specstab_campaign::executor::{run_campaign, CampaignConfig};
use specstab_campaign::matrix::{InitMode, ScenarioMatrix};
use std::path::PathBuf;

/// A 7-cycle in the edge-list format, written to a file only one test of
/// one process uses and removed when dropped.
struct EdgeListFile(PathBuf);

impl EdgeListFile {
    fn new(test: &str) -> Self {
        let name = format!("specstab-determinism-{test}-{}.edges", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, "n 7\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 0\n")
            .expect("temp dir writable");
        Self(path)
    }

    fn spec(&self) -> String {
        format!("file:{}", self.0.display())
    }
}

impl Drop for EdgeListFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn matrix(edges: &EdgeListFile) -> ScenarioMatrix {
    // Every registered protocol on a topology mix that exercises both the
    // compatible paths (ring/line protocols on ring:8/path:6 and the
    // 7-cycle read from a `file:` spec) and the typed incompatible-topology
    // / unsupported-witness error paths — error cells must be just as
    // deterministic as measured ones. The daemons cover every
    // `parse_daemon_spec` family plus ssme's greedy `adversary-dist`,
    // which the other protocols reject cell by cell.
    ScenarioMatrix::builder()
        .topologies([
            "ring:8".to_string(),
            "torus:3x4".to_string(),
            "tree:9".to_string(),
            "path:6".to_string(),
            edges.spec(),
        ])
        .protocols(specstab_protocols::registry::names())
        .daemons([
            "sync",
            "central-rand",
            "dist:0.5",
            "central-max",
            "central-oldest",
            "kbounded:2:0.5",
            "adversary-dist",
        ])
        .init_modes([InitMode::Burst(0), InitMode::Burst(2), InitMode::Witness])
        .seeds(0..3)
        .build()
}

fn config(threads: usize) -> CampaignConfig {
    CampaignConfig { threads, max_steps: 500_000, seed: 0xFEED, early_stop_margin: 3 }
}

#[test]
fn json_artifact_is_byte_identical_across_thread_counts() {
    // Four and seven workers claiming chunks out of order against one
    // worker claiming them in canonical order.
    let edges = EdgeListFile::new("threads");
    let m = matrix(&edges);
    let one = run_campaign(&m, &config(1));
    let four = run_campaign(&m, &config(4));
    let seven = run_campaign(&m, &config(7));
    let json_one = to_json(&one, true);
    let json_four = to_json(&four, true);
    let json_seven = to_json(&seven, true);
    assert_eq!(json_one, json_four, "1 thread vs 4 threads");
    assert_eq!(json_four, json_seven, "4 threads vs 7 threads");
    assert_eq!(to_csv(&one), to_csv(&four));
    assert_eq!(to_csv(&four), to_csv(&seven));
    // The edge-list topology parses and ssme runs under every daemon on it.
    let on_file: Vec<_> =
        one.groups.iter().filter(|g| g.protocol == "ssme" && g.topology == edges.spec()).collect();
    assert_eq!(on_file.len(), 7 * 3);
    for g in on_file {
        assert_eq!((g.n, g.errors), (7, 0), "{}", g.key);
    }
}

#[test]
fn different_campaign_seeds_change_randomized_outcomes() {
    let m = ScenarioMatrix::builder()
        .topologies(["ring:10"])
        .protocols(["ssme"])
        .daemons(["dist:0.5"])
        .fault_bursts([0])
        .seeds(0..6)
        .build();
    let a = run_campaign(&m, &CampaignConfig { seed: 1, ..config(2) });
    let b = run_campaign(&m, &CampaignConfig { seed: 2, ..config(2) });
    assert_ne!(to_json(&a, true), to_json(&b, true), "seed must matter");
}

#[test]
fn rerunning_the_same_campaign_is_reproducible() {
    let edges = EdgeListFile::new("rerun");
    let m = matrix(&edges);
    let a = run_campaign(&m, &config(3));
    let b = run_campaign(&m, &config(3));
    assert_eq!(to_json(&a, true), to_json(&b, true));
}
