//! Cross-check of the campaign's group statistics against a naive
//! sequential reference on a small grid plus one 40-seed group (two of
//! the executor's 32-cell work units): the accumulators must agree
//! exactly on count/min/max/mean/variance, stay within P² tolerance on
//! quantiles, and equal a fresh accumulator fed the group's cells in
//! order, bit for bit.

use specstab_campaign::executor::{run_campaign, CampaignConfig};
use specstab_campaign::matrix::ScenarioMatrix;
use specstab_campaign::stats::OnlineStats;

fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[test]
fn group_stats_match_a_naive_reference() {
    let grid = ScenarioMatrix::builder()
        .topologies(["ring:8", "tree:7"])
        .protocols(["ssme"])
        .daemons(["sync", "dist:0.5"])
        .fault_bursts([0, 1])
        .seeds(0..16)
        .build();
    let heavy = ScenarioMatrix::builder()
        .topologies(["ring:12"])
        .protocols(["ssme"])
        .daemons(["dist:0.5"])
        .fault_bursts([2])
        .seeds(0..40)
        .build();
    let m = ScenarioMatrix::from_cells(grid.cells().iter().chain(heavy.cells()).cloned().collect());
    let cfg = CampaignConfig { threads: 4, max_steps: 300_000, seed: 7, early_stop_margin: 3 };
    let result = run_campaign(&m, &cfg);
    assert_eq!(result.total_errors(), 0);

    for group in &result.groups {
        // Naive reference: collect the group's raw per-cell values from the
        // canonical cell list and compute statistics offline.
        let raw: Vec<&specstab_campaign::executor::CellOutcome> = result
            .cells
            .iter()
            .filter(|c| c.cell.group_key() == group.key)
            .map(|c| c.outcome.as_ref().expect("no errors in this matrix"))
            .collect();
        assert_eq!(raw.len() as u64, group.runs, "{}", group.key);

        let entries: Vec<f64> = raw.iter().map(|o| o.legitimacy_entry as f64).collect();
        let mean = entries.iter().sum::<f64>() / entries.len() as f64;
        let var = entries.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / entries.len() as f64;
        let max = entries.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = entries.iter().copied().fold(f64::INFINITY, f64::min);

        assert_eq!(group.entry.count(), entries.len() as u64);
        assert_eq!(group.entry.max(), max, "{}", group.key);
        assert_eq!(group.entry.min(), min, "{}", group.key);
        assert!((group.entry.mean() - mean).abs() < 1e-9, "{}", group.key);
        assert!((group.entry.variance() - var).abs() < 1e-6, "{}", group.key);

        // Quantile sketches: exact up to 5 observations; on 16 or 40
        // observations P² must land within the observed range and near the
        // exact value.
        let mut sorted = entries.clone();
        sorted.sort_by(f64::total_cmp);
        let spread = (max - min).max(1.0);
        let exact_p50 = exact_quantile(&sorted, 0.5);
        assert!(
            (group.entry.p50() - exact_p50).abs() <= spread * 0.5,
            "{}: p50 {} vs exact {exact_p50}",
            group.key,
            group.entry.p50()
        );
        assert!(group.entry.p50() >= min && group.entry.p50() <= max);
        assert!(group.entry.p90() >= group.entry.p50() - 1e-9);

        // The independently accumulated violation counter agrees with the
        // per-cell flags.
        let naive_violations = raw.iter().filter(|o| o.violated_bound).count() as u64;
        assert_eq!(group.violations, naive_violations, "{}", group.key);

        // Feeding the same values into a fresh OnlineStats in canonical
        // order reproduces the group accumulator state exactly.
        let mut replay = OnlineStats::new();
        for &x in &entries {
            replay.push(x);
        }
        assert_eq!(replay.mean(), group.entry.mean());
        assert_eq!(replay.variance(), group.entry.variance());
        assert_eq!(replay.p50(), group.entry.p50());
        assert_eq!(replay.p90(), group.entry.p90());
        assert_eq!(replay.p99(), group.entry.p99());
    }
}

#[test]
fn moves_and_stabilization_metrics_also_aggregate_exactly() {
    let m = ScenarioMatrix::builder()
        .topologies(["ring:10"])
        .protocols(["ssme"])
        .daemons(["central-rand"])
        .fault_bursts([0])
        .seeds(0..12)
        .build();
    let r = run_campaign(&m, &CampaignConfig { threads: 3, ..Default::default() });
    let g = &r.groups[0];
    let moves: Vec<f64> =
        r.cells.iter().map(|c| c.outcome.as_ref().expect("ok").moves as f64).collect();
    let naive_mean = moves.iter().sum::<f64>() / moves.len() as f64;
    assert!((g.moves.mean() - naive_mean).abs() < 1e-9);
    assert_eq!(g.moves.max(), moves.iter().copied().fold(f64::NEG_INFINITY, f64::max));
}
