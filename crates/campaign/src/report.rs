//! Text rendering of campaign results: speculation-profile tables.
//!
//! A speculation profile (Definitions 3–4) tabulates stabilization time as
//! a function of the daemon. [`speculation_profile_table`] renders one such
//! table per (topology, protocol, fault burst) from the aggregated groups,
//! ordering daemons from the weakest class upward so the "weaker daemon ⇒
//! faster stabilization" shape is visible at a glance.

use crate::executor::{CampaignResult, GroupSummary};
use crate::matrix::InitMode;
use specstab_core::speculation::{ProfileEntry, SpeculationProfile};
use specstab_kernel::daemon::{Centrality, Fairness, Synchrony};
use std::fmt::Write as _;

/// Renders a fixed-width text table under a `## {title}` line: columns
/// padded to their widest cell, two spaces apart, a dash rule under the
/// header.
#[must_use]
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let line = |out: &mut String, cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            let pad = widths[i] - cell.chars().count();
            s.push_str(cell);
            s.extend(std::iter::repeat_n(' ', pad));
        }
        let _ = writeln!(out, "{}", s.trim_end());
    };
    line(&mut out, &headers.iter().map(|h| (*h).to_string()).collect::<Vec<_>>());
    line(&mut out, &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(&mut out, row);
    }
    out
}

fn fnum(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

/// Sort key approximating daemon power: weaker classes first, the
/// synchronous daemon at the top.
fn class_rank(g: &GroupSummary) -> (u8, String) {
    let rank = g.class.map_or(5, |c| match (c.synchrony, c.centrality, c.fairness) {
        (Synchrony::Synchronous, _, _) => 0,
        (_, Centrality::Central, Fairness::WeaklyFair) => 1,
        (_, Centrality::Central, Fairness::Unfair) => 2,
        (_, Centrality::Distributed, Fairness::WeaklyFair) => 3,
        (_, Centrality::Distributed, Fairness::Unfair) => 4,
    });
    (rank, g.daemon.clone())
}

/// Projects the groups matching one (topology, protocol, init) scenario
/// onto the paper's [`SpeculationProfile`] type, so Definition 4 verdicts
/// ([`specstab_core::speculation::check_definition4`]) can be computed
/// straight from campaign output.
#[must_use]
pub fn to_speculation_profile(
    result: &CampaignResult,
    topology: &str,
    protocol: &str,
    init: InitMode,
) -> SpeculationProfile {
    let entries = result
        .groups
        .iter()
        .filter(|g| g.topology == topology && g.protocol == protocol && g.init == init)
        .filter_map(|g| {
            let class = g.class?;
            let runs = usize::try_from(g.runs - g.errors).unwrap_or(usize::MAX);
            Some(ProfileEntry {
                daemon: g.daemon.clone(),
                class,
                runs,
                max_stabilization: g.stabilization.max() as usize,
                mean_stabilization: g.stabilization.mean(),
                converged_runs: usize::try_from(g.converged).unwrap_or(usize::MAX),
            })
        })
        .collect();
    SpeculationProfile { protocol: protocol.to_string(), graph: topology.to_string(), entries }
}

/// Renders one speculation-profile table per (topology, protocol, faults)
/// scenario: stabilization time as a function of daemon power.
#[must_use]
pub fn speculation_profile_table(result: &CampaignResult) -> String {
    // Group the groups by scenario (everything but the daemon axis).
    let mut scenarios: Vec<(String, Vec<&GroupSummary>)> = Vec::new();
    for g in &result.groups {
        let scen_key = format!("{} / {} / init={}", g.topology, g.protocol, g.init);
        match scenarios.iter_mut().find(|(k, _)| *k == scen_key) {
            Some((_, v)) => v.push(g),
            None => scenarios.push((scen_key, vec![g])),
        }
    }
    let mut out = String::new();
    for (scen, mut groups) in scenarios {
        groups.sort_by_key(|g| class_rank(g));
        let (n, diam) = (groups[0].n, groups[0].diam);
        let title = format!(
            "speculation profile: {scen}  (n={n}, diam={diam}; stabilization vs daemon power)"
        );
        let rows: Vec<Vec<String>> = groups
            .iter()
            .map(|g| {
                vec![
                    g.daemon.clone(),
                    g.class_str(),
                    g.runs.to_string(),
                    fnum(g.stabilization.max()),
                    fnum(g.stabilization.mean()),
                    fnum(g.stabilization.p90()),
                    fnum(g.entry.max()),
                    g.bound.map_or_else(|| "-".into(), |b| b.to_string()),
                    g.violations.to_string(),
                    format!("{}/{}", g.converged, g.runs - g.errors),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &title,
            &[
                "daemon",
                "class",
                "runs",
                "max stab",
                "mean stab",
                "p90 stab",
                "max Γ entry",
                "bound",
                "violations",
                "converged",
            ],
            &rows,
        ));
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "total: {} cells, {} groups, {} violations, {} errors",
        result.cells.len(),
        result.groups.len(),
        result.total_violations(),
        result.total_errors()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_campaign, CampaignConfig};
    use crate::matrix::ScenarioMatrix;

    #[test]
    fn profile_table_lists_daemons_weakest_first() {
        let m = ScenarioMatrix::builder()
            .topologies(["ring:6"])
            .protocols(["ssme"])
            .daemons(["dist:0.5", "sync", "central-rr"])
            .seeds(0..2)
            .build();
        let r = run_campaign(&m, &CampaignConfig::default());
        let table = speculation_profile_table(&r);
        let sync_at = table.find("sync ").expect("sync row");
        let rr_at = table.find("central-rr").expect("rr row");
        let dist_at = table.find("dist:0.5").expect("dist row");
        assert!(sync_at < rr_at && rr_at < dist_at, "weakest daemon first:\n{table}");
        assert!(table.contains("violations"));
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(3.0), "3");
        assert_eq!(fnum(2.5), "2.50");
    }
}
