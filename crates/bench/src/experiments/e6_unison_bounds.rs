//! E6 — the substrate bounds the Theorem 2 proof leans on: synchronous
//! unison stabilization within `α + lcp(g) + diam(g)` steps (the paper's
//! `[3]`), and SSME's `Γ1` entry within `2n + diam(g)` synchronous steps
//! (Case 3 of the Theorem 2 proof).
//!
//! The SSME table runs on the campaign engine. The unison is no registered
//! protocol, so its table measures runs with the kernel's full-scan
//! `measure_with_early_stop`.

use super::{Experiment, ExperimentResult, RunConfig};
use crate::table::Table;
use crate::zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_campaign::executor::{run_campaign, CampaignConfig};
use specstab_campaign::matrix::ScenarioMatrix;
use specstab_kernel::daemon::SynchronousDaemon;
use specstab_kernel::measure::measure_with_early_stop;
use specstab_kernel::protocol::random_configuration;
use specstab_kernel::spec::Specification;
use specstab_topology::chordless::{self, SearchBudget};
use specstab_topology::metrics;
use specstab_unison::params::safe_params;
use specstab_unison::{analysis, AsyncUnison, SpecAu};

/// Unison bounds experiment.
pub struct E6;

impl Experiment for E6 {
    fn id(&self) -> &'static str {
        "e6"
    }
    fn title(&self) -> &'static str {
        "substrate bounds: α+lcp+diam (unison) and 2n+diam (SSME Γ1 entry)"
    }
    fn paper_artifact(&self) -> &'static str {
        "Section 4.3, Theorem 2 proof Case 3 (via [3] Boulinier et al.)"
    }

    fn run(&self, cfg: &RunConfig) -> ExperimentResult {
        let scale = if cfg.quick { 1 } else { 2 };
        let runs = if cfg.quick { 8 } else { 40 };
        let mut unison_t = Table::new(
            "asynchronous unison under sd: measured Γ1 entry vs α + lcp + diam",
            &["graph", "α", "lcp", "diam", "bound", "measured max", "within"],
        );
        let mut all_hold = true;
        for g in zoo::standard(scale) {
            let diam = metrics::diameter(&g);
            // Unison with safe parameters (α = n, K = n + 1).
            let params = safe_params(g.n());
            let clock = params.clock().expect("safe parameters are valid");
            let unison = AsyncUnison::new(clock);
            let spec = SpecAu::new(clock);
            let lcp = chordless::longest_chordless_path(&g, SearchBudget::default())
                .expect("zoo graphs are small enough for exact lcp");
            let bound = analysis::sync_stabilization_bound(params.alpha, lcp, diam);
            let mut max_entry = 0usize;
            for i in 0..runs {
                let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(i));
                let init = random_configuration(&g, &unison, &mut rng);
                let mut d = SynchronousDaemon::new();
                let r = measure_with_early_stop(
                    &g,
                    &unison,
                    &mut d,
                    init,
                    Box::new(move |c, g| spec.is_safe(c, g)),
                    Box::new(move |c, g| spec.is_legitimate(c, g)),
                    Box::new(move |c, g| spec.is_legitimate(c, g)),
                    200_000,
                    3,
                );
                max_entry = max_entry.max(r.legitimacy_entry);
            }
            let within = (max_entry as u64) <= bound;
            all_hold &= within;
            unison_t.push_row(vec![
                g.name().to_string(),
                params.alpha.to_string(),
                lcp.to_string(),
                diam.to_string(),
                bound.to_string(),
                max_entry.to_string(),
                within.to_string(),
            ]);
        }

        // SSME Γ1 entry vs 2n + diam, on the campaign engine.
        let ssme = run_campaign(
            &ScenarioMatrix::builder()
                .topologies(zoo::standard_specs(scale))
                .protocols(["ssme"])
                .daemons(["sync"])
                .fault_bursts([0])
                .seeds(0..runs)
                .build(),
            &CampaignConfig { seed: cfg.seed, ..Default::default() },
        );
        let mut ssme_t = Table::new(
            "SSME under sd: measured Γ1 entry vs 2n + diam",
            &["graph", "n", "diam", "bound 2n+diam", "measured max", "within"],
        );
        for g in &ssme.groups {
            let ssme_bound = analysis::ssme_sync_gamma1_bound(g.n, g.diam);
            let ssme_max = g.entry.max() as u64;
            let within = g.errors == 0 && ssme_max <= ssme_bound;
            all_hold &= within;
            ssme_t.push_row(vec![
                g.topology.clone(),
                g.n.to_string(),
                g.diam.to_string(),
                ssme_bound.to_string(),
                ssme_max.to_string(),
                within.to_string(),
            ]);
        }
        ExperimentResult {
            id: self.id().into(),
            title: self.title().into(),
            paper_artifact: self.paper_artifact().into(),
            tables: vec![unison_t, ssme_t],
            notes: vec!["claim ([3], used in Theorem 2 Case 3): synchronous unison reaches Γ1 \
                 within α + lcp(g) + diam(g) steps, hence SSME within 2n + diam(g); \
                 measured maxima respect both bounds on every topology"
                .into()],
            all_claims_hold: all_hold,
        }
    }
}
