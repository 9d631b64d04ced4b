//! Property-based tests for SSME invariants across random topologies,
//! identities and initial configurations.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use specstab_core::bounds;
use specstab_core::lower_bound::{theorem4_witness, verify_witness};
use specstab_core::spec_me::SpecMe;
use specstab_core::ssme::{IdAssignment, Ssme};
use specstab_kernel::daemon::SynchronousDaemon;
use specstab_kernel::engine::{RunLimits, Simulator};
use specstab_kernel::protocol::random_configuration;
use specstab_kernel::spec::Specification;
use specstab_topology::generators;
use specstab_topology::metrics::DistanceMatrix;
use specstab_topology::Graph;
use specstab_unison::analysis;

fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (2usize..12, 0.0f64..0.5, any::<u64>()).prop_map(|(n, p, seed)| {
        generators::erdos_renyi_connected(n, p, seed).expect("valid parameters")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn clock_parameters_match_the_paper_formula(g in arbitrary_graph()) {
        let dm = DistanceMatrix::new(&g);
        let ssme = Ssme::for_graph(&g).expect("nonempty");
        let n = g.n() as i64;
        let d = i64::from(dm.diameter());
        prop_assert_eq!(ssme.clock().alpha(), n);
        prop_assert_eq!(ssme.clock().k(), (2 * n - 1) * (d + 1) + 2);
    }

    #[test]
    fn privilege_slots_are_distinct_and_in_stab(g in arbitrary_graph(), id_seed in any::<u64>()) {
        let dm = DistanceMatrix::new(&g);
        let ids = IdAssignment::shuffled(g.n(), id_seed);
        let ssme = Ssme::new(&g, dm.diameter(), ids).expect("valid ids");
        let clock = ssme.clock();
        let mut slots: Vec<i64> = g.vertices().map(|v| ssme.privilege_value(v).raw()).collect();
        for &s in &slots {
            prop_assert!(clock.is_stab(clock.value(s).expect("slot in domain")));
        }
        slots.sort_unstable();
        slots.dedup();
        prop_assert_eq!(slots.len(), g.n(), "privilege slots must be distinct");
    }

    #[test]
    fn gamma1_implies_at_most_one_privilege(g in arbitrary_graph(), seed in any::<u64>()) {
        // Sample configurations *inside* Γ1 by running the protocol there,
        // then assert the Theorem 1 safety argument on each.
        let ssme = Ssme::for_graph(&g).expect("nonempty");
        let spec = SpecMe::new(ssme.clone());
        let sim = Simulator::new(&g, &ssme);
        let clock = ssme.clock();
        // Start from a drift-1 gradient inside Γ1 (BFS layers mod K).
        let dm = DistanceMatrix::new(&g);
        let root = specstab_topology::VertexId::new(0);
        let mut cfg = specstab_kernel::Configuration::from_fn(g.n(), |v| {
            clock.value(i64::from(dm.dist(root, v)) % clock.k()).expect("in domain")
        });
        prop_assert!(spec.is_legitimate(&cfg, &g));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..60 {
            prop_assert!(spec.is_safe(&cfg, &g), "two privileges inside Γ1");
            let enabled = sim.enabled_vertices(&cfg);
            if enabled.is_empty() {
                break;
            }
            // Random nonempty subset: an unfair-distributed schedule.
            use rand::seq::SliceRandom;
            let k = rng.gen_range(1..=enabled.len());
            let mut subset = enabled.clone();
            subset.shuffle(&mut rng);
            subset.truncate(k);
            subset.sort_unstable();
            cfg = sim.apply_action(&cfg, &subset).0;
            prop_assert!(spec.is_legitimate(&cfg, &g), "Γ1 must be closed");
        }
    }

    #[test]
    fn theorem2_holds_from_random_configurations(g in arbitrary_graph(), seed in any::<u64>()) {
        let dm = DistanceMatrix::new(&g);
        let bound = bounds::sync_stabilization_bound(dm.diameter()) as usize;
        let ssme = Ssme::for_graph(&g).expect("nonempty");
        let spec = SpecMe::new(ssme.clone());
        let sim = Simulator::new(&g, &ssme);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let init = random_configuration(&g, &ssme, &mut rng);
        let horizon = analysis::ssme_sync_gamma1_bound(g.n(), dm.diameter()) as usize + 8;
        let mut daemon = SynchronousDaemon::new();
        let mut safety = specstab_kernel::observer::SafetyMonitor::new({
            let s = spec.clone();
            Box::new(move |c, g| s.is_safe(c, g))
        });
        let _ = sim.run(init, &mut daemon, RunLimits::with_max_steps(horizon), &mut [&mut safety]);
        prop_assert!(
            safety.measured_stabilization() <= bound,
            "measured {} > bound {bound}",
            safety.measured_stabilization()
        );
    }

    #[test]
    fn theorem4_witness_always_tight(g in arbitrary_graph()) {
        let dm = DistanceMatrix::new(&g);
        prop_assume!(dm.diameter() >= 1);
        let ssme = Ssme::for_graph(&g).expect("nonempty");
        let w = theorem4_witness(&ssme, &g, dm.diameter()).expect("diam >= 1");
        let horizon = analysis::ssme_sync_gamma1_bound(g.n(), dm.diameter()) as usize + 8;
        let outcome = verify_witness(&ssme, &g, &w, horizon);
        prop_assert!(outcome.both_privileged_at_t, "{}", g.name());
        prop_assert_eq!(
            outcome.measured_stabilization as u64,
            bounds::sync_stabilization_bound(dm.diameter()),
            "witness not tight on {}", g.name()
        );
    }
}
