//! SSME under the full daemon matrix — including the weakly-fair and
//! k-bounded schedulers — and on topologies loaded from the edge-list
//! format. Every combination must converge; synchronous runs must respect
//! Theorem 2.

use specstab::kernel::daemon::{KBoundedDaemon, OldestFirstDaemon};
use specstab::prelude::*;
use specstab::topology::io;

fn daemon_matrix(seed: u64) -> Vec<Box<dyn Daemon<ClockValue>>> {
    vec![
        Box::new(SynchronousDaemon::new()),
        Box::new(CentralDaemon::new(CentralStrategy::RoundRobin)),
        Box::new(CentralDaemon::new(CentralStrategy::Random(seed))),
        Box::new(CentralDaemon::new(CentralStrategy::MinId)),
        Box::new(CentralDaemon::new(CentralStrategy::MaxId)),
        Box::new(OldestFirstDaemon::new()),
        Box::new(RandomDistributedDaemon::new(0.3, seed)),
        Box::new(RandomDistributedDaemon::new(0.9, seed)),
        Box::new(KBoundedDaemon::new(3, 0.3, seed)),
    ]
}

#[test]
fn ssme_converges_under_every_daemon_in_the_matrix() {
    let g = generators::grid(3, 3).expect("valid dimensions");
    let ssme = Ssme::for_graph(&g).expect("nonempty");
    let spec = SpecMe::new(ssme.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let init = random_configuration(&g, &ssme, &mut rng);
    for d in &mut daemon_matrix(77) {
        let (s, l, st) = (spec.clone(), spec.clone(), spec.clone());
        let report = measure_with_early_stop(
            &g,
            &ssme,
            d.as_mut(),
            init.clone(),
            Box::new(move |c, g| s.is_safe(c, g)),
            Box::new(move |c, g| l.is_legitimate(c, g)),
            Box::new(move |c, g| st.is_legitimate(c, g)),
            5_000_000,
            3,
        );
        assert!(report.ended_legitimate, "daemon {} did not converge", d.name());
        // Every safety violation precedes legitimacy entry (Theorem 1).
        if let Some(last) = report.last_violation {
            assert!(last < report.legitimacy_entry, "daemon {}", d.name());
        }
    }
}

#[test]
fn min_and_max_id_daemons_are_valid_unfair_schedules() {
    // MinId/MaxId are extreme starvation strategies; the unison's guard
    // structure must still force progress for everyone.
    let g = generators::ring(6).expect("valid ring");
    let ssme = Ssme::for_graph(&g).expect("nonempty");
    let sim = Simulator::new(&g, &ssme);
    let init = Configuration::from_fn(g.n(), |_| ssme.clock().value(0).expect("in domain"));
    for strategy in [CentralStrategy::MinId, CentralStrategy::MaxId] {
        let mut d = CentralDaemon::new(strategy);
        let mut cs = CsCounter::new(ssme.clone(), 1_000);
        let _ = sim.run(init.clone(), &mut d, RunLimits::with_max_steps(20_000), &mut [&mut cs]);
        assert!(
            starved_vertices(&cs, &g).is_empty(),
            "unfair central schedule starved someone — unison must forbid that"
        );
    }
}

#[test]
fn custom_edge_list_topology_end_to_end() {
    // A "kite" graph written in the plain-text format, parsed, then run.
    let text = "\
# name: kite
n 6
0 1
0 2
1 2
1 3
2 3
3 4
4 5
";
    let g = io::parse_edge_list(text).expect("well-formed edge list");
    assert_eq!(g.name(), "kite");
    assert!(g.is_connected());
    let dm = DistanceMatrix::new(&g);
    let ssme = Ssme::for_graph(&g).expect("nonempty");
    let spec = SpecMe::new(ssme.clone());
    for seed in 0..10 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let init = random_configuration(&g, &ssme, &mut rng);
        let mut d = SynchronousDaemon::new();
        let (s, l, st) = (spec.clone(), spec.clone(), spec.clone());
        let report = measure_with_early_stop(
            &g,
            &ssme,
            &mut d,
            init,
            Box::new(move |c, g| s.is_safe(c, g)),
            Box::new(move |c, g| l.is_legitimate(c, g)),
            Box::new(move |c, g| st.is_legitimate(c, g)),
            100_000,
            3,
        );
        assert!(report.ended_legitimate, "seed {seed}");
        assert!(
            report.stabilization_steps as u64 <= bounds::sync_stabilization_bound(dm.diameter()),
            "seed {seed}: Theorem 2 on a parsed custom graph"
        );
    }
    // The witness is tight here too.
    let w = theorem4_witness(&ssme, &g, dm.diameter()).expect("diam >= 1");
    let outcome = verify_witness(&ssme, &g, &w, 500);
    assert!(outcome.both_privileged_at_t);
    assert_eq!(
        outcome.measured_stabilization as u64,
        bounds::sync_stabilization_bound(dm.diameter())
    );
}

#[test]
fn round_trip_custom_graph_through_edge_list() {
    let g = GraphBuilder::new(5)
        .edge(0, 1)
        .edge(1, 2)
        .edge(2, 3)
        .edge(3, 4)
        .edge(4, 0)
        .edge(0, 2)
        .name("house")
        .build_connected()
        .expect("connected");
    let text = io::to_edge_list(&g);
    let back = io::parse_edge_list(&text).expect("round trip");
    assert_eq!(back, g);
}
