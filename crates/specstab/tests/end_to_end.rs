//! Cross-crate integration: the full pipeline from topology generation to
//! theorem-level assertions, through the public facade API.

use specstab::prelude::*;

/// Builds a custom graph with the builder, runs SSME on it, and checks the
/// Theorem 2 bound plus liveness — the complete user journey.
#[test]
fn custom_graph_full_pipeline() {
    // A "bowtie with a tail": two triangles sharing a vertex, plus a path.
    let g = GraphBuilder::new(7)
        .edge(0, 1)
        .edge(1, 2)
        .edge(2, 0)
        .edge(2, 3)
        .edge(3, 4)
        .edge(4, 2)
        .edge(4, 5)
        .edge(5, 6)
        .name("bowtie+tail")
        .build_connected()
        .expect("connected by construction");
    let dm = DistanceMatrix::new(&g);
    let diam = dm.diameter();
    let ssme = Ssme::for_graph(&g).expect("nonempty");
    let spec = SpecMe::new(ssme.clone());

    for seed in 0..20 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let init = random_configuration(&g, &ssme, &mut rng);
        let mut daemon = SynchronousDaemon::new();
        let (s, l, st) = (spec.clone(), spec.clone(), spec.clone());
        let report = measure_with_early_stop(
            &g,
            &ssme,
            &mut daemon,
            init,
            Box::new(move |c, g| s.is_safe(c, g)),
            Box::new(move |c, g| l.is_legitimate(c, g)),
            Box::new(move |c, g| st.is_legitimate(c, g)),
            100_000,
            3,
        );
        assert!(report.ended_legitimate, "seed {seed}");
        assert!(
            report.stabilization_steps as u64 <= bounds::sync_stabilization_bound(diam),
            "seed {seed}: Theorem 2 violated on a custom graph"
        );
    }
}

/// The lower-bound witness is tight on a custom irregular graph too.
#[test]
fn theorem4_tight_on_custom_graph() {
    let g = GraphBuilder::new(9)
        .edge(0, 1)
        .edge(1, 2)
        .edge(2, 3)
        .edge(3, 4)
        .edge(4, 5)
        .edge(5, 6)
        .edge(6, 7)
        .edge(7, 8)
        .edge(2, 5) // a chord
        .name("chorded-path")
        .build_connected()
        .expect("connected");
    let dm = DistanceMatrix::new(&g);
    let ssme = Ssme::for_graph(&g).expect("nonempty");
    let w = theorem4_witness(&ssme, &g, dm.diameter()).expect("diam >= 1");
    let outcome = verify_witness(&ssme, &g, &w, 500);
    assert!(outcome.both_privileged_at_t);
    assert_eq!(
        outcome.measured_stabilization as u64,
        bounds::sync_stabilization_bound(dm.diameter())
    );
}

/// Permuted identities: the whole pipeline is identity-oblivious.
#[test]
fn shuffled_identities_preserve_all_guarantees() {
    let g = generators::torus(3, 4).expect("valid dimensions");
    let dm = DistanceMatrix::new(&g);
    for id_seed in 0..4 {
        let ids = IdAssignment::shuffled(g.n(), id_seed);
        let ssme = Ssme::new(&g, dm.diameter(), ids).expect("valid ids");
        let spec = SpecMe::new(ssme.clone());
        let w = theorem4_witness(&ssme, &g, dm.diameter()).expect("diam >= 1");
        let outcome = verify_witness(&ssme, &g, &w, 500);
        assert!(outcome.both_privileged_at_t, "id seed {id_seed}");
        assert_eq!(
            outcome.measured_stabilization as u64,
            bounds::sync_stabilization_bound(dm.diameter()),
            "id seed {id_seed}"
        );
        // And liveness from a legitimate start.
        let init = Configuration::from_fn(g.n(), |_| ssme.clock().value(0).expect("0 ok"));
        assert!(spec.is_legitimate(&init, &g));
    }
}

/// Unison and SSME agree step by step: SSME *is* the unison with a bigger
/// clock (the privileged predicate does not interfere).
#[test]
fn ssme_executes_exactly_like_its_unison() {
    let g = generators::ring(6).expect("valid ring");
    let ssme = Ssme::for_graph(&g).expect("nonempty");
    let unison = AsyncUnison::new(ssme.clock());
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let init = random_configuration(&g, &ssme, &mut rng);

    let sim_ssme = Simulator::new(&g, &ssme);
    let sim_unison = Simulator::new(&g, &unison);
    let mut cfg_a = init.clone();
    let mut cfg_b = init;
    for _ in 0..200 {
        let ea = sim_ssme.enabled_vertices(&cfg_a);
        let eb = sim_unison.enabled_vertices(&cfg_b);
        assert_eq!(ea, eb, "enabled sets must agree");
        if ea.is_empty() {
            break;
        }
        cfg_a = sim_ssme.apply_action(&cfg_a, &ea).0;
        cfg_b = sim_unison.apply_action(&cfg_b, &eb).0;
        assert_eq!(cfg_a, cfg_b, "configurations must agree");
    }
}

/// The three baseline protocols and SSME coexist on the same graph types
/// and all stabilize under the same daemon implementations.
#[test]
fn all_protocols_stabilize_on_a_ring() {
    let n = 8;
    let g = generators::ring(n).expect("valid ring");

    // SSME.
    let ssme = Ssme::for_graph(&g).expect("nonempty");
    let spec = SpecMe::new(ssme.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let init = random_configuration(&g, &ssme, &mut rng);
    let mut d = RandomDistributedDaemon::new(0.5, 1);
    let (s, l, st) = (spec.clone(), spec.clone(), spec);
    let r = measure_with_early_stop(
        &g,
        &ssme,
        &mut d,
        init,
        Box::new(move |c, g| s.is_safe(c, g)),
        Box::new(move |c, g| l.is_legitimate(c, g)),
        Box::new(move |c, g| st.is_legitimate(c, g)),
        2_000_000,
        3,
    );
    assert!(r.ended_legitimate, "SSME");

    // Dijkstra.
    let dij = DijkstraRing::new(&g, n as u64).expect("K = n");
    let dspec = DijkstraSpec::new(dij.clone());
    let init = random_configuration(&g, &dij, &mut rng);
    let mut d = RandomDistributedDaemon::new(0.5, 2);
    let (s, l, st) = (dspec.clone(), dspec.clone(), dspec);
    let r = measure_with_early_stop(
        &g,
        &dij,
        &mut d,
        init,
        Box::new(move |c, g| s.is_safe(c, g)),
        Box::new(move |c, g| l.is_legitimate(c, g)),
        Box::new(move |c, g| st.is_legitimate(c, g)),
        1_000_000,
        3,
    );
    assert!(r.ended_legitimate, "Dijkstra");

    // min+1 BFS.
    let bfs = MinPlusOneBfs::new(&g, VertexId::new(0));
    let bspec = BfsSpec::new(&g, VertexId::new(0));
    let init = random_configuration(&g, &bfs, &mut rng);
    let sim = Simulator::new(&g, &bfs);
    let mut d = RandomDistributedDaemon::new(0.5, 3);
    let summary = sim.run(init, &mut d, RunLimits::with_max_steps(100_000), &mut []);
    assert_eq!(summary.stop, StopReason::Terminal, "BFS");
    assert!(bspec.is_legitimate(&summary.final_config, &g));

    // Maximal matching.
    let mm = MaximalMatching::new(&g);
    let mspec = MatchingSpec::new(mm.clone());
    let init = random_configuration(&g, &mm, &mut rng);
    let sim = Simulator::new(&g, &mm);
    let mut d = RandomDistributedDaemon::new(0.5, 4);
    let summary = sim.run(init, &mut d, RunLimits::with_max_steps(100_000), &mut []);
    assert_eq!(summary.stop, StopReason::Terminal, "matching");
    assert!(mspec.is_legitimate(&summary.final_config, &g));
}
