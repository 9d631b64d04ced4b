//! Empirical validation of the paper's four theorems on the topology zoo.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_core::bounds;
use specstab_core::lower_bound::{theorem4_witness, verify_witness};
use specstab_core::spec_me::{starved_vertices, CsCounter, SpecMe};
use specstab_core::ssme::{IdAssignment, Ssme};
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{
    CentralDaemon, CentralStrategy, Daemon, RandomDistributedDaemon, SynchronousDaemon,
};
use specstab_kernel::engine::{RunLimits, Simulator};
use specstab_kernel::measure::measure_with_early_stop;
use specstab_kernel::observer::TraceRecorder;
use specstab_kernel::protocol::random_configuration;
use specstab_kernel::search::{
    build_config_graph, enumerate_all_configurations, worst_safety_stabilization, SearchDaemon,
};
use specstab_kernel::spec::{closure_violation, Specification};
use specstab_topology::metrics::DistanceMatrix;
use specstab_topology::{generators, Graph};
use specstab_unison::analysis;
use specstab_unison::clock::ClockValue;

fn zoo() -> Vec<Graph> {
    vec![
        generators::ring(8).unwrap(),
        generators::ring(9).unwrap(),
        generators::path(9).unwrap(),
        generators::star(7).unwrap(),
        generators::grid(3, 4).unwrap(),
        generators::torus(3, 4).unwrap(),
        generators::complete(6).unwrap(),
        generators::binary_tree(10).unwrap(),
        generators::petersen(),
        generators::erdos_renyi_connected(11, 0.3, 5).unwrap(),
    ]
}

type Pred = Box<dyn Fn(&Configuration<ClockValue>, &Graph) -> bool + Send>;

fn spec_preds(spec: &SpecMe) -> (Pred, Pred, Pred) {
    let s = spec.clone();
    let l = spec.clone();
    let st = spec.clone();
    (
        Box::new(move |c, g| s.is_safe(c, g)),
        Box::new(move |c, g| l.is_legitimate(c, g)),
        Box::new(move |c, g| st.is_legitimate(c, g)),
    )
}

/// Theorem 1: SSME self-stabilizes for specME under (sampled) unfair
/// distributed schedules — every run converges to Γ1 and stays safe.
#[test]
fn theorem1_self_stabilization_under_unfair_daemon() {
    for g in zoo() {
        let ssme = Ssme::for_graph(&g).unwrap();
        let spec = SpecMe::new(ssme.clone());
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = random_configuration(&g, &ssme, &mut rng);
            let mut daemons: Vec<Box<dyn Daemon<ClockValue>>> = vec![
                Box::new(RandomDistributedDaemon::new(0.3, seed)),
                Box::new(CentralDaemon::new(CentralStrategy::Random(seed))),
                Box::new(CentralDaemon::new(CentralStrategy::RoundRobin)),
            ];
            for d in &mut daemons {
                let (safe, legit, stop) = spec_preds(&spec);
                let report = measure_with_early_stop(
                    &g,
                    &ssme,
                    d.as_mut(),
                    init.clone(),
                    safe,
                    legit,
                    stop,
                    3_000_000,
                    3,
                );
                assert!(
                    report.ended_legitimate,
                    "{}: daemon {} did not converge (seed {seed})",
                    g.name(),
                    d.name()
                );
                // Safety violations must all precede legitimacy entry.
                if let Some(last) = report.last_violation {
                    assert!(last < report.legitimacy_entry, "{}", g.name());
                }
            }
        }
    }
}

/// Theorem 1 closure side: Γ1 is closed for SSME and safety holds inside.
#[test]
fn theorem1_closure_and_safety_inside_gamma_one() {
    for g in [generators::ring(7).unwrap(), generators::grid(3, 3).unwrap()] {
        let ssme = Ssme::for_graph(&g).unwrap();
        let spec = SpecMe::new(ssme.clone());
        let sim = Simulator::new(&g, &ssme);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = random_configuration(&g, &ssme, &mut rng);
            let mut d = RandomDistributedDaemon::new(0.5, seed);
            let mut tr = TraceRecorder::new();
            let _ = sim.run(init, &mut d, RunLimits::with_max_steps(60_000), &mut [&mut tr]);
            let configs = tr.configs();
            assert_eq!(closure_violation(&spec, &configs, &g), None);
            for c in &configs {
                if spec.is_legitimate(c, &g) {
                    assert!(spec.is_safe(c, &g), "{}: legitimate but unsafe", g.name());
                }
            }
        }
    }
}

/// Theorem 2: under the synchronous daemon, no safety violation occurs at
/// or after step ⌈diam/2⌉ — from random initial configurations.
#[test]
fn theorem2_sync_bound_from_random_configurations() {
    for g in zoo() {
        let dm = DistanceMatrix::new(&g);
        let bound = bounds::sync_stabilization_bound(dm.diameter()) as usize;
        let ssme = Ssme::for_graph(&g).unwrap();
        let spec = SpecMe::new(ssme.clone());
        for seed in 0..30 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = random_configuration(&g, &ssme, &mut rng);
            let mut d = SynchronousDaemon::new();
            let (safe, legit, stop) = spec_preds(&spec);
            let report =
                measure_with_early_stop(&g, &ssme, &mut d, init, safe, legit, stop, 200_000, 3);
            assert!(report.ended_legitimate, "{} seed {seed}", g.name());
            assert!(
                report.stabilization_steps <= bound,
                "{} seed {seed}: measured {} > ⌈diam/2⌉ = {bound}",
                g.name(),
                report.stabilization_steps
            );
        }
    }
}

/// Theorem 2 with permuted identities: the bound is identity-independent.
#[test]
fn theorem2_sync_bound_with_shuffled_ids() {
    for g in [generators::ring(9).unwrap(), generators::grid(3, 4).unwrap()] {
        let dm = DistanceMatrix::new(&g);
        let bound = bounds::sync_stabilization_bound(dm.diameter()) as usize;
        for id_seed in 0..5 {
            let ids = IdAssignment::shuffled(g.n(), id_seed);
            let ssme = Ssme::new(&g, dm.diameter(), ids).unwrap();
            let spec = SpecMe::new(ssme.clone());
            for seed in 0..10 {
                let mut rng = StdRng::seed_from_u64(seed * 31 + id_seed);
                let init = random_configuration(&g, &ssme, &mut rng);
                let mut d = SynchronousDaemon::new();
                let (safe, legit, stop) = spec_preds(&spec);
                let report =
                    measure_with_early_stop(&g, &ssme, &mut d, init, safe, legit, stop, 200_000, 3);
                assert!(report.stabilization_steps <= bound, "{}", g.name());
            }
        }
    }
}

/// Theorems 2 + 4 together: the adversarial witness reaches the bound
/// exactly — measured worst case == ⌈diam/2⌉ on every zoo topology.
#[test]
fn theorem4_witness_is_tight_on_zoo() {
    for g in zoo() {
        let dm = DistanceMatrix::new(&g);
        if dm.diameter() == 0 {
            continue;
        }
        let ssme = Ssme::for_graph(&g).unwrap();
        let witness = theorem4_witness(&ssme, &g, dm.diameter()).unwrap();
        let horizon = analysis::ssme_sync_gamma1_bound(g.n(), dm.diameter()) as usize + 10;
        let outcome = verify_witness(&ssme, &g, &witness, horizon);
        let bound = bounds::sync_stabilization_bound(dm.diameter()) as usize;
        assert!(outcome.both_privileged_at_t, "{}", g.name());
        assert_eq!(outcome.measured_stabilization, bound, "{}: worst case not tight", g.name());
    }
}

/// Theorem 3: measured unfair-daemon stabilization stays within the
/// 2·diam·n³ + (n+1)·n² + (n−2·diam)·n bound (and far below it for random
/// schedules).
#[test]
fn theorem3_unfair_bound_respected() {
    for g in [
        generators::ring(6).unwrap(),
        generators::path(7).unwrap(),
        generators::grid(3, 3).unwrap(),
    ] {
        let dm = DistanceMatrix::new(&g);
        let bound = bounds::unfair_stabilization_bound(g.n(), dm.diameter());
        let ssme = Ssme::for_graph(&g).unwrap();
        let spec = SpecMe::new(ssme.clone());
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = random_configuration(&g, &ssme, &mut rng);
            let mut d = RandomDistributedDaemon::new(0.4, seed);
            let (safe, legit, stop) = spec_preds(&spec);
            let report = measure_with_early_stop(
                &g,
                &ssme,
                &mut d,
                init,
                safe,
                legit,
                stop,
                usize::try_from(bound).unwrap_or(usize::MAX),
                3,
            );
            assert!(report.ended_legitimate, "{} seed {seed}", g.name());
            assert!(
                u128::try_from(report.legitimacy_entry).unwrap() <= bound,
                "{}: {} steps exceeds the Theorem 3 bound {bound}",
                g.name(),
                report.legitimacy_entry
            );
        }
    }
}

/// Liveness of specME: after stabilization every vertex keeps executing its
/// critical section (one CS per vertex per clock cycle synchronously).
#[test]
fn liveness_every_vertex_enters_critical_section() {
    for g in [generators::ring(6).unwrap(), generators::grid(3, 3).unwrap()] {
        let ssme = Ssme::for_graph(&g).unwrap();
        let sim = Simulator::new(&g, &ssme);
        let k = usize::try_from(ssme.clock().k()).unwrap();
        // Start inside Γ1 (uniform zero) and run two full cycles.
        let init = Configuration::from_fn(g.n(), |_| ssme.clock().value(0).unwrap());
        let mut d = SynchronousDaemon::new();
        let mut cs = CsCounter::new(ssme.clone(), 10_000);
        let _ = sim.run(init, &mut d, RunLimits::with_max_steps(2 * k), &mut [&mut cs]);
        assert!(starved_vertices(&cs, &g).is_empty(), "{}", g.name());
        for v in g.vertices() {
            assert_eq!(cs.cs_of(v), 2, "{}: {v} should get 2 CS in 2 cycles", g.name());
        }
    }
}

/// Liveness also holds under asynchronous schedules: no starvation over a
/// long random-distributed run from Γ1.
#[test]
fn liveness_under_unfair_schedules() {
    let g = generators::ring(5).unwrap();
    let ssme = Ssme::for_graph(&g).unwrap();
    let sim = Simulator::new(&g, &ssme);
    let init = Configuration::from_fn(g.n(), |_| ssme.clock().value(0).unwrap());
    for seed in 0..5 {
        let mut d = RandomDistributedDaemon::new(0.35, seed);
        let mut cs = CsCounter::new(ssme.clone(), 10_000);
        let _ = sim.run(init.clone(), &mut d, RunLimits::with_max_steps(30_000), &mut [&mut cs]);
        assert!(
            starved_vertices(&cs, &g).is_empty(),
            "seed {seed}: starved vertices {:?}",
            starved_vertices(&cs, &g)
        );
    }
}

/// Exhaustive Theorem 2 on a tiny instance: the exact synchronous worst
/// case over ALL configurations equals ⌈diam/2⌉.
#[test]
fn theorem2_exact_worst_case_on_tiny_path() {
    let g = generators::path(3).unwrap(); // diam 2 → bound 1
    let ssme = Ssme::for_graph(&g).unwrap();
    let spec = SpecMe::new(ssme.clone());
    let all = enumerate_all_configurations(&g, &ssme, 200_000).unwrap();
    let cg = build_config_graph(&g, &ssme, &all, SearchDaemon::Synchronous, 2_000_000).unwrap();
    let worst = worst_safety_stabilization(&cg, |c| spec.is_safe(c, &g)).unwrap();
    let max = worst.iter().max().copied().unwrap();
    let bound = bounds::sync_stabilization_bound(2) as u32;
    assert_eq!(max, bound, "exact synchronous worst case must be tight");
}

/// Exhaustive Theorem 1 safety on a tiny triangle under the full central
/// daemon game: violations can never recur forever.
#[test]
fn theorem1_exact_no_divergence_on_triangle_central() {
    let g = generators::complete(3).unwrap(); // diam 1, K = 12, α = 3
    let ssme = Ssme::for_graph(&g).unwrap();
    let spec = SpecMe::new(ssme.clone());
    let all = enumerate_all_configurations(&g, &ssme, 200_000).unwrap();
    let cg = build_config_graph(&g, &ssme, &all, SearchDaemon::Central, 5_000_000).unwrap();
    let worst = worst_safety_stabilization(&cg, |c| spec.is_safe(c, &g));
    assert!(worst.is_ok(), "central daemon must not cause unbounded specME violations: {worst:?}");
}
