//! Definition 4 verified end to end: SSME is *deliberately* speculatively
//! stabilizing; Dijkstra's protocol is *accidentally* so (Section 3).

use specstab::prelude::*;

fn ssme_profile(n: usize, runs: usize) -> (SpeculationProfile, u32) {
    let g = generators::ring(n).expect("valid ring");
    let dm = DistanceMatrix::new(&g);
    let ssme = Ssme::for_graph(&g).expect("nonempty");
    let spec = SpecMe::new(ssme.clone());
    let inits: Vec<Configuration<ClockValue>> = (0..runs as u64)
        .map(|s| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(s);
            random_configuration(&g, &ssme, &mut rng)
        })
        .collect();
    let mut daemons: Vec<Box<dyn Daemon<ClockValue>>> = vec![
        Box::new(SynchronousDaemon::new()),
        Box::new(RandomDistributedDaemon::new(0.5, 11)),
        Box::new(CentralDaemon::new(CentralStrategy::Random(11))),
    ];
    let (s, l) = (spec.clone(), spec);
    let prof = profile(
        &g,
        &ssme,
        &mut daemons,
        &inits,
        &move || {
            let s = s.clone();
            Box::new(move |c: &_, g: &_| s.is_safe(c, g))
        },
        &move || {
            let l = l.clone();
            Box::new(move |c: &_, g: &_| l.is_legitimate(c, g))
        },
        2_000_000,
        3,
    );
    (prof, dm.diameter())
}

#[test]
fn ssme_satisfies_definition4_on_rings() {
    for n in [6usize, 9, 12] {
        let (prof, diam) = ssme_profile(n, 8);
        let verdict = check_definition4(
            &prof,
            DaemonClass::unfair_distributed(),
            DaemonClass::synchronous(),
            bounds::sync_stabilization_bound(diam),
        );
        assert!(verdict.holds(), "ring-{n}: {verdict:?}");
    }
}

#[test]
fn dijkstra_satisfies_definition4_on_rings() {
    // Section 3: Dijkstra's protocol is (ud, sd, n², n)-speculatively
    // stabilizing — verify the empirical side with the exact 2n−3 sd law.
    for n in [6usize, 10] {
        let g = generators::ring(n).expect("valid ring");
        let p = DijkstraRing::new(&g, n as u64).expect("K = n");
        let spec = DijkstraSpec::new(p.clone());
        let inits: Vec<Configuration<u64>> = (0..8u64)
            .map(|s| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(s);
                random_configuration(&g, &p, &mut rng)
            })
            .collect();
        let mut daemons: Vec<Box<dyn Daemon<u64>>> = vec![
            Box::new(SynchronousDaemon::new()),
            Box::new(RandomDistributedDaemon::new(0.5, 13)),
            Box::new(CentralDaemon::new(CentralStrategy::Random(13))),
        ];
        let (s, l) = (spec.clone(), spec);
        let prof = profile(
            &g,
            &p,
            &mut daemons,
            &inits,
            &move || {
                let s = s.clone();
                Box::new(move |c: &_, g: &_| s.is_safe(c, g))
            },
            &move || {
                let l = l.clone();
                Box::new(move |c: &_, g: &_| l.is_legitimate(c, g))
            },
            1_000_000,
            3,
        );
        let verdict = check_definition4(
            &prof,
            DaemonClass::unfair_distributed(),
            DaemonClass::synchronous(),
            (2 * n - 3) as u64,
        );
        assert!(verdict.holds(), "ring-{n}: {verdict:?}");
    }
}

#[test]
fn ssme_beats_dijkstra_in_the_speculated_case() {
    // The headline: on rings, SSME's synchronous worst case (tight, via the
    // Theorem 4 witness) is strictly below Dijkstra's exact 2n−3 law.
    for n in [8usize, 16, 32] {
        let g = generators::ring(n).expect("valid ring");
        let dm = DistanceMatrix::new(&g);
        let ssme = Ssme::for_graph(&g).expect("nonempty");
        let w = theorem4_witness(&ssme, &g, dm.diameter()).expect("diam >= 1");
        let outcome = verify_witness(
            &ssme,
            &g,
            &w,
            analysis::ssme_sync_gamma1_bound(n, dm.diameter()) as usize + 16,
        );
        let ssme_worst = outcome.measured_stabilization;
        let dijkstra_worst = 2 * n - 3;
        assert!(
            ssme_worst < dijkstra_worst,
            "n={n}: SSME {ssme_worst} !< Dijkstra {dijkstra_worst}"
        );
    }
}

#[test]
fn daemon_partial_order_drives_stabilization_monotonicity() {
    // conv_time(π, d') ≤ conv_time(π, d) when d' ⪯ d: the synchronous
    // entry never exceeds the sampled distributed worst case by more than
    // the sampling noise — here we check the ordering of the *bounds*.
    let (prof, diam) = ssme_profile(10, 8);
    let sd = prof.entry_for(DaemonClass::synchronous()).expect("measured");
    assert!(
        (sd.max_stabilization as u64) <= bounds::sync_stabilization_bound(diam),
        "sd worst {} above its own bound",
        sd.max_stabilization
    );
    // The theoretical strong-daemon bound dominates the weak-daemon bound.
    assert!(
        bounds::unfair_stabilization_bound(10, diam)
            >= u128::from(bounds::sync_stabilization_bound(diam))
    );
}
