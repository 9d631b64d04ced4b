//! Definition 4 verified end to end: SSME is *deliberately* speculatively
//! stabilizing; Dijkstra's protocol is *accidentally* so (Section 3).

use specstab::prelude::*;

/// The speculation profile of `protocol` on `ring:n` under the synchronous,
/// a random distributed and the random central daemon, each from 8 random
/// full bursts on the campaign engine, and the ring's diameter.
fn ring_profile(protocol: &str, n: usize) -> (SpeculationProfile, u32) {
    let ring = format!("ring:{n}");
    let result = run_campaign(
        &ScenarioMatrix::builder()
            .topologies([ring.clone()])
            .protocols([protocol])
            .daemons(["sync", "dist:0.5", "central-rand"])
            .fault_bursts([0])
            .seeds(0..8)
            .build(),
        &CampaignConfig::default(),
    );
    assert_eq!(result.total_errors(), 0, "{protocol} on {ring}");
    (to_speculation_profile(&result, &ring, protocol, InitMode::Burst(0)), result.groups[0].diam)
}

#[test]
fn ssme_satisfies_definition4_on_rings() {
    for n in [6usize, 9, 12] {
        let (prof, diam) = ring_profile("ssme", n);
        // The display renders a header and one line per daemon.
        assert_eq!(prof.to_string().lines().count(), 4, "{prof}");
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
        let (prof, _) = ring_profile("dijkstra", n);
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
    let (prof, diam) = ring_profile("ssme", 10);
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
