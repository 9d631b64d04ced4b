//! Speculation profiles: stabilization time as a function of the daemon.
//!
//! The paper's central conceptual move (Definition 4) is to read the
//! stabilization time not as one number but as a *function of the
//! adversary*. This example samples SSME on a ring under four daemons on
//! the campaign engine and prints the Definition 4 verdict: SSME is
//! `(ud, sd, diam·n³, ⌈diam/2⌉)`-speculatively stabilizing.
//!
//! Run with: `cargo run --release --example speculation_profile`

use specstab::prelude::*;

fn main() {
    let ring = "ring:12";
    // The same 12 seeds, hence the same arbitrary initial configurations,
    // under every daemon.
    let result = run_campaign(
        &ScenarioMatrix::builder()
            .topologies([ring])
            .protocols(["ssme"])
            .daemons(["sync", "dist:0.5", "central-rand", "central-rr"])
            .fault_bursts([0])
            .seeds(0..12)
            .build(),
        &CampaignConfig::default(),
    );
    let prof = to_speculation_profile(&result, ring, "ssme", InitMode::Burst(0));
    println!("{prof}");

    let bound = bounds::sync_stabilization_bound(result.groups[0].diam);
    let verdict = check_definition4(
        &prof,
        DaemonClass::unfair_distributed(),
        DaemonClass::synchronous(),
        bound,
    );
    println!("Definition 4 checks for (d = ud, d' = sd, f' = ceil(diam/2) = {bound}):");
    println!("  sd strictly below ud in the daemon order: {}", verdict.daemons_ordered);
    println!("  self-stabilizing under ud (sampled):      {}", verdict.stabilizes_under_strong);
    println!(
        "  sd worst case {} within claimed f' = {}:   {}",
        verdict.weak_measured, verdict.weak_claimed, verdict.weak_within_claimed_bound
    );
    println!(
        "=> SSME is sd-speculatively stabilizing: {}",
        if verdict.holds() { "CONFIRMED" } else { "REFUTED" }
    );
    assert!(verdict.holds());
}
