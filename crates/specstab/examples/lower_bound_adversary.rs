//! The Theorem 4 adversary, visualized.
//!
//! Constructs the paper's lower-bound witness on a path: two constant-clock
//! balls around the endpoints `u` and `v`, each holding `privilege − t`,
//! with incoherent filler between them. Watch the reset waves erode the
//! balls one layer per step while both centers tick — until, at step
//! `t = ⌈diam/2⌉ − 1`, **both hold the privilege at once**. No deterministic
//! protocol can avoid this: information travels one hop per step.
//!
//! Run with: `cargo run --release --example lower_bound_adversary`

use specstab::prelude::*;

fn main() {
    let g = generators::path(11).expect("valid path"); // diam 10, t = 4
    let diam = metrics::diameter(&g);
    let ssme = Ssme::for_graph(&g).expect("nonempty graph");
    let witness = theorem4_witness(&ssme, &g, diam).expect("diam >= 1");

    println!("graph: {g} (diam = {diam})");
    println!(
        "witness: u = {}, v = {}, t = {} (= ceil(diam/2) - 1), privileges at r_u = {}, r_v = {}",
        witness.u,
        witness.v,
        witness.t,
        ssme.privilege_value(witness.u),
        ssme.privilege_value(witness.v),
    );
    println!();

    // Run synchronously, recording the trace.
    let sim = Simulator::new(&g, &ssme);
    let mut daemon = SynchronousDaemon::new();
    let mut trace = TraceRecorder::new();
    let _ = sim.run(
        witness.init.clone(),
        &mut daemon,
        RunLimits::with_max_steps(witness.t + 3),
        &mut [&mut trace],
    );

    println!("clock registers along the path (P = privileged):");
    for (i, cfg) in trace.configs().iter().enumerate() {
        let cells: Vec<String> = g
            .vertices()
            .map(|x| {
                let mark = if ssme.is_privileged(x, cfg) { "P" } else { " " };
                format!("{:>4}{mark}", cfg.get(x).raw())
            })
            .collect();
        let privileged = ssme.privileged_vertices(cfg);
        println!(
            "  γ_{i:<2} [{}]  privileged: {}",
            cells.join(""),
            privileged.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
        );
    }
    println!();

    let outcome = verify_witness(&ssme, &g, &witness, 200);
    println!("both u and v privileged at γ_{}: {}", witness.t, outcome.both_privileged_at_t);
    println!(
        "last safety violation at step {:?} → measured stabilization {} = ceil(diam/2) = {}",
        outcome.last_violation,
        outcome.measured_stabilization,
        bounds::sync_stabilization_bound(diam)
    );
    assert!(outcome.both_privileged_at_t);
    assert_eq!(
        outcome.measured_stabilization as u64,
        bounds::sync_stabilization_bound(diam),
        "the witness must be tight"
    );
}
