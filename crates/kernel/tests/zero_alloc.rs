//! Acceptance test for the zero-allocation stepping core: steady-state
//! steps perform **zero configuration clones**, proven by the
//! `config_clones` counter of the process-wide telemetry aggregate
//! ([`specstab_telemetry::global`]) — the promotion of the old test-only
//! clone counter into the first-class engine counters.
//!
//! The counters are process-global, so everything here lives in one
//! `#[test]` (this file is its own test binary — no other test pollutes
//! the snapshot deltas).

use rand::rngs::StdRng;
use rand::Rng;
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{CentralDaemon, CentralStrategy, SynchronousDaemon};
use specstab_kernel::engine::{RunLimits, Simulator, StepScratch, StopReason};
use specstab_kernel::protocol::{Protocol, RuleId, RuleInfo, View};
use specstab_telemetry::global;
use specstab_topology::{generators, VertexId};

/// Unison-like toy: every vertex increments its clock modulo `m` while it
/// is not ahead of the minimum of its closed neighborhood — never
/// terminates, so every step is steady state.
struct SpinProto {
    m: u32,
}

impl Protocol for SpinProto {
    type State = u32;
    fn name(&self) -> String {
        "spin".into()
    }
    fn rules(&self) -> Vec<RuleInfo> {
        vec![RuleInfo::new("TICK")]
    }
    fn enabled_rule(&self, view: &View<'_, u32>) -> Option<RuleId> {
        let me = *view.state();
        let min = view.neighbor_states().map(|(_, &s)| s).min().unwrap_or(me).min(me);
        (me == min).then_some(RuleId::new(0))
    }
    fn apply(&self, view: &View<'_, u32>, _rule: RuleId) -> u32 {
        (*view.state() + 1) % self.m
    }
    fn random_state(&self, _v: VertexId, rng: &mut StdRng) -> u32 {
        rng.gen_range(0..self.m)
    }
}

/// Asserts zero steady-state configuration clones for both the synchronous
/// and the central round-robin daemon on `g`, reusing `scratch` the way a
/// batch driver would.
fn assert_zero_steady_state_clones(
    g: &specstab_topology::Graph,
    steps: usize,
    scratch: &mut StepScratch<u32>,
) {
    let proto = SpinProto { m: 64 };
    let sim = Simulator::new(g, &proto);
    let init = Configuration::from_fn(g.n(), |_| 0u32);

    // --- Synchronous daemon, no observers: the acceptance scenario. ---
    let mut daemon = SynchronousDaemon::new();
    // Warm-up run sizes every scratch buffer.
    let warm = sim.run_with_scratch(
        init.clone(),
        &mut daemon,
        RunLimits::with_max_steps(8),
        &mut [],
        scratch,
    );
    assert_eq!(warm.stop, StopReason::MaxSteps, "spin protocol never terminates");

    let run_init = init.clone();
    let before = global().snapshot();
    let s = sim.run_with_scratch(
        run_init,
        &mut daemon,
        RunLimits::with_max_steps(steps),
        &mut [],
        scratch,
    );
    let after = global().snapshot().delta(&before);
    assert_eq!(s.steps, steps);
    assert_eq!(
        after.config_clones,
        0,
        "{}: synchronous steady state must not clone configurations ({} clones / {} steps)",
        g.name(),
        after.config_clones,
        s.steps
    );
    // The same snapshot delta also proves the cross-run scratch reuse
    // instrument; the run's own counters carry its steps and moves.
    assert_eq!(s.counters.steps, s.steps as u64, "per-run counters mirror the summary");
    assert_eq!(s.counters.moves, s.moves, "per-run counters mirror the summary");
    assert!(after.scratch_reuses >= 1, "warmed scratch must be detected as reused");

    // --- Central round-robin: exercises the incremental enabled-set merge
    // (and, on large instances, the stamp-based touched-set path with a
    // sparse selection). ---
    let mut central = CentralDaemon::new(CentralStrategy::RoundRobin);
    let _ = sim.run_with_scratch(
        init.clone(),
        &mut central,
        RunLimits::with_max_steps(8),
        &mut [],
        scratch,
    );
    let run_init = init;
    let before = global().snapshot();
    let s = sim.run_with_scratch(
        run_init,
        &mut central,
        RunLimits::with_max_steps(steps),
        &mut [],
        scratch,
    );
    let after = global().snapshot().delta(&before);
    assert_eq!(s.steps, steps);
    assert_eq!(
        after.config_clones,
        0,
        "{}: central round-robin steady state must not clone configurations",
        g.name()
    );
    assert_eq!(s.moves, s.steps as u64, "central daemon: one move per step");
    assert_eq!(s.counters.moves, s.moves, "per-run counters mirror the summary");
}

#[test]
fn steady_state_steps_perform_zero_configuration_clones() {
    let mut scratch = StepScratch::new();
    // The historical acceptance instance, then the campaign grid's large
    // instances — buffer reuse across *differently sized* graphs is part of
    // the contract (the stamp array and masks must re-seat without leaking
    // allocations into the steady state).
    assert_zero_steady_state_clones(
        &generators::torus(6, 6).expect("valid torus"),
        2_000,
        &mut scratch,
    );
    assert_zero_steady_state_clones(
        &generators::ring(1024).expect("valid ring"),
        1_000,
        &mut scratch,
    );
    assert_zero_steady_state_clones(
        &generators::torus(32, 32).expect("valid torus"),
        1_000,
        &mut scratch,
    );
}
