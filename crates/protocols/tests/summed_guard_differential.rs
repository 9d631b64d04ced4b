//! The unison guard's summed form in the step loop against the
//! clone-based reference loop.
//!
//! `AsyncUnison` and `Ssme` declare the summed guard form
//! ([`Protocol::SUMMED_GUARD_MAX_DEGREE`]): the engine keeps one guard sum
//! per vertex, patches the neighbors' sums from the mover's edges after a
//! one-vertex step and derives the rules from the sums. The reference loop
//! re-evaluates every guard from scratch after every step. Both must
//! produce the same run — summary, final configuration and every step's
//! delta, activations, enabled set and touched set — under every daemon
//! family (sync and dist:p here run on the scalar engine, not on the lane
//! engine a campaign routes them to), on an isolated vertex, a star, a
//! complete graph, a ring and a torus. A star whose center has more
//! neighbors than a 16-bit counter lane holds must run on the full guard.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{max_enabled_adversary, parse_daemon_spec, AdversaryMoves, Daemon};
use specstab_kernel::engine::{RunLimits, RunSummary, Simulator};
use specstab_kernel::harness::ProtocolHarness;
use specstab_kernel::observer::{Observer, StepEvent};
use specstab_kernel::protocol::{random_configuration, Protocol, RuleId, View};
use specstab_protocols::harness::SsmeHarness;
use specstab_topology::{generators, metrics, Graph, VertexId};
use specstab_unison::clock::{CherryClock, ClockValue};
use specstab_unison::protocol::{rules, AsyncUnison};
use std::sync::Arc;

const DAEMONS: [&str; 10] = [
    "sync",
    "dist:0.5",
    "central-rr",
    "central-rand",
    "central-min",
    "central-max",
    "central-oldest",
    "kbounded:3:0.4",
    "adversary-central",
    "adversary-dist",
];

const MAX_STEPS: usize = 400;

fn graphs() -> Vec<Graph> {
    vec![
        generators::path(1).unwrap(),
        generators::star(7).unwrap(),
        generators::complete(5).unwrap(),
        generators::ring(9).unwrap(),
        generators::torus(4, 4).unwrap(),
    ]
}

/// Everything a run exposes to observers, step by step.
#[derive(Debug, PartialEq, Eq)]
struct Recorded {
    deltas: Vec<Vec<(VertexId, ClockValue, ClockValue)>>,
    activated: Vec<Vec<(VertexId, RuleId)>>,
    enabled_after: Vec<Vec<VertexId>>,
    /// Each step's touched set, sorted: the engine reports it unordered.
    touched: Vec<Vec<VertexId>>,
}

impl Observer<ClockValue> for Recorded {
    fn on_step(&mut self, event: &StepEvent<'_, ClockValue>) {
        self.deltas.push(event.delta.to_vec());
        self.activated.push(event.activated.to_vec());
        self.enabled_after.push(event.enabled_after.iter().collect());
        let mut touched = event.touched.to_vec();
        touched.sort_unstable();
        self.touched.push(touched);
    }
}

fn record<P: Protocol<State = ClockValue>>(
    sim: &Simulator<'_, P>,
    init: &Configuration<ClockValue>,
    daemon: &mut dyn Daemon<ClockValue>,
    max_steps: usize,
    reference: bool,
) -> (RunSummary<ClockValue>, Recorded) {
    let mut rec = Recorded {
        deltas: Vec::new(),
        activated: Vec::new(),
        enabled_after: Vec::new(),
        touched: Vec::new(),
    };
    let limits = RunLimits::with_max_steps(max_steps);
    let summary = if reference {
        sim.run_reference(init.clone(), daemon, limits, &mut [&mut rec])
    } else {
        sim.run(init.clone(), daemon, limits, &mut [&mut rec])
    };
    (summary, rec)
}

/// Runs `init` on the engine and on the reference loop, each under a fresh
/// daemon from `make_daemon`, and asserts the two runs are identical.
fn assert_matches_reference<P: Protocol<State = ClockValue>>(
    proto: &P,
    graph: &Graph,
    init: &Configuration<ClockValue>,
    make_daemon: impl Fn() -> Box<dyn Daemon<ClockValue>>,
    max_steps: usize,
    label: &str,
) {
    let sim = Simulator::new(graph, proto);
    let (s_new, r_new) = record(&sim, init, make_daemon().as_mut(), max_steps, false);
    let (s_ref, r_ref) = record(&sim, init, make_daemon().as_mut(), max_steps, true);
    assert_eq!(
        (s_new.steps, s_new.moves, s_new.stop),
        (s_ref.steps, s_ref.moves, s_ref.stop),
        "{label}: steps, moves, stop reason"
    );
    assert_eq!(s_new.final_config, s_ref.final_config, "{label}: final configuration");
    assert_eq!(r_new, r_ref, "{label}: step events");
}

#[test]
fn unison_and_ssme_match_the_reference_under_every_daemon() {
    let clock = CherryClock::new(3, 7).unwrap();
    let unison = Arc::new(AsyncUnison::new(clock));
    for g in graphs() {
        let ssme = SsmeHarness::build(&g, metrics::diameter(&g)).unwrap();
        for spec in DAEMONS {
            let moves = match spec {
                "adversary-central" => Some(AdversaryMoves::Singletons),
                "adversary-dist" => Some(AdversaryMoves::SingletonsAndAll),
                _ => None,
            };
            for seed in 0..3 {
                let label = format!("{} × {spec} seed {seed}", g.name());
                let mut rng = StdRng::seed_from_u64(seed);
                let init = random_configuration(&g, unison.as_ref(), &mut rng);
                assert_matches_reference(
                    unison.as_ref(),
                    &g,
                    &init,
                    || match moves {
                        Some(moves) => {
                            Box::new(max_enabled_adversary(Arc::clone(&unison), moves, seed))
                        }
                        None => parse_daemon_spec(spec, seed).unwrap(),
                    },
                    MAX_STEPS,
                    &format!("unison on {label}"),
                );
                let init = random_configuration(&g, ssme.protocol(), &mut rng);
                assert_matches_reference(
                    ssme.protocol(),
                    &g,
                    &init,
                    || ssme.daemon(spec, seed).unwrap(),
                    MAX_STEPS,
                    &format!("ssme on {label}"),
                );
            }
        }
    }
}

#[test]
fn a_degree_past_the_counter_lanes_runs_on_the_full_guard() {
    // A star whose center has 65,536 neighbors, every one two ticks away:
    // the center's ¬correct count is 65,536, one more than its 16-bit
    // lane holds.
    let leaves = 1 << 16;
    assert_eq!(AsyncUnison::SUMMED_GUARD_MAX_DEGREE, Some(leaves - 1));
    let g = generators::star(leaves + 1).unwrap();
    let clock = CherryClock::new(3, 7).unwrap();
    let unison = AsyncUnison::new(clock);
    let center = VertexId::new(0);
    let init =
        Configuration::from_fn(g.n(), |v| clock.value(if v == center { 3 } else { 1 }).unwrap());
    // The packed sum carries into the next lane and would hide the reset.
    let view = View::new(center, &g, &init);
    let own = init.get(center);
    let sum = view.neighbor_states().map(|(_, leaf)| unison.guard_term(own, leaf)).sum();
    assert_eq!(unison.enabled_rule(&view), Some(rules::RA));
    assert_ne!(unison.rule_from_sum(own, sum), Some(rules::RA));
    assert_matches_reference(
        &unison,
        &g,
        &init,
        || parse_daemon_spec("central-rand", 7).unwrap(),
        12,
        "unison on star-65537",
    );
}
