//! Property-based tests for the simulation kernel: daemon contracts and
//! engine invariants, exercised through a small self-stabilizing coloring
//! protocol.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{
    CentralDaemon, CentralStrategy, Daemon, RandomDistributedDaemon, SynchronousDaemon,
};
use specstab_kernel::engine::{RunLimits, Simulator, StopReason};
use specstab_kernel::observer::{MoveCounter, Observer, RoundCounter, StepEvent, TraceRecorder};
use specstab_kernel::protocol::{random_configuration, Protocol, RuleId, RuleInfo, View};
use specstab_topology::{generators, Graph, VertexId};

/// Greedy self-stabilizing coloring on trees/paths: a vertex conflicting
/// with a *smaller-index* neighbor recolors itself to the smallest color
/// free in its whole neighborhood. On trees this converges under every
/// daemon (each vertex's color eventually fixes in index order).
struct Coloring {
    colors: u8,
}

impl Protocol for Coloring {
    type State = u8;
    fn name(&self) -> String {
        "coloring".into()
    }
    fn rules(&self) -> Vec<RuleInfo> {
        vec![RuleInfo::new("RECOLOR")]
    }
    fn enabled_rule(&self, view: &View<'_, u8>) -> Option<RuleId> {
        let me = *view.state();
        let conflict = view.neighbor_states().any(|(u, &s)| u < view.vertex() && s == me);
        conflict.then_some(RuleId::new(0))
    }
    fn apply(&self, view: &View<'_, u8>, _rule: RuleId) -> u8 {
        let used: Vec<u8> = view.neighbor_states().map(|(_, &s)| s).collect();
        (0..self.colors).find(|c| !used.contains(c)).unwrap_or(0)
    }
    fn random_state(&self, _v: VertexId, rng: &mut StdRng) -> u8 {
        rng.gen_range(0..self.colors)
    }
}

fn proper_coloring(c: &Configuration<u8>, g: &Graph) -> bool {
    g.edges().iter().all(|&(u, v)| c.get(u) != c.get(v))
}

fn tree_and_init(n: usize, seed: u64) -> (Graph, Configuration<u8>, Coloring) {
    let g = generators::random_tree(n, seed).expect("n >= 1");
    let proto = Coloring { colors: 8 };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let init = random_configuration(&g, &proto, &mut rng);
    (g, init, proto)
}

/// Observer asserting core engine invariants on every step.
struct InvariantChecker {
    max_activation: usize,
}

impl Observer<u8> for InvariantChecker {
    fn on_step(&mut self, ev: &StepEvent<'_, u8>) {
        assert!(!ev.activated.is_empty(), "every action activates someone");
        assert!(ev.activated.len() <= self.max_activation);
        // Non-activated vertices keep their state.
        let moved: Vec<VertexId> = ev.activated.iter().map(|&(v, _)| v).collect();
        for (v, s) in ev.before.iter() {
            if !moved.contains(&v) {
                assert_eq!(s, ev.after.get(v), "non-activated vertex changed state");
            }
        }
        // enabled_after iterates strictly ascending and agrees with its
        // own length and membership.
        let enabled: Vec<VertexId> = ev.enabled_after.iter().collect();
        assert!(enabled.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(enabled.len(), ev.enabled_after.len());
        assert!(enabled.iter().all(|&v| ev.enabled_after.contains(v)));
        // touched is the deduplicated radius-1 ball of the activations.
        let mut touched = ev.touched.to_vec();
        touched.sort_unstable();
        touched.dedup();
        assert_eq!(touched.len(), ev.touched.len(), "touched holds each vertex once");
        for &v in &moved {
            assert!(touched.binary_search(&v).is_ok());
            assert!(ev.graph.neighbors(v).iter().all(|u| touched.binary_search(u).is_ok()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_invariants_hold_under_all_daemons(n in 2usize..12, seed in any::<u64>()) {
        let (g, init, proto) = tree_and_init(n, seed);
        let sim = Simulator::new(&g, &proto);
        let mut daemons: Vec<Box<dyn Daemon<u8>>> = vec![
            Box::new(SynchronousDaemon::new()),
            Box::new(CentralDaemon::new(CentralStrategy::RoundRobin)),
            Box::new(CentralDaemon::new(CentralStrategy::Random(seed))),
            Box::new(RandomDistributedDaemon::new(0.5, seed)),
        ];
        for d in &mut daemons {
            let mut checker = InvariantChecker { max_activation: g.n() };
            let s = sim.run(
                init.clone(),
                d.as_mut(),
                RunLimits::with_max_steps(10_000),
                &mut [&mut checker],
            );
            // Coloring on a tree always terminates, and terminal means proper.
            prop_assert_eq!(s.stop, StopReason::Terminal, "daemon {}", d.name());
            prop_assert!(proper_coloring(&s.final_config, &g));
        }
    }

    #[test]
    fn central_daemons_move_once_per_step(n in 2usize..10, seed in any::<u64>()) {
        let (g, init, proto) = tree_and_init(n, seed);
        let sim = Simulator::new(&g, &proto);
        let mut d = CentralDaemon::new(CentralStrategy::Random(seed));
        let mut mc = MoveCounter::new();
        let s = sim.run(init, &mut d, RunLimits::with_max_steps(10_000), &mut [&mut mc]);
        prop_assert_eq!(mc.total(), s.steps as u64);
        prop_assert_eq!(s.moves, s.steps as u64);
    }

    #[test]
    fn same_seed_same_execution(n in 2usize..10, seed in any::<u64>()) {
        let (g, init, proto) = tree_and_init(n, seed);
        let sim = Simulator::new(&g, &proto);
        let run = |seed2| {
            let mut d = RandomDistributedDaemon::new(0.4, seed2);
            let mut tr = TraceRecorder::new();
            sim.run(init.clone(), &mut d, RunLimits::with_max_steps(5_000), &mut [&mut tr]);
            tr.configs().to_vec()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    #[test]
    fn rounds_never_exceed_steps(n in 2usize..10, seed in any::<u64>()) {
        let (g, init, proto) = tree_and_init(n, seed);
        let sim = Simulator::new(&g, &proto);
        let mut d = RandomDistributedDaemon::new(0.7, seed);
        let mut rc = RoundCounter::new();
        let s = sim.run(init, &mut d, RunLimits::with_max_steps(5_000), &mut [&mut rc]);
        prop_assert!(rc.rounds() <= s.steps);
    }

    #[test]
    fn synchronous_rounds_equal_steps(n in 2usize..10, seed in any::<u64>()) {
        let (g, init, proto) = tree_and_init(n, seed);
        let sim = Simulator::new(&g, &proto);
        let mut d = SynchronousDaemon::new();
        let mut rc = RoundCounter::new();
        let s = sim.run(init, &mut d, RunLimits::with_max_steps(5_000), &mut [&mut rc]);
        prop_assert_eq!(rc.rounds(), s.steps);
    }

    #[test]
    fn trace_restriction_has_full_length(n in 2usize..8, seed in any::<u64>()) {
        let (g, init, proto) = tree_and_init(n, seed);
        let sim = Simulator::new(&g, &proto);
        let mut d = SynchronousDaemon::new();
        let mut tr = TraceRecorder::new();
        let s = sim.run(init, &mut d, RunLimits::with_max_steps(5_000), &mut [&mut tr]);
        for v in g.vertices() {
            prop_assert_eq!(tr.restriction(v).len(), s.steps + 1);
        }
    }
}
