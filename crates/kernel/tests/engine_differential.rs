//! Differential suite for the zero-allocation stepping core: the
//! double-buffered, incrementally-maintained [`Simulator::run`] must be
//! observationally identical to the retained clone-based
//! [`Simulator::run_reference`] — same `RunSummary` (steps, moves, stop
//! reason, final configuration), same per-step observer events (after
//! configurations, deltas, activations, enabled sets, touched sets as
//! sets), same daemon RNG consumption — across protocols × daemons × seeds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{max_enabled_adversary, parse_daemon_spec, AdversaryMoves, Daemon};
use specstab_kernel::engine::{RunLimits, RunSummary, Simulator};
use specstab_kernel::observer::{ConfigTrace, Observer, StepEvent};
use specstab_kernel::protocol::{random_configuration, Protocol, RuleId, RuleInfo, View};
use specstab_topology::{generators, Graph, VertexId};
use std::sync::Arc;

/// Greedy tree coloring (multiple rules never fire at once, converges under
/// every daemon on trees).
#[derive(Clone)]
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

/// Max propagation: simple monotone protocol with a different enablement
/// shape (terminal once uniform).
#[derive(Clone)]
struct MaxProto;

impl Protocol for MaxProto {
    type State = u32;
    fn name(&self) -> String {
        "max".into()
    }
    fn rules(&self) -> Vec<RuleInfo> {
        vec![RuleInfo::new("ADOPT")]
    }
    fn enabled_rule(&self, view: &View<'_, u32>) -> Option<RuleId> {
        let best = view.neighbor_states().map(|(_, &s)| s).max().unwrap_or(0);
        (best > *view.state()).then_some(RuleId::new(0))
    }
    fn apply(&self, view: &View<'_, u32>, _rule: RuleId) -> u32 {
        view.neighbor_states().map(|(_, &s)| s).max().unwrap()
    }
    fn random_state(&self, _v: VertexId, rng: &mut StdRng) -> u32 {
        rng.gen_range(0..32)
    }
}

/// A toy unison over `Z_5` with the summed guard form and two 2-bit
/// counter lanes, so its sums carry past degree 3: a neighbor one tick
/// behind counts in lane 0, one more than a tick away in lane 1. `TICK`
/// when no neighbor is behind or far, `RESET` to 0 when one is far.
/// `enabled_rule` reads the neighbors directly, so the reference loop
/// checks the engine's sums against an independent guard; rings and paths
/// run on the sums, while tori and trees of degree 4 or more exceed the
/// lanes and must run on `enabled_rule`.
#[derive(Clone)]
struct LaneClock;

impl LaneClock {
    const PERIOD: u8 = 5;
    const TICK: RuleId = RuleId::new(0);
    const RESET: RuleId = RuleId::new(1);

    fn behind(own: u8, neighbor: u8) -> bool {
        (neighbor + 1) % Self::PERIOD == own
    }

    fn far(own: u8, neighbor: u8) -> bool {
        neighbor != own && !Self::behind(own, neighbor) && !Self::behind(neighbor, own)
    }

    fn rule(own: u8, behind: bool, far: bool) -> Option<RuleId> {
        if !behind && !far {
            Some(Self::TICK)
        } else if far && own != 0 {
            Some(Self::RESET)
        } else {
            None
        }
    }
}

impl Protocol for LaneClock {
    type State = u8;
    const SUMMED_GUARD_MAX_DEGREE: Option<usize> = Some(3);
    fn name(&self) -> String {
        "lane-clock".into()
    }
    fn rules(&self) -> Vec<RuleInfo> {
        vec![RuleInfo::new("TICK"), RuleInfo::new("RESET")]
    }
    fn enabled_rule(&self, view: &View<'_, u8>) -> Option<RuleId> {
        let own = *view.state();
        let behind = view.neighbor_states().any(|(_, &s)| Self::behind(own, s));
        let far = view.neighbor_states().any(|(_, &s)| Self::far(own, s));
        Self::rule(own, behind, far)
    }
    fn guard_term(&self, own: &u8, neighbor: &u8) -> u64 {
        u64::from(Self::behind(*own, *neighbor)) | u64::from(Self::far(*own, *neighbor)) << 2
    }
    fn rule_from_sum(&self, own: &u8, sum: u64) -> Option<RuleId> {
        Self::rule(*own, sum & 3 != 0, (sum >> 2) & 3 != 0)
    }
    fn apply(&self, view: &View<'_, u8>, rule: RuleId) -> u8 {
        if rule == Self::TICK {
            (view.state() + 1) % Self::PERIOD
        } else {
            0
        }
    }
    fn random_state(&self, _v: VertexId, rng: &mut StdRng) -> u8 {
        rng.gen_range(0..Self::PERIOD)
    }
}

/// Observer recording everything an execution exposes, for exact
/// event-stream comparison between the two engine paths.
struct FullRecorder<S> {
    start: Option<Configuration<S>>,
    afters: Vec<Configuration<S>>,
    deltas: Vec<Vec<(VertexId, S, S)>>,
    activated: Vec<Vec<(VertexId, RuleId)>>,
    enabled_after: Vec<Vec<VertexId>>,
    /// Each step's touched set, sorted: the engine reports it unordered.
    touched: Vec<Vec<VertexId>>,
}

impl<S> FullRecorder<S> {
    fn new() -> Self {
        Self {
            start: None,
            afters: Vec::new(),
            deltas: Vec::new(),
            activated: Vec::new(),
            enabled_after: Vec::new(),
            touched: Vec::new(),
        }
    }
}

impl<S: Clone> Observer<S> for FullRecorder<S> {
    fn on_start(&mut self, config: &Configuration<S>, _graph: &Graph) {
        self.start = Some(config.clone());
    }
    fn on_step(&mut self, event: &StepEvent<'_, S>) {
        self.afters.push(event.after.clone());
        self.deltas.push(event.delta.to_vec());
        self.activated.push(event.activated.to_vec());
        self.enabled_after.push(event.enabled_after.iter().collect());
        let mut touched = event.touched.to_vec();
        touched.sort_unstable();
        self.touched.push(touched);
    }
}

fn graph_for(kind: u8, n: usize, seed: u64) -> Graph {
    match kind % 4 {
        0 => generators::ring(n.max(3)).unwrap(),
        1 => generators::path(n.max(2)).unwrap(),
        2 => generators::torus(3, n.clamp(3, 6)).unwrap(),
        _ => generators::random_tree(n.max(2), seed).unwrap(),
    }
}

/// The shared scheduler zoo (everything but the protocol-specific greedy
/// adversary, which tests construct directly).
fn zoo_daemon<S: Clone + 'static>(idx: usize, seed: u64) -> Box<dyn Daemon<S>> {
    const SPECS: [&str; 7] = [
        "sync",
        "central-rr",
        "central-rand",
        "central-min",
        "central-max",
        "dist:0.5",
        "kbounded:3:0.4",
    ];
    parse_daemon_spec::<S>(SPECS[idx % SPECS.len()], seed).expect("valid spec")
}

fn assert_runs_equal<S: Clone + Eq + std::fmt::Debug>(
    label: &str,
    new: (RunSummary<S>, FullRecorder<S>),
    reference: (RunSummary<S>, FullRecorder<S>),
) {
    let (sn, rn) = new;
    let (sr, rr) = reference;
    assert_eq!(sn.steps, sr.steps, "{label}: steps");
    assert_eq!(sn.moves, sr.moves, "{label}: moves");
    assert_eq!(sn.stop, sr.stop, "{label}: stop reason");
    assert_eq!(sn.final_config, sr.final_config, "{label}: final configuration");
    assert_eq!(rn.start, rr.start, "{label}: start configuration");
    assert_eq!(rn.afters, rr.afters, "{label}: after configurations");
    assert_eq!(rn.deltas, rr.deltas, "{label}: step deltas");
    assert_eq!(rn.activated, rr.activated, "{label}: activations");
    assert_eq!(rn.enabled_after, rr.enabled_after, "{label}: enabled sets");
    assert_eq!(rn.touched, rr.touched, "{label}: touched sets");
}

fn differential_case<P: Protocol>(
    proto: &P,
    g: &Graph,
    make_daemon: impl Fn() -> Box<dyn Daemon<P::State>>,
    label: &str,
    seed: u64,
    max_steps: usize,
) {
    let sim = Simulator::new(g, proto);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = random_configuration(g, proto, &mut rng);

    let mut d_new = make_daemon();
    let mut rec_new = FullRecorder::new();
    let s_new = sim.run(
        init.clone(),
        d_new.as_mut(),
        RunLimits::with_max_steps(max_steps),
        &mut [&mut rec_new],
    );

    let mut d_ref = make_daemon();
    let mut rec_ref = FullRecorder::new();
    let s_ref = sim.run_reference(
        init,
        d_ref.as_mut(),
        RunLimits::with_max_steps(max_steps),
        &mut [&mut rec_ref],
    );

    let label = format!("proto={} {label} seed={seed}", proto.name());
    assert_runs_equal(&label, (s_new, rec_new), (s_ref, rec_ref));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Coloring × every daemon in the zoo × random trees/rings/paths/tori.
    #[test]
    fn coloring_matches_reference(kind in any::<u8>(), n in 2usize..12, daemon_idx in 0usize..7, seed in any::<u64>()) {
        let g = graph_for(kind, n, seed);
        let label = format!("daemon#{daemon_idx}");
        differential_case(
            &Coloring { colors: 8 },
            &g,
            || zoo_daemon::<u8>(daemon_idx, seed),
            &label,
            seed,
            5_000,
        );
    }

    /// Max propagation × every daemon including the greedy preview-driven
    /// adversary (index 7), which exercises the zero-clone preview path.
    #[test]
    fn max_propagation_matches_reference(kind in any::<u8>(), n in 2usize..10, daemon_idx in 0usize..8, seed in any::<u64>()) {
        let g = graph_for(kind, n, seed);
        let label = format!("daemon#{daemon_idx}");
        differential_case(
            &MaxProto,
            &g,
            || -> Box<dyn Daemon<u32>> {
                if daemon_idx < 7 {
                    zoo_daemon::<u32>(daemon_idx, seed)
                } else {
                    Box::new(max_enabled_adversary(
                        Arc::new(MaxProto),
                        AdversaryMoves::SingletonsAndAll,
                        seed,
                    ))
                }
            },
            &label,
            seed,
            5_000,
        );
    }

    /// The summed guard × every daemon including the greedy adversary: the
    /// patched sums derive the same rules as a full re-evaluation, on
    /// graphs within the lanes' degree limit and past it.
    #[test]
    fn summed_guard_matches_reference(kind in any::<u8>(), n in 2usize..12, daemon_idx in 0usize..8, seed in any::<u64>()) {
        let g = graph_for(kind, n, seed);
        let label = format!("daemon#{daemon_idx}");
        differential_case(
            &LaneClock,
            &g,
            || -> Box<dyn Daemon<u8>> {
                if daemon_idx < 7 {
                    zoo_daemon::<u8>(daemon_idx, seed)
                } else {
                    Box::new(max_enabled_adversary(
                        Arc::new(LaneClock),
                        AdversaryMoves::SingletonsAndAll,
                        seed,
                    ))
                }
            },
            &label,
            seed,
            5_000,
        );
    }

    /// The delta-based ConfigTrace reconstructs exactly the configurations
    /// a full-cloning recorder captures.
    #[test]
    fn config_trace_reconstruction_is_exact(kind in any::<u8>(), n in 2usize..10, daemon_idx in 0usize..7, seed in any::<u64>()) {
        let g = graph_for(kind, n, seed);
        let proto = Coloring { colors: 8 };
        let sim = Simulator::new(&g, &proto);
        let mut rng = StdRng::seed_from_u64(seed);
        let init = random_configuration(&g, &proto, &mut rng);
        let mut daemon = zoo_daemon::<u8>(daemon_idx, seed);
        let mut trace = ConfigTrace::new();
        let mut full = FullRecorder::new();
        let _ = sim.run(
            init.clone(),
            daemon.as_mut(),
            RunLimits::with_max_steps(2_000),
            &mut [&mut trace, &mut full],
        );
        let reconstructed = trace.configs();
        prop_assert_eq!(reconstructed.len(), full.afters.len() + 1);
        prop_assert_eq!(&reconstructed[0], &init);
        for (i, after) in full.afters.iter().enumerate() {
            prop_assert_eq!(&reconstructed[i + 1], after, "config {} diverged", i + 1);
            prop_assert_eq!(&trace.config_at(i + 1), after);
        }
        // Restriction agrees with per-vertex projection of the full trace.
        for v in g.vertices() {
            let expected: Vec<u8> = std::iter::once(*init.get(v))
                .chain(full.afters.iter().map(|c| *c.get(v)))
                .collect();
            prop_assert_eq!(trace.restriction(v), expected);
        }
    }
}
