//! The incremental specification monitor against the full-scan reference.
//!
//! For every registered harness, under four daemons (sync, central-rr,
//! central-rand and dist:0.5) and every init mode the campaign uses (full
//! burst, 1- and 2-fault bursts, the witness where the protocol has one),
//! on sampled topologies the protocol accepts (up to n ≈ 40):
//!
//! * the kernel's [`SpecMonitor`] over the harness's local specification
//!   must produce the `StabilizationReport` — every field, the engine
//!   counters included — and the final configuration of the closure
//!   `MeasurementContext` with `with_early_stop(legitimacy, 3)`, the path
//!   the campaign executor used to take;
//! * after every step, the monitor's running `(safe, legitimate)`
//!   verdicts must equal the full-scan `is_safe` / `is_legitimate` on
//!   the configuration it just observed — the incremental counts are
//!   pinned to a full recompute at every configuration, not only at the
//!   report level.
//!
//! On small instances the local forms are also checked exhaustively:
//! summed per-vertex counts decide both predicates on every configuration.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_kernel::config::Configuration;
use specstab_kernel::engine::{RunLimits, Simulator, StepScratch};
use specstab_kernel::fault::inject_faults_in_place;
use specstab_kernel::harness::{HarnessState, ProtocolHarness};
use specstab_kernel::measure::{MeasurementContext, SpecMonitor};
use specstab_kernel::observer::{Observer, StepEvent};
use specstab_kernel::protocol::random_configuration;
use specstab_kernel::search::enumerate_all_configurations;
use specstab_kernel::spec::{LocalSpecification, Specification};
use specstab_protocols::harness::{
    BfsHarness, Dijkstra3Harness, Dijkstra4Harness, DijkstraHarness, MatchingHarness, SsmeHarness,
};
use specstab_telemetry::RunCounters;
use specstab_topology::metrics::DistanceMatrix;
use specstab_topology::{generators, Graph};
use std::fmt::Debug;

const DAEMONS: [&str; 4] = ["sync", "central-rr", "central-rand", "dist:0.5"];
const MARGIN: usize = 3;
const MAX_STEPS: usize = 20_000;

/// A campaign init mode: `Burst(0)` is a full random burst.
#[derive(Copy, Clone, Debug)]
enum Init {
    Burst(usize),
    Witness,
}

/// Wraps the monitor under test and checks its running verdicts against
/// the full-scan predicates on every configuration it observes.
struct Checked<'a, S, Sp> {
    monitor: SpecMonitor<'a, S, Sp>,
    spec: &'a Sp,
    configs: usize,
}

impl<S, Sp: LocalSpecification<S>> Checked<'_, S, Sp> {
    fn assert_verdicts(&mut self, config: &Configuration<S>, graph: &Graph, index: usize) {
        let full = (self.spec.is_safe(config, graph), self.spec.is_legitimate(config, graph));
        assert_eq!(self.monitor.verdicts(), full, "(safe, legitimate) at configuration {index}");
        self.configs += 1;
    }
}

impl<S, Sp: LocalSpecification<S>> Observer<S> for Checked<'_, S, Sp> {
    fn on_start(&mut self, config: &Configuration<S>, graph: &Graph) {
        self.monitor.on_start(config, graph);
        self.assert_verdicts(config, graph, 0);
    }
    fn on_step(&mut self, event: &StepEvent<'_, S>) {
        self.monitor.on_step(event);
        self.assert_verdicts(event.after, event.graph, event.step);
    }
    fn should_stop(&self) -> bool {
        self.monitor.should_stop()
    }
}

fn initial<H: ProtocolHarness>(
    h: &H,
    g: &Graph,
    init: Init,
    seed: u64,
) -> Configuration<HarnessState<H>> {
    let mut rng = StdRng::seed_from_u64(seed);
    match init {
        Init::Burst(0) => random_configuration(g, h.protocol(), &mut rng),
        Init::Burst(faults) => {
            let mut c = h.legitimate_configuration(g, &mut rng).expect("legitimate configuration");
            let _ = inject_faults_in_place(&mut c, g, h.protocol(), faults.min(g.n()), &mut rng);
            c
        }
        Init::Witness => h.witness_configuration(g).expect("witness configuration"),
    }
}

/// One differential run: incremental monitor vs closure context, same
/// daemon spec and seed, same initial configuration.
fn check_run<H: ProtocolHarness>(h: &H, g: &Graph, daemon: &str, init: Init, seed: u64)
where
    HarnessState<H>: PartialEq + Debug,
{
    let sim = Simulator::new(g, h.protocol());
    let start = initial(h, g, init, seed);
    let what = format!("{} on {} under {daemon}, {init:?}, seed {seed}", H::NAME, g.name());

    let mut checked =
        Checked { monitor: SpecMonitor::new(h.spec(), MARGIN), spec: h.spec(), configs: 0 };
    let mut d = h.daemon(daemon, seed).expect("daemon spec");
    let summary = sim.run_with_scratch(
        start.clone(),
        d.as_mut(),
        RunLimits::with_max_steps(MAX_STEPS),
        &mut [&mut checked],
        &mut StepScratch::new(),
    );
    assert_eq!(checked.configs, summary.steps + 1, "{what}: every configuration checked");
    let fast = checked.monitor.report(&summary);

    let mut d = h.daemon(daemon, seed).expect("daemon spec");
    let reference = MeasurementContext::new(h.safety_predicate(), h.legitimacy_predicate())
        .with_early_stop(h.legitimacy_predicate(), MARGIN)
        .run(&sim, d.as_mut(), start.clone(), MAX_STEPS);

    assert_eq!(fast.steps_run, reference.steps_run, "{what}");
    assert_eq!(fast.moves, reference.moves, "{what}");
    assert_eq!(fast.stop, reference.stop, "{what}");
    assert_eq!(fast.last_violation, reference.last_violation, "{what}");
    assert_eq!(fast.violation_count, reference.violation_count, "{what}");
    assert_eq!(fast.stabilization_steps, reference.stabilization_steps, "{what}");
    assert_eq!(fast.first_legitimate, reference.first_legitimate, "{what}");
    assert_eq!(fast.legitimacy_entry, reference.legitimacy_entry, "{what}");
    assert_eq!(fast.ended_legitimate, reference.ended_legitimate, "{what}");
    let engine_only = |c: RunCounters| RunCounters { monitor_evals: 0, ..c };
    assert_eq!(engine_only(fast.counters), engine_only(reference.counters), "{what}");
    let configs = reference.steps_run as u64 + 1;
    assert_eq!(reference.counters.monitor_evals, 3 * configs * g.n() as u64, "{what}");

    // The reference's final configuration: the same deterministic
    // execution, cut after the steps the closure context ran.
    let mut d = h.daemon(daemon, seed).expect("daemon spec");
    let replay =
        sim.run(start, d.as_mut(), RunLimits::with_max_steps(reference.steps_run), &mut []);
    assert_eq!(summary.final_config, replay.final_config, "{what}: final configuration");
}

/// Every daemon × init mode on one built harness.
fn check_all<H: ProtocolHarness>(g: &Graph, seed: u64)
where
    HarnessState<H>: PartialEq + Debug,
{
    let h = H::build(g, DistanceMatrix::new(g).diameter()).expect("compatible topology");
    let mut inits = vec![Init::Burst(0), Init::Burst(1), Init::Burst(2)];
    if H::supports_witness() {
        inits.push(Init::Witness);
    }
    for daemon in DAEMONS {
        for &init in &inits {
            check_run(&h, g, daemon, init, seed);
        }
    }
}

/// The local form decides both predicates on **every** configuration of a
/// small instance, visited by a run or not.
fn check_exhaustive<H: ProtocolHarness>(g: &Graph) {
    let h = H::build(g, DistanceMatrix::new(g).diameter()).expect("compatible topology");
    let spec = h.spec();
    let all = enumerate_all_configurations(g, h.protocol(), 10_000).expect("small instance");
    for c in &all {
        let (mut safety, mut legitimacy) = (0u64, 0u64);
        for v in g.vertices() {
            let counts = spec.local_counts(v, c, g);
            safety += u64::from(counts.safety);
            legitimacy += u64::from(counts.legitimacy);
        }
        assert_eq!(spec.safety_rule().holds(safety), spec.is_safe(c, g), "{}", H::NAME);
        assert_eq!(
            spec.legitimacy_rule().holds(legitimacy),
            spec.is_legitimate(c, g),
            "{}",
            H::NAME
        );
    }
}

#[test]
fn local_forms_decide_the_predicates_on_every_small_configuration() {
    check_exhaustive::<SsmeHarness>(&generators::path(3).unwrap());
    check_exhaustive::<DijkstraHarness>(&generators::ring(4).unwrap());
    check_exhaustive::<Dijkstra3Harness>(&generators::ring(6).unwrap());
    check_exhaustive::<Dijkstra4Harness>(&generators::path(5).unwrap());
    check_exhaustive::<BfsHarness>(&generators::star(4).unwrap());
    check_exhaustive::<MatchingHarness>(&generators::path(4).unwrap());
    check_exhaustive::<MatchingHarness>(&generators::star(4).unwrap());
}

/// A connected topology for the protocols that run anywhere.
fn any_graph(pick: u8, n: usize, seed: u64) -> Graph {
    match pick % 6 {
        0 => generators::ring(n.max(3)).unwrap(),
        1 => generators::path(n.max(2)).unwrap(),
        2 => generators::torus(3, n.clamp(9, 39) / 3).unwrap(),
        3 => generators::grid(2, n.max(2).div_ceil(2)).unwrap(),
        4 => generators::random_tree(n.max(2), seed).unwrap(),
        _ => generators::complete(n.clamp(2, 8)).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ssme_incremental_equals_full_scan(pick in 0u8..6, n in 2usize..41, seed in any::<u64>()) {
        check_all::<SsmeHarness>(&any_graph(pick, n, seed), seed);
    }

    #[test]
    fn dijkstra_incremental_equals_full_scan(n in 3usize..41, seed in any::<u64>()) {
        check_all::<DijkstraHarness>(&generators::ring(n).unwrap(), seed);
    }

    #[test]
    fn dijkstra3_incremental_equals_full_scan(n in 3usize..41, seed in any::<u64>()) {
        check_all::<Dijkstra3Harness>(&generators::ring(n).unwrap(), seed);
    }

    #[test]
    fn dijkstra4_incremental_equals_full_scan(n in 2usize..41, seed in any::<u64>()) {
        check_all::<Dijkstra4Harness>(&generators::path(n).unwrap(), seed);
    }

    #[test]
    fn bfs_incremental_equals_full_scan(pick in 0u8..6, n in 2usize..41, seed in any::<u64>()) {
        check_all::<BfsHarness>(&any_graph(pick, n, seed), seed);
    }

    #[test]
    fn matching_incremental_equals_full_scan(pick in 0u8..6, n in 2usize..41, seed in any::<u64>()) {
        check_all::<MatchingHarness>(&any_graph(pick, n, seed), seed);
    }
}
