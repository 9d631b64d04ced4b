//! The batchable harnesses against the scalar measurement stack:
//! `batched_measure` must hand back, per lane, exactly the
//! `StabilizationReport` a scalar measured run produces with the
//! harness's own full-scan predicates and early-stop margin — under both
//! batchable daemons (synchronous, and random-distributed at
//! p ∈ {0.1, 0.5, 0.9} with per-lane RNG streams seeded like the scalar
//! daemons), from every init mode the campaign uses (full random burst,
//! 1- and 2-fault bursts into the legitimate configuration, and ssme's
//! Theorem 4 witness), for lane counts K ∈ {1, 3, 12, 100}. The graphs
//! include instances larger than the lane monitor's 32-row block
//! (`torus:8x8`, `ring:100`, `path:100`), so its early-exit legitimacy
//! sweep runs where the violations of a fault burst are localized.
//!
//! A second property pins every lane form to its scalar local form: the
//! per-lane row sums equal the sums of `local_counts` over each lane's
//! configuration, for any split of the rows.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_kernel::batch::{BatchDaemon, PackedProtocol};
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{Daemon, RandomDistributedDaemon, SynchronousDaemon};
use specstab_kernel::engine::{RunLimits, Simulator};
use specstab_kernel::fault::inject_faults_in_place;
use specstab_kernel::harness::{HarnessState, ProtocolHarness};
use specstab_kernel::measure::MeasurementContext;
use specstab_kernel::protocol::random_configuration;
use specstab_kernel::spec::{LaneSpecification, LocalSpecification};
use specstab_protocols::harness::{
    Dijkstra3Harness, Dijkstra4Harness, DijkstraHarness, SsmeHarness,
};
use specstab_topology::metrics::DistanceMatrix;
use specstab_topology::{generators, Graph, VertexId};

const LANE_COUNTS: [usize; 4] = [1, 3, 12, 100];
const MARGIN: usize = 3;

/// A campaign init mode: `Burst(0)` is a full random burst.
#[derive(Copy, Clone, Debug)]
enum Init {
    Burst(usize),
    Witness,
}

/// Full burst, 1- and 2-fault bursts, and (when the harness has one) the
/// witness.
fn init_pick(i: u8, witness: bool) -> Init {
    match i % 4 {
        0 => Init::Burst(0),
        1 => Init::Burst(1),
        2 => Init::Burst(2),
        _ if witness => Init::Witness,
        _ => Init::Burst(2),
    }
}

fn daemon_pick(d: u8) -> BatchDaemon {
    match d % 4 {
        0 => BatchDaemon::Sync,
        1 => BatchDaemon::RandomDistributed { p: 0.1 },
        2 => BatchDaemon::RandomDistributed { p: 0.5 },
        _ => BatchDaemon::RandomDistributed { p: 0.9 },
    }
}

fn harness<H: ProtocolHarness>(graph: &Graph) -> H {
    H::build(graph, DistanceMatrix::new(graph).diameter()).expect("harness builds")
}

/// Lane `l`'s initial configuration.
fn initial<H: ProtocolHarness>(
    h: &H,
    graph: &Graph,
    init: Init,
    seed: u64,
) -> Configuration<HarnessState<H>> {
    let mut rng = StdRng::seed_from_u64(seed);
    match init {
        Init::Burst(0) => random_configuration(graph, h.protocol(), &mut rng),
        Init::Burst(faults) => {
            let mut c = h.legitimate_configuration(graph, &mut rng).expect("legitimate");
            let _ = inject_faults_in_place(&mut c, graph, h.protocol(), faults, &mut rng);
            c
        }
        Init::Witness => h.witness_configuration(graph).expect("witness"),
    }
}

/// Lane-for-lane equivalence of `batched_measure` against the scalar
/// measurement stack, for one harness/daemon/init/lane-count combination.
/// Lane `l`'s RNG seed doubles as scalar replica `l`'s daemon seed, so
/// the dist lanes must replay the exact scalar coin sequences.
fn check_batched<H: ProtocolHarness>(
    h: &H,
    graph: &Graph,
    daemon: BatchDaemon,
    init: Init,
    k: usize,
    seed: u64,
    max_steps: usize,
) {
    let inits: Vec<_> =
        (0..k as u64).map(|l| initial(h, graph, init, seed ^ (0x55ED * l + 1))).collect();
    let lane_seeds: Vec<u64> = (0..k as u64).map(|l| seed ^ (0xDAE1 * l + 9)).collect();
    let seeds_arg: &[u64] = if daemon.needs_lane_seeds() { &lane_seeds } else { &[] };
    let measured = h
        .batched_measure(graph, daemon, seeds_arg, inits.clone(), max_steps, MARGIN)
        .expect("harness supports the batched path");
    let what = format!("{} on {} under {daemon:?}, {init:?}, K = {k}", H::NAME, graph.name());
    assert_eq!(measured.len(), k, "{what}");
    let sim = Simulator::new(graph, h.protocol());
    for (l, ((report, _), init)) in measured.iter().zip(&inits).enumerate() {
        let ctx = MeasurementContext::new(h.safety_predicate(), h.legitimacy_predicate())
            .with_early_stop(h.legitimacy_predicate(), MARGIN);
        let mut scalar_daemon: Box<dyn Daemon<HarnessState<H>>> = match daemon {
            BatchDaemon::RandomDistributed { p } => {
                Box::new(RandomDistributedDaemon::new(p, lane_seeds[l]))
            }
            _ => Box::new(SynchronousDaemon::new()),
        };
        let scalar = ctx.run(&sim, scalar_daemon.as_mut(), init.clone(), max_steps);
        assert_eq!(report.steps_run, scalar.steps_run, "{what}, lane {l}");
        assert_eq!(report.moves, scalar.moves, "{what}, lane {l}");
        assert_eq!(report.stop, scalar.stop, "{what}, lane {l}");
        assert_eq!(report.last_violation, scalar.last_violation, "{what}, lane {l}");
        assert_eq!(report.violation_count, scalar.violation_count, "{what}, lane {l}");
        assert_eq!(report.stabilization_steps, scalar.stabilization_steps, "{what}, lane {l}");
        assert_eq!(report.first_legitimate, scalar.first_legitimate, "{what}, lane {l}");
        assert_eq!(report.legitimacy_entry, scalar.legitimacy_entry, "{what}, lane {l}");
        assert_eq!(report.ended_legitimate, scalar.ended_legitimate, "{what}, lane {l}");
        // The engine counters are path-independent.
        assert_eq!(report.counters.steps, scalar.counters.steps, "{what}, lane {l}");
        assert_eq!(report.counters.moves, scalar.counters.moves, "{what}, lane {l}");
        assert_eq!(report.counters.delta_bytes, scalar.counters.delta_bytes, "{what}, lane {l}");
    }
}

/// The lane form of `h`'s specification against its scalar local form:
/// for `k` configurations packed replica-major — each a campaign init run
/// for a few synchronous steps, so the lanes hold mid-run states near the
/// legitimate set as well as arbitrary ones — the per-lane sums of
/// `add_*_rows` over the rows split at `split` equal the sums of
/// `local_counts` over each lane's configuration.
fn check_lane_form<H>(h: &H, graph: &Graph, k: usize, seed: u64, split: usize)
where
    H: ProtocolHarness,
    H::Protocol: PackedProtocol,
    H::Spec: LaneSpecification<HarnessState<H>, <H::Protocol as PackedProtocol>::Lane>,
{
    let n = graph.n();
    let sim = Simulator::new(graph, h.protocol());
    let configs: Vec<_> = (0..k as u64)
        .map(|l| {
            let init = initial(h, graph, init_pick(l as u8, false), seed ^ (0x1A4E * l + 5));
            let limits = RunLimits::with_max_steps((seed + l) as usize % 12);
            sim.run(init, &mut SynchronousDaemon::new(), limits, &mut []).final_config
        })
        .collect();
    let soa: Vec<_> = (0..n)
        .flat_map(|v| configs.iter().map(move |c| h.protocol().pack(c.get(VertexId::new(v)))))
        .collect();
    let split = split % (n + 1);
    let (mut safety, mut legitimacy) = (vec![0u32; k], vec![0u32; k]);
    for rows in [0..split, split..n] {
        h.spec().add_safety_rows(graph, rows.clone(), k, &soa, &mut safety);
        h.spec().add_legitimacy_rows(graph, rows, k, &soa, &mut legitimacy);
    }
    for (l, c) in configs.iter().enumerate() {
        let counts = graph.vertices().map(|v| h.spec().local_counts(v, c, graph));
        let (s, g) = counts.fold((0, 0), |(s, g), c| (s + c.safety, g + c.legitimacy));
        assert_eq!((safety[l], legitimacy[l]), (s, g), "{} on {}, lane {l}", H::NAME, graph.name());
    }
}

/// The ssme graphs: small ones of every shape, then two past the lane
/// monitor's row block.
fn ssme_graph(case: u8) -> Graph {
    match case % 5 {
        0 => generators::ring(8).unwrap(),
        1 => generators::torus(3, 4).unwrap(),
        2 => generators::path(6).unwrap(),
        3 => generators::torus(8, 8).unwrap(),
        _ => generators::ring(100).unwrap(),
    }
}

/// A ring (or, for the four-state protocol, a line) of `small` machines,
/// or of 100.
fn ring_or_line(line: bool, small: usize, large: bool) -> Graph {
    let n = if large { 100 } else { small };
    if line {
        generators::path(n).unwrap()
    } else {
        generators::ring(n).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Harness batched measurement ≡ harness scalar measurement, lane for
    /// lane, for sync and dist:{0.1, 0.5, 0.9} from every init mode.
    #[test]
    fn ssme_batched_measure_matches_scalar(
        case in 0u8..5,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        d in 0u8..4,
        i in 0u8..4,
    ) {
        let graph = ssme_graph(case);
        let h: SsmeHarness = harness(&graph);
        prop_assert!(h.supports_batch());
        let k = LANE_COUNTS[k_pick];
        check_batched(&h, &graph, daemon_pick(d), init_pick(i, true), k, seed, 5_000);
    }

    #[test]
    fn dijkstra_batched_measure_matches_scalar(
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        d in 0u8..4,
        i in 0u8..4,
        large in any::<bool>(),
    ) {
        let graph = ring_or_line(false, 8, large);
        let h: DijkstraHarness = harness(&graph);
        prop_assert!(h.supports_batch());
        let k = LANE_COUNTS[k_pick];
        check_batched(&h, &graph, daemon_pick(d), init_pick(i, false), k, seed, 2_000);
    }

    #[test]
    fn dijkstra3_batched_measure_matches_scalar(
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        d in 0u8..4,
        i in 0u8..4,
        large in any::<bool>(),
    ) {
        let graph = ring_or_line(false, 9, large);
        let h: Dijkstra3Harness = harness(&graph);
        prop_assert!(h.supports_batch());
        let k = LANE_COUNTS[k_pick];
        check_batched(&h, &graph, daemon_pick(d), init_pick(i, false), k, seed, 2_000);
    }

    #[test]
    fn dijkstra4_batched_measure_matches_scalar(
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        d in 0u8..4,
        i in 0u8..4,
        large in any::<bool>(),
    ) {
        let graph = ring_or_line(true, 7, large);
        let h: Dijkstra4Harness = harness(&graph);
        prop_assert!(h.supports_batch());
        let k = LANE_COUNTS[k_pick];
        check_batched(&h, &graph, daemon_pick(d), init_pick(i, false), k, seed, 2_000);
    }

    /// Every packed harness's lane form sums exactly its local counts.
    #[test]
    fn lane_forms_sum_the_local_counts(
        case in 0u8..5,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        split in 0usize..200,
        large in any::<bool>(),
    ) {
        let k = LANE_COUNTS[k_pick];
        let graph = ssme_graph(case);
        check_lane_form(&harness::<SsmeHarness>(&graph), &graph, k, seed, split);
        let ring = ring_or_line(false, 5, large);
        check_lane_form(&harness::<DijkstraHarness>(&ring), &ring, k, seed, split);
        check_lane_form(&harness::<Dijkstra3Harness>(&ring), &ring, k, seed, split);
        let line = ring_or_line(true, 5, large);
        check_lane_form(&harness::<Dijkstra4Harness>(&line), &line, k, seed, split);
    }
}

/// The K ≤ 256 instance gate: an oversized K-state ring refuses the
/// packed path and reports `supports_batch() == false`, so the executor
/// counts it as a scalar fallback rather than mis-packing counters.
#[test]
fn oversized_k_state_ring_refuses_to_batch() {
    let graph = generators::ring(300).unwrap();
    let harness = DijkstraHarness::build(&graph, 150).unwrap();
    assert!(!harness.supports_batch(), "K = 300 > 256 cannot pack into u8 lanes");
    let mut rng = StdRng::seed_from_u64(7);
    let init = random_configuration(&graph, harness.protocol(), &mut rng);
    assert!(harness.batched_measure(&graph, BatchDaemon::Sync, &[], vec![init], 10, 0).is_none());
}

/// The central shims have no batched schedule: every packed harness
/// answers `None` and the central gate is 0.
#[test]
fn central_daemons_never_batch() {
    let graph = generators::ring(8).unwrap();
    let h: SsmeHarness = harness(&graph);
    assert_eq!(h.central_batch_max_n(), 0);
    let init = initial(&h, &graph, Init::Burst(0), 1);
    for daemon in [BatchDaemon::CentralRr, BatchDaemon::CentralRand] {
        assert!(!daemon.is_batched());
        let seeds = [3];
        assert!(h.batched_measure(&graph, daemon, &seeds, vec![init.clone()], 10, 0).is_none());
    }
}
