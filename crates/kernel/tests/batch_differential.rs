//! Differential suite for replica-parallel batched stepping: every lane
//! of [`run_batch`] — under each of the four batchable daemons (sync,
//! central round-robin, central-rand and random-distributed), with the
//! no-op and the predicate monitor — must be observationally identical to
//! an independent scalar run of the same initial configuration under the
//! matching scalar daemon: same step/move counts, same stop reason, same
//! final configuration, and (measured) the same [`StabilizationReport`]
//! monitor fields index for index, across topologies × seeds × lane
//! counts K ∈ {1, 3, 64, 100}. The random daemons additionally pin the
//! per-lane RNG streams: lane `l` seeded with `s` replays the scalar
//! daemon seeded with `s` draw for draw. A final property holds the
//! transposed incremental enabled-bitset to the dense full-sweep
//! reference it replaced.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specstab_kernel::batch::{
    run_batch, run_batch_with_dense_sweep, BatchDaemon, NoMonitor, PackedProtocol, PredicateMonitor,
};
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{
    CentralDaemon, CentralStrategy, Daemon, RandomDistributedDaemon, SynchronousDaemon,
};
use specstab_kernel::engine::{RunLimits, Simulator};
use specstab_kernel::measure::{MeasurementContext, StabilizationReport};
use specstab_kernel::observer::ConfigPredicate;
use specstab_kernel::protocol::{random_configuration, Protocol, RuleId, RuleInfo, View};
use specstab_topology::{generators, Graph, VertexId};

/// Max propagation: adopt the largest neighbor value when it beats yours.
/// Terminal once the maximum has flooded the graph — a protocol whose
/// convergence step varies per seed, so big batches always mix active and
/// masked lanes.
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
        rng.gen_range(0..1000)
    }
}

impl PackedProtocol for MaxProto {
    type Lane = u32;
    type LaneScratch = Vec<u32>;

    fn pack(&self, state: &u32) -> u32 {
        *state
    }

    fn unpack(&self, lane: u32) -> u32 {
        lane
    }

    fn step_lanes(
        &self,
        graph: &Graph,
        lanes: usize,
        soa: &[u32],
        next: &mut [u32],
        fired: &mut [bool],
        scratch: &mut Vec<u32>,
    ) {
        scratch.resize(lanes, 0);
        let best = &mut scratch[..lanes];
        for v in graph.vertices() {
            let base = v.index() * lanes;
            best.fill(0);
            for &u in graph.neighbors(v) {
                let ru = &soa[u.index() * lanes..u.index() * lanes + lanes];
                for (b, &s) in best.iter_mut().zip(ru) {
                    *b = (*b).max(s);
                }
            }
            for l in 0..lanes {
                fired[base + l] = best[l] > soa[base + l];
                next[base + l] = best[l];
            }
        }
    }

    fn eval_vertex_lanes(
        &self,
        graph: &Graph,
        v: usize,
        lanes: usize,
        soa: &[u32],
        next: &mut [u32],
        fired: &mut [bool],
        scratch: &mut Vec<u32>,
    ) {
        scratch.resize(lanes, 0);
        let best = &mut scratch[..lanes];
        let v = VertexId::new(v);
        let base = v.index() * lanes;
        best.fill(0);
        for &u in graph.neighbors(v) {
            let ru = &soa[u.index() * lanes..u.index() * lanes + lanes];
            for (b, &s) in best.iter_mut().zip(ru) {
                *b = (*b).max(s);
            }
        }
        for l in 0..lanes {
            fired[base + l] = best[l] > soa[base + l];
            next[base + l] = best[l];
        }
    }
}

fn graph_for(case: u8) -> Graph {
    match case % 4 {
        0 => generators::ring(9).unwrap(),
        1 => generators::torus(3, 4).unwrap(),
        2 => generators::path(7).unwrap(),
        _ => generators::complete(5).unwrap(),
    }
}

fn random_inits(graph: &Graph, k: usize, seed: u64) -> Vec<Configuration<u32>> {
    (0..k)
        .map(|l| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xB47C * l as u64 + 1));
            random_configuration(graph, &MaxProto, &mut rng)
        })
        .collect()
}

/// Safety: the maximum has flooded (all states equal) — violated until the
/// run terminates, so violation tracking has something to record mid-run.
fn all_equal() -> ConfigPredicate<u32> {
    Box::new(|c, _| c.states().windows(2).all(|w| w[0] == w[1]))
}

/// Legitimacy: vertex 0 holds the global maximum. Closed (vertex 0 is
/// then never enabled and the maximum never grows), and often reached
/// well before termination, so early stop cuts runs short mid-run.
fn zero_holds_max() -> ConfigPredicate<u32> {
    Box::new(|c, _| {
        let max = c.states().iter().copied().max().unwrap_or(0);
        *c.get(VertexId::new(0)) == max
    })
}

fn assert_reports_match(lane: &StabilizationReport, scalar: &StabilizationReport) {
    assert_eq!(lane.steps_run, scalar.steps_run);
    assert_eq!(lane.moves, scalar.moves);
    assert_eq!(lane.stop, scalar.stop);
    assert_eq!(lane.last_violation, scalar.last_violation);
    assert_eq!(lane.violation_count, scalar.violation_count);
    assert_eq!(lane.stabilization_steps, scalar.stabilization_steps);
    assert_eq!(lane.first_legitimate, scalar.first_legitimate);
    assert_eq!(lane.legitimacy_entry, scalar.legitimacy_entry);
    assert_eq!(lane.ended_legitimate, scalar.ended_legitimate);
}

/// Every batchable daemon, the random-distributed one at three inclusion
/// probabilities.
const MODES: [BatchDaemon; 6] = [
    BatchDaemon::Sync,
    BatchDaemon::CentralRr,
    BatchDaemon::CentralRand,
    BatchDaemon::RandomDistributed { p: 0.25 },
    BatchDaemon::RandomDistributed { p: 0.5 },
    BatchDaemon::RandomDistributed { p: 1.0 },
];

/// One daemon seed per lane for the random daemons; the deterministic
/// ones take none.
fn lane_seeds(mode: BatchDaemon, k: usize, seed: u64) -> Vec<u64> {
    if mode.needs_lane_seeds() {
        (0..k as u64).map(|l| seed ^ (0x5EED * l + 7)).collect()
    } else {
        Vec::new()
    }
}

/// The scalar daemon lane `l` of a `mode` batch replays.
fn scalar_daemon(mode: BatchDaemon, seeds: &[u64], l: usize) -> Box<dyn Daemon<u32>> {
    match mode {
        BatchDaemon::Sync => Box::new(SynchronousDaemon::new()),
        BatchDaemon::CentralRr => Box::new(CentralDaemon::new(CentralStrategy::RoundRobin)),
        BatchDaemon::CentralRand => Box::new(CentralDaemon::new(CentralStrategy::Random(seeds[l]))),
        BatchDaemon::RandomDistributed { p } => Box::new(RandomDistributedDaemon::new(p, seeds[l])),
    }
}

/// Runs a plain batch of `k` lanes under `mode` and holds every lane to
/// an independent scalar engine run of the same initial configuration.
fn check_plain(mode: BatchDaemon, case: u8, seed: u64, k: usize, max_steps: usize) {
    let graph = graph_for(case);
    let inits = random_inits(&graph, k, seed);
    let seeds = lane_seeds(mode, k, seed);
    let lanes = run_batch(&graph, &MaxProto, mode, &seeds, &inits, max_steps, NoMonitor);
    prop_assert_eq!(lanes.len(), k);
    let sim = Simulator::new(&graph, &MaxProto);
    for (l, (lane, init)) in lanes.iter().zip(&inits).enumerate() {
        let mut daemon = scalar_daemon(mode, &seeds, l);
        let limits = RunLimits::with_max_steps(max_steps);
        let scalar = sim.run(init.clone(), daemon.as_mut(), limits, &mut []);
        prop_assert_eq!(lane.steps, scalar.steps);
        prop_assert_eq!(lane.moves, scalar.moves);
        prop_assert_eq!(lane.stop, scalar.stop);
        prop_assert_eq!(&lane.final_config, &scalar.final_config);
    }
}

/// Runs a measured batch of `k` lanes under `mode` and holds every lane's
/// report and final configuration to the scalar `MeasurementContext`.
fn check_measured(mode: BatchDaemon, case: u8, seed: u64, k: usize, early: bool) {
    let graph = graph_for(case);
    let inits = random_inits(&graph, k, seed);
    let seeds = lane_seeds(mode, k, seed);
    let monitor = PredicateMonitor::new(all_equal(), zero_holds_max(), early.then_some(2));
    let measured = run_batch(&graph, &MaxProto, mode, &seeds, &inits, 1_000, monitor);
    prop_assert_eq!(measured.len(), k);
    let sim = Simulator::new(&graph, &MaxProto);
    for (l, ((report, final_config), init)) in measured.iter().zip(&inits).enumerate() {
        let mut ctx = MeasurementContext::new(all_equal(), zero_holds_max());
        if early {
            ctx = ctx.with_early_stop(zero_holds_max(), 2);
        }
        let mut daemon = scalar_daemon(mode, &seeds, l);
        let scalar = ctx.run(&sim, daemon.as_mut(), init.clone(), 1_000);
        assert_reports_match(report, &scalar);
        // The scalar measurement context doesn't expose its final
        // configuration, so cross-check against a plain scalar run
        // truncated to the measured step count: a fresh daemon draws
        // (if at all) only for executed steps, so it replays the same
        // schedule up to there regardless of why each run stopped.
        let mut daemon = scalar_daemon(mode, &seeds, l);
        let limits = RunLimits::with_max_steps(report.steps_run);
        let plain = sim.run(init.clone(), daemon.as_mut(), limits, &mut []);
        prop_assert_eq!(final_config, &plain.final_config);
    }
}

/// Alternates between a tight step budget (most lanes hit MaxSteps) and a
/// generous one (every lane reaches Terminal).
fn step_budget(tight: u8) -> usize {
    if tight == 0 {
        3
    } else {
        2_000
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plain batched runs equal K independent scalar engine runs under
    /// every batchable daemon — for the divergent ones, lanes disagree
    /// about which vertices move from the very first step.
    #[test]
    fn batch_equals_scalar_runs(
        case in 0u8..4,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        mode_pick in 0usize..6,
        tight in 0u8..2,
    ) {
        let k = [1, 3, 64, 100][k_pick];
        check_plain(MODES[mode_pick], case, seed, k, step_budget(tight));
    }

    /// Lane-divergent batched central round-robin runs equal K independent
    /// scalar runs under the scalar `central-rr` daemon — each lane keeps
    /// its own cursor and commits one vertex per pass.
    #[test]
    fn batch_central_rr_equals_scalar_runs(
        case in 0u8..4,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        tight in 0u8..2,
    ) {
        let k = [1, 3, 64, 100][k_pick];
        check_plain(BatchDaemon::CentralRr, case, seed, k, step_budget(tight));
    }

    /// Lane-divergent batched central-rand runs equal K independent scalar
    /// runs under the seeded `CentralStrategy::Random` daemon: lane `l`
    /// carries its own RNG stream seeded exactly like scalar replica `l`,
    /// so the per-lane pick sequences replay draw for draw.
    #[test]
    fn batch_central_rand_equals_scalar_runs(
        case in 0u8..4,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        tight in 0u8..2,
    ) {
        let k = [1, 3, 64, 100][k_pick];
        check_plain(BatchDaemon::CentralRand, case, seed, k, step_budget(tight));
    }

    /// Lane-divergent batched random-distributed runs equal K independent
    /// scalar runs under `RandomDistributedDaemon` with the same per-lane
    /// seeds: each lane replays its scalar replica's `gen_bool` coin
    /// sequence plus the uniform fallback draw on empty samples.
    #[test]
    fn batch_random_distributed_equals_scalar_runs(
        case in 0u8..4,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        p_pick in 0usize..3,
        tight in 0u8..2,
    ) {
        let k = [1, 3, 64, 100][k_pick];
        let p = [0.25, 0.5, 1.0][p_pick];
        let mode = BatchDaemon::RandomDistributed { p };
        check_plain(mode, case, seed, k, step_budget(tight));
    }

    /// Measured batched runs replicate the scalar `MeasurementContext`
    /// monitor stack (with and without early stop) lane for lane under
    /// every batchable daemon, with safety violated mid-run and
    /// legitimacy (hence early stop) reachable before termination.
    #[test]
    fn batch_measured_equals_scalar_measurement(
        case in 0u8..4,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        mode_pick in 0usize..6,
        early_pick in 0u8..2,
    ) {
        let k = [1, 3, 64, 100][k_pick];
        check_measured(MODES[mode_pick], case, seed, k, early_pick == 1);
    }

    /// Measured batched central round-robin runs replicate the scalar
    /// `MeasurementContext` monitor stack lane for lane.
    #[test]
    fn batch_central_rr_measured_equals_scalar_measurement(
        case in 0u8..4,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        early_pick in 0u8..2,
    ) {
        let k = [1, 3, 64, 100][k_pick];
        check_measured(BatchDaemon::CentralRr, case, seed, k, early_pick == 1);
    }

    /// The monitor never perturbs the run: without early stop, the no-op
    /// and predicate monitors agree on steps, moves, stop reason and
    /// final configuration lane for lane under every batchable daemon.
    #[test]
    fn predicate_monitor_without_early_stop_matches_no_monitor(
        case in 0u8..4,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        mode_pick in 0usize..6,
    ) {
        let mode = MODES[mode_pick];
        let k = [1, 3, 64, 100][k_pick];
        let graph = graph_for(case);
        let inits = random_inits(&graph, k, seed);
        let seeds = lane_seeds(mode, k, seed);
        let plain = run_batch(&graph, &MaxProto, mode, &seeds, &inits, 1_000, NoMonitor);
        let monitor = PredicateMonitor::new(all_equal(), zero_holds_max(), None);
        let measured = run_batch(&graph, &MaxProto, mode, &seeds, &inits, 1_000, monitor);
        for (lane, (report, final_config)) in plain.iter().zip(&measured) {
            prop_assert_eq!(lane.steps, report.steps_run);
            prop_assert_eq!(lane.moves, report.moves);
            prop_assert_eq!(lane.stop, report.stop);
            prop_assert_eq!(&lane.final_config, final_config);
        }
    }

    /// The transposed incremental enabled-bitset maintains exactly the
    /// enabled set a dense full guard sweep recomputes from scratch:
    /// forcing the dense-sweep reference path (same selection and RNG
    /// code, only the bitset maintenance differs) yields bit-identical
    /// lane results for every divergent daemon mode.
    #[test]
    fn incremental_bitset_matches_dense_sweep(
        case in 0u8..4,
        seed in 0u64..1_000,
        mode_pick in 1usize..6,
        k_pick in 0usize..3,
    ) {
        let k = [1, 3, 64][k_pick];
        let mode = MODES[mode_pick];
        let graph = graph_for(case);
        let inits = random_inits(&graph, k, seed);
        let seeds = lane_seeds(mode, k, seed);
        let incremental = run_batch(&graph, &MaxProto, mode, &seeds, &inits, 1_000, NoMonitor);
        let dense = run_batch_with_dense_sweep(&graph, &MaxProto, mode, &seeds, &inits, 1_000);
        prop_assert_eq!(incremental.len(), dense.len());
        for (a, b) in incremental.iter().zip(&dense) {
            prop_assert_eq!(a.steps, b.steps);
            prop_assert_eq!(a.moves, b.moves);
            prop_assert_eq!(a.stop, b.stop);
            prop_assert_eq!(&a.final_config, &b.final_config);
        }
    }
}
