//! Differential suite for replica-parallel batched stepping: every lane
//! of [`run_batch`] — under both batchable daemons (sync and
//! random-distributed at p ∈ {0.1, 0.25, 0.5, 0.9, 1.0}), with the no-op
//! and the lane monitor — must be observationally identical to an
//! independent scalar run of the same initial configuration under the
//! matching scalar daemon: same step/move counts, same stop reason, same
//! final configuration, and (measured) the same [`StabilizationReport`]
//! monitor fields index for index, across topologies × seeds × lane
//! counts K ∈ {1, 3, 12, 100} (every tail of the 8/4/1 lane chunks, and
//! lanes that stop at different steps). The dist lanes additionally pin
//! the per-lane RNG streams: lane `l` seeded with `s` replays the scalar
//! daemon seeded with `s` draw for draw, including the empty-sample
//! fallback that p = 0.1 takes often.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specstab_kernel::batch::{run_batch, BatchDaemon, LaneMonitor, NoMonitor, PackedProtocol};
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{Daemon, RandomDistributedDaemon, SynchronousDaemon};
use specstab_kernel::engine::{RunLimits, Simulator};
use specstab_kernel::measure::{MeasurementContext, StabilizationReport};
use specstab_kernel::observer::ConfigPredicate;
use specstab_kernel::protocol::{random_configuration, Protocol, RuleId, RuleInfo, View};
use specstab_kernel::spec::{
    Aggregate, LaneSpecification, LocalCounts, LocalSpecification, Specification,
};
use specstab_topology::{generators, Graph, VertexId};
use std::ops::Range;

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

/// The neighbor maximum of vertex `v` in lane `l`.
fn best_neighbor(graph: &Graph, v: usize, lanes: usize, l: usize, soa: &[u32]) -> u32 {
    graph.neighbors(VertexId::new(v)).iter().map(|u| soa[u.index() * lanes + l]).max().unwrap_or(0)
}

impl PackedProtocol for MaxProto {
    type Lane = u32;

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
    ) {
        for v in 0..graph.n() {
            for l in 0..lanes {
                let best = best_neighbor(graph, v, lanes, l, soa);
                fired[v * lanes + l] = best > soa[v * lanes + l];
                next[v * lanes + l] = best;
            }
        }
    }
}

/// A radius-1 specification of the max flood. Safety: no vertex differs
/// from a neighbor (all equal on a connected graph) — violated until the
/// run terminates, so violation tracking records something mid-run.
/// Legitimacy: at most two vertices still lag a neighbor — often reached
/// well before termination, so early stop cuts runs short, and decided
/// within the first row block on the larger graphs, so the monitor's
/// early exit runs.
#[derive(Clone)]
struct MaxSpec;

impl MaxSpec {
    fn differs(v: VertexId, c: &Configuration<u32>, g: &Graph) -> bool {
        g.neighbors(v).iter().any(|&u| c.get(u) != c.get(v))
    }

    fn lags(v: VertexId, c: &Configuration<u32>, g: &Graph) -> bool {
        g.neighbors(v).iter().any(|&u| c.get(u) > c.get(v))
    }
}

impl Specification<u32> for MaxSpec {
    fn name(&self) -> String {
        "max-flood".into()
    }
    fn is_safe(&self, c: &Configuration<u32>, g: &Graph) -> bool {
        g.vertices().all(|v| !Self::differs(v, c, g))
    }
    fn is_legitimate(&self, c: &Configuration<u32>, g: &Graph) -> bool {
        g.vertices().filter(|&v| Self::lags(v, c, g)).count() <= 2
    }
}

impl LocalSpecification<u32> for MaxSpec {
    fn radius(&self) -> u32 {
        1
    }
    fn local_counts(&self, v: VertexId, c: &Configuration<u32>, g: &Graph) -> LocalCounts {
        LocalCounts {
            safety: u32::from(Self::differs(v, c, g)),
            legitimacy: u32::from(Self::lags(v, c, g)),
        }
    }
    fn safety_rule(&self) -> Aggregate {
        Aggregate::AtMost(0)
    }
    fn legitimacy_rule(&self) -> Aggregate {
        Aggregate::AtMost(2)
    }
}

impl LaneSpecification<u32, u32> for MaxSpec {
    fn add_safety_rows(
        &self,
        g: &Graph,
        rows: Range<usize>,
        lanes: usize,
        soa: &[u32],
        totals: &mut [u32],
    ) {
        for v in rows {
            for (l, total) in totals.iter_mut().enumerate().take(lanes) {
                let s = soa[v * lanes + l];
                let differs =
                    g.neighbors(VertexId::new(v)).iter().any(|u| soa[u.index() * lanes + l] != s);
                *total += u32::from(differs);
            }
        }
    }
    fn add_legitimacy_rows(
        &self,
        g: &Graph,
        rows: Range<usize>,
        lanes: usize,
        soa: &[u32],
        totals: &mut [u32],
    ) {
        for v in rows {
            for (l, total) in totals.iter_mut().enumerate().take(lanes) {
                *total += u32::from(best_neighbor(g, v, lanes, l, soa) > soa[v * lanes + l]);
            }
        }
    }
}

/// Small graphs of every shape, plus two past the lane monitor's 32-row
/// block.
fn graph_for(case: u8) -> Graph {
    match case % 6 {
        0 => generators::ring(9).unwrap(),
        1 => generators::torus(3, 4).unwrap(),
        2 => generators::path(7).unwrap(),
        3 => generators::complete(5).unwrap(),
        4 => generators::torus(6, 7).unwrap(),
        _ => generators::ring(70).unwrap(),
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

fn safety() -> ConfigPredicate<u32> {
    Box::new(|c, g| MaxSpec.is_safe(c, g))
}

fn legitimacy() -> ConfigPredicate<u32> {
    Box::new(|c, g| MaxSpec.is_legitimate(c, g))
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

/// The inclusion probabilities the dist lanes are checked at: p = 0.1
/// takes the empty-sample fallback often, p = 1.0 never.
const PS: [f64; 5] = [0.1, 0.25, 0.5, 0.9, 1.0];

/// The lane counts: every tail of the 8/4/1 lane chunks.
const LANE_COUNTS: [usize; 4] = [1, 3, 12, 100];

/// Sync, then dist:p at each of [`PS`].
fn mode(pick: usize) -> BatchDaemon {
    match pick {
        0 => BatchDaemon::Sync,
        i => BatchDaemon::RandomDistributed { p: PS[i - 1] },
    }
}

/// One daemon seed per lane under dist:p; sync takes none.
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
        BatchDaemon::RandomDistributed { p } => Box::new(RandomDistributedDaemon::new(p, seeds[l])),
        BatchDaemon::CentralRr | BatchDaemon::CentralRand => unreachable!("not batched"),
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
/// report and final configuration to the scalar `MeasurementContext`
/// over the same specification's full-scan predicates.
fn check_measured(mode: BatchDaemon, case: u8, seed: u64, k: usize, early: bool) {
    let graph = graph_for(case);
    let n = graph.n() as u64;
    let inits = random_inits(&graph, k, seed);
    let seeds = lane_seeds(mode, k, seed);
    let margin = if early { 2 } else { usize::MAX };
    let monitor = LaneMonitor::new(&MaxSpec, margin);
    let measured = run_batch(&graph, &MaxProto, mode, &seeds, &inits, 1_000, monitor);
    prop_assert_eq!(measured.len(), k);
    let sim = Simulator::new(&graph, &MaxProto);
    for (l, ((report, final_config), init)) in measured.iter().zip(&inits).enumerate() {
        let mut ctx = MeasurementContext::new(safety(), legitimacy());
        if early {
            ctx = ctx.with_early_stop(legitimacy(), margin);
        }
        let mut daemon = scalar_daemon(mode, &seeds, l);
        let scalar = ctx.run(&sim, daemon.as_mut(), init.clone(), 1_000);
        assert_reports_match(report, &scalar);
        // Each configuration costs a full safety sweep plus 1..=n rows of
        // the legitimacy sweep.
        let configs = report.steps_run as u64 + 1;
        let evals = report.counters.monitor_evals;
        prop_assert!((configs * (n + 1)..=configs * 2 * n).contains(&evals), "{evals} evals");
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
    /// both batchable daemons — under dist:p, lanes disagree about which
    /// vertices move from the very first step.
    #[test]
    fn batch_equals_scalar_runs(
        case in 0u8..6,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        mode_pick in 0usize..6,
        tight in 0u8..2,
    ) {
        let k = LANE_COUNTS[k_pick];
        check_plain(mode(mode_pick), case, seed, k, step_budget(tight));
    }

    /// Batched random-distributed runs equal K independent scalar runs
    /// under `RandomDistributedDaemon` with the same per-lane seeds: each
    /// lane replays its scalar replica's `gen_bool` coin sequence plus
    /// the uniform fallback draw on empty samples.
    #[test]
    fn batch_random_distributed_equals_scalar_runs(
        case in 0u8..6,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        p_pick in 0usize..5,
        tight in 0u8..2,
    ) {
        let k = LANE_COUNTS[k_pick];
        let mode = BatchDaemon::RandomDistributed { p: PS[p_pick] };
        check_plain(mode, case, seed, k, step_budget(tight));
    }

    /// Measured batched runs replicate the scalar `MeasurementContext`
    /// monitor stack (with and without early stop) lane for lane under
    /// both batchable daemons, with safety violated mid-run and
    /// legitimacy (hence early stop) reachable before termination.
    #[test]
    fn batch_measured_equals_scalar_measurement(
        case in 0u8..6,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        mode_pick in 0usize..6,
        early_pick in 0u8..2,
    ) {
        let k = LANE_COUNTS[k_pick];
        check_measured(mode(mode_pick), case, seed, k, early_pick == 1);
    }

    /// The monitor never perturbs the run: with an early-stop margin no
    /// run reaches, the no-op and lane monitors agree on steps, moves,
    /// stop reason and final configuration lane for lane under both
    /// batchable daemons.
    #[test]
    fn lane_monitor_without_early_stop_matches_no_monitor(
        case in 0u8..6,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        mode_pick in 0usize..6,
    ) {
        let mode = mode(mode_pick);
        let k = LANE_COUNTS[k_pick];
        let graph = graph_for(case);
        let inits = random_inits(&graph, k, seed);
        let seeds = lane_seeds(mode, k, seed);
        let plain = run_batch(&graph, &MaxProto, mode, &seeds, &inits, 1_000, NoMonitor);
        let monitor = LaneMonitor::new(&MaxSpec, usize::MAX);
        let measured = run_batch(&graph, &MaxProto, mode, &seeds, &inits, 1_000, monitor);
        for (lane, (report, final_config)) in plain.iter().zip(&measured) {
            prop_assert_eq!(lane.steps, report.steps_run);
            prop_assert_eq!(lane.moves, report.moves);
            prop_assert_eq!(lane.stop, report.stop);
            prop_assert_eq!(&lane.final_config, final_config);
        }
    }
}

/// The central variants have no batched schedule.
#[test]
#[should_panic(expected = "central daemons have no batched schedule")]
fn central_daemons_do_not_batch() {
    let graph = graph_for(0);
    let inits = random_inits(&graph, 2, 1);
    let _ = run_batch(&graph, &MaxProto, BatchDaemon::CentralRr, &[], &inits, 10, NoMonitor);
}
