//! Stabilization-time measurement (Definition 3, empirically).
//!
//! For a single execution the *measured* stabilization time w.r.t. a safety
//! predicate is `last violation index + 1`. Provided the run extends past
//! entry into a closed legitimate region, that number certifies suffix
//! satisfaction (closure of the legitimate set is validated separately by
//! tests and by [`crate::spec::closure_violation`]).
//!
//! The daemon-level stabilization time `conv_time(π, d)` is the supremum
//! over all executions allowed by `d`; [`max_over_runs`] estimates it by
//! sampling (a lower bound on the worst case), while [`crate::search`]
//! computes it exactly on small instances.
//!
//! Two scalar measurement paths produce the same [`StabilizationReport`]:
//!
//! * [`SpecMonitor`] — the campaign's path: one observer over a
//!   [`LocalSpecification`] that keeps per-vertex counts up to date from
//!   each step's delta, O(touched · degree) per step;
//! * [`MeasurementContext`] — safety, legitimacy and early-stop monitors
//!   over arbitrary closure predicates, each rescanning the configuration
//!   after every step: the full-scan reference the incremental path is
//!   tested against.

use crate::config::Configuration;
use crate::daemon::Daemon;
use crate::engine::{RunLimits, RunSummary, Simulator, StepScratch, StopReason};
use crate::observer::{
    ConfigPredicate, LegitimacyMonitor, Observer, SafetyMonitor, StepEvent, StopAfterStable,
};
use crate::protocol::Protocol;
use crate::spec::{LocalCounts, LocalSpecification};
use specstab_telemetry::RunCounters;
use specstab_topology::{Graph, VertexId};
use std::marker::PhantomData;

/// Outcome of a measured run.
#[derive(Clone, Debug)]
pub struct StabilizationReport {
    /// Steps (actions) actually executed.
    pub steps_run: usize,
    /// Moves (vertex activations) executed.
    pub moves: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Index of the last configuration violating safety, if any.
    pub last_violation: Option<usize>,
    /// Number of unsafe configurations observed.
    pub violation_count: usize,
    /// Measured stabilization time w.r.t. safety: `last_violation + 1`.
    pub stabilization_steps: usize,
    /// First index at which the legitimacy predicate held.
    pub first_legitimate: Option<usize>,
    /// Index from which legitimacy held for the remainder of the run.
    pub legitimacy_entry: usize,
    /// Whether the run ended inside the legitimate region.
    pub ended_legitimate: bool,
    /// The run's deterministic engine counters (see
    /// [`crate::engine::RunSummary::counters`]) plus the monitor layer's
    /// `monitor_evals`, passed through so batch drivers can aggregate
    /// telemetry without touching the global.
    pub counters: RunCounters,
}

/// What one measured run accumulates, one `(index, safe, legitimate)`
/// verdict per configuration: the safety monitor's violations, the
/// legitimacy monitor's entry index, and the early-stop run length.
/// Shared by [`SpecMonitor`] and the batched
/// [`LaneMonitor`](crate::batch::LaneMonitor), so both assemble their
/// reports with one implementation.
#[derive(Clone, Debug, Default)]
pub(crate) struct MeasureRecord {
    violations: usize,
    last_violation: Option<usize>,
    first_legitimate: Option<usize>,
    last_illegitimate: Option<usize>,
    /// Consecutive legitimate configurations ending at the latest one.
    consecutive: usize,
}

impl MeasureRecord {
    /// Records the verdicts on configuration `index`.
    #[inline]
    pub(crate) fn observe(&mut self, index: usize, safe: bool, legitimate: bool) {
        if !safe {
            self.violations += 1;
            self.last_violation = Some(index);
        }
        if legitimate {
            self.first_legitimate.get_or_insert(index);
            self.consecutive += 1;
        } else {
            self.last_illegitimate = Some(index);
            self.consecutive = 0;
        }
    }

    /// Whether legitimacy has held for `margin + 1` consecutive
    /// configurations.
    #[inline]
    pub(crate) fn stable_for(&self, margin: usize) -> bool {
        self.consecutive > margin
    }

    /// The report of a run that executed `steps` steps and `moves` moves.
    pub(crate) fn report(
        &self,
        steps: usize,
        moves: u64,
        stop: StopReason,
        counters: RunCounters,
    ) -> StabilizationReport {
        StabilizationReport {
            steps_run: steps,
            moves,
            stop,
            last_violation: self.last_violation,
            violation_count: self.violations,
            stabilization_steps: self.last_violation.map_or(0, |i| i + 1),
            first_legitimate: self.first_legitimate,
            legitimacy_entry: self.last_illegitimate.map_or(0, |i| i + 1),
            ended_legitimate: self.consecutive > 0,
            counters,
        }
    }
}

/// The campaign's measurement observer: safety, legitimacy and early
/// stopping for a [`LocalSpecification`], kept up to date incrementally.
///
/// `on_start` computes every vertex's [`LocalCounts`] (n evaluations).
/// After each step only the vertices within the specification's radius of
/// the step's delta are recomputed — about five on a torus under a
/// central daemon, instead of a full scan per predicate. For radius-1
/// specifications that ball is the engine's [`StepEvent::touched`] set;
/// other radii collect their own. Safety and
/// legitimacy are each evaluated once from the running totals; the
/// legitimacy verdict also drives the early stop. The report equals
/// [`MeasurementContext`] with `with_early_stop(legitimacy, margin)` over
/// the same specification, field for field except `counters.monitor_evals`
/// (the per-vertex evaluations actually performed).
///
/// Steady-state steps allocate nothing: the count and stamp arrays are
/// sized once at `on_start`.
pub struct SpecMonitor<'a, S, Sp> {
    spec: &'a Sp,
    early_stop_margin: usize,
    counts: Vec<LocalCounts>,
    safety_total: u64,
    legitimacy_total: u64,
    /// The vertices recomputed this step when the radius is not 1: the
    /// radius-ball of the delta.
    ball: Vec<VertexId>,
    /// Generation stamps deduplicating `ball`; a generation bump clears
    /// them (as in the engine's `StepScratch`).
    stamps: Vec<u64>,
    generation: u64,
    record: MeasureRecord,
    evals: u64,
    _state: PhantomData<fn(&S)>,
}

impl<'a, S, Sp: LocalSpecification<S>> SpecMonitor<'a, S, Sp> {
    /// A monitor for `spec` that stops the run once legitimacy has held for
    /// `early_stop_margin + 1` consecutive configurations.
    #[must_use]
    pub fn new(spec: &'a Sp, early_stop_margin: usize) -> Self {
        Self {
            spec,
            early_stop_margin,
            counts: Vec::new(),
            safety_total: 0,
            legitimacy_total: 0,
            ball: Vec::new(),
            stamps: Vec::new(),
            generation: 0,
            record: MeasureRecord::default(),
            evals: 0,
            _state: PhantomData,
        }
    }

    /// The `(safe, legitimate)` verdicts on the latest observed
    /// configuration.
    #[must_use]
    pub fn verdicts(&self) -> (bool, bool) {
        (
            self.spec.safety_rule().holds(self.safety_total),
            self.spec.legitimacy_rule().holds(self.legitimacy_total),
        )
    }

    /// The report of the run `summary` describes, which this monitor
    /// observed.
    #[must_use]
    pub fn report(&self, summary: &RunSummary<S>) -> StabilizationReport {
        let counters = RunCounters { monitor_evals: self.evals, ..summary.counters };
        self.record.report(summary.steps, summary.moves, summary.stop, counters)
    }

    /// Executes one measured run on `sim` with caller-supplied engine
    /// scratch buffers (see [`MeasurementContext::run_with_scratch`]) and
    /// flushes `monitor_evals` to the global telemetry. The engine's step
    /// loop runs monomorphized over this monitor: no `dyn` call per step.
    pub fn run_with_scratch<P: Protocol<State = S>>(
        mut self,
        sim: &Simulator<'_, P>,
        daemon: &mut dyn Daemon<S>,
        init: Configuration<S>,
        max_steps: usize,
        scratch: &mut StepScratch<S>,
    ) -> StabilizationReport {
        let limits = RunLimits::with_max_steps(max_steps);
        let summary = sim.run_observed(init, daemon, limits, &mut self, scratch);
        specstab_telemetry::global().record_monitor_evals(self.evals);
        self.report(&summary)
    }

    fn check(&mut self, index: usize) {
        let (safe, legitimate) = self.verdicts();
        self.record.observe(index, safe, legitimate);
    }

    /// Collects into `self.ball` the vertices within the specification's
    /// radius of the step's delta, each once.
    fn collect_ball(&mut self, event: &StepEvent<'_, S>) {
        let graph = event.graph;
        self.generation += 1;
        let gen = self.generation;
        self.ball.clear();
        for (v, _, _) in event.delta {
            if self.stamps[v.index()] != gen {
                self.stamps[v.index()] = gen;
                self.ball.push(*v);
            }
        }
        // Grow the ball one BFS layer per unit of radius.
        let mut layer = 0;
        for _ in 0..self.spec.radius() {
            let end = self.ball.len();
            if end == graph.n() {
                break;
            }
            for i in layer..end {
                for &u in graph.neighbors(self.ball[i]) {
                    if self.stamps[u.index()] != gen {
                        self.stamps[u.index()] = gen;
                        self.ball.push(u);
                    }
                }
            }
            layer = end;
        }
    }
}

impl<S, Sp: LocalSpecification<S>> Observer<S> for SpecMonitor<'_, S, Sp> {
    fn on_start(&mut self, config: &Configuration<S>, graph: &Graph) {
        let spec = self.spec;
        self.counts.clear();
        self.counts.extend(graph.vertices().map(|v| spec.local_counts(v, config, graph)));
        self.safety_total = self.counts.iter().map(|c| u64::from(c.safety)).sum();
        self.legitimacy_total = self.counts.iter().map(|c| u64::from(c.legitimacy)).sum();
        self.stamps.clear();
        self.stamps.resize(graph.n(), 0);
        self.generation = 0;
        self.record = MeasureRecord::default();
        self.evals = graph.n() as u64;
        self.check(0);
    }

    fn on_step(&mut self, event: &StepEvent<'_, S>) {
        let (spec, graph) = (self.spec, event.graph);
        // The engine already collected the radius-1 ball of the delta.
        let ball = if spec.radius() == 1 {
            event.touched
        } else {
            self.collect_ball(event);
            &self.ball
        };
        for &v in ball {
            let new = spec.local_counts(v, event.after, graph);
            let old = std::mem::replace(&mut self.counts[v.index()], new);
            self.safety_total = self.safety_total - u64::from(old.safety) + u64::from(new.safety);
            self.legitimacy_total =
                self.legitimacy_total - u64::from(old.legitimacy) + u64::from(new.legitimacy);
        }
        self.evals += ball.len() as u64;
        self.check(event.step);
    }

    fn should_stop(&self) -> bool {
        self.record.stable_for(self.early_stop_margin)
    }
}

/// Parameters for [`measure_stabilization`].
pub struct MeasureSettings {
    /// Hard cap on executed steps.
    pub max_steps: usize,
}

impl MeasureSettings {
    /// Settings with a step cap.
    #[must_use]
    pub fn new(max_steps: usize) -> Self {
        Self { max_steps }
    }
}

/// The reusable per-run measurement context over closure predicates:
/// safety + legitimacy monitors and optional early stopping, bundled so
/// every caller (the `measure_*` helpers here, the experiments, ad-hoc
/// tools) assembles identical [`StabilizationReport`]s. Moves come from
/// the run summary.
///
/// Each monitor evaluates its predicate on the whole configuration after
/// every step, so a context is also the full-scan reference for
/// [`SpecMonitor`], which the campaign executor runs instead. Its
/// `counters.monitor_evals` counts n vertex evaluations per predicate
/// call.
///
/// All three monitors observe borrowed configurations and the step delta —
/// none of them clones, so a measured run keeps the engine's
/// zero-allocation steady state (see [`crate::engine`]).
///
/// A context is one-shot: build, [`MeasurementContext::run`], read the
/// report. It is `Send`, so whole measured runs can be dispatched to worker
/// threads.
pub struct MeasurementContext<S> {
    safety_mon: SafetyMonitor<S>,
    legit_mon: LegitimacyMonitor<S>,
    stopper: Option<StopAfterStable<S>>,
}

impl<S> MeasurementContext<S> {
    /// A context measuring the given safety and legitimacy predicates.
    #[must_use]
    pub fn new(safety: ConfigPredicate<S>, legitimacy: ConfigPredicate<S>) -> Self {
        Self {
            safety_mon: SafetyMonitor::new(safety),
            legit_mon: LegitimacyMonitor::new(legitimacy),
            stopper: None,
        }
    }

    /// Additionally stops the run once `stop_pred` (expected closed) has
    /// held for `margin + 1` consecutive configurations.
    #[must_use]
    pub fn with_early_stop(mut self, stop_pred: ConfigPredicate<S>, margin: usize) -> Self {
        self.stopper = Some(StopAfterStable::new(stop_pred, margin));
        self
    }

    /// Executes one measured run on `sim` and assembles the report.
    pub fn run<P: Protocol<State = S>>(
        self,
        sim: &Simulator<'_, P>,
        daemon: &mut dyn Daemon<S>,
        init: Configuration<S>,
        max_steps: usize,
    ) -> StabilizationReport {
        let mut scratch = StepScratch::new();
        self.run_with_scratch(sim, daemon, init, max_steps, &mut scratch)
    }

    /// [`MeasurementContext::run`] with caller-supplied engine scratch
    /// buffers, so batch drivers (e.g. the campaign executor's workers)
    /// amortize the per-run buffer setup across many measured runs.
    pub fn run_with_scratch<P: Protocol<State = S>>(
        mut self,
        sim: &Simulator<'_, P>,
        daemon: &mut dyn Daemon<S>,
        init: Configuration<S>,
        max_steps: usize,
        scratch: &mut StepScratch<S>,
    ) -> StabilizationReport {
        let limits = RunLimits::with_max_steps(max_steps);
        let (safety, legit) = (&mut self.safety_mon, &mut self.legit_mon);
        let summary = match self.stopper.as_mut() {
            Some(stopper) => {
                sim.run_with_scratch(init, daemon, limits, &mut [safety, legit, stopper], scratch)
            }
            None => sim.run_with_scratch(init, daemon, limits, &mut [safety, legit], scratch),
        };
        // Every monitor scans all n vertices once per configuration.
        let monitors = 2 + usize::from(self.stopper.is_some());
        let monitor_evals = (monitors * (summary.steps + 1) * sim.graph().n()) as u64;
        specstab_telemetry::global().record_monitor_evals(monitor_evals);
        StabilizationReport {
            steps_run: summary.steps,
            moves: summary.moves,
            stop: summary.stop,
            last_violation: self.safety_mon.last_violation(),
            violation_count: self.safety_mon.violations(),
            stabilization_steps: self.safety_mon.measured_stabilization(),
            first_legitimate: self.legit_mon.first_legitimate(),
            legitimacy_entry: self.legit_mon.entry_index(),
            ended_legitimate: self.legit_mon.currently_legitimate(),
            counters: RunCounters { monitor_evals, ..summary.counters },
        }
    }
}

/// Runs `protocol` from `init` under `daemon`, measuring safety violations
/// and legitimacy entry. The run uses the full step budget (or stops at a
/// terminal configuration); use [`measure_with_early_stop`] to cut runs
/// short once a closed legitimate region is reached.
pub fn measure_stabilization<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    daemon: &mut dyn Daemon<P::State>,
    init: Configuration<P::State>,
    safety: ConfigPredicate<P::State>,
    legitimacy: ConfigPredicate<P::State>,
    settings: &MeasureSettings,
) -> StabilizationReport {
    let sim = Simulator::new(graph, protocol);
    MeasurementContext::new(safety, legitimacy).run(&sim, daemon, init, settings.max_steps)
}

/// Runs [`measure_stabilization`] repeatedly (fresh daemon state per run via
/// `Daemon::reset`, distinct initial configurations supplied by `inits`) and
/// returns the per-run reports.
pub fn measure_many<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    daemon: &mut dyn Daemon<P::State>,
    inits: impl IntoIterator<Item = Configuration<P::State>>,
    safety: impl Fn() -> ConfigPredicate<P::State>,
    legitimacy: impl Fn() -> ConfigPredicate<P::State>,
    settings: &MeasureSettings,
) -> Vec<StabilizationReport> {
    inits
        .into_iter()
        .map(|init| {
            measure_stabilization(graph, protocol, daemon, init, safety(), legitimacy(), settings)
        })
        .collect()
}

/// Maximum measured stabilization time across reports — the sampling
/// estimate (lower bound) of `conv_time(π, d)`.
#[must_use]
pub fn max_over_runs(reports: &[StabilizationReport]) -> usize {
    reports.iter().map(|r| r.stabilization_steps).max().unwrap_or(0)
}

/// Convenience: run once with early stopping once a *closed* legitimacy
/// predicate has held for `margin + 1` consecutive configurations.
///
/// Because legitimacy is closed, stopping early cannot hide later safety
/// violations: the execution suffix stays legitimate (hence safe) forever.
#[allow(clippy::too_many_arguments)]
pub fn measure_with_early_stop<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    daemon: &mut dyn Daemon<P::State>,
    init: Configuration<P::State>,
    safety: ConfigPredicate<P::State>,
    legitimacy: ConfigPredicate<P::State>,
    stop_pred: ConfigPredicate<P::State>,
    max_steps: usize,
    margin: usize,
) -> StabilizationReport {
    let sim = Simulator::new(graph, protocol);
    MeasurementContext::new(safety, legitimacy)
        .with_early_stop(stop_pred, margin)
        .run(&sim, daemon, init, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::SynchronousDaemon;
    use crate::protocol::{RuleId, RuleInfo, View};
    use rand::rngs::StdRng;
    use rand::Rng;
    use specstab_topology::{generators, VertexId};

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
            rng.gen_range(0..16)
        }
    }

    fn uniform_pred() -> ConfigPredicate<u32> {
        Box::new(|c, _| c.states().windows(2).all(|w| w[0] == w[1]))
    }

    #[test]
    fn measure_reports_stabilization_on_path() {
        let g = generators::path(6).unwrap();
        let init = Configuration::from_fn(6, |v| if v.index() == 0 { 9 } else { 0 });
        let mut d = SynchronousDaemon::new();
        let report = measure_stabilization(
            &g,
            &MaxProto,
            &mut d,
            init,
            uniform_pred(),
            uniform_pred(),
            &MeasureSettings::new(100),
        );
        assert_eq!(report.stabilization_steps, 5);
        assert_eq!(report.legitimacy_entry, 5);
        assert!(report.ended_legitimate);
        assert_eq!(report.stop, StopReason::Terminal);
    }

    #[test]
    fn early_stop_does_not_change_measured_value() {
        let g = generators::path(8).unwrap();
        let init = Configuration::from_fn(8, |v| if v.index() == 0 { 9 } else { 0 });
        let mut d = SynchronousDaemon::new();
        let report = measure_with_early_stop(
            &g,
            &MaxProto,
            &mut d,
            init,
            uniform_pred(),
            uniform_pred(),
            uniform_pred(),
            1000,
            2,
        );
        assert_eq!(report.stabilization_steps, 7);
        assert!(report.ended_legitimate);
    }

    #[test]
    fn measure_many_and_max() {
        let g = generators::path(5).unwrap();
        let inits = vec![
            Configuration::from_fn(5, |v| if v.index() == 0 { 9 } else { 0 }),
            Configuration::from_fn(5, |v| if v.index() == 2 { 9 } else { 0 }),
            Configuration::from_fn(5, |_| 9),
        ];
        let mut d = SynchronousDaemon::new();
        let reports = measure_many(
            &g,
            &MaxProto,
            &mut d,
            inits,
            uniform_pred,
            uniform_pred,
            &MeasureSettings::new(100),
        );
        assert_eq!(reports.len(), 3);
        // Worst case: the max value at an end of the path (4 steps to cover
        // distance 4 = eccentricity of v0).
        assert_eq!(max_over_runs(&reports), 4);
        // The already-uniform run never violates safety.
        assert_eq!(reports[2].stabilization_steps, 0);
    }

    /// Safe: at most one vertex holds 0. Legitimate: uniform, read as "no
    /// vertex differs from a vertex within distance `r`" (any `r ≥ 1`
    /// decides uniformity on a connected graph).
    #[derive(Clone)]
    struct Near {
        r: u32,
    }
    impl crate::spec::Specification<u32> for Near {
        fn name(&self) -> String {
            "near".into()
        }
        fn is_safe(&self, c: &Configuration<u32>, _g: &Graph) -> bool {
            c.states().iter().filter(|&&s| s == 0).count() <= 1
        }
        fn is_legitimate(&self, c: &Configuration<u32>, _g: &Graph) -> bool {
            c.states().windows(2).all(|w| w[0] == w[1])
        }
    }
    impl LocalSpecification<u32> for Near {
        fn radius(&self) -> u32 {
            self.r
        }
        fn local_counts(&self, v: VertexId, c: &Configuration<u32>, g: &Graph) -> LocalCounts {
            let mut frontier = vec![v];
            let mut differs = false;
            for _ in 0..self.r {
                let next: Vec<VertexId> =
                    frontier.iter().flat_map(|&u| g.neighbors(u).iter().copied()).collect();
                differs |= next.iter().any(|&u| c.get(u) != c.get(v));
                frontier = next;
            }
            LocalCounts { safety: u32::from(*c.get(v) == 0), legitimacy: u32::from(differs) }
        }
        fn safety_rule(&self) -> crate::spec::Aggregate {
            crate::spec::Aggregate::AtMost(1)
        }
        fn legitimacy_rule(&self) -> crate::spec::Aggregate {
            crate::spec::Aggregate::AtMost(0)
        }
    }

    #[test]
    fn spec_monitor_matches_the_full_scan_context() {
        use crate::daemon::{CentralDaemon, CentralStrategy};
        use crate::spec::Specification;
        let g = generators::path(9).unwrap();
        for r in [1, 2] {
            let spec = Near { r };
            for seed in 0..20u64 {
                let init =
                    Configuration::from_fn(9, |v| ((v.index() as u64 * 7 + seed) % 4) as u32);
                let sim = Simulator::new(&g, &MaxProto);
                let mut d = CentralDaemon::new(CentralStrategy::Random(seed));
                let fast = SpecMonitor::new(&spec, 2).run_with_scratch(
                    &sim,
                    &mut d,
                    init.clone(),
                    1_000,
                    &mut StepScratch::new(),
                );
                let (s, l, st) = (spec.clone(), spec.clone(), spec.clone());
                let reference = MeasurementContext::new(
                    Box::new(move |c, g| s.is_safe(c, g)),
                    Box::new(move |c, g| l.is_legitimate(c, g)),
                )
                .with_early_stop(Box::new(move |c, g| st.is_legitimate(c, g)), 2)
                .run(&sim, &mut d, init, 1_000);
                assert_eq!(fast.steps_run, reference.steps_run, "r={r} seed {seed}");
                assert_eq!(fast.moves, reference.moves);
                assert_eq!(fast.stop, reference.stop);
                assert_eq!(fast.last_violation, reference.last_violation);
                assert_eq!(fast.violation_count, reference.violation_count);
                assert_eq!(fast.stabilization_steps, reference.stabilization_steps);
                assert_eq!(fast.first_legitimate, reference.first_legitimate);
                assert_eq!(fast.legitimacy_entry, reference.legitimacy_entry);
                assert_eq!(fast.ended_legitimate, reference.ended_legitimate);
                // One move per central step: the reference scans 3n per
                // configuration, the monitor the ball of one vertex.
                let configs = fast.steps_run as u64 + 1;
                assert_eq!(reference.counters.monitor_evals, 3 * 9 * configs);
                assert!(fast.counters.monitor_evals <= 9 + (2 * u64::from(r) + 1) * configs);
            }
        }
    }
}
