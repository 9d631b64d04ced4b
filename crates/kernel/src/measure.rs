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

use crate::config::Configuration;
use crate::daemon::Daemon;
use crate::engine::{RunLimits, Simulator, StepScratch, StopReason};
use crate::observer::{ConfigPredicate, LegitimacyMonitor, SafetyMonitor, StopAfterStable};
use crate::protocol::Protocol;
use specstab_topology::Graph;

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
    /// [`crate::engine::RunSummary::counters`]), passed through so batch
    /// drivers can aggregate telemetry without touching the global.
    pub counters: specstab_telemetry::RunCounters,
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

/// The reusable per-run measurement context: safety + legitimacy monitors
/// and optional early stopping, bundled so every caller (the `measure_*`
/// helpers here, the campaign executor's workers, ad-hoc tools) assembles
/// identical [`StabilizationReport`]s. Moves come from the run summary.
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
            counters: summary.counters,
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
}
