//! The execution engine: applies daemon-chosen actions step by step.
//!
//! One **step** (the paper's unit of stabilization time) is one action
//! `(γ, γ')`: the daemon selects a nonempty subset of the enabled vertices,
//! each of which atomically computes its next state from `γ`. The engine
//! additionally counts **moves** (individual vertex activations).
//!
//! # The step loop
//!
//! [`Simulator::run_observed`] is the one step loop; every other entry
//! point is a thin call into it. Per step it
//!
//! 1. asks the daemon for a selection over the [`EnabledSet`], a counted
//!    word bitset (see [`crate::enabled`]): a central random pick is one
//!    RNG draw plus one branch-free rank/select, with no work that grows
//!    with the number of enabled vertices;
//! 2. fires every selected vertex with the rule **cached** when its guard
//!    was last evaluated, so a guard is evaluated once per change of its
//!    neighborhood, not again to fire;
//! 3. collects the **touched** set, the radius-1 ball around the step's
//!    delta (the activated vertices and their neighbors), deduplicated by
//!    a generation-stamped mark array (one store per mark, clearing is a
//!    generation bump, no sort);
//! 4. re-evaluates the touched guards into the rule cache and flips their
//!    bits in the enabled set: nothing outside the ball can change status;
//! 5. hands the step to the observer — generic, so a single monitor such
//!    as [`crate::measure::SpecMonitor`] runs without `dyn` calls, while
//!    a `&mut [&mut dyn Observer]` slice fans out to several.
//!
//! # Zero-allocation stepping
//!
//! Speculation profiles are estimated by simulating millions of steps, so
//! the steady-state step loop performs **zero heap allocations and zero
//! configuration clones** (measured by the `config_clones` counter of
//! [`specstab_telemetry::counters::global`]):
//!
//! * configurations are **double-buffered** — the successor is written
//!   into a reused buffer which is swapped with the current configuration
//!   and then *repaired* from the step's delta (`O(|activated|)` instead
//!   of an `O(n)` copy);
//! * the enabled set, the rule cache, the touched set and the stamps are
//!   sized once per run and updated in place;
//! * daemons write their selection into a reused scratch buffer and preview
//!   candidate actions into a per-daemon scratch configuration
//!   ([`crate::daemon::SelectionContext::preview`]);
//! * observers receive the step's `(vertex, before, after)` **delta**
//!   alongside borrowed before/after configurations, so monitors never need
//!   to clone.
//!
//! Daemons emit their selections in ascending order (they walk the
//! enabled set in order); the engine verifies that with one `O(k)` scan
//! and deduplicates and sorts only on the rare out-of-order fallback, so
//! activations and deltas are always reported in vertex order. Steady-state
//! guard evaluation goes through bounds-`debug_assert`ed [`View`]s over
//! cached CSR neighbor slices; the checked constructors still guard run
//! entry and every public one-shot API.
//!
//! All reusable buffers live in [`StepScratch`]; [`Simulator::run`] creates
//! one per run, and [`Simulator::run_with_scratch`] lets batch drivers reuse
//! buffers across runs. The clone-based original loop is retained as
//! `Simulator::run_reference` for differential testing (compiled under
//! `cfg(test)` or the `reference` feature only — release builds drop it).

use crate::config::Configuration;
use crate::daemon::{Daemon, SelectionContext};
use crate::enabled::EnabledSet;
use crate::observer::{Observer, StepEvent};
use crate::protocol::{Protocol, RuleId, View};
use specstab_telemetry::RunCounters;
use specstab_topology::{Graph, VertexId};

/// Why a run stopped.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// No vertex was enabled: the configuration is terminal.
    Terminal,
    /// The step limit was reached.
    MaxSteps,
    /// An observer requested the stop (e.g. legitimacy + margin reached).
    ObserverRequest,
}

/// Resource limits for a run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RunLimits {
    /// Maximum number of steps (actions) to execute.
    pub max_steps: usize,
}

impl RunLimits {
    /// Limits with the given step cap.
    #[must_use]
    pub fn with_max_steps(max_steps: usize) -> Self {
        Self { max_steps }
    }
}

/// Result of a run.
#[derive(Clone, Debug)]
pub struct RunSummary<S> {
    /// The configuration when the run stopped.
    pub final_config: Configuration<S>,
    /// Steps (actions) executed.
    pub steps: usize,
    /// Moves (vertex activations) executed.
    pub moves: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Deterministic telemetry tallies of this run (steps, moves, guard
    /// evaluations, delta bytes), accumulated in plain locals by the step
    /// loop and flushed to the process-global aggregate exactly once, here.
    pub counters: RunCounters,
}

/// Reusable scratch buffers for the zero-allocation step loop.
///
/// One `StepScratch` holds every buffer a run mutates per step: the
/// double-buffered successor configuration, the daemon's selection, the
/// touched set (activated vertices + neighbors), the fired `(vertex, rule)`
/// pairs, the step delta, the enabled set and the per-vertex rule cache.
/// After warm-up (first step sizes the buffers) a steady-state step
/// allocates nothing.
///
/// [`Simulator::run`] creates one internally; batch drivers that execute
/// many runs back to back can hold one and call
/// [`Simulator::run_with_scratch`] to reuse the buffers across runs.
#[derive(Clone, Debug)]
pub struct StepScratch<S> {
    next: Configuration<S>,
    selection: Vec<VertexId>,
    touched: Vec<VertexId>,
    fired: Vec<(VertexId, RuleId)>,
    deltas: Vec<(VertexId, S, S)>,
    enabled: EnabledSet,
    /// Each vertex's enabled rule in the current configuration, stored
    /// wherever its guard is (re)evaluated, so firing applies it without
    /// evaluating the guard again. `rules[v].is_some()` iff `v ∈ enabled`.
    rules: Vec<Option<RuleId>>,
    /// Generation-stamped dense mark array: `stamps[v] == generation` means
    /// "v is in the set currently being deduplicated". Clearing the set is
    /// one `generation` bump — no `O(n)` memset, no comparison sort.
    stamps: Vec<u64>,
    generation: u64,
}

impl<S> StepScratch<S> {
    /// Creates empty scratch buffers (sized lazily by the first run).
    #[must_use]
    pub fn new() -> Self {
        Self {
            next: Configuration::new(Vec::new()),
            selection: Vec::new(),
            touched: Vec::new(),
            fired: Vec::new(),
            deltas: Vec::new(),
            enabled: EnabledSet::default(),
            rules: Vec::new(),
            stamps: Vec::new(),
            generation: 0,
        }
    }
}

impl<S> Default for StepScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Simulator binding a protocol to a communication graph.
///
/// See the crate-level example for a full usage walk-through.
pub struct Simulator<'a, P: Protocol> {
    graph: &'a Graph,
    protocol: &'a P,
}

impl<'a, P: Protocol> Simulator<'a, P> {
    /// Creates a simulator for `protocol` on `graph`.
    #[must_use]
    pub fn new(graph: &'a Graph, protocol: &'a P) -> Self {
        Self { graph, protocol }
    }

    /// The communication graph.
    #[must_use]
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The protocol under simulation.
    #[must_use]
    pub fn protocol(&self) -> &'a P {
        self.protocol
    }

    /// The rule enabled at `v` in `config`, if any.
    #[must_use]
    pub fn enabled_rule(&self, config: &Configuration<P::State>, v: VertexId) -> Option<RuleId> {
        let view = View::new(v, self.graph, config);
        self.protocol.enabled_rule(&view)
    }

    /// [`Simulator::enabled_rule`] through a bounds-`debug_assert`ed view —
    /// the steady-state guard-evaluation path (`v` always comes from the
    /// engine's own graph, and the configuration length was checked at run
    /// entry).
    #[inline]
    fn enabled_rule_unchecked(
        &self,
        config: &Configuration<P::State>,
        v: VertexId,
    ) -> Option<RuleId> {
        let view = View::new_unchecked(v, self.graph, config);
        self.protocol.enabled_rule(&view)
    }

    /// All enabled vertices of `config`, sorted by index.
    #[must_use]
    pub fn enabled_vertices(&self, config: &Configuration<P::State>) -> Vec<VertexId> {
        self.graph.vertices().filter(|&v| self.enabled_rule(config, v).is_some()).collect()
    }

    /// Applies one action activating exactly the vertices in `activate`
    /// (which must all be enabled). Returns the successor configuration and
    /// the `(vertex, rule)` pairs that fired.
    ///
    /// Thin allocating wrapper over [`Simulator::apply_action_into`]; batch
    /// callers should prefer the buffer-reusing variant.
    ///
    /// # Panics
    ///
    /// Panics if some vertex in `activate` is not enabled in `config`.
    #[must_use]
    pub fn apply_action(
        &self,
        config: &Configuration<P::State>,
        activate: &[VertexId],
    ) -> (Configuration<P::State>, Vec<(VertexId, RuleId)>) {
        let mut next = Configuration::new(Vec::new());
        let mut fired = Vec::with_capacity(activate.len());
        self.apply_action_into(config, activate, &mut next, &mut fired);
        (next, fired)
    }

    /// Applies one action activating exactly the vertices in `activate`
    /// (which must all be enabled), overwriting `next` with the successor
    /// configuration (reusing its allocation) and `fired` with the
    /// `(vertex, rule)` pairs that fired. This is the engine's
    /// zero-allocation hot path: with warm buffers it performs no heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if some vertex in `activate` is not enabled in `config`.
    pub fn apply_action_into(
        &self,
        config: &Configuration<P::State>,
        activate: &[VertexId],
        next: &mut Configuration<P::State>,
        fired: &mut Vec<(VertexId, RuleId)>,
    ) {
        next.clone_from(config);
        fired.clear();
        for &v in activate {
            let (rule, state) = self.fire_rule(config, v);
            next.set(v, state);
            fired.push((v, rule));
        }
    }

    /// Evaluates and executes the enabled rule of `v` in `config` — the one
    /// shared body behind the one-shot action appliers
    /// (`apply_action_into`, daemon previews), so their activation
    /// semantics cannot diverge. The step loop applies the same
    /// `enabled_rule` result, cached when the guard was evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not enabled in `config`.
    #[inline]
    fn fire_rule(&self, config: &Configuration<P::State>, v: VertexId) -> (RuleId, P::State) {
        self.fire_view(&View::new(v, self.graph, config), v)
    }

    /// [`Simulator::fire_rule`] through a bounds-`debug_assert`ed view (the
    /// steady-state path; see [`Simulator::enabled_rule_unchecked`]).
    #[inline]
    fn fire_rule_unchecked(
        &self,
        config: &Configuration<P::State>,
        v: VertexId,
    ) -> (RuleId, P::State) {
        self.fire_view(&View::new_unchecked(v, self.graph, config), v)
    }

    #[inline]
    fn fire_view(&self, view: &View<'_, P::State>, v: VertexId) -> (RuleId, P::State) {
        let rule = self
            .protocol
            .enabled_rule(view)
            .unwrap_or_else(|| panic!("daemon activated disabled vertex {v}"));
        let state = self.protocol.apply(view, rule);
        (rule, state)
    }

    /// Fired-free variant of [`Simulator::apply_action_into`], used for
    /// daemon previews from inside the step loop (no rule bookkeeping, no
    /// allocation, no per-view bounds check).
    fn apply_set_into(
        &self,
        config: &Configuration<P::State>,
        activate: &[VertexId],
        next: &mut Configuration<P::State>,
    ) {
        next.clone_from(config);
        for &v in activate {
            let (_, state) = self.fire_rule_unchecked(config, v);
            next.set(v, state);
        }
    }

    /// Runs the protocol from `init` under `daemon` until a terminal
    /// configuration, the step limit, or an observer's stop request.
    ///
    /// Observers see the initial configuration (`on_start`) and every
    /// transition (`on_step`). Steady-state steps perform zero heap
    /// allocations and zero configuration clones (see the module docs);
    /// the per-run scratch buffers are created here — use
    /// [`Simulator::run_with_scratch`] to reuse them across runs.
    pub fn run(
        &self,
        init: Configuration<P::State>,
        daemon: &mut dyn Daemon<P::State>,
        limits: RunLimits,
        observers: &mut [&mut dyn Observer<P::State>],
    ) -> RunSummary<P::State> {
        let mut scratch = StepScratch::new();
        self.run_with_scratch(init, daemon, limits, observers, &mut scratch)
    }

    /// [`Simulator::run`] with caller-supplied scratch buffers, so batch
    /// drivers executing many runs amortize even the per-run buffer setup.
    pub fn run_with_scratch(
        &self,
        init: Configuration<P::State>,
        daemon: &mut dyn Daemon<P::State>,
        limits: RunLimits,
        observers: &mut [&mut dyn Observer<P::State>],
        scratch: &mut StepScratch<P::State>,
    ) -> RunSummary<P::State> {
        self.run_observed(init, daemon, limits, observers, scratch)
    }

    /// The step loop (see the module docs), monomorphized over its
    /// observer: a measured run passes its monitor directly and pays no
    /// `dyn` call per step; [`Simulator::run_with_scratch`] passes an
    /// observer slice, which fans out.
    pub fn run_observed<O: Observer<P::State> + ?Sized>(
        &self,
        init: Configuration<P::State>,
        daemon: &mut dyn Daemon<P::State>,
        limits: RunLimits,
        observer: &mut O,
        scratch: &mut StepScratch<P::State>,
    ) -> RunSummary<P::State> {
        assert_eq!(init.len(), self.graph.n(), "configuration size must match graph");
        daemon.reset();
        let n = self.graph.n();
        let mut config = init;
        let StepScratch {
            next,
            selection,
            touched,
            fired,
            deltas,
            enabled,
            rules,
            stamps,
            generation,
        } = scratch;
        // (Re)initialize the buffers: one full scan and one full copy per
        // run; never again per step. The stamp array only needs resizing —
        // stale stamps from a previous run are invalidated by the
        // monotonically increasing generation.
        next.clone_from(&config);
        enabled.reset(n);
        if stamps.len() != n {
            stamps.clear();
            stamps.resize(n, 0);
            *generation = 0;
        } else {
            // The scratch arrives already sized for this graph: cross-run
            // buffer reuse, the amortization `run_with_scratch` exists for.
            specstab_telemetry::global().record_scratch_reuse();
        }
        // Telemetry tallies live in plain locals (flushed once at run end):
        // no atomics on the hot path, no cross-thread contamination. Daemon
        // preview evaluations happen behind a `Fn` closure, so they go
        // through a `Cell` instead of a `&mut` local.
        let mut counters = RunCounters::new();
        let preview_evals = std::cell::Cell::new(0u64);
        counters.guard_evals += n as u64;
        rules.clear();
        rules.extend(self.graph.vertices().map(|v| self.enabled_rule(&config, v)));
        for v in self.graph.vertices() {
            enabled.set(v, rules[v.index()].is_some());
        }
        observer.on_start(&config, self.graph);
        let mut steps = 0usize;
        let mut moves = 0u64;
        let stop = loop {
            if enabled.is_empty() {
                break StopReason::Terminal;
            }
            if steps >= limits.max_steps {
                break StopReason::MaxSteps;
            }
            if observer.should_stop() {
                break StopReason::ObserverRequest;
            }
            selection.clear();
            {
                let apply_into = |set: &[VertexId], out: &mut Configuration<P::State>| {
                    preview_evals.set(preview_evals.get() + set.len() as u64);
                    self.apply_set_into(&config, set, out);
                };
                let ctx = SelectionContext::new(enabled, &config, self.graph, steps, &apply_into);
                daemon.select(&ctx, selection);
            }
            // Selections arrive sorted and duplicate-free from every daemon
            // that walks `ctx.enabled` in order (all of the built-in zoo);
            // verify that with one O(k) scan and only fall back to a
            // stamp-dedup + small sort for daemons that emit out of order.
            if !selection.windows(2).all(|w| w[0] < w[1]) {
                *generation += 1;
                let gen = *generation;
                selection.retain(|v| {
                    let slot = &mut stamps[v.index()];
                    let fresh = *slot != gen;
                    *slot = gen;
                    fresh
                });
                selection.sort_unstable();
            }
            assert!(!selection.is_empty(), "daemon must activate at least one vertex");
            assert!(
                selection.iter().all(|&v| enabled.contains(v)),
                "daemon selection must be a subset of the enabled vertices"
            );
            // Apply into the double buffer with each vertex's cached rule.
            // Loop invariant: `next == config` here, so the before-state of
            // each activated vertex is *moved* out of its buffer slot as
            // the successor state moves in — one successor clone per move
            // (for the delta record), nothing else.
            fired.clear();
            deltas.clear();
            for &v in selection.iter() {
                let rule = rules[v.index()].expect("enabled vertices carry their rule");
                let state = self.protocol.apply(&View::new_unchecked(v, self.graph, &config), rule);
                let before = next.replace(v, state.clone());
                deltas.push((v, before, state));
                fired.push((v, rule));
            }
            counters.delta_bytes += (deltas.len() * 2 * std::mem::size_of::<P::State>()) as u64;
            // Incremental enablement update: only activated vertices and
            // their neighbors can change status. Stamp-dedup while
            // collecting; the order is irrelevant to the bitset.
            touched.clear();
            *generation += 1;
            let gen = *generation;
            for &v in selection.iter() {
                if stamps[v.index()] != gen {
                    stamps[v.index()] = gen;
                    touched.push(v);
                }
                for &u in self.graph.neighbors(v) {
                    if stamps[u.index()] != gen {
                        stamps[u.index()] = gen;
                        touched.push(u);
                    }
                }
            }
            counters.guard_evals += touched.len() as u64;
            for &v in touched.iter() {
                let rule = self.enabled_rule_unchecked(next, v);
                rules[v.index()] = rule;
                enabled.set(v, rule.is_some());
            }
            steps += 1;
            moves += fired.len() as u64;
            let event = StepEvent {
                step: steps,
                before: &config,
                after: next,
                activated: fired,
                delta: deltas,
                enabled_after: enabled,
                touched,
                graph: self.graph,
            };
            observer.on_step(&event);
            // Swap the double buffer, then repair the (now stale) back
            // buffer from the delta so the `next == config` invariant holds
            // again — O(|activated|), not O(n).
            std::mem::swap(&mut config, next);
            for (v, _, after) in deltas.iter() {
                next.set(*v, after.clone());
            }
        };
        counters.steps = steps as u64;
        counters.moves = moves;
        counters.guard_evals += preview_evals.get();
        specstab_telemetry::global().record_run(&counters);
        RunSummary { final_config: config, steps, moves, stop, counters }
    }

    /// The original clone-based step loop, retained verbatim in behavior as
    /// the reference implementation for differential testing: it re-scans
    /// all vertices for enablement every step and allocates fresh
    /// configurations throughout. Byte-for-byte equivalent results
    /// (`RunSummary`, observer events, daemon RNG streams) to
    /// [`Simulator::run`] are asserted by the `engine_differential` test
    /// suite.
    ///
    /// Compiled only under `cfg(test)` or the `reference` cargo feature
    /// (the kernel dev-depends on itself with that feature, so the test
    /// suites always see it); release campaign builds carry no dead
    /// reference loop.
    #[cfg(any(test, feature = "reference"))]
    pub fn run_reference(
        &self,
        init: Configuration<P::State>,
        daemon: &mut dyn Daemon<P::State>,
        limits: RunLimits,
        observers: &mut [&mut dyn Observer<P::State>],
    ) -> RunSummary<P::State> {
        assert_eq!(init.len(), self.graph.n(), "configuration size must match graph");
        daemon.reset();
        let n = self.graph.n();
        let mut config = init;
        // Honest counters for the reference loop too: it rescans all n
        // vertices every step, so its guard_evals exceed the incremental
        // loop's — the differential suite compares results, not telemetry.
        let mut counters = RunCounters::new();
        let preview_evals = std::cell::Cell::new(0u64);
        counters.guard_evals += n as u64;
        let mut enabled = self.enabled_vertices(&config);
        observers.on_start(&config, self.graph);
        let mut steps = 0usize;
        let mut moves = 0u64;
        let stop = loop {
            if enabled.is_empty() {
                break StopReason::Terminal;
            }
            if steps >= limits.max_steps {
                break StopReason::MaxSteps;
            }
            if observers.should_stop() {
                break StopReason::ObserverRequest;
            }
            let apply_into = |set: &[VertexId], out: &mut Configuration<P::State>| {
                preview_evals.set(preview_evals.get() + set.len() as u64);
                *out = self.apply_action(&config, set).0;
            };
            let enabled_set = EnabledSet::from_vertices(n, enabled.iter().copied());
            let ctx = SelectionContext::new(&enabled_set, &config, self.graph, steps, &apply_into);
            let mut selection = Vec::new();
            daemon.select(&ctx, &mut selection);
            selection.sort_unstable();
            selection.dedup();
            assert!(!selection.is_empty(), "daemon must activate at least one vertex");
            assert!(
                selection.iter().all(|v| enabled.binary_search(v).is_ok()),
                "daemon selection must be a subset of the enabled vertices"
            );
            let (next, fired) = self.apply_action(&config, &selection);
            let deltas: Vec<(VertexId, P::State, P::State)> = fired
                .iter()
                .map(|&(v, _)| (v, config.get(v).clone(), next.get(v).clone()))
                .collect();
            let mut touched: Vec<VertexId> = selection
                .iter()
                .flat_map(|&v| std::iter::once(v).chain(self.graph.neighbors(v).iter().copied()))
                .collect();
            touched.sort_unstable();
            touched.dedup();
            let next_enabled = self.enabled_vertices(&next);
            counters.guard_evals += (selection.len() + n) as u64;
            counters.delta_bytes += (deltas.len() * 2 * std::mem::size_of::<P::State>()) as u64;
            steps += 1;
            moves += fired.len() as u64;
            let event = StepEvent {
                step: steps,
                before: &config,
                after: &next,
                activated: &fired,
                delta: &deltas,
                enabled_after: &EnabledSet::from_vertices(n, next_enabled.iter().copied()),
                touched: &touched,
                graph: self.graph,
            };
            observers.on_step(&event);
            config = next;
            enabled = next_enabled;
        };
        counters.steps = steps as u64;
        counters.moves = moves;
        counters.guard_evals += preview_evals.get();
        specstab_telemetry::global().record_run(&counters);
        RunSummary { final_config: config, steps, moves, stop, counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{CentralDaemon, CentralStrategy, SynchronousDaemon};
    use crate::protocol::RuleInfo;
    use rand::rngs::StdRng;
    use rand::Rng;
    use specstab_topology::generators;

    /// "Max propagation": each vertex adopts the maximum of its
    /// neighborhood; terminal once uniform.
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

    #[test]
    fn synchronous_run_converges_in_eccentricity_steps() {
        let g = generators::path(6).unwrap();
        let sim = Simulator::new(&g, &MaxProto);
        // Max value at one end: must travel the whole path.
        let init = Configuration::from_fn(6, |v| if v.index() == 0 { 9 } else { 0 });
        let mut d = SynchronousDaemon::new();
        let s = sim.run(init, &mut d, RunLimits::with_max_steps(100), &mut []);
        assert_eq!(s.stop, StopReason::Terminal);
        assert_eq!(s.steps, 5);
        assert!(s.final_config.states().iter().all(|&x| x == 9));
    }

    #[test]
    fn central_run_also_converges_with_more_steps() {
        let g = generators::path(6).unwrap();
        let sim = Simulator::new(&g, &MaxProto);
        let init = Configuration::from_fn(6, |v| if v.index() == 0 { 9 } else { 0 });
        let mut d = CentralDaemon::new(CentralStrategy::RoundRobin);
        let s = sim.run(init, &mut d, RunLimits::with_max_steps(1000), &mut []);
        assert_eq!(s.stop, StopReason::Terminal);
        assert_eq!(s.moves, s.steps as u64, "central daemon: one move per step");
        assert!(s.final_config.states().iter().all(|&x| x == 9));
    }

    #[test]
    fn max_steps_limit_is_respected() {
        let g = generators::path(50).unwrap();
        let sim = Simulator::new(&g, &MaxProto);
        let init = Configuration::from_fn(50, |v| if v.index() == 0 { 9 } else { 0 });
        let mut d = SynchronousDaemon::new();
        let s = sim.run(init, &mut d, RunLimits::with_max_steps(3), &mut []);
        assert_eq!(s.stop, StopReason::MaxSteps);
        assert_eq!(s.steps, 3);
    }

    #[test]
    fn terminal_config_stops_immediately() {
        let g = generators::ring(4).unwrap();
        let sim = Simulator::new(&g, &MaxProto);
        let init = Configuration::from_fn(4, |_| 5);
        let mut d = SynchronousDaemon::new();
        let s = sim.run(init.clone(), &mut d, RunLimits::with_max_steps(10), &mut []);
        assert_eq!(s.stop, StopReason::Terminal);
        assert_eq!(s.steps, 0);
        assert_eq!(s.final_config, init);
    }

    #[test]
    fn moves_count_all_activations() {
        let g = generators::complete(4).unwrap();
        let sim = Simulator::new(&g, &MaxProto);
        let init = Configuration::from_fn(4, |v| v.index() as u32);
        let mut d = SynchronousDaemon::new();
        let s = sim.run(init, &mut d, RunLimits::with_max_steps(10), &mut []);
        // One synchronous step: vertices 0,1,2 adopt 3 (vertex 3 disabled).
        assert_eq!(s.steps, 1);
        assert_eq!(s.moves, 3);
    }

    #[test]
    fn enabled_vertices_matches_bruteforce() {
        let g = generators::ring(7).unwrap();
        let sim = Simulator::new(&g, &MaxProto);
        let cfg = Configuration::from_fn(7, |v| (v.index() as u32 * 3) % 5);
        let fast = sim.enabled_vertices(&cfg);
        let slow: Vec<VertexId> = g
            .vertices()
            .filter(|&v| {
                let view = View::new(v, &g, &cfg);
                MaxProto.enabled_rule(&view).is_some()
            })
            .collect();
        assert_eq!(fast, slow);
    }

    #[test]
    #[should_panic(expected = "daemon activated disabled vertex")]
    fn apply_action_rejects_disabled_vertex() {
        let g = generators::ring(4).unwrap();
        let sim = Simulator::new(&g, &MaxProto);
        let uniform = Configuration::from_fn(4, |_| 5);
        let _ = sim.apply_action(&uniform, &[VertexId::new(0)]);
    }

    #[test]
    #[should_panic(expected = "configuration size")]
    fn run_rejects_mismatched_configuration() {
        let g = generators::ring(4).unwrap();
        let sim = Simulator::new(&g, &MaxProto);
        let mut d = SynchronousDaemon::new();
        let _ = sim.run(
            Configuration::new(vec![0u32; 3]),
            &mut d,
            RunLimits::with_max_steps(1),
            &mut [],
        );
    }
}
