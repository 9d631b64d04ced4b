//! Daemons (adversaries/schedulers) and their taxonomy.
//!
//! Definition 1 of the paper abstracts the system's asynchrony as a
//! *daemon*: a function restricting which executions of a protocol are
//! possible. Operationally (and equivalently for the protocols studied
//! here), a daemon picks, in every configuration, a nonempty subset of the
//! enabled vertices to activate.
//!
//! Definition 2 orders daemons by the executions they allow: `d ⪯ d'` when
//! every execution allowed by `d` is allowed by `d'` (`d'` is *more
//! powerful*). This module mirrors the classical taxonomy along three
//! axes — centrality, synchrony and fairness — and implements the induced
//! partial order on [`DaemonClass`]: the *unfair distributed* daemon `ud`
//! is the maximum, the *synchronous* daemon `sd` and the *central* daemon
//! `cd` are strictly below it, and `sd`/`cd` are incomparable.

use crate::batch::BatchDaemon;
use crate::config::Configuration;
use crate::enabled::EnabledSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specstab_topology::{Graph, VertexId};
use std::cmp::Ordering;
use std::fmt;

/// How many vertices a daemon may activate per step.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Centrality {
    /// Exactly one enabled vertex per step.
    Central,
    /// Any nonempty subset of enabled vertices.
    Distributed,
}

/// Whether the daemon is forced to activate every enabled vertex.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Synchrony {
    /// Always activates *all* enabled vertices.
    Synchronous,
    /// May activate any allowed subset.
    Asynchronous,
}

/// Fairness guarantees on which executions are allowed.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Fairness {
    /// No fairness guarantee at all (the adversary may starve vertices as
    /// long as some enabled vertex is activated).
    Unfair,
    /// A continuously enabled vertex is eventually activated.
    WeaklyFair,
}

/// Taxonomy coordinates of a daemon, inducing the Def. 2 partial order.
///
/// ```
/// use specstab_kernel::daemon::DaemonClass;
///
/// let ud = DaemonClass::unfair_distributed();
/// let sd = DaemonClass::synchronous();
/// let cd = DaemonClass::central_unfair();
/// assert!(sd < ud);
/// assert!(cd < ud);
/// assert_eq!(sd.partial_cmp(&cd), None); // incomparable
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub struct DaemonClass {
    /// Centrality axis.
    pub centrality: Centrality,
    /// Synchrony axis.
    pub synchrony: Synchrony,
    /// Fairness axis.
    pub fairness: Fairness,
}

impl DaemonClass {
    /// `ud`: the unfair distributed daemon — the most powerful adversary.
    #[must_use]
    pub fn unfair_distributed() -> Self {
        Self {
            centrality: Centrality::Distributed,
            synchrony: Synchrony::Asynchronous,
            fairness: Fairness::Unfair,
        }
    }

    /// `sd`: the synchronous daemon (activates all enabled vertices).
    #[must_use]
    pub fn synchronous() -> Self {
        Self {
            centrality: Centrality::Distributed,
            synchrony: Synchrony::Synchronous,
            fairness: Fairness::WeaklyFair, // vacuously fair: everyone moves
        }
    }

    /// `cd`: the central (unfair) daemon.
    #[must_use]
    pub fn central_unfair() -> Self {
        Self {
            centrality: Centrality::Central,
            synchrony: Synchrony::Asynchronous,
            fairness: Fairness::Unfair,
        }
    }

    /// A weakly-fair central daemon (e.g. round-robin).
    #[must_use]
    pub fn central_weakly_fair() -> Self {
        Self {
            centrality: Centrality::Central,
            synchrony: Synchrony::Asynchronous,
            fairness: Fairness::WeaklyFair,
        }
    }
}

/// Per-axis "allows fewer executions" relation.
fn centrality_le(a: Centrality, b: Centrality) -> bool {
    a == b || (a == Centrality::Central && b == Centrality::Distributed)
}
fn synchrony_le(a: Synchrony, b: Synchrony) -> bool {
    a == b || (a == Synchrony::Synchronous && b == Synchrony::Asynchronous)
}
fn fairness_le(a: Fairness, b: Fairness) -> bool {
    a == b || (a == Fairness::WeaklyFair && b == Fairness::Unfair)
}

impl PartialOrd for DaemonClass {
    /// `a <= b` iff every execution allowed by class `a` is allowed by
    /// class `b` (`b` is *more powerful*, Def. 2).
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        let le = centrality_le(self.centrality, other.centrality)
            && synchrony_le(self.synchrony, other.synchrony)
            && fairness_le(self.fairness, other.fairness);
        let ge = centrality_le(other.centrality, self.centrality)
            && synchrony_le(other.synchrony, self.synchrony)
            && fairness_le(other.fairness, self.fairness);
        match (le, ge) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

impl fmt::Display for DaemonClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self.centrality {
            Centrality::Central => "central",
            Centrality::Distributed => "distributed",
        };
        let s = match self.synchrony {
            Synchrony::Synchronous => "synchronous",
            Synchrony::Asynchronous => "asynchronous",
        };
        let fr = match self.fairness {
            Fairness::Unfair => "unfair",
            Fairness::WeaklyFair => "weakly-fair",
        };
        write!(f, "{c}/{s}/{fr}")
    }
}

impl std::str::FromStr for DaemonClass {
    type Err = String;

    /// Parses the `centrality/synchrony/fairness` form produced by
    /// [`DaemonClass`]'s `Display` impl — the round trip campaign partial
    /// artifacts rely on.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('/');
        let (Some(c), Some(sy), Some(fr), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("bad daemon class '{s}' (expected centrality/synchrony/fairness)"));
        };
        Ok(Self {
            centrality: match c {
                "central" => Centrality::Central,
                "distributed" => Centrality::Distributed,
                other => return Err(format!("bad centrality '{other}'")),
            },
            synchrony: match sy {
                "synchronous" => Synchrony::Synchronous,
                "asynchronous" => Synchrony::Asynchronous,
                other => return Err(format!("bad synchrony '{other}'")),
            },
            fairness: match fr {
                "unfair" => Fairness::Unfair,
                "weakly-fair" => Fairness::WeaklyFair,
                other => return Err(format!("bad fairness '{other}'")),
            },
        })
    }
}

/// Everything a daemon may inspect when choosing an activation set.
pub struct SelectionContext<'a, S> {
    /// The enabled vertices of the current configuration.
    pub enabled: &'a EnabledSet,
    /// The current configuration.
    pub config: &'a Configuration<S>,
    /// The communication graph.
    pub graph: &'a Graph,
    /// Zero-based index of the action about to be taken.
    pub step: usize,
    /// Writes the successor of `config` under a candidate activation set
    /// into a caller-supplied buffer (see [`SelectionContext::preview`]).
    apply_into: &'a dyn Fn(&[VertexId], &mut Configuration<S>),
}

impl<'a, S: Clone> SelectionContext<'a, S> {
    /// Builds a selection context. `apply_into` must overwrite its output
    /// buffer with the successor of `config` under the given activation set
    /// (the engine passes a buffer-reusing `apply_action_into` closure).
    #[must_use]
    pub fn new(
        enabled: &'a EnabledSet,
        config: &'a Configuration<S>,
        graph: &'a Graph,
        step: usize,
        apply_into: &'a dyn Fn(&[VertexId], &mut Configuration<S>),
    ) -> Self {
        Self { enabled, config, graph, step, apply_into }
    }

    /// One-step lookahead without cloning: writes the configuration that
    /// would result from activating `set` into `scratch` (reusing its
    /// allocation) and returns it. Adversarial daemons keep a per-daemon
    /// scratch configuration and call this once per candidate, so steady
    /// state previews perform zero heap allocations.
    pub fn preview<'b>(
        &self,
        set: &[VertexId],
        scratch: &'b mut Configuration<S>,
    ) -> &'b Configuration<S> {
        (self.apply_into)(set, scratch);
        scratch
    }
}

/// A daemon: picks a nonempty subset of the enabled vertices each step.
///
/// The engine guarantees `ctx.enabled` is nonempty and validates the
/// selection (nonempty, subset of enabled, deduplicated). Selections
/// emitted in ascending vertex order — what walking `ctx.enabled` in
/// order produces — skip the engine's sort.
pub trait Daemon<S> {
    /// Name for reports (e.g. `"synchronous"`).
    fn name(&self) -> String;

    /// Taxonomy coordinates of this daemon.
    fn class(&self) -> DaemonClass;

    /// Chooses the activation set for this step, writing it into
    /// `selection` (cleared by the engine before the call). Writing into an
    /// engine-owned scratch buffer instead of returning a fresh `Vec` keeps
    /// the steady-state step loop allocation-free.
    fn select(&mut self, ctx: &SelectionContext<'_, S>, selection: &mut Vec<VertexId>);

    /// Called once when an execution starts, so stateful daemons
    /// (round-robin cursors, RNGs with per-run reseeding) can reset.
    fn reset(&mut self) {}
}

/// The synchronous daemon `sd`: activates every enabled vertex.
#[derive(Clone, Debug, Default)]
pub struct SynchronousDaemon;

impl SynchronousDaemon {
    /// Creates the synchronous daemon.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl<S> Daemon<S> for SynchronousDaemon {
    fn name(&self) -> String {
        "synchronous".into()
    }
    fn class(&self) -> DaemonClass {
        DaemonClass::synchronous()
    }
    fn select(&mut self, ctx: &SelectionContext<'_, S>, selection: &mut Vec<VertexId>) {
        selection.extend(ctx.enabled);
    }
}

/// One uniform pick among the enabled vertices: one `gen_range(0..len)`
/// draw — the draw `SliceRandom::choose` makes on the sorted enabled
/// list — and the member of that rank.
#[inline]
fn uniform_pick(enabled: &EnabledSet, rng: &mut StdRng) -> VertexId {
    enabled.nth(rng.gen_range(0..enabled.len())).expect("enabled nonempty")
}

/// Selection strategies for [`CentralDaemon`].
#[derive(Clone, Debug)]
pub enum CentralStrategy {
    /// Cycles through vertex indices, activating the next enabled one —
    /// weakly fair.
    RoundRobin,
    /// Uniform random among enabled (seeded) — fair with probability 1,
    /// classified unfair (no hard guarantee).
    Random(u64),
    /// Always the enabled vertex with the smallest index — unfair.
    MinId,
    /// Always the enabled vertex with the largest index — unfair.
    MaxId,
}

/// The central daemon `cd`: exactly one enabled vertex per step.
#[derive(Clone, Debug)]
pub struct CentralDaemon {
    strategy: CentralStrategy,
    cursor: usize,
    rng: StdRng,
    seed: u64,
}

impl CentralDaemon {
    /// Creates a central daemon with the given strategy.
    #[must_use]
    pub fn new(strategy: CentralStrategy) -> Self {
        let seed = match strategy {
            CentralStrategy::Random(s) => s,
            _ => 0,
        };
        Self { strategy, cursor: 0, rng: StdRng::seed_from_u64(seed), seed }
    }
}

impl<S> Daemon<S> for CentralDaemon {
    fn name(&self) -> String {
        match self.strategy {
            CentralStrategy::RoundRobin => "central-rr".into(),
            CentralStrategy::Random(s) => format!("central-rand-s{s}"),
            CentralStrategy::MinId => "central-min".into(),
            CentralStrategy::MaxId => "central-max".into(),
        }
    }

    fn class(&self) -> DaemonClass {
        match self.strategy {
            CentralStrategy::RoundRobin => DaemonClass::central_weakly_fair(),
            _ => DaemonClass::central_unfair(),
        }
    }

    fn select(&mut self, ctx: &SelectionContext<'_, S>, selection: &mut Vec<VertexId>) {
        let pick = match &self.strategy {
            CentralStrategy::MinId => ctx.enabled.first().expect("enabled nonempty"),
            CentralStrategy::MaxId => ctx.enabled.last().expect("enabled nonempty"),
            CentralStrategy::Random(_) => uniform_pick(ctx.enabled, &mut self.rng),
            CentralStrategy::RoundRobin => {
                // The next enabled vertex at or after the cursor, wrapping
                // to the smallest enabled vertex when none remains — the
                // historical O(n) slot scan's pick sequence, pinned by
                // `round_robin_fast_path_matches_scan` and the golden
                // campaign artifacts.
                let pick = ctx
                    .enabled
                    .next_from(self.cursor)
                    .or_else(|| ctx.enabled.first())
                    .expect("enabled nonempty");
                self.cursor = (pick.index() + 1) % ctx.graph.n();
                pick
            }
        };
        selection.push(pick);
    }

    fn reset(&mut self) {
        self.cursor = 0;
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

/// Random distributed daemon: includes each enabled vertex independently
/// with probability `p` (falling back to one uniform pick if the sample is
/// empty). With `p = 1` this degenerates to the synchronous daemon; small
/// `p` approximates a central one.
#[derive(Clone, Debug)]
pub struct RandomDistributedDaemon {
    p: f64,
    rng: StdRng,
    seed: u64,
}

impl RandomDistributedDaemon {
    /// Creates the daemon with inclusion probability `p` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "inclusion probability must be in [0,1]");
        Self { p, rng: StdRng::seed_from_u64(seed), seed }
    }
}

impl<S> Daemon<S> for RandomDistributedDaemon {
    fn name(&self) -> String {
        format!("dist-rand-p{:.2}-s{}", self.p, self.seed)
    }
    fn class(&self) -> DaemonClass {
        DaemonClass::unfair_distributed()
    }
    fn select(&mut self, ctx: &SelectionContext<'_, S>, selection: &mut Vec<VertexId>) {
        selection.extend(ctx.enabled.iter().filter(|_| self.rng.gen_bool(self.p)));
        if selection.is_empty() {
            selection.push(uniform_pick(ctx.enabled, &mut self.rng));
        }
    }
    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

/// K-bounded distributed daemon: a random distributed scheduler that never
/// lets an enabled vertex be passed over more than `k` consecutive steps —
/// the classical *k-bounded* daemon, strictly weaker than the unfair one.
#[derive(Clone, Debug)]
pub struct KBoundedDaemon {
    k: usize,
    p: f64,
    passes: Vec<usize>,
    /// Reused per-step selection mask by vertex index.
    in_set: Vec<bool>,
    rng: StdRng,
    seed: u64,
}

impl KBoundedDaemon {
    /// Creates a k-bounded daemon with inclusion probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn new(k: usize, p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "inclusion probability must be in [0,1]");
        Self {
            k,
            p,
            passes: Vec::new(),
            in_set: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }
}

impl<S> Daemon<S> for KBoundedDaemon {
    fn name(&self) -> String {
        format!("dist-{}bounded-p{:.2}", self.k, self.p)
    }
    fn class(&self) -> DaemonClass {
        DaemonClass {
            centrality: Centrality::Distributed,
            synchrony: Synchrony::Asynchronous,
            fairness: Fairness::WeaklyFair,
        }
    }
    fn select(&mut self, ctx: &SelectionContext<'_, S>, selection: &mut Vec<VertexId>) {
        let n = ctx.graph.n();
        if self.passes.len() != n {
            self.passes = vec![0; n];
        }
        let passes = &self.passes;
        let (k, p, rng) = (self.k, self.p, &mut self.rng);
        selection.extend(ctx.enabled.iter().filter(|v| passes[v.index()] >= k || rng.gen_bool(p)));
        if selection.is_empty() {
            selection.push(uniform_pick(ctx.enabled, &mut self.rng));
        }
        self.in_set.clear();
        self.in_set.resize(n, false);
        for &v in selection.iter() {
            self.in_set[v.index()] = true;
        }
        for i in 0..n {
            if ctx.enabled.contains(VertexId::new(i)) && !self.in_set[i] {
                self.passes[i] += 1;
            } else {
                self.passes[i] = 0;
            }
        }
    }
    fn reset(&mut self) {
        self.passes.clear();
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

/// Weakly-fair central daemon: always activates the enabled vertex that
/// has been continuously enabled the longest ("oldest first"). No enabled
/// vertex waits more than `n - 1` selections — a strong fairness guarantee
/// in practice, classified weakly fair.
#[derive(Clone, Debug, Default)]
pub struct OldestFirstDaemon {
    /// Step at which each vertex most recently became enabled.
    enabled_since: Vec<usize>,
}

impl OldestFirstDaemon {
    /// Creates the daemon.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S> Daemon<S> for OldestFirstDaemon {
    fn name(&self) -> String {
        "central-oldest".into()
    }
    fn class(&self) -> DaemonClass {
        DaemonClass::central_weakly_fair()
    }
    fn select(&mut self, ctx: &SelectionContext<'_, S>, selection: &mut Vec<VertexId>) {
        if self.enabled_since.len() != ctx.graph.n() {
            self.enabled_since = vec![0; ctx.graph.n()];
        }
        // Vertices no longer enabled restart their seniority the next time
        // they become enabled: record "not enabled now" as becoming enabled
        // at the *next* step.
        for (v, since) in self.enabled_since.iter_mut().enumerate() {
            if !ctx.enabled.contains(VertexId::new(v)) {
                *since = ctx.step + 1;
            }
        }
        let pick = ctx
            .enabled
            .iter()
            .min_by_key(|v| (self.enabled_since[v.index()], *v))
            .expect("enabled nonempty");
        // The chosen vertex's seniority resets (it moves now).
        self.enabled_since[pick.index()] = ctx.step + 1;
        selection.push(pick);
    }
    fn reset(&mut self) {
        self.enabled_since.clear();
    }
}

/// A heap-allocated daemon that can cross thread boundaries — the form the
/// parallel campaign executor hands to its workers.
pub type BoxedDaemon<S> = Box<dyn Daemon<S> + Send>;

/// Parses a textual daemon spec into a daemon, deterministically derived
/// from `seed` where the daemon is randomized:
///
/// * `sync` — the synchronous daemon `sd`;
/// * `central-rr` / `central-rand` / `central-min` / `central-max` /
///   `central-oldest` — central daemons;
/// * `dist:<p>` — random distributed with inclusion probability `p`;
/// * `kbounded:<k>[:<p>]` — the k-bounded daemon (default `p = 0.4`).
///
/// # Errors
///
/// Returns a description of the malformed spec.
pub fn parse_daemon_spec<S: 'static>(spec: &str, seed: u64) -> Result<BoxedDaemon<S>, String> {
    if let Some(p) = spec.strip_prefix("dist:") {
        let p = p.parse::<f64>().map_err(|e| format!("bad probability '{p}': {e}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("inclusion probability {p} outside [0,1]"));
        }
        return Ok(Box::new(RandomDistributedDaemon::new(p, seed)));
    }
    if let Some(rest) = spec.strip_prefix("kbounded:") {
        let (k_str, p_str) = rest.split_once(':').unwrap_or((rest, "0.4"));
        let k = k_str.parse::<usize>().map_err(|e| format!("bad bound '{k_str}': {e}"))?;
        let p = p_str.parse::<f64>().map_err(|e| format!("bad probability '{p_str}': {e}"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("inclusion probability {p} outside [0,1]"));
        }
        return Ok(Box::new(KBoundedDaemon::new(k, p, seed)));
    }
    match spec {
        "sync" => Ok(Box::new(SynchronousDaemon::new())),
        "central-rr" => Ok(Box::new(CentralDaemon::new(CentralStrategy::RoundRobin))),
        "central-rand" => Ok(Box::new(CentralDaemon::new(CentralStrategy::Random(seed)))),
        "central-min" => Ok(Box::new(CentralDaemon::new(CentralStrategy::MinId))),
        "central-max" => Ok(Box::new(CentralDaemon::new(CentralStrategy::MaxId))),
        "central-oldest" => Ok(Box::new(OldestFirstDaemon::new())),
        other => Err(format!(
            "unknown daemon '{other}' (expected sync | central-rr | central-rand | central-min \
             | central-max | central-oldest | dist:<p> | kbounded:<k>[:<p>])"
        )),
    }
}

impl BatchDaemon {
    /// The batched schedule replaying the daemon a textual spec names
    /// (the [`parse_daemon_spec`] syntax): `sync` and `dist:<p>` with `p`
    /// in `[0, 1]`. Every other spec — the central daemons, which commit
    /// one move per step and run fastest on the scalar engine,
    /// history-reading or adversarial daemons, and malformed specs — has
    /// no batched schedule and maps to `None`.
    #[must_use]
    pub fn from_spec(spec: &str) -> Option<BatchDaemon> {
        match spec {
            "sync" => Some(BatchDaemon::Sync),
            _ => spec
                .strip_prefix("dist:")
                .and_then(|p| p.parse::<f64>().ok())
                .filter(|p| (0.0..=1.0).contains(p))
                .map(|p| BatchDaemon::RandomDistributed { p }),
        }
    }
}

/// Scoring function for [`GreedyAdversary`]: **lower scores are better for
/// the protocol**, so the adversary picks the action whose successor
/// configuration has the *highest* score (least progress). `Send` so
/// adversaries can run inside campaign worker threads.
pub type AdversaryMetric<S> = Box<dyn Fn(&Configuration<S>, &Graph) -> f64 + Send>;

/// Which candidate activation sets a [`GreedyAdversary`] considers.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AdversaryMoves {
    /// Only singletons: a central adversary.
    Singletons,
    /// Singletons plus the full enabled set: a distributed adversary that
    /// can also emulate the synchronous step.
    SingletonsAndAll,
}

/// Greedy adversarial daemon: one-step lookahead, picking the activation
/// set whose successor maximizes a "remaining disorder" metric.
///
/// This is the workhorse for eliciting near-worst-case stabilization times
/// on instances too large for [`crate::search`]'s exact analysis.
pub struct GreedyAdversary<S> {
    metric: AdversaryMetric<S>,
    moves: AdversaryMoves,
    tie_rng: StdRng,
    seed: u64,
    /// Per-daemon preview scratch: candidate successors are written here
    /// (reusing the allocation) instead of cloning per candidate.
    scratch: Configuration<S>,
    /// Reused buffer holding the best candidate set found so far.
    best: Vec<VertexId>,
    /// Reused buffer holding the all-enabled candidate set.
    all: Vec<VertexId>,
}

impl<S> GreedyAdversary<S> {
    /// Creates the adversary with the given disorder metric.
    #[must_use]
    pub fn new(metric: AdversaryMetric<S>, moves: AdversaryMoves, seed: u64) -> Self {
        Self {
            metric,
            moves,
            tie_rng: StdRng::seed_from_u64(seed),
            seed,
            scratch: Configuration::new(Vec::new()),
            best: Vec::new(),
            all: Vec::new(),
        }
    }
}

/// Convenience adversary maximizing the *number of enabled vertices* after
/// the step — a protocol-agnostic disorder proxy.
#[must_use]
pub fn max_enabled_adversary<P>(
    protocol: std::sync::Arc<P>,
    moves: AdversaryMoves,
    seed: u64,
) -> GreedyAdversary<P::State>
where
    P: crate::protocol::Protocol + Send + Sync + 'static,
{
    let metric: AdversaryMetric<P::State> = Box::new(move |cfg, graph| {
        let mut count = 0usize;
        for v in graph.vertices() {
            let view = crate::protocol::View::new(v, graph, cfg);
            if protocol.enabled_rule(&view).is_some() {
                count += 1;
            }
        }
        count as f64
    });
    GreedyAdversary::new(metric, moves, seed)
}

impl<S> fmt::Debug for GreedyAdversary<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GreedyAdversary")
            .field("moves", &self.moves)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl<S: Clone> Daemon<S> for GreedyAdversary<S> {
    fn name(&self) -> String {
        match self.moves {
            AdversaryMoves::Singletons => "adversary-central".into(),
            AdversaryMoves::SingletonsAndAll => "adversary-dist".into(),
        }
    }

    fn class(&self) -> DaemonClass {
        match self.moves {
            AdversaryMoves::Singletons => DaemonClass::central_unfair(),
            AdversaryMoves::SingletonsAndAll => DaemonClass::unfair_distributed(),
        }
    }

    fn select(&mut self, ctx: &SelectionContext<'_, S>, selection: &mut Vec<VertexId>) {
        let Self { metric, tie_rng, scratch, best, all, .. } = self;
        let mut best_score: Option<f64> = None;
        let mut consider = |set: &[VertexId]| {
            let next = ctx.preview(set, scratch);
            let score = (metric)(next, ctx.graph);
            match best_score {
                None => {
                    best_score = Some(score);
                    best.clear();
                    best.extend_from_slice(set);
                }
                Some(b) => {
                    // Strictly better, or coin-flip on ties to diversify runs.
                    if score > b || (score == b && tie_rng.gen_bool(0.5)) {
                        best_score = Some(score);
                        best.clear();
                        best.extend_from_slice(set);
                    }
                }
            }
        };
        for v in ctx.enabled {
            consider(std::slice::from_ref(&v));
        }
        if self.moves == AdversaryMoves::SingletonsAndAll && ctx.enabled.len() > 1 {
            all.clear();
            all.extend(ctx.enabled);
            consider(all);
        }
        assert!(best_score.is_some(), "enabled nonempty");
        selection.extend_from_slice(&self.best);
    }

    fn reset(&mut self) {
        self.tie_rng = StdRng::seed_from_u64(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use rand::seq::SliceRandom;
    use specstab_topology::generators;

    fn ctx_fixture<'a>(
        enabled: &'a EnabledSet,
        config: &'a Configuration<u8>,
        graph: &'a Graph,
        apply_into: &'a dyn Fn(&[VertexId], &mut Configuration<u8>),
    ) -> SelectionContext<'a, u8> {
        SelectionContext::new(enabled, config, graph, 0, apply_into)
    }

    /// Runs `select` through a fresh buffer, mirroring the engine's calls.
    fn select_into<S, D: Daemon<S>>(d: &mut D, ctx: &SelectionContext<'_, S>) -> Vec<VertexId> {
        let mut sel = Vec::new();
        d.select(ctx, &mut sel);
        sel
    }

    #[test]
    fn partial_order_matches_paper() {
        let ud = DaemonClass::unfair_distributed();
        let sd = DaemonClass::synchronous();
        let cd = DaemonClass::central_unfair();
        assert!(sd < ud, "sd ≺ ud");
        assert!(cd < ud, "cd ≺ ud");
        assert_eq!(sd.partial_cmp(&cd), None, "sd and cd are incomparable");
        assert!(ud > sd);
        assert_eq!(ud.partial_cmp(&ud), Some(Ordering::Equal));
    }

    #[test]
    fn weakly_fair_below_unfair() {
        let rr = DaemonClass::central_weakly_fair();
        let cd = DaemonClass::central_unfair();
        assert!(rr < cd);
    }

    #[test]
    fn class_display() {
        assert_eq!(
            DaemonClass::unfair_distributed().to_string(),
            "distributed/asynchronous/unfair"
        );
    }

    #[test]
    fn synchronous_selects_all_enabled() {
        let g = generators::ring(4).unwrap();
        let c = Configuration::new(vec![0u8; 4]);
        let enabled = [VertexId::new(0), VertexId::new(2)];
        let enabled_set = EnabledSet::from_vertices(g.n(), enabled.iter().copied());
        let preview = |_: &[VertexId], out: &mut Configuration<u8>| out.clone_from(&c);
        let mut d = SynchronousDaemon::new();
        let sel = select_into(&mut d, &ctx_fixture(&enabled_set, &c, &g, &preview));
        assert_eq!(sel, enabled);
    }

    #[test]
    fn central_min_max_pick_extremes() {
        let g = generators::ring(5).unwrap();
        let c = Configuration::new(vec![0u8; 5]);
        let enabled = [VertexId::new(1), VertexId::new(3), VertexId::new(4)];
        let enabled_set = EnabledSet::from_vertices(g.n(), enabled.iter().copied());
        let preview = |_: &[VertexId], out: &mut Configuration<u8>| out.clone_from(&c);
        let mut dmin = CentralDaemon::new(CentralStrategy::MinId);
        let mut dmax = CentralDaemon::new(CentralStrategy::MaxId);
        assert_eq!(
            select_into(&mut dmin, &ctx_fixture(&enabled_set, &c, &g, &preview)),
            vec![VertexId::new(1)]
        );
        assert_eq!(
            select_into(&mut dmax, &ctx_fixture(&enabled_set, &c, &g, &preview)),
            vec![VertexId::new(4)]
        );
    }

    #[test]
    fn round_robin_cycles_through_enabled() {
        let g = generators::ring(4).unwrap();
        let c = Configuration::new(vec![0u8; 4]);
        let enabled: Vec<VertexId> = (0..4).map(VertexId::new).collect();
        let enabled_set = EnabledSet::from_vertices(g.n(), enabled.iter().copied());
        let preview = |_: &[VertexId], out: &mut Configuration<u8>| out.clone_from(&c);
        let mut d = CentralDaemon::new(CentralStrategy::RoundRobin);
        let mut picks = Vec::new();
        for _ in 0..4 {
            let sel = select_into(&mut d, &ctx_fixture(&enabled_set, &c, &g, &preview));
            picks.push(sel[0].index());
        }
        assert_eq!(picks, vec![0, 1, 2, 3]);
    }

    /// A random nonempty enabled set over `0..n` with density `p`, as the
    /// sorted list the engine used to keep and as the bitset it keeps now.
    fn random_enabled(n: usize, p: f64, rng: &mut StdRng) -> (Vec<VertexId>, EnabledSet) {
        let mut sorted: Vec<VertexId> =
            (0..n).filter(|_| rng.gen_bool(p)).map(VertexId::new).collect();
        if sorted.is_empty() {
            sorted.push(VertexId::new(rng.gen_range(0..n)));
        }
        let set = EnabledSet::from_vertices(n, sorted.iter().copied());
        (sorted, set)
    }

    #[test]
    fn round_robin_fast_path_matches_scan() {
        // The `next_from` lookup must reproduce the historical O(n)
        // slot-scan pick sequence exactly (the golden campaign artifacts
        // pin it). Reference: scan indices cursor, cursor+1, ... mod n and
        // pick the first enabled one.
        let n = 64;
        let g = generators::ring(n).unwrap();
        let c = Configuration::new(vec![0u8; n]);
        let preview = |_: &[VertexId], out: &mut Configuration<u8>| out.clone_from(&c);
        let mut rng = StdRng::seed_from_u64(0x5CA7);
        let mut daemon = CentralDaemon::new(CentralStrategy::RoundRobin);
        let mut scan_cursor = 0usize;
        for step in 0..2000 {
            let (enabled, enabled_set) = random_enabled(n, 0.3, &mut rng);
            let expected = (0..n)
                .map(|off| VertexId::new((scan_cursor + off) % n))
                .find(|v| enabled.binary_search(v).is_ok())
                .expect("enabled nonempty");
            scan_cursor = (expected.index() + 1) % n;
            let ctx = SelectionContext::new(&enabled_set, &c, &g, step, &preview);
            let sel = select_into(&mut daemon, &ctx);
            assert_eq!(sel, vec![expected], "pick diverged at step {step}");
        }
    }

    #[test]
    fn random_central_pick_replays_choose_on_the_sorted_list() {
        // The bitset pick (one `gen_range(0..len)` draw, then `nth`) must
        // consume the RNG and pick exactly as `choose` on the sorted
        // enabled list did: the golden campaign artifacts pin the pick
        // sequence.
        for n in [64, 1000] {
            let g = generators::ring(n).unwrap();
            let c = Configuration::new(vec![0u8; n]);
            let preview = |_: &[VertexId], out: &mut Configuration<u8>| out.clone_from(&c);
            let mut sets = StdRng::seed_from_u64(0xC401 + n as u64);
            let mut daemon = CentralDaemon::new(CentralStrategy::Random(41));
            let mut twin = StdRng::seed_from_u64(41);
            for step in 0..2000 {
                let p = [0.002, 0.05, 0.5, 0.95][step % 4];
                let (enabled, enabled_set) = random_enabled(n, p, &mut sets);
                let expected = *enabled.choose(&mut twin).expect("enabled nonempty");
                let ctx = SelectionContext::new(&enabled_set, &c, &g, step, &preview);
                let sel = select_into(&mut daemon, &ctx);
                assert_eq!(sel, vec![expected], "n={n}: pick diverged at step {step}");
            }
        }
    }

    #[test]
    fn random_distributed_fallback_replays_choose_on_the_sorted_list() {
        // Same pin for the distributed daemon: ascending inclusion draws,
        // then the empty-sample fallback's uniform pick.
        for n in [64, 1000] {
            let g = generators::ring(n).unwrap();
            let c = Configuration::new(vec![0u8; n]);
            let preview = |_: &[VertexId], out: &mut Configuration<u8>| out.clone_from(&c);
            let mut sets = StdRng::seed_from_u64(0xD157 + n as u64);
            // p small enough that most samples come up empty.
            let p = 0.5 / n as f64;
            let mut daemon = RandomDistributedDaemon::new(p, 43);
            let mut twin = StdRng::seed_from_u64(43);
            let mut fallbacks = 0;
            for step in 0..2000 {
                let (enabled, enabled_set) = random_enabled(n, [0.01, 0.3][step % 2], &mut sets);
                let mut expected: Vec<VertexId> =
                    enabled.iter().copied().filter(|_| twin.gen_bool(p)).collect();
                if expected.is_empty() {
                    fallbacks += 1;
                    expected.push(*enabled.choose(&mut twin).expect("enabled nonempty"));
                }
                let ctx = SelectionContext::new(&enabled_set, &c, &g, step, &preview);
                let sel = select_into(&mut daemon, &ctx);
                assert_eq!(sel, expected, "n={n}: selection diverged at step {step}");
            }
            assert!(fallbacks > 1000, "n={n}: only {fallbacks} fallbacks exercised");
        }
    }

    #[test]
    fn batch_daemon_specs_agree_with_the_scalar_parser() {
        let specs = [
            "sync",
            "central-rr",
            "central-rand",
            "dist:0",
            "dist:0.5",
            "dist:1",
            "dist:1.5",
            "dist:x",
            "kbounded:3",
            "central-oldest",
            "central-min",
            "bogus",
        ];
        for spec in specs {
            let Some(batch) = BatchDaemon::from_spec(spec) else { continue };
            let scalar = parse_daemon_spec::<u8>(spec, 7).expect("batchable specs parse");
            assert!(batch.is_batched(), "{spec}");
            let class = match batch {
                BatchDaemon::Sync => DaemonClass::synchronous(),
                BatchDaemon::CentralRr => DaemonClass::central_weakly_fair(),
                BatchDaemon::CentralRand => DaemonClass::central_unfair(),
                BatchDaemon::RandomDistributed { .. } => DaemonClass::unfair_distributed(),
            };
            assert_eq!(scalar.class(), class, "{spec}");
        }
        assert_eq!(
            BatchDaemon::from_spec("dist:0.5"),
            Some(BatchDaemon::RandomDistributed { p: 0.5 })
        );
        // Central daemons always run on the scalar engine.
        for spec in
            ["central-rr", "central-rand", "dist:1.5", "dist:x", "kbounded:3", "central-oldest"]
        {
            assert_eq!(BatchDaemon::from_spec(spec), None, "{spec}");
        }
    }

    #[test]
    fn daemon_class_parses_its_display_form() {
        for class in [
            DaemonClass::unfair_distributed(),
            DaemonClass::synchronous(),
            DaemonClass::central_unfair(),
            DaemonClass::central_weakly_fair(),
        ] {
            assert_eq!(class.to_string().parse::<DaemonClass>(), Ok(class));
        }
        assert!("central/unfair".parse::<DaemonClass>().is_err());
        assert!("central/asynchronous/unfair/extra".parse::<DaemonClass>().is_err());
        assert!("weird/asynchronous/unfair".parse::<DaemonClass>().is_err());
    }

    #[test]
    fn random_central_is_deterministic_per_seed() {
        let g = generators::ring(8).unwrap();
        let c = Configuration::new(vec![0u8; 8]);
        let enabled: Vec<VertexId> = (0..8).map(VertexId::new).collect();
        let enabled_set = EnabledSet::from_vertices(g.n(), enabled.iter().copied());
        let preview = |_: &[VertexId], out: &mut Configuration<u8>| out.clone_from(&c);
        let run = |seed| {
            let mut d = CentralDaemon::new(CentralStrategy::Random(seed));
            (0..10)
                .map(|_| {
                    select_into(&mut d, &ctx_fixture(&enabled_set, &c, &g, &preview))[0].index()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn random_distributed_returns_nonempty_subset() {
        let g = generators::ring(6).unwrap();
        let c = Configuration::new(vec![0u8; 6]);
        let enabled: Vec<VertexId> = (0..6).map(VertexId::new).collect();
        let enabled_set = EnabledSet::from_vertices(g.n(), enabled.iter().copied());
        let preview = |_: &[VertexId], out: &mut Configuration<u8>| out.clone_from(&c);
        let mut d = RandomDistributedDaemon::new(0.3, 11);
        for _ in 0..50 {
            let sel = select_into(&mut d, &ctx_fixture(&enabled_set, &c, &g, &preview));
            assert!(!sel.is_empty());
            assert!(sel.iter().all(|v| enabled.contains(v)));
        }
    }

    #[test]
    #[should_panic(expected = "inclusion probability")]
    fn random_distributed_rejects_bad_p() {
        let _ = RandomDistributedDaemon::new(1.5, 0);
    }

    #[test]
    fn greedy_adversary_picks_highest_scoring_action() {
        let g = generators::path(3).unwrap();
        let c = Configuration::new(vec![0u8, 0, 0]);
        let enabled = [VertexId::new(0), VertexId::new(2)];
        let enabled_set = EnabledSet::from_vertices(g.n(), enabled.iter().copied());
        // Preview: activating vertex 2 flips its state to 9.
        let preview = |set: &[VertexId], out: &mut Configuration<u8>| {
            out.clone_from(&Configuration::new(vec![0u8, 0, 0]));
            for &v in set {
                out.set(v, if v.index() == 2 { 9 } else { 1 });
            }
        };
        // Metric: total state sum — adversary should pick vertex 2.
        let metric: AdversaryMetric<u8> =
            Box::new(|cfg, _| cfg.states().iter().map(|&s| s as f64).sum());
        let mut d = GreedyAdversary::new(metric, AdversaryMoves::Singletons, 0);
        let sel = select_into(&mut d, &ctx_fixture(&enabled_set, &c, &g, &preview));
        assert_eq!(sel, vec![VertexId::new(2)]);
    }

    #[test]
    fn k_bounded_daemon_never_starves_beyond_k() {
        let g = generators::ring(6).unwrap();
        let c = Configuration::new(vec![0u8; 6]);
        let enabled: Vec<VertexId> = (0..6).map(VertexId::new).collect();
        let enabled_set = EnabledSet::from_vertices(g.n(), enabled.iter().copied());
        let preview = |_: &[VertexId], out: &mut Configuration<u8>| out.clone_from(&c);
        let k = 3;
        let mut d = KBoundedDaemon::new(k, 0.2, 5);
        let mut since_selected = [0usize; 6];
        for step in 0..200 {
            let ctx = SelectionContext::new(&enabled_set, &c, &g, step, &preview);
            let sel = select_into(&mut d, &ctx);
            assert!(!sel.is_empty());
            for (v, waited) in since_selected.iter_mut().enumerate() {
                if sel.contains(&VertexId::new(v)) {
                    *waited = 0;
                } else {
                    *waited += 1;
                    assert!(*waited <= k + 1, "vertex {v} passed over {waited} times");
                }
            }
        }
    }

    #[test]
    fn k_bounded_class_is_weakly_fair_distributed() {
        let d = KBoundedDaemon::new(2, 0.5, 0);
        let class = Daemon::<u8>::class(&d);
        assert!(class < DaemonClass::unfair_distributed());
    }

    #[test]
    fn oldest_first_serves_waiting_vertices() {
        let g = generators::ring(4).unwrap();
        let c = Configuration::new(vec![0u8; 4]);
        let enabled: Vec<VertexId> = (0..4).map(VertexId::new).collect();
        let enabled_set = EnabledSet::from_vertices(g.n(), enabled.iter().copied());
        let preview = |_: &[VertexId], out: &mut Configuration<u8>| out.clone_from(&c);
        let mut d = OldestFirstDaemon::new();
        // All become enabled at step 0; ties break by index, and each
        // selected vertex goes to the back of the seniority order.
        let mut picks = Vec::new();
        for step in 0..8 {
            let ctx = SelectionContext::new(&enabled_set, &c, &g, step, &preview);
            picks.push(select_into(&mut d, &ctx)[0].index());
        }
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3], "round-robin-like fairness");
    }

    #[test]
    fn oldest_first_class_is_weakly_fair_central() {
        let d = OldestFirstDaemon::new();
        assert_eq!(Daemon::<u8>::class(&d), DaemonClass::central_weakly_fair());
        assert_eq!(Daemon::<u8>::name(&d), "central-oldest");
    }

    #[test]
    fn daemon_reset_restores_determinism() {
        let g = generators::ring(8).unwrap();
        let c = Configuration::new(vec![0u8; 8]);
        let enabled: Vec<VertexId> = (0..8).map(VertexId::new).collect();
        let enabled_set = EnabledSet::from_vertices(g.n(), enabled.iter().copied());
        let preview = |_: &[VertexId], out: &mut Configuration<u8>| out.clone_from(&c);
        let mut d = CentralDaemon::new(CentralStrategy::Random(3));
        let first: Vec<usize> = (0..5)
            .map(|_| select_into(&mut d, &ctx_fixture(&enabled_set, &c, &g, &preview))[0].index())
            .collect();
        Daemon::<u8>::reset(&mut d);
        let second: Vec<usize> = (0..5)
            .map(|_| select_into(&mut d, &ctx_fixture(&enabled_set, &c, &g, &preview))[0].index())
            .collect();
        assert_eq!(first, second);
    }
}
