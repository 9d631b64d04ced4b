//! Replica-parallel batched stepping: K seed-replicas of one campaign
//! cell packed into structure-of-arrays state and stepped together under
//! a batchable daemon.
//!
//! A campaign cell replays the identical (topology, protocol, daemon)
//! across hundreds of seeds — perfectly homogeneous work that the scalar
//! engine steps one configuration at a time. The batch engine packs K
//! replicas **replica-major**: `soa[v * lanes + lane]` holds vertex `v`
//! of replica `lane`, so one cache line carries the same vertex across
//! tens of replicas and the per-vertex guard arithmetic auto-vectorizes
//! over the lane axis. The CSR topology is walked **once per step for
//! all replicas** by [`PackedProtocol::step_lanes`].
//!
//! # One loop, one dense schedule
//!
//! Every batched run is the same step loop ([`run_batch`]), and both
//! batchable daemons — [`BatchDaemon::Sync`] and
//! [`BatchDaemon::RandomDistributed`] — ride the same dense schedule.
//! Each pass does, in this order:
//!
//! 1. the per-lane stop checks, in the scalar engine's loop-top order
//!    (terminal, step limit, monitor request);
//! 2. step-slot charging;
//! 3. selection: sync takes every fired entry; dist:p draws each
//!    committing lane's sample (below);
//! 4. the commit: one branch-free [`LaneWord::blend`] over the flat
//!    `state`/`next` arrays;
//! 5. per-lane step/move accounting, then one monitor check of the
//!    committed state ([`BatchMonitor`]);
//! 6. the guard refresh: one whole-graph `step_lanes` plus the per-lane
//!    enabled counts.
//!
//! The refresh is a whole-graph sweep on purpose. Sync commits every
//! enabled vertex, and a dist:0.5 lane commits about half of its enabled
//! vertices, so the rows a pass touches cover the graph and an
//! incremental refresh would only add bookkeeping. Runs whose lanes make
//! a handful of moves per pass (a 2-fault burst on a large graph) pay for
//! the full sweep anyway.
//!
//! ## The dist:p sampler
//!
//! A [`BatchDaemon::RandomDistributed`] lane carries its own RNG stream,
//! seeded exactly as the scalar `dist:<p>` daemon for that replica after
//! `reset()`. For each committing lane the pass compacts the lane's fired
//! column into an ascending vertex list, branch-free
//! (`idx[k] = v; k += fired`), draws one `gen_bool(p)` per entry — so the
//! draws land in ascending vertex order, the scalar daemon's iteration
//! order — and, when the sample comes up empty, takes the scalar `choose`
//! fallback `idx[choose_index(rng, k)]`. Draws happen only for lanes that
//! execute the step, matching the scalar engine's select-after-stop-checks
//! order. The sample lands in a flat selection mask, and the commit
//! blends through it.
//!
//! Daemons whose schedules read history (`kbounded`, `central-oldest`),
//! adversarial search state, or pick one vertex per step (`central-rr`,
//! `central-rand`) have no batched schedule ([`BatchDaemon::from_spec`]
//! maps them to `None`): their groups always run on the scalar engine,
//! which commits one move per step in O(degree). Every lane's
//! [`RunCounters::batch_lanes`] reads 1, which is how the campaign
//! executor tells a `batched` group from a sync or dist group that still
//! ran scalar (`scalar-fallback`: protocol not packed, batching disabled)
//! and from a `scalar` one.
//!
//! ## Monitors
//!
//! A [`BatchMonitor`] sees the packed state once at the start and once
//! after every commit, with the mask of lanes that committed, and answers
//! the loop's stop query. [`NoMonitor`] (plain runs) compiles away.
//! [`LaneMonitor`] measures a specification through its lane form
//! ([`LaneSpecification`]): per pass, one safety sweep and one legitimacy
//! sweep over the packed rows give every lane its totals, which feed the
//! same per-lane record the scalar
//! [`SpecMonitor`](crate::measure::SpecMonitor) keeps. Final
//! configurations are unpacked from the SoA state under every monitor.
//!
//! # Lane masking
//!
//! Replicas converge at different steps. A stopped lane keeps riding the
//! batch GPU-warp style — its commits are masked off so its state (and
//! hence its extracted final configuration) freezes at the stop step.
//! The masked work is surfaced per lane, counted **per logical step**:
//! every pass that commits at least one lane charges each lane one
//! step-slot ([`RunCounters::batch_lane_steps`]), idle for a lane that
//! already stopped ([`RunCounters::batch_idle_lane_steps`]), so a lane's
//! `batch_lane_steps − batch_idle_lane_steps` equals the steps it
//! executed and occupancy stays comparable across lane widths (u8×64 vs
//! i32×16 packing).
//!
//! # Equivalence contract
//!
//! [`run_batch`] reproduces, per lane, exactly what
//! [`Simulator::run`](crate::engine::Simulator::run) produces under the
//! matching scalar daemon: the same step/move counts, the same
//! [`StopReason`], the same final configuration — for dist:p, the same
//! RNG draws from the same seed. Under [`LaneMonitor`] each lane
//! additionally gets the [`StabilizationReport`] a scalar
//! [`MeasurementContext`](crate::measure::MeasurementContext) over the
//! same specification yields with early stop on legitimacy, index for
//! index. The differential proptest suites assert both claims against
//! the scalar engine.

use crate::config::Configuration;
use crate::engine::StopReason;
use crate::measure::{MeasureRecord, StabilizationReport};
use crate::protocol::Protocol;
use crate::spec::LaneSpecification;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use specstab_telemetry::RunCounters;
use specstab_topology::{Graph, VertexId};

/// A fixed-width integer lane word: the primitive the SoA engine can
/// merge branch-free. The blanket-free list of impls (u8/u16/u32/u64 and
/// their signed twins) covers every packed state representation; the
/// `blend` is a bitwise select (`self ^ ((self ^ other) & mask)`), pure
/// integer arithmetic the autovectorizer turns into SIMD blends — unlike
/// a per-element `if`, whose mispredictions dominate the commit pass on
/// real (step-varying) fired masks.
pub trait LaneWord: Copy + Send + 'static {
    /// Branch-free `if take { other } else { self }`.
    fn blend(self, other: Self, take: bool) -> Self;
}

macro_rules! lane_word {
    ($($t:ty),*) => {$(
        impl LaneWord for $t {
            #[inline(always)]
            fn blend(self, other: Self, take: bool) -> Self {
                let mask = (take as $t).wrapping_neg();
                self ^ ((self ^ other) & mask)
            }
        }
    )*};
}
lane_word!(u8, u16, u32, u64, i8, i16, i32, i64);

/// A protocol whose per-vertex state packs into a fixed-width lane and
/// whose guards evaluate lane-parallel over replica-major SoA state.
///
/// # Contract
///
/// For every vertex `v` and lane `l`, [`PackedProtocol::step_lanes`] must
/// set `fired[v * lanes + l]` to whether `v` is enabled in lane `l`'s
/// configuration and, when enabled, write the successor state to
/// `next[v * lanes + l]` — exactly the states the scalar
/// `enabled_rule`/`apply` pair would produce. The engine always
/// re-evaluates the whole graph, so an implementation is free to walk it
/// in whatever order vectorizes best.
pub trait PackedProtocol: Protocol {
    /// Packed per-vertex state: a fixed-width copyable lane word.
    type Lane: LaneWord;

    /// Packs one scalar state into its lane representation.
    fn pack(&self, state: &Self::State) -> Self::Lane;

    /// Unpacks a lane word back into the scalar state.
    ///
    /// Only ever called on lane words the packed step produced (or
    /// [`PackedProtocol::pack`] created), so implementations may assume
    /// in-domain values.
    fn unpack(&self, lane: Self::Lane) -> Self::State;

    /// One synchronous step for all lanes: evaluate every vertex's guard
    /// in every lane over `soa` (replica-major, `soa[v * lanes + lane]`),
    /// writing enablement into `fired` and successor states into `next`.
    /// Entries of `next` whose `fired` bit is clear are ignored by the
    /// caller. Implementations walk the CSR topology once, amortized
    /// over all lanes.
    fn step_lanes(
        &self,
        graph: &Graph,
        lanes: usize,
        soa: &[Self::Lane],
        next: &mut [Self::Lane],
        fired: &mut [bool],
    );
}

/// Daemon schedule a batched run replays: which scalar daemon every lane
/// must be bit-identical to.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum BatchDaemon {
    /// The synchronous daemon: every enabled vertex fires each step.
    Sync,
    /// The central round-robin daemon. It has no batched schedule: the
    /// variant stays only so external copies of the executor's routing
    /// keep compiling. [`BatchDaemon::from_spec`] never produces it,
    /// [`run_batch`] panics on it and `batched_measure` answers `None`.
    CentralRr,
    /// The central random daemon; a shim exactly like
    /// [`BatchDaemon::CentralRr`].
    CentralRand,
    /// The random distributed daemon: each lane includes each enabled
    /// vertex independently with probability `p` (one `gen_bool(p)` draw
    /// per enabled vertex in ascending vertex order), falling back to one
    /// uniform `choose` pick when the sample is empty — the exact draw
    /// sequence of the scalar `dist:<p>` daemon after `reset()`.
    RandomDistributed {
        /// Per-vertex inclusion probability in `[0, 1]`.
        p: f64,
    },
}

impl BatchDaemon {
    /// Whether this daemon needs one RNG seed per lane
    /// (`lane_seeds.len() == inits.len()` in [`run_batch`]).
    #[must_use]
    pub fn needs_lane_seeds(self) -> bool {
        matches!(self, BatchDaemon::CentralRand | BatchDaemon::RandomDistributed { .. })
    }

    /// Whether this daemon has a batched schedule: sync and dist:p. The
    /// central variants are shims that always run scalar.
    #[must_use]
    pub fn is_batched(self) -> bool {
        matches!(self, BatchDaemon::Sync | BatchDaemon::RandomDistributed { .. })
    }
}

/// Calls `$chunk::<W>(l0, args..)` over the lanes `0..$lanes` in
/// fixed-width chunks: `W = 8` while eight lanes remain, then at most one
/// `W = 4`, then `W = 1` for the tail. A lane loop whose width is a
/// compile-time constant keeps its accumulators in registers and
/// vectorizes; a loop over a runtime lane count of 8 or 12 does neither.
/// Packed protocols use it for their row kernels.
#[macro_export]
macro_rules! lane_chunks {
    ($lanes:expr, $chunk:ident($($arg:expr),*)) => {{
        let lanes: usize = $lanes;
        let mut l0 = 0;
        while l0 + 8 <= lanes {
            $chunk::<8>(l0, $($arg),*);
            l0 += 8;
        }
        if l0 + 4 <= lanes {
            $chunk::<4>(l0, $($arg),*);
            l0 += 4;
        }
        while l0 < lanes {
            $chunk::<1>(l0, $($arg),*);
            l0 += 1;
        }
    }};
}

/// Counts the fired entries of lanes `l0..l0 + W` over every row of the
/// lane-major `fired` matrix into `enabled`.
#[inline(always)]
fn count_chunk<const W: usize>(l0: usize, lanes: usize, fired: &[bool], enabled: &mut [u32]) {
    let mut acc = [0u32; W];
    for row in fired.chunks_exact(lanes) {
        let row: &[bool; W] = row[l0..l0 + W].try_into().expect("a chunk is W lanes");
        for i in 0..W {
            acc[i] += u32::from(row[i]);
        }
    }
    enabled[l0..l0 + W].copy_from_slice(&acc);
}

/// Replays the vendored `gen_range(0..span)` draw (the same draw as
/// `SliceRandom::choose` on a slice of length `span`): one `next_u64`
/// mapped onto `0..span` by the fixed-point multiply. The scalar daemon's
/// empty-sample fallback picks the member of that rank in its ascending
/// enabled set, which is entry `choose_index(rng, k)` of the lane's
/// compacted fired list.
#[inline]
fn choose_index(rng: &mut StdRng, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

/// The replica-major SoA state plus the guard-evaluation buffers:
/// `state[v * lanes + l]` is vertex `v` of lane `l`, `fired`/`next` hold
/// the latest whole-graph evaluation over it and `enabled[l]` lane `l`'s
/// enabled count.
struct Soa<P: PackedProtocol> {
    lanes: usize,
    state: Vec<P::Lane>,
    next: Vec<P::Lane>,
    fired: Vec<bool>,
    enabled: Vec<u32>,
}

impl<P: PackedProtocol> Soa<P> {
    /// Packs `inits` replica-major.
    fn pack(protocol: &P, n: usize, inits: &[Configuration<P::State>]) -> Self {
        let lanes = inits.len();
        let mut state = Vec::with_capacity(n * lanes);
        for v in 0..n {
            for init in inits {
                state.push(protocol.pack(init.get(VertexId::new(v))));
            }
        }
        Self {
            lanes,
            next: state.clone(),
            state,
            fired: vec![false; n * lanes],
            enabled: vec![0; lanes],
        }
    }

    /// Evaluates every guard in every lane (one whole-graph `step_lanes`)
    /// and recounts each lane's enabled vertices.
    fn refresh(&mut self, graph: &Graph, protocol: &P) {
        protocol.step_lanes(graph, self.lanes, &self.state, &mut self.next, &mut self.fired);
        lane_chunks!(self.lanes, count_chunk(self.lanes, &self.fired, &mut self.enabled));
    }

    /// The synchronous commit: every fired entry of every committing
    /// lane. Branch-free blend per element: the fired mask changes every
    /// step, so a per-element `if` mispredicts its way through the whole
    /// matrix; the bitwise select is data-independent and vectorizes. The
    /// chunk/zip shape matters — indexed accesses against a runtime
    /// `lanes` keep per-element bounds checks alive and block the
    /// vectorizer (measured ~10x slower than this form).
    fn commit_fired(&mut self, commit: &[bool]) {
        let lanes = self.lanes;
        let commit = &commit[..lanes];
        let rows = self.next.chunks_exact(lanes).zip(self.fired.chunks_exact(lanes));
        for (srow, (nrow, frow)) in self.state.chunks_exact_mut(lanes).zip(rows) {
            for (((s, &nx), &f), &c) in srow.iter_mut().zip(nrow).zip(frow).zip(commit) {
                *s = s.blend(nx, f & c);
            }
        }
    }
}

/// Unpacks lane `l` of replica-major `soa` into a scalar configuration.
fn unpack_lane<P: PackedProtocol>(
    protocol: &P,
    soa: &[P::Lane],
    lanes: usize,
    l: usize,
) -> Configuration<P::State> {
    Configuration::from_fn(soa.len() / lanes, |v| protocol.unpack(soa[v.index() * lanes + l]))
}

/// The dist:p selection state: per-lane RNG streams, the compaction
/// buffer and the flat selection mask (same layout as `fired`).
struct DistSampler {
    p: f64,
    rngs: Vec<StdRng>,
    /// The fired vertices of the lane being sampled, ascending, in
    /// `idx[..k]`.
    idx: Vec<u32>,
    /// `sel[v * lanes + l]`: vertex `v` moves in lane `l` this pass.
    sel: Vec<bool>,
}

impl DistSampler {
    fn new(p: f64, n: usize, lane_seeds: &[u64]) -> Self {
        assert!((0.0..=1.0).contains(&p), "inclusion probability must be in [0,1]");
        Self {
            p,
            rngs: lane_seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect(),
            idx: vec![0; n],
            sel: vec![false; n * lane_seeds.len()],
        }
    }

    /// Draws every committing lane's sample into `sel` (its size into
    /// `moved[l]`), then commits it with one flat blend.
    fn select_and_commit<P: PackedProtocol>(
        &mut self,
        commit: &[bool],
        soa: &mut Soa<P>,
        moved: &mut [u32],
    ) {
        let lanes = soa.lanes;
        self.sel.fill(false);
        for (l, &committing) in commit.iter().enumerate() {
            if committing {
                moved[l] = self.sample_lane(l, lanes, &soa.fired);
            }
        }
        for ((s, &nx), &take) in soa.state.iter_mut().zip(&soa.next).zip(&self.sel) {
            *s = s.blend(nx, take);
        }
    }

    /// Lane `l`'s sample: the scalar daemon's ascending `gen_bool(p)`
    /// coins over its enabled vertices, else one `choose` draw. Returns
    /// the sample size.
    fn sample_lane(&mut self, l: usize, lanes: usize, fired: &[bool]) -> u32 {
        let mut k = 0;
        for (v, &f) in fired[l..].iter().step_by(lanes).enumerate() {
            self.idx[k] = v as u32;
            k += usize::from(f);
        }
        debug_assert!(k > 0, "committing lanes have a nonempty enabled set");
        let rng = &mut self.rngs[l];
        let mut taken = 0;
        for &v in &self.idx[..k] {
            let coin = rng.gen_bool(self.p);
            self.sel[v as usize * lanes + l] = coin;
            taken += u32::from(coin);
        }
        if taken == 0 {
            let v = self.idx[choose_index(rng, k as u64) as usize];
            self.sel[v as usize * lanes + l] = true;
            taken = 1;
        }
        taken
    }
}

/// Per-lane outcome of a batched run: what the loop hands the monitor,
/// and what plain runs return.
#[derive(Clone, Debug)]
pub struct LaneSummary<S> {
    /// The lane's final configuration (frozen at its stop step).
    pub final_config: Configuration<S>,
    /// Steps the lane executed before stopping.
    pub steps: usize,
    /// Moves (vertex activations) the lane executed.
    pub moves: u64,
    /// Why the lane stopped.
    pub stop: StopReason,
    /// The lane's deterministic engine counters, its share of the batch's
    /// occupancy included.
    pub counters: RunCounters,
}

/// What a batched run observes per lane beyond steps, moves and stop
/// reasons — the seam the step loop is generic over.
///
/// The loop calls [`BatchMonitor::observe`] with the packed initial state
/// (every lane live, index 0) and then once after every pass's commit,
/// with the mask of the lanes that committed and their new configuration
/// index. Before each pass it asks [`BatchMonitor::wants_stop`] for every
/// live lane (after the terminal and step-limit checks: the scalar
/// engine's observer-request slot).
pub trait BatchMonitor<P: PackedProtocol> {
    /// Per-lane result of a run under this monitor.
    type Report;

    /// Checks configuration `index` of every lane `l` with `live[l]`:
    /// `soa` is replica-major with `live.len()` lanes
    /// (`soa[v * lanes + l]`).
    fn observe(&mut self, graph: &Graph, soa: &[P::Lane], live: &[bool], index: usize);

    /// Whether lane `lane` requests a stop before its next step.
    fn wants_stop(&self, lane: usize) -> bool;

    /// Turns the per-lane summaries into the run's reports.
    fn finish(self, lanes: Vec<LaneSummary<P::State>>) -> Vec<Self::Report>;
}

/// The monitor of a plain run: observes nothing and never stops a lane,
/// so the step loop compiles down to the bare engine. Its reports are
/// the [`LaneSummary`]s themselves.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoMonitor;

impl<P: PackedProtocol> BatchMonitor<P> for NoMonitor {
    type Report = LaneSummary<P::State>;

    #[inline]
    fn observe(&mut self, _graph: &Graph, _soa: &[P::Lane], _live: &[bool], _index: usize) {}

    #[inline]
    fn wants_stop(&self, _lane: usize) -> bool {
        false
    }

    fn finish(self, lanes: Vec<LaneSummary<P::State>>) -> Vec<LaneSummary<P::State>> {
        lanes
    }
}

/// Rows per block of the legitimacy sweep: the granularity at which
/// [`LaneMonitor`] checks whether every live lane's verdict is decided.
const LEGITIMACY_BLOCK: usize = 32;

/// The measured-run monitor: safety, legitimacy and early stopping for a
/// [`LaneSpecification`], evaluated over the packed rows.
///
/// Each check sweeps the rows twice. The safety sweep always covers the
/// whole graph. The legitimacy sweep runs in blocks of 32 rows
/// (`LEGITIMACY_BLOCK`) and stops as soon as every live lane's total
/// has passed the rule's bound ([`Aggregate::decided_by`](crate::spec::Aggregate::decided_by)):
/// specME's `AtMost(0)` is decided at each lane's first `Γ1` violation.
/// The per-lane totals feed the record the scalar
/// [`SpecMonitor`](crate::measure::SpecMonitor) keeps, so each lane's
/// report equals a scalar
/// [`MeasurementContext`](crate::measure::MeasurementContext) over the
/// same specification with `with_early_stop(legitimacy, margin)`, except
/// `counters.monitor_evals`: the (vertex, lane) count evaluations the
/// sweeps actually performed for that lane (`n` plus the legitimacy rows
/// swept, per configuration).
///
/// Each lane's report is a [`StabilizationReport`] plus its final
/// configuration. Per-lane buffers are sized at the first check; later
/// checks allocate nothing.
pub struct LaneMonitor<'a, Sp> {
    spec: &'a Sp,
    early_stop_margin: usize,
    safety: Vec<u32>,
    legitimacy: Vec<u32>,
    records: Vec<MeasureRecord>,
    evals: Vec<u64>,
}

impl<'a, Sp> LaneMonitor<'a, Sp> {
    /// A monitor for `spec` that stops a lane once legitimacy has held
    /// for `early_stop_margin + 1` consecutive configurations.
    #[must_use]
    pub fn new(spec: &'a Sp, early_stop_margin: usize) -> Self {
        Self {
            spec,
            early_stop_margin,
            safety: Vec::new(),
            legitimacy: Vec::new(),
            records: Vec::new(),
            evals: Vec::new(),
        }
    }
}

impl<P, Sp> BatchMonitor<P> for LaneMonitor<'_, Sp>
where
    P: PackedProtocol,
    Sp: LaneSpecification<P::State, P::Lane>,
{
    type Report = (StabilizationReport, Configuration<P::State>);

    fn observe(&mut self, graph: &Graph, soa: &[P::Lane], live: &[bool], index: usize) {
        let (spec, n, lanes) = (self.spec, graph.n(), live.len());
        if self.records.is_empty() {
            self.safety = vec![0; lanes];
            self.legitimacy = vec![0; lanes];
            self.records = vec![MeasureRecord::default(); lanes];
            self.evals = vec![0; lanes];
        }
        self.safety.fill(0);
        spec.add_safety_rows(graph, 0..n, lanes, soa, &mut self.safety);
        let legitimacy_rule = spec.legitimacy_rule();
        self.legitimacy.fill(0);
        let mut swept = 0;
        while swept < n {
            let end = (swept + LEGITIMACY_BLOCK).min(n);
            spec.add_legitimacy_rows(graph, swept..end, lanes, soa, &mut self.legitimacy);
            swept = end;
            let decided = live
                .iter()
                .zip(&self.legitimacy)
                .all(|(&on, &total)| !on || legitimacy_rule.decided_by(u64::from(total)));
            if decided {
                break;
            }
        }
        let safety_rule = spec.safety_rule();
        for (l, _) in live.iter().enumerate().filter(|(_, &on)| on) {
            self.evals[l] += (n + swept) as u64;
            self.records[l].observe(
                index,
                safety_rule.holds(u64::from(self.safety[l])),
                legitimacy_rule.holds(u64::from(self.legitimacy[l])),
            );
        }
    }

    #[inline]
    fn wants_stop(&self, lane: usize) -> bool {
        self.records[lane].stable_for(self.early_stop_margin)
    }

    fn finish(self, lanes: Vec<LaneSummary<P::State>>) -> Vec<Self::Report> {
        lanes
            .into_iter()
            .zip(self.records)
            .zip(self.evals)
            .map(|((s, record), monitor_evals)| {
                let counters = RunCounters { monitor_evals, ..s.counters };
                (record.report(s.steps, s.moves, s.stop, counters), s.final_config)
            })
            .collect()
    }
}

/// Runs `inits.len()` replicas of `protocol` to termination (or
/// `max_steps`, or the monitor's stop request) under `daemon`, batched,
/// and returns one `monitor` report per lane.
///
/// Per lane, the run is exactly what a scalar
/// [`Simulator::run`](crate::engine::Simulator::run) with the matching
/// daemon ([`SynchronousDaemon`](crate::daemon::SynchronousDaemon) or a
/// freshly `reset()`
/// [`RandomDistributedDaemon`](crate::daemon::RandomDistributedDaemon))
/// produces from the same initial configuration — with no observers
/// under [`NoMonitor`], with the measurement stack of the specification
/// under [`LaneMonitor`]. For dist:p, `lane_seeds[l]` must be the seed
/// the scalar daemon for replica `l` was constructed with; sync ignores
/// `lane_seeds` (pass `&[]`).
///
/// # Panics
///
/// Panics when `inits` is empty, a configuration's size does not match
/// the graph, dist:p's `lane_seeds` length does not match `inits.len()`,
/// or `daemon` is one of the central shims ([`BatchDaemon::CentralRr`],
/// [`BatchDaemon::CentralRand`]), which have no batched schedule.
#[must_use]
pub fn run_batch<P: PackedProtocol, M: BatchMonitor<P>>(
    graph: &Graph,
    protocol: &P,
    daemon: BatchDaemon,
    lane_seeds: &[u64],
    inits: &[Configuration<P::State>],
    max_steps: usize,
    monitor: M,
) -> Vec<M::Report> {
    assert!(!inits.is_empty(), "a batch needs at least one replica lane");
    for init in inits {
        assert_eq!(init.len(), graph.n(), "configuration size must match graph");
    }
    let sampler = match daemon {
        BatchDaemon::Sync => None,
        BatchDaemon::RandomDistributed { p } => {
            assert_eq!(
                lane_seeds.len(),
                inits.len(),
                "random batch daemons need exactly one RNG seed per lane"
            );
            Some(DistSampler::new(p, graph.n(), lane_seeds))
        }
        BatchDaemon::CentralRr | BatchDaemon::CentralRand => {
            panic!("central daemons have no batched schedule; run them on the scalar engine")
        }
    };
    step_loop(graph, protocol, inits, max_steps, sampler, monitor)
}

/// The one batched step loop (see the module docs for the pass order):
/// `sampler` is `None` under sync, which commits every fired entry.
fn step_loop<P: PackedProtocol, M: BatchMonitor<P>>(
    graph: &Graph,
    protocol: &P,
    inits: &[Configuration<P::State>],
    max_steps: usize,
    mut sampler: Option<DistSampler>,
    mut monitor: M,
) -> Vec<M::Report> {
    let n = graph.n();
    let mut soa = Soa::pack(protocol, n, inits);
    let lanes = soa.lanes;
    let mut stop: Vec<Option<StopReason>> = vec![None; lanes];
    let mut commit = vec![true; lanes];
    let mut moved = vec![0u32; lanes];
    let mut counters = vec![RunCounters { batch_lanes: 1, ..RunCounters::new() }; lanes];
    // A lane commits every pass until it stops for good, so every
    // committing lane's configuration index is the pass count.
    let mut index = 0;
    soa.refresh(graph, protocol);
    monitor.observe(graph, &soa.state, &commit, index);

    loop {
        // The scalar engine's loop-top order: terminal first, then the
        // step limit, then an observer request.
        let mut committed = 0usize;
        for l in 0..lanes {
            commit[l] = false;
            if stop[l].is_some() {
                continue;
            }
            counters[l].guard_evals += n as u64;
            stop[l] = if soa.enabled[l] == 0 {
                Some(StopReason::Terminal)
            } else if counters[l].steps >= max_steps as u64 {
                Some(StopReason::MaxSteps)
            } else if monitor.wants_stop(l) {
                Some(StopReason::ObserverRequest)
            } else {
                commit[l] = true;
                committed += 1;
                None
            };
        }
        if committed == 0 {
            break;
        }
        match sampler.as_mut() {
            None => {
                soa.commit_fired(&commit);
                moved.copy_from_slice(&soa.enabled);
            }
            Some(sampler) => sampler.select_and_commit(&commit, &mut soa, &mut moved),
        }
        index += 1;
        for l in 0..lanes {
            if commit[l] {
                let moved = u64::from(moved[l]);
                let c = &mut counters[l];
                c.steps += 1;
                c.moves += moved;
                c.delta_bytes += moved * 2 * std::mem::size_of::<P::State>() as u64;
                debug_assert_eq!(c.steps, index as u64);
            }
        }
        // The monitor checks run at the post-commit step index: the scalar
        // observers see every move of the step applied.
        monitor.observe(graph, &soa.state, &commit, index);
        soa.refresh(graph, protocol);
    }

    // Every committing pass charged each lane one step-slot, idle once
    // the lane had stopped. Counting per logical step (instead of per
    // evaluation pass) keeps occupancy comparable across lane widths — a
    // u8-packed batch runs 64 replicas per cache line where an i32-packed
    // one runs 16.
    for c in &mut counters {
        c.batch_lane_steps = index as u64;
        c.batch_idle_lane_steps = c.batch_lane_steps - c.steps;
    }
    let batch: RunCounters = counters.iter().sum();
    specstab_telemetry::global().record_batch(batch.batch_lane_steps, batch.batch_idle_lane_steps);
    let summaries = (0..lanes)
        .map(|l| LaneSummary {
            final_config: unpack_lane(protocol, &soa.state, lanes, l),
            steps: counters[l].steps as usize,
            moves: counters[l].moves,
            stop: stop[l].expect("every lane stopped"),
            counters: counters[l],
        })
        .collect();
    monitor.finish(summaries)
}
