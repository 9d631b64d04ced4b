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
//! # One loop, two schedules, two monitors
//!
//! Every batched run is the same step loop ([`run_batch`]). Each pass
//! does, in this order and for every daemon: the per-lane stop checks
//! (the scalar engine's loop-top order — terminal, step limit, observer
//! request), step-slot charging, select + commit, per-lane step/move
//! accounting, the monitor's post-step check, and the guard refresh.
//! What varies is plugged in:
//!
//! - a **schedule** — how a pass picks its moves and re-evaluates
//!   guards, chosen by the [`BatchDaemon`];
//! - a **monitor** ([`BatchMonitor`]) — what the run measures beyond
//!   steps, moves and stop reasons: [`NoMonitor`] for plain runs (it
//!   compiles away) or [`PredicateMonitor`] for measured runs.
//!
//! ## Schedules
//!
//! - **Dense** ([`BatchDaemon::Sync`]): the activated set *is* the
//!   enabled set — no RNG, no selection state — so every lane's move
//!   sequence is bit-identical to its scalar run by construction. A pass
//!   is one whole-graph `step_lanes`, then every fired entry committed
//!   with a branch-free blend. It stays dense on purpose: sync commits
//!   every enabled vertex, so an incremental bitset refresh would touch
//!   all n rows every pass and only add row-diff work.
//! - **Divergent** ([`BatchDaemon::CentralRr`],
//!   [`BatchDaemon::CentralRand`], [`BatchDaemon::RandomDistributed`]):
//!   each lane runs its own schedule — a round-robin cursor, or an RNG
//!   stream seeded exactly as the scalar daemon for that replica would
//!   be — over a shared guard evaluation. Selection is resolved as
//!   per-lane masks over a **transposed enabled-bitset** (below) and
//!   committed per lane (GPU-warp-style divergence, masked not
//!   branched). The random modes replay the scalar daemon's RNG draw
//!   sequence bit for bit: `CentralRand` draws one uniform index per
//!   step into the lane's enabled set in ascending order, `RandomDistributed{p}`
//!   draws one `gen_bool(p)` per enabled vertex in ascending vertex
//!   order plus one `choose` fallback when the sample comes up empty —
//!   and draws happen *only* for steps that execute, matching the
//!   scalar engine's select-after-stop-checks order.
//!
//! Daemons whose schedules read history (`kbounded`, `central-oldest`)
//! or adversarial search state have no batched schedule
//! ([`BatchDaemon::from_spec`] maps them to `None`): their groups always
//! run scalar and are not routing-counted. `batch_scalar_fallbacks` in
//! the telemetry snapshot counts only groups of the four batchable
//! classes that still ran scalar (protocol not packed, size gate,
//! batching disabled).
//!
//! ## Monitors
//!
//! A monitor sees the packed initial state, a commit hook
//! `(lane, vertex, new word)` for every committed move and a post-step
//! check per executed lane step, and it answers the loop's stop query.
//! [`PredicateMonitor`] replicates the
//! [`MeasurementContext`](crate::measure::MeasurementContext) stack per
//! lane over a mirror configuration the commit hook keeps current; final
//! configurations are unpacked from the SoA state under every monitor.
//!
//! # The transposed incremental enabled-bitset
//!
//! Lane-divergent modes commit only a handful of vertices per pass, so
//! re-evaluating every guard every pass (the dense O(n · lanes) sweep
//! central-rr used to pay) wastes almost all of its work. Instead the
//! divergent engine keeps, per vertex, one u64 word per 64 lanes —
//! `bits[v * wpl + w]` bit `b` = "vertex `v` enabled in lane
//! `w * 64 + b`" — plus exact per-lane enabled counts:
//!
//! ```text
//!             lane:  63 ......... 210
//! vertex 0  bits[0] [0 1 0 ... 1 0 1]   one word = 64 lanes' enablement
//! vertex 1  bits[1] [1 1 0 ... 0 0 1]   of one vertex; selection scans
//!   ...                                 are word ANDs + trailing_zeros
//! vertex n  bits[n] [0 0 0 ... 1 1 0]
//! ```
//!
//! After each commit the engine re-evaluates only the commit's touched
//! neighborhood (the committed vertices and their CSR neighbors — the
//! batched analogue of the scalar engine's O(degree) enabled-set
//! bookkeeping) via [`PackedProtocol::eval_vertex_lanes`], patching the
//! bitset from word diffs. Selection never rescans guards: round-robin
//! resolves every lane's pick in one ascending word-scan (cursor-sorted
//! lane activation), the random modes count down their drawn index over
//! set bits. A pass therefore costs O(n · lanes / 64) word ops plus
//! O(touched · degree · lanes) guard re-evaluation, instead of
//! O(n · lanes · degree) — which is what moves the central-mode routing
//! crossover on the byte-lane ring protocols from n ≤ 32 to n ≈ 128
//! (each harness publishes its measured gate via
//! `ProtocolHarness::central_batch_max_n`) and opens the random daemons
//! to batching at any size.
//!
//! # Lane masking
//!
//! Replicas converge at different steps. A stopped lane keeps riding the
//! batch GPU-warp style — its commits are masked off so its state (and
//! hence its extracted final configuration) freezes at the stop step.
//! The masked work is surfaced as `batch_idle_lane_steps`, counted **per
//! logical step**: every pass that commits at least one lane charges one
//! step-slot per lane, so `batch_lane_steps − batch_idle_lane_steps`
//! equals the total steps executed across lanes and occupancy stays
//! comparable across lane widths (u8×64 vs i32×16 packing).
//!
//! # Equivalence contract
//!
//! [`run_batch`] reproduces, per lane, exactly what
//! [`Simulator::run`](crate::engine::Simulator::run) produces under the
//! matching scalar daemon: the same step/move counts, the same
//! [`StopReason`], the same final configuration — for the random
//! daemons, the same RNG draws from the same seed. Under
//! [`PredicateMonitor`] each lane additionally gets the
//! [`StabilizationReport`] a scalar
//! [`MeasurementContext`](crate::measure::MeasurementContext) yields,
//! index for index. The differential proptest suites assert both claims
//! against the scalar engine for every daemon, and
//! [`run_batch_with_dense_sweep`] pins the incremental bitset against a
//! forced full re-evaluation every pass.

use crate::config::Configuration;
use crate::engine::StopReason;
use crate::measure::{MeasureRecord, StabilizationReport};
use crate::observer::ConfigPredicate;
use crate::protocol::Protocol;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use specstab_telemetry::{BatchDaemonClass, RunCounters};
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
/// `enabled_rule`/`apply` pair would produce.
/// [`PackedProtocol::eval_vertex_lanes`] is the single-vertex form of the
/// same computation; the divergent-daemon engine uses it to re-evaluate
/// only a commit's touched neighborhood, so it must read nothing beyond
/// vertex `v`'s own state and its CSR neighbors' states (the same
/// locality the scalar engine's incremental enabled set assumes).
pub trait PackedProtocol: Protocol {
    /// Packed per-vertex state: a fixed-width copyable lane word.
    type Lane: LaneWord;
    /// Reusable per-batch scratch for `step_lanes` (lane accumulators
    /// etc.); `Default` must produce an empty instance that `step_lanes`
    /// (re)sizes on first use.
    type LaneScratch: Default;

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
        scratch: &mut Self::LaneScratch,
    );

    /// Re-evaluates vertex `v`'s guard and successor in every lane,
    /// writing only row `v` of `next`/`fired` — the incremental unit the
    /// divergent engine's touched-neighborhood refresh is built on. Must
    /// agree with [`PackedProtocol::step_lanes`] row for row.
    #[allow(clippy::too_many_arguments)] // step_lanes' signature plus the row index
    fn eval_vertex_lanes(
        &self,
        graph: &Graph,
        v: usize,
        lanes: usize,
        soa: &[Self::Lane],
        next: &mut [Self::Lane],
        fired: &mut [bool],
        scratch: &mut Self::LaneScratch,
    );
}

/// Daemon schedule a batched run replays: which scalar daemon every lane
/// must be bit-identical to.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum BatchDaemon {
    /// The synchronous daemon: every enabled vertex fires each step.
    Sync,
    /// The central round-robin daemon: each lane holds its own cursor and
    /// commits the first enabled vertex at or after it (wrapping to the
    /// lowest enabled vertex), then advances the cursor past the pick —
    /// the exact schedule of the scalar `central-rr` daemon after
    /// `reset()`.
    CentralRr,
    /// The central random daemon: each lane holds its own RNG stream
    /// (seeded per lane like the scalar `central-rand` daemon after
    /// `reset()`) and commits a uniformly chosen enabled vertex per step —
    /// one `choose` draw per executed step, bit-identical to the scalar
    /// pick sequence.
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

    /// The telemetry class this daemon's groups are routing-counted
    /// under.
    #[must_use]
    pub fn routing_class(self) -> BatchDaemonClass {
        match self {
            BatchDaemon::Sync => BatchDaemonClass::Sync,
            BatchDaemon::CentralRr => BatchDaemonClass::CentralRr,
            BatchDaemon::CentralRand => BatchDaemonClass::CentralRand,
            BatchDaemon::RandomDistributed { .. } => BatchDaemonClass::RandomDistributed,
        }
    }
}

/// u64 words per transposed bitset row (64 lanes per word).
#[inline]
fn words_per_row(lanes: usize) -> usize {
    lanes.div_ceil(64)
}

/// Assembles word `w` of vertex `v`'s transposed fired row from the
/// lane-major `fired` matrix (`base = v * lanes`).
///
/// Packs eight bool bytes per step with a SWAR multiply: for bytes
/// b₀..b₇ ∈ {0,1}, `x · 0x0102_0408_1020_4080` places bᵢ at bit 56 + i
/// (each product bit has at most one contributor, so no carries), and
/// the top byte is the packed mask. This runs once per bitset row per
/// refresh, so the bit-at-a-time loop it replaces was the dominant
/// per-pass cost of the divergent engine on mid-size graphs.
#[inline]
fn row_word(fired: &[bool], base: usize, lanes: usize, w: usize) -> u64 {
    let lo = w * 64;
    let hi = lanes.min(lo + 64);
    let row = &fired[base + lo..base + hi];
    let mut word = 0u64;
    let mut chunks = row.chunks_exact(8);
    for (i, c) in chunks.by_ref().enumerate() {
        let x = u64::from_le_bytes([
            c[0] as u8, c[1] as u8, c[2] as u8, c[3] as u8, c[4] as u8, c[5] as u8, c[6] as u8,
            c[7] as u8,
        ]);
        word |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    let tail = row.len() & !7;
    for (j, &b) in chunks.remainder().iter().enumerate() {
        word |= u64::from(b) << (tail + j);
    }
    word
}

/// Replays the vendored `gen_range(0..span)` draw (the same draw as
/// `SliceRandom::choose` on a slice of length `span`): one `next_u64`
/// mapped onto `0..span` by the fixed-point multiply. The scalar random
/// daemons pick the member of that rank in their enabled set, so
/// replaying it against the lane's enabled *count* (resolving the j-th
/// set bit in ascending vertex order) reproduces the scalar pick bit for
/// bit.
#[inline]
fn choose_index(rng: &mut StdRng, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

/// The replica-major SoA state plus the guard-evaluation buffers both
/// schedules share: `state[v * lanes + l]` is vertex `v` of lane `l`, and
/// `fired`/`next` hold the latest guard evaluation over it.
struct Soa<P: PackedProtocol> {
    lanes: usize,
    state: Vec<P::Lane>,
    next: Vec<P::Lane>,
    fired: Vec<bool>,
    scratch: P::LaneScratch,
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
            scratch: P::LaneScratch::default(),
        }
    }

    /// Evaluates every guard in every lane: one whole-graph `step_lanes`.
    fn step_all(&mut self, graph: &Graph, protocol: &P) {
        protocol.step_lanes(
            graph,
            self.lanes,
            &self.state,
            &mut self.next,
            &mut self.fired,
            &mut self.scratch,
        );
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

/// How a pass picks its moves: the dense synchronous sweep or the
/// lane-divergent bitset engine. The step loop calls `start` once, then
/// per pass `enabled` (stop checks), `commit`, `moved` (accounting) and
/// `refresh`.
trait Schedule<P: PackedProtocol> {
    /// The initial whole-graph guard evaluation.
    fn start(&mut self, graph: &Graph, protocol: &P, soa: &mut Soa<P>);

    /// Lane `l`'s enabled-vertex count in its current configuration.
    fn enabled(&self, l: usize) -> u32;

    /// Selects and commits this pass's moves in every lane with
    /// `commit[l]`, reporting each to `on_commit(lane, vertex, new_word)`.
    fn commit(
        &mut self,
        graph: &Graph,
        commit: &[bool],
        soa: &mut Soa<P>,
        on_commit: impl FnMut(usize, usize, P::Lane),
    );

    /// Moves the last commit executed in lane `l`.
    fn moved(&self, l: usize) -> u64;

    /// Re-evaluates the guards the last commit may have changed.
    fn refresh(&mut self, graph: &Graph, protocol: &P, soa: &mut Soa<P>);
}

/// The synchronous schedule: each pass commits the whole fired set of
/// one whole-graph evaluation with a branch-free blend.
struct Dense {
    /// Per-lane enabled (= activated) counts of the latest evaluation.
    fired_count: Vec<u32>,
}

/// Per-lane enabled/activated counts of the lane-major `fired` matrix.
fn count_fired(lanes: usize, fired: &[bool], out: &mut [u32]) {
    out.fill(0);
    for row in fired.chunks_exact(lanes) {
        for (cnt, &f) in out.iter_mut().zip(row) {
            *cnt += u32::from(f);
        }
    }
}

impl<P: PackedProtocol> Schedule<P> for Dense {
    fn start(&mut self, graph: &Graph, protocol: &P, soa: &mut Soa<P>) {
        self.refresh(graph, protocol, soa);
    }

    #[inline]
    fn enabled(&self, l: usize) -> u32 {
        self.fired_count[l]
    }

    fn commit(
        &mut self,
        _graph: &Graph,
        commit: &[bool],
        soa: &mut Soa<P>,
        mut on_commit: impl FnMut(usize, usize, P::Lane),
    ) {
        // Branch-free blend per element: the fired mask changes every step,
        // so a per-element `if` mispredicts its way through the whole matrix;
        // the bitwise select is data-independent and vectorizes. The
        // chunk/zip shape matters — indexed accesses against a runtime
        // `lanes` keep per-element bounds checks alive and block the
        // vectorizer (measured ~10x slower than this form).
        let lanes = soa.lanes;
        let commit = &commit[..lanes];
        let rows = soa.next.chunks_exact(lanes).zip(soa.fired.chunks_exact(lanes));
        for (srow, (nrow, frow)) in soa.state.chunks_exact_mut(lanes).zip(rows) {
            for (((s, &nx), &f), &c) in srow.iter_mut().zip(nrow).zip(frow).zip(commit) {
                *s = s.blend(nx, f & c);
            }
        }
        // The hook walk has the same bounds-check-free shape, so under a
        // monitor with an empty commit hook it is dead code.
        let rows = soa.next.chunks_exact(lanes).zip(soa.fired.chunks_exact(lanes));
        for (v, (nrow, frow)) in rows.enumerate() {
            for (l, ((&nx, &f), &c)) in nrow.iter().zip(frow).zip(commit).enumerate() {
                if f & c {
                    on_commit(l, v, nx);
                }
            }
        }
    }

    #[inline]
    fn moved(&self, l: usize) -> u64 {
        u64::from(self.fired_count[l])
    }

    fn refresh(&mut self, graph: &Graph, protocol: &P, soa: &mut Soa<P>) {
        soa.step_all(graph, protocol);
        count_fired(soa.lanes, &soa.fired, &mut self.fired_count);
    }
}

/// The lane-divergent schedule (rr / rand / dist): the transposed
/// enabled-bitset, exact per-lane enabled counts, per-lane schedules (rr
/// cursors / RNG streams), selection scratch and the touched-set
/// bookkeeping for the incremental refresh.
struct DivergentState {
    mode: BatchDaemon,
    n: usize,
    lanes: usize,
    wpl: usize,
    /// `bits[v * wpl + w]` bit `b` = vertex `v` enabled in lane `w*64+b`.
    bits: Vec<u64>,
    /// Row-summary bitmap: bit `v` = some lane has vertex `v` enabled.
    /// Selection scans iterate its set bits, skipping all-disabled rows.
    any: Vec<u64>,
    /// Per-lane enabled count — the exact column popcounts of `bits`,
    /// maintained from word diffs.
    cnt: Vec<u32>,
    /// Per-lane RNG streams (random modes only), seeded exactly as the
    /// scalar daemon for that replica after `reset()`.
    rngs: Vec<StdRng>,
    /// Per-lane round-robin cursors (the scalar `reset()` zeroes them).
    cursor: Vec<u32>,
    /// Per-lane picked vertex for the single-move modes (rr / rand).
    pick: Vec<u32>,
    first_any: Vec<u32>,
    first_ge: Vec<u32>,
    /// Selected (vertex, lane) bitset for the distributed mode (same
    /// layout as `bits`) and per-lane selection sizes.
    sel: Vec<u64>,
    sel_count: Vec<u32>,
    /// Countdown scratch for j-th-enabled scans.
    jbuf: Vec<u32>,
    /// Committing-lane mask and scan pendings (word layout).
    commit_words: Vec<u64>,
    pend_a: Vec<u64>,
    pend_b: Vec<u64>,
    started: Vec<u64>,
    /// Committing lanes sorted by cursor (rr scan activation order).
    order: Vec<u32>,
    /// Touched-vertex set for the incremental refresh (stamp-deduped).
    touched: Vec<u32>,
    stamp: Vec<u64>,
    generation: u64,
    /// Forces the full dense re-evaluation every pass — the reference
    /// sweep the incremental path is differentially tested against.
    dense_sweep: bool,
}

impl DivergentState {
    fn new(
        mode: BatchDaemon,
        n: usize,
        lanes: usize,
        lane_seeds: &[u64],
        dense_sweep: bool,
    ) -> Self {
        let wpl = words_per_row(lanes);
        let rngs = if mode.needs_lane_seeds() {
            assert_eq!(
                lane_seeds.len(),
                lanes,
                "random batch daemons need exactly one RNG seed per lane"
            );
            lane_seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect()
        } else {
            Vec::new()
        };
        if let BatchDaemon::RandomDistributed { p } = mode {
            assert!((0.0..=1.0).contains(&p), "inclusion probability must be in [0,1]");
        }
        let dist = matches!(mode, BatchDaemon::RandomDistributed { .. });
        Self {
            mode,
            n,
            lanes,
            wpl,
            bits: vec![0; n * wpl],
            any: vec![0; n.div_ceil(64)],
            cnt: vec![0; lanes],
            rngs,
            cursor: vec![0; lanes],
            pick: vec![u32::MAX; lanes],
            first_any: vec![u32::MAX; lanes],
            first_ge: vec![u32::MAX; lanes],
            sel: if dist { vec![0; n * wpl] } else { Vec::new() },
            sel_count: vec![0; lanes],
            jbuf: vec![0; lanes],
            commit_words: vec![0; wpl],
            pend_a: vec![0; wpl],
            pend_b: vec![0; wpl],
            started: vec![0; wpl],
            order: Vec::with_capacity(lanes),
            touched: Vec::with_capacity(n),
            stamp: vec![0; n],
            generation: 0,
            dense_sweep,
        }
    }

    /// Patches row `v` of the bitset against the freshly re-evaluated
    /// `fired` matrix, adjusting the per-lane counts from the word diff.
    #[inline]
    fn diff_row(&mut self, v: usize, fired: &[bool]) {
        let base = v * self.lanes;
        let mut nz = 0u64;
        for w in 0..self.wpl {
            let new = row_word(fired, base, self.lanes, w);
            let idx = v * self.wpl + w;
            let mut delta = self.bits[idx] ^ new;
            while delta != 0 {
                let b = delta.trailing_zeros() as usize;
                if new & (1u64 << b) != 0 {
                    self.cnt[w * 64 + b] += 1;
                } else {
                    self.cnt[w * 64 + b] -= 1;
                }
                delta &= delta - 1;
            }
            self.bits[idx] = new;
            nz |= new;
        }
        if nz != 0 {
            self.any[v / 64] |= 1u64 << (v % 64);
        } else {
            self.any[v / 64] &= !(1u64 << (v % 64));
        }
    }

    /// Rebuilds every row (the initial build after the first whole-graph
    /// evaluation, and every pass of the reference dense-sweep mode).
    fn diff_all_rows(&mut self, fired: &[bool]) {
        for v in 0..self.n {
            self.diff_row(v, fired);
        }
    }

    #[inline]
    fn touch_one(&mut self, v: usize) {
        if self.stamp[v] != self.generation {
            self.stamp[v] = self.generation;
            self.touched.push(v as u32);
        }
    }

    /// Marks the closed neighborhood of a committed vertex stale: `v`
    /// itself and every vertex whose guard reads `v`'s state.
    #[inline]
    fn touch(&mut self, graph: &Graph, v: usize) {
        self.touch_one(v);
        for &u in graph.neighbors(VertexId::new(v)) {
            self.touch_one(u.index());
        }
    }

    fn build_commit_words(&mut self, commit: &[bool]) {
        self.commit_words.fill(0);
        for (l, &c) in commit.iter().enumerate() {
            self.commit_words[l / 64] |= u64::from(c) << (l % 64);
        }
    }

    /// Resolves every committing lane's selection for this pass. RNG
    /// draws happen here and only here — i.e. only for lanes that will
    /// execute a step, matching the scalar engine's
    /// select-after-stop-checks order.
    fn select(&mut self, commit: &[bool]) {
        match self.mode {
            BatchDaemon::Sync => unreachable!("sync rides the dense schedule"),
            BatchDaemon::CentralRr => self.select_rr(commit),
            BatchDaemon::CentralRand => self.select_rand(commit),
            BatchDaemon::RandomDistributed { p } => self.select_dist(commit, p),
        }
    }

    /// Round-robin: one ascending word-scan over the *set rows* of the
    /// summary bitmap resolves, per committing lane, the first enabled
    /// vertex at or after the lane's cursor (`first_ge`) and the first
    /// enabled vertex overall (`first_any`, the wraparound fallback).
    /// Lanes activate into the ≥-cursor search as the scan passes their
    /// cursor — committing lanes sorted by cursor, a `started` mask
    /// switched on word-wise. All-disabled rows carry no hits in either
    /// search, so skipping them is exact, and the pass costs
    /// O(enabled-rows · wpl) word ops + O(lanes log lanes) for the sort.
    fn select_rr(&mut self, commit: &[bool]) {
        self.build_commit_words(commit);
        self.pend_a.copy_from_slice(&self.commit_words);
        self.pend_b.copy_from_slice(&self.commit_words);
        self.started.fill(0);
        self.first_any.fill(u32::MAX);
        self.first_ge.fill(u32::MAX);
        self.order.clear();
        self.order.extend((0..self.lanes as u32).filter(|&l| commit[l as usize]));
        let cursor = &self.cursor;
        self.order.sort_unstable_by_key(|&l| cursor[l as usize]);
        let mut op = 0;
        let mut unresolved = 2 * self.order.len();
        'rows: for aw in 0..self.any.len() {
            let mut aword = self.any[aw];
            while aword != 0 {
                let v = aw * 64 + aword.trailing_zeros() as usize;
                aword &= aword - 1;
                while op < self.order.len() && self.cursor[self.order[op] as usize] <= v as u32 {
                    let l = self.order[op] as usize;
                    self.started[l / 64] |= 1u64 << (l % 64);
                    op += 1;
                }
                let base = v * self.wpl;
                for w in 0..self.wpl {
                    let row = self.bits[base + w];
                    let mut hit = row & self.pend_a[w];
                    while hit != 0 {
                        let bit = hit & hit.wrapping_neg();
                        self.first_any[w * 64 + bit.trailing_zeros() as usize] = v as u32;
                        self.pend_a[w] ^= bit;
                        hit ^= bit;
                        unresolved -= 1;
                    }
                    let mut hit = row & self.pend_b[w] & self.started[w];
                    while hit != 0 {
                        let bit = hit & hit.wrapping_neg();
                        self.first_ge[w * 64 + bit.trailing_zeros() as usize] = v as u32;
                        self.pend_b[w] ^= bit;
                        hit ^= bit;
                        unresolved -= 1;
                    }
                }
                if unresolved == 0 {
                    break 'rows;
                }
            }
        }
        for i in 0..self.order.len() {
            let l = self.order[i] as usize;
            let ge = self.first_ge[l];
            let p = if ge == u32::MAX { self.first_any[l] } else { ge };
            debug_assert!(p != u32::MAX, "committing lanes have a nonempty enabled set");
            self.pick[l] = p;
            self.cursor[l] = ((p as usize + 1) % self.n) as u32;
        }
    }

    /// Central random: each committing lane draws its scalar `choose`
    /// index j against its enabled count, and one ascending word-scan
    /// resolves lane l's j-th enabled vertex by counting j down over set
    /// bits — the sorted-enabled-slice pick, without materializing the
    /// slice.
    fn select_rand(&mut self, commit: &[bool]) {
        self.build_commit_words(commit);
        self.pend_a.copy_from_slice(&self.commit_words);
        let mut unresolved = 0usize;
        for (l, &committing) in commit.iter().enumerate().take(self.lanes) {
            if committing {
                self.jbuf[l] = choose_index(&mut self.rngs[l], u64::from(self.cnt[l])) as u32;
                unresolved += 1;
            }
        }
        'rows: for aw in 0..self.any.len() {
            let mut aword = self.any[aw];
            while aword != 0 {
                let v = aw * 64 + aword.trailing_zeros() as usize;
                aword &= aword - 1;
                let base = v * self.wpl;
                for w in 0..self.wpl {
                    let mut hit = self.bits[base + w] & self.pend_a[w];
                    while hit != 0 {
                        let bit = hit & hit.wrapping_neg();
                        let l = w * 64 + bit.trailing_zeros() as usize;
                        if self.jbuf[l] == 0 {
                            self.pick[l] = v as u32;
                            self.pend_a[w] ^= bit;
                            unresolved -= 1;
                        } else {
                            self.jbuf[l] -= 1;
                        }
                        hit ^= bit;
                    }
                }
                if unresolved == 0 {
                    break 'rows;
                }
            }
        }
        debug_assert_eq!(unresolved, 0, "every drawn index lies below the enabled count");
    }

    /// Random distributed: the vertex-major scan draws one `gen_bool(p)`
    /// per (enabled, committing) lane bit — each lane's draws land in
    /// ascending vertex order, exactly the scalar daemon's iteration over
    /// its enabled set — then lanes whose sample came up empty take the
    /// scalar's one-draw uniform fallback pick.
    fn select_dist(&mut self, commit: &[bool], p: f64) {
        self.build_commit_words(commit);
        self.sel.fill(0);
        self.sel_count.fill(0);
        for aw in 0..self.any.len() {
            let mut aword = self.any[aw];
            while aword != 0 {
                let v = aw * 64 + aword.trailing_zeros() as usize;
                aword &= aword - 1;
                let base = v * self.wpl;
                for w in 0..self.wpl {
                    let mut hit = self.bits[base + w] & self.commit_words[w];
                    while hit != 0 {
                        let bit = hit & hit.wrapping_neg();
                        let l = w * 64 + bit.trailing_zeros() as usize;
                        if self.rngs[l].gen_bool(p) {
                            self.sel[base + w] |= bit;
                            self.sel_count[l] += 1;
                        }
                        hit ^= bit;
                    }
                }
            }
        }
        self.pend_a.fill(0);
        let mut unresolved = 0usize;
        for (l, &committing) in commit.iter().enumerate().take(self.lanes) {
            if committing && self.sel_count[l] == 0 {
                self.jbuf[l] = choose_index(&mut self.rngs[l], u64::from(self.cnt[l])) as u32;
                self.pend_a[l / 64] |= 1u64 << (l % 64);
                unresolved += 1;
            }
        }
        if unresolved == 0 {
            return;
        }
        'rows: for aw in 0..self.any.len() {
            let mut aword = self.any[aw];
            while aword != 0 {
                let v = aw * 64 + aword.trailing_zeros() as usize;
                aword &= aword - 1;
                let base = v * self.wpl;
                for w in 0..self.wpl {
                    let mut hit = self.bits[base + w] & self.pend_a[w];
                    while hit != 0 {
                        let bit = hit & hit.wrapping_neg();
                        let l = w * 64 + bit.trailing_zeros() as usize;
                        if self.jbuf[l] == 0 {
                            self.sel[base + w] |= bit;
                            self.sel_count[l] = 1;
                            self.pend_a[w] ^= bit;
                            unresolved -= 1;
                        } else {
                            self.jbuf[l] -= 1;
                        }
                        hit ^= bit;
                    }
                }
                if unresolved == 0 {
                    break 'rows;
                }
            }
        }
    }
}

impl<P: PackedProtocol> Schedule<P> for DivergentState {
    /// The initial whole-graph evaluation builds the transposed bitset.
    fn start(&mut self, graph: &Graph, protocol: &P, soa: &mut Soa<P>) {
        soa.step_all(graph, protocol);
        self.diff_all_rows(&soa.fired);
    }

    #[inline]
    fn enabled(&self, l: usize) -> u32 {
        self.cnt[l]
    }

    /// Selects with word scans, then commits every selected (vertex,
    /// lane) pair and records the touched neighborhoods for the
    /// incremental refresh.
    fn commit(
        &mut self,
        graph: &Graph,
        commit: &[bool],
        soa: &mut Soa<P>,
        mut on_commit: impl FnMut(usize, usize, P::Lane),
    ) {
        self.select(commit);
        self.generation += 1;
        self.touched.clear();
        if matches!(self.mode, BatchDaemon::RandomDistributed { .. }) {
            for v in 0..self.n {
                let base = v * self.wpl;
                let mut any = false;
                for w in 0..self.wpl {
                    let mut hit = self.sel[base + w];
                    any |= hit != 0;
                    while hit != 0 {
                        let l = w * 64 + hit.trailing_zeros() as usize;
                        let val = soa.next[v * self.lanes + l];
                        soa.state[v * self.lanes + l] = val;
                        on_commit(l, v, val);
                        hit &= hit - 1;
                    }
                }
                if any {
                    self.touch(graph, v);
                }
            }
        } else {
            for (l, &committing) in commit.iter().enumerate() {
                if committing {
                    let v = self.pick[l] as usize;
                    let val = soa.next[v * self.lanes + l];
                    soa.state[v * self.lanes + l] = val;
                    on_commit(l, v, val);
                    self.touch(graph, v);
                }
            }
        }
    }

    #[inline]
    fn moved(&self, l: usize) -> u64 {
        match self.mode {
            BatchDaemon::RandomDistributed { .. } => u64::from(self.sel_count[l]),
            _ => 1,
        }
    }

    /// Re-evaluates the guard rows invalidated by this pass's commits and
    /// patches `bits`/`cnt` from the word diffs (whole-graph sweep + full
    /// rebuild when the reference dense-sweep mode is forced).
    fn refresh(&mut self, graph: &Graph, protocol: &P, soa: &mut Soa<P>) {
        if self.dense_sweep {
            soa.step_all(graph, protocol);
            self.diff_all_rows(&soa.fired);
            return;
        }
        // Enablement can only have changed where a guard input changed —
        // the touched set — so re-evaluating exactly those rows is a full
        // repair: worst case (touched = whole graph) it costs one dense
        // sweep, and in the divergent steady state it is O(commits ·
        // degree · lanes).
        let touched = std::mem::take(&mut self.touched);
        for &v in &touched {
            protocol.eval_vertex_lanes(
                graph,
                v as usize,
                self.lanes,
                &soa.state,
                &mut soa.next,
                &mut soa.fired,
                &mut soa.scratch,
            );
            self.diff_row(v as usize, &soa.fired);
        }
        self.touched = touched;
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
    /// The lane's deterministic engine counters (already flushed to the
    /// global telemetry aggregate).
    pub counters: RunCounters,
}

/// What a batched run observes per lane beyond steps, moves and stop
/// reasons — the seam the step loop is generic over.
///
/// The loop calls [`BatchMonitor::start`] once with the packed initial
/// state. Each pass it then asks [`BatchMonitor::wants_stop`] for every
/// live lane (after the terminal and step-limit checks: the scalar
/// engine's observer-request slot), reports every committed move to
/// [`BatchMonitor::commit`], and calls [`BatchMonitor::step`] once per
/// executed lane step with the post-commit configuration index.
pub trait BatchMonitor<P: PackedProtocol> {
    /// Per-lane result of a run under this monitor.
    type Report;

    /// Observes the initial state: `soa` is replica-major with `lanes`
    /// lanes (`soa[v * lanes + l]`).
    fn start(&mut self, graph: &Graph, protocol: &P, lanes: usize, soa: &[P::Lane]);

    /// Commit hook: lane `lane` moved vertex `v` to the lane word `word`.
    fn commit(&mut self, protocol: &P, lane: usize, v: usize, word: P::Lane);

    /// Lane `lane` finished a step; its configuration index is now
    /// `index` (the scalar observers' `event.step`).
    fn step(&mut self, graph: &Graph, lane: usize, index: usize);

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
    fn start(&mut self, _graph: &Graph, _protocol: &P, _lanes: usize, _soa: &[P::Lane]) {}

    #[inline]
    fn commit(&mut self, _protocol: &P, _lane: usize, _v: usize, _word: P::Lane) {}

    #[inline]
    fn step(&mut self, _graph: &Graph, _lane: usize, _index: usize) {}

    #[inline]
    fn wants_stop(&self, _lane: usize) -> bool {
        false
    }

    fn finish(self, lanes: Vec<LaneSummary<P::State>>) -> Vec<LaneSummary<P::State>> {
        lanes
    }
}

/// The measured-run monitor: per lane, the stack a scalar
/// [`MeasurementContext`](crate::measure::MeasurementContext) runs —
/// safety monitor, legitimacy monitor and, with an early-stop margin,
/// [`MeasurementContext::with_early_stop`](crate::measure::MeasurementContext::with_early_stop)
/// on the legitimacy predicate. The predicates read a per-lane mirror
/// configuration that the commit hook keeps equal to the lane's packed
/// state, O(moves) per step; each lane's verdicts go into the same
/// measurement record the scalar [`SpecMonitor`](crate::measure::SpecMonitor)
/// keeps.
///
/// Each lane's report is a [`StabilizationReport`] plus its final
/// configuration; its `counters.monitor_evals` counts n vertex
/// evaluations per predicate call.
pub struct PredicateMonitor<S> {
    safety: ConfigPredicate<S>,
    legitimacy: ConfigPredicate<S>,
    early_stop_margin: Option<usize>,
    mirrors: Vec<Configuration<S>>,
    records: Vec<MeasureRecord>,
}

impl<S> PredicateMonitor<S> {
    /// Measures `safety` and `legitimacy`; `early_stop_margin: Some(m)`
    /// stops a lane once legitimacy has held for `m + 1` consecutive
    /// configurations. Legitimacy is evaluated once per lane step and
    /// feeds both the legitimacy record and the early-stop count.
    #[must_use]
    pub fn new(
        safety: ConfigPredicate<S>,
        legitimacy: ConfigPredicate<S>,
        early_stop_margin: Option<usize>,
    ) -> Self {
        Self { safety, legitimacy, early_stop_margin, mirrors: Vec::new(), records: Vec::new() }
    }

    /// Checks lane `l`'s mirror as configuration `index`.
    fn check(&mut self, graph: &Graph, l: usize, index: usize) {
        let config = &self.mirrors[l];
        let safe = (self.safety)(config, graph);
        let legitimate = (self.legitimacy)(config, graph);
        self.records[l].observe(index, safe, legitimate);
    }
}

impl<P: PackedProtocol> BatchMonitor<P> for PredicateMonitor<P::State> {
    type Report = (StabilizationReport, Configuration<P::State>);

    fn start(&mut self, graph: &Graph, protocol: &P, lanes: usize, soa: &[P::Lane]) {
        self.mirrors = (0..lanes).map(|l| unpack_lane(protocol, soa, lanes, l)).collect();
        self.records = vec![MeasureRecord::default(); lanes];
        for l in 0..lanes {
            self.check(graph, l, 0);
        }
    }

    #[inline]
    fn commit(&mut self, protocol: &P, lane: usize, v: usize, word: P::Lane) {
        self.mirrors[lane].set(VertexId::new(v), protocol.unpack(word));
    }

    fn step(&mut self, graph: &Graph, lane: usize, index: usize) {
        self.check(graph, lane, index);
    }

    fn wants_stop(&self, lane: usize) -> bool {
        self.records[lane].stable_for(self.early_stop_margin)
    }

    fn finish(self, lanes: Vec<LaneSummary<P::State>>) -> Vec<Self::Report> {
        let mut total_evals = 0;
        let reports = lanes
            .into_iter()
            .zip(self.records)
            .map(|(s, r)| {
                // Two full-scan predicate calls per configuration.
                let monitor_evals = 2 * (s.steps as u64 + 1) * s.final_config.len() as u64;
                total_evals += monitor_evals;
                let counters = RunCounters { monitor_evals, ..s.counters };
                (r.report(s.steps, s.moves, s.stop, counters), s.final_config)
            })
            .collect();
        specstab_telemetry::global().record_monitor_evals(total_evals);
        reports
    }
}

/// Runs `inits.len()` replicas of `protocol` to termination (or
/// `max_steps`, or the monitor's stop request) under `daemon`, batched,
/// and returns one `monitor` report per lane.
///
/// Per lane, the run is exactly what a scalar
/// [`Simulator::run`](crate::engine::Simulator::run) with the matching
/// daemon ([`SynchronousDaemon`](crate::daemon::SynchronousDaemon), a
/// freshly `reset()` [`CentralDaemon`](crate::daemon::CentralDaemon)
/// round-robin or random, or a
/// [`RandomDistributedDaemon`](crate::daemon::RandomDistributedDaemon))
/// produces from the same initial configuration — with no observers
/// under [`NoMonitor`], with the
/// [`MeasurementContext`](crate::measure::MeasurementContext) stack under
/// [`PredicateMonitor`]. For the random daemons, `lane_seeds[l]` must be
/// the seed the scalar daemon for replica `l` was constructed with; the
/// deterministic daemons ignore `lane_seeds` (pass `&[]`).
///
/// # Panics
///
/// Panics when `inits` is empty, a configuration's size does not match
/// the graph, or a random daemon's `lane_seeds` length does not match
/// `inits.len()`.
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
    let lanes = check_batch_args(graph, inits);
    match daemon {
        BatchDaemon::Sync => {
            let dense = Dense { fired_count: vec![0; lanes] };
            step_loop(graph, protocol, inits, max_steps, dense, monitor)
        }
        _ => {
            let ds = DivergentState::new(daemon, graph.n(), lanes, lane_seeds, false);
            step_loop(graph, protocol, inits, max_steps, ds, monitor)
        }
    }
}

/// [`run_batch`] (unmonitored) with the incremental enabled-bitset
/// disabled: the divergent engine re-evaluates every guard with a
/// whole-graph `step_lanes` sweep every pass. Selection, RNG streams and
/// commits are shared with the incremental path, so comparing the two
/// isolates exactly the touched-neighborhood bitset maintenance.
/// Test-only reference; not part of the public API surface.
///
/// # Panics
///
/// As [`run_batch`]; additionally panics under [`BatchDaemon::Sync`]
/// (which has no divergent path to compare).
#[doc(hidden)]
#[must_use]
pub fn run_batch_with_dense_sweep<P: PackedProtocol>(
    graph: &Graph,
    protocol: &P,
    daemon: BatchDaemon,
    lane_seeds: &[u64],
    inits: &[Configuration<P::State>],
    max_steps: usize,
) -> Vec<LaneSummary<P::State>> {
    assert!(daemon != BatchDaemon::Sync, "the dense-sweep reference is for divergent daemons");
    let lanes = check_batch_args(graph, inits);
    let ds = DivergentState::new(daemon, graph.n(), lanes, lane_seeds, true);
    step_loop(graph, protocol, inits, max_steps, ds, NoMonitor)
}

/// Validates the batch shape and returns the lane count.
fn check_batch_args<S>(graph: &Graph, inits: &[Configuration<S>]) -> usize {
    assert!(!inits.is_empty(), "a batch needs at least one replica lane");
    for init in inits {
        assert_eq!(init.len(), graph.n(), "configuration size must match graph");
    }
    inits.len()
}

/// The one batched step loop. Every pass: stop checks, step-slot
/// charging, select + commit (each move reported to the monitor's commit
/// hook), per-lane accounting with the monitor's post-step check, then
/// the schedule's guard refresh.
fn step_loop<P: PackedProtocol, D: Schedule<P>, M: BatchMonitor<P>>(
    graph: &Graph,
    protocol: &P,
    inits: &[Configuration<P::State>],
    max_steps: usize,
    mut schedule: D,
    mut monitor: M,
) -> Vec<M::Report> {
    let n = graph.n();
    let mut soa = Soa::pack(protocol, n, inits);
    let lanes = soa.lanes;
    let mut stop: Vec<Option<StopReason>> = vec![None; lanes];
    let mut commit = vec![false; lanes];
    let mut counters = vec![RunCounters::new(); lanes];
    let mut lane_step_slots = 0u64;
    let mut idle_lane_steps = 0u64;
    schedule.start(graph, protocol, &mut soa);
    monitor.start(graph, protocol, lanes, &soa.state);

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
            stop[l] = if schedule.enabled(l) == 0 {
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
        // Charge the pass one step-slot per lane, idle for the lanes that
        // do not commit. Counting per logical step (instead of per
        // evaluation pass) keeps occupancy comparable across lane widths —
        // a u8-packed batch runs 64 replicas per cache line where an
        // i32-packed one runs 16 — and makes `lane_step_slots −
        // idle_lane_steps` exactly the steps executed.
        lane_step_slots += lanes as u64;
        idle_lane_steps += (lanes - committed) as u64;
        schedule.commit(graph, &commit, &mut soa, |l, v, word| {
            monitor.commit(protocol, l, v, word);
        });
        // The monitor checks run at the post-commit step index: the scalar
        // observers see every move of the step applied.
        for l in 0..lanes {
            if commit[l] {
                let moved = schedule.moved(l);
                let c = &mut counters[l];
                c.steps += 1;
                c.moves += moved;
                c.delta_bytes += moved * 2 * std::mem::size_of::<P::State>() as u64;
                monitor.step(graph, l, c.steps as usize);
            }
        }
        schedule.refresh(graph, protocol, &mut soa);
    }

    // One telemetry flush per lane, mirroring the scalar engine's
    // once-per-run discipline, plus the batch occupancy tallies.
    let telemetry = specstab_telemetry::global();
    telemetry.record_batch(lanes as u64, lane_step_slots, idle_lane_steps);
    let summaries = (0..lanes)
        .map(|l| {
            telemetry.record_run(&counters[l]);
            LaneSummary {
                final_config: unpack_lane(protocol, &soa.state, lanes, l),
                steps: counters[l].steps as usize,
                moves: counters[l].moves,
                stop: stop[l].expect("every lane stopped"),
                counters: counters[l],
            }
        })
        .collect();
    monitor.finish(summaries)
}
