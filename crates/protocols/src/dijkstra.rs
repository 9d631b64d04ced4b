//! Dijkstra's K-state self-stabilizing mutual exclusion on a ring (1974).
//!
//! The seminal protocol the paper's Section 3 classifies as *accidentally*
//! speculative: it stabilizes in `Θ(n²)` steps under the unfair distributed
//! daemon but in only `n` steps under the synchronous one — i.e. it is
//! `(ud, sd, n², n)`-speculatively stabilizing.
//!
//! Machines `0 .. n-1` sit on a unidirectional ring; machine `0` is the
//! *bottom*. Each holds a counter in `{0, .., K-1}`:
//!
//! * bottom: privileged iff `S[0] = S[n-1]`; move: `S[0] := S[0] + 1 mod K`;
//! * other `i`: privileged iff `S[i] ≠ S[i-1]`; move: `S[i] := S[i-1]`.
//!
//! With `K ≥ n` the protocol is self-stabilizing (exactly one machine
//! eventually privileged); this module exposes `K` so the undersized case
//! can be demonstrated too.

use rand::rngs::StdRng;
use rand::Rng;
use specstab_kernel::batch::PackedProtocol;
use specstab_kernel::config::Configuration;
use specstab_kernel::protocol::{Protocol, RuleId, RuleInfo, View};
use specstab_kernel::spec::{
    Aggregate, LaneSpecification, LocalCounts, LocalSpecification, Specification,
};
use specstab_topology::{Graph, VertexId};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Rule index: the unique "pass/advance token" rule.
pub const MOVE: RuleId = RuleId::new(0);

/// Errors building a [`DijkstraRing`].
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum DijkstraError {
    /// The communication graph is not a ring of the expected shape
    /// (every vertex adjacent to `i±1 mod n`, `n ≥ 3`).
    NotARing,
    /// `K < n`: self-stabilization is not guaranteed.
    KTooSmall {
        /// Requested number of counter states.
        k: u64,
        /// Ring size.
        n: usize,
    },
}

impl fmt::Display for DijkstraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DijkstraError::NotARing => write!(f, "Dijkstra's protocol requires a ring"),
            DijkstraError::KTooSmall { k, n } => {
                write!(f, "K = {k} states are not enough for a ring of {n} machines (need K ≥ n)")
            }
        }
    }
}

impl Error for DijkstraError {}

/// Whether `graph` is the standard ring `ring(n)`, `n >= 3`: exactly `n`
/// edges, each vertex `i` adjacent to `i + 1 mod n`. The one ring test of
/// the K-state and three-state protocols and of their harnesses'
/// compatibility checks.
#[must_use]
pub(crate) fn is_ring(graph: &Graph) -> bool {
    let n = graph.n();
    n >= 3
        && graph.m() == n
        && (0..n).all(|i| graph.contains_edge(VertexId::new(i), VertexId::new((i + 1) % n)))
}

/// Dijkstra's K-state protocol instance.
#[derive(Clone, Debug)]
pub struct DijkstraRing {
    n: usize,
    k: u64,
}

impl DijkstraRing {
    /// Creates the protocol for a ring graph with `K ≥ n` counter states.
    ///
    /// # Errors
    ///
    /// [`DijkstraError::NotARing`] if `graph` is not the standard ring,
    /// [`DijkstraError::KTooSmall`] if `k < n`.
    pub fn new(graph: &Graph, k: u64) -> Result<Self, DijkstraError> {
        let n = graph.n();
        if !is_ring(graph) {
            return Err(DijkstraError::NotARing);
        }
        if k < n as u64 {
            return Err(DijkstraError::KTooSmall { k, n });
        }
        Ok(Self { n, k })
    }

    /// Ablation constructor: accepts undersized `K` (the protocol may then
    /// fail to stabilize — demonstrable with [`specstab_kernel::search`]).
    ///
    /// # Errors
    ///
    /// [`DijkstraError::NotARing`] if `graph` is not the standard ring.
    pub fn with_undersized_k(graph: &Graph, k: u64) -> Result<Self, DijkstraError> {
        let mut p = Self::new(graph, graph.n() as u64)?;
        p.k = k.max(2);
        Ok(p)
    }

    /// Number of machines.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of counter states `K`.
    #[must_use]
    pub fn k(&self) -> u64 {
        self.k
    }

    fn prev(&self, v: VertexId) -> VertexId {
        VertexId::new((v.index() + self.n - 1) % self.n)
    }

    /// Whether `v` is privileged in `config` (holds the token).
    #[must_use]
    pub fn is_privileged(&self, v: VertexId, config: &Configuration<u64>) -> bool {
        let s = *config.get(v);
        let sp = *config.get(self.prev(v));
        if v.index() == 0 {
            s == sp
        } else {
            s != sp
        }
    }

    /// All privileged machines of `config`.
    #[must_use]
    pub fn privileged_vertices(&self, config: &Configuration<u64>) -> Vec<VertexId> {
        (0..self.n).map(VertexId::new).filter(|&v| self.is_privileged(v, config)).collect()
    }

    /// Number of privileged machines of `config` (allocation-free).
    #[must_use]
    pub fn privileged_count(&self, config: &Configuration<u64>) -> usize {
        (0..self.n).filter(|&i| self.is_privileged(VertexId::new(i), config)).count()
    }
}

impl Protocol for DijkstraRing {
    type State = u64;

    fn name(&self) -> String {
        format!("dijkstra-kstate[n={}, K={}]", self.n, self.k)
    }

    fn rules(&self) -> Vec<RuleInfo> {
        vec![RuleInfo::new("MOVE")]
    }

    fn enabled_rule(&self, view: &View<'_, u64>) -> Option<RuleId> {
        let v = view.vertex();
        let s = *view.state();
        let sp = *view.state_of(self.prev(v));
        let privileged = if v.index() == 0 { s == sp } else { s != sp };
        privileged.then_some(MOVE)
    }

    fn apply(&self, view: &View<'_, u64>, _rule: RuleId) -> u64 {
        let v = view.vertex();
        if v.index() == 0 {
            (*view.state() + 1) % self.k
        } else {
            *view.state_of(self.prev(v))
        }
    }

    fn random_state(&self, _v: VertexId, rng: &mut StdRng) -> u64 {
        rng.gen_range(0..self.k)
    }

    fn state_domain(&self, _v: VertexId) -> Option<Vec<u64>> {
        Some((0..self.k).collect())
    }
}

/// Lane-packed K-state stepping: counters pack into `u8` lanes — 64
/// replicas per cache line — whenever `K ≤ 256`, which is the bound the
/// harness gates batched routing on. The guard is one byte compare
/// against the ring predecessor's row and the bottom increment is a
/// branch-free select (`s == K-1 ? 0 : s+1`), so both per-vertex loops
/// are straight-line byte ops over the lane axis that autovectorize.
impl PackedProtocol for DijkstraRing {
    type Lane = u8;

    fn pack(&self, state: &u64) -> u8 {
        debug_assert!(self.k <= 256, "u8 lanes hold at most 256 counter states");
        u8::try_from(*state).expect("counter fits u8 lanes (K <= 256)")
    }

    fn unpack(&self, lane: u8) -> u64 {
        u64::from(lane)
    }

    fn step_lanes(
        &self,
        _graph: &Graph,
        lanes: usize,
        soa: &[u8],
        next: &mut [u8],
        fired: &mut [bool],
    ) {
        let km1 = u8::try_from(self.k - 1).expect("K <= 256 for packed stepping");
        for v in 0..self.n {
            let (rv, rp) = self.rows(v, lanes, soa);
            let base = v * lanes;
            let fired_row = &mut fired[base..base + lanes];
            let next_row = &mut next[base..base + lanes];
            // Zip iteration instead of indexing: a runtime `lanes` keeps
            // per-element bounds checks alive under indexed access, which
            // blocks autovectorization of the byte compares.
            let rows = fired_row.iter_mut().zip(next_row.iter_mut()).zip(rv).zip(rp);
            if v == 0 {
                for (((f, nx), &s), &p) in rows {
                    *f = s == p;
                    *nx = if s == km1 { 0 } else { s + 1 };
                }
            } else {
                for (((f, nx), &s), &p) in rows {
                    *f = s != p;
                    *nx = p;
                }
            }
        }
    }
}

impl DijkstraRing {
    /// Vertex `v`'s packed row and its ring predecessor's.
    fn rows<'a>(&self, v: usize, lanes: usize, soa: &'a [u8]) -> (&'a [u8], &'a [u8]) {
        let p = if v == 0 { self.n - 1 } else { v - 1 };
        (&soa[v * lanes..(v + 1) * lanes], &soa[p * lanes..(p + 1) * lanes])
    }
}

/// `specME` for Dijkstra's ring: safety = at most one privileged machine;
/// legitimacy = exactly one (the closed legitimate set of the protocol).
#[derive(Clone, Debug)]
pub struct DijkstraSpec {
    protocol: DijkstraRing,
}

impl DijkstraSpec {
    /// Creates the specification for a protocol instance.
    #[must_use]
    pub fn new(protocol: DijkstraRing) -> Self {
        Self { protocol }
    }
}

impl Specification<u64> for DijkstraSpec {
    fn name(&self) -> String {
        "specME(dijkstra)".into()
    }
    fn is_safe(&self, config: &Configuration<u64>, _graph: &Graph) -> bool {
        self.protocol.privileged_count(config) <= 1
    }
    fn is_legitimate(&self, config: &Configuration<u64>, _graph: &Graph) -> bool {
        self.protocol.privileged_count(config) == 1
    }
}

/// Both totals count privileged machines; a machine's privilege reads its
/// ring predecessor (radius 1).
impl LocalSpecification<u64> for DijkstraSpec {
    fn radius(&self) -> u32 {
        1
    }
    fn local_counts(
        &self,
        v: VertexId,
        config: &Configuration<u64>,
        _graph: &Graph,
    ) -> LocalCounts {
        let privileged = u32::from(self.protocol.is_privileged(v, config));
        LocalCounts { safety: privileged, legitimacy: privileged }
    }
    fn safety_rule(&self) -> Aggregate {
        Aggregate::AtMost(1)
    }
    fn legitimacy_rule(&self) -> Aggregate {
        Aggregate::Exactly(1)
    }
}

/// Privileges over the packed `u8` counter lanes, the byte compare of the
/// packed guard.
impl LaneSpecification<u64, u8> for DijkstraSpec {
    fn add_safety_rows(
        &self,
        _graph: &Graph,
        rows: Range<usize>,
        lanes: usize,
        soa: &[u8],
        totals: &mut [u32],
    ) {
        for v in rows {
            let (rv, rp) = self.protocol.rows(v, lanes, soa);
            let bottom = v == 0;
            for ((total, &s), &p) in totals.iter_mut().zip(rv).zip(rp) {
                *total += u32::from((s == p) == bottom);
            }
        }
    }

    fn add_legitimacy_rows(
        &self,
        graph: &Graph,
        rows: Range<usize>,
        lanes: usize,
        soa: &[u8],
        totals: &mut [u32],
    ) {
        self.add_safety_rows(graph, rows, lanes, soa, totals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use specstab_kernel::daemon::{CentralDaemon, CentralStrategy, SynchronousDaemon};
    use specstab_kernel::engine::{RunLimits, Simulator};
    use specstab_kernel::measure::measure_with_early_stop;
    use specstab_kernel::protocol::random_configuration;
    use specstab_kernel::search::{
        build_config_graph, enumerate_all_configurations, worst_steps_to, SearchDaemon, SearchError,
    };
    use specstab_topology::generators;

    fn ring_proto(n: usize) -> (Graph, DijkstraRing) {
        let g = generators::ring(n).unwrap();
        let p = DijkstraRing::new(&g, n as u64).unwrap();
        (g, p)
    }

    #[test]
    fn constructor_validates() {
        let g = generators::ring(5).unwrap();
        assert!(DijkstraRing::new(&g, 5).is_ok());
        assert_eq!(DijkstraRing::new(&g, 4).unwrap_err(), DijkstraError::KTooSmall { k: 4, n: 5 });
        let not_ring = generators::path(5).unwrap();
        assert_eq!(DijkstraRing::new(&not_ring, 5).unwrap_err(), DijkstraError::NotARing);
        let star = generators::star(5).unwrap();
        assert_eq!(DijkstraRing::new(&star, 5).unwrap_err(), DijkstraError::NotARing);
    }

    #[test]
    fn uniform_config_gives_token_to_bottom() {
        let (_, p) = ring_proto(5);
        let c = Configuration::new(vec![3u64; 5]);
        assert_eq!(p.privileged_vertices(&c), vec![VertexId::new(0)]);
    }

    #[test]
    fn all_distinct_config_has_many_tokens() {
        let (_, p) = ring_proto(5);
        let c = Configuration::new(vec![0u64, 1, 2, 3, 4]);
        // v0: S[0]=0 vs S[4]=4 → not privileged; others all differ from
        // their predecessor → 4 privileges.
        assert_eq!(p.privileged_vertices(&c).len(), 4);
    }

    #[test]
    fn token_circulates_in_legitimate_configuration() {
        let (g, p) = ring_proto(4);
        let sim = Simulator::new(&g, &p);
        let mut d = CentralDaemon::new(CentralStrategy::MinId);
        let mut config = Configuration::new(vec![0u64; 4]);
        // 4 central steps: token visits 0 → 1 → 2 → 3.
        let mut holders = Vec::new();
        for _ in 0..4 {
            let privileged = p.privileged_vertices(&config);
            assert_eq!(privileged.len(), 1);
            holders.push(privileged[0].index());
            let s = sim.run(config, &mut d, RunLimits::with_max_steps(1), &mut []);
            config = s.final_config;
        }
        assert_eq!(holders, vec![0, 1, 2, 3]);
    }

    #[test]
    fn self_stabilizes_under_central_daemon() {
        let (g, p) = ring_proto(6);
        let spec = DijkstraSpec::new(p.clone());
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = random_configuration(&g, &p, &mut rng);
            let mut d = CentralDaemon::new(CentralStrategy::Random(seed));
            let s = spec.clone();
            let l = spec.clone();
            let st = spec.clone();
            let report = measure_with_early_stop(
                &g,
                &p,
                &mut d,
                init,
                Box::new(move |c, g| s.is_safe(c, g)),
                Box::new(move |c, g| l.is_legitimate(c, g)),
                Box::new(move |c, g| st.is_legitimate(c, g)),
                100_000,
                5,
            );
            assert!(report.ended_legitimate, "seed {seed}");
        }
    }

    #[test]
    fn synchronous_stabilization_within_2n_minus_3_steps() {
        // Section 3 claims "n steps" informally (the formal statement is
        // conv_time ∈ Θ(n)). Exact exhaustive analysis (see
        // `exact_synchronous_worst_case_is_2n_minus_3`) shows the true
        // synchronous worst case is 2n − 3 — still Θ(n), as claimed.
        for n in [4usize, 6, 8, 10] {
            let (g, p) = ring_proto(n);
            let spec = DijkstraSpec::new(p.clone());
            for seed in 0..20 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = random_configuration(&g, &p, &mut rng);
                let mut d = SynchronousDaemon::new();
                let s = spec.clone();
                let l = spec.clone();
                let st = spec.clone();
                let report = measure_with_early_stop(
                    &g,
                    &p,
                    &mut d,
                    init,
                    Box::new(move |c, g| s.is_safe(c, g)),
                    Box::new(move |c, g| l.is_legitimate(c, g)),
                    Box::new(move |c, g| st.is_legitimate(c, g)),
                    100_000,
                    2 * n,
                );
                assert!(report.ended_legitimate, "n={n} seed {seed}");
                assert!(
                    report.legitimacy_entry <= 2 * n - 3,
                    "n={n} seed {seed}: sync stabilization {} > 2n-3",
                    report.legitimacy_entry
                );
            }
        }
    }

    /// The exact worst-case legitimacy entry of the K-state ring on
    /// ring-`n` over every initial configuration and every choice
    /// `daemon` may make; `Err(Divergent)` when it can avoid legitimacy
    /// forever.
    fn exact_worst_case(n: usize, k: usize, daemon: SearchDaemon) -> Result<u32, SearchError> {
        let g = generators::ring(n).unwrap();
        let p = DijkstraRing::with_undersized_k(&g, k as u64).unwrap();
        let spec = DijkstraSpec::new(p.clone());
        let all = enumerate_all_configurations(&g, &p, 100_000).unwrap();
        let cg = build_config_graph(&g, &p, &all, daemon, 100_000)?;
        let worst = worst_steps_to(&cg, |c| spec.is_legitimate(c, &g))?;
        Ok(worst.into_iter().max().unwrap())
    }

    /// The exact worst case on ring-4, 5 and 6: (3n + 1)(n − 2)/2 = 13, 24
    /// and 38 steps. Quadratic, as the paper states, but above n² from
    /// n = 6 on.
    fn exact_entry(n: usize) -> u32 {
        ((3 * n + 1) * (n - 2) / 2) as u32
    }

    #[test]
    fn exact_worst_case_under_central_daemon_is_quadratic_order() {
        // Exhaustive on ring-4..6: K = n − 1 already stabilizes under the
        // central daemon (Hoepman), with the same worst case as K = n.
        for n in 4..=6 {
            for k in [n - 1, n] {
                let worst = exact_worst_case(n, k, SearchDaemon::Central);
                assert_eq!(worst, Ok(exact_entry(n)), "ring-{n}, K = {k}");
            }
        }
    }

    #[test]
    fn exact_worst_case_under_distributed_daemon_converges() {
        // The FULL unfair distributed game: K = n stabilizes from
        // everywhere within the central worst case (Hoepman's K = N
        // result), and K = n − 1 no longer does.
        for n in 4..=6 {
            let daemon = SearchDaemon::Distributed { max_enabled: n };
            assert_eq!(exact_worst_case(n, n, daemon), Ok(exact_entry(n)), "ring-{n}, K = n");
            let worst = exact_worst_case(n, n - 1, daemon);
            assert_eq!(worst, Err(SearchError::Divergent), "ring-{n}, K = n - 1");
        }
    }

    #[test]
    fn exact_synchronous_worst_case_is_2n_minus_3() {
        // Reproduction finding: the exact synchronous worst case of the
        // K-state protocol is 2n − 3 steps, independent of K ≥ n. This is
        // within the paper's Θ(n) classification (its prose says
        // "n steps", which is the right order but not the exact constant).
        for n in [3usize, 4, 5] {
            let (g, p) = ring_proto(n);
            let spec = DijkstraSpec::new(p.clone());
            let all = enumerate_all_configurations(&g, &p, 5_000_000).unwrap();
            let cg =
                build_config_graph(&g, &p, &all, SearchDaemon::Synchronous, 5_000_000).unwrap();
            let worst = worst_steps_to(&cg, |c| spec.is_legitimate(c, &g)).unwrap();
            let max = worst.iter().max().copied().unwrap();
            assert_eq!(max as usize, 2 * n - 3, "ring-{n}");
        }
    }

    #[test]
    fn undersized_k_breaks_stabilization() {
        // K = n − 2 (the classic K = 2 counterexample on ring-4) admits a
        // central execution that never reaches a single-token configuration.
        for n in 4..=6 {
            let worst = exact_worst_case(n, n - 2, SearchDaemon::Central);
            assert_eq!(worst, Err(SearchError::Divergent), "ring-{n}, K = n - 2");
        }
    }

    #[test]
    fn packed_runs_match_scalar_lane_for_lane_under_both_daemons() {
        use specstab_kernel::batch::{run_batch, BatchDaemon, NoMonitor};
        use specstab_kernel::daemon::RandomDistributedDaemon;
        let (g, p) = ring_proto(7);
        let inits: Vec<_> = (0..9)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(4_000 + s);
                random_configuration(&g, &p, &mut rng)
            })
            .collect();
        let seeds: Vec<u64> = (0..9).map(|s| 7_000 + s).collect();
        for daemon in [BatchDaemon::Sync, BatchDaemon::RandomDistributed { p: 0.5 }] {
            let lane_seeds: &[u64] = if daemon.needs_lane_seeds() { &seeds } else { &[] };
            let lanes = run_batch(&g, &p, daemon, lane_seeds, &inits, 400, NoMonitor);
            for (l, (lane, init)) in lanes.iter().zip(&inits).enumerate() {
                let sim = Simulator::new(&g, &p);
                let limits = RunLimits::with_max_steps(400);
                let scalar = if daemon == BatchDaemon::Sync {
                    let mut d = SynchronousDaemon::new();
                    sim.run(init.clone(), &mut d, limits, &mut [])
                } else {
                    let mut d = RandomDistributedDaemon::new(0.5, seeds[l]);
                    sim.run(init.clone(), &mut d, limits, &mut [])
                };
                assert_eq!(lane.steps, scalar.steps);
                assert_eq!(lane.moves, scalar.moves);
                assert_eq!(lane.stop, scalar.stop);
                assert_eq!(lane.final_config, scalar.final_config);
            }
        }
    }

    #[test]
    fn legitimacy_is_closed_exhaustively_on_small_ring() {
        let (g, p) = ring_proto(4);
        let spec = DijkstraSpec::new(p.clone());
        let sim = Simulator::new(&g, &p);
        let all = enumerate_all_configurations(&g, &p, 100_000).unwrap();
        for c in &all {
            if !spec.is_legitimate(c, &g) {
                continue;
            }
            // Every daemon choice from a legitimate config stays legitimate.
            let enabled = sim.enabled_vertices(c);
            for &v in &enabled {
                let (next, _) = sim.apply_action(c, &[v]);
                assert!(spec.is_legitimate(&next, &g));
            }
            let (next, _) = sim.apply_action(c, &enabled);
            assert!(spec.is_legitimate(&next, &g));
        }
    }
}
