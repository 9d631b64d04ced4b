//! SSME — Speculatively Stabilizing Mutual Exclusion (Algorithm 1).
//!
//! SSME runs the asynchronous unison of Boulinier–Petit–Villain with a
//! specific clock and grants the privilege on specific clock values:
//!
//! * clock `X = (cherry(α, K), φ)` with `α = n` and
//!   `K = (2n − 1)(diam(g) + 1) + 2`;
//! * `privileged_v ≡ (r_v = 2n + 2·diam(g)·id_v)`.
//!
//! The privilege values of distinct vertices are `2·diam(g)` apart (and
//! `2n + diam(g) + 1` across the wraparound), while inside the legitimate
//! set `Γ1` any two registers are within `d_K ≤ diam(g)` of each other —
//! so at most one vertex can be privileged once the unison has stabilized
//! (Theorem 1). The protocol itself is *identical* to the unison: the
//! `privileged` predicate does not interfere with the rules.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use specstab_kernel::batch::PackedProtocol;
use specstab_kernel::config::Configuration;
use specstab_kernel::protocol::{Protocol, RuleId, RuleInfo, View};
use specstab_topology::metrics;
use specstab_topology::{Graph, VertexId};
use specstab_unison::clock::{CherryClock, ClockValue};
use specstab_unison::protocol::AsyncUnison;
use std::error::Error;
use std::fmt;

/// Errors constructing an [`Ssme`] instance.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum SsmeError {
    /// The identity assignment is not a permutation of `0..n`.
    InvalidIds {
        /// Expected number of identities.
        n: usize,
    },
    /// Mutual exclusion needs at least one vertex.
    EmptyGraph,
}

impl fmt::Display for SsmeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsmeError::InvalidIds { n } => {
                write!(f, "identity assignment must be a permutation of 0..{n}")
            }
            SsmeError::EmptyGraph => write!(f, "mutual exclusion requires at least one vertex"),
        }
    }
}

impl Error for SsmeError {}

/// Assignment of distinct identities `{0, .., n-1}` to the vertices.
///
/// The paper requires identified processes (deterministic mutual exclusion
/// is impossible on anonymous rings of composite size, Burns & Pachl). The
/// identity determines each vertex's privilege slot in the clock cycle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IdAssignment {
    ids: Vec<usize>,
}

impl IdAssignment {
    /// The identity permutation: `id_v = index(v)`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self { ids: (0..n).collect() }
    }

    /// A seeded random permutation of `0..n`.
    #[must_use]
    pub fn shuffled(n: usize, seed: u64) -> Self {
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut StdRng::seed_from_u64(seed));
        Self { ids }
    }

    /// Wraps an explicit permutation.
    ///
    /// # Errors
    ///
    /// [`SsmeError::InvalidIds`] if `ids` is not a permutation of `0..n`.
    pub fn from_permutation(ids: Vec<usize>) -> Result<Self, SsmeError> {
        let n = ids.len();
        let mut seen = vec![false; n];
        for &id in &ids {
            if id >= n || seen[id] {
                return Err(SsmeError::InvalidIds { n });
            }
            seen[id] = true;
        }
        Ok(Self { ids })
    }

    /// Number of identities.
    #[must_use]
    pub fn n(&self) -> usize {
        self.ids.len()
    }

    /// Identity of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn id_of(&self, v: VertexId) -> usize {
        self.ids[v.index()]
    }

    /// The vertex holding identity `id`, if in range.
    #[must_use]
    pub fn vertex_with_id(&self, id: usize) -> Option<VertexId> {
        self.ids.iter().position(|&x| x == id).map(VertexId::new)
    }
}

/// The SSME protocol instance for one graph.
#[derive(Clone, Debug)]
pub struct Ssme {
    unison: AsyncUnison,
    ids: IdAssignment,
    n: usize,
    diam: i64,
}

impl Ssme {
    /// Builds SSME for a graph whose diameter is `diam`, with the paper's
    /// parameters `α = n`, `K = (2n − 1)(diam + 1) + 2`.
    ///
    /// # Errors
    ///
    /// [`SsmeError::EmptyGraph`] for `n == 0`; [`SsmeError::InvalidIds`] if
    /// the assignment does not cover the graph.
    pub fn new(graph: &Graph, diam: u32, ids: IdAssignment) -> Result<Self, SsmeError> {
        let n = graph.n();
        if n == 0 {
            return Err(SsmeError::EmptyGraph);
        }
        if ids.n() != n {
            return Err(SsmeError::InvalidIds { n });
        }
        let n_i = i64::try_from(n).expect("n fits i64");
        let d = i64::from(diam);
        let k = (2 * n_i - 1) * (d + 1) + 2;
        let clock = CherryClock::new(n_i, k).expect("α = n ≥ 1 and K ≥ 2 by construction");
        Ok(Self { unison: AsyncUnison::new(clock), ids, n, diam: d })
    }

    /// Builds SSME with identity ids, computing the diameter internally.
    ///
    /// # Errors
    ///
    /// [`SsmeError::EmptyGraph`] for `n == 0`.
    pub fn for_graph(graph: &Graph) -> Result<Self, SsmeError> {
        Self::new(graph, metrics::diameter(graph), IdAssignment::identity(graph.n()))
    }

    /// Ablation constructor (experiment E7): SSME semantics over an
    /// **arbitrary** clock. With an undersized `K` the privilege spacing
    /// argument breaks and safety can be violated inside `Γ1`.
    #[must_use]
    pub fn with_custom_clock(clock: CherryClock, diam: u32, ids: IdAssignment) -> Self {
        let n = ids.n();
        Self { unison: AsyncUnison::new(clock), ids, n, diam: i64::from(diam) }
    }

    /// The underlying cherry clock.
    #[must_use]
    pub fn clock(&self) -> CherryClock {
        self.unison.clock()
    }

    /// The underlying unison protocol.
    #[must_use]
    pub fn unison(&self) -> &AsyncUnison {
        &self.unison
    }

    /// Number of processes `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The diameter constant `diam(g)` known to all vertices.
    #[must_use]
    pub fn diam(&self) -> i64 {
        self.diam
    }

    /// The identity assignment.
    #[must_use]
    pub fn ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// The raw privilege slot of `v`: `2n + 2·diam(g)·id_v`.
    #[must_use]
    pub fn privilege_raw(&self, v: VertexId) -> i64 {
        let n = i64::try_from(self.n).expect("n fits i64");
        let id = i64::try_from(self.ids.id_of(v)).expect("id fits i64");
        2 * n + 2 * self.diam * id
    }

    /// The privilege clock value of `v`.
    ///
    /// # Panics
    ///
    /// Panics if the privilege slot falls outside the clock (possible only
    /// with [`Ssme::with_custom_clock`] ablation clocks; the paper's
    /// parameters always fit).
    #[must_use]
    pub fn privilege_value(&self, v: VertexId) -> ClockValue {
        let raw = self.privilege_raw(v);
        let k = self.clock().k();
        self.clock()
            .value(raw.rem_euclid(k))
            .expect("privilege slot reduced mod K lies in the clock")
    }

    /// `privileged_v`: whether `v` holds the privilege in `config`.
    #[must_use]
    pub fn is_privileged(&self, v: VertexId, config: &Configuration<ClockValue>) -> bool {
        *config.get(v) == self.privilege_value(v)
    }

    /// All privileged vertices of `config`.
    #[must_use]
    pub fn privileged_vertices(&self, config: &Configuration<ClockValue>) -> Vec<VertexId> {
        (0..self.n).map(VertexId::new).filter(|&v| self.is_privileged(v, config)).collect()
    }
}

impl Protocol for Ssme {
    type State = ClockValue;

    fn name(&self) -> String {
        format!("SSME[n={}, diam={}, {}]", self.n, self.diam, self.clock())
    }

    fn rules(&self) -> Vec<RuleInfo> {
        self.unison.rules()
    }

    #[inline]
    fn enabled_rule(&self, view: &View<'_, ClockValue>) -> Option<RuleId> {
        // The privilege predicate does not interfere with the protocol:
        // SSME *is* the unison with a particular clock.
        self.unison.enabled_rule(view)
    }

    const SUMMED_GUARD_MAX_DEGREE: Option<usize> = AsyncUnison::SUMMED_GUARD_MAX_DEGREE;

    #[inline]
    fn guard_term(&self, own: &ClockValue, neighbor: &ClockValue) -> u64 {
        self.unison.guard_term(own, neighbor)
    }

    #[inline]
    fn rule_from_sum(&self, own: &ClockValue, sum: u64) -> Option<RuleId> {
        self.unison.rule_from_sum(own, sum)
    }

    #[inline]
    fn apply(&self, view: &View<'_, ClockValue>, rule: RuleId) -> ClockValue {
        self.unison.apply(view, rule)
    }

    fn random_state(&self, v: VertexId, rng: &mut StdRng) -> ClockValue {
        self.unison.random_state(v, rng)
    }

    fn state_domain(&self, v: VertexId) -> Option<Vec<ClockValue>> {
        self.unison.state_domain(v)
    }
}

impl PackedProtocol for Ssme {
    // SSME *is* the unison with a particular clock: the privilege
    // predicate reads configurations but never changes the rules, so the
    // lane-packed stepper delegates verbatim.
    type Lane = i32;

    fn pack(&self, state: &ClockValue) -> i32 {
        self.unison.pack(state)
    }

    fn unpack(&self, lane: i32) -> ClockValue {
        self.unison.unpack(lane)
    }

    fn step_lanes(
        &self,
        graph: &Graph,
        lanes: usize,
        soa: &[i32],
        next: &mut [i32],
        fired: &mut [bool],
    ) {
        self.unison.step_lanes(graph, lanes, soa, next, fired);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specstab_topology::generators;

    #[test]
    fn paper_parameters() {
        // ring-6: n = 6, diam = 3 → α = 6, K = 11·4 + 2 = 46.
        let g = generators::ring(6).unwrap();
        let ssme = Ssme::for_graph(&g).unwrap();
        assert_eq!(ssme.clock().alpha(), 6);
        assert_eq!(ssme.clock().k(), 46);
        assert_eq!(ssme.n(), 6);
        assert_eq!(ssme.diam(), 3);
    }

    #[test]
    fn privilege_values_match_paper_formulas() {
        let g = generators::ring(6).unwrap();
        let ssme = Ssme::for_graph(&g).unwrap();
        let n = 6i64;
        let diam = 3i64;
        // privileged_{v_0} ≡ (r = 2n)
        assert_eq!(ssme.privilege_raw(VertexId::new(0)), 2 * n);
        // privileged_{v_{n-1}} ≡ (r = (2n − 2)(diam + 1) + 2)
        assert_eq!(ssme.privilege_raw(VertexId::new(5)), (2 * n - 2) * (diam + 1) + 2);
        // Slots are spaced 2·diam apart.
        for i in 0..5 {
            let a = ssme.privilege_raw(VertexId::new(i));
            let b = ssme.privilege_raw(VertexId::new(i + 1));
            assert_eq!(b - a, 2 * diam);
        }
    }

    #[test]
    fn privilege_slots_fit_inside_clock() {
        for g in [
            generators::ring(3).unwrap(),
            generators::path(10).unwrap(),
            generators::complete(7).unwrap(),
            generators::grid(4, 5).unwrap(),
            generators::star(9).unwrap(),
        ] {
            let ssme = Ssme::for_graph(&g).unwrap();
            let k = ssme.clock().k();
            for v in g.vertices() {
                let raw = ssme.privilege_raw(v);
                assert!(raw >= 0 && raw < k, "{}: slot {raw} outside K={k}", g.name());
            }
        }
    }

    #[test]
    fn wraparound_distance_exceeds_diam() {
        // Within Γ1 drift is ≤ diam; slots must be > diam apart, also
        // across the wraparound (the paper computes 2n + diam + 1 there).
        for g in [
            generators::ring(5).unwrap(),
            generators::grid(3, 3).unwrap(),
            generators::path(7).unwrap(),
        ] {
            let ssme = Ssme::for_graph(&g).unwrap();
            let clock = ssme.clock();
            let slots: Vec<ClockValue> = g.vertices().map(|v| ssme.privilege_value(v)).collect();
            for (i, &a) in slots.iter().enumerate() {
                for &b in &slots[i + 1..] {
                    assert!(
                        clock.d_k(a, b) > ssme.diam(),
                        "{}: slots {a} and {b} within diam",
                        g.name()
                    );
                }
            }
        }
    }

    #[test]
    fn privileged_detection() {
        let g = generators::path(3).unwrap();
        let ssme = Ssme::for_graph(&g).unwrap();
        // n = 3, diam = 2: slots are 6, 10, 14.
        let mk = |raws: [i64; 3]| {
            Configuration::new(
                raws.iter().map(|&r| ssme.clock().value(r).unwrap()).collect::<Vec<_>>(),
            )
        };
        let c = mk([6, 7, 8]);
        assert!(ssme.is_privileged(VertexId::new(0), &c));
        assert!(!ssme.is_privileged(VertexId::new(1), &c));
        assert_eq!(ssme.privileged_vertices(&c), vec![VertexId::new(0)]);
        let none = mk([7, 8, 9]);
        assert!(ssme.privileged_vertices(&none).is_empty());
        let two = mk([6, 10, 0]);
        assert_eq!(ssme.privileged_vertices(&two).len(), 2);
    }

    #[test]
    fn id_assignment_permutations() {
        let ids = IdAssignment::from_permutation(vec![2, 0, 1]).unwrap();
        assert_eq!(ids.id_of(VertexId::new(0)), 2);
        assert_eq!(ids.vertex_with_id(2), Some(VertexId::new(0)));
        assert!(IdAssignment::from_permutation(vec![0, 0, 1]).is_err());
        assert!(IdAssignment::from_permutation(vec![0, 3, 1]).is_err());
        let shuffled = IdAssignment::shuffled(10, 5);
        assert_eq!(shuffled.n(), 10);
        assert_eq!(IdAssignment::shuffled(10, 5), shuffled, "seed-deterministic");
    }

    #[test]
    fn custom_ids_shift_privileges() {
        let g = generators::path(3).unwrap();
        let ids = IdAssignment::from_permutation(vec![1, 2, 0]).unwrap();
        let ssme = Ssme::new(&g, 2, ids).unwrap();
        // v2 has id 0 → slot 2n = 6.
        assert_eq!(ssme.privilege_raw(VertexId::new(2)), 6);
        assert_eq!(ssme.privilege_raw(VertexId::new(0)), 10);
    }

    #[test]
    fn protocol_delegates_to_unison() {
        let g = generators::ring(4).unwrap();
        let ssme = Ssme::for_graph(&g).unwrap();
        assert_eq!(ssme.rules().len(), 3);
        let uniform = Configuration::from_fn(4, |_| ssme.clock().value(0).unwrap());
        let view = View::new(VertexId::new(0), &g, &uniform);
        assert_eq!(
            ssme.enabled_rule(&view),
            ssme.unison().enabled_rule(&view),
            "SSME must behave exactly like its unison"
        );
    }

    #[test]
    fn single_vertex_instance() {
        let g = generators::path(1).unwrap();
        let ssme = Ssme::for_graph(&g).unwrap();
        // n = 1, diam = 0 → K = 1·1 + 2 = 3, slot = 2.
        assert_eq!(ssme.clock().k(), 3);
        assert_eq!(ssme.privilege_raw(VertexId::new(0)), 2);
    }

    #[test]
    fn rejects_mismatched_ids() {
        let g = generators::ring(4).unwrap();
        let err = Ssme::new(&g, 2, IdAssignment::identity(3)).unwrap_err();
        assert_eq!(err, SsmeError::InvalidIds { n: 4 });
    }
}
