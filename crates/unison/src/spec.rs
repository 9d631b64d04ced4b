//! Specification 2 of the paper: asynchronous unison (`specAU`).
//!
//! An execution satisfies `specAU` when every configuration belongs to the
//! legitimate set `Γ1` (safety) and every vertex's clock is incremented
//! infinitely often (liveness), where
//!
//! ```text
//! Γ1 = { γ | ∀v, ∀u ∈ neig(v): r_v ∈ stab_X ∧ r_u ∈ stab_X ∧ d_K(r_v, r_u) ≤ 1 }
//! ```

use crate::clock::{CherryClock, ClockValue};
use crate::packed::add_gamma_one_violations;
use crate::protocol::neighbor_term;
use specstab_kernel::config::Configuration;
use specstab_kernel::observer::{Observer, StepEvent};
use specstab_kernel::spec::{
    Aggregate, LaneSpecification, LocalCounts, LocalSpecification, Specification,
};
use specstab_topology::{Graph, VertexId};
use std::ops::Range;

/// `specAU` for a given cherry clock.
#[derive(Copy, Clone, Debug)]
pub struct SpecAu {
    clock: CherryClock,
}

impl SpecAu {
    /// Creates the specification for `clock`.
    #[must_use]
    pub fn new(clock: CherryClock) -> Self {
        Self { clock }
    }

    /// Whether `config ∈ Γ1`: all registers correct, neighbor drift ≤ 1.
    #[must_use]
    pub fn in_gamma_one(&self, config: &Configuration<ClockValue>, graph: &Graph) -> bool {
        graph.edges().iter().all(|&(u, v)| {
            let (ru, rv) = (*config.get(u), *config.get(v));
            self.clock.is_stab(ru) && self.clock.is_stab(rv) && self.clock.d_k(ru, rv) <= 1
        }) && config.states().iter().all(|&r| self.clock.is_stab(r))
        // The second clause covers isolated vertices (n = 1).
    }

    /// Whether vertex `v` violates `Γ1` locally: its register or a
    /// neighbor's is incorrect, or it drifts more than 1 from a neighbor
    /// (`¬is_stab(r_v) ∨ ∃u: ¬is_stab(r_u) ∨ d_K(r_v, r_u) > 1`).
    /// `config ∈ Γ1` iff no vertex violates it (the local form of
    /// [`SpecAu::in_gamma_one`]). Each neighbor costs one division-free
    /// `correct_v(u)` test, the unison guard's own term, and the scan
    /// stops at the first violation.
    #[inline]
    #[must_use]
    pub fn violates_gamma_one_at(
        &self,
        v: VertexId,
        config: &Configuration<ClockValue>,
        graph: &Graph,
    ) -> bool {
        let a = config.get(v).raw();
        let k = self.clock.k();
        debug_assert!(self.clock.contains(a), "register {a} outside {}", self.clock);
        a < 0
            || graph.neighbors(v).iter().any(|&u| {
                let b = config.get(u).raw();
                debug_assert!(self.clock.contains(b), "register {b} outside {}", self.clock);
                !neighbor_term(a, b, k).correct
            })
    }

    /// Global drift bound within `Γ1` (paper remark): for any two vertices,
    /// `d_K(r_u, r_v) ≤ dist(u, v) ≤ diam(g)`. Checked explicitly by tests;
    /// exposed for the SSME safety argument.
    #[must_use]
    pub fn max_pairwise_drift(&self, config: &Configuration<ClockValue>) -> Option<i64> {
        let stab = config.states().iter().all(|&r| self.clock.is_stab(r));
        if !stab {
            return None;
        }
        let mut best = 0;
        for (i, &a) in config.states().iter().enumerate() {
            for &b in &config.states()[i + 1..] {
                best = best.max(self.clock.d_k(a, b));
            }
        }
        Some(best)
    }
}

impl Specification<ClockValue> for SpecAu {
    fn name(&self) -> String {
        "specAU".into()
    }

    /// Safety of `specAU` is `Γ1` membership itself.
    fn is_safe(&self, config: &Configuration<ClockValue>, graph: &Graph) -> bool {
        self.in_gamma_one(config, graph)
    }

    fn is_legitimate(&self, config: &Configuration<ClockValue>, graph: &Graph) -> bool {
        self.in_gamma_one(config, graph)
    }
}

/// Both totals count vertices violating `Γ1` locally (radius 1, none).
impl LocalSpecification<ClockValue> for SpecAu {
    fn radius(&self) -> u32 {
        1
    }

    fn local_counts(
        &self,
        v: VertexId,
        config: &Configuration<ClockValue>,
        graph: &Graph,
    ) -> LocalCounts {
        let violates = u32::from(self.violates_gamma_one_at(v, config, graph));
        LocalCounts { safety: violates, legitimacy: violates }
    }

    fn safety_rule(&self) -> Aggregate {
        Aggregate::AtMost(0)
    }

    fn legitimacy_rule(&self) -> Aggregate {
        Aggregate::AtMost(0)
    }
}

/// The `Γ1` violation counts over the unison's packed `i32` lanes
/// ([`add_gamma_one_violations`]).
impl LaneSpecification<ClockValue, i32> for SpecAu {
    fn add_safety_rows(
        &self,
        graph: &Graph,
        rows: Range<usize>,
        lanes: usize,
        soa: &[i32],
        totals: &mut [u32],
    ) {
        self.add_legitimacy_rows(graph, rows, lanes, soa, totals);
    }

    fn add_legitimacy_rows(
        &self,
        graph: &Graph,
        rows: Range<usize>,
        lanes: usize,
        soa: &[i32],
        totals: &mut [u32],
    ) {
        let k = i32::try_from(self.clock.k()).expect("cherry clock K fits i32 lanes");
        add_gamma_one_violations(graph, rows, lanes, k, soa, totals);
    }
}

/// Liveness observer: counts clock increments (NA/CA firings) per vertex.
///
/// After stabilization every window of `w` steps must show progress for
/// every vertex, for a window size depending on the daemon;
/// [`IncrementCounter::min_increments`] lets tests assert that.
#[derive(Clone, Debug, Default)]
pub struct IncrementCounter {
    per_vertex: Vec<u64>,
}

impl IncrementCounter {
    /// Creates the counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments executed by `v` so far.
    #[must_use]
    pub fn increments_of(&self, v: VertexId) -> u64 {
        self.per_vertex.get(v.index()).copied().unwrap_or(0)
    }

    /// Minimum per-vertex increment count.
    #[must_use]
    pub fn min_increments(&self) -> u64 {
        self.per_vertex.iter().copied().min().unwrap_or(0)
    }
}

impl Observer<ClockValue> for IncrementCounter {
    fn on_start(&mut self, config: &Configuration<ClockValue>, _graph: &Graph) {
        self.per_vertex = vec![0; config.len()];
    }
    fn on_step(&mut self, event: &StepEvent<'_, ClockValue>) {
        for &(v, rule) in event.activated {
            // NA and CA are increments; RA is not.
            if rule == crate::protocol::rules::NA || rule == crate::protocol::rules::CA {
                self.per_vertex[v.index()] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::AsyncUnison;
    use specstab_kernel::daemon::SynchronousDaemon;
    use specstab_kernel::engine::{RunLimits, Simulator};
    use specstab_topology::generators;

    fn clock() -> CherryClock {
        CherryClock::new(3, 7).unwrap()
    }

    fn cfg(x: &CherryClock, raws: &[i64]) -> Configuration<ClockValue> {
        Configuration::new(raws.iter().map(|&r| x.value(r).unwrap()).collect())
    }

    #[test]
    fn gamma_one_accepts_unit_drift() {
        let x = clock();
        let spec = SpecAu::new(x);
        let g = generators::path(3).unwrap();
        assert!(spec.in_gamma_one(&cfg(&x, &[2, 3, 2]), &g));
        assert!(spec.in_gamma_one(&cfg(&x, &[6, 0, 6]), &g)); // wraparound
        assert!(spec.in_gamma_one(&cfg(&x, &[4, 4, 4]), &g));
    }

    #[test]
    fn gamma_one_rejects_large_drift_or_initial_values() {
        let x = clock();
        let spec = SpecAu::new(x);
        let g = generators::path(3).unwrap();
        assert!(!spec.in_gamma_one(&cfg(&x, &[2, 4, 2]), &g));
        assert!(!spec.in_gamma_one(&cfg(&x, &[-1, 0, 1]), &g));
    }

    #[test]
    fn local_gamma_one_violations_agree_with_the_edge_scan() {
        let x = clock();
        let spec = SpecAu::new(x);
        let g = generators::ring(4).unwrap();
        for raws in [[1i64, 1, 2, 2], [6, 0, 6, 0], [1, 2, 3, 2], [0, -1, 0, 0], [4, 4, 4, 1]] {
            let c = cfg(&x, &raws);
            let violators = g.vertices().filter(|&v| spec.violates_gamma_one_at(v, &c, &g)).count();
            assert_eq!(violators == 0, spec.in_gamma_one(&c, &g), "{raws:?}");
        }
        // A lone incorrect register makes it and its neighbors violate.
        let c = cfg(&x, &[1, -1, 1, 1]);
        let violators: Vec<usize> = g
            .vertices()
            .filter(|&v| spec.violates_gamma_one_at(v, &c, &g))
            .map(|v| v.index())
            .collect();
        assert_eq!(violators, vec![0, 1, 2]);
    }

    #[test]
    fn safety_equals_legitimacy_for_spec_au() {
        let x = clock();
        let spec = SpecAu::new(x);
        let g = generators::ring(4).unwrap();
        for raws in [[1i64, 1, 1, 1], [1, 2, 3, 2], [0, -1, 0, 0]] {
            let c = cfg(&x, &raws);
            assert_eq!(spec.is_safe(&c, &g), spec.is_legitimate(&c, &g));
        }
    }

    #[test]
    fn max_pairwise_drift_within_gamma_one() {
        let x = clock();
        let spec = SpecAu::new(x);
        assert_eq!(spec.max_pairwise_drift(&cfg(&x, &[2, 3, 4])), Some(2));
        assert_eq!(spec.max_pairwise_drift(&cfg(&x, &[5, 5])), Some(0));
        assert_eq!(spec.max_pairwise_drift(&cfg(&x, &[-1, 5])), None);
    }

    #[test]
    fn increment_counter_counts_na_and_ca() {
        let x = clock();
        let p = AsyncUnison::new(x);
        let g = generators::ring(4).unwrap();
        let sim = Simulator::new(&g, &p);
        let init = cfg(&x, &[0, 0, 0, 0]);
        let mut d = SynchronousDaemon::new();
        let mut counter = IncrementCounter::new();
        let s = sim.run(init, &mut d, RunLimits::with_max_steps(14), &mut [&mut counter]);
        assert_eq!(s.steps, 14);
        for v in g.vertices() {
            assert_eq!(counter.increments_of(v), 14, "{v}");
        }
        assert_eq!(counter.min_increments(), 14);
    }
}
