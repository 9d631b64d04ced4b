//! Specification 1 of the paper: mutual exclusion (`specME`).
//!
//! An execution satisfies `specME` when at most one vertex is privileged in
//! any configuration (**safety**) and every vertex executes its critical
//! section infinitely often (**liveness**). A privileged vertex executes
//! its critical section whenever it is *activated* while privileged.
//!
//! For SSME the legitimacy predicate is the unison's `Γ1`: inside `Γ1`
//! pairwise clock drift is at most `diam(g)`, privilege slots are more than
//! `diam(g)` apart, hence at most one privilege — and `Γ1` is closed, so
//! safety holds forever (Theorem 1).

use crate::ssme::Ssme;
use specstab_kernel::config::Configuration;
use specstab_kernel::observer::{Observer, StepEvent};
use specstab_kernel::spec::{Aggregate, LocalCounts, LocalSpecification, Specification};
use specstab_topology::{Graph, VertexId};
use specstab_unison::clock::ClockValue;
use specstab_unison::spec::SpecAu;

/// `specME` instantiated for one SSME instance.
#[derive(Clone, Debug)]
pub struct SpecMe {
    ssme: Ssme,
    au: SpecAu,
    /// Every vertex's privilege value ([`Ssme::privilege_value`]),
    /// computed once so the predicates compare states directly.
    slots: Vec<ClockValue>,
}

impl SpecMe {
    /// Creates the specification for `ssme`.
    #[must_use]
    pub fn new(ssme: Ssme) -> Self {
        let au = SpecAu::new(ssme.clock());
        let slots = (0..ssme.n()).map(|i| ssme.privilege_value(VertexId::new(i))).collect();
        Self { ssme, au, slots }
    }

    /// The underlying SSME instance.
    #[must_use]
    pub fn ssme(&self) -> &Ssme {
        &self.ssme
    }

    /// Number of privileged vertices in `config`.
    #[must_use]
    pub fn privileged_count(&self, config: &Configuration<ClockValue>) -> usize {
        config.states().iter().zip(&self.slots).filter(|(r, slot)| r == slot).count()
    }
}

impl Specification<ClockValue> for SpecMe {
    fn name(&self) -> String {
        "specME".into()
    }

    /// Safety: at most one privileged vertex.
    fn is_safe(&self, config: &Configuration<ClockValue>, _graph: &Graph) -> bool {
        self.privileged_count(config) <= 1
    }

    /// Legitimacy: the unison's `Γ1` (closed, and implies safety for the
    /// paper's clock parameters — validated by tests).
    fn is_legitimate(&self, config: &Configuration<ClockValue>, graph: &Graph) -> bool {
        self.au.in_gamma_one(config, graph)
    }
}

/// Safety counts privileged vertices (radius 0, at most one); legitimacy
/// counts vertices violating `Γ1` locally (radius 1, none).
impl LocalSpecification<ClockValue> for SpecMe {
    fn radius(&self) -> u32 {
        1
    }

    #[inline]
    fn local_counts(
        &self,
        v: VertexId,
        config: &Configuration<ClockValue>,
        graph: &Graph,
    ) -> LocalCounts {
        LocalCounts {
            safety: u32::from(*config.get(v) == self.slots[v.index()]),
            legitimacy: u32::from(self.au.violates_gamma_one_at(v, config, graph)),
        }
    }

    fn safety_rule(&self) -> Aggregate {
        Aggregate::AtMost(1)
    }

    fn legitimacy_rule(&self) -> Aggregate {
        Aggregate::AtMost(0)
    }
}

/// Counts critical-section executions: activations of privileged vertices.
///
/// Per the paper's convention, `v` executes its critical section during the
/// action `(γ, γ')` iff `v` is privileged in `γ` and activated during the
/// action.
#[derive(Clone, Debug)]
pub struct CsCounter {
    ssme: Ssme,
    per_vertex: Vec<u64>,
    /// Step indices (1-based action indices) of each CS execution, capped.
    history_cap: usize,
    history: Vec<(usize, VertexId)>,
}

impl CsCounter {
    /// Creates a counter for `ssme`, remembering at most `history_cap`
    /// individual CS events.
    #[must_use]
    pub fn new(ssme: Ssme, history_cap: usize) -> Self {
        Self { ssme, per_vertex: Vec::new(), history_cap, history: Vec::new() }
    }

    /// CS executions of `v` so far.
    #[must_use]
    pub fn cs_of(&self, v: VertexId) -> u64 {
        self.per_vertex.get(v.index()).copied().unwrap_or(0)
    }

    /// Minimum per-vertex CS count — liveness requires this to keep
    /// growing.
    #[must_use]
    pub fn min_cs(&self) -> u64 {
        self.per_vertex.iter().copied().min().unwrap_or(0)
    }

    /// Total CS executions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_vertex.iter().sum()
    }

    /// Recorded `(step, vertex)` CS events (up to the cap).
    #[must_use]
    pub fn history(&self) -> &[(usize, VertexId)] {
        &self.history
    }
}

impl Observer<ClockValue> for CsCounter {
    fn on_start(&mut self, config: &Configuration<ClockValue>, _graph: &Graph) {
        self.per_vertex = vec![0; config.len()];
        self.history.clear();
    }
    fn on_step(&mut self, event: &StepEvent<'_, ClockValue>) {
        for &(v, _) in event.activated {
            if self.ssme.is_privileged(v, event.before) {
                self.per_vertex[v.index()] += 1;
                if self.history.len() < self.history_cap {
                    self.history.push((event.step, v));
                }
            }
        }
    }
}

/// Bounded liveness check over a recorded window: every vertex must execute
/// its critical section at least once within any window of `window` CS
/// events... operationally, we check per-vertex counts over the run.
///
/// Returns the vertices that never entered the critical section.
#[must_use]
pub fn starved_vertices(counter: &CsCounter, graph: &Graph) -> Vec<VertexId> {
    graph.vertices().filter(|&v| counter.cs_of(v) == 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use specstab_kernel::daemon::SynchronousDaemon;
    use specstab_kernel::engine::{RunLimits, Simulator};
    use specstab_topology::generators;

    fn ssme_on_path3() -> (specstab_topology::Graph, Ssme) {
        let g = generators::path(3).unwrap();
        let ssme = Ssme::for_graph(&g).unwrap();
        (g, ssme)
    }

    fn mk(ssme: &Ssme, raws: &[i64]) -> Configuration<ClockValue> {
        Configuration::new(raws.iter().map(|&r| ssme.clock().value(r).unwrap()).collect())
    }

    #[test]
    fn safety_counts_privileges() {
        let (g, ssme) = ssme_on_path3();
        let spec = SpecMe::new(ssme.clone());
        // Slots for path-3 (n=3, diam=2): 6, 10, 14.
        assert!(spec.is_safe(&mk(&ssme, &[6, 7, 8]), &g));
        assert!(spec.is_safe(&mk(&ssme, &[0, 1, 2]), &g)); // zero privileges
        assert!(!spec.is_safe(&mk(&ssme, &[6, 10, 0]), &g)); // two privileges
    }

    #[test]
    fn legitimacy_is_gamma_one() {
        let (g, ssme) = ssme_on_path3();
        let spec = SpecMe::new(ssme.clone());
        assert!(spec.is_legitimate(&mk(&ssme, &[6, 7, 8]), &g));
        assert!(!spec.is_legitimate(&mk(&ssme, &[6, 10, 0]), &g));
        assert!(!spec.is_legitimate(&mk(&ssme, &[-1, 0, 1]), &g));
    }

    #[test]
    fn legitimacy_implies_safety_exhaustively_on_tiny_instance() {
        // The Theorem 1 safety argument, checked exhaustively: for every
        // Γ1 configuration of a triangle, at most one vertex is privileged.
        let g = generators::complete(3).unwrap();
        let ssme = Ssme::for_graph(&g).unwrap();
        let spec = SpecMe::new(ssme.clone());
        let values: Vec<ClockValue> = ssme.clock().values().collect();
        let mut checked = 0usize;
        for &a in &values {
            for &b in &values {
                for &c in &values {
                    let conf = Configuration::new(vec![a, b, c]);
                    if spec.is_legitimate(&conf, &g) {
                        assert!(spec.is_safe(&conf, &g), "Γ1 config [{a},{b},{c}] unsafe");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "no legitimate configurations found");
    }

    #[test]
    fn cs_counter_records_privileged_activations() {
        let (g, ssme) = ssme_on_path3();
        let sim = Simulator::new(&g, &ssme);
        // Start in Γ1, uniform at v0's slot minus 1; run one full cycle.
        let k = ssme.clock().k() as usize;
        let init = mk(&ssme, &[5, 5, 5]);
        let mut d = SynchronousDaemon::new();
        let mut cs = CsCounter::new(ssme.clone(), 1000);
        let _ = sim.run(init, &mut d, RunLimits::with_max_steps(k + 1), &mut [&mut cs]);
        // Every vertex passes its slot exactly once per K-cycle.
        for v in g.vertices() {
            assert_eq!(cs.cs_of(v), 1, "{v}");
        }
        assert_eq!(cs.total(), 3);
        assert!(starved_vertices(&cs, &g).is_empty());
        // History is ordered by step.
        let steps: Vec<usize> = cs.history().iter().map(|&(s, _)| s).collect();
        assert!(steps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn starvation_detected_on_short_run() {
        let (g, ssme) = ssme_on_path3();
        let sim = Simulator::new(&g, &ssme);
        let init = mk(&ssme, &[5, 5, 5]);
        let mut d = SynchronousDaemon::new();
        let mut cs = CsCounter::new(ssme.clone(), 1000);
        // Two steps: only v0 (slot 6) gets its CS.
        let _ = sim.run(init, &mut d, RunLimits::with_max_steps(2), &mut [&mut cs]);
        assert_eq!(cs.cs_of(VertexId::new(0)), 1);
        assert_eq!(starved_vertices(&cs, &g).len(), 2);
    }
}
