//! Problem specifications (Definition 3 scaffolding).
//!
//! A *specification* is a set of executions. For the problems in this
//! workspace, specifications decompose into a per-configuration **safety**
//! predicate, a per-configuration **legitimacy** predicate (a closed set of
//! configurations from which every execution satisfies the specification),
//! and a **liveness** component checked over recorded traces.
//!
//! The kernel keeps this abstract; `specstab-unison` instantiates it for
//! `specAU` and `specstab-core` for `specME`.
//!
//! Every specification the campaign measures also has a **local form**
//! ([`LocalSpecification`]): its safety and legitimacy predicates are
//! totals of per-vertex counts, each read from the states within a fixed
//! radius of its vertex, compared against an [`Aggregate`] rule (e.g.
//! specME safety: "privileged vertices ≤ 1"). A monitor that knows the
//! counts of the previous configuration then re-evaluates only the
//! vertices near the ones a step changed — see
//! [`crate::measure::SpecMonitor`].
//!
//! The batched engine measures the same specifications through their
//! **lane form** ([`LaneSpecification`]): the same per-vertex counts,
//! summed for every replica lane of packed replica-major state at once —
//! see [`crate::batch::LaneMonitor`].

use crate::batch::LaneWord;
use crate::config::Configuration;
use specstab_topology::{Graph, VertexId};
use std::ops::Range;

/// A problem specification over per-vertex states `S`.
pub trait Specification<S> {
    /// Name for reports (e.g. `"specME"`).
    fn name(&self) -> String;

    /// Safety predicate over a single configuration (e.g. "at most one
    /// privileged vertex").
    fn is_safe(&self, config: &Configuration<S>, graph: &Graph) -> bool;

    /// Legitimacy predicate: a *closed* set of configurations from which
    /// every execution satisfies the specification. Legitimacy implies
    /// safety for well-formed specifications.
    fn is_legitimate(&self, config: &Configuration<S>, graph: &Graph) -> bool;
}

/// How per-vertex counts aggregate into a verdict: the predicate holds iff
/// the total over all vertices satisfies the rule.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Aggregate {
    /// The total is at most the bound (e.g. "at most one privilege").
    AtMost(u64),
    /// The total equals the bound (e.g. "exactly one privilege").
    Exactly(u64),
}

impl Aggregate {
    /// Whether `total` satisfies the rule.
    #[must_use]
    pub fn holds(self, total: u64) -> bool {
        match self {
            Aggregate::AtMost(bound) => total <= bound,
            Aggregate::Exactly(bound) => total == bound,
        }
    }

    /// Whether a partial sum of the (nonnegative) per-vertex counts
    /// already decides the rule: past the bound, no remaining vertex can
    /// make either rule hold again.
    #[must_use]
    pub fn decided_by(self, partial: u64) -> bool {
        match self {
            Aggregate::AtMost(bound) | Aggregate::Exactly(bound) => partial > bound,
        }
    }
}

/// One vertex's contribution to the safety and legitimacy totals of a
/// [`LocalSpecification`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct LocalCounts {
    /// Contribution to the safety total (e.g. 1 if the vertex is
    /// privileged).
    pub safety: u32,
    /// Contribution to the legitimacy total (e.g. 1 if the vertex
    /// violates a local legitimacy condition).
    pub legitimacy: u32,
}

/// The local form of a [`Specification`]: `is_safe` holds iff the sum of
/// every vertex's [`LocalCounts::safety`] satisfies
/// [`LocalSpecification::safety_rule`], and likewise for legitimacy.
///
/// Locality is the contract that makes incremental monitoring sound:
/// `local_counts(v, ..)` reads only states of vertices within graph
/// distance [`LocalSpecification::radius`] of `v`, so a step that changes
/// the states of a set `D` of vertices can change only the counts of
/// vertices within that radius of `D`.
pub trait LocalSpecification<S>: Specification<S> {
    /// The radius `r`: vertex `v`'s counts depend only on the states of
    /// vertices at distance at most `r` from `v`.
    fn radius(&self) -> u32;

    /// Vertex `v`'s contribution to the safety and legitimacy totals.
    fn local_counts(&self, v: VertexId, config: &Configuration<S>, graph: &Graph) -> LocalCounts;

    /// The rule the safety total must satisfy.
    fn safety_rule(&self) -> Aggregate;

    /// The rule the legitimacy total must satisfy.
    fn legitimacy_rule(&self) -> Aggregate;
}

/// The lane form of a [`LocalSpecification`] over lane words `W`: the
/// same per-vertex counts, evaluated for every replica lane of
/// replica-major packed state (`soa[v * lanes + l]` is vertex `v` of lane
/// `l`, packed the way the batched protocol packs `S`), and judged by the
/// same [`Aggregate`] rules.
///
/// `add_safety_rows(graph, rows, lanes, soa, totals)` must add, for every
/// vertex `v` in `rows` and every lane `l`, exactly
/// `local_counts(v, lane l's configuration).safety` to `totals[l]`; the
/// legitimacy form likewise. Splitting a sweep into row ranges lets a
/// monitor stop once every lane's rule is decided
/// ([`Aggregate::decided_by`]).
pub trait LaneSpecification<S, W: LaneWord>: LocalSpecification<S> {
    /// Adds the safety counts of the vertices in `rows`, per lane.
    fn add_safety_rows(
        &self,
        graph: &Graph,
        rows: Range<usize>,
        lanes: usize,
        soa: &[W],
        totals: &mut [u32],
    );

    /// Adds the legitimacy counts of the vertices in `rows`, per lane.
    fn add_legitimacy_rows(
        &self,
        graph: &Graph,
        rows: Range<usize>,
        lanes: usize,
        soa: &[W],
        totals: &mut [u32],
    );
}

/// Checks closure of a specification's legitimacy predicate along one
/// recorded execution: once legitimate, never illegitimate again.
///
/// Returns the index of the first closure violation, if any.
#[must_use]
pub fn closure_violation<S, Sp: Specification<S> + ?Sized>(
    spec: &Sp,
    configs: &[Configuration<S>],
    graph: &Graph,
) -> Option<usize> {
    let mut was_legitimate = false;
    for (i, c) in configs.iter().enumerate() {
        let leg = spec.is_legitimate(c, graph);
        if was_legitimate && !leg {
            return Some(i);
        }
        was_legitimate = was_legitimate || leg;
    }
    None
}

/// Checks that legitimacy implies safety on every sampled configuration.
///
/// Returns the index of the first configuration that is legitimate but
/// unsafe, if any.
#[must_use]
pub fn legitimacy_implies_safety_violation<S, Sp: Specification<S> + ?Sized>(
    spec: &Sp,
    configs: &[Configuration<S>],
    graph: &Graph,
) -> Option<usize> {
    configs.iter().position(|c| spec.is_legitimate(c, graph) && !spec.is_safe(c, graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specstab_topology::generators;

    /// Toy spec over u8 states: safe = no state equals 255; legitimate =
    /// all states equal.
    struct Uniform;
    impl Specification<u8> for Uniform {
        fn name(&self) -> String {
            "uniform".into()
        }
        fn is_safe(&self, config: &Configuration<u8>, _g: &Graph) -> bool {
            config.states().iter().all(|&s| s != 255)
        }
        fn is_legitimate(&self, config: &Configuration<u8>, _g: &Graph) -> bool {
            config.states().windows(2).all(|w| w[0] == w[1])
        }
    }

    #[test]
    fn aggregate_rules() {
        assert!(Aggregate::AtMost(1).holds(0) && Aggregate::AtMost(1).holds(1));
        assert!(!Aggregate::AtMost(1).holds(2));
        assert!(Aggregate::Exactly(1).holds(1));
        assert!(!Aggregate::Exactly(1).holds(0) && !Aggregate::Exactly(1).holds(2));
        for rule in [Aggregate::AtMost(1), Aggregate::Exactly(1)] {
            assert!(!rule.decided_by(0) && !rule.decided_by(1) && rule.decided_by(2));
        }
    }

    #[test]
    fn closure_violation_detected() {
        let g = generators::path(2).unwrap();
        let configs = vec![
            Configuration::new(vec![1, 1]), // legitimate
            Configuration::new(vec![1, 2]), // closure broken here
        ];
        assert_eq!(closure_violation(&Uniform, &configs, &g), Some(1));
    }

    #[test]
    fn closure_holds_when_monotone() {
        let g = generators::path(2).unwrap();
        let configs = vec![
            Configuration::new(vec![1, 2]),
            Configuration::new(vec![2, 2]),
            Configuration::new(vec![2, 2]),
        ];
        assert_eq!(closure_violation(&Uniform, &configs, &g), None);
    }

    #[test]
    fn legitimacy_implies_safety_checked() {
        let g = generators::path(2).unwrap();
        let configs = vec![Configuration::new(vec![255, 255])]; // legitimate but unsafe
        assert_eq!(legitimacy_implies_safety_violation(&Uniform, &configs, &g), Some(0));
        let ok = vec![Configuration::new(vec![3, 3])];
        assert_eq!(legitimacy_implies_safety_violation(&Uniform, &ok, &g), None);
    }
}
