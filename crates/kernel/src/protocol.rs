//! Protocols as guarded rules over local views.
//!
//! A distributed protocol in Dijkstra's model is, per vertex, a set of
//! guarded rules `<label> :: <guard> → <action>`. The guard may only read
//! the vertex's own state and its neighbors' states; the action computes
//! the vertex's next state from the same local information. [`View`]
//! enforces this locality discipline at runtime: reading the state of a
//! non-neighbor panics, so a protocol that cheats fails loudly in tests.
//!
//! All protocols in this workspace are *deterministic*: at most one rule is
//! enabled per vertex per configuration, matching the paper (arbitration
//! among rules, where needed, is part of [`Protocol::enabled_rule`]).

use crate::config::Configuration;
use rand::rngs::StdRng;
use specstab_topology::{Graph, VertexId};
use std::fmt;

/// Index of a guarded rule within a protocol's rule table.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RuleId(u8);

impl RuleId {
    /// Creates a rule identifier from its index in [`Protocol::rules`].
    #[must_use]
    pub const fn new(index: u8) -> Self {
        Self(index)
    }

    /// Index into the protocol's rule table.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule#{}", self.0)
    }
}

/// Static description of a guarded rule (for traces and reports).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RuleInfo {
    label: String,
}

impl RuleInfo {
    /// Creates a rule description with the given label (e.g. `"NA"`).
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into() }
    }

    /// The rule's label as written in the paper's pseudo-code.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl fmt::Display for RuleInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// Read-only local view of a configuration from one vertex: its own state
/// plus the atomically-read states of its neighbors.
///
/// Created by the engine; protocols receive it in
/// [`Protocol::enabled_rule`] and [`Protocol::apply`].
///
/// The vertex's CSR neighbor slice is resolved **once at construction** and
/// cached, so a guard that walks the neighborhood several times (and the
/// common `enabled_rule` → `apply` pair sharing one view) never re-fetches
/// it from the graph.
#[derive(Clone, Copy, Debug)]
pub struct View<'a, S> {
    vertex: VertexId,
    graph: &'a Graph,
    config: &'a Configuration<S>,
    /// `graph.neighbors(vertex)`, fetched once.
    neighbors: &'a [VertexId],
}

impl<'a, S> View<'a, S> {
    /// Builds a view of `config` from `vertex`.
    ///
    /// # Panics
    ///
    /// Panics if `vertex` is out of range for the graph.
    #[must_use]
    pub fn new(vertex: VertexId, graph: &'a Graph, config: &'a Configuration<S>) -> Self {
        assert!(vertex.index() < graph.n(), "view vertex out of range");
        Self { vertex, graph, config, neighbors: graph.neighbors(vertex) }
    }

    /// [`View::new`] with the bounds check demoted to a `debug_assert!` —
    /// the engine's steady-state fast path. The engine validates the
    /// configuration length once at run entry and only ever passes vertices
    /// of its own graph, so re-checking per guard evaluation is pure
    /// overhead (release campaigns evaluate guards hundreds of millions of
    /// times).
    #[inline]
    #[must_use]
    pub(crate) fn new_unchecked(
        vertex: VertexId,
        graph: &'a Graph,
        config: &'a Configuration<S>,
    ) -> Self {
        debug_assert!(vertex.index() < graph.n(), "view vertex out of range");
        Self { vertex, graph, config, neighbors: graph.neighbors(vertex) }
    }

    /// The vertex this view belongs to.
    #[must_use]
    pub fn vertex(&self) -> VertexId {
        self.vertex
    }

    /// The vertex's own state.
    #[must_use]
    pub fn state(&self) -> &'a S {
        self.config.get(self.vertex)
    }

    /// The underlying communication graph (topology constants like `n` or
    /// `diam` are legitimately global knowledge in the paper's model).
    #[must_use]
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Degree of the vertex.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Iterates over `(neighbor, state)` pairs in neighbor order, walking
    /// the cached CSR slice.
    pub fn neighbor_states(&self) -> impl Iterator<Item = (VertexId, &'a S)> + '_ {
        self.neighbors.iter().map(|&u| (u, self.config.get(u)))
    }

    /// Reads the state of `u`, which must be this vertex or one of its
    /// neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `u` is neither `self.vertex()` nor adjacent to it — this
    /// is the runtime enforcement of the model's locality discipline.
    #[must_use]
    pub fn state_of(&self, u: VertexId) -> &'a S {
        assert!(
            u == self.vertex || self.neighbors.binary_search(&u).is_ok(),
            "locality violation: {} read the state of non-neighbor {}",
            self.vertex,
            u
        );
        self.config.get(u)
    }
}

/// A distributed protocol: per-vertex guarded rules in Dijkstra's model.
///
/// Implementations must be *deterministic* (at most one enabled rule per
/// vertex per configuration) and *local* (only the [`View`] may be
/// consulted). The engine activates any subset of enabled vertices chosen
/// by the daemon; every activated vertex's new state is computed from the
/// pre-step configuration.
pub trait Protocol {
    /// Per-vertex state type: an owned (`'static`) value — the engine's
    /// scratch pools and boxed daemons key and store states by type.
    type State: Clone + Eq + std::hash::Hash + fmt::Debug + 'static;

    /// Protocol name for reports (e.g. `"SSME"`).
    fn name(&self) -> String;

    /// The rule table; [`RuleId`]s index into it.
    fn rules(&self) -> Vec<RuleInfo>;

    /// The unique enabled rule of the vertex in this configuration, if any.
    ///
    /// A vertex is *enabled* when this returns `Some`.
    fn enabled_rule(&self, view: &View<'_, Self::State>) -> Option<RuleId>;

    /// Executes `rule`'s action: the vertex's next state.
    ///
    /// Only called with a rule previously returned by
    /// [`Protocol::enabled_rule`] for the same view.
    fn apply(&self, view: &View<'_, Self::State>, rule: RuleId) -> Self::State;

    /// The summed guard form, off by default (`None`). `Some(max_degree)`
    /// promises that at every vertex `v` of degree at most `max_degree`
    ///
    /// ```text
    /// enabled_rule(v) = rule_from_sum(r_v, Σ_{u ∈ N(v)} guard_term(r_v, r_u))
    /// ```
    ///
    /// where the sum of any `max_degree` terms fits in a `u64`. A step of
    /// the engine then re-derives a neighbor's rule by patching its sum
    /// with the terms of the one edge that changed, instead of re-reading
    /// the neighbor's whole neighborhood. Runs on a graph with a vertex of
    /// larger degree (the protocol's packed counts would carry) evaluate
    /// [`Protocol::enabled_rule`] instead.
    const SUMMED_GUARD_MAX_DEGREE: Option<usize> = None;

    /// The term a neighbor in state `neighbor` adds to the guard sum of a
    /// vertex in state `own` (see [`Protocol::SUMMED_GUARD_MAX_DEGREE`]).
    ///
    /// # Panics
    ///
    /// The default panics: only protocols with the summed form are asked.
    fn guard_term(&self, own: &Self::State, neighbor: &Self::State) -> u64 {
        let _ = (own, neighbor);
        unreachable!("{} has no summed guard form", self.name())
    }

    /// The enabled rule of a vertex in state `own` whose neighbors' guard
    /// terms sum to `sum` (see [`Protocol::SUMMED_GUARD_MAX_DEGREE`]).
    ///
    /// # Panics
    ///
    /// The default panics: only protocols with the summed form are asked.
    fn rule_from_sum(&self, own: &Self::State, sum: u64) -> Option<RuleId> {
        let _ = (own, sum);
        unreachable!("{} has no summed guard form", self.name())
    }

    /// Samples a uniformly arbitrary state for `v`, used to build arbitrary
    /// initial configurations and to model transient faults.
    fn random_state(&self, v: VertexId, rng: &mut StdRng) -> Self::State;

    /// Enumerates the full state domain of vertex `v`, when finite and
    /// small enough for exhaustive analysis ([`crate::search`]).
    ///
    /// The default implementation returns `None` (domain too large or
    /// unbounded).
    fn state_domain(&self, v: VertexId) -> Option<Vec<Self::State>> {
        let _ = v;
        None
    }
}

/// Builds an arbitrary (uniformly random per-vertex) configuration, the
/// standard model of a system struck by a transient fault burst.
#[must_use]
pub fn random_configuration<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    rng: &mut StdRng,
) -> Configuration<P::State> {
    Configuration::from_fn(graph.n(), |v| protocol.random_state(v, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use specstab_topology::generators;

    /// Toy protocol: state is a counter, rule "INC" enabled while the
    /// counter is below the max of the neighborhood.
    struct Toy;
    impl Protocol for Toy {
        type State = u8;
        fn name(&self) -> String {
            "toy".into()
        }
        fn rules(&self) -> Vec<RuleInfo> {
            vec![RuleInfo::new("INC")]
        }
        fn enabled_rule(&self, view: &View<'_, u8>) -> Option<RuleId> {
            let m = view.neighbor_states().map(|(_, &s)| s).max().unwrap_or(0);
            (*view.state() < m).then_some(RuleId::new(0))
        }
        fn apply(&self, view: &View<'_, u8>, _rule: RuleId) -> u8 {
            view.state() + 1
        }
        fn random_state(&self, _v: VertexId, rng: &mut StdRng) -> u8 {
            use rand::Rng;
            rng.gen_range(0..4)
        }
        fn state_domain(&self, _v: VertexId) -> Option<Vec<u8>> {
            Some((0..4).collect())
        }
    }

    #[test]
    fn view_reads_own_and_neighbor_states() {
        let g = generators::path(3).unwrap();
        let c = Configuration::new(vec![10u8, 20, 30]);
        let v = View::new(VertexId::new(1), &g, &c);
        assert_eq!(*v.state(), 20);
        assert_eq!(v.degree(), 2);
        let ns: Vec<u8> = v.neighbor_states().map(|(_, &s)| s).collect();
        assert_eq!(ns, vec![10, 30]);
        assert_eq!(*v.state_of(VertexId::new(0)), 10);
        assert_eq!(*v.state_of(VertexId::new(1)), 20);
    }

    #[test]
    #[should_panic(expected = "locality violation")]
    fn view_panics_on_non_neighbor_read() {
        let g = generators::path(3).unwrap();
        let c = Configuration::new(vec![10u8, 20, 30]);
        let v = View::new(VertexId::new(0), &g, &c);
        let _ = v.state_of(VertexId::new(2));
    }

    #[test]
    fn toy_protocol_enablement() {
        let g = generators::path(3).unwrap();
        let c = Configuration::new(vec![0u8, 3, 1]);
        let proto = Toy;
        let v0 = View::new(VertexId::new(0), &g, &c);
        let v1 = View::new(VertexId::new(1), &g, &c);
        assert_eq!(proto.enabled_rule(&v0), Some(RuleId::new(0)));
        assert_eq!(proto.enabled_rule(&v1), None);
    }

    #[test]
    fn random_configuration_is_seed_deterministic() {
        let g = generators::ring(6).unwrap();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let c1 = random_configuration(&g, &Toy, &mut r1);
        let c2 = random_configuration(&g, &Toy, &mut r2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn rule_info_display() {
        assert_eq!(RuleInfo::new("NA").to_string(), "NA");
        assert_eq!(RuleId::new(2).to_string(), "rule#2");
        assert_eq!(RuleId::new(2).index(), 2);
    }
}
