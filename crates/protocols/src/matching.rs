//! The self-stabilizing maximal matching protocol of Manne, Mjelde, Pilard
//! & Tixeuil (TCS 2009).
//!
//! Section 3 of the paper lists it as `(ud, sd, m, n)`-speculatively
//! stabilizing: at most `4n + 2m` moves under the unfair distributed
//! daemon and `2n + 1` steps under the synchronous one.
//!
//! Each vertex `v` holds a pointer `p_v ∈ neig(v) ∪ {⊥}` and a boolean
//! `m_v` ("married"). With `PRmarried(v) ≡ ∃u ∈ neig(v): p_v = u ∧ p_u = v`:
//!
//! ```text
//! Update      :: m_v ≠ PRmarried(v) → m_v := PRmarried(v)
//! Marriage    :: m_v = PRmarried(v) ∧ p_v = ⊥ ∧ ∃u: p_u = v
//!                → p_v := min such u
//! Seduction   :: m_v = PRmarried(v) ∧ p_v = ⊥ ∧ ∀u: p_u ≠ v
//!                ∧ ∃u: (p_u = ⊥ ∧ ¬m_u ∧ u > v)
//!                → p_v := max such u
//! Abandonment :: m_v = PRmarried(v) ∧ p_v = u ∧ p_u ≠ v ∧ (m_u ∨ u < v)
//!                → p_v := ⊥
//! ```
//!
//! Proposals flow from smaller to larger identifiers; a proposal is
//! abandoned once its target is married or could never have been a valid
//! target. Terminal configurations carry a maximal matching
//! `{(u, v) : p_u = v ∧ p_v = u}` (proved in the source paper; validated
//! exhaustively here).

use rand::rngs::StdRng;
use rand::Rng;
use specstab_kernel::config::Configuration;
use specstab_kernel::protocol::{Protocol, RuleId, RuleInfo, View};
use specstab_kernel::spec::{Aggregate, LocalCounts, LocalSpecification, Specification};
use specstab_topology::{Graph, VertexId};
use std::fmt;

/// Rule indices.
pub mod rules {
    use specstab_kernel::protocol::RuleId;

    /// Correct the married flag.
    pub const UPDATE: RuleId = RuleId::new(0);
    /// Accept a proposal.
    pub const MARRIAGE: RuleId = RuleId::new(1);
    /// Propose to the best available higher neighbor.
    pub const SEDUCTION: RuleId = RuleId::new(2);
    /// Retract a hopeless proposal.
    pub const ABANDONMENT: RuleId = RuleId::new(3);
}

/// Per-vertex state: pointer + married flag.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct MatchState {
    /// The proposal/marriage pointer `p_v` (`None` is the paper's `⊥`).
    pub pointer: Option<VertexId>,
    /// The married flag `m_v`.
    pub married: bool,
}

impl fmt::Display for MatchState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pointer {
            Some(u) => write!(f, "→{u}{}", if self.married { "♥" } else { "" }),
            None => write!(f, "⊥{}", if self.married { "♥" } else { "" }),
        }
    }
}

/// The maximal matching protocol bound to one graph (it stores the
/// adjacency lists to expose per-vertex state domains).
#[derive(Clone, Debug)]
pub struct MaximalMatching {
    adjacency: Vec<Vec<VertexId>>,
}

impl MaximalMatching {
    /// Creates the protocol for `graph`.
    #[must_use]
    pub fn new(graph: &Graph) -> Self {
        Self { adjacency: graph.vertices().map(|v| graph.neighbors(v).to_vec()).collect() }
    }

    /// `PRmarried(v)` in `config`.
    #[must_use]
    pub fn pr_married(&self, v: VertexId, config: &Configuration<MatchState>) -> bool {
        match config.get(v).pointer {
            Some(u) => config.get(u).pointer == Some(v),
            None => false,
        }
    }

    /// The matched pairs `{(u, v) : u < v, p_u = v, p_v = u}`.
    #[must_use]
    pub fn matching(&self, config: &Configuration<MatchState>) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for (v, s) in config.iter() {
            if let Some(u) = s.pointer {
                if u > v && config.get(u).pointer == Some(v) {
                    out.push((v, u));
                }
            }
        }
        out
    }

    fn pr_married_view(view: &View<'_, MatchState>) -> bool {
        match view.state().pointer {
            Some(u) => view.state_of(u).pointer == Some(view.vertex()),
            None => false,
        }
    }
}

impl Protocol for MaximalMatching {
    type State = MatchState;

    fn name(&self) -> String {
        format!("maximal-matching[n={}]", self.adjacency.len())
    }

    fn rules(&self) -> Vec<RuleInfo> {
        vec![
            RuleInfo::new("Update"),
            RuleInfo::new("Marriage"),
            RuleInfo::new("Seduction"),
            RuleInfo::new("Abandonment"),
        ]
    }

    fn enabled_rule(&self, view: &View<'_, MatchState>) -> Option<RuleId> {
        let v = view.vertex();
        let st = *view.state();
        let pr = Self::pr_married_view(view);
        if st.married != pr {
            return Some(rules::UPDATE);
        }
        match st.pointer {
            None => {
                if view.neighbor_states().any(|(_, s)| s.pointer == Some(v)) {
                    return Some(rules::MARRIAGE);
                }
                let candidate =
                    view.neighbor_states().any(|(u, s)| s.pointer.is_none() && !s.married && u > v);
                if candidate {
                    return Some(rules::SEDUCTION);
                }
                None
            }
            Some(u) => {
                let su = *view.state_of(u);
                if su.pointer != Some(v) && (su.married || u < v) {
                    return Some(rules::ABANDONMENT);
                }
                None
            }
        }
    }

    fn apply(&self, view: &View<'_, MatchState>, rule: RuleId) -> MatchState {
        let v = view.vertex();
        let mut st = *view.state();
        match rule {
            rules::UPDATE => st.married = Self::pr_married_view(view),
            rules::MARRIAGE => {
                let suitor = view
                    .neighbor_states()
                    .filter(|&(_, s)| s.pointer == Some(v))
                    .map(|(u, _)| u)
                    .min()
                    .expect("marriage guard guarantees a suitor");
                st.pointer = Some(suitor);
            }
            rules::SEDUCTION => {
                let target = view
                    .neighbor_states()
                    .filter(|&(u, s)| s.pointer.is_none() && !s.married && u > v)
                    .map(|(u, _)| u)
                    .max()
                    .expect("seduction guard guarantees a target");
                st.pointer = Some(target);
            }
            rules::ABANDONMENT => st.pointer = None,
            other => panic!("maximal matching has no rule {other}"),
        }
        st
    }

    fn random_state(&self, v: VertexId, rng: &mut StdRng) -> MatchState {
        let neighbors = &self.adjacency[v.index()];
        let idx = rng.gen_range(0..=neighbors.len());
        MatchState {
            pointer: (idx < neighbors.len()).then(|| neighbors[idx]),
            married: rng.gen_bool(0.5),
        }
    }

    fn state_domain(&self, v: VertexId) -> Option<Vec<MatchState>> {
        let neighbors = &self.adjacency[v.index()];
        let mut out = Vec::with_capacity(2 * (neighbors.len() + 1));
        for married in [false, true] {
            out.push(MatchState { pointer: None, married });
            for &u in neighbors {
                out.push(MatchState { pointer: Some(u), married });
            }
        }
        Some(out)
    }
}

/// Specification: the married pairs form a **maximal** matching, flags are
/// consistent and no one-sided proposals remain (equivalently: the
/// configuration is terminal — validated exhaustively in tests).
#[derive(Clone, Debug)]
pub struct MatchingSpec {
    protocol: MaximalMatching,
}

impl MatchingSpec {
    /// Creates the specification for a protocol instance.
    #[must_use]
    pub fn new(protocol: MaximalMatching) -> Self {
        Self { protocol }
    }

    /// Whether the matched pairs of `config` form a *maximal* matching.
    #[must_use]
    pub fn is_maximal_matching(&self, config: &Configuration<MatchState>, graph: &Graph) -> bool {
        graph.edges().iter().all(|&(u, v)| {
            self.protocol.pr_married(u, config) || self.protocol.pr_married(v, config)
        })
    }
}

impl Specification<MatchState> for MatchingSpec {
    fn name(&self) -> String {
        "spec(maximal-matching)".into()
    }
    fn is_safe(&self, config: &Configuration<MatchState>, graph: &Graph) -> bool {
        self.is_legitimate(config, graph)
    }
    fn is_legitimate(&self, config: &Configuration<MatchState>, graph: &Graph) -> bool {
        let flags_consistent =
            config.iter().all(|(v, s)| s.married == self.protocol.pr_married(v, config));
        let no_one_sided = config.iter().all(|(v, s)| match s.pointer {
            Some(u) => config.get(u).pointer == Some(v),
            None => true,
        });
        flags_consistent && no_one_sided && self.is_maximal_matching(config, graph)
    }
}

/// Both totals count *bad* vertices: an inconsistent married flag, a
/// one-sided pointer, or an unmarried flag next to an unmarried flag.
/// Legitimacy is "no bad vertex". Reading the flags instead of
/// `PRmarried` keeps the radius at 1 (pointers target neighbors) and is
/// exact: a zero total forces every flag to equal `PRmarried`, so two
/// adjacent unmarried flags are exactly an edge left uncovered by the
/// matching.
impl LocalSpecification<MatchState> for MatchingSpec {
    fn radius(&self) -> u32 {
        1
    }
    fn local_counts(
        &self,
        v: VertexId,
        config: &Configuration<MatchState>,
        graph: &Graph,
    ) -> LocalCounts {
        let s = *config.get(v);
        let one_sided = s.pointer.is_some_and(|u| config.get(u).pointer != Some(v));
        let bad = s.married != self.protocol.pr_married(v, config)
            || one_sided
            || (!s.married && graph.neighbors(v).iter().any(|&u| !config.get(u).married));
        let bad = u32::from(bad);
        LocalCounts { safety: bad, legitimacy: bad }
    }
    fn safety_rule(&self) -> Aggregate {
        Aggregate::AtMost(0)
    }
    fn legitimacy_rule(&self) -> Aggregate {
        Aggregate::AtMost(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use specstab_kernel::daemon::{
        CentralDaemon, CentralStrategy, RandomDistributedDaemon, SynchronousDaemon,
    };
    use specstab_kernel::engine::{RunLimits, Simulator, StopReason};
    use specstab_kernel::protocol::random_configuration;
    use specstab_kernel::search::{
        build_config_graph, enumerate_all_configurations, worst_steps_to, SearchDaemon,
    };
    use specstab_topology::generators;

    fn fresh(g: &Graph) -> Configuration<MatchState> {
        Configuration::from_fn(g.n(), |_| MatchState::default())
    }

    #[test]
    fn terminal_configurations_hold_maximal_matchings() {
        for g in [
            generators::path(7).unwrap(),
            generators::ring(8).unwrap(),
            generators::grid(3, 3).unwrap(),
            generators::petersen(),
            generators::complete(6).unwrap(),
            generators::star(7).unwrap(),
        ] {
            let p = MaximalMatching::new(&g);
            let spec = MatchingSpec::new(p.clone());
            let sim = Simulator::new(&g, &p);
            for seed in 0..5 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = random_configuration(&g, &p, &mut rng);
                let mut d = RandomDistributedDaemon::new(0.5, seed);
                let s = sim.run(init, &mut d, RunLimits::with_max_steps(100_000), &mut []);
                assert_eq!(s.stop, StopReason::Terminal, "{} seed {seed}", g.name());
                assert!(spec.is_legitimate(&s.final_config, &g), "{} seed {seed}", g.name());
                // The matching is nonempty whenever the graph has an edge.
                assert!(!p.matching(&s.final_config).is_empty(), "{}", g.name());
            }
        }
    }

    #[test]
    fn moves_respect_published_bound_under_async_daemons() {
        // Manne et al.: at most 4n + 2m moves under the unfair daemon.
        for g in [
            generators::ring(8).unwrap(),
            generators::grid(3, 4).unwrap(),
            generators::erdos_renyi_connected(10, 0.3, 3).unwrap(),
        ] {
            let bound = 4 * g.n() as u64 + 2 * g.m() as u64;
            let p = MaximalMatching::new(&g);
            let sim = Simulator::new(&g, &p);
            for seed in 0..8 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = random_configuration(&g, &p, &mut rng);
                for central in [true, false] {
                    let s = if central {
                        let mut d = CentralDaemon::new(CentralStrategy::Random(seed));
                        sim.run(init.clone(), &mut d, RunLimits::with_max_steps(1_000_000), &mut [])
                    } else {
                        let mut d = RandomDistributedDaemon::new(0.5, seed);
                        sim.run(init.clone(), &mut d, RunLimits::with_max_steps(1_000_000), &mut [])
                    };
                    assert_eq!(s.stop, StopReason::Terminal);
                    assert!(
                        s.moves <= bound,
                        "{} seed {seed}: {} moves > 4n+2m = {bound}",
                        g.name(),
                        s.moves
                    );
                }
            }
        }
    }

    #[test]
    fn synchronous_steps_respect_published_bound() {
        // 2n + 1 steps under the synchronous daemon.
        for g in [
            generators::ring(9).unwrap(),
            generators::grid(3, 3).unwrap(),
            generators::random_tree(12, 7).unwrap(),
        ] {
            let bound = 2 * g.n() + 1;
            let p = MaximalMatching::new(&g);
            let sim = Simulator::new(&g, &p);
            for seed in 0..10 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = random_configuration(&g, &p, &mut rng);
                let mut d = SynchronousDaemon::new();
                let s = sim.run(init, &mut d, RunLimits::with_max_steps(10_000), &mut []);
                assert_eq!(s.stop, StopReason::Terminal, "{} seed {seed}", g.name());
                assert!(
                    s.steps <= bound,
                    "{} seed {seed}: {} sync steps > 2n+1 = {bound}",
                    g.name(),
                    s.steps
                );
            }
        }
    }

    #[test]
    fn legitimate_iff_terminal_exhaustively_on_tiny_path() {
        let g = generators::path(3).unwrap();
        let p = MaximalMatching::new(&g);
        let spec = MatchingSpec::new(p.clone());
        let sim = Simulator::new(&g, &p);
        let all = enumerate_all_configurations(&g, &p, 1_000_000).unwrap();
        for c in &all {
            let terminal = sim.enabled_vertices(c).is_empty();
            assert_eq!(
                terminal,
                spec.is_legitimate(c, &g),
                "terminal/legitimate mismatch at {:?}",
                c.states()
            );
        }
    }

    #[test]
    fn exact_worst_case_converges_under_central_daemon() {
        let g = generators::path(3).unwrap();
        let p = MaximalMatching::new(&g);
        let spec = MatchingSpec::new(p.clone());
        let all = enumerate_all_configurations(&g, &p, 1_000_000).unwrap();
        let cg = build_config_graph(&g, &p, &all, SearchDaemon::Central, 2_000_000).unwrap();
        let worst = worst_steps_to(&cg, |c| spec.is_legitimate(c, &g)).unwrap();
        let max = worst.iter().max().copied().unwrap();
        let bound = 4 * g.n() as u32 + 2 * g.m() as u32;
        assert!(max <= bound, "exact central worst {max} exceeds 4n+2m = {bound}");
        assert!(max >= 2);
    }

    #[test]
    fn exact_worst_case_converges_under_distributed_daemon() {
        let g = generators::path(3).unwrap();
        let p = MaximalMatching::new(&g);
        let spec = MatchingSpec::new(p.clone());
        let all = enumerate_all_configurations(&g, &p, 1_000_000).unwrap();
        let cg = build_config_graph(
            &g,
            &p,
            &all,
            SearchDaemon::Distributed { max_enabled: 3 },
            5_000_000,
        )
        .unwrap();
        assert!(worst_steps_to(&cg, |c| spec.is_legitimate(c, &g)).is_ok());
    }

    #[test]
    fn seduction_targets_highest_free_neighbor() {
        let g = generators::star(4).unwrap(); // hub 0, leaves 1..3
        let p = MaximalMatching::new(&g);
        let init = fresh(&g);
        let view = View::new(VertexId::new(0), &g, &init);
        assert_eq!(p.enabled_rule(&view), Some(rules::SEDUCTION));
        let st = p.apply(&view, rules::SEDUCTION);
        assert_eq!(st.pointer, Some(VertexId::new(3)));
    }

    #[test]
    fn marriage_prefers_smallest_suitor() {
        let g = generators::star(4).unwrap();
        let mut c = fresh(&g);
        c.set(VertexId::new(1), MatchState { pointer: Some(VertexId::new(0)), married: false });
        c.set(VertexId::new(2), MatchState { pointer: Some(VertexId::new(0)), married: false });
        let view = View::new(VertexId::new(0), &g, &c);
        assert_eq!(p_rule(&g, &c), Some(rules::MARRIAGE));
        let p = MaximalMatching::new(&g);
        let st = p.apply(&view, rules::MARRIAGE);
        assert_eq!(st.pointer, Some(VertexId::new(1)));
    }

    fn p_rule(g: &Graph, c: &Configuration<MatchState>) -> Option<RuleId> {
        let p = MaximalMatching::new(g);
        p.enabled_rule(&View::new(VertexId::new(0), g, c))
    }

    #[test]
    fn abandonment_clears_hopeless_pointer() {
        let g = generators::path(2).unwrap();
        let p = MaximalMatching::new(&g);
        // v1 points at v0 (lower id — hopeless), v0 points nowhere.
        let mut c = fresh(&g);
        c.set(VertexId::new(1), MatchState { pointer: Some(VertexId::new(0)), married: false });
        // v0 sees a suitor → Marriage; v1's target has no pointer to v1 and
        // v0 < v1 → Abandonment.
        let v1 = View::new(VertexId::new(1), &g, &c);
        assert_eq!(p.enabled_rule(&v1), Some(rules::ABANDONMENT));
        assert_eq!(p.apply(&v1, rules::ABANDONMENT).pointer, None);
    }

    #[test]
    fn update_fixes_married_flag_first() {
        let g = generators::path(2).unwrap();
        let p = MaximalMatching::new(&g);
        let mut c = fresh(&g);
        c.set(VertexId::new(0), MatchState { pointer: None, married: true });
        let v0 = View::new(VertexId::new(0), &g, &c);
        assert_eq!(p.enabled_rule(&v0), Some(rules::UPDATE));
        assert!(!p.apply(&v0, rules::UPDATE).married);
    }

    #[test]
    fn matching_extraction() {
        let g = generators::path(4).unwrap();
        let p = MaximalMatching::new(&g);
        let mut c = fresh(&g);
        c.set(VertexId::new(0), MatchState { pointer: Some(VertexId::new(1)), married: true });
        c.set(VertexId::new(1), MatchState { pointer: Some(VertexId::new(0)), married: true });
        let m = p.matching(&c);
        assert_eq!(m, vec![(VertexId::new(0), VertexId::new(1))]);
    }

    #[test]
    fn state_domain_covers_pointers_and_flags() {
        let g = generators::star(4).unwrap();
        let p = MaximalMatching::new(&g);
        let hub = p.state_domain(VertexId::new(0)).unwrap();
        assert_eq!(hub.len(), 2 * 4); // (3 neighbors + ⊥) × 2 flags
        let leaf = p.state_domain(VertexId::new(1)).unwrap();
        assert_eq!(leaf.len(), 2 * 2);
    }
}
