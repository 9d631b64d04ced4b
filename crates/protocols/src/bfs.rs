//! The `min+1` self-stabilizing BFS protocol of Huang & Chen (1992).
//!
//! Section 3 of the paper lists it as `(ud, sd, n², diam)`-speculatively
//! stabilizing for BFS spanning-tree construction: `Θ(n²)` steps under the
//! unfair distributed daemon, `Θ(diam(g))` under the synchronous one.
//!
//! Each vertex holds a level in the bounded domain `{0, .., n}`. The root
//! corrects itself to level `0`; every other vertex corrects itself to
//! `min(levels of neighbors) + 1` (capped at `n`). The BFS *tree* is then
//! read off by parenting each vertex to its smallest-index neighbor of
//! minimal level.

use rand::rngs::StdRng;
use rand::Rng;
use specstab_kernel::config::Configuration;
use specstab_kernel::protocol::{Protocol, RuleId, RuleInfo, View};
use specstab_kernel::spec::{Aggregate, LocalCounts, LocalSpecification, Specification};
use specstab_topology::metrics;
use specstab_topology::{Graph, VertexId};

/// Rule index: the unique "adopt correct level" rule.
pub const ADJUST: RuleId = RuleId::new(0);

/// The `min+1` BFS protocol rooted at a designated vertex.
#[derive(Clone, Debug)]
pub struct MinPlusOneBfs {
    root: VertexId,
    n: usize,
}

impl MinPlusOneBfs {
    /// Creates the protocol for a graph of `n` vertices rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    #[must_use]
    pub fn new(graph: &Graph, root: VertexId) -> Self {
        assert!(root.index() < graph.n(), "root out of range");
        Self { root, n: graph.n() }
    }

    /// The root vertex.
    #[must_use]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// The level a vertex *should* hold given its neighborhood.
    fn target_level(&self, view: &View<'_, u32>) -> u32 {
        if view.vertex() == self.root {
            0
        } else {
            let min = view
                .neighbor_states()
                .map(|(_, &l)| l)
                .min()
                .expect("connected graph: non-root has neighbors");
            (min + 1).min(self.n as u32)
        }
    }

    /// Reads off the BFS tree: `parent[v]` is the smallest-index neighbor
    /// with minimal level (`None` for the root).
    #[must_use]
    pub fn parents(&self, config: &Configuration<u32>, graph: &Graph) -> Vec<Option<VertexId>> {
        graph
            .vertices()
            .map(|v| {
                if v == self.root {
                    None
                } else {
                    graph.neighbors(v).iter().copied().min_by_key(|&u| (*config.get(u), u))
                }
            })
            .collect()
    }
}

impl Protocol for MinPlusOneBfs {
    type State = u32;

    fn name(&self) -> String {
        format!("min+1-bfs[n={}, root={}]", self.n, self.root)
    }

    fn rules(&self) -> Vec<RuleInfo> {
        vec![RuleInfo::new("ADJUST")]
    }

    fn enabled_rule(&self, view: &View<'_, u32>) -> Option<RuleId> {
        (*view.state() != self.target_level(view)).then_some(ADJUST)
    }

    fn apply(&self, view: &View<'_, u32>, _rule: RuleId) -> u32 {
        self.target_level(view)
    }

    fn random_state(&self, _v: VertexId, rng: &mut StdRng) -> u32 {
        rng.gen_range(0..=self.n as u32)
    }

    fn state_domain(&self, _v: VertexId) -> Option<Vec<u32>> {
        Some((0..=self.n as u32).collect())
    }
}

/// Specification: levels equal true BFS distances from the root.
#[derive(Clone, Debug)]
pub struct BfsSpec {
    root: VertexId,
    dist: Vec<u32>,
}

impl BfsSpec {
    /// Creates the specification: the true distances are one BFS row
    /// from `root`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected or `root` is out of range.
    #[must_use]
    pub fn new(graph: &Graph, root: VertexId) -> Self {
        let mut dist = vec![0; graph.n()];
        let mut queue = Vec::new();
        metrics::bfs_into(graph, root, &mut dist, &mut queue);
        assert_eq!(queue.len(), graph.n(), "BfsSpec requires a connected graph");
        Self { root, dist }
    }

    /// The root this specification checks against.
    #[must_use]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// The true BFS distances from the root, indexed by vertex — the
    /// specification's reference levels (and the protocol's unique
    /// terminal configuration).
    #[must_use]
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }
}

impl Specification<u32> for BfsSpec {
    fn name(&self) -> String {
        "spec(bfs-levels)".into()
    }
    /// Levels are "safe" once correct — for a construction task the safety
    /// and legitimacy predicates coincide (the interesting measure is the
    /// convergence time to the closed legitimate set).
    fn is_safe(&self, config: &Configuration<u32>, graph: &Graph) -> bool {
        self.is_legitimate(config, graph)
    }
    fn is_legitimate(&self, config: &Configuration<u32>, _graph: &Graph) -> bool {
        config.iter().all(|(v, &l)| l == self.dist[v.index()])
    }
}

/// Both totals count vertices whose level differs from the true distance
/// (radius 0); the predicates hold when none does.
impl LocalSpecification<u32> for BfsSpec {
    fn radius(&self) -> u32 {
        0
    }
    fn local_counts(
        &self,
        v: VertexId,
        config: &Configuration<u32>,
        _graph: &Graph,
    ) -> LocalCounts {
        let wrong = u32::from(*config.get(v) != self.dist[v.index()]);
        LocalCounts { safety: wrong, legitimacy: wrong }
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
    use specstab_topology::metrics::DistanceMatrix;

    #[test]
    fn spec_distances_equal_the_matrix_row() {
        for spec in ["ring:9", "path:7", "star:5", "grid:3x4", "torus:4x5", "tree:11", "petersen"] {
            let g = specstab_topology::spec::parse_spec(spec).unwrap();
            let dm = DistanceMatrix::new(&g);
            for root in g.vertices() {
                let row: Vec<u32> = g.vertices().map(|v| dm.dist(root, v)).collect();
                assert_eq!(BfsSpec::new(&g, root).distances(), &row[..], "{spec} from {root}");
            }
        }
    }

    #[test]
    fn terminal_configuration_is_bfs_levels() {
        for g in [
            generators::grid(3, 3).unwrap(),
            generators::petersen(),
            generators::random_tree(12, 4).unwrap(),
        ] {
            let p = MinPlusOneBfs::new(&g, VertexId::new(0));
            let spec = BfsSpec::new(&g, VertexId::new(0));
            let sim = Simulator::new(&g, &p);
            let mut rng = StdRng::seed_from_u64(1);
            let init = random_configuration(&g, &p, &mut rng);
            let mut d = SynchronousDaemon::new();
            let s = sim.run(init, &mut d, RunLimits::with_max_steps(10_000), &mut []);
            assert_eq!(s.stop, StopReason::Terminal, "{}", g.name());
            assert!(spec.is_legitimate(&s.final_config, &g), "{}", g.name());
        }
    }

    #[test]
    fn synchronous_convergence_within_eccentricity_plus_margin() {
        // Θ(diam) under sd: measured ≤ ecc(root) + 2 on all samples (the
        // +2 covers the lift of spuriously low levels near the root).
        for g in [
            generators::path(10).unwrap(),
            generators::grid(3, 4).unwrap(),
            generators::ring(9).unwrap(),
        ] {
            let root = VertexId::new(0);
            let p = MinPlusOneBfs::new(&g, root);
            let dm = DistanceMatrix::new(&g);
            let ecc = dm.eccentricity(root) as usize;
            let sim = Simulator::new(&g, &p);
            for seed in 0..20 {
                let mut rng = StdRng::seed_from_u64(seed);
                let init = random_configuration(&g, &p, &mut rng);
                let mut d = SynchronousDaemon::new();
                let s = sim.run(init, &mut d, RunLimits::with_max_steps(10_000), &mut []);
                assert_eq!(s.stop, StopReason::Terminal);
                assert!(
                    s.steps <= ecc + 2,
                    "{} seed {seed}: {} sync steps > ecc {ecc} + 2",
                    g.name(),
                    s.steps
                );
            }
        }
    }

    #[test]
    fn converges_under_asynchronous_daemons() {
        let g = generators::grid(3, 3).unwrap();
        let p = MinPlusOneBfs::new(&g, VertexId::new(0));
        let spec = BfsSpec::new(&g, VertexId::new(0));
        let sim = Simulator::new(&g, &p);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = random_configuration(&g, &p, &mut rng);
            for daemon in [true, false] {
                let s = if daemon {
                    let mut d = CentralDaemon::new(CentralStrategy::Random(seed));
                    sim.run(init.clone(), &mut d, RunLimits::with_max_steps(100_000), &mut [])
                } else {
                    let mut d = RandomDistributedDaemon::new(0.4, seed);
                    sim.run(init.clone(), &mut d, RunLimits::with_max_steps(100_000), &mut [])
                };
                assert_eq!(s.stop, StopReason::Terminal);
                assert!(spec.is_legitimate(&s.final_config, &g));
            }
        }
    }

    #[test]
    fn exact_worst_case_under_central_daemon_on_tiny_path() {
        // path-3 rooted at an end: domain {0..3}^3 = 64 configs.
        let g = generators::path(3).unwrap();
        let p = MinPlusOneBfs::new(&g, VertexId::new(0));
        let spec = BfsSpec::new(&g, VertexId::new(0));
        let all = enumerate_all_configurations(&g, &p, 100_000).unwrap();
        let cg = build_config_graph(&g, &p, &all, SearchDaemon::Central, 1_000_000).unwrap();
        let worst = worst_steps_to(&cg, |c| spec.is_legitimate(c, &g)).unwrap();
        let max = worst.iter().max().copied().unwrap();
        // Central worst case exceeds the sync one (superlinear behavior).
        let cg_sync =
            build_config_graph(&g, &p, &all, SearchDaemon::Synchronous, 1_000_000).unwrap();
        let worst_sync = worst_steps_to(&cg_sync, |c| spec.is_legitimate(c, &g)).unwrap();
        let max_sync = worst_sync.iter().max().copied().unwrap();
        assert!(max > max_sync, "central {max} should exceed sync {max_sync}");
    }

    #[test]
    fn exact_distributed_worst_case_converges() {
        let g = generators::path(3).unwrap();
        let p = MinPlusOneBfs::new(&g, VertexId::new(0));
        let spec = BfsSpec::new(&g, VertexId::new(0));
        let all = enumerate_all_configurations(&g, &p, 100_000).unwrap();
        let cg = build_config_graph(
            &g,
            &p,
            &all,
            SearchDaemon::Distributed { max_enabled: 3 },
            2_000_000,
        )
        .unwrap();
        assert!(worst_steps_to(&cg, |c| spec.is_legitimate(c, &g)).is_ok());
    }

    #[test]
    fn parents_form_a_bfs_tree_at_legitimacy() {
        let g = generators::grid(3, 4).unwrap();
        let root = VertexId::new(0);
        let p = MinPlusOneBfs::new(&g, root);
        let dm = DistanceMatrix::new(&g);
        let legit = Configuration::from_fn(g.n(), |v| dm.dist(root, v));
        let parents = p.parents(&legit, &g);
        assert_eq!(parents[root.index()], None);
        for v in g.vertices() {
            if v == root {
                continue;
            }
            let parent = parents[v.index()].expect("non-root has a parent");
            assert!(g.contains_edge(v, parent));
            assert_eq!(dm.dist(root, parent) + 1, dm.dist(root, v), "{v}");
        }
    }

    #[test]
    fn levels_are_capped_at_n() {
        let g = generators::path(3).unwrap();
        let p = MinPlusOneBfs::new(&g, VertexId::new(0));
        // All vertices at the cap: only root and its neighbor enabled...
        let init = Configuration::new(vec![3u32, 3, 3]);
        let sim = Simulator::new(&g, &p);
        let mut d = SynchronousDaemon::new();
        let s = sim.run(init, &mut d, RunLimits::with_max_steps(100), &mut []);
        assert_eq!(s.final_config.states(), &[0, 1, 2]);
    }

    #[test]
    fn root_always_corrects_itself_first() {
        let g = generators::star(5).unwrap();
        let p = MinPlusOneBfs::new(&g, VertexId::new(0));
        let init = Configuration::new(vec![5u32, 0, 0, 0, 0]);
        let view = View::new(VertexId::new(0), &g, &init);
        assert_eq!(p.enabled_rule(&view), Some(ADJUST));
        assert_eq!(p.apply(&view, ADJUST), 0);
    }
}
