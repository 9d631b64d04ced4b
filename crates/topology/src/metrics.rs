//! BFS-based graph metrics: distances, eccentricities, diameter, girth.
//!
//! The paper's complexity statements are functions of `n`, `m` and
//! `diam(g)`; the SSME protocol itself takes `diam(g)` as a constant known
//! to every vertex. Everything here rests on one primitive, [`bfs_into`]:
//! a breadth-first search over caller-owned buffers. [`diameter`] runs it
//! once per vertex over two reused `O(n)` buffers, which is all a consumer
//! of `diam(g)` needs; [`DistanceMatrix`] keeps every row, giving exact
//! all-pairs distances in `O(n²)` memory for tests, experiments and
//! examples that read arbitrary pairs.

use crate::graph::{Graph, VertexId};
use std::collections::VecDeque;

/// The distance [`bfs_into`] leaves at vertices the search did not reach
/// (another component).
pub const UNREACHED: u32 = u32::MAX;

/// Breadth-first search from `source` over caller-owned buffers.
///
/// Writes `dist(source, x)` into `dist[x]` ([`UNREACHED`] for vertices in
/// other components) and leaves the reached vertices in `queue`, in BFS
/// order, so `queue.len() == g.n()` exactly when the graph is connected.
/// Returns the eccentricity of `source` within its component. Neither
/// buffer is reallocated once `queue` has held `n` vertices, so a sweep
/// over every source allocates nothing after its first search.
///
/// ```
/// use specstab_topology::{generators, metrics::bfs_into, VertexId};
///
/// let g = generators::path(4).expect("n >= 1");
/// let (mut dist, mut queue) = (vec![0; g.n()], Vec::new());
/// assert_eq!(bfs_into(&g, VertexId::new(1), &mut dist, &mut queue), 2);
/// assert_eq!(dist, vec![1, 0, 1, 2]);
/// assert_eq!(queue.len(), 4);
/// ```
///
/// # Panics
///
/// Panics if `dist.len() != g.n()` or `source` is out of range.
pub fn bfs_into(g: &Graph, source: VertexId, dist: &mut [u32], queue: &mut Vec<VertexId>) -> u32 {
    assert_eq!(dist.len(), g.n(), "the distance row must have one entry per vertex");
    dist.fill(UNREACHED);
    queue.clear();
    queue.reserve(g.n());
    dist[source.index()] = 0;
    queue.push(source);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let next = dist[u.index()] + 1;
        for &w in g.neighbors(u) {
            if dist[w.index()] == UNREACHED {
                dist[w.index()] = next;
                queue.push(w);
            }
        }
    }
    // BFS dequeues in nondecreasing distance: the last vertex is farthest.
    queue.last().map_or(0, |&x| dist[x.index()])
}

/// Single-source BFS distances from `source`.
///
/// Unreachable vertices get `None`.
#[must_use]
pub fn bfs_distances(g: &Graph, source: VertexId) -> Vec<Option<u32>> {
    let mut dist = vec![0; g.n()];
    bfs_into(g, source, &mut dist, &mut Vec::new());
    dist.into_iter().map(|d| (d != UNREACHED).then_some(d)).collect()
}

/// `diam(g)` of a **connected** graph: the largest eccentricity, from one
/// [`bfs_into`] per vertex over two reused buffers (`O(n·m)` time, `O(n)`
/// memory, no distance matrix). `0` for the empty graph.
///
/// ```
/// use specstab_topology::{generators, metrics};
///
/// assert_eq!(metrics::diameter(&generators::torus(4, 6).expect("valid")), 5);
/// ```
///
/// # Panics
///
/// Panics if the graph is disconnected, like [`DistanceMatrix::new`].
#[must_use]
pub fn diameter(g: &Graph) -> u32 {
    let mut dist = vec![0; g.n()];
    let mut queue = Vec::with_capacity(g.n());
    let mut diam = 0;
    for v in g.vertices() {
        diam = diam.max(bfs_into(g, v, &mut dist, &mut queue));
        assert_eq!(queue.len(), g.n(), "diameter requires a connected graph");
    }
    diam
}

/// All-pairs shortest-path distances of a **connected** graph.
///
/// ```
/// use specstab_topology::{generators, metrics::DistanceMatrix, VertexId};
///
/// let g = generators::ring(6).expect("n >= 3");
/// let dm = DistanceMatrix::new(&g);
/// assert_eq!(dm.dist(VertexId::new(0), VertexId::new(3)), 3);
/// assert_eq!(dm.diameter(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<u32>, // row-major n x n
}

impl DistanceMatrix {
    /// Computes all-pairs distances with one [`bfs_into`] per vertex,
    /// each writing its row of the matrix in place.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected; the simulation model assumes
    /// connected communication graphs and every generator guarantees it.
    #[must_use]
    pub fn new(g: &Graph) -> Self {
        let n = g.n();
        let mut dist = vec![0; n * n];
        let mut queue = Vec::with_capacity(n);
        for (v, row) in g.vertices().zip(dist.chunks_exact_mut(n.max(1))) {
            bfs_into(g, v, row, &mut queue);
            assert_eq!(queue.len(), n, "DistanceMatrix requires a connected graph");
        }
        Self { n, dist }
    }

    /// Number of vertices.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance `dist(g, u, v)` (length of a shortest path).
    ///
    /// # Panics
    ///
    /// Panics if either vertex index is out of range.
    #[must_use]
    pub fn dist(&self, u: VertexId, v: VertexId) -> u32 {
        assert!(u.index() < self.n && v.index() < self.n, "vertex out of range");
        self.dist[u.index() * self.n + v.index()]
    }

    /// Eccentricity of `v`: the maximum distance from `v` to any vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn eccentricity(&self, v: VertexId) -> u32 {
        assert!(v.index() < self.n, "vertex out of range");
        let row = &self.dist[v.index() * self.n..(v.index() + 1) * self.n];
        row.iter().copied().max().unwrap_or(0)
    }

    /// `diam(g)`: the maximum distance between any two vertices.
    #[must_use]
    pub fn diameter(&self) -> u32 {
        (0..self.n).map(|v| self.eccentricity(VertexId::new(v))).max().unwrap_or(0)
    }

    /// Radius: the minimum eccentricity.
    #[must_use]
    pub fn radius(&self) -> u32 {
        (0..self.n).map(|v| self.eccentricity(VertexId::new(v))).min().unwrap_or(0)
    }

    /// A pair `(u, v)` realizing the diameter (`dist(u, v) == diam(g)`).
    ///
    /// Used by the Theorem 4 lower-bound construction, which places the two
    /// colliding privileged vertices at distance exactly `diam(g)`.
    #[must_use]
    pub fn peripheral_pair(&self) -> (VertexId, VertexId) {
        let mut best = (VertexId::new(0), VertexId::new(0), 0u32);
        for u in 0..self.n {
            for v in 0..self.n {
                let d = self.dist[u * self.n + v];
                if d > best.2 {
                    best = (VertexId::new(u), VertexId::new(v), d);
                }
            }
        }
        (best.0, best.1)
    }

    /// All vertices within distance `r` of `center` (the closed ball).
    #[must_use]
    pub fn ball(&self, center: VertexId, r: u32) -> Vec<VertexId> {
        (0..self.n).map(VertexId::new).filter(|&u| self.dist(center, u) <= r).collect()
    }
}

/// Girth: length of a shortest cycle, or `None` for forests.
///
/// Runs a BFS from every vertex, detecting the shortest cycle through each
/// root (standard `O(n·m)` algorithm, exact for simple graphs).
#[must_use]
pub fn girth(g: &Graph) -> Option<u32> {
    let mut best: Option<u32> = None;
    for root in g.vertices() {
        let mut dist = vec![UNREACHED; g.n()];
        let mut parent = vec![usize::MAX; g.n()];
        let mut queue = VecDeque::new();
        dist[root.index()] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                if dist[w.index()] == UNREACHED {
                    dist[w.index()] = dist[u.index()] + 1;
                    parent[w.index()] = u.index();
                    queue.push_back(w);
                } else if parent[u.index()] != w.index() {
                    // Non-tree edge: cycle through root of length
                    // dist(u) + dist(w) + 1 (may overestimate for cycles not
                    // through the root, but the minimum over all roots is
                    // exact).
                    let len = dist[u.index()] + dist[w.index()] + 1;
                    best = Some(best.map_or(len, |b| b.min(len)));
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::GraphBuilder;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(4).unwrap();
        let d = bfs_distances(&g, VertexId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let g = GraphBuilder::new(3).edge(0, 1).build().unwrap();
        let d = bfs_distances(&g, VertexId::new(0));
        assert_eq!(d[2], None);
    }

    /// Every generator family at small sizes, by topology spec.
    fn families() -> Vec<Graph> {
        [
            "ring:3",
            "ring:8",
            "ring:11",
            "path:1",
            "path:2",
            "path:7",
            "star:2",
            "star:6",
            "complete:1",
            "complete:5",
            "grid:1x5",
            "grid:3x4",
            "torus:3x3",
            "torus:4x6",
            "hypercube:1",
            "hypercube:4",
            "tree:9",
            "tree:13:7",
            "bintree:10",
            "caterpillar:4x2",
            "wheel:7",
            "lollipop:4x3",
            "barbell:3x2",
            "petersen",
            "er:12:0.3:1",
            "er:16:0.1:5",
        ]
        .iter()
        .map(|s| crate::spec::parse_spec(s).unwrap())
        .collect()
    }

    #[test]
    fn diameter_equals_the_matrix_diameter_on_every_family() {
        for g in families() {
            assert_eq!(diameter(&g), DistanceMatrix::new(&g).diameter(), "{}", g.name());
        }
    }

    #[test]
    fn bfs_into_rows_equal_the_matrix_rows_over_reused_buffers() {
        let (mut dist, mut queue) = (Vec::new(), Vec::new());
        for g in families() {
            let dm = DistanceMatrix::new(&g);
            dist.resize(g.n(), 0);
            for v in g.vertices() {
                let ecc = bfs_into(&g, v, &mut dist, &mut queue);
                assert_eq!(ecc, dm.eccentricity(v), "{} from {v}", g.name());
                assert!(g.vertices().all(|u| dist[u.index()] == dm.dist(v, u)), "{}", g.name());
                assert_eq!(queue.len(), g.n());
                assert_eq!(queue[0], v);
                assert!(queue.windows(2).all(|w| dist[w[0].index()] <= dist[w[1].index()]));
            }
        }
    }

    #[test]
    fn bfs_into_marks_other_components_unreached() {
        let g = GraphBuilder::new(4).edge(0, 1).edge(2, 3).build().unwrap();
        let (mut dist, mut queue) = (vec![7; 4], Vec::new());
        assert_eq!(bfs_into(&g, VertexId::new(3), &mut dist, &mut queue), 1);
        assert_eq!(dist, vec![UNREACHED, UNREACHED, 1, 0]);
        assert_eq!(queue, vec![VertexId::new(3), VertexId::new(2)]);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn diameter_rejects_disconnected_graphs() {
        let g = GraphBuilder::new(3).edge(0, 1).build().unwrap();
        let _ = diameter(&g);
    }

    #[test]
    fn distances_symmetric_on_ring() {
        let g = generators::ring(7).unwrap();
        let dm = DistanceMatrix::new(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(dm.dist(u, v), dm.dist(v, u));
            }
        }
    }

    #[test]
    fn ring_diameter_is_half() {
        for n in 3..12 {
            let g = generators::ring(n).unwrap();
            assert_eq!(DistanceMatrix::new(&g).diameter() as usize, n / 2, "ring-{n}");
        }
    }

    #[test]
    fn path_radius_and_diameter() {
        let g = generators::path(9).unwrap();
        let dm = DistanceMatrix::new(&g);
        assert_eq!(dm.diameter(), 8);
        assert_eq!(dm.radius(), 4);
    }

    #[test]
    fn peripheral_pair_realizes_diameter() {
        for g in [
            generators::ring(9).unwrap(),
            generators::grid(3, 5).unwrap(),
            generators::random_tree(17, 3).unwrap(),
        ] {
            let dm = DistanceMatrix::new(&g);
            let (u, v) = dm.peripheral_pair();
            assert_eq!(dm.dist(u, v), dm.diameter(), "{}", g.name());
        }
    }

    #[test]
    fn ball_of_radius_zero_is_center() {
        let g = generators::grid(3, 3).unwrap();
        let dm = DistanceMatrix::new(&g);
        assert_eq!(dm.ball(VertexId::new(4), 0), vec![VertexId::new(4)]);
    }

    #[test]
    fn ball_grows_with_radius() {
        let g = generators::grid(3, 3).unwrap();
        let dm = DistanceMatrix::new(&g);
        let center = VertexId::new(4); // middle of the grid
        assert_eq!(dm.ball(center, 1).len(), 5);
        assert_eq!(dm.ball(center, 2).len(), 9);
    }

    #[test]
    fn girth_of_ring_is_n() {
        for n in 3..10 {
            let g = generators::ring(n).unwrap();
            assert_eq!(girth(&g), Some(n as u32));
        }
    }

    #[test]
    fn girth_of_tree_is_none() {
        let g = generators::binary_tree(15).unwrap();
        assert_eq!(girth(&g), None);
    }

    #[test]
    fn girth_of_complete_is_three() {
        let g = generators::complete(6).unwrap();
        assert_eq!(girth(&g), Some(3));
    }

    #[test]
    fn girth_of_petersen_is_five() {
        assert_eq!(girth(&generators::petersen()), Some(5));
    }

    #[test]
    fn girth_of_grid_is_four() {
        let g = generators::grid(3, 4).unwrap();
        assert_eq!(girth(&g), Some(4));
    }

    #[test]
    fn triangle_inequality_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::erdos_renyi_connected(20, 0.1, seed).unwrap();
            let dm = DistanceMatrix::new(&g);
            for u in g.vertices() {
                for v in g.vertices() {
                    for w in g.vertices() {
                        assert!(dm.dist(u, w) <= dm.dist(u, v) + dm.dist(v, w));
                    }
                }
            }
        }
    }

    #[test]
    fn neighbors_are_at_distance_one() {
        let g = generators::petersen();
        let dm = DistanceMatrix::new(&g);
        for &(u, v) in g.edges() {
            assert_eq!(dm.dist(u, v), 1);
        }
    }
}
