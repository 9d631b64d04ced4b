//! Islands — the proof machinery of Definitions 5–6 and Lemmas 1–4.
//!
//! During convergence, vertices holding *correct* clock values cluster into
//! **islands**: sets of correct-valued vertices whose internal edges all
//! satisfy `correct` (both endpoints in `stab_X`, drift ≤ 1). A
//! *zero-island* contains a vertex whose clock reads exactly `0`; islands
//! shrink from their **border** inward, one layer per synchronous step
//! (Lemma 3) — that erosion rate is what limits how long a spurious
//! privilege can survive, and drives the `⌈diam/2⌉` bound.
//!
//! This module computes islands as connected components of the
//! correct-edge subgraph (the operative notion in the paper's proofs),
//! their borders and depths, so tests can validate the lemmas on real
//! executions.

use specstab_kernel::config::Configuration;
use specstab_topology::{Graph, VertexId};
use specstab_unison::clock::{CherryClock, ClockValue};
use std::collections::VecDeque;

/// An island of a configuration (Definitions 5–6).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Island {
    /// Vertices of the island, sorted.
    pub vertices: Vec<VertexId>,
    /// Border: island vertices adjacent to some vertex outside the island.
    pub border: Vec<VertexId>,
    /// Depth: `max_{v ∈ I} min_{b ∈ border(I)} dist(g, v, b)`; `0` when the
    /// island is all border, and `u32::MAX` for a border-less island
    /// (`I = V`, which the paper excludes from the definition).
    pub depth: u32,
    /// Whether some vertex of the island has clock value exactly `0`.
    pub is_zero_island: bool,
}

impl Island {
    /// Whether `v` belongs to this island.
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }
}

/// Computes the islands of `config`: connected components of the subgraph
/// whose vertices hold correct values and whose edges satisfy `correct`
/// (both endpoints correct, `d_K ≤ 1`).
#[must_use]
pub fn islands(
    config: &Configuration<ClockValue>,
    graph: &Graph,
    clock: CherryClock,
) -> Vec<Island> {
    let n = graph.n();
    let stab: Vec<bool> = (0..n).map(|i| clock.is_stab(*config.get(VertexId::new(i)))).collect();
    let correct_edge = |a: VertexId, b: VertexId| {
        stab[a.index()] && stab[b.index()] && clock.d_k(*config.get(a), *config.get(b)) <= 1
    };
    let mut component = vec![usize::MAX; n];
    let mut islands: Vec<Vec<VertexId>> = Vec::new();
    for start in graph.vertices() {
        if !stab[start.index()] || component[start.index()] != usize::MAX {
            continue;
        }
        let cid = islands.len();
        let mut members = vec![start];
        component[start.index()] = cid;
        let mut queue = VecDeque::from([start]);
        while let Some(x) = queue.pop_front() {
            for &y in graph.neighbors(x) {
                if component[y.index()] == usize::MAX && correct_edge(x, y) {
                    component[y.index()] = cid;
                    members.push(y);
                    queue.push_back(y);
                }
            }
        }
        members.sort_unstable();
        islands.push(members);
    }
    islands
        .into_iter()
        .map(|members| {
            let in_island: Vec<bool> = {
                let mut m = vec![false; n];
                for &v in &members {
                    m[v.index()] = true;
                }
                m
            };
            let border: Vec<VertexId> = members
                .iter()
                .copied()
                .filter(|&v| graph.neighbors(v).iter().any(|&u| !in_island[u.index()]))
                .collect();
            // Depth via multi-source BFS from the border, inside the island.
            let depth = if border.is_empty() {
                u32::MAX
            } else {
                let mut dist = vec![u32::MAX; n];
                let mut queue: VecDeque<VertexId> = border.iter().copied().collect();
                for &b in &border {
                    dist[b.index()] = 0;
                }
                let mut max_d = 0;
                while let Some(x) = queue.pop_front() {
                    for &y in graph.neighbors(x) {
                        if in_island[y.index()] && dist[y.index()] == u32::MAX {
                            dist[y.index()] = dist[x.index()] + 1;
                            max_d = max_d.max(dist[y.index()]);
                            queue.push_back(y);
                        }
                    }
                }
                max_d
            };
            let is_zero_island = members.iter().any(|&v| config.get(v).raw() == 0);
            Island { vertices: members, border, depth, is_zero_island }
        })
        .collect()
}

/// The island containing `v`, if any.
#[must_use]
pub fn island_of(
    config: &Configuration<ClockValue>,
    graph: &Graph,
    clock: CherryClock,
    v: VertexId,
) -> Option<Island> {
    islands(config, graph, clock).into_iter().find(|i| i.contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssme::Ssme;
    use specstab_kernel::daemon::SynchronousDaemon;
    use specstab_kernel::engine::{RunLimits, Simulator};
    use specstab_kernel::observer::TraceRecorder;
    use specstab_topology::generators;

    #[test]
    fn uniform_correct_config_is_one_borderless_island() {
        let g = generators::ring(5).unwrap();
        let clock = CherryClock::new(3, 9).unwrap();
        let cfg = Configuration::from_fn(5, |_| clock.value(4).unwrap());
        let isl = islands(&cfg, &g, clock);
        assert_eq!(isl.len(), 1);
        assert_eq!(isl[0].vertices.len(), 5);
        assert!(isl[0].border.is_empty());
        assert_eq!(isl[0].depth, u32::MAX);
        assert!(!isl[0].is_zero_island);
    }

    #[test]
    fn incomparable_values_split_islands() {
        let g = generators::path(5).unwrap();
        let clock = CherryClock::new(3, 9).unwrap();
        // [2, 2, 7, 7, 7]: drift 5 between v1 and v2 → two islands.
        let raw = [2i64, 2, 7, 7, 7];
        let cfg = Configuration::from_fn(5, |v| clock.value(raw[v.index()]).unwrap());
        let isl = islands(&cfg, &g, clock);
        assert_eq!(isl.len(), 2);
        assert_eq!(isl[0].vertices.len(), 2);
        assert_eq!(isl[1].vertices.len(), 3);
        // Borders: v1 (adjacent to v2) and v2 (adjacent to v1).
        assert_eq!(isl[0].border, vec![VertexId::new(1)]);
        assert_eq!(isl[1].border, vec![VertexId::new(2)]);
        assert_eq!(isl[0].depth, 1);
        assert_eq!(isl[1].depth, 2);
    }

    #[test]
    fn init_values_do_not_join_islands() {
        let g = generators::path(4).unwrap();
        let clock = CherryClock::new(3, 9).unwrap();
        let raw = [-1i64, 3, 4, -2];
        let cfg = Configuration::from_fn(4, |v| clock.value(raw[v.index()]).unwrap());
        let isl = islands(&cfg, &g, clock);
        assert_eq!(isl.len(), 1);
        assert_eq!(isl[0].vertices, vec![VertexId::new(1), VertexId::new(2)]);
    }

    #[test]
    fn zero_island_flag() {
        let g = generators::path(3).unwrap();
        let clock = CherryClock::new(3, 9).unwrap();
        let raw = [0i64, 1, 1];
        let cfg = Configuration::from_fn(3, |v| clock.value(raw[v.index()]).unwrap());
        let isl = islands(&cfg, &g, clock);
        assert_eq!(isl.len(), 1);
        assert!(isl[0].is_zero_island);
    }

    #[test]
    fn lemma3_island_depth_shrinks_synchronously() {
        // Lemma 3 (contrapositive direction): a vertex in a non-zero-island
        // of depth k in γ_i was, in γ_{i-1}, in a non-zero-island of depth
        // ≥ k+1 or in a zero-island. Empirically: follow the Theorem 4
        // witness execution and check depths never grow along the erosion.
        let g = generators::path(9).unwrap();
        let ssme = Ssme::for_graph(&g).unwrap();
        let diam = specstab_topology::metrics::diameter(&g);
        let witness = crate::lower_bound::theorem4_witness(&ssme, &g, diam).unwrap();
        let sim = Simulator::new(&g, &ssme);
        let mut d = SynchronousDaemon::new();
        let mut tr = TraceRecorder::new();
        let _ =
            sim.run(witness.init, &mut d, RunLimits::with_max_steps(witness.t + 1), &mut [&mut tr]);
        let clock = ssme.clock();
        let configs = tr.configs();
        for step in 1..configs.len() {
            let prev = islands(&configs[step - 1], &g, clock);
            let cur = islands(&configs[step], &g, clock);
            for isl in &cur {
                if isl.is_zero_island || isl.border.is_empty() {
                    continue;
                }
                for &v in &isl.vertices {
                    // Find v's island in the previous configuration.
                    if let Some(pisl) = prev.iter().find(|i| i.contains(v)) {
                        if !pisl.is_zero_island && !pisl.border.is_empty() {
                            assert!(
                                pisl.depth >= isl.depth.saturating_add(1) || pisl.depth == u32::MAX,
                                "step {step}: island depth grew at {v}"
                            );
                        }
                    }
                }
            }
        }
    }
}
