//! Property-based tests for graph metrics and structural invariants.

use proptest::prelude::*;
use specstab_topology::chordless::{self, SearchBudget};
use specstab_topology::cycle_space;
use specstab_topology::generators;
use specstab_topology::metrics::{self, girth, DistanceMatrix};
use specstab_topology::{Graph, VertexId};

/// Strategy producing small connected random graphs.
fn small_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..14, 0.0f64..0.6, any::<u64>()).prop_map(|(n, p, seed)| {
        generators::erdos_renyi_connected(n, p, seed).expect("valid parameters")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distances_are_a_metric(g in small_connected_graph()) {
        let dm = DistanceMatrix::new(&g);
        for u in g.vertices() {
            prop_assert_eq!(dm.dist(u, u), 0);
            for v in g.vertices() {
                prop_assert_eq!(dm.dist(u, v), dm.dist(v, u));
                if u != v {
                    prop_assert!(dm.dist(u, v) >= 1);
                }
                for w in g.vertices() {
                    prop_assert!(dm.dist(u, w) <= dm.dist(u, v) + dm.dist(v, w));
                }
            }
        }
    }

    #[test]
    fn diameter_equals_max_eccentricity(g in small_connected_graph()) {
        let dm = DistanceMatrix::new(&g);
        let max_ecc = g.vertices().map(|v| dm.eccentricity(v)).max().unwrap();
        prop_assert_eq!(dm.diameter(), max_ecc);
        prop_assert!(dm.radius() <= dm.diameter());
        prop_assert!(dm.diameter() <= 2 * dm.radius());
    }

    #[test]
    fn bfs_sweep_diameter_equals_the_matrix_diameter(g in small_connected_graph()) {
        prop_assert_eq!(metrics::diameter(&g), DistanceMatrix::new(&g).diameter());
    }

    #[test]
    fn diameter_bounded_by_n_minus_one(g in small_connected_graph()) {
        let dm = DistanceMatrix::new(&g);
        prop_assert!((dm.diameter() as usize) < g.n().max(1));
    }

    #[test]
    fn hole_and_lcp_within_structural_bounds(g in small_connected_graph()) {
        let budget = SearchBudget::default();
        let h = chordless::hole(&g, budget).unwrap();
        let lcp = chordless::longest_chordless_path(&g, budget).unwrap();
        prop_assert!((2..=g.n().max(2)).contains(&h));
        prop_assert!(lcp < g.n());
        if let Some(gi) = girth(&g) {
            // The shortest cycle is always chordless.
            prop_assert!(h >= gi as usize);
        } else {
            prop_assert_eq!(h, 2);
        }
    }

    #[test]
    fn cycle_basis_dimension_and_lengths(g in small_connected_graph()) {
        let basis = cycle_space::minimum_cycle_basis(&g);
        prop_assert_eq!(basis.dimension(), g.m() + 1 - g.n());
        for cy in &basis.cycles {
            prop_assert!(cy.len() >= 3);
            prop_assert!(cy.len() <= g.n());
            // Every vertex has even degree in a cycle-space element.
            let mut deg = vec![0usize; g.n()];
            for &ei in &cy.edge_indices {
                let (u, v) = g.edges()[ei];
                deg[u.index()] += 1;
                deg[v.index()] += 1;
            }
            prop_assert!(deg.iter().all(|&d| d % 2 == 0));
        }
        if g.has_cycle() {
            let c = cycle_space::cyclo(&g);
            let gi = girth(&g).unwrap() as usize;
            prop_assert!(c >= gi, "cyclo {} < girth {}", c, gi);
        }
    }

    #[test]
    fn cyclo_at_least_girth_and_at_most_hole_bound(g in small_connected_graph()) {
        // cyclo and hole both fall in [girth, n]; the unison requirement
        // K > cyclo is always satisfiable with K > n.
        if g.has_cycle() {
            let c = cycle_space::cyclo(&g);
            prop_assert!(c <= g.n());
        }
    }

    #[test]
    fn peripheral_pair_attains_diameter(g in small_connected_graph()) {
        let dm = DistanceMatrix::new(&g);
        let (u, v) = dm.peripheral_pair();
        prop_assert_eq!(dm.dist(u, v), dm.diameter());
    }

    #[test]
    fn balls_are_monotone(g in small_connected_graph()) {
        let dm = DistanceMatrix::new(&g);
        let c = VertexId::new(0);
        let mut prev = 0;
        for r in 0..dm.diameter() + 1 {
            let b = dm.ball(c, r).len();
            prop_assert!(b >= prev);
            prev = b;
        }
        prop_assert_eq!(prev, g.n());
    }

    #[test]
    fn generators_are_deterministic(n in 2usize..20, seed in any::<u64>()) {
        let g1 = generators::random_tree(n, seed).unwrap();
        let g2 = generators::random_tree(n, seed).unwrap();
        prop_assert_eq!(g1, g2);
    }
}
