//! The Theorem 4 lower bound, constructively.
//!
//! Theorem 4: any self-stabilizing mutual exclusion protocol needs at least
//! `⌈diam(g)/2⌉` synchronous steps to stabilize. The proof picks two
//! vertices `u, v` at distance `diam(g)` and splices together the `t`-local
//! states (Definition 7) that make each of them privileged `t` steps later;
//! by the information-propagation bound (Lemma 5) neither neighborhood can
//! learn about the other in `t < ⌈diam/2⌉` steps, so both become privileged
//! simultaneously.
//!
//! For SSME this module *constructs the witness explicitly*: constant-clock
//! balls of radius `t = ⌈diam/2⌉ − 1` around `u` and `v` holding
//! `privilege − t`, with incoherent filler (`-1`) elsewhere. Reset waves
//! triggered at the ball borders travel one hop per synchronous step, so
//! both centers tick undisturbed for exactly `t` steps and hold the
//! privilege together in `γ_t` — a safety violation at index `t`, proving
//! the measured stabilization time is at least `t + 1 = ⌈diam(g)/2⌉`.
//! Combined with Theorem 2 this pins the synchronous worst case exactly.

use crate::bounds;
use crate::spec_me::SpecMe;
use crate::ssme::Ssme;
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::SynchronousDaemon;
use specstab_kernel::engine::{RunLimits, Simulator};
use specstab_kernel::observer::TraceRecorder;
use specstab_kernel::spec::Specification;
use specstab_topology::metrics::{bfs_into, DistanceMatrix};
use specstab_topology::{Graph, VertexId};
use specstab_unison::clock::ClockValue;
use std::error::Error;
use std::fmt;

/// Errors building a Theorem 4 witness.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum LowerBoundError {
    /// `diam(g) = 0` (single vertex): mutual exclusion is trivial and the
    /// bound is vacuous.
    DegenerateDiameter,
    /// The supplied diameter is not the graph's: no vertex has that
    /// eccentricity, or a vertex searched before one does has a larger one.
    DiameterMismatch {
        /// The diameter the caller supplied.
        diam: u32,
    },
}

impl fmt::Display for LowerBoundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerBoundError::DegenerateDiameter => {
                write!(f, "theorem 4 witness requires diam(g) >= 1")
            }
            LowerBoundError::DiameterMismatch { diam } => {
                write!(f, "theorem 4 witness: {diam} is not the graph's diameter")
            }
        }
    }
}

impl Error for LowerBoundError {}

/// A constructed adversarial initial configuration and its parameters.
#[derive(Clone, Debug)]
pub struct Theorem4Witness {
    /// First peripheral vertex (`dist(u, v) = diam(g)`).
    pub u: VertexId,
    /// Second peripheral vertex.
    pub v: VertexId,
    /// The violation index `t = ⌈diam/2⌉ − 1` at which both are privileged.
    pub t: usize,
    /// The adversarial initial configuration `γ'_0`.
    pub init: Configuration<ClockValue>,
}

/// Outcome of running a witness under the synchronous daemon.
#[derive(Clone, Debug)]
pub struct WitnessOutcome {
    /// Whether both `u` and `v` were privileged in `γ_t` as predicted.
    pub both_privileged_at_t: bool,
    /// Index of the last safety violation in the checked horizon.
    pub last_violation: Option<usize>,
    /// Measured stabilization time of this execution.
    pub measured_stabilization: usize,
}

/// Definition 7: the `k`-local state of `v` — the states of all vertices
/// within distance `k`, keyed by vertex.
#[must_use]
pub fn k_local_state<S: Clone>(
    config: &Configuration<S>,
    dm: &DistanceMatrix,
    v: VertexId,
    k: u32,
) -> Vec<(VertexId, S)> {
    dm.ball(v, k).into_iter().map(|u| (u, config.get(u).clone())).collect()
}

/// Builds the Theorem 4 witness for an SSME instance from the graph's
/// resolved diameter, reading two BFS rows instead of all-pairs
/// distances.
///
/// `u` is the first vertex, in index order, whose eccentricity is `diam`
/// (one BFS per vertex until it is found) and `v` the first vertex at
/// distance `diam` from `u`: the pair [`DistanceMatrix::peripheral_pair`]
/// returns (the first pair in row-major order at the maximum distance).
/// One more BFS, from `v`, gives the second ball.
///
/// # Errors
///
/// [`LowerBoundError::DegenerateDiameter`] when `diam = 0`;
/// [`LowerBoundError::DiameterMismatch`] when `diam` is not attained, or a
/// vertex searched before `u` has a larger eccentricity.
pub fn theorem4_witness(
    ssme: &Ssme,
    graph: &Graph,
    diam: u32,
) -> Result<Theorem4Witness, LowerBoundError> {
    if diam == 0 {
        return Err(LowerBoundError::DegenerateDiameter);
    }
    let n = graph.n();
    let (mut from_u, mut from_v, mut queue) = (vec![0; n], vec![0; n], Vec::with_capacity(n));
    // The search stops at the first vertex whose eccentricity reaches
    // `diam`, leaving that vertex's row in `from_u`.
    let (u, _) = graph
        .vertices()
        .map(|x| (x, bfs_into(graph, x, &mut from_u, &mut queue)))
        .find(|&(_, ecc)| ecc >= diam)
        .filter(|&(_, ecc)| ecc == diam)
        .ok_or(LowerBoundError::DiameterMismatch { diam })?;
    let v = from_u.iter().position(|&d| d == diam).map(VertexId::new);
    let v = v.expect("ecc(u) = diam is attained in u's row");
    bfs_into(graph, v, &mut from_v, &mut queue);
    let t_u64 = bounds::sync_stabilization_bound(diam) - 1; // ⌈diam/2⌉ − 1
    let t = usize::try_from(t_u64).expect("t fits usize");
    let t32 = u32::try_from(t).expect("t fits u32");
    let clock = ssme.clock();
    let cu = clock
        .value(ssme.privilege_raw(u) - t_u64 as i64)
        .expect("privilege slot - t stays in stab (slots are >= 2n > t)");
    let cv = clock
        .value(ssme.privilege_raw(v) - t_u64 as i64)
        .expect("privilege slot - t stays in stab");
    let filler = clock.value(-1).expect("-1 is an initial value for α = n >= 1");
    let init = Configuration::from_fn(n, |x| {
        if from_u[x.index()] <= t32 {
            cu
        } else if from_v[x.index()] <= t32 {
            cv
        } else {
            filler
        }
    });
    Ok(Theorem4Witness { u, v, t, init })
}

/// Runs a witness under the synchronous daemon and checks the predicted
/// double privilege, scanning `horizon` steps for safety violations.
#[must_use]
pub fn verify_witness(
    ssme: &Ssme,
    graph: &Graph,
    witness: &Theorem4Witness,
    horizon: usize,
) -> WitnessOutcome {
    let sim = Simulator::new(graph, ssme);
    let mut daemon = SynchronousDaemon::new();
    let mut trace = TraceRecorder::new();
    let _ = sim.run(
        witness.init.clone(),
        &mut daemon,
        RunLimits::with_max_steps(horizon),
        &mut [&mut trace],
    );
    let spec = SpecMe::new(ssme.clone());
    let configs = trace.configs();
    let both = configs
        .get(witness.t)
        .is_some_and(|c| ssme.is_privileged(witness.u, c) && ssme.is_privileged(witness.v, c));
    let last_violation = configs
        .iter()
        .enumerate()
        .filter(|(_, c)| !spec.is_safe(c, graph))
        .map(|(i, _)| i)
        .next_back();
    WitnessOutcome {
        both_privileged_at_t: both,
        last_violation,
        measured_stabilization: last_violation.map_or(0, |i| i + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specstab_topology::generators;
    use specstab_unison::analysis;

    fn check_graph(g: &Graph) {
        let dm = DistanceMatrix::new(g);
        let ssme = Ssme::for_graph(g).unwrap();
        let witness = theorem4_witness(&ssme, g, dm.diameter()).unwrap();
        let bound = bounds::sync_stabilization_bound(dm.diameter()) as usize;
        assert_eq!(witness.t + 1, bound, "{}", g.name());
        let horizon = analysis::ssme_sync_gamma1_bound(g.n(), dm.diameter()) as usize + 10;
        let outcome = verify_witness(&ssme, g, &witness, horizon);
        assert!(
            outcome.both_privileged_at_t,
            "{}: u={} v={} not both privileged at t={}",
            g.name(),
            witness.u,
            witness.v,
            witness.t
        );
        // Tightness: last violation at exactly t (Theorem 2 forbids later).
        assert_eq!(outcome.measured_stabilization, bound, "{}", g.name());
    }

    #[test]
    fn witness_works_on_even_diameter_path() {
        check_graph(&generators::path(9).unwrap()); // diam 8, t = 3
    }

    #[test]
    fn witness_works_on_odd_diameter_path() {
        check_graph(&generators::path(8).unwrap()); // diam 7, t = 3
    }

    #[test]
    fn witness_works_on_rings() {
        check_graph(&generators::ring(8).unwrap()); // diam 4
        check_graph(&generators::ring(9).unwrap()); // diam 4
        check_graph(&generators::ring(11).unwrap()); // diam 5
    }

    #[test]
    fn witness_works_on_grid_and_torus() {
        check_graph(&generators::grid(3, 4).unwrap()); // diam 5
        check_graph(&generators::torus(3, 5).unwrap()); // diam 3
    }

    #[test]
    fn witness_works_on_diameter_one() {
        // Complete graph: t = 0, both privileged in the initial config.
        check_graph(&generators::complete(5).unwrap());
    }

    #[test]
    fn witness_works_on_trees() {
        check_graph(&generators::binary_tree(15).unwrap());
        check_graph(&generators::star(8).unwrap()); // diam 2, t = 0
    }

    #[test]
    fn witness_rejects_single_vertex() {
        let g = generators::path(1).unwrap();
        let ssme = Ssme::for_graph(&g).unwrap();
        assert_eq!(
            theorem4_witness(&ssme, &g, 0).unwrap_err(),
            LowerBoundError::DegenerateDiameter
        );
    }

    #[test]
    fn witness_rejects_a_diameter_the_graph_does_not_have() {
        // ring:8 has every eccentricity 4; path:5 has diam 4 and ecc(v0) 4.
        let ring = generators::ring(8).unwrap();
        let ssme = Ssme::for_graph(&ring).unwrap();
        for diam in [3, 5] {
            let err = theorem4_witness(&ssme, &ring, diam).unwrap_err();
            assert_eq!(err, LowerBoundError::DiameterMismatch { diam });
            assert!(err.to_string().contains("not the graph's diameter"), "{err}");
        }
        let path = generators::path(5).unwrap();
        let ssme = Ssme::for_graph(&path).unwrap();
        let err = theorem4_witness(&ssme, &path, 2).unwrap_err();
        assert_eq!(err, LowerBoundError::DiameterMismatch { diam: 2 });
    }

    /// The witness as built from all-pairs distances: the matrix's
    /// peripheral pair and the balls read off its rows.
    fn witness_from_matrix(ssme: &Ssme, g: &Graph, dm: &DistanceMatrix) -> Theorem4Witness {
        let (u, v) = dm.peripheral_pair();
        let t = bounds::sync_stabilization_bound(dm.diameter()) - 1;
        let clock = ssme.clock();
        let cu = clock.value(ssme.privilege_raw(u) - t as i64).unwrap();
        let cv = clock.value(ssme.privilege_raw(v) - t as i64).unwrap();
        let filler = clock.value(-1).unwrap();
        let t32 = u32::try_from(t).unwrap();
        let init = Configuration::from_fn(g.n(), |x| {
            if dm.dist(u, x) <= t32 {
                cu
            } else if dm.dist(v, x) <= t32 {
                cv
            } else {
                filler
            }
        });
        Theorem4Witness { u, v, t: usize::try_from(t).unwrap(), init }
    }

    #[test]
    fn witness_from_bfs_rows_equals_the_matrix_construction() {
        let mut specs: Vec<String> = [
            "ring:3",
            "ring:8",
            "ring:9",
            "ring:16",
            "path:2",
            "path:7",
            "path:8",
            "star:6",
            "complete:2",
            "complete:6",
            "grid:3x4",
            "grid:4x4",
            "grid:2x7",
            "torus:3x3",
            "torus:4x6",
            "torus:5x5",
            "hypercube:1",
            "hypercube:4",
            "petersen",
            "wheel:7",
            "lollipop:4x3",
            "barbell:3x2",
            "caterpillar:4x2",
            "bintree:15",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        specs.extend((0..20).map(|s| format!("tree:{}:{s}", 5 + s)));
        specs.extend((0..20).map(|s| format!("er:{}:0.2:{s}", 6 + s)));
        for spec in &specs {
            let g = specstab_topology::spec::parse_spec(spec).unwrap();
            let dm = DistanceMatrix::new(&g);
            let ssme = Ssme::for_graph(&g).unwrap();
            let w = theorem4_witness(&ssme, &g, dm.diameter()).unwrap();
            let reference = witness_from_matrix(&ssme, &g, &dm);
            assert_eq!((w.u, w.v), dm.peripheral_pair(), "{spec}");
            assert_eq!(w.t, reference.t, "{spec}");
            assert_eq!(w.init, reference.init, "{spec}");
        }
    }

    #[test]
    fn k_local_state_matches_ball() {
        let g = generators::path(5).unwrap();
        let dm = DistanceMatrix::new(&g);
        let ssme = Ssme::for_graph(&g).unwrap();
        let cfg = Configuration::from_fn(5, |v| ssme.clock().value(v.index() as i64).unwrap());
        let local = k_local_state(&cfg, &dm, VertexId::new(2), 1);
        let verts: Vec<usize> = local.iter().map(|(v, _)| v.index()).collect();
        assert_eq!(verts, vec![1, 2, 3]);
        assert_eq!(local[0].1.raw(), 1);
    }

    #[test]
    fn witness_balls_do_not_overlap() {
        for g in [
            generators::path(10).unwrap(),
            generators::ring(12).unwrap(),
            generators::grid(4, 4).unwrap(),
        ] {
            let dm = DistanceMatrix::new(&g);
            let ssme = Ssme::for_graph(&g).unwrap();
            let w = theorem4_witness(&ssme, &g, dm.diameter()).unwrap();
            let t = u32::try_from(w.t).unwrap();
            let bu = dm.ball(w.u, t);
            let bv = dm.ball(w.v, t);
            assert!(bu.iter().all(|x| !bv.contains(x)), "{}", g.name());
        }
    }
}
