//! [`ProtocolHarness`] implementations for every protocol in the
//! workspace — the glue that lets the campaign grid sweep any of them
//! under the shared adversarial harness (see [`crate::registry`] for the
//! name-keyed index).
//!
//! Each harness packages the protocol constructor (with its typed
//! topology-compatibility check), a legitimate-configuration constructor
//! (the resting point fault bursts corrupt), the specification (whose
//! local form the campaign measures incrementally and whose full-scan
//! predicates the trait provides), witness injection where a lower-bound
//! construction exists (SSME's Theorem 4), protocol-specific daemon
//! extensions (SSME's greedy Γ1-disorder adversaries) and the applicable
//! synchronous theorem bound.

use crate::bfs::{BfsSpec, MinPlusOneBfs};
use crate::dijkstra::{is_ring, DijkstraRing, DijkstraSpec};
use crate::dijkstra_four_state::{is_line, DijkstraFourState, FourState, FourStateSpec};
use crate::dijkstra_three_state::{DijkstraThreeState, ThreeStateSpec};
use crate::matching::{MatchState, MatchingSpec, MaximalMatching};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use specstab_core::bounds;
use specstab_core::spec_me::SpecMe;
use specstab_core::speculation::ssme_disorder_metric;
use specstab_core::ssme::{IdAssignment, Ssme};
use specstab_kernel::batch::{run_batch, BatchDaemon, LaneMonitor, PackedProtocol};
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{parse_daemon_spec, AdversaryMoves, BoxedDaemon, GreedyAdversary};
use specstab_kernel::harness::{
    BoundMetric, HarnessError, HarnessState, ProtocolHarness, TheoremBound,
};
use specstab_kernel::measure::StabilizationReport;
use specstab_kernel::spec::LaneSpecification;
use specstab_topology::{Graph, VertexId};
use specstab_unison::clock::ClockValue;
use std::fmt::Display;

/// Per-lane reports of a measured batched run.
type LaneReports<S> = Vec<(StabilizationReport, Configuration<S>)>;

/// `H`'s [`HarnessError::Build`] for a construction failure.
fn build_error<H: ProtocolHarness>(reason: impl Display) -> HarnessError {
    HarnessError::Build { protocol: H::NAME.to_string(), reason: reason.to_string() }
}

/// `H`'s compatibility verdict on `graph` for a protocol that needs a
/// graph shape: `Ok` when `has_shape`, else the typed
/// [`HarnessError::IncompatibleTopology`] naming `requirement`.
fn require_shape<H: ProtocolHarness>(
    graph: &Graph,
    has_shape: bool,
    requirement: &str,
) -> Result<(), HarnessError> {
    if has_shape {
        Ok(())
    } else {
        Err(HarnessError::IncompatibleTopology {
            protocol: H::NAME.to_string(),
            requirement: requirement.to_string(),
            topology: graph.name().to_string(),
        })
    }
}

/// The packed harnesses' `batched_measure`: `run_batch` under a
/// [`LaneMonitor`] over the lane form of the harness's specification,
/// early-stopping on legitimacy like the scalar cell path. `None` for the
/// central shims, which have no batched schedule.
fn measure_lanes<H>(
    harness: &H,
    graph: &Graph,
    daemon: BatchDaemon,
    lane_seeds: &[u64],
    inits: &[Configuration<HarnessState<H>>],
    max_steps: usize,
    early_stop_margin: usize,
) -> Option<LaneReports<HarnessState<H>>>
where
    H: ProtocolHarness,
    H::Protocol: PackedProtocol,
    H::Spec: LaneSpecification<HarnessState<H>, <H::Protocol as PackedProtocol>::Lane>,
{
    daemon.is_batched().then(|| {
        let monitor = LaneMonitor::new(harness.spec(), early_stop_margin);
        run_batch(graph, harness.protocol(), daemon, lane_seeds, inits, max_steps, monitor)
    })
}

/// SSME (Algorithm 1) under `specME` — the paper's speculatively
/// stabilizing mutual exclusion protocol. Works on any connected graph;
/// ships the Theorem 4 adversarial witness and the greedy Γ1-disorder
/// adversaries (`adversary-central` / `adversary-dist`).
#[derive(Debug)]
pub struct SsmeHarness {
    ssme: Ssme,
    spec: SpecMe,
    /// `diam(g)` as resolved by the caller of `build`.
    diam: u32,
}

impl SsmeHarness {
    /// The SSME instance.
    #[must_use]
    pub fn ssme(&self) -> &Ssme {
        &self.ssme
    }
}

/// The candidate moves of the greedy adversary an SSME-only daemon spec
/// names, or `None` for every other spec.
fn ssme_adversary_moves(spec: &str) -> Option<AdversaryMoves> {
    match spec {
        "adversary-central" => Some(AdversaryMoves::Singletons),
        "adversary-dist" => Some(AdversaryMoves::SingletonsAndAll),
        _ => None,
    }
}

impl ProtocolHarness for SsmeHarness {
    type Protocol = Ssme;
    type Spec = SpecMe;
    const NAME: &'static str = "ssme";

    fn build(graph: &Graph, diam: u32) -> Result<Self, HarnessError> {
        let ssme = Ssme::new(graph, diam, IdAssignment::identity(graph.n()))
            .map_err(build_error::<Self>)?;
        let spec = SpecMe::new(ssme.clone());
        Ok(Self { ssme, spec, diam })
    }

    fn protocol(&self) -> &Ssme {
        &self.ssme
    }

    fn spec(&self) -> &SpecMe {
        &self.spec
    }

    fn legitimate_configuration(
        &self,
        graph: &Graph,
        _rng: &mut StdRng,
    ) -> Result<Configuration<ClockValue>, HarnessError> {
        // A legitimate resting point: every clock at the same stabilized
        // value.
        let healthy = self.ssme.clock().value(0).map_err(build_error::<Self>)?;
        Ok(Configuration::from_fn(graph.n(), |_| healthy))
    }

    fn supports_witness() -> bool {
        true
    }

    /// The Theorem 4 witness for the diameter the harness was built with:
    /// BFS rows from the vertices up to the first one of eccentricity
    /// `diam`, plus one row from its partner (see
    /// [`specstab_core::lower_bound::theorem4_witness`]).
    fn witness_configuration(
        &self,
        graph: &Graph,
    ) -> Result<Configuration<ClockValue>, HarnessError> {
        specstab_core::lower_bound::theorem4_witness(&self.ssme, graph, self.diam)
            .map(|w| w.init)
            .map_err(build_error::<Self>)
    }

    /// The shared kernel zoo plus the protocol-specific greedy adversaries
    /// (`adversary-central`, `adversary-dist`) driven by the Γ1 disorder
    /// metric.
    fn daemon(&self, spec: &str, seed: u64) -> Result<BoxedDaemon<ClockValue>, String> {
        match ssme_adversary_moves(spec) {
            Some(moves) => {
                Ok(Box::new(GreedyAdversary::new(ssme_disorder_metric(&self.ssme), moves, seed)))
            }
            None => parse_daemon_spec(spec, seed),
        }
    }

    fn accepts_daemon(spec: &str) -> bool {
        ssme_adversary_moves(spec).is_some() || parse_daemon_spec::<ClockValue>(spec, 0).is_ok()
    }

    /// Theorem 2: `⌈diam/2⌉` synchronous stabilization steps.
    fn sync_bound(&self, _graph: &Graph, diam: u32) -> Option<TheoremBound> {
        Some(TheoremBound {
            value: bounds::sync_stabilization_bound(diam),
            metric: BoundMetric::Stabilization,
        })
    }

    fn supports_batch(&self) -> bool {
        true
    }

    fn batched_measure(
        &self,
        graph: &Graph,
        daemon: BatchDaemon,
        lane_seeds: &[u64],
        inits: Vec<Configuration<ClockValue>>,
        max_steps: usize,
        early_stop_margin: usize,
    ) -> Option<LaneReports<ClockValue>> {
        measure_lanes(self, graph, daemon, lane_seeds, &inits, max_steps, early_stop_margin)
    }
}

/// Dijkstra's K-state token ring (1974), `K = n`. Ring-only.
#[derive(Debug)]
pub struct DijkstraHarness {
    proto: DijkstraRing,
    spec: DijkstraSpec,
}

impl ProtocolHarness for DijkstraHarness {
    type Protocol = DijkstraRing;
    type Spec = DijkstraSpec;
    const NAME: &'static str = "dijkstra";

    fn check_graph(graph: &Graph) -> Result<(), HarnessError> {
        require_shape::<Self>(graph, is_ring(graph), "a unidirectional ring of n >= 3 machines")
    }

    fn build(graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
        Self::check_graph(graph)?;
        let proto = DijkstraRing::new(graph, graph.n() as u64).map_err(build_error::<Self>)?;
        let spec = DijkstraSpec::new(proto.clone());
        Ok(Self { proto, spec })
    }

    fn protocol(&self) -> &DijkstraRing {
        &self.proto
    }

    fn spec(&self) -> &DijkstraSpec {
        &self.spec
    }

    fn legitimate_configuration(
        &self,
        graph: &Graph,
        _rng: &mut StdRng,
    ) -> Result<Configuration<u64>, HarnessError> {
        // All counters equal: exactly the root privileged — legitimate.
        Ok(Configuration::from_fn(graph.n(), |_| 0u64))
    }

    /// The exact synchronous law: legitimacy entry within `2n − 3` steps.
    fn sync_bound(&self, graph: &Graph, _diam: u32) -> Option<TheoremBound> {
        Some(TheoremBound {
            value: bounds::dijkstra_sync_entry_law(graph.n()),
            metric: BoundMetric::LegitimacyEntry,
        })
    }

    /// Instance-level gate: the `u8` lane packing holds `K ≤ 256` counter
    /// states. The standard grid instance uses `K = n`, so every ring up
    /// to 256 machines batches; oversized rings fall back to scalar.
    fn supports_batch(&self) -> bool {
        self.proto.k() <= 256
    }

    fn batched_measure(
        &self,
        graph: &Graph,
        daemon: BatchDaemon,
        lane_seeds: &[u64],
        inits: Vec<Configuration<u64>>,
        max_steps: usize,
        early_stop_margin: usize,
    ) -> Option<LaneReports<u64>> {
        if !self.supports_batch() {
            return None;
        }
        measure_lanes(self, graph, daemon, lane_seeds, &inits, max_steps, early_stop_margin)
    }
}

/// Dijkstra's three-state solution (1974). Ring-only.
#[derive(Debug)]
pub struct Dijkstra3Harness {
    proto: DijkstraThreeState,
    spec: ThreeStateSpec,
}

impl ProtocolHarness for Dijkstra3Harness {
    type Protocol = DijkstraThreeState;
    type Spec = ThreeStateSpec;
    const NAME: &'static str = "dijkstra3";

    fn check_graph(graph: &Graph) -> Result<(), HarnessError> {
        require_shape::<Self>(graph, is_ring(graph), "a ring of n >= 3 machines")
    }

    fn build(graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
        Self::check_graph(graph)?;
        let proto = DijkstraThreeState::new(graph).map_err(build_error::<Self>)?;
        let spec = ThreeStateSpec::new(proto.clone());
        Ok(Self { proto, spec })
    }

    fn protocol(&self) -> &DijkstraThreeState {
        &self.proto
    }

    fn spec(&self) -> &ThreeStateSpec {
        &self.spec
    }

    fn legitimate_configuration(
        &self,
        graph: &Graph,
        _rng: &mut StdRng,
    ) -> Result<Configuration<u8>, HarnessError> {
        // All machines at 0: only the top machine holds a privilege.
        Ok(Configuration::from_fn(graph.n(), |_| 0u8))
    }

    fn supports_batch(&self) -> bool {
        true
    }

    fn batched_measure(
        &self,
        graph: &Graph,
        daemon: BatchDaemon,
        lane_seeds: &[u64],
        inits: Vec<Configuration<u8>>,
        max_steps: usize,
        early_stop_margin: usize,
    ) -> Option<LaneReports<u8>> {
        measure_lanes(self, graph, daemon, lane_seeds, &inits, max_steps, early_stop_margin)
    }
}

/// Dijkstra's four-state solution (1974). Line-only.
#[derive(Debug)]
pub struct Dijkstra4Harness {
    proto: DijkstraFourState,
    spec: FourStateSpec,
}

impl ProtocolHarness for Dijkstra4Harness {
    type Protocol = DijkstraFourState;
    type Spec = FourStateSpec;
    const NAME: &'static str = "dijkstra4";

    fn check_graph(graph: &Graph) -> Result<(), HarnessError> {
        require_shape::<Self>(graph, is_line(graph), "a line of n >= 2 machines")
    }

    fn build(graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
        Self::check_graph(graph)?;
        let proto = DijkstraFourState::new(graph).map_err(build_error::<Self>)?;
        let spec = FourStateSpec::new(proto.clone());
        Ok(Self { proto, spec })
    }

    fn protocol(&self) -> &DijkstraFourState {
        &self.proto
    }

    fn spec(&self) -> &FourStateSpec {
        &self.spec
    }

    fn legitimate_configuration(
        &self,
        graph: &Graph,
        _rng: &mut StdRng,
    ) -> Result<Configuration<FourState>, HarnessError> {
        // Uniform `x`, all `up` bits lowered (the special machines' bits
        // frozen by `canonical`): only the bottom machine is privileged.
        Ok(Configuration::from_fn(graph.n(), |v| {
            self.proto.canonical(v.index(), FourState { x: false, up: false })
        }))
    }

    fn supports_batch(&self) -> bool {
        true
    }

    fn batched_measure(
        &self,
        graph: &Graph,
        daemon: BatchDaemon,
        lane_seeds: &[u64],
        inits: Vec<Configuration<FourState>>,
        max_steps: usize,
        early_stop_margin: usize,
    ) -> Option<LaneReports<FourState>> {
        measure_lanes(self, graph, daemon, lane_seeds, &inits, max_steps, early_stop_margin)
    }
}

/// The `min+1` BFS spanning-tree protocol (Huang & Chen 1992), rooted at
/// vertex 0. Works on any connected graph.
#[derive(Debug)]
pub struct BfsHarness {
    proto: MinPlusOneBfs,
    spec: BfsSpec,
}

impl ProtocolHarness for BfsHarness {
    type Protocol = MinPlusOneBfs;
    type Spec = BfsSpec;
    const NAME: &'static str = "bfs";

    fn build(graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
        let root = VertexId::new(0);
        let proto = MinPlusOneBfs::new(graph, root);
        let spec = BfsSpec::new(graph, root);
        Ok(Self { proto, spec })
    }

    fn protocol(&self) -> &MinPlusOneBfs {
        &self.proto
    }

    fn spec(&self) -> &BfsSpec {
        &self.spec
    }

    fn legitimate_configuration(
        &self,
        graph: &Graph,
        _rng: &mut StdRng,
    ) -> Result<Configuration<u32>, HarnessError> {
        // Levels equal to the true BFS distances: the unique terminal
        // (and legitimate) configuration. The distances are the ones the
        // specification already computed.
        Ok(Configuration::from_fn(graph.n(), |v| self.spec.distances()[v.index()]))
    }
}

/// The maximal matching protocol of Manne et al. (2009). Works on any
/// connected graph.
#[derive(Debug)]
pub struct MatchingHarness {
    proto: MaximalMatching,
    spec: MatchingSpec,
}

impl ProtocolHarness for MatchingHarness {
    type Protocol = MaximalMatching;
    type Spec = MatchingSpec;
    const NAME: &'static str = "matching";

    fn build(graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
        let proto = MaximalMatching::new(graph);
        let spec = MatchingSpec::new(proto.clone());
        Ok(Self { proto, spec })
    }

    fn protocol(&self) -> &MaximalMatching {
        &self.proto
    }

    fn spec(&self) -> &MatchingSpec {
        &self.spec
    }

    /// A greedy maximal matching over an rng-shuffled vertex order —
    /// different seeds sample different legitimate resting points, all of
    /// them terminal configurations of the protocol.
    fn legitimate_configuration(
        &self,
        graph: &Graph,
        rng: &mut StdRng,
    ) -> Result<Configuration<MatchState>, HarnessError> {
        let mut order: Vec<VertexId> = graph.vertices().collect();
        order.shuffle(rng);
        let mut partner: Vec<Option<VertexId>> = vec![None; graph.n()];
        for &v in &order {
            if partner[v.index()].is_some() {
                continue;
            }
            if let Some(u) =
                graph.neighbors(v).iter().copied().find(|u| partner[u.index()].is_none())
            {
                partner[v.index()] = Some(u);
                partner[u.index()] = Some(v);
            }
        }
        Ok(Configuration::from_fn(graph.n(), |v| MatchState {
            pointer: partner[v.index()],
            married: partner[v.index()].is_some(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use specstab_topology::generators;
    use specstab_topology::metrics::DistanceMatrix;

    fn diam(g: &Graph) -> u32 {
        DistanceMatrix::new(g).diameter()
    }

    #[test]
    fn ring_only_protocols_reject_non_rings_with_typed_errors() {
        let path = generators::path(5).unwrap();
        let d = diam(&path);
        for err in [
            DijkstraHarness::build(&path, d).unwrap_err(),
            Dijkstra3Harness::build(&path, d).unwrap_err(),
        ] {
            assert!(
                matches!(err, HarnessError::IncompatibleTopology { .. }),
                "expected IncompatibleTopology, got {err:?}"
            );
            assert!(err.to_string().contains("ring of n >= 3"), "{err}");
        }
        let ring = generators::ring(6).unwrap();
        let err = Dijkstra4Harness::build(&ring, diam(&ring)).unwrap_err();
        assert!(err.to_string().contains("requires a line"), "{err}");
    }

    #[test]
    fn every_harness_builds_on_a_compatible_topology() {
        let ring = generators::ring(7).unwrap();
        let path = generators::path(6).unwrap();
        let grid = generators::grid(3, 3).unwrap();
        assert!(SsmeHarness::build(&grid, diam(&grid)).is_ok());
        assert!(DijkstraHarness::build(&ring, diam(&ring)).is_ok());
        assert!(Dijkstra3Harness::build(&ring, diam(&ring)).is_ok());
        assert!(Dijkstra4Harness::build(&path, diam(&path)).is_ok());
        assert!(BfsHarness::build(&grid, diam(&grid)).is_ok());
        assert!(MatchingHarness::build(&grid, diam(&grid)).is_ok());
    }

    #[test]
    fn only_ssme_supports_the_witness_scenario() {
        assert!(SsmeHarness::supports_witness());
        assert!(!DijkstraHarness::supports_witness());
        assert!(!Dijkstra3Harness::supports_witness());
        assert!(!Dijkstra4Harness::supports_witness());
        assert!(!BfsHarness::supports_witness());
        assert!(!MatchingHarness::supports_witness());
        let ring = generators::ring(6).unwrap();
        let h = DijkstraHarness::build(&ring, diam(&ring)).unwrap();
        let err = h.witness_configuration(&ring).unwrap_err();
        assert!(matches!(err, HarnessError::UnsupportedScenario { .. }));
    }

    #[test]
    fn ssme_witness_matches_theorem4_construction() {
        let g = generators::ring(8).unwrap();
        let d = diam(&g);
        let h = SsmeHarness::build(&g, d).unwrap();
        let init = h.witness_configuration(&g).unwrap();
        let w = specstab_core::lower_bound::theorem4_witness(h.ssme(), &g, d).unwrap();
        assert_eq!(init, w.init);
    }

    #[test]
    fn matching_legitimate_configuration_varies_with_the_rng_stream() {
        let g = generators::grid(3, 4).unwrap();
        let h = MatchingHarness::build(&g, diam(&g)).unwrap();
        let legit = h.legitimacy_predicate();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = h.legitimate_configuration(&g, &mut rng).unwrap();
            assert!(legit(&c, &g), "seed {seed} produced an illegitimate matching");
            seen.insert(format!("{:?}", c.states()));
        }
        assert!(seen.len() > 1, "shuffled greedy should sample several matchings");
    }

    #[test]
    fn sync_bounds_only_where_the_literature_provides_them() {
        let ring = generators::ring(8).unwrap();
        let d = diam(&ring);
        let ssme = SsmeHarness::build(&ring, d).unwrap();
        let b = ssme.sync_bound(&ring, d).unwrap();
        assert_eq!(b.value, bounds::sync_stabilization_bound(d));
        assert_eq!(b.metric, BoundMetric::Stabilization);
        let dij = DijkstraHarness::build(&ring, d).unwrap();
        let b = dij.sync_bound(&ring, d).unwrap();
        assert_eq!(b.value, bounds::dijkstra_sync_entry_law(8));
        assert_eq!(b.metric, BoundMetric::LegitimacyEntry);
        let bfs = BfsHarness::build(&ring, d).unwrap();
        assert!(bfs.sync_bound(&ring, d).is_none());
        let m3 = Dijkstra3Harness::build(&ring, d).unwrap();
        assert!(m3.sync_bound(&ring, d).is_none());
    }
}
