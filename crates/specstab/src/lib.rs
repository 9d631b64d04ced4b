//! # specstab — speculative self-stabilization
//!
//! A complete reproduction of *Introducing Speculation in
//! Self-Stabilization: An Application to Mutual Exclusion* (Swan Dubois &
//! Rachid Guerraoui, PODC 2013), built from scratch in Rust:
//!
//! * [`topology`] — communication graphs, generators and the topological
//!   constants (`diam`, `hole`, `cyclo`, `lcp`) governing the protocols;
//! * [`kernel`] — Dijkstra's atomic-state simulation model: protocols as
//!   guarded rules, the daemon taxonomy of Definition 2, the execution
//!   engine, stabilization measurement and exhaustive worst-case search;
//! * [`unison`] — the Boulinier–Petit–Villain asynchronous unison substrate
//!   with cherry clocks (Figure 1);
//! * [`core`] — the paper's contribution: the SSME protocol (Algorithm 1),
//!   `specME`, speculation profiles (Definitions 3–4), the Theorem 2/3
//!   bounds and the constructive Theorem 4 lower bound;
//! * [`protocols`] — the Section 3 baselines (Dijkstra's token ring, min+1
//!   BFS, maximal matching);
//! * [`campaign`] — the parallel Monte-Carlo campaign engine: scenario
//!   matrices (topology × protocol × daemon × fault burst × seed), a
//!   sharded deterministic executor, streaming statistics and
//!   speculation-profile artifacts.
//!
//! ## Quickstart
//!
//! ```
//! use specstab::prelude::*;
//!
//! // SSME on a 4x5 torus: safety stabilizes within ⌈diam/2⌉ = 2
//! // synchronous steps from ANY initial configuration.
//! let g = generators::torus(4, 5).expect("valid dimensions");
//! let diam = metrics::diameter(&g);
//! let ssme = Ssme::for_graph(&g).expect("nonempty graph");
//! let spec = SpecMe::new(ssme.clone());
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let init = random_configuration(&g, &ssme, &mut rng);
//! let mut daemon = SynchronousDaemon::new();
//! let (s, l) = (spec.clone(), spec.clone());
//! let report = MeasurementContext::new(
//!     Box::new(move |c, g| s.is_safe(c, g)),
//!     Box::new(move |c, g| l.is_legitimate(c, g)),
//! )
//! .run(&Simulator::new(&g, &ssme), &mut daemon, init, 500);
//! assert!(report.stabilization_steps as u64 <= bounds::sync_stabilization_bound(diam));
//! ```
//!
//! See `examples/` for runnable walk-throughs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use specstab_campaign as campaign;
pub use specstab_core as core;
pub use specstab_kernel as kernel;
pub use specstab_protocols as protocols;
pub use specstab_topology as topology;
pub use specstab_unison as unison;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use rand::SeedableRng;
    pub use specstab_campaign::artifact::{to_csv, to_json};
    pub use specstab_campaign::executor::{run_campaign, CampaignConfig, CampaignResult};
    pub use specstab_campaign::matrix::{Cell, InitMode, ScenarioMatrix};
    pub use specstab_campaign::report::{speculation_profile_table, to_speculation_profile};
    pub use specstab_campaign::stats::{OnlineStats, P2Quantile};
    pub use specstab_core::bounds;
    pub use specstab_core::lower_bound::{theorem4_witness, verify_witness};
    pub use specstab_core::spec_me::{starved_vertices, CsCounter, SpecMe};
    pub use specstab_core::speculation::{check_definition4, SpeculationProfile};
    pub use specstab_core::ssme::{IdAssignment, Ssme};
    pub use specstab_kernel::config::Configuration;
    pub use specstab_kernel::daemon::{
        parse_daemon_spec, BoxedDaemon, CentralDaemon, CentralStrategy, Daemon, DaemonClass,
        GreedyAdversary, KBoundedDaemon, OldestFirstDaemon, RandomDistributedDaemon,
        SynchronousDaemon,
    };
    pub use specstab_kernel::engine::{RunLimits, RunSummary, Simulator, StepScratch, StopReason};
    pub use specstab_kernel::fault::{inject_faults, inject_faults_in_place};
    pub use specstab_kernel::harness::{BoundMetric, HarnessError, ProtocolHarness, TheoremBound};
    pub use specstab_kernel::measure::{measure_with_early_stop, MeasurementContext, SpecMonitor};
    pub use specstab_kernel::observer::{
        ConfigTrace, LegitimacyMonitor, MoveCounter, Observer, SafetyMonitor, TraceRecorder,
    };
    pub use specstab_kernel::protocol::{random_configuration, Protocol, RuleId, View};
    pub use specstab_kernel::spec::{LocalSpecification, Specification};
    pub use specstab_protocols::bfs::{BfsSpec, MinPlusOneBfs};
    pub use specstab_protocols::dijkstra::{DijkstraRing, DijkstraSpec};
    pub use specstab_protocols::harness::{
        BfsHarness, Dijkstra3Harness, Dijkstra4Harness, DijkstraHarness, MatchingHarness,
        SsmeHarness,
    };
    pub use specstab_protocols::matching::{MatchingSpec, MaximalMatching};
    pub use specstab_protocols::registry;
    pub use specstab_topology::generators;
    pub use specstab_topology::metrics::{self, DistanceMatrix};
    pub use specstab_topology::spec::parse_spec;
    pub use specstab_topology::{Graph, GraphBuilder, VertexId};
    pub use specstab_unison::clock::{CherryClock, ClockValue};
    pub use specstab_unison::{analysis, AsyncUnison, SpecAu};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let g = generators::ring(4).expect("valid ring");
        let ssme = Ssme::for_graph(&g).expect("nonempty");
        assert_eq!(ssme.n(), 4);
    }
}
