//! Speculatively stabilizing mutual exclusion — the primary contribution of
//! *Introducing Speculation in Self-Stabilization* (Dubois & Guerraoui,
//! PODC 2013), reproduced in full.
//!
//! * [`ssme::Ssme`] — Algorithm 1: the SSME protocol, an asynchronous
//!   unison with clock `cherry(n, (2n−1)(diam+1)+2)` and privilege
//!   predicate `r_v = 2n + 2·diam·id_v`;
//! * [`spec_me::SpecMe`] — Specification 1 (`specME`): mutual-exclusion
//!   safety and the critical-section liveness accounting;
//! * [`speculation`] — Definitions 3–4: stabilization time as a function of
//!   the daemon, speculation profiles, and Definition 4 verdicts;
//! * [`bounds`] — Theorems 2–3 bound functions (`⌈diam/2⌉` synchronous,
//!   `O(diam·n³)` unfair);
//! * [`lower_bound`] — Theorem 4: the explicit adversarial initial
//!   configuration that keeps two vertices simultaneously privileged until
//!   step `⌈diam/2⌉ − 1`, proving tightness;
//! * [`islands`] — Definitions 5–6 (islands, borders, depths): the proof
//!   machinery of Lemmas 1–4, made executable.
//!
//! # Quickstart
//!
//! ```
//! use specstab_core::ssme::Ssme;
//! use specstab_core::spec_me::SpecMe;
//! use specstab_core::bounds;
//! use specstab_kernel::daemon::SynchronousDaemon;
//! use specstab_kernel::engine::Simulator;
//! use specstab_kernel::measure::MeasurementContext;
//! use specstab_kernel::protocol::random_configuration;
//! use specstab_kernel::spec::Specification;
//! use specstab_topology::{generators, metrics::DistanceMatrix};
//! use rand::SeedableRng;
//!
//! let g = generators::torus(3, 4).expect("valid dimensions");
//! let diam = DistanceMatrix::new(&g).diameter();
//! let ssme = Ssme::for_graph(&g).expect("nonempty graph");
//! let spec = SpecMe::new(ssme.clone());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let init = random_configuration(&g, &ssme, &mut rng);
//! let mut daemon = SynchronousDaemon::new();
//! let s = spec.clone();
//! let l = spec.clone();
//! let report = MeasurementContext::new(
//!     Box::new(move |c, g| s.is_safe(c, g)),
//!     Box::new(move |c, g| l.is_legitimate(c, g)),
//! )
//! .run(&Simulator::new(&g, &ssme), &mut daemon, init, 500);
//! // Theorem 2: safety stabilizes within ⌈diam/2⌉ synchronous steps.
//! assert!(report.stabilization_steps as u64 <= bounds::sync_stabilization_bound(diam));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod islands;
pub mod lemmas;
pub mod lower_bound;
pub mod spec_me;
pub mod speculation;
pub mod ssme;

pub use spec_me::SpecMe;
pub use ssme::{IdAssignment, Ssme};
