//! Cherry clocks and the self-stabilizing asynchronous unison substrate.
//!
//! The PODC 2013 paper builds its speculatively stabilizing mutual
//! exclusion (SSME) on top of the asynchronous unison protocol of
//! Boulinier, Petit & Villain (`[2]` in the paper). This crate implements
//! that substrate from scratch:
//!
//! * [`clock::CherryClock`] — the bounded clock `(cherry(α, K), φ)` of
//!   Figure 1, with the circular distance `d_K`, the local relation `≤_l`
//!   and the initial order `≤_init`;
//! * [`protocol::AsyncUnison`] — the three-rule (NA/CA/RA) protocol;
//! * [`spec::SpecAu`] — Specification 2 (`specAU`): the legitimate set
//!   `Γ1` and the increment-liveness observer;
//! * [`params`] — the `α ≥ hole(g) − 2`, `K > cyclo(g)` parameter rules,
//!   with exact validation on small graphs;
//! * [`analysis`] — the published stabilization bounds used by the paper's
//!   proofs.
//!
//! # Example
//!
//! ```
//! use specstab_kernel::daemon::SynchronousDaemon;
//! use specstab_kernel::engine::Simulator;
//! use specstab_kernel::measure::MeasurementContext;
//! use specstab_kernel::protocol::random_configuration;
//! use specstab_kernel::spec::Specification;
//! use specstab_topology::generators;
//! use specstab_unison::clock::CherryClock;
//! use specstab_unison::protocol::AsyncUnison;
//! use specstab_unison::spec::SpecAu;
//! use rand::SeedableRng;
//!
//! let g = generators::ring(6).expect("n >= 3");
//! let clock = CherryClock::new(6, 7).expect("valid parameters");
//! let unison = AsyncUnison::new(clock);
//! let spec = SpecAu::new(clock);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let init = random_configuration(&g, &unison, &mut rng);
//! let mut daemon = SynchronousDaemon::new();
//! let report = MeasurementContext::new(
//!     Box::new(move |c, g| spec.is_safe(c, g)),
//!     Box::new(move |c, g| spec.is_legitimate(c, g)),
//! )
//! .run(&Simulator::new(&g, &unison), &mut daemon, init, 200);
//! assert!(report.ended_legitimate);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod clock;
pub mod packed;
pub mod params;
pub mod protocol;
pub mod spec;
pub mod sync_unison;

pub use clock::{CherryClock, ClockValue};
pub use protocol::AsyncUnison;
pub use spec::SpecAu;
