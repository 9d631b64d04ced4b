//! Speculative stabilization (Definitions 3–4), as a measurable artifact.
//!
//! Definition 4: a protocol `π` is `(d, d', f, f')`-speculatively
//! stabilizing for a specification when (i) `π` self-stabilizes under the
//! stronger daemon `d`, and (ii) its stabilization times satisfy
//! `conv_time(π, d) ∈ Θ(f)` and `conv_time(π, d') ∈ Θ(f')` with `f' < f`
//! for the weaker daemon `d' ≺ d`. The weak daemon captures the executions
//! speculated to be frequent (for SSME: synchronous ones).
//!
//! This module defines *speculation profiles* — the stabilization time as
//! a function of the daemon, the paper's central conceptual move — and
//! checks Definition 4's requirements against them and claimed bound
//! functions. The campaign engine measures the profiles: its
//! `specstab_campaign::report::to_speculation_profile` projects a
//! campaign's scenario groups onto a [`SpeculationProfile`].

use crate::ssme::Ssme;
use specstab_kernel::daemon::{AdversaryMetric, DaemonClass};
use specstab_unison::clock::ClockValue;
use specstab_unison::SpecAu;
use std::fmt;

/// The "distance to Γ1" disorder metric for an SSME instance: the number of
/// vertices holding non-stabilized clock values plus the largest pairwise
/// drift. Greedy adversaries maximize it to elicit near-worst-case
/// stabilization times (the workhorse of experiment E3 and the campaign
/// engine's `adversary-*` daemon specs).
#[must_use]
pub fn ssme_disorder_metric(ssme: &Ssme) -> AdversaryMetric<ClockValue> {
    let clock = ssme.clock();
    let au = SpecAu::new(clock);
    Box::new(move |cfg, _graph| {
        let bad = cfg.states().iter().filter(|&&r| !clock.is_stab(r)).count();
        let drift = au.max_pairwise_drift(cfg).unwrap_or(i64::from(u16::MAX));
        bad as f64 * 1000.0 + drift as f64
    })
}

/// Measured stabilization behavior under one daemon.
#[derive(Clone, Debug)]
pub struct ProfileEntry {
    /// Daemon name.
    pub daemon: String,
    /// Daemon taxonomy class.
    pub class: DaemonClass,
    /// Number of runs (initial configurations) measured.
    pub runs: usize,
    /// Maximum measured stabilization time (lower bound on `conv_time`).
    pub max_stabilization: usize,
    /// Mean measured stabilization time.
    pub mean_stabilization: f64,
    /// Number of runs that ended inside the legitimate region.
    pub converged_runs: usize,
}

/// The stabilization time of one protocol *as a function of the daemon* —
/// the paper's reframing of the complexity measure.
#[derive(Clone, Debug)]
pub struct SpeculationProfile {
    /// Protocol name.
    pub protocol: String,
    /// Graph description.
    pub graph: String,
    /// One entry per measured daemon.
    pub entries: Vec<ProfileEntry>,
}

impl SpeculationProfile {
    /// The entry for a daemon class, if measured.
    #[must_use]
    pub fn entry_for(&self, class: DaemonClass) -> Option<&ProfileEntry> {
        self.entries.iter().find(|e| e.class == class)
    }
}

impl fmt::Display for SpeculationProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "speculation profile of {} on {}:", self.protocol, self.graph)?;
        for e in &self.entries {
            writeln!(
                f,
                "  {:<28} [{}] max={} mean={:.2} ({}/{} converged)",
                e.daemon,
                e.class,
                e.max_stabilization,
                e.mean_stabilization,
                e.converged_runs,
                e.runs
            )?;
        }
        Ok(())
    }
}

/// Verdict of checking Definition 4 on measured data.
#[derive(Clone, Debug)]
pub struct SpeculationVerdict {
    /// The weaker daemon is strictly below the stronger one (`d' ≺ d`).
    pub daemons_ordered: bool,
    /// All runs under the stronger daemon converged (self-stabilization
    /// evidence, condition (i)).
    pub stabilizes_under_strong: bool,
    /// Measured stabilization under the weak daemon did not exceed the
    /// claimed bound `f'`.
    pub weak_within_claimed_bound: bool,
    /// Measured max under the weak daemon, for reporting.
    pub weak_measured: usize,
    /// The claimed bound `f'(g)` evaluated on this graph.
    pub weak_claimed: u64,
}

impl SpeculationVerdict {
    /// Whether all Definition 4 checks passed.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.daemons_ordered && self.stabilizes_under_strong && self.weak_within_claimed_bound
    }
}

/// Checks Definition 4 against a measured profile:
///
/// * `weak ≺ strong` in the daemon partial order;
/// * every run under the strong daemon converged (condition (i) evidence);
/// * the weak daemon's measured worst case respects the claimed bound
///   `f'(g)` (condition (ii), upper side — the lower/Θ side is established
///   by the matching lower-bound experiment E4).
#[must_use]
pub fn check_definition4(
    prof: &SpeculationProfile,
    strong: DaemonClass,
    weak: DaemonClass,
    weak_bound: u64,
) -> SpeculationVerdict {
    let daemons_ordered = weak < strong;
    let strong_entry = prof.entry_for(strong);
    let weak_entry = prof.entry_for(weak);
    let stabilizes_under_strong =
        strong_entry.is_some_and(|e| e.converged_runs == e.runs && e.runs > 0);
    let weak_measured = weak_entry.map_or(usize::MAX, |e| e.max_stabilization);
    let weak_within_claimed_bound = weak_entry
        .is_some_and(|e| u64::try_from(e.max_stabilization).unwrap_or(u64::MAX) <= weak_bound);
    SpeculationVerdict {
        daemons_ordered,
        stabilizes_under_strong,
        weak_within_claimed_bound,
        weak_measured,
        weak_claimed: weak_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_fails_for_unordered_daemons() {
        let prof = SpeculationProfile { protocol: "x".into(), graph: "g".into(), entries: vec![] };
        let v = check_definition4(
            &prof,
            DaemonClass::synchronous(),
            DaemonClass::central_unfair(), // incomparable with sd
            10,
        );
        assert!(!v.daemons_ordered);
        assert!(!v.holds());
    }
}
