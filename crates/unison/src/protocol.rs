//! The self-stabilizing asynchronous unison of Boulinier, Petit & Villain
//! (PODC 2004) — the substrate of SSME.
//!
//! Every vertex `v` owns a register `r_v` holding a [`ClockValue`] of a
//! shared [`CherryClock`]. The protocol has three rules (Algorithm 1 of the
//! paper, which is this protocol verbatim — only the clock size and the
//! `privileged` predicate differ, and the latter does not interfere):
//!
//! ```text
//! NA :: normalStep_v   → r_v := φ(r_v)
//! CA :: convergeStep_v → r_v := φ(r_v)
//! RA :: resetInit_v    → r_v := -α
//! ```
//!
//! with the predicates
//!
//! ```text
//! correct_v(u)    ≡ r_v ∈ stab_X ∧ r_u ∈ stab_X ∧ d_K(r_v, r_u) ≤ 1
//! allCorrect_v    ≡ ∀u ∈ neig(v), correct_v(u)
//! normalStep_v    ≡ allCorrect_v ∧ (∀u ∈ neig(v), r_v ≤_l r_u)
//! convergeStep_v  ≡ r_v ∈ init*_X ∧ ∀u ∈ neig(v), (r_u ∈ init_X ∧ r_v ≤_init r_u)
//! resetInit_v     ≡ ¬allCorrect_v ∧ (r_v ∉ init_X)
//! ```
//!
//! The three guards are pairwise exclusive, so the protocol is
//! deterministic (validated by tests and property tests).
//!
//! The predicates above are kept as the readable reference API
//! ([`AsyncUnison::normal_step`] and friends, over
//! [`CherryClock::d_k`]/[`CherryClock::le_local`]). The engine's guard,
//! [`Protocol::enabled_rule`], evaluates all three in one division-free
//! pass over the neighbors (`neighbor_term`) and picks the rule from a
//! table; the lane-packed step ([`crate::packed`]) shares the same
//! per-neighbor term and guard combination, so the paths cannot drift.

use crate::clock::{CherryClock, ClockValue};
use rand::rngs::StdRng;
use rand::Rng;
use specstab_kernel::protocol::{Protocol, RuleId, RuleInfo, View};
use specstab_topology::VertexId;
use std::ops::{Add, BitAnd, Shr, Sub};

/// A register value in plain integer form: `i64` for the scalar
/// [`ClockValue`], `i32` for the packed lanes.
pub(crate) trait Register:
    Copy
    + Ord
    + Add<Output = Self>
    + Sub<Output = Self>
    + BitAnd<Output = Self>
    + Shr<u32, Output = Self>
{
    /// Zero.
    const ZERO: Self;
    /// One.
    const ONE: Self;
    /// The shift that turns a value into its sign mask (`BITS - 1`).
    const SIGN_SHIFT: u32;
}

impl Register for i32 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const SIGN_SHIFT: u32 = 31;
}

impl Register for i64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const SIGN_SHIFT: u32 = 63;
}

/// The per-neighbor terms of the three guards at `v` for one neighbor
/// `u`: the guards are conjunctions of these over `neig(v)`.
#[derive(Copy, Clone)]
pub(crate) struct NeighborTerm {
    /// `correct_v(u)`.
    pub(crate) correct: bool,
    /// `r_v ≤_l r_u`; meaningful only when `correct` holds.
    pub(crate) le: bool,
    /// `r_u ∈ init_X ∧ r_v ≤_init r_u`.
    pub(crate) conv: bool,
}

/// [`NeighborTerm`] for `a = r_v` and `b = r_u`, both in the domain
/// `[-α, K)` of a clock of size `k`, without division or branch: on
/// correct values `(b - a) mod K` is one subtraction plus a conditional
/// add of `K` done with the sign mask.
#[inline(always)]
pub(crate) fn neighbor_term<R: Register>(a: R, b: R, k: R) -> NeighborTerm {
    let mut fwd = b - a;
    fwd = fwd + ((fwd >> R::SIGN_SHIFT) & k);
    NeighborTerm {
        // Both correct and d_K(a, b) ≤ 1, i.e. fwd ≤ 1 or fwd ≥ K − 1.
        correct: (a >= R::ZERO) & (b >= R::ZERO) & ((fwd <= R::ONE) | (fwd >= k - R::ONE)),
        // (b − a) mod K ≤ 1: exact whenever both values are correct, the
        // only case it is read in.
        le: fwd <= R::ONE,
        conv: (b <= R::ZERO) & (a <= b),
    }
}

/// The guards `[normalStep, convergeStep, resetInit]` at a vertex with
/// register `a` from the conjunctions of its [`NeighborTerm`]s, made
/// pairwise exclusive in the priority order NA, CA, RA. They are exclusive
/// already except at an isolated vertex with `a < 0`, where both NA and
/// CA hold vacuously and NA takes precedence.
#[inline(always)]
pub(crate) fn guards<R: Register>(a: R, all_correct: bool, all_le: bool, conv: bool) -> [bool; 3] {
    [all_correct & all_le, !all_correct & (a < R::ZERO) & conv, !all_correct & (a > R::ZERO)]
}

/// The enabled rule indexed by `na + 2·ca + 3·ra` over the exclusive
/// [`guards`].
const RULE_BY_GUARD: [Option<RuleId>; 4] =
    [None, Some(rules::NA), Some(rules::CA), Some(rules::RA)];

/// Rule indices of the unison protocol.
pub mod rules {
    use specstab_kernel::protocol::RuleId;

    /// Normal action: increment a locally-minimal correct clock.
    pub const NA: RuleId = RuleId::new(0);
    /// Converge action: increment a locally-minimal initial clock.
    pub const CA: RuleId = RuleId::new(1);
    /// Reset action: jump to `-α` upon local inconsistency.
    pub const RA: RuleId = RuleId::new(2);
}

/// The asynchronous unison protocol over a given cherry clock.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AsyncUnison {
    clock: CherryClock,
}

impl AsyncUnison {
    /// Creates the protocol over `clock`.
    #[must_use]
    pub fn new(clock: CherryClock) -> Self {
        Self { clock }
    }

    /// The underlying cherry clock.
    #[must_use]
    pub fn clock(&self) -> CherryClock {
        self.clock
    }

    /// `correct_v(u)` for register values `rv`, `ru`.
    #[must_use]
    pub fn correct(&self, rv: ClockValue, ru: ClockValue) -> bool {
        self.clock.is_stab(rv) && self.clock.is_stab(ru) && self.clock.d_k(rv, ru) <= 1
    }

    /// `allCorrect_v` over a view.
    #[must_use]
    pub fn all_correct(&self, view: &View<'_, ClockValue>) -> bool {
        let rv = *view.state();
        view.neighbor_states().all(|(_, &ru)| self.correct(rv, ru))
    }

    /// `normalStep_v` over a view.
    #[must_use]
    pub fn normal_step(&self, view: &View<'_, ClockValue>) -> bool {
        let rv = *view.state();
        self.all_correct(view) && view.neighbor_states().all(|(_, &ru)| self.clock.le_local(rv, ru))
    }

    /// `convergeStep_v` over a view.
    #[must_use]
    pub fn converge_step(&self, view: &View<'_, ClockValue>) -> bool {
        let rv = *view.state();
        self.clock.is_init_star(rv)
            && view
                .neighbor_states()
                .all(|(_, &ru)| self.clock.is_init(ru) && self.clock.le_init(rv, ru))
    }

    /// `resetInit_v` over a view.
    #[must_use]
    pub fn reset_init(&self, view: &View<'_, ClockValue>) -> bool {
        !self.all_correct(view) && !self.clock.is_init(*view.state())
    }
}

impl Protocol for AsyncUnison {
    type State = ClockValue;

    fn name(&self) -> String {
        format!("async-unison[{}]", self.clock)
    }

    fn rules(&self) -> Vec<RuleInfo> {
        vec![RuleInfo::new("NA"), RuleInfo::new("CA"), RuleInfo::new("RA")]
    }

    /// The first of NA, CA, RA whose guard holds, in one pass over the
    /// neighbors (equal to the [`AsyncUnison::normal_step`],
    /// [`AsyncUnison::converge_step`], [`AsyncUnison::reset_init`]
    /// cascade; pinned on full state domains by the tests).
    #[inline]
    fn enabled_rule(&self, view: &View<'_, ClockValue>) -> Option<RuleId> {
        let a = view.state().raw();
        let k = self.clock.k();
        debug_assert!(self.clock.contains(a), "register {a} outside {}", self.clock);
        let (mut all_correct, mut all_le, mut conv) = (true, true, true);
        for (_, ru) in view.neighbor_states() {
            debug_assert!(self.clock.contains(ru.raw()), "register {ru} outside {}", self.clock);
            let term = neighbor_term(a, ru.raw(), k);
            all_correct &= term.correct;
            all_le &= term.le;
            conv &= term.conv;
        }
        let [na, ca, ra] = guards(a, all_correct, all_le, conv);
        RULE_BY_GUARD[usize::from(na) + 2 * usize::from(ca) + 3 * usize::from(ra)]
    }

    #[inline]
    fn apply(&self, view: &View<'_, ClockValue>, rule: RuleId) -> ClockValue {
        match rule {
            rules::NA | rules::CA => self.clock.phi(*view.state()),
            rules::RA => self.clock.reset(),
            other => panic!("unison has no rule {other}"),
        }
    }

    fn random_state(&self, _v: VertexId, rng: &mut StdRng) -> ClockValue {
        let raw = rng.gen_range(-self.clock.alpha()..self.clock.k());
        self.clock.value(raw).expect("sampled inside the cherry domain")
    }

    fn state_domain(&self, _v: VertexId) -> Option<Vec<ClockValue>> {
        Some(self.clock.values().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specstab_kernel::config::Configuration;
    use specstab_kernel::search::enumerate_all_configurations;
    use specstab_topology::generators;

    fn clock() -> CherryClock {
        CherryClock::new(3, 7).unwrap()
    }

    fn cfg(clock: &CherryClock, raws: &[i64]) -> Configuration<ClockValue> {
        Configuration::new(raws.iter().map(|&r| clock.value(r).unwrap()).collect())
    }

    #[test]
    fn guards_are_pairwise_exclusive_on_full_domain() {
        // The one-pass table guard and the one-pass Γ1 check against their
        // readable definitions, on every configuration of small graphs
        // (isolated vertex, path, star, triangle) for two clocks.
        let graphs = [
            generators::path(1).unwrap(),
            generators::path(3).unwrap(),
            generators::star(4).unwrap(),
            generators::complete(3).unwrap(),
        ];
        for (alpha, k) in [(1, 2), (3, 7)] {
            let x = CherryClock::new(alpha, k).unwrap();
            let p = AsyncUnison::new(x);
            let au = crate::spec::SpecAu::new(x);
            for g in &graphs {
                let configs = enumerate_all_configurations(g, &p, 10_000).expect("small domain");
                for conf in configs {
                    for v in g.vertices() {
                        let view = View::new(v, g, &conf);
                        let (n, ca, ra) =
                            (p.normal_step(&view), p.converge_step(&view), p.reset_init(&view));
                        let what = format!("{x} {} at {v} in {:?}", g.name(), conf.states());
                        if view.degree() > 0 {
                            let fired = usize::from(n) + usize::from(ca) + usize::from(ra);
                            assert!(fired <= 1, "guards overlap: {what}");
                        }
                        let cascade = if n {
                            Some(rules::NA)
                        } else if ca {
                            Some(rules::CA)
                        } else if ra {
                            Some(rules::RA)
                        } else {
                            None
                        };
                        assert_eq!(p.enabled_rule(&view), cascade, "enabled_rule: {what}");
                        let rv = *conf.get(v);
                        let by_definition = !x.is_stab(rv)
                            || g.neighbors(v).iter().any(|&u| {
                                let ru = *conf.get(u);
                                !x.is_stab(ru) || x.d_k(rv, ru) > 1
                            });
                        assert_eq!(
                            au.violates_gamma_one_at(v, &conf, g),
                            by_definition,
                            "violates_gamma_one_at: {what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_correct_configuration_everyone_ticks() {
        let x = clock();
        let p = AsyncUnison::new(x);
        let g = generators::ring(4).unwrap();
        let conf = cfg(&x, &[2, 2, 2, 2]);
        for v in g.vertices() {
            let view = View::new(v, &g, &conf);
            assert_eq!(p.enabled_rule(&view), Some(rules::NA));
            assert_eq!(p.apply(&view, rules::NA).raw(), 3);
        }
    }

    #[test]
    fn only_local_minimum_ticks_in_legitimate_drift() {
        let x = clock();
        let p = AsyncUnison::new(x);
        let g = generators::path(3).unwrap();
        let conf = cfg(&x, &[3, 2, 3]);
        let views: Vec<Option<RuleId>> =
            g.vertices().map(|v| p.enabled_rule(&View::new(v, &g, &conf))).collect();
        assert_eq!(views, vec![None, Some(rules::NA), None]);
    }

    #[test]
    fn wraparound_minimum_is_detected() {
        let x = clock();
        let p = AsyncUnison::new(x);
        let g = generators::path(2).unwrap();
        // K=7: values 6 and 0 are locally comparable, 6 ≤l 0.
        let conf = cfg(&x, &[6, 0]);
        let r0 = p.enabled_rule(&View::new(VertexId::new(0), &g, &conf));
        let r1 = p.enabled_rule(&View::new(VertexId::new(1), &g, &conf));
        assert_eq!(r0, Some(rules::NA));
        assert_eq!(r1, None);
    }

    #[test]
    fn incomparable_correct_neighbor_triggers_reset() {
        let x = clock();
        let p = AsyncUnison::new(x);
        let g = generators::path(2).unwrap();
        let conf = cfg(&x, &[1, 4]); // d_K(1,4) = 3 > 1
        for v in g.vertices() {
            let view = View::new(v, &g, &conf);
            assert_eq!(p.enabled_rule(&view), Some(rules::RA), "{v}");
            assert_eq!(p.apply(&view, rules::RA), x.reset());
        }
    }

    #[test]
    fn initial_neighbor_blocks_stab_vertex_into_reset() {
        let x = clock();
        let p = AsyncUnison::new(x);
        let g = generators::path(2).unwrap();
        // v0 = 5 (stab*), v1 = -2 (init*): not correct → v0 resets. v1 has a
        // non-init neighbor → CA guard false; its value is init → RA false.
        let conf = cfg(&x, &[5, -2]);
        assert_eq!(p.enabled_rule(&View::new(VertexId::new(0), &g, &conf)), Some(rules::RA));
        assert_eq!(p.enabled_rule(&View::new(VertexId::new(1), &g, &conf)), None);
    }

    #[test]
    fn converge_action_on_minimal_initial_value() {
        let x = clock();
        let p = AsyncUnison::new(x);
        let g = generators::path(3).unwrap();
        let conf = cfg(&x, &[-3, -1, 0]);
        let r0 = p.enabled_rule(&View::new(VertexId::new(0), &g, &conf));
        let r1 = p.enabled_rule(&View::new(VertexId::new(1), &g, &conf));
        assert_eq!(r0, Some(rules::CA));
        assert_eq!(r1, None, "not locally minimal among initial values");
        let view = View::new(VertexId::new(0), &g, &conf);
        assert_eq!(p.apply(&view, rules::CA).raw(), -2);
    }

    #[test]
    fn zero_is_not_converge_eligible() {
        // 0 ∈ init_X but 0 ∉ init*_X: a zero-valued vertex must use NA.
        let x = clock();
        let p = AsyncUnison::new(x);
        let g = generators::path(2).unwrap();
        let conf = cfg(&x, &[0, 0]);
        for v in g.vertices() {
            assert_eq!(p.enabled_rule(&View::new(v, &g, &conf)), Some(rules::NA));
        }
    }

    #[test]
    fn protocol_metadata() {
        let p = AsyncUnison::new(clock());
        assert_eq!(p.rules().len(), 3);
        assert!(p.name().contains("async-unison"));
        let domain = p.state_domain(VertexId::new(0)).unwrap();
        assert_eq!(domain.len(), 10);
    }
}
