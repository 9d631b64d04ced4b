//! Bounded cherry clocks `X = (cherry(α, K), φ)` — Figure 1 of the paper.
//!
//! A cherry clock is the bounded set `cherry(α, K) = {-α, .., 0, .., K-1}`
//! (a "stem" of initial values `init_X = {-α, .., 0}` grafted onto a cycle
//! of correct values `stab_X = {0, .., K-1}`) together with the
//! incrementation function
//!
//! ```text
//! φ(c) = c + 1            if c < 0
//! φ(c) = (c + 1) mod K    otherwise
//! ```
//!
//! A *reset* replaces any value other than `-α` by `-α`. On correct values
//! the clock carries the circular distance `d_K` and the derived local
//! relation `≤_l`; on initial values the usual total order `≤_init`
//! applies.

use std::error::Error;
use std::fmt;

/// Errors constructing or using a [`CherryClock`].
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ClockError {
    /// `α < 1` or `K < 2` (the paper requires `α ≥ 1`, `K ≥ 2`).
    InvalidParameters {
        /// Requested initial-segment length.
        alpha: i64,
        /// Requested cycle size.
        k: i64,
    },
    /// A raw value outside `cherry(α, K)`.
    OutOfDomain {
        /// The offending raw value.
        value: i64,
    },
}

impl fmt::Display for ClockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClockError::InvalidParameters { alpha, k } => {
                write!(f, "cherry clock requires α ≥ 1 and K ≥ 2, got α={alpha}, K={k}")
            }
            ClockError::OutOfDomain { value } => {
                write!(f, "value {value} lies outside the cherry set")
            }
        }
    }
}

impl Error for ClockError {}

/// A value of a cherry clock: an integer in `{-α, .., K-1}`.
///
/// Values are plain data; all clock semantics (increment, distance,
/// comparability) live on [`CherryClock`]. The derived `Ord` is the
/// integer order, which restricted to `init_X` is exactly `≤_init`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ClockValue(i64);

impl ClockValue {
    /// The raw integer value.
    #[must_use]
    pub fn raw(self) -> i64 {
        self.0
    }
}

impl fmt::Display for ClockValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A bounded clock `X = (cherry(α, K), φ)` of initial value `α` and size
/// `K`.
///
/// ```
/// use specstab_unison::clock::CherryClock;
///
/// // The clock of Figure 1: α = 5, K = 12.
/// let x = CherryClock::new(5, 12).expect("valid parameters");
/// let mut c = x.value(-5).expect("in domain");
/// for _ in 0..5 { c = x.phi(c); }
/// assert_eq!(c.raw(), 0);               // the stem feeds the cycle
/// for _ in 0..12 { c = x.phi(c); }
/// assert_eq!(c.raw(), 0);               // and the cycle has period K
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CherryClock {
    alpha: i64,
    k: i64,
}

impl CherryClock {
    /// Creates the clock `(cherry(α, K), φ)`.
    ///
    /// # Errors
    ///
    /// [`ClockError::InvalidParameters`] unless `α ≥ 1` and `K ≥ 2`.
    pub fn new(alpha: i64, k: i64) -> Result<Self, ClockError> {
        if alpha < 1 || k < 2 {
            return Err(ClockError::InvalidParameters { alpha, k });
        }
        Ok(Self { alpha, k })
    }

    /// The initial-segment length `α`.
    #[must_use]
    pub fn alpha(&self) -> i64 {
        self.alpha
    }

    /// The cycle size `K`.
    #[must_use]
    pub fn k(&self) -> i64 {
        self.k
    }

    /// Number of distinct clock values, `α + K`.
    #[must_use]
    pub fn size(&self) -> usize {
        usize::try_from(self.alpha + self.k).expect("clock size fits usize")
    }

    /// Whether `raw` belongs to `cherry(α, K)`.
    #[must_use]
    pub fn contains(&self, raw: i64) -> bool {
        (-self.alpha..self.k).contains(&raw)
    }

    /// Wraps a raw integer into a checked [`ClockValue`].
    ///
    /// # Errors
    ///
    /// [`ClockError::OutOfDomain`] if `raw` is outside `cherry(α, K)`.
    pub fn value(&self, raw: i64) -> Result<ClockValue, ClockError> {
        if self.contains(raw) {
            Ok(ClockValue(raw))
        } else {
            Err(ClockError::OutOfDomain { value: raw })
        }
    }

    /// All clock values in increasing raw order (`-α, .., 0, .., K-1`).
    pub fn values(&self) -> impl Iterator<Item = ClockValue> {
        (-self.alpha..self.k).map(ClockValue)
    }

    /// The incrementation function `φ`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `c` is outside the clock's domain.
    #[inline]
    #[must_use]
    pub fn phi(&self, c: ClockValue) -> ClockValue {
        debug_assert!(self.contains(c.0), "phi on out-of-domain value {c}");
        // Inside the domain only K − 1 wraps (c + 1 ≤ 0 < K on the stem),
        // so the `mod K` is one comparison, no division.
        let next = c.0 + 1;
        ClockValue(if next == self.k { 0 } else { next })
    }

    /// The reset value `-α`.
    #[must_use]
    pub fn reset(&self) -> ClockValue {
        ClockValue(-self.alpha)
    }

    /// Whether `c ∈ init_X = {-α, .., 0}`.
    #[must_use]
    pub fn is_init(&self, c: ClockValue) -> bool {
        (-self.alpha..=0).contains(&c.0)
    }

    /// Whether `c ∈ init*_X = init_X \ {0}`.
    #[must_use]
    pub fn is_init_star(&self, c: ClockValue) -> bool {
        (-self.alpha..0).contains(&c.0)
    }

    /// Whether `c ∈ stab_X = {0, .., K-1}` (a *correct* value).
    #[must_use]
    pub fn is_stab(&self, c: ClockValue) -> bool {
        (0..self.k).contains(&c.0)
    }

    /// Whether `c ∈ stab*_X = stab_X \ {0}`.
    #[must_use]
    pub fn is_stab_star(&self, c: ClockValue) -> bool {
        (1..self.k).contains(&c.0)
    }

    /// Circular distance `d_K` between two **correct** values.
    ///
    /// # Panics
    ///
    /// Panics if either value is not in `stab_X` — `d_K` is only defined on
    /// `[0, K-1]`.
    #[must_use]
    pub fn d_k(&self, a: ClockValue, b: ClockValue) -> i64 {
        assert!(
            self.is_stab(a) && self.is_stab(b),
            "d_K is defined on correct values only (got {a}, {b})"
        );
        let fwd = (b.0 - a.0).rem_euclid(self.k);
        let bwd = (a.0 - b.0).rem_euclid(self.k);
        fwd.min(bwd)
    }

    /// Whether two correct values are *locally comparable*: `d_K(a, b) ≤ 1`.
    ///
    /// # Panics
    ///
    /// Panics if either value is not in `stab_X`.
    #[must_use]
    pub fn locally_comparable(&self, a: ClockValue, b: ClockValue) -> bool {
        self.d_k(a, b) <= 1
    }

    /// The local relation `a ≤_l b`: `(b - a) mod K ∈ {0, 1}`.
    ///
    /// Note this relation is not an order (the paper's remark): on a
    /// three-value cycle, `0 ≤_l 1 ≤_l 2 ≤_l 0`.
    ///
    /// # Panics
    ///
    /// Panics if either value is not in `stab_X`.
    #[must_use]
    pub fn le_local(&self, a: ClockValue, b: ClockValue) -> bool {
        assert!(
            self.is_stab(a) && self.is_stab(b),
            "≤_l is defined on correct values only (got {a}, {b})"
        );
        (b.0 - a.0).rem_euclid(self.k) <= 1
    }

    /// The total order `≤_init` on initial values.
    ///
    /// # Panics
    ///
    /// Panics if either value is not in `init_X`.
    #[must_use]
    pub fn le_init(&self, a: ClockValue, b: ClockValue) -> bool {
        assert!(
            self.is_init(a) && self.is_init(b),
            "≤_init is defined on initial values only (got {a}, {b})"
        );
        a.0 <= b.0
    }
}

impl fmt::Display for CherryClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cherry(α={}, K={})", self.alpha, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1() -> CherryClock {
        CherryClock::new(5, 12).unwrap()
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(CherryClock::new(0, 12).is_err());
        assert!(CherryClock::new(5, 1).is_err());
        assert!(CherryClock::new(-1, 12).is_err());
    }

    #[test]
    fn domain_of_figure_1() {
        let x = fig1();
        assert_eq!(x.size(), 17);
        assert!(x.contains(-5));
        assert!(x.contains(0));
        assert!(x.contains(11));
        assert!(!x.contains(-6));
        assert!(!x.contains(12));
        assert_eq!(x.values().count(), 17);
        assert!(x.value(12).is_err());
    }

    #[test]
    fn init_and_stab_partitions() {
        let x = fig1();
        let v = |r| x.value(r).unwrap();
        assert!(x.is_init(v(-5)) && x.is_init(v(0)) && !x.is_init(v(1)));
        assert!(x.is_init_star(v(-1)) && !x.is_init_star(v(0)));
        assert!(x.is_stab(v(0)) && x.is_stab(v(11)) && !x.is_stab(v(-1)));
        assert!(x.is_stab_star(v(1)) && !x.is_stab_star(v(0)));
        // 0 belongs to both init_X and stab_X.
        assert!(x.is_init(v(0)) && x.is_stab(v(0)));
    }

    #[test]
    fn phi_walks_stem_then_cycle() {
        let x = fig1();
        let mut c = x.reset();
        assert_eq!(c.raw(), -5);
        let mut seen = vec![c.raw()];
        for _ in 0..5 + 12 {
            c = x.phi(c);
            seen.push(c.raw());
        }
        assert_eq!(seen, vec![-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0]);
    }

    #[test]
    fn phi_is_cyclic_on_stab_with_period_k() {
        let x = fig1();
        let mut c = x.value(3).unwrap();
        for _ in 0..12 {
            c = x.phi(c);
        }
        assert_eq!(c.raw(), 3);
    }

    #[test]
    fn d_k_is_a_circular_metric() {
        let x = fig1();
        let v = |r| x.value(r).unwrap();
        assert_eq!(x.d_k(v(0), v(0)), 0);
        assert_eq!(x.d_k(v(0), v(1)), 1);
        assert_eq!(x.d_k(v(0), v(11)), 1); // wraparound
        assert_eq!(x.d_k(v(0), v(6)), 6);
        assert_eq!(x.d_k(v(2), v(9)), 5);
        // Symmetry and triangle inequality over the whole cycle.
        for a in 0..12 {
            for b in 0..12 {
                assert_eq!(x.d_k(v(a), v(b)), x.d_k(v(b), v(a)));
                for c in 0..12 {
                    assert!(x.d_k(v(a), v(c)) <= x.d_k(v(a), v(b)) + x.d_k(v(b), v(c)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "d_K is defined on correct values")]
    fn d_k_rejects_initial_values() {
        let x = fig1();
        let _ = x.d_k(x.reset(), x.value(0).unwrap());
    }

    #[test]
    fn le_local_is_not_an_order() {
        let x = CherryClock::new(1, 3).unwrap();
        let v = |r| x.value(r).unwrap();
        // 0 ≤l 1 ≤l 2 ≤l 0: a cycle, hence not antisymmetric/transitive.
        assert!(x.le_local(v(0), v(1)));
        assert!(x.le_local(v(1), v(2)));
        assert!(x.le_local(v(2), v(0)));
        assert!(!x.le_local(v(0), v(2)));
    }

    #[test]
    fn le_local_matches_comparability() {
        let x = fig1();
        let v = |r| x.value(r).unwrap();
        for a in 0..12 {
            for b in 0..12 {
                let comparable = x.locally_comparable(v(a), v(b));
                let either = x.le_local(v(a), v(b)) || x.le_local(v(b), v(a));
                assert_eq!(comparable, either, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn le_init_is_total_on_stem() {
        let x = fig1();
        let v = |r| x.value(r).unwrap();
        assert!(x.le_init(v(-5), v(0)));
        assert!(x.le_init(v(-3), v(-3)));
        assert!(!x.le_init(v(0), v(-1)));
    }

    #[test]
    fn reset_is_minus_alpha() {
        assert_eq!(fig1().reset().raw(), -5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(fig1().to_string(), "cherry(α=5, K=12)");
        assert_eq!(fig1().reset().to_string(), "-5");
    }
}
