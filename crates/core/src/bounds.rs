//! The paper's complexity bounds for SSME (Theorems 2–4).

use specstab_unison::analysis;

/// Theorem 2 (upper bound) and Theorem 4 (matching lower bound):
/// `conv_time(SSME, sd) = ⌈diam(g)/2⌉` synchronous steps.
#[must_use]
pub fn sync_stabilization_bound(diam: u32) -> u64 {
    u64::from(diam).div_ceil(2)
}

/// Theorem 3: `conv_time(SSME, ud) ∈ O(diam·n³)`; the concrete bound from
/// Devismes & Petit with the paper's `α = n`:
/// `2·diam·n³ + (n + 1)·n² + (n − 2·diam)·n`.
#[must_use]
pub fn unfair_stabilization_bound(n: usize, diam: u32) -> u128 {
    analysis::unfair_step_bound(n, diam, i64::try_from(n).expect("n fits i64"))
}

/// Dijkstra's mutual exclusion on rings, for comparison (Section 3):
/// stabilizes in `Θ(n²)` steps under `ud` and `n` steps under `sd`.
#[must_use]
pub fn dijkstra_sync_bound(n: usize) -> u64 {
    n as u64
}

/// The classical `2n − 3` worst-case law for full synchronous convergence
/// (legitimacy entry) of Dijkstra's K-state ring: the token must drain to
/// the root and sweep the ring once. This is the envelope the E8
/// experiment and the campaign engine check measured legitimacy-entry
/// times against.
#[must_use]
pub fn dijkstra_sync_entry_law(n: usize) -> u64 {
    (2 * n).saturating_sub(3) as u64
}

/// The order `n²` of Dijkstra's unfair-daemon stabilization time, which is
/// all the paper states. It is not an upper bound: the exact central
/// worst case on ring-n is (3n + 1)(n − 2)/2 steps for n = 4..6 (13, 24,
/// 38; pinned in `specstab_protocols::dijkstra`'s tests), above n² from
/// n = 6 on.
#[must_use]
pub fn dijkstra_unfair_order(n: usize) -> u64 {
    (n as u64) * (n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_bound_is_half_diameter_rounded_up() {
        assert_eq!(sync_stabilization_bound(0), 0);
        assert_eq!(sync_stabilization_bound(1), 1);
        assert_eq!(sync_stabilization_bound(2), 1);
        assert_eq!(sync_stabilization_bound(3), 2);
        assert_eq!(sync_stabilization_bound(4), 2);
        assert_eq!(sync_stabilization_bound(9), 5);
    }

    #[test]
    fn unfair_bound_grows_as_diam_n_cubed() {
        let b1 = unfair_stabilization_bound(10, 5);
        // 2*5*1000 + 11*100 + 0*10 = 10000 + 1100 = 11100.
        assert_eq!(b1, 11_100);
        // Dominant term scaling: doubling n multiplies by ~8.
        let b2 = unfair_stabilization_bound(20, 5);
        assert!(b2 > 7 * b1 && b2 < 9 * b1);
    }

    #[test]
    fn ssme_beats_dijkstra_synchronously_on_rings() {
        // On a ring, diam = ⌊n/2⌋: SSME needs ⌈diam/2⌉ ≈ n/4 < n.
        for n in 3..200usize {
            let diam = (n / 2) as u32;
            assert!(sync_stabilization_bound(diam) < dijkstra_sync_bound(n));
        }
    }

    #[test]
    fn dijkstra_orders() {
        assert_eq!(dijkstra_sync_bound(7), 7);
        assert_eq!(dijkstra_unfair_order(7), 49);
    }
}
