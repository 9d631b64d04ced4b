//! Property suite for the engine's counted word bitset: random flip
//! sequences checked against a `BTreeSet` reference after every flip batch,
//! on sizes around the word boundaries (1, 63, 64, 65) and the campaign's
//! large graphs (1024, 1500).
//!
//! Every read the daemons use is compared exhaustively: `len`, `contains`,
//! ascending `iter`, `first`, `last`, `nth(k)` for every `k` (with `None`
//! at `len`) and `next_from(c)` for every cursor `c`, past the end
//! included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specstab_kernel::enabled::EnabledSet;
use specstab_topology::VertexId;
use std::collections::BTreeSet;

const SIZES: [usize; 6] = [1, 63, 64, 65, 1024, 1500];

fn assert_matches(set: &EnabledSet, reference: &BTreeSet<usize>, n: usize, what: &str) {
    let sorted: Vec<usize> = reference.iter().copied().collect();
    assert_eq!(set.len(), sorted.len(), "{what}: len");
    assert_eq!(set.is_empty(), sorted.is_empty(), "{what}: is_empty");
    let iterated: Vec<usize> = set.iter().map(VertexId::index).collect();
    assert_eq!(iterated, sorted, "{what}: ascending iter");
    assert_eq!(set.first().map(VertexId::index), sorted.first().copied(), "{what}: first");
    assert_eq!(set.last().map(VertexId::index), sorted.last().copied(), "{what}: last");
    for v in 0..n {
        assert_eq!(set.contains(VertexId::new(v)), reference.contains(&v), "{what}: contains {v}");
    }
    for (k, &v) in sorted.iter().enumerate() {
        assert_eq!(set.nth(k).map(VertexId::index), Some(v), "{what}: nth({k})");
    }
    assert_eq!(set.nth(sorted.len()), None, "{what}: nth(len)");
    assert_eq!(set.nth(sorted.len() + 64), None, "{what}: nth past len");
    for c in 0..n + 70 {
        let expected = reference.range(c..).next().copied();
        assert_eq!(set.next_from(c).map(VertexId::index), expected, "{what}: next_from({c})");
    }
}

/// Applies `flips` random set/clear operations with the given density of
/// `on` flips, mirroring each into the reference.
fn flip(
    set: &mut EnabledSet,
    reference: &mut BTreeSet<usize>,
    n: usize,
    flips: usize,
    p_on: f64,
    rng: &mut StdRng,
) {
    for _ in 0..flips {
        let v = rng.gen_range(0..n);
        let on = rng.gen_bool(p_on);
        set.set(VertexId::new(v), on);
        if on {
            reference.insert(v);
        } else {
            reference.remove(&v);
        }
    }
}

fn check_random_flips(n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = EnabledSet::new(n);
    let mut reference = BTreeSet::new();
    assert_matches(&set, &reference, n, &format!("n={n} empty"));
    // Fill up, churn around half density, drain, refill: every density a
    // run passes through, with repeated flips to the same value included.
    for (round, p_on) in [0.9, 0.5, 0.5, 0.1, 0.02, 0.7].into_iter().enumerate() {
        flip(&mut set, &mut reference, n, n.max(8), p_on, &mut rng);
        assert_matches(&set, &reference, n, &format!("n={n} seed={seed} round {round}"));
    }
    // All members, then none.
    for v in 0..n {
        set.set(VertexId::new(v), true);
        reference.insert(v);
    }
    assert_matches(&set, &reference, n, &format!("n={n} full"));
    for v in 0..n {
        set.set(VertexId::new(v), false);
    }
    reference.clear();
    assert_matches(&set, &reference, n, &format!("n={n} drained"));
    // `reset` empties and resizes in place.
    set.set(VertexId::new(n - 1), true);
    set.reset(n);
    assert_matches(&set, &reference, n, &format!("n={n} reset"));
}

#[test]
fn random_flip_sequences_match_a_btreeset() {
    for n in SIZES {
        for seed in 0..4 {
            check_random_flips(n, 0xB175 + seed);
        }
    }
}

#[test]
fn from_vertices_equals_flipping_on() {
    let mut rng = StdRng::seed_from_u64(0xF0);
    for n in SIZES {
        let members: BTreeSet<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
        let set = EnabledSet::from_vertices(n, members.iter().map(|&v| VertexId::new(v)));
        assert_matches(&set, &members, n, &format!("n={n} from_vertices"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary seeds on every size: sparse and dense single words, all
    /// 64 rank positions of a word, and multi-word selects.
    #[test]
    fn arbitrary_flip_sequences_match_a_btreeset(size in 0usize..6, seed in any::<u64>()) {
        check_random_flips(SIZES[size], seed);
    }
}
