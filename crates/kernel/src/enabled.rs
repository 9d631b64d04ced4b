//! The engine's enabled set: one counted word bitset.
//!
//! Vertex `v` is bit `v % 64` of word `v / 64`. Next to the words the set
//! keeps the population count of every word (a `u8`, at most 64) and the
//! exact total `len`. A flip updates the word, its count and `len` without
//! a branch, so maintaining the set costs O(1) per re-evaluated vertex,
//! whatever its size.
//!
//! Reads are what the daemons need: [`EnabledSet::len`], membership,
//! ascending iteration, the `k`-th member ([`EnabledSet::nth`]), the first
//! member at or after a cursor ([`EnabledSet::next_from`]) and the two
//! extremes. `nth` is a branch-free pass over the word counts followed by
//! a broadword select inside the chosen word (SWAR byte counts and a
//! 256 × 8 select table), so it needs no POPCNT instruction and costs the
//! same wherever the `k`-th member lies. Ascending iteration makes every
//! pick the same as over the sorted vertex list the set replaces:
//! `nth(k)` is `sorted[k]`, `next_from(c)` is the first `sorted` entry
//! `≥ c`, `first`/`last` are `sorted[0]`/`sorted[len - 1]`.

use specstab_topology::VertexId;

/// `SELECT_IN_BYTE[b * 8 + r]` is the position of the `r`-th (0-based)
/// set bit of byte `b`, or 8 when `b` has at most `r` set bits.
const SELECT_IN_BYTE: [u8; 256 * 8] = select_in_byte_table();

const fn select_in_byte_table() -> [u8; 256 * 8] {
    let mut table = [8u8; 256 * 8];
    let mut byte = 0;
    while byte < 256 {
        let (mut rank, mut bit) = (0, 0);
        while bit < 8 {
            if (byte >> bit) & 1 == 1 {
                table[byte * 8 + rank] = bit as u8;
                rank += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
}

/// `0x01` in every byte.
const ONES_STEP_8: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte.
const MSBS_STEP_8: u64 = 0x8080_8080_8080_8080;

/// Position of the `rank`-th (0-based) set bit of `word`, which must have
/// more than `rank` set bits.
#[inline]
fn select_in_word(word: u64, rank: u64) -> usize {
    debug_assert!(rank < u64::from(word.count_ones()), "select past the word's population");
    // Population count of every byte (SWAR), then inclusive prefix sums
    // across the bytes: byte i of `prefix` counts the set bits of bytes
    // 0..=i.
    let mut bytes = word - ((word >> 1) & 0x5555_5555_5555_5555);
    bytes = (bytes & 0x3333_3333_3333_3333) + ((bytes >> 2) & 0x3333_3333_3333_3333);
    bytes = (bytes + (bytes >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    let prefix = bytes.wrapping_mul(ONES_STEP_8);
    // Byte i lies wholly before the target bit iff prefix_i ≤ rank. Each
    // byte of `(rank | 0x80) - prefix` keeps its top bit exactly then (no
    // borrow crosses a byte: rank < 64 and prefix_i ≤ 64), and the prefix
    // sums are monotone, so the number of such bytes is the target byte.
    let before = ((((rank * ONES_STEP_8) | MSBS_STEP_8) - prefix) & MSBS_STEP_8) >> 7;
    let shift = (before.wrapping_mul(ONES_STEP_8) >> 56) * 8;
    let rank_before = ((prefix << 8) >> shift) & 0xFF;
    let byte = ((word >> shift) & 0xFF) as usize;
    shift as usize + usize::from(SELECT_IN_BYTE[byte * 8 + (rank - rank_before) as usize])
}

/// The set of enabled vertices of a configuration, as a counted word
/// bitset over the vertex indices `0..n` (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct EnabledSet {
    words: Vec<u64>,
    /// Population count of each word.
    counts: Vec<u8>,
    len: usize,
}

impl EnabledSet {
    /// An empty set over the vertex indices `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut set = Self::default();
        set.reset(n);
        set
    }

    /// The set over `0..n` holding exactly `vertices`.
    ///
    /// # Panics
    ///
    /// Panics if some vertex index is `≥ n` rounded up to a multiple of 64.
    #[must_use]
    pub fn from_vertices(n: usize, vertices: impl IntoIterator<Item = VertexId>) -> Self {
        let mut set = Self::new(n);
        for v in vertices {
            set.set(v, true);
        }
        set
    }

    /// Empties the set and resizes it to the vertex indices `0..n`,
    /// reusing its allocation.
    pub fn reset(&mut self, n: usize) {
        let words = n.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
        self.counts.clear();
        self.counts.resize(words, 0);
        self.len = 0;
    }

    /// Makes `v` a member (`on`) or not, updating the word, its count and
    /// the total without branching.
    ///
    /// # Panics
    ///
    /// Panics if `v` lies outside the set's words.
    #[inline]
    pub fn set(&mut self, v: VertexId, on: bool) {
        let (w, bit) = (v.index() / 64, v.index() % 64);
        let word = &mut self.words[w];
        let old = (*word >> bit) & 1;
        let new = u64::from(on);
        *word ^= (old ^ new) << bit;
        // +1, 0 or −1 (as two's complement) on every counter.
        let delta = new.wrapping_sub(old);
        self.counts[w] = self.counts[w].wrapping_add(delta as u8);
        self.len = self.len.wrapping_add(delta as usize);
    }

    /// Number of members.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no member.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `v` is a member (`false` for indices past the set's words).
    #[inline]
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        self.words.get(v.index() / 64).is_some_and(|w| (w >> (v.index() % 64)) & 1 == 1)
    }

    /// The members in ascending order.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        Iter { words: &self.words, w: 0, bits: self.words.first().copied().unwrap_or(0) }
    }

    /// The `k`-th smallest member (0-based), or `None` when `k ≥ len`.
    #[inline]
    #[must_use]
    pub fn nth(&self, k: usize) -> Option<VertexId> {
        if k >= self.len {
            return None;
        }
        // Branch-free pass over the word counts: the words whose running
        // total stays ≤ k lie wholly before the k-th member.
        let (mut total, mut word, mut before) = (0usize, 0usize, 0usize);
        for &c in &self.counts {
            total += usize::from(c);
            let wholly_before = usize::from(total <= k);
            word += wholly_before;
            before += wholly_before * usize::from(c);
        }
        let bit = select_in_word(self.words[word], (k - before) as u64);
        Some(VertexId::new(word * 64 + bit))
    }

    /// The smallest member `≥ cursor`, if any.
    #[must_use]
    pub fn next_from(&self, cursor: usize) -> Option<VertexId> {
        let mut w = cursor / 64;
        let mut bits = *self.words.get(w)? & (u64::MAX << (cursor % 64));
        loop {
            if bits != 0 {
                return Some(VertexId::new(w * 64 + bits.trailing_zeros() as usize));
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }

    /// The smallest member, if any.
    #[must_use]
    pub fn first(&self) -> Option<VertexId> {
        self.next_from(0)
    }

    /// The largest member, if any.
    #[must_use]
    pub fn last(&self) -> Option<VertexId> {
        let w = self.words.iter().rposition(|&word| word != 0)?;
        Some(VertexId::new(w * 64 + 63 - self.words[w].leading_zeros() as usize))
    }
}

impl<'a> IntoIterator for &'a EnabledSet {
    type Item = VertexId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over an [`EnabledSet`].
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from.
    w: usize,
    /// The not yet yielded members of word `w`.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        while self.bits == 0 {
            self.w += 1;
            self.bits = *self.words.get(self.w)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(VertexId::new(self.w * 64 + bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_in_word_finds_every_set_bit() {
        for word in
            [1u64, 0x8000_0000_0000_0000, u64::MAX, 0xF0F0_0000_0001_8001, 0x0100_0000_0000_0000]
        {
            let positions: Vec<usize> = (0..64).filter(|b| (word >> b) & 1 == 1).collect();
            for (rank, &pos) in positions.iter().enumerate() {
                assert_eq!(select_in_word(word, rank as u64), pos, "{word:#x} rank {rank}");
            }
        }
    }

    #[test]
    fn select_table_matches_a_bit_scan() {
        for byte in 0..256usize {
            let positions: Vec<u8> = (0..8).filter(|b| (byte >> b) & 1 == 1).collect();
            for rank in 0..8 {
                let expected = positions.get(rank).copied().unwrap_or(8);
                assert_eq!(SELECT_IN_BYTE[byte * 8 + rank], expected, "byte {byte} rank {rank}");
            }
        }
    }
}
