//! Lane-packed asynchronous unison: the [`PackedProtocol`] impl that
//! powers replica-parallel batched stepping for unison and (by
//! delegation) SSME, plus the lane form of the `Γ1` test that `specAU`
//! and `specME` measure batched runs with.
//!
//! Clock values pack into `i32` lanes (the cherry domain `[-α, K-1]` of
//! every practical instance fits comfortably). The guard arithmetic is the
//! scalar guard's, shared with it: the division-free per-neighbor term
//! `neighbor_term` and the exclusive guard combination `guards` of
//! [`crate::protocol`], instantiated at `i32`.
//!
//! A row is evaluated in fixed-width lane chunks — 8 lanes, then 4, then
//! single lanes for the tail ([`lane_chunks!`]) — whose accumulators are
//! `[i32; W]` arrays. With the width a compile-time constant, each
//! neighbor's contribution is straight-line integer ops on registers,
//! which the compiler vectorizes, and no scratch row is written and
//! re-read per neighbor.

use crate::clock::ClockValue;
use crate::protocol::{guards, neighbor_term, AsyncUnison};
use specstab_kernel::batch::PackedProtocol;
use specstab_kernel::lane_chunks;
use specstab_topology::{Graph, VertexId};
use std::ops::Range;

/// Lanes `l0..l0 + W` of vertex `v`'s row: the registers, and the three
/// neighbor conjunctions `[allCorrect, all ≤_l, converge]` of the unison
/// guard as 0/1 words. Accumulating in the registers' own width keeps the
/// conjunctions in vector lanes; `[bool; W]` accumulators compile to
/// per-lane byte shuffles.
#[inline(always)]
fn neighbor_terms<const W: usize>(
    graph: &Graph,
    v: VertexId,
    lanes: usize,
    l0: usize,
    k: i32,
    soa: &[i32],
) -> ([i32; W], [[i32; W]; 3]) {
    let at = |u: usize| -> [i32; W] {
        let base = u * lanes + l0;
        soa[base..base + W].try_into().expect("a chunk is W lanes")
    };
    let rv = at(v.index());
    let mut all = [[1; W]; 3];
    for &u in graph.neighbors(v) {
        let ru = at(u.index());
        for i in 0..W {
            let term = neighbor_term(rv[i], ru[i], k);
            all[0][i] &= i32::from(term.correct);
            all[1][i] &= i32::from(term.le);
            all[2][i] &= i32::from(term.conv);
        }
    }
    (rv, all)
}

/// The guard and successor of vertex `v` in lanes `l0..l0 + W`.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the step_lanes signature plus the chunk and clock
fn eval_chunk<const W: usize>(
    l0: usize,
    graph: &Graph,
    v: VertexId,
    lanes: usize,
    k: i32,
    reset: i32,
    soa: &[i32],
    next: &mut [i32],
    fired: &mut [bool],
) {
    let (rv, [all_correct, all_le, conv]) = neighbor_terms::<W>(graph, v, lanes, l0, k, soa);
    let base = v.index() * lanes + l0;
    let fired: &mut [bool; W] = (&mut fired[base..base + W]).try_into().expect("W lanes");
    let next: &mut [i32; W] = (&mut next[base..base + W]).try_into().expect("W lanes");
    for i in 0..W {
        let a = rv[i];
        let [na, ca, ra] = guards(a, all_correct[i] != 0, all_le[i] != 0, conv[i] != 0);
        fired[i] = na | ca | ra;
        // φ(a): a+1 with wraparound at K (a < 0 never wraps).
        let inc = if a + 1 == k { 0 } else { a + 1 };
        next[i] = if ra { reset } else { inc };
    }
}

/// Adds, per lane of `l0..l0 + W`, whether vertex `v` violates `Γ1`
/// locally.
#[inline(always)]
fn violation_chunk<const W: usize>(
    l0: usize,
    graph: &Graph,
    v: VertexId,
    lanes: usize,
    k: i32,
    soa: &[i32],
    totals: &mut [u32],
) {
    let (rv, [all_correct, _, _]) = neighbor_terms::<W>(graph, v, lanes, l0, k, soa);
    let totals: &mut [u32; W] = (&mut totals[l0..l0 + W]).try_into().expect("W lanes");
    for i in 0..W {
        totals[i] += u32::from((rv[i] < 0) | (all_correct[i] == 0));
    }
}

/// The lane form of [`SpecAu::violates_gamma_one_at`](crate::spec::SpecAu::violates_gamma_one_at):
/// adds to `totals[l]`, for every vertex `v` in `rows`, whether `v`
/// violates `Γ1` locally in lane `l` of the replica-major `soa`
/// (`soa[v * lanes + l]`, clock values packed as by the
/// [`PackedProtocol`] impl of [`AsyncUnison`]) on a clock of size `k`.
/// The test is the unison guard's own `correct_v(u)` term.
pub fn add_gamma_one_violations(
    graph: &Graph,
    rows: Range<usize>,
    lanes: usize,
    k: i32,
    soa: &[i32],
    totals: &mut [u32],
) {
    for v in rows {
        let v = VertexId::new(v);
        lane_chunks!(lanes, violation_chunk(graph, v, lanes, k, soa, totals));
    }
}

impl PackedProtocol for AsyncUnison {
    type Lane = i32;

    fn pack(&self, state: &ClockValue) -> i32 {
        i32::try_from(state.raw()).expect("cherry clock domain fits i32 lanes")
    }

    fn unpack(&self, lane: i32) -> ClockValue {
        self.clock().value(i64::from(lane)).expect("packed step stays inside the cherry domain")
    }

    fn step_lanes(
        &self,
        graph: &Graph,
        lanes: usize,
        soa: &[i32],
        next: &mut [i32],
        fired: &mut [bool],
    ) {
        let k = i32::try_from(self.clock().k()).expect("cherry clock K fits i32 lanes");
        let reset = i32::try_from(-self.clock().alpha()).expect("cherry clock alpha fits i32");
        for v in graph.vertices() {
            lane_chunks!(lanes, eval_chunk(graph, v, lanes, k, reset, soa, next, fired));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::CherryClock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use specstab_kernel::batch::{run_batch, BatchDaemon, NoMonitor};
    use specstab_kernel::daemon::SynchronousDaemon;
    use specstab_kernel::engine::{RunLimits, Simulator};
    use specstab_kernel::protocol::random_configuration;
    use specstab_topology::generators;

    #[test]
    fn packed_sync_run_matches_scalar_lane_for_lane() {
        let g = generators::torus(3, 4).unwrap();
        let clock = CherryClock::new(6, 13).unwrap();
        let unison = AsyncUnison::new(clock);
        let inits: Vec<_> = (0..5)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(900 + s);
                random_configuration(&g, &unison, &mut rng)
            })
            .collect();
        let lanes = run_batch(&g, &unison, BatchDaemon::Sync, &[], &inits, 300, NoMonitor);
        for (lane, init) in lanes.iter().zip(&inits) {
            let mut d = SynchronousDaemon::new();
            let sim = Simulator::new(&g, &unison);
            let scalar = sim.run(init.clone(), &mut d, RunLimits::with_max_steps(300), &mut []);
            assert_eq!(lane.steps, scalar.steps);
            assert_eq!(lane.moves, scalar.moves);
            assert_eq!(lane.stop, scalar.stop);
            assert_eq!(lane.final_config, scalar.final_config);
        }
    }
}
