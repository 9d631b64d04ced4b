//! Lane-packed asynchronous unison: the [`PackedProtocol`] impl that
//! powers replica-parallel batched stepping for unison and (by
//! delegation) SSME.
//!
//! Clock values pack into `i32` lanes (the cherry domain `[-α, K-1]` of
//! every practical instance fits comfortably). The guard arithmetic is the
//! scalar guard's, shared with it: the division-free per-neighbor term
//! [`neighbor_term`] and the exclusive guard combination [`guards`] of
//! [`crate::protocol`], instantiated at `i32`. The inner loops below are
//! straight-line integer ops over the lane axis, which is what lets the
//! compiler vectorize them.

use crate::clock::ClockValue;
use crate::protocol::{guards, neighbor_term, AsyncUnison};
use specstab_kernel::batch::PackedProtocol;
use specstab_topology::{Graph, VertexId};

/// Reusable lane accumulators for the packed unison step: one slot per
/// lane for the three universally-quantified neighbor conditions.
#[derive(Default)]
pub struct UnisonLaneScratch {
    all_correct: Vec<bool>,
    all_le: Vec<bool>,
    conv: Vec<bool>,
}

impl UnisonLaneScratch {
    fn resize(&mut self, lanes: usize) {
        self.all_correct.resize(lanes, true);
        self.all_le.resize(lanes, true);
        self.conv.resize(lanes, true);
    }
}

/// Evaluates one vertex's guard and successor across all lanes — the
/// shared per-vertex body of both `step_lanes` (which loops it over the
/// whole graph) and `eval_vertex_lanes` (the divergent engine's
/// touched-neighborhood refresh unit).
#[inline]
#[allow(clippy::too_many_arguments)] // the eval_vertex_lanes row signature plus protocol constants
fn eval_unison_row(
    graph: &Graph,
    v: VertexId,
    lanes: usize,
    k: i32,
    reset: i32,
    soa: &[i32],
    next: &mut [i32],
    fired: &mut [bool],
    scratch: &mut UnisonLaneScratch,
) {
    let base = v.index() * lanes;
    let rv = &soa[base..base + lanes];
    let all_correct = &mut scratch.all_correct[..lanes];
    let all_le = &mut scratch.all_le[..lanes];
    let conv = &mut scratch.conv[..lanes];
    all_correct.fill(true);
    all_le.fill(true);
    conv.fill(true);
    for &u in graph.neighbors(v) {
        let ru = &soa[u.index() * lanes..u.index() * lanes + lanes];
        for l in 0..lanes {
            let term = neighbor_term(rv[l], ru[l], k);
            all_correct[l] &= term.correct;
            all_le[l] &= term.le;
            conv[l] &= term.conv;
        }
    }
    let fired_row = &mut fired[base..base + lanes];
    let next_row = &mut next[base..base + lanes];
    for l in 0..lanes {
        let a = rv[l];
        let [na, ca, ra] = guards(a, all_correct[l], all_le[l], conv[l]);
        fired_row[l] = na | ca | ra;
        // φ(a): a+1 with wraparound at K (a < 0 never wraps).
        let inc = if a + 1 == k { 0 } else { a + 1 };
        next_row[l] = if ra { reset } else { inc };
    }
}

impl PackedProtocol for AsyncUnison {
    type Lane = i32;
    type LaneScratch = UnisonLaneScratch;

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
        scratch: &mut UnisonLaneScratch,
    ) {
        let k = i32::try_from(self.clock().k()).expect("cherry clock K fits i32 lanes");
        let reset = i32::try_from(-self.clock().alpha()).expect("cherry clock alpha fits i32");
        scratch.resize(lanes);
        for v in graph.vertices() {
            eval_unison_row(graph, v, lanes, k, reset, soa, next, fired, scratch);
        }
    }

    fn eval_vertex_lanes(
        &self,
        graph: &Graph,
        v: usize,
        lanes: usize,
        soa: &[i32],
        next: &mut [i32],
        fired: &mut [bool],
        scratch: &mut UnisonLaneScratch,
    ) {
        let k = i32::try_from(self.clock().k()).expect("cherry clock K fits i32 lanes");
        let reset = i32::try_from(-self.clock().alpha()).expect("cherry clock alpha fits i32");
        scratch.resize(lanes);
        eval_unison_row(graph, VertexId::new(v), lanes, k, reset, soa, next, fired, scratch);
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
