//! Engine counters: deterministic per-run tallies plus a small
//! process-global aggregate of what no run owns.
//!
//! Counters ride with the cells. The step loop accumulates into plain
//! `u64` locals ([`RunCounters`]) and hands them back in the run's
//! summary; every campaign total (`shard_end`, `campaign_end`) is the
//! [`Sum`] of its cells' counters. No per-step atomics, so the steady
//! state above 1e7 moves/s is untouched, and no process-wide delta, so a
//! total never counts work another campaign in the same process ran.
//!
//! The [`global`] [`EngineCounters`] keeps only instruments of the process
//! itself: scratch-buffer reuses (recorded at run entry), full
//! [`Configuration`] clones (recorded by the instrumented `Clone` impl in
//! the kernel), both of which vary with scheduling, and the lane-step
//! totals each batch adds once. Tests compare [`CounterSnapshot`] deltas,
//! never absolute values.
//!
//! Which engine ran a scenario group is not a counter: each cell's
//! [`RunCounters::batch_lanes`] says whether it ran as a replica lane,
//! and the campaign executor labels every `group` event with the path
//! its cells took.
//!
//! [`Configuration`]: https://docs.rs/specstab-kernel

use std::iter::Sum;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tallies of one engine run, accumulated in plain locals by the step
/// loop. Deterministic: a run's counters depend only on its inputs (for a
/// replica lane, on the inputs of its batch), never on scheduling or
/// thread count.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Steps (actions) executed.
    pub steps: u64,
    /// Moves (vertex activations) executed.
    pub moves: u64,
    /// Guard evaluations, defined once for both engines: one per vertex
    /// whose enabled rule is (re)derived, whether from a full guard
    /// evaluation or from a patched guard sum. The scalar engine derives
    /// `n` at the start of a run, then one per vertex of each step's
    /// touched ball (the activated vertices and their neighbors), plus
    /// one per vertex of each daemon preview; firing applies the rule
    /// cached at the last derivation. The lane engine derives `n` per
    /// live lane per pass, because each pass refreshes the whole graph.
    pub guard_evals: u64,
    /// Bytes of state moved through step deltas (before + after state per
    /// recorded move).
    pub delta_bytes: u64,
    /// Per-vertex evaluations the measurement monitors actually perform,
    /// defined once for both engines: the incremental `SpecMonitor`
    /// counts one per vertex whose local counts it (re)computes (`n` at
    /// the start, then the radius-ball of each step's moves); the batched
    /// `LaneMonitor` counts, per lane, one per (vertex, lane) entry its
    /// safety and legitimacy sweeps read (`n` for safety plus the rows
    /// the legitimacy sweep covered before every lane's verdict was
    /// decided). The full-scan reference `MeasurementContext` counts `n`
    /// per predicate call. Added by the monitor layer, not by the step
    /// loop.
    pub monitor_evals: u64,
    /// 1 when the run was a replica lane of a batched run, 0 when it ran
    /// on the scalar engine. Summed over a campaign it counts the lanes
    /// the batches launched.
    pub batch_lanes: u64,
    /// The lane's share of its batch's occupancy: the passes of the batch
    /// in which any lane committed (0 on the scalar engine). Summed over
    /// a batch's lanes it is the batch's `lanes × passes` lane-step
    /// slots. Lane widths differ across packed protocols (u8 packs 64
    /// replicas per cache line, i32 packs 16), so occupancy is reported
    /// against this explicit total rather than a width assumption:
    /// occupancy = 1 − idle / lane-steps.
    pub batch_lane_steps: u64,
    /// The passes of the lane's batch after the lane stopped
    /// (`batch_lane_steps − steps`): the lane-steps it rode along masked
    /// idle while siblings kept stepping.
    pub batch_idle_lane_steps: u64,
}

impl RunCounters {
    /// Zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `other` into `self`, field by field.
    pub fn add(&mut self, other: &Self) {
        self.steps += other.steps;
        self.moves += other.moves;
        self.guard_evals += other.guard_evals;
        self.delta_bytes += other.delta_bytes;
        self.monitor_evals += other.monitor_evals;
        self.batch_lanes += other.batch_lanes;
        self.batch_lane_steps += other.batch_lane_steps;
        self.batch_idle_lane_steps += other.batch_idle_lane_steps;
    }
}

/// The field-wise total of runs, cells, shards or campaigns: every counter
/// total the campaign reports is this sum over its cells.
impl<'a> Sum<&'a RunCounters> for RunCounters {
    fn sum<I: Iterator<Item = &'a RunCounters>>(iter: I) -> Self {
        iter.fold(Self::new(), |mut total, c| {
            total.add(c);
            total
        })
    }
}

/// The process-global aggregate: relaxed atomics for the instruments no
/// run owns.
#[derive(Debug, Default)]
pub struct EngineCounters {
    scratch_reuses: AtomicU64,
    config_clones: AtomicU64,
    batch_lane_steps: AtomicU64,
    batch_idle_lane_steps: AtomicU64,
}

/// A point-in-time copy of the global counters. Monotonically increasing
/// per field; meaningful only as deltas between two snapshots.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Runs that entered with already-sized scratch buffers (cross-run
    /// buffer reuse — the amortization the `ScratchPool` exists for).
    pub scratch_reuses: u64,
    /// Full `Configuration::clone` calls (buffer-reusing `clone_from` is
    /// deliberately not counted — that is the allocation-free path).
    pub config_clones: u64,
    /// Lane-step slots batched runs scheduled: the sum of
    /// [`RunCounters::batch_lane_steps`] over their lanes.
    pub batch_lane_steps: u64,
    /// Lane-steps batched runs spent masked idle: the sum of
    /// [`RunCounters::batch_idle_lane_steps`] over their lanes.
    pub batch_idle_lane_steps: u64,
}

impl CounterSnapshot {
    /// Field-wise `self - earlier` (saturating, so a stale `earlier` from
    /// another epoch degrades to zeros instead of wrapping).
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            scratch_reuses: self.scratch_reuses.saturating_sub(earlier.scratch_reuses),
            config_clones: self.config_clones.saturating_sub(earlier.config_clones),
            batch_lane_steps: self.batch_lane_steps.saturating_sub(earlier.batch_lane_steps),
            batch_idle_lane_steps: self
                .batch_idle_lane_steps
                .saturating_sub(earlier.batch_idle_lane_steps),
        }
    }
}

impl EngineCounters {
    /// Records a run entering with scratch buffers already sized for its
    /// graph (cross-run reuse).
    pub fn record_scratch_reuse(&self) {
        self.scratch_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one full configuration clone (called by the kernel's
    /// instrumented `Clone` impl).
    pub fn record_config_clone(&self) {
        self.config_clones.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds one finished batched run's occupancy, once per batch: the
    /// lane-step slots it scheduled and the lane-steps spent masked idle,
    /// i.e. the sums of its lanes' [`RunCounters::batch_lane_steps`] and
    /// [`RunCounters::batch_idle_lane_steps`]. The lanes carry the same
    /// numbers into every campaign total; the global copy serves readers
    /// that take a process-wide window instead of summing cells: the
    /// benchmark's traced replay (`perfbench`) reads the two totals
    /// through `global().snapshot().delta(..)`.
    pub fn record_batch(&self, lane_steps: u64, idle_lane_steps: u64) {
        self.batch_lane_steps.fetch_add(lane_steps, Ordering::Relaxed);
        self.batch_idle_lane_steps.fetch_add(idle_lane_steps, Ordering::Relaxed);
    }

    /// Copies the current totals.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            scratch_reuses: self.scratch_reuses.load(Ordering::Relaxed),
            config_clones: self.config_clones.load(Ordering::Relaxed),
            batch_lane_steps: self.batch_lane_steps.load(Ordering::Relaxed),
            batch_idle_lane_steps: self.batch_idle_lane_steps.load(Ordering::Relaxed),
        }
    }
}

static GLOBAL: EngineCounters = EngineCounters {
    scratch_reuses: AtomicU64::new(0),
    config_clones: AtomicU64::new(0),
    batch_lane_steps: AtomicU64::new(0),
    batch_idle_lane_steps: AtomicU64::new(0),
};

/// The process-global engine counters.
#[must_use]
pub fn global() -> &'static EngineCounters {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_counters_accumulate() {
        let run = |k: u64| RunCounters {
            steps: k,
            moves: 2 * k,
            guard_evals: 3 * k,
            delta_bytes: 4 * k,
            monitor_evals: 5 * k,
            batch_lanes: k,
            batch_lane_steps: 6 * k,
            batch_idle_lane_steps: 7 * k,
        };
        let mut a = run(1);
        a.add(&run(10));
        assert_eq!(a, run(11));
        assert_eq!([run(1), run(10), run(100)].iter().sum::<RunCounters>(), run(111));
        assert_eq!(std::iter::empty::<&RunCounters>().sum::<RunCounters>(), RunCounters::new());
    }

    #[test]
    fn global_flush_and_snapshot_deltas() {
        let before = global().snapshot();
        global().record_scratch_reuse();
        global().record_config_clone();
        global().record_batch(640, 17);
        let d = global().snapshot().delta(&before);
        // Other tests in this binary may run concurrently and also record,
        // so deltas are lower-bounded, not exact.
        assert!(d.scratch_reuses >= 1 && d.config_clones >= 1);
        assert!(d.batch_lane_steps >= 640 && d.batch_idle_lane_steps >= 17);
    }

    #[test]
    fn delta_saturates_instead_of_wrapping() {
        let lo = CounterSnapshot::default();
        let hi = CounterSnapshot { config_clones: 3, ..Default::default() };
        assert_eq!(lo.delta(&hi).config_clones, 0);
        assert_eq!(hi.delta(&lo).config_clones, 3);
    }
}
