//! Engine counters: deterministic per-run tallies plus the process-global
//! lock-free aggregate.
//!
//! The discipline that keeps counting off the hot path: the step loop
//! accumulates into plain `u64` locals ([`RunCounters`]) and flushes **one
//! batched relaxed-atomic add per run** into the [`global`]
//! [`EngineCounters`]. No per-step or per-move atomics, so the steady
//! state above 1e7 moves/s is untouched; no global reads inside a run, so
//! concurrent workers never contaminate each other's per-run numbers.
//!
//! Two instruments are inherently process-wide rather than per-run and
//! increment the global directly: scratch-buffer reuses (recorded at run
//! entry) and full [`Configuration`] clones (recorded by the instrumented
//! `Clone` impl in the kernel — the promotion of the old test-only clone
//! counter). A batched run adds its lane-step slots and idle lane-steps
//! once per batch. Tests compare [`CounterSnapshot`] deltas, never
//! absolute values.
//!
//! Which engine ran a scenario group is not a counter: each cell's
//! [`RunCounters::batch_lanes`] says whether it ran as a replica lane,
//! and the campaign executor labels every `group` event with the path
//! its cells took.
//!
//! [`Configuration`]: https://docs.rs/specstab-kernel

use std::sync::atomic::{AtomicU64, Ordering};

/// Tallies of one engine run, accumulated in plain locals by the step
/// loop. Deterministic: a run's counters depend only on its inputs, never
/// on scheduling or thread count.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Steps (actions) executed.
    pub steps: u64,
    /// Moves (vertex activations) executed.
    pub moves: u64,
    /// Guard evaluations performed, defined once for both engines. The
    /// scalar engine performs `n` at the start of a run, then one per
    /// vertex of each step's touched ball (the activated vertices and
    /// their neighbors), plus one per vertex of each daemon preview;
    /// firing applies the rule cached at the last evaluation. The lane
    /// engine performs `n` per live lane per pass, because each pass
    /// refreshes the whole graph.
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
    /// per predicate call. Flushed by the monitor layer
    /// ([`EngineCounters::record_monitor_evals`]), not by the step loop.
    pub monitor_evals: u64,
    /// 1 when the run was a replica lane of a batched run, 0 when it ran
    /// on the scalar engine. Summed over a campaign it counts the lanes
    /// the batches launched.
    pub batch_lanes: u64,
}

impl RunCounters {
    /// Zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `other` into `self` (aggregating runs of a cell, shard, or
    /// campaign).
    pub fn add(&mut self, other: &Self) {
        self.steps += other.steps;
        self.moves += other.moves;
        self.guard_evals += other.guard_evals;
        self.delta_bytes += other.delta_bytes;
        self.monitor_evals += other.monitor_evals;
        self.batch_lanes += other.batch_lanes;
    }
}

/// The process-global aggregate: relaxed atomics, written by batched
/// per-run flushes and the two process-wide instruments.
#[derive(Debug, Default)]
pub struct EngineCounters {
    steps: AtomicU64,
    moves: AtomicU64,
    guard_evals: AtomicU64,
    delta_bytes: AtomicU64,
    monitor_evals: AtomicU64,
    scratch_reuses: AtomicU64,
    config_clones: AtomicU64,
    batch_lanes: AtomicU64,
    batch_lane_steps: AtomicU64,
    batch_idle_lane_steps: AtomicU64,
}

/// A point-in-time copy of the global counters. Monotonically increasing
/// per field; meaningful only as deltas between two snapshots.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Total steps flushed by finished runs.
    pub steps: u64,
    /// Total moves flushed by finished runs.
    pub moves: u64,
    /// Total guard evaluations flushed by finished runs.
    pub guard_evals: u64,
    /// Total delta bytes flushed by finished runs.
    pub delta_bytes: u64,
    /// Total monitor vertex evaluations flushed by finished measured runs
    /// (see [`RunCounters::monitor_evals`]).
    pub monitor_evals: u64,
    /// Runs that entered with already-sized scratch buffers (cross-run
    /// buffer reuse — the amortization the `ScratchPool` exists for).
    pub scratch_reuses: u64,
    /// Full `Configuration::clone` calls (buffer-reusing `clone_from` is
    /// deliberately not counted — that is the allocation-free path).
    pub config_clones: u64,
    /// Replica lanes launched by batched runs: the sum of
    /// [`RunCounters::batch_lanes`] over finished runs (one per
    /// seed-replica that entered a batch, regardless of how long it
    /// stayed active).
    pub batch_lanes: u64,
    /// Total lane-step slots batched runs scheduled: `lanes x iterations`
    /// summed over batches. Lane widths differ across packed protocols
    /// (u8 packs 64 replicas per cache line, i32 packs 16), so occupancy
    /// is reported against this explicit total rather than a width
    /// assumption: occupancy = 1 - idle / lane-steps.
    pub batch_lane_steps: u64,
    /// Lane-steps spent masked idle: batch iterations where an
    /// already-stopped lane rode along while siblings kept stepping.
    pub batch_idle_lane_steps: u64,
}

impl CounterSnapshot {
    /// Field-wise `self += other`: folds the counters of several processes
    /// or shards into one total.
    pub fn add(&mut self, other: &Self) {
        self.steps += other.steps;
        self.moves += other.moves;
        self.guard_evals += other.guard_evals;
        self.delta_bytes += other.delta_bytes;
        self.monitor_evals += other.monitor_evals;
        self.scratch_reuses += other.scratch_reuses;
        self.config_clones += other.config_clones;
        self.batch_lanes += other.batch_lanes;
        self.batch_lane_steps += other.batch_lane_steps;
        self.batch_idle_lane_steps += other.batch_idle_lane_steps;
    }

    /// Field-wise `self - earlier` (saturating, so a stale `earlier` from
    /// another epoch degrades to zeros instead of wrapping).
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        Self {
            steps: self.steps.saturating_sub(earlier.steps),
            moves: self.moves.saturating_sub(earlier.moves),
            guard_evals: self.guard_evals.saturating_sub(earlier.guard_evals),
            delta_bytes: self.delta_bytes.saturating_sub(earlier.delta_bytes),
            monitor_evals: self.monitor_evals.saturating_sub(earlier.monitor_evals),
            scratch_reuses: self.scratch_reuses.saturating_sub(earlier.scratch_reuses),
            config_clones: self.config_clones.saturating_sub(earlier.config_clones),
            batch_lanes: self.batch_lanes.saturating_sub(earlier.batch_lanes),
            batch_lane_steps: self.batch_lane_steps.saturating_sub(earlier.batch_lane_steps),
            batch_idle_lane_steps: self
                .batch_idle_lane_steps
                .saturating_sub(earlier.batch_idle_lane_steps),
        }
    }
}

impl EngineCounters {
    /// Flushes one finished run's engine tallies — five relaxed adds, the
    /// only global traffic a run's step loop generates. `monitor_evals`
    /// is the monitor layer's to flush ([`Self::record_monitor_evals`]).
    pub fn record_run(&self, run: &RunCounters) {
        self.steps.fetch_add(run.steps, Ordering::Relaxed);
        self.moves.fetch_add(run.moves, Ordering::Relaxed);
        self.guard_evals.fetch_add(run.guard_evals, Ordering::Relaxed);
        self.delta_bytes.fetch_add(run.delta_bytes, Ordering::Relaxed);
        self.batch_lanes.fetch_add(run.batch_lanes, Ordering::Relaxed);
    }

    /// Flushes the monitor vertex evaluations of one finished measured run
    /// (or batch).
    pub fn record_monitor_evals(&self, evals: u64) {
        self.monitor_evals.fetch_add(evals, Ordering::Relaxed);
    }

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

    /// Flushes one finished batched run's occupancy: the total lane-step
    /// slots it scheduled (`lanes x iterations` — the lane-count
    /// parameterization that keeps u8x64 and i32x16 batches comparable)
    /// and the lane-steps spent masked idle after individual lanes
    /// stopped. Its lanes are counted by their own [`Self::record_run`]
    /// flushes ([`RunCounters::batch_lanes`]).
    pub fn record_batch(&self, lane_steps: u64, idle_lane_steps: u64) {
        self.batch_lane_steps.fetch_add(lane_steps, Ordering::Relaxed);
        self.batch_idle_lane_steps.fetch_add(idle_lane_steps, Ordering::Relaxed);
    }

    /// Copies the current totals.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            steps: self.steps.load(Ordering::Relaxed),
            moves: self.moves.load(Ordering::Relaxed),
            guard_evals: self.guard_evals.load(Ordering::Relaxed),
            delta_bytes: self.delta_bytes.load(Ordering::Relaxed),
            monitor_evals: self.monitor_evals.load(Ordering::Relaxed),
            scratch_reuses: self.scratch_reuses.load(Ordering::Relaxed),
            config_clones: self.config_clones.load(Ordering::Relaxed),
            batch_lanes: self.batch_lanes.load(Ordering::Relaxed),
            batch_lane_steps: self.batch_lane_steps.load(Ordering::Relaxed),
            batch_idle_lane_steps: self.batch_idle_lane_steps.load(Ordering::Relaxed),
        }
    }
}

static GLOBAL: EngineCounters = EngineCounters {
    steps: AtomicU64::new(0),
    moves: AtomicU64::new(0),
    guard_evals: AtomicU64::new(0),
    delta_bytes: AtomicU64::new(0),
    monitor_evals: AtomicU64::new(0),
    scratch_reuses: AtomicU64::new(0),
    config_clones: AtomicU64::new(0),
    batch_lanes: AtomicU64::new(0),
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
        };
        let mut a = run(1);
        a.add(&run(10));
        assert_eq!(a, run(11));
    }

    #[test]
    fn global_flush_and_snapshot_deltas() {
        let before = global().snapshot();
        global().record_run(&RunCounters {
            steps: 5,
            moves: 7,
            guard_evals: 11,
            delta_bytes: 13,
            monitor_evals: 0,
            batch_lanes: 1,
        });
        global().record_monitor_evals(19);
        global().record_scratch_reuse();
        global().record_config_clone();
        global().record_batch(640, 17);
        let d = global().snapshot().delta(&before);
        // Other tests in this binary may run concurrently and also flush,
        // so deltas are lower-bounded, not exact.
        assert!(d.steps >= 5 && d.moves >= 7 && d.guard_evals >= 11 && d.delta_bytes >= 13);
        assert!(d.monitor_evals >= 19);
        assert!(d.scratch_reuses >= 1 && d.config_clones >= 1);
        assert!(d.batch_lanes >= 1 && d.batch_lane_steps >= 640 && d.batch_idle_lane_steps >= 17);
    }

    #[test]
    fn snapshot_add_is_the_inverse_of_delta() {
        let a =
            CounterSnapshot { steps: 3, monitor_evals: 5, batch_lanes: 7, ..Default::default() };
        let b =
            CounterSnapshot { steps: 1, monitor_evals: 2, config_clones: 4, ..Default::default() };
        let mut sum = a;
        sum.add(&b);
        assert_eq!(sum.delta(&b), a);
        assert_eq!(sum.monitor_evals, 7);
    }

    #[test]
    fn delta_saturates_instead_of_wrapping() {
        let lo = CounterSnapshot::default();
        let hi = CounterSnapshot { steps: 3, ..Default::default() };
        assert_eq!(lo.delta(&hi).steps, 0);
        assert_eq!(hi.delta(&lo).steps, 3);
    }
}
