//! Counting and timing wrappers for the per-step layers.
//!
//! Daemon selections and monitor predicates run once (or three times) per
//! engine step, far too often to span one by one. The wrappers below sum
//! their calls and busy time; the replay reads the sums after each
//! measured run and records them as aggregate child spans of the run.

use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{BoxedDaemon, Daemon, DaemonClass, SelectionContext};
use specstab_kernel::observer::ConfigPredicate;
use specstab_topology::VertexId;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// A daemon that times and counts every selection of the one it wraps.
pub struct TimedDaemon<S> {
    inner: BoxedDaemon<S>,
    /// `select` calls.
    pub selects: u64,
    /// Vertices selected over all calls.
    pub selected: u64,
    /// Time inside the wrapped `select`.
    pub busy: Duration,
}

impl<S> TimedDaemon<S> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: BoxedDaemon<S>) -> Self {
        Self { inner, selects: 0, selected: 0, busy: Duration::ZERO }
    }
}

impl<S> Daemon<S> for TimedDaemon<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn class(&self) -> DaemonClass {
        self.inner.class()
    }

    fn select(&mut self, ctx: &SelectionContext<'_, S>, selection: &mut Vec<VertexId>) {
        let started = Instant::now();
        self.inner.select(ctx, selection);
        self.busy += started.elapsed();
        self.selects += 1;
        self.selected += selection.len() as u64;
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Which specification predicate a monitor probe wraps.
#[derive(Copy, Clone, Debug)]
pub enum Predicate {
    /// The safety predicate (the safety monitor).
    Safety,
    /// The legitimacy predicate (the legitimacy monitor and the early stop).
    Legitimacy,
}

/// Monitor tallies of the current thread since the last [`take_monitor`].
#[derive(Copy, Clone, Debug, Default)]
pub struct MonitorTally {
    /// Safety predicate calls.
    pub safety_calls: u64,
    /// Legitimacy predicate calls.
    pub legitimacy_calls: u64,
    /// Vertices the calls scanned (each full-scan predicate reads all `n`).
    pub vertices_scanned: u64,
    /// Time inside the predicates.
    pub busy: Duration,
}

thread_local! {
    // Predicates run on the thread that built them (a measured run is
    // synchronous), so a thread-local tally needs no synchronization and
    // keeps the boxed predicate `Send`.
    static MONITOR: Cell<MonitorTally> = Cell::new(MonitorTally::default());
}

/// Wraps `pred` so each call is counted and timed into this thread's
/// [`MonitorTally`].
#[must_use]
pub fn probe<S: 'static>(pred: ConfigPredicate<S>, kind: Predicate) -> ConfigPredicate<S> {
    Box::new(move |config: &Configuration<S>, graph| {
        let started = Instant::now();
        let holds = pred(config, graph);
        let busy = started.elapsed();
        MONITOR.with(|m| {
            let mut t = m.get();
            match kind {
                Predicate::Safety => t.safety_calls += 1,
                Predicate::Legitimacy => t.legitimacy_calls += 1,
            }
            t.vertices_scanned += config.len() as u64;
            t.busy += busy;
            m.set(t);
        });
        holds
    })
}

/// Returns and clears this thread's monitor tally.
#[must_use]
pub fn take_monitor() -> MonitorTally {
    MONITOR.with(|m| m.replace(MonitorTally::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specstab_topology::generators;

    #[test]
    fn probe_counts_each_call_by_kind() {
        let _ = take_monitor();
        let g = generators::ring(5).expect("ring");
        let c = Configuration::from_fn(5, |_| 0u8);
        let safe = probe::<u8>(Box::new(|_, _| true), Predicate::Safety);
        let legit = probe::<u8>(Box::new(|_, _| false), Predicate::Legitimacy);
        assert!(safe(&c, &g));
        assert!(!legit(&c, &g));
        assert!(!legit(&c, &g));
        let t = take_monitor();
        assert_eq!((t.safety_calls, t.legitimacy_calls, t.vertices_scanned), (1, 2, 15));
        assert_eq!(take_monitor().safety_calls, 0, "taking clears the tally");
    }
}
