//! Zero-allocation gate for **measured** runs: an ssme × central-rand cell
//! on the campaign grid's large instances (`ring:1024`, `torus:32x32`),
//! measured by the executor's incremental `SpecMonitor`, must perform zero
//! `Configuration` clones and zero heap allocations per steady-state step.
//! Both engine entry points are gated: the observer-slice path (probed
//! step by step) and `SpecMonitor::run_with_scratch`, the monomorphic
//! path the executor runs (a 20k-step and a 40k-step run from the same
//! warm scratch must allocate equally often).
//!
//! Allocations are counted by a counting [`GlobalAlloc`] wrapper over
//! [`System`], so the gate catches any `Vec` a monitor or predicate builds
//! per step, not only configuration clones. The allocator is process-wide,
//! so this binary holds exactly one `#[test]`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_kernel::config::Configuration;
use specstab_kernel::engine::{RunLimits, Simulator, StepScratch};
use specstab_kernel::harness::ProtocolHarness;
use specstab_kernel::measure::SpecMonitor;
use specstab_kernel::observer::{Observer, StepEvent};
use specstab_kernel::protocol::random_configuration;
use specstab_protocols::harness::SsmeHarness;
use specstab_topology::metrics::DistanceMatrix;
use specstab_topology::{generators, Graph};
use specstab_unison::clock::ClockValue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations (including reallocations) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the wrapper only bumps a
// counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn clones() -> u64 {
    specstab_telemetry::global().snapshot().config_clones
}

/// Records the allocation and clone counters from step `warm` on; placed
/// after the monitor, so each reading includes the step's engine, daemon
/// and monitor work.
struct SteadyState {
    warm: usize,
    at_warm: (u64, u64),
    latest: (u64, u64),
    steps: usize,
}

impl Observer<ClockValue> for SteadyState {
    fn on_step(&mut self, event: &StepEvent<'_, ClockValue>) {
        if event.step >= self.warm {
            self.latest = (ALLOCS.load(Ordering::Relaxed), clones());
            if event.step == self.warm {
                self.at_warm = self.latest;
            }
        }
        self.steps = event.step;
    }
}

/// One measured ssme × central-rand run from a full random burst, with the
/// steady-state window starting at step `warm`.
fn assert_measured_run_allocates_nothing(g: &Graph, steps: usize, warm: usize) {
    let h = SsmeHarness::build(g, DistanceMatrix::new(g).diameter()).expect("ssme builds");
    let sim = Simulator::new(g, h.protocol());
    let init = random_configuration(g, h.protocol(), &mut StdRng::seed_from_u64(7));
    let mut scratch = StepScratch::new();
    // A warm-up of the identical run sizes every engine scratch buffer the
    // way a campaign worker's pooled scratch is sized by earlier cells.
    let mut daemon = h.daemon("central-rand", 11).expect("daemon");
    let warmup = SpecMonitor::new(h.spec(), 3).run_with_scratch(
        &sim,
        daemon.as_mut(),
        init.clone(),
        steps,
        &mut scratch,
    );
    assert_eq!(warmup.steps_run, steps, "{}: the burst must not stabilize this early", g.name());

    let mut monitor = SpecMonitor::new(h.spec(), 3);
    let mut probe = SteadyState { warm, at_warm: (0, 0), latest: (0, 0), steps: 0 };
    let mut daemon = h.daemon("central-rand", 11).expect("daemon");
    let summary = sim.run_with_scratch(
        init.clone(),
        daemon.as_mut(),
        RunLimits::with_max_steps(steps),
        &mut [&mut monitor, &mut probe],
        &mut scratch,
    );
    assert_eq!(probe.steps, steps);
    let allocs = probe.latest.0 - probe.at_warm.0;
    let cloned = probe.latest.1 - probe.at_warm.1;
    assert_eq!(
        allocs,
        0,
        "{}: {allocs} heap allocations in {} steady steps",
        g.name(),
        steps - warm
    );
    assert_eq!(cloned, 0, "{}: {cloned} configuration clones in steady steps", g.name());
    // The monitor really measured: about one radius-ball per step.
    let report = monitor.report(&summary);
    let evals_per_step = report.counters.monitor_evals as f64 / steps as f64;
    assert!(evals_per_step < 8.0, "{}: {evals_per_step} monitor evals per step", g.name());

    // The monomorphic path: per-run setup may allocate (the monitor's
    // count and stamp arrays), but the allocation count must not grow
    // with the number of steps.
    let short = monomorphic_run_allocs(&h, &sim, init.clone(), steps, &mut scratch);
    let long = monomorphic_run_allocs(&h, &sim, init, 2 * steps, &mut scratch);
    assert_eq!(
        short,
        long,
        "{}: SpecMonitor::run_with_scratch allocated {short} times over {steps} steps \
         but {long} times over {} steps",
        g.name(),
        2 * steps
    );
}

/// Heap allocations of one `SpecMonitor::run_with_scratch` of exactly
/// `steps` steps from `init` on warm `scratch` (the daemon is built
/// before the counted window).
fn monomorphic_run_allocs(
    h: &SsmeHarness,
    sim: &Simulator<'_, <SsmeHarness as ProtocolHarness>::Protocol>,
    init: Configuration<ClockValue>,
    steps: usize,
    scratch: &mut StepScratch<ClockValue>,
) -> u64 {
    let mut daemon = h.daemon("central-rand", 11).expect("daemon");
    let monitor = SpecMonitor::new(h.spec(), 3);
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = monitor.run_with_scratch(sim, daemon.as_mut(), init, steps, scratch);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(report.steps_run, steps, "the burst must not stabilize within {steps} steps");
    allocs
}

#[test]
fn measured_steady_state_performs_zero_allocations_and_clones() {
    // The counting allocator is live in this binary.
    let before = ALLOCS.load(Ordering::Relaxed);
    drop(std::hint::black_box(vec![0u8; 64]));
    assert!(ALLOCS.load(Ordering::Relaxed) > before, "counting allocator must be installed");

    assert_measured_run_allocates_nothing(&generators::ring(1024).expect("ring"), 20_000, 100);
    assert_measured_run_allocates_nothing(&generators::torus(32, 32).expect("torus"), 20_000, 100);
}
