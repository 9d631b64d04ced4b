//! Criterion bench for Theorem 2: full SSME synchronous stabilization runs
//! (from random and adversarial initial configurations) across topologies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_core::lower_bound::theorem4_witness;
use specstab_core::ssme::Ssme;
use specstab_kernel::daemon::SynchronousDaemon;
use specstab_kernel::engine::{RunLimits, Simulator};
use specstab_kernel::protocol::random_configuration;
use specstab_kernel::Configuration;
use specstab_topology::metrics::DistanceMatrix;
use specstab_topology::{generators, Graph};
use specstab_unison::analysis;
use specstab_unison::ClockValue;

fn run_sync(g: &Graph, ssme: &Ssme, init: Configuration<ClockValue>, horizon: usize) -> usize {
    let sim = Simulator::new(g, ssme);
    let mut d = SynchronousDaemon::new();
    sim.run(init, &mut d, RunLimits::with_max_steps(horizon), &mut []).steps
}

fn bench_sync_stabilization(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm2_sync");
    for g in [
        generators::ring(32).expect("valid"),
        generators::grid(6, 6).expect("valid"),
        generators::torus(6, 6).expect("valid"),
        generators::random_tree(36, 7).expect("valid"),
    ] {
        let dm = DistanceMatrix::new(&g);
        let ssme = Ssme::for_graph(&g).expect("nonempty");
        let horizon = analysis::ssme_sync_gamma1_bound(g.n(), dm.diameter()) as usize + 16;
        let mut rng = StdRng::seed_from_u64(1);
        let random_init = random_configuration(&g, &ssme, &mut rng);
        group.bench_with_input(BenchmarkId::new("random_init", g.name()), &g, |b, g| {
            b.iter(|| run_sync(g, &ssme, random_init.clone(), horizon));
        });
        let witness = theorem4_witness(&ssme, &g, dm.diameter()).expect("diam >= 1");
        group.bench_with_input(BenchmarkId::new("adversarial_witness", g.name()), &g, |b, g| {
            b.iter(|| run_sync(g, &ssme, witness.init.clone(), horizon));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sync_stabilization);
criterion_main!(benches);
