//! Criterion bench for Theorem 4: witness construction + verification.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use specstab_core::lower_bound::{theorem4_witness, verify_witness};
use specstab_core::ssme::Ssme;
use specstab_topology::generators;
use specstab_topology::metrics;
use specstab_unison::analysis;

fn bench_lower_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("thm4_witness");
    for n in [16usize, 32, 64] {
        let g = generators::ring(n).expect("valid ring");
        let diam = metrics::diameter(&g);
        let ssme = Ssme::for_graph(&g).expect("nonempty");
        group.bench_with_input(BenchmarkId::new("construct", n), &n, |b, _| {
            b.iter(|| theorem4_witness(&ssme, &g, diam).expect("diam >= 1"));
        });
        let w = theorem4_witness(&ssme, &g, diam).expect("diam >= 1");
        let horizon = analysis::ssme_sync_gamma1_bound(g.n(), diam) as usize + 16;
        group.bench_with_input(BenchmarkId::new("verify", n), &n, |b, _| {
            b.iter(|| verify_witness(&ssme, &g, &w, horizon));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lower_bound);
criterion_main!(benches);
