//! E6 / §3 — plain-graph core decomposition on the DIP-calibrated PPI
//! networks (yeast: 4746 proteins; drosophila: 7048 proteins), by
//! linear-time peeling.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use graphcore::core_decomposition;
use proteome::{dip_fly_like, dip_yeast_like};

fn bench(c: &mut Criterion) {
    let yeast = dip_yeast_like(2003);
    let fly = dip_fly_like(2003);

    let mut g = c.benchmark_group("dip_graph_kcore");
    g.bench_function("yeast_sequential", |b| {
        b.iter(|| core_decomposition(black_box(&yeast)))
    });
    g.bench_function("fly_sequential", |b| {
        b.iter(|| core_decomposition(black_box(&fly)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
