//! Regeneration-pass cost: the pairwise NCD matrix with and without
//! resumable compressor state, and the full `regeneration_pass` at
//! rising sample sizes. `scripts/bench.sh` runs these groups and writes
//! the `BENCH_regen.json` baseline from their `CRITERION_JSON` output.
//!
//! The naive matrix compresses `x ⊕ y` from scratch for every cell (the
//! per-pair cost is dominated by re-indexing and re-encoding the row
//! packet's field); the resumable build snapshots each row packet's
//! encoder state once and continues it per cell, walking the hash-chain
//! indexes every field received once at feature extraction. Both rows at the smallest size come from the
//! same run, so the baseline file itself documents the speedup — and the
//! harness asserts bit-identical matrices before timing anything.
//!
//! Scale knob (smoke mode shrinks it):
//!
//! * `LEAKSIG_BENCH_REGEN_SIZES` — comma-separated sample sizes
//!   (default `500,1000,2000`; the naive matrix runs at the smallest
//!   size only, everything else at every size)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use leaksig_core::matrix::{pairwise, pairwise_naive};
use leaksig_core::prelude::*;
use leaksig_http::HttpPacket;
use leaksig_netsim::{Dataset, MarketConfig};
use std::hint::black_box;

fn sizes() -> Vec<usize> {
    std::env::var("LEAKSIG_BENCH_REGEN_SIZES")
        .map(|spec| {
            spec.split(',')
                .map(|t| t.trim().parse().expect("sizes must be usizes"))
                .collect()
        })
        .unwrap_or_else(|_| vec![500, 1000, 2000])
}

/// Suspicious / normal market traffic, cycled up to the requested count.
fn traffic(data: &Dataset, sensitive: bool, n: usize) -> Vec<&HttpPacket> {
    let picked: Vec<&HttpPacket> = data
        .packets
        .iter()
        .filter(|p| p.is_sensitive() == sensitive)
        .map(|p| &p.packet)
        .collect();
    assert!(!picked.is_empty());
    picked.into_iter().cycle().take(n).collect()
}

fn bench_matrix(c: &mut Criterion) {
    let sizes = sizes();
    let smallest = *sizes.iter().min().expect("at least one size");
    let data = Dataset::generate(MarketConfig::scaled(77, 0.12));
    let dist: PacketDistance = PacketDistance::default();

    // The resumable build must be bit-identical to the naive one before
    // either is worth timing.
    {
        let sample = traffic(&data, true, smallest.min(120));
        let feats: Vec<_> = sample.iter().map(|p| dist.features(p)).collect();
        let fast = pairwise(&dist, &feats);
        let naive = pairwise_naive(&dist, &feats);
        for i in 0..feats.len() {
            for j in i + 1..feats.len() {
                assert_eq!(fast.get(i, j), naive.get(i, j), "cell ({i},{j})");
            }
        }
    }

    let mut g = c.benchmark_group("regen");
    g.sample_size(3);
    for &n in &sizes {
        let sample = traffic(&data, true, n);
        let feats: Vec<_> = sample.iter().map(|p| dist.features(p)).collect();
        g.throughput(Throughput::Elements((n * (n - 1) / 2) as u64));
        if n == smallest {
            g.bench_function(&format!("matrix_naive_{n}pkts"), |b| {
                b.iter(|| black_box(pairwise_naive(&dist, &feats)))
            });
        }
        g.bench_function(&format!("matrix_resumable_{n}pkts"), |b| {
            b.iter(|| black_box(pairwise(&dist, &feats)))
        });
    }
    g.finish();
}

fn bench_regeneration_pass(c: &mut Criterion) {
    let data = Dataset::generate(MarketConfig::scaled(77, 0.12));
    let config = PipelineConfig::default();
    let normal = traffic(&data, false, 2000);

    let mut g = c.benchmark_group("regen");
    g.sample_size(3);
    for n in sizes() {
        let sample = traffic(&data, true, n);
        {
            let set = regeneration_pass(&sample, &normal, &config);
            assert!(!set.is_empty(), "pass at n={n} generated nothing");
        }
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(&format!("regeneration_pass_{n}pkts"), |b| {
            b.iter(|| black_box(regeneration_pass(&sample, &normal, &config)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_matrix, bench_regeneration_pass);
criterion_main!(benches);
