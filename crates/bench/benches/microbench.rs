//! Criterion micro-benchmarks for the performance-critical kernels:
//! parsing, compression/NCD, packet distance, distance matrices,
//! clustering, signature generation, and detection throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use leaksig_compress::{ncd, Compressor, Lzss, Lzw};
use leaksig_core::cluster::agglomerate;
use leaksig_core::matrix::pairwise;
use leaksig_core::prelude::*;
use leaksig_http::{parse_request, HttpPacket};
use leaksig_netsim::{Dataset, MarketConfig};
use std::hint::black_box;
use std::net::Ipv4Addr;

fn sample_packets(n: usize) -> Vec<HttpPacket> {
    let data = Dataset::generate(MarketConfig::scaled(77, 0.02));
    data.packets
        .iter()
        .cycle()
        .take(n)
        .map(|p| p.packet.clone())
        .collect()
}

fn suspicious_sample(n: usize) -> Vec<HttpPacket> {
    let data = Dataset::generate(MarketConfig::scaled(77, 0.05));
    data.packets
        .iter()
        .filter(|p| p.is_sensitive())
        .take(n)
        .map(|p| p.packet.clone())
        .collect()
}

fn bench_parse(c: &mut Criterion) {
    let packets = sample_packets(256);
    let wires: Vec<Vec<u8>> = packets.iter().map(|p| p.to_bytes()).collect();
    let total: usize = wires.iter().map(|w| w.len()).sum();
    let mut g = c.benchmark_group("http");
    g.throughput(Throughput::Bytes(total as u64));
    g.bench_function("parse_256_requests", |b| {
        b.iter(|| {
            for w in &wires {
                black_box(parse_request(w, Ipv4Addr::LOCALHOST, 80).unwrap());
            }
        })
    });
    g.finish();
}

fn bench_compress(c: &mut Criterion) {
    let packets = sample_packets(64);
    let bodies: Vec<Vec<u8>> = packets.iter().map(|p| p.to_bytes()).collect();
    let total: usize = bodies.iter().map(|b| b.len()).sum();
    let mut g = c.benchmark_group("compress");
    g.throughput(Throughput::Bytes(total as u64));
    g.bench_function("lzss_64_packets", |b| {
        let z = Lzss::default();
        b.iter(|| {
            for body in &bodies {
                black_box(z.compressed_len(body));
            }
        })
    });
    g.bench_function("lzw_64_packets", |b| {
        b.iter(|| {
            for body in &bodies {
                black_box(Lzw.compressed_len(body));
            }
        })
    });
    g.finish();
}

fn bench_ncd_and_distance(c: &mut Criterion) {
    let packets = suspicious_sample(32);
    let dist: PacketDistance = PacketDistance::default();
    let features: Vec<_> = packets.iter().map(|p| dist.features(p)).collect();
    let mut g = c.benchmark_group("distance");
    g.bench_function("ncd_pair", |b| {
        let z = Lzss::default();
        let x = packets[0].to_bytes();
        let y = packets[1].to_bytes();
        b.iter(|| black_box(ncd(&z, &x, &y)))
    });
    g.bench_function("packet_distance_pair", |b| {
        b.iter(|| black_box(dist.packet(&features[0], &features[1])))
    });
    g.finish();
}

fn bench_matrix_and_clustering(c: &mut Criterion) {
    let packets = suspicious_sample(100);
    let dist: PacketDistance = PacketDistance::default();
    let features: Vec<_> = packets.iter().map(|p| dist.features(p)).collect();
    let mut g = c.benchmark_group("clustering");
    g.sample_size(10);
    g.bench_function("pairwise_matrix_100", |b| {
        b.iter(|| black_box(pairwise(&dist, &features)))
    });
    let matrix = pairwise(&dist, &features);
    g.bench_function("agglomerate_100", |b| {
        b.iter(|| black_box(agglomerate(&matrix)))
    });
    g.finish();
}

fn bench_signatures_and_detection(c: &mut Criterion) {
    let sample = suspicious_sample(100);
    let refs: Vec<&HttpPacket> = sample.iter().collect();
    let cfg = PipelineConfig::default();
    let mut g = c.benchmark_group("signatures");
    g.sample_size(10);
    g.bench_function("generate_from_100", |b| {
        b.iter(|| black_box(generate_signatures(&refs, &cfg)))
    });

    let set = generate_signatures(&refs, &cfg);
    let detector = Detector::new(set);
    let traffic = sample_packets(2000);
    g.throughput(Throughput::Elements(traffic.len() as u64));
    g.bench_function("detect_2000_packets", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &traffic {
                if detector.match_packet(p).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_payload_check(c: &mut Criterion) {
    let data = Dataset::generate(MarketConfig::scaled(77, 0.02));
    let check: PayloadCheck<leaksig_netsim::SensitiveKind> =
        PayloadCheck::new(data.model.device.all_values());
    let wires: Vec<Vec<u8>> = data
        .packets
        .iter()
        .take(2000)
        .map(|p| p.packet.to_bytes())
        .collect();
    let mut g = c.benchmark_group("payload");
    g.throughput(Throughput::Elements(wires.len() as u64));
    g.bench_function("payload_check_2000", |b| {
        b.iter(|| {
            let mut sus = 0usize;
            for w in &wires {
                if !check.scan_bytes(w).is_empty() {
                    sus += 1;
                }
            }
            black_box(sus)
        })
    });
    g.finish();
}

fn bench_market_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("netsim");
    g.sample_size(10);
    g.bench_function("generate_2pct_market", |b| {
        b.iter_batched(
            || MarketConfig::scaled(7, 0.02),
            |cfg| black_box(Dataset::generate(cfg)),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_compress,
    bench_ncd_and_distance,
    bench_matrix_and_clustering,
    bench_signatures_and_detection,
    bench_payload_check,
    bench_market_generation,
);
criterion_main!(benches);
