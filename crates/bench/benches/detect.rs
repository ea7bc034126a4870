//! Detection-engine throughput: the naive per-signature scan vs the
//! compiled automaton, single-threaded and parallel, over a synthetic
//! market capture — plus the NCD kernel the clustering stage spends its
//! time in. `scripts/bench.sh` runs these groups and assembles the
//! `BENCH_detect.json` baseline from their `CRITERION_JSON` output.
//!
//! Scale knobs (smoke mode shrinks both):
//!
//! * `LEAKSIG_BENCH_PACKETS` — packets scanned per iteration (default 10000)
//! * `LEAKSIG_BENCH_SIGS` — signatures installed (default 64)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use leaksig_compress::{ncd, Lzss};
use leaksig_core::prelude::*;
use leaksig_http::{
    parse_request_limited, parse_request_view, HttpPacket, ParseArena, ParseLimits, RequestBuilder,
};
use leaksig_netsim::{Dataset, MarketConfig};
use std::hint::black_box;
use std::net::Ipv4Addr;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One leaking ad module: near-duplicate requests with a module-specific
/// identifier, host, and path — each yields one conjunction signature.
fn module_packet(module: usize, variant: usize) -> HttpPacket {
    let uid = (module as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    RequestBuilder::get(&format!("/m{module}/getad"))
        .query("udid", &format!("{uid:032x}"))
        .query("app", &format!("jp.co.pkg{module}.app"))
        .query("slot", &variant.to_string())
        .destination(
            Ipv4Addr::new(203, 0, 113, (module % 250) as u8 + 1),
            80,
            &format!("ad{module}.example.net"),
        )
        .build()
}

/// `n` distinct signatures, one per synthetic module.
fn signature_set(n: usize) -> SignatureSet {
    let signatures: Vec<ConjunctionSignature> = (0..n)
        .map(|m| {
            let (a, b) = (module_packet(m, 1), module_packet(m, 2));
            signature_from_cluster(m as u32, &[&a, &b], &SignatureConfig::default())
                .expect("module cluster yields a signature")
        })
        .collect();
    assert_eq!(signatures.len(), n);
    SignatureSet { signatures }
}

/// Market traffic with module leaks sprinkled in (~2% hit rate), so the
/// scan pays for real matches as well as rejects.
fn traffic(n_packets: usize, n_sigs: usize) -> Vec<HttpPacket> {
    let market = Dataset::generate(MarketConfig::scaled(77, 0.02));
    market
        .packets
        .iter()
        .cycle()
        .take(n_packets)
        .enumerate()
        .map(|(i, p)| {
            if i % 50 == 0 {
                module_packet(i % n_sigs.max(1), i)
            } else {
                p.packet.clone()
            }
        })
        .collect()
}

fn bench_detect(c: &mut Criterion) {
    let n_packets = env_or("LEAKSIG_BENCH_PACKETS", 10_000);
    let n_sigs = env_or("LEAKSIG_BENCH_SIGS", 64);
    let set = signature_set(n_sigs);
    let packets = traffic(n_packets, n_sigs);
    let refs: Vec<&HttpPacket> = packets.iter().collect();
    let detector = Detector::new(set.clone());

    // The three paths must agree before they are worth timing.
    let naive: Vec<bool> = refs
        .iter()
        .map(|p| set.signatures.iter().any(|s| s.matches(p)))
        .collect();
    assert_eq!(detector.scan_refs(&refs), naive, "engine/naive disagree");
    assert!(
        naive.iter().any(|&m| m),
        "no hits — bench would be all-reject"
    );

    let mut g = c.benchmark_group("detect");
    g.throughput(Throughput::Elements(n_packets as u64));
    g.sample_size(10);

    let label = |kind: &str| format!("{kind}_{n_sigs}sigs_{n_packets}pkts");
    g.bench_function(&label("naive_scan"), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &refs {
                if set.signatures.iter().any(|s| s.matches(p)) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function(&label("compiled_scan_1thread"), |b| {
        let engine = detector.engine();
        let mut scratch = engine.scratch();
        b.iter(|| {
            let mut hits = 0usize;
            for p in &refs {
                if engine.match_first(&mut scratch, p).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function(&label("compiled_scan_parallel"), |b| {
        b.iter(|| black_box(detector.scan_refs(&refs)))
    });

    // Zero-copy rows: the same traffic as raw wire images, scanned
    // through borrowed packet views instead of owned `HttpPacket`s.
    let limits = ParseLimits::default();
    let raws: Vec<Vec<u8>> = packets.iter().map(|p| p.to_bytes()).collect();
    let records: Vec<RawPacket<'_>> = raws
        .iter()
        .zip(&packets)
        .map(|(raw, p)| RawPacket {
            raw,
            ip: p.destination.ip,
            port: p.destination.port,
        })
        .collect();

    // Parity precheck: the zero-copy batch path must agree with naive.
    let zc: Vec<bool> = detector
        .scan_batch(&records, &limits)
        .iter()
        .map(|v| {
            assert!(!v.parse_failed, "builder wire images must parse");
            v.matched.is_some()
        })
        .collect();
    assert_eq!(zc, naive, "zero-copy/naive disagree");

    g.bench_function(&label("zero_copy_scan_1thread"), |b| {
        // Pre-parsed views: isolates automaton throughput over borrowed
        // fields, the direct counterpart of `compiled_scan_1thread`.
        let mut arena = ParseArena::new();
        let views: Vec<_> = records
            .iter()
            .map(|r| {
                parse_request_view(r.raw, r.ip, r.port, &limits, &mut arena)
                    .expect("builder wire images must parse")
            })
            .collect();
        let mut scanner = detector.scanner();
        b.iter(|| {
            let mut hits = 0usize;
            for v in &views {
                if scanner.scan_view(v).matched.is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function(&label("owned_parse_scan_1thread"), |b| {
        // The same raw records materialised into owned packets
        // (`parse_request_limited`: a view parse plus `to_packet`) and
        // the owned match: the raw→verdict counterpart of the zero-copy
        // row below.
        let engine = detector.engine();
        let mut scratch = engine.scratch();
        b.iter(|| {
            let mut hits = 0usize;
            for r in &records {
                let packet = parse_request_limited(r.raw, r.ip, r.port, &limits)
                    .expect("builder wire images must parse");
                if engine.match_first(&mut scratch, &packet).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function(&label("zero_copy_parse_scan_1thread"), |b| {
        // Full raw→verdict path: arena-backed parse plus scan, serial.
        let mut scanner = detector.scanner();
        b.iter(|| {
            let verdicts = scanner.scan_batch(records.iter().copied(), &limits);
            black_box(verdicts.iter().filter(|v| v.matched.is_some()).count())
        })
    });
    g.bench_function(&label("zero_copy_scan_parallel"), |b| {
        b.iter(|| black_box(detector.scan_batch(&records, &limits)))
    });
    g.finish();
}

fn bench_ncd(c: &mut Criterion) {
    let packets = traffic(64, 8);
    let wires: Vec<Vec<u8>> = packets.iter().map(|p| p.to_bytes()).collect();
    let total: usize = wires.iter().map(|w| w.len()).sum();
    let mut g = c.benchmark_group("ncd");
    g.throughput(Throughput::Bytes(total as u64));
    g.sample_size(10);
    g.bench_function("lzss_64_packets_chain", |b| {
        let z = Lzss::default();
        b.iter(|| {
            let mut acc = 0.0f64;
            for pair in wires.windows(2) {
                acc += ncd(&z, &pair[0], &pair[1]);
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_detect, bench_ncd);
criterion_main!(benches);
