//! Raw-intake throughput: `CollectionServer::ingest_raw` over
//! pre-serialized market traffic, clean vs 10% garbage-mangled — the
//! cost of the hardened frontier (limited parse, admission control,
//! quarantine) on well-formed traffic, and how much rejecting malformed
//! images costs on top. `scripts/bench.sh` runs this group and writes
//! the `BENCH_ingest.json` baseline from its `CRITERION_JSON` output.
//!
//! Scale knob (smoke mode shrinks it):
//!
//! * `LEAKSIG_BENCH_INGEST` — wire images ingested per iteration
//!   (default 4000)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use leaksig_core::payload::PayloadCheck;
use leaksig_core::prelude::*;
use leaksig_device::{CollectionServer, IngestConfig, WalConfig, WalStore};
use leaksig_faults::{apply_ingest_fault, IngestFault, RealDisk};
use leaksig_netsim::{Dataset, MarketConfig, SensitiveKind};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Market traffic serialized to wire images, each tagged with its
/// capture destination. `garbage_every` = 0 keeps everything clean;
/// otherwise every n-th image is byte-mangled.
fn wire_images(n: usize, garbage_every: usize) -> Vec<(Vec<u8>, Ipv4Addr, u16)> {
    let market = Dataset::generate(MarketConfig::scaled(77, 0.02));
    market
        .packets
        .iter()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(i, p)| {
            let mut raw = p.packet.to_bytes();
            if garbage_every > 0 && i % garbage_every == 0 {
                apply_ingest_fault(
                    IngestFault::Garbage {
                        seed: i as u64,
                        flips: 24,
                    },
                    &mut raw,
                );
            }
            (raw, p.packet.destination.ip, p.packet.destination.port)
        })
        .collect()
}

fn server(queue_capacity: usize) -> CollectionServer<SensitiveKind> {
    let market = Dataset::generate(MarketConfig::scaled(77, 0.02));
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(market.model.device.all_values());
    CollectionServer::with_intake(
        check,
        PipelineConfig::default(),
        400,
        77,
        IngestConfig {
            queue_capacity,
            ..IngestConfig::default()
        },
    )
}

/// Same collector over the WAL-backed durable store on a fresh state
/// directory — what `ingest_raw` costs when every classification is
/// journaled (group commit, default batching). Each iteration gets its
/// own directory so recovery work never leaks between samples.
fn durable_server(
    queue_capacity: usize,
    root: &std::path::Path,
) -> CollectionServer<SensitiveKind> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = root.join(format!("wal-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    let (store, _) = WalStore::open(&dir, Box::new(RealDisk), WalConfig::default())
        .expect("open bench state dir");
    let market = Dataset::generate(MarketConfig::scaled(77, 0.02));
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(market.model.device.all_values());
    CollectionServer::with_store(
        check,
        PipelineConfig::default(),
        400,
        77,
        IngestConfig {
            queue_capacity,
            ..IngestConfig::default()
        },
        Box::new(store),
    )
}

fn bench_ingest(c: &mut Criterion) {
    let n = env_or("LEAKSIG_BENCH_INGEST", 4_000);
    let clean = wire_images(n, 0);
    let dirty = wire_images(n, 10);

    // The frontier must actually reject the mangled share before it is
    // worth timing.
    {
        let srv = server(n + 1);
        for (raw, ip, port) in &dirty {
            srv.ingest_raw(raw, *ip, *port);
        }
        let s = srv.stats();
        assert!(s.parse_rejects > 0, "no rejects — bench would be all-clean");
        assert_eq!(s.raw_seen, n as u64);
    }

    let mut g = c.benchmark_group("ingest");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);

    let mut run = |label: String, images: &[(Vec<u8>, Ipv4Addr, u16)]| {
        g.bench_function(&label, |b| {
            b.iter_batched(
                || server(n + 1),
                |srv| {
                    for (raw, ip, port) in images {
                        srv.ingest_raw(raw, *ip, *port);
                    }
                    black_box(srv.pump_all())
                },
                BatchSize::LargeInput,
            )
        });
    };
    run(format!("raw_clean_{n}pkts"), &clean);
    run(format!("raw_10pct_garbage_{n}pkts"), &dirty);

    // Durable-vs-memory: identical clean traffic through the WAL-backed
    // store, WAL flushed at the end of every iteration. The smoke gate
    // in `scripts/bench.sh` holds this to >=0.5x the in-memory row.
    let root = std::env::temp_dir().join(format!("leaksig-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    g.bench_function(&format!("durable_wal_clean_{n}pkts"), |b| {
        b.iter_batched(
            || durable_server(n + 1, &root),
            |srv| {
                for (raw, ip, port) in &clean {
                    srv.ingest_raw(raw, *ip, *port);
                }
                let drained = srv.pump_all();
                srv.flush_state();
                black_box(drained)
            },
            BatchSize::LargeInput,
        )
    });
    let _ = std::fs::remove_dir_all(&root);
    g.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
