//! Socket-frontier throughput: concurrent clients uploading `LEAKBATCH/1`
//! batches over real loopback TCP into [`NetServer`]'s sweep loop, clean
//! vs 10% fault-injected connections — what the non-blocking event loop,
//! incremental frame reassembly, and per-record admission cost end to
//! end, and how much surviving misbehaving peers costs on top. (Stall
//! faults are excluded: they sleep by design and would time the fault,
//! not the server.) `scripts/bench.sh` runs this group and writes the
//! `BENCH_net.json` baseline from its `CRITERION_JSON` output.
//!
//! Scale knobs (smoke mode shrinks them):
//!
//! * `LEAKSIG_BENCH_NET` — records uploaded per iteration (default 4000)
//! * `LEAKSIG_BENCH_NET_CONNS` — concurrent client threads (default 4)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use leaksig_core::payload::PayloadCheck;
use leaksig_core::prelude::*;
use leaksig_device::{CollectionServer, SignatureServer};
use leaksig_faults::{SocketFaultKind, SocketFaultPlan};
use leaksig_net::{BatchRecord, NetClient, NetConfig, NetServer, NetStats};
use leaksig_netsim::{Dataset, MarketConfig, SensitiveKind};
use std::hint::black_box;
use std::sync::Arc;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Every fault kind that doesn't sleep: benchmark samples must measure
/// the server, not `SocketFault::Stall`'s deliberate silence.
const FAST_FAULTS: [SocketFaultKind; 4] = [
    SocketFaultKind::Chop,
    SocketFaultKind::Reset,
    SocketFaultKind::Garbage,
    SocketFaultKind::HalfFrame,
];

fn collector() -> Arc<CollectionServer<SensitiveKind>> {
    let market = Dataset::generate(MarketConfig::scaled(77, 0.02));
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(market.model.device.all_values());
    Arc::new(CollectionServer::new(
        check,
        PipelineConfig::default(),
        400,
        77,
    ))
}

fn upload_batches(n: usize) -> Arc<Vec<Vec<BatchRecord>>> {
    let market = Dataset::generate(MarketConfig::scaled(77, 0.02));
    Arc::new(
        market
            .packets
            .iter()
            .cycle()
            .take(n)
            .collect::<Vec<_>>()
            .chunks(64)
            .map(|c| {
                c.iter()
                    .map(|p| BatchRecord::from_packet(&p.packet))
                    .collect()
            })
            .collect(),
    )
}

/// Spawn a loopback server, hammer it from `conns` concurrent clients
/// (thread `t` takes batches `t, t+conns, t+2·conns, …` with its own
/// seeded fault plan), then shut down and return the final counters.
fn drive(
    collector: Arc<CollectionServer<SensitiveKind>>,
    batches: &Arc<Vec<Vec<BatchRecord>>>,
    conns: usize,
    kinds: &[SocketFaultKind],
    intensity: f64,
) -> NetStats {
    let publisher = Arc::new(SignatureServer::new());
    let server = NetServer::spawn(collector, publisher, "127.0.0.1:0", NetConfig::default())
        .expect("bind loopback");
    let addr = server.addr();
    std::thread::scope(|s| {
        for t in 0..conns {
            let batches = batches.clone();
            s.spawn(move || {
                let client = NetClient::new(addr);
                let mut plan = SocketFaultPlan::new(t as u64, kinds, intensity);
                for batch in batches.iter().skip(t).step_by(conns) {
                    let fault = plan.next_action();
                    let _ = client.send_batch(batch, fault);
                }
            });
        }
    });
    server.shutdown()
}

fn bench_net(c: &mut Criterion) {
    let n = env_or("LEAKSIG_BENCH_NET", 4_000);
    let conns = env_or("LEAKSIG_BENCH_NET_CONNS", 4).max(1);
    let batches = upload_batches(n);

    // Pre-flight: the harness must both deliver batches and surface
    // faults before the comparison is worth timing. (Deterministic at
    // any scale — the 10% draw itself may fire zero times on a tiny
    // smoke run, so it is not what we assert on.)
    {
        let stats = drive(collector(), &batches, conns, &FAST_FAULTS, 0.0);
        assert_eq!(
            stats.batches,
            batches.len() as u64,
            "clean run lost batches: {stats:?}"
        );
        let stats = drive(
            collector(),
            &batches,
            conns,
            &[SocketFaultKind::Garbage],
            1.0,
        );
        assert_eq!(
            stats.rejected,
            batches.len() as u64,
            "garbage not rejected: {stats:?}"
        );
    }

    let mut g = c.benchmark_group("net");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);

    let mut run = |label: String, intensity: f64| {
        g.bench_function(&label, |b| {
            b.iter_batched(
                collector,
                |srv| black_box(drive(srv, &batches, conns, &FAST_FAULTS, intensity)),
                BatchSize::LargeInput,
            )
        });
    };
    run(format!("tcp_clean_{n}pkts_{conns}conns"), 0.0);
    run(format!("tcp_10pct_faulty_{n}pkts_{conns}conns"), 0.10);
    g.finish();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
