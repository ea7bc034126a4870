//! Socket chaos soak: the TCP collection frontier under a seeded plan
//! of connection-level faults — chopped writes, mid-frame stalls
//! (slowloris), abrupt resets, garbage preambles, half-frame hangups —
//! driven over real loopback sockets.
//!
//! The bar, per seed: the server never panics (the driver would fail to
//! connect and the final stats would not reconcile), slowloris
//! connections are evicted by the frame deadline, garbage connections
//! are rejected with an `ERR` line, floods past the connection cap are
//! shed with `BUSY`, and afterwards the counters reconcile twice over —
//! the listener's `accepted = Σ terminal close reasons`, and the
//! collector's `raw_seen = admitted + rate_limited + parse_rejects +
//! shed` (exact under `Shed::Newest`).
//!
//! Determinism: connections are driven sequentially, so the server sees
//! the same byte streams in the same order every run — the loopback
//! end-to-end test proves it by replaying the acknowledged batches into
//! an in-process twin collector with the same seed and requiring the
//! *identical published signature set*, hence identical held-out
//! detection recall to the in-process path.
//!
//! Seeds default to 1..=5 (what `scripts/check.sh` runs); override with
//! `CHAOS_SEEDS=7,11,13`.

use leaksig::core::prelude::*;
use leaksig::device::{
    CollectionServer, IngestConfig, RateLimit, RetryPolicy, Shed, SignatureServer, SignatureStore,
    SyncClient, SyncOutcome,
};
use leaksig::faults::{SocketFaultKind, SocketFaultPlan};
use leaksig::net::{
    drive_chaos, BatchOutcome, BatchRecord, NetClient, NetConfig, NetServer, TcpTransport,
};
use leaksig::netsim::{Dataset, MarketConfig, SensitiveKind};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(spec) => spec
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS must be u64s"))
            .collect(),
        Err(_) => (1..=5).collect(),
    }
}

/// A collector configured for exact offer accounting: under
/// `Shed::Newest` every `ingest_raw` offer bumps exactly one of
/// admitted / rate-limited / parse-rejects / shed.
fn collector_for(data: &Dataset, seed: u64) -> CollectionServer<SensitiveKind> {
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());
    CollectionServer::with_intake(
        check,
        PipelineConfig::default(),
        400,
        seed,
        IngestConfig {
            shed: Shed::Newest,
            ..IngestConfig::default()
        },
    )
}

/// Chunk `packets` into upload batches; every `mangle_every`-th record
/// (0 disables) carries bytes that frame fine but are not HTTP, to
/// exercise the quarantine verdict through the `ACK` line.
fn batches_of(
    data: &Dataset,
    upto: usize,
    batch_size: usize,
    mangle_every: usize,
) -> Vec<Vec<BatchRecord>> {
    data.packets[..upto]
        .chunks(batch_size)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let mut rec = BatchRecord::from_packet(&p.packet);
                    if mangle_every > 0 && i % mangle_every == mangle_every - 1 {
                        rec.raw = b"\x02not an http request at all\x00".to_vec();
                    }
                    rec
                })
                .collect()
        })
        .collect()
}

fn tuned_config() -> NetConfig {
    NetConfig {
        frame_ms: 150,
        idle_ms: 400,
        write_ms: 400,
        drain_ms: 1_000,
        ..NetConfig::default()
    }
}

#[test]
fn net_chaos_soak_across_seeds() {
    for seed in seeds() {
        let data = Dataset::generate(MarketConfig::scaled(seed, 0.02));
        let collector = Arc::new(collector_for(&data, seed));
        let publisher = Arc::new(SignatureServer::new());
        let server = NetServer::spawn(
            collector.clone(),
            publisher.clone(),
            "127.0.0.1:0",
            tuned_config(),
        )
        .expect("bind loopback");

        let upto = data.packets.len() / 2;
        let batches = batches_of(&data, upto, 32, 11);
        let mut plan = SocketFaultPlan::chaos(seed, 0.3);
        let events = drive_chaos(server.addr(), &mut plan, &batches)
            .unwrap_or_else(|e| panic!("seed {seed}: driver failed (server dead?): {e}"));
        assert!(
            plan.injected() > 0,
            "seed {seed}: the plan injected nothing"
        );

        // Each fault kind lands in its intended terminal bucket.
        let count_fault =
            |k: SocketFaultKind| events.iter().filter(|e| e.fault == Some(k)).count() as u64;
        let acked: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.outcome, BatchOutcome::Acked(_)))
            .collect();
        for e in &events {
            match e.fault {
                None | Some(SocketFaultKind::Chop) => assert!(
                    matches!(e.outcome, BatchOutcome::Acked(_)),
                    "seed {seed}: honest/chopped conn {} must be acked, got {:?}",
                    e.conn,
                    e.outcome
                ),
                Some(SocketFaultKind::Garbage) => assert!(
                    matches!(e.outcome, BatchOutcome::Rejected(_)),
                    "seed {seed}: garbage conn {} must be rejected, got {:?}",
                    e.conn,
                    e.outcome
                ),
                Some(
                    SocketFaultKind::Stall | SocketFaultKind::Reset | SocketFaultKind::HalfFrame,
                ) => assert!(
                    matches!(e.outcome, BatchOutcome::Disconnected),
                    "seed {seed}: conn {} under {:?} must disconnect, got {:?}",
                    e.conn,
                    e.fault,
                    e.outcome
                ),
            }
        }

        let stats = server.shutdown();
        // Listener-side reconciliation: every accepted connection ended
        // in exactly one terminal bucket.
        assert_eq!(
            stats.accepted,
            stats.closed_total(),
            "seed {seed}: close reasons do not tile accepts: {stats:?}"
        );
        assert_eq!(
            stats.accepted,
            events.len() as u64,
            "seed {seed}: sequential driving accepts every connection"
        );
        // Slowloris eviction: every stalled connection was evicted by
        // the frame deadline, and nothing else was.
        assert_eq!(
            stats.evicted_stalled,
            count_fault(SocketFaultKind::Stall),
            "seed {seed}: {stats:?}"
        );
        assert_eq!(
            stats.rejected,
            count_fault(SocketFaultKind::Garbage),
            "seed {seed}: {stats:?}"
        );
        assert_eq!(
            stats.accept_shed, 0,
            "seed {seed}: sequential driving never floods"
        );
        assert_eq!(
            stats.batches,
            acked.len() as u64,
            "seed {seed}: every acked batch was counted once"
        );

        // Collector-side reconciliation: offers tile exactly, and the
        // ACK lines the clients saw add up to the same totals.
        let s = collector.stats();
        assert_eq!(
            s.raw_seen,
            s.admitted + s.rate_limited + s.parse_rejects + s.shed,
            "seed {seed}: unaccounted raw offers: {s:?}"
        );
        let (mut ack_admitted, mut ack_quarantined) = (0u64, 0u64);
        for e in &acked {
            if let BatchOutcome::Acked(a) = &e.outcome {
                ack_admitted += a.admitted;
                ack_quarantined += a.quarantined;
            }
        }
        assert_eq!(ack_admitted, s.admitted, "seed {seed}");
        assert_eq!(ack_quarantined, s.quarantined, "seed {seed}");
        assert!(
            s.parse_rejects > 0,
            "seed {seed}: mangled records must exercise quarantine"
        );
        assert_eq!(
            s.quarantined, s.parse_rejects,
            "seed {seed}: no poison here"
        );
    }
}

/// The acceptance scenario: ≥10k packets over real TCP under a seeded
/// fault plan — zero server panics, stats deterministic by seed, and
/// held-out detection recall identical to the in-process path (proved
/// the strong way: the published signature sets are byte-identical).
#[test]
fn loopback_e2e_matches_the_in_process_path() {
    let seed = 42u64;
    let data = Dataset::generate(MarketConfig::scaled(seed, 0.15));
    let upload = (data.packets.len() * 3 / 4).min(12_800);
    assert!(upload >= 10_000, "need ≥10k packets, got {upload}");
    let batches = batches_of(&data, upload, 64, 0);

    let run = || {
        let collector = Arc::new(collector_for(&data, seed));
        let publisher = Arc::new(SignatureServer::new());
        let server = NetServer::spawn(
            collector.clone(),
            publisher.clone(),
            "127.0.0.1:0",
            tuned_config(),
        )
        .expect("bind loopback");
        let mut plan = SocketFaultPlan::chaos(seed, 0.10);
        let events = drive_chaos(server.addr(), &mut plan, &batches).expect("driver");
        let net = server.shutdown();
        assert_eq!(net.accepted, net.closed_total(), "close reasons must tile");
        let outcome = collector.regenerate(150, &publisher);
        assert!(
            matches!(
                outcome,
                leaksig::device::RegenerateOutcome::Published { .. }
            ),
            "{outcome:?}"
        );
        let labels: Vec<&'static str> = events.iter().map(|e| e.outcome.label()).collect();
        (collector.stats(), net, labels, publisher)
    };

    let (stats_a, net_a, labels_a, publisher_a) = run();
    assert!(
        stats_a.raw_seen >= 10_000,
        "faults dropped too much: {stats_a:?}"
    );
    assert_eq!(
        stats_a.raw_seen,
        stats_a.admitted + stats_a.rate_limited + stats_a.parse_rejects + stats_a.shed,
        "unaccounted offers: {stats_a:?}"
    );

    // Same seed, fresh server: identical verdicts and counters.
    let (stats_b, net_b, labels_b, _publisher_b) = run();
    assert_eq!(
        stats_a, stats_b,
        "collector stats must be deterministic by seed"
    );
    assert_eq!(net_a, net_b, "listener stats must be deterministic by seed");
    assert_eq!(labels_a, labels_b, "per-connection outcomes must replay");

    // In-process twin: same collector construction, fed exactly the
    // acknowledged batches in order through `ingest_raw` — the
    // signature set it publishes must be byte-identical, so held-out
    // recall through real TCP equals the in-process path by
    // construction (and we measure it anyway).
    let twin = collector_for(&data, seed);
    let twin_publisher = SignatureServer::new();
    {
        let mut plan = SocketFaultPlan::chaos(seed, 0.10);
        for batch in &batches {
            let fault = plan.next_action();
            let delivered = match fault.map(|f| f.kind()) {
                None | Some(SocketFaultKind::Chop) => true,
                Some(_) => false,
            };
            if delivered {
                for r in batch {
                    twin.ingest_raw(&r.raw, r.ip, r.port);
                }
                twin.pump_all();
            }
        }
    }
    let outcome = twin.regenerate(150, &twin_publisher);
    assert!(
        matches!(
            outcome,
            leaksig::device::RegenerateOutcome::Published { .. }
        ),
        "{outcome:?}"
    );
    assert_eq!(twin.stats(), stats_a, "twin must see the same offers");

    let tcp_store = SignatureStore::new();
    let twin_store = SignatureStore::new();
    assert!(tcp_store.sync(&publisher_a).expect("sync"));
    assert!(twin_store.sync(&twin_publisher).expect("sync"));
    assert_eq!(
        tcp_store.wire_text(),
        twin_store.wire_text(),
        "TCP-fed and in-process signature sets must be identical"
    );

    // Held-out recall, measured both ways for the record.
    let (mut tp, mut fns) = (0usize, 0usize);
    for p in &data.packets[upload..] {
        if p.is_sensitive() {
            let via_tcp = tcp_store.match_packet(&p.packet).is_some();
            let via_twin = twin_store.match_packet(&p.packet).is_some();
            assert_eq!(via_tcp, via_twin, "detection verdicts must agree");
            if via_tcp {
                tp += 1;
            } else {
                fns += 1;
            }
        }
    }
    let recall = tp as f64 / (tp + fns).max(1) as f64;
    assert!(
        recall > 0.75,
        "post-chaos recall {recall:.3} ({tp}/{})",
        tp + fns
    );
}

/// Restart equivalence over real sockets: kill the TCP server mid-soak,
/// restart it on the same WAL-backed state directory, finish the
/// ≥10k-packet upload — the published signature set must be
/// byte-identical to an in-process twin put through the same restart
/// boundary. Durable state (reservoir, counters, RNG checkpoint)
/// carries across the reboot; volatile state (normal ring, queue) is
/// lost identically on both sides.
#[test]
fn restarted_tcp_server_republishes_identical_signature_set() {
    use leaksig::device::{StateStore, WalConfig, WalStore};
    use leaksig::faults::RealDisk;

    let seed = 42u64;
    let data = Dataset::generate(MarketConfig::scaled(seed, 0.15));
    let upload = (data.packets.len() * 3 / 4).min(12_800);
    assert!(upload >= 10_000, "need ≥10k packets, got {upload}");
    let batches = batches_of(&data, upload, 64, 0);
    let half = batches.len() / 2;

    let scratch = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("leaksig-restart-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let wal_collector = |dir: &std::path::Path| {
        let (store, _) =
            WalStore::open(dir, Box::new(RealDisk), WalConfig::default()).expect("open state dir");
        let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());
        CollectionServer::with_store(
            check,
            PipelineConfig::default(),
            400,
            seed,
            IngestConfig {
                shed: Shed::Newest,
                ..IngestConfig::default()
            },
            Box::new(store),
        )
    };

    // --- The TCP path: serve, kill mid-soak, restart on the same dir.
    let dir = scratch("tcp");
    let collector = Arc::new(wal_collector(&dir));
    let publisher = Arc::new(SignatureServer::new());
    let server = NetServer::spawn(
        collector.clone(),
        publisher.clone(),
        "127.0.0.1:0",
        tuned_config(),
    )
    .expect("bind loopback");
    let client = NetClient::new(server.addr());
    for batch in &batches[..half] {
        let outcome = client.send_batch(batch, None).expect("send");
        assert!(matches!(outcome, BatchOutcome::Acked(_)), "{outcome:?}");
    }
    // Drain the admission queue, then kill the server. The shutdown
    // path flushes the WAL; in-flight volatile state dies with it.
    collector.pump_all();
    server.shutdown();
    drop(collector);

    // Reboot: recover the directory, republish, serve the second half.
    let collector = Arc::new(wal_collector(&dir));
    let publisher = Arc::new(SignatureServer::new());
    assert_eq!(
        collector.restore_publisher(&publisher),
        None,
        "nothing was published before the crash"
    );
    let server = NetServer::spawn(
        collector.clone(),
        publisher.clone(),
        "127.0.0.1:0",
        tuned_config(),
    )
    .expect("rebind loopback");
    let client = NetClient::new(server.addr());
    for batch in &batches[half..] {
        let outcome = client.send_batch(batch, None).expect("send");
        assert!(matches!(outcome, BatchOutcome::Acked(_)), "{outcome:?}");
    }
    server.shutdown();
    collector.pump_all();
    let outcome = collector.regenerate(150, &publisher);
    assert!(
        matches!(
            outcome,
            leaksig::device::RegenerateOutcome::Published { .. }
        ),
        "{outcome:?}"
    );
    let stats_tcp = collector.stats();
    collector.flush_state();
    drop(collector);

    // --- The twin: same construction, same restart boundary, no
    // sockets — fed the identical batches through `ingest_raw`.
    let dir2 = scratch("twin");
    let twin = wal_collector(&dir2);
    for batch in &batches[..half] {
        for r in batch {
            twin.ingest_raw(&r.raw, r.ip, r.port);
        }
        twin.pump_all();
    }
    twin.flush_state();
    drop(twin);

    let twin = wal_collector(&dir2);
    let twin_publisher = SignatureServer::new();
    for batch in &batches[half..] {
        for r in batch {
            twin.ingest_raw(&r.raw, r.ip, r.port);
        }
        twin.pump_all();
    }
    let outcome = twin.regenerate(150, &twin_publisher);
    assert!(
        matches!(
            outcome,
            leaksig::device::RegenerateOutcome::Published { .. }
        ),
        "{outcome:?}"
    );
    assert_eq!(twin.stats(), stats_tcp, "twin must see the same offers");

    let (v_tcp, wire_tcp) = publisher.fetch(0).expect("published");
    let (v_twin, wire_twin) = twin_publisher.fetch(0).expect("published");
    assert_eq!(v_tcp, v_twin);
    assert_eq!(
        wire_tcp, wire_twin,
        "restarted TCP server must publish the byte-identical signature set"
    );

    // The recovered directories themselves agree byte-for-byte.
    twin.flush_state();
    let final_twin = twin.encoded_state();
    drop(twin);
    let (tcp_state, _) =
        WalStore::open(&dir, Box::new(RealDisk), WalConfig::default()).expect("reopen");
    let (twin_state, _) =
        WalStore::open(&dir2, Box::new(RealDisk), WalConfig::default()).expect("reopen");
    assert_eq!(
        leaksig::device::state::encode_state(tcp_state.state()),
        leaksig::device::state::encode_state(twin_state.state()),
        "durable state must be identical across the TCP and in-process paths"
    );
    assert_eq!(
        final_twin,
        leaksig::device::state::encode_state(twin_state.state()),
        "what the twin flushed is what the directory holds"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn slowloris_and_idlers_are_evicted_within_their_deadlines() {
    let data = Dataset::generate(MarketConfig::scaled(9, 0.01));
    let collector = Arc::new(collector_for(&data, 9));
    let publisher = Arc::new(SignatureServer::new());
    let config = NetConfig {
        frame_ms: 150,
        idle_ms: 300,
        ..tuned_config()
    };
    let server =
        NetServer::spawn(collector, publisher, "127.0.0.1:0", config).expect("bind loopback");

    // Slowloris: a frame prefix, then silence. The server must cut us
    // off near the frame deadline — far before the idle deadline would
    // ever fire for a peer that keeps trickling.
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"LEAKBATCH/1 5 50").expect("prefix");
    let n = stream.read(&mut [0u8; 16]).unwrap_or(0);
    let elapsed = t0.elapsed();
    assert_eq!(n, 0, "eviction is a close, not a reply");
    assert!(
        elapsed >= Duration::from_millis(140),
        "evicted before the deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(1_500),
        "slowloris outlived the frame deadline: {elapsed:?}"
    );

    // Idler: connect and say nothing.
    let t0 = Instant::now();
    let mut idler = TcpStream::connect(server.addr()).expect("connect");
    idler
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let n = idler.read(&mut [0u8; 16]).unwrap_or(0);
    let elapsed = t0.elapsed();
    assert_eq!(n, 0);
    assert!(
        elapsed < Duration::from_millis(1_500),
        "idler outlived the idle deadline: {elapsed:?}"
    );

    let stats = server.shutdown();
    assert_eq!(stats.evicted_stalled, 1, "{stats:?}");
    assert_eq!(stats.evicted_idle, 1, "{stats:?}");
    assert_eq!(stats.accepted, stats.closed_total(), "{stats:?}");
}

#[test]
fn connection_flood_is_shed_with_busy() {
    let data = Dataset::generate(MarketConfig::scaled(9, 0.01));
    let collector = Arc::new(collector_for(&data, 9));
    let publisher = Arc::new(SignatureServer::new());
    let config = NetConfig {
        max_conns: 4,
        ..tuned_config()
    };
    let server =
        NetServer::spawn(collector, publisher, "127.0.0.1:0", config).expect("bind loopback");

    // Open a flood of silent connections, then see who got BUSY. The
    // first `max_conns` are accepted (and will idle out); the rest must
    // be shed before earning any buffer.
    let streams: Vec<TcpStream> = (0..10)
        .map(|_| {
            let s = TcpStream::connect(server.addr()).expect("connect");
            s.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            s
        })
        .collect();
    // Give the accept sweep a moment to classify the whole backlog.
    std::thread::sleep(Duration::from_millis(100));
    let mut busy = 0;
    for mut s in streams {
        let mut buf = [0u8; 8];
        if let Ok(n) = s.read(&mut buf) {
            if &buf[..n] == b"BUSY\n" {
                busy += 1;
            }
        }
    }
    assert_eq!(busy, 6, "exactly the over-cap connections see BUSY");
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 4, "{stats:?}");
    assert_eq!(stats.accept_shed, 6, "{stats:?}");
    assert_eq!(stats.accepted, stats.closed_total(), "{stats:?}");
}

#[test]
fn shutdown_drains_the_inflight_batch_before_closing() {
    let data = Dataset::generate(MarketConfig::scaled(9, 0.01));
    let collector = Arc::new(collector_for(&data, 9));
    let publisher = Arc::new(SignatureServer::new());
    let config = NetConfig {
        frame_ms: 5_000,
        drain_ms: 2_000,
        ..NetConfig::default()
    };
    let server = NetServer::spawn(collector.clone(), publisher, "127.0.0.1:0", config)
        .expect("bind loopback");

    // A batch split across the shutdown boundary: half before, half
    // after. Drain must let it finish and ack.
    let batch = leaksig::net::encode_batch(&batches_of(&data, 8, 8, 0)[0]);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    stream.write_all(&batch[..batch.len() / 2]).expect("half");
    std::thread::sleep(Duration::from_millis(100));

    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(100));
    stream.write_all(&batch[batch.len() / 2..]).expect("rest");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read ack");
    assert!(
        reply.starts_with("ACK "),
        "in-flight batch must complete during drain, got {reply:?}"
    );
    let stats = shutdown.join().expect("shutdown thread");
    assert_eq!(stats.batches, 1, "{stats:?}");
    assert_eq!(stats.accepted, stats.closed_total(), "{stats:?}");
}

/// A graceful shutdown pumps every record it ACKed as admitted: none
/// may die in the admission queue. Pumping one record per sweep leaves
/// most of three 64-record batches queued when the stop arrives.
#[test]
fn shutdown_pumps_every_acked_record() {
    let data = Dataset::generate(MarketConfig::scaled(9, 0.01));
    let collector = Arc::new(collector_for(&data, 9));
    let publisher = Arc::new(SignatureServer::new());
    let config = NetConfig {
        pump_per_tick: 1,
        ..tuned_config()
    };
    let server = NetServer::spawn(collector.clone(), publisher, "127.0.0.1:0", config)
        .expect("bind loopback");
    let client = NetClient::new(server.addr());
    let mut admitted = 0;
    for batch in batches_of(&data, 3 * 64, 64, 0) {
        match client.send_batch(&batch, None).expect("upload") {
            BatchOutcome::Acked(ack) => admitted += ack.admitted,
            other => panic!("an honest batch must be acked, got {other:?}"),
        }
    }
    assert_eq!(admitted, 3 * 64);
    server.shutdown();
    let stats = collector.stats();
    assert_eq!(collector.queue_len(), 0, "{stats:?}");
    assert_eq!(stats.admitted, admitted, "{stats:?}");
    assert_eq!(
        stats.ingested, admitted,
        "ACKed records were lost: {stats:?}"
    );
}

#[test]
fn ack_reports_rate_limited_records() {
    let data = Dataset::generate(MarketConfig::scaled(9, 0.01));
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());
    let collector = Arc::new(CollectionServer::with_intake(
        check,
        PipelineConfig::default(),
        64,
        9,
        IngestConfig {
            rate: Some(RateLimit {
                burst: 4,
                per_second: 1,
            }),
            shed: Shed::Newest,
            ..IngestConfig::default()
        },
    ));
    let publisher = Arc::new(SignatureServer::new());
    let server = NetServer::spawn(collector.clone(), publisher, "127.0.0.1:0", tuned_config())
        .expect("bind loopback");

    // Twenty records toward one destination: the burst of 4 passes, the
    // flood behind it is rate-limited — and the ACK line says so.
    let packet = &data.packets[0].packet;
    let records: Vec<BatchRecord> = (0..20).map(|_| BatchRecord::from_packet(packet)).collect();
    let client = NetClient::new(server.addr());
    let outcome = client.send_batch(&records, None).expect("send");
    let BatchOutcome::Acked(ack) = outcome else {
        panic!("expected ack, got {outcome:?}");
    };
    assert_eq!(ack.admitted, 4, "{ack:?}");
    assert_eq!(ack.rate_limited, 16, "{ack:?}");
    server.shutdown();
}

#[test]
fn tcp_transport_drives_the_retrying_sync_client() {
    let data = Dataset::generate(MarketConfig::scaled(9, 0.02));
    let collector = Arc::new(collector_for(&data, 9));
    let publisher = Arc::new(SignatureServer::new());
    let server = NetServer::spawn(
        collector.clone(),
        publisher.clone(),
        "127.0.0.1:0",
        tuned_config(),
    )
    .expect("bind loopback");

    // Nothing published yet: the device confirms it is current.
    let store = SignatureStore::new();
    let mut sync = SyncClient::with_default_policy(TcpTransport::new(server.addr()));
    let report = sync.sync(&store);
    assert!(report.converged(), "{report:?}");
    assert_eq!(store.version(), 0);

    // Publish from real uploaded traffic, then sync over real TCP.
    let client = NetClient::new(server.addr());
    for batch in batches_of(&data, data.packets.len(), 64, 0) {
        let outcome = client.send_batch(&batch, None).expect("send");
        assert!(matches!(outcome, BatchOutcome::Acked(_)), "{outcome:?}");
    }
    let outcome = collector.regenerate(150, &publisher);
    assert!(
        matches!(
            outcome,
            leaksig::device::RegenerateOutcome::Published { .. }
        ),
        "{outcome:?}"
    );
    let report = sync.sync(&store);
    assert!(report.converged(), "{report:?}");
    assert_eq!(store.version(), 1);
    assert!(store.signature_count() >= 1);

    // Kill the server: the retry loop must exhaust against the dead
    // address and surface RetryExhausted under its overall deadline.
    let addr = server.addr();
    server.shutdown();
    let mut dead = SyncClient::new(
        TcpTransport::new(addr),
        RetryPolicy {
            max_attempts: 50,
            overall_deadline_ms: 2_000,
            ..RetryPolicy::default()
        },
    );
    let report = dead.sync(&store);
    assert!(
        matches!(report.outcome, SyncOutcome::RetryExhausted { .. }),
        "{report:?}"
    );
    assert!(!report.converged());
    assert_eq!(store.version(), 1, "the installed set survives");
}
