//! Timing ratio gates on two fast paths, each against its slower
//! counterpart on the same input:
//!
//! * raw bytes to verdict: `PacketScanner::scan_batch` (view parse and
//!   borrowed scan) must beat `parse_request_limited` plus the owned
//!   `CompiledDetector::match_first` by at least 1.5×;
//! * durable ingest: `ingest_raw` + `pump_all` into a `WalStore` on
//!   `RealDisk`, WAL flushed, must cost at most 2× the same intake into
//!   the in-memory store.
//!
//! Each side is timed with `Instant` as the minimum of [`SAMPLES`] runs
//! after one untimed warm-up, the two sides' runs interleaved, so a slow
//! spell on a shared host lands on both and the fastest run of each
//! still shows what the code costs. Both gates are `#[ignore]`d, because a
//! debug build or a loaded host says nothing about either ratio;
//! `scripts/check.sh` runs them in release, one at a time:
//!
//! ```text
//! cargo test --release -p leaksig-bench --test ratio_gates -- --ignored --test-threads 1 --nocapture
//! ```

use leaksig_core::payload::PayloadCheck;
use leaksig_core::prelude::*;
use leaksig_device::{CollectionServer, IngestConfig, WalConfig, WalStore};
use leaksig_faults::RealDisk;
use leaksig_http::{parse_request_limited, HttpPacket, ParseLimits, RequestBuilder};
use leaksig_netsim::{Dataset, MarketConfig, SensitiveKind};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed runs per side.
const SAMPLES: usize = 15;

/// Packets scanned per run of the detection gate.
const PACKETS: usize = 200;
/// Signatures installed for the detection gate.
const SIGNATURES: usize = 8;
/// Wire images ingested per run of the ingest gate.
const RECORDS: usize = 200;

/// Runs `run` on `input`, appending its output to `outputs`; returns its
/// nanoseconds. The caller makes `input` and drops the outputs, both
/// outside the timed region.
fn timed<I, R>(input: I, run: &mut impl FnMut(I) -> R, outputs: &mut Vec<R>) -> u128 {
    let start = Instant::now();
    let out = black_box(run(input));
    let elapsed = start.elapsed().as_nanos();
    outputs.push(out);
    elapsed
}

/// Runs side `a` (`run_a` on a fresh `setup_a()`) and side `b` once each
/// untimed, then [`SAMPLES`] times each, alternating `a`, `b`, `a`, `b`,
/// ... Returns each side's minimum in nanoseconds and every one of its
/// runs' outputs, warm-up first.
fn min_ns_interleaved<IA, RA, IB, RB>(
    mut setup_a: impl FnMut() -> IA,
    mut run_a: impl FnMut(IA) -> RA,
    mut setup_b: impl FnMut() -> IB,
    mut run_b: impl FnMut(IB) -> RB,
) -> ((u128, Vec<RA>), (u128, Vec<RB>)) {
    let (mut outputs_a, mut outputs_b) = (Vec::new(), Vec::new());
    timed(setup_a(), &mut run_a, &mut outputs_a);
    timed(setup_b(), &mut run_b, &mut outputs_b);
    let (mut min_a, mut min_b) = (u128::MAX, u128::MAX);
    for _ in 0..SAMPLES {
        min_a = min_a.min(timed(setup_a(), &mut run_a, &mut outputs_a));
        min_b = min_b.min(timed(setup_b(), &mut run_b, &mut outputs_b));
    }
    ((min_a, outputs_a), (min_b, outputs_b))
}

/// One leaking ad module: near-duplicate requests with a module-specific
/// identifier, host and path; each module yields one conjunction
/// signature.
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

#[test]
#[ignore = "timing gate: run in release with --ignored (scripts/check.sh)"]
fn zero_copy_parse_scan_beats_owned_by_1_5x() {
    let detector = Detector::new(signature_set(SIGNATURES));
    let packets = traffic(PACKETS, SIGNATURES);
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
    let engine = detector.engine();
    let mut scratch = engine.scratch();
    let mut scanner = detector.scanner();

    // The two paths must agree, and hit, before they are worth timing.
    let owned: Vec<bool> = records
        .iter()
        .map(|r| {
            let packet = parse_request_limited(r.raw, r.ip, r.port, &limits)
                .expect("builder wire images must parse");
            engine.match_first(&mut scratch, &packet).is_some()
        })
        .collect();
    let zero_copy: Vec<bool> = scanner
        .scan_batch(records.iter().copied(), &limits)
        .iter()
        .map(|v| {
            assert!(!v.parse_failed, "builder wire images must parse");
            v.matched.is_some()
        })
        .collect();
    assert_eq!(owned, zero_copy, "owned and zero-copy verdicts disagree");
    let hits = owned.iter().filter(|&&m| m).count();
    assert!(hits > 0, "no hits: the gate would time rejects only");

    let ((owned_ns, owned_hits), (zero_copy_ns, zero_copy_hits)) = min_ns_interleaved(
        || (),
        |()| {
            let mut hits = 0usize;
            for r in &records {
                let packet = parse_request_limited(r.raw, r.ip, r.port, &limits)
                    .expect("builder wire images must parse");
                if engine.match_first(&mut scratch, &packet).is_some() {
                    hits += 1;
                }
            }
            hits
        },
        || (),
        |()| {
            let verdicts = scanner.scan_batch(records.iter().copied(), &limits);
            verdicts.iter().filter(|v| v.matched.is_some()).count()
        },
    );
    assert!(
        owned_hits.iter().chain(&zero_copy_hits).all(|&h| h == hits),
        "a timed run's hit count differs from the precheck's {hits}"
    );

    println!(
        "raw bytes to verdict, {SIGNATURES} signatures x {PACKETS} packets: \
         owned {owned_ns} ns, zero-copy {zero_copy_ns} ns (minimum of {SAMPLES})"
    );
    // owned >= 1.5 x zero-copy, in integers.
    assert!(
        2 * owned_ns >= 3 * zero_copy_ns,
        "zero-copy parse + scan is not 1.5x the owned path: \
         owned {owned_ns} ns vs zero-copy {zero_copy_ns} ns"
    );
}

/// Market traffic serialized to wire images, each tagged with its
/// capture destination.
fn wire_images(n: usize) -> Vec<(Vec<u8>, Ipv4Addr, u16)> {
    let market = Dataset::generate(MarketConfig::scaled(77, 0.02));
    market
        .packets
        .iter()
        .cycle()
        .take(n)
        .map(|p| {
            let raw = p.packet.to_bytes();
            (raw, p.packet.destination.ip, p.packet.destination.port)
        })
        .collect()
}

/// The payload check and intake settings both collectors share.
fn intake(queue_capacity: usize) -> (PayloadCheck<SensitiveKind>, IngestConfig) {
    let market = Dataset::generate(MarketConfig::scaled(77, 0.02));
    let check = PayloadCheck::new(market.model.device.all_values());
    let config = IngestConfig {
        queue_capacity,
        ..IngestConfig::default()
    };
    (check, config)
}

/// A collector over the in-memory store.
fn server(queue_capacity: usize) -> CollectionServer<SensitiveKind> {
    let (check, config) = intake(queue_capacity);
    CollectionServer::with_intake(check, PipelineConfig::default(), 400, 77, config)
}

/// The same collector over a `WalStore` on a fresh state directory, so
/// no run pays for recovering another's journal.
fn durable_server(queue_capacity: usize, dir: &Path) -> CollectionServer<SensitiveKind> {
    let (store, _) = WalStore::open(dir, Box::new(RealDisk), WalConfig::default())
        .expect("open the gate's state directory");
    let (check, config) = intake(queue_capacity);
    CollectionServer::with_store(
        check,
        PipelineConfig::default(),
        400,
        77,
        config,
        Box::new(store),
    )
}

/// A temporary directory, removed when dropped (a failed gate included).
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
#[ignore = "timing gate: run in release with --ignored (scripts/check.sh)"]
fn durable_ingest_costs_at_most_2x_memory() {
    let images = wire_images(RECORDS);
    let ingest = |srv: &CollectionServer<SensitiveKind>| {
        for (raw, ip, port) in &images {
            srv.ingest_raw(raw, *ip, *port);
        }
        srv.pump_all();
    };

    // Declared before the durable servers, so it is dropped after them.
    let root =
        TempDir(std::env::temp_dir().join(format!("leaksig-ratio-gates-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&root.0);
    let mut runs = 0usize;
    let ((memory_ns, memory_servers), (durable_ns, durable_servers)) = min_ns_interleaved(
        || server(RECORDS + 1),
        |srv| {
            ingest(&srv);
            srv
        },
        || {
            runs += 1;
            durable_server(RECORDS + 1, &root.0.join(format!("wal-{runs}")))
        },
        |srv| {
            ingest(&srv);
            srv.flush_state();
            srv
        },
    );

    for srv in memory_servers.iter().chain(&durable_servers) {
        assert_eq!(srv.stats().raw_seen, RECORDS as u64);
    }

    println!(
        "durable ingest, {RECORDS} clean records: memory {memory_ns} ns, \
         durable {durable_ns} ns (minimum of {SAMPLES})"
    );
    assert!(
        durable_ns <= 2 * memory_ns,
        "durable ingest is not within 2x memory ingest: \
         memory {memory_ns} ns vs durable {durable_ns} ns"
    );
}
