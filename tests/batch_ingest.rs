//! Differential test of the batch intake path: `ingest_batch` must be
//! indistinguishable from offering the same records one by one through
//! `ingest_raw`.
//!
//! Two collectors with the same seed and intake configuration see the
//! same random record stream, one as batches and one record by record.
//! The stream mixes well-formed leaks and clean requests, bit-flipped
//! and oversized wire images, request lines that are not UTF-8
//! (classified as their lossy-decoded packet), re-ingests of a poisoned
//! packet, and bursts from one source that drain its token bucket; a
//! small admission queue overflows under each of the three shed
//! policies. After every batch the verdict tallies, the queue length and
//! the durable state must agree. Between batches, and for the final
//! drain, the batch side pumps several packets in one call while the
//! per-record side pumps them one at a time, so the queue order and the
//! one-slice pump are checked too. The quarantine ledger is compared at
//! the end.

use leaksig::core::prelude::*;
use leaksig::device::{
    BatchVerdicts, CollectionServer, IngestConfig, IngestOutcome, QuarantineReason, RateLimit, Shed,
};
use leaksig::faults::flip_bytes;
use leaksig::http::{HttpPacket, ParseLimits, RequestBuilder};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::net::Ipv4Addr;

const IMEI: &str = "355195000000017";

/// Reservoir capacity: small, so the stream both fills the reservoir and
/// samples into a full one.
const CAPACITY: usize = 8;

fn sources() -> [Ipv4Addr; 3] {
    [
        Ipv4Addr::new(203, 0, 113, 3),
        Ipv4Addr::new(198, 51, 100, 8),
        Ipv4Addr::new(192, 0, 2, 44),
    ]
}

fn leak(i: u64, ip: Ipv4Addr) -> HttpPacket {
    RequestBuilder::get("/getad")
        .query("imei", IMEI)
        .query("n", &i.to_string())
        .header("User-Agent", "Dalvik/1.4.0")
        .destination(ip, 80, "ad-maker.info")
        .build()
}

fn clean(i: u64, ip: Ipv4Addr) -> HttpPacket {
    RequestBuilder::post("/api/sync")
        .cookie(&format!("sid={i}"))
        .body(format!("seq={i}&pad=aaaaaaaa").into_bytes())
        .destination(ip, 8080, "sync.example.org")
        .build()
}

/// The packet both collectors hold a poison verdict for.
fn poison() -> HttpPacket {
    leak(999_999, sources()[0])
}

fn collector(seed: u64, shed: Shed) -> CollectionServer<&'static str> {
    let server = CollectionServer::with_intake(
        PayloadCheck::new([("imei", IMEI)]),
        PipelineConfig::default(),
        CAPACITY,
        seed,
        IngestConfig {
            limits: ParseLimits {
                max_body: 64,
                ..ParseLimits::intake()
            },
            rate: Some(RateLimit {
                burst: 4,
                per_second: 250,
            }),
            queue_capacity: 5,
            shed,
            quarantine_capacity: 7,
        },
    );
    server.quarantine_packets(&[poison()], QuarantineReason::Poison);
    server
}

/// One random offer (or a burst of identical offers from one source).
fn records(rng: &mut StdRng, next: &mut u64) -> Vec<(Vec<u8>, Ipv4Addr, u16)> {
    *next += 1;
    let i = *next;
    let ip = sources()[rng.random_range(0..3u64) as usize];
    let one = |raw: Vec<u8>| vec![(raw, ip, 80)];
    match rng.random_range(0..9u64) {
        0 | 1 => one(leak(i, ip).to_bytes()),
        2 | 3 => one(clean(i, ip).to_bytes()),
        4 => {
            let mut raw = if rng.random_bool(0.5) {
                leak(i, ip).to_bytes()
            } else {
                clean(i, ip).to_bytes()
            };
            flip_bytes(&mut raw, i, 1 + rng.random_range(0..4u64) as usize);
            one(raw)
        }
        5 => {
            // Over the 64-byte body limit: declared or undeclared.
            let body = vec![b'x'; 65 + rng.random_range(0..40u64) as usize];
            let raw = if rng.random_bool(0.5) {
                RequestBuilder::post("/big")
                    .body(body)
                    .destination(ip, 80, "big.example")
                    .build()
                    .to_bytes()
            } else {
                let mut raw = b"POST /big HTTP/1.1\r\nHost: big.example\r\n\r\n".to_vec();
                raw.extend_from_slice(&body);
                raw
            };
            one(raw)
        }
        6 => {
            // Not UTF-8 in the request line: lossy-decoded, leaking or
            // not.
            let query = if rng.random_bool(0.5) { IMEI } else { "0" };
            let mut raw = b"GET /\xff?imei=".to_vec();
            raw.extend_from_slice(
                format!("{query}&n={i} HTTP/1.1\r\nHost: x.example\r\n\r\n").as_bytes(),
            );
            one(raw)
        }
        7 => vec![(poison().to_bytes(), sources()[0], 80)],
        _ => {
            // A burst from one source: past the bucket's 4-token burst.
            let raw = leak(i, ip).to_bytes();
            let n = 3 + rng.random_range(0..6u64) as usize;
            vec![(raw, ip, 80); n]
        }
    }
}

fn tally(outcomes: impl IntoIterator<Item = IngestOutcome>) -> BatchVerdicts {
    let mut v = BatchVerdicts::default();
    for o in outcomes {
        match o {
            IngestOutcome::Admitted { .. } => v.admitted += 1,
            IngestOutcome::RateLimited => v.rate_limited += 1,
            IngestOutcome::Quarantined(_) => v.quarantined += 1,
            IngestOutcome::Shed => v.shed += 1,
        }
    }
    v
}

#[test]
fn ingest_batch_matches_per_record_ingest_raw() {
    for shed in [Shed::Oldest, Shed::Newest, Shed::SensitiveLast] {
        for seed in 1..=6u64 {
            let ctx = format!("{} seed {seed}", shed.label());
            let batched = collector(seed, shed);
            let single = collector(seed, shed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut next = 0u64;
            let mut totals = BatchVerdicts::default();
            for round in 0..60 {
                let mut batch = Vec::new();
                let want = rng.random_range(0..14u64) as usize;
                while batch.len() < want {
                    batch.extend(records(&mut rng, &mut next));
                }
                let got = batched.ingest_batch(batch.iter().map(|(raw, ip, port)| RawPacket {
                    raw,
                    ip: *ip,
                    port: *port,
                }));
                let want = tally(
                    batch
                        .iter()
                        .map(|(raw, ip, port)| single.ingest_raw(raw, *ip, *port)),
                );
                assert_eq!(got, want, "{ctx} round {round}: verdict tallies");
                assert_eq!(
                    batched.queue_len(),
                    single.queue_len(),
                    "{ctx} round {round}: queue length"
                );
                assert_eq!(
                    batched.encoded_state(),
                    single.encoded_state(),
                    "{ctx} round {round}: durable state"
                );
                totals.admitted += got.admitted;
                totals.rate_limited += got.rate_limited;
                totals.quarantined += got.quarantined;
                totals.shed += got.shed;
                if rng.random_bool(0.5) {
                    // One slice on the batch side, one packet per pump on
                    // the other: the reservoir fills and samples alike.
                    let k = rng.random_range(0..6u64) as usize;
                    let one_by_one: usize = (0..k).map(|_| single.pump(1)).sum();
                    assert_eq!(batched.pump(k), one_by_one, "{ctx} round {round}");
                    assert_eq!(
                        batched.encoded_state(),
                        single.encoded_state(),
                        "{ctx} round {round}: state after a partial pump"
                    );
                }
            }
            // The mix must actually reach every verdict.
            assert!(
                totals.admitted > 0
                    && totals.rate_limited > 0
                    && totals.quarantined > 0
                    && (totals.shed > 0 || batched.stats().shed > 0),
                "{ctx}: the stream missed a verdict: {totals:?}"
            );

            // Drain: one slice on the batch side, one packet per pump on
            // the per-record side. Identical states require the same
            // queue order and the same sampling draws.
            let queued = batched.pump_all();
            let mut drained = 0;
            while single.pump(1) == 1 {
                drained += 1;
            }
            assert_eq!(queued, drained, "{ctx}: queue length at drain");
            assert_eq!(
                batched.encoded_state(),
                single.encoded_state(),
                "{ctx}: durable state after the drain"
            );
            assert_eq!(batched.stats(), single.stats(), "{ctx}");
            assert_eq!(
                batched.quarantine_ledger(),
                single.quarantine_ledger(),
                "{ctx}: quarantine ledger"
            );
            let stats = batched.stats();
            assert!(
                stats.suspicious > 2 * CAPACITY as u64,
                "{ctx}: reservoir draws barely ran: {stats:?}"
            );
        }
    }
}
