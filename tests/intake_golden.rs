//! Golden checksums for the raw intake path.
//!
//! Three seeded record streams go through
//! [`CollectionServer::ingest_batch`]: well-formed leaks and clean
//! requests, bit-flipped and oversized wire images, request lines that
//! are not UTF-8 (leaking and not), re-ingests of a poisoned packet, and
//! bursts that drain a source's token bucket. Each stream runs under one
//! of the three shed policies. After the final `pump_all` the test pins
//! FNV-1a of `encoded_state()` together with the summed
//! [`BatchVerdicts`], so any change to parsing, admission, classification
//! or reservoir sampling shows up as a diff here.
//!
//! The constants were captured from the two-parser intake path (a view
//! parse with an owned-parser fallback for non-UTF-8 request lines) that
//! predates the single view grammar.

use leaksig::core::prelude::*;
use leaksig::device::{
    BatchVerdicts, CollectionServer, IngestConfig, QuarantineReason, RateLimit, Shed,
};
use leaksig::faults::flip_bytes;
use leaksig::http::{HttpPacket, ParseLimits, RequestBuilder};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::net::Ipv4Addr;

const IMEI: &str = "355195000000017";

/// (stream seed, shed policy, FNV-1a of the encoded state, summed
/// verdicts as admitted / rate-limited / quarantined / shed).
const GOLDEN: [(u64, Shed, u64, [u64; 4]); 3] = [
    (11, Shed::Oldest, 0x5a2e_9300_2745_68a1, [190, 137, 50, 0]),
    (12, Shed::Newest, 0x354f_47ee_4df1_710c, [75, 150, 56, 186]),
    (
        13,
        Shed::SensitiveLast,
        0xf3b3_8495_9fe7_3909,
        [146, 115, 55, 29],
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

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

fn poison() -> HttpPacket {
    leak(999_999, sources()[0])
}

fn collector(seed: u64, shed: Shed) -> CollectionServer<&'static str> {
    let server = CollectionServer::with_intake(
        PayloadCheck::new([("imei", IMEI)]),
        PipelineConfig::default(),
        8,
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
            queue_capacity: 6,
            shed,
            quarantine_capacity: 9,
        },
    );
    server.quarantine_packets(&[poison()], QuarantineReason::Poison);
    server
}

/// One random offer (or a burst of identical offers from one source).
fn records(rng: &mut StdRng, i: u64) -> Vec<(Vec<u8>, Ipv4Addr)> {
    let ip = sources()[rng.random_range(0..3u64) as usize];
    let raw = match rng.random_range(0..9u64) {
        0 | 1 => leak(i, ip).to_bytes(),
        2 | 3 => clean(i, ip).to_bytes(),
        4 => {
            let mut raw = if rng.random_bool(0.5) {
                leak(i, ip).to_bytes()
            } else {
                clean(i, ip).to_bytes()
            };
            flip_bytes(&mut raw, i, 1 + rng.random_range(0..4u64) as usize);
            raw
        }
        5 => {
            // Over the 64-byte body limit: declared or undeclared.
            let body = vec![b'x'; 65 + rng.random_range(0..40u64) as usize];
            if rng.random_bool(0.5) {
                RequestBuilder::post("/big")
                    .body(body)
                    .destination(ip, 80, "big.example")
                    .build()
                    .to_bytes()
            } else {
                let mut raw = b"POST /big HTTP/1.1\r\nHost: big.example\r\n\r\n".to_vec();
                raw.extend_from_slice(&body);
                raw
            }
        }
        6 => {
            // Not UTF-8 in the request line (and in the host), leaking
            // or not: the lossy-decoded packet is what gets classified.
            let query = if rng.random_bool(0.5) { IMEI } else { "0" };
            let mut raw = b"GET /\xff\xfead?imei=".to_vec();
            raw.extend_from_slice(format!("{query}&n={i} HTTP/1.1\r\n").as_bytes());
            raw.extend_from_slice(b"Host: x\xc3.example:8080\r\n\r\n");
            raw
        }
        7 => return vec![(poison().to_bytes(), sources()[0])],
        _ => {
            let raw = leak(i, ip).to_bytes();
            let n = 3 + rng.random_range(0..6u64) as usize;
            return vec![(raw, ip); n];
        }
    };
    vec![(raw, ip)]
}

fn run(seed: u64, shed: Shed) -> (u64, [u64; 4]) {
    let server = collector(seed, shed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut totals = BatchVerdicts::default();
    let mut next = 0u64;
    for _ in 0..50 {
        let mut batch = Vec::new();
        let want = rng.random_range(0..14u64) as usize;
        while batch.len() < want {
            next += 1;
            batch.extend(records(&mut rng, next));
        }
        let got = server.ingest_batch(batch.iter().map(|(raw, ip)| RawPacket {
            raw,
            ip: *ip,
            port: 80,
        }));
        totals.admitted += got.admitted;
        totals.rate_limited += got.rate_limited;
        totals.quarantined += got.quarantined;
        totals.shed += got.shed;
        if rng.random_bool(0.5) {
            server.pump(rng.random_range(0..6u64) as usize);
        }
    }
    server.pump_all();
    (
        fnv1a(&server.encoded_state()),
        [
            totals.admitted,
            totals.rate_limited,
            totals.quarantined,
            totals.shed,
        ],
    )
}

#[test]
fn intake_state_and_verdicts_match_golden_checksums() {
    let got: Vec<(u64, Shed, u64, [u64; 4])> = GOLDEN
        .iter()
        .map(|&(seed, shed, _, _)| {
            let (state, verdicts) = run(seed, shed);
            (seed, shed, state, verdicts)
        })
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#x?}");
}
