//! Ingestion chaos soak: the hardened raw-bytes frontier under a seeded
//! plan of malformed-traffic faults (garbage bytes, oversize
//! declarations, header bombs, duplicate floods, slow-drip truncation),
//! followed by supervised regeneration.
//!
//! The bar, per fault kind and across the soak: the server never
//! panics, every reject lands in the quarantine ledger with a stable
//! reason tag, intake counters stay mutually consistent, supervised
//! regeneration returns within its deadline, and a post-soak regenerate
//! still publishes a signature set with recall > 0.75 on held-out
//! sensitive traffic.
//!
//! Each seed drives a fully deterministic run; the matrix defaults to
//! seeds 1..=5 (what `scripts/check.sh` runs) and can be overridden
//! with `CHAOS_SEEDS=7,11,13`.

use leaksig::core::prelude::*;
use leaksig::device::{
    CollectionServer, DefaultRunner, IngestConfig, IngestOutcome, PipelineRunner, QuarantineReason,
    RateLimit, RegenerateOutcome, RegenerationSupervisor, SignatureServer, SignatureStore,
    SupervisorConfig,
};
use leaksig::faults::{apply_ingest_fault, IngestFault, IngestFaultPlan};
use leaksig::http::{HttpPacket, RequestBuilder};
use leaksig::netsim::{Dataset, MarketConfig, SensitiveKind};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const INTENSITY: f64 = 0.3;

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(spec) => spec
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS must be u64s"))
            .collect(),
        Err(_) => (1..=5).collect(),
    }
}

fn module_packet(i: usize) -> HttpPacket {
    RequestBuilder::get("/getad")
        .query("imei", "355195000000017")
        .query("slot", &(i % 9).to_string())
        .query("n", &i.to_string())
        .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
        .build()
}

fn small_server(intake: IngestConfig) -> CollectionServer<&'static str> {
    CollectionServer::with_intake(
        PayloadCheck::new([("imei", "355195000000017")]),
        PipelineConfig::default(),
        64,
        7,
        intake,
    )
}

fn offer(srv: &CollectionServer<&'static str>, raw: &[u8]) -> IngestOutcome {
    srv.ingest_raw(raw, Ipv4Addr::new(203, 0, 113, 3), 80)
}

/// The full soak: mangled first half in through the raw frontier,
/// supervised regenerate, recall measured on the untouched second half,
/// then a second clean epoch to show the server is still healthy.
#[test]
fn ingest_chaos_soak_across_seeds() {
    for seed in seeds() {
        let data = Dataset::generate(MarketConfig::scaled(seed, 0.04));
        let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());
        let collector = CollectionServer::with_intake(
            check,
            PipelineConfig::default(),
            400,
            seed,
            IngestConfig::default(),
        );
        let publisher = SignatureServer::new();
        let store = SignatureStore::new();
        let deadline_ms = 30_000;
        let supervisor = RegenerationSupervisor::new(SupervisorConfig {
            deadline_ms,
            ..SupervisorConfig::default()
        });

        // Epoch 1: first half of the capture arrives as raw bytes, 30%
        // of the wire images mangled by the seeded fault plan.
        let half = data.packets.len() / 2;
        let mut plan = IngestFaultPlan::chaos(seed, INTENSITY);
        for p in &data.packets[..half] {
            let mut raw = p.packet.to_bytes();
            let copies = match plan.next_action() {
                Some(fault) => apply_ingest_fault(fault, &mut raw),
                None => 1,
            };
            let dst = &p.packet.destination;
            for _ in 0..copies {
                collector.ingest_raw(&raw, dst.ip, dst.port);
            }
        }
        assert!(
            plan.injected() > 0,
            "seed {seed}: the plan injected nothing"
        );

        // Counter consistency before the queue drains: every offer is
        // accounted for, rejects match the ledger total, and nothing
        // has been classified yet beyond what was admitted.
        let s = collector.stats();
        assert!(s.raw_seen > 0, "seed {seed}");
        assert!(
            s.admitted + s.rate_limited + s.quarantined + s.shed >= s.raw_seen,
            "seed {seed}: unaccounted offers: {s:?}"
        );
        assert!(
            s.parse_rejects > 0,
            "seed {seed}: mangling produced no rejects"
        );
        assert!(s.quarantined >= s.parse_rejects, "seed {seed}: {s:?}");
        assert!(!collector.quarantine_ledger().is_empty(), "seed {seed}");

        // Supervised regeneration publishes v1 within its deadline.
        let t0 = Instant::now();
        let outcome = supervisor.regenerate(&collector, 150, &publisher);
        let elapsed = t0.elapsed();
        assert!(
            matches!(outcome, RegenerateOutcome::Published { version: 1, .. }),
            "seed {seed}: {outcome:?}"
        );
        assert!(
            elapsed < Duration::from_millis(deadline_ms + 2_000),
            "seed {seed}: regenerate took {elapsed:?}"
        );
        let s = collector.stats();
        assert!(
            s.ingested <= s.admitted && s.ingested + s.shed >= s.admitted,
            "seed {seed}: classification drift: {s:?}"
        );
        assert!(
            store.sync(&publisher).expect("in-process sync"),
            "seed {seed}"
        );

        // Recall on the held-out second half — traffic the server has
        // never seen, measured against ground-truth labels.
        let (mut tp, mut fns) = (0usize, 0usize);
        for p in &data.packets[half..] {
            if p.is_sensitive() {
                if store.match_packet(&p.packet).is_some() {
                    tp += 1;
                } else {
                    fns += 1;
                }
            }
        }
        let recall = tp as f64 / (tp + fns).max(1) as f64;
        assert!(
            recall > 0.75,
            "seed {seed}: post-soak recall {recall:.3} ({tp}/{})",
            tp + fns
        );

        // Epoch 2: the held-out half arrives clean; the server is not
        // degraded by the soak and publishes v2.
        for p in &data.packets[half..] {
            collector.ingest(&p.packet);
        }
        let outcome = supervisor.regenerate(&collector, 150, &publisher);
        assert!(
            matches!(outcome, RegenerateOutcome::Published { version: 2, .. }),
            "seed {seed}: {outcome:?}"
        );
        assert!(
            store.sync(&publisher).expect("in-process sync"),
            "seed {seed}"
        );
        assert_eq!(store.version(), 2, "seed {seed}");
    }
}

#[test]
fn header_bomb_is_quarantined_with_its_own_tag() {
    let srv = small_server(IngestConfig::default());
    let mut raw = module_packet(0).to_bytes();
    apply_ingest_fault(IngestFault::HeaderBomb { headers: 1_500 }, &mut raw);
    let out = offer(&srv, &raw);
    let IngestOutcome::Quarantined(reason) = out else {
        panic!("expected quarantine, got {out:?}");
    };
    assert_eq!(reason.tag(), "header-bomb");
    assert_eq!(srv.quarantine_ledger().len(), 1);
    assert_eq!(srv.reservoir_len(), 0);
}

#[test]
fn oversize_declaration_is_rejected_up_front() {
    let srv = small_server(IngestConfig::default());
    let mut raw = module_packet(0).to_bytes();
    // Half a gigabyte is declared; the limited parser must refuse it
    // from the Content-Length header alone (nothing that size is ever
    // buffered — the wire image itself stays tiny).
    apply_ingest_fault(
        IngestFault::Oversize {
            declared: 512 * 1024 * 1024,
        },
        &mut raw,
    );
    assert!(raw.len() < 4_096, "fault must not materialize the body");
    let out = offer(&srv, &raw);
    let IngestOutcome::Quarantined(reason) = out else {
        panic!("expected quarantine, got {out:?}");
    };
    assert_eq!(reason.tag(), "body-too-large");
}

#[test]
fn garbage_bytes_fail_closed_and_deterministically() {
    for seed in 0..40u64 {
        let mut raw = module_packet(seed as usize).to_bytes();
        apply_ingest_fault(IngestFault::Garbage { seed, flips: 24 }, &mut raw);
        let a = offer(&small_server(IngestConfig::default()), &raw);
        let b = offer(&small_server(IngestConfig::default()), &raw);
        assert_eq!(a, b, "seed {seed}: same bytes, different verdict");
        if let IngestOutcome::Quarantined(reason) = &a {
            assert!(!reason.tag().is_empty());
        }
    }
}

#[test]
fn slow_drip_truncation_fails_closed_and_deterministically() {
    for keep in [0u16, 50, 300, 700, 950] {
        let mut raw = module_packet(keep as usize).to_bytes();
        apply_ingest_fault(
            IngestFault::SlowDrip {
                keep_permille: keep,
            },
            &mut raw,
        );
        let a = offer(&small_server(IngestConfig::default()), &raw);
        let b = offer(&small_server(IngestConfig::default()), &raw);
        assert_eq!(a, b, "keep={keep}: same bytes, different verdict");
        if keep < 300 {
            // Losing most of the image cannot yield a parsed packet.
            assert!(
                matches!(a, IngestOutcome::Quarantined(_)),
                "keep={keep}: got {a:?}"
            );
        }
    }
}

#[test]
fn duplicate_flood_is_absorbed_by_the_token_bucket() {
    let srv = small_server(IngestConfig {
        rate: Some(RateLimit {
            burst: 4,
            per_second: 1,
        }),
        ..IngestConfig::default()
    });
    let raw = module_packet(0).to_bytes();
    let copies = apply_ingest_fault(IngestFault::DupFlood { copies: 8 }, &mut raw.clone());
    assert_eq!(copies, 8, "dup-flood reports its delivery count");
    for _ in 0..20 {
        offer(&srv, &raw);
    }
    let s = srv.stats();
    assert_eq!(s.admitted, 4, "only the burst gets through");
    assert_eq!(s.rate_limited, 16);
    assert_eq!(s.quarantined, 0, "rate limiting is not quarantine");
}

/// The acceptance scenario for poison isolation, end to end through the
/// public API: a packet that makes the clustering path panic is planted
/// in the reservoir; the supervisor must bisect it out, quarantine it,
/// and then publish from the cleaned reservoir — and raw re-ingests of
/// the same packet must be refused at admission.
#[test]
fn poison_packet_is_bisected_quarantined_and_blocked_from_reentry() {
    struct TrippingRunner;
    impl PipelineRunner for TrippingRunner {
        fn run(
            &self,
            sample: &[HttpPacket],
            normal: &[HttpPacket],
            config: &PipelineConfig,
        ) -> SignatureSet {
            assert!(
                !sample.iter().any(|p| p.request_line.path() == "/poison"),
                "clustering choked on the poison packet"
            );
            DefaultRunner.run(sample, normal, config)
        }
    }

    let srv = small_server(IngestConfig::default());
    for i in 0..24 {
        srv.ingest(&module_packet(i));
    }
    let poison = RequestBuilder::get("/poison")
        .query("imei", "355195000000017")
        .query("trip", "wire")
        .destination(Ipv4Addr::new(203, 0, 113, 66), 80, "poison.example")
        .build();
    srv.ingest(&poison);
    assert_eq!(srv.reservoir_len(), 25);

    let publisher = SignatureServer::new();
    let supervisor = RegenerationSupervisor::with_runner(
        SupervisorConfig {
            deadline_ms: 30_000,
            max_attempts: 3,
            max_probes: 16,
        },
        Arc::new(TrippingRunner),
    );
    let outcome = supervisor.regenerate(&srv, 64, &publisher);
    assert!(
        matches!(outcome, RegenerateOutcome::Published { version: 1, .. }),
        "publish after isolation, got {outcome:?}"
    );

    let ledger = srv.quarantine_ledger();
    let record = ledger.last().expect("poison recorded");
    assert_eq!(record.reason, QuarantineReason::Poison);
    assert!(record.summary.contains("/poison"));
    assert_eq!(
        srv.stats().quarantined,
        1,
        "only the poison was quarantined"
    );
    assert_eq!(srv.reservoir_len(), 24);

    let out = srv.ingest_raw(&poison.to_bytes(), Ipv4Addr::new(203, 0, 113, 66), 80);
    assert_eq!(
        out,
        IngestOutcome::Quarantined(QuarantineReason::PoisonReingest),
        "a quarantined packet must not re-enter through raw intake"
    );

    // The published set still detects the module's clean traffic.
    let store = SignatureStore::new();
    assert!(store.sync(&publisher).unwrap());
    assert!(store.match_packet(&module_packet(999)).is_some());
}
