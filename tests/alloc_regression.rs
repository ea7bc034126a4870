//! Allocation regression gate for the zero-copy detection path.
//!
//! The tentpole promise of the borrowed-view scan is that the steady
//! state allocates O(1) per *batch*, not per packet: the parse arena,
//! the engine scratch, and the verdict buffer are all reused, so after
//! a warm-up batch the raw→verdict loop should touch the allocator only
//! for incidental growth (ideally not at all). This test pins that with
//! a counting global allocator: it runs warm-up batches through
//! [`PacketScanner::scan_batch`], then asserts that further batches stay
//! under a small constant allocation budget — far below one allocation
//! per packet, so any per-packet `String`/`Vec` sneaking back into the
//! hot path fails loudly.
//!
//! The device gate is held to the stricter bar: once every app and host
//! has been seen and the audit ring is full, a forwarded or blocked
//! packet through [`PacketGate::intercept`] allocates nothing at all, and
//! the audit log stays at its fixed capacity however long the gate runs.
//!
//! Arming and counting are per thread: the scan under test runs on the
//! test's own thread, and allocations made meanwhile by the test
//! harness's other threads must not count against its budget.

use leaksig_core::prelude::*;
use leaksig_device::{
    decode_policy, GateAction, PacketGate, SignatureStore, UserChoice, AUDIT_CAPACITY,
};
use leaksig_http::{parse_request_view, HttpPacket, ParseArena, ParseLimits, RequestBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

/// System allocator wrapper that counts allocation events (alloc,
/// realloc, alloc_zeroed — frees are not interesting here) made by a
/// thread while that thread is armed.
struct CountingAlloc;

thread_local! {
    // Const-initialised and drop-free, so reading them from inside the
    // allocator never allocates or registers a destructor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: a thread's locals are gone while it tears down, and
    // its final frees/allocations must not panic inside the allocator.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Count allocation events this thread makes during `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    let r = f();
    ARMED.with(|armed| armed.set(false));
    (ALLOCS.with(Cell::get), r)
}

fn sig_for(module: u32) -> ConjunctionSignature {
    let build = |slot: u32| {
        RequestBuilder::get(&format!("/m{module}/getad"))
            .query("udid", &format!("{:032x}", u128::from(module) * 7 + 1))
            .query("slot", &slot.to_string())
            .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad.example.net")
            .build()
    };
    let (a, b) = (build(1), build(2));
    signature_from_cluster(module, &[&a, &b], &SignatureConfig::default())
        .expect("module cluster yields a signature")
}

#[test]
fn steady_state_scan_batch_is_allocation_free_per_packet() {
    let set = SignatureSet {
        signatures: (0..8).map(sig_for).collect(),
    };
    let detector = Detector::new(set);
    let limits = ParseLimits::default();

    // A mixed batch: hits, misses, and one malformed packet, each with
    // headers and a body so the arena and scratch see realistic shapes.
    let raws: Vec<Vec<u8>> = (0..512usize)
        .map(|i| match i % 3 {
            0 => RequestBuilder::get(&format!("/m{}/getad", i % 8))
                .query("udid", &format!("{:032x}", (i as u128 % 8) * 7 + 1))
                .query("slot", "9")
                .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad.example.net")
                .build()
                .to_bytes(),
            1 => RequestBuilder::post("/api/v2/sync")
                .header("X-Request-Id", format!("req-{i}"))
                .body(format!("payload={i}&pad=aaaaaaaaaaaaaaaa").into_bytes())
                .destination(Ipv4Addr::new(198, 51, 100, 4), 8080, "sync.example.org")
                .build()
                .to_bytes(),
            _ => b"GARBAGE not-http\r\n\r\n".to_vec(),
        })
        .collect();
    let records: Vec<RawPacket<'_>> = raws
        .iter()
        .map(|raw| RawPacket {
            raw,
            ip: Ipv4Addr::new(203, 0, 113, 9),
            port: 80,
        })
        .collect();

    let mut scanner = detector.scanner();

    // Warm up: first batches grow the arena, scratch, and verdict buffer
    // to their high-water marks.
    let warm: Vec<_> = scanner
        .scan_batch(records.iter().copied(), &limits)
        .to_vec();
    assert!(warm.iter().any(|v| v.matched.is_some()), "batch needs hits");
    assert!(warm.iter().any(|v| v.parse_failed), "batch needs rejects");
    scanner.scan_batch(records.iter().copied(), &limits);

    // Steady state: repeated batches over the same shapes must be
    // batch-amortized O(1). The budget is deliberately tiny relative to
    // the 5 × 512 packets scanned — a single per-packet allocation
    // would cost ≥ 2560 events. The malformed packets are parse rejects
    // whose `ParseError` owns a copy of the bad request line (allocating
    // by design), so the budget covers ~170 rejects per batch; the
    // well-formed hot path must contribute nothing.
    let rejects = warm.iter().filter(|v| v.parse_failed).count();
    let budget = 5 * (8 * rejects as u64) + 64;
    let (allocs, hits) = count_allocs(|| {
        let mut hits = 0usize;
        for _ in 0..5 {
            let verdicts = scanner.scan_batch(records.iter().copied(), &limits);
            hits += verdicts.iter().filter(|v| v.matched.is_some()).count();
        }
        hits
    });
    assert_eq!(
        hits,
        5 * warm.iter().filter(|v| v.matched.is_some()).count()
    );
    assert!(
        allocs <= budget,
        "steady-state scan_batch allocated {allocs} times over 5 batches \
         (budget {budget}); a per-packet allocation crept into the hot path"
    );

    // The stricter claim: with only well-formed packets (no rejects),
    // steady-state batches are allocation-free.
    let clean: Vec<RawPacket<'_>> = records
        .iter()
        .copied()
        .filter(|r| !r.raw.starts_with(b"GARBAGE"))
        .collect();
    scanner.scan_batch(clean.iter().copied(), &limits);
    let (clean_allocs, _) = count_allocs(|| {
        for _ in 0..5 {
            scanner.scan_batch(clean.iter().copied(), &limits);
        }
    });
    assert_eq!(
        clean_allocs, 0,
        "well-formed steady-state batches must not allocate at all"
    );
}

/// The collection server's per-record classification, once warm: view
/// parse into a reused arena, the wire image rebuilt into a reused
/// buffer, and the payload check's automaton pass over it allocate
/// nothing at all over a well-formed batch.
#[test]
fn steady_state_intake_classification_allocates_nothing() {
    let check = PayloadCheck::new([
        ("udid", format!("{:032x}", 7u128 * 3 + 1)),
        ("carrier", "NTT DOCOMO".to_string()),
    ]);
    let raws: Vec<Vec<u8>> = (0..256usize)
        .map(|i| {
            let leak = i % 2 == 0;
            RequestBuilder::post(&format!("/m{}/report", i % 8))
                .query(
                    "udid",
                    &format!("{:032x}", if leak { 7u128 * 3 + 1 } else { i as u128 }),
                )
                .cookie(&format!("sid={i}"))
                .header("X-Request-Id", format!("req-{i}"))
                .body(
                    format!("carrier={}&n={i}", if leak { "NTT+DOCOMO" } else { "none" })
                        .into_bytes(),
                )
                .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad.example.net")
                .build()
                .to_bytes()
        })
        .collect();
    let limits = ParseLimits::intake();
    let mut arena = ParseArena::new();
    let mut wire = Vec::new();
    let classify = |arena: &mut ParseArena, wire: &mut Vec<u8>| {
        let mut suspicious = 0usize;
        for raw in &raws {
            arena.reset();
            match parse_request_view(raw, Ipv4Addr::new(203, 0, 113, 9), 80, &limits, arena) {
                Ok(view) => {
                    view.write_wire(arena, wire);
                    suspicious += usize::from(check.is_suspicious_bytes(wire));
                }
                Err(e) => panic!("well-formed record must view-parse, got {e:?}"),
            }
        }
        suspicious
    };
    assert_eq!(classify(&mut arena, &mut wire), raws.len() / 2);
    let (allocs, suspicious) = count_allocs(|| {
        (0..5)
            .map(|_| classify(&mut arena, &mut wire))
            .sum::<usize>()
    });
    assert_eq!(suspicious, 5 * raws.len() / 2);
    assert_eq!(
        allocs, 0,
        "steady-state intake classification allocated {allocs} times"
    );
}

/// Device traffic for the gate cases: per app, a leak of its ad module
/// (prompted once, then blocked by the remembered decision) and clean
/// requests to a few hosts, with cookies and bodies.
fn device_traffic() -> Vec<(String, HttpPacket)> {
    let mut out = Vec::new();
    for i in 0..48u32 {
        let app = format!("jp.co.app{}.game", i % 6);
        let packet = match i % 3 {
            0 => RequestBuilder::get(&format!("/m{}/getad", i % 8))
                .query("udid", &format!("{:032x}", u128::from(i % 8) * 7 + 1))
                .query("slot", &i.to_string())
                .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad.example.net")
                .build(),
            1 => RequestBuilder::post("/api/v2/sync")
                .cookie(&format!("sid={i:08x}"))
                .body(format!("payload={i}&pad=aaaaaaaaaaaaaaaa").into_bytes())
                .destination(Ipv4Addr::new(198, 51, 100, 4), 8080, "sync.example.org")
                .build(),
            _ => RequestBuilder::get(&format!("/img/{i}.png"))
                .destination(
                    Ipv4Addr::new(198, 51, 100, 8),
                    80,
                    &format!("cdn{}.example.jp", i % 4),
                )
                .build(),
        };
        out.push((app, packet));
    }
    out
}

fn armed_store() -> SignatureStore {
    let set = SignatureSet {
        signatures: (0..8).map(sig_for).collect(),
    };
    let store = SignatureStore::new();
    store
        .install(1, &leaksig_core::wire::encode(&set))
        .expect("set installs");
    store
}

#[test]
fn steady_state_gate_intercept_allocates_nothing() {
    let store = armed_store();
    let traffic = device_traffic();
    let gate = PacketGate::new(&store);

    // Warm-up: the user blocks every flagged flow for good, then enough
    // traffic flows to fill the audit ring.
    for (app, packet) in &traffic {
        if let GateAction::PendingPrompt { prompt_id, .. } = gate.intercept(app, packet) {
            gate.answer(prompt_id, UserChoice::BlockAlways).unwrap();
        }
    }
    while gate.audit_log().len() < AUDIT_CAPACITY {
        for (app, packet) in &traffic {
            gate.intercept(app, packet);
        }
    }
    for (app, packet) in &traffic {
        gate.intercept(app, packet);
    }

    let before = gate.stats();
    let rounds = 20;
    let (allocs, (forwarded, blocked)) = count_allocs(|| {
        let (mut forwarded, mut blocked) = (0u64, 0u64);
        for _ in 0..rounds {
            for (app, packet) in &traffic {
                match gate.intercept(app, packet) {
                    GateAction::Forwarded => forwarded += 1,
                    GateAction::Blocked { .. } => blocked += 1,
                    other => panic!("steady state must not prompt: {other:?}"),
                }
            }
        }
        (forwarded, blocked)
    });
    assert!(forwarded > 0 && blocked > 0, "the mix needs both verdicts");
    assert_eq!(forwarded + blocked, (rounds * traffic.len()) as u64);
    let after = gate.stats();
    assert_eq!(after.prompted, before.prompted);
    assert_eq!(
        after.audit_overwritten - before.audit_overwritten,
        forwarded + blocked,
        "every steady-state record overwrites one in the full ring"
    );
    assert_eq!(
        allocs,
        0,
        "steady-state PacketGate::intercept allocated {allocs} times over {} packets",
        forwarded + blocked
    );

    // The policy the gate learned answers lookups without allocating.
    let policy = decode_policy(&gate.export_policy()).unwrap();
    let (policy_allocs, _) = count_allocs(|| {
        for (app, _) in &traffic {
            for sig in 0..8 {
                std::hint::black_box(policy.decide(app, Some(sig)));
            }
        }
    });
    assert_eq!(policy_allocs, 0, "PolicyEngine::decide allocated");
}

#[test]
fn owned_detector_match_allocates_nothing_once_warm() {
    let detector = Detector::new(SignatureSet {
        signatures: (0..8).map(sig_for).collect(),
    });
    let traffic = device_traffic();
    for (_, packet) in &traffic {
        detector.match_packet(packet);
    }
    let (allocs, hits) = count_allocs(|| {
        let mut hits = 0usize;
        for _ in 0..20 {
            for (_, packet) in &traffic {
                hits += detector.match_packet(packet).is_some() as usize;
            }
        }
        hits
    });
    assert!(hits > 0, "traffic needs hits");
    assert_eq!(
        allocs, 0,
        "owned Detector::match_packet allocated {allocs} times"
    );
}

#[test]
fn audit_memory_is_bounded_by_the_ring() {
    let store = armed_store();
    let traffic = device_traffic();
    let teacher = PacketGate::new(&store);
    for (app, packet) in &traffic {
        if let GateAction::PendingPrompt { prompt_id, .. } = teacher.intercept(app, packet) {
            teacher.answer(prompt_id, UserChoice::BlockAlways).unwrap();
        }
    }
    let gate = PacketGate::new(&store);
    gate.import_policy(&teacher.export_policy()).unwrap();
    let total = 100_000usize;
    for (app, packet) in traffic.iter().cycle().take(total) {
        gate.intercept(app, packet);
    }
    let stats = gate.stats();
    assert_eq!(stats.prompted, 0);
    assert_eq!(stats.forwarded + stats.blocked, total as u64);
    let log = gate.audit_log();
    assert_eq!(log.len(), AUDIT_CAPACITY);
    assert_eq!(stats.audit_overwritten, (total - AUDIT_CAPACITY) as u64);
    assert_eq!(
        log[0].seq,
        (total - AUDIT_CAPACITY) as u64,
        "oldest kept record"
    );
    assert_eq!(
        log[AUDIT_CAPACITY - 1].seq,
        total as u64 - 1,
        "newest record"
    );
}
