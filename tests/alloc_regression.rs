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
//! Arming and counting are per thread: the scan under test runs on the
//! test's own thread, and allocations made meanwhile by the test
//! harness's other threads must not count against its budget.

use leaksig_core::prelude::*;
use leaksig_http::{ParseLimits, RequestBuilder};
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
    // to their high-water marks (and take the owned fallback for the
    // malformed packets once).
    let warm: Vec<_> = scanner
        .scan_batch(records.iter().copied(), &limits)
        .to_vec();
    assert!(warm.iter().any(|v| v.matched.is_some()), "batch needs hits");
    assert!(warm.iter().any(|v| v.parse_failed), "batch needs rejects");
    scanner.scan_batch(records.iter().copied(), &limits);

    // Steady state: repeated batches over the same shapes must be
    // batch-amortized O(1). The budget is deliberately tiny relative to
    // the 5 × 512 packets scanned — a single per-packet allocation
    // would cost ≥ 2560 events. The malformed packets take the owned
    // fallback parse (allocating by design), so the budget covers that
    // oracle path for ~170 rejects per batch; the well-formed hot path
    // must contribute nothing.
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
    assert_eq!(hits, 5 * warm.iter().filter(|v| v.matched.is_some()).count());
    assert!(
        allocs <= budget,
        "steady-state scan_batch allocated {allocs} times over 5 batches \
         (budget {budget}); a per-packet allocation crept into the hot path"
    );

    // The stricter claim: with only well-formed packets (no owned
    // fallback), steady-state batches are allocation-free.
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
