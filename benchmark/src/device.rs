//! `device_scan`: the published generation installed on a
//! `SignatureStore`, and the held-out packets pushed through
//! `PacketGate::intercept` — engine match, policy, audit log.
//!
//! The steady state is a device whose user has answered every prompt:
//! an untimed warm-up round answers each prompt "block always", and every
//! measured round starts from a fresh gate carrying that remembered
//! policy (which also keeps the audit log from growing without bound).

use crate::calib::Calib;
use crate::ingest::serve_intake;
use crate::inputs::Market;
use crate::report::{peak_rss_mb, Outcome, Sample};
use crate::trace::Trace;
use crate::{judge, repeated_setup, Run};
use leaksig_core::prelude::*;
use leaksig_device::{
    CollectionServer, GateAction, PacketGate, SignatureServer, SignatureStore, UserChoice,
};
use leaksig_http::{HttpPacket, ParseLimits};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Regeneration size of the installed generation (the paper's N = 500).
const GEN_N: usize = 500;
const NORMAL: usize = 2048;
const COLLECTOR_SEED: u64 = 42;
/// Packets per timed chunk; per-packet latency is a chunk's time over
/// its length.
const CHUNK: usize = 64;
/// Traced rounds keep the spans of one chunk in this many.
const SPAN_EVERY: u64 = 16;
/// Repetitions of each one-off device-side call (decode, compile, install).
const REPEATS: usize = 15;

struct Rig {
    version: u64,
    text: String,
    store: SignatureStore,
    /// Held-out packets: the sending app's package name, the packet, and
    /// whether it leaks.
    held: Vec<(String, HttpPacket, bool)>,
}

/// The installed generation is regenerated from a sample of the market
/// model that does not depend on the seed, so every seed gates against
/// the same signature set; the seed decides which packets are held out
/// (those of the sample are dropped from them) and their order.
fn setup(run: &Run) -> Result<Rig, String> {
    let market = Market::generate(run.seed);
    let collector = CollectionServer::with_intake(
        market.check(),
        PipelineConfig::default(),
        GEN_N,
        COLLECTOR_SEED,
        serve_intake(),
    );
    for p in market.normal(NORMAL) {
        collector.ingest(&p.packet);
    }
    let sample = market.model_sample(GEN_N);
    let sampled: HashSet<Vec<u8>> = sample.iter().map(|p| p.packet.to_bytes()).collect();
    for p in &sample {
        collector.ingest(&p.packet);
    }
    let publisher = SignatureServer::new();
    let outcome = collector.regenerate(GEN_N, &publisher);
    if outcome.published().is_none() {
        return Err(format!(
            "the generation to install did not publish: {outcome:?}"
        ));
    }
    let (version, text) = publisher.fetch(0).ok_or("nothing published")?;
    let store = SignatureStore::new();
    store
        .install(version, &text)
        .map_err(|e| format!("published set does not install: {e:?}"))?;
    let held = market
        .held_out()
        .filter(|p| !sampled.contains(&p.packet.to_bytes()))
        .map(|p| {
            (
                market.app(p).to_string(),
                p.packet.clone(),
                p.is_sensitive(),
            )
        })
        .collect();
    Ok(Rig {
        version,
        text,
        store,
        held,
    })
}

/// Push every held-out packet through `gate` in timed chunks; returns the
/// per-packet nanoseconds of each chunk.
fn timed_round(rig: &Rig, gate: &PacketGate<'_>) -> Vec<f64> {
    let mut per_pkt = Vec::with_capacity(rig.held.len() / CHUNK + 1);
    for chunk in rig.held.chunks(CHUNK) {
        let t = Instant::now();
        for (app, packet, _) in chunk {
            black_box(gate.intercept(app, packet));
        }
        per_pkt.push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
    }
    per_pkt
}

/// The traced twin of [`timed_round`]: every intercept call is timed;
/// one chunk in [`SPAN_EVERY`] keeps its spans (a chunk span and one per
/// call). Returns per-chunk `(per-packet ns, chunk ns, ns outside any
/// intercept)`.
fn traced_round(
    rig: &Rig,
    gate: &PacketGate<'_>,
    trace: &mut Trace,
    first_id: u64,
) -> Vec<(f64, f64, f64)> {
    let mut per_chunk = Vec::with_capacity(rig.held.len() / CHUNK + 1);
    let mut times = Vec::with_capacity(CHUNK);
    for (k, chunk) in rig.held.chunks(CHUNK).enumerate() {
        times.clear();
        let t = Instant::now();
        for (app, packet, _) in chunk {
            let a = Instant::now();
            black_box(gate.intercept(app, packet));
            times.push((a, Instant::now()));
        }
        let end = Instant::now();
        let chunk_ns = (end - t).as_nanos() as f64;
        let inside: f64 = times.iter().map(|&(a, b)| (b - a).as_nanos() as f64).sum();
        per_chunk.push((chunk_ns / chunk.len() as f64, chunk_ns, chunk_ns - inside));
        let id = first_id + k as u64;
        if id.is_multiple_of(SPAN_EVERY) {
            let root = trace.record("gate.chunk", id, None, t, end);
            for &(a, b) in &times {
                trace.record("gate.intercept", id, root, a, b);
            }
        }
    }
    per_chunk
}

/// A fresh gate carrying the remembered policy.
fn gate<'a>(store: &'a SignatureStore, policy: &str) -> Result<PacketGate<'a>, String> {
    let gate = PacketGate::new(store);
    gate.import_policy(policy)
        .map_err(|e| format!("policy import failed: {e:?}"))?;
    Ok(gate)
}

/// Median over [`REPEATS`] calls of `call`, in nominal-speed ms.
fn median_ms<T>(calib: &Calib, mut call: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (_, secs, slowdown) = calib.around(Calib::slowdown, || black_box(call()));
            1e3 * secs / slowdown
        })
        .collect();
    Sample::new(times).median()
}

/// Median over three passes of `pass` (which handles `items` items), in
/// nominal-speed ns per item.
fn per_item_ns(calib: &Calib, items: usize, mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let ((), secs, slowdown) = calib.around(Calib::slowdown, &mut pass);
            1e9 * secs / slowdown / items as f64
        })
        .collect();
    Sample::new(times).median()
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let origin = Instant::now();
    let (rig, setup_s) = repeated_setup(|_| setup(run), drop)?;
    println!(
        "device_scan: {} held-out packets through PacketGate::intercept on a {}-signature \
         generation (v{}); one thread, in-process",
        rig.held.len(),
        rig.store.signature_count(),
        rig.version
    );

    // Warm-up round: the user blocks every flagged flow for good.
    let warm = PacketGate::new(&rig.store);
    for (app, packet, _) in &rig.held {
        if let GateAction::PendingPrompt { prompt_id, .. } = warm.intercept(app, packet) {
            warm.answer(prompt_id, UserChoice::BlockAlways)
                .map_err(|()| format!("prompt {prompt_id} vanished"))?;
        }
    }
    let policy = warm.export_policy();
    drop(warm);

    // Each round runs between two reference probes (see `calib`); rates
    // and latencies are reported at the host's nominal speed.
    let calib = Calib::new();
    let window = Duration::from_secs_f64(run.seconds);
    let mut plain: Vec<f64> = Vec::new();
    let mut rounds: Vec<f64> = Vec::new();
    let mut slowdowns: Vec<f64> = Vec::new();
    let mut traced: Vec<(f64, f64, f64)> = Vec::new();
    let mut traced_rounds: Vec<f64> = Vec::new();
    let mut gated = 0u64;
    let mut trace = Trace::new(origin);
    let plain_window = if run.traced { window / 2 } else { window };
    let t = Instant::now();
    while t.elapsed() < plain_window {
        let g = gate(&rig.store, &policy)?;
        let (chunks, secs, slowdown) = calib.around(Calib::slowdown, || timed_round(&rig, &g));
        rounds.push(rig.held.len() as f64 * slowdown / secs);
        plain.extend(chunks.iter().map(|ns| ns / slowdown));
        slowdowns.push(slowdown);
        gated += rig.held.len() as u64;
    }
    if run.traced {
        let t = Instant::now();
        while t.elapsed() < window / 2 {
            let g = gate(&rig.store, &policy)?;
            let first_id = traced.len() as u64;
            let (chunks, secs, slowdown) = calib.around(Calib::slowdown, || {
                traced_round(&rig, &g, &mut trace, first_id)
            });
            traced_rounds.push(rig.held.len() as f64 * slowdown / secs);
            traced.extend(chunks);
            gated += rig.held.len() as u64;
        }
    }

    // Output check: on every held-out packet the gate's verdict agrees
    // with an independently compiled detector.
    let detector = Detector::new(decode(&rig.text).map_err(|e| format!("wire text: {e}"))?);
    let g = gate(&rig.store, &policy)?;
    let mut disagree = 0u64;
    for (app, packet, _) in &rig.held {
        let expected = detector.match_packet(packet).map(|d| d.signature_id);
        let agrees = match g.intercept(app, packet) {
            GateAction::Forwarded => expected.is_none(),
            GateAction::Blocked { signature_id } => expected == Some(signature_id),
            GateAction::PendingPrompt { .. } | GateAction::DegradedBlocked { .. } => false,
        };
        disagree += !agrees as u64;
    }
    out.check(disagree == 0, || {
        format!("{disagree} gate verdicts disagree with the detector")
    });
    let labeled = rig.held.iter().map(|(_, p, leaks)| (p, *leaks));
    let (tp, fp) = judge(labeled, |p| detector.match_packet(p).is_some());
    crate::check_quality(out, tp, fp, 0.85);
    out.attempted = gated.max(1);
    out.failed = disagree;

    let per_pkt = Sample::new(plain);
    if !run.traced {
        let (tail_label, tail) = per_pkt.tail();
        let rate = Sample::new(rounds.clone()).median();
        println!(
            "device_scan: {rate:.0} pkts/s (median of {} rounds); per-packet p50 {:.0} ns, \
             {tail_label} {:.0} ns ({} chunks of {CHUNK}); host slowdown median {:.3}; \
             tp {tp:.4} fp {fp:.4}",
            rounds.len(),
            per_pkt.median(),
            tail,
            per_pkt.len(),
            Sample::new(slowdowns).median()
        );
        out.set("items_per_s", rate);
        out.set("latency_p50_us", per_pkt.median() / 1e3);
        out.set("latency_tail_us", tail / 1e3);
        out.set("tp_rate", tp);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(());
    }

    // Per-layer calls, each timed directly by the bench.
    let set = decode(&rig.text).map_err(|e| format!("wire text: {e}"))?;
    let decode_ms = median_ms(&calib, || decode(&rig.text));
    let compile_ms = median_ms(&calib, || Detector::new(set.clone()));
    let install_ms = median_ms(&calib, || {
        SignatureStore::new().install(rig.version, &rig.text)
    });

    let match_ns = per_item_ns(&calib, rig.held.len(), || {
        for (_, p, _) in &rig.held {
            black_box(rig.store.match_packet(p));
        }
    });
    let raw: Vec<(Vec<u8>, Ipv4Addr, u16)> = rig
        .held
        .iter()
        .map(|(_, p, _)| (p.to_bytes(), p.destination.ip, p.destination.port))
        .collect();
    let records: Vec<RawPacket<'_>> = raw
        .iter()
        .map(|(bytes, ip, port)| RawPacket {
            raw: bytes,
            ip: *ip,
            port: *port,
        })
        .collect();
    let limits = ParseLimits::intake();
    let mut scanner = detector.scanner();
    let mut single = Vec::new();
    let raw_ns = per_item_ns(&calib, records.len(), || {
        single.clear();
        for r in &records {
            single.push(scanner.scan_raw(r.raw, r.ip, r.port, &limits));
        }
    });
    let mut parallel = Vec::new();
    let batch_ns = per_item_ns(&calib, records.len(), || {
        parallel = detector.scan_batch(&records, &limits);
    });
    out.check(parallel == single, || {
        "scan_batch verdicts differ from scan_raw".to_string()
    });

    let plain_ns = per_pkt.mean();
    let chunk_ns: f64 = traced.iter().map(|c| c.1).sum();
    let outside: f64 = traced.iter().map(|c| c.2).sum();
    let unattributed = outside / chunk_ns.max(1.0);
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "device_scan traced: intercept {plain_ns:.0} ns/pkt = match {match_ns:.0} + policy and \
         audit {:.0}; scan_raw (one thread) {raw_ns:.0} ns/pkt vs scan_batch ({threads} threads \
         available) {batch_ns:.0} ns/pkt",
        plain_ns - match_ns
    );
    out.set(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("quality.fp_rate", fp);
    out.set("wire.decode_ms", decode_ms);
    out.set("engine.compile_ms", compile_ms);
    out.set("store.install_ms", install_ms);
    out.set("store.match_ns_per_pkt", match_ns);
    out.set("gate.overhead_ns_per_pkt", plain_ns - match_ns);
    out.set("detect.scan_raw_ns_per_pkt", raw_ns);
    out.set("detect.scan_batch_ns_per_pkt", batch_ns);
    out.set("trace.unattributed_share", unattributed);
    out.set(
        "trace.overhead_ratio",
        Sample::new(rounds).median() / Sample::new(traced_rounds).median(),
    );
    out.check(unattributed <= 0.10, || {
        format!(
            "{:.1}% of the gate loop is unattributed (limit 10%)",
            100.0 * unattributed
        )
    });
    trace.finish(&run.trace_path());
    Ok(())
}
