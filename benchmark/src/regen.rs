//! `regen`: `CollectionServer::regenerate(2000)` over a reservoir of 2000
//! distinct suspicious packets, up to the published generation.

use crate::calib::Calib;
use crate::ingest::serve_intake;
use crate::inputs::Market;
use crate::report::{ms, peak_rss_mb, us, Outcome, Sample};
use crate::trace::Trace;
use crate::{judge, repeated_setup, Run};
use leaksig_compress::Lzss;
use leaksig_core::prelude::*;
use leaksig_device::{CollectionServer, SignatureServer, SignatureStore};
use leaksig_http::HttpPacket;
use leaksig_netsim::SensitiveKind;
use std::time::{Duration, Instant};

/// Reservoir capacity and regeneration size.
const N: usize = 2000;
/// Normal packets ingested: they fill the collector's normal ring, the
/// benign sample a pass validates candidates against.
const NORMAL: usize = 2048;
const COLLECTOR_SEED: u64 = 42;
const MIN_PASSES: usize = 3;
/// Traced run: the share of a pass that may go unattributed to a timed
/// layer before the run fails.
const MAX_UNATTRIBUTED: f64 = 0.10;

struct Rig {
    market: Market,
    collector: CollectionServer<SensitiveKind>,
    publisher: SignatureServer,
    sample: Vec<HttpPacket>,
    normal: Vec<HttpPacket>,
}

fn setup(run: &Run) -> Result<Rig, String> {
    let market = Market::generate(run.seed);
    let sample: Vec<HttpPacket> = market
        .distinct_suspicious(N)
        .ok_or_else(|| {
            format!("the training half holds fewer than {N} distinct suspicious packets")
        })?
        .into_iter()
        .map(|p| p.packet.clone())
        .collect();
    let normal: Vec<HttpPacket> = market
        .normal(NORMAL)
        .into_iter()
        .map(|p| p.packet.clone())
        .collect();
    let collector = CollectionServer::with_intake(
        market.check(),
        PipelineConfig::default(),
        N,
        COLLECTOR_SEED,
        serve_intake(),
    );
    for p in &normal {
        collector.ingest(p);
    }
    for p in &sample {
        collector.ingest(p);
    }
    if collector.reservoir_len() != N {
        return Err(format!(
            "reservoir holds {} packets, not {N}",
            collector.reservoir_len()
        ));
    }
    Ok(Rig {
        market,
        collector,
        publisher: SignatureServer::new(),
        sample,
        normal,
    })
}

/// One timed `regenerate` call, which must publish; returns its wall time
/// and the host slowdown the two-thread probe measured around it (see
/// `calib`).
fn pass(rig: &Rig, calib: &Calib, out: &mut Outcome) -> (Duration, f64) {
    let (outcome, secs, slowdown) = calib.around(Calib::slowdown_pair, || {
        rig.collector.regenerate(N, &rig.publisher)
    });
    let elapsed = (Duration::from_secs_f64(secs), slowdown);
    out.attempted += 1;
    if outcome.published().is_none() {
        out.failed += 1;
        out.check(false, || {
            format!("regeneration did not publish: {outcome:?}")
        });
    }
    elapsed
}

/// Per-stage milliseconds of the traced passes.
#[derive(Default)]
struct Stages {
    features: Vec<f64>,
    matrix: Vec<f64>,
    cluster: Vec<f64>,
    signatures: Vec<f64>,
    prune: Vec<f64>,
    publish: Vec<f64>,
    residual: Vec<f64>,
    total: Vec<f64>,
    published: Vec<f64>,
}

/// A traced pass: `regenerate` timed by the bench, its stage times from
/// the pass's `StageTimings`, and `SignatureServer::publish` timed by
/// replaying the published set onto a second server that follows the same
/// generations. Stage spans are laid end to end after the untimed sample
/// step, so the root span's self time is the unattributed remainder.
fn traced_pass(
    rig: &Rig,
    calib: &Calib,
    replay: &SignatureServer,
    id: u64,
    trace: &mut Trace,
    st: &mut Stages,
    out: &mut Outcome,
) {
    let _ = take_last_timings();
    let start = Instant::now();
    let (total, slowdown) = pass(rig, calib, out);
    let timings = take_last_timings().unwrap_or_default();
    let Some((_, text)) = rig.publisher.fetch(0) else {
        return;
    };
    let set = match decode(&text) {
        Ok(set) => set,
        Err(e) => {
            out.check(false, || {
                format!("published wire text does not decode: {e}")
            });
            return;
        }
    };
    let p0 = Instant::now();
    let replayed = replay.publish(&set);
    let publish = p0.elapsed();
    out.check(replayed.is_ok(), || {
        format!("replayed publish refused: {replayed:?}")
    });

    let end = start + total;
    let stages = [
        ("distance.features", timings.features_ms),
        ("matrix.pairwise", timings.matrix_ms),
        ("cluster.agglomerate", timings.cluster_ms),
        ("signature.extract", timings.signatures_ms),
        ("pipeline.prune", timings.prune_ms),
        ("store.publish", ms(publish)),
    ];
    let attributed: f64 = stages.iter().map(|(_, v)| v).sum();
    let residual = (ms(total) - attributed).max(0.0);
    let root = trace.record("regen.regenerate", id, None, start, end);
    let mut at = start + Duration::from_secs_f64(residual / 1e3);
    for (name, stage_ms) in stages {
        let next = at + Duration::from_secs_f64(stage_ms / 1e3);
        trace.record(name, id, root, at, next.min(end));
        at = next;
    }
    // Reported at the host's nominal speed, like the end-to-end passes.
    st.features.push(timings.features_ms / slowdown);
    st.matrix.push(timings.matrix_ms / slowdown);
    st.cluster.push(timings.cluster_ms / slowdown);
    st.signatures.push(timings.signatures_ms / slowdown);
    st.prune.push(timings.prune_ms / slowdown);
    st.publish.push(ms(publish) / slowdown);
    st.residual.push(residual / slowdown);
    st.total.push(ms(total) / slowdown);
    st.published.push(set.len() as f64);
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let origin = Instant::now();
    let (rig, setup_s) = repeated_setup(|_| setup(run), drop)?;
    println!(
        "regen: reservoir of {N} distinct suspicious packets, {} normal packets in the \
         validation ring; in-process, no sockets or disk",
        rig.normal.len()
    );

    // Warm-up pass (allocator, page cache), not timed.
    let calib = Calib::new();
    pass(&rig, &calib, out);
    let window = Duration::from_secs_f64(run.seconds);
    let mut plain: Vec<f64> = Vec::new();
    let mut trace = Trace::new(origin);
    let mut stages = Stages::default();
    if run.traced {
        let replay = SignatureServer::new();
        let t = Instant::now();
        while t.elapsed() < window / 2 || plain.len() < 2 {
            let (time, slowdown) = pass(&rig, &calib, out);
            plain.push(us(time) / slowdown);
        }
        let t = Instant::now();
        let mut id = 0;
        while t.elapsed() < window / 2 || stages.total.len() < 2 {
            traced_pass(&rig, &calib, &replay, id, &mut trace, &mut stages, out);
            id += 1;
        }
    } else {
        let t = Instant::now();
        while t.elapsed() < window || plain.len() < MIN_PASSES {
            let (time, slowdown) = pass(&rig, &calib, out);
            plain.push(us(time) / slowdown);
        }
    }

    // Output checks: the last generation installs, and its quality on the
    // held-out half stays near the paper's.
    let store = SignatureStore::new();
    match rig.publisher.fetch(0) {
        Some((version, text)) => {
            let installed = store.install(version, &text);
            out.check(installed.is_ok(), || {
                format!("published set does not install: {installed:?}")
            });
        }
        None => out.check(false, || "nothing was published".to_string()),
    }
    let (tp, fp) = judge(rig.market.held_out_labeled(), |p| {
        store.match_packet(p).is_some()
    });
    crate::check_quality(out, tp, fp, 0.85);

    let passes = Sample::new(plain);
    if !run.traced {
        println!(
            "regen: median pass {:.1} ms, slowest {:.1} ms at nominal speed ({} passes after \
             one warm-up); tp {tp:.4} fp {fp:.4}",
            passes.median() / 1e3,
            passes.max() / 1e3,
            passes.len()
        );
        out.set("items_per_s", N as f64 / (passes.median() / 1e6));
        out.set("latency_p50_us", passes.median());
        out.set("latency_tail_us", passes.max());
        out.set("tp_rate", tp);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(());
    }

    // Candidates before pruning: one direct `generate_signatures_counted`
    // over the reservoir, with the gate deferred as a pass defers it.
    let refs: Vec<&HttpPacket> = rig.sample.iter().collect();
    let config = PipelineConfig {
        deploy_gate: false,
        ..PipelineConfig::default()
    };
    let g0 = Instant::now();
    let generated = generate_signatures_counted(Lzss::default(), &refs, &config);
    trace.record(
        "pipeline.generate_candidates",
        u64::MAX,
        None,
        g0,
        Instant::now(),
    );

    let med = |v: &[f64]| Sample::new(v.to_vec()).median();
    let total = med(&stages.total);
    let residual = med(&stages.residual);
    let unattributed = residual / total;
    let candidates = generated.set.len() as f64;
    let published = med(&stages.published);
    out.set(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("quality.fp_rate", fp);
    out.set("regen.sample_ms", residual);
    out.set("distance.features_ms", med(&stages.features));
    out.set("matrix.pairwise_ms", med(&stages.matrix));
    let cells = (N * (N - 1) / 2) as f64;
    out.set("matrix.cells_per_s", cells / (med(&stages.matrix) / 1e3));
    out.set("cluster.agglomerate_ms", med(&stages.cluster));
    out.set("signature.extract_ms", med(&stages.signatures));
    out.set("pipeline.prune_ms", med(&stages.prune));
    out.set("store.publish_ms", med(&stages.publish));
    out.set("signature.candidates", candidates);
    out.set("signature.published", published);
    out.set("signature.yield", published / candidates.max(1.0));
    out.set("trace.unattributed_share", unattributed);
    out.set("trace.overhead_ratio", total / (passes.median() / 1e3));
    println!(
        "regen traced: pass {total:.1} ms; unattributed (sampling and anything no stage \
         covers) {residual:.1} ms = {:.1}%",
        100.0 * unattributed
    );
    out.check(unattributed <= MAX_UNATTRIBUTED, || {
        format!(
            "{:.1}% of a pass is unattributed (limit {:.0}%)",
            100.0 * unattributed,
            100.0 * MAX_UNATTRIBUTED
        )
    });
    trace.finish(&run.trace_path());
    Ok(())
}
