//! The repository benchmark: four workloads, each measured in its steady
//! state through the public API of the leaksig crates, with output checks
//! that fail the run and a traced mode that breaks the time down by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <ingest_mem|ingest_wal|regen|device_scan> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (name → value and unit): every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. The lines above it give each metric with its sample
//! count. A failed output check prints `CHECK FAILED: …`, reports
//! `"correct": false` and exits 1. The seed alone decides the inputs
//! (see [`inputs`]), and all of them exist before timing starts. Set-up
//! runs five times; `setup_s` is the median. State directories live in
//! `.bench_tmp/` and are removed at exit; traced runs write their spans to
//! `.bench_out/`.
//!
//! # Workloads
//!
//! All network traffic stays on the loopback interface. `BENCHMARK.json`
//! names `ingest_wal`, `regen` and `device_scan`; `ingest_mem` runs the
//! same way but is left out there, because its throughput spread 15–19%
//! between runs (see the readings below).
//!
//! * `ingest_mem`: a closed loop with one client thread and two
//!   persistent TCP connections to a `NetServer` on 127.0.0.1. Each
//!   connection keeps one 64-record `LEAKBATCH/1` batch in flight and
//!   sends the next only after its ACK, as a device uploader does. The
//!   traffic is the training half of the market, cycled, with one image
//!   in 20 mangled in its request line. The collector is configured as
//!   `leaksig serve` configures it: `IngestConfig` with a 256-burst,
//!   10k/s per-source bucket and `Shed::Newest`, reservoir 400,
//!   `NetConfig::default()`. State is kept in `MemoryStore`. A 2 s
//!   warm-up is not measured. *Why:* the frontier's per-record path
//!   (sweep loop → batch decode → limited parse → classify → admission →
//!   pump) does almost all the work, and state writes are nearly free.
//! * `ingest_wal`: the same client, traffic and configuration, with the
//!   collector on a `WalStore` (`WalConfig::default()`, `RealDisk`) in a
//!   fresh directory. *Why:* it runs the same layers plus the write path
//!   (group-commit append, fsync, compaction). A state or WAL change shows
//!   here and not on `ingest_mem`; an ingest change that writes more WAL
//!   records shows here as a loss.
//! * `regen`: in process. The reservoir holds 2000 distinct suspicious
//!   packets from the training half (and the normal ring 2048 normal
//!   ones); each pass is `CollectionServer::regenerate(2000)` up to the
//!   published generation, after one unmeasured warm-up pass. *Why:*
//!   CPU-bound clustering with no socket or WAL work, which every ingest
//!   change skips; its TP rate on the held-out half pins the paper's
//!   result against a fast but wrong change.
//! * `device_scan`: in process, one thread. A generation regenerated at
//!   the paper's N = 500 from a seed-independent sample is installed on a
//!   `SignatureStore` (set-up). Every held-out packet then goes through
//!   `PacketGate::intercept` in rounds; each round starts from a fresh
//!   gate that carries the policy an unmeasured warm-up round taught it
//!   (every prompt answered "block always"). *Why:* the device-side hot
//!   path (engine match, policy, audit log), which no other workload
//!   exercises.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Every workload reports every metric, so each needs a meaning per
//! workload. The names in parentheses are the per-workload metrics these
//! stand for.
//!
//! | metric | unit | better | `ingest_*` | `regen` | `device_scan` |
//! |---|---|---|---|---|---|
//! | `items_per_s` | 1/s | higher | records ACKed per second, median of 1 s slices (`ingest_rec_per_s`) | reservoir packets over the median pass time | packets gated per second, median of rounds (`gate_pkts_per_s`) |
//! | `latency_p50_us` | us | lower | ACK latency from batch write to ACK line read, median (`ack_p50_us`) | median pass (`regen_s`) | per-packet intercept time over 64-packet chunks, median |
//! | `latency_tail_us` | us | lower | ACK latency p90 (`ack_p90_us`) | slowest pass | per-packet p90 over chunks |
//! | `tp_rate` | share | higher | TP on the held-out half of a regeneration over the whole reservoir after the run | TP of the last generation (`regen_tp_rate`) | share of leaking held-out packets the gate blocks |
//! | `setup_s` | s | lower | market, batch encoding, collector, listener, connects | market, reservoir fill | market, generation, install |
//! | `peak_rss_mb` | MB | lower | peak resident set of the process | same | same |
//!
//! Tails are p90, not p99: on the shared two-vCPU host the p99 of ACK
//! latency spread by 25–50% between runs, far past any usable bound.
//! A timing that reads 0 would make a bound meaningless, so the
//! zero-valued quantities live elsewhere: the failed-operation ratio is
//! `failed / attempted` in the result line (a failure is an un-ACKed
//! batch, a shed or rate-limited record, a regeneration that did not
//! publish, or a gate verdict the check disputes), and the FP rate is the
//! per-layer `quality.fp_rate`. Both quality rates are also checked:
//! the run fails when TP falls below 0.85 (0.75 for the ingest
//! workloads' N = 400) or FP rises above 0.10.
//!
//! On the shared host the same code runs up to a third faster or slower
//! from one second to the next, and slow regimes last minutes. So
//! `device_scan` rounds, `regen` passes and every set-up are scaled to
//! the host's nominal speed by a reference probe run around them (see
//! [`calib`]); ingest reports raw medians, because no probe tracked its
//! two threads and loopback stack, and a probe would stall its closed
//! loop.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The arrow names the end-to-end metric and workload a layer should
//! move; every other workload should see no change. Layers a workload
//! does not exercise read 0.
//!
//! * `fail_ratio` (share, lower) and `quality.fp_rate` (share, lower) →
//!   `tp_rate` and the quality checks, on every workload.
//! * net: `net.loop_us_per_batch` (us, lower) is a **residual**: the
//!   listener's wall time per batch in the untraced half (64 records over
//!   the median throughput) minus the replayed decode, `ingest_raw` and
//!   pump time per batch. It covers the sweep loop, socket calls, the
//!   1 ms idle sleep and the client → `latency_p50_us` and `items_per_s`
//!   on `ingest_mem`. `net.decode_us_per_batch` (us, lower;
//!   `decode_batch_partial_ref` replayed) → `items_per_s` on `ingest_*`.
//!   `net.bytes_in_per_rec` (B) and `net.terminal_failures` (count,
//!   lower; `NetStats` closes other than clean) → `fail_ratio`.
//! * gen: `gen.encode_us_per_batch` and `gen.write_us_per_batch` (us):
//!   the load generator's own cost; flat when the generator is not the
//!   bottleneck.
//! * http: `http.parse_ns_per_rec` (ns, lower; `parse_request_limited`)
//!   and `http.reject_share` (share) → `items_per_s` on `ingest_mem`.
//! * payload: `payload.classify_ns_per_rec` (ns, lower;
//!   `PayloadCheck::is_suspicious`) and `payload.suspicious_share` →
//!   `items_per_s` on `ingest_mem`.
//! * server: `server.ingest_raw_ns_per_rec` and `server.pump_ns_per_rec`
//!   (ns, lower) → `items_per_s` on both `ingest_*`;
//!   `server.queue_len_max` (count, sampled between batches) →
//!   `latency_tail_us` on `ingest_*`.
//! * state (the timing `StateStore` in the live run):
//!   `state.apply_calls_per_rec`, `state.ops_per_rec` (count, lower) and
//!   `state.apply_ns_per_call` (ns, lower) → `items_per_s` on
//!   `ingest_wal`; small on `ingest_mem`.
//! * wal (the timing `DiskIo` in the live run):
//!   `wal.append_calls_per_1k_rec` (count), `wal.append_bytes_per_rec`
//!   (B) and `wal.append_us_total` (us) → `items_per_s` on `ingest_wal`;
//!   `wal.sync_calls` (count), `wal.sync_us_total` (us) and
//!   `wal.compactions` (count) → `latency_tail_us` on `ingest_wal`. All
//!   zero on `ingest_mem`.
//! * regeneration, all → `latency_p50_us` on `regen`, and none should
//!   move `tp_rate`: `regen.sample_ms` (the pass minus its stages and the
//!   publish: a residual), `distance.features_ms`, `matrix.pairwise_ms`,
//!   `matrix.cells_per_s` (higher), `cluster.agglomerate_ms`,
//!   `signature.extract_ms`, `pipeline.prune_ms`
//!   (`prune_against_normal` + `drop_dominated` + `analyze::drop_dead`),
//!   `store.publish_ms` (`SignatureServer::publish` with its deploy gate,
//!   replayed), `signature.candidates`, `signature.published` and
//!   `signature.yield` (published ÷ candidates). Stage times come from
//!   the pass's own `StageTimings`.
//! * device: `wire.decode_ms`, `engine.compile_ms` and
//!   `store.install_ms` (ms, lower) → set-up on `device_scan`;
//!   `store.match_ns_per_pkt` (`SignatureStore::match_packet`) and
//!   `gate.overhead_ns_per_pkt` (intercept minus match: policy and audit
//!   log) → `items_per_s` on `device_scan`;
//!   `detect.scan_raw_ns_per_pkt` (one-thread `PacketScanner::scan_raw`)
//!   and `detect.scan_batch_ns_per_pkt` (parallel `Detector::scan_batch`)
//!   on the same images, which move `items_per_s` only once the gate uses
//!   that path.
//! * trace: `trace.unattributed_share`, the share of end-to-end time no
//!   timed layer covers (on `ingest_*` it is the `net.loop` residual's
//!   share of the listener's time per batch), and `trace.overhead_ratio`,
//!   traced over untraced time per item in the same run.
//!
//! # Traced run
//!
//! End-to-end metrics come from untraced runs. A traced run spends the
//! first half of its window untraced (the overhead baseline) and the
//! second half recording spans at the benchmark's own call boundaries:
//! each span has a name, start, end and parent, and the spans of one
//! batch, pass or chunk share an id. On `ingest_*` the client records a
//! span per batch, the wrapped `StateStore` and `DiskIo` record the
//! server thread's disk work, and the per-record layers are timed by
//! replaying the same encoded batches through each layer's public
//! function on a second collector. The run prints each layer's self time,
//! writes the spans to `.bench_out/<workload>-seed<n>.spans.jsonl`, and
//! fails when more than a tenth of a `regen` pass or of the
//! `device_scan` gate loop is unattributed.
//!
//! # Reference readings
//!
//! On a 2-vCPU Linux VM shared with other tenants, `--seconds 20`, median
//! over seeds 1–10, with the spread (interquartile range over the median)
//! of the ten runs:
//!
//! | workload | `items_per_s` | `latency_p50_us` | `latency_tail_us` | `tp_rate` | `setup_s` | `peak_rss_mb` |
//! |---|---|---|---|---|---|---|
//! | `ingest_mem` | 145,975 (19%) | 828 (4.5%) | 927 (11%) | 0.967 (2.1%) | 0.28 | 62 |
//! | `ingest_wal` | 128,191 (6.0%) | 893 (5.3%) | 1,033 (7.6%) | 0.968 (2.5%) | 0.26 | 62 |
//! | `regen` | 468 (7.1%) | 4,269,950 (7.1%) | 4,643,500 (5.4%) | 0.9997 (0.1%) | 0.26 | 95 |
//! | `device_scan` | 776,459 (4.6%) | 1.22 (4.5%) | 1.53 (3.6%) | 0.976 (0.2%) | 0.74 | 65 |
//!
//! Traced runs (`--seconds 20 --trace 1`, seed 4) place the two suspect
//! artifacts:
//!
//! * The listener's 1 ms idle sleep. On `ingest_wal` the residual
//!   (`net.loop_us_per_batch`) was 35 µs of 535 µs per batch (6.6%); on
//!   `ingest_mem` it ranged from 3% of the listener's time, when the two
//!   connections stay staggered and a sweep always finds a batch, to 68%,
//!   when both ACKs leave in one sweep and the next sweep finds nothing
//!   and sleeps. Which of the two a run falls into depends on the host,
//!   which is why `ingest_mem` does not hold a bound.
//! * Parallel scanning. On the 27k held-out images, one-thread
//!   `PacketScanner::scan_raw` took 1,352 ns/pkt and two-thread
//!   `Detector::scan_batch` 681 ns/pkt, so on one large batch the
//!   parallel path does win here.
//!
//! A `regen` pass spent 60% in the matrix, 20% in pruning and 15% in
//! signature extraction; 0.2% went unattributed. The gate spent 1,043 ns
//! per packet in `SignatureStore::match_packet` and 300 ns in policy and
//! audit log.

mod calib;
mod device;
mod ingest;
mod inputs;
mod probe;
mod regen;
mod report;
mod trace;

use leaksig_http::HttpPacket;
use report::Outcome;
use std::path::PathBuf;

/// Times each workload's set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Quality floor on the held-out half: the paper reports 85% TP at
/// N = 100 and 94% TP, 2.3% FP at N = 500.
const MAX_FP: f64 = 0.10;

const WORKLOADS: &[&str] = &["ingest_mem", "ingest_wal", "regen", "device_scan"];

/// One invocation's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Per-process scratch directory (state directories), removed at exit.
    pub scratch: PathBuf,
}

impl Run {
    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(".bench_out").join(format!("{}-seed{}.spans.jsonl", self.workload, self.seed))
    }
}

/// Build a workload's rig `SETUP_REPEATS` times, discarding all but the
/// last; returns it with the median set-up time in nominal-speed seconds.
pub fn repeated_setup<R>(
    mut make: impl FnMut(usize) -> Result<R, String>,
    mut discard: impl FnMut(R),
) -> Result<(R, f64), String> {
    let calib = calib::Calib::new();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for k in 0..SETUP_REPEATS {
        if let Some(old) = last.take() {
            discard(old);
        }
        let (rig, secs, slowdown) = calib.around(calib::Calib::slowdown, || make(k));
        last = Some(rig?);
        times.push(secs / slowdown);
    }
    let rig = last.expect("at least one set-up");
    Ok((rig, report::Sample::new(times).median()))
}

/// Quality on held-out packets: `(TP rate, FP rate)` of `detects`
/// against the generator's ground truth (`(packet, leaks)` pairs).
pub fn judge<'a>(
    packets: impl IntoIterator<Item = (&'a HttpPacket, bool)>,
    detects: impl Fn(&HttpPacket) -> bool,
) -> (f64, f64) {
    let (mut tp, mut pos, mut fp, mut neg) = (0u64, 0u64, 0u64, 0u64);
    for (packet, leaks) in packets {
        let hit = detects(packet) as u64;
        if leaks {
            pos += 1;
            tp += hit;
        } else {
            neg += 1;
            fp += hit;
        }
    }
    (tp as f64 / pos.max(1) as f64, fp as f64 / neg.max(1) as f64)
}

pub fn check_quality(out: &mut Outcome, tp: f64, fp: f64, min_tp: f64) {
    out.check(tp >= min_tp, || {
        format!("held-out TP rate {tp:.4} below {min_tp}")
    });
    out.check(fp <= MAX_FP, || {
        format!("held-out FP rate {fp:.4} above {MAX_FP}")
    });
}

fn parse_args() -> Result<Run, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let scratch = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    Ok(Run {
        workload,
        seed,
        seconds,
        traced,
        scratch,
    })
}

fn main() {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n{e}",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} ({} cores available)",
        run.workload,
        run.seed,
        run.seconds,
        run.traced as u8,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let mut out = Outcome::default();
    let result = std::fs::create_dir_all(&run.scratch)
        .map_err(|e| format!("cannot create {}: {e}", run.scratch.display()))
        .and_then(|()| match run.workload.as_str() {
            "ingest_mem" => ingest::run(&run, false, &mut out),
            "ingest_wal" => ingest::run(&run, true, &mut out),
            "regen" => regen::run(&run, &mut out),
            _ => device::run(&run, &mut out),
        });
    let _ = std::fs::remove_dir_all(&run.scratch);
    let _ = std::fs::remove_dir(".bench_tmp");
    if let Err(e) = result {
        out.check(false, || e);
    }
    out.print(run.traced);
    if !out.check_failures.is_empty() {
        std::process::exit(1);
    }
}
