//! `ingest_mem` and `ingest_wal`: steady-state LEAKBATCH/1 ingest over
//! loopback TCP into a collector configured exactly as `leaksig serve`.
//!
//! One client thread keeps one 64-record batch in flight on each of two
//! persistent connections (a closed loop: the next batch goes out only
//! after the previous one's ACK). The thread serves the connections in
//! turn — the listener sweeps its connections in accept order, so ACKs
//! arrive in that same alternation — and spins on the non-blocking socket
//! while it waits. A client that slept in a blocking read would add the
//! virtual machine's wake-up latency (tens to hundreds of microseconds,
//! varying with host load) to every ACK and leave the listener idle
//! meanwhile, which made the measurement swing between runs.

use crate::inputs::{EncodedBatch, Market};
use crate::probe::{Probe, ProbeData, TimedDisk, TimedStore};
use crate::report::{peak_rss_mb, us, Outcome, Sample};
use crate::trace::Trace;
use crate::{judge, repeated_setup, Run};
use leaksig_core::prelude::PipelineConfig;
use leaksig_device::{
    state::encode_state, CollectionServer, IngestConfig, MemoryStore, RateLimit, Shed,
    SignatureServer, SignatureStore, StateStore, WalConfig, WalStore,
};
use leaksig_faults::RealDisk;
use leaksig_http::{parse_request_limited, ParseLimits};
use leaksig_net::proto::{decode_batch_partial_ref, BatchProgressRef};
use leaksig_net::{NetConfig, NetServer, NetStats, Reply};
use leaksig_netsim::SensitiveKind;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed steady-state warm-up before the first measured window.
const WARMUP: Duration = Duration::from_secs(2);
/// A client read or write waiting this long means the listener hung.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Persistent connections, each with one batch in flight.
const CONNECTIONS: usize = 2;
/// Reservoir capacity of `leaksig serve`; the final regeneration samples
/// all of it (N = 400 judges the reservoir more steadily than serve's
/// default N = 150).
const RESERVOIR: usize = 400;
/// Collector sampling seed (`leaksig serve --seed` default).
const COLLECTOR_SEED: u64 = 42;
/// Window slice length in seconds (see [`Window`]).
const SLICE_S: f64 = 1.0;
/// In a traced window, sample the admission queue length every this
/// many batches.
const QUEUE_SAMPLE_EVERY: u64 = 16;

type Collector = CollectionServer<SensitiveKind>;

/// The intake configuration `leaksig serve` runs with.
pub fn serve_intake() -> IngestConfig {
    IngestConfig {
        rate: Some(RateLimit {
            burst: 256,
            per_second: 10_000,
        }),
        shed: Shed::Newest,
        ..IngestConfig::default()
    }
}

fn open_store(
    wal_dir: Option<&Path>,
    probe: Option<&Arc<Probe>>,
) -> Result<Box<dyn StateStore>, String> {
    let open = |disk: Box<dyn leaksig_faults::DiskIo>, dir: &Path| {
        WalStore::open(dir, disk, WalConfig::default())
            .map(|(store, _)| store)
            .map_err(|e| format!("cannot open state dir {}: {e}", dir.display()))
    };
    Ok(match (wal_dir, probe) {
        (None, None) => Box::new(MemoryStore::new()),
        (None, Some(p)) => Box::new(TimedStore::new(MemoryStore::new(), p.clone())),
        (Some(dir), None) => Box::new(open(Box::new(RealDisk), dir)?),
        (Some(dir), Some(p)) => {
            let disk = TimedDisk::new(RealDisk, p.clone());
            Box::new(TimedStore::new(open(Box::new(disk), dir)?, p.clone()))
        }
    })
}

fn collector(market: &Market, store: Box<dyn StateStore>) -> Collector {
    CollectionServer::with_store(
        market.check(),
        PipelineConfig::default(),
        RESERVOIR,
        COLLECTOR_SEED,
        serve_intake(),
        store,
    )
}

/// One client connection with at most one batch in flight.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    inflight: Option<InFlight>,
}

struct InFlight {
    seq: u64,
    records: usize,
    sent: Instant,
    written: Instant,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| format!("configure client socket: {e}"))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            inflight: None,
        })
    }

    fn send(&mut self, wire: &[u8]) -> Result<(), String> {
        let deadline = Instant::now() + IO_TIMEOUT;
        let mut off = 0;
        while off < wire.len() {
            match self.stream.write(&wire[off..]) {
                Ok(0) => return Err("server stopped reading".to_string()),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => spin(deadline)?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("batch write failed: {e}")),
            }
        }
        Ok(())
    }

    /// Spin until the next reply line arrives.
    fn read_reply(&mut self) -> Result<Reply, String> {
        let deadline = Instant::now() + IO_TIMEOUT;
        let mut chunk = [0u8; 512];
        loop {
            if let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=nl).collect();
                let text = String::from_utf8_lossy(&line[..nl]).into_owned();
                return Reply::parse(&text).ok_or_else(|| format!("unparsable reply {text:?}"));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => spin(deadline)?,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("ACK read failed: {e}")),
            }
        }
    }
}

/// One turn of a wait loop, or an error once `deadline` has passed.
fn spin(deadline: Instant) -> Result<(), String> {
    if Instant::now() > deadline {
        return Err(format!("the listener did not answer within {IO_TIMEOUT:?}"));
    }
    std::hint::spin_loop();
    Ok(())
}

/// A running collector with its listener and connected clients.
struct Rig {
    market: Market,
    batches: Vec<EncodedBatch>,
    encode_us_per_batch: f64,
    collector: Arc<Collector>,
    publisher: Arc<SignatureServer>,
    /// `None` once stopped.
    server: Option<NetServer>,
    clients: Vec<Client>,
    wal_dir: Option<PathBuf>,
    probe: Option<Arc<Probe>>,
}

fn setup(run: &Run, wal: bool, k: usize, origin: Instant) -> Result<Rig, String> {
    let market = Market::generate(run.seed);
    let t = Instant::now();
    let batches = market.batches(run.seed);
    let encode_us_per_batch = us(t.elapsed()) / batches.len() as f64;
    let wal_dir = wal.then(|| run.scratch.join(format!("wal-{k}")));
    let probe = run.traced.then(|| Probe::new(origin));
    let store = open_store(wal_dir.as_deref(), probe.as_ref())?;
    let collector = Arc::new(collector(&market, store));
    let publisher = Arc::new(SignatureServer::new());
    let server = NetServer::spawn(
        collector.clone(),
        publisher.clone(),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .map_err(|e| format!("cannot start the listener: {e}"))?;
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Rig {
        market,
        batches,
        encode_us_per_batch,
        collector,
        publisher,
        server: Some(server),
        clients,
        wal_dir,
        probe,
    })
}

/// Close the clients and stop the listener; returns its final counters.
fn stop(rig: &mut Rig) -> NetStats {
    for c in rig.clients.drain(..) {
        let _ = c.stream.shutdown(Shutdown::Write);
    }
    rig.server
        .take()
        .map(NetServer::shutdown)
        .unwrap_or_default()
}

/// Whole-run client-side totals.
#[derive(Default)]
struct Totals {
    batches_sent: u64,
    records_sent: u64,
    batches_acked: u64,
    admitted: u64,
    rate_limited: u64,
    quarantined: u64,
    shed: u64,
    next_batch: usize,
}

/// One measured window, cut into [`SLICE_S`] slices. The window reports
/// the median slice throughput, so a burst of interference from other
/// tenants of the host moves a few slices, not the result. (Unlike the
/// other workloads, ingest is not scaled by a reference probe: its time
/// goes to two threads and the loopback stack, which no probe tracked,
/// and a probe would stall the closed loop it runs in.)
#[derive(Default)]
struct Window {
    duration_s: f64,
    batches: u64,
    records: u64,
    ack_us: Vec<f64>,
    write_us: Vec<f64>,
    /// Records per second of each completed slice.
    slices: Vec<f64>,
    queue_max: usize,
    slice_start: Option<Instant>,
    slice_records: u64,
}

impl Window {
    /// Median slice throughput.
    fn rec_per_s(&self) -> f64 {
        Sample::new(self.slices.clone()).median()
    }

    fn ack(&mut self, records: usize, ack_us: f64) {
        self.batches += 1;
        self.records += records as u64;
        self.slice_records += records as u64;
        self.ack_us.push(ack_us);
    }

    /// Close the current slice once it is [`SLICE_S`] long (or, when
    /// `last`, at least half that) and start the next.
    fn tick(&mut self, last: bool) {
        let now = Instant::now();
        let start = *self.slice_start.get_or_insert(now);
        let secs = now.duration_since(start).as_secs_f64();
        if secs >= SLICE_S || (last && secs >= SLICE_S / 2.0) {
            self.slices.push(self.slice_records as f64 / secs);
            self.slice_records = 0;
            self.slice_start = Some(now);
        }
    }
}

/// Keep both connections busy until `until`. ACKs arriving inside the
/// window are tallied into `window` when one is given; batches still in
/// flight at the end carry over (the closed loop never stalls between
/// windows). With `until = None`, sends nothing new and drains.
fn drive(
    rig: &mut Rig,
    totals: &mut Totals,
    until: Option<Instant>,
    mut window: Option<&mut Window>,
    mut trace: Option<&mut Trace>,
) -> Result<(), String> {
    let start = Instant::now();
    if let Some(w) = window.as_deref_mut() {
        w.tick(false);
    }
    loop {
        let sending = until.is_some_and(|u| Instant::now() < u);
        for client in rig.clients.iter_mut() {
            if let Some(f) = client.inflight.take() {
                let reply = client.read_reply()?;
                let acked_at = Instant::now();
                let Reply::Ack {
                    admitted,
                    rate_limited,
                    quarantined,
                    shed,
                } = reply
                else {
                    return Err(format!("batch {} answered {reply:?}, not ACK", f.seq));
                };
                if admitted + rate_limited + quarantined + shed != f.records as u64 {
                    return Err(format!(
                        "batch {}: ACK verdicts sum to {}, batch held {}",
                        f.seq,
                        admitted + rate_limited + quarantined + shed,
                        f.records
                    ));
                }
                totals.batches_acked += 1;
                totals.admitted += admitted;
                totals.rate_limited += rate_limited;
                totals.quarantined += quarantined;
                totals.shed += shed;
                if let Some(w) = window.as_deref_mut() {
                    w.ack(f.records, us(acked_at.duration_since(f.sent)));
                    w.write_us.push(us(f.written.duration_since(f.sent)));
                    if let Some(tr) = trace.as_deref_mut() {
                        let root = tr.record("ingest.batch", f.seq, None, f.sent, acked_at);
                        tr.record("gen.write", f.seq, root, f.sent, f.written);
                        if f.seq % QUEUE_SAMPLE_EVERY == 0 {
                            w.queue_max = w.queue_max.max(rig.collector.queue_len());
                        }
                    }
                }
            }
            if sending {
                let batch = &rig.batches[totals.next_batch % rig.batches.len()];
                totals.next_batch += 1;
                let seq = totals.batches_sent;
                let sent = Instant::now();
                client.send(&batch.wire)?;
                client.inflight = Some(InFlight {
                    seq,
                    records: batch.records,
                    sent,
                    written: Instant::now(),
                });
                totals.batches_sent += 1;
                totals.records_sent += batch.records as u64;
            }
            if let Some(w) = window.as_deref_mut() {
                w.tick(false);
            }
        }
        if !sending {
            break;
        }
    }
    if let Some(w) = window {
        w.tick(true);
        w.duration_s = start.elapsed().as_secs_f64();
    }
    Ok(())
}

/// Replayed per-layer costs of the frontier's per-record path, timed by
/// calling each layer's public function on the same encoded batches.
#[derive(Default)]
struct Replay {
    batches: u64,
    records: u64,
    parsed: u64,
    suspicious: u64,
    decode_us: Vec<f64>,
    parse_ns: f64,
    classify_ns: f64,
    ingest_raw_ns: f64,
    pump_ns: f64,
    pumped: u64,
}

fn replay(rig: &Rig, wal_dir: Option<&Path>, trace: &mut Trace) -> Result<Replay, String> {
    let collector = collector(&rig.market, open_store(wal_dir, None)?);
    let check = rig.market.check();
    let limits = ParseLimits::intake();
    let max_body = NetConfig::default().per_conn_buffer;
    let mut out = Replay::default();
    // Two passes over every distinct batch; only the second is kept, so
    // the reservoir is full and the allocator warm.
    for pass in 0..2 {
        for (b, batch) in rig.batches.iter().enumerate() {
            let keep = pass == 1;
            let t0 = Instant::now();
            let decoded = decode_batch_partial_ref(&batch.wire, max_body);
            let t1 = Instant::now();
            let Ok(BatchProgressRef::Complete { records, .. }) = decoded else {
                return Err(format!("replayed batch {b} did not decode: {decoded:?}"));
            };
            let id = b as u64;
            let root = if keep {
                out.batches += 1;
                out.decode_us.push(us(t1 - t0));
                let root = trace.record("replay.batch", id, None, t0, t0);
                trace.record("net.decode", id, root, t0, t1);
                root
            } else {
                None
            };
            for r in &records {
                let a = Instant::now();
                let parsed = parse_request_limited(r.raw, r.ip, r.port, &limits);
                let b_ = Instant::now();
                let suspicious = parsed.as_ref().ok().map(|p| check.is_suspicious(p));
                let c = Instant::now();
                collector.ingest_raw(r.raw, r.ip, r.port);
                let d = Instant::now();
                if keep {
                    out.records += 1;
                    out.parse_ns += (b_ - a).as_nanos() as f64;
                    trace.record("http.parse", id, root, a, b_);
                    if let Some(s) = suspicious {
                        out.parsed += 1;
                        out.suspicious += s as u64;
                        out.classify_ns += (c - b_).as_nanos() as f64;
                        trace.record("payload.classify", id, root, b_, c);
                    }
                    out.ingest_raw_ns += (d - c).as_nanos() as f64;
                    trace.record("server.ingest_raw", id, root, c, d);
                }
            }
            let p0 = Instant::now();
            let pumped = collector.pump(usize::MAX);
            let p1 = Instant::now();
            if keep {
                out.pump_ns += (p1 - p0).as_nanos() as f64;
                out.pumped += pumped as u64;
                trace.record("server.pump", id, root, p0, p1);
                if let Some(r) = root {
                    trace.close(r, p1);
                }
            }
        }
    }
    Ok(out)
}

/// Recover the state directory with a fresh `WalStore` and compare it
/// with the live collector's state.
fn recovered_matches(dir: &Path, collector: &Collector) -> Result<bool, String> {
    let (store, _) = WalStore::open(dir, Box::new(RealDisk), WalConfig::default())
        .map_err(|e| format!("cannot reopen {}: {e}", dir.display()))?;
    Ok(encode_state(store.state()) == collector.encoded_state())
}

pub fn run(run: &Run, wal: bool, out: &mut Outcome) -> Result<(), String> {
    let origin = Instant::now();
    let (mut rig, setup_s) = repeated_setup(
        |k| setup(run, wal, k, origin),
        |mut rig| {
            stop(&mut rig);
            if let Some(dir) = &rig.wal_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        },
    )?;
    println!(
        "traffic: loopback TCP to {}, {CONNECTIONS} persistent connections driven by one \
         client thread, one {}-record batch in flight per connection (closed loop); \
         state: {}",
        rig.server
            .as_ref()
            .map(NetServer::addr)
            .expect("a fresh rig is listening"),
        crate::inputs::BATCH,
        if wal {
            "WalStore on RealDisk"
        } else {
            "MemoryStore"
        }
    );

    let mut totals = Totals::default();
    let mut trace = Trace::new(origin);
    drive(
        &mut rig,
        &mut totals,
        Some(Instant::now() + WARMUP),
        None,
        None,
    )?;
    let seconds = Duration::from_secs_f64(run.seconds);
    let mut plain = Window::default();
    let mut traced = Window::default();
    let mut probed = ProbeData::default();
    if run.traced {
        // Half the window untraced (the overhead baseline), half traced.
        let half = seconds / 2;
        drive(
            &mut rig,
            &mut totals,
            Some(Instant::now() + half),
            Some(&mut plain),
            None,
        )?;
        let probe = rig.probe.clone().expect("traced rigs carry a probe");
        probe.set_enabled(true);
        let t = Instant::now() + half;
        drive(
            &mut rig,
            &mut totals,
            Some(t),
            Some(&mut traced),
            Some(&mut trace),
        )?;
        probe.set_enabled(false);
        probed = probe.take();
    } else {
        drive(
            &mut rig,
            &mut totals,
            Some(Instant::now() + seconds),
            Some(&mut plain),
            None,
        )?;
    }
    drive(&mut rig, &mut totals, None, None, None)?;
    let net = stop(&mut rig);

    // Output checks.
    let stats = rig.collector.stats();
    out.check(totals.batches_acked == totals.batches_sent, || {
        format!(
            "{} of {} batches ACKed",
            totals.batches_acked, totals.batches_sent
        )
    });
    let verdicts = totals.admitted + totals.rate_limited + totals.quarantined + totals.shed;
    out.check(verdicts == totals.records_sent, || {
        format!(
            "ACK verdicts total {verdicts}, {} records sent",
            totals.records_sent
        )
    });
    out.check(stats.raw_seen == totals.records_sent, || {
        format!(
            "server saw {} records, {} sent",
            stats.raw_seen, totals.records_sent
        )
    });
    let accounted = stats.admitted + stats.rate_limited + stats.parse_rejects + stats.shed;
    out.check(stats.raw_seen == accounted, || {
        format!(
            "ServerStats do not reconcile: raw_seen {} != admitted {} + rate_limited {} + \
             parse_rejects {} + shed {}",
            stats.raw_seen, stats.admitted, stats.rate_limited, stats.parse_rejects, stats.shed
        )
    });
    out.check(net.accepted == net.closed_total(), || {
        format!(
            "NetStats do not reconcile: accepted {} != closed {}",
            net.accepted,
            net.closed_total()
        )
    });
    out.check(net.batches == totals.batches_sent, || {
        format!(
            "listener processed {} batches, {} sent",
            net.batches, totals.batches_sent
        )
    });
    if let Some(dir) = rig.wal_dir.clone() {
        rig.collector.flush_state();
        let same = recovered_matches(&dir, &rig.collector)?;
        out.check(same, || {
            "state recovered from the WAL differs from the live state".to_string()
        });
    }

    // The final regeneration `leaksig serve` runs at shutdown, judged on
    // the held-out half.
    let outcome = rig.collector.regenerate(RESERVOIR, &rig.publisher);
    let published = outcome.published();
    out.check(published.is_some(), || {
        format!("final regeneration did not publish: {outcome:?}")
    });
    let store = SignatureStore::new();
    if let Some((version, text)) = rig.publisher.fetch(0) {
        let installed = store.install(version, &text);
        out.check(installed.is_ok(), || {
            format!("published set does not install: {installed:?}")
        });
    }
    let (tp, fp) = judge(rig.market.held_out_labeled(), |p| {
        store.match_packet(p).is_some()
    });
    crate::check_quality(out, tp, fp, 0.75);

    out.attempted = totals.records_sent;
    out.failed = totals.rate_limited
        + totals.shed
        + (totals.batches_sent - totals.batches_acked) * crate::inputs::BATCH as u64;

    if !run.traced {
        let acks = Sample::new(plain.ack_us.clone());
        let (tail_label, tail) = acks.tail();
        println!(
            "ingest: {:.0} rec/s (median of {} {SLICE_S} s slices; {:.0} over the whole \
             {:.2} s, {} batches); ACK p50 {:.1} us, {tail_label} {:.1} us ({} ACKs); \
             tp {tp:.4} fp {fp:.4}",
            plain.rec_per_s(),
            plain.slices.len(),
            plain.records as f64 / plain.duration_s,
            plain.duration_s,
            plain.batches,
            acks.median(),
            tail,
            acks.len()
        );
        out.set("items_per_s", plain.rec_per_s());
        out.set("latency_p50_us", acks.median());
        out.set("latency_tail_us", tail);
        out.set("tp_rate", tp);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", peak_rss_mb());
    } else {
        let replay_dir = wal.then(|| run.scratch.join("wal-replay"));
        let r = replay(&rig, replay_dir.as_deref(), &mut trace)?;
        trace.extend(&probed.spans, None);
        let rec = traced.records.max(1) as f64;
        let per_batch_us = 1e6 * crate::inputs::BATCH as f64 / plain.rec_per_s();
        let decode_us = Sample::new(r.decode_us.clone()).median();
        let busy_us = decode_us + (r.ingest_raw_ns + r.pump_ns) / 1e3 / r.batches.max(1) as f64;
        let loop_us = per_batch_us - busy_us;
        println!(
            "server wall time per batch {per_batch_us:.1} us (from the untraced half's throughput); \
             replayed decode + ingest_raw + pump {busy_us:.1} us; residual (sweep loop, socket \
             calls, idle sleep, client) {loop_us:.1} us = {:.1}% of it",
            100.0 * loop_us / per_batch_us
        );
        out.set(
            "fail_ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        out.set("quality.fp_rate", fp);
        out.set("net.loop_us_per_batch", loop_us);
        out.set("net.decode_us_per_batch", decode_us);
        out.set(
            "net.bytes_in_per_rec",
            net.bytes_in as f64 / net.batch_packets.max(1) as f64,
        );
        out.set(
            "net.terminal_failures",
            (net.aborted
                + net.rejected
                + net.evicted_stalled
                + net.evicted_idle
                + net.evicted_budget) as f64,
        );
        out.set("gen.encode_us_per_batch", rig.encode_us_per_batch);
        out.set(
            "gen.write_us_per_batch",
            Sample::new(traced.write_us.clone()).median(),
        );
        out.set(
            "http.parse_ns_per_rec",
            r.parse_ns / r.records.max(1) as f64,
        );
        out.set(
            "http.reject_share",
            1.0 - r.parsed as f64 / r.records.max(1) as f64,
        );
        out.set(
            "payload.classify_ns_per_rec",
            r.classify_ns / r.parsed.max(1) as f64,
        );
        out.set(
            "payload.suspicious_share",
            r.suspicious as f64 / r.parsed.max(1) as f64,
        );
        out.set(
            "server.ingest_raw_ns_per_rec",
            r.ingest_raw_ns / r.records.max(1) as f64,
        );
        out.set("server.pump_ns_per_rec", r.pump_ns / r.pumped.max(1) as f64);
        out.set("server.queue_len_max", traced.queue_max as f64);
        out.set("state.apply_calls_per_rec", probed.apply_calls as f64 / rec);
        out.set("state.ops_per_rec", probed.ops as f64 / rec);
        out.set(
            "state.apply_ns_per_call",
            probed.apply_ns as f64 / probed.apply_calls.max(1) as f64,
        );
        out.set(
            "wal.append_calls_per_1k_rec",
            1e3 * probed.append_calls as f64 / rec,
        );
        out.set("wal.append_bytes_per_rec", probed.append_bytes as f64 / rec);
        out.set("wal.append_us_total", probed.append_ns as f64 / 1e3);
        out.set("wal.sync_calls", probed.sync_calls as f64);
        out.set("wal.sync_us_total", probed.sync_ns as f64 / 1e3);
        out.set("wal.compactions", probed.renames as f64);
        out.set("trace.unattributed_share", loop_us / per_batch_us);
        out.set(
            "trace.overhead_ratio",
            plain.rec_per_s() / traced.rec_per_s(),
        );
        trace.finish(&run.trace_path());
        if let Some(dir) = replay_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    if let Some(dir) = &rig.wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}
