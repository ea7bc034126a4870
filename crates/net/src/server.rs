//! The non-blocking collection listener.
//!
//! A readiness-style event loop over `std::net` only: the listener and
//! every connection socket run non-blocking, and one thread sweeps them
//! — accept until `WouldBlock`, then for each connection read / extract
//! / reply / flush, then check deadlines. When a sweep moves nothing the
//! loop backs off in three steps: it spins through the first 50 µs of
//! idleness (a peer mid-exchange answers an ACK within that), yields the
//! CPU until 1 ms, and past that sleeps a millisecond per sweep. An idle
//! listener costs what a plain 1 ms sleep loop costs, while a busy one
//! never sleeps between a reply and the peer's next message. No platform
//! poller, no async runtime: the connection counts a collection frontier
//! sees (tens, not tens of thousands) make a sweep loop the honest trade.
//!
//! Robustness properties, each enforced here and soaked in
//! `tests/net_chaos.rs`:
//!
//! * **Admission**: each complete batch feeds
//!   [`CollectionServer::ingest_batch`] — the token bucket / quarantine /
//!   shed frontier of the ingest path applies unchanged to TCP traffic,
//!   record by record, and the `ACK` line reports its verdict tallies.
//! * **Connection caps**: past [`NetConfig::max_conns`], accepts are
//!   shed with a `BUSY` line before any buffer is allocated.
//! * **Budgets**: per-connection buffers are bounded by the protocol
//!   (headers are line-capped, bodies are declared up front and
//!   refused past [`NetConfig::per_conn_buffer`]); the sum across
//!   connections is capped by [`NetConfig::global_buffer`], evicting
//!   the largest buffer when exceeded.
//! * **Deadlines**: a message incomplete past [`NetConfig::frame_ms`]
//!   (measured from its *first* byte — trickling one byte per poll
//!   does not reset it), a peer refusing our writes past
//!   [`NetConfig::write_ms`], or a silent connection past
//!   [`NetConfig::idle_ms`] is evicted. This is the slowloris defense.
//! * **Shutdown**: [`NetServer::shutdown`] stops accepting, lets live
//!   connections finish for up to [`NetConfig::drain_ms`], then closes
//!   what remains. With background pumping on, every ACKed record still
//!   in the admission queue is pumped before the final state flush.
//!
//! Every accepted connection ends in exactly one
//! [`CloseReason`](crate::conn::CloseReason) bucket, so
//! [`NetStats::accepted`] equals the sum of the terminal counters once
//! the loop exits — the reconciliation the chaos soak asserts.

use crate::conn::{extract, CloseReason, Conn, Inbound, Step};
use crate::proto::Reply;
use leaksig_core::prelude::RawPacket;
use leaksig_core::wire;
use leaksig_device::{CollectionServer, SignatureServer};
use parking_lot::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle back-off: a sweep loop idle for less than this many microseconds
/// spins straight into the next sweep.
const SPIN_US: u128 = 50;

/// Idle back-off: past [`SPIN_US`] and below this many microseconds of
/// idleness the loop yields its time slice between sweeps; beyond it,
/// it sleeps one millisecond per sweep.
const YIELD_US: u128 = 1_000;

/// Event-loop tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Connection cap; accepts beyond it are shed with `BUSY`.
    pub max_conns: usize,
    /// Per-connection read-buffer bound; batch bodies declared larger
    /// are refused (`ERR batch-too-large`).
    pub per_conn_buffer: usize,
    /// Bound on the sum of all connection read buffers; exceeding it
    /// evicts the largest buffer.
    pub global_buffer: usize,
    /// Eviction deadline for a silent connection (no bytes either way).
    pub idle_ms: u64,
    /// Eviction deadline for an incomplete message, measured from its
    /// first byte.
    pub frame_ms: u64,
    /// Eviction deadline for a peer that stops draining our replies.
    pub write_ms: u64,
    /// How long [`NetServer::shutdown`] lets live connections finish.
    pub drain_ms: u64,
    /// Admission-queue entries drained into the collector per sweep
    /// (`0` leaves pumping entirely to the caller — deterministic
    /// queue-overflow tests want that). When non-zero, shutdown also
    /// drains the whole queue before the final state flush.
    pub pump_per_tick: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_conns: 64,
            per_conn_buffer: 256 * 1024,
            global_buffer: 4 * 1024 * 1024,
            idle_ms: 5_000,
            frame_ms: 2_000,
            write_ms: 2_000,
            drain_ms: 1_000,
            pump_per_tick: 512,
        }
    }
}

/// Listener-side counters. Monotonic for the server's lifetime; see the
/// module docs for the `accepted = Σ terminals` reconciliation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted into the event loop.
    pub accepted: u64,
    /// Connections refused with `BUSY` at the cap.
    pub accept_shed: u64,
    /// Complete, checksum-valid batches processed.
    pub batches: u64,
    /// Records carried by those batches.
    pub batch_packets: u64,
    /// `SYNC` requests answered `CURRENT`.
    pub sync_current: u64,
    /// `SYNC` requests answered with a signature frame.
    pub sync_sent: u64,
    /// Bytes read from peers.
    pub bytes_in: u64,
    /// Bytes written to peers.
    pub bytes_out: u64,
    /// Terminal: polite EOF with nothing pending.
    pub closed_clean: u64,
    /// Terminal: peer vanished mid-message (reset, truncated upload),
    /// or was force-closed at the drain deadline.
    pub aborted: u64,
    /// Terminal: protocol violation, `ERR` sent.
    pub rejected: u64,
    /// Terminal: frame or write deadline exceeded (slowloris).
    pub evicted_stalled: u64,
    /// Terminal: idle deadline exceeded.
    pub evicted_idle: u64,
    /// Terminal: global buffer budget exceeded.
    pub evicted_budget: u64,
}

impl NetStats {
    /// Sum of the terminal counters; equals [`NetStats::accepted`] once
    /// every connection has closed.
    pub fn closed_total(&self) -> u64 {
        self.closed_clean
            + self.aborted
            + self.rejected
            + self.evicted_stalled
            + self.evicted_idle
            + self.evicted_budget
    }
}

/// Handle to a running listener thread.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<NetStats>>,
    handle: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `bind` (e.g. `"127.0.0.1:0"`) and spawn the event loop,
    /// feeding batches into `collector` and answering syncs from
    /// `publisher`.
    pub fn spawn<T: Copy + Eq + Send + Sync + 'static>(
        collector: Arc<CollectionServer<T>>,
        publisher: Arc<SignatureServer>,
        bind: &str,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let handle = {
            let stop = stop.clone();
            let stats = stats.clone();
            std::thread::Builder::new()
                .name("leaksig-net".to_string())
                .spawn(move || run(listener, collector, publisher, config, stop, stats))?
        };
        Ok(NetServer {
            addr,
            stop,
            stats,
            handle: Some(handle),
        })
    }

    /// The bound address (the ephemeral port for `"…:0"` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetStats {
        *self.stats.lock()
    }

    /// Graceful shutdown: stop accepting, drain live connections for up
    /// to [`NetConfig::drain_ms`], close the rest, join the thread, and
    /// return the final counters.
    pub fn shutdown(mut self) -> NetStats {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        *self.stats.lock()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// What one sweep of a connection decided.
enum Sweep {
    /// Keep the connection.
    Keep,
    /// Close it under this terminal reason.
    Close(CloseReason),
}

fn run<T: Copy + Eq + Send + Sync>(
    listener: TcpListener,
    collector: Arc<CollectionServer<T>>,
    publisher: Arc<SignatureServer>,
    config: NetConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<NetStats>>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut next_id: u64 = 0;
    let mut scratch = [0u8; 8192];
    let mut drain_deadline: Option<Instant> = None;
    // Start of the current run of sweeps that moved nothing.
    let mut idle_since: Option<Instant> = None;

    loop {
        let now = Instant::now();
        let stopping = stop.load(Ordering::SeqCst);
        if stopping && drain_deadline.is_none() {
            drain_deadline = Some(now + Duration::from_millis(config.drain_ms));
        }
        let mut progress = false;

        // Accept phase: drain the backlog, shedding past the cap.
        if !stopping {
            loop {
                match listener.accept() {
                    Ok((stream, peer)) => {
                        progress = true;
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        if conns.len() >= config.max_conns {
                            let mut st = stats.lock();
                            st.accept_shed += 1;
                            // Best effort: tell the peer why before the
                            // socket drops. A full send buffer here is
                            // impossible on a fresh connection.
                            let busy = Reply::Busy.encode();
                            if let Ok(n) = (&stream).write(busy.as_bytes()) {
                                st.bytes_out += n as u64;
                            }
                        } else {
                            stats.lock().accepted += 1;
                            conns.push(Conn::new(stream, peer, next_id, now));
                            next_id += 1;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // Service phase: read, extract, reply, flush, deadline-check.
        let mut idx = 0;
        while idx < conns.len() {
            let verdict = sweep_conn(
                &mut conns[idx],
                &collector,
                &publisher,
                &config,
                &stats,
                &mut scratch,
                &mut progress,
                stopping,
            );
            match verdict {
                Sweep::Keep => idx += 1,
                Sweep::Close(reason) => {
                    finalize(&stats, reason);
                    conns.swap_remove(idx);
                    progress = true;
                }
            }
        }

        // Global budget: evict the fattest buffers until back under.
        let mut total: usize = conns.iter().map(|c| c.buf.len()).sum();
        while total > config.global_buffer && !conns.is_empty() {
            let (fattest, _) = conns
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| c.buf.len())
                .expect("non-empty");
            total -= conns[fattest].buf.len();
            finalize(&stats, CloseReason::EvictedBudget);
            conns.swap_remove(fattest);
            progress = true;
        }

        // Background intake: keep the collector's admission queue moving
        // so a long soak never waits for an explicit pump.
        if config.pump_per_tick > 0 && collector.pump(config.pump_per_tick) > 0 {
            progress = true;
        }

        if stopping {
            let past_deadline = drain_deadline.is_some_and(|d| now >= d);
            if conns.is_empty() {
                break;
            }
            if past_deadline {
                for _ in conns.drain(..) {
                    finalize(&stats, CloseReason::Aborted);
                }
                break;
            }
        }
        if progress {
            idle_since = None;
        } else {
            let idle_us = now
                .saturating_duration_since(*idle_since.get_or_insert(now))
                .as_micros();
            if idle_us >= YIELD_US {
                std::thread::sleep(Duration::from_millis(1));
            } else if idle_us >= SPIN_US {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    // Graceful shutdown: records ACKed as admitted must not die in the
    // admission queue, so pump them (unless the caller owns pumping),
    // then push any buffered durable-state log records to disk so a
    // restart on the same state directory resumes from here (no-op on
    // the in-memory backend).
    if config.pump_per_tick > 0 {
        collector.pump_all();
    }
    collector.flush_state();
}

/// Record one terminal close.
fn finalize(stats: &Mutex<NetStats>, reason: CloseReason) {
    let mut st = stats.lock();
    match reason {
        CloseReason::Clean => st.closed_clean += 1,
        CloseReason::Aborted => st.aborted += 1,
        CloseReason::Rejected => st.rejected += 1,
        CloseReason::EvictedStalled => st.evicted_stalled += 1,
        CloseReason::EvictedIdle => st.evicted_idle += 1,
        CloseReason::EvictedBudget => st.evicted_budget += 1,
    }
}

/// One sweep over one connection.
#[allow(clippy::too_many_arguments)]
fn sweep_conn<T: Copy + Eq + Send + Sync>(
    conn: &mut Conn,
    collector: &CollectionServer<T>,
    publisher: &SignatureServer,
    config: &NetConfig,
    stats: &Mutex<NetStats>,
    scratch: &mut [u8],
    progress: &mut bool,
    stopping: bool,
) -> Sweep {
    let now = Instant::now();

    // Read phase (skipped once closing: the verdict is already in).
    let mut peer_eof = false;
    if conn.closing.is_none() {
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&scratch[..n]);
                    conn.last_activity = now;
                    stats.lock().bytes_in += n as u64;
                    *progress = true;
                    // Fairness/budget bound: one sweep never buffers more
                    // than a maximal message; a firehose peer waits for
                    // the next sweep while extraction drains this one.
                    if conn.buf.len() > config.per_conn_buffer + crate::proto::MAX_CONTROL_LINE {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // RST-style teardown mid-whatever.
                    return Sweep::Close(if conn.buf.is_empty() && conn.msg_start.is_none() {
                        CloseReason::Clean
                    } else {
                        CloseReason::Aborted
                    });
                }
            }
        }
    }

    // Extract phase: consume every complete message in the buffer.
    while conn.closing.is_none() {
        match extract(&conn.buf, config.per_conn_buffer) {
            Step::Wait { .. } => break,
            Step::Message { msg, consumed } => {
                // Batch records are zero-copy views into `conn.buf`:
                // ingest and build the reply while the borrow is live,
                // then drain the consumed prefix and enqueue the reply.
                let reply: Vec<u8> = match msg {
                    Inbound::Sync { have } => match publisher.fetch(have) {
                        Some((version, text)) => {
                            let mut st = stats.lock();
                            st.sync_sent += 1;
                            drop(st);
                            let mut out = Reply::Version(version).encode().into_bytes();
                            out.extend_from_slice(&wire::frame(&text));
                            out
                        }
                        None => {
                            stats.lock().sync_current += 1;
                            Reply::Current.encode().into_bytes()
                        }
                    },
                    Inbound::Batch { records } => {
                        let verdicts = collector.ingest_batch(records.iter().map(|r| RawPacket {
                            raw: r.raw,
                            ip: r.ip,
                            port: r.port,
                        }));
                        let mut st = stats.lock();
                        st.batches += 1;
                        st.batch_packets += records.len() as u64;
                        drop(st);
                        Reply::Ack {
                            admitted: verdicts.admitted,
                            rate_limited: verdicts.rate_limited,
                            quarantined: verdicts.quarantined,
                            shed: verdicts.shed,
                        }
                        .encode()
                        .into_bytes()
                    }
                };
                conn.buf.drain(..consumed);
                conn.msg_start = None;
                *progress = true;
                conn.push_out(&reply);
            }
            Step::Reject(reason) => {
                conn.push_out(Reply::Err(reason.to_string()).encode().as_bytes());
                conn.buf.clear();
                conn.closing = Some(CloseReason::Rejected);
            }
        }
    }
    if conn.buf.is_empty() {
        conn.msg_start = None;
    } else if conn.msg_start.is_none() {
        conn.msg_start = Some(now);
    }

    // Write phase: flush what we owe.
    while conn.pending_out() > 0 {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => break,
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = now;
                stats.lock().bytes_out += n as u64;
                *progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                return Sweep::Close(conn.closing.unwrap_or(CloseReason::Aborted));
            }
        }
    }

    // Close/deadline phase.
    if let Some(reason) = conn.closing {
        if conn.pending_out() == 0 {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            return Sweep::Close(reason);
        }
    }
    if peer_eof {
        return Sweep::Close(if conn.buf.is_empty() && conn.pending_out() == 0 {
            CloseReason::Clean
        } else {
            CloseReason::Aborted
        });
    }
    let elapsed_ms = |since: Instant| now.saturating_duration_since(since).as_millis() as u64;
    if let Some(start) = conn.msg_start {
        if elapsed_ms(start) > config.frame_ms {
            return Sweep::Close(CloseReason::EvictedStalled);
        }
    }
    if conn.pending_out() > 0 && elapsed_ms(conn.last_activity) > config.write_ms {
        return Sweep::Close(CloseReason::EvictedStalled);
    }
    if conn.msg_start.is_none() && conn.pending_out() == 0 {
        if stopping {
            // Draining: this connection owes us nothing and we owe it
            // nothing — close it now rather than wait out the deadline.
            return Sweep::Close(CloseReason::Clean);
        }
        if elapsed_ms(conn.last_activity) > config.idle_ms {
            return Sweep::Close(CloseReason::EvictedIdle);
        }
    }
    Sweep::Keep
}
