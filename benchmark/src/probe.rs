//! Timing wrappers around the collector's two injectable traits: a
//! [`StateStore`] handed to `CollectionServer::with_store` and a
//! [`DiskIo`] handed to `WalStore::open`. Both forward every call
//! unchanged; while the shared [`Probe`] is enabled they also count and
//! time the calls. They run on the server thread, so this is how the
//! benchmark sees the state and WAL layers of a live TCP run without
//! tracing inside the program.
//!
//! `state.apply` calls are aggregated into counters (there are several
//! per record); a span is kept only for an apply that reached the disk,
//! with its disk calls as children.

use crate::trace::Span;
use leaksig_device::{ApplyOutcome, Durability, DurableState, StateOp, StateStore};
use leaksig_faults::DiskIo;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counters and spans gathered while enabled.
#[derive(Debug, Default, Clone)]
pub struct ProbeData {
    pub apply_calls: u64,
    pub ops: u64,
    pub apply_ns: u64,
    pub append_calls: u64,
    pub append_bytes: u64,
    pub append_ns: u64,
    pub sync_calls: u64,
    pub sync_ns: u64,
    /// Compactions: each ends in exactly one snapshot rename.
    pub renames: u64,
    pub spans: Vec<Span>,
}

pub struct Probe {
    enabled: AtomicBool,
    origin: Instant,
    data: Mutex<ProbeData>,
}

impl Probe {
    pub fn new(origin: Instant) -> Arc<Probe> {
        Arc::new(Probe {
            enabled: AtomicBool::new(false),
            origin,
            data: Mutex::new(ProbeData::default()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProbeData> {
        self.data.lock().expect("probe lock poisoned")
    }

    /// Take everything gathered so far.
    pub fn take(&self) -> ProbeData {
        std::mem::take(&mut *self.lock())
    }
}

/// The timing [`StateStore`].
pub struct TimedStore<S> {
    inner: S,
    probe: Arc<Probe>,
}

impl<S: StateStore> TimedStore<S> {
    pub fn new(inner: S, probe: Arc<Probe>) -> Self {
        TimedStore { inner, probe }
    }
}

impl<S: StateStore> StateStore for TimedStore<S> {
    fn state(&self) -> &DurableState {
        self.inner.state()
    }

    fn apply(&mut self, ops: &[StateOp]) -> ApplyOutcome {
        if !self.probe.on() {
            return self.inner.apply(ops);
        }
        let first_disk_span = self.probe.lock().spans.len();
        let start = Instant::now();
        let outcome = self.inner.apply(ops);
        let end = Instant::now();
        let mut d = self.probe.lock();
        d.apply_calls += 1;
        d.ops += ops.len() as u64;
        d.apply_ns += end.duration_since(start).as_nanos() as u64;
        if d.spans.len() > first_disk_span {
            let idx = d.spans.len();
            for s in &mut d.spans[first_disk_span..] {
                s.parent = Some(idx);
            }
            let span = Span {
                name: "state.apply",
                id: 0,
                parent: None,
                start_ns: self.probe.ns(start),
                end_ns: self.probe.ns(end),
            };
            d.spans.push(span);
        }
        outcome
    }

    fn flush(&mut self) {
        self.inner.flush()
    }

    fn compact(&mut self) {
        self.inner.compact()
    }

    fn durability(&self) -> Durability {
        self.inner.durability()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// The timing [`DiskIo`].
pub struct TimedDisk<D> {
    inner: D,
    probe: Arc<Probe>,
}

impl<D: DiskIo> TimedDisk<D> {
    pub fn new(inner: D, probe: Arc<Probe>) -> Self {
        TimedDisk { inner, probe }
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        bytes: usize,
        call: impl FnOnce(&mut D) -> io::Result<T>,
    ) -> io::Result<T> {
        if !self.probe.on() {
            return call(&mut self.inner);
        }
        let start = Instant::now();
        let result = call(&mut self.inner);
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        let mut d = self.probe.lock();
        match name {
            "wal.append" => {
                d.append_calls += 1;
                d.append_bytes += bytes as u64;
                d.append_ns += ns;
            }
            "wal.sync" => {
                d.sync_calls += 1;
                d.sync_ns += ns;
            }
            "wal.rename" => d.renames += 1,
            _ => {}
        }
        let span = Span {
            name,
            id: 0,
            parent: None,
            start_ns: self.probe.ns(start),
            end_ns: self.probe.ns(end),
        };
        d.spans.push(span);
        result
    }
}

impl<D: DiskIo> DiskIo for TimedDisk<D> {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        self.timed("wal.create_dir", 0, |d| d.create_dir_all(dir))
    }

    fn read_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.timed("wal.read_dir", 0, |d| d.read_dir(dir))
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed("wal.read", 0, |d| d.read(path))
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed("wal.write", bytes.len(), |d| d.write(path, bytes))
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed("wal.append", bytes.len(), |d| d.append(path, bytes))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed("wal.rename", 0, |d| d.rename(from, to))
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.timed("wal.remove", 0, |d| d.remove(path))
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        self.timed("wal.sync", 0, |d| d.sync(path))
    }
}
