//! The crash-safe generation directory both durable stores sit on.
//!
//! A directory holds numbered generations of one snapshot (`g` is a
//! monotonically increasing `u64`):
//!
//! ```text
//! <prefix>.<g>.snap    one LEAKFRAME/1 frame wrapping the caller's payload
//! <companion>.<g>.log  optional per-generation companion file (the WAL)
//! *.tmp                in-flight commit output (crash debris; swept)
//! ```
//!
//! **Commit** writes the framed payload to `<prefix>.<g>.snap.tmp`,
//! fsyncs it, then renames it into place, so the final path only ever
//! holds a complete, durable frame. A failed step removes the temp file
//! (best effort) and reports the error; the previous generation is
//! untouched. **Open** sweeps `*.tmp` debris, so a process that crashes
//! on every commit cannot grow the directory without bound. **Load**
//! walks generations newest-first and returns the first whose frame
//! verifies and whose payload the caller's decoder accepts, counting
//! the ones it skipped. **Prune** keeps the newest `keep` generations
//! (with their companions) and sweeps everything older.
//!
//! All I/O goes through a [`DiskIo`], so the whole protocol runs
//! unchanged against `leaksig-faults`' `FaultyDisk`.

use std::io;
use std::path::{Path, PathBuf};

use leaksig_core::wire::{frame_bytes, unframe_bytes_partial, BytesProgress};
use leaksig_faults::DiskIo;

/// One generation directory on one disk.
pub(crate) struct GenerationDir {
    dir: PathBuf,
    disk: Box<dyn DiskIo>,
    prefix: &'static str,
    companion: Option<&'static str>,
}

/// What [`GenerationDir::open`] found.
pub(crate) struct Listing {
    /// Snapshot generations on disk, ascending (content unverified).
    pub generations: Vec<u64>,
    /// `*.tmp` files removed.
    pub swept: usize,
}

/// What [`GenerationDir::load_newest`] found.
pub(crate) struct Loaded<T> {
    /// The newest generation that verified and decoded, with its value.
    pub newest: Option<(u64, T)>,
    /// Newer snapshot files that failed to read, verify or decode.
    pub skipped: usize,
}

/// `<prefix>.<g>.<ext>` → `g`.
fn parse_gen(path: &Path, prefix: &str, ext: &str) -> Option<u64> {
    file_name(path)?
        .strip_prefix(prefix)?
        .strip_prefix('.')?
        .strip_suffix(ext)?
        .strip_suffix('.')?
        .parse()
        .ok()
}

fn file_name(path: &Path) -> Option<&str> {
    path.file_name()?.to_str()
}

fn is_tmp(path: &Path) -> bool {
    file_name(path).is_some_and(|name| name.ends_with(".tmp"))
}

impl GenerationDir {
    /// Open `dir` (created if absent), sweep `*.tmp` debris and list the
    /// snapshot generations. Fails only when the directory cannot be
    /// created or listed; a failed sweep is left for the next prune.
    pub fn open(
        dir: PathBuf,
        mut disk: Box<dyn DiskIo>,
        prefix: &'static str,
        companion: Option<&'static str>,
    ) -> io::Result<(GenerationDir, Listing)> {
        disk.create_dir_all(&dir)?;
        let entries = disk.read_dir(&dir)?;
        let mut gens = GenerationDir {
            dir,
            disk,
            prefix,
            companion,
        };
        let swept = entries
            .iter()
            .filter(|p| is_tmp(p) && gens.disk.remove(p).is_ok())
            .count();
        let generations = gens.snapshot_generations(&entries);
        Ok((gens, Listing { generations, swept }))
    }

    /// The directory itself.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The disk, for I/O on companion files.
    pub fn disk(&mut self) -> &mut dyn DiskIo {
        self.disk.as_mut()
    }

    /// Path of generation `g`'s snapshot.
    pub fn snap_path(&self, g: u64) -> PathBuf {
        self.dir.join(format!("{}.{g}.snap", self.prefix))
    }

    /// Path of generation `g`'s companion file.
    pub fn companion_path(&self, g: u64) -> PathBuf {
        let companion = self.companion.expect("directory opened with a companion");
        self.dir.join(format!("{companion}.{g}.log"))
    }

    /// Snapshot generations currently on disk, ascending.
    pub fn list(&mut self) -> io::Result<Vec<u64>> {
        let entries = self.disk.read_dir(&self.dir)?;
        Ok(self.snapshot_generations(&entries))
    }

    fn snapshot_generations(&self, entries: &[PathBuf]) -> Vec<u64> {
        let mut gens: Vec<u64> = entries
            .iter()
            .filter_map(|p| parse_gen(p, self.prefix, "snap"))
            .collect();
        gens.sort_unstable();
        gens.dedup();
        gens
    }

    /// The newest of `generations` whose frame verifies and whose
    /// payload `decode(g, payload)` accepts.
    pub fn load_newest<T>(
        &mut self,
        generations: &[u64],
        mut decode: impl FnMut(u64, &[u8]) -> Option<T>,
    ) -> Loaded<T> {
        let mut skipped = 0;
        for &g in generations.iter().rev() {
            let value = match self.disk.read(&self.snap_path(g)) {
                Ok(bytes) => match unframe_bytes_partial(&bytes) {
                    Ok(BytesProgress::Complete { payload, consumed })
                        if consumed == bytes.len() =>
                    {
                        decode(g, payload)
                    }
                    _ => None,
                },
                Err(_) => None,
            };
            match value {
                Some(value) => {
                    return Loaded {
                        newest: Some((g, value)),
                        skipped,
                    }
                }
                None => skipped += 1,
            }
        }
        Loaded {
            newest: None,
            skipped,
        }
    }

    /// Make `payload` generation `g`: write the frame to a temp file,
    /// fsync it, rename it into place. On failure the temp file is
    /// removed (best effort) and nothing at the final path changed.
    pub fn commit(&mut self, g: u64, payload: &[u8]) -> io::Result<()> {
        let final_path = self.snap_path(g);
        let tmp_path = self.dir.join(format!("{}.{g}.snap.tmp", self.prefix));
        let landed = self
            .disk
            .write(&tmp_path, &frame_bytes(payload))
            .and_then(|()| self.disk.sync(&tmp_path))
            .and_then(|()| self.disk.rename(&tmp_path, &final_path));
        if landed.is_err() {
            let _ = self.disk.remove(&tmp_path);
        }
        landed
    }

    /// Keep the newest `keep` generations up to `newest` (snapshot plus
    /// companion) and remove older ones and any `*.tmp` debris.
    /// Best-effort: leftover files only cost bytes, never correctness.
    pub fn prune(&mut self, newest: u64, keep: usize) {
        let cutoff = newest.saturating_sub(keep.max(1) as u64 - 1);
        let Ok(entries) = self.disk.read_dir(&self.dir) else {
            return;
        };
        for path in entries {
            let stale = is_tmp(&path)
                || parse_gen(&path, self.prefix, "snap").is_some_and(|g| g < cutoff)
                || self
                    .companion
                    .and_then(|c| parse_gen(&path, c, "log"))
                    .is_some_and(|g| g < cutoff);
            if stale {
                let _ = self.disk.remove(&path);
            }
        }
    }
}
