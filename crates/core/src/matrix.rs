//! Condensed pairwise distance matrices, computed in parallel.

use crate::distance::{host_ids, PacketDistance, PacketFeatures};
use leaksig_compress::Compressor;

/// A symmetric zero-diagonal matrix stored as the strict upper triangle.
#[derive(Debug, Clone)]
pub struct CondensedMatrix {
    n: usize,
    data: Vec<f64>,
}

impl CondensedMatrix {
    /// Matrix of `n` points, all distances zero.
    pub fn zeros(n: usize) -> Self {
        let cells = if n < 2 { 0 } else { n * (n - 1) / 2 };
        CondensedMatrix {
            n,
            data: vec![0.0; cells],
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        // Offset of row i in the condensed layout plus column offset.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Distance between points `i` and `j` (0 when `i == j`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match i.cmp(&j) {
            std::cmp::Ordering::Less => self.data[self.index(i, j)],
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Greater => self.data[self.index(j, i)],
        }
    }

    /// Set the distance between distinct points `i` and `j`.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let idx = if i < j {
            self.index(i, j)
        } else {
            self.index(j, i)
        };
        self.data[idx] = v;
    }
}

/// Split a condensed buffer into per-row mutable slices so worker threads
/// can write their claimed rows without locks or aliasing.
fn row_slices(n: usize, data: &mut [f64]) -> Vec<&mut [f64]> {
    let mut rows: Vec<&mut [f64]> = Vec::with_capacity(n - 1);
    let mut rest: &mut [f64] = data;
    for i in 0..n - 1 {
        let (row, tail) = rest.split_at_mut(n - i - 1);
        rows.push(row);
        rest = tail;
    }
    rows
}

/// Run `per_row(i, row)` over every condensed row on `threads` scoped
/// workers, rows claimed one at a time from a shared atomic index.
///
/// Row `i` costs `n − i − 1` cells, so a static deal (round-robin or
/// chunks) leaves the worker that drew the long early rows straggling
/// while the rest sit idle. Dynamic claiming in natural order hands out
/// the longest rows first and keeps every worker busy until the tail of
/// cheap rows drains — the classic longest-processing-time heuristic.
fn for_each_row_dynamic<F>(n: usize, data: &mut [f64], threads: usize, per_row: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    // Slots are `Mutex<Option<…>>` only to move each `&mut` row out to
    // exactly one worker; the atomic counter guarantees a slot is claimed
    // once, so the locks never contend.
    type RowSlot<'a> = std::sync::Mutex<Option<(usize, &'a mut [f64])>>;
    let slots: Vec<RowSlot<'_>> = row_slices(n, data)
        .into_iter()
        .enumerate()
        .map(|job| std::sync::Mutex::new(Some(job)))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (slots, next, per_row) = (&slots, &next, &per_row);
                scope.spawn(move |_| loop {
                    let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if k >= slots.len() {
                        break;
                    }
                    let (i, row) = slots[k].lock().unwrap().take().expect("row claimed twice");
                    per_row(i, row);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("distance worker panicked");
        }
    })
    .expect("crossbeam scope");
}

/// Compute the pairwise packet-distance matrix over `features`,
/// parallelised across all available cores with scoped threads.
///
/// Each worker claims whole rows from a shared atomic queue and computes
/// row `i` through [`PacketDistance::row`]: the three content fields of
/// packet `i` are compressed once into resumable encoder snapshots, and
/// every cell resumes those snapshots with packet `j`'s indexed fields —
/// O(n) prefix compressions instead of O(n²), with the per-pair cost
/// reduced to the `y`-side continuation. Destination hosts are numbered
/// once per call, so each row caches `d_host` in a vector by host id.
pub fn pairwise<C: Compressor + Sync>(
    dist: &PacketDistance<C>,
    features: &[PacketFeatures],
) -> CondensedMatrix {
    let n = features.len();
    if n < 2 {
        return CondensedMatrix::zeros(n);
    }
    let mut matrix = CondensedMatrix::zeros(n);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n - 1);
    let hosts = host_ids(features);
    for_each_row_dynamic(n, &mut matrix.data, threads, |i, row| {
        let mut rd = dist.row(&features[i]);
        for (off, cell) in row.iter_mut().enumerate() {
            let j = i + 1 + off;
            *cell = rd.packet_with_host(&features[j], hosts[j]);
        }
    });
    matrix
}

/// [`pairwise`] without resumable compressor state: every cell compresses
/// its concatenations from scratch via [`PacketDistance::packet`]. Same
/// dynamic row-claiming parallelism, so benchmarking this against
/// [`pairwise`] isolates exactly the snapshot-reuse win. Results are
/// bit-identical (the prefix contract demands exact counts) — asserted by
/// tests and by the bench harness before timing.
pub fn pairwise_naive<C: Compressor + Sync>(
    dist: &PacketDistance<C>,
    features: &[PacketFeatures],
) -> CondensedMatrix {
    let n = features.len();
    if n < 2 {
        return CondensedMatrix::zeros(n);
    }
    let mut matrix = CondensedMatrix::zeros(n);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n - 1);
    for_each_row_dynamic(n, &mut matrix.data, threads, |i, row| {
        for (off, cell) in row.iter_mut().enumerate() {
            let j = i + 1 + off;
            *cell = dist.packet(&features[i], &features[j]);
        }
    });
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::PacketDistance;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn feats(n: usize) -> Vec<PacketFeatures> {
        let d: PacketDistance = PacketDistance::default();
        (0..n)
            .map(|i| {
                let p = RequestBuilder::get("/x")
                    .query("i", &i.to_string())
                    .destination(
                        Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250) as u8),
                        80,
                        "h.jp",
                    )
                    .build();
                d.features(&p)
            })
            .collect()
    }

    #[test]
    fn condensed_indexing_round_trips() {
        let mut m = CondensedMatrix::zeros(5);
        let mut v = 1.0;
        for i in 0..5 {
            for j in i + 1..5 {
                m.set(i, j, v);
                v += 1.0;
            }
        }
        let mut expect = 1.0;
        for i in 0..5 {
            assert_eq!(m.get(i, i), 0.0);
            for j in i + 1..5 {
                assert_eq!(m.get(i, j), expect);
                assert_eq!(m.get(j, i), expect, "symmetry at ({i},{j})");
                expect += 1.0;
            }
        }
    }

    #[test]
    fn pairwise_matches_direct_computation() {
        let d: PacketDistance = PacketDistance::default();
        let f = feats(12);
        let m = pairwise(&d, &f);
        for i in 0..f.len() {
            for j in i + 1..f.len() {
                let direct = d.packet(&f[i], &f[j]);
                assert!(
                    (m.get(i, j) - direct).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn resumable_matrix_is_bit_identical_to_naive() {
        let d: PacketDistance = PacketDistance::default();
        let f = feats(23);
        let fast = pairwise(&d, &f);
        let naive = pairwise_naive(&d, &f);
        for i in 0..f.len() {
            for j in i + 1..f.len() {
                assert_eq!(fast.get(i, j), naive.get(i, j), "cell ({i},{j})");
                assert_eq!(naive.get(i, j), d.packet(&f[i], &f[j]), "direct ({i},{j})");
            }
        }
    }

    #[test]
    fn tiny_inputs() {
        let d: PacketDistance = PacketDistance::default();
        let one = pairwise(&d, &feats(1));
        assert_eq!(one.len(), 1);
        assert_eq!(one.get(0, 0), 0.0);
        let two = pairwise(&d, &feats(2));
        assert!(two.get(0, 1) >= 0.0);
    }
}
