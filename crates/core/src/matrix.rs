//! Condensed pairwise distance matrices, computed in parallel.

use crate::distance::{host_ids, rline_ids, PacketDistance, PacketFeatures};
use crate::par;
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
    ///
    /// # Panics
    ///
    /// When either point is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i.max(j) < self.n,
            "CondensedMatrix::get({i}, {j}): out of range for {} points",
            self.n
        );
        if i == j {
            0.0
        } else {
            self.cell(i, j)
        }
    }

    /// Condensed offset of distinct points `i` and `j`, in either order.
    #[inline]
    fn slot(&self, i: usize, j: usize) -> usize {
        if i < j {
            self.index(i, j)
        } else {
            self.index(j, i)
        }
    }

    /// The distance of distinct points `i` and `j`, for hot loops that
    /// only index points they know are live: no range assertion beyond
    /// the slice's own bounds check.
    #[inline]
    pub(crate) fn cell(&self, i: usize, j: usize) -> f64 {
        self.data[self.slot(i, j)]
    }

    /// [`CondensedMatrix::cell`], writable.
    #[inline]
    pub(crate) fn cell_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        let slot = self.slot(i, j);
        &mut self.data[slot]
    }

    /// Set the distance between distinct points `i` and `j`.
    ///
    /// # Panics
    ///
    /// When `i == j` (the diagonal is fixed at zero and has no cell) or
    /// either point is out of range.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i != j,
            "CondensedMatrix::set({i}, {j}): the diagonal has no cell"
        );
        assert!(
            i.max(j) < self.n,
            "CondensedMatrix::set({i}, {j}): out of range for {} points",
            self.n
        );
        *self.cell_mut(i, j) = v;
    }
}

/// Split the condensed buffer of an `n`-point matrix into its `n − 1`
/// rows, so workers can write their claimed rows without locks or
/// aliasing.
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

/// `rows` — the condensed rows `0..n − 1` of an `n`-point matrix —
/// grouped by request-line id ([`rline_ids`], `n` ids), each row paired
/// with its index, costliest group first (ties: earliest first row), each
/// group's rows in order.
///
/// Row `i` costs `n − i − 1` cells, so a static deal (round-robin or
/// chunks) leaves the worker that drew the long early rows straggling
/// while the rest sit idle. Handing the groups out costliest first to
/// workers that claim them one at a time keeps every worker busy until
/// the tail of cheap groups drains: the classic longest-processing-time
/// heuristic.
fn rline_groups<'m>(
    rlines: &[usize],
    rows: Vec<&'m mut [f64]>,
) -> Vec<Vec<(usize, &'m mut [f64])>> {
    let mut groups: Vec<Vec<(usize, &mut [f64])>> = Vec::new();
    // Ids are numbered in order of first appearance, so each id met here
    // is either known or the next one.
    for (i, row) in rows.into_iter().enumerate() {
        let id = rlines[i];
        if id == groups.len() {
            groups.push(Vec::new());
        }
        groups[id].push((i, row));
    }
    groups.sort_by_key(|g| {
        let cells = g.iter().map(|(_, row)| row.len()).sum::<usize>();
        (std::cmp::Reverse(cells), g[0].0)
    });
    groups
}

/// The distinct request lines of `features` in byte order, each as
/// `(id, first row, last row)` with `id` from [`rline_ids`] (`rlines`).
fn rlines_in_byte_order(
    features: &[PacketFeatures],
    rlines: &[usize],
) -> Vec<(usize, usize, usize)> {
    let mut spans: Vec<(usize, usize, usize)> = Vec::new();
    for (i, &id) in rlines.iter().enumerate() {
        if id == spans.len() {
            spans.push((id, i, i));
        } else {
            spans[id].2 = i;
        }
    }
    spans.sort_unstable_by_key(|&(_, first, _)| &features[first].rline[..]);
    spans
}

/// Compute the pairwise packet-distance matrix over `features`,
/// parallelised across all available cores.
///
/// Rows are grouped by request line, and each worker claims whole groups,
/// costliest first, from one shared queue. A group computes its rows
/// through one row distance, rebased from row to row: the row packet's
/// content fields are compressed once into resumable encoder snapshots,
/// and every cell resumes those snapshots with packet `j`'s indexed fields
/// — O(n) prefix compressions instead of O(n²), with the per-pair cost
/// reduced to the `y`-side continuation. Destination hosts and request
/// lines are numbered once per call. The group caches `d_host` by host id,
/// and before its first row it measures `C(rline_i ⊕ rline_j)` for every
/// request line that occurs after that row, once each and in byte order,
/// so consecutive continuations share long prefixes the LZSS prefix
/// state resumes from. Each distinct ordered pair of request lines is thus
/// compressed once per call, however often the sample repeats them. Each
/// cache is one vector per group, O(distinct).
pub fn pairwise<C: Compressor + Sync>(
    dist: &PacketDistance<C>,
    features: &[PacketFeatures],
) -> CondensedMatrix {
    pairwise_until(dist, features, par::NEVER).expect("a matrix with no deadline completes")
}

/// [`pairwise`] that gives up once `expired()` turns true: each
/// request-line group checks it before its first row, and `None` means
/// some group never ran.
pub(crate) fn pairwise_until<C: Compressor + Sync>(
    dist: &PacketDistance<C>,
    features: &[PacketFeatures],
    expired: par::Expired<'_>,
) -> Option<CondensedMatrix> {
    let n = features.len();
    if n < 2 {
        return Some(CondensedMatrix::zeros(n));
    }
    let mut matrix = CondensedMatrix::zeros(n);
    let (hosts, rlines) = (host_ids(features), rline_ids(features));
    let sorted = rlines_in_byte_order(features, &rlines);
    let groups = rline_groups(&rlines, row_slices(n, &mut matrix.data));
    let finished = par::for_each_claimed_until(
        groups,
        || (),
        |_, rows| {
            let first = rows[0].0;
            let mut rd = dist.row(&features[first]);
            rd.measure_rlines(
                sorted
                    .iter()
                    .filter(|&&(_, _, last)| last > first)
                    .map(|&(id, at, _)| (id, &features[at].rline)),
            );
            for (i, row) in rows {
                if i != first {
                    rd.rebase(&features[i]);
                }
                for (off, cell) in row.iter_mut().enumerate() {
                    let j = i + 1 + off;
                    *cell = rd.packet_with_ids(&features[j], hosts[j], rlines[j]);
                }
            }
        },
        expired,
    );
    finished.then_some(matrix)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::distance::{DistanceConfig, PacketDistance};
    use leaksig_compress::{DecodeError, IndexedBytes, Lzss, Lzw, PrefixState};
    use leaksig_http::{HttpPacket, RequestBuilder};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// `pairwise` from scratch: every cell compresses its concatenations
    /// anew via `PacketDistance::packet` — no resumable compressor state,
    /// no request-line or host cache — one row per claimed job under the same
    /// fan-out. It is the oracle `pairwise` must equal bit for
    /// bit (the prefix contract demands exact counts, and every cache holds a
    /// pure function of two strings).
    fn pairwise_naive<C: Compressor + Sync>(
        dist: &PacketDistance<C>,
        features: &[PacketFeatures],
    ) -> CondensedMatrix {
        let n = features.len();
        if n < 2 {
            return CondensedMatrix::zeros(n);
        }
        let mut matrix = CondensedMatrix::zeros(n);
        let rows = row_slices(n, &mut matrix.data)
            .into_iter()
            .enumerate()
            .collect();
        par::for_each_claimed(
            rows,
            || (),
            |_, (i, row): (usize, &mut [f64])| {
                for (off, cell) in row.iter_mut().enumerate() {
                    let j = i + 1 + off;
                    *cell = dist.packet(&features[i], &features[j]);
                }
            },
        );
        matrix
    }

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
    #[should_panic(expected = "the diagonal has no cell")]
    fn set_on_the_diagonal_panics() {
        // Unchecked, (3, 3) wrote the cell of (2, 4) and (0, 0) indexed
        // out of bounds.
        CondensedMatrix::zeros(5).set(3, 3, 7.0);
    }

    #[test]
    #[should_panic(expected = "out of range for 5 points")]
    fn set_out_of_range_panics() {
        CondensedMatrix::zeros(5).set(0, 5, 7.0);
    }

    #[test]
    #[should_panic(expected = "out of range for 5 points")]
    fn get_out_of_range_panics() {
        // Unchecked, (0, 5) read the cell of (1, 2).
        let mut m = CondensedMatrix::zeros(5);
        m.set(1, 2, 7.0);
        m.get(0, 5);
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

    /// One packet from a small alphabet, so request lines repeat heavily
    /// and cookie and body are empty on one side, both or neither.
    fn alphabet_packet(
        (post, path, value, cookie, body, host): (bool, usize, usize, usize, usize, usize),
    ) -> HttpPacket {
        const PATHS: [&str; 3] = ["/a", "/ad/get", "/a"];
        const VALUES: [&str; 3] = ["1", "355195000000017", "x"];
        const COOKIES: [&str; 3] = ["", "sid=1", "sid=2; t=9"];
        const BODIES: [&str; 3] = ["", "imei=355195000000017", "k=v"];
        const HOSTS: [&str; 3] = ["a.jp", "ads.example.com", "a.jp.example"];
        let b = if post {
            RequestBuilder::post(PATHS[path])
        } else {
            RequestBuilder::get(PATHS[path])
        };
        let mut b = b.query("q", VALUES[value]).body(BODIES[body]);
        if !COOKIES[cookie].is_empty() {
            b = b.cookie(COOKIES[cookie]);
        }
        b.destination(
            Ipv4Addr::new(10, 0, 0, host as u8),
            80 + host as u16,
            HOSTS[host],
        )
        .build()
    }

    fn assert_bit_identical<C: Compressor + Sync>(d: &PacketDistance<C>, packets: &[HttpPacket]) {
        let f: Vec<_> = packets.iter().map(|p| d.features(p)).collect();
        let (fast, naive) = (pairwise(d, &f), pairwise_naive(d, &f));
        for i in 0..f.len() {
            for j in i + 1..f.len() {
                let direct = d.packet(&f[i], &f[j]).to_bits();
                assert_eq!(fast.get(i, j).to_bits(), direct, "pairwise ({i},{j})");
                assert_eq!(naive.get(i, j).to_bits(), direct, "naive ({i},{j})");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The request-line cache and group schedule change no bit of the
        /// matrix, under the LZSS snapshot prefix and the LZW re-encoding
        /// fallback alike.
        #[test]
        fn grouped_matrix_is_bit_identical(
            packets in proptest::collection::vec(
                (any::<bool>(), 0usize..3, 0usize..3, 0usize..3, 0usize..3, 0usize..3)
                    .prop_map(alphabet_packet),
                0..24,
            ),
        ) {
            assert_bit_identical(&PacketDistance::<Lzss>::default(), &packets);
            assert_bit_identical(&PacketDistance::new(Lzw, DistanceConfig::default()), &packets);
        }
    }

    /// [`Lzss`] with every [`PrefixState::concat_len`] call counted.
    #[derive(Default)]
    pub(crate) struct CountingLzss {
        inner: Lzss,
        pub(crate) calls: Arc<AtomicUsize>,
    }

    struct CountingPrefix<'a> {
        inner: Box<dyn PrefixState + 'a>,
        calls: &'a AtomicUsize,
    }

    impl PrefixState for CountingPrefix<'_> {
        fn concat_len(&mut self, y: &IndexedBytes) -> usize {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.concat_len(y)
        }
    }

    impl Compressor for CountingLzss {
        fn compress(&self, data: &[u8]) -> Vec<u8> {
            self.inner.compress(data)
        }

        fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, DecodeError> {
            self.inner.decompress(data)
        }

        fn compressed_len(&self, data: &[u8]) -> usize {
            self.inner.compressed_len(data)
        }

        fn begin_prefix<'a>(&'a self, x: &'a IndexedBytes) -> Box<dyn PrefixState + 'a> {
            Box::new(CountingPrefix {
                inner: self.inner.begin_prefix(x),
                calls: &self.calls,
            })
        }
    }

    /// `pairwise` compresses each distinct ordered pair of non-empty
    /// request lines once, plus one cookie or body concatenation per pair
    /// whose fields are both non-empty.
    #[test]
    fn pairwise_compresses_each_distinct_request_line_pair_once() {
        let packets: Vec<HttpPacket> = (0..60)
            .map(|k| alphabet_packet((k % 2 == 0, k % 3, k % 5 % 3, k % 7 % 3, k % 4 % 3, k % 3)))
            .collect();
        let counting = CountingLzss::default();
        let calls = Arc::clone(&counting.calls);
        let d = PacketDistance::new(counting, DistanceConfig::default());
        let f: Vec<_> = packets.iter().map(|p| d.features(p)).collect();
        let mut rline_pairs = std::collections::HashSet::new();
        let (mut cookie, mut body) = (0, 0);
        for i in 0..f.len() {
            for j in i + 1..f.len() {
                rline_pairs.insert((&f[i].rline[..], &f[j].rline[..]));
                cookie += usize::from(!f[i].cookie.is_empty() && !f[j].cookie.is_empty());
                body += usize::from(!f[i].body.is_empty() && !f[j].body.is_empty());
            }
        }
        assert!(
            rline_pairs.len() * 4 < f.len() * (f.len() - 1) / 2,
            "fixture repeats lines"
        );
        assert!(cookie > 0 && body > 0);
        pairwise(&d, &f);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            rline_pairs.len() + cookie + body
        );
    }

    /// Once `expired()` turns true no further request-line group starts:
    /// with the check flipping at the first concatenation, each worker
    /// finishes at most the group it held. Every request line here is
    /// distinct, so a group is one row, and a row costs at most one
    /// concatenation per later request line plus a cookie and a body one
    /// per cell.
    #[test]
    fn expiry_stops_the_matrix_within_one_group_per_worker() {
        let n = 60;
        let packets: Vec<HttpPacket> = (0..n)
            .map(|i| {
                RequestBuilder::post(&format!("/r{i}"))
                    .cookie("sid=1")
                    .body(format!("imei=355195000000017&n={i}"))
                    .destination(Ipv4Addr::new(10, 0, 0, 1), 80, "a.jp")
                    .build()
            })
            .collect();
        let counting = CountingLzss::default();
        let calls = Arc::clone(&counting.calls);
        let d = PacketDistance::new(counting, DistanceConfig::default());
        let f: Vec<_> = packets.iter().map(|p| d.features(p)).collect();
        let full = {
            pairwise(&d, &f);
            calls.swap(0, Ordering::Relaxed)
        };

        let expired = || calls.load(Ordering::Relaxed) > 0;
        assert!(pairwise_until(&d, &f, &expired).is_none());
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let spent = calls.load(Ordering::Relaxed);
        assert!(
            spent <= cores * 3 * (n - 1),
            "{spent} concatenations on {cores} cores"
        );
        assert!(spent * 4 < full, "{spent} of {full}: the matrix ran on");
    }
}
