//! Group-average agglomerative clustering (§IV-D).
//!
//! The paper assigns each packet its own cluster, then repeatedly merges
//! the closest pair under the group-average (UPGMA) rule until one
//! cluster remains, producing a dendrogram. We implement exactly that,
//! with the Lance–Williams update for group-average linkage:
//!
//! ```text
//! d(k, i∪j) = (|i|·d(k,i) + |j|·d(k,j)) / (|i| + |j|)
//! ```
//!
//! which avoids ever revisiting the raw point distances.
//!
//! [`agglomerate`] runs the **nearest-neighbour-chain** algorithm:
//! follow nearest-neighbour links until they cycle (a mutual pair), merge
//! that pair, continue from the surviving chain. Every linkage here is
//! *reducible* — `d(k, i∪j) ≥ min(d(k,i), d(k,j))` — so merging a mutual
//! pair never invalidates the rest of the chain, which bounds total work
//! at O(n²) (each of the ≤ 2(n−1) chain extensions is one O(n) scan)
//! against the O(n³) worst case of a rescan-on-invalidation NN cache.
//! NN-chain discovers the merges of the greedy closest-pair algorithm in
//! chain order, not distance order, so the merge list is then replayed
//! into greedy order (see `replay_greedy_order`), making the result
//! merge-for-merge identical to the greedy algorithm on tie-free
//! matrices (the unit tests keep it as `agglomerate_legacy_with`, the
//! oracle). Both paths work directly on condensed O(n²/2) storage — no
//! full `n × n` inflation (32 MB at n = 2000).

use crate::matrix::CondensedMatrix;

/// Linkage rule: how the distance between clusters is derived from
/// point distances. The paper prescribes group average (§IV-D); single
/// and complete linkage are provided for comparison — single linkage
/// chains through near-duplicates (useful to see why the paper avoided
/// it), complete linkage is the most conservative merger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Linkage {
    /// UPGMA: `d(k, i∪j) = (|i|·d(k,i) + |j|·d(k,j)) / (|i|+|j|)`.
    #[default]
    GroupAverage,
    /// Nearest member: `d(k, i∪j) = min(d(k,i), d(k,j))`.
    Single,
    /// Farthest member: `d(k, i∪j) = max(d(k,i), d(k,j))`.
    Complete,
}

/// One merge step. Node ids follow the scipy linkage convention: leaves
/// are `0..n`, the cluster created by merge `m` has id `n + m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// Merged node id (leaf or earlier merge).
    pub a: usize,
    /// Merged node id.
    pub b: usize,
    /// Group-average distance between `a` and `b` at merge time.
    pub distance: f64,
    /// Leaves under the new cluster.
    pub size: usize,
}

/// The full merge history over `n` leaves (`n − 1` merges).
#[derive(Debug, Clone)]
pub struct Dendrogram {
    n: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.n
    }

    /// The merges, in execution order (non-decreasing distance is NOT
    /// guaranteed by group-average linkage: inversions are possible).
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// The leaf members of node `id` (a leaf or an internal node).
    pub fn members(&self, id: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(node) = stack.pop() {
            if node < self.n {
                out.push(node);
            } else {
                let m = &self.merges[node - self.n];
                stack.push(m.a);
                stack.push(m.b);
            }
        }
        out.sort_unstable();
        out
    }

    /// Cut the dendrogram at `threshold`: clusters are the maximal nodes
    /// whose merge distance is ≤ `threshold`. Returns leaf partitions,
    /// largest first.
    pub fn cut(&self, threshold: f64) -> Vec<Vec<usize>> {
        self.cut_nodes(threshold)
            .into_iter()
            .map(|id| self.members(id))
            .collect()
    }

    /// The node ids behind [`Dendrogram::cut`], in the same order: largest
    /// first, then by member list. The clusters of a cut are disjoint, so
    /// their sorted member lists compare as their smallest members do.
    pub fn cut_nodes(&self, threshold: f64) -> Vec<usize> {
        if self.n == 0 {
            return Vec::new();
        }
        // A node survives the cut if it is a leaf or its merge distance is
        // within threshold; clusters are survivor nodes whose parent (if
        // any) does not survive. A merge's children are earlier nodes, so
        // one pass in id order finds every node's smallest leaf.
        let total = self.n + self.merges.len();
        let mut parent = vec![usize::MAX; total];
        let mut first: Vec<usize> = (0..total).collect();
        for (m, merge) in self.merges.iter().enumerate() {
            parent[merge.a] = self.n + m;
            parent[merge.b] = self.n + m;
            first[self.n + m] = first[merge.a].min(first[merge.b]);
        }
        let size = |id: usize| {
            if id < self.n {
                1
            } else {
                self.merges[id - self.n].size
            }
        };
        let survives = |id: usize| id < self.n || self.merges[id - self.n].distance <= threshold;
        let mut nodes: Vec<usize> = (0..total)
            .filter(|&id| survives(id) && (parent[id] == usize::MAX || !survives(parent[id])))
            .collect();
        nodes.sort_by_key(|&id| (std::cmp::Reverse(size(id)), first[id]));
        nodes
    }

    /// Cut into (at most) `k` clusters by undoing the last merges.
    /// Returns leaf partitions, largest first.
    pub fn cut_into(&self, k: usize) -> Vec<Vec<usize>> {
        if self.n == 0 || k == 0 {
            return Vec::new();
        }
        let keep_merges = self
            .merges
            .len()
            .saturating_sub(k.saturating_sub(1).min(self.merges.len()));
        // Nodes: leaves plus the first `keep_merges` merges; clusters are
        // the roots of that forest.
        let total = self.n + keep_merges;
        let mut parent = vec![usize::MAX; total];
        for (m, merge) in self.merges.iter().take(keep_merges).enumerate() {
            parent[merge.a] = self.n + m;
            parent[merge.b] = self.n + m;
        }
        let mut clusters = Vec::new();
        for (id, &par) in parent.iter().enumerate() {
            if par == usize::MAX {
                clusters.push(self.members_bounded(id, keep_merges));
            }
        }
        clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        clusters
    }

    fn members_bounded(&self, id: usize, keep: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(node) = stack.pop() {
            if node < self.n {
                out.push(node);
            } else {
                debug_assert!(node - self.n < keep);
                let m = &self.merges[node - self.n];
                stack.push(m.a);
                stack.push(m.b);
            }
        }
        out.sort_unstable();
        out
    }
}

/// Run group-average agglomerative clustering over a precomputed distance
/// matrix (the paper's §IV-D configuration) with the nearest-neighbour-
/// chain algorithm: guaranteed `O(n²)` time on condensed `O(n²/2)`
/// storage.
pub fn agglomerate(matrix: &CondensedMatrix) -> Dendrogram {
    agglomerate_with(matrix, Linkage::GroupAverage)
}

/// Lance–Williams cluster-distance update, shared by both agglomeration
/// paths so their arithmetic cannot drift.
#[inline]
fn lance_williams(linkage: Linkage, si: f64, sj: f64, dik: f64, djk: f64) -> f64 {
    match linkage {
        Linkage::GroupAverage => (si * dik + sj * djk) / (si + sj),
        Linkage::Single => dik.min(djk),
        Linkage::Complete => dik.max(djk),
    }
}

/// `f64` ordered by `total_cmp`, for the replay heap.
#[derive(PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Reorder NN-chain merges (creation order, child ids referring to that
/// order) into the greedy closest-pair execution order.
///
/// A merge is *ready* once both children exist as active clusters — i.e.
/// leaves, or already-replayed internal nodes. Among ready merges, the one
/// with minimal distance is exactly the merge the greedy algorithm
/// performs next: every ready merge's distance is a distance between two
/// currently-active clusters, and the globally closest active pair is
/// itself a tree merge (the closest pair are mutual nearest neighbours,
/// which the NN-chain merged), so the minimum over ready merges *is* the
/// global minimum. Replaying through a min-heap keyed by
/// `(distance, creation index)` therefore reproduces the greedy order —
/// uniquely so on tie-free matrices; the index tiebreak keeps it
/// deterministic otherwise. Group-average inversions (a parent closer
/// than its child) are handled naturally: the parent is not ready until
/// the child has been replayed.
fn replay_greedy_order(n: usize, raw: Vec<Merge>) -> Vec<Merge> {
    let m = raw.len();
    // For each raw merge: how many children are unreplayed internal
    // nodes, and which raw merge is its parent.
    let mut pending: Vec<u8> = Vec::with_capacity(m);
    let mut parent: Vec<usize> = vec![usize::MAX; m];
    for (t, mg) in raw.iter().enumerate() {
        pending.push((mg.a >= n) as u8 + (mg.b >= n) as u8);
        if mg.a >= n {
            parent[mg.a - n] = t;
        }
        if mg.b >= n {
            parent[mg.b - n] = t;
        }
    }
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(OrdF64, usize)>> =
        std::collections::BinaryHeap::with_capacity(m);
    for (t, p) in pending.iter().enumerate() {
        if *p == 0 {
            heap.push(std::cmp::Reverse((OrdF64(raw[t].distance), t)));
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(m);
    while let Some(std::cmp::Reverse((_, t))) = heap.pop() {
        order.push(t);
        let par = parent[t];
        if par != usize::MAX {
            pending[par] -= 1;
            if pending[par] == 0 {
                heap.push(std::cmp::Reverse((OrdF64(raw[par].distance), par)));
            }
        }
    }
    debug_assert_eq!(order.len(), m);
    // Renumber internal node ids from creation order to replay order.
    let mut new_pos = vec![0usize; m];
    for (pos, &t) in order.iter().enumerate() {
        new_pos[t] = pos;
    }
    let remap = |id: usize| if id < n { id } else { n + new_pos[id - n] };
    order
        .iter()
        .map(|&t| {
            let mg = raw[t];
            Merge {
                a: remap(mg.a),
                b: remap(mg.b),
                distance: mg.distance,
                size: mg.size,
            }
        })
        .collect()
}

/// [`agglomerate`] under an explicit linkage rule (NN-chain).
pub fn agglomerate_with(matrix: &CondensedMatrix, linkage: Linkage) -> Dendrogram {
    agglomerate_owned(matrix.clone(), linkage)
}

/// [`agglomerate_with`] on a matrix the caller no longer needs: the
/// clustering updates it in place as its working copy instead of cloning
/// it (16 MB at N = 2000).
pub fn agglomerate_owned(matrix: CondensedMatrix, linkage: Linkage) -> Dendrogram {
    agglomerate_until(matrix, linkage, crate::par::NEVER)
        .expect("clustering with no deadline completes")
}

/// [`agglomerate_owned`] that checks `expired()` before every merge and
/// gives up (`None`) once it is true.
pub(crate) fn agglomerate_until(
    matrix: CondensedMatrix,
    linkage: Linkage,
    expired: crate::par::Expired<'_>,
) -> Option<Dendrogram> {
    let n = matrix.len();
    if n < 2 {
        return Some(Dendrogram {
            n,
            merges: Vec::new(),
        });
    }

    // Working cluster distances, updated in place on condensed storage.
    let mut w = matrix;
    // Live working slots, ascending: each scan below visits them in the
    // order a scan of all `n` slots would, skipping the dead ones free.
    let mut live: Vec<usize> = (0..n).collect();
    let mut size: Vec<usize> = vec![1; n];
    // Dendrogram node id (creation order) of working slot `i`.
    let mut node: Vec<usize> = (0..n).collect();

    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut raw: Vec<Merge> = Vec::with_capacity(n - 1);

    while raw.len() < n - 1 {
        if expired() {
            return None;
        }
        if chain.is_empty() {
            chain.push(live[0]);
        }
        // Extend the chain by nearest neighbours until it folds back.
        loop {
            let a = *chain.last().unwrap();
            let prev = if chain.len() >= 2 {
                chain[chain.len() - 2]
            } else {
                usize::MAX
            };
            let mut best = f64::INFINITY;
            let mut best_j = usize::MAX;
            for &j in &live {
                if j != a {
                    let d = w.cell(a, j);
                    if d < best {
                        best = d;
                        best_j = j;
                    }
                }
            }
            // Tie preference for the chain predecessor: guarantees the
            // chain's link distances strictly decrease, hence termination
            // even on all-tied matrices.
            if prev != usize::MAX && w.get(a, prev) <= best {
                best_j = prev;
            }
            if best_j != prev {
                chain.push(best_j);
                continue;
            }

            // `a` and `prev` are mutual nearest neighbours: merge them.
            chain.pop();
            chain.pop();
            let (i, j) = if a < prev { (a, prev) } else { (prev, a) };
            raw.push(Merge {
                a: node[i],
                b: node[j],
                distance: w.get(i, j),
                size: size[i] + size[j],
            });
            let (si, sj) = (size[i] as f64, size[j] as f64);
            for &k in &live {
                if k != i && k != j {
                    let djk = w.cell(j, k);
                    let cell = w.cell_mut(i, k);
                    *cell = lance_williams(linkage, si, sj, *cell, djk);
                }
            }
            size[i] += size[j];
            let dead = live.binary_search(&j).expect("merged slot is live");
            live.remove(dead);
            node[i] = n + raw.len() - 1;
            // Reducibility keeps the surviving chain's NN links valid, so
            // the next iteration continues from the current chain top.
            break;
        }
    }

    Some(Dendrogram {
        n,
        merges: replay_greedy_order(n, raw),
    })
}

/// The pre-NN-chain agglomeration: greedy closest-pair selection with a
/// cached nearest-neighbour array, `O(n²)` amortised but `O(n³)` worst
/// case when merges keep invalidating cache entries. Retained as the test
/// oracle the NN-chain path is checked against (identical merges on
/// tie-free matrices); works on condensed storage like the main path.
#[cfg(test)]
fn agglomerate_legacy_with(matrix: &CondensedMatrix, linkage: Linkage) -> Dendrogram {
    let n = matrix.len();
    if n == 0 {
        return Dendrogram {
            n,
            merges: Vec::new(),
        };
    }

    let mut w = matrix.clone();
    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<usize> = vec![1; n];
    // Current dendrogram node id of working slot `i`.
    let mut node: Vec<usize> = (0..n).collect();
    // Cached nearest neighbour (slot, distance) per active slot.
    let mut nn: Vec<(usize, f64)> = vec![(usize::MAX, f64::INFINITY); n];
    let find_nn = |w: &CondensedMatrix, active: &[bool], i: usize| -> (usize, f64) {
        let mut best = (usize::MAX, f64::INFINITY);
        for (j, &alive) in active.iter().enumerate() {
            if j != i && alive {
                let dist = w.get(i, j);
                if dist < best.1 {
                    best = (j, dist);
                }
            }
        }
        best
    };
    for (i, slot) in nn.iter_mut().enumerate() {
        *slot = find_nn(&w, &active, i);
    }

    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    for step in 0..n.saturating_sub(1) {
        // Find the globally closest pair via the NN cache.
        let (mut i, mut best) = (usize::MAX, f64::INFINITY);
        for s in 0..n {
            if active[s] && nn[s].1 < best {
                best = nn[s].1;
                i = s;
            }
        }
        let j = nn[i].0;
        debug_assert!(active[i] && active[j]);
        let (i, j) = if i < j { (i, j) } else { (j, i) };

        // Record the merge; slot i becomes the merged cluster, j dies.
        merges.push(Merge {
            a: node[i],
            b: node[j],
            distance: w.get(i, j),
            size: size[i] + size[j],
        });
        node[i] = n + step;

        // Lance–Williams update into row/column i.
        let (si, sj) = (size[i] as f64, size[j] as f64);
        for (k, &alive) in active.iter().enumerate() {
            if k != i && k != j && alive {
                let v = lance_williams(linkage, si, sj, w.get(i, k), w.get(j, k));
                w.set(i, k, v);
            }
        }
        size[i] += size[j];
        active[j] = false;

        // Refresh invalidated nearest-neighbour entries.
        nn[i] = find_nn(&w, &active, i);
        for k in 0..n {
            if active[k] && k != i && (nn[k].0 == i || nn[k].0 == j) {
                nn[k] = find_nn(&w, &active, k);
            } else if active[k] && k != i {
                // Row k only got one new candidate: the merged cluster.
                let v = w.get(k, i);
                if v < nn[k].1 {
                    nn[k] = (i, v);
                }
            }
        }
    }

    Dendrogram { n, merges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Matrix with two tight groups {0,1,2} and {3,4}, far apart.
    fn two_blob_matrix() -> CondensedMatrix {
        let mut m = CondensedMatrix::zeros(5);
        let points = [0.0f64, 0.1, 0.2, 10.0, 10.1];
        for i in 0..5 {
            for j in i + 1..5 {
                m.set(i, j, (points[i] - points[j]).abs());
            }
        }
        m
    }

    #[test]
    fn merges_count_and_sizes() {
        let dg = agglomerate(&two_blob_matrix());
        assert_eq!(dg.leaves(), 5);
        assert_eq!(dg.merges().len(), 4);
        assert_eq!(dg.merges().last().unwrap().size, 5);
    }

    #[test]
    fn cut_separates_blobs() {
        let dg = agglomerate(&two_blob_matrix());
        let clusters = dg.cut(1.0);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0], vec![0, 1, 2]);
        assert_eq!(clusters[1], vec![3, 4]);
    }

    #[test]
    fn cut_zero_gives_singletons_cut_inf_gives_one() {
        let dg = agglomerate(&two_blob_matrix());
        let singles = dg.cut(-1.0);
        assert_eq!(singles.len(), 5);
        let all = dg.cut(f64::INFINITY);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cut_into_k() {
        let dg = agglomerate(&two_blob_matrix());
        assert_eq!(dg.cut_into(1).len(), 1);
        let two = dg.cut_into(2);
        assert_eq!(two.len(), 2);
        assert_eq!(two[0], vec![0, 1, 2]);
        assert_eq!(dg.cut_into(5).len(), 5);
        // Asking for more clusters than leaves caps at leaves.
        assert_eq!(dg.cut_into(50).len(), 5);
    }

    #[test]
    fn partition_property_holds_for_any_cut() {
        let dg = agglomerate(&two_blob_matrix());
        for t in [0.0, 0.05, 0.15, 0.5, 3.0, 20.0] {
            let clusters = dg.cut(t);
            let mut all: Vec<usize> = clusters.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3, 4], "cut at {t}");
        }
    }

    #[test]
    fn group_average_distance_is_exact() {
        // Three points: d(0,1)=1, d(0,2)=4, d(1,2)=6.
        // First merge {0,1} at 1; then d({0,1},2) = (4+6)/2 = 5.
        let mut m = CondensedMatrix::zeros(3);
        m.set(0, 1, 1.0);
        m.set(0, 2, 4.0);
        m.set(1, 2, 6.0);
        let dg = agglomerate(&m);
        assert_eq!(dg.merges()[0].distance, 1.0);
        assert_eq!(dg.merges()[1].distance, 5.0);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = agglomerate(&CondensedMatrix::zeros(0));
        assert_eq!(empty.leaves(), 0);
        assert!(empty.cut(1.0).is_empty());

        let single = agglomerate(&CondensedMatrix::zeros(1));
        assert_eq!(single.leaves(), 1);
        assert_eq!(single.cut(1.0), vec![vec![0]]);
        assert_eq!(single.cut_into(3), vec![vec![0]]);
    }

    #[test]
    fn members_of_internal_nodes() {
        let dg = agglomerate(&two_blob_matrix());
        let root = dg.leaves() + dg.merges().len() - 1;
        assert_eq!(dg.members(root), vec![0, 1, 2, 3, 4]);
        assert_eq!(dg.members(2), vec![2]);
    }

    #[test]
    fn single_linkage_chains_where_group_average_does_not() {
        // Points on a line at 0, 1, 2, 3 (each neighbour 1 apart) plus an
        // outlier at 10. Single linkage happily chains the whole line at
        // distance 1; group average sees growing cluster distances.
        let pts = [0.0f64, 1.0, 2.0, 3.0, 10.0];
        let mut m = CondensedMatrix::zeros(5);
        for i in 0..5 {
            for j in i + 1..5 {
                m.set(i, j, (pts[i] - pts[j]).abs());
            }
        }
        let single = agglomerate_with(&m, Linkage::Single);
        let chained = single.cut(1.0);
        assert_eq!(chained[0], vec![0, 1, 2, 3], "single linkage chains");

        let avg = agglomerate_with(&m, Linkage::GroupAverage);
        let conservative = avg.cut(1.0);
        assert!(
            conservative[0].len() < 4,
            "group average must not chain the full line at threshold 1: {conservative:?}"
        );
    }

    #[test]
    fn complete_linkage_is_most_conservative() {
        let pts = [0.0f64, 1.0, 2.0, 3.0];
        let mut m = CondensedMatrix::zeros(4);
        for i in 0..4 {
            for j in i + 1..4 {
                m.set(i, j, (pts[i] - pts[j]).abs());
            }
        }
        // Root merge distance ordering: single <= average <= complete.
        let root = |l: Linkage| agglomerate_with(&m, l).merges().last().unwrap().distance;
        let (s, a, c) = (
            root(Linkage::Single),
            root(Linkage::GroupAverage),
            root(Linkage::Complete),
        );
        assert!(s <= a && a <= c, "single {s}, avg {a}, complete {c}");
    }

    #[test]
    fn ties_are_deterministic() {
        let mut m = CondensedMatrix::zeros(4);
        for i in 0..4 {
            for j in i + 1..4 {
                m.set(i, j, 1.0);
            }
        }
        let a = agglomerate(&m);
        let b = agglomerate(&m);
        assert_eq!(a.merges(), b.merges());
    }

    /// NN-chain vs the legacy greedy oracle on tie-free matrices: the
    /// replayed merge list must match structurally merge-for-merge
    /// (distances approximately — group-average Lance–Williams values are
    /// built under different merge interleavings, so they may differ in
    /// the last ulps).
    fn assert_parity(m: &CondensedMatrix, linkage: Linkage) {
        let fast = agglomerate_with(m, linkage);
        let legacy = agglomerate_legacy_with(m, linkage);
        assert_eq!(fast.leaves(), legacy.leaves());
        assert_eq!(fast.merges().len(), legacy.merges().len());
        for (f, l) in fast.merges().iter().zip(legacy.merges()) {
            assert_eq!((f.a, f.b, f.size), (l.a, l.b, l.size), "{linkage:?}");
            assert!(
                (f.distance - l.distance).abs() <= 1e-9 * f.distance.abs().max(1.0),
                "{linkage:?}: {} vs {}",
                f.distance,
                l.distance
            );
        }
        for k in 1..=m.len() {
            assert_eq!(fast.cut_into(k), legacy.cut_into(k), "{linkage:?} k={k}");
        }
    }

    #[test]
    fn nn_chain_matches_legacy_on_blobs_and_lines() {
        let pts_sets: &[&[f64]] = &[
            &[0.0, 0.1, 0.2, 10.0, 10.1],
            &[0.0, 1.0, 2.0, 3.0, 10.0],
            &[5.0, 1.0, 9.0, 2.5, 7.25, 0.125, 3.875],
            &[42.0],
            &[1.0, 2.0],
        ];
        for pts in pts_sets {
            let mut m = CondensedMatrix::zeros(pts.len());
            for i in 0..pts.len() {
                for j in i + 1..pts.len() {
                    m.set(i, j, (pts[i] - pts[j]).abs());
                }
            }
            for linkage in [Linkage::GroupAverage, Linkage::Single, Linkage::Complete] {
                assert_parity(&m, linkage);
            }
        }
    }

    /// On an all-tied matrix the two paths may order merges differently,
    /// but must produce the same merge multiset.
    #[test]
    fn nn_chain_matches_legacy_merge_multiset_under_ties() {
        let mut m = CondensedMatrix::zeros(6);
        for i in 0..6 {
            for j in i + 1..6 {
                m.set(i, j, 1.0);
            }
        }
        for linkage in [Linkage::GroupAverage, Linkage::Single, Linkage::Complete] {
            let key = |d: &Dendrogram| {
                let mut v: Vec<(u64, usize)> = d
                    .merges()
                    .iter()
                    .map(|mg| (mg.distance.to_bits(), mg.size))
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(
                key(&agglomerate_with(&m, linkage)),
                key(&agglomerate_legacy_with(&m, linkage)),
                "{linkage:?}"
            );
        }
    }

    /// The NN-chain checks its deadline once before every merge and stops
    /// at the first check that finds it passed; a check that never fires
    /// changes nothing.
    #[test]
    fn nn_chain_stops_between_merges_once_expired() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pts = [5.0f64, 1.0, 9.0, 2.5, 7.25, 0.125, 3.875, 6.5];
        let mut m = CondensedMatrix::zeros(pts.len());
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                m.set(i, j, (pts[i] - pts[j]).abs());
            }
        }
        let checks = AtomicUsize::new(0);
        let count = || checks.fetch_add(1, Ordering::Relaxed) + 1;
        let never = || count() == 0;
        let whole =
            agglomerate_until(m.clone(), Linkage::GroupAverage, &never).expect("never expires");
        assert_eq!(
            checks.swap(0, Ordering::Relaxed),
            pts.len() - 1,
            "one check per merge"
        );
        assert_eq!(whole.merges(), agglomerate(&m).merges());

        // Expire at the fourth check: three merges done, the fourth never starts.
        assert!(agglomerate_until(m, Linkage::GroupAverage, &|| count() >= 4).is_none());
        assert_eq!(checks.into_inner(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// NN-chain clustering is a drop-in replacement for the legacy greedy
        /// algorithm: on random metric (point-derived, effectively tie-free)
        /// matrices, every linkage produces the same replayed merge sequence —
        /// identical `(a, b, size)` structure, distances equal up to the ulp
        /// drift group-average Lance–Williams accumulates under different
        /// merge interleavings — and identical `cut` / `cut_into` partitions.
        #[test]
        fn nn_chain_matches_legacy_on_random_metric_matrices(
            points in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..24),
        ) {
            let n = points.len();
            let mut m = CondensedMatrix::zeros(n);
            for i in 0..n {
                for j in i + 1..n {
                    let (dx, dy) = (points[i].0 - points[j].0, points[i].1 - points[j].1);
                    m.set(i, j, (dx * dx + dy * dy).sqrt());
                }
            }
            for linkage in [Linkage::GroupAverage, Linkage::Single, Linkage::Complete] {
                let fast = agglomerate_with(&m, linkage);
                let legacy = agglomerate_legacy_with(&m, linkage);
                prop_assert_eq!(fast.merges().len(), legacy.merges().len());
                let mut thresholds = vec![0.0f64];
                for (f, l) in fast.merges().iter().zip(legacy.merges()) {
                    prop_assert_eq!((f.a, f.b, f.size), (l.a, l.b, l.size));
                    prop_assert!(
                        (f.distance - l.distance).abs() <= 1e-9 * f.distance.abs().max(1.0),
                        "{:?}: {} vs {}", linkage, f.distance, l.distance
                    );
                    thresholds.push(l.distance * 0.999);
                    thresholds.push(l.distance * 1.001);
                }
                for t in thresholds {
                    prop_assert_eq!(fast.cut(t), legacy.cut(t), "{:?} t={}", linkage, t);
                }
                for k in 1..=n {
                    prop_assert_eq!(fast.cut_into(k), legacy.cut_into(k), "{:?} k={}", linkage, k);
                }
            }
        }
    }
}
