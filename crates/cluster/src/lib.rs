//! # ngl-cluster
//!
//! Candidate-cluster generation (§V-C): agglomerative clustering of
//! mention embeddings under **cosine distance** with **average linkage**
//! and a **distance threshold** stopping rule — the number of clusters
//! per surface form is unknown a priori, so threshold-stopped
//! agglomerative clustering is used instead of k-means-style methods.
//!
//! A useful identity makes average linkage cheap here: with unit-
//! normalized embeddings, the mean pairwise cosine *similarity* between
//! clusters A and B is `(ΣÂ · ΣB̂)/(|A||B|)`, so a cluster is fully
//! described by the sum of its normalized members plus a count. Merges
//! and incremental insertions are then O(d).
//!
//! The paper tunes the threshold below 1 (cosine distance 1 =
//! orthogonality, the triplet-loss margin).

#![forbid(unsafe_code)]

use ngl_nn::cosine::{l2_normalize, l2_normalized};
use ngl_nn::kernels::{self, VecKernel};
use ngl_runtime::Executor;

/// Result of a batch clustering: a cluster id per input point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// `assignments[i]` is the cluster of input point `i`, in `0..n_clusters`.
    pub assignments: Vec<usize>,
    /// Number of clusters.
    pub n_clusters: usize,
}

impl Clustering {
    /// Indices of the members of each cluster.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut g = vec![Vec::new(); self.n_clusters];
        for (i, &c) in self.assignments.iter().enumerate() {
            g[c].push(i);
        }
        g
    }
}

/// Mean pairwise cosine distance between two clusters from the dot of
/// their normalized-member sums.
#[inline]
fn distance(dot: f32, count_a: usize, count_b: usize) -> f32 {
    let sim = dot / (count_a * count_b) as f32;
    1.0 - sim.clamp(-1.0, 1.0)
}

/// Bottom-up agglomerative clustering stopped at `threshold`.
///
/// ```
/// use ngl_cluster::agglomerative;
///
/// // Two senses of one surface form: mentions near orthogonal axes.
/// let mentions = vec![
///     vec![1.0, 0.05],
///     vec![0.95, 0.0],
///     vec![0.0, 1.0],
/// ];
/// let clustering = agglomerative(&mentions, 0.5);
/// assert_eq!(clustering.n_clusters, 2);
/// assert_eq!(clustering.assignments[0], clustering.assignments[1]);
/// assert_ne!(clustering.assignments[0], clustering.assignments[2]);
/// ```
///
/// Starts from singletons, repeatedly merges the closest pair of
/// clusters (average linkage over cosine distance) while the minimum
/// inter-cluster distance is below `threshold`.
///
/// `points` is anything slice-like (`&[Vec<f32>]`, `&[&[f32]]`, …), so
/// batch callers can pass borrowed mention embeddings without copying
/// each vector. Every point is L2-normalized exactly once, up front,
/// before the quadratic merge loop. All points must have one length.
///
/// Pair distances are computed once into an n × n matrix, each row
/// through one [`kernels::dot_rows`] call; a merge recomputes only the
/// merged cluster's row (one `dot_rows` call over the m live clusters).
/// The closest pair comes from a lower bound on each row's minimum, so
/// a merge compares m bounds and rescans only rows whose minimum entry
/// was merged away or grew. The cost is O(n² · d) for the fill,
/// O(m · d) dot work plus O(m) comparisons per merge, plus O(m) per
/// stale row the search meets, with the n² `f32` matrix alive for the
/// call (640 KB at the pipeline's 400-mention batch cap).
pub fn agglomerative<P: AsRef<[f32]>>(points: &[P], threshold: f32) -> Clustering {
    agglomerative_exec(points, threshold, &Executor::sequential())
}

/// Rows below this count run sequentially even on a parallel executor
/// (the distance-matrix fill, the online centroid scan): chunking only
/// pays off once the dot-product sweep dominates the per-call
/// scheduling cost.
const PAR_DOT_MIN_ROWS: usize = 96;

/// [`agglomerative`] with the one-time distance fill parallelized over
/// chunked rows on `exec` — for the giant surface forms whose quadratic
/// fill would otherwise occupy one pipeline worker for the whole batch.
/// The merge loop stays sequential: a merge is one row of dot products
/// and O(m) comparisons, too little to split across threads.
///
/// The output is **bitwise identical** to recomputing every pair
/// distance before every merge and taking the first pair in `(i, j)`
/// scan order that attains the minimum under a strict `d < best` test
/// from `+∞`, at any thread count:
///
/// * each stored distance is the value the rescan computes for the same
///   pair from the same cluster sums: [`kernels::dot_rows`] returns
///   [`kernels::dot`]'s bits, the dot kernels are bitwise symmetric
///   (elementwise products, one fixed accumulation order), and merges
///   and removals mirror `Vec::swap_remove` on the sums, counts and
///   matrix, so an entry moved with cluster `last` still holds the
///   rescan's value. Chunking the fill changes only which thread
///   computes an entry;
/// * the rescan's winner is the first row whose minimum is the global
///   minimum, at that row's first argmin. Each row keeps a lower bound
///   on its minimum over `j > i`, and, while the bound is exact, that
///   first argmin; every entry change and removal keeps both true (see
///   [`PairDistances`]). The search takes the first row with the
///   smallest bound: a stale row is rescanned and the search repeats,
///   and an exact row wins, since every earlier row's minimum is above
///   its bound and every later row's is at least it. NaN distances lose
///   every strict comparison and never set a bound, so degenerate
///   inputs agree too.
///
/// # Panics
/// Panics when the points differ in length.
pub fn agglomerative_exec<P: AsRef<[f32]>>(
    points: &[P],
    threshold: f32,
    exec: &Executor,
) -> Clustering {
    let n = points.len();
    if n <= 1 {
        return Clustering { assignments: vec![0; n], n_clusters: n };
    }
    let mut clusters = Clusters::new(points);
    let mut dist = PairDistances::fill(&clusters, exec);
    let mut dots = vec![0.0f32; n];
    let mut m = n;
    while m >= 2 {
        let (i, j, d) = dist.closest_pair(m);
        if d >= threshold {
            break;
        }
        m -= 1;
        clusters.merge_swap_remove(i, j, m);
        dist.swap_remove(j, m);
        dist.refresh(i, &clusters, m, &mut dots);
    }
    clusters.into_clustering(m)
}

/// Rows per chunk when spreading `rows` rows of dot products over
/// `exec`; `rows` itself (one chunk) when the work stays on the caller
/// because there are fewer than [`PAR_DOT_MIN_ROWS`].
fn row_chunk(rows: usize, exec: &Executor) -> usize {
    if exec.threads() <= 1 || rows < PAR_DOT_MIN_ROWS {
        return rows;
    }
    // Over-split relative to the thread count: early rows hold far more
    // pairs than late ones, and the executor's dynamic scheduling evens
    // that skew out across smaller chunks.
    rows.div_ceil(exec.threads() * 4).max(8)
}

/// Marks a point list's end in [`Clusters::next`].
const NO_POINT: usize = usize::MAX;

/// The live clusters of one [`agglomerative_exec`] call, in slot order:
/// slot `c < m` holds the sum of its normalized members (row `c` of the
/// row-major `n × dim` buffer), its member count and its member list
/// (`head[c]`, then `next[p]` until [`NO_POINT`], ending at `tail[c]`).
struct Clusters {
    dim: usize,
    sums: Vec<f32>,
    counts: Vec<usize>,
    head: Vec<usize>,
    tail: Vec<usize>,
    next: Vec<usize>,
}

impl Clusters {
    /// One singleton per point.
    fn new<P: AsRef<[f32]>>(points: &[P]) -> Self {
        let n = points.len();
        let dim = points[0].as_ref().len();
        let mut sums = Vec::with_capacity(n * dim);
        for p in points {
            let p = p.as_ref();
            assert_eq!(p.len(), dim, "agglomerative: points differ in length");
            let start = sums.len();
            sums.extend_from_slice(p);
            l2_normalize(&mut sums[start..]);
        }
        Self {
            dim,
            sums,
            counts: vec![1; n],
            head: (0..n).collect(),
            tail: (0..n).collect(),
            next: vec![NO_POINT; n],
        }
    }

    fn sum(&self, c: usize) -> &[f32] {
        &self.sums[c * self.dim..(c + 1) * self.dim]
    }

    /// Merges cluster `j` into cluster `i < j`, then moves cluster
    /// `last` into slot `j`: `Vec::swap_remove(j)` followed by the
    /// merge, as the rescan does it. O(d), allocation-free.
    fn merge_swap_remove(&mut self, i: usize, j: usize, last: usize) {
        let dim = self.dim;
        let (low, high) = self.sums.split_at_mut(j * dim);
        for (a, b) in low[i * dim..(i + 1) * dim].iter_mut().zip(&high[..dim]) {
            *a += b;
        }
        self.counts[i] += self.counts[j];
        self.next[self.tail[i]] = self.head[j];
        self.tail[i] = self.tail[j];
        self.sums.copy_within(last * dim..(last + 1) * dim, j * dim);
        self.counts[j] = self.counts[last];
        self.head[j] = self.head[last];
        self.tail[j] = self.tail[last];
    }

    /// The assignment of every point to one of the first `m` slots.
    fn into_clustering(self, m: usize) -> Clustering {
        let mut assignments = vec![0usize; self.next.len()];
        for c in 0..m {
            let mut p = self.head[c];
            while p != NO_POINT {
                assignments[p] = c;
                p = self.next[p];
            }
        }
        Clustering { assignments, n_clusters: m }
    }
}

/// Marks a row of [`PairDistances`] whose bound may sit below its
/// minimum.
const STALE: usize = usize::MAX;

/// First minimum of `row[first..]` under a strict `<` from `+∞`, as
/// `(value, column)`; `(+∞, first)` when no entry is below `+∞`.
fn first_min(row: &[f32], first: usize) -> (f32, usize) {
    let mut best = (f32::INFINITY, first);
    for (j, &d) in row.iter().enumerate().skip(first) {
        if d < best.0 {
            best = (d, j);
        }
    }
    best
}

/// Distances between the live clusters of one [`agglomerative_exec`]
/// call. Entry `(i, j)` with `i < j` sits at `i * stride + j` and holds
/// the distance between clusters `i` and `j`; only that upper triangle
/// is read or kept current.
///
/// Row `i` also keeps `bound[i]`, at most every non-NaN entry of the
/// row, and `argmin[i]`: while that bound is the row's minimum, the
/// first column attaining it, otherwise [`STALE`]. An entry change at
/// column `c` to `v` keeps this true in O(1): `v` below the bound makes
/// `c` the unique minimum; `v` equal to an exact bound moves the argmin
/// to `c` when `c` comes first; an exact row goes stale only when its
/// argmin entry grew or left the matrix.
struct PairDistances {
    stride: usize,
    d: Vec<f32>,
    bound: Vec<f32>,
    argmin: Vec<usize>,
}

impl PairDistances {
    /// Every pair distance of the initial clusters with each row's
    /// exact minimum, row chunks on `exec`.
    fn fill(clusters: &Clusters, exec: &Executor) -> Self {
        let n = clusters.counts.len();
        let dim = clusters.dim;
        let mut d = vec![0.0f32; n * n];
        let chunk = row_chunk(n, exec);
        let blocks: Vec<&mut [f32]> = d.chunks_mut(chunk * n).collect();
        let minima = exec.par_map(blocks, |b, block| {
            let mut minima = Vec::with_capacity(chunk);
            for (r, row) in block.chunks_mut(n).enumerate() {
                let i = b * chunk + r;
                let rest = &mut row[i + 1..];
                kernels::dot_rows(clusters.sum(i), &clusters.sums[(i + 1) * dim..], dim, rest);
                for (j, v) in (i + 1..).zip(rest.iter_mut()) {
                    *v = distance(*v, clusters.counts[i], clusters.counts[j]);
                }
                minima.push(first_min(row, i + 1));
            }
            minima
        });
        let (bound, argmin) = minima.into_iter().flatten().unzip();
        Self { stride: n, d, bound, argmin }
    }

    /// Sets row `i`'s bound and argmin from its entries among the first
    /// `m` columns.
    fn rescan(&mut self, i: usize, m: usize) {
        let row = &self.d[i * self.stride..i * self.stride + m];
        (self.bound[i], self.argmin[i]) = first_min(row, i + 1);
    }

    /// Sets entry `(r, c)` to `v`, keeping row `r`'s bound and argmin.
    fn update(&mut self, r: usize, c: usize, v: f32) {
        self.d[r * self.stride + c] = v;
        let arg = self.argmin[r];
        if v < self.bound[r] {
            self.bound[r] = v;
            self.argmin[r] = c;
        } else if arg != STALE {
            if v == self.bound[r] {
                self.argmin[r] = arg.min(c);
            } else if c == arg {
                self.argmin[r] = STALE;
            }
        }
    }

    /// First pair (in `(i, j)` scan order) of the first `m` clusters
    /// attaining the minimum distance — see [`agglomerative_exec`] for
    /// the equivalence argument. `(0, 1, +∞)` when no distance is below
    /// `+∞`, as the rescan returns it.
    fn closest_pair(&mut self, m: usize) -> (usize, usize, f32) {
        loop {
            let mut best: Option<usize> = None;
            for i in 0..m - 1 {
                if best.is_none_or(|b| self.bound[i] < self.bound[b]) {
                    best = Some(i);
                }
            }
            let i = match best {
                Some(i) if self.bound[i] < f32::INFINITY => i,
                _ => return (0, 1, f32::INFINITY),
            };
            if self.argmin[i] != STALE {
                return (i, self.argmin[i], self.bound[i]);
            }
            self.rescan(i, m);
        }
    }

    /// Mirrors `clusters.swap_remove(j)` on a matrix of `last + 1`
    /// clusters: cluster `last` moves to index `j`, keeping its
    /// distances to every other cluster, and column `last` leaves every
    /// row. Row `j` is rescanned; rows above it see their column `j`
    /// take the moved value before column `last` goes, so a row whose
    /// minimum moved keeps it exactly.
    fn swap_remove(&mut self, j: usize, last: usize) {
        for k in 0..last {
            if k != j {
                let v = self.d[k * self.stride + last];
                if k < j {
                    self.update(k, j, v);
                } else {
                    self.d[j * self.stride + k] = v;
                }
            }
            if self.argmin[k] == last {
                self.argmin[k] = STALE;
            }
        }
        if j < last {
            self.rescan(j, last);
        }
    }

    /// Recomputes every distance of cluster `i` among the first `m`
    /// after it absorbed a merge — one [`kernels::dot_rows`] call on
    /// each side of row `i`, with `dots` as scratch — and rescans row
    /// `i`.
    fn refresh(&mut self, i: usize, clusters: &Clusters, m: usize, dots: &mut [f32]) {
        let dim = clusters.dim;
        let sum = clusters.sum(i);
        kernels::dot_rows(sum, &clusters.sums[..i * dim], dim, &mut dots[..i]);
        kernels::dot_rows(sum, &clusters.sums[(i + 1) * dim..m * dim], dim, &mut dots[i + 1..m]);
        let counts = &clusters.counts;
        for (k, (&dot, &ck)) in dots[..i].iter().zip(counts).enumerate() {
            self.update(k, i, distance(dot, ck, counts[i]));
        }
        let row = &mut self.d[i * self.stride + i + 1..i * self.stride + m];
        for ((v, &dot), &ck) in row.iter_mut().zip(&dots[i + 1..m]).zip(&counts[i + 1..m]) {
            *v = distance(dot, counts[i], ck);
        }
        self.rescan(i, m);
    }
}

/// Incrementally maintained clustering for the streaming setting (§V-C:
/// "both the representation space … and the clusters drawn from its
/// mentions are updated as and when new mentions arrive").
///
/// A new point joins the nearest existing cluster when its mean cosine
/// distance to that cluster's members is below the threshold; otherwise
/// it opens a new cluster. This is the standard one-pass approximation
/// of threshold-stopped average-linkage clustering.
#[derive(Debug, Clone)]
pub struct OnlineClusters {
    threshold: f32,
    sums: Vec<Vec<f32>>,
    counts: Vec<usize>,
}

impl OnlineClusters {
    /// Empty clustering with the given distance threshold.
    pub fn new(threshold: f32) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        Self { threshold, sums: Vec::new(), counts: Vec::new() }
    }

    /// Number of clusters so far.
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// Whether no points have been inserted.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Member count of cluster `c`.
    #[cfg(test)]
    pub fn count(&self, c: usize) -> usize {
        self.counts[c]
    }

    /// First-minimum scan of one centroid range with a pre-resolved dot
    /// kernel. Both the sequential and the chunked-parallel assignment
    /// paths are built from this, so per-row distances are computed
    /// identically in every configuration.
    fn scan_range(
        &self,
        p: &[f32],
        range: std::ops::Range<usize>,
        dotf: VecKernel,
    ) -> Option<(usize, f32)> {
        let mut best: Option<(usize, f32)> = None;
        for c in range {
            let d = 1.0 - (dotf(p, &self.sums[c]) / self.counts[c] as f32).clamp(-1.0, 1.0);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((c, d));
            }
        }
        best
    }

    /// Nearest centroid to the already-normalized `p` (first minimum in
    /// cluster-id order). Parallelizes over centroid chunks on `exec`
    /// once the scan is large enough; the chunk-order strict-`<`
    /// reduction returns exactly the sequential scan's answer, so the
    /// result is **bitwise identical** at any thread count.
    fn best_cluster(&self, p: &[f32], exec: &Executor) -> Option<(usize, f32)> {
        let n = self.sums.len();
        let dotf = kernels::dot_fn();
        let chunk = row_chunk(n, exec);
        if chunk >= n {
            return self.scan_range(p, 0..n, dotf);
        }
        let ranges: Vec<std::ops::Range<usize>> =
            (0..n).step_by(chunk).map(|s| s..(s + chunk).min(n)).collect();
        let bests = exec.par_map(ranges, |_, r| self.scan_range(p, r, dotf));
        let mut best: Option<(usize, f32)> = None;
        for b in bests.into_iter().flatten() {
            if best.is_none_or(|(_, bd)| b.1 < bd) {
                best = Some(b);
            }
        }
        best
    }

    /// Joins cluster `best` if its distance clears the threshold, else
    /// opens a fresh cluster; returns the id.
    fn join_or_open(&mut self, p: Vec<f32>, best: Option<(usize, f32)>) -> usize {
        match best {
            Some((c, d)) if d < self.threshold => {
                for (a, b) in self.sums[c].iter_mut().zip(&p) {
                    *a += b;
                }
                self.counts[c] += 1;
                c
            }
            _ => {
                self.sums.push(p);
                self.counts.push(1);
                self.sums.len() - 1
            }
        }
    }

    /// Inserts a point, returning the cluster id it joined (possibly a
    /// fresh one).
    pub fn insert(&mut self, point: &[f32]) -> usize {
        self.insert_exec(point, &Executor::sequential())
    }

    /// [`Self::insert`] with the centroid scan parallelized over chunks
    /// on `exec` — for giant surface forms whose centroid count grows
    /// into the hundreds. Assignments (and the resulting centroid sums)
    /// are bitwise identical to sequential insertion at any thread
    /// count; see [`Self::best_cluster`].
    pub fn insert_exec(&mut self, point: &[f32], exec: &Executor) -> usize {
        let p = l2_normalized(point);
        let best = self.best_cluster(&p, exec);
        self.join_or_open(p, best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: &[f32], jitter: &[f32]) -> Vec<f32> {
        center.iter().zip(jitter).map(|(c, j)| c + j).collect()
    }

    #[test]
    fn two_orthogonal_blobs_separate() {
        let mut pts = Vec::new();
        for j in [-0.05f32, 0.0, 0.05] {
            pts.push(blob(&[1.0, 0.0], &[0.0, j]));
            pts.push(blob(&[0.0, 1.0], &[j, 0.0]));
        }
        let c = agglomerative(&pts, 0.5);
        assert_eq!(c.n_clusters, 2);
        // Even/odd points alternate blobs.
        assert_eq!(c.assignments[0], c.assignments[2]);
        assert_eq!(c.assignments[1], c.assignments[3]);
        assert_ne!(c.assignments[0], c.assignments[1]);
    }

    #[test]
    fn one_tight_blob_stays_together() {
        let pts: Vec<Vec<f32>> =
            (0..8).map(|i| blob(&[1.0, 0.2], &[0.0, 0.01 * i as f32])).collect();
        let c = agglomerative(&pts, 0.5);
        assert_eq!(c.n_clusters, 1);
    }

    #[test]
    fn tiny_threshold_keeps_singletons() {
        let pts = vec![vec![1.0, 0.0], vec![0.9, 0.1], vec![0.0, 1.0]];
        let c = agglomerative(&pts, 1e-6);
        assert_eq!(c.n_clusters, 3);
    }

    #[test]
    fn threshold_is_monotone_in_cluster_count() {
        let pts: Vec<Vec<f32>> = (0..12)
            .map(|i| {
                let a = i as f32 * 0.3;
                vec![a.cos(), a.sin()]
            })
            .collect();
        let mut last = usize::MAX;
        for t in [0.05f32, 0.2, 0.5, 1.0, 1.9] {
            let c = agglomerative(&pts, t);
            assert!(c.n_clusters <= last, "threshold {t} increased clusters");
            last = c.n_clusters;
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(agglomerative::<Vec<f32>>(&[], 0.5).n_clusters, 0);
        let c = agglomerative(&[vec![0.3, 0.4]], 0.5);
        assert_eq!(c.n_clusters, 1);
        assert_eq!(c.assignments, vec![0]);
    }

    #[test]
    fn groups_partition_the_points() {
        let pts = vec![vec![1.0, 0.0], vec![0.99, 0.01], vec![0.0, 1.0]];
        let c = agglomerative(&pts, 0.3);
        let groups = c.groups();
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        assert_eq!(groups.len(), c.n_clusters);
    }

    #[test]
    fn borrowed_slices_cluster_identically_to_owned_points() {
        let owned: Vec<Vec<f32>> = (0..9)
            .map(|i| {
                let a = i as f32 * 0.5;
                vec![a.cos(), a.sin(), 0.1]
            })
            .collect();
        let borrowed: Vec<&[f32]> = owned.iter().map(|p| p.as_slice()).collect();
        assert_eq!(agglomerative(&owned, 0.4), agglomerative(&borrowed, 0.4));
    }

    #[test]
    fn scale_invariance_of_cosine_clustering() {
        let a = vec![vec![1.0, 0.0], vec![100.0, 1.0], vec![0.0, 2.0]];
        let b = vec![vec![0.01, 0.0], vec![1.0, 0.01], vec![0.0, 0.002]];
        assert_eq!(agglomerative(&a, 0.4), agglomerative(&b, 0.4));
    }

    #[test]
    fn parallel_closest_pair_scan_is_bitwise_identical() {
        // Enough rows to cross PAR_DOT_MIN_ROWS so the chunked fill
        // actually runs, with deliberately near-tied distances (points
        // on a slowly wound spiral) to stress the first-minimum tie rule.
        let pts: Vec<Vec<f32>> = (0..150)
            .map(|i| {
                let a = i as f32 * 0.041;
                vec![a.cos(), a.sin(), (i % 7) as f32 * 0.05]
            })
            .collect();
        let par = Executor::new(4);
        for t in [0.02f32, 0.1, 0.4, 0.9, 1.5] {
            let seq = agglomerative(&pts, t);
            assert_eq!(seq, agglomerative_exec(&pts, t, &par), "threshold {t}");
            assert_eq!(seq, agglomerative_exec(&pts, t, &Executor::sequential()));
        }
    }

    /// Eight clusters' distances: 0.9 everywhere except row 0's
    /// `(column, value)` entries, with every row's bound exact.
    fn matrix(row0: &[(usize, f32)]) -> PairDistances {
        let n = 8;
        let mut dist = PairDistances {
            stride: n,
            d: vec![0.9; n * n],
            bound: vec![0.0; n],
            argmin: vec![0; n],
        };
        for &(c, v) in row0 {
            dist.d[c] = v;
        }
        for i in 0..n {
            dist.rescan(i, n);
        }
        dist
    }

    #[test]
    fn a_stale_row_keeps_its_first_tie() {
        let mut dist = matrix(&[(2, 0.2), (4, 0.2)]);
        assert_eq!(dist.closest_pair(8), (0, 2, 0.2));
        dist.update(0, 2, 0.5);
        assert_eq!(dist.argmin[0], STALE, "the argmin entry grew");
        // A later column tying the bound must not make the row exact:
        // column 4 still comes first.
        dist.update(0, 6, 0.2);
        assert_eq!(dist.closest_pair(8), (0, 4, 0.2));
    }

    #[test]
    fn a_moved_column_that_ties_takes_the_argmin() {
        // Row 0's minimum is its entry for the last cluster, which moves
        // into the slot of cluster 3.
        let mut dist = matrix(&[(7, 0.2)]);
        dist.swap_remove(3, 7);
        assert_eq!((dist.bound[0], dist.argmin[0]), (0.2, 3), "exact without a rescan");
        assert_eq!(dist.closest_pair(7), (0, 3, 0.2));
    }

    #[test]
    fn online_matches_batch_on_well_separated_data() {
        let mut pts = Vec::new();
        for j in 0..5 {
            pts.push(blob(&[1.0, 0.0, 0.0], &[0.0, 0.02 * j as f32, 0.0]));
            pts.push(blob(&[0.0, 0.0, 1.0], &[0.0, 0.02 * j as f32, 0.0]));
        }
        let batch = agglomerative(&pts, 0.5);
        let mut online = OnlineClusters::new(0.5);
        let ids: Vec<usize> = pts.iter().map(|p| online.insert(p)).collect();
        assert_eq!(batch.n_clusters, online.len());
        // Same partitioning up to relabeling.
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                assert_eq!(
                    batch.assignments[i] == batch.assignments[j],
                    ids[i] == ids[j],
                    "points {i},{j} disagree"
                );
            }
        }
    }

    #[test]
    fn parallel_online_insert_is_bitwise_identical() {
        // A tight threshold on spiral points opens enough clusters to
        // push the centroid scan past PAR_DOT_MIN_ROWS, with near-tied
        // distances stressing the first-minimum rule across chunks.
        let pts: Vec<Vec<f32>> = (0..220)
            .map(|i| {
                let a = i as f32 * 0.037;
                vec![a.cos(), a.sin(), (i % 5) as f32 * 0.04]
            })
            .collect();
        let par = Executor::new(4);
        for t in [0.0005f32, 0.002, 0.02, 0.4] {
            let mut seq = OnlineClusters::new(t);
            let mut par_oc = OnlineClusters::new(t);
            let seq_ids: Vec<usize> = pts.iter().map(|p| seq.insert(p)).collect();
            let par_ids: Vec<usize> = pts.iter().map(|p| par_oc.insert_exec(p, &par)).collect();
            assert_eq!(seq_ids, par_ids, "threshold {t}");
            assert!(seq.len() >= PAR_DOT_MIN_ROWS || t > 0.002, "threshold {t} too lax to test");
            assert_eq!(seq.counts, par_oc.counts, "threshold {t}");
            for (a, b) in seq.sums.iter().zip(&par_oc.sums) {
                let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
                let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
                assert_eq!(ab, bb, "threshold {t} centroid bits");
            }
        }
    }

    #[test]
    fn online_counts_track_insertions() {
        let mut oc = OnlineClusters::new(0.4);
        let c0 = oc.insert(&[1.0, 0.0]);
        let c1 = oc.insert(&[0.98, 0.02]);
        assert_eq!(c0, c1);
        assert_eq!(oc.count(c0), 2);
        let c2 = oc.insert(&[0.0, 1.0]);
        assert_ne!(c0, c2);
        assert_eq!(oc.len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ngl_runtime::rng::{for_each_case, SplitMix64};

    /// A non-zero point in `[-1, 1)³`.
    fn point(rng: &mut SplitMix64) -> Vec<f32> {
        loop {
            let v: Vec<f32> = (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            if v.iter().map(|x| x * x).sum::<f32>() > 1e-4 {
                return v;
            }
        }
    }

    #[test]
    fn assignments_are_a_valid_partition() {
        for_each_case(0xC1_0001, 256, |rng| {
            let pts: Vec<Vec<f32>> = (0..rng.gen_range(0..25usize)).map(|_| point(rng)).collect();
            let threshold = rng.gen_range(0.05f32..1.5);
            let c = agglomerative(&pts, threshold);
            assert_eq!(c.assignments.len(), pts.len());
            if !pts.is_empty() {
                assert!(c.n_clusters >= 1 && c.n_clusters <= pts.len());
            }
            for &a in &c.assignments {
                assert!(a < c.n_clusters);
            }
            // Every cluster id is used.
            let mut used = vec![false; c.n_clusters];
            for &a in &c.assignments {
                used[a] = true;
            }
            assert!(used.into_iter().all(|u| u));
        });
    }

    /// One cluster of the rescan reference: the sum of its normalized
    /// members, their count and their indices.
    #[derive(Debug, Clone)]
    struct ClusterAgg {
        sum: Vec<f32>,
        count: usize,
        members: Vec<usize>,
    }

    impl ClusterAgg {
        /// Mean pairwise cosine distance to another cluster.
        fn distance_with(&self, dotf: VecKernel, other: &ClusterAgg) -> f32 {
            let sim = dotf(&self.sum, &other.sum) / (self.count * other.count) as f32;
            1.0 - sim.clamp(-1.0, 1.0)
        }

        fn merge(&mut self, other: ClusterAgg) {
            for (a, b) in self.sum.iter_mut().zip(&other.sum) {
                *a += b;
            }
            self.count += other.count;
            self.members.extend(other.members);
        }
    }

    /// Reference linkage that recomputes every pair distance before
    /// every merge; the cached-matrix linkage must reproduce it bit for
    /// bit.
    fn agglomerative_rescan<P: AsRef<[f32]>>(points: &[P], threshold: f32) -> Clustering {
        let n = points.len();
        if n == 0 {
            return Clustering { assignments: Vec::new(), n_clusters: 0 };
        }
        let mut clusters: Vec<ClusterAgg> = points
            .iter()
            .enumerate()
            .map(|(i, p)| ClusterAgg { sum: l2_normalized(p.as_ref()), count: 1, members: vec![i] })
            .collect();
        while clusters.len() >= 2 {
            let dotf = kernels::dot_fn();
            let mut best = (0usize, 1usize, f32::INFINITY);
            for i in 0..clusters.len() {
                for j in i + 1..clusters.len() {
                    let d = clusters[i].distance_with(dotf, &clusters[j]);
                    if d < best.2 {
                        best = (i, j, d);
                    }
                }
            }
            if best.2 >= threshold {
                break;
            }
            let taken = clusters.swap_remove(best.1);
            clusters[best.0].merge(taken);
        }
        let mut assignments = vec![0usize; n];
        for (c, cl) in clusters.iter().enumerate() {
            for &m in &cl.members {
                assignments[m] = c;
            }
        }
        Clustering { assignments, n_clusters: clusters.len() }
    }

    /// `n` points of dimension `dim` drawn from a pool of at most
    /// `distinct` vectors, so exact duplicates (tied distances) are
    /// common; some pool vectors are zero, others have small-integer
    /// coordinates (more exact ties) or continuous ones.
    fn tie_heavy_points(rng: &mut SplitMix64, n: usize, dim: usize) -> Vec<Vec<f32>> {
        let distinct = rng.gen_range(1..=n.max(1));
        let pool: Vec<Vec<f32>> = (0..distinct)
            .map(|_| match rng.next_below(4) {
                0 => vec![0.0; dim],
                1 => (0..dim).map(|_| rng.next_below(5) as f32 - 2.0).collect(),
                _ => (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            })
            .collect();
        (0..n).map(|_| pool[rng.gen_range(0..distinct)].clone()).collect()
    }

    fn assert_matches_rescan(pts: &[Vec<f32>], threshold: f32, par: &Executor) {
        let reference = agglomerative_rescan(pts, threshold);
        assert_eq!(reference, agglomerative(pts, threshold), "sequential, threshold {threshold}");
        assert_eq!(
            reference,
            agglomerative_exec(pts, threshold, par),
            "4 threads, threshold {threshold}"
        );
    }

    #[test]
    fn cached_distances_match_the_rescan_reference() {
        let par = Executor::new(4);
        for_each_case(0xC1_0003, 400, |rng| {
            let dim = [2, 3, 8, 32, 33][rng.gen_range(0..5usize)];
            let n = rng.gen_range(0..=40usize);
            let pts = tie_heavy_points(rng, n, dim);
            assert_matches_rescan(&pts, rng.gen_range(0.1f32..1.5), &par);
        });
        // Sizes at and past the fill cut-off, so the chunked fill runs
        // on the parallel executor.
        let sizes = [PAR_DOT_MIN_ROWS, 150, 250, 320, 400];
        for (k, n) in sizes.into_iter().enumerate() {
            let rng = &mut SplitMix64::new(0xC1_0004 + k as u64);
            let dim = [2, 3, 8, 32, 33][k];
            let pts = tie_heavy_points(rng, n, dim);
            assert_matches_rescan(&pts, rng.gen_range(0.1f32..1.5), &par);
        }
        // Stale-heavy inputs for the lazy row minima. On a slowly wound
        // arc one growing cluster is many rows' nearest neighbour, so
        // each merge moves or raises many rows' minimum entries; groups
        // of exact duplicates tie those entries, so the first-argmin
        // rule decides every merge. Threshold 2.0 merges down to one
        // cluster.
        for (k, n) in [128usize, 200, 400].into_iter().enumerate() {
            let dim = [3, 8, 32][k];
            let arc: Vec<Vec<f32>> = (0..n)
                .map(|i| {
                    let a = i as f32 * 0.013;
                    let mut p = vec![0.05; dim];
                    (p[0], p[1]) = (a.cos(), a.sin());
                    p
                })
                .collect();
            let rng = &mut SplitMix64::new(0xC1_0005 + k as u64);
            let groups = tie_heavy_points(rng, n / 8, dim);
            let duplicates: Vec<Vec<f32>> =
                (0..n).map(|i| groups[i % groups.len()].clone()).collect();
            for threshold in [0.7f32, 2.0] {
                assert_matches_rescan(&arc, threshold, &par);
                assert_matches_rescan(&duplicates, threshold, &par);
            }
        }
    }

    #[test]
    fn online_ids_are_dense() {
        for_each_case(0xC1_0002, 256, |rng| {
            let pts: Vec<Vec<f32>> = (0..rng.gen_range(1..30usize)).map(|_| point(rng)).collect();
            let threshold = rng.gen_range(0.05f32..1.5);
            let mut oc = OnlineClusters::new(threshold);
            let mut max_id = 0usize;
            for p in &pts {
                let id = oc.insert(p);
                assert!(id <= max_id + 1 || id <= oc.len());
                max_id = max_id.max(id);
            }
            assert_eq!(max_id + 1, oc.len());
            let total: usize = (0..oc.len()).map(|c| oc.count(c)).sum();
            assert_eq!(total, pts.len());
        });
    }
}
