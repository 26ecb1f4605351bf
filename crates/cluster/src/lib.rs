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


use ngl_nn::cosine::l2_normalized;
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

#[derive(Debug, Clone)]
struct ClusterAgg {
    sum: Vec<f32>,
    count: usize,
    members: Vec<usize>,
}

impl ClusterAgg {
    /// Mean pairwise cosine distance to another cluster, with a
    /// pre-resolved dot kernel — block scans resolve the `NGL_KERNEL`
    /// dispatch once instead of per pair.
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
/// before the quadratic merge loop.
///
/// Pair distances are computed once into an n × n matrix; a merge
/// recomputes only the merged cluster's row (n dot products) and every
/// closest-pair search scans stored distances. The cost is O(n² · d)
/// for the fill, O(n · d) per merge and O(n²) comparisons per merge,
/// with the n² `f32` matrix alive for the call (640 KB at the
/// pipeline's 400-mention batch cap).
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
/// The closest-pair scans over stored distances stay sequential: an
/// entry costs one comparison, and at the pipeline's sizes (at most 400
/// mentions) a chunked scan measured slower than the sequential one.
///
/// The output is **bitwise identical** to recomputing every pair
/// distance before every merge, at any thread count:
///
/// * each stored distance is the same `distance_with(lower index,
///   higher index)` call the rescan would make on the same cluster
///   sums, and the dot kernels are bitwise symmetric (elementwise
///   products, one fixed accumulation order), so entries moved by a
///   `swap_remove` still hold the rescan's value; chunking the fill
///   changes only which thread computes an entry, not its value;
/// * the scan visits pairs in the same `(i, j)` order with the same
///   strict `d < best` test from `+∞`, so the winning pair is the first
///   pair in scan order attaining the minimum. (NaN distances lose
///   every strict comparison, so degenerate inputs agree too.)
pub fn agglomerative_exec<P: AsRef<[f32]>>(
    points: &[P],
    threshold: f32,
    exec: &Executor,
) -> Clustering {
    let n = points.len();
    if n == 0 {
        return Clustering { assignments: Vec::new(), n_clusters: 0 };
    }
    let mut clusters: Vec<ClusterAgg> = points
        .iter()
        .enumerate()
        .map(|(i, p)| ClusterAgg { sum: l2_normalized(p.as_ref()), count: 1, members: vec![i] })
        .collect();
    let dotf = kernels::dot_fn();
    let mut dist = PairDistances::fill(&clusters, dotf, exec);

    while clusters.len() >= 2 {
        let (i, j, d) = dist.closest_pair(clusters.len());
        if d >= threshold {
            break;
        }
        let taken = clusters.swap_remove(j);
        dist.swap_remove(j, clusters.len());
        clusters[i].merge(taken);
        dist.refresh(i, &clusters, dotf);
    }

    let mut assignments = vec![0usize; n];
    for (c, cl) in clusters.iter().enumerate() {
        for &m in &cl.members {
            assignments[m] = c;
        }
    }
    Clustering { assignments, n_clusters: clusters.len() }
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

/// Distances between the current clusters of one
/// [`agglomerative_exec`] call. Entry `(i, j)` with `i < j` sits at
/// `i * stride + j` and holds `clusters[i].distance_with(clusters[j])`;
/// only that upper triangle is read or kept current.
struct PairDistances {
    stride: usize,
    d: Vec<f32>,
}

impl PairDistances {
    /// Every pair distance of the initial clusters, row chunks on `exec`.
    fn fill(clusters: &[ClusterAgg], dotf: VecKernel, exec: &Executor) -> Self {
        let n = clusters.len();
        let mut d = vec![0.0f32; n * n];
        let chunk = row_chunk(n, exec);
        let blocks: Vec<&mut [f32]> = d.chunks_mut(chunk * n).collect();
        exec.par_map(blocks, |b, block| {
            for (r, row) in block.chunks_mut(n).enumerate() {
                let i = b * chunk + r;
                for j in i + 1..n {
                    row[j] = clusters[i].distance_with(dotf, &clusters[j]);
                }
            }
        });
        Self { stride: n, d }
    }

    fn set(&mut self, i: usize, j: usize, v: f32) {
        self.d[i * self.stride + j] = v;
    }

    /// First pair (in `(i, j)` scan order) of the first `m` clusters
    /// attaining the minimum distance — see [`agglomerative_exec`] for
    /// the equivalence argument.
    fn closest_pair(&self, m: usize) -> (usize, usize, f32) {
        let mut best = (0usize, 1usize, f32::INFINITY);
        for i in 0..m {
            let row = &self.d[i * self.stride..i * self.stride + m];
            for (j, &d) in row.iter().enumerate().skip(i + 1) {
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        best
    }

    /// Mirrors `clusters.swap_remove(j)` on a matrix of `last + 1`
    /// clusters: cluster `last` moves to index `j`, keeping its
    /// distances to every other cluster.
    fn swap_remove(&mut self, j: usize, last: usize) {
        for k in (0..last).filter(|&k| k != j) {
            let v = self.d[k * self.stride + last];
            self.set(k.min(j), k.max(j), v);
        }
    }

    /// Recomputes every distance of cluster `i` after it absorbed a
    /// merge, with each call oriented `(lower index, higher index)`
    /// exactly as a rescan would make it.
    fn refresh(&mut self, i: usize, clusters: &[ClusterAgg], dotf: VecKernel) {
        for k in 0..i {
            self.set(k, i, clusters[k].distance_with(dotf, &clusters[i]));
        }
        for k in i + 1..clusters.len() {
            self.set(i, k, clusters[i].distance_with(dotf, &clusters[k]));
        }
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
    pub fn count(&self, c: usize) -> usize {
        self.counts[c]
    }

    /// Mean cosine distance from `point` to cluster `c`.
    pub fn distance_to(&self, c: usize, point: &[f32]) -> f32 {
        let p = l2_normalized(point);
        1.0 - (kernels::dot(&p, &self.sums[c]) / self.counts[c] as f32).clamp(-1.0, 1.0)
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
        let pts: Vec<Vec<f32>> = (0..8)
            .map(|i| blob(&[1.0, 0.2], &[0.0, 0.01 * i as f32]))
            .collect();
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

    #[test]
    fn distance_to_is_zero_for_identical_direction() {
        let mut oc = OnlineClusters::new(0.4);
        let c = oc.insert(&[0.5, 0.5]);
        assert!(oc.distance_to(c, &[2.0, 2.0]) < 1e-5);
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
