//! Pareto dominance, non-dominated sorting, crowding distance, and exact
//! hypervolume for two and three objectives. All objectives are minimized.

/// True when `a` Pareto-dominates `b` (no worse in every objective,
/// strictly better in at least one).
///
/// # Panics
///
/// Panics if the objective vectors have different lengths.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective dimension mismatch");
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Indices of the non-dominated points in `points`, ascending.
///
/// Of several equal objective vectors only the first is retained.
pub fn pareto_indices(points: &[Vec<f64>]) -> Vec<usize> {
    let mut out = Vec::new();
    'outer: for (i, p) in points.iter().enumerate() {
        for (j, q) in points.iter().enumerate() {
            if i != j && (dominates(q, p) || (q == p && j < i)) {
                continue 'outer;
            }
        }
        out.push(i);
    }
    out
}

/// A Pareto front maintained incrementally under point insertion.
///
/// Pushing points in ascending index order yields exactly the members
/// (and member order) of [`pareto_indices`] over the full point
/// sequence: a new point is rejected when an existing member dominates
/// or equals it (existing members always carry smaller indices, matching
/// the keep-first-duplicate rule), and otherwise evicts every member it
/// dominates before being appended. Eviction is transitively sound — if
/// a point was ever rejected by a member that is later evicted, the
/// evictor dominates the rejected point too — so no rescan of history is
/// needed. This turns the per-iteration O(n²) front rebuild in the BO
/// acquisition loop into O(n·|front|) total across the whole run.
#[derive(Debug, Clone, Default)]
pub struct IncrementalFront {
    indices: Vec<usize>,
    points: Vec<Vec<f64>>,
}

impl IncrementalFront {
    /// Creates an empty front.
    pub fn new() -> IncrementalFront {
        IncrementalFront::default()
    }

    /// Offers a point to the front; returns `true` when it was admitted.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not strictly greater than every index pushed
    /// before it — the batch-equivalence contract requires ascending
    /// insertion order.
    pub fn push(&mut self, index: usize, point: Vec<f64>) -> bool {
        assert!(
            self.indices.last().is_none_or(|&last| last < index),
            "IncrementalFront requires strictly ascending indices"
        );
        for q in &self.points {
            if dominates(q, &point) || *q == point {
                return false;
            }
        }
        // Stable in-place compaction of the survivors.
        let mut w = 0;
        for r in 0..self.points.len() {
            if dominates(&point, &self.points[r]) {
                continue;
            }
            self.points.swap(w, r);
            self.indices.swap(w, r);
            w += 1;
        }
        self.points.truncate(w);
        self.indices.truncate(w);
        self.indices.push(index);
        self.points.push(point);
        true
    }

    /// Current front members, in ascending insertion-index order.
    pub fn points(&self) -> &[Vec<f64>] {
        &self.points
    }

    /// Insertion indices of the current members, ascending.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the front has no members.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Drops all members.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.points.clear();
    }
}

/// Fast non-dominated sort (NSGA-II): returns fronts of indices, best
/// front first.
pub fn non_dominated_sort(points: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let n = points.len();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n]; // i dominates these
    let mut domination_count = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            if dominates(&points[i], &points[j]) {
                dominated_by[i].push(j);
            } else if dominates(&points[j], &points[i]) {
                domination_count[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    fronts
}

/// NSGA-II crowding distance for the points at `indices` (within one
/// front). Boundary points receive `f64::INFINITY`.
pub fn crowding_distance(points: &[Vec<f64>], indices: &[usize]) -> Vec<f64> {
    let m = indices.len();
    let mut dist = vec![0.0; m];
    if m == 0 {
        return dist;
    }
    let objectives = points[indices[0]].len();
    // `obj` indexes the inner objective axis of `points`, not `points`
    // itself, so the range loop is the natural form here.
    #[allow(clippy::needless_range_loop)]
    for obj in 0..objectives {
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| points[indices[a]][obj].total_cmp(&points[indices[b]][obj]));
        let lo = points[indices[order[0]]][obj];
        let hi = points[indices[order[m - 1]]][obj];
        dist[order[0]] = f64::INFINITY;
        dist[order[m - 1]] = f64::INFINITY;
        let range = hi - lo;
        if range <= 0.0 {
            continue;
        }
        for w in 1..m - 1 {
            let prev = points[indices[order[w - 1]]][obj];
            let next = points[indices[order[w + 1]]][obj];
            dist[order[w]] += (next - prev) / range;
        }
    }
    dist
}

/// Exact hypervolume (to be maximized) of a minimization front with
/// respect to `reference` (an upper bound that every point must
/// dominate). Points not dominating the reference contribute nothing.
///
/// Supports 1, 2, and 3 objectives.
///
/// # Panics
///
/// Panics for more than three objectives or mismatched dimensions.
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    let d = reference.len();
    assert!((1..=3).contains(&d), "hypervolume implemented for 1-3 objectives, got {d}");
    let filtered: Vec<Vec<f64>> = points
        .iter()
        .filter(|p| {
            assert_eq!(p.len(), d, "objective dimension mismatch");
            p.iter().zip(reference).all(|(x, r)| x < r)
        })
        .cloned()
        .collect();
    if filtered.is_empty() {
        return 0.0;
    }
    let idx = pareto_indices(&filtered);
    let front: Vec<Vec<f64>> = idx.into_iter().map(|i| filtered[i].clone()).collect();
    match d {
        1 => reference[0] - front.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min),
        2 => hv2d(&front, reference),
        _ => hv3d(&front, reference),
    }
}

/// Exact exclusive hypervolume contribution of `candidate` with respect
/// to `front`: `hypervolume(front ∪ {candidate}) - hypervolume(front)`,
/// computed without touching the part of the front outside the
/// candidate's dominated box.
///
/// The candidate's box `[candidate, reference]` is intersected with each
/// front point's box by clipping the point to `max(point, candidate)`
/// componentwise; the contribution is the candidate's box volume minus
/// the union volume of the clipped boxes. Front points that weakly
/// dominate the candidate cover the box entirely (contribution 0, early
/// exit), and points whose clip collapses against the reference drop
/// out — so scoring a large candidate pool against a front costs only
/// the overlapping region per candidate instead of two full-front
/// hypervolume computations.
///
/// Supports 1, 2, and 3 objectives.
///
/// # Panics
///
/// Panics for more than three objectives or mismatched dimensions.
pub fn hypervolume_contribution(front: &[Vec<f64>], candidate: &[f64], reference: &[f64]) -> f64 {
    let d = reference.len();
    assert!((1..=3).contains(&d), "hypervolume implemented for 1-3 objectives, got {d}");
    assert_eq!(candidate.len(), d, "objective dimension mismatch");
    if !candidate.iter().zip(reference).all(|(x, r)| x < r) {
        return 0.0;
    }
    let mut clipped: Vec<Vec<f64>> = Vec::new();
    for f in front {
        assert_eq!(f.len(), d, "objective dimension mismatch");
        if f.iter().zip(candidate).all(|(a, b)| a <= b) {
            return 0.0;
        }
        let g: Vec<f64> = f.iter().zip(candidate).map(|(a, b)| a.max(*b)).collect();
        if g.iter().zip(reference).all(|(x, r)| x < r) {
            clipped.push(g);
        }
    }
    let box_vol: f64 = candidate.iter().zip(reference).map(|(c, r)| r - c).product();
    if clipped.is_empty() {
        return box_vol;
    }
    (box_vol - hypervolume(&clipped, reference)).max(0.0)
}

/// 2-D hypervolume by a left-to-right sweep over the sorted front.
fn hv2d(front: &[Vec<f64>], reference: &[f64]) -> f64 {
    let mut pts: Vec<(f64, f64)> = front.iter().map(|p| (p[0], p[1])).collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut hv = 0.0;
    let mut prev_y = reference[1];
    for (x, y) in pts {
        if y < prev_y {
            hv += (reference[0] - x) * (prev_y - y);
            prev_y = y;
        }
    }
    hv
}

/// 3-D hypervolume by slicing along the third objective: between
/// consecutive z-levels the dominated area is the 2-D hypervolume of the
/// points at or below the slab. Those points' 2-D front is kept by an
/// [`IncrementalFront`] pushed in z order, which holds exactly what
/// `pareto_indices` over the slab's points would select, in the same
/// order, so each slab's area is bit-identical to a per-slab rebuild.
fn hv3d(front: &[Vec<f64>], reference: &[f64]) -> f64 {
    let mut order: Vec<usize> = (0..front.len()).collect();
    order.sort_by(|&a, &b| front[a][2].total_cmp(&front[b][2]));
    let ref2 = [reference[0], reference[1]];
    let mut hv = 0.0;
    let mut front2 = IncrementalFront::new();
    for (rank, &i) in order.iter().enumerate() {
        let z_lo = front[i][2];
        let z_hi = if rank + 1 < order.len() { front[order[rank + 1]][2] } else { reference[2] };
        front2.push(rank, vec![front[i][0], front[i][1]]);
        if z_hi > z_lo {
            hv += hv2d(front2.points(), &ref2) * (z_hi - z_lo);
        }
    }
    hv
}

/// A reusable scorer for SMS-EGO acquisition: indexes a frozen front
/// once so that scoring a large candidate pool against it costs one
/// short loop per candidate.
///
/// * [`ContributionScorer::epsilon_penalty`] pre-sorts the front by its
///   first objective, so the epsilon-dominance scan only visits the
///   prefix with `f₀ ≤ c₀ + ε` (a necessary condition for the full
///   check) instead of the whole front. Qualifying points are then
///   accumulated in front order, making the result **bit-identical** to
///   the naive in-order scan.
/// * [`ContributionScorer::contribution`] scores against a partition of
///   the *non-dominated region* — the part of `(−∞, reference)` that no
///   front point weakly dominates — into disjoint boxes
///   `[a, b) × (−∞, y) × [z₀, z₁)`, built once by one z-sweep over the
///   front (Lacour, Klamroth & Fonseca 2017). A candidate's exclusive
///   contribution is the volume of `[c, reference)` inside that region:
///   the sum over the boxes of each box's overlap with `[c, reference)`,
///   one branch-free `O(|front|)` loop with no clip, sort or staircase
///   per candidate. Every term is non-negative and monotone in `c`, so
///   the contribution never rises when a candidate coordinate rises, in
///   floating point too.
///
/// Build one per acquisition iteration and share it read-only across
/// scoring passes and workers; give each its own [`ScorerScratch`] so
/// the hot loop allocates nothing per candidate.
#[derive(Debug, Clone)]
pub struct ContributionScorer {
    reference: Vec<f64>,
    /// Front points padded to three objectives and stored contiguously,
    /// so the penalty scan streams one flat allocation.
    front: Vec<[f64; 3]>,
    d: usize,
    /// Front indices sorted ascending by first objective.
    by_obj0: Vec<usize>,
    /// The partition of the non-dominated region.
    boxes: Boxes,
}

/// Reusable working buffer for [`ContributionScorer`]'s penalty scan.
/// One per scoring thread/chunk; it is cleared (not shrunk) between
/// candidates so steady-state scoring performs no heap allocation.
#[derive(Debug, Default, Clone)]
pub struct ScorerScratch {
    /// Indices of epsilon-dominating front points, restored to front order.
    hits: Vec<usize>,
}

/// Disjoint boxes `[x_lo, x_hi) × (−∞, y_hi) × [z_lo, z_hi)` as flat
/// arrays, one box per index, in objectives padded to three: a padded
/// front coordinate is `−∞`, a padded reference coordinate `1` and a
/// padded candidate coordinate `0`, so a padded axis contributes a
/// factor of exactly `1` or `0`.
#[derive(Debug, Clone, Default)]
struct Boxes {
    x_lo: Vec<f64>,
    x_hi: Vec<f64>,
    y_hi: Vec<f64>,
    z_lo: Vec<f64>,
    z_hi: Vec<f64>,
}

impl Boxes {
    /// Closes the segment of `stair` (`[x, x_hi) × (−∞, y)`, open since
    /// the stair's z-level) at `z_hi`; a segment closed at the level it
    /// opened has no volume and is dropped.
    fn close(&mut self, stair: [f64; 3], x_hi: f64, z_hi: f64) {
        let [x, y, z] = stair;
        if z_hi > z {
            self.x_lo.push(x);
            self.x_hi.push(x_hi);
            self.y_hi.push(y);
            self.z_lo.push(z);
            self.z_hi.push(z_hi);
        }
    }
}

impl ContributionScorer {
    /// Builds a scorer over a frozen `front` and `reference` (an upper
    /// bound every scored point should dominate). O(F log F).
    ///
    /// # Panics
    ///
    /// Panics for 0 or more than three objectives, or mismatched front
    /// dimensions.
    pub fn new(front: &[Vec<f64>], reference: &[f64]) -> ContributionScorer {
        let d = reference.len();
        assert!((1..=3).contains(&d), "scorer implemented for 1-3 objectives, got {d}");
        let mut flat: Vec<[f64; 3]> = Vec::with_capacity(front.len());
        for f in front {
            assert_eq!(f.len(), d, "objective dimension mismatch");
            let mut row = [0.0f64; 3];
            row[..d].copy_from_slice(f);
            flat.push(row);
        }
        let mut by_obj0: Vec<usize> = (0..flat.len()).collect();
        by_obj0.sort_by(|&a, &b| flat[a][0].total_cmp(&flat[b][0]));
        let boxes = partition(&flat, reference);
        ContributionScorer { reference: reference.to_vec(), front: flat, d, by_obj0, boxes }
    }

    /// Number of front points the scorer was built over.
    pub fn len(&self) -> usize {
        self.front.len()
    }

    /// True when the scorer's front is empty.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty()
    }

    /// Number of boxes partitioning the non-dominated region: at most
    /// `2·len() + 1`.
    pub fn box_count(&self) -> usize {
        self.boxes.x_lo.len()
    }

    /// Creates a scratch sized for this scorer's front. One per scoring
    /// thread/chunk.
    pub fn scratch(&self) -> ScorerScratch {
        ScorerScratch { hits: Vec::with_capacity(self.front.len()) }
    }

    /// Total SMS-EGO epsilon-dominance penalty of `candidate`: for every
    /// front point that epsilon-dominates it (`f ≤ c + ε` in all
    /// objectives), the dominated depth `Σ max(c − f, 0) + ε` is
    /// accumulated in front order — bit-identical to the naive full-front
    /// scan, but only the `f₀ ≤ c₀ + ε` prefix of the obj-0 sorted index
    /// is visited.
    ///
    /// # Panics
    ///
    /// Panics if `candidate` has the wrong dimension.
    pub fn epsilon_penalty(&self, candidate: &[f64], eps: f64) -> f64 {
        self.epsilon_penalty_with(&mut self.scratch(), candidate, eps)
    }

    /// [`ContributionScorer::epsilon_penalty`] against caller-owned
    /// buffers — the allocation-free form for hot scoring loops.
    pub fn epsilon_penalty_with(
        &self,
        scratch: &mut ScorerScratch,
        candidate: &[f64],
        eps: f64,
    ) -> f64 {
        assert_eq!(candidate.len(), self.reference.len(), "objective dimension mismatch");
        let cut = self.by_obj0.partition_point(|&i| self.front[i][0] <= candidate[0] + eps);
        scratch.hits.clear();
        scratch.hits.extend(
            self.by_obj0[..cut]
                .iter()
                .copied()
                .filter(|&i| self.front[i].iter().zip(candidate).all(|(fv, cv)| *fv <= cv + eps)),
        );
        scratch.hits.sort_unstable();
        let mut penalty = 0.0;
        for &i in &scratch.hits {
            let depth: f64 =
                self.front[i].iter().zip(candidate).map(|(fv, cv)| (cv - fv).max(0.0)).sum();
            penalty += depth + eps;
        }
        penalty
    }

    /// Exclusive hypervolume contribution of `candidate` against the
    /// frozen front — semantically [`hypervolume_contribution`], within
    /// roundoff (the two sum different terms): the volume of
    /// `[candidate, reference)` inside the non-dominated region's boxes.
    /// A candidate some front point weakly dominates, or one outside the
    /// reference, gets exactly `0`.
    ///
    /// # Panics
    ///
    /// Panics if `candidate` has the wrong dimension.
    pub fn contribution(&self, candidate: &[f64]) -> f64 {
        let d = self.d;
        assert_eq!(candidate.len(), d, "objective dimension mismatch");
        if !candidate.iter().zip(&self.reference).all(|(x, r)| x < r) {
            return 0.0;
        }
        let mut c = [0.0f64; 3];
        c[..d].copy_from_slice(candidate);
        let Boxes { x_lo, x_hi, y_hi, z_lo, z_hi } = &self.boxes;
        let n = x_lo.len();
        let (x_hi, y_hi, z_lo, z_hi) = (&x_hi[..n], &y_hi[..n], &z_lo[..n], &z_hi[..n]);
        let mut volume = 0.0;
        for i in 0..n {
            let dx = (x_hi[i] - x_lo[i].max(c[0])).max(0.0);
            let dy = (y_hi[i] - c[1]).max(0.0);
            let dz = (z_hi[i] - z_lo[i].max(c[2])).max(0.0);
            volume += dx * dy * dz;
        }
        volume
    }

    /// The full SMS-EGO acquisition score: `-penalty` when any front
    /// point epsilon-dominates the candidate, otherwise the hypervolume
    /// contribution.
    pub fn score(&self, candidate: &[f64], eps: f64) -> f64 {
        self.score_with(&mut self.scratch(), candidate, eps)
    }

    /// [`ContributionScorer::score`] against caller-owned buffers — the
    /// allocation-free form for hot scoring loops.
    pub fn score_with(&self, scratch: &mut ScorerScratch, candidate: &[f64], eps: f64) -> f64 {
        let penalty = self.epsilon_penalty_with(scratch, candidate, eps);
        if penalty > 0.0 {
            -penalty
        } else {
            self.contribution(candidate)
        }
    }
}

/// Partitions the part of `(−∞, reference)` that no point of `front`
/// (padded to three objectives) weakly dominates into at most
/// `2·|front| + 1` disjoint boxes.
///
/// Sweep the front points inside the reference by ascending z, keeping
/// the 2-D staircase of the points swept so far. Between two z-levels
/// the non-dominated region is the staircase's complement, the union of
/// one segment per stair `[xᵢ, xᵢ₊₁) × (−∞, yᵢ)` (with `x_{last+1}` =
/// `ref₀`), plus a sentinel stair `(−∞, ref₁)` for `x` below every stair.
/// Each segment is one box open from the z-level where it last changed.
/// An insertion closes the segments it changes at its own z-level — its
/// predecessor's, whose right end moves, and those of the stairs it
/// evicts — and opens its predecessor's and its own; the sweep closes
/// the rest at `ref₂`. Each insertion thus adds at most two boxes to the
/// sentinel's one.
fn partition(front: &[[f64; 3]], reference: &[f64]) -> Boxes {
    let d = reference.len();
    let mut upper = [1.0f64; 3];
    upper[..d].copy_from_slice(reference);
    let mut inside: Vec<[f64; 3]> = front
        .iter()
        .filter(|f| f[..d].iter().zip(reference).all(|(x, r)| x < r))
        .map(|f| {
            let mut p = [f64::NEG_INFINITY; 3];
            p[..d].copy_from_slice(&f[..d]);
            p
        })
        .collect();
    inside.sort_by(|a, b| a[2].total_cmp(&b[2]));
    let mut boxes = Boxes::default();
    let mut stairs: Vec<[f64; 3]> = Vec::with_capacity(inside.len() + 1);
    stairs.push([f64::NEG_INFINITY, upper[1], f64::NEG_INFINITY]);
    for p in inside {
        insert_stair(&mut stairs, &mut boxes, p, upper[0]);
    }
    for (j, &stair) in stairs.iter().enumerate() {
        let right = stairs.get(j + 1).map_or(upper[0], |s| s[0]);
        boxes.close(stair, right, upper[2]);
    }
    boxes
}

/// Inserts `p = (x, y, z)` into a staircase of `(x, y, z_open)` stairs
/// (x strictly ascending, y strictly descending, led by the sentinel)
/// at its z-level, closing into `boxes` every segment it changes.
/// Covered points are no-ops; stairs the new one dominates in `(x, y)`
/// are evicted as one contiguous block.
fn insert_stair(stairs: &mut Vec<[f64; 3]>, boxes: &mut Boxes, p: [f64; 3], x_ref: f64) {
    let [x, y, z] = p;
    // The sentinel (x = −∞) always precedes the new point.
    let lo = 1 + stairs[1..].partition_point(|s| s[0] < x);
    // Covered: a predecessor at strictly smaller x with y no larger, or
    // an existing stair at exactly this x with y no larger.
    if stairs[lo - 1][1] <= y || stairs.get(lo).is_some_and(|s| s[0] == x && s[1] <= y) {
        return;
    }
    // Evict the contiguous block the new point dominates (y descending
    // makes `s.y >= y` a prefix property from `lo`).
    let hi = lo + stairs[lo..].iter().take_while(|s| s[1] >= y).count();
    let right = |j: usize| stairs.get(j + 1).map_or(x_ref, |s| s[0]);
    let pred_right = right(lo - 1);
    for (j, &stair) in stairs.iter().enumerate().take(hi).skip(lo) {
        boxes.close(stair, right(j), z);
    }
    // The predecessor's segment now ends at x instead of at the first
    // (possibly evicted) stair to its right; it is unchanged when that
    // stair sat at exactly x.
    if pred_right > x {
        boxes.close(stairs[lo - 1], pred_right, z);
        stairs[lo - 1][2] = z;
    }
    stairs.splice(lo..hi, [p]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]));
    }

    #[test]
    fn pareto_indices_filters_dominated() {
        let pts = vec![
            vec![1.0, 4.0],
            vec![2.0, 2.0],
            vec![4.0, 1.0],
            vec![3.0, 3.0], // dominated by [2,2]
        ];
        assert_eq!(pareto_indices(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn pareto_keeps_one_of_duplicates() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(pareto_indices(&pts), vec![0]);
    }

    #[test]
    fn incremental_front_matches_batch_recompute() {
        // Quantized pseudo-random points force duplicates and long
        // dominance chains; after every push the incremental front must
        // equal a from-scratch pareto_indices over the prefix.
        for seed in 0..8u64 {
            for d in 2..=3usize {
                let raw = lcg_points(seed * 31 + 3, 40, d, 1.0);
                let pts: Vec<Vec<f64>> = raw
                    .iter()
                    .map(|p| p.iter().map(|v| (v * 4.0).floor() / 4.0).collect())
                    .collect();
                let mut front = IncrementalFront::new();
                for (i, p) in pts.iter().enumerate() {
                    front.push(i, p.clone());
                    let expect = pareto_indices(&pts[..=i]);
                    assert_eq!(front.indices(), expect.as_slice(), "seed={seed} d={d} i={i}");
                    let expect_pts: Vec<&Vec<f64>> = expect.iter().map(|&j| &pts[j]).collect();
                    let got_pts: Vec<&Vec<f64>> = front.points().iter().collect();
                    assert_eq!(got_pts, expect_pts);
                }
            }
        }
    }

    #[test]
    fn incremental_front_rejects_duplicates_and_dominated() {
        let mut front = IncrementalFront::new();
        assert!(front.is_empty());
        assert!(front.push(0, vec![1.0, 4.0]));
        assert!(front.push(1, vec![2.0, 2.0]));
        assert!(!front.push(2, vec![2.0, 2.0]), "duplicate must be rejected");
        assert!(!front.push(3, vec![3.0, 3.0]), "dominated point must be rejected");
        assert!(front.push(4, vec![0.5, 0.5]), "dominating point must evict");
        assert_eq!(front.indices(), &[4]);
        assert_eq!(front.len(), 1);
        front.clear();
        assert!(front.is_empty());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn incremental_front_panics_on_non_ascending_index() {
        let mut front = IncrementalFront::new();
        front.push(5, vec![1.0]);
        front.push(5, vec![0.5]);
    }

    #[test]
    fn nds_orders_fronts() {
        let pts = vec![
            vec![1.0, 1.0], // front 0 (dominates everything)
            vec![2.0, 2.0], // front 1
            vec![3.0, 3.0], // front 2
        ];
        let fronts = non_dominated_sort(&pts);
        assert_eq!(fronts, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn crowding_rewards_boundary_and_spread() {
        let pts = vec![vec![0.0, 4.0], vec![1.0, 2.0], vec![2.0, 1.5], vec![4.0, 0.0]];
        let idx = vec![0, 1, 2, 3];
        let d = crowding_distance(&pts, &idx);
        assert!(d[0].is_infinite() && d[3].is_infinite());
        assert!(d[1] > 0.0 && d[2] > 0.0);
    }

    #[test]
    fn hv2d_rectangle() {
        // Single point (1,1) with reference (3,3): area 2x2 = 4.
        assert!((hypervolume(&[vec![1.0, 1.0]], &[3.0, 3.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hv2d_two_points_union() {
        // (1,2) and (2,1) with ref (3,3): union area = 2*1 + 1*2 - 1*1 = hmm
        // sweep: (1,2): (3-1)*(3-2)=2; (2,1): (3-2)*(2-1)=1 -> 3.
        let hv = hypervolume(&[vec![1.0, 2.0], vec![2.0, 1.0]], &[3.0, 3.0]);
        assert!((hv - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hv3d_box() {
        // Point (0,0,0) with ref (1,2,3) -> volume 6.
        let hv = hypervolume(&[vec![0.0, 0.0, 0.0]], &[1.0, 2.0, 3.0]);
        assert!((hv - 6.0).abs() < 1e-12);
    }

    #[test]
    fn hv3d_union_of_two_boxes() {
        // Boxes from (0,0,0) and (0.5,0.5,-1)... use simple orthogonal case:
        // p1=(0,1,1), p2=(1,0,1), ref=(2,2,2).
        // slice z in [1,2): 2D front {(0,1),(1,0)} area = 2*1+1*1 = 3
        // volume = 3 * 1 = 3.
        let hv = hypervolume(&[vec![0.0, 1.0, 1.0], vec![1.0, 0.0, 1.0]], &[2.0, 2.0, 2.0]);
        assert!((hv - 3.0).abs() < 1e-12, "hv = {hv}");
    }

    #[test]
    fn hv_monotone_in_added_points() {
        let base = vec![vec![2.0, 2.0, 2.0]];
        let more = vec![vec![2.0, 2.0, 2.0], vec![1.0, 3.0, 1.0]];
        let r = [4.0, 4.0, 4.0];
        assert!(hypervolume(&more, &r) >= hypervolume(&base, &r));
    }

    #[test]
    fn points_outside_reference_ignored() {
        let hv = hypervolume(&[vec![5.0, 5.0]], &[3.0, 3.0]);
        assert_eq!(hv, 0.0);
    }

    #[test]
    fn dominated_point_adds_nothing() {
        let r = [4.0, 4.0];
        let a = hypervolume(&[vec![1.0, 1.0]], &r);
        let b = hypervolume(&[vec![1.0, 1.0], vec![2.0, 2.0]], &r);
        assert!((a - b).abs() < 1e-12);
    }

    /// Pseudo-random fixed point sets for contribution-equality checks
    /// (deterministic — a simple LCG, no RNG dependency).
    fn lcg_points(seed: u64, n: usize, d: usize, scale: f64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * scale
        };
        (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
    }

    #[test]
    fn contribution_matches_hv_difference() {
        for d in 1..=3usize {
            let reference = vec![10.0; d];
            for seed in 0..6u64 {
                let front = lcg_points(seed * 7 + 1, 12, d, 9.0);
                let candidates = lcg_points(seed * 13 + 5, 8, d, 11.0);
                let base = hypervolume(&front, &reference);
                for c in &candidates {
                    let mut joined = front.clone();
                    joined.push(c.clone());
                    let expect = hypervolume(&joined, &reference) - base;
                    let got = hypervolume_contribution(&front, c, &reference);
                    assert!(
                        (got - expect).abs() < 1e-9,
                        "d={d} seed={seed}: {got} vs {expect} for {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn contribution_of_dominated_candidate_is_zero() {
        let front = vec![vec![1.0, 1.0, 1.0]];
        let r = [4.0, 4.0, 4.0];
        assert_eq!(hypervolume_contribution(&front, &[2.0, 2.0, 2.0], &r), 0.0);
        assert_eq!(hypervolume_contribution(&front, &[1.0, 1.0, 1.0], &r), 0.0);
    }

    #[test]
    fn contribution_outside_reference_is_zero() {
        let front: Vec<Vec<f64>> = Vec::new();
        assert_eq!(hypervolume_contribution(&front, &[5.0, 1.0], &[4.0, 4.0]), 0.0);
    }

    #[test]
    fn contribution_against_empty_front_is_box_volume() {
        let front: Vec<Vec<f64>> = Vec::new();
        let got = hypervolume_contribution(&front, &[1.0, 2.0], &[4.0, 4.0]);
        assert!((got - 6.0).abs() < 1e-12);
    }

    #[test]
    fn scorer_contribution_matches_rescan() {
        // Raw (un-filtered) LCG point sets stress dominated front members
        // and points past the reference; the partition's box sums must
        // agree with the clip-and-subtract definition to roundoff in
        // every dimension it supports.
        for d in 1..=3usize {
            let reference = vec![10.0; d];
            for seed in 0..8u64 {
                let front = lcg_points(seed * 11 + 2, 20, d, 9.5);
                let scorer = ContributionScorer::new(&front, &reference);
                assert_eq!(scorer.len(), 20);
                for c in lcg_points(seed * 17 + 9, 12, d, 11.0) {
                    let expect = hypervolume_contribution(&front, &c, &reference);
                    let got = scorer.contribution(&c);
                    assert!(
                        (got - expect).abs() < 1e-9,
                        "d={d} seed={seed}: {got} vs {expect} for {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scorer_penalty_bitwise_matches_naive_scan() {
        let eps = 1e-3;
        for d in 2..=3usize {
            for seed in 0..6u64 {
                // Quantize to force exact coordinate ties across points.
                let front: Vec<Vec<f64>> = lcg_points(seed * 5 + 1, 24, d, 4.0)
                    .into_iter()
                    .map(|p| p.into_iter().map(|v| (v * 8.0).floor() / 8.0).collect())
                    .collect();
                let scorer = ContributionScorer::new(&front, &vec![5.0; d]);
                for c in lcg_points(seed * 3 + 7, 16, d, 4.5) {
                    let mut naive = 0.0;
                    for f in &front {
                        if f.iter().zip(&c).all(|(fv, cv)| *fv <= cv + eps) {
                            let depth: f64 =
                                f.iter().zip(&c).map(|(fv, cv)| (cv - fv).max(0.0)).sum();
                            naive += depth + eps;
                        }
                    }
                    let got = scorer.epsilon_penalty(&c, eps);
                    assert_eq!(
                        got.to_bits(),
                        naive.to_bits(),
                        "d={d} seed={seed}: {got} vs naive {naive} for {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scorer_score_combines_penalty_and_contribution() {
        let front = vec![vec![1.0, 3.0], vec![3.0, 1.0]];
        let reference = vec![5.0, 5.0];
        let scorer = ContributionScorer::new(&front, &reference);
        let eps = 1e-3;
        // Epsilon-dominated candidate: negative penalty score.
        let dominated = [2.0, 4.0];
        let pen = scorer.epsilon_penalty(&dominated, eps);
        assert!(pen > 0.0);
        assert_eq!(scorer.score(&dominated, eps), -pen);
        // Non-dominated candidate: positive contribution score.
        let good = [0.5, 0.5];
        let score = scorer.score(&good, eps);
        assert!(score > 0.0);
        assert!(
            (score - hypervolume_contribution(&front, &good, &reference)).abs() < 1e-9,
            "score {score}"
        );
    }

    #[test]
    fn scorer_edge_cases() {
        let reference = vec![4.0, 4.0, 4.0];
        let empty = ContributionScorer::new(&[], &reference);
        assert!(empty.is_empty());
        let got = empty.contribution(&[1.0, 2.0, 3.0]);
        assert!((got - 6.0).abs() < 1e-12, "empty front must yield the box volume, got {got}");
        assert_eq!(empty.epsilon_penalty(&[1.0, 1.0, 1.0], 1e-3), 0.0);

        let scorer = ContributionScorer::new(&[vec![1.0, 1.0, 1.0]], &reference);
        assert_eq!(scorer.contribution(&[2.0, 2.0, 2.0]), 0.0, "dominated candidate");
        assert_eq!(scorer.contribution(&[1.0, 1.0, 1.0]), 0.0, "duplicate candidate");
        assert_eq!(scorer.contribution(&[5.0, 1.0, 1.0]), 0.0, "outside reference");
    }

    #[test]
    fn staircase_handles_exact_coordinate_ties() {
        // Same-x and same-y insertions exercise the covered / evicted tie
        // branches of the partition's staircase; validate against the
        // clip-and-subtract definition.
        let reference = vec![10.0, 10.0, 10.0];
        let front = vec![
            vec![2.0, 6.0, 1.0],
            vec![2.0, 4.0, 2.0], // same x, better y: evicts the first in-slab
            vec![4.0, 4.0, 3.0], // dominated in xy by the second: covered
            vec![2.0, 4.0, 4.0], // exact xy duplicate: covered
            vec![1.0, 8.0, 5.0], // new leftmost stair
        ];
        let scorer = ContributionScorer::new(&front, &reference);
        for c in [[0.5, 0.5, 0.5], [1.5, 3.0, 0.2], [3.0, 3.0, 3.0]] {
            let expect = hypervolume_contribution(&front, &c, &reference);
            let got = scorer.contribution(&c);
            assert!((got - expect).abs() < 1e-9, "{got} vs {expect} for {c:?}");
        }
    }
}

/// Inverted generational distance: mean Euclidean distance from each
/// reference-front point to its nearest point in `approximation`. Lower
/// is better; zero means the approximation covers the reference front.
///
/// # Panics
///
/// Panics when `reference_front` is empty or dimensions are
/// inconsistent.
pub fn inverted_generational_distance(
    approximation: &[Vec<f64>],
    reference_front: &[Vec<f64>],
) -> f64 {
    assert!(!reference_front.is_empty(), "reference front must be non-empty");
    if approximation.is_empty() {
        return f64::INFINITY;
    }
    let mut total = 0.0;
    for r in reference_front {
        let nearest = approximation
            .iter()
            .map(|a| {
                assert_eq!(a.len(), r.len(), "objective dimension mismatch");
                a.iter().zip(r).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min);
        total += nearest.sqrt();
    }
    total / reference_front.len() as f64
}

#[cfg(test)]
mod igd_tests {
    use super::*;

    #[test]
    fn perfect_cover_has_zero_igd() {
        let front = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert_eq!(inverted_generational_distance(&front, &front), 0.0);
    }

    #[test]
    fn distance_grows_with_gap() {
        let reference = vec![vec![0.0, 0.0]];
        let near = vec![vec![0.1, 0.0]];
        let far = vec![vec![1.0, 0.0]];
        assert!(
            inverted_generational_distance(&near, &reference)
                < inverted_generational_distance(&far, &reference)
        );
    }

    #[test]
    fn empty_approximation_is_infinite() {
        let reference = vec![vec![0.0, 0.0]];
        assert!(inverted_generational_distance(&[], &reference).is_infinite());
    }
}
