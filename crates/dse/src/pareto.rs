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

/// A reusable scorer for SMS-EGO acquisition: precomputes front indexes
/// once so that scoring a large candidate pool against a frozen front
/// stops rescanning the whole front per candidate.
///
/// Two accelerations over the naive per-candidate loop:
///
/// * [`ContributionScorer::epsilon_penalty`] pre-sorts the front by its
///   first objective, so the epsilon-dominance scan only visits the
///   prefix with `f₀ ≤ c₀ + ε` (a necessary condition for the full
///   check) instead of the whole front. Qualifying points are then
///   accumulated in front order, making the result **bit-identical** to
///   the naive in-order scan.
/// * [`ContributionScorer::contribution`] replaces the generic
///   `hypervolume(clipped)` recomputation inside
///   [`hypervolume_contribution`] — which re-runs Pareto filtering per
///   z-slab, O(k³) worst-case in three objectives — with a single
///   z-sweep that maintains the clipped union's 2-D staircase *and its
///   area* incrementally, O(k log k) typical / O(k²) worst-case. Within
///   ~1e-9 of the rescan (floating-point reassociation only).
///
/// Build one per acquisition iteration and share it read-only across
/// scoring chunks; give each chunk its own [`ScorerScratch`] so the hot
/// loop allocates nothing per candidate.
#[derive(Debug, Clone)]
pub struct ContributionScorer {
    reference: Vec<f64>,
    /// Front points padded to three objectives and stored contiguously,
    /// so the per-candidate clip scan streams one flat allocation.
    front: Vec<[f64; 3]>,
    d: usize,
    /// Front indices sorted ascending by first objective.
    by_obj0: Vec<usize>,
}

/// Reusable working buffers for [`ContributionScorer`]. One per scoring
/// thread/chunk; every buffer is cleared (not shrunk) between candidates
/// so steady-state scoring performs no heap allocation.
#[derive(Debug, Default, Clone)]
pub struct ScorerScratch {
    /// Candidate-clipped front points, padded to three objectives.
    clipped: Vec<[f64; 3]>,
    /// Indices of epsilon-dominating front points, restored to front order.
    hits: Vec<usize>,
    /// The 3-D sweep's active 2-D staircase.
    stairs: Vec<(f64, f64)>,
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
        ContributionScorer { reference: reference.to_vec(), front: flat, d, by_obj0 }
    }

    /// Number of front points the scorer was built over.
    pub fn len(&self) -> usize {
        self.front.len()
    }

    /// True when the scorer's front is empty.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty()
    }

    /// Creates a scratch sized for this scorer's front. One per scoring
    /// thread/chunk.
    pub fn scratch(&self) -> ScorerScratch {
        ScorerScratch {
            clipped: Vec::with_capacity(self.front.len()),
            hits: Vec::with_capacity(self.front.len()),
            stairs: Vec::with_capacity(self.front.len() + 1),
        }
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
    /// ~1e-9 (the incremental union sweep reassociates additions).
    ///
    /// # Panics
    ///
    /// Panics if `candidate` has the wrong dimension.
    pub fn contribution(&self, candidate: &[f64]) -> f64 {
        self.contribution_with(&mut self.scratch(), candidate)
    }

    /// [`ContributionScorer::contribution`] against caller-owned buffers
    /// — the allocation-free form for hot scoring loops.
    pub fn contribution_with(&self, scratch: &mut ScorerScratch, candidate: &[f64]) -> f64 {
        let d = self.d;
        assert_eq!(candidate.len(), d, "objective dimension mismatch");
        if !candidate.iter().zip(&self.reference).all(|(x, r)| x < r) {
            return 0.0;
        }
        scratch.clipped.clear();
        for f in &self.front {
            if f.iter().zip(candidate).all(|(a, b)| a <= b) {
                return 0.0;
            }
            let mut g = [0.0f64; 3];
            let mut inside = true;
            for j in 0..d {
                g[j] = f[j].max(candidate[j]);
                inside &= g[j] < self.reference[j];
            }
            if inside {
                scratch.clipped.push(g);
            }
        }
        let box_vol: f64 = candidate.iter().zip(&self.reference).map(|(c, r)| r - c).product();
        if scratch.clipped.is_empty() {
            return box_vol;
        }
        let union = match d {
            1 => {
                self.reference[0]
                    - scratch.clipped.iter().map(|g| g[0]).fold(f64::INFINITY, f64::min)
            }
            2 => union_area_2d(&mut scratch.clipped, &self.reference),
            _ => union_volume_3d(&mut scratch.clipped, &mut scratch.stairs, &self.reference),
        };
        (box_vol - union).max(0.0)
    }

    /// An upper bound on [`ContributionScorer::contribution`] from one
    /// `O(|front|)` scan with no sort: the volume `∏ᵢ max(uᵢ − cᵢ, 0)` of
    /// the box `[c, u]`, where `uᵢ = min(refᵢ, min{fᵢ : f ∈ front,
    /// fⱼ ≤ cⱼ ∀ j ≠ i})`.
    ///
    /// Every point `x` of the candidate's exclusive region lies in that
    /// box: if `xᵢ ≥ fᵢ` for a front point `f` with `fⱼ ≤ cⱼ ≤ xⱼ` for
    /// every `j ≠ i`, then `f` dominates `x`. A front point that weakly
    /// dominates the candidate, or a candidate outside the reference,
    /// gives `0`, as the contribution does. Where no front point clips
    /// the box, the bound is the contribution's box volume bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `candidate` has the wrong dimension.
    pub fn box_bound(&self, candidate: &[f64]) -> f64 {
        let d = self.d;
        assert_eq!(candidate.len(), d, "objective dimension mismatch");
        let mut upper = [0.0f64; 3];
        upper[..d].copy_from_slice(&self.reference);
        for f in &self.front {
            // The coordinates where `f` is worse than the candidate: none
            // means `f` dominates it; exactly one, `i`, caps `uᵢ`.
            let mut above = (0..d).filter(|&j| f[j] > candidate[j]);
            match (above.next(), above.next()) {
                (None, _) => return 0.0,
                (Some(i), None) => upper[i] = upper[i].min(f[i]),
                _ => {}
            }
        }
        candidate.iter().zip(&upper).map(|(c, u)| (u - c).max(0.0)).product()
    }

    /// A bound on [`ContributionScorer::score_with`] from one scan of the
    /// front: the score itself, `-penalty`, when the candidate is
    /// penalized, and otherwise its [`ContributionScorer::box_bound`].
    /// It is negative exactly when the candidate is penalized.
    pub fn score_bound_with(
        &self,
        scratch: &mut ScorerScratch,
        candidate: &[f64],
        eps: f64,
    ) -> f64 {
        let penalty = self.epsilon_penalty_with(scratch, candidate, eps);
        if penalty > 0.0 {
            -penalty
        } else {
            self.box_bound(candidate)
        }
    }

    /// The full SMS-EGO acquisition score: `-penalty` when any front
    /// point epsilon-dominates the candidate, otherwise the hypervolume
    /// contribution. Matches the historical inline scoring exactly.
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
            self.contribution_with(scratch, candidate)
        }
    }
}

/// Union area of the boxes `[gᵢ, reference]` in 2-D: the hv2d sweep
/// without the (unnecessary for a union) Pareto pre-filter.
fn union_area_2d(clipped: &mut [[f64; 3]], reference: &[f64]) -> f64 {
    clipped.sort_unstable_by(|a, b| a[0].total_cmp(&b[0]));
    let mut area = 0.0;
    let mut prev_y = reference[1];
    for g in clipped {
        if g[1] < prev_y {
            area += (reference[0] - g[0]) * (prev_y - g[1]);
            prev_y = g[1];
        }
    }
    area
}

/// Union volume of the boxes `[gᵢ, reference]` in 3-D: sweep ascending
/// z, maintaining the active points' 2-D union as a staircase whose area
/// is updated incrementally on insertion, and accumulate `area · Δz` per
/// slab. O(k log k) typical; each staircase point is inserted and
/// evicted at most once.
fn union_volume_3d(
    clipped: &mut [[f64; 3]],
    stairs: &mut Vec<(f64, f64)>,
    reference: &[f64],
) -> f64 {
    clipped.sort_unstable_by(|a, b| a[2].total_cmp(&b[2]));
    stairs.clear();
    let mut area = 0.0;
    let mut volume = 0.0;
    for i in 0..clipped.len() {
        insert_stair(stairs, &mut area, clipped[i][0], clipped[i][1], reference);
        let z_lo = clipped[i][2];
        let z_hi = if i + 1 < clipped.len() { clipped[i + 1][2] } else { reference[2] };
        if z_hi > z_lo {
            volume += area * (z_hi - z_lo);
        }
    }
    volume
}

/// Inserts `(x, y)` into a staircase of mutually non-dominated points
/// (x strictly ascending, y strictly descending), keeping `area` — the
/// union area of the boxes `[(xᵢ, yᵢ), reference]` — consistent via the
/// slab identity `area = Σ (x_{i+1} − xᵢ)(ref₁ − yᵢ)` (with `x_{last+1}`
/// = `ref₀`). Covered points are no-ops; points dominated by the new one
/// are evicted as one contiguous block.
fn insert_stair(stairs: &mut Vec<(f64, f64)>, area: &mut f64, x: f64, y: f64, reference: &[f64]) {
    let lo = stairs.partition_point(|p| p.0 < x);
    // Covered: a predecessor at strictly smaller x with y no larger, or
    // an existing stair at exactly this x with y no larger.
    if lo > 0 && stairs[lo - 1].1 <= y {
        return;
    }
    if lo < stairs.len() && stairs[lo].0 == x && stairs[lo].1 <= y {
        return;
    }
    // Evict the contiguous block the new point dominates (y descending
    // makes `p.1 >= y` a prefix property from `lo`).
    let mut hi = lo;
    while hi < stairs.len() && stairs[hi].1 >= y {
        hi += 1;
    }
    for j in lo..hi {
        let right = if j + 1 < stairs.len() { stairs[j + 1].0 } else { reference[0] };
        *area -= (right - stairs[j].0) * (reference[1] - stairs[j].1);
    }
    if lo > 0 {
        // The predecessor's slab now ends at the new point instead of at
        // the first (possibly evicted) stair to its right.
        let old_right = if lo < stairs.len() { stairs[lo].0 } else { reference[0] };
        *area -= (old_right - x) * (reference[1] - stairs[lo - 1].1);
    }
    let right = if hi < stairs.len() { stairs[hi].0 } else { reference[0] };
    *area += (right - x) * (reference[1] - y);
    stairs.splice(lo..hi, [(x, y)]);
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
        // Raw (un-filtered) LCG point sets stress dominated front members,
        // duplicate coordinates, and clipped-box collapse; the incremental
        // staircase must agree with the rescan path to fp-reassociation
        // tolerance in every dimension it supports.
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
        // branches of the staircase; validate against the rescan.
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
