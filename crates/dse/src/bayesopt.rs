//! Multi-objective Bayesian optimization with the SMS-EGO acquisition.
//!
//! Design points are identified by their rank in the design space
//! ([`DesignSpace::rank`]): the evaluated set, the per-iteration
//! candidate pool and the cross-iteration column cache are all keyed by
//! it, and the pool is drawn, deduplicated and encoded in flat buffers
//! reused across iterations, so only the winning point of an iteration
//! becomes a `Vec<usize>`.

use autopilot_obs as obs;
use autopilot_rng::Rng;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;

use crate::archive::Archive;
use crate::control::RunControl;
use crate::error::DseError;
use crate::evaluator::{Evaluator, MultiObjectiveOptimizer};
use crate::fastexp::KernelExpMode;
use crate::gp::{
    median_sq_dist, ExactColumn, GaussianProcess, SparseGaussianProcess, SurrogateMode,
};
use crate::linalg::Matrix;
use crate::pareto::{ContributionScorer, IncrementalFront, ScorerScratch};
use crate::result::{EvaluationRecord, OptimizationResult};
use crate::space::{DesignSpace, RankMap};

/// S-Metric-Selection Efficient Global Optimization (Ponweiser et al.,
/// PPSN 2008), the acquisition strategy AutoPilot uses in Phase 2.
///
/// One Gaussian-process posterior is fitted per objective, all sharing one
/// factorization of the shared training inputs; candidates are scored by
/// the *hypervolume improvement* of their lower-confidence-bound vector
/// against the current archive front, with an additive penalty for
/// candidates whose LCB is already (epsilon-)dominated.
///
/// The inner loop is engineered to stay cheap at paper-scale budgets:
/// the surrogate pack grows by rank-1 Cholesky extension (O(n²) per
/// new observation) between milestone full refits of the lengthscale,
/// range moves of the normalization *retarget* the existing
/// factorization instead of refitting, window slides *downdate* it one
/// oldest point at a time, objective ranges are running min/max rather
/// than per-iteration rescans, the candidate pool is built in flat
/// buffers keyed by point rank (see `CandidatePool`), candidate scores
/// reuse a per-iteration
/// [`ContributionScorer`] (one branch-free loop per candidate over a box
/// partition of the region the front does not dominate), front
/// neighbours that recur from one pool to the next keep their surrogate
/// columns in a cross-iteration cache (an exact-pack hit solves only the
/// rows added since, bit-identical to a fresh solve — see
/// [`ExactColumn`]), exact-pack candidates are bounded from their
/// kernel correlations first and solved only while they can still win
/// (see [`ExactAcquisition`]), and the initial sample is evaluated as
/// one batch over worker threads with results committed in draw order —
/// so a run is bit-identical for a fixed seed regardless of thread
/// count.
///
/// Past the archive size set by [`SurrogateMode`] (default threshold
/// 256, see [`SmsEgoOptimizer::with_surrogate_mode`]), the
/// per-objective surrogates switch from exact GPs to low-rank sparse
/// ones over the *full* archive, keeping large-budget runs
/// (paper-style budget-2000 fleet sweeps) out of O(n³) territory.
#[derive(Debug, Clone)]
pub struct SmsEgoOptimizer {
    seed: u64,
    init_samples: usize,
    candidate_pool: usize,
    max_gp_points: usize,
    surrogate: SurrogateMode,
    exp_mode: KernelExpMode,
    seed_points: Vec<Vec<usize>>,
    threads: Option<usize>,
}

impl SmsEgoOptimizer {
    /// Creates an optimizer with the published default settings.
    pub fn new(seed: u64) -> SmsEgoOptimizer {
        SmsEgoOptimizer {
            seed,
            init_samples: 16,
            candidate_pool: 256,
            max_gp_points: 256,
            surrogate: SurrogateMode::default_sparse(),
            exp_mode: KernelExpMode::Exact,
            seed_points: Vec::new(),
            threads: None,
        }
    }

    /// Overrides the surrogate engagement policy (default:
    /// [`SurrogateMode::default_sparse`], sparse past 256 archived
    /// points).
    pub fn with_surrogate_mode(mut self, mode: SurrogateMode) -> SmsEgoOptimizer {
        self.surrogate = mode;
        self
    }

    /// Overrides the kernel exponential mode (default: the bit-exact
    /// [`KernelExpMode::Exact`]).
    pub fn with_exp_mode(mut self, mode: KernelExpMode) -> SmsEgoOptimizer {
        self.exp_mode = mode;
        self
    }

    /// Overrides the exact-GP sliding-window size (the most recent `n`
    /// archive points train the surrogates while the exact path is
    /// active).
    pub fn with_max_gp_points(mut self, n: usize) -> SmsEgoOptimizer {
        self.max_gp_points = n.max(8);
        self
    }

    /// Adds domain-informed points evaluated before the random
    /// initialization (they count toward the budget). The paper seeds its
    /// search "to explore regions that quickly give us desired results".
    pub fn with_seed_points(mut self, points: Vec<Vec<usize>>) -> SmsEgoOptimizer {
        self.seed_points = points;
        self
    }

    /// Overrides the number of random initial samples.
    pub fn with_init_samples(mut self, n: usize) -> SmsEgoOptimizer {
        self.init_samples = n.max(2);
        self
    }

    /// Overrides the per-iteration candidate pool size.
    pub fn with_candidate_pool(mut self, n: usize) -> SmsEgoOptimizer {
        self.candidate_pool = n.max(8);
        self
    }

    /// Pins the worker count for the initial sample's parallel
    /// evaluation (default: [`crate::par::worker_count`]).
    pub fn with_threads(mut self, n: usize) -> SmsEgoOptimizer {
        self.threads = Some(n.max(1));
        self
    }
}

/// LCB exploration factor: candidates are scored at `mean - BETA·std`.
const BETA: f64 = 1.0;

/// SMS-EGO's epsilon-dominance margin: a candidate's LCB within `EPS`
/// of a front point in every objective is penalized.
const EPS: f64 = 1e-3;

/// Acquisition bookkeeping reused across BO iterations instead of being
/// rebuilt from the full history every time a candidate pool is scored.
///
/// The raw-objective Pareto front only ever *extends* (raw objective
/// values never change once evaluated), so it is maintained purely
/// incrementally. The normalized front depends on the archive's running
/// objective ranges: while the ranges hold still it extends
/// incrementally too, and only a range-moving evaluation triggers a
/// renormalizing rebuild. Both fronts reproduce `pareto_indices` over
/// the corresponding point sequence exactly (see
/// [`IncrementalFront`]'s equivalence contract), so acquisition scores
/// are bit-identical to the full-rescan implementation.
///
/// It also carries the [`ColumnCache`]: the surrogate columns of the
/// previous pool's front neighbours, which mostly recur in the next
/// pool; and the [`CandidatePool`]'s buffers, which every iteration
/// refills.
struct AcquisitionState {
    raw_front: IncrementalFront,
    norm_front: IncrementalFront,
    norm_mins: Vec<f64>,
    norm_maxs: Vec<f64>,
    /// The hypervolume reference point in normalized objective space.
    reference: Vec<f64>,
    synced: usize,
    columns: ColumnCache,
    pool: CandidatePool,
}

impl AcquisitionState {
    fn new(n_obj: usize) -> AcquisitionState {
        AcquisitionState {
            raw_front: IncrementalFront::new(),
            norm_front: IncrementalFront::new(),
            norm_mins: vec![f64::INFINITY; n_obj],
            norm_maxs: vec![f64::NEG_INFINITY; n_obj],
            reference: vec![1.2; n_obj],
            synced: 0,
            columns: ColumnCache { key: (0, 0), columns: RankMap::default() },
            pool: CandidatePool::default(),
        }
    }

    /// Brings both fronts up to date with the archive.
    fn sync(&mut self, archive: &Archive<'_>) {
        let normalized = |rec: &EvaluationRecord| -> Vec<f64> {
            rec.objectives
                .iter()
                .enumerate()
                .map(|(i, &v)| normalize(v, archive.mins()[i], archive.maxs()[i]))
                .collect()
        };
        for rec in &archive.history()[self.synced..] {
            self.raw_front.push(rec.iteration, rec.objectives.clone());
        }
        if self.norm_mins == archive.mins() && self.norm_maxs == archive.maxs() {
            for rec in &archive.history()[self.synced..] {
                self.norm_front.push(rec.iteration, normalized(rec));
            }
            obs::add("bo.front.extend", (archive.len() - self.synced) as u64);
        } else {
            self.norm_front.clear();
            for rec in archive.history() {
                self.norm_front.push(rec.iteration, normalized(rec));
            }
            self.norm_mins = archive.mins().to_vec();
            self.norm_maxs = archive.maxs().to_vec();
            obs::add("bo.front.rebuild", 1);
        }
        self.synced = archive.len();
    }
}

/// One candidate's surrogate state, as held by the [`ColumnCache`].
enum Column {
    /// A candidate of the exact pack, solved or only correlated.
    Exact(ExactSlot),
    /// Kernel correlations against the sparse pack's inducing set.
    Sparse(Vec<f64>),
}

/// The cross-iteration column cache: per-candidate surrogate columns,
/// keyed by candidate rank ([`DesignSpace::rank`]), valid for one
/// `(fit generation, window start)`.
///
/// Within one key the exact pack only extends and retargets, so a
/// solved exact column is brought current by [`ExactColumn::refresh`]
/// (bit-identical to a fresh solve) and a pending one by
/// [`GaussianProcess::extend_correlations`], and the sparse pack's
/// inducing set, lengthscale and exp mode are frozen, so a sparse column
/// is reused as is. A full refit or a downdate changes the key and
/// clears the cache.
///
/// Only front neighbours are kept: each iteration takes the pool's
/// entries out, drops everything else, and puts back the columns of the
/// candidates that were drawn as neighbours of the Pareto set. Random
/// draws almost never recur in a large space and are never stored, so
/// memory is bounded by the live neighbourhood rather than by a cap.
struct ColumnCache {
    key: (u64, usize),
    columns: RankMap<Column>,
}

impl ColumnCache {
    /// Takes the columns of the pool's candidates (by rank) out, in pool
    /// order (`None` for a miss), and evicts every other entry. A cache
    /// filled under another key is cleared first.
    fn take(&mut self, key: (u64, usize), ranks: &[u64]) -> Vec<Option<Column>> {
        if self.key != key {
            self.columns.clear();
            self.key = key;
        }
        let taken: Vec<Option<Column>> =
            ranks.iter().map(|rank| self.columns.remove(rank)).collect();
        self.columns.clear();
        let hits = taken.iter().filter(|c| c.is_some()).count();
        obs::add("bo.acquisition.column_cache.hit", hits as u64);
        obs::add("bo.acquisition.column_cache.miss", (ranks.len() - hits) as u64);
        taken
    }

    /// Puts back the columns scoring kept (the pool's front neighbours'),
    /// in pool order.
    fn put_back(&mut self, ranks: &[u64], columns: Vec<Option<Column>>) {
        for (&rank, column) in ranks.iter().zip(columns) {
            if let Some(column) = column {
                self.columns.insert(rank, column);
            }
        }
    }
}

/// One iteration's SMS-EGO candidate pool in flat buffers: points
/// `dims` entries each, identified by rank ([`DesignSpace::rank`]). The
/// buffers live in the [`AcquisitionState`] and are refilled every
/// iteration, so once they have grown to the largest pool, building and
/// encoding a pool allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct CandidatePool {
    dims: usize,
    /// Every draw of the last build, `dims` entries each.
    drawn: Vec<usize>,
    /// Pool index by rank, for the deduplication.
    slots: RankMap<usize>,
    /// The candidates, `dims` entries each, in first-draw order.
    points: Vec<usize>,
    ranks: Vec<u64>,
    /// Whether any draw of the candidate was a front neighbour.
    neighbour: Vec<bool>,
    /// The candidates' encodings ([`DesignSpace::encode_into`]), `dims`
    /// entries each.
    encoded: Vec<f64>,
}

impl CandidatePool {
    /// Refills the pool: draws `random` uniform points, then the ordinal
    /// neighbours of each point of `front` in turn, and keeps in draw
    /// order the first draw of every point whose rank is not `seen`.
    /// A kept candidate is flagged as a neighbour when any of its draws
    /// was one.
    ///
    /// Dropping seen candidates and repeats changes no pick: a seen
    /// candidate is never picked, and a repeat scores like its first
    /// draw, which first-max-wins prefers. The RNG draws themselves do
    /// not depend on what is dropped.
    pub(crate) fn build<'p>(
        &mut self,
        space: &DesignSpace,
        seen: impl Fn(u64) -> bool,
        random: usize,
        front: impl IntoIterator<Item = &'p [usize]>,
        rng: &mut Rng,
    ) {
        self.dims = space.dims();
        self.drawn.clear();
        for _ in 0..random {
            space.random_point_into(rng, &mut self.drawn);
        }
        for point in front {
            space.neighbors_into(point, &mut self.drawn);
        }
        self.slots.clear();
        self.points.clear();
        self.ranks.clear();
        self.neighbour.clear();
        for (k, cand) in self.drawn.chunks_exact(self.dims).enumerate() {
            let is_neighbour = k >= random;
            let rank = space.rank(cand);
            if seen(rank) {
                continue;
            }
            match self.slots.entry(rank) {
                Entry::Occupied(slot) => self.neighbour[*slot.get()] |= is_neighbour,
                Entry::Vacant(slot) => {
                    slot.insert(self.ranks.len());
                    self.points.extend_from_slice(cand);
                    self.ranks.push(rank);
                    self.neighbour.push(is_neighbour);
                }
            }
        }
    }

    /// Number of candidates.
    fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Candidate `i`'s point.
    fn point(&self, i: usize) -> &[usize] {
        &self.points[i * self.dims..(i + 1) * self.dims]
    }

    /// The candidates' ranks, in pool order.
    fn ranks(&self) -> &[u64] {
        &self.ranks
    }

    /// Per candidate, whether it was drawn as a front neighbour.
    fn neighbour(&self) -> &[bool] {
        &self.neighbour
    }

    /// Encodes every candidate into the pool's encoding buffer.
    fn encode(&mut self, space: &DesignSpace) {
        self.encoded.clear();
        for point in self.points.chunks_exact(self.dims) {
            space.encode_into(point, &mut self.encoded);
        }
    }

    /// The encodings of the last [`CandidatePool::encode`], one slice per
    /// candidate.
    fn encoded(&self) -> Vec<&[f64]> {
        self.encoded.chunks_exact(self.dims).collect()
    }
}

/// The per-objective surrogate pack, exact or sparse: one GP with one
/// posterior per objective, so every objective shares the training
/// inputs, the lengthscale, the factorization and (for the sparse kind)
/// the inducing set. Each step below factors, extends or downdates once
/// for the whole pack, and one kernel cross-matrix and one solve serve
/// every objective during acquisition scoring. A failed step leaves the
/// pack unchanged.
enum SurrogatePack {
    Exact(GaussianProcess),
    Sparse(SparseGaussianProcess),
}

impl SurrogatePack {
    fn is_sparse(&self) -> bool {
        matches!(self, SurrogatePack::Sparse(_))
    }

    /// Appends one observation, one target per objective.
    fn extend(&mut self, x: &[f64], ys: &[f64]) -> bool {
        match self {
            SurrogatePack::Exact(gp) => gp.extend(x, ys),
            SurrogatePack::Sparse(gp) => gp.extend(x, ys),
        }
    }

    /// Replaces every objective's training targets in place.
    fn retarget(&mut self, ys: &[Vec<f64>]) -> bool {
        match self {
            SurrogatePack::Exact(gp) => gp.retarget(ys),
            SurrogatePack::Sparse(gp) => gp.retarget(ys),
        }
    }

    /// Downdates the pack past its oldest training point. Only the exact
    /// kind supports this (the sparse kind trains on the full archive and
    /// never slides).
    fn drop_oldest(&mut self) -> bool {
        match self {
            SurrogatePack::Exact(gp) => gp.drop_oldest(),
            SurrogatePack::Sparse(_) => false,
        }
    }
}

/// Per-objective GP surrogates kept current incrementally.
///
/// Training targets are objectives normalized by the archive ranges.
/// Between milestone refits the lengthscale (and noise) is frozen, which
/// is what makes every incremental pathway exact linear algebra rather
/// than approximation:
///
/// * new observations are rank-1 Cholesky *extensions* (O(n²) exact,
///   O(m²) sparse),
/// * archive range moves are *retargets* — new normalized targets are
///   re-solved against the existing factorization (O(n²) / O(n·m))
///   instead of refitting,
/// * training-window slides are rank-1 Cholesky *downdates* of the
///   oldest point (exact kind only; the sparse kind trains on the full
///   archive).
///
/// Any failed incremental step falls back to a full refit, and the
/// milestone schedule still refreshes the lengthscale every
/// `max(n/4, 4)` points.
struct Surrogates {
    pack: SurrogatePack,
    start: usize,
    trained: usize,
    next_refit: usize,
    norm_mins: Vec<f64>,
    norm_maxs: Vec<f64>,
    /// Bumped on every full refit — the only event that can change the
    /// pack's training rows, inducing set, or lengthscale wholesale —
    /// and never reused within a run. Incremental reuse
    /// (extend/retarget/downdate) keeps the generation; together with
    /// `start` (which a downdate moves) it keys the acquisition side's
    /// [`ColumnCache`].
    fit_generation: u64,
}

impl Surrogates {
    /// Brings the surrogates up to date with the archive, incrementally
    /// when valid and refitting otherwise. Returns `None` when the
    /// window cannot be fitted (degenerate geometry); the caller then
    /// falls back to random sampling for this iteration. `generations`
    /// counts the run's full fits, including failed ones, and numbers
    /// the next one.
    fn update(
        current: Option<Surrogates>,
        space: &DesignSpace,
        archive: &Archive<'_>,
        max_gp_points: usize,
        mode: SurrogateMode,
        exp_mode: KernelExpMode,
        generations: &mut u64,
    ) -> Option<Surrogates> {
        let n = archive.len();
        let sparse_inducing = match mode {
            SurrogateMode::Sparse { threshold, inducing } if n > threshold => Some(inducing),
            _ => None,
        };
        // The sparse surrogate is low-rank in the inducing set, so it
        // affords the full archive; the exact kind slides a window.
        let start = if sparse_inducing.is_some() { 0 } else { n.saturating_sub(max_gp_points) };
        if let Some(mut s) = current {
            let compatible = s.pack.is_sparse() == sparse_inducing.is_some()
                && s.start <= start
                && n < s.next_refit;
            if compatible {
                if s.reuse(space, archive, start) {
                    return Some(s);
                }
                obs::add("dse.gp.extend_fallback", 1);
            }
        }
        obs::add("dse.gp.full_refit", 1);
        *generations += 1;
        Surrogates::full_fit(space, archive, start, sparse_inducing, exp_mode, *generations)
    }

    /// Brings an existing pack current without refitting: retarget on
    /// range moves, slide the window by downdates, extend new points.
    fn reuse(&mut self, space: &DesignSpace, archive: &Archive<'_>, start: usize) -> bool {
        if (self.norm_mins != archive.mins() || self.norm_maxs != archive.maxs())
            && !self.retarget(archive)
        {
            return false;
        }
        while self.start < start {
            if !self.pack.drop_oldest() {
                return false;
            }
            self.start += 1;
            obs::add("bo.gp.downdate", 1);
        }
        self.try_extend(space, archive)
    }

    /// Renormalizes the training targets of the records already inside
    /// the pack against the archive's moved ranges, reusing the
    /// factorization. Pairs with the acquisition side's
    /// `bo.front.rebuild`: a range move costs two triangular solves per
    /// objective instead of a full refit.
    fn retarget(&mut self, archive: &Archive<'_>) -> bool {
        let window = &archive.history()[self.start..self.trained];
        let n_obj = archive.mins().len();
        let ys: Vec<Vec<f64>> = (0..n_obj)
            .map(|obj| {
                window
                    .iter()
                    .map(|e| normalize(e.objectives[obj], archive.mins()[obj], archive.maxs()[obj]))
                    .collect()
            })
            .collect();
        if !self.pack.retarget(&ys) {
            return false;
        }
        self.norm_mins = archive.mins().to_vec();
        self.norm_maxs = archive.maxs().to_vec();
        obs::add("bo.gp.retarget", 1);
        true
    }

    fn try_extend(&mut self, space: &DesignSpace, archive: &Archive<'_>) -> bool {
        let counter =
            if self.pack.is_sparse() { "bo.gp.sparse.extend" } else { "dse.gp.rank1_extend" };
        for rec in &archive.history()[self.trained..] {
            let x = space.encode(&rec.point);
            let ys: Vec<f64> = rec
                .objectives
                .iter()
                .enumerate()
                .map(|(obj, &v)| normalize(v, self.norm_mins[obj], self.norm_maxs[obj]))
                .collect();
            if !self.pack.extend(&x, &ys) {
                return false;
            }
            obs::add(counter, 1);
        }
        self.trained = archive.len();
        true
    }

    fn full_fit(
        space: &DesignSpace,
        archive: &Archive<'_>,
        start: usize,
        sparse_inducing: Option<usize>,
        exp_mode: KernelExpMode,
        fit_generation: u64,
    ) -> Option<Surrogates> {
        let n = archive.len();
        let train = &archive.history()[start..];
        let xs: Vec<Vec<f64>> = train.iter().map(|e| space.encode(&e.point)).collect();
        let lengthscale_sq = median_sq_dist(&xs);
        let ys: Vec<Vec<f64>> = (0..archive.mins().len())
            .map(|obj| {
                train
                    .iter()
                    .map(|e| normalize(e.objectives[obj], archive.mins()[obj], archive.maxs()[obj]))
                    .collect()
            })
            .collect();
        // A degenerate fit (duplicate geometry, singular kernel) is
        // non-fatal here: the caller falls back to random sampling for
        // this iteration rather than aborting the run.
        let pack = if let Some(m) = sparse_inducing {
            let gp = SparseGaussianProcess::fit_pack(&xs, &ys, lengthscale_sq, m, exp_mode).ok()?;
            obs::add("bo.gp.sparse.fit", 1);
            obs::gauge_set("bo.gp.sparse.inducing", gp.inducing_count() as f64);
            SurrogatePack::Sparse(gp)
        } else {
            SurrogatePack::Exact(
                GaussianProcess::fit_pack(&xs, &ys, lengthscale_sq, exp_mode).ok()?,
            )
        };
        Some(Surrogates {
            pack,
            start,
            trained: n,
            // Milestone schedule: refreshing the lengthscale every
            // max(n/4, 4) points amortizes the O(n³) refit to O(n²)
            // per iteration.
            next_refit: n + (n / 4).max(4),
            norm_mins: archive.mins().to_vec(),
            norm_maxs: archive.maxs().to_vec(),
            fit_generation,
        })
    }
}

impl MultiObjectiveOptimizer for SmsEgoOptimizer {
    fn name(&self) -> &str {
        "sms-ego-bo"
    }

    fn run_controlled(
        &mut self,
        space: &DesignSpace,
        evaluator: &dyn Evaluator,
        budget: usize,
        control: &RunControl,
    ) -> Result<OptimizationResult, DseError> {
        let _span = obs::span("sms_ego.run");
        control.check()?;
        let mut rng = Rng::seed_from_u64(self.seed);
        let n_obj = evaluator.num_objectives();
        let mut archive = Archive::new(space, evaluator, budget, self.threads);

        // Domain-informed seed points, then the space-filling random
        // sample, evaluated as one batch: the points are drawn first (the
        // sequence never depends on objective values).
        let mut batch: Vec<Vec<usize>> = Vec::new();
        for p in &self.seed_points {
            if space.contains(p) && !batch.contains(p) {
                batch.push(p.clone());
            }
        }
        batch.truncate(archive.budget());
        let init_target = self.init_samples.min(archive.budget());
        let mut retries = archive.budget().saturating_mul(20).saturating_add(100);
        archive.draw_fresh(&mut rng, &mut batch, init_target, &mut retries);
        control.check()?;
        archive.evaluate(batch.drain(..))?;

        // BO loop: one evaluation per iteration, surrogates and Pareto
        // fronts kept current incrementally.
        let mut surrogates: Option<Surrogates> = None;
        let mut generations = 0;
        let mut acquisition = AcquisitionState::new(n_obj);
        while !archive.is_full() {
            control.check()?;
            control.checkpoint(archive.len(), acquisition.raw_front.indices().len());
            let _iter = obs::span("bo.iteration");
            surrogates = obs::time("bo.surrogate_update", || {
                Surrogates::update(
                    surrogates.take(),
                    space,
                    &archive,
                    self.max_gp_points,
                    self.surrogate,
                    self.exp_mode,
                    &mut generations,
                )
            });
            let next = match &surrogates {
                Some(s) => obs::time("bo.acquisition", || {
                    self.select_candidate(space, &archive, s, &mut acquisition, &mut rng)
                }),
                None => None,
            };
            match next {
                Some(i) => archive.evaluate([acquisition.pool.point(i)])?,
                None => {
                    // Fallback: a fresh random point.
                    let mut retries = 200;
                    archive.draw_fresh(&mut rng, &mut batch, 1, &mut retries);
                    if batch.is_empty() {
                        break; // space exhausted
                    }
                    archive.evaluate(batch.drain(..))?;
                }
            }
        }

        Ok(archive.into_result(self.name()))
    }
}

impl SmsEgoOptimizer {
    fn select_candidate(
        &self,
        space: &DesignSpace,
        archive: &Archive<'_>,
        surrogates: &Surrogates,
        acquisition: &mut AcquisitionState,
        rng: &mut Rng,
    ) -> Option<usize> {
        // Fronts maintained across iterations: only the points committed
        // since the last call are pushed (plus a renormalizing rebuild
        // when the archive ranges moved).
        obs::time("bo.acquisition.front_sync", || acquisition.sync(archive));
        let front = acquisition.norm_front.points();
        obs::gauge_set("bo.front.size", front.len() as f64);
        // One scorer per iteration: the front is frozen during scoring,
        // so its obj-0 index and its partition of the non-dominated
        // region are shared read-only by every candidate below.
        let reference = &acquisition.reference;
        let scorer =
            obs::time("bo.acquisition.hv_score", || ContributionScorer::new(front, reference));
        obs::add("bo.hv.boxes", scorer.box_count() as u64);
        obs::add("bo.hv.front_points", scorer.len() as u64);

        // Candidate pool: random points plus ordinal neighbours of the
        // Pareto-set designs (local refinement), without the evaluated
        // points and repeats (see `CandidatePool::build`). Drawn
        // sequentially so the RNG stream is independent of the parallel
        // scoring below. Each candidate remembers whether it was drawn as
        // a front neighbour: only those keep their columns for the next
        // iteration.
        let pool = &mut acquisition.pool;
        let front_points = acquisition.raw_front.indices().iter().take(16);
        pool.build(
            space,
            |rank| archive.contains(rank),
            self.candidate_pool,
            front_points.map(|&i| archive.history()[i].point.as_slice()),
            rng,
        );
        obs::observe("bo.acquisition.pool_size", pool.len() as f64);

        // Take the pool's cached columns out of the cross-iteration cache,
        // score the pool, and put the front neighbours' columns back for
        // the next iteration. Cache traffic and the candidates' encoding
        // are charged to the score / gp_predict spans like the GP work
        // itself.
        let key = (surrogates.fit_generation, surrogates.start);
        let columns = obs::time("bo.acquisition.score", || {
            obs::time("bo.acquisition.gp_predict", || {
                pool.encode(space);
                acquisition.columns.take(key, pool.ranks())
            })
        });
        let pool = &*pool;
        let (best, columns) = obs::time("bo.acquisition.score", || {
            let points = pool.encoded();
            match &surrogates.pack {
                SurrogatePack::Exact(gp) => {
                    let mut slots: Vec<Option<ExactSlot>> = columns
                        .into_iter()
                        .map(|c| match c {
                            Some(Column::Exact(slot)) => Some(slot),
                            _ => None,
                        })
                        .collect();
                    let acquisition = ExactAcquisition::new(gp, &scorer);
                    let best = obs::time("bo.acquisition.exact", || {
                        acquisition.select(&points, &mut slots, pool.neighbour())
                    });
                    (best, slots.into_iter().map(|slot| slot.map(Column::Exact)).collect())
                }
                SurrogatePack::Sparse(gp) => {
                    let mut slots: Vec<Option<Vec<f64>>> = columns
                        .into_iter()
                        .map(|c| match c {
                            Some(Column::Sparse(column)) => Some(column),
                            _ => None,
                        })
                        .collect();
                    let acquisition = SparseAcquisition::new(gp, &scorer);
                    let best = acquisition.select(&points, &mut slots, pool.neighbour());
                    (best, slots.into_iter().map(|slot| slot.map(Column::Sparse)).collect())
                }
            }
        });
        obs::time("bo.acquisition.score", || {
            obs::time("bo.acquisition.gp_predict", || {
                acquisition.columns.put_back(pool.ranks(), columns)
            })
        });
        best
    }
}

/// The sparse-pack SMS-EGO acquisition over one candidate pool: the
/// pool predicts all objectives from its inducing correlations in one
/// pass and every candidate is scored exactly. The pick is the first
/// maximum in pool order, as full scoring makes it.
///
/// Sparse predictions are cheap (`O(m)` per candidate against `m`
/// inducing points), and a score is one `O(|front|)` loop over the
/// scorer's partition (see [`ContributionScorer`]), so nothing is worth
/// pruning.
///
/// No variance bound is used: the sparse variance is `σ²(1 − cᵀDc)`
/// with `D = C_mm⁻¹ − A⁻¹`, which has no fixed diagonal, so the only
/// solve-free lower bound on `cᵀDc` for every `c` is `0`, and the
/// prediction is cheaper than any bound that would need more.
#[derive(Debug)]
pub struct SparseAcquisition<'a> {
    pack: &'a SparseGaussianProcess,
    scorer: &'a ContributionScorer,
}

impl<'a> SparseAcquisition<'a> {
    /// An acquisition over a sparse surrogate pack (one posterior per
    /// objective on shared inputs, lengthscale and inducing set) against
    /// the scorer's frozen front.
    pub fn new(
        pack: &'a SparseGaussianProcess,
        scorer: &'a ContributionScorer,
    ) -> SparseAcquisition<'a> {
        SparseAcquisition { pack, scorer }
    }

    /// Picks the pool's SMS-EGO winner — the first candidate in pool
    /// order with the highest score (see [`SparseAcquisition`]).
    ///
    /// `points` are the encoded candidates. `columns[j]` holds candidate
    /// `j`'s correlations against the inducing set from an earlier call
    /// against this pack's inducing set and lengthscale (`None` when
    /// there is none); misses are filled from one kernel panel. On
    /// return it holds the column when `keep[j]` and `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length, a point has the
    /// wrong dimension, or a column has the wrong length.
    pub fn select(
        &self,
        points: &[impl AsRef<[f64]>],
        columns: &mut [Option<Vec<f64>>],
        keep: &[bool],
    ) -> Option<usize> {
        assert_eq!(points.len(), columns.len(), "one column per candidate");
        assert_eq!(points.len(), keep.len(), "one keep flag per candidate");
        let preds = obs::time("bo.acquisition.gp_predict", || {
            let misses: Vec<usize> = (0..points.len()).filter(|&j| columns[j].is_none()).collect();
            if !misses.is_empty() {
                let miss_points: Vec<&[f64]> = misses.iter().map(|&j| points[j].as_ref()).collect();
                let panel = self.pack.cross_correlations(&miss_points);
                for (k, &j) in misses.iter().enumerate() {
                    columns[j] = Some((0..panel.rows()).map(|i| panel[(i, k)]).collect());
                }
            }
            self.predict(columns)
        });
        let scores = obs::time("bo.acquisition.hv_score", || self.score(&preds));
        obs::time("bo.acquisition.gp_predict", || {
            for (column, &keep) in columns.iter_mut().zip(keep) {
                if !keep {
                    *column = None;
                }
            }
        });
        first_max(scores.into_iter().map(Some))
    }

    /// Per candidate, the `(mean, variance)` of every objective from its
    /// inducing correlations, assembled into one `m × pool` matrix that
    /// the pack predicts from in one pass — bit-identical to the pack's
    /// `predict_batch`.
    fn predict(&self, columns: &[Option<Vec<f64>>]) -> Vec<Vec<(f64, f64)>> {
        obs::add("bo.gp.sparse.predict", 1);
        let mut corr = Matrix::zeros(self.pack.inducing_count(), columns.len());
        for (j, column) in columns.iter().enumerate() {
            for (i, &v) in column.iter().flatten().enumerate() {
                corr[(i, j)] = v;
            }
        }
        self.pack.predict_batch_from_correlations(&corr)
    }

    /// The pool's scores, one per candidate.
    fn score(&self, preds: &[Vec<(f64, f64)>]) -> Vec<f64> {
        let n_obj = self.pack.objective_count();
        // One buffer reused across the whole pool: steady-state scoring
        // allocates nothing per candidate.
        let mut scratch = self.scorer.scratch();
        let scores: Vec<f64> = preds
            .iter()
            .map(|pred| {
                let mut lcb = [0.0; 3];
                for (slot, &(mean, var)) in lcb.iter_mut().zip(pred) {
                    *slot = mean - BETA * var.sqrt();
                }
                self.scorer.score_with(&mut scratch, &lcb[..n_obj], EPS)
            })
            .collect();
        obs::add("bo.hv.incremental", scores.len() as u64);
        scores
    }
}

/// Index of the first maximum score in pool order, skipping candidates
/// that were never scored exactly.
fn first_max(scores: impl IntoIterator<Item = Option<f64>>) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, score) in scores.into_iter().enumerate() {
        let Some(score) = score else { continue };
        match &best {
            Some((s, _)) if *s >= score => {}
            _ => best = Some((score, i)),
        }
    }
    best.map(|(_, i)| i)
}

/// Candidates solved per round of [`ExactAcquisition::select`]: one
/// `n × 8` blocked triangular solve for the whole pack, after which the
/// running best rises before the next round is chosen.
const SOLVE_ROUND: usize = 8;

/// Relative slack under the running best score `τ`: a candidate whose
/// bound is below `τ − PRUNE_MARGIN·max(1, |τ|)` is pruned. It is far
/// above the scorer's roundoff, so a pruned candidate's exact score is
/// strictly below `τ`.
const PRUNE_MARGIN: f64 = 1e-9;

/// The cut under the running best score (`None` before any score): a
/// bound below it cannot reach the best.
fn prune_cut(best: Option<f64>) -> Option<f64> {
    best.map(|t| t - PRUNE_MARGIN * t.abs().max(1.0))
}

/// One exact-pack candidate's state between acquisition calls, as
/// [`ExactAcquisition::select`] takes and leaves it.
#[derive(Debug, Clone)]
pub enum ExactSlot {
    /// Solved: the candidate's correlations and forward solve,
    /// refreshed over the rows added since
    /// ([`ExactColumn::refresh`]) and scored exactly.
    Solved(ExactColumn),
    /// Correlations only: the candidate was bounded and pruned before
    /// its solve. Extended over the rows added since and bounded again.
    Pending(Vec<f64>),
}

/// The exact-pack SMS-EGO acquisition over one candidate pool: every
/// candidate climbs a ladder of score bounds, each tighter and costlier
/// than the one before, and the `O(n²)` triangular solves run only for
/// candidates that can still win. The pick is the one full scoring
/// would make.
///
/// A candidate's exact score is the [`ContributionScorer`] score of its
/// LCB `mean − BETA·√variance` per objective. Every bound keeps the
/// exact means (computed without a solve) and replaces the variance by
/// an upper bound, giving an *optimistic* LCB, no higher than the exact
/// one in any coordinate. The score never rises when an LCB coordinate
/// rises (the epsilon-dominance penalty only grows, the exclusive
/// hypervolume only shrinks, and a penalized score is negative while an
/// unpenalized one is not), so a score of an optimistic LCB bounds the
/// exact score. The tiers:
///
/// 1. **Score**: the full score of the optimistic LCB with the
///    Cauchy–Schwarz variance bound `σ²(1 − maxᵢ cᵢ²/(1 + RELATIVE_NOISE))`,
///    one `O(|front|)` loop over the scorer's partition.
/// 2. **Subset**: the full score of the LCB with the variances of
///    [`GaussianProcess::subset_variance_bounds`] (an 8-row Schur bound).
/// 3. **Solve**: the exact score, solved in rounds of [`SOLVE_ROUND`].
///
/// The subset rung pays at large training sets. Sending every subset
/// promotion straight to a solve round left picks and results bit-equal
/// in alternating 15 s perfbench pairs, but dse-scale (budget 384) was
/// slower in 6 of 6 pairs (`op_iqm_s` +3 % to +30 %), while serve-mix
/// (SMS-EGO budgets 24–120) was faster in 4 of 4 (−3 % to −15 %). A rung
/// chosen by training-set size could take both gains.
///
/// [`ExactAcquisition::select`] scores cached solved columns exactly,
/// which sets the running best `τ`, then refines best-first: the
/// candidate with the highest current bound (ties by pool index) moves
/// up one tier, and one at the top tier joins the next solve round,
/// until the highest bound is below `τ` by more than [`PRUNE_MARGIN`].
/// Up to [`SOLVE_ROUND`] heap tops in a row at the score tier move up
/// together, so their `p × p` solves share one prediction span.
/// A pruned candidate's exact score is then strictly below the final
/// maximum, so first-max-wins over the exactly scored candidates picks
/// the same point as over the whole pool.
#[derive(Debug)]
pub struct ExactAcquisition<'a> {
    pack: &'a GaussianProcess,
    scorer: &'a ContributionScorer,
}

/// The rungs of [`ExactAcquisition`]'s bound ladder below the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Score,
    Subset,
}

/// A bounded candidate on the ladder, ordered for a max-heap: highest
/// bound first, ties by lower `k`. `k` numbers the bounded candidates
/// in pool order, so ties go to the lower pool index.
#[derive(Debug, Clone, Copy)]
struct Rung {
    bound: f64,
    tier: Tier,
    k: usize,
}

impl Ord for Rung {
    fn cmp(&self, other: &Rung) -> std::cmp::Ordering {
        self.bound.total_cmp(&other.bound).then(other.k.cmp(&self.k))
    }
}

impl PartialOrd for Rung {
    fn partial_cmp(&self, other: &Rung) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Rung {
    fn eq(&self, other: &Rung) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Rung {}

/// An unsolved candidate on the ladder: its pool index `j`, its training
/// correlations (taken when it is solved or left pending), and per
/// objective (the scorer takes at most three) its exact posterior mean
/// and optimistic LCB.
struct Unsolved {
    j: usize,
    corr: Vec<f64>,
    means: [f64; 3],
    lcb: [f64; 3],
}

impl<'a> ExactAcquisition<'a> {
    /// An acquisition over an exact surrogate pack (one posterior per
    /// objective on shared inputs, lengthscale and factor) against the
    /// scorer's frozen front.
    pub fn new(pack: &'a GaussianProcess, scorer: &'a ContributionScorer) -> ExactAcquisition<'a> {
        ExactAcquisition { pack, scorer }
    }

    /// The score and subset tiers' bounds for the query whose training
    /// correlations are `corr` (as
    /// [`GaussianProcess::cross_correlations`] gives them): each at
    /// least its exact score, up to the scorer's roundoff.
    ///
    /// # Panics
    ///
    /// Panics if `corr` does not have one entry per training point.
    pub fn bounds(&self, corr: &[f64]) -> [f64; 2] {
        let candidate = self.unsolved(0, corr.to_vec());
        let lcb = &candidate.lcb[..self.n_obj()];
        let mut scratch = self.scorer.scratch();
        [
            self.scorer.score_with(&mut scratch, lcb, EPS),
            self.subset_score(
                &candidate,
                &self.pack.subset_variance_bounds(&candidate.corr),
                &mut scratch,
            ),
        ]
    }

    /// The score tier's bound of [`ExactAcquisition::bounds`].
    ///
    /// # Panics
    ///
    /// Panics if `corr` does not have one entry per training point.
    pub fn bound(&self, corr: &[f64]) -> f64 {
        self.bounds(corr)[0]
    }

    /// The number of objectives the pack predicts.
    fn n_obj(&self) -> usize {
        self.pack.objective_count()
    }

    /// The candidate's exact means and optimistic LCB from its
    /// correlations alone.
    fn unsolved(&self, j: usize, corr: Vec<f64>) -> Unsolved {
        let (mut means, mut lcb) = ([0.0; 3], [0.0; 3]);
        for (o, (mean, var)) in self.pack.optimistic_moments(&corr).enumerate() {
            means[o] = mean;
            lcb[o] = mean - BETA * var.sqrt();
        }
        Unsolved { j, corr, means, lcb }
    }

    /// The subset tier: the score of the LCB with the subset variance
    /// bounds `variances`.
    fn subset_score(
        &self,
        candidate: &Unsolved,
        variances: &[f64],
        scratch: &mut ScorerScratch,
    ) -> f64 {
        let mut lcb = [0.0; 3];
        for ((slot, mean), var) in lcb.iter_mut().zip(&candidate.means).zip(variances) {
            *slot = mean - BETA * var.sqrt();
        }
        self.scorer.score_with(scratch, &lcb[..self.n_obj()], EPS)
    }

    fn exact_lcb(&self, column: &ExactColumn) -> Vec<f64> {
        column.predict(self.pack).map(|(mean, var)| mean - BETA * var.sqrt()).collect()
    }

    /// Picks the pool's SMS-EGO winner — the first candidate in pool
    /// order with the highest exact score — solving only candidates
    /// that can still win (see [`ExactAcquisition`]).
    ///
    /// `points` are the encoded candidates. `slots[j]` holds candidate
    /// `j`'s cached state from an earlier call, taken against this pack
    /// before some extends and retargets only — a downdate or refit makes
    /// it stale (`None` when there is none). On return it holds the state
    /// to keep when `keep[j]` (solved or pending) and `None` otherwise.
    /// The first pass refreshes and scores the cached solved columns,
    /// correlates every other candidate (all cache misses through one
    /// kernel panel) and bounds it at the score tier; then the ladder
    /// runs. Both run on the calling thread, in pool order.
    /// When no cached column sets the running best, the first solve round
    /// is the single most promising candidate.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length, a point has the
    /// wrong dimension, or a slot was taken against a larger pack.
    pub fn select(
        &self,
        points: &[impl AsRef<[f64]>],
        slots: &mut [Option<ExactSlot>],
        keep: &[bool],
    ) -> Option<usize> {
        assert_eq!(points.len(), slots.len(), "one slot per candidate");
        assert_eq!(points.len(), keep.len(), "one keep flag per candidate");
        // The first pass's predictions: the cached solved columns' exact
        // LCBs, and every other candidate unsolved, both in pool order.
        let mut exact: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut unsolved: Vec<Unsolved> = Vec::new();
        obs::time("bo.acquisition.gp_predict", || {
            let misses: Vec<&[f64]> = points
                .iter()
                .zip(slots.iter())
                .filter(|(_, slot)| slot.is_none())
                .map(|(p, _)| p.as_ref())
                .collect();
            let panel = self.pack.query_correlations(&misses);
            let mut next_miss = 0;
            for (j, (point, slot)) in points.iter().zip(slots.iter_mut()).enumerate() {
                let point = point.as_ref();
                if let Some(ExactSlot::Solved(column)) = slot {
                    column.refresh(self.pack, point);
                    exact.push((j, self.exact_lcb(column)));
                    continue;
                }
                let corr = match slot.take() {
                    Some(ExactSlot::Pending(mut corr)) => {
                        self.pack.extend_correlations(point, &mut corr);
                        corr
                    }
                    _ => {
                        next_miss += 1;
                        panel.row(next_miss - 1).to_vec()
                    }
                };
                unsolved.push(self.unsolved(j, corr));
            }
        });
        let mut scores: Vec<Option<f64>> = vec![None; points.len()];
        let mut ladder: BinaryHeap<Rung> = BinaryHeap::with_capacity(unsolved.len());
        let mut scratch = self.scorer.scratch();
        obs::time("bo.acquisition.hv_score", || {
            for (j, lcb) in exact {
                scores[j] = Some(self.scorer.score_with(&mut scratch, &lcb, EPS));
            }
            for (k, candidate) in unsolved.iter().enumerate() {
                let bound =
                    self.scorer.score_with(&mut scratch, &candidate.lcb[..self.n_obj()], EPS);
                ladder.push(Rung { bound, tier: Tier::Score, k });
            }
        });
        let mut best: Option<f64> = scores.iter().flatten().copied().reduce(f64::max);

        let n = self.pack.len();
        let mut round: Vec<usize> = Vec::with_capacity(SOLVE_ROUND);
        let (mut solved, mut promoted) = (0, 0);
        let mut refining: Option<obs::Span> = None;
        loop {
            let cut = prune_cut(best);
            let capacity = if best.is_some() { SOLVE_ROUND } else { 1 };
            let reaches = |r: &Rung| cut.is_none_or(|cut| r.bound >= cut);
            let top = match ladder.peek_mut() {
                Some(top) if round.len() < capacity && reaches(&top) => Some(PeekMut::pop(top)),
                _ => None,
            };
            if let Some(rung) = top {
                refining.get_or_insert_with(|| obs::span("bo.acquisition.hv_score"));
                if rung.tier == Tier::Subset {
                    round.push(rung.k);
                } else {
                    // This rung and the heap tops right behind it that
                    // are also at the score tier are promoted together,
                    // under one prediction span.
                    let mut batch = vec![rung];
                    while batch.len() < SOLVE_ROUND {
                        match ladder.peek_mut() {
                            Some(top) if top.tier == Tier::Score && reaches(&top) => {
                                batch.push(PeekMut::pop(top));
                            }
                            _ => break,
                        }
                    }
                    let variances: Vec<Vec<f64>> = obs::time("bo.acquisition.gp_predict", || {
                        batch
                            .iter()
                            .map(|r| self.pack.subset_variance_bounds(&unsolved[r.k].corr))
                            .collect()
                    });
                    promoted += batch.len();
                    for (r, variances) in batch.into_iter().zip(variances) {
                        let bound = self.subset_score(&unsolved[r.k], &variances, &mut scratch);
                        ladder.push(Rung { bound, tier: Tier::Subset, ..r });
                    }
                }
                continue;
            }
            if round.is_empty() {
                break;
            }
            refining = None;
            solved += round.len();
            let solved_round: Vec<(ExactColumn, Vec<f64>)> =
                obs::time("bo.acquisition.gp_predict", || {
                    let corrs: Vec<Vec<f64>> =
                        round.iter().map(|&k| std::mem::take(&mut unsolved[k].corr)).collect();
                    let panel = Matrix::from_fn(n, round.len(), |i, c| corrs[c][i]);
                    ExactColumn::solve_correlations(self.pack, &panel)
                        .into_iter()
                        .map(|column| {
                            let lcb = self.exact_lcb(&column);
                            (column, lcb)
                        })
                        .collect()
                });
            obs::time("bo.acquisition.hv_score", || {
                for (&k, (column, lcb)) in round.iter().zip(solved_round) {
                    let score = self.scorer.score_with(&mut scratch, &lcb, EPS);
                    let j = unsolved[k].j;
                    best = Some(best.map_or(score, |b| b.max(score)));
                    scores[j] = Some(score);
                    if keep[j] {
                        slots[j] = Some(ExactSlot::Solved(column));
                    }
                }
            });
            round.clear();
        }
        drop(refining);
        let tier_count = |tier: Tier| ladder.iter().filter(|r| r.tier == tier).count() as u64;
        obs::add("bo.acquisition.bounded", unsolved.len() as u64);
        obs::add("bo.acquisition.solved", solved as u64);
        obs::add("bo.acquisition.pruned", ladder.len() as u64);
        obs::add("bo.acquisition.score_pruned", tier_count(Tier::Score));
        obs::add("bo.acquisition.subset_pruned", tier_count(Tier::Subset));
        obs::add("bo.hv.incremental", (points.len() + promoted + solved) as u64);
        obs::time("bo.acquisition.gp_predict", || {
            for rung in ladder {
                let candidate = &mut unsolved[rung.k];
                if keep[candidate.j] {
                    let corr = std::mem::take(&mut candidate.corr);
                    slots[candidate.j] = Some(ExactSlot::Pending(corr));
                }
            }
            for (slot, &keep) in slots.iter_mut().zip(keep) {
                if !keep {
                    *slot = None;
                }
            }
            drop(unsolved);
        });
        first_max(scores)
    }
}

fn normalize(v: f64, min: f64, max: f64) -> f64 {
    if max > min {
        (v - min) / (max - min)
    } else {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::test_problems::{Bowl3, Tradeoff};
    use crate::random::RandomSearch;
    use std::collections::{HashMap, HashSet};

    /// The pool as it was built with one `Vec<usize>` per draw and
    /// `Vec`-keyed maps: the reference for [`CandidatePool::build`].
    /// Returns the pool, its neighbour flags, and how many draws were
    /// seen, repeated an earlier draw, and flipped an earlier draw's flag.
    fn vec_keyed_pool(
        space: &DesignSpace,
        seen: &HashSet<Vec<usize>>,
        random: usize,
        front: &[Vec<usize>],
        rng: &mut Rng,
    ) -> (Vec<Vec<usize>>, Vec<bool>, [usize; 3]) {
        let mut drawn: Vec<Vec<usize>> = Vec::new();
        for _ in 0..random {
            drawn.push((0..space.dims()).map(|d| rng.below(space.cardinality(d))).collect());
        }
        for p in front {
            drawn.extend(space.neighbors(p));
        }
        let mut slots: HashMap<Vec<usize>, usize> = HashMap::new();
        let (mut pool, mut neighbour, mut events) = (Vec::new(), Vec::<bool>::new(), [0; 3]);
        for (d, cand) in drawn.into_iter().enumerate() {
            let is_neighbour = d >= random;
            if seen.contains(&cand) {
                events[0] += 1;
                continue;
            }
            match slots.entry(cand) {
                Entry::Occupied(slot) => {
                    events[1] += 1;
                    events[2] += usize::from(is_neighbour && !neighbour[*slot.get()]);
                    neighbour[*slot.get()] |= is_neighbour;
                }
                Entry::Vacant(slot) => {
                    pool.push(slot.key().clone());
                    neighbour.push(is_neighbour);
                    slot.insert(pool.len() - 1);
                }
            }
        }
        (pool, neighbour, events)
    }

    #[test]
    fn candidate_pool_matches_the_vec_keyed_construction() {
        // A Table-II-shaped space, where repeats come from clustered
        // front points, and a 12-point space, where random draws repeat
        // each other and the neighbours too. One pool is refilled
        // throughout, as across BO iterations.
        let mut pool = CandidatePool::default();
        let mut events = [0; 3];
        for (cards, random) in [(vec![9, 3, 8, 8, 8, 8, 8], 128), (vec![3, 2, 2], 24)] {
            let space = DesignSpace::new(cards).unwrap();
            for seed in 0..6 {
                let mut rng = Rng::seed_from_u64(seed);
                let base = space.random_point(&mut rng);
                let mut front = vec![base.clone()];
                front.extend(space.neighbors(&base).into_iter().step_by(2).take(7));
                let mut seen_points = front.clone();
                seen_points.extend((0..8).map(|_| space.random_point(&mut rng)));
                let seen_vec: HashSet<Vec<usize>> = seen_points.iter().cloned().collect();
                let seen: HashSet<u64> = seen_points.iter().map(|p| space.rank(p)).collect();

                let (mut want_rng, mut got_rng) = (rng.clone(), rng);
                let (want, want_neighbour, e) =
                    vec_keyed_pool(&space, &seen_vec, random, &front, &mut want_rng);
                let seen = |rank| seen.contains(&rank);
                pool.build(&space, seen, random, front.iter().map(Vec::as_slice), &mut got_rng);
                let got: Vec<Vec<usize>> =
                    (0..pool.len()).map(|i| pool.point(i).to_vec()).collect();
                assert_eq!(got, want, "seed {seed}");
                assert_eq!(pool.neighbour(), want_neighbour, "seed {seed}");
                let ranks: Vec<u64> = want.iter().map(|p| space.rank(p)).collect();
                assert_eq!(pool.ranks(), ranks, "seed {seed}");
                assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "same draws, seed {seed}");
                for (total, e) in events.iter_mut().zip(e) {
                    *total += e;
                }
            }
        }
        assert!(events.iter().all(|&e| e > 0), "seen draws, repeats and flag merges: {events:?}");
    }

    #[test]
    fn respects_budget_without_duplicates() {
        let space = DesignSpace::new(vec![32]).unwrap();
        let mut bo = SmsEgoOptimizer::new(3).with_init_samples(6).with_candidate_pool(32);
        let res = bo.run(&space, &Tradeoff, 20).unwrap();
        assert!(res.evaluation_count() <= 20);
        let mut pts: Vec<_> = res.evaluations.iter().map(|e| e.point.clone()).collect();
        pts.sort();
        pts.dedup();
        assert_eq!(pts.len(), res.evaluation_count());
    }

    #[test]
    fn deterministic_given_seed() {
        let space = DesignSpace::new(vec![8, 8, 8]).unwrap();
        let mut a = SmsEgoOptimizer::new(5).with_init_samples(8).with_candidate_pool(32);
        let mut b = SmsEgoOptimizer::new(5).with_init_samples(8).with_candidate_pool(32);
        assert_eq!(a.run(&space, &Bowl3, 24).unwrap(), b.run(&space, &Bowl3, 24).unwrap());
    }

    #[test]
    fn identical_across_thread_counts() {
        let space = DesignSpace::new(vec![8, 8, 8]).unwrap();
        let base = SmsEgoOptimizer::new(6)
            .with_init_samples(8)
            .with_candidate_pool(32)
            .with_threads(1)
            .run(&space, &Bowl3, 20)
            .unwrap();
        for t in [2, 3, 5] {
            let r = SmsEgoOptimizer::new(6)
                .with_init_samples(8)
                .with_candidate_pool(32)
                .with_threads(t)
                .run(&space, &Bowl3, 20)
                .unwrap();
            assert_eq!(base, r, "threads = {t}");
        }
    }

    #[test]
    fn beats_random_search_on_bowl() {
        // With equal budgets, BO should reach at least the hypervolume of
        // random search on a smooth problem (averaged over seeds).
        let space = DesignSpace::new(vec![8, 8, 8]).unwrap();
        let budget = 40;
        let mut bo_total = 0.0;
        let mut rs_total = 0.0;
        for seed in 0..3 {
            let mut bo = SmsEgoOptimizer::new(seed).with_init_samples(10).with_candidate_pool(64);
            bo_total += bo.run(&space, &Bowl3, budget).unwrap().final_hypervolume();
            rs_total +=
                RandomSearch::new(seed).run(&space, &Bowl3, budget).unwrap().final_hypervolume();
        }
        assert!(
            bo_total >= rs_total * 0.98,
            "BO {bo_total:.4} clearly worse than random {rs_total:.4}"
        );
    }

    #[test]
    fn handles_tiny_space_gracefully() {
        let space = DesignSpace::new(vec![3]).unwrap();
        let mut bo = SmsEgoOptimizer::new(1).with_init_samples(2);
        let res = bo.run(&space, &Tradeoff, 50).unwrap();
        assert_eq!(res.evaluation_count(), 3); // space exhausted
    }

    #[test]
    fn sparse_mode_is_deterministic_across_threads() {
        // Low threshold forces the sparse surrogate to engage mid-run;
        // the run must stay bit-identical for any worker count.
        let space = DesignSpace::new(vec![8, 8, 8]).unwrap();
        let run = |threads| {
            SmsEgoOptimizer::new(9)
                .with_init_samples(8)
                .with_candidate_pool(32)
                .with_surrogate_mode(SurrogateMode::Sparse { threshold: 12, inducing: 8 })
                .with_threads(threads)
                .run(&space, &Bowl3, 30)
                .unwrap()
        };
        let base = run(1);
        assert_eq!(base.evaluation_count(), 30);
        for t in [2, 4] {
            assert_eq!(base, run(t), "threads = {t}");
        }
    }

    #[test]
    fn sparse_mode_keeps_pace_with_exact_on_bowl() {
        let space = DesignSpace::new(vec![8, 8, 8]).unwrap();
        let budget = 40;
        let mut sparse_total = 0.0;
        let mut exact_total = 0.0;
        for seed in 0..3 {
            sparse_total += SmsEgoOptimizer::new(seed)
                .with_init_samples(10)
                .with_candidate_pool(64)
                .with_surrogate_mode(SurrogateMode::Sparse { threshold: 16, inducing: 12 })
                .run(&space, &Bowl3, budget)
                .unwrap()
                .final_hypervolume();
            exact_total += SmsEgoOptimizer::new(seed)
                .with_init_samples(10)
                .with_candidate_pool(64)
                .with_surrogate_mode(SurrogateMode::Exact)
                .run(&space, &Bowl3, budget)
                .unwrap()
                .final_hypervolume();
        }
        assert!(
            sparse_total >= exact_total * 0.95,
            "sparse BO {sparse_total:.4} clearly worse than exact {exact_total:.4}"
        );
    }

    #[test]
    fn sliding_window_downdates_stay_deterministic() {
        // A tiny exact-GP window on a longer run forces the downdate
        // (drop-oldest) path every iteration past the window size.
        let space = DesignSpace::new(vec![8, 8, 8]).unwrap();
        let run = |threads| {
            SmsEgoOptimizer::new(11)
                .with_init_samples(8)
                .with_candidate_pool(32)
                .with_max_gp_points(12)
                .with_surrogate_mode(SurrogateMode::Exact)
                .with_threads(threads)
                .run(&space, &Bowl3, 28)
                .unwrap()
        };
        let base = run(1);
        assert_eq!(base.evaluation_count(), 28);
        assert_eq!(base, run(3), "downdate path must be thread-independent");
    }

    #[test]
    fn seed_points_appear_first_in_history() {
        let space = DesignSpace::new(vec![8, 8]).unwrap();
        let seeds = vec![vec![0, 0], vec![7, 7]];
        let mut bo = SmsEgoOptimizer::new(2)
            .with_init_samples(4)
            .with_candidate_pool(16)
            .with_seed_points(seeds.clone());
        let res = bo.run(&space, &Tradeoff, 12).unwrap();
        assert_eq!(res.evaluations[0].point, seeds[0]);
        assert_eq!(res.evaluations[1].point, seeds[1]);
    }
}
