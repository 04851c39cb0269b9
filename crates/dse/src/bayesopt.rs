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
use crate::gp::{
    median_sq_dist, GaussianProcess, SparseGaussianProcess, SurrogateMode, MAX_EXACT_POINTS,
};
use crate::linalg::Matrix;
use crate::pareto::{ContributionScorer, IncrementalFront, ScorerScratch};
use crate::result::OptimizationResult;
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
/// factorization instead of refitting, objective ranges are running
/// min/max rather than per-iteration rescans, the candidate pool is built in flat
/// buffers keyed by point rank (see `CandidatePool`), candidate scores
/// reuse a per-iteration
/// [`ContributionScorer`] (one branch-free loop per candidate over a box
/// partition of the region the front does not dominate), front
/// neighbours that recur from one pool to the next keep their kernel
/// correlations in a cross-iteration cache (an exact-pack hit correlates
/// only the rows added since), exact-pack candidates are bounded from
/// their kernel correlations first and solved only while they can still
/// win (see [`ExactAcquisition`]), and the initial sample is evaluated as
/// one batch over worker threads with results committed in draw order —
/// so a run is bit-identical for a fixed seed regardless of thread
/// count.
///
/// Past the archive size set by [`SurrogateMode`] (default threshold
/// 256, see [`SmsEgoOptimizer::with_surrogate_mode`]) and at the latest
/// past [`MAX_EXACT_POINTS`], the per-objective surrogates switch from
/// exact GPs to low-rank sparse ones over the full archive, keeping
/// large-budget runs (paper-style budget-2000 fleet sweeps) out of O(n³)
/// territory.
#[derive(Debug, Clone)]
pub struct SmsEgoOptimizer {
    seed: u64,
    init_samples: usize,
    candidate_pool: usize,
    surrogate: SurrogateMode,
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
            surrogate: SurrogateMode::default_sparse(),
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
/// The normalized Pareto front depends on the archive's running
/// objective ranges: while the ranges hold still it extends
/// incrementally, and only a range-moving commit triggers a
/// renormalizing rebuild. It reproduces `pareto_indices` over the
/// normalized history exactly (see [`IncrementalFront`]'s equivalence
/// contract), so acquisition scores are bit-identical to the
/// full-rescan implementation. The raw-objective front is the
/// archive's own ([`Archive::front`]).
///
/// It also carries the [`ColumnCache`]: the kernel correlations of the
/// previous pool's front neighbours, which mostly recur in the next
/// pool; and the [`CandidatePool`]'s buffers, which every iteration
/// refills.
struct AcquisitionState {
    norm_front: IncrementalFront,
    /// The archive's [`Archive::range_moves`] when `norm_front` was
    /// last normalized.
    norm_ranges: u64,
    /// The hypervolume reference point in normalized objective space.
    reference: Vec<f64>,
    synced: usize,
    columns: ColumnCache,
    pool: CandidatePool,
}

impl AcquisitionState {
    fn new(n_obj: usize) -> AcquisitionState {
        AcquisitionState {
            norm_front: IncrementalFront::new(),
            norm_ranges: 0,
            reference: vec![1.2; n_obj],
            synced: 0,
            columns: ColumnCache { key: 0, columns: RankMap::default() },
            pool: CandidatePool::default(),
        }
    }

    /// Brings the normalized front up to date with the archive.
    fn sync(&mut self, archive: &Archive<'_>) {
        let fresh = if self.norm_ranges == archive.range_moves() {
            obs::add("bo.front.extend", (archive.len() - self.synced) as u64);
            self.synced
        } else {
            self.norm_front.clear();
            self.norm_ranges = archive.range_moves();
            obs::add("bo.front.rebuild", 1);
            0
        };
        for rec in &archive.history()[fresh..] {
            self.norm_front.push(rec.iteration, archive.normalized(&rec.objectives));
        }
        self.synced = archive.len();
    }
}

/// The cross-iteration column cache: per-candidate kernel correlations,
/// keyed by candidate rank ([`DesignSpace::rank`]), valid for one fit
/// generation.
///
/// An exact-pack entry holds the candidate's correlations against the
/// training rows. Within one key the exact pack only extends and
/// retargets, so [`GaussianProcess::extend_correlations`] brings an
/// entry current over the rows added since. A sparse-pack entry holds
/// the candidate's correlations against the inducing set, which with
/// the lengthscale is frozen within one key, so it is reused as is. A
/// full refit (and so any switch between the packs) changes the key and
/// clears the cache.
///
/// Only front neighbours are kept: each iteration takes the pool's
/// entries out, drops everything else, and puts back the correlations
/// of the candidates that were drawn as neighbours of the Pareto set.
/// Random draws almost never recur in a large space and are never
/// stored, so memory is bounded by the live neighbourhood rather than by
/// a cap.
struct ColumnCache {
    key: u64,
    columns: RankMap<Vec<f64>>,
}

impl ColumnCache {
    /// Takes the columns of the pool's candidates (by rank) out, in pool
    /// order (`None` for a miss), and evicts every other entry. A cache
    /// filled under another key is cleared first.
    fn take(&mut self, key: u64, ranks: &[u64]) -> Vec<Option<Vec<f64>>> {
        if self.key != key {
            self.columns.clear();
            self.key = key;
        }
        let taken: Vec<Option<Vec<f64>>> =
            ranks.iter().map(|rank| self.columns.remove(rank)).collect();
        self.columns.clear();
        let hits = taken.iter().filter(|c| c.is_some()).count();
        obs::add("bo.acquisition.column_cache.hit", hits as u64);
        obs::add("bo.acquisition.column_cache.miss", (ranks.len() - hits) as u64);
        taken
    }

    /// Puts back the columns scoring kept (the pool's front neighbours'),
    /// in pool order.
    fn put_back(&mut self, ranks: &[u64], columns: Vec<Option<Vec<f64>>>) {
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
/// the inducing set. Each step below factors, extends or retargets once
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
///   instead of refitting.
///
/// Both kinds train on the full archive; the exact kind only while it
/// holds at most [`MAX_EXACT_POINTS`] points.
///
/// Any failed incremental step falls back to a full refit, and the
/// milestone schedule still refreshes the lengthscale every
/// `max(n/4, 4)` points.
struct Surrogates {
    pack: SurrogatePack,
    trained: usize,
    next_refit: usize,
    /// The archive's [`Archive::range_moves`] when the targets were last
    /// normalized.
    norm_ranges: u64,
    /// Bumped on every full refit — the only event that can change the
    /// pack's training rows, inducing set, or lengthscale wholesale —
    /// and never reused within a run. Incremental reuse (extend and
    /// retarget) keeps the generation, which keys the acquisition side's
    /// [`ColumnCache`].
    fit_generation: u64,
}

impl Surrogates {
    /// Brings the surrogates up to date with the archive, incrementally
    /// when valid and refitting otherwise. Returns `None` when the
    /// archive cannot be fitted (degenerate geometry); the caller then
    /// falls back to random sampling for this iteration. `generations`
    /// counts the run's full fits, including failed ones, and numbers
    /// the next one.
    fn update(
        current: Option<Surrogates>,
        space: &DesignSpace,
        archive: &Archive<'_>,
        mode: SurrogateMode,
        generations: &mut u64,
    ) -> Option<Surrogates> {
        let n = archive.len();
        let SurrogateMode::Sparse { threshold, inducing } = mode;
        let sparse_inducing = (n > threshold.min(MAX_EXACT_POINTS)).then_some(inducing);
        if let Some(mut s) = current {
            let compatible = s.pack.is_sparse() == sparse_inducing.is_some() && n < s.next_refit;
            if compatible {
                if s.reuse(space, archive) {
                    return Some(s);
                }
                obs::add("dse.gp.extend_fallback", 1);
            }
        }
        obs::add("dse.gp.full_refit", 1);
        *generations += 1;
        Surrogates::full_fit(space, archive, sparse_inducing, *generations)
    }

    /// Brings an existing pack current without refitting: retarget on
    /// range moves, extend new points.
    fn reuse(&mut self, space: &DesignSpace, archive: &Archive<'_>) -> bool {
        if self.norm_ranges != archive.range_moves() && !self.retarget(archive) {
            return false;
        }
        self.try_extend(space, archive)
    }

    /// Renormalizes the training targets of the records already inside
    /// the pack against the archive's moved ranges, reusing the
    /// factorization. Pairs with the acquisition side's
    /// `bo.front.rebuild`: a range move costs two triangular solves per
    /// objective instead of a full refit.
    fn retarget(&mut self, archive: &Archive<'_>) -> bool {
        if !self.pack.retarget(&archive.normalized_targets(self.trained)) {
            return false;
        }
        self.norm_ranges = archive.range_moves();
        obs::add("bo.gp.retarget", 1);
        true
    }

    fn try_extend(&mut self, space: &DesignSpace, archive: &Archive<'_>) -> bool {
        let counter =
            if self.pack.is_sparse() { "bo.gp.sparse.extend" } else { "dse.gp.rank1_extend" };
        for rec in &archive.history()[self.trained..] {
            let x = space.encode(&rec.point);
            if !self.pack.extend(&x, &archive.normalized(&rec.objectives)) {
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
        sparse_inducing: Option<usize>,
        fit_generation: u64,
    ) -> Option<Surrogates> {
        let n = archive.len();
        let train = archive.history();
        let xs: Vec<Vec<f64>> = train.iter().map(|e| space.encode(&e.point)).collect();
        let lengthscale_sq = median_sq_dist(&xs);
        let ys = archive.normalized_targets(n);
        // A degenerate fit (duplicate geometry, singular kernel) is
        // non-fatal here: the caller falls back to random sampling for
        // this iteration rather than aborting the run.
        let pack = if let Some(m) = sparse_inducing {
            let gp = SparseGaussianProcess::fit_pack(&xs, &ys, lengthscale_sq, m).ok()?;
            obs::add("bo.gp.sparse.fit", 1);
            obs::gauge_set("bo.gp.sparse.inducing", gp.inducing_count() as f64);
            SurrogatePack::Sparse(gp)
        } else {
            SurrogatePack::Exact(GaussianProcess::fit_pack(&xs, &ys, lengthscale_sq).ok()?)
        };
        Some(Surrogates {
            pack,
            trained: n,
            // Milestone schedule: refreshing the lengthscale every
            // max(n/4, 4) points amortizes the O(n³) refit to O(n²)
            // per iteration.
            next_refit: n + (n / 4).max(4),
            norm_ranges: archive.range_moves(),
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
        let mut archive = Archive::new(space, evaluator, budget, self.threads, control);

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
            let _iter = obs::span("bo.iteration");
            surrogates = obs::time("bo.surrogate_update", || {
                Surrogates::update(
                    surrogates.take(),
                    space,
                    &archive,
                    self.surrogate,
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
        let front_points = archive.front().indices().iter().take(16);
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
        let key = surrogates.fit_generation;
        let mut columns = obs::time("bo.acquisition.score", || {
            obs::time("bo.acquisition.gp_predict", || {
                pool.encode(space);
                acquisition.columns.take(key, pool.ranks())
            })
        });
        let pool = &*pool;
        let best = obs::time("bo.acquisition.score", || {
            let points = pool.encoded();
            match &surrogates.pack {
                SurrogatePack::Exact(gp) => {
                    let acquisition = ExactAcquisition::new(gp, &scorer);
                    obs::time("bo.acquisition.exact", || {
                        acquisition.select(&points, &mut columns, pool.neighbour())
                    })
                }
                SurrogatePack::Sparse(gp) => SparseAcquisition::new(gp, &scorer).select(
                    &points,
                    &mut columns,
                    pool.neighbour(),
                ),
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
/// 3. **Solve**: the exact score, solved in rounds of `SOLVE_ROUND` (8).
///
/// The subset rung pays at large training sets. Sending every subset
/// promotion straight to a solve round left picks and results bit-equal
/// in alternating 15 s perfbench pairs, but dse-scale (budget 384) was
/// slower in 6 of 6 pairs (`op_iqm_s` +3 % to +30 %), while serve-mix
/// (SMS-EGO budgets 24–120) was faster in 4 of 4 (−3 % to −15 %). A rung
/// chosen by training-set size could take both gains.
///
/// [`ExactAcquisition::select`] bounds every candidate at the score
/// tier, then refines best-first: the candidate with the highest current
/// bound (ties by pool index) moves up one tier, and one at the top tier
/// joins the next solve round, whose exact scores raise the running
/// best `τ`, until the highest bound is below `τ` by more than
/// `PRUNE_MARGIN`. The first round is the single top candidate, so `τ`
/// exists before most candidates are refined.
/// Up to `SOLVE_ROUND` heap tops in a row at the score tier move up
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
/// bound first, ties by the lower pool index `j`.
#[derive(Debug, Clone, Copy)]
struct Rung {
    bound: f64,
    tier: Tier,
    j: usize,
}

impl Ord for Rung {
    fn cmp(&self, other: &Rung) -> std::cmp::Ordering {
        self.bound.total_cmp(&other.bound).then(other.j.cmp(&self.j))
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

/// A candidate on the ladder: its training correlations, and per
/// objective (the scorer takes at most three) its exact posterior mean
/// and optimistic LCB.
struct Candidate {
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
        let candidate = self.candidate(corr.to_vec());
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
    fn candidate(&self, corr: Vec<f64>) -> Candidate {
        let (mut means, mut lcb) = ([0.0; 3], [0.0; 3]);
        for (o, (mean, var)) in self.pack.optimistic_moments(&corr).enumerate() {
            means[o] = mean;
            lcb[o] = mean - BETA * var.sqrt();
        }
        Candidate { corr, means, lcb }
    }

    /// The subset tier: the score of the LCB with the subset variance
    /// bounds `variances`.
    fn subset_score(
        &self,
        candidate: &Candidate,
        variances: &[f64],
        scratch: &mut ScorerScratch,
    ) -> f64 {
        let mut lcb = [0.0; 3];
        for ((slot, mean), var) in lcb.iter_mut().zip(&candidate.means).zip(variances) {
            *slot = mean - BETA * var.sqrt();
        }
        self.scorer.score_with(scratch, &lcb[..self.n_obj()], EPS)
    }

    /// Picks the pool's SMS-EGO winner — the first candidate in pool
    /// order with the highest exact score — solving only candidates
    /// that can still win (see [`ExactAcquisition`]).
    ///
    /// `points` are the encoded candidates. `columns[j]` holds candidate
    /// `j`'s training correlations from an earlier call, taken against
    /// this pack before some extends and retargets only — a refit makes
    /// them stale (`None` when there are none). On return it holds the
    /// candidate's current correlations when `keep[j]` and `None`
    /// otherwise. The first pass extends the cached correlations over
    /// the rows added since, correlates every miss through one kernel
    /// panel and bounds every candidate at the score tier; then the
    /// ladder runs. Both run on the calling thread, in pool order.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length, a point has the
    /// wrong dimension, or a column was taken against a larger pack.
    pub fn select(
        &self,
        points: &[impl AsRef<[f64]>],
        columns: &mut [Option<Vec<f64>>],
        keep: &[bool],
    ) -> Option<usize> {
        assert_eq!(points.len(), columns.len(), "one column per candidate");
        assert_eq!(points.len(), keep.len(), "one keep flag per candidate");
        let candidates: Vec<Candidate> = obs::time("bo.acquisition.gp_predict", || {
            let misses: Vec<&[f64]> = points
                .iter()
                .zip(columns.iter())
                .filter(|(_, column)| column.is_none())
                .map(|(p, _)| p.as_ref())
                .collect();
            let panel = self.pack.query_correlations(&misses);
            let mut next_miss = 0;
            points
                .iter()
                .zip(columns.iter_mut())
                .map(|(point, column)| {
                    let corr = match column.take() {
                        Some(mut corr) => {
                            self.pack.extend_correlations(point.as_ref(), &mut corr);
                            corr
                        }
                        None => {
                            next_miss += 1;
                            panel.row(next_miss - 1).to_vec()
                        }
                    };
                    self.candidate(corr)
                })
                .collect()
        });
        let mut scratch = self.scorer.scratch();
        let mut ladder: BinaryHeap<Rung> = obs::time("bo.acquisition.hv_score", || {
            let n_obj = self.n_obj();
            (candidates.iter().enumerate())
                .map(|(j, candidate)| {
                    let bound = self.scorer.score_with(&mut scratch, &candidate.lcb[..n_obj], EPS);
                    Rung { bound, tier: Tier::Score, j }
                })
                .collect()
        });
        let mut scores: Vec<Option<f64>> = vec![None; points.len()];
        let mut best: Option<f64> = None;

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
                    round.push(rung.j);
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
                            .map(|r| self.pack.subset_variance_bounds(&candidates[r.j].corr))
                            .collect()
                    });
                    promoted += batch.len();
                    for (r, variances) in batch.into_iter().zip(variances) {
                        let bound = self.subset_score(&candidates[r.j], &variances, &mut scratch);
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
            // The round's exact LCBs: one blocked solve over a panel of
            // the candidates' correlations, which stay with them.
            let lcbs: Vec<[f64; 3]> = obs::time("bo.acquisition.gp_predict", || {
                let panel = Matrix::from_fn(n, round.len(), |i, c| candidates[round[c]].corr[i]);
                let sumsqs = self.pack.forward_sumsq(&panel);
                (round.iter().zip(sumsqs))
                    .map(|(&j, sumsq)| {
                        let mut lcb = [0.0; 3];
                        let moments = self.pack.exact_moments(&candidates[j].corr, sumsq);
                        for (slot, (mean, var)) in lcb.iter_mut().zip(moments) {
                            *slot = mean - BETA * var.sqrt();
                        }
                        lcb
                    })
                    .collect()
            });
            obs::time("bo.acquisition.hv_score", || {
                for (&j, lcb) in round.iter().zip(lcbs) {
                    let score = self.scorer.score_with(&mut scratch, &lcb[..self.n_obj()], EPS);
                    best = Some(best.map_or(score, |b| b.max(score)));
                    scores[j] = Some(score);
                }
            });
            round.clear();
        }
        drop(refining);
        let tier_count = |tier: Tier| ladder.iter().filter(|r| r.tier == tier).count() as u64;
        obs::add("bo.acquisition.bounded", candidates.len() as u64);
        obs::add("bo.acquisition.solved", solved as u64);
        obs::add("bo.acquisition.pruned", ladder.len() as u64);
        obs::add("bo.acquisition.score_pruned", tier_count(Tier::Score));
        obs::add("bo.acquisition.subset_pruned", tier_count(Tier::Subset));
        obs::add("bo.hv.incremental", (points.len() + promoted + solved) as u64);
        obs::time("bo.acquisition.gp_predict", || {
            for ((column, candidate), &keep) in columns.iter_mut().zip(candidates).zip(keep) {
                if keep {
                    *column = Some(candidate.corr);
                }
            }
        });
        first_max(scores)
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
            // The default threshold (256) keeps a 40-point run exact.
            exact_total += SmsEgoOptimizer::new(seed)
                .with_init_samples(10)
                .with_candidate_pool(64)
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
    fn exact_pack_never_trains_past_max_exact_points() {
        // A threshold past MAX_EXACT_POINTS still switches to the sparse
        // pack once the archive outgrows the exact bound.
        let space = DesignSpace::new(vec![8, 8, 8]).unwrap();
        let mode = SurrogateMode::Sparse { threshold: 10_000, inducing: 16 };
        let mut archive =
            Archive::new(&space, &Bowl3, MAX_EXACT_POINTS + 1, Some(1), &RunControl::none());
        let points = (0..=MAX_EXACT_POINTS).map(|i| vec![i % 8, i / 8 % 8, i / 64]);
        archive.evaluate(points.clone().take(MAX_EXACT_POINTS)).unwrap();
        let mut generations = 0;
        let exact = Surrogates::update(None, &space, &archive, mode, &mut generations).unwrap();
        assert!(!exact.pack.is_sparse(), "{MAX_EXACT_POINTS} points stay exact");
        archive.evaluate(points.skip(MAX_EXACT_POINTS)).unwrap();
        assert_eq!(archive.len(), MAX_EXACT_POINTS + 1);
        let sparse =
            Surrogates::update(Some(exact), &space, &archive, mode, &mut generations).unwrap();
        assert!(sparse.pack.is_sparse(), "one point past the bound is sparse");
        assert_eq!(generations, 2, "the switch is a full refit");
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
