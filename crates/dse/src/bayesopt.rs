//! Multi-objective Bayesian optimization with the SMS-EGO acquisition.

use autopilot_obs as obs;
use autopilot_rng::Rng;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, PoisonError};

use crate::control::RunControl;
use crate::error::{DseError, EvalError};
use crate::evaluator::{Evaluator, MultiObjectiveOptimizer};
use crate::fastexp::KernelExpMode;
use crate::gp::{
    median_sq_dist, ExactColumn, GaussianProcess, SparseGaussianProcess, SurrogateMode,
};
use crate::linalg::Matrix;
use crate::par;
use crate::pareto::{ContributionScorer, IncrementalFront};
use crate::result::{EvaluationRecord, OptimizationResult};
use crate::space::DesignSpace;

/// S-Metric-Selection Efficient Global Optimization (Ponweiser et al.,
/// PPSN 2008), the acquisition strategy AutoPilot uses in Phase 2.
///
/// One Gaussian process is fitted per objective; candidates are scored by
/// the *hypervolume improvement* of their lower-confidence-bound vector
/// against the current archive front, with an additive penalty for
/// candidates whose LCB is already (epsilon-)dominated.
///
/// The inner loop is engineered to stay cheap at paper-scale budgets:
/// the per-objective GPs grow by rank-1 Cholesky extension (O(n²) per
/// new observation) between milestone full refits of the lengthscale,
/// range moves of the normalization *retarget* the existing
/// factorization instead of refitting, window slides *downdate* it one
/// oldest point at a time, objective ranges are running min/max rather
/// than per-iteration rescans, candidate scores reuse a per-iteration
/// [`ContributionScorer`] (no full-front rescan per candidate), front
/// neighbours that recur from one pool to the next keep their surrogate
/// columns in a cross-iteration cache (an exact-pack hit solves only the
/// rows added since, bit-identical to a fresh solve — see
/// [`ExactColumn`]), exact-pack candidates are bounded from their
/// kernel correlations first and solved only while they can still win
/// (see [`ExactAcquisition`]), and both the initial sampling and the
/// acquisition scoring fan out over worker threads with results
/// gathered in index order — so a run is bit-identical for a fixed seed
/// regardless of thread count.
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

    /// Pins the worker count for parallel evaluation and acquisition
    /// scoring (default: [`par::worker_count`]).
    pub fn with_threads(mut self, n: usize) -> SmsEgoOptimizer {
        self.threads = Some(n.max(1));
        self
    }

    fn workers(&self) -> usize {
        self.threads.unwrap_or_else(par::worker_count)
    }
}

/// Evaluation archive with running objective ranges (incremental min/max
/// instead of a full history rescan every BO iteration).
struct Archive {
    history: Vec<EvaluationRecord>,
    seen: HashSet<Vec<usize>>,
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl Archive {
    fn new(n_obj: usize, budget: usize) -> Archive {
        Archive {
            history: Vec::with_capacity(budget),
            seen: HashSet::new(),
            mins: vec![f64::INFINITY; n_obj],
            maxs: vec![f64::NEG_INFINITY; n_obj],
        }
    }

    fn len(&self) -> usize {
        self.history.len()
    }

    fn commit(&mut self, point: Vec<usize>, objectives: Vec<f64>) {
        for (i, &v) in objectives.iter().enumerate() {
            self.mins[i] = self.mins[i].min(v);
            self.maxs[i] = self.maxs[i].max(v);
        }
        self.seen.insert(point.clone());
        self.history.push(EvaluationRecord { iteration: self.history.len(), point, objectives });
    }
}

/// Number of candidates scored per batched GP prediction: one kernel
/// cross-matrix (shared across the objective GPs) and one blocked
/// triangular solve per chunk, with chunks fanned out across workers.
const ACQ_CHUNK: usize = 64;

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
/// pool.
struct AcquisitionState {
    raw_front: IncrementalFront,
    norm_front: IncrementalFront,
    norm_mins: Vec<f64>,
    norm_maxs: Vec<f64>,
    synced: usize,
    columns: ColumnCache,
}

impl AcquisitionState {
    fn new(n_obj: usize) -> AcquisitionState {
        AcquisitionState {
            raw_front: IncrementalFront::new(),
            norm_front: IncrementalFront::new(),
            norm_mins: vec![f64::INFINITY; n_obj],
            norm_maxs: vec![f64::NEG_INFINITY; n_obj],
            synced: 0,
            columns: ColumnCache { key: (0, 0), columns: HashMap::new() },
        }
    }

    /// Brings both fronts up to date with the archive.
    fn sync(&mut self, archive: &Archive) {
        let normalized = |rec: &EvaluationRecord| -> Vec<f64> {
            rec.objectives
                .iter()
                .enumerate()
                .map(|(i, &v)| normalize(v, archive.mins[i], archive.maxs[i]))
                .collect()
        };
        for rec in &archive.history[self.synced..] {
            self.raw_front.push(rec.iteration, rec.objectives.clone());
        }
        if self.norm_mins == archive.mins && self.norm_maxs == archive.maxs {
            for rec in &archive.history[self.synced..] {
                self.norm_front.push(rec.iteration, normalized(rec));
            }
            obs::add("bo.front.extend", (archive.len() - self.synced) as u64);
        } else {
            self.norm_front.clear();
            for rec in &archive.history {
                self.norm_front.push(rec.iteration, normalized(rec));
            }
            self.norm_mins = archive.mins.clone();
            self.norm_maxs = archive.maxs.clone();
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
/// keyed by ordinal candidate, valid for one `(fit generation, window
/// start)`.
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
    columns: HashMap<Vec<usize>, Column>,
}

impl ColumnCache {
    /// Takes the pool's cached columns out, in pool order (`None` for a
    /// miss), and evicts every other entry. A cache filled under another
    /// key is cleared first.
    fn take(&mut self, key: (u64, usize), pool: &[Vec<usize>]) -> Vec<Option<Column>> {
        if self.key != key {
            self.columns.clear();
            self.key = key;
        }
        let taken: Vec<Option<Column>> =
            pool.iter().map(|cand| self.columns.remove(cand)).collect();
        self.columns.clear();
        let hits = taken.iter().filter(|c| c.is_some()).count();
        obs::add("bo.acquisition.column_cache.hit", hits as u64);
        obs::add("bo.acquisition.column_cache.miss", (pool.len() - hits) as u64);
        taken
    }

    /// Puts back the columns scoring kept (the pool's front neighbours'),
    /// in pool order.
    fn put_back(&mut self, pool: &[Vec<usize>], columns: Vec<Option<Column>>) {
        for (cand, column) in pool.iter().zip(columns) {
            if let Some(column) = column {
                self.columns.insert(cand.clone(), column);
            }
        }
    }
}

/// The per-objective surrogate ensemble, exact or sparse. All members
/// always share training inputs, lengthscale, and (for the sparse kind)
/// inducing set, which is what lets one kernel cross-matrix serve the
/// whole pack during acquisition scoring.
enum SurrogatePack {
    Exact(Vec<GaussianProcess>),
    Sparse(Vec<SparseGaussianProcess>),
}

impl SurrogatePack {
    fn is_sparse(&self) -> bool {
        matches!(self, SurrogatePack::Sparse(_))
    }

    fn n_obj(&self) -> usize {
        match self {
            SurrogatePack::Exact(gps) => gps.len(),
            SurrogatePack::Sparse(gps) => gps.len(),
        }
    }

    /// Appends one observation to every member. A partial failure leaves
    /// the pack inconsistent; the caller must fall back to a full refit
    /// in that case.
    fn extend_all(&mut self, x: &[f64], ys: &[f64]) -> bool {
        match self {
            SurrogatePack::Exact(gps) => gps.iter_mut().zip(ys).all(|(gp, &y)| gp.extend(x, y)),
            SurrogatePack::Sparse(gps) => gps.iter_mut().zip(ys).all(|(gp, &y)| gp.extend(x, y)),
        }
    }

    /// Replaces every member's training targets in place (same
    /// inconsistency caveat as [`SurrogatePack::extend_all`]).
    fn retarget_all(&mut self, ys: &[Vec<f64>]) -> bool {
        match self {
            SurrogatePack::Exact(gps) => gps.iter_mut().zip(ys).all(|(gp, y)| gp.retarget(y)),
            SurrogatePack::Sparse(gps) => gps.iter_mut().zip(ys).all(|(gp, y)| gp.retarget(y)),
        }
    }

    /// Downdates every member past its oldest training point. Only the
    /// exact kind supports this (the sparse kind trains on the full
    /// archive and never slides).
    fn drop_oldest_all(&mut self) -> bool {
        match self {
            SurrogatePack::Exact(gps) => gps.iter_mut().all(GaussianProcess::drop_oldest),
            SurrogatePack::Sparse(_) => false,
        }
    }
}

/// Fills the sparse pool's missing columns from one pool-wide kernel
/// panel against the inducing set (column-striped across workers),
/// so only candidates new to the cache are encoded and correlated.
fn resolve_sparse_misses(
    gps: &[SparseGaussianProcess],
    space: &DesignSpace,
    pool: &[Vec<usize>],
    columns: &mut [Option<Column>],
) {
    let misses: Vec<usize> =
        (0..pool.len()).filter(|&j| !matches!(columns[j], Some(Column::Sparse(_)))).collect();
    if misses.is_empty() {
        return;
    }
    let miss_xs: Vec<Vec<f64>> = misses.iter().map(|&j| space.encode(&pool[j])).collect();
    let panel = gps[0].cross_correlations(&miss_xs);
    for (k, &j) in misses.iter().enumerate() {
        columns[j] = Some(Column::Sparse((0..panel.rows()).map(|i| panel[(i, k)]).collect()));
    }
}

/// Per-objective sparse `(mean, variance)` for a chunk of candidates
/// from their inducing correlations (all resolved by
/// [`resolve_sparse_misses`]), assembled into one
/// `m × chunk` matrix that every objective predicts from —
/// bit-identical to each member's `predict_batch`. On return a slot
/// keeps its column only if `keep` marks it (a front neighbour).
fn sparse_predict_chunk(
    gps: &[SparseGaussianProcess],
    keep: &[bool],
    columns: &mut [Option<Column>],
) -> Vec<Vec<(f64, f64)>> {
    obs::add("bo.gp.sparse.predict", 1);
    let mut corr = Matrix::zeros(gps[0].inducing_count(), columns.len());
    for (j, column) in columns.iter().enumerate() {
        if let Some(Column::Sparse(col)) = column {
            for (i, &v) in col.iter().enumerate() {
                corr[(i, j)] = v;
            }
        }
    }
    for (column, &keep) in columns.iter_mut().zip(keep) {
        if !keep {
            *column = None;
        }
    }
    gps.iter().map(|gp| gp.predict_batch_from_correlations(&corr)).collect()
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
        archive: &Archive,
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
    fn reuse(&mut self, space: &DesignSpace, archive: &Archive, start: usize) -> bool {
        if (self.norm_mins != archive.mins || self.norm_maxs != archive.maxs)
            && !self.retarget(archive)
        {
            return false;
        }
        while self.start < start {
            if !self.pack.drop_oldest_all() {
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
    /// `bo.front.rebuild`: a range move now costs two triangular solves
    /// per objective instead of a full refit.
    fn retarget(&mut self, archive: &Archive) -> bool {
        let window = &archive.history[self.start..self.trained];
        let n_obj = archive.mins.len();
        let ys: Vec<Vec<f64>> = (0..n_obj)
            .map(|obj| {
                window
                    .iter()
                    .map(|e| normalize(e.objectives[obj], archive.mins[obj], archive.maxs[obj]))
                    .collect()
            })
            .collect();
        if !self.pack.retarget_all(&ys) {
            return false;
        }
        self.norm_mins = archive.mins.clone();
        self.norm_maxs = archive.maxs.clone();
        obs::add("bo.gp.retarget", 1);
        true
    }

    fn try_extend(&mut self, space: &DesignSpace, archive: &Archive) -> bool {
        let counter =
            if self.pack.is_sparse() { "bo.gp.sparse.extend" } else { "dse.gp.rank1_extend" };
        for rec in &archive.history[self.trained..] {
            let x = space.encode(&rec.point);
            let ys: Vec<f64> = rec
                .objectives
                .iter()
                .enumerate()
                .map(|(obj, &v)| normalize(v, self.norm_mins[obj], self.norm_maxs[obj]))
                .collect();
            if !self.pack.extend_all(&x, &ys) {
                return false;
            }
            obs::add(counter, 1);
        }
        self.trained = archive.len();
        true
    }

    fn full_fit(
        space: &DesignSpace,
        archive: &Archive,
        start: usize,
        sparse_inducing: Option<usize>,
        exp_mode: KernelExpMode,
        fit_generation: u64,
    ) -> Option<Surrogates> {
        let n = archive.len();
        let train = &archive.history[start..];
        let xs: Vec<Vec<f64>> = train.iter().map(|e| space.encode(&e.point)).collect();
        let lengthscale_sq = median_sq_dist(&xs);
        let n_obj = archive.mins.len();
        let targets = |obj: usize| -> Vec<f64> {
            train
                .iter()
                .map(|e| normalize(e.objectives[obj], archive.mins[obj], archive.maxs[obj]))
                .collect()
        };
        // A degenerate fit (duplicate geometry, singular kernel) is
        // non-fatal here: the caller falls back to random sampling for
        // this iteration rather than aborting the run.
        let pack = if let Some(m) = sparse_inducing {
            let mut gps = Vec::with_capacity(n_obj);
            for obj in 0..n_obj {
                gps.push(
                    SparseGaussianProcess::fit_with_lengthscale(
                        &xs,
                        &targets(obj),
                        lengthscale_sq,
                        m,
                        exp_mode,
                    )
                    .ok()?,
                );
            }
            obs::add("bo.gp.sparse.fit", 1);
            obs::gauge_set("bo.gp.sparse.inducing", gps[0].inducing_count() as f64);
            SurrogatePack::Sparse(gps)
        } else {
            let mut gps = Vec::with_capacity(n_obj);
            for obj in 0..n_obj {
                gps.push(
                    GaussianProcess::fit_with_lengthscale(
                        &xs,
                        &targets(obj),
                        lengthscale_sq,
                        exp_mode,
                    )
                    .ok()?,
                );
            }
            SurrogatePack::Exact(gps)
        };
        Some(Surrogates {
            pack,
            start,
            trained: n,
            // Milestone schedule: refreshing the lengthscale every
            // max(n/4, 4) points amortizes the O(n³) refit to O(n²)
            // per iteration.
            next_refit: n + (n / 4).max(4),
            norm_mins: archive.mins.clone(),
            norm_maxs: archive.maxs.clone(),
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
        let workers = self.workers();
        let mut archive = Archive::new(n_obj, budget);

        // Domain-informed seed points, then the space-filling random
        // sample. Both phases draw their points first (the sequence never
        // depends on objective values) and evaluate each batch in
        // parallel, committing in draw order.
        let mut planned: Vec<Vec<usize>> = Vec::new();
        for p in &self.seed_points {
            if archive.len() + planned.len() >= budget {
                break;
            }
            if space.contains(p) && !archive.seen.contains(p) && !planned.contains(p) {
                planned.push(p.clone());
            }
        }
        for p in &planned {
            archive.seen.insert(p.clone());
        }
        let init_target = self.init_samples.min(budget);
        let mut retries = 0;
        while archive.len() + planned.len() < init_target && retries < budget * 20 + 100 {
            let p = space.random_point(&mut rng);
            if archive.seen.contains(&p) {
                retries += 1;
                continue;
            }
            archive.seen.insert(p.clone());
            planned.push(p);
        }
        control.check()?;
        let objectives: Vec<Result<Vec<f64>, EvalError>> =
            par::parallel_map_with(workers, &planned, |_, p| evaluator.evaluate(p));
        for (p, o) in planned.into_iter().zip(objectives) {
            archive.commit(p, o?);
        }

        // BO loop: one evaluation per iteration, surrogates and Pareto
        // fronts kept current incrementally.
        let mut surrogates: Option<Surrogates> = None;
        let mut generations = 0;
        let mut acquisition = AcquisitionState::new(n_obj);
        while archive.len() < budget {
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
                    self.select_candidate(space, &archive, s, &mut acquisition, workers, &mut rng)
                }),
                None => None,
            };
            let p = match next {
                Some(p) => p,
                None => {
                    // Fallback: fresh random point.
                    match fresh_random(space, &archive.seen, &mut rng, 200) {
                        Some(p) => p,
                        None => break, // space exhausted
                    }
                }
            };
            let objectives = evaluator.evaluate(&p)?;
            archive.commit(p, objectives);
        }

        Ok(OptimizationResult::from_history(
            self.name(),
            archive.history,
            evaluator.reference_point(),
        ))
    }
}

impl SmsEgoOptimizer {
    fn select_candidate(
        &self,
        space: &DesignSpace,
        archive: &Archive,
        surrogates: &Surrogates,
        acquisition: &mut AcquisitionState,
        workers: usize,
        rng: &mut Rng,
    ) -> Option<Vec<usize>> {
        // Fronts maintained across iterations: only the points committed
        // since the last call are pushed (plus a renormalizing rebuild
        // when the archive ranges moved).
        obs::time("bo.acquisition.front_sync", || acquisition.sync(archive));
        let front = acquisition.norm_front.points();
        obs::gauge_set("bo.front.size", front.len() as f64);
        let reference = vec![1.2; surrogates.pack.n_obj()];
        // One scorer per iteration: the front is frozen during scoring,
        // so its obj-0 index and incremental-staircase machinery are
        // shared read-only across every chunk below.
        let scorer = ContributionScorer::new(front, &reference);

        // Candidate pool: random points plus ordinal neighbours of the
        // Pareto-set designs (local refinement). Drawn sequentially so the
        // RNG stream is independent of the parallel scoring below.
        let mut drawn: Vec<Vec<usize>> = Vec::with_capacity(self.candidate_pool + 64);
        for _ in 0..self.candidate_pool {
            drawn.push(space.random_point(rng));
        }
        for &i in acquisition.raw_front.indices().iter().take(16) {
            drawn.extend(space.neighbors(&archive.history[i].point));
        }
        // Drop already-evaluated candidates and intra-pool duplicates
        // before any GP work: a seen candidate is never picked, and an
        // identical candidate scores identically, so
        // under first-max-wins neither can change the selection — the
        // pool just stops paying kernel and triangular work for
        // candidates that cannot win. (The RNG draws above are
        // untouched; only the scored set shrinks.) Each survivor
        // remembers whether it was drawn as a front neighbour: only
        // those keep their columns for the next iteration.
        let mut slots: HashMap<Vec<usize>, usize> = HashMap::with_capacity(drawn.len());
        let mut pool: Vec<Vec<usize>> = Vec::with_capacity(drawn.len());
        let mut neighbour: Vec<bool> = Vec::with_capacity(drawn.len());
        for (d, cand) in drawn.into_iter().enumerate() {
            let is_neighbour = d >= self.candidate_pool;
            if archive.seen.contains(&cand) {
                continue;
            }
            match slots.entry(cand) {
                Entry::Occupied(slot) => neighbour[*slot.get()] |= is_neighbour,
                Entry::Vacant(slot) => {
                    pool.push(slot.key().clone());
                    neighbour.push(is_neighbour);
                    slot.insert(pool.len() - 1);
                }
            }
        }
        drop(slots);
        obs::observe("bo.acquisition.pool_size", pool.len() as f64);

        // Take the pool's cached columns out of the cross-iteration cache,
        // score the pool, and put the front neighbours' columns back for
        // the next iteration. Cache traffic and the encoded points'
        // allocation are charged to the score / gp_predict spans like the
        // GP work itself.
        let key = (surrogates.fit_generation, surrogates.start);
        let columns = obs::time("bo.acquisition.score", || {
            obs::time("bo.acquisition.gp_predict", || acquisition.columns.take(key, &pool))
        });
        let (best, columns) = match &surrogates.pack {
            SurrogatePack::Exact(gps) => obs::time("bo.acquisition.score", || {
                let (points, mut slots) = obs::time("bo.acquisition.gp_predict", || {
                    let points: Vec<Vec<f64>> = pool.iter().map(|c| space.encode(c)).collect();
                    let slots: Vec<Option<ExactSlot>> = columns
                        .into_iter()
                        .map(|c| match c {
                            Some(Column::Exact(slot)) => Some(slot),
                            _ => None,
                        })
                        .collect();
                    (points, slots)
                });
                let acquisition = ExactAcquisition::new(gps, &scorer);
                let best = acquisition.select(&points, &mut slots, &neighbour, workers);
                obs::time("bo.acquisition.gp_predict", || drop(points));
                (best, slots.into_iter().map(|slot| slot.map(Column::Exact)).collect())
            }),
            SurrogatePack::Sparse(gps) => {
                select_sparse(gps, &scorer, space, &pool, &neighbour, columns, workers)
            }
        };
        obs::time("bo.acquisition.score", || {
            obs::time("bo.acquisition.gp_predict", || acquisition.columns.put_back(&pool, columns))
        });
        best.map(|i| pool.swap_remove(i))
    }
}

/// Scores a sparse-pack pool in parallel, a chunk of candidates at a
/// time: every chunk predicts all objectives from its inducing
/// correlations and scores each candidate's LCB. Each score is a pure
/// function of the frozen surrogates, the front and the candidate's
/// column. Returns the first maximum in pool order and the columns to
/// keep (front neighbours').
///
/// The sparse pack is left unbounded: its variance is `σ²(1 − cᵀDc)`
/// with `D = C_mm⁻¹ − A⁻¹`, which has no fixed diagonal, so the only
/// solve-free lower bound on `cᵀDc` for every `c` is `0`. The variance
/// bound collapses to `σ²`, which prunes nothing.
fn select_sparse(
    gps: &[SparseGaussianProcess],
    scorer: &ContributionScorer,
    space: &DesignSpace,
    pool: &[Vec<usize>],
    neighbour: &[bool],
    mut columns: Vec<Option<Column>>,
    workers: usize,
) -> (Option<usize>, Vec<Option<Column>>) {
    type Job<'a> = (&'a [bool], Mutex<Vec<Option<Column>>>);
    let jobs: Vec<Job> = obs::time("bo.acquisition.score", || {
        obs::time("bo.acquisition.gp_predict", || {
            resolve_sparse_misses(gps, space, pool, &mut columns);
            let mut columns = columns.into_iter();
            neighbour
                .chunks(ACQ_CHUNK)
                .map(|keep| (keep, Mutex::new(columns.by_ref().take(keep.len()).collect())))
                .collect()
        })
    });
    obs::add("bo.acquisition.batches", jobs.len() as u64);
    let scored = obs::time("bo.acquisition.score", || {
        par::parallel_map_with(workers, &jobs, |_, (keep, columns)| {
            obs::observe("bo.acquisition.batch_size", keep.len() as f64);
            let mut columns =
                std::mem::take(&mut *columns.lock().unwrap_or_else(PoisonError::into_inner));
            let preds: Vec<Vec<(f64, f64)>> = obs::time("bo.acquisition.gp_predict", || {
                sparse_predict_chunk(gps, keep, &mut columns)
            });
            // Buffers reused across the whole chunk: steady-state
            // scoring allocates nothing per candidate.
            let mut scratch = scorer.scratch();
            let mut lcb = vec![0.0; preds.len()];
            let scores: Vec<Option<f64>> = obs::time("bo.acquisition.hv_score", || {
                (0..keep.len())
                    .map(|k| {
                        for (slot, p) in lcb.iter_mut().zip(&preds) {
                            let (mean, var) = p[k];
                            *slot = mean - BETA * var.sqrt();
                        }
                        Some(scorer.score_with(&mut scratch, &lcb, EPS))
                    })
                    .collect()
            });
            obs::add("bo.hv.incremental", scores.len() as u64);
            (scores, columns)
        })
    });
    let mut scores: Vec<Option<f64>> = Vec::with_capacity(pool.len());
    let mut kept = Vec::with_capacity(pool.len());
    for (chunk_scores, chunk_columns) in scored {
        scores.extend(chunk_scores);
        kept.extend(chunk_columns);
    }
    (first_max(&scores), kept)
}

/// Index of the first maximum score in pool order, skipping candidates
/// that were never scored exactly.
fn first_max(scores: &[Option<f64>]) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (i, &score) in scores.iter().enumerate() {
        let Some(score) = score else { continue };
        match &best {
            Some((s, _)) if *s >= score => {}
            _ => best = Some((score, i)),
        }
    }
    best.map(|(_, i)| i)
}

/// Candidates solved per round of [`ExactAcquisition::select`]: one
/// `n × 8` blocked triangular solve per objective, after which the
/// running best rises before the next round is chosen.
const SOLVE_ROUND: usize = 8;

/// Relative slack under the running best score `τ`: a candidate whose
/// bound is below `τ − PRUNE_MARGIN·max(1, |τ|)` is pruned. It is far
/// above the scorer's roundoff, so a pruned candidate's exact score is
/// strictly below `τ`.
const PRUNE_MARGIN: f64 = 1e-9;

/// One exact-pack candidate's state between acquisition calls, as
/// [`ExactAcquisition::select`] takes and leaves it.
#[derive(Debug, Clone)]
pub enum ExactSlot {
    /// Solved: the candidate's correlations and per-member forward
    /// solves, refreshed over the rows added since
    /// ([`ExactColumn::refresh`]) and scored exactly.
    Solved(ExactColumn),
    /// Correlations only: the candidate was bounded and pruned before
    /// its solve. Extended over the rows added since and bounded again.
    Pending(Vec<f64>),
}

/// The exact-pack SMS-EGO acquisition over one candidate pool: every
/// candidate's score is bounded from its kernel correlations first, and
/// the `O(n²)` triangular solves run only for candidates that can still
/// win. The pick is the one full scoring would make.
///
/// A candidate's exact score is the [`ContributionScorer`] score of its
/// LCB `mean − BETA·√variance` per objective. Its bound is the score of
/// the *optimistic* LCB: the same means (computed without a solve) with
/// the variance upper bound `σ²(1 − maxᵢ cᵢ²/(1 + jitter))`, which
/// Cauchy–Schwarz gives from the unit-plus-jitter diagonal of the
/// training correlation matrix. A larger variance lowers the
/// LCB, and the score never rises when an LCB coordinate rises (the
/// epsilon-dominance penalty only grows, the exclusive hypervolume only
/// shrinks, and a penalized score is negative while an unpenalized one
/// is not), so the bound is at least the exact score.
///
/// [`ExactAcquisition::select`] scores cached solved columns exactly,
/// which sets the running best `τ`, then bounds every other candidate,
/// sorts them by bound (highest first, ties by pool index) and solves
/// them in rounds of [`SOLVE_ROUND`], raising `τ` after each, until the
/// next bound falls below `τ` by more than [`PRUNE_MARGIN`]. A pruned
/// candidate's exact score is then strictly below the final maximum, so
/// first-max-wins over the exactly scored candidates picks the same
/// point as over the whole pool. The rounds run in one fixed order, so
/// which candidates are solved does not depend on the worker count.
#[derive(Debug)]
pub struct ExactAcquisition<'a> {
    pack: &'a [GaussianProcess],
    scorer: &'a ContributionScorer,
}

/// A candidate after the first pass of [`ExactAcquisition::select`].
enum FirstPass {
    /// A cached solved column, scored exactly.
    Exact(f64),
    /// An unsolved candidate's bound, with the correlations its solve
    /// needs.
    Bounded(f64, Vec<f64>),
}

impl<'a> ExactAcquisition<'a> {
    /// An acquisition over an exact surrogate pack (one GP per objective,
    /// sharing inputs and lengthscale) against the scorer's frozen front.
    pub fn new(
        pack: &'a [GaussianProcess],
        scorer: &'a ContributionScorer,
    ) -> ExactAcquisition<'a> {
        ExactAcquisition { pack, scorer }
    }

    /// The score bound of the query whose training correlations are
    /// `corr` (as [`GaussianProcess::cross_correlations`] gives them):
    /// at least its exact score, up to the scorer's roundoff.
    ///
    /// # Panics
    ///
    /// Panics if `corr` does not have one entry per training point.
    pub fn bound(&self, corr: &[f64]) -> f64 {
        let mut lcb = vec![0.0; self.pack.len()];
        self.optimistic_lcb(corr, &mut lcb);
        self.scorer.score(&lcb, EPS)
    }

    fn optimistic_lcb(&self, corr: &[f64], lcb: &mut [f64]) {
        let max_corr_sq = corr.iter().fold(0.0f64, |m, c| m.max(c * c));
        for (slot, gp) in lcb.iter_mut().zip(self.pack) {
            let (mean, var) = gp.optimistic_moments(corr, max_corr_sq);
            *slot = mean - BETA * var.sqrt();
        }
    }

    fn exact_lcb(&self, column: &ExactColumn, lcb: &mut [f64]) {
        for (slot, (mean, var)) in lcb.iter_mut().zip(column.predict(self.pack)) {
            *slot = mean - BETA * var.sqrt();
        }
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
    /// The first pass (cache refreshes, correlations, bounds, cached
    /// scores) runs in chunks across `workers`; the rounds run in order.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length, a point has the
    /// wrong dimension, or a slot was taken against a larger pack.
    pub fn select(
        &self,
        points: &[Vec<f64>],
        slots: &mut [Option<ExactSlot>],
        keep: &[bool],
        workers: usize,
    ) -> Option<usize> {
        assert_eq!(points.len(), slots.len(), "one slot per candidate");
        assert_eq!(points.len(), keep.len(), "one keep flag per candidate");
        let chunks: Vec<(usize, Mutex<&mut [Option<ExactSlot>]>)> = slots
            .chunks_mut(ACQ_CHUNK)
            .enumerate()
            .map(|(c, chunk)| (c * ACQ_CHUNK, Mutex::new(chunk)))
            .collect();
        obs::add("bo.acquisition.batches", chunks.len() as u64);
        let first = par::parallel_map_with(workers, &chunks, |_, (base, chunk)| {
            let mut chunk = chunk.lock().unwrap_or_else(PoisonError::into_inner);
            let end = base + chunk.len();
            self.first_pass(&points[*base..end], &mut chunk)
        });
        drop(chunks);

        let mut scores: Vec<Option<f64>> = vec![None; points.len()];
        let mut corrs: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
        let mut bounds: Vec<(usize, f64)> = Vec::new();
        for (j, pass) in first.into_iter().flatten().enumerate() {
            match pass {
                FirstPass::Exact(score) => scores[j] = Some(score),
                FirstPass::Bounded(bound, corr) => {
                    bounds.push((j, bound));
                    corrs[j] = corr;
                }
            }
        }
        let hits = points.len() - bounds.len();
        let mut best: Option<f64> = scores.iter().flatten().copied().reduce(f64::max);
        bounds.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

        let n = self.pack[0].len();
        let mut scratch = self.scorer.scratch();
        let mut solved = 0;
        while solved < bounds.len() {
            let cut = best.map(|t| t - PRUNE_MARGIN * t.abs().max(1.0));
            let round: Vec<usize> = bounds[solved..]
                .iter()
                .take(SOLVE_ROUND)
                .take_while(|(_, bound)| cut.is_none_or(|cut| *bound >= cut))
                .map(|&(j, _)| j)
                .collect();
            if round.is_empty() {
                break;
            }
            solved += round.len();
            let solved_round: Vec<(ExactColumn, Vec<f64>)> =
                obs::time("bo.acquisition.gp_predict", || {
                    let panel = Matrix::from_fn(n, round.len(), |i, k| corrs[round[k]][i]);
                    ExactColumn::solve_correlations(self.pack, &panel)
                        .into_iter()
                        .map(|column| {
                            let mut lcb = vec![0.0; self.pack.len()];
                            self.exact_lcb(&column, &mut lcb);
                            (column, lcb)
                        })
                        .collect()
                });
            obs::time("bo.acquisition.hv_score", || {
                for (&j, (column, lcb)) in round.iter().zip(solved_round) {
                    let score = self.scorer.score_with(&mut scratch, &lcb, EPS);
                    best = Some(best.map_or(score, |b| b.max(score)));
                    scores[j] = Some(score);
                    if keep[j] {
                        slots[j] = Some(ExactSlot::Solved(column));
                    }
                }
            });
        }
        obs::time("bo.acquisition.gp_predict", || {
            for &(j, _) in &bounds[solved..] {
                if keep[j] {
                    slots[j] = Some(ExactSlot::Pending(std::mem::take(&mut corrs[j])));
                }
            }
            for (slot, &keep) in slots.iter_mut().zip(keep) {
                if !keep {
                    *slot = None;
                }
            }
            drop(corrs);
        });
        obs::add("bo.acquisition.bounded", bounds.len() as u64);
        obs::add("bo.acquisition.solved", solved as u64);
        obs::add("bo.acquisition.pruned", (bounds.len() - solved) as u64);
        obs::add("bo.hv.incremental", (hits + solved) as u64);
        first_max(&scores)
    }

    /// The first pass over one chunk: refreshes and exactly scores the
    /// cached solved columns; correlates every other candidate (misses
    /// through one kernel panel, pending columns over the rows added
    /// since) and scores its optimistic LCB. Leaves only solved columns
    /// in `slots`.
    fn first_pass(&self, points: &[Vec<f64>], slots: &mut [Option<ExactSlot>]) -> Vec<FirstPass> {
        obs::observe("bo.acquisition.batch_size", points.len() as f64);
        let n_obj = self.pack.len();
        let mut lcbs = vec![0.0; points.len() * n_obj];
        let corrs: Vec<Option<Vec<f64>>> = obs::time("bo.acquisition.gp_predict", || {
            let misses: Vec<Vec<f64>> = points
                .iter()
                .zip(slots.iter())
                .filter(|(_, slot)| slot.is_none())
                .map(|(p, _)| p.clone())
                .collect();
            let panel = self.pack[0].cross_correlations(&misses);
            let mut next_miss = 0;
            points
                .iter()
                .zip(slots.iter_mut())
                .zip(lcbs.chunks_mut(n_obj))
                .map(|((point, slot), lcb)| {
                    if let Some(ExactSlot::Solved(column)) = slot {
                        column.refresh(self.pack, point);
                        self.exact_lcb(column, lcb);
                        return None;
                    }
                    let corr = match slot.take() {
                        Some(ExactSlot::Pending(mut corr)) => {
                            self.pack[0].extend_correlations(point, &mut corr);
                            corr
                        }
                        _ => {
                            next_miss += 1;
                            (0..panel.rows()).map(|i| panel[(i, next_miss - 1)]).collect()
                        }
                    };
                    self.optimistic_lcb(&corr, lcb);
                    Some(corr)
                })
                .collect()
        });
        let mut scratch = self.scorer.scratch();
        obs::time("bo.acquisition.hv_score", || {
            corrs
                .into_iter()
                .zip(lcbs.chunks(n_obj))
                .map(|(corr, lcb)| {
                    let score = self.scorer.score_with(&mut scratch, lcb, EPS);
                    match corr {
                        None => FirstPass::Exact(score),
                        Some(corr) => FirstPass::Bounded(score, corr),
                    }
                })
                .collect()
        })
    }
}

fn normalize(v: f64, min: f64, max: f64) -> f64 {
    if max > min {
        (v - min) / (max - min)
    } else {
        0.5
    }
}

fn fresh_random(
    space: &DesignSpace,
    seen: &HashSet<Vec<usize>>,
    rng: &mut Rng,
    retries: usize,
) -> Option<Vec<usize>> {
    for _ in 0..retries {
        let p = space.random_point(rng);
        if !seen.contains(&p) {
            return Some(p);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::test_problems::{Bowl3, Tradeoff};
    use crate::random::RandomSearch;

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
