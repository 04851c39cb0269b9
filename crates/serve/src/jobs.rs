//! Job admission, queueing, execution, and lifecycle for the
//! multi-tenant co-design server.
//!
//! A job is one full AutoPilot pipeline run — Phase 1 (scenario
//! database), Phase 2 (multi-objective DSE), Phase 3 (full-system
//! selection) — for a `{uav_class, scenario, budget, optimizer}`
//! request. Jobs pass through the state machine
//!
//! ```text
//! Queued ──► Running ──► Completed
//!    │          │    └──► Failed
//!    └──────────┴───────► Cancelled
//! ```
//!
//! driven by a fixed pool of worker threads pulling from a bounded
//! FIFO admission queue (`POST /jobs` returns `429` when the queue is
//! full). Cancellation (`DELETE /jobs/:id`) is cooperative: each job
//! carries a [`RunControl`] token threaded through the optimizer's
//! inner loop, which also publishes progress (evaluations done, front
//! size) for `GET /jobs/:id`.
//!
//! Jobs of the same scenario share the process-lifetime caches in
//! [`SharedCaches`]: one sharded [`LayerMemo`] (scenario-independent),
//! the Phase-1 databases of a [`PipelineCache`], and one sharded
//! [`CandidateCache`] per `(scenario, success model, seed)` key. Memo
//! and candidate entries are owner-tagged by job id so cross-run reuse
//! is observable (`systolic.memo.cross_run_hits`,
//! `phase2.candidate_cache.cross_run_hits`). Every one of these caches
//! is an `autopilot_shard::ShardedMap` get-or-compute underneath. The
//! seed is untrusted input, so the two seed-keyed maps hold at most
//! `SCENARIO_KEYS` (16) keys each and clock-evict past that.

use air_sim::ObstacleDensity;
use autopilot::{
    AutopilotConfig, AutopilotResult, CandidateCache, DssocEvaluator, JobConfig, Phase3,
    PipelineCache, RunSummary, SuccessModel, SwapMode, TaskSpec,
};
use autopilot_obs as obs;
use autopilot_obs::json::Value;
use autopilot_shard::ShardedMap;
use dse_opt::{KernelExpMode, RunControl};
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use systolic_sim::LayerMemo;
use uav_dynamics::{Airframe, UavSpec};

/// Largest accepted Phase-2 budget per job (admission-time guard
/// against a single request monopolizing the pool).
pub const MAX_BUDGET: usize = 10_000;

/// Approximate capacity of the process-lifetime candidate cache per
/// scenario key (entries; clock eviction beyond this).
const CANDIDATE_CACHE_CAPACITY: usize = 65_536;

/// Most terminal (completed, failed or cancelled) jobs the registry
/// keeps; past this the oldest terminal job is evicted, and its id then
/// answers `404`. Queued and running jobs are never evicted.
pub const MAX_TERMINAL_JOBS: usize = 1024;

/// Most candidate caches [`SharedCaches`] holds, one per `(scenario,
/// success model, seed)` key; the Phase-1 map of its [`PipelineCache`]
/// has the same bound. One shard, so the bound is exact.
const SCENARIO_KEYS: usize = 16;

/// A validated job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// UAV platform class (`"nano"`, `"micro"`, `"mini"`).
    pub uav: String,
    /// Deployment scenario.
    pub scenario: ObstacleDensity,
    /// Phase-2 evaluation budget.
    pub budget: usize,
    /// Registry name of the Phase-2 optimizer.
    pub optimizer: String,
    /// Deterministic seed (default 7, the repo-wide experiment seed).
    pub seed: u64,
    /// Per-job engine knobs (threads, GP window, layer memo, SWaP mode,
    /// kernel exponential mode), defaulting to the server's
    /// startup-captured environment.
    pub config: JobConfig,
}

impl JobSpec {
    /// Parses and validates a `POST /jobs` JSON body against the
    /// platform table, scenario ids, and the optimizer registry.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field and the
    /// accepted values.
    pub fn parse(body: &str, defaults: JobConfig) -> Result<JobSpec, String> {
        let root = Value::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
        let uav = root
            .get("uav_class")
            .and_then(Value::as_str)
            .ok_or("missing string field `uav_class`")?
            .to_owned();
        if uav_spec(&uav).is_none() {
            return Err(format!("unknown `uav_class` {uav:?}; expected nano, micro, or mini"));
        }
        let scenario_id = root
            .get("scenario")
            .and_then(Value::as_str)
            .ok_or("missing string field `scenario`")?;
        let scenario = ObstacleDensity::parse_id(scenario_id).ok_or_else(|| {
            format!("unknown `scenario` {scenario_id:?}; expected low, medium, or dense")
        })?;
        let budget =
            root.get("budget").and_then(Value::as_u64).ok_or("missing integer field `budget`")?
                as usize;
        if !(4..=MAX_BUDGET).contains(&budget) {
            return Err(format!("`budget` must be in 4..={MAX_BUDGET}, got {budget}"));
        }
        let optimizer = root
            .get("optimizer")
            .and_then(Value::as_str)
            .ok_or("missing string field `optimizer`")?
            .to_owned();
        let registered = autopilot::registered_optimizers();
        if !registered.contains(&optimizer) {
            return Err(format!(
                "unknown `optimizer` {optimizer:?}; registered: {}",
                registered.join(", ")
            ));
        }
        let seed = root.get("seed").and_then(Value::as_u64).unwrap_or(7);

        // Optional per-job engine knobs on top of the startup defaults.
        let mut config = defaults;
        if let Some(t) = root.get("threads").and_then(Value::as_u64) {
            if t == 0 {
                return Err("`threads` must be >= 1".into());
            }
            config = config.with_threads(t as usize);
        }
        if let Some(w) = root.get("gp_window").and_then(Value::as_u64) {
            config = config.with_gp_window(w as usize);
        }
        match root.get("layer_memo") {
            None | Some(Value::Null) => {}
            Some(Value::Bool(b)) => config = config.with_layer_memo(*b),
            Some(_) => return Err("`layer_memo` must be a boolean".into()),
        }
        match root.get("swap") {
            None | Some(Value::Null) => {}
            Some(Value::Str(s)) => match SwapMode::parse(s) {
                Some(mode) => config = config.with_swap(mode),
                None => {
                    return Err(format!(
                        "unknown `swap` {s:?}; expected off (0/false) or constraint (1/on/true)"
                    ));
                }
            },
            Some(_) => return Err("`swap` must be a string".into()),
        }
        match root.get("fastexp") {
            None | Some(Value::Null) => {}
            Some(Value::Str(s)) => match KernelExpMode::parse(s) {
                Some(mode) => config = config.with_exp_mode(mode),
                None => {
                    return Err(format!(
                        "unknown `fastexp` {s:?}; expected exact (0/off/false) or fast (1/on/true)"
                    ));
                }
            },
            Some(_) => return Err("`fastexp` must be a string".into()),
        }
        Ok(JobSpec { uav, scenario, budget, optimizer, seed, config })
    }
}

/// Resolves a platform-class id to its Table IV specification.
pub fn uav_spec(class: &str) -> Option<UavSpec> {
    match class {
        "nano" => Some(UavSpec::nano()),
        "micro" => Some(UavSpec::micro()),
        "mini" => Some(UavSpec::mini()),
        _ => None,
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing the pipeline.
    Running,
    /// Finished; result JSON available.
    Completed,
    /// Finished with an error.
    Failed,
    /// Cancelled before or during execution.
    Cancelled,
}

impl JobState {
    /// True for the states a job never leaves.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Completed | JobState::Failed | JobState::Cancelled)
    }

    /// Stable lower-case identifier.
    pub fn id(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// Mutable portion of a job, behind one lock.
#[derive(Debug)]
struct JobStatus {
    state: JobState,
    /// `RunSummary` JSON once completed.
    result: Option<String>,
    /// Failure detail once failed.
    error: Option<String>,
}

/// One admitted job.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id (also the cache owner tag).
    pub id: u64,
    /// The validated request.
    pub spec: JobSpec,
    control: RunControl,
    status: Mutex<JobStatus>,
}

impl Job {
    fn new(id: u64, spec: JobSpec) -> Job {
        Job {
            id,
            spec,
            control: RunControl::new(),
            status: Mutex::new(JobStatus { state: JobState::Queued, result: None, error: None }),
        }
    }

    fn status(&self) -> std::sync::MutexGuard<'_, JobStatus> {
        self.status.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.status().state
    }

    /// The result JSON, when completed.
    pub fn result_json(&self) -> Option<String> {
        self.status().result.clone()
    }

    /// The failure detail, when failed.
    pub fn error(&self) -> Option<String> {
        self.status().error.clone()
    }

    /// Requests cooperative cancellation. Returns `false` when the job
    /// already reached a terminal state.
    pub fn cancel(&self) -> bool {
        let mut st = self.status();
        match st.state {
            JobState::Completed | JobState::Failed | JobState::Cancelled => false,
            JobState::Queued => {
                // Never started: terminal immediately. The worker that
                // eventually dequeues it skips terminal jobs.
                st.state = JobState::Cancelled;
                self.control.cancel();
                true
            }
            JobState::Running => {
                // The worker observes the token at its next checkpoint
                // and transitions the state itself.
                self.control.cancel();
                true
            }
        }
    }

    /// Progress snapshot `(evaluations done, current front size)` as
    /// published by the optimizer's checkpoints.
    pub fn progress(&self) -> (u64, u64) {
        (self.control.evaluations(), self.control.front_size())
    }

    /// Status JSON for `GET /jobs/:id`.
    pub fn status_json(&self) -> String {
        let st = self.status();
        let (evaluations, front) = self.progress();
        Value::Obj(vec![
            ("id".into(), Value::Num(self.id as f64)),
            ("state".into(), Value::Str(st.state.id().into())),
            ("uav_class".into(), Value::Str(self.spec.uav.clone())),
            ("scenario".into(), Value::Str(self.spec.scenario.id().into())),
            ("optimizer".into(), Value::Str(self.spec.optimizer.clone())),
            ("budget".into(), Value::Num(self.spec.budget as f64)),
            ("seed".into(), Value::Num(self.spec.seed as f64)),
            ("evaluations".into(), Value::Num(evaluations as f64)),
            ("front_size".into(), Value::Num(front as f64)),
            ("error".into(), st.error.as_ref().map_or(Value::Null, |e| Value::Str(e.clone()))),
        ])
        .to_json()
    }
}

/// Process-lifetime caches shared by every job the server runs.
///
/// * `layer_memo` — the sharded per-(config, layer) simulation memo;
///   scenario-independent, so one instance serves every tenant.
/// * `pipeline` — Phase-1 scenario databases, through the same
///   [`PipelineCache::phase1_database`] the CLI uses (its Phase-2 map
///   stays empty here: jobs run Phase 2 against `candidates`).
/// * `candidates` — one sharded, bounded [`CandidateCache`] per
///   `(scenario, success model, seed)` key: candidates are functions of
///   the evaluator identity, so the key pins everything that identity
///   depends on. At most `SCENARIO_KEYS` keys are held.
#[derive(Debug)]
pub struct SharedCaches {
    layer_memo: Arc<LayerMemo>,
    pipeline: PipelineCache,
    candidates: ShardedMap<String, Arc<CandidateCache>>,
}

impl Default for SharedCaches {
    fn default() -> SharedCaches {
        SharedCaches::new()
    }
}

impl SharedCaches {
    /// Creates the shared cache set (layer memo enabled and unbounded,
    /// candidate caches bounded with clock eviction).
    pub fn new() -> SharedCaches {
        SharedCaches {
            layer_memo: Arc::new(LayerMemo::with_enabled(true)),
            pipeline: PipelineCache::new(),
            candidates: ShardedMap::new(1, SCENARIO_KEYS),
        }
    }

    /// The process-lifetime layer memo.
    pub fn layer_memo(&self) -> Arc<LayerMemo> {
        Arc::clone(&self.layer_memo)
    }

    /// The shared candidate cache for a scenario key.
    pub fn candidate_cache(
        &self,
        scenario: ObstacleDensity,
        model: SuccessModel,
        seed: u64,
    ) -> Arc<CandidateCache> {
        let key = format!("{}|{model:?}|{seed}", scenario.id());
        let create = || Arc::new(CandidateCache::bounded(CANDIDATE_CACHE_CAPACITY));
        self.candidates.get_or_insert_with(key, 0, create).0
    }
}

/// The server's job registry, admission queue, and worker pool.
#[derive(Debug)]
pub struct JobManager {
    /// Every live job and at most [`MAX_TERMINAL_JOBS`] terminal ones,
    /// by id (ids ascend in submission order).
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    max_queue: usize,
    shutdown: AtomicBool,
    caches: SharedCaches,
    defaults: JobConfig,
}

/// Why a job submission was refused.
#[derive(Debug)]
pub enum AdmitError {
    /// The request body failed validation (`400`).
    Invalid(String),
    /// The admission queue is full (`429`).
    QueueFull,
    /// The server is shutting down (`503`).
    ShuttingDown,
}

impl JobManager {
    /// Creates a manager whose admission queue holds at most
    /// `max_queue` waiting jobs, with `defaults` as the per-job
    /// configuration baseline.
    pub fn new(max_queue: usize, defaults: JobConfig) -> JobManager {
        JobManager {
            jobs: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            max_queue: max_queue.max(1),
            shutdown: AtomicBool::new(false),
            caches: SharedCaches::new(),
            defaults,
        }
    }

    /// The startup-captured per-job defaults.
    pub fn defaults(&self) -> JobConfig {
        self.defaults
    }

    /// The shared caches (exposed for smoke tests and metrics).
    pub fn caches(&self) -> &SharedCaches {
        &self.caches
    }

    /// Validates `body` and enqueues the job FIFO.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Invalid`] on validation failure,
    /// [`AdmitError::QueueFull`] when admission is at capacity, and
    /// [`AdmitError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, body: &str) -> Result<Arc<Job>, AdmitError> {
        if self.shutdown.load(Ordering::Relaxed) {
            return Err(AdmitError::ShuttingDown);
        }
        let spec = JobSpec::parse(body, self.defaults).map_err(AdmitError::Invalid)?;
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // Jobs cancelled while queued are terminal and hold no place in
        // admission; workers would only skip them.
        queue.retain(|job| job.state() == JobState::Queued);
        if queue.len() >= self.max_queue {
            obs::add("serve.jobs.rejected_queue_full", 1);
            return Err(AdmitError::QueueFull);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job::new(id, spec));
        let mut jobs = self.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        jobs.insert(id, Arc::clone(&job));
        evict_terminal(&mut jobs);
        drop(jobs);
        queue.push_back(Arc::clone(&job));
        drop(queue);
        self.queue_cv.notify_one();
        obs::add("serve.jobs.submitted", 1);
        Ok(job)
    }

    /// Looks a job up by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner).get(&id).cloned()
    }

    /// All registered jobs, ascending by id.
    pub fn list(&self) -> Vec<Arc<Job>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner).values().cloned().collect()
    }

    /// Cancels job `id` (see [`Job::cancel`]), then evicts past
    /// [`MAX_TERMINAL_JOBS`]. `None` when no such job is registered.
    pub fn cancel(&self, id: u64) -> Option<(Arc<Job>, bool)> {
        let job = self.get(id)?;
        let accepted = job.cancel();
        evict_terminal(&mut self.jobs.lock().unwrap_or_else(PoisonError::into_inner));
        Some((job, accepted))
    }

    /// Begins shutdown: stops admission, cancels every non-terminal
    /// job, and wakes all workers so they can drain and exit.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for job in self.list() {
            job.cancel();
        }
        self.queue_cv.notify_all();
    }

    /// True once [`JobManager::shutdown`] ran.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Blocks until a job is available (skipping jobs cancelled while
    /// queued) or shutdown begins with the queue drained; workers call
    /// this in a loop and exit on `None`.
    pub fn next_job(&self) -> Option<Arc<Job>> {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            while let Some(job) = queue.pop_front() {
                if job.state() == JobState::Queued {
                    return Some(job);
                }
                // Cancelled while queued: already terminal, skip.
            }
            if self.shutdown.load(Ordering::Relaxed) {
                return None;
            }
            queue = self.queue_cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Executes `job` to a terminal state (worker-thread body).
    ///
    /// A panic inside the pipeline is caught here: the job ends
    /// `failed` with a "job panicked: …" error, `serve.jobs.panicked`
    /// counts it, and the calling worker stays alive for the next job.
    /// The shared caches recover from lock poisoning, so a job that
    /// panicked mid-update leaves them usable.
    pub fn execute(&self, job: &Job) {
        {
            let mut st = job.status();
            if st.state != JobState::Queued {
                return; // cancelled while queued
            }
            st.state = JobState::Running;
        }
        obs::add("serve.jobs.started", 1);
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| run_pipeline(&self.caches, job)))
                .unwrap_or_else(|payload| {
                    obs::add("serve.jobs.panicked", 1);
                    let message = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                    Err(format!("job panicked: {message}"))
                });
        let mut st = job.status();
        match outcome {
            Ok(summary_json) => {
                st.state = JobState::Completed;
                st.result = Some(summary_json);
                obs::add("serve.jobs.completed", 1);
            }
            Err(message) => {
                if job.control.is_cancelled() {
                    st.state = JobState::Cancelled;
                    obs::add("serve.jobs.cancelled", 1);
                } else {
                    st.state = JobState::Failed;
                    st.error = Some(message);
                    obs::add("serve.jobs.failed", 1);
                }
            }
        }
        drop(st);
        evict_terminal(&mut self.jobs.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

/// Evicts the oldest (lowest-id) terminal jobs until at most
/// [`MAX_TERMINAL_JOBS`] remain. Runs after every submission, completion
/// and manager-side cancellation; it scans only once the registry holds
/// more than the cap.
fn evict_terminal(jobs: &mut BTreeMap<u64, Arc<Job>>) {
    if jobs.len() <= MAX_TERMINAL_JOBS {
        return;
    }
    let terminal: Vec<u64> =
        jobs.iter().filter(|(_, job)| job.state().is_terminal()).map(|(&id, _)| id).collect();
    let excess = terminal.len().saturating_sub(MAX_TERMINAL_JOBS);
    for id in &terminal[..excess] {
        jobs.remove(id);
    }
    obs::add("serve.jobs.evicted", excess as u64);
}

/// Runs the three-phase pipeline for `job` against the shared caches.
///
/// This mirrors `AutoPilot::run` exactly — same phase order, same
/// evaluator construction, same Phase-3 configuration — so a job's
/// `RunSummary` is bit-identical to the CLI path at the same seed and
/// [`JobConfig`]. The only differences are cache *placement* (shared,
/// owner-tagged) and the cancellation token, neither of which affects
/// results.
fn run_pipeline(caches: &SharedCaches, job: &Job) -> Result<String, String> {
    let spec = &job.spec;
    let model = SuccessModel::Surrogate;
    let config = AutopilotConfig { success_model: model, ..AutopilotConfig::fast(spec.seed) };
    let db = caches.pipeline.phase1_database(&config, spec.scenario);
    let uav = uav_spec(&spec.uav).ok_or_else(|| format!("unknown uav class {:?}", spec.uav))?;

    let mut evaluator = if spec.config.layer_memo {
        DssocEvaluator::new(db.clone(), spec.scenario)
            .with_shared_layer_memo(caches.layer_memo(), job.id)
    } else {
        DssocEvaluator::new(db.clone(), spec.scenario).with_layer_memo(false)
    };
    if spec.config.swap.is_on() {
        // Same airframe resolution as the CLI path: the job's platform
        // class picks the default catalog build.
        let airframe = uav.airframe.clone().unwrap_or_else(|| Airframe::default_for(uav.class));
        evaluator = evaluator.with_swap(spec.config.swap, airframe);
    }
    // The shared cache is keyed by evaluator identity; owner tags come
    // from the evaluator, so hits on other jobs' entries are counted as
    // cross-run traffic.
    let cache = caches.candidate_cache(spec.scenario, model, spec.seed);
    let phase2 = autopilot::Phase2::new(spec.optimizer.clone(), spec.budget, spec.seed)
        .with_job_config(spec.config)
        .run_with_cache_controlled(&evaluator, &cache, &job.control)
        .map_err(|e| e.to_string())?;

    let task = TaskSpec::navigation(spec.scenario);
    let selection = Phase3::new().select(&uav, &task, &phase2, &evaluator);
    let result = AutopilotResult {
        uav,
        task,
        database: db,
        phase2,
        selection_error: selection.as_ref().err().map(|e| e.to_string()),
        selection: selection.ok(),
    };
    RunSummary::from_result(&result).to_json().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> JobConfig {
        JobConfig::from_env().with_threads(1)
    }

    const VALID: &str = r#"{"uav_class": "nano", "scenario": "low",
                            "budget": 12, "optimizer": "random-search", "seed": 3}"#;

    #[test]
    fn spec_parses_and_validates() {
        let spec = JobSpec::parse(VALID, defaults()).unwrap();
        assert_eq!(spec.uav, "nano");
        assert_eq!(spec.scenario, ObstacleDensity::Low);
        assert_eq!((spec.budget, spec.seed), (12, 3));

        for (body, needle) in [
            ("{", "invalid JSON"),
            (r#"{"scenario": "low", "budget": 12, "optimizer": "random-search"}"#, "uav_class"),
            (
                r#"{"uav_class": "jumbo", "scenario": "low", "budget": 12, "optimizer": "random-search"}"#,
                "jumbo",
            ),
            (
                r#"{"uav_class": "nano", "scenario": "mars", "budget": 12, "optimizer": "random-search"}"#,
                "mars",
            ),
            (
                r#"{"uav_class": "nano", "scenario": "low", "budget": 1, "optimizer": "random-search"}"#,
                "budget",
            ),
            (
                r#"{"uav_class": "nano", "scenario": "low", "budget": 12, "optimizer": "gradient-descent"}"#,
                "gradient-descent",
            ),
            (
                r#"{"uav_class": "nano", "scenario": "low", "budget": 12, "optimizer": "random-search", "threads": 0}"#,
                "threads",
            ),
            (
                r#"{"uav_class": "nano", "scenario": "low", "budget": 12, "optimizer": "random-search", "swap": "sideways"}"#,
                "swap",
            ),
            (
                r#"{"uav_class": "nano", "scenario": "low", "budget": 12, "optimizer": "random-search", "swap": 3}"#,
                "swap",
            ),
            (
                r#"{"uav_class": "nano", "scenario": "low", "budget": 12, "optimizer": "random-search", "fastexp": "approximate"}"#,
                "fastexp",
            ),
            (
                r#"{"uav_class": "nano", "scenario": "low", "budget": 12, "optimizer": "random-search", "fastexp": 1}"#,
                "fastexp",
            ),
        ] {
            let err = JobSpec::parse(body, defaults()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn fastexp_field_selects_exp_mode() {
        let body = r#"{"uav_class": "nano", "scenario": "low", "budget": 12,
                       "optimizer": "random-search", "seed": 3, "fastexp": "fast"}"#;
        let spec = JobSpec::parse(body, defaults()).unwrap();
        assert_eq!(spec.config.exp_mode, Some(KernelExpMode::Fast));
        let body = r#"{"uav_class": "nano", "scenario": "low", "budget": 12,
                       "optimizer": "random-search", "seed": 3, "fastexp": "exact"}"#;
        let spec = JobSpec::parse(body, defaults()).unwrap();
        assert_eq!(spec.config.exp_mode, Some(KernelExpMode::Exact));
        // Absent field keeps the startup default.
        let spec = JobSpec::parse(VALID, defaults()).unwrap();
        assert_eq!(spec.config.exp_mode, defaults().exp_mode);
    }

    #[test]
    fn swap_field_selects_constraint_mode() {
        let body = r#"{"uav_class": "nano", "scenario": "low", "budget": 12,
                       "optimizer": "random-search", "seed": 3, "swap": "constraint"}"#;
        let spec = JobSpec::parse(body, defaults()).unwrap();
        assert_eq!(spec.config.swap, SwapMode::Constraint);
        // Absent field keeps the startup default.
        let spec = JobSpec::parse(VALID, defaults()).unwrap();
        assert_eq!(spec.config.swap, defaults().swap);
    }

    #[test]
    fn swap_job_matches_cli_path_and_reports_feasibility() {
        let body = r#"{"uav_class": "nano", "scenario": "low", "budget": 24,
                       "optimizer": "random-search", "seed": 5, "swap": "on"}"#;
        let mgr = JobManager::new(4, defaults());
        let job = mgr.submit(body).unwrap();
        mgr.execute(&job);
        assert_eq!(job.state(), JobState::Completed, "error: {:?}", job.error());
        let via_server = job.result_json().unwrap();

        let config = autopilot::AutopilotConfig::fast(5)
            .with_budget(24)
            .with_optimizer(autopilot::OptimizerChoice::Random);
        let pilot = autopilot::AutoPilot::new(config)
            .with_job_config(defaults().with_swap(SwapMode::Constraint));
        let result =
            pilot.run(&UavSpec::nano(), &TaskSpec::navigation(ObstacleDensity::Low)).unwrap();
        let selection = result.selection.as_ref().expect("swap run selects a design");
        let swap = selection.swap.as_ref().expect("swap mode reports feasibility");
        assert!(swap.feasible(), "selected design must satisfy the SWaP check");
        let via_cli = RunSummary::from_result(&result).to_json().unwrap();
        assert_eq!(via_server, via_cli, "swap jobs must be bit-identical to the CLI path");
    }

    #[test]
    fn job_runs_to_completion() {
        let mgr = JobManager::new(4, defaults());
        let job = mgr.submit(VALID).unwrap();
        assert_eq!(job.state(), JobState::Queued);
        let next = mgr.next_job().unwrap();
        assert_eq!(next.id, job.id);
        mgr.execute(&next);
        assert_eq!(job.state(), JobState::Completed);
        let summary = RunSummary::from_json(&job.result_json().unwrap()).unwrap();
        assert_eq!(summary.evaluations, 12);
        let (evals, _) = job.progress();
        assert_eq!(evals, 12);
    }

    #[test]
    fn server_result_matches_cli_path() {
        let mgr = JobManager::new(4, defaults());
        let job = mgr.submit(VALID).unwrap();
        mgr.execute(&job);
        let via_server = job.result_json().unwrap();

        let config = autopilot::AutopilotConfig::fast(3)
            .with_budget(12)
            .with_optimizer(autopilot::OptimizerChoice::Random);
        let pilot = autopilot::AutoPilot::new(config).with_job_config(defaults());
        let result =
            pilot.run(&UavSpec::nano(), &TaskSpec::navigation(ObstacleDensity::Low)).unwrap();
        let via_cli = RunSummary::from_result(&result).to_json().unwrap();
        assert_eq!(via_server, via_cli, "server pipeline must be bit-identical to the CLI path");
    }

    /// An optimizer that panics mid-run, standing in for any bug inside
    /// a job's pipeline.
    struct Panics;

    impl dse_opt::MultiObjectiveOptimizer for Panics {
        fn name(&self) -> &str {
            "test-panics"
        }

        fn run_controlled(
            &mut self,
            _space: &dse_opt::DesignSpace,
            _evaluator: &dyn dse_opt::Evaluator,
            _budget: usize,
            _control: &RunControl,
        ) -> Result<dse_opt::OptimizationResult, dse_opt::DseError> {
            panic!("injected optimizer fault")
        }
    }

    #[test]
    fn panicking_job_fails_and_worker_keeps_serving() {
        obs::force_metrics(true);
        autopilot::register_optimizer("test-panics", |_: &autopilot::OptimizerContext| {
            Box::new(Panics)
        });
        let panicked_before = obs::snapshot().counter("serve.jobs.panicked");
        let mgr = Arc::new(JobManager::new(4, defaults()));
        let bad = mgr
            .submit(
                r#"{"uav_class": "nano", "scenario": "low", "budget": 12,
                    "optimizer": "test-panics", "seed": 3}"#,
            )
            .unwrap();
        let good = mgr.submit(VALID).unwrap();
        // One worker serves both jobs in FIFO order, like a server pool
        // thread, and reports each finished job: the panicking job must
        // not take it down.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || {
                while let Some(job) = mgr.next_job() {
                    mgr.execute(&job);
                    let _ = done_tx.send(job.id);
                }
            })
        };
        let timeout = std::time::Duration::from_secs(120);
        assert_eq!(done_rx.recv_timeout(timeout), Ok(bad.id));
        assert_eq!(done_rx.recv_timeout(timeout), Ok(good.id), "the worker died with the panic");
        mgr.shutdown();
        worker.join().expect("the worker survives a panicking job");
        assert_eq!(bad.state(), JobState::Failed);
        assert_eq!(bad.error().as_deref(), Some("job panicked: injected optimizer fault"));
        assert_eq!(good.state(), JobState::Completed, "error: {:?}", good.error());
        assert!(obs::snapshot().counter("serve.jobs.panicked") > panicked_before);
    }

    #[test]
    fn queue_admission_is_bounded() {
        let mgr = JobManager::new(2, defaults());
        mgr.submit(VALID).unwrap();
        mgr.submit(VALID).unwrap();
        assert!(matches!(mgr.submit(VALID), Err(AdmitError::QueueFull)));
    }

    #[test]
    fn jobs_cancelled_while_queued_free_their_admission_slots() {
        let mgr = JobManager::new(2, defaults());
        for _ in 0..2 {
            let job = mgr.submit(VALID).unwrap();
            assert!(mgr.cancel(job.id).is_some_and(|(_, accepted)| accepted));
        }
        let admitted = mgr.submit(VALID).expect("cancelled jobs must not fill the queue");
        assert_eq!(admitted.state(), JobState::Queued);
        mgr.shutdown();
        assert!(mgr.next_job().is_none(), "shutdown cancels the admitted job too");
    }

    #[test]
    fn queued_job_cancels_immediately() {
        let mgr = JobManager::new(4, defaults());
        let job = mgr.submit(VALID).unwrap();
        assert!(job.cancel());
        assert_eq!(job.state(), JobState::Cancelled);
        assert!(!job.cancel(), "terminal jobs refuse re-cancellation");
        // The worker must skip it without executing.
        mgr.shutdown();
        assert!(mgr.next_job().is_none());
        assert_eq!(job.state(), JobState::Cancelled);
    }

    #[test]
    fn shutdown_stops_admission() {
        let mgr = JobManager::new(4, defaults());
        mgr.shutdown();
        assert!(matches!(mgr.submit(VALID), Err(AdmitError::ShuttingDown)));
        assert!(mgr.is_shutting_down());
    }

    #[test]
    fn concurrent_workers_share_caches_and_conserve_counters() {
        let mgr = Arc::new(JobManager::new(8, defaults()));
        let mut submitted = Vec::new();
        for _ in 0..4 {
            submitted.push(mgr.submit(VALID).unwrap());
        }
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let mgr = Arc::clone(&mgr);
                std::thread::spawn(move || {
                    while let Some(job) = mgr.next_job() {
                        mgr.execute(&job);
                    }
                })
            })
            .collect();
        // Workers drain the queue, then exit once shutdown begins.
        while submitted.iter().any(|j| !matches!(j.state(), JobState::Completed)) {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        mgr.shutdown();
        for w in workers {
            w.join().unwrap();
        }
        let first = submitted[0].result_json().unwrap();
        for job in &submitted {
            assert_eq!(job.result_json().unwrap(), first, "identical specs, identical results");
        }
        // Counter conservation under contention: the shared cache counted
        // every job's lookups exactly once.
        let cache = mgr.caches().candidate_cache(ObstacleDensity::Low, SuccessModel::Surrogate, 3);
        let lookups: usize = submitted
            .iter()
            .map(|j| RunSummary::from_json(&j.result_json().unwrap()).unwrap().evaluations)
            .sum();
        let agg = cache.stats();
        assert_eq!(agg.hits + agg.misses, lookups as u64, "cache counters must conserve");
        assert!(agg.cross_run_hits > 0, "later jobs must reuse earlier jobs' entries");
    }

    #[test]
    fn second_job_sees_cross_run_cache_hits() {
        let mgr = JobManager::new(4, defaults());
        let first = mgr.submit(VALID).unwrap();
        mgr.execute(&first);
        let second = mgr.submit(VALID).unwrap();
        mgr.execute(&second);
        assert_eq!(first.state(), JobState::Completed);
        assert_eq!(second.state(), JobState::Completed);
        assert_eq!(first.result_json(), second.result_json());
        let cache = mgr.caches().candidate_cache(ObstacleDensity::Low, SuccessModel::Surrogate, 3);
        assert!(
            cache.stats().cross_run_hits > 0,
            "identical rerun must be served from the first job's entries"
        );
        let memo = mgr.caches().layer_memo();
        assert!(memo.stats().cross_run_hits > 0, "layer memo must see cross-run hits too");
    }

    #[test]
    fn untrusted_seeds_hold_a_bounded_number_of_scenario_keys() {
        let mgr = JobManager::new(4, defaults());
        let run = |seed: usize| {
            let body = VALID.replace("\"seed\": 3", &format!("\"seed\": {seed}"));
            let job = mgr.submit(&body).unwrap();
            mgr.execute(&mgr.next_job().unwrap());
            assert_eq!(job.state(), JobState::Completed, "seed {seed}: {:?}", job.error());
            job.result_json().unwrap()
        };
        for seed in 0..SCENARIO_KEYS + 4 {
            run(seed);
        }
        let caches = mgr.caches();
        let phase1 = caches.pipeline.phase1_stats();
        let candidates = caches.candidates.stats();
        assert_eq!(phase1.entries, SCENARIO_KEYS, "phase-1 databases past the cap");
        assert_eq!(candidates.entries, SCENARIO_KEYS, "candidate caches past the cap");
        assert!(phase1.evictions > 0 && candidates.evictions > 0, "nothing was evicted");
        // Seed 0 was evicted long ago: re-requesting it recomputes the
        // same result the CLI path produces.
        let config = AutopilotConfig::fast(0)
            .with_budget(12)
            .with_optimizer(autopilot::OptimizerChoice::Random);
        let result = autopilot::AutoPilot::new(config)
            .with_job_config(defaults())
            .run(&UavSpec::nano(), &TaskSpec::navigation(ObstacleDensity::Low))
            .unwrap();
        assert_eq!(run(0), RunSummary::from_result(&result).to_json().unwrap());
    }
}
