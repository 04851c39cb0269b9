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
//! size) for `GET /jobs/:id`. Shutdown refuses every later submission
//! and cancels every job admitted before it, so each admitted job still
//! reaches a terminal state and the workers drain and exit.
//!
//! Jobs share one thing across runs: the Phase-1 scenario databases of
//! a process-lifetime [`PipelineCache`], keyed by `(scenario, success
//! model, seed)` (hits and misses count under `pipeline.phase1_cache.*`).
//! The seed is untrusted input, so that map holds at most 16 keys and
//! evicts its oldest key past that. Phase 2 shares nothing: each job's
//! search evaluates its own design points, as `AutoPilot::run` does,
//! and records its candidates for that run only.

use air_sim::ObstacleDensity;
use autopilot::{
    AutopilotConfig, AutopilotResult, DssocEvaluator, JobConfig, Phase3, PipelineCache, RunSummary,
    SwapMode, TaskSpec,
};
use autopilot_obs as obs;
use autopilot_obs::json::Value;
use dse_opt::RunControl;
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use uav_dynamics::{Airframe, UavSpec};

/// Largest accepted Phase-2 budget per job (admission-time guard
/// against a single request monopolizing the pool).
pub const MAX_BUDGET: usize = 10_000;

/// Most terminal (completed, failed or cancelled) jobs the registry
/// keeps; past this the oldest terminal job is evicted, and its id then
/// answers `404`. Queued and running jobs are never evicted.
pub const MAX_TERMINAL_JOBS: usize = 1024;

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
    /// Per-job engine knobs (threads, SWaP mode), defaulting to the
    /// server's job defaults.
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
    /// Server-assigned id.
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
    /// Phase-1 databases shared by every job (its Phase-2 map stays
    /// empty: jobs run Phase 2 themselves).
    caches: PipelineCache,
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
            caches: PipelineCache::new(),
            defaults,
        }
    }

    /// The startup-captured per-job defaults.
    pub fn defaults(&self) -> JobConfig {
        self.defaults
    }

    /// The Phase-1 database cache every job shares (exposed for tests
    /// and metrics).
    pub fn caches(&self) -> &PipelineCache {
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
        // Checked again under the queue lock, which `shutdown` takes to
        // set the flag: a job is either queued before shutdown begins,
        // and so cancelled or run by it, or refused.
        if self.shutdown.load(Ordering::Relaxed) {
            return Err(AdmitError::ShuttingDown);
        }
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
        // Set under the queue lock, so that no worker can miss the
        // wake-up between its check of the flag and its wait, and no
        // submission can queue a job after the cancellations below.
        let queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        self.shutdown.store(true, Ordering::Relaxed);
        drop(queue);
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

/// Runs the three-phase pipeline for `job`, reading its Phase-1
/// database from the shared cache.
///
/// This mirrors `AutoPilot::run` exactly — same phase order, same
/// evaluator construction, same Phase-3 configuration — so a job's
/// `RunSummary` is bit-identical to the CLI path at the same seed and
/// [`JobConfig`]. The only differences are the shared Phase-1 cache and
/// the cancellation token, neither of which affects results.
fn run_pipeline(caches: &PipelineCache, job: &Job) -> Result<String, String> {
    let spec = &job.spec;
    let config = AutopilotConfig::fast(spec.seed);
    let db = caches.phase1_database(&config, spec.scenario);
    let uav = uav_spec(&spec.uav).ok_or_else(|| format!("unknown uav class {:?}", spec.uav))?;

    let mut evaluator = DssocEvaluator::new(db.clone(), spec.scenario);
    if spec.config.swap.is_on() {
        // Same airframe resolution as the CLI path: the job's platform
        // class picks the default catalog build.
        let airframe = uav.airframe.clone().unwrap_or_else(|| Airframe::default_for(uav.class));
        evaluator = evaluator.with_swap(spec.config.swap, airframe);
    }
    let phase2 = autopilot::Phase2::new(spec.optimizer.clone(), spec.budget, spec.seed)
        .with_job_config(spec.config)
        .run_controlled(&evaluator, &job.control)
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
    use std::time::{Duration, Instant};

    fn defaults() -> JobConfig {
        JobConfig::default().with_threads(1)
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
        ] {
            let err = JobSpec::parse(body, defaults()).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
    }

    #[test]
    fn retired_knob_fields_are_ignored_like_unknown_keys() {
        // Clients may still send the retired `gp_window` and `fastexp`
        // knobs; like any unknown key, no value of either changes the
        // spec or fails the request.
        let plain = JobSpec::parse(VALID, defaults()).unwrap();
        for extra in [
            r#""gp_window": 64, "fastexp": "fast""#,
            r#""gp_window": "wide", "fastexp": 1"#,
            r#""gp_window": null, "fastexp": "approximate""#,
        ] {
            let body = format!(
                r#"{{"uav_class": "nano", "scenario": "low", "budget": 12,
                     "optimizer": "random-search", "seed": 3, {extra}}}"#
            );
            assert_eq!(JobSpec::parse(&body, defaults()).unwrap(), plain, "{extra}");
        }
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
        // Two back-to-back jobs with one spec, per optimizer: each must
        // equal `AutoPilot::run`, whatever the first left behind.
        use autopilot::OptimizerChoice;
        let mgr = JobManager::new(4, defaults());
        for choice in [OptimizerChoice::Random, OptimizerChoice::SmsEgo, OptimizerChoice::Nsga2] {
            let config = AutopilotConfig::fast(3).with_budget(12).with_optimizer(choice);
            let pilot = autopilot::AutoPilot::new(config).with_job_config(defaults());
            let result =
                pilot.run(&UavSpec::nano(), &TaskSpec::navigation(ObstacleDensity::Low)).unwrap();
            let via_cli = RunSummary::from_result(&result).to_json().unwrap();
            let body = VALID.replace("random-search", choice.name());
            for round in 0..2 {
                let job = mgr.submit(&body).unwrap();
                mgr.execute(&job);
                assert_eq!(job.state(), JobState::Completed, "{choice:?}: {:?}", job.error());
                assert_eq!(
                    job.result_json().unwrap(),
                    via_cli,
                    "{choice:?} job {round}: server pipeline must be bit-identical to the CLI path"
                );
            }
        }
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
    fn concurrent_workers_give_identical_specs_identical_results() {
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
        // The Phase-1 map holds at most 16 scenario keys.
        for seed in 0..20 {
            run(seed);
        }
        let phase1 = mgr.caches().phase1_stats();
        assert_eq!(phase1.entries, 16, "phase-1 databases past the cap");
        assert!(phase1.evictions > 0, "nothing was evicted");
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

    /// Seeds of the `test-gated` jobs whose optimizer has started, and
    /// of those the test lets finish.
    static GATED_STARTED: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    static GATED_RELEASED: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    fn seeds(list: &Mutex<Vec<u64>>) -> Vec<u64> {
        list.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Random search behind a gate: the run records its seed as started,
    /// then holds its worker until the test releases that seed or
    /// cancels the job, so the test decides which jobs are running.
    struct Gated {
        seed: u64,
        inner: autopilot::BoxedOptimizer,
    }

    impl dse_opt::MultiObjectiveOptimizer for Gated {
        fn name(&self) -> &str {
            "test-gated"
        }

        fn run_controlled(
            &mut self,
            space: &dse_opt::DesignSpace,
            evaluator: &dyn dse_opt::Evaluator,
            budget: usize,
            control: &RunControl,
        ) -> Result<dse_opt::OptimizationResult, dse_opt::DseError> {
            GATED_STARTED.lock().unwrap_or_else(PoisonError::into_inner).push(self.seed);
            let deadline = Instant::now() + Duration::from_secs(60);
            while !seeds(&GATED_RELEASED).contains(&self.seed) {
                if control.is_cancelled() {
                    return Err(dse_opt::DseError::Cancelled);
                }
                assert!(Instant::now() < deadline, "gated job {} never let go", self.seed);
                std::thread::sleep(Duration::from_millis(1));
            }
            self.inner.run_controlled(space, evaluator, budget, control)
        }
    }

    /// Waits up to a minute for `done`, polling.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Draw `i` of the SplitMix64 stream seeded with `seed`.
    fn splitmix(seed: u64, i: u64) -> u64 {
        let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn cancel_and_shutdown_drive_every_job_to_a_terminal_state() {
        autopilot::register_optimizer("test-gated", |ctx: &autopilot::OptimizerContext| {
            let inner = autopilot::build_optimizer("random-search", ctx).unwrap();
            Box::new(Gated { seed: ctx.seed, inner })
        });
        // A seeded plan per job (SplitMix64): let it finish, cancel it
        // while queued, cancel it while running, or leave it to shutdown.
        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Plan {
            Finish,
            CancelQueued,
            CancelRunning,
            Shutdown,
        }
        const JOBS: u64 = 14;
        const SEED_BASE: u64 = 9_000;
        let plans: Vec<Plan> = (0..JOBS)
            .map(|i| {
                match (i, splitmix(0x5eed, i) % 3) {
                    // The last jobs are still queued or running when
                    // shutdown begins.
                    (i, _) if i >= JOBS - 4 => Plan::Shutdown,
                    // Workers take the first two at once, so neither can
                    // be cancelled while queued.
                    (0 | 1, 0) | (_, 1) => Plan::Finish,
                    (0 | 1, _) | (_, 2) => Plan::CancelRunning,
                    _ => Plan::CancelQueued,
                }
            })
            .collect();
        for plan in [Plan::Finish, Plan::CancelQueued, Plan::CancelRunning] {
            assert!(plans.contains(&plan), "the seeded plan never exercises {plan:?}");
        }

        let mgr = Arc::new(JobManager::new(JOBS as usize, defaults()));
        let jobs: Vec<Arc<Job>> = (0..JOBS)
            .map(|i| {
                let body = VALID
                    .replace("random-search", "test-gated")
                    .replace("\"seed\": 3", &format!("\"seed\": {}", SEED_BASE + i));
                mgr.submit(&body).unwrap()
            })
            .collect();
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

        // Both workers hold a gated job, so every later job is queued
        // until one of them lets go.
        let started = |i: usize| seeds(&GATED_STARTED).contains(&(SEED_BASE + i as u64));
        wait_until("the first two jobs to start", || started(0) && started(1));
        for (i, job) in jobs.iter().enumerate() {
            if plans[i] == Plan::CancelQueued {
                assert_eq!(job.state(), JobState::Queued, "job {i}");
                assert!(mgr.cancel(job.id).is_some_and(|(_, accepted)| accepted), "job {i}");
                assert_eq!(job.state(), JobState::Cancelled, "job {i}");
            }
        }
        // Settle the jobs in submission order as workers reach them; stop
        // at the first job left to shutdown.
        for (i, job) in jobs.iter().enumerate() {
            match plans[i] {
                Plan::CancelQueued => continue,
                Plan::Shutdown => break,
                Plan::Finish | Plan::CancelRunning => {}
            }
            wait_until(&format!("job {i} to start"), || started(i));
            assert_eq!(job.state(), JobState::Running, "job {i}");
            if plans[i] == Plan::Finish {
                GATED_RELEASED
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(SEED_BASE + i as u64);
            } else {
                assert!(mgr.cancel(job.id).is_some_and(|(_, accepted)| accepted), "job {i}");
            }
            wait_until(&format!("job {i} to settle"), || job.state().is_terminal());
        }
        mgr.shutdown();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let joiner = std::thread::spawn(move || {
            let panicked = workers.into_iter().map(|w| w.join()).filter(Result::is_err).count();
            let _ = done_tx.send(panicked);
        });
        let panicked = done_rx.recv_timeout(Duration::from_secs(30));
        assert_eq!(panicked, Ok(0), "workers must exit cleanly within 30 s of shutdown");
        joiner.join().unwrap();

        let ran = seeds(&GATED_STARTED);
        for (i, job) in jobs.iter().enumerate() {
            let expected = match plans[i] {
                Plan::Finish => JobState::Completed,
                Plan::CancelQueued | Plan::CancelRunning | Plan::Shutdown => JobState::Cancelled,
            };
            assert_eq!(job.state(), expected, "job {i} ({:?}): {:?}", plans[i], job.error());
            if plans[i] == Plan::CancelQueued {
                assert!(!ran.contains(&(SEED_BASE + i as u64)), "job {i} ran after its cancel");
            }
        }
    }

    #[test]
    fn shutdown_racing_admission_settles_every_admitted_job() {
        // Per seed, one thread submits in a tight loop while this thread
        // calls `shutdown` after a seeded number of admissions and a
        // seeded spin, so shutdown lands at a different point of
        // admission each time.
        for seed in 0..16u64 {
            let (admit_first, spin) = (1 + splitmix(seed, 0) % 6, splitmix(seed, 1) % 20_000);
            let mgr = Arc::new(JobManager::new(8, defaults()));
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (mgr, done_tx) = (Arc::clone(&mgr), done_tx.clone());
                    std::thread::spawn(move || {
                        while let Some(job) = mgr.next_job() {
                            mgr.execute(&job);
                        }
                        let _ = done_tx.send(());
                    })
                })
                .collect();
            let admitted_count = Arc::new(AtomicU64::new(0));
            let shutdown_returned = Arc::new(AtomicBool::new(false));
            let submitter = {
                let (mgr, admitted_count, shutdown_returned) =
                    (Arc::clone(&mgr), Arc::clone(&admitted_count), Arc::clone(&shutdown_returned));
                std::thread::spawn(move || {
                    let (mut admitted, mut refusals) = (Vec::new(), 0);
                    // Stop after a few refusals: each must be the shutdown
                    // one, as must every submission after the first.
                    while refusals < 4 {
                        let after_shutdown = shutdown_returned.load(Ordering::SeqCst);
                        match mgr.submit(VALID) {
                            Ok(job) => {
                                assert!(refusals == 0, "seed {seed}: admitted after a refusal");
                                assert!(!after_shutdown, "seed {seed}: admitted after shutdown");
                                admitted.push(job);
                                admitted_count.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(AdmitError::ShuttingDown) => refusals += 1,
                            Err(AdmitError::QueueFull) => {
                                assert!(!after_shutdown, "seed {seed}: queue full after shutdown");
                                std::thread::yield_now();
                            }
                            Err(AdmitError::Invalid(e)) => panic!("seed {seed}: {e}"),
                        }
                    }
                    admitted
                })
            };
            wait_until("the seeded admissions", || {
                admitted_count.load(Ordering::SeqCst) >= admit_first
            });
            for _ in 0..spin {
                std::hint::spin_loop();
            }
            mgr.shutdown();
            shutdown_returned.store(true, Ordering::SeqCst);
            let admitted = submitter.join().expect("the submitter keeps to the refusal rules");
            for _ in &workers {
                let exited = done_rx.recv_timeout(Duration::from_secs(30));
                assert_eq!(exited, Ok(()), "seed {seed}: a worker did not exit after shutdown");
            }
            for worker in workers {
                worker.join().expect("workers exit cleanly");
            }
            assert!(admitted.len() as u64 >= admit_first);
            for job in &admitted {
                assert!(
                    job.state().is_terminal(),
                    "seed {seed}: job {} ends {:?}",
                    job.id,
                    job.state()
                );
            }
        }
    }
}
