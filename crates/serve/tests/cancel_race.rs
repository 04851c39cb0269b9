//! Cancellation racing completion, over seeded interleavings.
//!
//! Per seed, two gated jobs run on two workers. A releaser thread lets
//! each job's optimizer go after a seeded spin, while this thread sends
//! the job's `DELETE` (`JobManager::cancel`) after a seeded spin of its
//! own, so the cancel lands while the job is queued, held at its gate,
//! searching, or finished. Every job must end in exactly one terminal
//! state, with a result exactly when it completed; a cancel must be
//! refused exactly when the job had already ended, and an accepted one
//! must end the job cancelled.
//!
//! The test lives in its own binary because it checks the process-wide
//! `serve.jobs.*` counters, which the library's unit tests move
//! concurrently. It starts three threads: two workers and the releaser.

// Helpers shared across #[test] fns fall outside `allow-expect-in-tests`.
#![allow(clippy::expect_used)]

use autopilot_obs as obs;
use autopilot_serve::{Job, JobManager, JobState};
use dse_opt::{
    DesignSpace, DseError, Evaluator, MultiObjectiveOptimizer, OptimizationResult, RunControl,
};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Seeds of the gated jobs whose optimizer has started, and of those
/// the releaser has let go.
static STARTED: Mutex<Vec<u64>> = Mutex::new(Vec::new());
static RELEASED: Mutex<Vec<u64>> = Mutex::new(Vec::new());

fn contains(list: &Mutex<Vec<u64>>, seed: u64) -> bool {
    list.lock().unwrap_or_else(PoisonError::into_inner).contains(&seed)
}

/// Random search behind a gate: the run records its seed as started,
/// then waits until its seed is released or the job is cancelled.
struct Gated {
    seed: u64,
    inner: autopilot::BoxedOptimizer,
}

impl MultiObjectiveOptimizer for Gated {
    fn name(&self) -> &str {
        "test-gated"
    }

    fn run_controlled(
        &mut self,
        space: &DesignSpace,
        evaluator: &dyn Evaluator,
        budget: usize,
        control: &RunControl,
    ) -> Result<OptimizationResult, DseError> {
        STARTED.lock().unwrap_or_else(PoisonError::into_inner).push(self.seed);
        let deadline = Instant::now() + Duration::from_secs(60);
        while !contains(&RELEASED, self.seed) {
            if control.is_cancelled() {
                return Err(DseError::Cancelled);
            }
            assert!(Instant::now() < deadline, "gated job {} never let go", self.seed);
            std::thread::sleep(Duration::from_micros(100));
        }
        self.inner.run_controlled(space, evaluator, budget, control)
    }
}

/// Draw `i` of the SplitMix64 stream seeded with `seed`.
fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn spin(n: u64) {
    for _ in 0..n {
        std::hint::spin_loop();
    }
}

/// Waits up to a minute for `done`, polling.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// When this thread sends a job's cancel.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Plan {
    /// After a seeded spin from submission: usually while the job is
    /// queued or held at its gate.
    Race,
    /// After a seeded spin from the job's start at its gate, racing its
    /// release and its search.
    RaceRunning,
    /// After the job has ended: the cancel must be refused.
    AfterEnd,
}

/// What one cancel saw: the state just before the call, whether the
/// call was accepted, and the state just after.
struct Cancel {
    before: JobState,
    accepted: bool,
    after: JobState,
}

fn cancel(mgr: &JobManager, job: &Job) -> Cancel {
    let before = job.state();
    let (_, accepted) = mgr.cancel(job.id).expect("the job is registered");
    Cancel { before, accepted, after: job.state() }
}

#[test]
fn cancel_racing_completion_ends_every_job_in_one_terminal_state() {
    const SEEDS: u64 = 16;
    const JOBS_PER_SEED: u64 = 2;
    const SEED_BASE: u64 = 31_000;
    const MAX_SPIN: u64 = 50_000;
    obs::force_metrics(true);
    autopilot::register_optimizer("test-gated", |ctx: &autopilot::OptimizerContext| {
        let inner = autopilot::build_optimizer("random-search", ctx).unwrap();
        Box::new(Gated { seed: ctx.seed, inner })
    });
    let counts = || {
        let snap = obs::snapshot();
        ["started", "completed", "cancelled", "failed"]
            .map(|state| snap.counter(&format!("serve.jobs.{state}")))
    };
    let before = counts();

    let defaults = autopilot::JobConfig::default().with_threads(1);
    let mgr = Arc::new(JobManager::new(8, defaults));
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
    let (release_tx, release_rx) = mpsc::channel::<(u64, u64)>();
    let releaser = std::thread::spawn(move || {
        for (job_seed, spins) in release_rx {
            spin(spins);
            RELEASED.lock().unwrap_or_else(PoisonError::into_inner).push(job_seed);
        }
    });

    let mut outcomes: Vec<(Plan, Cancel, Arc<Job>)> = Vec::new();
    for seed in 0..SEEDS {
        let mut round = Vec::new();
        for k in 0..JOBS_PER_SEED {
            let draw = |i: u64| splitmix(seed, 4 * k + i);
            let plan = match draw(0) % 3 {
                0 => Plan::Race,
                1 => Plan::RaceRunning,
                _ => Plan::AfterEnd,
            };
            let job_seed = SEED_BASE + JOBS_PER_SEED * seed + k;
            let body = format!(
                r#"{{"uav_class": "nano", "scenario": "low", "budget": 12,
                    "optimizer": "test-gated", "seed": {job_seed}}}"#
            );
            let job = mgr.submit(&body).expect("admitted");
            round.push((plan, job_seed, draw(2) % MAX_SPIN, job));
            release_tx.send((job_seed, draw(1) % MAX_SPIN)).unwrap();
        }
        for (plan, job_seed, cancel_spin, job) in round {
            let sent = match plan {
                Plan::Race => {
                    spin(cancel_spin);
                    cancel(&mgr, &job)
                }
                Plan::RaceRunning => {
                    wait_until(&format!("job {job_seed} to start"), || {
                        contains(&STARTED, job_seed)
                    });
                    spin(cancel_spin);
                    cancel(&mgr, &job)
                }
                Plan::AfterEnd => {
                    wait_until(&format!("job {job_seed} to end"), || job.state().is_terminal());
                    cancel(&mgr, &job)
                }
            };
            wait_until(&format!("job {job_seed} to settle"), || job.state().is_terminal());
            outcomes.push((plan, sent, job));
        }
    }
    mgr.shutdown();
    drop(release_tx);
    for worker in workers {
        worker.join().expect("workers exit cleanly");
    }
    releaser.join().expect("the releaser exits cleanly");

    let (mut completed, mut cancelled) = (0, 0);
    for (plan, sent, job) in &outcomes {
        let (id, state) = (job.id, job.state());
        let (result, error) = (job.result_json(), job.error());
        match state {
            JobState::Completed => {
                assert!(result.is_some() && error.is_none(), "job {id}: {error:?}");
                completed += 1;
            }
            JobState::Cancelled => {
                assert!(result.is_none(), "job {id} cancelled with a result");
                cancelled += 1;
            }
            other => panic!("job {id} ({plan:?}) ended {other:?}: {error:?}"),
        }
        // A cancel is accepted only while the job is live and then
        // ends it cancelled: one that found the job ended is refused,
        // and a refused one saw the job's final state.
        if sent.before.is_terminal() {
            assert!(!sent.accepted, "job {id}: cancel accepted after the job ended");
        }
        if sent.accepted {
            assert_eq!(state, JobState::Cancelled, "job {id}: an accepted cancel did not stick");
        } else {
            assert_eq!(sent.after, state, "job {id}: a refused cancel saw a live job");
        }
        if *plan == Plan::AfterEnd {
            assert!(!sent.accepted && state == JobState::Completed, "job {id}");
        }
    }
    assert!(completed > 0 && cancelled > 0, "{completed} completed, {cancelled} cancelled");

    // Every job a worker started ended in exactly one terminal state.
    let after = counts();
    let [started, done, stopped, failed] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
    assert_eq!(done + stopped + failed, started, "started/completed/cancelled/failed deltas");
    assert_eq!((done, failed), (completed, 0), "completed and failed deltas");
}
