//! The `serve-mix` workload: a closed loop against the in-repo co-design
//! server. Two keep-alive client connections each keep two jobs
//! outstanding on a server with two pool workers, so a small queue
//! forms. Every job's latency runs from its `POST /jobs` to its
//! `RunSummary` in hand.

use crate::layers::{self, ReplayGroup};
use crate::report::{interquartile_mean, mean, median, percentile, Fingerprint, Outcome};
use crate::{timed, Knobs, ATTRIBUTION_BOUND, WARMUP};
use air_sim::ObstacleDensity;
use autopilot::{
    AutoPilot, AutopilotConfig, AutopilotResult, JobConfig, OptimizerChoice, PipelineCache,
    RunSummary, TaskSpec,
};
use autopilot_obs as obs;
use autopilot_obs::json::Value;
use autopilot_rng::Rng;
use autopilot_serve::{JobManager, Server};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const UAV_CLASSES: [&str; 3] = ["nano", "micro", "mini"];
/// Client connections, and jobs each keeps outstanding.
const CLIENTS: usize = 2;
const OUTSTANDING: usize = 2;
/// Admission-queue capacity: above the most jobs the clients can have
/// outstanding, so a correct server never refuses one.
const MAX_QUEUE: usize = 8;
/// Status-poll interval while a client has nothing else to do.
const POLL: Duration = Duration::from_millis(2);
/// Jobs the deterministic quality metrics and the traced run cover.
const QUALITY_JOBS: usize = 36;
/// Jobs generated per run: more than a run can complete.
const STREAM_LEN: usize = 4_000;
/// Server boots before and after the window; `setup_s` is their median.
const SETUP_BEFORE: usize = 5;
const SETUP_AFTER: usize = 4;

/// One job request. Jobs sharing `(scenario, seed)` share the server's
/// candidate cache; every job shares its layer memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobKey {
    pub uav: usize,
    pub scenario: usize,
    pub seed: u64,
    pub budget: usize,
    pub nsga: bool,
}

impl JobKey {
    fn optimizer(&self) -> OptimizerChoice {
        if self.nsga {
            OptimizerChoice::Nsga2
        } else {
            OptimizerChoice::SmsEgo
        }
    }

    fn density(&self) -> ObstacleDensity {
        ObstacleDensity::ALL[self.scenario]
    }

    fn body(&self, traced: bool) -> String {
        let optimizer =
            if traced { timed::name(self.optimizer()) } else { self.optimizer().name().to_owned() };
        Value::Obj(vec![
            ("uav_class".into(), Value::Str(UAV_CLASSES[self.uav].into())),
            ("scenario".into(), Value::Str(self.density().id().into())),
            ("budget".into(), Value::Num(self.budget as f64)),
            ("optimizer".into(), Value::Str(optimizer)),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("threads".into(), Value::Num(1.0)),
        ])
        .to_json()
    }

    /// The Phase-2 problem, which the in-process reference computes once
    /// for every UAV class that asked for it.
    fn problem(&self) -> (usize, u64, usize, bool) {
        (self.scenario, self.seed, self.budget, self.nsga)
    }
}

/// Budgets of the SMS-EGO jobs that fill the caches.
const SMS_BUDGETS: [usize; 13] = [24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120];
/// Budgets of the large NSGA-II jobs.
const NSGA_BUDGETS: [usize; 5] = [600, 660, 720, 780, 840];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A new SMS-EGO problem.
    Fresh,
    /// An earlier SMS-EGO problem on the same scenario, again.
    Repeat,
    /// A large NSGA-II search.
    Nsga,
}

/// Draws the next item of a seeded round: every item of `all` once, in an
/// order shuffled anew each round.
fn draw<T: Copy>(rng: &mut Rng, round: &mut Vec<T>, all: &[T]) -> T {
    if round.is_empty() {
        *round = all.to_vec();
        rng.shuffle(round);
    }
    round.pop().unwrap_or(all[0])
}

/// The seeded job stream. Job `i` targets UAV class `i mod 3` and
/// scenario `(i / 3) mod 3`, so every nine jobs cover the 3 × 3 grid. The
/// mix is fixed per block of 48 jobs, and the seed shuffles it, so every
/// seed offers the same load: 3 large NSGA-II searches, 15 repeats and 30
/// fresh SMS-EGO problems. Repeats re-run an earlier SMS-EGO problem on
/// the same scenario (reading the shared caches). Fresh jobs draw a
/// configuration seed from a pool of four and take the SMS-EGO budgets in
/// seeded rounds that cover all thirteen, so they partly read and partly
/// fill the caches.
pub fn job_stream(seed: u64, n: usize) -> Vec<JobKey> {
    let block = [[Kind::Nsga; 3].as_slice(), &[Kind::Repeat; 15], &[Kind::Fresh; 30]].concat();
    let mut rng = Rng::seed_stream(seed, 0x5e7e);
    let pool: Vec<u64> = (0..4).map(|_| rng.bounded_u64(1_000_000)).collect();
    let mut jobs: Vec<JobKey> = Vec::with_capacity(n);
    let mut sms_problems: [Vec<JobKey>; 3] = Default::default();
    let (mut kinds, mut budgets, mut nsga_budgets) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n {
        let (uav, scenario) = (i % 3, (i / 3) % 3);
        let earlier = &sms_problems[scenario];
        let kind = match draw(&mut rng, &mut kinds, &block) {
            Kind::Repeat if earlier.is_empty() => Kind::Fresh,
            k => k,
        };
        let seed = pool[rng.below(pool.len())];
        let key = match kind {
            Kind::Repeat => JobKey { uav, ..earlier[rng.below(earlier.len())] },
            Kind::Nsga => {
                let budget = draw(&mut rng, &mut nsga_budgets, &NSGA_BUDGETS);
                JobKey { uav, scenario, seed, budget, nsga: true }
            }
            Kind::Fresh => {
                let budget = draw(&mut rng, &mut budgets, &SMS_BUDGETS);
                let key = JobKey { uav, scenario, seed, budget, nsga: false };
                sms_problems[scenario].push(key);
                key
            }
        };
        jobs.push(key);
    }
    jobs
}

/// In-process reference results by job key.
type References = BTreeMap<JobKey, Result<AutopilotResult, String>>;

/// A minimal keep-alive HTTP/1.1 client.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.send(method, path, body)?;
        self.receive()
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<()> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(req.as_bytes())
    }

    /// Reads one reply; the body is delimited by `Content-Length`.
    fn receive(&mut self) -> io::Result<(u16, String)> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&line))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-reply"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().map_err(|_| bad(header))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body).map(|b| (status, b)).map_err(|_| bad("non-UTF-8 body"))
    }
}

/// A server running on its own thread.
struct Booted {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<()>>,
}

impl Booted {
    /// Binds an ephemeral port, starts the accept loop and pool, and
    /// waits until `/healthz` answers.
    fn boot(workers: usize) -> io::Result<Booted> {
        let manager = Arc::new(JobManager::new(MAX_QUEUE, JobConfig::from_env().with_threads(1)));
        let server = Server::bind("127.0.0.1:0", manager, workers)?;
        let addr = server.local_addr()?;
        let stop = server.shutdown_handle();
        // The listener is bound, so the kernel completes the connection
        // before the accept loop runs; the first request is answered as
        // soon as the loop starts, without waiting out an idle poll.
        let mut client = Client::connect(addr)?;
        client.send("GET", "/healthz", "")?;
        let booted = Booted { addr, stop, thread: std::thread::spawn(move || server.run()) };
        match client.receive() {
            Ok((200, _)) => Ok(booted),
            Ok((status, body)) => {
                booted.shutdown();
                Err(io::Error::other(format!("healthz answered {status}: {body}")))
            }
            Err(e) => {
                booted.shutdown();
                Err(e)
            }
        }
    }

    fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Ok(Err(e)) = self.thread.join() {
            eprintln!("perfbench: server stopped with {e}");
        }
    }
}

/// Client-side timestamps of one job, relative to its `POST`.
#[derive(Debug, Clone)]
struct JobRecord {
    index: usize,
    latency: f64,
    admit: f64,
    queue_wait: f64,
    run: f64,
    fetch: f64,
    posted: Instant,
    completed_at: Instant,
    summary: String,
}

#[derive(Debug, Default)]
struct LoopLog {
    jobs: Vec<JobRecord>,
    failures: Vec<String>,
    rejected: u64,
    attempted: u64,
}

struct Pending {
    index: usize,
    id: u64,
    posted: Instant,
    admitted: Instant,
    started: Option<Instant>,
}

/// Runs the closed loop: each client submits stream jobs in index order
/// while `more(next_index)` holds, keeping `OUTSTANDING` in flight, and
/// drains its outstanding jobs before returning.
fn closed_loop(
    addr: SocketAddr,
    stream: &[JobKey],
    traced: bool,
    more: &(dyn Fn(usize) -> bool + Sync),
) -> LoopLog {
    let next = AtomicUsize::new(0);
    let log = Mutex::new(LoopLog::default());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let local = client_loop(addr, stream, traced, more, &next);
                let mut log = log.lock().unwrap_or_else(PoisonError::into_inner);
                log.jobs.extend(local.jobs);
                log.failures.extend(local.failures);
                log.rejected += local.rejected;
                log.attempted += local.attempted;
            });
        }
    });
    let mut log = log.into_inner().unwrap_or_else(PoisonError::into_inner);
    log.jobs.sort_by_key(|j| j.index);
    log
}

fn client_loop(
    addr: SocketAddr,
    stream: &[JobKey],
    traced: bool,
    more: &(dyn Fn(usize) -> bool + Sync),
    next: &AtomicUsize,
) -> LoopLog {
    let mut log = LoopLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.failures.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut pending: Vec<Pending> = Vec::new();
    let mut submitting = true;
    while submitting || !pending.is_empty() {
        while submitting && pending.len() < OUTSTANDING {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= stream.len() || !more(index) {
                submitting = false;
                break;
            }
            log.attempted += 1;
            let posted = Instant::now();
            match client.request("POST", "/jobs", &stream[index].body(traced)) {
                Ok((202, body)) => {
                    let id = Value::parse(&body).ok().and_then(|v| v.get("id")?.as_u64());
                    match id {
                        Some(id) => pending.push(Pending {
                            index,
                            id,
                            posted,
                            admitted: Instant::now(),
                            started: None,
                        }),
                        None => log.failures.push(format!("job {index}: bad admission {body}")),
                    }
                }
                Ok((status, body)) => {
                    log.rejected += u64::from(status == 429);
                    log.failures.push(format!("job {index}: POST answered {status}: {body}"));
                }
                Err(e) => {
                    log.failures.push(format!("job {index}: POST failed: {e}"));
                    return log;
                }
            }
        }
        let mut progressed = false;
        let mut still = Vec::with_capacity(pending.len());
        for mut p in pending.drain(..) {
            let state = match client.request("GET", &format!("/jobs/{}", p.id), "") {
                Ok((200, body)) => Value::parse(&body)
                    .ok()
                    .and_then(|v| v.get("state").and_then(Value::as_str).map(str::to_owned))
                    .unwrap_or_default(),
                Ok((status, body)) => format!("HTTP {status}: {body}"),
                Err(e) => format!("poll failed: {e}"),
            };
            let seen = Instant::now();
            match state.as_str() {
                "queued" => still.push(p),
                "running" => {
                    p.started.get_or_insert(seen);
                    still.push(p);
                }
                "completed" => {
                    progressed = true;
                    let started = *p.started.get_or_insert(seen);
                    let fetch_start = Instant::now();
                    match client.request("GET", &format!("/jobs/{}/result", p.id), "") {
                        Ok((200, summary)) => {
                            let done = Instant::now();
                            let since = |a: Instant, b: Instant| (b - a).as_secs_f64();
                            log.jobs.push(JobRecord {
                                index: p.index,
                                latency: since(p.posted, done),
                                admit: since(p.posted, p.admitted),
                                queue_wait: since(p.admitted, started),
                                run: since(started, seen),
                                fetch: since(fetch_start, done),
                                posted: p.posted,
                                completed_at: done,
                                summary,
                            });
                        }
                        Ok((status, body)) => log
                            .failures
                            .push(format!("job {}: result answered {status}: {body}", p.index)),
                        Err(e) => log.failures.push(format!("job {}: result failed: {e}", p.index)),
                    }
                }
                other => {
                    progressed = true;
                    log.failures.push(format!("job {} ended as {other}", p.index));
                }
            }
        }
        pending = still;
        if !progressed && !pending.is_empty() {
            std::thread::sleep(POLL);
        }
    }
    log
}

/// In-process reference `RunSummary`s (and full results) for every
/// distinct job key, computed through `AutoPilot::with_job_config` on
/// `workers` threads.
fn reference(keys: &[JobKey], workers: usize) -> References {
    let mut problems: BTreeMap<(usize, u64, usize, bool), Vec<JobKey>> = BTreeMap::new();
    for k in keys {
        let uavs = problems.entry(k.problem()).or_default();
        if !uavs.contains(k) {
            uavs.push(*k);
        }
    }
    let problems: Vec<Vec<JobKey>> = problems.into_values().collect();
    let cache = Arc::new(PipelineCache::new());
    let job = JobConfig::from_env().with_threads(1);
    dse_opt::par::parallel_map_with(workers, &problems, |_, group| {
        group
            .iter()
            .map(|k| {
                let config = AutopilotConfig::paper(k.seed)
                    .with_optimizer(k.optimizer())
                    .with_budget(k.budget);
                let pilot =
                    AutoPilot::new(config).with_cache(Arc::clone(&cache)).with_job_config(job);
                let uav = autopilot_serve::jobs::uav_spec(UAV_CLASSES[k.uav])
                    .ok_or_else(|| format!("unknown UAV class {}", UAV_CLASSES[k.uav]));
                let result = uav.and_then(|u| {
                    pilot.run(&u, &TaskSpec::navigation(k.density())).map_err(|e| e.to_string())
                });
                (*k, result)
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The serve-mix workload for one workload seed.
pub struct ServeMix {
    stream: Vec<JobKey>,
    workers: usize,
    /// Jobs the quality metrics and the traced passes cover.
    pub quality_jobs: usize,
    /// How long the loop runs before the timed window opens. Jobs posted
    /// before then are checked but not timed.
    pub warmup: Duration,
}

impl ServeMix {
    pub fn new(seed: u64, knobs: &Knobs) -> ServeMix {
        ServeMix {
            stream: job_stream(seed, STREAM_LEN),
            workers: knobs.workers,
            quality_jobs: QUALITY_JOBS,
            warmup: WARMUP,
        }
    }

    /// Counts the loop's operations and failures into `out`.
    fn account(log: &LoopLog, out: &mut Outcome) {
        out.attempted += log.attempted;
        out.failed += log.failures.len() as u64;
        for failure in &log.failures {
            eprintln!("perfbench: FAILED {failure}");
            out.note(format!("FAILED {failure}"));
        }
    }

    /// Checks every completed job's summary against the in-process
    /// reference, byte for byte, and returns the reference results.
    fn verify(&self, jobs: &[JobRecord], out: &mut Outcome) -> References {
        let keys: Vec<JobKey> = jobs.iter().map(|j| self.stream[j.index]).collect();
        let refs = reference(&keys, self.workers);
        let mut checked: BTreeMap<JobKey, bool> = BTreeMap::new();
        for job in jobs {
            let key = self.stream[job.index];
            let expected = match refs.get(&key) {
                Some(Ok(r)) => RunSummary::from_result(r).to_json().map_err(|e| e.to_string()),
                Some(Err(e)) => Err(e.clone()),
                None => Err("no reference".into()),
            };
            let ok = expected.as_ref().is_ok_and(|e| *e == job.summary);
            if checked.insert(key, ok).is_none() || !ok {
                out.check(ok, || match &expected {
                    Ok(_) => {
                        format!("job {} ({key:?}): RunSummary differs from in-process", job.index)
                    }
                    Err(e) => format!("job {} ({key:?}): reference failed: {e}", job.index),
                });
            }
        }
        out.note(format!(
            "{} distinct job keys checked against the in-process pipeline",
            checked.len()
        ));
        refs
    }

    /// Quality over the first `quality_jobs` jobs of the stream.
    fn quality(&self, refs: &References, out: &mut Outcome) {
        let first: Vec<&AutopilotResult> = self.stream[..self.quality_jobs]
            .iter()
            .filter_map(|k| refs.get(k).and_then(|r| r.as_ref().ok()))
            .collect();
        out.check(first.len() == self.quality_jobs, || {
            format!("{} of the first {} jobs have results", first.len(), self.quality_jobs)
        });
        let hv: Vec<f64> = first.iter().map(|r| r.phase2.result.final_hypervolume()).collect();
        let evals: Vec<f64> = first
            .iter()
            .map(|r| {
                let res = &r.phase2.result;
                res.evaluations_to_fraction(0.95).unwrap_or(res.evaluation_count()) as f64
            })
            .collect();
        let missions: Vec<f64> = first
            .iter()
            .filter_map(|r| r.selection.as_ref().map(|s| s.missions.missions))
            .collect();
        out.check(missions.len() == first.len(), || "a reference job selected no design".into());
        out.set("hv_final", mean(&hv));
        out.set("evals_to_95hv", mean(&evals));
        out.set("missions_mean", mean(&missions));
    }

    /// The untraced run: server boots for `setup_s`, then the closed loop
    /// for `warmup` and a timed window of `seconds`, then the checks.
    pub fn timed(&self, seconds: f64, out: &mut Outcome) {
        // Boots before and after the window, so the median samples the
        // machine across the run.
        let mut setups = Vec::new();
        let boot = |keep: bool, setups: &mut Vec<f64>, out: &mut Outcome| {
            let start = Instant::now();
            match Booted::boot(self.workers) {
                Ok(b) => {
                    setups.push(start.elapsed().as_secs_f64());
                    if keep {
                        return Some(b);
                    }
                    b.shutdown();
                }
                Err(e) => out.check(false, || format!("server boot: {e}")),
            }
            None
        };
        for _ in 1..SETUP_BEFORE {
            boot(false, &mut setups, out);
        }
        let server = boot(true, &mut setups, out);
        let Some(server) = server else { return };

        // Jobs posted inside the window count; the loop then drains them,
        // so the quality jobs always finish.
        let start = Instant::now() + self.warmup;
        let deadline = start + Duration::from_secs_f64(seconds);
        let log = closed_loop(server.addr, &self.stream, false, &|i| {
            i < self.quality_jobs || Instant::now() < deadline
        });
        let elapsed = start.elapsed().as_secs_f64();
        let timed: Vec<&JobRecord> = log.jobs.iter().filter(|j| j.posted >= start).collect();
        // Before the in-process checks, so the peak is the server's own.
        out.set("peak_rss_mb", crate::report::peak_rss_mb());
        server.shutdown();
        for _ in 0..SETUP_AFTER {
            boot(false, &mut setups, out);
        }
        out.set("setup_s", median(&setups));
        Self::account(&log, out);
        let latencies: Vec<f64> = timed.iter().map(|j| j.latency).collect();
        // Throughput counts the jobs completed inside the window, over
        // the time the last of them completed.
        let done: Vec<Instant> = log
            .jobs
            .iter()
            .map(|j| j.completed_at)
            .filter(|&t| start < t && t <= deadline)
            .collect();
        let in_window = done.len();
        let last_end = done.iter().max().map_or(elapsed, |&t| (t - start).as_secs_f64());
        out.set("op_iqm_s", interquartile_mean(&latencies));
        out.set("ops_per_s", in_window.max(1) as f64 / last_end);
        out.note(format!(
            "{} jobs in all; {} posted in the {seconds} s window, drained after {elapsed:.1} s \
             ({in_window} completed inside it); latency median {:.3} s, p90 {:.3} s with {} \
             samples beyond it",
            log.jobs.len(),
            latencies.len(),
            median(&latencies),
            percentile(&latencies, 0.9),
            latencies.len() / 10
        ));
        let refs = self.verify(&log.jobs, out);
        self.quality(&refs, out);
    }

    /// One pass over the first `quality_jobs` jobs on a fresh server;
    /// returns the loop log and its wall time.
    fn pass(&self, traced: bool, out: &mut Outcome) -> Option<(LoopLog, f64)> {
        let server = match Booted::boot(self.workers) {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || format!("server boot: {e}"));
                return None;
            }
        };
        let start = Instant::now();
        let log = closed_loop(server.addr, &self.stream, traced, &|i| i < self.quality_jobs);
        let wall = start.elapsed().as_secs_f64();
        server.shutdown();
        Some((log, wall))
    }

    /// The traced run: the first `quality_jobs` jobs once untraced with
    /// the built-in optimizers and once traced with the timed wrappers,
    /// each on a fresh server.
    pub fn traced(&self, out: &mut Outcome) {
        timed::register();
        obs::trace::force_enabled(false);
        let Some((untraced, wall_untraced)) = self.pass(false, out) else { return };
        obs::reset();
        obs::trace::clear();
        timed::take();
        obs::force_metrics(true);
        obs::trace::force_enabled(true);
        let Some((log, wall)) = self.pass(true, out) else { return };
        obs::trace::force_enabled(false);
        let snap = obs::snapshot();
        let trace = obs::trace::take();
        let totals = timed::take();
        Self::account(&log, out);
        out.check(!trace.is_empty(), || "the traced run recorded no trace events".into());
        out.check(untraced.failures.is_empty(), || {
            format!("untraced pass: {:?}", untraced.failures)
        });

        let fingerprint = |jobs: &[JobRecord]| {
            let mut fp = Fingerprint::default();
            jobs.iter().for_each(|j| fp.bytes(j.summary.as_bytes()));
            fp
        };
        out.check(fingerprint(&log.jobs) == fingerprint(&untraced.jobs), || {
            "traced and untraced RunSummaries differ".into()
        });
        let refs = self.verify(&log.jobs, out);

        out.set("traced_wall_s", wall);
        out.set("obs.trace_overhead_pct", 100.0 * (wall - wall_untraced) / wall_untraced);
        out.set("serve.rejected", log.rejected as f64);
        out.set("serve.jobs", log.jobs.len() as f64);
        let latencies: Vec<f64> = log.jobs.iter().map(|j| j.latency).collect();
        out.set("serve.job_p90_s", percentile(&latencies, 0.9));

        // Job-seconds balance: each job's latency splits into its legs.
        let sum = |f: fn(&JobRecord) -> f64| log.jobs.iter().map(f).sum::<f64>();
        layers::balance(
            out,
            sum(|j| j.latency),
            &[
                ("serve.admit_s", sum(|j| j.admit)),
                ("serve.queue_wait_s", sum(|j| j.queue_wait)),
                ("serve.run_s", sum(|j| j.run)),
                ("serve.result_fetch_s", sum(|j| j.fetch)),
            ],
            ATTRIBUTION_BOUND,
        );

        // Inside the jobs' run legs (summed over both pool workers).
        let spans = layers::span_self_times(&snap);
        let span_sum: f64 = spans.iter().map(|(_, s)| s).sum();
        let (run, eval, tail) =
            (totals.run.as_secs_f64(), totals.eval.as_secs_f64(), totals.tail.as_secs_f64());
        out.set("core.phase1_populate_s", snap.span_total_s("phase1.populate"));
        out.set("core.phase2_run_s", run);
        out.set("core.phase3_select_s", snap.span_total_s("phase3.select"));
        out.set("core.eval_busy_s", eval);
        out.set("core.eval_calls", totals.eval_calls as f64);
        out.set("dse.hv_trace_s", tail);
        let optimizer_self = run - eval - tail - span_sum;
        out.check(optimizer_self >= 0.0, || format!("optimizer self time {optimizer_self} < 0"));
        out.set("dse.optimizer_self_s", optimizer_self);
        for (name, value) in spans {
            out.set(name, value);
        }
        layers::counters(&snap, out);

        let groups: Vec<(autopilot::DssocEvaluator, Vec<autopilot::DesignCandidate>)> = refs
            .values()
            .filter_map(|r| r.as_ref().ok())
            .map(|r| {
                (
                    autopilot::DssocEvaluator::new(r.database.clone(), r.task.density),
                    r.phase2.candidates.clone(),
                )
            })
            .collect();
        let groups: Vec<ReplayGroup<'_>> = groups
            .iter()
            .map(|(evaluator, candidates)| ReplayGroup { evaluator, candidates })
            .collect();
        layers::replay(&groups, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_covers_the_grid_with_a_fixed_mix() {
        let jobs = job_stream(11, 960);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!((j.uav, j.scenario), (i % 3, (i / 3) % 3));
            assert!(j.nsga || SMS_BUDGETS.contains(&j.budget));
        }
        for block in jobs.chunks(48) {
            assert_eq!(block.iter().filter(|j| j.nsga).count(), 3);
        }
        let repeats = jobs
            .iter()
            .enumerate()
            .filter(|(i, j)| jobs[..*i].iter().any(|e| e.problem() == j.problem()))
            .count();
        let share = repeats as f64 / jobs.len() as f64;
        assert!(share > 0.3, "repeat share {share}");
    }
}
