//! The HTTP server: accept loop, routing, worker pool, and graceful
//! shutdown.
//!
//! One thread per connection (keep-alive honored; each request, from
//! the wait for its first byte to its last body byte, must arrive
//! within one [`SOCKET_TIMEOUT`]; at most [`MAX_CONNECTIONS`] at once,
//! the next is refused with `503`), a fixed pool of job workers
//! pulling from the [`JobManager`]'s FIFO queue, and a non-blocking
//! accept loop that polls the shutdown flag — set by `POST /shutdown`,
//! by [`Server::shutdown_handle`], or (in the `serve` binary) by
//! SIGTERM/SIGINT via the [`crate::signal`] module.

use crate::http::{self, HttpError, Request, Response};
use crate::jobs::{AdmitError, JobManager, JobState};
use crate::signal;
use autopilot_obs as obs;
use autopilot_obs::json::Value;
use std::io::{self, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline for reading one whole request, head and body, counted
/// from the end of the previous reply (so it also bounds how long an
/// idle keep-alive connection stays open); also the write timeout. A
/// client trickling bytes cannot hold a connection thread past it.
pub const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);
/// Accept-loop poll interval while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Most connection threads alive at once. A connection accepted past
/// the cap gets a `503` with `Connection: close` from the accept loop
/// and counts `serve.http.refused`.
pub const MAX_CONNECTIONS: usize = 64;

/// The co-design HTTP server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    manager: Arc<JobManager>,
    workers: usize,
    shutdown: Arc<AtomicBool>,
    watch_signals: bool,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// prepares a server running jobs on `workers` pool threads.
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        manager: Arc<JobManager>,
        workers: usize,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            manager,
            workers: workers.max(1),
            shutdown: Arc::new(AtomicBool::new(false)),
            watch_signals: false,
        })
    }

    /// The bound address (useful with ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures from the OS.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that stops the accept loop when set (the programmatic
    /// equivalent of SIGTERM).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Installs SIGTERM/SIGINT handlers and makes the accept loop honor
    /// them (the `serve` binary's configuration; tests drive the
    /// [`Server::shutdown_handle`] instead).
    pub fn with_signal_handlers(mut self) -> Server {
        signal::install_handlers();
        self.watch_signals = true;
        self
    }

    fn should_stop(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
            || (self.watch_signals && signal::shutdown_requested())
            || self.manager.is_shutting_down()
    }

    /// Runs the server until shutdown: spawns the worker pool, accepts
    /// connections, then drains gracefully (stop admission, cancel
    /// in-flight jobs cooperatively, join workers and connections).
    ///
    /// # Errors
    ///
    /// Propagates fatal listener failures (per-connection errors are
    /// logged and survived).
    pub fn run(self) -> io::Result<()> {
        // The server is an observability surface: /metrics must carry
        // data regardless of how the process environment gated obs.
        obs::force_metrics(true);
        self.listener.set_nonblocking(true)?;

        let mut workers = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let manager = Arc::clone(&self.manager);
            workers.push(std::thread::Builder::new().name(format!("job-worker-{i}")).spawn(
                move || {
                    while let Some(job) = manager.next_job() {
                        manager.execute(&job);
                    }
                },
            )?);
        }

        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.should_stop() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Reap finished connections so the cap counts live ones.
                    connections.retain(|h| !h.is_finished());
                    if connections.len() >= MAX_CONNECTIONS {
                        refuse_connection(stream);
                        continue;
                    }
                    let manager = Arc::clone(&self.manager);
                    let shutdown = Arc::clone(&self.shutdown);
                    match std::thread::Builder::new()
                        .name("http-conn".into())
                        .spawn(move || handle_connection(stream, &manager, &shutdown))
                    {
                        Ok(handle) => connections.push(handle),
                        Err(e) => obs::obs_warn!("serve: could not spawn connection: {e}"),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => {
                    obs::obs_warn!("serve: accept failed: {e}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }

        // Graceful drain: no new admissions, cancel cooperative work,
        // wake and join the pool, then the connection threads (bounded
        // by the per-connection socket timeout).
        self.manager.shutdown();
        for handle in workers {
            let _ = handle.join();
        }
        for handle in connections {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Refuses a connection past [`MAX_CONNECTIONS`] without blocking the
/// accept loop: the socket stays non-blocking, request bytes that have
/// already arrived are drained (closing over unread data would reset the
/// connection before the client reads the reply), and a `503` with
/// `Connection: close` goes out whether or not a request was read.
fn refuse_connection(mut stream: TcpStream) {
    obs::add("serve.http.refused", 1);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut sink = [0u8; 4096];
    for _ in 0..16 {
        if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
            break;
        }
    }
    let _ = error_response(503, "too many connections").write_to(&mut stream, false);
    let _ = stream.shutdown(Shutdown::Write);
}

/// A socket whose reads all share one deadline: each read's timeout is
/// shrunk to the time left, and a read past the deadline fails with
/// `TimedOut` without touching the socket.
struct DeadlineStream {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Serves one connection: keep-alive request loop, each request read
/// against a fresh [`SOCKET_TIMEOUT`] deadline. One read buffer lives as
/// long as the connection, so bytes of a pipelined next request survive
/// between requests; replies go straight to the socket, which has
/// Nagle's algorithm off.
fn handle_connection(stream: TcpStream, manager: &JobManager, shutdown: &AtomicBool) {
    if stream.set_nonblocking(false).is_err()
        || stream.set_nodelay(true).is_err()
        || stream.set_write_timeout(Some(SOCKET_TIMEOUT)).is_err()
    {
        return;
    }
    let mut reader = BufReader::new(DeadlineStream { stream, deadline: Instant::now() });
    loop {
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        reader.get_mut().deadline = Instant::now() + SOCKET_TIMEOUT;
        let request = http::read_request(&mut reader);
        let stream = &mut reader.get_mut().stream;
        let request = match request {
            Ok(req) => req,
            Err(HttpError::ConnectionClosed) => break,
            Err(HttpError::Io(_)) => break, // timeout or transport loss
            Err(HttpError::HeadTooLarge) => {
                let resp = error_response(431, "request head too large");
                let _ = resp.write_to(stream, false);
                break;
            }
            Err(HttpError::BodyTooLarge) => {
                let resp = error_response(413, "request body too large");
                let _ = resp.write_to(stream, false);
                break;
            }
            Err(HttpError::Malformed(m)) => {
                let resp = error_response(400, &m);
                let _ = resp.write_to(stream, false);
                break;
            }
        };
        let keep_alive = request.keep_alive();
        let started = Instant::now();
        let (endpoint, response) = route(manager, shutdown, &request);
        obs::add("serve.http.requests", 1);
        obs::add(status_class_counter(response.status), 1);
        obs::observe(endpoint_latency_name(endpoint), started.elapsed().as_secs_f64());
        if response.write_to(stream, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
}

/// Stable endpoint labels (also the latency-histogram key suffix).
const ENDPOINTS: &[&str] = &[
    "post_jobs",
    "list_jobs",
    "get_job",
    "get_result",
    "delete_job",
    "metrics",
    "healthz",
    "shutdown",
    "other",
];

fn endpoint_latency_name(endpoint: &str) -> &'static str {
    // Map back to a static name so the hot path never allocates.
    match ENDPOINTS.iter().find(|e| **e == endpoint) {
        Some(&"post_jobs") => "serve.latency.post_jobs",
        Some(&"list_jobs") => "serve.latency.list_jobs",
        Some(&"get_job") => "serve.latency.get_job",
        Some(&"get_result") => "serve.latency.get_result",
        Some(&"delete_job") => "serve.latency.delete_job",
        Some(&"metrics") => "serve.latency.metrics",
        Some(&"healthz") => "serve.latency.healthz",
        Some(&"shutdown") => "serve.latency.shutdown",
        _ => "serve.latency.other",
    }
}

fn status_class_counter(status: u16) -> &'static str {
    match status / 100 {
        2 => "serve.http.2xx",
        4 => "serve.http.4xx",
        5 => "serve.http.5xx",
        _ => "serve.http.other",
    }
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        Value::Obj(vec![("error".into(), Value::Str(message.to_owned()))]).to_json(),
    )
}

/// Routes one request; returns the endpoint label (for latency
/// attribution) and the response.
fn route(
    manager: &JobManager,
    shutdown: &AtomicBool,
    request: &Request,
) -> (&'static str, Response) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => ("post_jobs", submit(manager, &request.body_str())),
        ("GET", ["jobs"]) => ("list_jobs", list(manager)),
        ("GET", ["jobs", id]) => ("get_job", job_status(manager, id)),
        ("GET", ["jobs", id, "result"]) => ("get_result", job_result(manager, id)),
        ("DELETE", ["jobs", id]) => ("delete_job", cancel(manager, id)),
        ("GET", ["metrics"]) => ("metrics", Response::json(200, obs::snapshot().to_json())),
        ("GET", ["healthz"]) => (
            "healthz",
            Response::json(200, Value::Obj(vec![("ok".into(), Value::Bool(true))]).to_json()),
        ),
        ("POST", ["shutdown"]) => {
            shutdown.store(true, Ordering::Relaxed);
            (
                "shutdown",
                Response::json(
                    200,
                    Value::Obj(vec![("shutting_down".into(), Value::Bool(true))]).to_json(),
                ),
            )
        }
        (_, ["jobs", ..]) | (_, ["metrics"]) | (_, ["healthz"]) | (_, ["shutdown"]) => {
            ("other", error_response(405, "method not allowed"))
        }
        _ => ("other", error_response(404, "no such resource")),
    }
}

fn submit(manager: &JobManager, body: &str) -> Response {
    match manager.submit(body) {
        Ok(job) => Response::json(
            202,
            Value::Obj(vec![
                ("id".into(), Value::Num(job.id as f64)),
                ("state".into(), Value::Str(job.state().id().into())),
            ])
            .to_json(),
        ),
        Err(AdmitError::Invalid(message)) => error_response(400, &message),
        Err(AdmitError::QueueFull) => error_response(429, "admission queue is full"),
        Err(AdmitError::ShuttingDown) => error_response(503, "server is shutting down"),
    }
}

fn list(manager: &JobManager) -> Response {
    let jobs: Vec<Value> = manager
        .list()
        .iter()
        .map(|j| {
            Value::Obj(vec![
                ("id".into(), Value::Num(j.id as f64)),
                ("state".into(), Value::Str(j.state().id().into())),
                ("scenario".into(), Value::Str(j.spec.scenario.id().into())),
                ("optimizer".into(), Value::Str(j.spec.optimizer.clone())),
            ])
        })
        .collect();
    Response::json(200, Value::Arr(jobs).to_json())
}

fn parse_id(id: &str) -> Option<u64> {
    id.parse::<u64>().ok()
}

fn job_status(manager: &JobManager, id: &str) -> Response {
    match parse_id(id).and_then(|id| manager.get(id)) {
        Some(job) => Response::json(200, job.status_json()),
        None => error_response(404, "no such job"),
    }
}

fn job_result(manager: &JobManager, id: &str) -> Response {
    let Some(job) = parse_id(id).and_then(|id| manager.get(id)) else {
        return error_response(404, "no such job");
    };
    match job.state() {
        JobState::Completed => match job.result_json() {
            Some(json) => Response::json(200, json),
            None => error_response(500, "completed job lost its result"),
        },
        JobState::Failed => {
            error_response(500, &job.error().unwrap_or_else(|| "job failed".into()))
        }
        JobState::Cancelled => error_response(410, "job was cancelled"),
        JobState::Queued | JobState::Running => {
            let (evaluations, _) = job.progress();
            Response::json(
                409,
                Value::Obj(vec![
                    ("state".into(), Value::Str(job.state().id().into())),
                    ("evaluations".into(), Value::Num(evaluations as f64)),
                ])
                .to_json(),
            )
        }
    }
}

fn cancel(manager: &JobManager, id: &str) -> Response {
    match parse_id(id).and_then(|id| manager.cancel(id)) {
        Some((job, accepted)) => Response::json(
            if accepted { 200 } else { 409 },
            Value::Obj(vec![
                ("id".into(), Value::Num(job.id as f64)),
                ("state".into(), Value::Str(job.state().id().into())),
                ("cancelling".into(), Value::Bool(accepted)),
            ])
            .to_json(),
        ),
        None => error_response(404, "no such job"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::MAX_TERMINAL_JOBS;
    use autopilot::JobConfig;

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn manager() -> JobManager {
        JobManager::new(4, JobConfig::from_env().with_threads(1))
    }

    const VALID: &str = r#"{"uav_class": "nano", "scenario": "low",
                            "budget": 12, "optimizer": "random-search", "seed": 3}"#;

    #[test]
    fn routes_cover_the_api() {
        let mgr = manager();
        let stop = AtomicBool::new(false);
        let (ep, resp) = route(&mgr, &stop, &request("POST", "/jobs", VALID));
        assert_eq!((ep, resp.status), ("post_jobs", 202));
        let (_, resp) = route(&mgr, &stop, &request("GET", "/jobs/1", ""));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"queued\""));
        let (_, resp) = route(&mgr, &stop, &request("GET", "/jobs/1/result", ""));
        assert_eq!(resp.status, 409, "queued job has no result yet");
        let (_, resp) = route(&mgr, &stop, &request("GET", "/jobs/99", ""));
        assert_eq!(resp.status, 404);
        let (_, resp) = route(&mgr, &stop, &request("GET", "/healthz", ""));
        assert_eq!(resp.status, 200);
        let (_, resp) = route(&mgr, &stop, &request("PUT", "/jobs", ""));
        assert_eq!(resp.status, 405);
        let (_, resp) = route(&mgr, &stop, &request("GET", "/teapot", ""));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn bad_submission_is_400_and_full_queue_is_429() {
        let mgr = JobManager::new(1, JobConfig::from_env().with_threads(1));
        let stop = AtomicBool::new(false);
        let (_, resp) = route(&mgr, &stop, &request("POST", "/jobs", "{}"));
        assert_eq!(resp.status, 400);
        let (_, resp) = route(&mgr, &stop, &request("POST", "/jobs", VALID));
        assert_eq!(resp.status, 202);
        let (_, resp) = route(&mgr, &stop, &request("POST", "/jobs", VALID));
        assert_eq!(resp.status, 429);
    }

    #[test]
    fn lifecycle_through_routes() {
        let mgr = manager();
        let stop = AtomicBool::new(false);
        let (_, resp) = route(&mgr, &stop, &request("POST", "/jobs", VALID));
        assert_eq!(resp.status, 202);
        let job = mgr.get(1).unwrap();
        // Execute inline (no pool in unit tests).
        let next = mgr.next_job().unwrap();
        mgr.execute(&next);
        assert_eq!(job.state(), JobState::Completed);
        let (_, resp) = route(&mgr, &stop, &request("GET", "/jobs/1/result", ""));
        assert_eq!(resp.status, 200);
        assert!(autopilot::RunSummary::from_json(&resp.body).is_ok());
        // A second identical submission cancelled while queued.
        let (_, resp) = route(&mgr, &stop, &request("POST", "/jobs", VALID));
        assert_eq!(resp.status, 202);
        let (_, resp) = route(&mgr, &stop, &request("DELETE", "/jobs/2", ""));
        assert_eq!(resp.status, 200);
        let (_, resp) = route(&mgr, &stop, &request("GET", "/jobs/2/result", ""));
        assert_eq!(resp.status, 410);
        let (_, resp) = route(&mgr, &stop, &request("DELETE", "/jobs/2", ""));
        assert_eq!(resp.status, 409, "re-cancelling a terminal job conflicts");
    }

    #[test]
    fn registry_evicts_the_oldest_terminal_jobs_past_the_cap() {
        let mgr = JobManager::new(2 * MAX_TERMINAL_JOBS, JobConfig::from_env().with_threads(1));
        let stop = AtomicBool::new(false);
        // Job 1 stays queued; jobs 2.. are cancelled while queued.
        mgr.submit(VALID).unwrap();
        for _ in 0..MAX_TERMINAL_JOBS + 5 {
            let id = mgr.submit(VALID).unwrap().id;
            let (_, resp) = route(&mgr, &stop, &request("DELETE", &format!("/jobs/{id}"), ""));
            assert_eq!(resp.status, 200);
        }
        assert_eq!(mgr.list().len(), MAX_TERMINAL_JOBS + 1);
        let status = |id: u64| route(&mgr, &stop, &request("GET", &format!("/jobs/{id}"), "")).1;
        assert_eq!(status(1).status, 200, "a queued job is never evicted");
        for id in 2..=6 {
            assert_eq!(status(id).status, 404, "job {id} is among the five oldest terminal");
        }
        assert_eq!(status(7).status, 200);
        assert_eq!(status(MAX_TERMINAL_JOBS as u64 + 6).status, 200);
    }

    #[test]
    fn metrics_round_trip_through_obs_json() {
        obs::force_metrics(true);
        let mgr = manager();
        let stop = AtomicBool::new(false);
        let (_, resp) = route(&mgr, &stop, &request("GET", "/metrics", ""));
        assert_eq!(resp.status, 200);
        let snap = obs::Snapshot::from_json(&resp.body).unwrap();
        assert_eq!(snap.to_json(), obs::Snapshot::from_json(&snap.to_json()).unwrap().to_json());
    }

    #[test]
    fn shutdown_route_sets_the_flag() {
        let mgr = manager();
        let stop = AtomicBool::new(false);
        let (_, resp) = route(&mgr, &stop, &request("POST", "/shutdown", ""));
        assert_eq!(resp.status, 200);
        assert!(stop.load(Ordering::Relaxed));
    }
}
