//! End-to-end smoke check for `scripts/verify.sh`: boots the co-design
//! server on an ephemeral port, drives it over real TCP, and asserts
//! the service contract:
//!
//! * two concurrent jobs over the same scenario both return valid
//!   `RunSummary` JSON, byte-identical to each other and to the
//!   in-process CLI path at the same seed and [`JobConfig`];
//! * `/metrics` round-trips through `autopilot_obs::json`, and shows a
//!   later job reading the Phase-1 database the first jobs populated;
//! * keep-alive, malformed-request, deeply-nested-body, cancellation,
//!   and shutdown paths all answer with the documented status codes,
//!   and sequential keep-alive exchanges do not stall on Nagle +
//!   delayed ACK;
//! * a job whose optimizer panics ends `failed` without taking down its
//!   worker or the server (the injected panic's message is printed to
//!   stderr);
//! * a connection past [`MAX_CONNECTIONS`] is refused with `503`, and
//!   the server answers again once the held connections close;
//! * a client trickling a request head one byte per second is cut off
//!   at the [`SOCKET_TIMEOUT`] request deadline, while `/healthz` on
//!   another connection answers promptly.
//!
//! Writes `results/telemetry_serve_smoke.json` for the perf budget
//! gate (`counter:pipeline.phase1_cache.hits` and
//! `counter:serve.jobs.completed` floors) and checks
//! that it records the panicked job.

// Smoke binaries assert their way through the contract; unwraps are the
// failure mode, exactly as in #[test] code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use air_sim::ObstacleDensity;
use autopilot::{AutoPilot, AutopilotConfig, JobConfig, OptimizerChoice, RunSummary, TaskSpec};
use autopilot_obs as obs;
use autopilot_obs::json::Value;
use autopilot_serve::http::MAX_BODY_BYTES;
use autopilot_serve::server::{MAX_CONNECTIONS, SOCKET_TIMEOUT};
use autopilot_serve::{JobManager, Server};
use dse_opt::RunControl;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uav_dynamics::UavSpec;

const JOB: &str = r#"{"uav_class": "nano", "scenario": "low",
                      "budget": 12, "optimizer": "random-search", "seed": 3}"#;

/// A job whose optimizer panics (registered as `smoke-panics`).
const PANICKING_JOB: &str = r#"{"uav_class": "nano", "scenario": "low",
                               "budget": 12, "optimizer": "smoke-panics", "seed": 3}"#;

/// An optimizer that panics as soon as it runs, standing in for any bug
/// inside a job's pipeline.
struct Panics;

impl dse_opt::MultiObjectiveOptimizer for Panics {
    fn name(&self) -> &str {
        "smoke-panics"
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

/// One parsed HTTP reply.
struct Reply {
    status: u16,
    body: String,
    /// The reply carried `Connection: close`.
    closes: bool,
}

/// Sends one request on an open connection and reads the reply
/// (keep-alive aware: the body is delimited by `Content-Length`).
fn rpc(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> Reply {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("request written");
    stream.write_all(body.as_bytes()).expect("body written");
    stream.flush().expect("request flushed");
    read_reply(stream)
}

/// Reads one reply whose body is delimited by `Content-Length`.
fn read_reply(stream: &mut TcpStream) -> Reply {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("reply head readable");
        assert!(n > 0, "server closed mid-reply (got {:?})", String::from_utf8_lossy(&raw));
        raw.push(byte[0]);
    }
    let head_text = String::from_utf8_lossy(&raw).into_owned();
    let status: u16 = head_text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code in reply");
    let content_length: usize = head_text
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length in reply");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("reply body readable");
    let closes = head_text.to_ascii_lowercase().contains("\r\nconnection: close\r\n");
    Reply { status, body: String::from_utf8_lossy(&body).into_owned(), closes }
}

/// One-shot request on a fresh connection.
fn one_shot(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("server reachable");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout set");
    rpc(&mut stream, method, path, body)
}

/// Polls a job until it reaches a terminal state; returns the final
/// status JSON.
fn await_terminal(addr: SocketAddr, id: u64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let reply = one_shot(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(reply.status, 200, "status poll failed: {}", reply.body);
        let status = Value::parse(&reply.body).expect("status JSON parses");
        match status.get("state").and_then(Value::as_str) {
            Some("completed" | "failed" | "cancelled") => return status,
            _ => {
                assert!(Instant::now() < deadline, "job {id} never finished: {}", reply.body);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn main() {
    obs::force_metrics(true);
    obs::reset();
    autopilot::register_optimizer("smoke-panics", |_: &autopilot::OptimizerContext| {
        Box::new(Panics)
    });

    // Boot the server on an ephemeral port with the same per-job
    // defaults the bit-identity comparison below uses.
    let defaults = JobConfig::from_env().with_threads(1);
    let manager = Arc::new(JobManager::new(16, defaults));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&manager), 2).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound address");
    let server_thread = std::thread::spawn(move || server.run());

    // Liveness.
    let reply = one_shot(addr, "GET", "/healthz", "");
    assert_eq!(reply.status, 200, "healthz: {}", reply.body);

    // Two concurrent jobs over the same scenario.
    let mut ids = Vec::new();
    for _ in 0..2 {
        let reply = one_shot(addr, "POST", "/jobs", JOB);
        assert_eq!(reply.status, 202, "submit: {}", reply.body);
        let accepted = Value::parse(&reply.body).expect("submit reply parses");
        ids.push(accepted.get("id").and_then(Value::as_u64).expect("job id"));
    }
    let mut results = Vec::new();
    for &id in &ids {
        let status = await_terminal(addr, id);
        assert_eq!(
            status.get("state").and_then(Value::as_str),
            Some("completed"),
            "job {id}: {}",
            status.to_json()
        );
        let reply = one_shot(addr, "GET", &format!("/jobs/{id}/result"), "");
        assert_eq!(reply.status, 200, "result {id}: {}", reply.body);
        let summary = RunSummary::from_json(&reply.body).expect("result is a RunSummary");
        assert_eq!(summary.evaluations, 12, "budget honored");
        results.push(reply.body);
    }
    assert_eq!(results[0], results[1], "same spec, same seed: identical results");

    // Bit-identity with the CLI path at the same seed and JobConfig.
    let config = AutopilotConfig::fast(3).with_budget(12).with_optimizer(OptimizerChoice::Random);
    let via_cli = AutoPilot::new(config)
        .with_job_config(defaults)
        .run(&UavSpec::nano(), &TaskSpec::navigation(ObstacleDensity::Low))
        .map(|r| RunSummary::from_result(&r).to_json().expect("summary serializes"))
        .expect("CLI pipeline runs");
    assert_eq!(results[0], via_cli, "server result must be bit-identical to the CLI path");

    // Keep-alive: requests on one connection. Twenty sequential
    // exchanges on a client socket with default options must not each
    // stall on Nagle + delayed ACK (~40 ms apiece when a reply leaves
    // in two segments).
    {
        let mut stream = TcpStream::connect(addr).expect("server reachable");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout set");
        let started = Instant::now();
        for _ in 0..20 {
            assert_eq!(rpc(&mut stream, "GET", "/healthz", "").status, 200);
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(200),
            "20 keep-alive healthz exchanges took {elapsed:?}: per-reply stall is back"
        );
        let reply = rpc(&mut stream, "GET", "/jobs", "");
        assert_eq!(reply.status, 200);
        let jobs = Value::parse(&reply.body).expect("job list parses");
        assert!(jobs.as_arr().is_some_and(|a| a.len() >= 2), "job list: {}", reply.body);
    }

    // Protocol edges: malformed request, unknown resource, bad method,
    // invalid submission, unknown job.
    {
        let mut stream = TcpStream::connect(addr).expect("server reachable");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout set");
        stream.write_all(b"NOT /a/request HTTP/9.9\r\n\r\n").expect("garbage written");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("reply readable");
        assert!(raw.starts_with("HTTP/1.1 400 "), "malformed request: {raw:?}");
    }
    assert_eq!(one_shot(addr, "GET", "/teapot", "").status, 404);
    assert_eq!(one_shot(addr, "PUT", "/jobs", "").status, 405);
    assert_eq!(one_shot(addr, "POST", "/jobs", "{}").status, 400);
    assert_eq!(one_shot(addr, "GET", "/jobs/999", "").status, 404);
    assert_eq!(one_shot(addr, "DELETE", "/jobs/999", "").status, 404);

    // Adversarial nesting: a body of `[` as large as a request may carry
    // is a 400 from the depth-capped JSON parser, not a stack overflow
    // on the connection thread that aborts the server.
    let nested = "[".repeat(MAX_BODY_BYTES);
    let reply = one_shot(addr, "POST", "/jobs", &nested);
    assert_eq!(reply.status, 400, "deeply nested body: {}", reply.body);
    assert_eq!(one_shot(addr, "GET", "/healthz", "").status, 200, "server survives nesting");

    // Cancellation: DELETE either catches the job before/while it runs
    // (200, state ends cancelled) or loses the race to a fast worker
    // (409, state completed) — both answer the documented codes.
    let reply = one_shot(addr, "POST", "/jobs", JOB);
    assert_eq!(reply.status, 202);
    let third = Value::parse(&reply.body).unwrap().get("id").and_then(Value::as_u64).unwrap();
    let cancel = one_shot(addr, "DELETE", &format!("/jobs/{third}"), "");
    assert!(matches!(cancel.status, 200 | 409), "cancel: {} {}", cancel.status, cancel.body);
    let status = await_terminal(addr, third);
    let state = status.get("state").and_then(Value::as_str).unwrap().to_owned();
    let result = one_shot(addr, "GET", &format!("/jobs/{third}/result"), "");
    match state.as_str() {
        "cancelled" => assert_eq!(result.status, 410, "cancelled result: {}", result.body),
        "completed" => assert_eq!(result.status, 200, "completed result: {}", result.body),
        other => panic!("unexpected terminal state {other}"),
    }

    // Panic isolation: the panicking job fails with the panic's message,
    // and the server and its workers keep serving the next job.
    let reply = one_shot(addr, "POST", "/jobs", PANICKING_JOB);
    assert_eq!(reply.status, 202, "submit panicking job: {}", reply.body);
    let bad = Value::parse(&reply.body).unwrap().get("id").and_then(Value::as_u64).unwrap();
    let status = await_terminal(addr, bad);
    assert_eq!(status.get("state").and_then(Value::as_str), Some("failed"), "{}", status.to_json());
    let error = status.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(error.starts_with("job panicked"), "panicked job error: {error:?}");
    assert_eq!(one_shot(addr, "GET", "/healthz", "").status, 200, "server survives a panic");
    let reply = one_shot(addr, "POST", "/jobs", JOB);
    assert_eq!(reply.status, 202, "submit after panic: {}", reply.body);
    let after = Value::parse(&reply.body).unwrap().get("id").and_then(Value::as_u64).unwrap();
    let status = await_terminal(addr, after);
    assert_eq!(
        status.get("state").and_then(Value::as_str),
        Some("completed"),
        "job after a panic: {}",
        status.to_json()
    );

    // Connection cap: hold the cap's worth of live keep-alive
    // connections, then the next one is refused with a 503 that the
    // server sends unprompted; once the held ones close, it answers again.
    {
        let held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|i| {
                let mut stream = TcpStream::connect(addr).expect("server reachable");
                stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout set");
                assert_eq!(rpc(&mut stream, "GET", "/healthz", "").status, 200, "held #{i}");
                stream
            })
            .collect();
        let mut extra = TcpStream::connect(addr).expect("server reachable");
        extra.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout set");
        let refused = read_reply(&mut extra);
        assert_eq!(refused.status, 503, "connection past the cap: {}", refused.body);
        assert!(refused.closes, "a refusal must close the connection");
        drop(held);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let status = one_shot(addr, "GET", "/healthz", "").status;
            if status == 200 {
                break;
            }
            assert_eq!(status, 503, "healthz after closing the held connections");
            assert!(Instant::now() < deadline, "connection slots never freed");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Slow client: a partial head, then one byte per second. The whole
    // request must arrive within one SOCKET_TIMEOUT, so the server closes
    // the connection at that deadline; meanwhile it keeps answering
    // other connections promptly.
    {
        let limit = SOCKET_TIMEOUT + Duration::from_secs(2);
        let mut slow = TcpStream::connect(addr).expect("server reachable");
        let started = Instant::now();
        slow.set_read_timeout(Some(limit)).expect("read timeout set");
        slow.write_all(b"GET /healthz HTTP/1.1\r\nX-Slow: ").expect("partial head written");
        let mut trickle = slow.try_clone().expect("socket clones");
        std::thread::scope(|scope| {
            // Stops at the limit or once the closed socket refuses bytes.
            scope.spawn(move || {
                while started.elapsed() < limit && trickle.write_all(b"a").is_ok() {
                    std::thread::sleep(Duration::from_secs(1));
                }
            });
            std::thread::sleep(Duration::from_millis(1500));
            let asked = Instant::now();
            assert_eq!(one_shot(addr, "GET", "/healthz", "").status, 200, "healthz beside it");
            let waited = asked.elapsed();
            assert!(waited < Duration::from_secs(1), "healthz beside it took {waited:?}");
            let mut byte = [0u8; 1];
            let closed = match slow.read(&mut byte) {
                Ok(n) => n == 0,
                Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            };
            let elapsed = started.elapsed();
            assert!(closed && elapsed <= limit, "slow client still connected after {elapsed:?}");
        });
    }

    // /metrics must round-trip through the zero-dep JSON layer and
    // carry the service counters. Every job after the first two started
    // once both had completed, so it read their scenario's Phase-1
    // database from the shared cache: at least one hit, whatever order
    // the concurrent pair ran in.
    let reply = one_shot(addr, "GET", "/metrics", "");
    assert_eq!(reply.status, 200);
    let snap = obs::Snapshot::from_json(&reply.body).expect("metrics parse");
    assert_eq!(snap.to_json(), reply.body, "metrics JSON round-trip mismatch");
    assert!(snap.counter("serve.jobs.completed") >= 2, "completed counter missing");
    assert!(snap.counter("serve.http.2xx") > 0, "request counters missing");
    assert!(snap.counter("serve.http.refused") >= 1, "refused-connection counter missing");
    assert!(
        snap.counter("pipeline.phase1_cache.hits") >= 1,
        "a job after the first two missed the shared Phase-1 database"
    );
    assert!(
        snap.histogram("serve.latency.post_jobs").is_some(),
        "per-endpoint latency histogram missing"
    );

    // Graceful shutdown over HTTP, then join the drained server.
    let reply = one_shot(addr, "POST", "/shutdown", "");
    assert_eq!(reply.status, 200, "shutdown: {}", reply.body);
    server_thread.join().expect("server thread joins").expect("server exits cleanly");
    assert!(manager.is_shutting_down(), "manager drained");

    // Persist the snapshot for the perf budget gate.
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/telemetry_serve_smoke.json");
    obs::snapshot().write_json(&path).expect("telemetry written");
    let written = std::fs::read_to_string(&path).expect("telemetry readable");
    let written = obs::Snapshot::from_json(&written).expect("telemetry parses");
    assert!(written.counter("serve.jobs.panicked") >= 1, "telemetry misses the panicked job");
    println!("serve smoke OK: {} (jobs {:?})", path.display(), ids);
}
