//! The `serve` binary: the multi-tenant co-design server.
//!
//! ```text
//! serve [ADDR]           # default 127.0.0.1:8641, or AUTOPILOT_SERVE_ADDR
//! ```
//!
//! Worker-pool size comes from `AUTOPILOT_SERVE_WORKERS` (default 2).
//! Every job starts from `JobConfig::default()`, and a request can set
//! its thread count and SWaP mode (`"threads"`, `"swap"`). SIGTERM/SIGINT
//! drain the server gracefully.

use autopilot::JobConfig;
use autopilot_serve::{JobManager, Server};
use std::sync::Arc;

/// Default bind address when neither the CLI argument nor
/// `AUTOPILOT_SERVE_ADDR` is set.
const DEFAULT_ADDR: &str = "127.0.0.1:8641";

/// Admission-queue depth (jobs waiting beyond the running ones).
const MAX_QUEUE: usize = 64;

fn main() {
    let addr = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("AUTOPILOT_SERVE_ADDR").ok())
        .unwrap_or_else(|| DEFAULT_ADDR.to_owned());
    let workers = std::env::var("AUTOPILOT_SERVE_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|w| *w > 0)
        .unwrap_or(2);

    // Jobs see these as defaults and may override them per request.
    let defaults = JobConfig::default();
    let manager = Arc::new(JobManager::new(MAX_QUEUE, defaults));

    let server = match Server::bind(addr.as_str(), manager, workers) {
        Ok(server) => server.with_signal_handlers(),
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(bound) => println!("serve: listening on http://{bound} ({workers} workers)"),
        Err(_) => println!("serve: listening on http://{addr} ({workers} workers)"),
    }
    if let Err(e) = server.run() {
        eprintln!("serve: fatal: {e}");
        std::process::exit(1);
    }
    println!("serve: drained, bye");
}
