//! # autopilot-serve
//!
//! DSE-as-a-service: a long-running, multi-tenant co-design server in
//! front of the three-phase AutoPilot flow. Zero external
//! dependencies: HTTP/1.1 on std [`std::net::TcpListener`], JSON via
//! `autopilot_obs::json`, jobs on a bounded FIFO worker pool whose
//! inner evaluation fan-out rides `dse_opt::par`, and one
//! process-lifetime cache of Phase-1 scenario databases that every job
//! reads.
//!
//! ## API surface
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /jobs` | submit `{uav_class, scenario, budget, optimizer, ...}` → `202` |
//! | `GET /jobs` | list all jobs |
//! | `GET /jobs/:id` | status + progress (evaluations, front size) |
//! | `GET /jobs/:id/result` | `RunSummary` JSON once completed |
//! | `DELETE /jobs/:id` | cooperative cancellation |
//! | `GET /metrics` | obs snapshot (counters + latency histograms) |
//! | `GET /healthz` | liveness probe |
//! | `POST /shutdown` | graceful drain |

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod http;
pub mod jobs;
pub mod server;
pub mod signal;

pub use jobs::{AdmitError, Job, JobManager, JobSpec, JobState};
pub use server::Server;
