//! # autopilot-obs
//!
//! Zero-dependency observability substrate for the AutoPilot
//! reproduction: RAII span timers with parent/child nesting, monotonic
//! counters, gauges, fixed-bucket histograms, leveled diagnostic events,
//! and JSON telemetry snapshots — all std-only, so every crate in the
//! workspace can depend on it without pulling anything external.
//!
//! ## Gating
//!
//! Everything is controlled by the `AUTOPILOT_OBS` environment variable:
//!
//! | value                  | metrics | event level |
//! |------------------------|---------|-------------|
//! | *(unset)*              | off     | `Info`      |
//! | `0`, `off`, `false`    | off     | `Warn`      |
//! | `quiet`, `error`       | off     | `Error`     |
//! | `1`, `on`, `true`, `info` | on   | `Info`      |
//! | `debug`                | on      | `Debug`     |
//! | `trace`                | on      | `Trace`     |
//!
//! With metrics off, every recording call is a single relaxed atomic
//! load and an untaken branch — near-zero overhead on the hot paths of
//! the cycle-accurate simulator and the DSE inner loops. Tests and the
//! timing probe can override the environment with [`force_metrics`].
//!
//! Per-event tracing is gated separately by `AUTOPILOT_TRACE` (see the
//! [`trace`] module): when on, every [`span`] additionally records a
//! timestamped begin/end event pair into a thread-local ring buffer
//! that exports Chrome trace-event JSON for Perfetto.
//!
//! ## Model
//!
//! A process-global [`Registry`] owns four kinds of metrics, all keyed
//! by name:
//!
//! * **counters** — monotonic `u64` sums ([`Counter`], [`add`]),
//! * **gauges** — last-written `f64` values ([`gauge_set`]),
//! * **histograms** — fixed upper-bound buckets plus count/sum/min/max
//!   ([`observe`], [`observe_with`]),
//! * **spans** — wall-time statistics per nesting path ([`span`]).
//!
//! Spans nest through a thread-local stack: a span opened while another
//! is live records under `"parent/child"`, so worker threads of
//! `dse_opt::par` keep their own scopes. [`snapshot`] captures the whole
//! registry into a [`Snapshot`] that serializes to JSON via the built-in
//! writer and parses back with [`Snapshot::from_json`] — no external
//! serde machinery, so telemetry round-trips even under the offline
//! build harness that stubs out `serde_json`.
//!
//! ## Example
//!
//! ```
//! use autopilot_obs as obs;
//!
//! obs::force_metrics(true);
//! {
//!     let _outer = obs::span("phase2");
//!     let _inner = obs::span("gp_refit");
//!     obs::add("gp.refits", 1);
//!     obs::observe("iter_s", 0.02);
//! }
//! let snap = obs::snapshot();
//! assert!(snap.counter("gp.refits") >= 1);
//! assert!(snap.span("phase2/gp_refit").is_some());
//! let restored = obs::Snapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(snap.to_json(), restored.to_json());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
mod registry;
mod span;
pub mod trace;

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, SpanSnapshot, CYCLE_BOUNDS,
    RATIO_BOUNDS, SECONDS_BOUNDS,
};
pub use span::{span, time, Span};

/// Environment variable gating metrics collection and event verbosity.
pub const OBS_ENV: &str = "AUTOPILOT_OBS";

/// Diagnostic event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or user-facing failures; always emitted.
    Error = 0,
    /// Suspicious-but-recoverable conditions.
    Warn = 1,
    /// Progress and result notices (the default).
    Info = 2,
    /// Per-step diagnostics.
    Debug = 3,
    /// High-volume inner-loop diagnostics.
    Trace = 4,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        };
        f.write_str(s)
    }
}

// Cached configuration: 0 = uninitialized, 1 = off, 2 = on.
static METRICS: AtomicU8 = AtomicU8::new(0);
// Cached max level + 1 (0 = uninitialized).
static LEVEL: AtomicU8 = AtomicU8::new(0);

fn init_from_env() -> (bool, Level) {
    let raw = std::env::var(OBS_ENV).unwrap_or_default();
    let (metrics, level) = match raw.trim().to_ascii_lowercase().as_str() {
        "" => (false, Level::Info),
        "0" | "off" | "false" => (false, Level::Warn),
        "quiet" | "error" => (false, Level::Error),
        "debug" => (true, Level::Debug),
        "trace" => (true, Level::Trace),
        // "1", "on", "true", "info", and anything unrecognized: metrics
        // on at the default verbosity (an env var set at all is an
        // explicit request for telemetry).
        _ => (true, Level::Info),
    };
    METRICS.store(if metrics { 2 } else { 1 }, Ordering::Relaxed);
    LEVEL.store(level as u8 + 1, Ordering::Relaxed);
    (metrics, level)
}

/// True when metric recording is active. One relaxed atomic load on the
/// fast path; the environment is parsed once, lazily.
#[inline]
pub fn metrics_enabled() -> bool {
    match METRICS.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env().0,
    }
}

/// Overrides the `AUTOPILOT_OBS` metrics gate for this process (tests
/// and the timing probe; the event level is left as configured).
pub fn force_metrics(on: bool) {
    if LEVEL.load(Ordering::Relaxed) == 0 {
        init_from_env();
    }
    METRICS.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The maximum event level currently emitted.
pub fn max_level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => init_from_env().1,
        n => match n - 1 {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        },
    }
}

/// Overrides the event verbosity for this process.
pub fn force_level(level: Level) {
    if METRICS.load(Ordering::Relaxed) == 0 {
        init_from_env();
    }
    LEVEL.store(level as u8 + 1, Ordering::Relaxed);
}

/// Emits a leveled diagnostic event to stderr when `level` is within the
/// configured verbosity. `Error`/`Warn`/`Info` events print bare (they
/// replace ad-hoc `eprintln!` diagnostics without changing their look);
/// `Debug`/`Trace` events are prefixed with `[obs:<level>]`.
pub fn event(level: Level, args: fmt::Arguments<'_>) {
    if level <= max_level() {
        if level >= Level::Debug {
            eprintln!("[obs:{level}] {args}");
        } else {
            eprintln!("{args}");
        }
    }
}

/// Emits an [`Level::Error`] event.
#[macro_export]
macro_rules! obs_error { ($($arg:tt)*) => { $crate::event($crate::Level::Error, format_args!($($arg)*)) } }
/// Emits a [`Level::Warn`] event.
#[macro_export]
macro_rules! obs_warn { ($($arg:tt)*) => { $crate::event($crate::Level::Warn, format_args!($($arg)*)) } }
/// Emits a [`Level::Info`] event.
#[macro_export]
macro_rules! obs_info { ($($arg:tt)*) => { $crate::event($crate::Level::Info, format_args!($($arg)*)) } }
/// Emits a [`Level::Debug`] event.
#[macro_export]
macro_rules! obs_debug { ($($arg:tt)*) => { $crate::event($crate::Level::Debug, format_args!($($arg)*)) } }
/// Emits a [`Level::Trace`] event.
#[macro_export]
macro_rules! obs_trace { ($($arg:tt)*) => { $crate::event($crate::Level::Trace, format_args!($($arg)*)) } }

/// The process-global registry.
pub fn global() -> &'static Registry {
    registry::global()
}

/// Adds `delta` to the named global counter (no-op with metrics off).
///
/// Convenience wrapper that looks the counter up by name; hot call sites
/// should hold a [`Counter`] handle from [`Registry::counter`] instead.
#[inline]
pub fn add(name: &str, delta: u64) {
    if metrics_enabled() {
        global().counter(name).add(delta);
    }
}

/// Sets the named global gauge (no-op with metrics off).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if metrics_enabled() {
        global().gauge(name).set(value);
    }
}

/// Records `value` into the named global histogram with the default
/// seconds-scale buckets (no-op with metrics off).
#[inline]
pub fn observe(name: &str, value: f64) {
    observe_with(name, &SECONDS_BOUNDS, value);
}

/// Records `value` into the named global histogram, creating it with
/// `bounds` on first use (no-op with metrics off). Later calls with
/// different bounds keep the original buckets.
#[inline]
pub fn observe_with(name: &str, bounds: &[f64], value: f64) {
    if metrics_enabled() {
        global().histogram(name, bounds).observe(value);
    }
}

/// Snapshots the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears every metric in the global registry (tests; live handles keep
/// working but detach from the registry).
pub fn reset() {
    global().reset();
}

/// Serializes tests that mutate the process-global gating flags.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Trace);
        assert_eq!(Level::Info.to_string(), "info");
    }

    #[test]
    fn force_metrics_toggles_recording() {
        let _guard = test_guard();
        force_metrics(false);
        add("lib.toggle", 1);
        force_metrics(true);
        add("lib.toggle", 2);
        let snap = snapshot();
        assert_eq!(snap.counter("lib.toggle"), 2);
    }

    #[test]
    fn events_do_not_panic_at_any_level() {
        let _guard = test_guard();
        let before = max_level();
        force_level(Level::Trace);
        obs_error!("e {}", 1);
        obs_warn!("w");
        obs_info!("i");
        obs_debug!("d");
        obs_trace!("t");
        force_level(before);
    }
}
