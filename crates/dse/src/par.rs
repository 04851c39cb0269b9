//! Deterministic parallel map built on scoped threads — zero new
//! dependencies.
//!
//! Workers claim item indices from a shared atomic counter, evaluate
//! `f(index, &item)`, and send `(index, result)` pairs over a channel;
//! the results are reassembled in index order. The output is therefore
//! **bit-identical** to a sequential map regardless of worker count or
//! OS scheduling, which is what lets the DSE optimizers fan out
//! expensive black-box evaluations without perturbing their
//! deterministic trajectories.
//!
//! Within this crate only the samplers' shared evaluation archive fans
//! out: every optimizer hands its batches of design points to the
//! archive, which evaluates them through [`parallel_map_with`] and
//! commits them in batch order. Fan-out is one level deep: everything a
//! worker calls runs inline on that worker's thread.
//!
//! The worker count defaults to [`std::thread::available_parallelism`]
//! and can be overridden with the `AUTOPILOT_THREADS` environment
//! variable (or per-optimizer via their `with_threads` builders).

use autopilot_obs as obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "AUTOPILOT_THREADS";

/// The effective default worker count: `AUTOPILOT_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 when the hardware cannot be queried). An
/// unparsable `AUTOPILOT_THREADS` falls back to the hardware count and
/// emits a warn-level obs event (once per process) so the
/// misconfiguration is visible instead of silently ignored.
///
/// The environment is read **once per process** (via
/// [`obs::env_once`]): this is a startup default, and mutating
/// `AUTOPILOT_THREADS` afterwards only triggers a one-shot obs warning.
/// Per-job thread counts go through the optimizers' `with_threads`
/// builders (plumbed from the core crate's `JobConfig`).
pub fn worker_count() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    // Re-read through env_once on every call so a post-startup env
    // mutation is detected and warned about, while the parsed value
    // stays pinned to the first read.
    let raw = obs::env_once(THREADS_ENV);
    *CACHED.get_or_init(|| match raw {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                warn_bad_threads_env(&v);
                hardware_workers()
            }
        },
        None => hardware_workers(),
    })
}

fn warn_bad_threads_env(value: &str) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        obs::obs_warn!(
            "par: {THREADS_ENV}={value:?} is not a positive integer; using hardware parallelism"
        );
    });
}

fn hardware_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `items` using the default worker count (see
/// [`worker_count`]); results are returned in item order.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(worker_count(), items, f)
}

/// Like [`parallel_map`] with an explicit worker count. A worker count of
/// one (or a single item) runs inline on the calling thread, so the
/// sequential path has zero threading overhead.
///
/// # Panics
///
/// Propagates any panic raised by `f`.
pub fn parallel_map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Per-worker busy time and item counts, collected only when metrics
    // are on (the per-item `Instant` reads are confined to that mode).
    let track = obs::metrics_enabled();
    // Trace flow linkage: workers adopt the caller's innermost live span
    // as their parent, so worker timelines attach to the spawning
    // iteration in the exported trace. Unlinked (zero-cost) when tracing
    // is off.
    let flow = obs::trace::flow_handle();
    let worker_stats: Mutex<Vec<(Duration, u64)>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            let worker_stats = &worker_stats;
            scope.spawn(move || {
                let traced = flow.is_linked();
                {
                    let _flow = obs::trace::adopt(flow);
                    let _worker_span = if traced { Some(obs::span("par.worker")) } else { None };
                    let mut busy = Duration::ZERO;
                    let mut claimed = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let r = if track {
                            let t = Instant::now();
                            let r = f(i, &items[i]);
                            busy += t.elapsed();
                            claimed += 1;
                            r
                        } else {
                            f(i, &items[i])
                        };
                        if tx.send((i, r)).is_err() {
                            break;
                        }
                    }
                    if track {
                        // Stats are advisory; a poisoned lock (another
                        // worker panicked mid-push) must not take down
                        // the fan-out.
                        worker_stats
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push((busy, claimed));
                    }
                }
                if traced {
                    // The scope can return before this thread's exit-time
                    // TLS flush runs; flush now so a take() right after
                    // the map sees every worker event.
                    obs::trace::flush_thread();
                }
            });
        }
    });
    drop(tx);
    if track {
        let stats = worker_stats.into_inner().unwrap_or_else(PoisonError::into_inner);
        record_worker_stats(workers, items.len(), &stats);
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, r) in rx {
        slots[i] = Some(r);
    }
    // Every index in 0..items.len() was claimed by exactly one worker and
    // sent exactly one result before the scope joined, so each slot is
    // filled; an empty slot (impossible today) falls back to evaluating
    // inline rather than panicking the whole map.
    slots.into_iter().enumerate().map(|(i, s)| s.unwrap_or_else(|| f(i, &items[i]))).collect()
}

/// Publishes per-worker busy time and queue imbalance to the obs
/// registry after a tracked parallel map.
fn record_worker_stats(workers: usize, items: usize, stats: &[(Duration, u64)]) {
    obs::add("par.calls", 1);
    obs::add("par.items", items as u64);
    let mut busiest = 0.0f64;
    let mut total = 0.0f64;
    for &(busy, claimed) in stats {
        let s = busy.as_secs_f64();
        obs::observe("par.worker_busy_s", s);
        obs::observe_with(
            "par.worker_items",
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0],
            claimed as f64,
        );
        busiest = busiest.max(s);
        total += s;
    }
    // Imbalance: busiest worker relative to the mean (1.0 = perfectly
    // even). Recorded as a histogram so repeated maps show the spread.
    if workers > 0 && total > 0.0 {
        let mean = total / workers as f64;
        obs::observe_with("par.imbalance", &[1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0], busiest / mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 3, 8, 200] {
            let got = parallel_map_with(workers, &items, |_, &x| x * x + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn passes_item_indices() {
        let items = vec!["a", "b", "c"];
        let got = parallel_map_with(2, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u8> = Vec::new();
        let got: Vec<u8> = parallel_map_with(4, &items, |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn shared_state_is_visible_to_workers() {
        // Workers borrow the environment: summing through an atomic must
        // account for every item exactly once.
        let items: Vec<u64> = (1..=64).collect();
        let total = std::sync::atomic::AtomicU64::new(0);
        let _ = parallel_map_with(4, &items, |_, &x| {
            total.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 64 * 65 / 2);
    }
}
