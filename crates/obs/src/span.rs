//! RAII span timers with per-thread nesting.
//!
//! A [`Span`] opened while another span is live on the same thread
//! records under the parent's path joined with `/`, so one metric name
//! yields distinct statistics per call context (e.g. `"phase2.run"`
//! nested inside `"pipeline.run"` records as
//! `"pipeline.run/phase2.run"`). Each thread keeps its own stack, which
//! is what makes spans safe inside `dse_opt::par` worker closures: a
//! worker's spans root at the worker, never at whatever the main thread
//! happened to be timing.
//!
//! The thread's live path is one reusable `String`: a span appends
//! `/name` when it opens and truncates it back when it closes, so once
//! the deepest path has been seen (and its name registered) a span
//! allocates nothing. Spans on one thread close in reverse order of
//! opening, as RAII guards do.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

use crate::metrics_enabled;

thread_local! {
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// A live span; records its wall time into the global registry when
/// dropped, and a begin/end event pair into the trace ring when tracing
/// is on. Not `Send` — a span must end on the thread that opened it.
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    /// The thread's path length before this span appended its name.
    parent_len: usize,
    name: &'static str,
    traced: bool,
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name`. With both metrics and tracing off this
/// returns an inert guard and records nothing (two relaxed atomic loads
/// and untaken branches).
pub fn span(name: &'static str) -> Span {
    let traced = crate::trace::begin(name);
    if !metrics_enabled() {
        return Span { start: None, parent_len: 0, name, traced, _not_send: PhantomData };
    }
    let parent_len = PATH.with(|path| {
        let mut path = path.borrow_mut();
        let len = path.len();
        if len > 0 {
            path.push('/');
        }
        path.push_str(name);
        len
    });
    Span { start: Some(Instant::now()), parent_len, name, traced, _not_send: PhantomData }
}

/// Times `f` under a span named `name`.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = span(name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.traced {
            crate::trace::end(self.name);
        }
        let Some(start) = self.start else { return };
        let elapsed_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        PATH.with(|path| {
            let mut path = path.borrow_mut();
            crate::global().span_record(&path, elapsed_ns);
            path.truncate(self.parent_len);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{force_metrics, test_guard};

    #[test]
    fn nested_spans_record_full_paths() {
        let _guard = test_guard();
        force_metrics(true);
        {
            let _a = span("span_outer");
            let _b = span("span_inner");
        }
        let snap = crate::snapshot();
        let inner = snap.span("span_outer/span_inner").expect("nested path");
        assert_eq!(inner.count, 1);
        assert!(inner.min_s <= inner.max_s);
        assert!(snap.span("span_outer").is_some());
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = test_guard();
        force_metrics(false);
        {
            let _a = span("span_disabled");
        }
        force_metrics(true);
        assert!(crate::snapshot().span("span_disabled").is_none());
    }

    #[test]
    fn time_returns_the_closure_value() {
        let _guard = test_guard();
        force_metrics(true);
        let v = time("span_timed", || 41 + 1);
        assert_eq!(v, 42);
        assert!(crate::snapshot().span_total_s("span_timed") >= 0.0);
    }

    #[test]
    fn sibling_threads_have_independent_stacks() {
        let _guard = test_guard();
        force_metrics(true);
        let _outer = span("span_main_parent");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _w = span("span_worker");
            });
        });
        let snap = crate::snapshot();
        // The worker span must not inherit the main thread's parent.
        assert!(snap.span("span_worker").is_some());
        assert!(snap.span("span_main_parent/span_worker").is_none());
    }
}
