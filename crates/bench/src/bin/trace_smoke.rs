//! Tracing smoke check for `scripts/verify.sh`: exercises the per-event
//! trace recorder end-to-end on a small Phase-2 run and then measures
//! that tracing stays cheap.
//!
//! Functional checks (2 worker threads, so cross-thread flow linkage is
//! on the line):
//!
//! * no ring wraparound on a smoke-sized run (`dropped == 0`);
//! * every begin has its end (`unmatched == 0` once the root closes);
//! * every span's ancestry chain reaches a root (`parent == 0`);
//! * at least one span parents across threads (the `par.worker` hop);
//! * the Chrome JSON export round-trips through the in-repo parser.
//!
//! Overhead check: the same workload is timed with tracing off and on;
//! the traced run must stay within a generous multiple of the untraced
//! one — per-event recording is two atomics and a ring write, not a
//! profiler. Exits non-zero on any violation.

use air_sim::{AirLearningDatabase, ObstacleDensity};
use autopilot::{DssocEvaluator, OptimizerChoice, Phase1, Phase2, SuccessModel};
use autopilot_obs as obs;
use std::collections::BTreeMap;
use std::time::Instant;

/// Smoke workload: one warm-started SMS-EGO DSE on two workers, wrapped
/// in a root span so the whole run hangs off one tree.
fn workload(ev: &DssocEvaluator, seed: u64) {
    let _root = obs::span("smoke.root");
    let phase2 = Phase2::new(OptimizerChoice::SmsEgo, 32, seed).with_threads(2);
    phase2.run(ev).expect("phase 2 runs");
}

fn timed(ev: &DssocEvaluator, seed: u64, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for r in 0..reps {
        obs::trace::clear();
        let t = Instant::now();
        workload(ev, seed + r as u64);
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    obs::force_metrics(true);
    let mut db = AirLearningDatabase::new();
    Phase1::new(SuccessModel::Surrogate, 1).populate(ObstacleDensity::Dense, &mut db);
    let ev = DssocEvaluator::new(db, ObstacleDensity::Dense);

    // --- functional pass -------------------------------------------------
    obs::trace::force_enabled(true);
    obs::trace::clear();
    workload(&ev, 7);
    obs::trace::flush_thread();
    let trace = obs::trace::take();
    assert!(!trace.is_empty(), "traced run recorded no events");
    assert_eq!(trace.dropped, 0, "smoke-sized run must not wrap the ring");

    let paired = trace.pair();
    assert_eq!(paired.unmatched_begins, 0, "every begin must have its end");
    assert_eq!(paired.unmatched_ends, 0, "every end must have its begin");
    assert!(!paired.spans.is_empty(), "pairing produced no spans");

    let by_id: BTreeMap<u64, &obs::trace::CompleteSpan> =
        paired.spans.iter().map(|s| (s.id, s)).collect();
    let mut cross_thread = 0usize;
    for span in &paired.spans {
        // Walk to a root; a cycle or a dangling parent id is a recorder bug.
        let mut cur = span;
        let mut hops = 0;
        while cur.parent != 0 {
            cur = by_id
                .get(&cur.parent)
                .unwrap_or_else(|| panic!("span {} has dangling parent {}", cur.id, cur.parent));
            hops += 1;
            assert!(hops <= paired.spans.len(), "parent chain of span {} cycles", span.id);
        }
        if span.parent != 0 && by_id[&span.parent].tid != span.tid {
            cross_thread += 1;
        }
    }
    assert!(
        cross_thread > 0,
        "2-worker run produced no cross-thread parent links (flow adoption broken)"
    );

    let json = trace.to_chrome_json();
    let parsed = obs::trace::parse_chrome_trace(&json).expect("exported trace parses");
    assert_eq!(parsed.spans.len(), paired.spans.len(), "export/parse span count mismatch");
    assert_eq!(parsed.dropped_events, 0);

    // --- overhead pass ---------------------------------------------------
    const REPS: usize = 3;
    obs::trace::force_enabled(false);
    timed(&ev, 100, 1); // warm the allocator and obs registry once
    let off = timed(&ev, 200, REPS);
    obs::trace::force_enabled(true);
    let on = timed(&ev, 200, REPS);
    obs::trace::clear();
    obs::trace::force_enabled(false);

    // Generous bound: catch pathological regressions (a lock or an
    // allocation on the hot path), not scheduler noise.
    let limit = off * 3.0 + 0.010;
    assert!(
        on <= limit,
        "tracing overhead too high: traced {on:.4}s vs untraced {off:.4}s (limit {limit:.4}s)"
    );

    println!(
        "trace smoke OK: {} spans, {} cross-thread links, traced {:.1}ms vs untraced {:.1}ms",
        paired.spans.len(),
        cross_thread,
        on * 1e3,
        off * 1e3
    );
}
