//! Metric storage: counters, gauges, histograms, span statistics, and
//! the registry + snapshot machinery tying them together.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Value;

/// Default histogram buckets for wall-clock seconds (1 µs … 1000 s).
pub const SECONDS_BOUNDS: [f64; 10] =
    [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0];

/// Default histogram buckets for cycle counts (100 … 1e9).
pub const CYCLE_BOUNDS: [f64; 8] = [1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];

/// Default histogram buckets for ratios in `[0, 1]` (utilization, hit
/// rates, imbalance).
pub const RATIO_BOUNDS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Handle to a monotonic counter. Cloning shares the underlying cell;
/// `add` is a single atomic RMW, making handles safe for hot paths.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a last-value-wins gauge storing an `f64`.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores `value`.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    bounds: Vec<f64>,
    // One bucket per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// Handle to a fixed-bucket histogram with count/sum/min/max tracking.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        let mut sorted: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: sorted,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }))
    }

    /// Records one observation (non-finite values are dropped).
    pub fn observe(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let inner = &self.0;
        let idx = inner.bounds.partition_point(|&b| b < value);
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&inner.sum_bits, |s| s + value);
        atomic_f64_update(&inner.min_bits, |m| m.min(value));
        atomic_f64_update(&inner.max_bits, |m| m.max(value));
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// CAS loop applying `f` to an f64 stored as bits.
fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(current)).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

#[derive(Debug)]
struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStat {
    fn new() -> SpanStat {
        SpanStat {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// Thread-safe metric registry.
///
/// All lookups go through per-kind mutexed maps; the handles they return
/// ([`Counter`], [`Gauge`], [`Histogram`]) update lock-free. A lookup
/// allocates only when it registers a new name. A global
/// instance backs the crate-level convenience functions; tests can make
/// private registries with [`Registry::new`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, Arc<SpanStat>>>,
}

/// A clone of the entry under `name`, inserting `make()` first if there
/// is none. Only the insert copies `name`, so a lookup of a registered
/// name allocates nothing.
fn lookup<V: Clone>(map: &Mutex<BTreeMap<String, V>>, name: &str, make: impl FnOnce() -> V) -> V {
    let mut map = map.lock().expect("registry lock poisoned");
    if let Some(v) = map.get(name) {
        return v.clone();
    }
    map.entry(name.to_owned()).or_insert_with(make).clone()
}

pub(crate) fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(lookup(&self.counters, name, Arc::default))
    }

    /// The gauge registered under `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(lookup(&self.gauges, name, || Arc::new(AtomicU64::new(0f64.to_bits()))))
    }

    /// The histogram registered under `name`, created with `bounds` on
    /// first use (an existing histogram keeps its original bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        lookup(&self.histograms, name, || Histogram::new(bounds))
    }

    /// Folds `elapsed_ns` into the span statistics for `path`.
    pub fn span_record(&self, path: &str, elapsed_ns: u64) {
        let stat = lookup(&self.spans, path, || Arc::new(SpanStat::new()));
        stat.count.fetch_add(1, Ordering::Relaxed);
        stat.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        stat.min_ns.fetch_min(elapsed_ns, Ordering::Relaxed);
        stat.max_ns.fetch_max(elapsed_ns, Ordering::Relaxed);
    }

    /// Captures every metric into an immutable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, h)| {
                let inner = &h.0;
                let count = inner.count.load(Ordering::Relaxed);
                HistogramSnapshot {
                    name: k.clone(),
                    count,
                    sum: f64::from_bits(inner.sum_bits.load(Ordering::Relaxed)),
                    min: if count > 0 {
                        f64::from_bits(inner.min_bits.load(Ordering::Relaxed))
                    } else {
                        0.0
                    },
                    max: if count > 0 {
                        f64::from_bits(inner.max_bits.load(Ordering::Relaxed))
                    } else {
                        0.0
                    },
                    bounds: inner.bounds.clone(),
                    counts: inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                }
            })
            .collect();
        let spans = self
            .spans
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, s)| {
                let count = s.count.load(Ordering::Relaxed);
                SpanSnapshot {
                    path: k.clone(),
                    count,
                    total_s: s.total_ns.load(Ordering::Relaxed) as f64 * 1e-9,
                    min_s: if count > 0 {
                        s.min_ns.load(Ordering::Relaxed) as f64 * 1e-9
                    } else {
                        0.0
                    },
                    max_s: s.max_ns.load(Ordering::Relaxed) as f64 * 1e-9,
                }
            })
            .collect();
        Snapshot { version: 1, counters, gauges, histograms, spans }
    }

    /// Removes every registered metric. Handles created earlier keep
    /// working but are no longer reachable through the registry.
    pub fn reset(&self) {
        self.counters.lock().expect("registry lock poisoned").clear();
        self.gauges.lock().expect("registry lock poisoned").clear();
        self.histograms.lock().expect("registry lock poisoned").clear();
        self.spans.lock().expect("registry lock poisoned").clear();
    }
}

/// Point-in-time capture of a [`Registry`], ready for JSON export.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Schema version (currently 1).
    pub version: u64,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span statistics, sorted by path.
    pub spans: Vec<SpanSnapshot>,
}

/// One histogram in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Bucket upper bounds; `counts` has one extra overflow bucket.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the fixed bucket
    /// counts, Prometheus-style: find the bucket where the cumulative
    /// count reaches `q * count`, then interpolate linearly inside it.
    /// The estimate is clamped to the observed `[min, max]`, so exact
    /// extremes never widen and single-bucket histograms stay sane.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.counts.is_empty() {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cumulative + c;
            if (next as f64) >= rank {
                // Interpolate inside bucket i: its value range is
                // (lower, upper] where lower is the previous bound (or
                // the observed min for the first bucket) and upper is
                // bounds[i] (or the observed max for the overflow
                // bucket).
                let lower = if i == 0 { self.min } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() { self.bounds[i] } else { self.max };
                let fraction = (rank - cumulative as f64) / c as f64;
                let estimate = lower + (upper - lower).max(0.0) * fraction;
                return estimate.clamp(self.min, self.max);
            }
            cumulative = next;
        }
        self.max
    }
}

/// One span path in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// `/`-joined nesting path (e.g. `"pipeline.run/phase2.run"`).
    pub path: String,
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total wall time, seconds.
    pub total_s: f64,
    /// Shortest span, seconds (0 when empty).
    pub min_s: f64,
    /// Longest span, seconds.
    pub max_s: f64,
}

impl Snapshot {
    /// The value of a counter, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// The value of a gauge, when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The named histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The span statistics for an exact path, when present.
    pub fn span(&self, path: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Sum of `total_s` over every span whose path ends with `name`
    /// (aggregates one logical span across different nesting parents).
    pub fn span_total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.path == name || s.path.ends_with(&format!("/{name}")))
            .map(|s| s.total_s)
            .sum()
    }

    /// Renders the snapshot as pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }

    fn to_value(&self) -> Value {
        let counters =
            self.counters.iter().map(|(k, v)| (k.clone(), Value::Num(*v as f64))).collect();
        let gauges = self.gauges.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(h.name.clone())),
                    ("count".into(), Value::Num(h.count as f64)),
                    ("sum".into(), Value::Num(h.sum)),
                    ("min".into(), Value::Num(h.min)),
                    ("max".into(), Value::Num(h.max)),
                    ("p50".into(), Value::Num(h.quantile(0.50))),
                    ("p95".into(), Value::Num(h.quantile(0.95))),
                    ("p99".into(), Value::Num(h.quantile(0.99))),
                    (
                        "bounds".into(),
                        Value::Arr(h.bounds.iter().map(|&b| Value::Num(b)).collect()),
                    ),
                    (
                        "counts".into(),
                        Value::Arr(h.counts.iter().map(|&c| Value::Num(c as f64)).collect()),
                    ),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("path".into(), Value::Str(s.path.clone())),
                    ("count".into(), Value::Num(s.count as f64)),
                    ("total_s".into(), Value::Num(s.total_s)),
                    ("min_s".into(), Value::Num(s.min_s)),
                    ("max_s".into(), Value::Num(s.max_s)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("version".into(), Value::Num(self.version as f64)),
            ("counters".into(), Value::Obj(counters)),
            ("gauges".into(), Value::Obj(gauges)),
            ("histograms".into(), Value::Arr(histograms)),
            ("spans".into(), Value::Arr(spans)),
        ])
    }

    /// Parses a snapshot back from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed or missing field.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        let version = v
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| "missing 'version'".to_owned())?;
        let counters = v
            .get("counters")
            .and_then(Value::as_obj)
            .ok_or_else(|| "missing 'counters'".to_owned())?
            .iter()
            .map(|(k, n)| {
                n.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("counter '{k}' is not an integer"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let gauges = v
            .get("gauges")
            .and_then(Value::as_obj)
            .ok_or_else(|| "missing 'gauges'".to_owned())?
            .iter()
            .map(|(k, n)| {
                n.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("gauge '{k}' is not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let histograms = v
            .get("histograms")
            .and_then(Value::as_arr)
            .ok_or_else(|| "missing 'histograms'".to_owned())?
            .iter()
            .map(parse_histogram)
            .collect::<Result<Vec<_>, _>>()?;
        let spans = v
            .get("spans")
            .and_then(Value::as_arr)
            .ok_or_else(|| "missing 'spans'".to_owned())?
            .iter()
            .map(parse_span)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Snapshot { version, counters, gauges, histograms, spans })
    }

    /// Writes the snapshot as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

fn parse_histogram(v: &Value) -> Result<HistogramSnapshot, String> {
    let field = |name: &str| v.get(name).ok_or_else(|| format!("histogram missing '{name}'"));
    let num = |name: &str| field(name)?.as_f64().ok_or_else(|| format!("bad '{name}'"));
    Ok(HistogramSnapshot {
        name: field("name")?.as_str().ok_or("bad 'name'")?.to_owned(),
        count: field("count")?.as_u64().ok_or("bad 'count'")?,
        sum: num("sum")?,
        min: num("min")?,
        max: num("max")?,
        bounds: field("bounds")?
            .as_arr()
            .ok_or("bad 'bounds'")?
            .iter()
            .map(|b| b.as_f64().ok_or_else(|| "bad bound".to_owned()))
            .collect::<Result<_, _>>()?,
        counts: field("counts")?
            .as_arr()
            .ok_or("bad 'counts'")?
            .iter()
            .map(|c| c.as_u64().ok_or_else(|| "bad bucket count".to_owned()))
            .collect::<Result<_, _>>()?,
    })
}

fn parse_span(v: &Value) -> Result<SpanSnapshot, String> {
    let field = |name: &str| v.get(name).ok_or_else(|| format!("span missing '{name}'"));
    let num = |name: &str| field(name)?.as_f64().ok_or_else(|| format!("bad '{name}'"));
    Ok(SpanSnapshot {
        path: field("path")?.as_str().ok_or("bad 'path'")?.to_owned(),
        count: field("count")?.as_u64().ok_or("bad 'count'")?,
        total_s: num("total_s")?,
        min_s: num("min_s")?,
        max_s: num("max_s")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("c");
        c.add(3);
        r.counter("c").incr();
        assert_eq!(c.get(), 4);
        r.gauge("g").set(2.5);
        assert_eq!(r.gauge("g").get(), 2.5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), 4);
        assert_eq!(snap.gauge("g"), Some(2.5));
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_and_extremes() {
        let r = Registry::new();
        let h = r.histogram("h", &[1.0, 10.0]);
        for v in [0.5, 0.7, 5.0, 50.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // dropped
        let snap = r.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 50.0);
        assert!((h.sum - 56.2).abs() < 1e-12);
    }

    #[test]
    fn bucket_bounds_are_inclusive_upper() {
        let r = Registry::new();
        let h = r.histogram("h", &[1.0, 10.0]);
        h.observe(1.0);
        h.observe(10.0);
        let snap = r.snapshot();
        assert_eq!(snap.histogram("h").unwrap().counts, vec![1, 1, 0]);
    }

    #[test]
    fn histogram_keeps_first_bounds() {
        let r = Registry::new();
        r.histogram("h", &[1.0]);
        let h = r.histogram("h", &[5.0, 6.0]);
        h.observe(0.5);
        assert_eq!(r.snapshot().histogram("h").unwrap().bounds, vec![1.0]);
    }

    #[test]
    fn quantiles_interpolate_and_stay_within_extremes() {
        let r = Registry::new();
        let h = r.histogram("q", &[1.0, 10.0, 100.0]);
        for v in [0.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 500.0] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let h = snap.histogram("q").unwrap();
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        // Monotone, inside the observed range, and the median lands in
        // the (1, 10] bucket that holds ranks 2..=9.
        assert!(h.min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= h.max);
        assert!(p50 > 1.0 && p50 <= 10.0, "p50 = {p50}");
        // Rank 10 of 10 lives in the overflow bucket; clamped to max.
        assert!(p99 > 10.0, "p99 = {p99}");
        assert_eq!(h.quantile(1.0), h.max);
        // The JSON rendering carries the derived quantiles.
        let text = snap.to_json();
        for key in ["\"p50\"", "\"p95\"", "\"p99\""] {
            assert!(text.contains(key), "missing {key}");
        }
    }

    #[test]
    fn quantiles_of_empty_and_single_value_histograms() {
        let r = Registry::new();
        r.histogram("empty", &[1.0]);
        let h = r.histogram("one", &[1.0]);
        h.observe(0.25);
        let snap = r.snapshot();
        assert_eq!(snap.histogram("empty").unwrap().quantile(0.5), 0.0);
        let one = snap.histogram("one").unwrap();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 0.25);
        }
    }

    #[test]
    fn span_stats_fold_min_max() {
        let r = Registry::new();
        r.span_record("a/b", 100);
        r.span_record("a/b", 300);
        let snap = r.snapshot();
        let s = snap.span("a/b").unwrap();
        assert_eq!(s.count, 2);
        assert!((s.total_s - 400e-9).abs() < 1e-15);
        assert!((s.min_s - 100e-9).abs() < 1e-15);
        assert!((s.max_s - 300e-9).abs() < 1e-15);
        assert!(snap.span_total_s("b") > 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("phase2.hits").add(7);
        r.gauge("hv").set(0.875);
        r.histogram("lat", &[1e-3, 1e-2]).observe(0.004);
        r.span_record("pipeline.run/phase2.run", 1_500_000);
        let snap = r.snapshot();
        let restored = Snapshot::from_json(&snap.to_json()).expect("parse");
        assert_eq!(snap, restored);
        assert_eq!(snap.to_json(), restored.to_json());
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(Snapshot::from_json("{").is_err());
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json(r#"{"version": 1}"#).is_err());
    }

    #[test]
    fn reset_clears_metrics() {
        let r = Registry::new();
        r.counter("x").incr();
        r.reset();
        assert_eq!(r.snapshot().counter("x"), 0);
    }

    #[test]
    fn concurrent_counter_updates_are_lossless() {
        let r = Registry::new();
        let c = r.counter("n");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
