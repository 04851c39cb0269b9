//! The metric schema: every name the benchmark can print, with its unit
//! and direction. Every workload emits every end-to-end metric in an
//! untraced run and every per-layer metric in a traced run, so the
//! output schema never depends on the workload or its seed.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl { name, unit, better: Better::Higher }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["dse-scale", "serve-mix"];

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDecl; 7] = [
    lower("setup_s", "s"),
    lower("op_iqm_s", "s"),
    higher("ops_per_s", "1/s"),
    higher("hv_final", "hv"),
    lower("evals_to_95hv", "count"),
    higher("missions_mean", "missions"),
    lower("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, measured in the separate traced run.
pub const PER_LAYER: [MetricDecl; 37] = [
    lower("traced_wall_s", "s"),
    lower("unattributed_s", "s"),
    lower("obs.trace_overhead_pct", "%"),
    lower("core.phase1_populate_s", "s"),
    lower("core.phase2_run_s", "s"),
    lower("core.phase3_select_s", "s"),
    lower("core.eval_busy_s", "s"),
    lower("core.eval_calls", "count"),
    higher("core.candidate_cache_hit_rate", "ratio"),
    lower("dse.optimizer_self_s", "s"),
    lower("dse.surrogate_update_s", "s"),
    lower("dse.gp_predict_s", "s"),
    lower("dse.panel_assemble_s", "s"),
    lower("dse.hv_score_s", "s"),
    lower("dse.front_sync_s", "s"),
    lower("dse.hv_trace_s", "s"),
    lower("dse.gp_full_refits", "count"),
    lower("dse.gp_rank1_extends", "count"),
    lower("dse.gp_sparse_fits", "count"),
    lower("dse.hv_incremental_scores", "count"),
    lower("nn.model_build_s", "s"),
    lower("systolic.network_sim_s", "s"),
    lower("systolic.memo_sim_s", "s"),
    higher("systolic.memo_hit_rate", "ratio"),
    lower("systolic.layers_simulated", "count"),
    lower("power.evaluate_s", "s"),
    lower("airlearning.success_lookup_s", "s"),
    lower("uav.f1_s", "s"),
    lower("uav.mission_s", "s"),
    higher("shard.cross_run_hits", "count"),
    lower("serve.admit_s", "s"),
    lower("serve.queue_wait_s", "s"),
    lower("serve.run_s", "s"),
    lower("serve.result_fetch_s", "s"),
    lower("serve.rejected", "count"),
    lower("serve.job_p90_s", "s"),
    higher("serve.jobs", "count"),
];

/// The declarations for a run: end-to-end when untraced, per-layer when
/// traced.
pub fn declared(trace: bool) -> &'static [MetricDecl] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopilot_obs::json::Value;

    /// True when `name` is 1..=64 characters of `[A-Za-z0-9_.-]` starting
    /// with a letter or digit.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(root: &Value, key: &str, field: &str) -> Vec<String> {
        root.get(key)
            .and_then(Value::as_arr)
            .expect("array")
            .iter()
            .map(|m| m.get(field).and_then(Value::as_str).expect("string field").to_owned())
            .collect()
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad name {name:?}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate names");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "bad unit {:?}", m.unit);
        }
    }

    #[test]
    fn benchmark_json_matches_the_schema() {
        let root = benchmark_json();
        assert_eq!(names(&root, "workloads", "name"), WORKLOADS);
        for (key, decls) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared = root.get(key).and_then(Value::as_arr).expect("metric list");
            assert_eq!(declared.len(), decls.len(), "{key} length");
            for (m, d) in declared.iter().zip(decls) {
                assert_eq!(m.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
                let better = if d.better == Better::Lower { "lower" } else { "higher" };
                assert_eq!(m.get("better").and_then(Value::as_str), Some(better), "{}", d.name);
            }
        }
        for m in root.get("end_to_end").and_then(Value::as_arr).expect("end_to_end") {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
