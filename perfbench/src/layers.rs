//! Per-layer attribution for traced runs: self times of the program's
//! own spans, its counters, replays of single-layer public functions
//! over the recorded Phase-2 inputs, and the wall-time balance.

use crate::report::Outcome;
use autopilot::{DesignCandidate, DssocEvaluator, Phase3, TaskSpec};
use autopilot_obs::Snapshot;
use policy_nn::PolicyModel;
use soc_power::SocPowerModel;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};
use systolic_sim::{LayerMemo, Simulator};
use uav_dynamics::{F1Model, UavSpec};

/// The program's Phase-2 spans that are layers of their own, and the
/// metric each one's self time lands in. A layer span nested inside
/// another (panel assembly inside a GP fit or predict) is subtracted
/// from its nearest layer ancestor, so the self times are disjoint.
const SPAN_LAYERS: [(&str, &str); 5] = [
    ("bo.surrogate_update", "dse.surrogate_update_s"),
    ("bo.acquisition.gp_predict", "dse.gp_predict_s"),
    ("bo.acquisition.hv_score", "dse.hv_score_s"),
    ("bo.acquisition.front_sync", "dse.front_sync_s"),
    ("bo.gp.panel.assemble", "dse.panel_assemble_s"),
];

/// Self time of each layer span, in [`SPAN_LAYERS`] order.
pub fn span_self_times(snap: &Snapshot) -> Vec<(&'static str, f64)> {
    let index = |name: &str| SPAN_LAYERS.iter().position(|(span, _)| *span == name);
    let mut self_s = [0.0f64; SPAN_LAYERS.len()];
    for span in &snap.spans {
        let parts: Vec<&str> = span.path.split('/').collect();
        let Some((last, ancestors)) = parts.split_last() else { continue };
        let Some(i) = index(last) else { continue };
        self_s[i] += span.total_s;
        if let Some(parent) = ancestors.iter().rev().find_map(|a| index(a)) {
            self_s[parent] -= span.total_s;
        }
    }
    SPAN_LAYERS.iter().zip(self_s).map(|((_, metric), s)| (*metric, s)).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Layer counts the program records itself.
pub fn counters(snap: &Snapshot, out: &mut Outcome) {
    let c = |name: &str| snap.counter(name);
    out.set("dse.gp_full_refits", c("dse.gp.full_refit") as f64);
    out.set("dse.gp_rank1_extends", c("dse.gp.rank1_extend") as f64);
    out.set("dse.gp_sparse_fits", c("bo.gp.sparse.fit") as f64);
    out.set("dse.hv_incremental_scores", c("bo.hv.incremental") as f64);
    let (hits, misses) = (c("systolic.memo.hits"), c("systolic.memo.misses"));
    out.set("systolic.memo_hit_rate", ratio(hits, hits + misses));
    out.set("systolic.layers_simulated", misses as f64);
    let (hits, misses) = (c("phase2.candidate_cache.hits"), c("phase2.candidate_cache.misses"));
    out.set("core.candidate_cache_hit_rate", ratio(hits, hits + misses));
    out.set(
        "shard.cross_run_hits",
        (c("systolic.memo.cross_run_hits") + c("phase2.candidate_cache.cross_run_hits")) as f64,
    );
}

/// One scenario's worth of Phase-2 inputs to replay.
pub struct ReplayGroup<'a> {
    pub evaluator: &'a DssocEvaluator,
    pub candidates: &'a [DesignCandidate],
}

/// Replays single-layer public functions over every distinct candidate
/// Phase 2 evaluated, in evaluation order, and times each layer: policy
/// model construction, the systolic cycle model without and with a
/// fresh layer memo per group, the SoC power model, the success lookup,
/// and for every Table-IV UAV the F-1 model and the full mission report.
/// Replays run outside the traced wall time; they split the evaluator's
/// busy time into layers and are not part of the wall-time balance.
pub fn replay(groups: &[ReplayGroup<'_>], out: &mut Outcome) {
    let mut t = [Duration::ZERO; 7];
    let uavs = UavSpec::all();
    for group in groups {
        let mut seen = HashSet::new();
        let distinct: Vec<&DesignCandidate> =
            group.candidates.iter().filter(|c| seen.insert(c.point.clone())).collect();
        let timed = |slot: &mut Duration, f: &mut dyn FnMut()| {
            let start = Instant::now();
            f();
            *slot += start.elapsed();
        };
        let mut models = Vec::with_capacity(distinct.len());
        timed(&mut t[0], &mut || {
            models = distinct.iter().map(|c| black_box(PolicyModel::build(c.policy))).collect();
        });
        let mut stats = Vec::with_capacity(distinct.len());
        timed(&mut t[1], &mut || {
            stats = distinct
                .iter()
                .zip(&models)
                .map(|(c, m)| {
                    black_box(Simulator::new(c.config.clone()).simulate_network(m.layers()))
                })
                .collect();
        });
        let memo = LayerMemo::with_enabled(true);
        timed(&mut t[2], &mut || {
            for (c, m) in distinct.iter().zip(&models) {
                black_box(memo.simulate_network(&Simulator::new(c.config.clone()), m.layers()));
            }
        });
        let power = SocPowerModel::new();
        timed(&mut t[3], &mut || {
            for (c, s) in distinct.iter().zip(&stats) {
                black_box(power.evaluate(&c.config, s));
            }
        });
        timed(&mut t[4], &mut || {
            for c in &distinct {
                black_box(group.evaluator.success_rate(c.policy));
            }
        });
        let task = TaskSpec::navigation(group.evaluator.density());
        for uav in &uavs {
            timed(&mut t[5], &mut || {
                for c in &distinct {
                    let f1 = F1Model::new(uav.clone(), c.payload_g, task.sensor_fps);
                    black_box(f1.map(|f| f.safe_velocity(c.fps)).ok());
                }
            });
            timed(&mut t[6], &mut || {
                for c in &distinct {
                    black_box(Phase3::mission_report(uav, &task, c).ok());
                }
            });
        }
    }
    let names = [
        "nn.model_build_s",
        "systolic.network_sim_s",
        "systolic.memo_sim_s",
        "power.evaluate_s",
        "airlearning.success_lookup_s",
        "uav.f1_s",
        "uav.mission_s",
    ];
    for (name, d) in names.into_iter().zip(t) {
        out.set(name, d.as_secs_f64());
    }
}

/// Sets every part of the wall-time balance and `unattributed_s`, and
/// checks it: no self time may be negative, and the parts may exceed the
/// wall by at most `bound` of it.
pub fn balance(out: &mut Outcome, wall: f64, parts: &[(&'static str, f64)], bound: f64) {
    let mut sum = 0.0;
    for &(name, value) in parts {
        out.set(name, value);
        out.check(value >= 0.0, || format!("self time {name} is negative ({value})"));
        sum += value;
    }
    out.check(sum <= wall * (1.0 + bound), || {
        format!("layer self times sum to {sum:.4} s, more than the wall {wall:.4} s allows")
    });
    out.set("unattributed_s", wall - sum);
    out.note(format!(
        "wall {wall:.4} s = {sum:.4} s in {} layers + {:.4} s unattributed",
        parts.len(),
        wall - sum
    ));
}
