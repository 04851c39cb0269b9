//! Per-weight-class SWaP frontier sweep.
//!
//! Runs the full pipeline in SWaP-constraint mode
//! ([`SwapMode::Constraint`]) once per regulatory weight class — nano,
//! sub-250 g, micro, mini — each on its default catalog airframe, and
//! reports the feasible Pareto frontier of every class side by side.
//! Alongside the text report, the sweep persists machine-readable
//! artifacts under `results/`:
//!
//! * `frontier_<class>.csv` — one row per frontier design with its
//!   objectives and loaded-airframe SWaP summary (total mass, CG,
//!   static margin, weight class);
//! * `frontiers_swap.json` — the same data as one structured document;
//! * `BENCH_frontiers.json` — flat per-class frontier sizes for the
//!   `budget_gate` floors in `results/BASELINE_budgets.json`.

use air_sim::ObstacleDensity;
use autopilot::{
    AutoPilot, AutopilotConfig, AutopilotResult, JobConfig, OptimizerChoice, SwapMode, TaskSpec,
};
use autopilot_obs::json::Value;
use uav_dynamics::{Airframe, UavSpec, WeightClass};

use crate::TextTable;

/// Phase-2 budget per class run. Random search keeps the sweep cheap
/// while still scattering payloads across the whole design space, so
/// Phase 3's SWaP filter sees (and rejects) genuinely infeasible
/// candidates on the small airframes.
const BUDGET: usize = 96;

/// The four regulatory classes with their default catalog platforms.
///
/// The UAV spec is rebased onto the airframe's component-sum dry mass
/// via [`UavSpec::with_airframe`]; sub-250 has no dedicated Table IV
/// platform, so it flies the micro-UAV spec on the lighter airframe.
pub fn platforms() -> Vec<(WeightClass, UavSpec)> {
    vec![
        (WeightClass::Nano, UavSpec::nano().with_airframe(Airframe::nano())),
        (WeightClass::Sub250, UavSpec::micro().with_airframe(Airframe::sub250())),
        (WeightClass::Micro, UavSpec::micro().with_airframe(Airframe::micro())),
        (WeightClass::Mini, UavSpec::mini().with_airframe(Airframe::mini())),
    ]
}

/// One class's sweep outcome.
struct ClassRun {
    class: WeightClass,
    airframe: Airframe,
    result: AutopilotResult,
}

fn run_class(uav: &UavSpec) -> AutopilotResult {
    let config = AutopilotConfig::paper(super::SEED)
        .with_optimizer(OptimizerChoice::Random)
        .with_budget(BUDGET);
    let pilot = AutoPilot::new(config)
        .with_job_config(JobConfig::default().with_swap(SwapMode::Constraint));
    pilot
        .run(uav, &TaskSpec::navigation(ObstacleDensity::Low))
        .expect("SWaP sweep runs on the default catalog")
}

/// Regenerates the per-weight-class frontier sweep and its artifacts.
pub fn run() -> String {
    let mut out =
        String::from("SWaP frontiers: feasible Pareto designs per regulatory weight class\n\n");
    let mut table = TextTable::new(vec![
        "class",
        "airframe",
        "dry_g",
        "cap_g",
        "frontier",
        "sel_fps",
        "sel_payload_g",
        "sel_total_g",
        "sel_margin",
        "missions",
    ]);

    let runs: Vec<ClassRun> = platforms()
        .into_iter()
        .map(|(class, uav)| {
            let airframe = uav.airframe.clone().expect("platforms carry airframes");
            let result = run_class(&uav);
            ClassRun { class, airframe, result }
        })
        .collect();

    let mut class_docs = Vec::new();
    let mut flat = Vec::new();
    for run in &runs {
        let frontier = feasible_frontier(run);
        write_class_csv(run, &frontier);
        let sel = run.result.selection.as_ref().expect("SWaP sweep selects a design");
        let swap = sel.swap.as_ref().expect("constraint mode reports feasibility");
        table.row(vec![
            run.class.id().to_owned(),
            run.airframe.name().to_owned(),
            format!("{:.0}", run.airframe.total_mass_g()),
            format!("{:.0}", run.class.max_takeoff_g()),
            format!("{}", frontier.len()),
            format!("{:.0}", sel.candidate.fps),
            format!("{:.1}", sel.candidate.payload_g),
            format!("{:.1}", swap.total_mass_g),
            format!("{:.3}", swap.static_margin),
            format!("{:.1}", sel.missions.missions),
        ]);
        class_docs.push(class_json(run, &frontier));
        flat.push((format!("frontier_{}", run.class.id()), frontier.len() as f64));
    }

    let json = Value::Obj(vec![("classes".into(), Value::Arr(class_docs))]).to_json();
    persist("frontiers_swap.json", &json);
    let flat_json =
        Value::Obj(flat.into_iter().map(|(k, v)| (k, Value::Num(v))).collect::<Vec<_>>()).to_json();
    persist("BENCH_frontiers.json", &flat_json);

    out.push_str(&table.render());
    out.push_str(
        "\nfrontier = Phase-2 Pareto designs passing the loaded-airframe SWaP check\n\
         (weight-class takeoff cap and static-margin floor at the design CG)\n",
    );
    out
}

/// Frontier rows for one class: the Pareto candidates that pass the
/// structural SWaP check on that class's airframe.
fn feasible_frontier(run: &ClassRun) -> Vec<FrontierRow> {
    run.result
        .phase2
        .pareto_candidates()
        .into_iter()
        .filter_map(|c| {
            let swap = run.airframe.check_payload(c.payload_g).ok()?;
            swap.feasible().then_some(FrontierRow {
                fps: c.fps,
                payload_g: c.payload_g,
                soc_avg_w: c.soc_avg_w,
                latency_s: c.latency_s,
                success_rate: c.success_rate,
                total_mass_g: swap.total_mass_g,
                static_margin: swap.static_margin,
                loaded_class: swap.weight_class,
            })
        })
        .collect()
}

struct FrontierRow {
    fps: f64,
    payload_g: f64,
    soc_avg_w: f64,
    latency_s: f64,
    success_rate: f64,
    total_mass_g: f64,
    static_margin: f64,
    loaded_class: WeightClass,
}

fn write_class_csv(run: &ClassRun, frontier: &[FrontierRow]) {
    let mut csv = String::from(
        "class,airframe,fps,payload_g,soc_avg_w,latency_s,success_rate,\
         total_mass_g,static_margin,loaded_class\n",
    );
    for r in frontier {
        csv.push_str(&format!(
            "{},{},{:.3},{:.3},{:.4},{:.6},{:.4},{:.3},{:.5},{}\n",
            run.class.id(),
            run.airframe.name(),
            r.fps,
            r.payload_g,
            r.soc_avg_w,
            r.latency_s,
            r.success_rate,
            r.total_mass_g,
            r.static_margin,
            r.loaded_class.id(),
        ));
    }
    persist(&format!("frontier_{}.csv", run.class.id()), &csv);
}

fn class_json(run: &ClassRun, frontier: &[FrontierRow]) -> Value {
    let rows = frontier
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("fps".into(), Value::Num(r.fps)),
                ("payload_g".into(), Value::Num(r.payload_g)),
                ("soc_avg_w".into(), Value::Num(r.soc_avg_w)),
                ("latency_s".into(), Value::Num(r.latency_s)),
                ("success_rate".into(), Value::Num(r.success_rate)),
                ("total_mass_g".into(), Value::Num(r.total_mass_g)),
                ("static_margin".into(), Value::Num(r.static_margin)),
                ("loaded_class".into(), Value::Str(r.loaded_class.id().into())),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("class".into(), Value::Str(run.class.id().into())),
        ("airframe".into(), Value::Str(run.airframe.name().into())),
        ("dry_mass_g".into(), Value::Num(run.airframe.total_mass_g())),
        ("max_takeoff_g".into(), Value::Num(run.class.max_takeoff_g())),
        ("frontier".into(), Value::Arr(rows)),
    ])
}

fn persist(name: &str, content: &str) {
    let path = crate::results_dir().join(name);
    if let Err(e) = std::fs::write(&path, content) {
        autopilot_obs::obs_warn!("warning: could not persist {}: {e}", path.display());
    } else {
        autopilot_obs::obs_info!("[saved {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    // Covered by the cross-crate integration tests; four full SWaP
    // pipelines would dominate unit-test time here.
}
