//! The AutoPilot benchmark: one command per workload that times the
//! co-design stack end to end (or, traced, layer by layer), checks its
//! outputs, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload dse-scale --seed 1 --seconds 40 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod layers;
mod pipeline;
mod report;
mod schema;
mod serve_mix;
mod sweeps;
mod timed;

use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// How far the layer self times of a traced run may sum beyond its wall
/// time (a share of the wall) before the run fails.
pub const ATTRIBUTION_BOUND: f64 = 0.05;

/// How long an untraced run works before its timed window opens, so
/// caches, allocator and page tables are warm when timing starts.
pub const WARMUP: Duration = Duration::from_secs(6);

/// Engine settings the benchmark pins itself. The process environment
/// cannot change them: the benchmark refuses to start when any
/// `AUTOPILOT_*` variable is set.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Pool width of the co-design server and of the in-process reference
    /// checks on serve-mix. The sweeps run on one worker.
    pub workers: usize,
}

impl Knobs {
    fn resolve() -> Knobs {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Knobs { workers: nproc.min(2) }
    }

    /// The effective engine knobs, for the record.
    fn describe(&self) -> String {
        let job = autopilot::JobConfig::from_env();
        format!(
            "knobs: server_workers={} sweep_workers=1 nproc={} surrogate={:?} exp_mode={:?} \
             swap={:?} gp_window={} \
             layer_memo={} panel_workers={}",
            self.workers,
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            job.surrogate.unwrap_or_else(dse_opt::SurrogateMode::from_env),
            job.exp_mode.unwrap_or_else(dse_opt::KernelExpMode::from_env),
            job.swap,
            job.gp_window.map_or("optimizer default".to_owned(), |w| w.to_string()),
            job.layer_memo,
            dse_opt::par::worker_count(),
        )
    }
}

/// The configuration seed of operation `i` of a run with workload seed
/// `seed` (SplitMix64 over the pair).
pub fn op_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !schema::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            schema::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload and returns its outcome (metrics, attempted and
/// failed counts).
fn run(args: &Args, knobs: &Knobs) -> Outcome {
    let mut out = Outcome::default();
    if args.workload == "serve-mix" {
        let workload = serve_mix::ServeMix::new(args.seed, knobs);
        if args.trace {
            workload.traced(&mut out);
        } else {
            workload.timed(args.seconds, &mut out);
        }
    } else if let Some(workload) = sweeps::SweepWorkload::new(&args.workload) {
        if args.trace {
            workload.traced(args.seed, &mut out);
        } else {
            workload.timed(args.seed, args.seconds, &mut out);
        }
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let knob_vars: Vec<String> =
        std::env::vars().map(|(k, _)| k).filter(|k| k.starts_with("AUTOPILOT_")).collect();
    if !knob_vars.is_empty() {
        eprintln!(
            "perfbench: refusing to run with engine knobs set in the environment: {}",
            knob_vars.join(", ")
        );
        return ExitCode::from(2);
    }
    let knobs = Knobs::resolve();
    let mut out = run(&args, &knobs);
    println!("workload={} seed={} trace={}", args.workload, args.seed, u8::from(args.trace));
    println!("{}", knobs.describe());
    for line in &out.notes {
        println!("{line}");
    }
    let line = out.result_json(args.trace);
    for m in schema::declared(args.trace) {
        let value = out.metrics.get(m.name).copied().unwrap_or(f64::NAN);
        let better = if m.better == schema::Better::Lower { "lower" } else { "higher" };
        println!("  {:<32} {value:>14.6} {:<9} ({better} is better)", m.name, m.unit);
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload dse-scale --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: "dse-scale".into(), seed: 3, seconds: 10.0, trace: true });
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload dse-scale --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload dse-scale")).is_err());
    }

    #[test]
    fn op_seeds_depend_on_the_workload_seed() {
        assert_ne!(op_seed(1, 0), op_seed(2, 0));
        assert_ne!(op_seed(1, 0), op_seed(1, 1));
        assert_eq!(op_seed(5, 7), op_seed(5, 7));
    }

    /// Serializes the tests that run workloads: a run reads process-wide
    /// telemetry, which a concurrent run would pollute.
    static RUNS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `workload` at a small scale and returns the metric names of
    /// its result line, failing the test on any failed check.
    fn emitted(workload: &str, seed: u64, trace: bool) -> Vec<String> {
        let _serial = RUNS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let knobs = Knobs { workers: 1 };
        let mut out = Outcome::default();
        if workload == "serve-mix" {
            let mut w = serve_mix::ServeMix::new(seed, &knobs);
            w.quality_jobs = 4;
            w.warmup = Duration::ZERO;
            if trace {
                w.traced(&mut out);
            } else {
                w.timed(0.2, &mut out);
            }
        } else {
            let mut w = sweeps::SweepWorkload::new(workload).expect("a sweep workload");
            w.spec.budget = 16;
            w.min_ops = 1;
            w.traced_ops = 1;
            w.warmup = Duration::ZERO;
            if trace {
                w.traced(seed, &mut out);
            } else {
                w.timed(seed, 0.01, &mut out);
            }
        }
        let line = autopilot_obs::json::Value::parse(&out.result_json(trace)).expect("JSON line");
        assert_eq!(out.failed, 0, "{workload} (trace {trace}): {:?}", out.notes);
        assert!(out.attempted >= 1);
        let metrics = line.get("metrics").and_then(|m| m.as_obj()).expect("metrics object");
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn every_workload_emits_every_declared_metric() {
        for workload in schema::WORKLOADS {
            for trace in [false, true] {
                let names = emitted(workload, 1, trace);
                let declared: Vec<&str> = schema::declared(trace).iter().map(|m| m.name).collect();
                assert_eq!(names, declared, "{workload} (trace {trace})");
            }
        }
    }

    #[test]
    fn the_seed_changes_inputs_but_not_the_schema() {
        let mut w = sweeps::SweepWorkload::new("dse-scale").expect("a sweep workload");
        w.spec.budget = 16;
        {
            let _serial = RUNS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let a = pipeline::run_sweep(&w.spec, op_seed(1, 0)).expect("sweep runs");
            let b = pipeline::run_sweep(&w.spec, op_seed(2, 0)).expect("sweep runs");
            assert_ne!(a.fingerprint(), b.fingerprint());
        }
        assert_ne!(serve_mix::job_stream(1, 64), serve_mix::job_stream(2, 64));
        for trace in [false, true] {
            assert_eq!(emitted("dse-scale", 1, trace), emitted("dse-scale", 2, trace));
        }
    }
}
