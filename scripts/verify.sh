#!/usr/bin/env bash
# Full local verification: formatting, lints, and the workspace test
# suite. This is what CI runs; run it before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> hermeticity gate: offline locked build (no registry, no network)"
# The workspace must build from the committed Cargo.lock with zero
# external crates. This is the first gate so any reintroduced
# third-party dependency fails fast, before lints or tests run.
cargo build --workspace --offline --locked

echo "==> dependency gate: no workspace crate links autopilot-bench"
# autopilot-bench holds the paper exhibits and probes; a crate that
# depends on it through normal dependencies drags all of them into its
# own build, and into perfbench's. Dev-dependencies may still use it.
# `cargo tree -i` prints the crate itself first, then its dependents.
dependents=$(cargo tree --offline -e normal -i autopilot-bench --workspace --prefix none | tail -n +2)
if [ -n "$dependents" ]; then
    echo "autopilot-bench is a normal dependency of:"
    echo "$dependents"
    exit 1
fi

echo "==> environment-read gate: the library reads three variables"
# Configuration enters at the binaries (flags, job fields, JobConfig
# builders). Library code reads only AUTOPILOT_THREADS (par), AUTOPILOT_OBS
# and AUTOPILOT_TRACE (autopilot-obs), none of which changes a result; a
# fourth read fails here. A wildcard pathspec matches whole paths, hence
# the trailing `/*`.
reads=$(git grep -n -e 'env::var' -e 'var_os' -e 'option_env!' -- \
    'crates/*/src/*' ':!crates/*/src/bin/*' || true)
names=$(printf '%s\n' "$reads" | grep -o -e 'THREADS_ENV' -e 'OBS_ENV' -e 'TRACE_ENV' | sort | tr '\n' ' ')
if [ "$(printf '%s\n' "$reads" | wc -l)" -ne 3 ] || [ "$names" != "OBS_ENV THREADS_ENV TRACE_ENV " ]; then
    echo "library environment reads (want exactly THREADS_ENV, OBS_ENV, TRACE_ENV):"
    echo "$reads"
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
# -D warnings also promotes the workspace panic-free lints
# (clippy::unwrap_used / clippy::expect_used, see Cargo.toml) to errors
# for the library crates that opt in; tests/benches are exempt via
# clippy.toml.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (warnings are errors)"
# Public docs must not link private items or carry broken or redundant
# links.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo test"
cargo test -q --workspace

echo "==> perfbench self-tests (the benchmark package against the library API)"
# perfbench is its own package outside the workspace, so the workspace
# build above never compiles it; a library API change that breaks the
# benchmark fails here instead of when the benchmark next runs.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> telemetry smoke (obs_smoke: small experiment + JSON validation)"
# Runs a small two-UAV scenario with metrics forced on, writes
# results/telemetry_obs_smoke.json, parses it back, and asserts the
# snapshot carries non-zero span, cache-counter, and histogram-quantile
# data.
AUTOPILOT_OBS=1 cargo run -q --release -p autopilot-bench --bin obs_smoke

echo "==> tracing smoke (trace_smoke: recorder semantics + overhead bound)"
# Exercises the per-event trace recorder on a 2-worker Phase-2 run:
# begin/end pairing, cross-thread flow linkage, export/parse round-trip,
# and a generous traced-vs-untraced overhead bound.
cargo run -q --release -p autopilot-bench --bin trace_smoke

echo "==> phase-2 counting probe (timing_probe: paper leg + budget-2000 scale leg)"
# One invocation, no environment knobs. The paper leg (budget 200)
# refreshes the tracked results/BENCH_phase2.json and traces its counted
# search into results/trace_timing_probe.json for the flamegraph gate
# below; the untraced scale leg (budget 2000 at the default surrogate
# settings, sparse past 256 points) refreshes the tracked
# results/BENCH_phase2_scale.json. The
# probe asserts its invariants itself (bit-identity across thread counts
# and metrics gating, counter identities); the numeric guards are the
# budget gate's at the end.
cargo run -q --release -p autopilot-bench --bin timing_probe >/dev/null

echo "==> flamegraph gate (trace_report over the probe trace)"
# The phase-2 hot path must still decompose into GP prediction and
# hypervolume scoring under the acquisition span; a missing span means
# the instrumentation (or the pipeline itself) silently changed shape.
cargo run -q --release -p autopilot-bench --bin trace_report -- \
    results/trace_timing_probe.json \
    --require bo.acquisition.gp_predict --require bo.acquisition.hv_score \
    --top 10

echo "==> service smoke (serve_smoke: HTTP server + shared Phase-1 cache)"
# Boots the co-design server on an ephemeral port, runs two concurrent
# same-scenario jobs over real TCP, checks that results are
# bit-identical to the CLI path, that /metrics round-trips, and that a
# later job read the shared Phase-1 database. Writes
# results/telemetry_serve_smoke.json for the budget gate below.
cargo run -q --release -p autopilot-serve --bin serve_smoke

echo "==> SWaP frontier sweep (per-weight-class frontiers + rejection telemetry)"
# Runs the constraint-mode pipeline once per regulatory weight class and
# writes results/frontier_<class>.csv, frontiers_swap.json,
# BENCH_frontiers.json, and telemetry_frontiers.json; the budget gate
# floors the per-class frontier sizes and the phase3.swap.rejected
# counter against them.
AUTOPILOT_OBS=1 cargo run -q --release -p autopilot-bench --bin frontiers >/dev/null

echo "==> perf budget gate (results/BASELINE_budgets.json)"
# Every checked-in budget is evaluated against the freshly generated
# probe/telemetry JSON above; any breach fails with a PASS/FAIL diff.
cargo run -q --release -p autopilot-bench --bin budget_gate

echo "verify: OK"
