//! # autopilot-shard
//!
//! Empty. The stack's one cross-run cache, `autopilot::PipelineCache`,
//! keeps its own map, and nothing uses this crate any more. It is kept,
//! with the `[dependencies]` entries that name it, only so that the
//! benchmark package's `perfbench/Cargo.lock` still resolves under
//! `--locked`; it goes when that lock file may change.
