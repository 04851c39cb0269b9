//! The paper exhibits are a function of their inputs alone: stray
//! variables in the caller's environment that name retired engine knobs
//! must not change what a binary prints.

#![allow(clippy::expect_used)]

use std::process::Command;

/// Variables that once set the SWaP mode and the surrogate threshold
/// process-wide, with values that changed `fig5`'s rows when they did.
const RETIRED_KNOBS: [(&str, &str); 2] =
    [("AUTOPILOT_SWAP", "1"), ("AUTOPILOT_GP_SPARSE", "48:16")];

fn fig5_stdout(with_knobs: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig5"));
    for (name, value) in RETIRED_KNOBS {
        if with_knobs {
            cmd.env(name, value);
        } else {
            cmd.env_remove(name);
        }
    }
    let out = cmd.output().expect("fig5 runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 table")
}

#[test]
fn fig5_ignores_retired_engine_knobs() {
    assert_eq!(fig5_stdout(true), fig5_stdout(false));
}
