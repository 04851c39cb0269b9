//! Read-once environment configuration.
//!
//! Process-global env variables (`AUTOPILOT_THREADS`,
//! `AUTOPILOT_GP_SPARSE`, `AUTOPILOT_SWAP`, …) are *startup
//! defaults*: a long-running multi-tenant server must not let one job's
//! environment mutation race another job mid-run. [`env_once`] captures
//! a variable's value at its first read and keeps returning that
//! capture for the life of the process. If a later read observes that
//! the live environment has diverged from the capture, a warn-level obs
//! event fires (once per variable) pointing the caller at the supported
//! per-job override path (`JobConfig`).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

struct Capture {
    value: Option<String>,
    warned: bool,
}

static CAPTURES: OnceLock<Mutex<HashMap<&'static str, Capture>>> = OnceLock::new();

/// Returns `name`'s value as captured at the first call for that
/// variable in this process. Later calls ignore live environment
/// changes (warning once through obs when one is detected) so
/// concurrent jobs can't race on env state.
pub fn env_once(name: &'static str) -> Option<String> {
    let map = CAPTURES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    let live = std::env::var(name).ok();
    let capture = map.entry(name).or_insert_with(|| Capture { value: live.clone(), warned: false });
    if !capture.warned && live != capture.value {
        capture.warned = true;
        crate::obs_warn!(
            "env: {name} changed after startup ({:?} -> {:?}); the startup value stays in \
             effect — use per-job JobConfig overrides instead",
            capture.value,
            live
        );
    }
    capture.value.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_stable_and_repeatable() {
        // The variable is unset in the test environment; both reads must
        // agree and neither may panic.
        assert_eq!(env_once("AUTOPILOT_OBS_TEST_UNSET_VAR"), None);
        assert_eq!(env_once("AUTOPILOT_OBS_TEST_UNSET_VAR"), None);
    }
}
