//! The SWaP-constraint knob: whether Phase 2/3 treat compute weight as
//! a first-class airframe feasibility constraint. A job sets it with
//! [`JobConfig::with_swap`](crate::JobConfig::with_swap); the CLI's
//! `--swap` flag and the server's `"swap"` job field parse it with
//! [`SwapMode::parse`].

/// Whether the pipeline enforces component-level SWaP feasibility.
///
/// In [`SwapMode::Off`] (the default) the payload is the legacy scalar
/// weight and results are bit-identical to the pre-airframe pipeline.
/// In [`SwapMode::Constraint`], Phase 2 applies a death penalty to
/// candidates whose compute payload violates the airframe's weight-class
/// cap or static-stability margin (their objectives are replaced by the
/// reference point, so they never enter the Pareto front), and Phase 3
/// filters the eligible set through the full CG/stability/lift
/// feasibility check before knee-point selection.
///
/// Weight stays a *constraint* rather than a fourth objective: the
/// hypervolume machinery (and the SMS-EGO contribution scorer built on
/// it) is specified for at most three objectives, and a death penalty
/// preserves determinism and cache-shareability of the evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwapMode {
    /// Legacy scalar-payload mode; bit-identical to the pre-airframe
    /// pipeline.
    #[default]
    Off,
    /// Weight/CG/stability enforced as an explicit Phase-2 constraint
    /// and Phase-3 feasibility filter.
    Constraint,
}

impl SwapMode {
    /// Parses a mode name, as given to the CLI's `--swap` flag or a
    /// server job's `"swap"` field, case-insensitively: `off`, `0`,
    /// `false` or empty for [`SwapMode::Off`]; `constraint`, `on`, `1` or
    /// `true` for [`SwapMode::Constraint`]; `None` for anything else.
    pub fn parse(raw: &str) -> Option<SwapMode> {
        let v = raw.trim().to_ascii_lowercase();
        match v.as_str() {
            "" | "0" | "off" | "false" => Some(SwapMode::Off),
            "1" | "on" | "true" | "constraint" => Some(SwapMode::Constraint),
            _ => None,
        }
    }

    /// True in [`SwapMode::Constraint`].
    pub fn is_on(&self) -> bool {
        matches!(self, SwapMode::Constraint)
    }

    /// Stable lower-case identifier (for job specs and reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            SwapMode::Off => "off",
            SwapMode::Constraint => "constraint",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar() {
        for v in ["", "0", "off", "false", " OFF ", "False"] {
            assert_eq!(SwapMode::parse(v), Some(SwapMode::Off), "{v:?}");
        }
        for v in ["1", "on", "true", "constraint", " Constraint "] {
            assert_eq!(SwapMode::parse(v), Some(SwapMode::Constraint), "{v:?}");
        }
        for v in ["2", "objective", "yes!", "swap"] {
            assert_eq!(SwapMode::parse(v), None, "{v:?}");
        }
    }

    #[test]
    fn default_is_off() {
        assert_eq!(SwapMode::default(), SwapMode::Off);
        assert!(!SwapMode::Off.is_on());
        assert!(SwapMode::Constraint.is_on());
        assert_eq!(SwapMode::Off.as_str(), "off");
        assert_eq!(SwapMode::Constraint.as_str(), "constraint");
    }
}
