//! Cooperative cancellation and progress reporting for optimizer runs.
//!
//! A [`RunControl`] is a cheap, cloneable token threaded through
//! [`crate::MultiObjectiveOptimizer::run_controlled`]. The party that
//! launched the run keeps one clone (the DSE server hands it to its
//! `DELETE /jobs/:id` handler); the optimizer polls
//! [`RunControl::check`] at the top of each inner-loop iteration and
//! returns [`DseError::Cancelled`] cleanly — no partially built front
//! escapes, no panic.
//!
//! The same token carries coarse progress (evaluations done, current
//! Pareto-front size), so a status endpoint can report on a running job
//! without touching process-global gauges that concurrent jobs would
//! race on. The built-in optimizers' evaluation archive publishes it
//! after each committed batch, so it always matches the records the run
//! has committed; a custom optimizer calls [`RunControl::checkpoint`]
//! itself.
//!
//! The default token ([`RunControl::none`]) has no shared state at all:
//! every check is a branch on a `None`, so CLI runs pay nothing.

use crate::error::DseError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct ControlState {
    cancelled: AtomicBool,
    evaluations: AtomicU64,
    front_size: AtomicU64,
}

/// Cancellation token and progress channel for one optimizer run.
///
/// Clones share state: cancelling any clone cancels the run, and
/// progress written by the optimizer is visible through every clone.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    inner: Option<Arc<ControlState>>,
}

impl RunControl {
    /// An active token whose clones share cancellation and progress.
    pub fn new() -> RunControl {
        RunControl { inner: Some(Arc::new(ControlState::default())) }
    }

    /// The inert token: never cancelled, progress discarded. This is
    /// what [`crate::MultiObjectiveOptimizer::run`] (the uncontrolled
    /// entry point) uses, so existing callers are unaffected.
    pub fn none() -> RunControl {
        RunControl { inner: None }
    }

    /// True when this token shares state with other clones (i.e. was
    /// built by [`RunControl::new`]).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Requests cancellation. The optimizer notices at its next
    /// [`RunControl::check`] and returns [`DseError::Cancelled`].
    /// A no-op on an inert token.
    pub fn cancel(&self) {
        if let Some(state) = &self.inner {
            state.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// True once [`RunControl::cancel`] was called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.inner.as_ref().is_some_and(|s| s.cancelled.load(Ordering::Relaxed))
    }

    /// Returns `Err(DseError::Cancelled)` once cancellation was
    /// requested; optimizers call this at the top of each iteration.
    ///
    /// # Errors
    ///
    /// [`DseError::Cancelled`] when a clone has cancelled the run.
    pub fn check(&self) -> Result<(), DseError> {
        if self.is_cancelled() {
            Err(DseError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Publishes run progress: total objective evaluations committed so
    /// far and the current Pareto-front size. The built-in optimizers'
    /// archive calls it after each committed batch; a custom optimizer
    /// calls it itself. A no-op on an inert token.
    pub fn checkpoint(&self, evaluations: usize, front_size: usize) {
        if let Some(state) = &self.inner {
            state.evaluations.store(evaluations as u64, Ordering::Relaxed);
            state.front_size.store(front_size as u64, Ordering::Relaxed);
        }
    }

    /// Objective evaluations committed at the last checkpoint.
    pub fn evaluations(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.evaluations.load(Ordering::Relaxed))
    }

    /// Pareto-front size at the last checkpoint.
    pub fn front_size(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.front_size.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_cancels() {
        let c = RunControl::none();
        assert!(!c.is_active());
        c.cancel();
        assert!(!c.is_cancelled());
        assert!(c.check().is_ok());
        c.checkpoint(10, 3);
        assert_eq!((c.evaluations(), c.front_size()), (0, 0));
        // Default is the inert token.
        assert!(!RunControl::default().is_active());
    }

    #[test]
    fn clones_share_cancellation_and_progress() {
        let a = RunControl::new();
        let b = a.clone();
        assert!(a.check().is_ok());
        b.checkpoint(12, 4);
        assert_eq!((a.evaluations(), a.front_size()), (12, 4));
        b.cancel();
        assert!(a.is_cancelled());
        assert_eq!(a.check(), Err(DseError::Cancelled));
    }
}
