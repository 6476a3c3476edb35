//! Test-only fault injection: panic a firing on demand.
//!
//! The fault-injection fuzz harness (`reo-fuzz faults`) needs to make a
//! firing panic *mid-protocol* — from inside `try_step`, with the
//! engine lock held and peers parked — to prove the containment layer
//! (catch → poison → wake) holds under the worst possible interleavings.
//! A `cfg(test)` hook cannot reach across crates into the fuzz binary, so
//! the trigger is an armed countdown owned by one session and shared by
//! all of that session's engines. Harnesses arm it through
//! `ConnectorHandle::arm_panic_after_steps`; a step fired by any *other*
//! session, test or thread in the process never takes the panic.
//!
//! Hidden from docs: this is a testing backdoor, not API. Nothing in the
//! runtime arms it; only harnesses do.

use std::sync::atomic::{AtomicI64, Ordering};

/// The panic payload used by injected faults, so tests can distinguish an
/// injected panic from a genuine engine bug in the poison message.
pub const INJECTED_PANIC: &str = "injected fault: panic in firing";

/// One session's fault-injection countdown. `< 0` means disarmed;
/// `>= 0` counts fired steps (of any of the session's engines) until the
/// panic.
#[derive(Debug)]
pub(crate) struct FaultHook(AtomicI64);

impl FaultHook {
    pub(crate) fn new() -> Self {
        FaultHook(AtomicI64::new(-1))
    }

    /// Arm: the `n`-th fired step from now (0 = the very next one)
    /// panics with [`INJECTED_PANIC`]. The hook disarms itself after
    /// firing.
    pub(crate) fn arm(&self, n: u64) {
        self.0
            .store(n.min(i64::MAX as u64) as i64, Ordering::SeqCst);
    }

    /// Called by an engine of the session once per successfully fired
    /// step.
    #[inline]
    pub(crate) fn tick_fired_step(&self) {
        if self.0.load(Ordering::Relaxed) < 0 {
            return;
        }
        if self.0.fetch_sub(1, Ordering::SeqCst) == 0 {
            panic!("{INJECTED_PANIC}");
        }
    }
}
