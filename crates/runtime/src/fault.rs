//! Test-only fault injection: panic a firing on demand.
//!
//! The fault-injection fuzz harness (`reo-fuzz faults`) needs to make a
//! firing panic *mid-protocol* — from inside `try_step`, with the
//! engine lock held and peers parked — to prove the containment layer
//! (catch → poison → wake) holds under the worst possible interleavings.
//! A `cfg(test)` hook cannot reach across crates into the fuzz binary, so
//! the trigger is a process-global armed countdown: disarmed it costs one
//! relaxed atomic load per fired step.
//!
//! Hidden from docs: this is a testing backdoor, not API. Nothing in the
//! runtime arms it; only harnesses do.

use std::sync::atomic::{AtomicI64, Ordering};

/// `< 0` means disarmed. `>= 0` counts fired steps until the panic.
static COUNTDOWN: AtomicI64 = AtomicI64::new(-1);

/// The panic payload used by injected faults, so tests can distinguish an
/// injected panic from a genuine engine bug in the poison message.
pub const INJECTED_PANIC: &str = "injected fault: panic in firing";

/// Arm the hook: the `n`-th fired step from now (0 = the very next one)
/// panics with [`INJECTED_PANIC`]. The hook disarms itself after firing.
pub fn arm_panic_after_steps(n: u64) {
    COUNTDOWN.store(n.min(i64::MAX as u64) as i64, Ordering::SeqCst);
}

/// Disarm without firing (harness cleanup between cases).
pub fn disarm() {
    COUNTDOWN.store(-1, Ordering::SeqCst);
}

/// Called by the engine once per successfully fired step.
#[inline]
pub(crate) fn tick_fired_step() {
    if COUNTDOWN.load(Ordering::Relaxed) < 0 {
        return;
    }
    if COUNTDOWN.fetch_sub(1, Ordering::SeqCst) == 0 {
        panic!("{INJECTED_PANIC}");
    }
}
