//! Flight recorder and crash-report capture.
//!
//! A failing grid cell is only as debuggable as the evidence it leaves
//! behind. This module provides the machine's black box: a fixed-size
//! ring of the last events the machine handled ([`FlightRecorder`]),
//! armed per worker thread by the experiment runner, and a thread-local
//! *crash session* through which the machine publishes a rendered crash
//! report the moment it poisons itself with a
//! [`SimError`].
//!
//! Cost profile: with no session armed (every unit test, benchmark, and
//! library embedding) the recorder is a disarmed no-op — one predictable
//! branch per event, no allocation, no clock access — and machines carry
//! an empty ring. The runner arms the session only around experiment
//! cells, where the ring costs one bounded `Vec` write per event.
//!
//! The session also carries two replay knobs consumed during artifact
//! *shrinking* (bisecting a fault plan down to a minimal reproducer):
//! a fault-plan truncation override (see [`with_fault_take`]) and a
//! scratch-mode flag (see [`with_scratch_mode`]) that forces grid cells
//! to rebuild their warm prefix instead of forking a snapshot cached
//! with the untruncated plan.

use crate::error::SimError;
use crate::machine::{Event, Machine};
use simcore::time::SimTime;
use std::cell::{Cell, RefCell};

/// Default ring capacity when the runner arms a cell. 256 events is a
/// few scheduler quanta of history — enough to see the decisions leading
/// into a failure without bloating artifacts.
pub const DEFAULT_RING: usize = 256;

/// A fixed-size ring of the last N `(time, event)` pairs the machine
/// handled. Disarmed by default; see [the module docs](self) for the
/// cost profile.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    ring: Vec<(SimTime, Event)>,
    capacity: usize,
    /// Total records ever written (ring head = total % capacity).
    total: u64,
}

impl FlightRecorder {
    /// A disarmed recorder: [`FlightRecorder::record`] is a no-op.
    pub fn disarmed() -> Self {
        FlightRecorder {
            ring: Vec::new(),
            capacity: 0,
            total: 0,
        }
    }

    /// An armed recorder retaining the last `capacity` events.
    pub fn armed(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Vec::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    /// True if this recorder retains events.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.capacity != 0
    }

    /// Appends one record, overwriting the oldest once full.
    #[inline]
    pub fn record(&mut self, at: SimTime, event: Event) {
        if self.capacity == 0 {
            return;
        }
        self.record_slow(at, event);
    }

    #[cold]
    fn record_slow(&mut self, at: SimTime, event: Event) {
        let slot = (self.total % self.capacity as u64) as usize;
        if slot < self.ring.len() {
            self.ring[slot] = (at, event);
        } else {
            self.ring.push((at, event));
        }
        self.total += 1;
    }

    /// Total records ever written (retained + overwritten).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, Event)> {
        let head = (self.total % self.capacity.max(1) as u64) as usize;
        let (newer, older) = self.ring.split_at(head.min(self.ring.len()));
        older.iter().chain(newer.iter())
    }
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static REPORT: RefCell<Option<String>> = const { RefCell::new(None) };
    static FAULT_TAKE: Cell<Option<u32>> = const { Cell::new(None) };
    static SCRATCH: Cell<bool> = const { Cell::new(false) };
    static PLAN_LEN: Cell<u32> = const { Cell::new(0) };
}

/// True if a crash session is armed on the calling thread. Machines
/// constructed while armed carry a [`FlightRecorder::armed`] ring and
/// publish a crash report into the session on their first fatal error.
pub fn session_armed() -> bool {
    ARMED.with(|a| a.get())
}

/// Runs `f` inside an armed crash session: machines it constructs record
/// flight data and publish crash reports retrievable afterwards via
/// [`take_report`]. Any stale report from a previous cell on this worker
/// thread is cleared first. The previous armed state is restored on
/// exit, including on unwind.
pub fn with_session<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            ARMED.with(|a| a.set(self.0));
        }
    }
    let _restore = Restore(ARMED.with(|a| a.replace(true)));
    REPORT.with(|r| r.borrow_mut().take());
    PLAN_LEN.with(|p| p.set(0));
    f()
}

/// Takes the crash report published by the last machine failure in this
/// thread's session, if any.
pub fn take_report() -> Option<String> {
    REPORT.with(|r| r.borrow_mut().take())
}

pub(crate) fn publish_report(report: String) {
    REPORT.with(|r| *r.borrow_mut() = Some(report));
}

/// Runs `f` with the fault-plan truncation override set to `take`:
/// every [`Machine::install_faults`](crate::Machine::install_faults)
/// under it keeps only the first `take` planned entries, exactly as a
/// spec with `take=K` would. Used by the artifact shrink pass to bisect
/// a failing plan without rebuilding the cell's options.
pub fn with_fault_take<R>(take: u32, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u32>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FAULT_TAKE.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(FAULT_TAKE.with(|t| t.replace(Some(take))));
    f()
}

/// The fault-plan truncation override armed on this thread, if any.
pub fn fault_take() -> Option<u32> {
    FAULT_TAKE.with(|t| t.get())
}

/// Runs `f` in scratch mode: shared-prefix grids must rebuild their warm
/// machines from scratch instead of forking a cached snapshot. Shrink
/// probes run under this so a truncated fault plan actually governs the
/// warm prefix — the cached snapshot was warmed under the full plan.
pub fn with_scratch_mode<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCRATCH.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCRATCH.with(|s| s.replace(true)));
    f()
}

/// True if scratch mode is armed on this thread.
pub fn scratch_mode() -> bool {
    SCRATCH.with(|s| s.get())
}

/// Number of fault-plan entries installed by the most recent
/// [`Machine::install_faults`](crate::Machine::install_faults), or carried
/// by the most recent [`Machine::fork`](crate::Machine::fork), in this
/// thread's session (before any `take` truncation) — the shrink pass's
/// bisection upper bound.
pub fn last_plan_len() -> u32 {
    PLAN_LEN.with(|p| p.get())
}

pub(crate) fn publish_plan_len(len: u32) {
    if session_armed() {
        PLAN_LEN.with(|p| p.set(p.get().max(len)));
    }
}

impl Machine {
    /// Renders the machine's black box for a fatal error `e`: the flight
    /// ring, the active fault plan, RNG stream position, and a state
    /// summary. Called by the machine itself on its first failure when a
    /// crash session is armed; also available to embedders for ad-hoc
    /// dumps.
    pub fn render_crash_report(&self, e: &SimError) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let _ = writeln!(out, "error: {e}");
        let _ = writeln!(out, "failed_at: {}", e.at());
        let _ = writeln!(out, "now: {}", self.now);
        let _ = writeln!(
            out,
            "machine: {} pCPUs ({} micro), {} VMs, {} pending events, seed {:#x}",
            self.cfg.num_pcpus,
            self.micro_cores(),
            self.vms.len(),
            self.queue.len(),
            self.cfg.seed
        );
        let s = self.rng.state();
        let _ = writeln!(
            out,
            "rng_state: [{:#018x}, {:#018x}, {:#018x}, {:#018x}]",
            s[0], s[1], s[2], s[3]
        );
        let plan = &self.faults.plan.entries;
        let _ = writeln!(out, "fault_plan: {} entries", plan.len());
        for (seq, entry) in plan.iter().enumerate() {
            let _ = writeln!(out, "  [{seq:3}] {} {:?}", entry.at, entry.kind);
        }
        let _ = writeln!(
            out,
            "flight_ring: {} retained of {} total events",
            self.flight.iter().count(),
            self.flight.total()
        );
        for (at, event) in self.flight.iter() {
            let _ = writeln!(out, "  {at} {event:?}");
        }
        let _ = writeln!(out, "counters:");
        for line in self.stats.counters.to_string().lines() {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_recorder_is_a_no_op() {
        let mut r = FlightRecorder::disarmed();
        assert!(!r.is_armed());
        r.record(SimTime::ZERO, Event::Tick);
        assert_eq!(r.total(), 0);
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn ring_retains_the_newest_records_in_order() {
        let mut r = FlightRecorder::armed(3);
        for i in 0..5u64 {
            r.record(SimTime::from_micros(i), Event::Tick);
        }
        assert_eq!(r.total(), 5);
        let times: Vec<u64> = r.iter().map(|(at, _)| at.as_micros()).collect();
        assert_eq!(times, vec![2, 3, 4], "oldest-first, newest retained");
    }

    #[test]
    fn session_arms_and_restores() {
        assert!(!session_armed());
        with_session(|| assert!(session_armed()));
        assert!(!session_armed());
        let result = std::panic::catch_unwind(|| with_session(|| panic!("boom")));
        assert!(result.is_err());
        assert!(!session_armed(), "armed flag leaked past unwind");
    }

    #[test]
    fn overrides_arm_and_restore() {
        assert_eq!(fault_take(), None);
        with_fault_take(7, || assert_eq!(fault_take(), Some(7)));
        assert_eq!(fault_take(), None);
        assert!(!scratch_mode());
        with_scratch_mode(|| assert!(scratch_mode()));
        assert!(!scratch_mode());
    }
}
