//! Crash-report capture: the machine's black box.
//!
//! A failing grid cell is only as debuggable as the evidence it leaves
//! behind. The runner opens a thread-local *crash session* around each
//! cell. A machine built inside one arms its trace ring with the last
//! [`DEFAULT_RING`] records — handled events and the scheduler decisions
//! taken while handling them (see [`TraceEvent`](crate::TraceEvent)) —
//! and publishes a rendered crash report into the session the moment it
//! poisons itself with a [`SimError`].
//!
//! Cost profile: with no session armed (every unit test, benchmark, and
//! library embedding) the ring is disabled — one predictable branch per
//! record, no allocation, no clock access. Inside a session the ring
//! costs one bounded `Vec` write per record.
//!
//! Shrinking a failing cell's fault plan to a minimal reproducer is the
//! runner's job: it re-runs the cell under options whose
//! [`FaultSpec::take`](crate::FaultSpec::take) keeps a prefix of the
//! plan, the spec the artifact's replay command embeds.

use crate::error::SimError;
use crate::machine::Machine;
use std::cell::{Cell, RefCell};

/// Trace-ring capacity of a machine built inside a crash session. 256
/// records is a few scheduler quanta of history — enough to see the
/// decisions leading into a failure without bloating artifacts.
pub const DEFAULT_RING: usize = 256;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static REPORT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// True if a crash session is armed on the calling thread. Machines
/// constructed while armed carry a [`DEFAULT_RING`]-record trace ring and
/// publish a crash report into the session on their first fatal error.
pub fn session_armed() -> bool {
    ARMED.with(|a| a.get())
}

/// Runs `f` inside an armed crash session: machines it constructs keep a
/// trace ring and publish crash reports retrievable afterwards via
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

impl Machine {
    /// Renders the machine's black box for a fatal error `e`: the trace
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
            "flight_ring: {} retained of {} total records",
            self.trace.len(),
            self.trace.total()
        );
        for r in self.trace.iter() {
            let _ = writeln!(out, "  {} {:?}", r.at, r.event);
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
    use crate::{BaselinePolicy, MachineConfig, VmSpec};
    use guest::segment::{Program, ScriptedProgram, Segment};
    use simcore::time::{SimDuration, SimTime};

    fn hog(_v: u16) -> Box<dyn Program> {
        Box::new(ScriptedProgram::looping(
            "hog",
            vec![Segment::User {
                dur: SimDuration::from_millis(10),
            }],
        ))
    }

    /// Two 2-vCPU VMs of looping hogs on two pCPUs: every slice rotates.
    fn overcommitted() -> Machine {
        Machine::new(
            MachineConfig::small(2).with_seed(21),
            vec![
                VmSpec::new("a", 2).task_per_vcpu(hog),
                VmSpec::new("b", 2).task_per_vcpu(hog),
            ],
            Box::new(BaselinePolicy),
        )
    }

    #[test]
    fn disarmed_recorder_is_a_no_op() {
        let mut m = overcommitted();
        m.run_until(SimTime::from_millis(100)).unwrap();
        assert!(!m.trace().is_enabled(), "no session, no ring");
        assert_eq!(m.trace().total(), 0);
        assert_eq!(m.trace().iter().count(), 0);
        let report = m.render_crash_report(&SimError::Watchdog { at: m.now });
        assert!(report.contains("flight_ring: 0 retained of 0 total records"));
    }

    #[test]
    fn ring_retains_the_newest_records_in_order() {
        let horizon = SimTime::from_millis(1000);
        let mut armed = with_session(overcommitted);
        armed.run_until(horizon).unwrap();
        let mut full = overcommitted();
        full.enable_trace(1 << 16);
        full.run_until(horizon).unwrap();

        // The reference misses the boot-time decisions the armed ring
        // saw before `enable_trace`, so compare only the newest records.
        let reference: Vec<_> = full.trace().iter().collect();
        assert_eq!(reference.len() as u64, full.trace().total(), "no wrap");
        assert!(armed.trace().total() > reference.len() as u64);
        assert!(reference.len() > DEFAULT_RING, "the run wraps the ring");
        let kept: Vec<_> = armed.trace().iter().collect();
        assert_eq!(
            kept,
            reference[reference.len() - DEFAULT_RING..],
            "oldest-first, newest retained"
        );
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
}
