//! Guest tasks: the threads/processes running inside a VM.

use crate::activity::Activity;
use crate::segment::{Program, Segment};
use simcore::ids::TaskId;
use simcore::rng::SimRng;
use simcore::time::SimTime;

/// Scheduling state of a guest task, as seen by the *guest* kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Ready on its vCPU's guest runqueue.
    Ready,
    /// Currently executing on its vCPU.
    Running,
    /// Blocked waiting for a wakeup or a network packet.
    Blocked,
    /// The program emitted [`Segment::End`]; the task has exited.
    Finished,
}

/// A guest thread or process.
///
/// Cloning snapshots the task mid-flight: the program (via
/// [`crate::segment::ProgramClone`], buffered segments included), RNG
/// stream position, saved mid-segment activity, and injected burst all
/// copy verbatim, so a clone resumes exactly where the original was.
#[derive(Clone)]
pub struct Task {
    /// Identity within the simulation.
    pub id: TaskId,
    /// Home vCPU index; guest tasks stay on their home vCPU (the paper's
    /// workloads pin one worker per vCPU, and the mixed iPerf scenario pins
    /// two tasks on vCPU 0).
    pub home_vcpu: u16,
    /// Current state.
    pub state: TaskState,
    /// The workload program driving this task.
    pub program: Box<dyn Program>,
    /// Per-task RNG stream (forked from the machine seed).
    pub rng: SimRng,
    /// Completed work units ([`Segment::WorkUnit`] count).
    pub work_done: u64,
    /// When the task finished, if it has.
    pub finished_at: Option<SimTime>,
    /// Packets delivered to this task but not yet consumed (iPerf server).
    pub inbox: u32,
    /// Mid-segment execution state saved across guest-level preemption
    /// (when multiple tasks share a vCPU and the guest slice expires).
    pub saved: Option<Activity>,
    /// Zero-time [`Segment::WorkUnit`]s to emit before consulting the
    /// program again. Normally zero; fault injection uses it to model a
    /// burst of untimed work (a misbehaving program) without touching the
    /// program or its RNG stream.
    pub pending_burst: u32,
}

impl Task {
    /// Creates a ready task.
    pub fn new(id: TaskId, home_vcpu: u16, program: Box<dyn Program>, rng: SimRng) -> Self {
        Task {
            id,
            home_vcpu,
            state: TaskState::Ready,
            program,
            rng,
            work_done: 0,
            finished_at: None,
            inbox: 0,
            saved: None,
            pending_burst: 0,
        }
    }

    /// Pulls the next segment from the program (draining any injected
    /// zero-time burst first, so the program's RNG stream is untouched).
    pub fn next_segment(&mut self) -> Segment {
        if self.pending_burst > 0 {
            self.pending_burst -= 1;
            return Segment::WorkUnit;
        }
        self.program.next_segment(&mut self.rng)
    }

    /// True if the task still wants CPU time.
    pub fn is_schedulable(&self) -> bool {
        matches!(self.state, TaskState::Ready | TaskState::Running)
    }
}

impl core::fmt::Debug for Task {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Task")
            .field("id", &self.id)
            .field("home_vcpu", &self.home_vcpu)
            .field("state", &self.state)
            .field("program", &self.program.name())
            .field("work_done", &self.work_done)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::ScriptedProgram;
    use simcore::ids::VmId;
    use simcore::time::SimDuration;

    fn demo_task() -> Task {
        Task::new(
            TaskId::new(VmId(0), 0),
            3,
            Box::new(ScriptedProgram::new(
                "demo",
                vec![Segment::User {
                    dur: SimDuration::from_micros(1),
                }],
            )),
            SimRng::new(1),
        )
    }

    #[test]
    fn new_task_is_ready() {
        let t = demo_task();
        assert_eq!(t.state, TaskState::Ready);
        assert!(t.is_schedulable());
        assert_eq!(t.home_vcpu, 3);
        assert_eq!(t.work_done, 0);
    }

    #[test]
    fn segments_flow_from_program() {
        let mut t = demo_task();
        assert!(matches!(t.next_segment(), Segment::User { .. }));
        assert_eq!(t.next_segment(), Segment::End);
    }

    #[test]
    fn blocked_and_finished_are_not_schedulable() {
        let mut t = demo_task();
        t.state = TaskState::Blocked;
        assert!(!t.is_schedulable());
        t.state = TaskState::Finished;
        assert!(!t.is_schedulable());
        t.state = TaskState::Running;
        assert!(t.is_schedulable());
    }

    #[test]
    fn pending_burst_drains_before_the_program() {
        let mut t = demo_task();
        t.pending_burst = 2;
        assert_eq!(t.next_segment(), Segment::WorkUnit);
        assert_eq!(t.next_segment(), Segment::WorkUnit);
        assert!(matches!(t.next_segment(), Segment::User { .. }));
        assert_eq!(t.pending_burst, 0);
    }

    #[test]
    fn debug_includes_program_name() {
        let t = demo_task();
        let s = format!("{t:?}");
        assert!(s.contains("demo"));
    }
}
