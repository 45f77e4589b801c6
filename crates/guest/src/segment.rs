//! Segments: the unit of guest-task execution.
//!
//! A workload model (the `workloads` crate) is a [`Program`] that emits a
//! stream of [`Segment`]s. A vCPU consumes its current task's segment while
//! scheduled on a physical CPU; hypervisor preemption suspends the segment
//! with its remaining work intact, which is precisely how the virtual time
//! discontinuity bites the guest kernel.

use ksym::Sym;
use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// One step of guest-task execution.
///
/// `Copy`: segments are plain value records (durations, small ints,
/// kernel symbols), so programs hand them out of their scripts and
/// buffers by value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Segment {
    /// Compute in user mode for the given duration.
    User {
        /// CPU time required.
        dur: SimDuration,
    },
    /// Compute in kernel mode outside any critical section (syscall body).
    Kernel {
        /// The kernel function this models (resolves via the symbol table).
        sym: Sym,
        /// CPU time required.
        dur: SimDuration,
    },
    /// Acquire a kernel spinlock, hold it for `hold`, release it.
    ///
    /// While holding, the vCPU's instruction pointer reports `sym` (a
    /// whitelisted critical-section function); while spinning, it reports
    /// the queued-spinlock slowpath.
    Critical {
        /// Which lock kind to acquire (index into the VM's lock table).
        lock: u16,
        /// The critical-section body function.
        sym: Sym,
        /// CPU time spent inside the critical section.
        hold: SimDuration,
    },
    /// Initiate a one-to-many TLB shootdown (mmap/munmap path), then wait
    /// for every sibling vCPU to acknowledge.
    TlbShootdown {
        /// Local flush work before waiting for acknowledgements.
        local_cost: SimDuration,
    },
    /// Wake another guest task (possibly on another vCPU, which sends a
    /// reschedule IPI and briefly waits for its acknowledgement).
    Wake {
        /// Index of the target task within the same VM.
        target: u32,
        /// CPU cost of the wakeup path itself.
        cost: SimDuration,
    },
    /// Block until another task wakes this one (worker waiting for work).
    Block,
    /// Sleep for a fixed duration (`schedule_timeout`): the task blocks
    /// and the machine wakes it when the timer fires. Models the
    /// sleep/wake cycles behind psearchy's and dedup's halt yields.
    Sleep {
        /// How long to sleep.
        dur: SimDuration,
    },
    /// Block until a network packet is delivered to this task (iPerf
    /// server read loop).
    NetRecv,
    /// Record one completed unit of application work (throughput metric);
    /// consumes no CPU time.
    WorkUnit,
    /// The program is finished; the task exits (execution-time metric).
    End,
}

impl Segment {
    /// CPU time this segment consumes while running uninterrupted, if it is
    /// a timed compute segment.
    pub fn duration(&self) -> Option<SimDuration> {
        match self {
            Segment::User { dur } | Segment::Kernel { dur, .. } => Some(*dur),
            Segment::Critical { hold, .. } => Some(*hold),
            Segment::TlbShootdown { local_cost } => Some(*local_cost),
            Segment::Wake { cost, .. } => Some(*cost),
            Segment::Block
            | Segment::Sleep { .. }
            | Segment::NetRecv
            | Segment::WorkUnit
            | Segment::End => None,
        }
    }
}

/// Clone support for boxed [`Program`]s, blanket-implemented for every
/// `Clone` program so `Box<dyn Program>` (and with it whole machines) can
/// be snapshotted. Implementors never write this by hand — deriving
/// `Clone` on the program type is enough.
pub trait ProgramClone {
    /// Clones `self` into a fresh box.
    fn clone_box(&self) -> Box<dyn Program>;
}

impl<P: Program + Clone + 'static> ProgramClone for P {
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Program> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A guest workload: a deterministic (given the RNG) stream of segments.
///
/// `Send + Sync` (programs are plain data driven by the machine's RNG)
/// plus [`ProgramClone`] let a machine holding boxed programs be
/// snapshotted and the snapshot forked from worker threads. `Debug`
/// renders every parameter the stream depends on, which is what lets a
/// scenario's rendering serve as its identity (the experiment runner's
/// checkpoint store keys machines by it).
pub trait Program: ProgramClone + Send + Sync + core::fmt::Debug {
    /// Produces the next segment to execute.
    fn next_segment(&mut self, rng: &mut SimRng) -> Segment;

    /// A short human-readable workload name (e.g. `"gmake"`).
    fn name(&self) -> &'static str;
}

/// A program built from a fixed segment list (ends with [`Segment::End`],
/// appended automatically). Useful for tests and microbenchmarks.
#[derive(Clone, Debug)]
pub struct ScriptedProgram {
    name: &'static str,
    script: Vec<Segment>,
    pos: usize,
}

impl ScriptedProgram {
    /// Creates a program that replays `script` once, then ends.
    pub fn new(name: &'static str, script: Vec<Segment>) -> Self {
        ScriptedProgram {
            name,
            script,
            pos: 0,
        }
    }

    /// Creates a program that replays `script` cyclically, forever.
    pub fn looping(name: &'static str, script: Vec<Segment>) -> LoopingProgram {
        assert!(!script.is_empty(), "looping script must be non-empty");
        LoopingProgram {
            name,
            script,
            pos: 0,
        }
    }
}

impl Program for ScriptedProgram {
    fn next_segment(&mut self, _rng: &mut SimRng) -> Segment {
        let seg = self.script.get(self.pos).copied().unwrap_or(Segment::End);
        self.pos += 1;
        seg
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// A program that cycles through a fixed segment list forever.
#[derive(Clone, Debug)]
pub struct LoopingProgram {
    name: &'static str,
    script: Vec<Segment>,
    pos: usize,
}

impl Program for LoopingProgram {
    fn next_segment(&mut self, _rng: &mut SimRng) -> Segment {
        let seg = self.script[self.pos];
        self.pos = (self.pos + 1) % self.script.len();
        seg
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations() {
        let us = SimDuration::from_micros;
        assert_eq!(Segment::User { dur: us(5) }.duration(), Some(us(5)));
        assert_eq!(
            Segment::Kernel {
                sym: ksym::sym!("sys_read"),
                dur: us(2)
            }
            .duration(),
            Some(us(2))
        );
        assert_eq!(
            Segment::Critical {
                lock: 0,
                sym: ksym::sym!("get_page_from_freelist"),
                hold: us(3)
            }
            .duration(),
            Some(us(3))
        );
        assert_eq!(Segment::Block.duration(), None);
        assert_eq!(Segment::End.duration(), None);
        assert_eq!(Segment::WorkUnit.duration(), None);
    }

    #[test]
    fn scripted_program_plays_once_then_ends() {
        let mut rng = SimRng::new(1);
        let mut p = ScriptedProgram::new(
            "t",
            vec![
                Segment::User {
                    dur: SimDuration::from_micros(1),
                },
                Segment::WorkUnit,
            ],
        );
        assert_eq!(p.name(), "t");
        assert!(matches!(p.next_segment(&mut rng), Segment::User { .. }));
        assert_eq!(p.next_segment(&mut rng), Segment::WorkUnit);
        assert_eq!(p.next_segment(&mut rng), Segment::End);
        assert_eq!(p.next_segment(&mut rng), Segment::End);
    }

    #[test]
    fn looping_program_cycles() {
        let mut rng = SimRng::new(1);
        let mut p = ScriptedProgram::looping("loop", vec![Segment::WorkUnit, Segment::Block]);
        for _ in 0..3 {
            assert_eq!(p.next_segment(&mut rng), Segment::WorkUnit);
            assert_eq!(p.next_segment(&mut rng), Segment::Block);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_looping_script_panics() {
        ScriptedProgram::looping("bad", vec![]);
    }
}
