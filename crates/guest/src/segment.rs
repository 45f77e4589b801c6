//! Segments: the unit of guest-task execution.
//!
//! A workload model (the `workloads` crate) is a [`Program`] that emits a
//! stream of [`Segment`]s. A vCPU consumes its current task's segment while
//! scheduled on a physical CPU; hypervisor preemption suspends the segment
//! with its remaining work intact, which is precisely how the virtual time
//! discontinuity bites the guest kernel.

use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// One step of guest-task execution.
///
/// `Copy`: segments are plain value records (durations, small ints,
/// `&'static str` symbol names), which is what lets [`FlatProgram`] hand
/// them out of a dense arena without cloning machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Segment {
    /// Compute in user mode for the given duration.
    User {
        /// CPU time required.
        dur: SimDuration,
    },
    /// Compute inside a *registered user-level critical region* (the §4.4
    /// extension): the vCPU's instruction pointer reports `ip`, which the
    /// hypervisor may match against regions registered on its whitelist.
    UserCritical {
        /// Instruction-pointer value inside the registered region.
        ip: u64,
        /// CPU time required.
        dur: SimDuration,
    },
    /// Compute in kernel mode outside any critical section (syscall body).
    Kernel {
        /// The kernel function this models (resolves via the symbol table).
        sym: &'static str,
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
        sym: &'static str,
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
            Segment::User { dur }
            | Segment::UserCritical { dur, .. }
            | Segment::Kernel { dur, .. } => Some(*dur),
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

    /// Appends the next *batch* of segments to `out` — at least one.
    ///
    /// The emitted stream must be identical to repeated
    /// [`Program::next_segment`] calls, including the order of RNG draws;
    /// batching only changes how many segments one virtual call returns.
    /// The default forwards one segment at a time; programs with a
    /// cheaply enumerable future (scripts, loops, profile iterations)
    /// override it so [`FlatProgram`] touches the vtable once per batch.
    fn fill(&mut self, out: &mut Vec<Segment>, rng: &mut SimRng) {
        out.push(self.next_segment(rng));
    }
}

/// A [`Program`] flattened into a contiguous segment arena.
///
/// The vCPU step path consumes segments at simulation frequency — every
/// few microseconds of guest time under micro-slicing — and paying a
/// `Box<dyn Program>` virtual call plus whatever allocation the program
/// does per segment was measurable. `FlatProgram` batches: it asks the
/// source to [`Program::fill`] a dense `Vec<Segment>` and then serves
/// `Copy` reads off a cursor until the arena runs dry. The observable
/// segment/RNG stream is bit-identical to driving the source directly.
///
/// Cloning copies the arena and cursor verbatim (plus the source via
/// [`ProgramClone`]), so a clone resumes the exact segment stream.
#[derive(Clone)]
pub struct FlatProgram {
    source: Box<dyn Program>,
    arena: Vec<Segment>,
    cursor: usize,
}

impl FlatProgram {
    /// Wraps a program; the arena fills lazily on first use.
    pub fn new(source: Box<dyn Program>) -> Self {
        FlatProgram {
            source,
            arena: Vec::new(),
            cursor: 0,
        }
    }

    /// The wrapped program's name.
    pub fn name(&self) -> &'static str {
        self.source.name()
    }

    /// Produces the next segment, refilling the arena from the source
    /// when the cursor catches up.
    #[inline]
    pub fn next_segment(&mut self, rng: &mut SimRng) -> Segment {
        if self.cursor == self.arena.len() {
            self.arena.clear();
            self.cursor = 0;
            self.source.fill(&mut self.arena, rng);
            assert!(
                !self.arena.is_empty(),
                "Program::fill emitted no segments ({})",
                self.source.name()
            );
        }
        let seg = self.arena[self.cursor];
        self.cursor += 1;
        seg
    }
}

impl core::fmt::Debug for FlatProgram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FlatProgram")
            .field("name", &self.name())
            .field("arena_len", &self.arena.len())
            .field("cursor", &self.cursor)
            .finish()
    }
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

    fn fill(&mut self, out: &mut Vec<Segment>, _rng: &mut SimRng) {
        // Everything left, then the terminal End; once exhausted, one End
        // per call — the same stream next_segment produces.
        out.extend_from_slice(&self.script[self.pos.min(self.script.len())..]);
        out.push(Segment::End);
        self.pos = self.script.len() + 1;
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

    fn fill(&mut self, out: &mut Vec<Segment>, _rng: &mut SimRng) {
        // One batch = the rest of the current cycle.
        out.extend_from_slice(&self.script[self.pos..]);
        self.pos = 0;
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
                sym: "sys_read",
                dur: us(2)
            }
            .duration(),
            Some(us(2))
        );
        assert_eq!(
            Segment::Critical {
                lock: 0,
                sym: "get_page_from_freelist",
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
