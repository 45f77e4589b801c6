//! The generic workload engine: profiles → segment streams.

use guest::kernel::LockLayout;
use guest::segment::{Program, Segment};
use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// Which kernel lock an operation acquires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockChoice {
    /// The page-allocator zone lock (single hot instance).
    PageAlloc,
    /// A dentry hash-bucket lock (random bucket per acquisition).
    Dentry,
    /// A run-queue lock — usually the thread's own CPU, sometimes a
    /// random sibling's (remote wakeups, load balancing).
    Runqueue,
    /// The page-reclaim lock.
    PageReclaim,
}

/// One probabilistic lock acquisition per workload iteration.
#[derive(Clone, Copy, Debug)]
pub struct LockOp {
    /// Which lock.
    pub lock: LockChoice,
    /// Mean critical-section length (exponentially distributed).
    pub hold: SimDuration,
    /// Probability the operation happens in a given iteration.
    pub prob: f64,
}

/// The parameter block describing one application's kernel behaviour.
#[derive(Clone, Debug)]
pub struct WorkloadProfile {
    /// Application name (as in the paper's tables).
    pub name: &'static str,
    /// Mean user-mode computation per iteration (exponential).
    pub user_mean: SimDuration,
    /// Lock acquisitions per iteration.
    pub lock_ops: Vec<LockOp>,
    /// Non-critical kernel work `(symbol, mean duration, probability)`.
    pub kernel_ops: Vec<(&'static str, SimDuration, f64)>,
    /// Probability of an `mmap`/`munmap` TLB shootdown per iteration.
    pub tlb_prob: f64,
    /// Local flush cost preceding the shootdown IPIs.
    pub tlb_local: SimDuration,
    /// Probability of waking a random sibling task per iteration
    /// (producer/consumer and load-balancer reschedule IPIs).
    pub wake_prob: f64,
    /// Threads sleep (`schedule_timeout`-style, exponentially distributed
    /// around [`WorkloadProfile::sleep_mean`]) after this many iterations.
    /// Brief sleep/wake cycles matter twice: they produce the halt yields
    /// of Figure 7, and every wake-from-idle BOOSTs the vCPU, whose
    /// preemption of a running sibling is the main source of lock-holder
    /// preemption events in consolidated systems. `None` disables
    /// sleeping.
    pub block_every: Option<u64>,
    /// Mean sleep duration for `block_every` cycles.
    pub sleep_mean: SimDuration,
    /// Iterations until the program ends; `None` runs forever
    /// (throughput benchmarks).
    pub iters: Option<u64>,
}

impl WorkloadProfile {
    /// A pure-compute profile (no kernel interaction at all).
    pub fn compute(name: &'static str, user_mean: SimDuration, iters: Option<u64>) -> Self {
        WorkloadProfile {
            name,
            user_mean,
            lock_ops: Vec::new(),
            kernel_ops: Vec::new(),
            tlb_prob: 0.0,
            tlb_local: SimDuration::ZERO,
            wake_prob: 0.0,
            block_every: None,
            sleep_mean: SimDuration::from_micros(300),
            iters,
        }
    }

    /// Finishes after `iters` iterations (execution-time benchmarks).
    pub fn with_iters(mut self, iters: u64) -> Self {
        self.iters = Some(iters);
        self
    }
}

/// A [`Program`] generated from a [`WorkloadProfile`].
///
/// Each iteration emits: kernel ops and lock acquisitions (with the
/// profile's probabilities), an optional TLB shootdown, an optional
/// sibling wakeup, the user-compute phase, one [`Segment::WorkUnit`], and
/// — for workers with `block_every` — periodic [`Segment::Block`]s.
#[derive(Clone, Debug)]
pub struct ProfileProgram {
    profile: WorkloadProfile,
    layout: LockLayout,
    /// This task's vCPU index (threads are pinned one per vCPU).
    vcpu_idx: u16,
    /// Number of vCPUs/tasks in the VM.
    num_vcpus: u16,
    /// Segments of the current iteration not yet handed out via
    /// [`Program::next_segment`]; `cursor` indexes the next one. The
    /// batch [`Program::fill`] path bypasses this buffer entirely.
    queue: Vec<Segment>,
    cursor: usize,
    /// Completed iterations.
    done: u64,
}

impl ProfileProgram {
    /// Creates the program for the thread pinned to `vcpu_idx` in a VM
    /// with `num_vcpus` vCPUs.
    pub fn new(profile: WorkloadProfile, vcpu_idx: u16, num_vcpus: u16) -> Self {
        assert!(num_vcpus > 0 && vcpu_idx < num_vcpus);
        ProfileProgram {
            profile,
            layout: LockLayout::new(num_vcpus),
            vcpu_idx,
            num_vcpus,
            queue: Vec::new(),
            cursor: 0,
            done: 0,
        }
    }

    fn lock_index(&self, choice: LockChoice, rng: &mut SimRng) -> (u16, &'static str) {
        match choice {
            LockChoice::PageAlloc => (self.layout.page_alloc(), "get_page_from_freelist"),
            LockChoice::Dentry => (self.layout.dentry(rng.below(4) as u16), "__raw_spin_unlock"),
            LockChoice::Runqueue => {
                // Mostly the local run queue; sometimes a sibling's.
                let cpu = if rng.chance(0.7) {
                    self.vcpu_idx
                } else {
                    rng.below(self.num_vcpus as u64) as u16
                };
                (self.layout.runqueue(cpu), "_raw_spin_unlock_irqrestore")
            }
            LockChoice::PageReclaim => (self.layout.page_reclaim(), "free_one_page"),
        }
    }

    /// Writes the segment list for one iteration into `out` — always at
    /// least one segment. The RNG draw order is the load-bearing part:
    /// it is identical whether the caller batches or single-steps.
    fn emit_iteration(&mut self, out: &mut Vec<Segment>, rng: &mut SimRng) {
        if let Some(limit) = self.profile.iters {
            if self.done >= limit {
                out.push(Segment::End);
                return;
            }
        }
        self.done += 1;

        // Kernel ops (syscall bodies) first, as on a real syscall path.
        for i in 0..self.profile.kernel_ops.len() {
            let (sym, mean, prob) = self.profile.kernel_ops[i];
            if rng.chance(prob) {
                out.push(Segment::Kernel {
                    sym,
                    dur: rng.exp_duration(mean),
                });
            }
        }
        for i in 0..self.profile.lock_ops.len() {
            let op = self.profile.lock_ops[i];
            if rng.chance(op.prob) {
                let (lock, sym) = self.lock_index(op.lock, rng);
                out.push(Segment::Critical {
                    lock,
                    sym,
                    hold: rng.exp_duration(op.hold),
                });
            }
        }
        if self.profile.tlb_prob > 0.0 && rng.chance(self.profile.tlb_prob) {
            out.push(Segment::TlbShootdown {
                local_cost: self.profile.tlb_local,
            });
        }
        // Wake a random sibling (producer/consumer and load-balancer
        // reschedule IPIs).
        if self.num_vcpus > 1 && self.profile.wake_prob > 0.0 && rng.chance(self.profile.wake_prob)
        {
            let mut target = rng.below(self.num_vcpus as u64) as u32;
            if target == self.vcpu_idx as u32 {
                target = (target + 1) % self.num_vcpus as u32;
            }
            out.push(Segment::Wake {
                target,
                cost: SimDuration::from_micros(2),
            });
        }
        out.push(Segment::User {
            dur: rng.exp_duration(self.profile.user_mean),
        });
        out.push(Segment::WorkUnit);
        if let Some(every) = self.profile.block_every {
            if self.done.is_multiple_of(every) {
                out.push(Segment::Sleep {
                    dur: rng.exp_duration(self.profile.sleep_mean),
                });
            }
        }
    }
}

impl Program for ProfileProgram {
    fn next_segment(&mut self, rng: &mut SimRng) -> Segment {
        if self.cursor == self.queue.len() {
            let mut buf = std::mem::take(&mut self.queue);
            buf.clear();
            self.cursor = 0;
            self.emit_iteration(&mut buf, rng);
            self.queue = buf;
        }
        let seg = self.queue[self.cursor];
        self.cursor += 1;
        seg
    }

    fn name(&self) -> &'static str {
        self.profile.name
    }

    fn fill(&mut self, out: &mut Vec<Segment>, rng: &mut SimRng) {
        // Hand out any single-step leftovers first so mixing the two
        // consumption styles cannot reorder the stream.
        if self.cursor < self.queue.len() {
            out.extend_from_slice(&self.queue[self.cursor..]);
            self.cursor = self.queue.len();
            return;
        }
        self.emit_iteration(out, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn demo_profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "demo",
            user_mean: us(100),
            lock_ops: vec![LockOp {
                lock: LockChoice::PageAlloc,
                hold: us(3),
                prob: 1.0,
            }],
            kernel_ops: vec![("do_fork", us(8), 1.0)],
            tlb_prob: 0.0,
            tlb_local: SimDuration::ZERO,
            wake_prob: 0.0,
            block_every: None,
            sleep_mean: SimDuration::from_micros(300),
            iters: Some(3),
        }
    }

    #[test]
    fn iteration_structure() {
        let mut rng = SimRng::new(1);
        let mut p = ProfileProgram::new(demo_profile(), 0, 4);
        let mut segments = Vec::new();
        loop {
            let s = p.next_segment(&mut rng);
            if s == Segment::End {
                break;
            }
            segments.push(s);
        }
        // 3 iterations × (kernel + critical + user + workunit).
        assert_eq!(segments.len(), 12);
        assert!(matches!(
            segments[0],
            Segment::Kernel { sym: "do_fork", .. }
        ));
        assert!(matches!(segments[1], Segment::Critical { .. }));
        assert!(matches!(segments[2], Segment::User { .. }));
        assert_eq!(segments[3], Segment::WorkUnit);
        // End repeats forever.
        assert_eq!(p.next_segment(&mut rng), Segment::End);
    }

    #[test]
    fn endless_profile_never_ends() {
        let mut rng = SimRng::new(2);
        let mut profile = demo_profile();
        profile.iters = None;
        let mut p = ProfileProgram::new(profile, 1, 4);
        for _ in 0..1000 {
            assert_ne!(p.next_segment(&mut rng), Segment::End);
        }
    }

    #[test]
    fn probabilities_gate_operations() {
        let mut rng = SimRng::new(3);
        let mut profile = demo_profile();
        profile.iters = None;
        profile.lock_ops[0].prob = 0.5;
        let mut p = ProfileProgram::new(profile, 0, 4);
        let mut criticals = 0;
        let mut units = 0;
        while units < 10_000 {
            match p.next_segment(&mut rng) {
                Segment::Critical { .. } => criticals += 1,
                Segment::WorkUnit => units += 1,
                _ => {}
            }
        }
        let rate = criticals as f64 / units as f64;
        assert!((0.45..0.55).contains(&rate), "rate {rate} not ≈ 0.5");
    }

    #[test]
    fn threads_sleep_periodically_and_wake_siblings() {
        let mut rng = SimRng::new(4);
        let mut profile = demo_profile();
        profile.iters = None;
        profile.block_every = Some(5);
        profile.wake_prob = 0.5;
        let mut worker = ProfileProgram::new(profile, 2, 4);
        let mut units = 0;
        let mut sleeps = 0;
        let mut wakes = Vec::new();
        for _ in 0..2000 {
            match worker.next_segment(&mut rng) {
                Segment::WorkUnit => units += 1,
                Segment::Sleep { dur } => {
                    assert!(dur > SimDuration::ZERO);
                    sleeps += 1;
                }
                Segment::Wake { target, .. } => wakes.push(target),
                _ => {}
            }
        }
        assert!(sleeps > 0);
        assert_eq!(units / sleeps, 5);
        assert!(!wakes.is_empty());
        assert!(wakes.iter().all(|&t| t != 2 && t < 4), "{wakes:?}");
    }

    #[test]
    fn lock_choices_resolve_to_correct_kinds() {
        let mut rng = SimRng::new(5);
        let p = ProfileProgram::new(demo_profile(), 1, 4);
        let layout = LockLayout::new(4);
        for (choice, kind) in [
            (LockChoice::PageAlloc, guest::kernel::LockKind::PageAlloc),
            (LockChoice::Dentry, guest::kernel::LockKind::Dentry),
            (LockChoice::Runqueue, guest::kernel::LockKind::Runqueue),
            (
                LockChoice::PageReclaim,
                guest::kernel::LockKind::PageReclaim,
            ),
        ] {
            for _ in 0..20 {
                let (idx, sym) = p.lock_index(choice, &mut rng);
                assert_eq!(layout.kind_of(idx), kind);
                assert!(!sym.is_empty());
            }
        }
    }

    #[test]
    fn deterministic_given_same_rng_seed() {
        let collect = || {
            let mut rng = SimRng::new(42);
            let mut p = ProfileProgram::new(demo_profile(), 0, 4);
            (0..50)
                .map(|_| p.next_segment(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }
}
