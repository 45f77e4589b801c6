//! Calibrated per-application workload profiles.
//!
//! Parameters follow the paper's characterization (§3.1, §6.1): which
//! kernel component each application hammers, and roughly how hard. The
//! absolute iteration counts are chosen so solo executions complete within
//! a few simulated seconds; the *shapes* (who is lock-bound, who is
//! TLB-bound, who is purely user-mode) are what the experiments rely on.

use crate::profile::{LockChoice, LockOp, ProfileProgram, WorkloadProfile};
use guest::sym;
use simcore::time::SimDuration;

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// Every application evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    // MOSBENCH (§6.1: stress kernel components).
    /// Mail server: process/file churn → spinlock-bound (PLE).
    Exim,
    /// Parallel kernel build: fork/exec churn → lock-holder preemption.
    Gmake,
    /// File indexer: locks plus sleep/wake cycles.
    Psearchy,
    /// Thread-per-core `mmap` microbenchmark: page-allocator lock.
    Memclone,
    // PARSEC.
    /// Pipeline compression: mmap/munmap → TLB-shootdown storms.
    Dedup,
    /// Image processing: TLB shootdowns, lighter than dedup.
    Vips,
    /// Monte-Carlo pricing: pure user compute (the co-runner anchor).
    Swaptions,
    /// Pure compute (Figure 8).
    Blackscholes,
    /// Pure compute with light kernel use (Figure 8).
    Bodytrack,
    /// Pure compute (Figure 8).
    Streamcluster,
    /// Pure compute (Figure 8).
    Raytrace,
    // SPEC CPU2006 (Figure 8).
    /// Pure compute.
    Perlbench,
    /// Pure compute.
    Sjeng,
    /// Pure compute with light I/O syscalls.
    Bzip2,
    // I/O.
    /// iPerf server loop (packets consumed via `NetRecv`).
    IperfServer,
    /// Endless CPU hog pinned beside iPerf (Figure 9).
    Lookbusy,
}

impl Workload {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Exim => "exim",
            Workload::Gmake => "gmake",
            Workload::Psearchy => "psearchy",
            Workload::Memclone => "memclone",
            Workload::Dedup => "dedup",
            Workload::Vips => "vips",
            Workload::Swaptions => "swaptions",
            Workload::Blackscholes => "blackscholes",
            Workload::Bodytrack => "bodytrack",
            Workload::Streamcluster => "streamcluster",
            Workload::Raytrace => "raytrace",
            Workload::Perlbench => "perlbench",
            Workload::Sjeng => "sjeng",
            Workload::Bzip2 => "bzip2",
            Workload::IperfServer => "iperf",
            Workload::Lookbusy => "lookbusy",
        }
    }

    /// Every workload, in declaration order (the scenario-file loader and
    /// fuzzer enumerate this instead of hand-maintaining their own lists).
    pub const ALL: [Workload; 16] = [
        Workload::Exim,
        Workload::Gmake,
        Workload::Psearchy,
        Workload::Memclone,
        Workload::Dedup,
        Workload::Vips,
        Workload::Swaptions,
        Workload::Blackscholes,
        Workload::Bodytrack,
        Workload::Streamcluster,
        Workload::Raytrace,
        Workload::Perlbench,
        Workload::Sjeng,
        Workload::Bzip2,
        Workload::IperfServer,
        Workload::Lookbusy,
    ];

    /// The inverse of [`Workload::name`]: resolves a scenario-file
    /// workload name (`"gmake"`, `"iperf"`, ...) to its variant.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for workloads measured by throughput (work units per second)
    /// rather than execution time.
    pub fn is_throughput(self) -> bool {
        matches!(
            self,
            Workload::Exim | Workload::Psearchy | Workload::IperfServer | Workload::Lookbusy
        )
    }

    /// The calibrated profile with a budget of `iters` iterations per
    /// thread (`None`: endless). Pass [`Workload::default_iters`] for the
    /// workload's own budget.
    pub fn profile(self, iters: Option<u64>) -> WorkloadProfile {
        WorkloadProfile {
            iters,
            ..self.base_profile()
        }
    }

    /// Default iteration budget for execution-time benchmarks (`None` for
    /// endless throughput loops).
    pub fn default_iters(self) -> Option<u64> {
        self.base_profile().iters
    }

    fn base_profile(self) -> WorkloadProfile {
        match self {
            // ~20 µs of kernel time per 60 µs iteration, funneled through
            // hot dentry/page locks: exim's baseline collapses under LHP.
            Workload::Exim => WorkloadProfile {
                name: "exim",
                user_mean: us(25),
                lock_ops: vec![
                    LockOp {
                        lock: LockChoice::Dentry,
                        hold: us(3),
                        prob: 1.0,
                    },
                    LockOp {
                        lock: LockChoice::Dentry,
                        hold: us(3),
                        prob: 0.8,
                    },
                    LockOp {
                        lock: LockChoice::PageAlloc,
                        hold: us(3),
                        prob: 0.9,
                    },
                    LockOp {
                        lock: LockChoice::PageReclaim,
                        hold: us(3),
                        prob: 0.3,
                    },
                    LockOp {
                        lock: LockChoice::Runqueue,
                        hold: us(3),
                        prob: 0.8,
                    },
                ],
                kernel_ops: vec![
                    (sym!("do_fork"), us(12), 0.9),
                    (sym!("vfs_write"), us(6), 0.9),
                ],
                tlb_prob: 0.0,
                tlb_local: SimDuration::ZERO,
                wake_prob: 0.20,
                block_every: None,
                sleep_mean: us(150),
                iters: None, // Throughput benchmark.
            },
            Workload::Gmake => WorkloadProfile {
                name: "gmake",
                user_mean: us(60),
                lock_ops: vec![
                    LockOp {
                        lock: LockChoice::Runqueue,
                        hold: us(3),
                        prob: 0.9,
                    },
                    LockOp {
                        lock: LockChoice::PageAlloc,
                        hold: us(4),
                        prob: 0.9,
                    },
                    LockOp {
                        lock: LockChoice::Dentry,
                        hold: us(3),
                        prob: 0.7,
                    },
                    LockOp {
                        lock: LockChoice::PageReclaim,
                        hold: us(4),
                        prob: 0.2,
                    },
                ],
                kernel_ops: vec![
                    (sym!("do_fork"), us(10), 0.5),
                    (sym!("vfs_read"), us(5), 0.6),
                ],
                tlb_prob: 0.0,
                tlb_local: SimDuration::ZERO,
                wake_prob: 0.05,
                block_every: None,
                sleep_mean: us(200),
                iters: Some(12_000),
            },
            Workload::Psearchy => WorkloadProfile {
                name: "psearchy",
                user_mean: us(80),
                lock_ops: vec![
                    LockOp {
                        lock: LockChoice::Dentry,
                        hold: us(5),
                        prob: 0.9,
                    },
                    LockOp {
                        lock: LockChoice::PageAlloc,
                        hold: us(6),
                        prob: 0.9,
                    },
                    LockOp {
                        lock: LockChoice::PageReclaim,
                        hold: us(4),
                        prob: 0.4,
                    },
                ],
                kernel_ops: vec![(sym!("vfs_read"), us(6), 0.8)],
                tlb_prob: 0.0,
                tlb_local: SimDuration::ZERO,
                wake_prob: 0.15,
                block_every: Some(20),
                sleep_mean: us(300),
                iters: None, // Throughput benchmark.
            },
            Workload::Memclone => WorkloadProfile {
                name: "memclone",
                user_mean: us(110),
                lock_ops: vec![
                    LockOp {
                        lock: LockChoice::PageAlloc,
                        hold: us(4),
                        prob: 1.0,
                    },
                    LockOp {
                        lock: LockChoice::PageAlloc,
                        hold: us(3),
                        prob: 0.8,
                    },
                    LockOp {
                        lock: LockChoice::PageReclaim,
                        hold: us(3),
                        prob: 0.3,
                    },
                ],
                kernel_ops: vec![(sym!("sys_mmap"), us(6), 1.0)],
                // mmap-heavy: mostly page-allocator lock pressure plus a
                // light tail of munmap TLB shootdowns.
                tlb_prob: 0.03,
                tlb_local: us(2),
                wake_prob: 0.0,
                block_every: None,
                sleep_mean: us(300),
                iters: Some(15_000),
            },
            Workload::Dedup => WorkloadProfile {
                name: "dedup",
                user_mean: us(150),
                lock_ops: vec![LockOp {
                    lock: LockChoice::PageAlloc,
                    hold: us(2),
                    prob: 0.4,
                }],
                kernel_ops: vec![(sym!("sys_mmap"), us(4), 0.6)],
                tlb_prob: 0.85,
                tlb_local: us(3),
                wake_prob: 0.05,
                block_every: Some(40),
                sleep_mean: us(300),
                iters: Some(7_000),
            },
            Workload::Vips => WorkloadProfile {
                name: "vips",
                user_mean: us(250),
                lock_ops: vec![LockOp {
                    lock: LockChoice::Dentry,
                    hold: us(2),
                    prob: 0.3,
                }],
                kernel_ops: vec![(sym!("sys_mmap"), us(4), 0.3)],
                tlb_prob: 0.45,
                tlb_local: us(3),
                wake_prob: 0.03,
                block_every: None,
                sleep_mean: us(300),
                iters: Some(6_000),
            },
            Workload::Swaptions => {
                WorkloadProfile::compute("swaptions", SimDuration::from_millis(2), Some(1_800))
            }
            Workload::Blackscholes => {
                WorkloadProfile::compute("blackscholes", SimDuration::from_millis(3), Some(1_000))
            }
            Workload::Bodytrack => WorkloadProfile {
                kernel_ops: vec![(sym!("sys_read"), us(3), 0.05)],
                ..WorkloadProfile::compute("bodytrack", SimDuration::from_millis(2), Some(1_500))
            },
            Workload::Streamcluster => {
                WorkloadProfile::compute("streamcluster", SimDuration::from_millis(4), Some(800))
            }
            Workload::Raytrace => {
                WorkloadProfile::compute("raytrace", SimDuration::from_millis(3), Some(1_000))
            }
            Workload::Perlbench => WorkloadProfile {
                kernel_ops: vec![(sym!("sys_read"), us(3), 0.03)],
                ..WorkloadProfile::compute("perlbench", SimDuration::from_millis(3), Some(1_000))
            },
            Workload::Sjeng => {
                WorkloadProfile::compute("sjeng", SimDuration::from_millis(5), Some(600))
            }
            Workload::Bzip2 => WorkloadProfile {
                kernel_ops: vec![(sym!("vfs_read"), us(4), 0.10)],
                ..WorkloadProfile::compute("bzip2", SimDuration::from_millis(2), Some(1_500))
            },
            Workload::IperfServer => WorkloadProfile {
                name: "iperf",
                user_mean: us(2),
                lock_ops: Vec::new(),
                kernel_ops: Vec::new(),
                tlb_prob: 0.0,
                tlb_local: SimDuration::ZERO,
                wake_prob: 0.0,
                block_every: None,
                sleep_mean: us(300),
                iters: None,
            },
            Workload::Lookbusy => {
                WorkloadProfile::compute("lookbusy", SimDuration::from_millis(10), None)
            }
        }
    }

    /// Builds the program for the thread on `vcpu_idx` of a VM with
    /// `num_vcpus` vCPUs, with a budget of `iters` iterations (`None`:
    /// endless; see [`Workload::profile`]).
    pub fn program(
        self,
        vcpu_idx: u16,
        num_vcpus: u16,
        iters: Option<u64>,
    ) -> Box<dyn guest::segment::Program> {
        if self == Workload::IperfServer {
            // The iPerf server is packet-driven, not profile-driven.
            return Box::new(guest::segment::ScriptedProgram::looping(
                "iperf",
                vec![
                    guest::segment::Segment::NetRecv,
                    guest::segment::Segment::User { dur: us(2) },
                    guest::segment::Segment::WorkUnit,
                ],
            ));
        }
        Box::new(ProfileProgram::new(
            self.profile(iters),
            vcpu_idx,
            num_vcpus,
        ))
    }

    /// The Figure 8 "non-affected" workload set.
    pub fn figure8_set() -> [Workload; 7] {
        [
            Workload::Blackscholes,
            Workload::Bodytrack,
            Workload::Streamcluster,
            Workload::Raytrace,
            Workload::Perlbench,
            Workload::Sjeng,
            Workload::Bzip2,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest::segment::Segment;
    use simcore::rng::SimRng;

    #[test]
    fn every_workload_has_profile_and_program() {
        let all = [
            Workload::Exim,
            Workload::Gmake,
            Workload::Psearchy,
            Workload::Memclone,
            Workload::Dedup,
            Workload::Vips,
            Workload::Swaptions,
            Workload::Blackscholes,
            Workload::Bodytrack,
            Workload::Streamcluster,
            Workload::Raytrace,
            Workload::Perlbench,
            Workload::Sjeng,
            Workload::Bzip2,
            Workload::IperfServer,
            Workload::Lookbusy,
        ];
        let mut rng = SimRng::new(1);
        for w in all {
            let mut prog = w.program(0, 12, w.default_iters());
            assert_eq!(prog.name(), w.name());
            // Programs produce segments without panicking.
            for _ in 0..50 {
                let _ = prog.next_segment(&mut rng);
            }
        }
    }

    #[test]
    fn characterization_matches_paper() {
        // dedup/vips are the TLB stressors; exim/gmake/memclone the lock
        // stressors; swaptions & figure-8 apps stay out of the kernel.
        assert!(Workload::Dedup.profile(None).tlb_prob > 0.3);
        assert!(Workload::Vips.profile(None).tlb_prob > 0.1);
        assert!(Workload::Exim.profile(None).lock_ops.len() >= 4);
        assert!(Workload::Gmake.profile(None).lock_ops.len() >= 3);
        assert!(!Workload::Memclone.profile(None).lock_ops.is_empty());
        assert!(Workload::Swaptions.profile(None).lock_ops.is_empty());
        for w in Workload::figure8_set() {
            let p = w.profile(None);
            assert!(p.lock_ops.is_empty(), "{} should not take locks", p.name);
            assert_eq!(p.tlb_prob, 0.0);
        }
    }

    #[test]
    fn throughput_workloads_are_endless() {
        assert!(Workload::Exim.is_throughput());
        assert_eq!(Workload::Exim.default_iters(), None);
        assert!(Workload::Psearchy.is_throughput());
        assert!(!Workload::Gmake.is_throughput());
        assert!(Workload::Gmake.default_iters().is_some());
    }

    #[test]
    fn iters_override() {
        assert_eq!(Workload::Gmake.profile(Some(5)).iters, Some(5));
        // `None` is endless, never the workload's default budget.
        assert_eq!(Workload::Gmake.profile(None).iters, None);
    }

    #[test]
    fn iperf_program_is_packet_driven() {
        let mut rng = SimRng::new(2);
        let mut p = Workload::IperfServer.program(0, 1, None);
        assert_eq!(p.next_segment(&mut rng), Segment::NetRecv);
    }
}
