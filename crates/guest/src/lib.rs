//! Guest operating-system model.
//!
//! The paper's problem — the *virtual time discontinuity* (§2.1) — arises
//! from the interaction between a hypervisor scheduler and the guest
//! kernel's synchronous protocols: spinlocks, one-to-many TLB-shootdown
//! IPIs, reschedule IPIs, and the vIRQ → IRQ → softIRQ → wakeup I/O chain.
//! This crate models exactly those protocols, as passive state machines the
//! hypervisor machine (the `hypervisor` crate) drives:
//!
//! - [`segment`] — the unit of guest work: programs (workload models) emit
//!   [`Segment`]s; vCPUs consume them while scheduled.
//! - [`task`] — guest threads/processes, their run state and accounting.
//! - [`activity`] — what a vCPU is executing *right now*, including the
//!   interrupt stack; this determines the instruction pointer the
//!   hypervisor resolves on every yield (§4.1).
//! - [`spinlock`] — an unfair (qspinlock-era) kernel spinlock with holder
//!   tracking, exhibiting lock-holder preemption under consolidation.
//! - [`tlb`] — the one-to-many TLB-shootdown protocol with per-vCPU
//!   acknowledgements.
//! - [`net`] — TCP-window / UDP-rate flow bookkeeping for the iPerf
//!   experiments (Table 4c, Figure 9).
//! - [`kernel`] — the per-VM kernel: lock set, in-flight shootdowns, symbol
//!   map handle.
//!
//! Everything here is deterministic, allocation-light, and unit-testable in
//! isolation; scheduling decisions live entirely in the `hypervisor` crate.

pub mod activity;
pub mod kernel;
pub mod net;
pub mod segment;
pub mod spinlock;
pub mod task;
pub mod tlb;

pub use activity::{Activity, KWork, VcpuCtx};
pub use kernel::{LockKind, VmKernel};
pub use segment::{Program, Segment};
pub use task::{Task, TaskState};
pub use tlb::{ShootdownId, ShootdownTable, VcpuSet};
