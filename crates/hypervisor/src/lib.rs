//! A Xen-like hypervisor substrate, simulated.
//!
//! The paper implements flexible micro-sliced cores as a 1454-line patch to
//! Xen 4.7's credit scheduler and cpupool mechanism (§5). This crate is the
//! substrate that patch needs: a deterministic discrete-event model of a
//! consolidated virtualized server with
//!
//! - physical CPUs grouped into **CPU pools** with per-pool time slices
//!   ([`pool`]), like Xen cpupools;
//! - a **credit-style scheduler** (30 ms default slice, 10 ms tick, 30 ms
//!   accounting, BOOST/UNDER/OVER priorities, per-pCPU run queues, idle
//!   stealing, wakeup boosting) driving vCPUs onto pCPUs;
//! - **pause-loop exiting** (PLE): excessive guest spinning forces a yield,
//!   exactly like the Intel/AMD hardware feature the paper relies on;
//! - the full **guest interaction surface**: voluntary yield hypercalls,
//!   IPI and virtual-IRQ relaying, vCPU blocking/waking;
//! - a [`policy::SchedPolicy`] hook interface through which the
//!   `microslice` crate (the paper's contribution) observes yields and IRQ
//!   events and migrates vCPUs between pools.
//!
//! The heart of the crate is [`machine::Machine`]: it owns the event queue,
//! the pCPUs, the VMs (with their guest-kernel models from the `guest`
//! crate), the statistics, and the policy, and advances simulated time.
#![warn(missing_docs)]

pub mod config;
pub mod crash;
pub mod error;
pub mod faults;
pub mod machine;
pub mod pcpu;
pub mod policy;
pub mod pool;
pub mod stats;
pub mod vcpu;
pub mod vm;

pub use config::MachineConfig;
pub use error::SimError;
pub use faults::{FaultKind, FaultPlan, FaultSpec, FaultSpecError};
pub use machine::{Machine, Snapshot, TraceEvent};
pub use policy::{BaselinePolicy, SchedPolicy, YieldCause};
pub use pool::PoolId;
pub use stats::MachineStats;
pub use vcpu::{Prio, VState, Vcpu};
pub use vm::{TaskSpec, Vm, VmSpec};
