//! Discrete-event simulation core for the micro-sliced cores reproduction.
//!
//! This crate provides the substrate every other crate in the workspace is
//! built on:
//!
//! - [`time`] — nanosecond-resolution simulated time ([`SimTime`]) and
//!   durations ([`SimDuration`]).
//! - [`rng`] — a small, fully deterministic random number generator
//!   ([`SimRng`], SplitMix64-seeded xoshiro256++) with the distributions the
//!   workload models need. Identical seeds yield identical simulations.
//! - [`event`] — a stably-ordered event queue ([`EventQueue`]).
//! - [`trace`] — a bounded trace ring buffer ([`TraceBuffer`]), the analogue
//!   of `xentrace` used by the paper's analysis (§3.1).
//! - [`ids`] — the identifier newtypes (`VmId`, `VcpuId`, `PcpuId`, ...)
//!   shared by the guest-OS model, the hypervisor, and the micro-slice
//!   policy, kept here so those crates do not depend on each other
//!   cyclically.
//!
//! # Examples
//!
//! ```
//! use simcore::event::EventQueue;
//! use simcore::time::{SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(30), "slice expiry");
//! q.push(SimTime::ZERO + SimDuration::from_micros(100), "micro slice expiry");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "micro slice expiry");
//! assert_eq!(t.as_micros(), 100);
//! ```
#![warn(missing_docs)]

pub mod event;
pub mod ids;
pub mod rng;
pub mod time;
pub mod trace;
pub mod watchdog;

pub use event::EventQueue;
pub use ids::{LockId, PcpuId, TaskId, VcpuId, VmId};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::TraceBuffer;
