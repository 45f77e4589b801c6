//! The timing wrapper policy: times every `SchedPolicy` hook call of an
//! inner policy and samples the instruction pointers of yielding vCPUs.
//!
//! The wrapper only reads the machine (`Machine::vcpu_ip`) and forwards
//! every call unchanged, so a wrapped run must reproduce the unwrapped
//! run's digest — the traced pass checks that on every cell.

use hypervisor::policy::{SchedPolicy, YieldCause};
use hypervisor::Machine;
use simcore::ids::{VcpuId, VmId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The timed hooks, in [`Probe`] index order.
pub const HOOKS: [&str; 4] = ["on_yield", "on_virq", "on_resched_ipi", "on_timer"];

/// At most this many yield instruction pointers are kept per probe (the
/// first ones of the run), so a traced cell's memory stays bounded.
pub const MAX_IPS: usize = 1 << 16;

/// Per-hook call counts and total nanoseconds, plus the sampled yield
/// instruction pointers, shared between a [`TimedPolicy`] inside a
/// machine and the benchmark reading it afterwards.
#[derive(Debug, Default)]
pub struct Probe {
    calls: [AtomicU64; 4],
    nanos: [AtomicU64; 4],
    sampled: AtomicU64,
    ips: Mutex<Vec<u64>>,
}

impl Probe {
    /// Calls of hook `h` (an index into [`HOOKS`]).
    pub fn calls(&self, h: usize) -> u64 {
        self.calls[h].load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent inside hook `h`.
    pub fn nanos(&self, h: usize) -> u64 {
        self.nanos[h].load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent inside all hooks.
    pub(crate) fn total_nanos(&self) -> u64 {
        (0..HOOKS.len()).map(|h| self.nanos(h)).sum()
    }

    /// The sampled yield instruction pointers.
    pub fn ips(&self) -> Vec<u64> {
        self.ips
            .lock()
            .expect("no thread panics holding the ip sample")
            .clone()
    }

    fn record(&self, h: usize, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.calls[h].fetch_add(1, Ordering::Relaxed);
        self.nanos[h].fetch_add(ns, Ordering::Relaxed);
    }

    fn sample_ip(&self, ip: u64) {
        if self.sampled.load(Ordering::Relaxed) < MAX_IPS as u64 {
            let mut ips = self
                .ips
                .lock()
                .expect("no thread panics holding the ip sample");
            ips.push(ip);
            self.sampled.store(ips.len() as u64, Ordering::Relaxed);
        }
    }
}

/// Wraps a policy, timing each hook call into a shared [`Probe`].
#[derive(Clone)]
pub struct TimedPolicy {
    inner: Box<dyn SchedPolicy>,
    probe: Arc<Probe>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn SchedPolicy>, probe: Arc<Probe>) -> Self {
        TimedPolicy { inner, probe }
    }
}

impl SchedPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_init(&mut self, machine: &mut Machine) {
        self.inner.on_init(machine);
    }

    fn on_yield(&mut self, machine: &mut Machine, vcpu: VcpuId, cause: YieldCause) {
        self.probe.sample_ip(machine.vcpu_ip(vcpu));
        let t = Instant::now();
        self.inner.on_yield(machine, vcpu, cause);
        self.probe.record(0, t);
    }

    fn on_virq(&mut self, machine: &mut Machine, vm: VmId, target: VcpuId) {
        let t = Instant::now();
        self.inner.on_virq(machine, vm, target);
        self.probe.record(1, t);
    }

    fn on_resched_ipi(&mut self, machine: &mut Machine, target: VcpuId) {
        let t = Instant::now();
        self.inner.on_resched_ipi(machine, target);
        self.probe.record(2, t);
    }

    fn on_timer(&mut self, machine: &mut Machine, id: u64) {
        let t = Instant::now();
        self.inner.on_timer(machine, id);
        self.probe.record(3, t);
    }
}
