//! Deterministic fault injection.
//!
//! Timing simulators are only trustworthy when their state machine
//! survives perturbed inputs, so the machine can inject anomalies at its
//! existing hook points: delayed or dropped IPI/kick deliveries, spurious
//! wakeup kicks, stolen-time spikes on a pCPU, and bursts of zero-time
//! guest segments. The whole plan is derived up front from a
//! [`FaultSpec`] by a dedicated RNG stream (never the machine's own
//! [`SimRng`]), so
//!
//! - an empty plan is byte-identical to a run without fault injection,
//!   and
//! - a given `(machine seed, fault seed)` pair always injects the same
//!   anomalies at the same instants, regardless of job count or platform.
//!
//! Faults *perturb* the simulation but never bypass its rules: a dropped
//! kick still leaves the interrupt work queued (the target notices at its
//! next transition), stolen time inflates the remaining work of the
//! current activity, and zero-time bursts stay far below the step guard.
//! After every applied fault the machine runs
//! [`Machine::check_invariants`](crate::Machine::check_invariants) and
//! poisons itself with a [`SimError`](crate::SimError) on violation.

use crate::machine::{Event, Machine};
use metrics::counters::Counter;
use simcore::ids::{PcpuId, VcpuId, VmId};
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};

/// Bit flag for [`FaultKind::IpiDelay`] in [`FaultSpec::kinds`].
pub const KIND_IPI_DELAY: u8 = 1 << 0;
/// Bit flag for [`FaultKind::DropKicks`] in [`FaultSpec::kinds`].
pub const KIND_DROP_KICKS: u8 = 1 << 1;
/// Bit flag for [`FaultKind::SpuriousKick`] in [`FaultSpec::kinds`].
pub const KIND_SPURIOUS_KICK: u8 = 1 << 2;
/// Bit flag for [`FaultKind::StolenTime`] in [`FaultSpec::kinds`].
pub const KIND_STOLEN_TIME: u8 = 1 << 3;
/// Bit flag for [`FaultKind::ZeroBurst`] in [`FaultSpec::kinds`].
pub const KIND_ZERO_BURST: u8 = 1 << 4;
/// Bit flag for [`FaultKind::TimerJitter`] in [`FaultSpec::kinds`].
pub const KIND_TIMER_JITTER: u8 = 1 << 5;
/// Bit flag for [`FaultKind::CreditSkew`] in [`FaultSpec::kinds`].
pub const KIND_CREDIT_SKEW: u8 = 1 << 6;
/// Bit flag for [`FaultKind::CreditSabotage`] in [`FaultSpec::kinds`].
///
/// Deliberately **excluded** from [`KIND_ALL`]: sabotage plants an
/// out-of-range credit value that the post-fault invariant sweep is
/// guaranteed to catch, poisoning the machine. It exists to exercise the
/// crash-artifact pipeline end to end (`kinds=sabotage`), not to model a
/// survivable anomaly.
pub const KIND_SABOTAGE: u8 = 1 << 7;
/// All *survivable* fault kinds enabled ([`KIND_SABOTAGE`] excluded).
pub const KIND_ALL: u8 = KIND_IPI_DELAY
    | KIND_DROP_KICKS
    | KIND_SPURIOUS_KICK
    | KIND_STOLEN_TIME
    | KIND_ZERO_BURST
    | KIND_TIMER_JITTER
    | KIND_CREDIT_SKEW;

/// Ceiling on injected zero-time segments per task, kept well below the
/// machine's step guard (100 000) so injection can never fake a broken
/// program.
const MAX_PENDING_BURST: u32 = 50_000;

/// One concrete anomaly to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Add `extra` latency to every subsequent kick/IPI delivery to a
    /// running vCPU (event-delivery jitter; `extra == 0` restores the
    /// configured latency). The planner emits set/clear pairs.
    IpiDelay {
        /// Extra delivery latency.
        extra: SimDuration,
    },
    /// Swallow the next `count` kick deliveries to running vCPUs. The
    /// interrupt work itself is still queued — the target notices it at
    /// its next transition or dispatch, modelling a lost wakeup IPI whose
    /// work is recovered by polling.
    DropKicks {
        /// How many kicks to swallow.
        count: u32,
    },
    /// Deliver a kick that nobody sent (spurious wakeup).
    SpuriousKick {
        /// The kicked vCPU.
        vcpu: VcpuId,
    },
    /// A stolen-time spike: whatever is running on `pcpu` loses `steal`
    /// of progress (its current activity's remaining work grows).
    StolenTime {
        /// The afflicted pCPU.
        pcpu: PcpuId,
        /// How much progress is lost.
        steal: SimDuration,
    },
    /// Make a task emit `count` zero-time work units before its next real
    /// segment (an ill-behaved program burst).
    ZeroBurst {
        /// The VM owning the task.
        vm: VmId,
        /// Task index within the VM.
        task: u32,
        /// Number of zero-time segments.
        count: u32,
    },
    /// Timer-coalescing jitter: the next scheduler tick is rescheduled
    /// `delay` late, modelling a host that coalesced the tick interrupt
    /// with other timer work. One-shot per entry; the tick cadence
    /// self-corrects afterwards.
    TimerJitter {
        /// How late the next tick fires.
        delay: SimDuration,
    },
    /// Credit-accounting skew: a vCPU's credit balance is nudged by
    /// `skew`, clamped to the scheduler's legal `[-cap, cap]` range —
    /// modelling lost or double-counted accounting ticks. Priorities may
    /// flip; invariants must hold.
    CreditSkew {
        /// The afflicted vCPU.
        vcpu: VcpuId,
        /// Signed credit adjustment (clamped on application).
        skew: i64,
    },
    /// Deliberate invariant sabotage: plants an out-of-range credit value
    /// so the post-fault invariant sweep fails and poisons the machine.
    /// See [`KIND_SABOTAGE`].
    CreditSabotage {
        /// The vCPU whose credits are driven out of range.
        vcpu: VcpuId,
    },
}

impl FaultKind {
    /// The counter incremented when this fault is applied.
    pub fn counter(&self) -> Counter {
        match self {
            FaultKind::IpiDelay { .. } => Counter::FaultIpiDelay,
            FaultKind::DropKicks { .. } => Counter::FaultDropKicks,
            FaultKind::SpuriousKick { .. } => Counter::FaultSpuriousKick,
            FaultKind::StolenTime { .. } => Counter::FaultStolenTime,
            FaultKind::ZeroBurst { .. } => Counter::FaultZeroBurst,
            FaultKind::TimerJitter { .. } => Counter::FaultTimerJitter,
            FaultKind::CreditSkew { .. } => Counter::FaultCreditSkew,
            FaultKind::CreditSabotage { .. } => Counter::FaultSabotage,
        }
    }
}

/// A planned anomaly: what happens, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEntry {
    /// When the anomaly fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// User-facing fault configuration — the `--faults <spec>` argument.
///
/// The spec is intentionally small and `Copy`: it describes *how much*
/// chaos to plan, not the individual anomalies. The concrete
/// [`FaultPlan`] is derived deterministically from the spec and the
/// machine topology by [`Machine::install_faults`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed of the dedicated fault-planning RNG stream (mixed with the
    /// machine seed, so per-cell seed offsets vary the plan too).
    pub seed: u64,
    /// Number of anomalies to plan.
    pub count: u32,
    /// Enabled fault kinds ([`KIND_ALL`] and friends OR-ed together).
    pub kinds: u8,
    /// Time span over which the anomalies are spread, starting at 1 ms
    /// (so boot-time placement is never perturbed mid-construction).
    pub window: SimDuration,
    /// Keep only the first `take` planned entries (after time-sorting);
    /// `0` keeps the whole plan. This is the shrink/replay knob: a crash
    /// artifact's minimal reproducer is the original spec plus `take=K`.
    pub take: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0xFA_017,
            count: 32,
            kinds: KIND_ALL,
            window: SimDuration::from_millis(2_000),
            take: 0,
        }
    }
}

/// A malformed `--faults` spec: which token is wrong, where it sits in
/// the input, and why it was rejected. Never panics, never silently
/// defaults — the caller decides how to surface it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The offending token, verbatim.
    pub token: String,
    /// Byte span `[start, end)` of the token within the spec string.
    pub span: (usize, usize),
    /// What is wrong with the token.
    pub reason: String,
}

impl core::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "bad fault spec at bytes {}..{}: {:?}: {}",
            self.span.0, self.span.1, self.token, self.reason
        )
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultSpecError {
    fn at(token: &str, start: usize, reason: impl Into<String>) -> Self {
        FaultSpecError {
            token: token.to_string(),
            span: (start, start + token.len()),
            reason: reason.into(),
        }
    }
}

/// Trims `s`, returning the trimmed slice and its byte offset from the
/// start of the untrimmed input.
fn trimmed(s: &str, base: usize) -> (&str, usize) {
    let lead = s.len() - s.trim_start().len();
    (s.trim(), base + lead)
}

/// The canonical names of the single-bit fault kinds, in bit order.
const KIND_NAMES: [(u8, &str); 8] = [
    (KIND_IPI_DELAY, "ipi"),
    (KIND_DROP_KICKS, "drop"),
    (KIND_SPURIOUS_KICK, "kick"),
    (KIND_STOLEN_TIME, "steal"),
    (KIND_ZERO_BURST, "burst"),
    (KIND_TIMER_JITTER, "jitter"),
    (KIND_CREDIT_SKEW, "skew"),
    (KIND_SABOTAGE, "sabotage"),
];

impl FaultSpec {
    /// Parses a `--faults` argument: comma-separated `key=value` pairs.
    ///
    /// Keys: `count=N`, `seed=S`, `window_ms=M`, `take=K`, and
    /// `kinds=ipi|drop|kick|steal|burst|jitter|skew|sabotage|all`
    /// (pipe-separated; `all` is every kind except `sabotage`). Unset
    /// keys keep their defaults; the empty string is the default spec.
    /// Malformed input yields a typed [`FaultSpecError`] naming the
    /// offending token and its byte span.
    pub fn parse(s: &str) -> Result<FaultSpec, FaultSpecError> {
        let mut spec = FaultSpec::default();
        let mut offset = 0usize;
        for raw in s.split(',') {
            let part_start = offset;
            offset += raw.len() + 1; // The split consumed one comma.
            let (part, part_at) = trimmed(raw, part_start);
            if part.is_empty() {
                continue;
            }
            let Some(eq) = part.find('=') else {
                return Err(FaultSpecError::at(part, part_at, "expected key=value"));
            };
            let (key, key_at) = trimmed(&part[..eq], part_at);
            let (value, value_at) = trimmed(&part[eq + 1..], part_at + eq + 1);
            match key {
                "count" => {
                    spec.count = value.parse().map_err(|_| {
                        FaultSpecError::at(value, value_at, "count must be an unsigned integer")
                    })?;
                }
                "seed" => {
                    spec.seed = value.parse().map_err(|_| {
                        FaultSpecError::at(value, value_at, "seed must be an unsigned integer")
                    })?;
                }
                "take" => {
                    spec.take = value.parse().map_err(|_| {
                        FaultSpecError::at(value, value_at, "take must be an unsigned integer")
                    })?;
                }
                "window_ms" => {
                    let ms: u64 = value.parse().map_err(|_| {
                        FaultSpecError::at(value, value_at, "window_ms must be an unsigned integer")
                    })?;
                    if ms == 0 {
                        return Err(FaultSpecError::at(
                            value,
                            value_at,
                            "window_ms must be positive",
                        ));
                    }
                    if ms > u64::MAX / 1_000_000 {
                        return Err(FaultSpecError::at(
                            value,
                            value_at,
                            "window_ms overflows the nanosecond clock",
                        ));
                    }
                    spec.window = SimDuration::from_millis(ms);
                }
                "kinds" => {
                    let mut kinds = 0u8;
                    let mut name_offset = value_at;
                    for raw_name in value.split('|') {
                        let (name, name_at) = trimmed(raw_name, name_offset);
                        name_offset += raw_name.len() + 1;
                        if name == "all" {
                            kinds |= KIND_ALL;
                            continue;
                        }
                        match KIND_NAMES.iter().find(|(_, n)| *n == name) {
                            Some((bit, _)) => kinds |= bit,
                            None => {
                                return Err(FaultSpecError::at(
                                    name,
                                    name_at,
                                    "unknown fault kind (expected \
                                     ipi|drop|kick|steal|burst|jitter|skew|sabotage|all)",
                                ));
                            }
                        }
                    }
                    if kinds == 0 {
                        return Err(FaultSpecError::at(value, value_at, "enables no kinds"));
                    }
                    spec.kinds = kinds;
                }
                _ => {
                    return Err(FaultSpecError::at(
                        key,
                        key_at,
                        "unknown key (expected count, seed, window_ms, take, or kinds)",
                    ));
                }
            }
        }
        Ok(spec)
    }
}

impl core::fmt::Display for FaultSpec {
    /// Renders the spec in its own parse syntax, so
    /// `FaultSpec::parse(&spec.to_string())` round-trips. This is the
    /// form crash artifacts embed in replay commands.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "count={},seed={},window_ms={}",
            self.count,
            self.seed,
            self.window.as_nanos() / 1_000_000
        )?;
        let mut names = Vec::new();
        let mut rest = self.kinds;
        if rest & KIND_ALL == KIND_ALL {
            names.push("all");
            rest &= !KIND_ALL;
        }
        for (bit, name) in KIND_NAMES {
            if rest & bit != 0 {
                names.push(name);
            }
        }
        if !names.is_empty() {
            write!(f, ",kinds={}", names.join("|"))?;
        }
        if self.take > 0 {
            write!(f, ",take={}", self.take)?;
        }
        Ok(())
    }
}

/// The concrete, fully resolved schedule of anomalies for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Planned anomalies, sorted by firing time.
    pub entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// The most entries a plan derived from `spec` installs, whatever the
    /// machine: one per planned anomaly, two for an IPI delay (its set and
    /// clear), at most `take` when that is set. Zero means the spec
    /// injects nothing.
    pub fn max_len(spec: &FaultSpec) -> u32 {
        let per_anomaly = match spec.kinds {
            0 => 0,
            kinds if kinds & KIND_IPI_DELAY != 0 => 2,
            _ => 1,
        };
        let planned = spec.count.saturating_mul(per_anomaly);
        match spec.take {
            0 => planned,
            take => planned.min(take),
        }
    }

    /// Derives a plan from a spec and the machine topology.
    ///
    /// `machine_seed` is mixed into the planning stream so per-cell seed
    /// offsets (each grid cell runs with a derived machine seed) get
    /// distinct plans from one `--faults` spec. The machine's own RNG is
    /// never consulted — planning cannot shift the simulation's stream.
    pub fn generate(
        spec: &FaultSpec,
        machine_seed: u64,
        num_pcpus: u16,
        vcpus_per_vm: &[u16],
        tasks_per_vm: &[u32],
    ) -> FaultPlan {
        // SIMLINT: the fault-stream split (PR 2) — decorrelated from the
        // machine stream by construction so plans never perturb workloads.
        let mut rng = SimRng::new(spec.seed ^ machine_seed.rotate_left(17) ^ 0xFA01_7000_0000_0001);
        let mut enabled = Vec::new();
        for (kind, _) in KIND_NAMES {
            if spec.kinds & kind != 0 {
                enabled.push(kind);
            }
        }
        let mut entries = Vec::new();
        if enabled.is_empty() || vcpus_per_vm.is_empty() {
            return FaultPlan { entries };
        }
        let lo = SimDuration::from_millis(1);
        let hi = lo + spec.window;
        let pick_vcpu = |rng: &mut SimRng| {
            let vm = rng.below(vcpus_per_vm.len() as u64) as usize;
            let idx = rng.below(vcpus_per_vm[vm].max(1) as u64) as u16;
            VcpuId::new(VmId(vm as u16), idx)
        };
        for _ in 0..spec.count {
            let at = SimTime::ZERO + rng.uniform_duration(lo, hi);
            let kind = *rng.pick(&enabled);
            match kind {
                KIND_IPI_DELAY => {
                    let extra = rng.uniform_duration(
                        SimDuration::from_micros(1),
                        SimDuration::from_micros(50),
                    );
                    let hold = rng.uniform_duration(
                        SimDuration::from_micros(200),
                        SimDuration::from_millis(2),
                    );
                    entries.push(FaultEntry {
                        at,
                        kind: FaultKind::IpiDelay { extra },
                    });
                    entries.push(FaultEntry {
                        at: at + hold,
                        kind: FaultKind::IpiDelay {
                            extra: SimDuration::ZERO,
                        },
                    });
                }
                KIND_DROP_KICKS => entries.push(FaultEntry {
                    at,
                    kind: FaultKind::DropKicks {
                        count: 1 + rng.below(4) as u32,
                    },
                }),
                KIND_SPURIOUS_KICK => entries.push(FaultEntry {
                    at,
                    kind: FaultKind::SpuriousKick {
                        vcpu: pick_vcpu(&mut rng),
                    },
                }),
                KIND_STOLEN_TIME => entries.push(FaultEntry {
                    at,
                    kind: FaultKind::StolenTime {
                        pcpu: PcpuId(rng.below(num_pcpus.max(1) as u64) as u16),
                        steal: rng.uniform_duration(
                            SimDuration::from_micros(100),
                            SimDuration::from_millis(2),
                        ),
                    },
                }),
                KIND_ZERO_BURST => {
                    let vm = rng.below(tasks_per_vm.len() as u64) as usize;
                    let tasks = tasks_per_vm[vm];
                    if tasks == 0 {
                        continue; // A task-less VM has nothing to burst.
                    }
                    entries.push(FaultEntry {
                        at,
                        kind: FaultKind::ZeroBurst {
                            vm: VmId(vm as u16),
                            task: rng.below(tasks as u64) as u32,
                            count: 1 + rng.below(1_000) as u32,
                        },
                    });
                }
                KIND_TIMER_JITTER => entries.push(FaultEntry {
                    at,
                    kind: FaultKind::TimerJitter {
                        // Well under the 10 ms tick, so the cadence skews
                        // rather than skips.
                        delay: rng.uniform_duration(
                            SimDuration::from_micros(10),
                            SimDuration::from_micros(500),
                        ),
                    },
                }),
                KIND_CREDIT_SKEW => {
                    // Abstract credit units; the application clamps to
                    // the scheduler's legal range whatever the config.
                    let magnitude = 1 + rng.below(150) as i64;
                    let skew = if rng.chance(0.5) {
                        magnitude
                    } else {
                        -magnitude
                    };
                    entries.push(FaultEntry {
                        at,
                        kind: FaultKind::CreditSkew {
                            vcpu: pick_vcpu(&mut rng),
                            skew,
                        },
                    });
                }
                KIND_SABOTAGE => entries.push(FaultEntry {
                    at,
                    kind: FaultKind::CreditSabotage {
                        vcpu: pick_vcpu(&mut rng),
                    },
                }),
                // PANIC-OK(`enabled` holds single-bit kinds only, by construction of the mask split)
                _ => unreachable!("enabled holds single-bit kinds only"),
            }
        }
        entries.sort_by_key(|e| e.at);
        FaultPlan { entries }
    }
}

/// Live fault state carried by the machine.
#[derive(Clone, Debug, Default)]
pub(crate) struct FaultState {
    /// The plan (indexed by the `seq` of `Event::Fault`).
    pub(crate) plan: FaultPlan,
    /// Extra latency currently added to kick deliveries.
    pub(crate) ipi_extra: SimDuration,
    /// Kick deliveries still to swallow.
    pub(crate) drop_kicks: u32,
    /// One-shot delay applied to the next tick reschedule (timer
    /// coalescing jitter).
    pub(crate) tick_jitter: SimDuration,
}

impl Machine {
    /// Installs a fault plan derived from `spec`: schedules one
    /// `Event::Fault` per planned entry. Call at most once, right after
    /// construction (before any `run_until_*`).
    ///
    /// [`FaultSpec::take`] truncates the time-sorted plan to its first K
    /// entries — the mechanism crash artifacts use to bisect a failing
    /// plan to a minimal reproducer.
    pub fn install_faults(&mut self, spec: &FaultSpec) {
        let vcpus_per_vm: Vec<u16> = self.vcpus.iter().map(|v| v.len() as u16).collect();
        let tasks_per_vm: Vec<u32> = self.vms.iter().map(|vm| vm.tasks.len() as u32).collect();
        let mut plan = FaultPlan::generate(
            spec,
            self.cfg.seed,
            self.cfg.num_pcpus,
            &vcpus_per_vm,
            &tasks_per_vm,
        );
        if spec.take > 0 {
            plan.entries.truncate(spec.take as usize);
        }
        if plan.entries.is_empty() {
            // An empty plan must leave the machine byte-identical to one
            // that never had faults installed — including its counters.
            return;
        }
        self.stats
            .counters
            .add(Counter::FaultsPlanned, plan.entries.len() as u64);
        for (seq, entry) in plan.entries.iter().enumerate() {
            self.push_event(entry.at, Event::Fault { seq: seq as u32 });
        }
        self.faults.plan = plan;
    }

    /// Applies one planned anomaly, then validates machine invariants.
    pub(crate) fn apply_fault(&mut self, seq: u32) {
        let Some(entry) = self.faults.plan.entries.get(seq as usize).copied() else {
            return; // No plan installed (stale event): nothing to do.
        };
        self.stats.counters.incr(Counter::FaultsInjected);
        self.stats.counters.incr(entry.kind.counter());
        match entry.kind {
            FaultKind::IpiDelay { extra } => {
                self.faults.ipi_extra = extra;
            }
            FaultKind::DropKicks { count } => {
                self.faults.drop_kicks = self.faults.drop_kicks.saturating_add(count);
            }
            FaultKind::SpuriousKick { vcpu } => {
                // A stray kick event: the handler already tolerates
                // non-running targets, so this exercises exactly the
                // stale-wakeup path real IPIs hit.
                self.push_event(self.now, Event::Kick { vcpu });
            }
            FaultKind::StolenTime { pcpu, steal } => {
                if let Some(vcpu) = self.pcpus[pcpu.0 as usize].current {
                    self.account_progress(vcpu);
                    self.vcpu_mut(vcpu).ctx.activity.inflate(steal);
                    // Re-plan: the previously planned stop is now too
                    // early for the inflated activity.
                    self.vcpu_mut(vcpu).bump_gen();
                    self.push_event(self.now, Event::Kick { vcpu });
                }
            }
            FaultKind::ZeroBurst { vm, task, count } => {
                let t = &mut self.vms[vm.0 as usize].tasks[task as usize];
                if t.state != guest::task::TaskState::Finished {
                    t.pending_burst = t.pending_burst.saturating_add(count).min(MAX_PENDING_BURST);
                }
            }
            FaultKind::TimerJitter { delay } => {
                self.faults.tick_jitter = delay;
            }
            FaultKind::CreditSkew { vcpu, skew } => {
                let cap = self.cfg.credit_cap;
                let vc = self.vcpu_mut(vcpu);
                vc.credits = (vc.credits + skew).clamp(-cap, cap);
            }
            FaultKind::CreditSabotage { vcpu } => {
                // Out-of-range on purpose: the invariant sweep below is
                // guaranteed to fail and poison the machine.
                let cap = self.cfg.credit_cap;
                self.vcpu_mut(vcpu).credits = cap.saturating_mul(2).saturating_add(1);
            }
        }
        self.stats.counters.incr(Counter::InvariantChecks);
        if let Err(e) = self.check_invariants() {
            self.fail(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_rejects() {
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
        let s = FaultSpec::parse("count=7,seed=99,window_ms=500,kinds=ipi|steal,take=3").unwrap();
        assert_eq!(s.count, 7);
        assert_eq!(s.seed, 99);
        assert_eq!(s.window, SimDuration::from_millis(500));
        assert_eq!(s.kinds, KIND_IPI_DELAY | KIND_STOLEN_TIME);
        assert_eq!(s.take, 3);
        let s = FaultSpec::parse("kinds=jitter|skew|sabotage").unwrap();
        assert_eq!(
            s.kinds,
            KIND_TIMER_JITTER | KIND_CREDIT_SKEW | KIND_SABOTAGE
        );
        let s = FaultSpec::parse("kinds=all").unwrap();
        assert_eq!(s.kinds, KIND_ALL);
        assert_eq!(s.kinds & KIND_SABOTAGE, 0, "all must exclude sabotage");
    }

    /// The satellite table: every malformed spec yields a typed error
    /// naming the offending token and its byte span — no panic, no
    /// silent default.
    #[test]
    fn bad_specs_report_token_and_span() {
        // (input, expected offending token, expected span start).
        let table: &[(&str, &str, usize)] = &[
            ("count", "count", 0),
            ("count=x", "x", 6),
            ("count=-1", "-1", 6),
            ("seed=1.5", "1.5", 5),
            ("take=no", "no", 5),
            ("bogus=1", "bogus", 0),
            ("count=3,bogus=1", "bogus", 8),
            ("window_ms=0", "0", 10),
            ("window_ms=ten", "ten", 10),
            ("window_ms=18446744073710", "18446744073710", 10),
            ("kinds=warp", "warp", 6),
            ("kinds=ipi|warp", "warp", 10),
            ("count=3, kinds=ipi|, seed=1", "", 19),
            ("count=3,,count=", "", 15),
            ("=5", "", 0),
        ];
        for (input, token, start) in table {
            let e = FaultSpec::parse(input).expect_err(&format!("spec {input:?} must be rejected"));
            assert_eq!(&e.token, token, "token for {input:?}: {e}");
            assert_eq!(e.span.0, *start, "span start for {input:?}: {e}");
            assert_eq!(e.span.1, start + token.len(), "span end for {input:?}");
            assert!(
                e.to_string().contains(&format!("{token:?}")),
                "display must quote the token: {e}"
            );
        }
    }

    /// Crash artifacts embed `spec.to_string()` in replay commands, so
    /// the rendering must round-trip through the parser.
    #[test]
    fn display_round_trips_through_parse() {
        let specs = [
            FaultSpec::default(),
            FaultSpec {
                seed: 12345,
                count: 7,
                kinds: KIND_TIMER_JITTER | KIND_CREDIT_SKEW,
                window: SimDuration::from_millis(750),
                take: 9,
            },
            FaultSpec {
                kinds: KIND_ALL | KIND_SABOTAGE,
                ..FaultSpec::default()
            },
            FaultSpec {
                kinds: KIND_SABOTAGE,
                take: 1,
                ..FaultSpec::default()
            },
        ];
        for spec in specs {
            let rendered = spec.to_string();
            assert_eq!(
                FaultSpec::parse(&rendered).unwrap(),
                spec,
                "round-trip failed for {rendered:?}"
            );
        }
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let spec = FaultSpec::default();
        let a = FaultPlan::generate(&spec, 1, 4, &[2, 2], &[2, 2]);
        let b = FaultPlan::generate(&spec, 1, 4, &[2, 2], &[2, 2]);
        assert_eq!(a, b);
        let c = FaultPlan::generate(&spec, 2, 4, &[2, 2], &[2, 2]);
        assert_ne!(a, c, "machine seed must vary the plan");
        let other = FaultSpec {
            seed: 1,
            ..FaultSpec::default()
        };
        let d = FaultPlan::generate(&other, 1, 4, &[2, 2], &[2, 2]);
        assert_ne!(a, d, "fault seed must vary the plan");
    }

    #[test]
    fn plans_are_sorted_and_respect_kind_mask() {
        let spec = FaultSpec {
            count: 64,
            kinds: KIND_SPURIOUS_KICK,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(&spec, 7, 4, &[2, 2], &[2, 2]);
        assert_eq!(plan.entries.len(), 64);
        assert_eq!(FaultPlan::max_len(&spec), 64);
        for w in plan.entries.windows(2) {
            assert!(w[0].at <= w[1].at, "plan not sorted");
        }
        for e in &plan.entries {
            assert!(matches!(e.kind, FaultKind::SpuriousKick { .. }));
        }
    }

    #[test]
    fn zero_count_plan_is_empty() {
        let spec = FaultSpec {
            count: 0,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::generate(&spec, 7, 4, &[2], &[2]);
        assert!(plan.entries.is_empty());
        assert_eq!(FaultPlan::max_len(&spec), 0);
    }

    /// The bound holds for every kind mix, counts an IPI delay's set and
    /// clear, and is capped by `take`.
    #[test]
    fn max_len_bounds_every_plan() {
        let len = |spec: &FaultSpec| {
            FaultPlan::generate(spec, 7, 4, &[2, 2], &[2, 2])
                .entries
                .len() as u32
        };
        for seed in 0..8 {
            let all = FaultSpec {
                seed,
                count: 40,
                ..FaultSpec::default()
            };
            assert!(len(&all) <= FaultPlan::max_len(&all));
        }
        let ipi = FaultSpec {
            count: 40,
            kinds: KIND_IPI_DELAY,
            ..FaultSpec::default()
        };
        assert_eq!((len(&ipi), FaultPlan::max_len(&ipi)), (80, 80));
        assert_eq!(FaultPlan::max_len(&FaultSpec { take: 3, ..ipi }), 3);
        assert_eq!(FaultPlan::max_len(&FaultSpec { take: 100, ..ipi }), 80);
    }
}
