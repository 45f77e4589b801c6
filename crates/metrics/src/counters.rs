//! Named monotonic event counters with snapshot/delta support.
//!
//! The adaptive controller of the paper (§4.3, Algorithm 1) decides how many
//! micro-sliced cores to reserve by comparing the number of IPIs, PLEs, and
//! virtual IRQs observed in each profiling interval. That requires cheap
//! monotonic counters plus the ability to take a snapshot and compute the
//! delta since the previous one — exactly what [`CounterSet`] provides.
//!
//! The simulator's own counters are the [`Counter`] enum: each one is a
//! fixed array slot, so the scheduler and step paths bump them with an
//! index instead of a map lookup. Any other `&'static str` name still
//! works and lives in a small side map.

use core::fmt;
use std::collections::BTreeMap;

/// Declares [`Counter`]: one variant per well-known counter, with its
/// rendered name. Keep the list sorted by name — [`Counter::ALL`] order
/// is rendering order, and a unit test enforces it.
macro_rules! well_known_counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// The simulator's well-known counters, in name order.
        ///
        /// These are the keys `MachineStats::counters` carries: the event
        /// counts, plus the robustness keys (faults, invariant checks,
        /// simulation errors) that stay absent unless their feature is
        /// engaged.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Number of well-known counters.
            pub const COUNT: usize = [$($name,)*].len();

            /// Every counter, sorted by [`Counter::name`].
            pub const ALL: [Counter; Counter::COUNT] = [$(Counter::$variant,)*];

            /// The counter's rendered name.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }

            /// The counter called `name`, if it is a well-known one.
            #[inline]
            pub fn from_name(name: &str) -> Option<Counter> {
                match name {
                    $($name => Some(Counter::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

well_known_counters! {
    /// BOOST-priority wakeups.
    Boosts => "boosts",
    /// vCPU context switches onto a pCPU.
    CtxSwitches => "ctx_switches",
    /// Injected credit-skew faults.
    FaultCreditSkew => "fault_credit_skew",
    /// Injected drop-kicks faults.
    FaultDropKicks => "fault_drop_kicks",
    /// Wakeup kicks actually lost to a drop-kicks fault.
    FaultDroppedKicks => "fault_dropped_kicks",
    /// Injected IPI-delay faults.
    FaultIpiDelay => "fault_ipi_delay",
    /// Injected sabotage faults.
    FaultSabotage => "fault_sabotage",
    /// Injected spurious-kick faults.
    FaultSpuriousKick => "fault_spurious_kick",
    /// Injected stolen-time faults.
    FaultStolenTime => "fault_stolen_time",
    /// Injected timer-jitter faults.
    FaultTimerJitter => "fault_timer_jitter",
    /// Injected zero-burst faults.
    FaultZeroBurst => "fault_zero_burst",
    /// Fault-plan entries that fired.
    FaultsInjected => "faults_injected",
    /// Fault-plan entries installed.
    FaultsPlanned => "faults_planned",
    /// Yields of a halting (idle) guest.
    HaltYields => "halt_yields",
    /// `--paranoid` invariant sweeps.
    InvariantChecks => "invariant_checks",
    /// Yields while waiting for IPI acknowledgements.
    IpiYields => "ipi_yields",
    /// TLB-flush IPIs sent by shootdowns.
    IpisSent => "ipis_sent",
    /// vCPU migrations into the micro pool.
    MicroMigrations => "micro_migrations",
    /// Acceleration attempts refused for lack of a micro slot.
    MicroRejects => "micro_rejects",
    /// Yields of any other cause.
    OtherYields => "other_yields",
    /// Pause-loop exits.
    PleExits => "ple_exits",
    /// Policy timer callbacks.
    PolicyTimers => "policy_timers",
    /// Micro-pool resizes.
    PoolResizes => "pool_resizes",
    /// BOOST preemptions of a running vCPU.
    Preemptions => "preemptions",
    /// Relayed guest reschedule IPIs.
    ReschedIpis => "resched_ipis",
    /// Fatal simulation errors recorded.
    SimErrors => "sim_errors",
    /// Idle-pCPU work steals.
    Steals => "steals",
    /// TLB shootdowns started.
    TlbShootdowns => "tlb_shootdowns",
    /// Relayed virtual interrupts.
    Virqs => "virqs",
}

/// A counter key: a well-known [`Counter`], or any other static name.
pub trait CounterKey {
    /// The array slot for a well-known counter, or the name otherwise.
    fn resolve(self) -> Result<Counter, &'static str>;
}

impl CounterKey for Counter {
    #[inline]
    fn resolve(self) -> Result<Counter, &'static str> {
        Ok(self)
    }
}

impl CounterKey for &'static str {
    #[inline]
    fn resolve(self) -> Result<Counter, &'static str> {
        Counter::from_name(self).ok_or(self)
    }
}

/// Ascending indices of the set bits of `mask`.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    core::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let i = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(i)
    })
}

/// A set of named monotonic `u64` counters.
///
/// Well-known [`Counter`]s live in a fixed array plus a presence mask;
/// other names live in a `BTreeMap<&'static str, u64>`. The two never
/// share a name, and a counter is *present* (rendered, iterated, compared)
/// from its first `incr`/`add` — even `add(name, 0)` — until `reset`,
/// exactly as if every name were a map entry. Iteration merges both
/// halves in name order for deterministic reports.
///
/// # Examples
///
/// ```
/// use metrics::counters::{Counter, CounterSet};
///
/// let mut c = CounterSet::new();
/// c.incr(Counter::PleExits);
/// c.add("ipis", 3);
/// let snap = c.snapshot();
/// c.add("ipis", 2);
/// assert_eq!(c.delta_since(&snap).get("ipis"), 2);
/// assert_eq!(c.get("ipis"), 5);
/// assert_eq!(c.get("ple_exits"), c.value(Counter::PleExits));
/// assert_eq!(c.to_string(), "ipis=5 ple_exits=1");
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    /// Well-known values, indexed by `Counter as usize`; zero when absent.
    known: [u64; Counter::COUNT],
    /// Bit `i` set once `Counter::ALL[i]` is present.
    present: u64,
    /// Every other name.
    other: BTreeMap<&'static str, u64>,
}

const _: () = assert!(Counter::COUNT <= 64, "the presence mask is one u64");

impl CounterSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `key` by one.
    #[inline]
    pub fn incr(&mut self, key: impl CounterKey) {
        self.add(key, 1);
    }

    /// Increments `key` by `n`.
    #[inline]
    pub fn add(&mut self, key: impl CounterKey, n: u64) {
        match key.resolve() {
            Ok(c) => {
                self.known[c as usize] += n;
                self.present |= 1 << c as u32;
            }
            Err(name) => *self.other.entry(name).or_insert(0) += n,
        }
    }

    /// Current value of `name` (zero if never incremented).
    pub fn get(&self, name: &str) -> u64 {
        match Counter::from_name(name) {
            Some(c) => self.value(c),
            None => self.other.get(name).copied().unwrap_or(0),
        }
    }

    /// Current value of a well-known counter (zero if never incremented).
    #[inline]
    pub fn value(&self, c: Counter) -> u64 {
        self.known[c as usize]
    }

    /// A copy of the current values.
    pub fn snapshot(&self) -> CounterSet {
        self.clone()
    }

    /// The per-counter increase since `earlier` (saturating at zero, so a
    /// stale snapshot never produces bogus negative deltas).
    pub fn delta_since(&self, earlier: &CounterSet) -> CounterSet {
        let mut delta = CounterSet::new();
        for i in set_bits(self.present) {
            let (now, before) = (self.known[i], earlier.known[i]);
            if now > before {
                delta.known[i] = now - before;
                delta.present |= 1 << i;
            }
        }
        for (&name, &now) in &self.other {
            let before = earlier.other.get(name).copied().unwrap_or(0);
            if now > before {
                delta.other.insert(name, now - before);
            }
        }
        delta
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut known = set_bits(self.present)
            .map(|i| (Counter::ALL[i].name(), self.known[i]))
            .peekable();
        let mut other = self.other.iter().map(|(&k, &v)| (k, v)).peekable();
        core::iter::from_fn(move || match (known.peek(), other.peek()) {
            (Some(a), Some(b)) if b.0 < a.0 => other.next(),
            (Some(_), _) => known.next(),
            (None, _) => other.next(),
        })
    }

    /// Sum of all counter values.
    pub fn total(&self) -> u64 {
        self.known.iter().sum::<u64>() + self.other.values().sum::<u64>()
    }

    /// True if no counter was ever incremented.
    pub fn is_empty(&self) -> bool {
        self.present == 0 && self.other.is_empty()
    }

    /// Resets every counter to zero (removing all entries).
    pub fn reset(&mut self) {
        *self = CounterSet::new();
    }
}

impl fmt::Debug for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, value) in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{name}={value}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_and_get() {
        let mut c = CounterSet::new();
        assert_eq!(c.get("x"), 0);
        c.incr("x");
        c.incr("x");
        c.add("y", 10);
        assert_eq!(c.get("x"), 2);
        assert_eq!(c.get("y"), 10);
        assert_eq!(c.total(), 12);
    }

    #[test]
    fn snapshot_delta() {
        let mut c = CounterSet::new();
        c.add("ipis", 5);
        let snap = c.snapshot();
        c.add("ipis", 7);
        c.add("ples", 2);
        let d = c.delta_since(&snap);
        assert_eq!(d.get("ipis"), 7);
        assert_eq!(d.get("ples"), 2);
        assert_eq!(d.get("virqs"), 0);
    }

    #[test]
    fn delta_against_newer_snapshot_saturates() {
        let mut c = CounterSet::new();
        c.add("x", 3);
        let newer = {
            let mut n = c.clone();
            n.add("x", 10);
            n
        };
        let d = c.delta_since(&newer);
        assert_eq!(d.get("x"), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let mut c = CounterSet::new();
        c.add("zeta", 1);
        c.add("alpha", 2);
        assert_eq!(c.to_string(), "alpha=2 zeta=1");
    }

    #[test]
    fn reset_clears() {
        let mut c = CounterSet::new();
        c.incr("x");
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.get("x"), 0);
    }

    #[test]
    fn well_known_names_are_sorted_and_round_trip() {
        for pair in Counter::ALL.windows(2) {
            assert!(pair[0].name() < pair[1].name(), "{pair:?} out of order");
        }
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::from_name("not_a_counter"), None);
    }

    #[test]
    fn enum_and_string_keys_share_one_slot() {
        let mut c = CounterSet::new();
        c.incr(Counter::Virqs);
        c.add("virqs", 2);
        c.add("ple_exits", 0);
        c.add("aardvark", 1);
        c.add("zebra", 1);
        assert_eq!(c.value(Counter::Virqs), 3);
        assert_eq!(c.to_string(), "aardvark=1 ple_exits=0 virqs=3 zebra=1");
        let mut by_name = CounterSet::new();
        by_name.add("zebra", 1);
        by_name.add("virqs", 3);
        by_name.add("aardvark", 1);
        by_name.add(Counter::PleExits, 0);
        assert_eq!(c, by_name);
    }
}
