//! Equivalence suite for the data-oriented hot-path rewrites.
//!
//! Four structures were rewritten for the hot path — the SoA run queue
//! (`hypervisor::pcpu`), the flattened program arena
//! (`guest::segment::FlatProgram`), the pool-sharded event queue
//! (`simcore::event::ShardedEventQueue`), and the enum-indexed counter
//! set (`metrics::counters::CounterSet`). Each claims *observable
//! equivalence* with the representation it replaced. This suite checks
//! that claim twice over:
//!
//! - structurally, against reference models written here that reproduce
//!   the replaced implementations verbatim (the `VecDeque` run queue,
//!   direct `Box<dyn Program>` pulls, a single flat `EventQueue`, the
//!   `BTreeMap` counter set), driven through long pseudo-random op
//!   sequences; and
//! - end-to-end, on the fig4 and table2 quick grids: the rendered bytes
//!   must be identical across seeds and across `--jobs 1` vs `--jobs 8`
//!   (the fan-out path exercises these structures concurrently).

use guest::segment::{FlatProgram, Program, ScriptedProgram, Segment};
use hypervisor::pcpu::{first_rank_above, Pcpu, RunqEntry};
use hypervisor::Prio;
use metrics::counters::{Counter, CounterSet};
use simcore::event::{EventQueue, ShardedEventQueue};
use simcore::ids::{PcpuId, VcpuId, VmId};
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use workloads::Workload;

// ---------------------------------------------------------------------
// SoA run queue vs the replaced VecDeque implementation.
// ---------------------------------------------------------------------

/// The pre-rewrite run queue, verbatim: a `VecDeque<RunqEntry>` with
/// linear insert-position scans and a stable sort on refresh.
#[derive(Default)]
struct RefRunq {
    runq: std::collections::VecDeque<RunqEntry>,
}

impl RefRunq {
    fn enqueue(&mut self, vcpu: VcpuId, prio: Prio) {
        let pos = self
            .runq
            .iter()
            .position(|e| e.prio.rank() > prio.rank())
            .unwrap_or(self.runq.len());
        self.runq.insert(pos, RunqEntry { vcpu, prio });
    }

    fn enqueue_yield(&mut self, vcpu: VcpuId, prio: Prio) {
        let pos = self
            .runq
            .iter()
            .position(|e| e.prio.rank() > prio.rank())
            .unwrap_or(self.runq.len());
        let pos = (pos + 1).min(self.runq.len());
        self.runq.insert(pos, RunqEntry { vcpu, prio });
    }

    fn pop(&mut self) -> Option<RunqEntry> {
        self.runq.pop_front()
    }

    fn refresh_prios(&mut self, live: &[(VcpuId, Prio)]) {
        for entry in &mut self.runq {
            if let Some((_, prio)) = live.iter().find(|(v, _)| *v == entry.vcpu) {
                entry.prio = *prio;
            }
        }
        let mut entries: Vec<RunqEntry> = self.runq.drain(..).collect();
        entries.sort_by_key(|e| e.prio.rank());
        self.runq.extend(entries);
    }

    fn head_prio(&self) -> Option<Prio> {
        self.runq.front().map(|e| e.prio)
    }

    fn remove(&mut self, vcpu: VcpuId) -> bool {
        if let Some(pos) = self.runq.iter().position(|e| e.vcpu == vcpu) {
            self.runq.remove(pos);
            true
        } else {
            false
        }
    }

    fn steal_tail(&mut self, admit: impl Fn(VcpuId) -> bool) -> Option<RunqEntry> {
        let pos = self.runq.iter().rposition(|e| admit(e.vcpu))?;
        self.runq.remove(pos)
    }

    fn entries(&self) -> Vec<RunqEntry> {
        self.runq.iter().copied().collect()
    }
}

/// The scalar insert-position scan `first_rank_above` replaced, verbatim.
fn scalar_first_rank_above(keys: &[u8], rank: u8) -> usize {
    keys.iter().position(|&k| k > rank).unwrap_or(keys.len())
}

/// The SWAR insert-position scan must agree with the scalar scan on
/// every length (word-aligned and ragged tails), every rank the queue
/// produces, and the degenerate ranks that force the scalar fallback.
#[test]
fn swar_insert_scan_matches_scalar_reference() {
    // Exhaustive over realistic queues: all sorted rank-triple contents
    // up to length 12 would be huge, so sweep lengths with pseudo-random
    // sorted and unsorted fills instead, plus the all-equal edges.
    let mut rng = SimRng::new(0x54A2);
    for len in 0..40usize {
        for _ in 0..64 {
            let mut keys: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 3) as u8).collect();
            for rank in 0..4u8 {
                assert_eq!(
                    first_rank_above(&keys, rank),
                    scalar_first_rank_above(&keys, rank),
                    "unsorted keys {keys:?}, rank {rank}"
                );
            }
            keys.sort_unstable();
            for rank in 0..4u8 {
                assert_eq!(
                    first_rank_above(&keys, rank),
                    scalar_first_rank_above(&keys, rank),
                    "sorted keys {keys:?}, rank {rank}"
                );
            }
        }
        // All-equal fills hit the "no key above" path at every length.
        for fill in 0..3u8 {
            let keys = vec![fill; len];
            for rank in [0, 1, 2, 0x7e, 0x7f, 0xff] {
                assert_eq!(
                    first_rank_above(&keys, rank),
                    scalar_first_rank_above(&keys, rank),
                    "uniform keys {fill}x{len}, rank {rank}"
                );
            }
        }
    }
}

fn prio_of(rank: u64) -> Prio {
    match rank % 3 {
        0 => Prio::Boost,
        1 => Prio::Under,
        _ => Prio::Over,
    }
}

/// Drives the SoA queue and the reference model through the same long
/// pseudo-random op sequence and checks every observable after every
/// op: head priority, length, pop results, removal hits, steal results,
/// and the full entry listing.
#[test]
fn soa_runq_matches_vecdeque_reference() {
    for seed in 0..32u64 {
        let mut rng = SimRng::new(0x50A_0000 + seed);
        let mut soa = Pcpu::new(PcpuId(0));
        let mut reference = RefRunq::default();
        let mut queued: Vec<VcpuId> = Vec::new();
        for _ in 0..400 {
            let op = rng.range_u64(0, 6);
            match op {
                0 | 1 => {
                    // Enqueue (plain or yield) a vCPU not already queued —
                    // the machine never double-enqueues.
                    let vcpu = VcpuId::new(VmId((rng.range_u64(0, 2)) as u16), {
                        let mut idx = rng.range_u64(0, 16) as u16;
                        while queued.iter().any(|q| q.idx == idx) {
                            idx = (idx + 1) % 16;
                        }
                        idx
                    });
                    if queued.len() >= 15 {
                        continue;
                    }
                    let prio = prio_of(rng.range_u64(0, 3));
                    if op == 0 {
                        soa.enqueue(vcpu, prio);
                        reference.enqueue(vcpu, prio);
                    } else {
                        soa.enqueue_yield(vcpu, prio);
                        reference.enqueue_yield(vcpu, prio);
                    }
                    queued.push(vcpu);
                }
                2 => {
                    let a = soa.pop();
                    let b = reference.pop();
                    assert_eq!(a, b, "pop diverged (seed {seed})");
                    if let Some(e) = a {
                        queued.retain(|&v| v != e.vcpu);
                    }
                }
                3 => {
                    let vcpu = VcpuId::new(VmId(0), rng.range_u64(0, 16) as u16);
                    let a = soa.remove(vcpu);
                    let b = reference.remove(vcpu);
                    assert_eq!(a, b, "remove diverged (seed {seed})");
                    if a {
                        queued.retain(|&v| v != vcpu);
                    }
                }
                4 => {
                    // Refresh every queued priority from a "live" table
                    // derived from the RNG — the credit-tick pattern.
                    let salt = rng.range_u64(0, 1 << 30);
                    let live: Vec<(VcpuId, Prio)> = queued
                        .iter()
                        .map(|&v| (v, prio_of(u64::from(v.idx) + salt)))
                        .collect();
                    soa.refresh_prios(&live);
                    reference.refresh_prios(&live);
                }
                _ => {
                    let parity = rng.range_u64(0, 2);
                    let admit = |v: VcpuId| u64::from(v.idx) % 2 == parity;
                    let a = soa.steal_tail(admit);
                    let b = reference.steal_tail(admit);
                    assert_eq!(a, b, "steal_tail diverged (seed {seed})");
                    if let Some(e) = a {
                        queued.retain(|&v| v != e.vcpu);
                    }
                }
            }
            assert_eq!(soa.head_prio(), reference.head_prio(), "seed {seed}");
            assert_eq!(soa.runq_len(), reference.runq.len(), "seed {seed}");
            assert_eq!(
                soa.runq_iter().collect::<Vec<_>>(),
                reference.entries(),
                "entry order diverged (seed {seed})"
            );
        }
    }
}

/// `refresh_with` (the allocation-free closure form the scheduler uses)
/// must order exactly like `refresh_prios` with a full live table.
#[test]
fn refresh_with_matches_refresh_prios() {
    for seed in 0..16u64 {
        let mut rng = SimRng::new(0x5EED + seed);
        let mut a = Pcpu::new(PcpuId(0));
        let mut b = Pcpu::new(PcpuId(0));
        let mut queued = Vec::new();
        for idx in 0..10u16 {
            let prio = prio_of(rng.range_u64(0, 3));
            let vcpu = VcpuId::new(VmId(0), idx);
            a.enqueue(vcpu, prio);
            b.enqueue(vcpu, prio);
            queued.push(vcpu);
        }
        let salt = rng.range_u64(0, 1 << 30);
        let live: Vec<(VcpuId, Prio)> = queued
            .iter()
            .map(|&v| (v, prio_of(u64::from(v.idx).wrapping_mul(7) + salt)))
            .collect();
        a.refresh_with(|v| prio_of(u64::from(v.idx).wrapping_mul(7) + salt));
        b.refresh_prios(&live);
        assert_eq!(
            a.runq_iter().collect::<Vec<_>>(),
            b.runq_iter().collect::<Vec<_>>(),
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Flattened program arena vs direct `Box<dyn Program>` dispatch.
// ---------------------------------------------------------------------

/// Pulls `n` segments from `FlatProgram::new(make())` and from a bare
/// `make()` with identically-seeded RNGs; the streams must match
/// segment-for-segment (same values *and* same RNG draw order).
fn assert_program_equivalent(make: &dyn Fn() -> Box<dyn Program>, n: usize, what: &str) {
    for seed in [0u64, 1, 0xE005_2018] {
        let mut flat = FlatProgram::new(make());
        let mut raw = make();
        let mut flat_rng = SimRng::new(seed);
        let mut raw_rng = SimRng::new(seed);
        for i in 0..n {
            let a = flat.next_segment(&mut flat_rng);
            let b = raw.next_segment(&mut raw_rng);
            assert_eq!(a, b, "{what}: segment {i} diverged (seed {seed:#x})");
        }
        assert_eq!(
            flat_rng.range_u64(0, u64::MAX),
            raw_rng.range_u64(0, u64::MAX),
            "{what}: RNG streams desynchronized (seed {seed:#x})"
        );
    }
}

#[test]
fn arena_matches_direct_dispatch_for_workload_programs() {
    // Every profile-driven workload the figures use, plus the pure-compute
    // anchors: profiles draw from the RNG, so this checks both the segment
    // values and that batching did not reorder the draws.
    for w in [
        Workload::Exim,
        Workload::Gmake,
        Workload::Psearchy,
        Workload::Memclone,
        Workload::Dedup,
        Workload::Vips,
        Workload::Swaptions,
        Workload::Blackscholes,
        Workload::IperfServer,
        Workload::Lookbusy,
    ] {
        assert_program_equivalent(&|| w.program(0, 4), 2_000, w.name());
    }
}

#[test]
fn arena_matches_direct_dispatch_for_scripted_programs() {
    let us = SimDuration::from_micros;
    let script = vec![
        Segment::User { dur: us(3) },
        Segment::WorkUnit,
        Segment::User { dur: us(1) },
    ];
    // Finite script: the arena must replay it once, then End forever.
    let finite = script.clone();
    assert_program_equivalent(
        &move || Box::new(ScriptedProgram::new("finite", finite.clone())),
        10,
        "scripted",
    );
    // Looping script: the arena refills one full cycle at a time.
    let cycle = script;
    assert_program_equivalent(
        &move || Box::new(ScriptedProgram::looping("cycle", cycle.clone())),
        25,
        "looping",
    );
}

// ---------------------------------------------------------------------
// Sharded event queue vs the single flat queue.
// ---------------------------------------------------------------------

/// Mirrors a push/cancel/pop/pop_at_or_before stream against a flat
/// `EventQueue` with shard routing assigned the way the machine routes
/// (a static function of the payload), asserting identical pop order.
/// Complements the proptest in `simcore::event` with the 3-shard layout
/// the machine actually uses.
#[test]
fn three_shard_queue_matches_flat_queue() {
    for seed in 0..24u64 {
        let mut rng = SimRng::new(0x3AD_0000 + seed);
        let mut flat: EventQueue<u64> = EventQueue::new();
        let mut sharded: ShardedEventQueue<u64> = ShardedEventQueue::new(3);
        let mut keys = Vec::new(); // (flat key, shard key), parallel.
        for step in 0..600 {
            match rng.range_u64(0, 10) {
                0..=4 => {
                    let payload = rng.range_u64(0, 1 << 40);
                    let shard = (payload % 3) as usize; // routing = f(payload)
                    let at = SimTime::from_nanos(rng.range_u64(0, 2_000));
                    keys.push((flat.push(at, payload), sharded.push(shard, at, payload)));
                }
                5 => {
                    if !keys.is_empty() {
                        let i = rng.range_u64(0, keys.len() as u64) as usize;
                        let (fk, sk) = keys.swap_remove(i);
                        assert_eq!(
                            flat.cancel(fk),
                            sharded.cancel(sk),
                            "cancel diverged (seed {seed}, step {step})"
                        );
                    }
                }
                6 | 7 => {
                    assert_eq!(
                        flat.pop(),
                        sharded.pop(),
                        "pop diverged (seed {seed}, step {step})"
                    );
                }
                _ => {
                    let deadline = SimTime::from_nanos(rng.range_u64(0, 2_000));
                    assert_eq!(
                        flat.pop_at_or_before(deadline),
                        sharded.pop_at_or_before(deadline),
                        "pop_at_or_before diverged (seed {seed}, step {step})"
                    );
                }
            }
            assert_eq!(flat.peek_time(), sharded.peek_time(), "seed {seed}");
        }
        // Drain both to the end: the full ordering must agree.
        loop {
            let (a, b) = (flat.pop(), sharded.pop());
            assert_eq!(a, b, "drain diverged (seed {seed})");
            if a.is_none() {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Timing-wheel cascade boundaries.
// ---------------------------------------------------------------------
//
// The wheel's level geometry (see `simcore::event::wheel` and DESIGN.md
// §4.10): level 0 slots are 2^12 ns, level 1 slots 2^20 ns, level 2
// slots 2^26 ns, horizon 2^32 ns. Events landing *exactly on* a slot or
// level boundary are the cases where an off-by-one in the cascade logic
// strands or reorders entries (the level-2-boundary cascade bug this
// suite's differential cousin caught during development lived exactly
// here), so they get directed tests rather than relying on random fuzz
// to land on a power of two.

/// One level-1 slot in nanoseconds (2^20).
const L1_SLOT: u64 = 1 << 20;
/// One level-2 slot in nanoseconds (2^26).
const L2_SLOT: u64 = 1 << 26;
/// The wheel horizon in nanoseconds (2^32); at or beyond this delta the
/// queue spills to the overflow heap.
const HORIZON: u64 = 1 << 32;

/// Pushes events exactly on (and one nanosecond around) every level
/// boundary, plus one at the horizon itself, and checks the drain order
/// against the retained heap reference backend.
#[test]
fn wheel_level_rollover_boundaries_pop_in_order() {
    use simcore::event::HeapEventQueue;
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut times = Vec::new();
    for base in [L1_SLOT, L2_SLOT, HORIZON] {
        for k in [1u64, 2, 3, 63, 64, 65] {
            let center = base.saturating_mul(k);
            for t in [center - 1, center, center + 1] {
                times.push(t);
            }
        }
    }
    times.push(0); // zero-delta on an empty, never-advanced queue
    for (i, &t) in times.iter().enumerate() {
        let at = SimTime::from_nanos(t);
        wheel.push(at, i as u64);
        heap.push(at, i as u64);
    }
    loop {
        assert_eq!(wheel.peek_time(), heap.peek_time(), "peek at boundary");
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b, "boundary drain diverged");
        if a.is_none() {
            break;
        }
    }
}

/// Zero-delta pushes: after the cursor has advanced mid-stream, a push
/// at exactly the frontier time (and one behind it) must still pop
/// before every later event, in push order within the tie.
#[test]
fn zero_delta_pushes_at_the_drain_frontier_pop_first() {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..64u64 {
        q.push(SimTime::from_nanos(i * L1_SLOT), i);
    }
    // Advance the frontier deep into the wheel.
    for _ in 0..32 {
        q.pop();
    }
    let frontier = q.peek_time().expect("events remain");
    // Push at exactly the frontier, one behind it (underflow), and one
    // zero-delta pair that must preserve FIFO order within the tie.
    q.push(frontier, 1_000);
    q.push(frontier, 1_001);
    let behind = SimTime::from_nanos(frontier.as_nanos() - 1);
    q.push(behind, 2_000);
    let mut drained = Vec::new();
    while let Some((t, v)) = q.pop() {
        drained.push((t.as_nanos(), v));
    }
    assert_eq!(drained[0], (behind.as_nanos(), 2_000));
    // The frontier tie: the original event 32 was pushed first, then the
    // two zero-delta arrivals, in order.
    assert_eq!(drained[1], (frontier.as_nanos(), 32));
    assert_eq!(drained[2], (frontier.as_nanos(), 1_000));
    assert_eq!(drained[3], (frontier.as_nanos(), 1_001));
    let rest: Vec<u64> = drained[4..].iter().map(|&(_, v)| v).collect();
    assert_eq!(rest, (33..64).collect::<Vec<u64>>());
}

/// Cancel-then-repush into the same wheel slot: the cancelled key must
/// stay dead (double-cancel misses), the repushed event must pop at its
/// time, and a cancel of a just-cascaded head must not disturb order.
#[test]
fn cancel_then_repush_same_slot_keeps_order() {
    let mut q: EventQueue<u64> = EventQueue::new();
    // Three events in the same level-2 slot, one level-1 neighbor.
    let t0 = SimTime::from_nanos(3 * L2_SLOT + 17);
    let t1 = SimTime::from_nanos(3 * L2_SLOT + 17); // same slot, tie
    let t2 = SimTime::from_nanos(3 * L2_SLOT + 5 * L1_SLOT);
    let near = SimTime::from_nanos(L1_SLOT / 2);
    let k0 = q.push(t0, 10);
    let _k1 = q.push(t1, 11);
    let k2 = q.push(t2, 12);
    q.push(near, 13);
    // Cancel the first of the tied pair, then repush at the same time:
    // the repush lands in the same slot with a fresh seq, so it pops
    // *after* the surviving tie.
    assert!(q.cancel(k0));
    assert!(!q.cancel(k0), "double cancel must miss");
    q.push(t0, 14);
    // Cancel-then-repush of the far entry too, across a pop that forces
    // the first cascade.
    assert_eq!(q.pop(), Some((near, 13)));
    assert!(q.cancel(k2));
    q.push(t2, 15);
    let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
    assert_eq!(order, vec![11, 14, 15]);
}

/// The sharded queue under the same boundary stream: cancelling a cached
/// merge-front head exactly on a level boundary must re-derive the next
/// head correctly (the dirty-bit lower-bound path).
#[test]
fn sharded_cancel_on_level_boundary_rederives_head() {
    let mut q: ShardedEventQueue<u64> = ShardedEventQueue::new(3);
    let head = q.push(0, SimTime::from_nanos(L2_SLOT), 1);
    q.push(1, SimTime::from_nanos(L2_SLOT + 1), 2);
    q.push(2, SimTime::from_nanos(2 * L2_SLOT), 3);
    assert_eq!(q.peek_time(), Some(SimTime::from_nanos(L2_SLOT)));
    assert!(q.cancel(head));
    assert_eq!(q.peek_time(), Some(SimTime::from_nanos(L2_SLOT + 1)));
    assert_eq!(q.pop(), Some((SimTime::from_nanos(L2_SLOT + 1), 2)));
    assert_eq!(q.pop(), Some((SimTime::from_nanos(2 * L2_SLOT), 3)));
    assert_eq!(q.pop(), None);
}

// ---------------------------------------------------------------------
// Enum-indexed counters vs the replaced `BTreeMap` counter set.
// ---------------------------------------------------------------------

/// The pre-rewrite `CounterSet`, verbatim: one `BTreeMap` keyed by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct RefCounters {
    counts: BTreeMap<&'static str, u64>,
}

impl RefCounters {
    fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn delta_since(&self, earlier: &RefCounters) -> RefCounters {
        let mut delta = RefCounters::default();
        for (&name, &now) in &self.counts {
            let before = earlier.get(name);
            if now > before {
                delta.counts.insert(name, now - before);
            }
        }
        delta
    }

    fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    fn render(&self) -> String {
        self.iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Every observable of a `CounterSet` against its reference twin.
fn assert_counters_match(c: &CounterSet, r: &RefCounters, names: &[&'static str], what: &str) {
    assert_eq!(c.to_string(), r.render(), "{what}: Display");
    assert!(c.iter().eq(r.iter()), "{what}: iter");
    assert_eq!(c.total(), r.total(), "{what}: total");
    assert_eq!(c.is_empty(), r.counts.is_empty(), "{what}: is_empty");
    for &name in names {
        assert_eq!(c.get(name), r.get(name), "{what}: get({name})");
    }
    let mut rebuilt = CounterSet::new();
    for (name, value) in r.iter() {
        rebuilt.add(name, value);
    }
    assert!(
        rebuilt == *c,
        "{what}: PartialEq with a set rebuilt by name"
    );
}

/// Random mixed streams of enum- and string-keyed `incr`/`add` calls —
/// zero adds included, and names on both sides of every well-known name
/// in sort order — with snapshots, deltas against older and newer
/// snapshots, and resets. Every observable, and `PartialEq` between
/// sets, must match the `BTreeMap` reference after every operation.
#[test]
fn enum_indexed_counters_match_btreemap_reference() {
    // Names outside the enum that sort before, between and after the
    // well-known ones.
    let extra = ["aaa", "ctx", "fault_", "faults_planned_x", "ipi", "zzz"];
    let names: Vec<&'static str> = Counter::ALL.iter().map(|c| c.name()).chain(extra).collect();
    for seed in 0..24u64 {
        let mut rng = SimRng::new(0xC0DE_0000 + seed);
        let mut c = CounterSet::new();
        let mut r = RefCounters::default();
        let mut snaps = vec![(CounterSet::new(), RefCounters::default())];
        for step in 0..600 {
            let name = names[rng.below(names.len() as u64) as usize];
            let n = [0, 1, 1, 2, 1_000][rng.below(5) as usize];
            let what = format!("seed {seed} step {step}");
            match rng.below(10) {
                0..=5 => {
                    let by_enum = rng.below(2) == 0;
                    match (Counter::from_name(name).filter(|_| by_enum), n) {
                        (Some(counter), 1) => c.incr(counter),
                        (Some(counter), _) => c.add(counter, n),
                        (None, 1) => c.incr(name),
                        (None, _) => c.add(name, n),
                    }
                    r.add(name, n);
                }
                6 => snaps.push((c.snapshot(), r.clone())),
                7 | 8 => {
                    let (sc, sr) = &snaps[rng.below(snaps.len() as u64) as usize];
                    let (dc, dr) = (c.delta_since(sc), r.delta_since(sr));
                    assert_counters_match(&dc, &dr, &names, &format!("{what}: delta"));
                    let (back_c, back_r) = (sc.delta_since(&c), sr.delta_since(&r));
                    assert_counters_match(&back_c, &back_r, &names, &format!("{what}: back"));
                    assert_eq!(sc == &c, sr == &r, "{what}: snapshot PartialEq");
                    assert_eq!(dc == back_c, dr == back_r, "{what}: delta PartialEq");
                }
                _ => {
                    if rng.below(4) == 0 {
                        c.reset();
                        r.counts.clear();
                    }
                }
            }
            assert_counters_match(&c, &r, &names, &what);
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end: fig4 and table2 quick grids.
// ---------------------------------------------------------------------

fn render(id: &str, seed: u64, jobs: usize) -> String {
    let opts = experiments::RunOptions {
        seed,
        ..experiments::RunOptions::quick().with_jobs(jobs)
    };
    experiments::run_experiment(id, &opts)
        .unwrap_or_else(|| panic!("unknown experiment {id}"))
        .iter()
        .map(|t| t.render_csv())
        .collect()
}

/// The issue's end-to-end contract: fig4 and table2, quick grids, every
/// seed, `--jobs 1` vs `--jobs 8` — byte-identical. The parallel run
/// exercises the SoA queue, the arena, and the sharded queue inside
/// every cell simultaneously; a divergence in any of them changes the
/// rendered bytes. Slow under debug builds, so release-gated like the
/// other whole-grid suites.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn fig4_and_table2_byte_identical_across_jobs_and_seeds() {
    for id in ["fig4", "table2"] {
        for seed in [0xE005_2018u64, 7, 42] {
            let serial = render(id, seed, 1);
            let parallel = render(id, seed, 8);
            assert_eq!(
                serial, parallel,
                "{id}: --jobs 8 diverged from --jobs 1 at seed {seed:#x}"
            );
            assert!(
                serial.contains(','),
                "{id}: rendered CSV looks empty at seed {seed:#x}"
            );
        }
    }
}

/// Always-on smoke version of the above: one seed, the cheaper grid.
#[test]
fn table2_byte_identical_across_jobs_smoke() {
    let serial = render("table2", 0xE005_2018, 1);
    let parallel = render("table2", 0xE005_2018, 8);
    assert_eq!(serial, parallel, "table2: --jobs 8 diverged from --jobs 1");
}
