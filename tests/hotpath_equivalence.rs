//! Equivalence suite for the hot-path data structures.
//!
//! Two hot-path structures must stay *observably equivalent* to a
//! reference model: the run queue (`hypervisor::pcpu`, one `Vec` kept in
//! priority order) and the enum-indexed counter set
//! (`metrics::counters::CounterSet`). This suite checks that claim twice
//! over:
//!
//! - structurally, against reference models written here (the `VecDeque`
//!   run queue with a sort on refresh, the `BTreeMap` counter set),
//!   driven through long pseudo-random op sequences; and
//! - end-to-end, on the fig4 and table2 quick grids: the rendered bytes
//!   must be identical across seeds and across `--jobs 1` vs `--jobs 8`
//!   (the fan-out path exercises these structures concurrently).
//!
//! It also pins the timing-wheel event queue's cascade boundaries with
//! directed tests (`tests/wheel_vs_heap.rs` fuzzes the rest).

use hypervisor::pcpu::{Pcpu, RunqEntry};
use hypervisor::Prio;
use metrics::counters::{Counter, CounterSet};
use simcore::event::EventQueue;
use simcore::ids::{PcpuId, VcpuId, VmId};
use simcore::rng::SimRng;
use simcore::time::SimTime;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Run queue vs a VecDeque reference model.
// ---------------------------------------------------------------------

/// A reference run queue: a `VecDeque<RunqEntry>` with linear
/// insert-position scans and a stable sort on refresh.
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

fn prio_of(rank: u64) -> Prio {
    match rank % 3 {
        0 => Prio::Boost,
        1 => Prio::Under,
        _ => Prio::Over,
    }
}

/// Drives the run queue and the reference model through the same long
/// pseudo-random op sequence and checks every observable after every
/// op: head priority, length, pop results, removal hits, steal results,
/// and the full entry listing.
#[test]
fn runq_matches_vecdeque_reference() {
    for seed in 0..32u64 {
        let mut rng = SimRng::new(0x50A_0000 + seed);
        let mut runq = Pcpu::new(PcpuId(0));
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
                        runq.enqueue(vcpu, prio);
                        reference.enqueue(vcpu, prio);
                    } else {
                        runq.enqueue_yield(vcpu, prio);
                        reference.enqueue_yield(vcpu, prio);
                    }
                    queued.push(vcpu);
                }
                2 => {
                    let a = runq.pop();
                    let b = reference.pop();
                    assert_eq!(a, b, "pop diverged (seed {seed})");
                    if let Some(e) = a {
                        queued.retain(|&v| v != e.vcpu);
                    }
                }
                3 => {
                    let vcpu = VcpuId::new(VmId(0), rng.range_u64(0, 16) as u16);
                    let a = runq.remove(vcpu);
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
                    runq.refresh_with(|v| prio_of(u64::from(v.idx) + salt));
                    reference.refresh_prios(&live);
                }
                _ => {
                    let parity = rng.range_u64(0, 2);
                    let admit = |v: VcpuId| u64::from(v.idx) % 2 == parity;
                    let a = runq.steal_tail(admit);
                    let b = reference.steal_tail(admit);
                    assert_eq!(a, b, "steal_tail diverged (seed {seed})");
                    if let Some(e) = a {
                        queued.retain(|&v| v != e.vcpu);
                    }
                }
            }
            assert_eq!(runq.head_prio(), reference.head_prio(), "seed {seed}");
            assert_eq!(runq.runq_len(), reference.runq.len(), "seed {seed}");
            assert_eq!(
                runq.runq_iter().collect::<Vec<_>>(),
                reference.entries(),
                "entry order diverged (seed {seed})"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Timing-wheel cascade boundaries.
// ---------------------------------------------------------------------
//
// The wheel's level geometry (see `simcore::event::wheel` and DESIGN.md
// §4.10): level 0 slots are 2^12 ns, level 1 slots 2^20 ns, horizon
// 2^26 ns. Events landing *exactly on* a slot or level boundary are the
// cases where an off-by-one in the cascade logic strands or reorders
// entries (a cascade bug this suite's differential cousin caught during
// development lived exactly here), so they get directed tests rather
// than relying on random fuzz to land on a power of two.

/// One level-1 slot in nanoseconds (2^20).
const L1_SLOT: u64 = 1 << 20;
/// The wheel horizon in nanoseconds (2^26, 64 level-1 slots); from an
/// unadvanced cursor, a push this far ahead or further goes to the
/// overflow heap.
const HORIZON: u64 = 1 << 26;
/// 2^32 ns (~4.3 s): far past the horizon, deep in the heap.
const FAR: u64 = 1 << 32;

/// Pushes events exactly on (and one nanosecond around) multiples of
/// each boundary, all from an unadvanced cursor, and checks the drain
/// order against the reference order: the same events sorted by
/// `(time, push order)`. `L1_SLOT - 1` lands in level 0, the other times
/// below `HORIZON` in level 1, and `HORIZON` and everything past it (from
/// `64 * L1_SLOT` on, every `FAR` multiple) in the heap; the push at 0
/// goes to the drain buffer.
#[test]
fn wheel_level_rollover_boundaries_pop_in_order() {
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut times = Vec::new();
    for base in [L1_SLOT, HORIZON, FAR] {
        for k in [1u64, 2, 3, 63, 64, 65] {
            let center = base.saturating_mul(k);
            for t in [center - 1, center, center + 1] {
                times.push(t);
            }
        }
    }
    times.push(0); // zero-delta on an empty, never-advanced queue
    for (i, &t) in times.iter().enumerate() {
        wheel.push(SimTime::from_nanos(t), i as u64);
    }
    let mut reference: Vec<(SimTime, u64)> = times
        .iter()
        .enumerate()
        .map(|(i, &t)| (SimTime::from_nanos(t), i as u64))
        .collect();
    reference.sort_unstable();
    for &expected in &reference {
        assert_eq!(wheel.earliest(), Some(expected.0), "earliest at boundary");
        assert_eq!(wheel.pop(), Some(expected), "boundary drain diverged");
    }
    assert_eq!(wheel.pop(), None);
}

/// Zero-delta pushes: after the cursor has advanced mid-stream, a tie
/// with the next queued event and a push behind the drain frontier must
/// still pop before every later event, in push order within the tie.
#[test]
fn zero_delta_pushes_at_the_drain_frontier_pop_first() {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..64u64 {
        q.push(SimTime::from_nanos(i * L1_SLOT), i);
    }
    // Advance the frontier deep into the wheel: the cursor rests at the
    // last popped event's slot.
    let mut last = SimTime::ZERO;
    for _ in 0..32 {
        last = q.pop().expect("events remain").0;
    }
    let frontier = q.earliest().expect("events remain");
    // A zero-delta pair at the next event's time, which must preserve
    // FIFO order within the tie, and a push one nanosecond behind the
    // cursor (underflow).
    q.push(frontier, 1_000);
    q.push(frontier, 1_001);
    let behind = SimTime::from_nanos(last.as_nanos() - 1);
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

/// Cancel-then-repush into the same wheel slot, cancelling the way the
/// machine does: the queue has no cancel, so a superseded event stays
/// queued and is dropped when it fires because its generation stamp is
/// stale (as `Machine::run_loop` drops an `Event::Transition`). The stale
/// entry must still pop in its `(time, push order)` place, the repush
/// lands in the same place with a fresh seq and pops *after* the
/// surviving tie, and a repush after the cursor first moved keeps its
/// order too. `t0`, `t1` and `t2` (~201–206 ms) lie past the ~67 ms
/// horizon, so they and their repushes wait on the overflow heap; `near`
/// (~0.5 ms) is in level 0.
#[test]
fn cancel_then_repush_same_slot_keeps_order() {
    // Payload `(id, generation)`; `live[id]` is the id's current generation.
    let mut q: EventQueue<(usize, u64)> = EventQueue::new();
    let mut live = [0u64; 4];
    // Three events three horizons out, one near neighbor.
    let t0 = SimTime::from_nanos(3 * HORIZON + 17);
    let t1 = SimTime::from_nanos(3 * HORIZON + 17); // same time, tie
    let t2 = SimTime::from_nanos(3 * HORIZON + 5 * L1_SLOT);
    let near = SimTime::from_nanos(L1_SLOT / 2);
    q.push(t0, (0, 0));
    q.push(t1, (1, 0));
    q.push(t2, (2, 0));
    q.push(near, (3, 0));
    // Cancel the first of the tied pair, then repush at the same time.
    live[0] += 1;
    q.push(t0, (0, live[0]));
    // Cancel-then-repush of the far entry too, across a pop that moves
    // the cursor.
    assert_eq!(q.pop(), Some((near, (3, 0))));
    live[2] += 1;
    q.push(t2, (2, live[2]));
    assert_eq!(q.len(), 5, "superseded entries stay queued");
    let raw: Vec<(SimTime, (usize, u64))> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(
        raw,
        vec![
            (t0, (0, 0)),
            (t1, (1, 0)),
            (t0, (0, 1)),
            (t2, (2, 0)),
            (t2, (2, 1)),
        ]
    );
    // What the consumer acts on once stale generations are dropped.
    let fired: Vec<(SimTime, usize)> = raw
        .iter()
        .filter(|&&(_, (id, gen))| live[id] == gen)
        .map(|&(at, (id, _))| (at, id))
        .collect();
    assert_eq!(fired, vec![(t1, 1), (t0, 0), (t2, 2)]);
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

/// Random mixed streams of enum- and name-keyed `incr`/`add` calls —
/// zero adds included — with snapshots, deltas against older and newer
/// snapshots, and resets. Every observable, and `PartialEq` between
/// sets, must match the `BTreeMap` reference after every operation.
#[test]
fn enum_indexed_counters_match_btreemap_reference() {
    let names: Vec<&'static str> = Counter::ALL.iter().map(|c| c.name()).collect();
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
/// exercises the run queues, the programs and the event queue inside
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
