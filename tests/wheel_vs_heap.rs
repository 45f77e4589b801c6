//! Differential fuzz: the wheel-backed [`EventQueue`] against a binary
//! heap reference.
//!
//! The reference is a `BinaryHeap` of `Reverse((time, seq, payload))`,
//! which pops in `(time, push order)` — the queue's whole contract. Driving
//! both through identical seeded op sequences and asserting identical
//! observable behaviour (pop order, deadline pops, peeks, lengths) is a
//! direct check that the timing wheel changed the data structure and
//! nothing else. The op mix mirrors the simulator's access pattern: a
//! monotonically advancing frontier, pushes at short horizons past the
//! frontier (the 0.1–30 ms timer classes), occasional pushes 30 ms to
//! 12 s ahead that land on both sides of the wheel's 2^26-ns (~67 ms)
//! horizon, and zero-delta pushes at the frontier.
//!
//! `scripts/ci.sh` runs this as the `wheel_vs_heap` differential smoke.

use simcore::event::EventQueue;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference queue: a plain binary heap keyed by `(time, seq)`.
#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    next_seq: u64,
}

impl RefQueue {
    fn push(&mut self, at: SimTime, payload: u64) {
        self.heap.push(Reverse((at, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse((at, _, p))| (at, p))
    }

    fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
        match self.earliest() {
            Some(at) if at <= deadline => self.pop(),
            _ => None,
        }
    }

    fn earliest(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One seeded differential run of `ops` operations.
fn differential_run(seed: u64, ops: usize) {
    let mut rng = SimRng::new(seed);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut reference = RefQueue::default();
    let mut next_id = 0u64;
    // The simulated clock: advanced by deadline pops, like `Machine::now`.
    let mut now = SimTime::ZERO;

    for step in 0..ops {
        let roll = rng.below(90);
        match roll {
            // Push at a short horizon past the frontier — the dominant
            // micro-slice timer class (slice expiry, IPI acks, kicks).
            0..=39 => {
                let horizon = SimDuration::from_nanos(rng.below(30_000_000));
                wheel.push(now + horizon, next_id);
                reference.push(now + horizon, next_id);
                next_id += 1;
            }
            // Far push, 30 ms to 12 s ahead: level 1 up to the ~67 ms
            // horizon, the overflow heap past it. The band's width is
            // drawn log-uniformly from 2^25 ns up, so pushes land near
            // the horizon as often as seconds out.
            40..=44 => {
                let width = (1u64 << (25 + rng.below(10))).min(11_970_000_000);
                let at = now + SimDuration::from_nanos(30_000_000 + rng.below(width));
                wheel.push(at, next_id);
                reference.push(at, next_id);
                next_id += 1;
            }
            // Zero-delta push: fires exactly at the frontier.
            45..=49 => {
                wheel.push(now, next_id);
                reference.push(now, next_id);
                next_id += 1;
            }
            // Deadline pop, advancing the frontier — `Machine::step`'s
            // `pop_at_or_before(now + quantum)` shape.
            50..=79 => {
                let deadline = now + SimDuration::from_nanos(rng.below(2_000_000));
                let a = wheel.pop_at_or_before(deadline);
                let b = reference.pop_at_or_before(deadline);
                assert_eq!(
                    a, b,
                    "deadline pop diverged at step {step} (seed {seed:#x})"
                );
                if let Some((t, _)) = a {
                    now = now.max(t);
                } else {
                    now = now.max(deadline);
                }
            }
            // Unconditional pop.
            _ => {
                let a = wheel.pop();
                let b = reference.pop();
                assert_eq!(a, b, "pop diverged at step {step} (seed {seed:#x})");
                if let Some((t, _)) = a {
                    now = now.max(t);
                }
            }
        }
        assert_eq!(
            wheel.len(),
            reference.len(),
            "len diverged at step {step} (seed {seed:#x})"
        );
        assert_eq!(
            wheel.earliest(),
            reference.earliest(),
            "earliest diverged at step {step} (seed {seed:#x})"
        );
    }

    // Drain both queues dry: the tails must match event for event.
    loop {
        let (a, b) = (wheel.pop(), reference.pop());
        assert_eq!(a, b, "drain diverged (seed {seed:#x})");
        if a.is_none() {
            break;
        }
    }
}

/// The default smoke: 64 seeds × 2000 ops. `scripts/ci.sh` runs exactly
/// this test; a divergence prints the offending seed for replay.
#[test]
fn wheel_matches_heap_reference() {
    for seed in 0..64u64 {
        differential_run(0x0005_7EE1_0000 + seed, 2000);
    }
}

/// Long-horizon variant: fewer seeds, more ops, so the frontier crosses
/// level-1 slot boundaries (~1 ms apart) and whole horizons (~67 ms)
/// many times.
#[test]
fn wheel_matches_heap_reference_long() {
    for seed in 0..8u64 {
        differential_run(0x1046_u64.wrapping_add(seed), 20_000);
    }
}
