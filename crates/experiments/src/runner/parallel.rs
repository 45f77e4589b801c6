//! Deterministic parallel fan-out for independent experiment runs.
//!
//! Every experiment in this crate is a grid of independent
//! `(scenario, policy, seed)` simulations whose results are merged into a
//! table or curve. The simulations share nothing — each run constructs its
//! own [`hypervisor::Machine`] from plain configuration — so they
//! parallelize trivially, *except* that the output must not depend on the
//! worker count. This module provides that guarantee:
//!
//! - work items are identified by **index** into the flattened run grid;
//! - workers claim indices from a shared atomic counter (cheap dynamic
//!   load balancing — simulated seconds are not uniform across the grid);
//! - results are returned **in index order**, so merging is identical to
//!   the serial loop's order;
//! - `jobs <= 1` short-circuits to a plain in-order loop on the calling
//!   thread — byte-for-byte the pre-parallel behavior, no threads spawned.
//!
//! Determinism therefore reduces to: each run's result is a function of
//! its index only. Runs derive their RNG seeds from
//! [`seed_for`](crate::runner::RunOptions) / the per-experiment options,
//! never from worker identity or wall-clock, so `--jobs 32` and `--jobs 1`
//! produce identical bytes.
//!
//! No thread pool and no extra dependencies: [`std::thread::scope`] lets
//! workers borrow the closure (and whatever options it captures) without
//! `'static` bounds, and the `Machine`s live and die entirely inside one
//! worker, so they need no `Send` bound.
//!
//! When several experiments run concurrently (`repro all`), the calling
//! thread carries a global [`pool::Budget`]: each
//! cell then also acquires a suite-wide permit before executing, so
//! `--jobs` bounds concurrent simulations across *all* experiments, not
//! per batch. Permits gate only *when* a cell runs — results stay a pure
//! function of the index, and collection order is unchanged. The
//! budget's cell memo ([`pool::memo`]) is visible inside every cell,
//! on whichever thread it runs; the permit budget is not, so a fan-out
//! nested in a cell never queues for a second permit.
//!
//! The calling thread may additionally carry a
//! [`pool::CostContext`] (`repro --costs`): the batch then claims its
//! cells in the [`cost`](super::cost) model's longest-estimated-first
//! order, waits on the budget at its cells' estimated priorities (so
//! freed permits steal the longest pending cell suite-wide), and reports
//! each simulated cell's wall-clock to the context's recorder (a cell the
//! memo served simulated nothing, so it reports nothing). All of that steers
//! only admission: results are still collected by grid index, so the
//! rendered bytes match the FIFO schedule exactly.

use super::pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Runs `f(0), f(1), …, f(n - 1)` across up to `jobs` worker threads and
/// returns the results in index order.
///
/// With `jobs <= 1` (or fewer than two items) this is exactly the serial
/// loop `(0..n).map(f).collect()` on the calling thread. Panics in `f`
/// propagate to the caller.
///
/// # Examples
///
/// ```
/// use experiments::runner::parallel::run_indexed;
///
/// let squares = run_indexed(4, 10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let budget = pool::current_budget();
    let memo = pool::current_memo();
    // The admission plan (cell keys, estimates, longest-first claim
    // order) is computed for every batch the context sees — including
    // serial and single-cell ones — so batch sequence numbers, and with
    // them the persisted cell keys, never depend on `jobs` or `n`.
    let costs = pool::current_costs();
    let plan = costs.as_ref().map(|ctx| ctx.plan_batch(n));
    let recorder = costs.as_ref().map(|ctx| ctx.recorder());
    let timed = |i: usize, f: &F| -> T {
        let started = Instant::now();
        // Worker threads start with no pool state: each cell sees the
        // caller's cell memo, but no permit budget (it holds its permit).
        let (out, served) = pool::in_cell(memo.as_ref(), || f(i));
        // Only simulated cells teach the cost model: a memo-served cell's
        // time is a lookup or a wait, not the cell's cost.
        if let (Some(plan), Some(recorder), false) = (&plan, &recorder, served) {
            let elapsed = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            recorder.record(plan.keys[i].clone(), elapsed);
        }
        out
    };
    if jobs <= 1 || n <= 1 {
        // The serial path keeps plain index order (documented: `--jobs 1`
        // reproduces the historical serial execution exactly) but still
        // waits on the budget at each cell's estimated priority — a
        // single-cell batch under the global budget must compete for
        // permits at its real cost — and records costs, so even serial
        // runs warm the model.
        return (0..n)
            .map(|i| {
                let _permit = budget.as_ref().map(|b| match &plan {
                    Some(p) => b.acquire_ordered(p.estimates[i]),
                    None => b.acquire(),
                });
                timed(i, &f)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let workers = jobs.min(n);
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        if pos >= n {
                            break;
                        }
                        // With a plan, claim cells longest-estimated
                        // first and wait on the budget at the cell's
                        // estimate, so permits freed anywhere in the
                        // suite go to the longest pending cell.
                        let i = plan.as_ref().map_or(pos, |p| p.order[pos]);
                        let _permit = budget.as_ref().map(|b| match &plan {
                            Some(p) => b.acquire_ordered(p.estimates[i]),
                            None => b.acquire(),
                        });
                        out.push((i, timed(i, &f)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, v)| v).collect()
}

/// Maps `f` over `items` across up to `jobs` worker threads, returning
/// results in item order. Convenience wrapper over [`run_indexed`] for
/// the common "fan out over a run grid" shape.
///
/// # Examples
///
/// ```
/// use experiments::runner::parallel::map;
///
/// let labels = ["a", "b", "c"];
/// let upper = map(2, &labels, |s| s.to_uppercase());
/// assert_eq!(upper, vec!["A", "B", "C"]);
/// ```
pub fn map<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    run_indexed(jobs, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serial_path_runs_in_order_on_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_indexed(1, 8, |i| (i, std::thread::current().id()));
        for (i, (idx, tid)) in ids.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*tid, caller, "jobs = 1 must not spawn threads");
        }
    }

    #[test]
    fn parallel_results_are_index_ordered() {
        let out = run_indexed(4, 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        assert_eq!(run_indexed(64, 3, |i| i), vec![0, 1, 2]);
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..50).collect();
        assert_eq!(
            map(3, &items, |x| x * x),
            items.iter().map(|x| x * x).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        run_indexed(2, 4, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    proptest! {
        /// Any job count produces the same vector as the serial loop.
        #[test]
        fn prop_jobs_invariant(jobs in 1usize..9, n in 0usize..64) {
            let serial: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9E37_79B9)).collect();
            let parallel = run_indexed(jobs, n, |i| (i as u64).wrapping_mul(0x9E37_79B9));
            prop_assert_eq!(parallel, serial);
        }
    }
}
