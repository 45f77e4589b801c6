//! Fan-out: one global `--jobs` budget for the whole suite, admitted in
//! arrival order.
//!
//! Every experiment is a grid of independent `(scenario, policy, seed)`
//! cells. [`run_indexed`] fans one grid's cells across worker threads;
//! [`run_streamed`] runs each experiment of a suite on its own driver
//! thread. A single [`Budget`] of `--jobs` permits gates *cell* execution
//! across all of them: cells from different experiments overlap, but
//! never more than `--jobs` simulations run at once. Permits go to
//! waiters strictly in arrival order (DESIGN.md §4.6 records why no
//! smarter order is kept).
//!
//! Determinism is untouched by construction. The budget only decides
//! *when* a cell runs, never *what* it computes: each cell is a pure
//! function of its grid index (its RNG seeds come from
//! [`RunOptions::seed_for`](super::RunOptions::seed_for) and the
//! experiment's options, never from worker identity or wall-clock), each
//! batch collects results in index order, and [`run_streamed`] commits
//! whole experiments in submission order. `repro all --jobs N` is
//! byte-identical on stdout for every `N` (`tests/determinism.rs`).
//!
//! The machinery is permit-based rather than a single type-erased job
//! queue: experiment closures borrow their grids and options from the
//! driver's stack, and [`std::thread::scope`] lets workers borrow them
//! without `'static` bounds. `Machine`s live and die inside one cell, so
//! they need no `Send` bound.
//!
//! A budget also carries the invocation's **checkpoint store**
//! ([`store`](super::store)): machine checkpoints and finish records
//! along simulated trajectories, so cells that need the same machine at
//! the same time (a shared warm-up, a shared window) or the same
//! completion fork or read it instead of simulating it again. Experiments
//! show the same co-run cells several ways (Figure 6 re-shows Figure 4/5
//! cells, `compare` re-checks Figures 4, 5 and 9), and the store is what
//! simulates each such cell once per budget. Only successes are kept, so
//! a failing cell still fails — with its own crash artifact — wherever
//! it is shown. The store lives and dies with its `Budget`; nothing is
//! process-global. Experiments make their grids on their driver thread,
//! under [`with_budget`], and each grid keeps the budget's store
//! ([`Grid::new`](super::Grid::new)); cells reach it only through their
//! grid.

use super::store::CheckpointStore;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// The budget's ticket counters.
#[derive(Debug)]
struct Tickets {
    /// Tickets issued: the next arrival's ticket.
    issued: u64,
    /// Permits returned.
    released: u64,
}

/// A counting semaphore bounding how many experiment cells run at once
/// across every in-flight experiment, admitting waiters in arrival
/// order, plus the checkpoint store (see [`store`](super::store)) those
/// cells share.
#[derive(Debug)]
pub struct Budget {
    permits: u64,
    tickets: Mutex<Tickets>,
    freed: Condvar,
    store: Arc<CheckpointStore>,
}

impl Budget {
    /// A budget of `permits` concurrent cells. Zero is clamped to 1 (a
    /// zero-permit budget would deadlock the first acquirer).
    pub fn new(permits: usize) -> Self {
        Budget {
            permits: permits.max(1) as u64,
            tickets: Mutex::new(Tickets {
                issued: 0,
                released: 0,
            }),
            freed: Condvar::new(),
            store: Arc::default(),
        }
    }

    /// The invocation's checkpoint store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    fn lock(&self) -> MutexGuard<'_, Tickets> {
        // A panicking cell never holds this lock (permits are held across
        // the cell, the lock only around the counter update), so poison
        // is spurious; recover rather than cascade.
        self.tickets
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Blocks until a permit is free and takes it. Waiters are admitted
    /// in arrival order: the `t`-th caller holds a permit once `t` is
    /// below the number of permits returned plus the budget's size. The
    /// permit returns to the pool when the guard drops — including on
    /// unwind, so a panicking cell cannot leak the suite's concurrency.
    pub fn acquire(&self) -> BudgetGuard<'_> {
        let mut tickets = self.lock();
        let ticket = tickets.issued;
        tickets.issued += 1;
        while ticket >= tickets.released + self.permits {
            tickets = self
                .freed
                .wait(tickets)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        BudgetGuard { budget: self }
    }

    /// Tickets issued but not yet admitted.
    #[cfg(test)]
    fn waiting(&self) -> u64 {
        let tickets = self.lock();
        tickets
            .issued
            .saturating_sub(tickets.released + self.permits)
    }
}

/// RAII permit from [`Budget::acquire`]; dropping it releases the permit.
#[derive(Debug)]
pub struct BudgetGuard<'a> {
    budget: &'a Budget,
}

impl Drop for BudgetGuard<'_> {
    fn drop(&mut self) {
        self.budget.lock().released += 1;
        // The condvar cannot target the next ticket's holder, so wake
        // every waiter; each re-checks its ticket under the lock.
        self.budget.freed.notify_all();
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
    static SCOPE: RefCell<Option<Arc<Scope>>> = const { RefCell::new(None) };
}

/// Runs `f` with the thread-local `slot` holding `value`, restoring the
/// previous value afterwards, even if `f` unwinds.
fn with_tls<T: 'static, R>(
    slot: &'static std::thread::LocalKey<RefCell<Option<T>>>,
    value: Option<T>,
    f: impl FnOnce() -> R,
) -> R {
    struct Restore<T: 'static> {
        slot: &'static std::thread::LocalKey<RefCell<Option<T>>>,
        prev: Option<T>,
    }
    impl<T> Drop for Restore<T> {
        fn drop(&mut self) {
            let prev = self.prev.take();
            self.slot.with(|s| *s.borrow_mut() = prev);
        }
    }
    let prev = slot.with(|s| s.replace(value));
    let _restore = Restore { slot, prev };
    f()
}

/// Runs `f(0), f(1), …, f(n - 1)` across up to `jobs` worker threads and
/// returns the results in index order.
///
/// Workers claim indices from one shared counter, so uneven cells
/// balance themselves. With `jobs <= 1` (or fewer than two items) this is
/// exactly the serial loop `(0..n).map(f).collect()` on the calling
/// thread. Each cell takes one permit from the calling thread's
/// [`Budget`], if it has one, and runs with no budget installed: the cell
/// already holds its permit, so a fan-out nested inside it must not queue
/// for a second one (under a one-permit budget that wait would never
/// end). Panics in `f` propagate to the caller.
///
/// # Examples
///
/// ```
/// use experiments::runner::pool::run_indexed;
///
/// let squares = run_indexed(4, 10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let budget = current_budget();
    let cell = |i: usize| {
        let _permit = budget.as_ref().map(|b| b.acquire());
        // The cell holds its permit, so it runs with no budget.
        with_tls(&ACTIVE, None, || f(i))
    };
    if jobs <= 1 || n <= 1 {
        return (0..n).map(cell).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break out;
                        }
                        out.push((i, cell(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, v)| v).collect()
}

/// One experiment run's crash-resilience context: where crash artifacts
/// go, whether cells get wall-clock watchdogs, and (for `repro cell`
/// replays) which single cell of the grid to execute.
///
/// Installed by the `repro` driver via [`with_scope`] around each
/// experiment; [`run_cells`](super::run_cells) reads it to arm per-cell
/// crash sessions. Library callers that never install a scope get the
/// plain behavior: no artifacts, no watchdogs, every cell runs.
#[derive(Debug)]
pub struct Scope {
    experiment: String,
    artifacts_dir: PathBuf,
    watchdog: Option<Duration>,
    filter: Option<(usize, usize)>,
    batches: AtomicUsize,
    matched: AtomicBool,
    failed: AtomicBool,
}

impl Scope {
    /// A scope for `experiment` writing crash artifacts under `dir`.
    /// Watchdogs are off and every cell runs until the builder methods
    /// say otherwise.
    pub fn new(experiment: &str, dir: &Path) -> Self {
        Scope {
            experiment: experiment.to_string(),
            artifacts_dir: dir.to_path_buf(),
            watchdog: None,
            filter: None,
            batches: AtomicUsize::new(0),
            matched: AtomicBool::new(false),
            failed: AtomicBool::new(false),
        }
    }

    /// Arms per-cell watchdogs: each cell gets `deadline` of wall-clock.
    pub fn with_watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = Some(deadline);
        self
    }

    /// Restricts execution to the single cell `batch:index`; every other
    /// cell is reported as [`CellFailure::Skipped`](super::CellFailure).
    pub fn with_filter(mut self, batch: usize, index: usize) -> Self {
        self.filter = Some((batch, index));
        self
    }

    /// The experiment id artifacts and replay commands name.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// Directory crash artifacts are written into.
    pub fn artifacts_dir(&self) -> &Path {
        &self.artifacts_dir
    }

    /// The single-cell filter, if one is set.
    pub fn filter(&self) -> Option<(usize, usize)> {
        self.filter
    }

    /// Each cell's wall-clock deadline, or `None` when watchdogs are off.
    pub fn watchdog(&self) -> Option<Duration> {
        self.watchdog
    }

    /// Claims the next batch sequence number. Called once per
    /// [`run_cells`](super::run_cells) invocation on the driver thread,
    /// in program order, so cell coordinates are stable across runs and
    /// job counts.
    pub fn claim_batch(&self) -> usize {
        self.batches.fetch_add(1, Ordering::Relaxed)
    }

    /// Marks that the filtered cell was reached (no-op without a filter).
    pub fn note_matched(&self) {
        self.matched.store(true, Ordering::Relaxed);
    }

    /// Whether the filtered cell was reached.
    pub fn matched(&self) -> bool {
        self.matched.load(Ordering::Relaxed)
    }

    /// Marks that some non-skipped cell under this scope failed.
    pub fn note_failed(&self) {
        self.failed.store(true, Ordering::Relaxed);
    }

    /// Whether any non-skipped cell under this scope failed.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Runs `f` with `scope` installed as this thread's crash-resilience
/// scope; batches started under it write crash artifacts, arm watchdogs,
/// and honor the cell filter. The previous scope is restored afterwards,
/// even if `f` unwinds.
pub fn with_scope<R>(scope: &Arc<Scope>, f: impl FnOnce() -> R) -> R {
    with_tls(&SCOPE, Some(scope.clone()), f)
}

/// The crash-resilience scope installed on the calling thread, if any.
pub fn current_scope() -> Option<Arc<Scope>> {
    SCOPE.with(|slot| slot.borrow().clone())
}

/// Runs `f` with `budget` installed as this thread's active budget:
/// every [`run_indexed`] batch started under it acquires a permit per
/// cell instead of running unthrottled, and every grid made under it
/// shares the budget's checkpoint store. The previous budget (normally
/// none) is restored afterwards, even if `f` unwinds.
pub fn with_budget<R>(budget: &Arc<Budget>, f: impl FnOnce() -> R) -> R {
    with_tls(&ACTIVE, Some(budget.clone()), f)
}

/// The budget installed on the calling thread, if any.
pub fn current_budget() -> Option<Arc<Budget>> {
    ACTIVE.with(|slot| slot.borrow().clone())
}

/// Drives `run(0), …, run(n - 1)` on one thread each, committing results
/// on the calling thread strictly in index order — but *streamed*: index
/// `i` is committed as soon as it and every earlier index have finished,
/// not after the whole suite completes.
///
/// This is the `repro all` driver. `run(i)` executes experiment `i`
/// (typically under [`with_budget`], so its cells share the global
/// permit pool) and returns its rendered output; `commit(i, out)` prints
/// it. Because commits happen on one thread in index order, interleaving
/// worker completion in any order produces identical bytes.
///
/// Panics in any `run` propagate to the caller after the scope joins.
pub fn run_streamed<T, F, C>(n: usize, run: F, mut commit: C)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, T),
{
    if n <= 1 {
        if n == 1 {
            commit(0, run(0));
        }
        return;
    }
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let tx = tx.clone();
                let run = &run;
                scope.spawn(move || {
                    // A send error means the receiver side already
                    // panicked; this driver's result is moot either way.
                    let _ = tx.send((i, run(i)));
                })
            })
            .collect();
        drop(tx);
        let mut parked: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut next = 0;
        for (i, out) in rx {
            parked[i] = Some(out);
            while next < n {
                match parked[next].take() {
                    Some(out) => {
                        commit(next, out);
                        next += 1;
                    }
                    None => break,
                }
            }
        }
        // The channel drained, so every driver has finished (a panicking
        // driver drops its sender during unwind, leaving a gap in
        // `parked`); re-raise the first panic with its original payload.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn budget_caps_concurrency() {
        let budget = Budget::new(2);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let _permit = budget.acquire();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "budget of 2 admitted {} concurrent holders",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn budget_zero_is_clamped() {
        let budget = Budget::new(0);
        let _permit = budget.acquire(); // would deadlock without the clamp
    }

    #[test]
    fn permit_released_on_unwind() {
        let budget = Budget::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = budget.acquire();
            panic!("cell failure");
        }));
        assert!(result.is_err());
        let _permit = budget.acquire(); // leak would deadlock here
    }

    #[test]
    fn permits_are_granted_in_arrival_order() {
        let budget = Budget::new(1);
        let admitted = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let gate = budget.acquire(); // hold the only permit
            for arrival in 0..4u64 {
                let (budget, admitted) = (&budget, &admitted);
                scope.spawn(move || {
                    let _permit = budget.acquire();
                    admitted.lock().unwrap().push(arrival);
                });
                // Queue one at a time so arrival order is well-defined.
                while budget.waiting() < arrival + 1 {
                    std::thread::yield_now();
                }
            }
            drop(gate);
        });
        assert_eq!(*admitted.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn with_budget_installs_and_restores() {
        assert!(current_budget().is_none());
        let budget = Arc::new(Budget::new(3));
        with_budget(&budget, || {
            let active = current_budget().expect("budget installed");
            assert!(Arc::ptr_eq(&active, &budget));
        });
        assert!(current_budget().is_none());
    }

    #[test]
    fn with_budget_restores_on_unwind() {
        let budget = Arc::new(Budget::new(1));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_budget(&budget, || panic!("driver failure"));
        }));
        assert!(result.is_err());
        assert!(current_budget().is_none(), "TLS budget leaked past unwind");
    }

    #[test]
    fn nested_fan_outs_do_not_wait_for_a_second_permit() {
        let budget = Arc::new(Budget::new(1));
        with_budget(&budget, || {
            for jobs in [1, 3] {
                // A fan-out nested in a cell of a one-permit budget must
                // not wait for a second permit.
                let nested = run_indexed(jobs, 2, |i| run_indexed(2, 2, |j| i * 2 + j));
                assert_eq!(nested, vec![vec![0, 1], vec![2, 3]], "jobs {jobs}");
            }
        });
    }

    /// Callers that ask the budget's store for a finish while another
    /// caller is running it wait for its record and share its value.
    #[test]
    fn callers_during_a_computation_share_its_value() {
        use super::super::grid::Target;
        use super::super::store::{finish_of, keyed};
        use super::super::{build_with, RunOptions};
        use hypervisor::{BaselinePolicy, MachineConfig};
        use simcore::ids::VmId;
        use simcore::time::SimTime;
        use std::sync::mpsc::{channel, Receiver, Sender};
        use workloads::{scenarios, Workload};
        let small = || {
            let cfg = MachineConfig::small(4);
            let n = cfg.num_pcpus;
            // Exim finishes at about 0.45 s under the baseline policy.
            let specs = vec![
                scenarios::vm(Workload::Exim, n, Some(3_000)),
                scenarios::vm(Workload::Swaptions, n, None),
            ];
            (cfg, specs)
        };
        let opts = RunOptions::quick();
        let runs = AtomicUsize::new(0);
        let budget = Arc::new(Budget::new(4));
        let (started_tx, started) = channel();
        let (release, release_rx) = channel();
        let (runs, budget, opts) = (&runs, &budget, &opts);
        let cell = move |gate: Option<(Sender<()>, Receiver<()>)>| {
            let keyed = keyed(budget.store(), opts, &small());
            finish_of(
                &keyed,
                None,
                Target::Vm(VmId(0)),
                SimTime::from_secs(5),
                || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    if let Some((started, release)) = gate {
                        started.send(()).unwrap();
                        release.recv().unwrap();
                    }
                    build_with(opts, small(), Box::new(BaselinePolicy))
                },
            )
        };
        let values = std::thread::scope(|scope| {
            let first = scope.spawn(move || cell(Some((started_tx, release_rx))));
            // The record is locked until the release: the callers
            // spawned now either wait on it or find the recorded finish.
            started.recv().unwrap();
            let rest: Vec<_> = (0..3).map(|_| scope.spawn(move || cell(None))).collect();
            release.send(()).unwrap();
            std::iter::once(first)
                .chain(rest)
                .map(|h| h.join().unwrap().expect("exim finishes"))
                .collect::<Vec<_>>()
        });
        assert!(values.iter().all(|v| *v == values[0]), "{values:?}");
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scope_installs_restores_and_counts_batches() {
        assert!(current_scope().is_none());
        let scope = Arc::new(Scope::new("fig4", Path::new("crash")));
        with_scope(&scope, || {
            let active = current_scope().expect("scope installed");
            assert!(Arc::ptr_eq(&active, &scope));
            assert_eq!(active.claim_batch(), 0);
            assert_eq!(active.claim_batch(), 1);
        });
        assert!(current_scope().is_none());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_scope(&scope, || panic!("driver failure"));
        }));
        assert!(result.is_err());
        assert!(current_scope().is_none(), "TLS scope leaked past unwind");
    }

    #[test]
    fn scope_watchdog_is_the_floor_when_armed() {
        let off = Scope::new("fig4", Path::new("crash"));
        assert_eq!(off.watchdog(), None, "watchdog defaults off");
        let floor = Duration::from_secs(60);
        let armed = Scope::new("fig4", Path::new("crash")).with_watchdog(floor);
        assert_eq!(armed.watchdog(), Some(floor));
    }

    #[test]
    fn run_streamed_commits_in_index_order() {
        let mut seen = Vec::new();
        run_streamed(
            16,
            |i| {
                // Finish in scrambled order: later indices return faster.
                std::thread::sleep(std::time::Duration::from_micros(((16 - i) as u64) * 50));
                i * 7
            },
            |i, v| seen.push((i, v)),
        );
        assert_eq!(seen, (0..16).map(|i| (i, i * 7)).collect::<Vec<_>>());
    }

    #[test]
    fn run_streamed_handles_empty_and_single() {
        let mut seen = Vec::new();
        run_streamed(0, |i| i, |i, v| seen.push((i, v)));
        assert!(seen.is_empty());
        run_streamed(1, |i| i + 41, |i, v| seen.push((i, v)));
        assert_eq!(seen, vec![(0, 41)]);
    }

    #[test]
    #[should_panic(expected = "experiment 2 exploded")]
    fn run_streamed_propagates_driver_panics() {
        run_streamed(
            4,
            |i| {
                if i == 2 {
                    panic!("experiment 2 exploded");
                }
                i
            },
            |_, _| {},
        );
    }

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
