//! Cross-experiment fan-out: one global `--jobs` budget for the whole
//! suite, with cost-ordered admission.
//!
//! [`parallel::run_indexed`](super::parallel::run_indexed) fans the cells
//! of *one* experiment across workers. Driving `repro all` through it
//! serially leaves a gap: the tail of each experiment idles most workers
//! (grids rarely divide evenly), and single-cell batches hold the whole
//! suite hostage. This module lifts the fan-out one level: every
//! experiment runs on its own driver thread, and a single global
//! [`Budget`] of `--jobs` permits gates *cell* execution across all of
//! them — cells from different experiments overlap, but never more than
//! `--jobs` simulations run at once.
//!
//! Admission is cost-ordered, not FIFO. Waiters queue with a priority —
//! their cell's estimated wall-clock from the persisted
//! [`CostModel`] — and each freed permit goes to
//! the **longest-estimated pending cell across every queued experiment**
//! (ties admit in arrival order). The effect is work-stealing along the
//! critical path: the moment one experiment's workers idle (its grid
//! drained), their permits are re-granted to whichever other experiment
//! holds the longest outstanding cells, so long cells start early instead
//! of becoming the suite's tail. Drivers install the estimates via
//! [`with_costs`]; without a cost context every waiter has priority 0 and
//! the budget degrades to plain FIFO.
//!
//! Determinism is untouched by construction. The budget only decides
//! *when* a cell runs, never *what* it computes: each cell is a pure
//! function of its grid index (see [`parallel`](super::parallel)), each
//! batch still collects results in index order, and [`run_streamed`]
//! commits whole experiments in submission order. `repro all --jobs N`
//! is byte-identical on stdout for every `N` — and for every cost model,
//! warm, cold, or absent (`tests/determinism.rs` holds both).
//!
//! The machinery is permit-based rather than a single type-erased job
//! queue: experiment closures borrow their grids and options from the
//! driver's stack, so handing them to long-lived pool workers would need
//! `'static` erasure. Gating the existing scoped workers with a shared
//! priority semaphore gives the same schedule envelope with no `unsafe`
//! and no new dependencies.
//!
//! A budget also carries the invocation's **cell memo** ([`memo`]):
//! experiments show the same co-run configurations several ways (Figure
//! 6 re-shows Figure 4/5 cells, `compare` re-checks six artifacts), and
//! the memo simulates each such shared cell once per budget and hands
//! the result to every other consumer. Only successes are kept, so a
//! failing cell still fails — with its own crash artifact — wherever it
//! is shown. Beside it sits the invocation's **checkpoint store**
//! ([`store`](super::store)): machine checkpoints along simulated
//! trajectories, so cells that need the same machine at the same time
//! (a shared warm-up, a shared baseline window) fork it instead of
//! simulating it again. Memo and store live and die with their `Budget`;
//! nothing is process-global.

use super::cost::{self, BatchPlan, CostModel, CostRecorder};
use super::store::CheckpointStore;
use super::RunOptions;
use hypervisor::pcpu::first_rank_above;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A queued admission request's packed key: `(priority << 64) | !seq`.
///
/// Admission order is "highest estimated cost first, ties to the earlier
/// arrival", which under this packing is simply the *largest* key: the
/// priority occupies the high bits, and complementing the sequence
/// number makes earlier arrivals larger within a priority. Keys are
/// unique (`seq` is unique), so a waiter can recognize itself at the
/// head by key equality alone.
type TicketKey = u128;

/// The pending-waiter queue: two parallel ascending arrays, best ticket
/// at the end.
///
/// The same structure-of-arrays discipline as the pCPU run queues
/// ([`hypervisor::pcpu`]): a dense `Vec<u8>` of coarse priority ranks —
/// the bit length of the priority, a monotone compression of the cost
/// estimate into one byte — rides in front of the full 128-bit keys.
/// An insert scans the rank bytes with the shared
/// [`first_rank_above`] SWAR probe (eight waiters per step) and only
/// falls back to comparing full keys inside the one rank bucket the
/// ticket lands in; admission itself is a `Vec::pop`. Queues here are
/// "every blocked driver thread in the suite" — dozens under a `repro
/// all --jobs 2` run — so the word-at-a-time scan is the same win it is
/// in the dispatch path, and the arrays stay cache-dense where the old
/// binary heap chased sparse sift paths.
#[derive(Debug, Default)]
struct TicketQueue {
    /// Bit length of each ticket's priority (0..=64, always < 0x7f, the
    /// SWAR probe's operand bound), ascending in lockstep with `keys`.
    coarse: Vec<u8>,
    /// Packed `(priority, !seq)` keys, ascending; best at the end.
    keys: Vec<TicketKey>,
}

impl TicketQueue {
    fn pack(priority: u64, seq: u64) -> TicketKey {
        ((priority as TicketKey) << 64) | (!seq) as TicketKey
    }

    /// Queue a ticket, keeping both arrays sorted.
    fn push(&mut self, priority: u64, seq: u64) {
        let rank = (64 - priority.leading_zeros()) as u8;
        let key = Self::pack(priority, seq);
        // SWAR scan to the end of this rank's bucket, then refine
        // backwards by full key — the bucket is the only region where
        // rank alone cannot order the ticket.
        let mut i = first_rank_above(&self.coarse, rank);
        while i > 0 && self.keys[i - 1] > key {
            i -= 1;
        }
        self.coarse.insert(i, rank);
        self.keys.insert(i, key);
    }

    /// The best pending ticket's key (highest priority, earliest
    /// arrival), if any waiter is queued.
    fn best(&self) -> Option<TicketKey> {
        self.keys.last().copied()
    }

    /// Remove the best ticket. Callers only dequeue themselves after
    /// matching [`best`](Self::best) against their own key.
    fn pop_best(&mut self) {
        self.coarse.pop();
        self.keys.pop();
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[derive(Debug)]
struct BudgetState {
    permits: usize,
    waiters: TicketQueue,
    next_seq: u64,
}

/// A counting semaphore bounding how many experiment cells run at once
/// across every in-flight experiment, admitting waiters
/// longest-estimated-first (see [`Budget::acquire_ordered`]), plus the
/// cell memo (see [`memo`]) and checkpoint store (see
/// [`store`](super::store)) those cells share.
#[derive(Debug)]
pub struct Budget {
    state: Mutex<BudgetState>,
    available: Condvar,
    memo: CellMemo,
    store: Arc<CheckpointStore>,
}

impl Budget {
    /// A budget of `permits` concurrent cells. Zero is clamped to 1 (a
    /// zero-permit budget would deadlock the first acquirer).
    pub fn new(permits: usize) -> Self {
        Budget {
            state: Mutex::new(BudgetState {
                permits: permits.max(1),
                waiters: TicketQueue::default(),
                next_seq: 0,
            }),
            available: Condvar::new(),
            memo: CellMemo::default(),
            store: Arc::default(),
        }
    }

    /// The invocation's checkpoint store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    fn lock(&self) -> MutexGuard<'_, BudgetState> {
        // A panicking cell never holds this lock (permits are held across
        // `f(i)`, the lock only around the counter update), so poison is
        // spurious; recover rather than cascade.
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Blocks until a permit is free and takes it, FIFO among priority-0
    /// waiters. Equivalent to [`acquire_ordered`](Self::acquire_ordered)
    /// with priority 0.
    pub fn acquire(&self) -> BudgetGuard<'_> {
        self.acquire_ordered(0)
    }

    /// Blocks until a permit is free *and* no pending waiter outranks
    /// `priority` (estimated cell cost in ns), then takes the permit.
    /// Permits therefore always go to the longest-estimated pending cell
    /// suite-wide; equal priorities admit in arrival order, so a fixed
    /// cost model gives a fixed admission discipline. The permit returns
    /// to the pool when the guard drops — including on unwind, so a
    /// panicking cell cannot leak the suite's concurrency.
    pub fn acquire_ordered(&self, priority: u64) -> BudgetGuard<'_> {
        let mut st = self.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        let ticket = TicketQueue::pack(priority, seq);
        st.waiters.push(priority, seq);
        loop {
            if st.permits > 0 && st.waiters.best() == Some(ticket) {
                st.waiters.pop_best();
                st.permits -= 1;
                if st.permits > 0 && !st.waiters.is_empty() {
                    // Permits remain for the next-ranked waiter; wake the
                    // herd so the new head can claim one.
                    self.available.notify_all();
                }
                return BudgetGuard { budget: self };
            }
            st = self
                .available
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// How many admission requests are currently queued waiting for a
    /// permit. Diagnostic only — the count is stale the moment the lock
    /// drops; tests use it to wait for contention to build up.
    pub fn queued_waiters(&self) -> usize {
        self.lock().waiters.len()
    }
}

/// RAII permit from [`Budget::acquire`]; dropping it releases the permit.
#[derive(Debug)]
pub struct BudgetGuard<'a> {
    budget: &'a Budget,
}

impl Drop for BudgetGuard<'_> {
    fn drop(&mut self) {
        self.budget.lock().permits += 1;
        // The condvar cannot target the top-ranked waiter, so wake them
        // all; each re-checks rank under the lock.
        self.budget.available.notify_all();
    }
}

/// One memo entry. An absent entry is an empty slot.
enum Slot {
    /// The first caller is computing the value; later callers wait.
    Computing,
    /// A computed success. Each key names one cell function, so it maps
    /// to exactly one value type.
    Ready(Arc<dyn Any + Send + Sync>),
}

/// A budget's cell memo: successes of shared cells by key (see [`memo`]).
///
/// The first caller of a key computes, concurrent callers block while
/// holding their permit, and a computation that fails or panics leaves
/// the slot empty, so the next caller recomputes. A memoized computation
/// never consults the memo itself (see [`memo`]), so no wait here can
/// form a cycle.
#[derive(Default)]
struct CellMemo {
    slots: Mutex<BTreeMap<String, Slot>>,
    settled: Condvar,
}

impl std::fmt::Debug for CellMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellMemo").finish_non_exhaustive()
    }
}

impl CellMemo {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Slot>> {
        // Computations run outside the lock, so poison is spurious.
        self.slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn get_or_compute<T, E>(&self, key: String, f: impl FnOnce() -> Result<T, E>) -> Result<T, E>
    where
        T: Clone + Send + Sync + 'static,
    {
        let mut slots = self.lock();
        loop {
            match slots.get(&key) {
                Some(Slot::Ready(value)) => {
                    note_served();
                    return Ok(value
                        .downcast_ref::<T>()
                        .expect("each memo key maps to one value type")
                        .clone());
                }
                Some(Slot::Computing) => {
                    slots = self
                        .settled
                        .wait(slots)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
                None => break,
            }
        }
        slots.insert(key.clone(), Slot::Computing);
        drop(slots);
        let mut settle = Settle {
            memo: self,
            key,
            value: None,
        };
        let out = f();
        if let Ok(value) = &out {
            settle.value = Some(Arc::new(value.clone()));
        }
        out
    }
}

/// Settles a `Computing` slot however its computation ends: a success
/// is stored; a failure or an unwind empties the slot. Either way the
/// waiters wake.
struct Settle<'a> {
    memo: &'a CellMemo,
    key: String,
    value: Option<Arc<dyn Any + Send + Sync>>,
}

impl Drop for Settle<'_> {
    fn drop(&mut self) {
        let mut slots = self.memo.lock();
        match self.value.take() {
            Some(value) => slots.insert(std::mem::take(&mut self.key), Slot::Ready(value)),
            None => slots.remove(&self.key),
        };
        drop(slots);
        self.memo.settled.notify_all();
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
    static MEMO: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
    static COSTS: RefCell<Option<Rc<CostContext>>> = const { RefCell::new(None) };
    static SCOPE: RefCell<Option<Arc<Scope>>> = const { RefCell::new(None) };
    static STORE: RefCell<Option<Arc<CheckpointStore>>> = const { RefCell::new(None) };
    /// Set when a memo point or the checkpoint store hands this thread a
    /// stored value; reset and read per cell by [`in_cell`].
    static SERVED: Cell<bool> = const { Cell::new(false) };
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

/// Runs the shared cell `cell(args)` through the cell memo of the
/// budget this thread runs under: the first call per budget computes
/// `f`, and every later call with the same key gets a clone of that
/// success instead of simulating again.
///
/// The key is `cell`, `args` (by `Debug`), and every [`RunOptions`]
/// field except `jobs`, faults by their canonical `Display`. `cell`
/// names the cell function, so each key maps to one value type, and
/// `args` must pin everything else the value depends on.
///
/// Only successes are kept: a failing cell fails again for each
/// consumer, each with its own crash artifact, shrink, and replay
/// command. Without a budget (library callers, `simbench`'s serial
/// pass) and in [`crash::with_scratch_mode`] (shrink probes, whose
/// truncated fault plans must govern the whole run) `f` runs directly
/// and the memo is neither read nor written.
///
/// [`crash::with_scratch_mode`]: hypervisor::crash::with_scratch_mode
pub fn memo<T, E>(
    cell: &str,
    args: impl std::fmt::Debug,
    opts: &RunOptions,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, E>
where
    T: Clone + Send + Sync + 'static,
{
    let Some(budget) = current_memo().filter(|_| !hypervisor::crash::scratch_mode()) else {
        return f();
    };
    // Destructured so a new option cannot be left out of the key.
    let RunOptions {
        quick,
        seed,
        jobs: _,
        paranoid,
        keep_going,
        faults,
        fork,
    } = *opts;
    let faults = faults.map_or_else(String::new, |spec| spec.to_string());
    let key = format!(
        "{cell}{args:?} quick={quick} seed={seed} paranoid={paranoid} \
         keep_going={keep_going} fork={fork} faults={faults}"
    );
    // The computation runs with the memo hidden, so it never waits on
    // another slot while its own is `Computing`. The checkpoint store
    // stays visible: an extension never waits on a memo slot.
    budget.memo.get_or_compute(key, || with_tls(&MEMO, None, f))
}

/// Runs one fan-out cell `f` with `memo`'s cell memo and `store` visible
/// and no permit budget installed. The cell already holds its permit: a
/// fan-out nested inside it must not queue for a second one (under a
/// one-permit budget that wait would never end), while the cell's memo
/// points and checkpoints still share results with the rest of the
/// invocation.
///
/// Also returns whether the cell was served a stored value (see
/// [`note_served`]). Such a cell simulated little or nothing, so its
/// wall-clock is not its cost and must not reach the cost model.
pub(super) fn in_cell<R>(
    memo: Option<&Arc<Budget>>,
    store: Option<&Arc<CheckpointStore>>,
    f: impl FnOnce() -> R,
) -> (R, bool) {
    let outer = SERVED.with(|served| served.replace(false));
    let out = with_tls(&ACTIVE, None, || {
        with_tls(&MEMO, memo.cloned(), || with_tls(&STORE, store.cloned(), f))
    });
    // A cell nested on this thread marks the cell around it too.
    let served = SERVED.with(|served| served.replace(outer || served.get()));
    (out, served)
}

/// Marks the running cell as served: a memo point handed it a stored
/// value, or the checkpoint store handed it its final machine without
/// simulating.
pub(super) fn note_served() {
    SERVED.with(|served| served.set(true));
}

/// The budget whose cell memo is visible on the calling thread, if any.
pub(super) fn current_memo() -> Option<Arc<Budget>> {
    MEMO.with(|slot| slot.borrow().clone())
}

/// The checkpoint store visible on the calling thread, if any: the
/// budget's, in every cell and memo computation run under one.
pub(super) fn current_store() -> Option<Arc<CheckpointStore>> {
    STORE.with(|slot| slot.borrow().clone())
}

/// Multiplier over a cell's estimated wall-clock when deriving its
/// watchdog deadline: generous enough that honest variance (cold caches,
/// host preemption, a debug build) never trips it, tight enough that a
/// livelocked cell is cancelled within one order of magnitude of its
/// budget.
pub const WATCHDOG_COST_FACTOR: u32 = 8;

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
    watchdog_floor: Option<Duration>,
    filter: Option<(usize, usize)>,
    cost_label: String,
    model: Option<Arc<CostModel>>,
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
            watchdog_floor: None,
            filter: None,
            cost_label: experiment.to_string(),
            model: None,
            batches: AtomicUsize::new(0),
            matched: AtomicBool::new(false),
            failed: AtomicBool::new(false),
        }
    }

    /// Arms per-cell watchdogs: each cell's deadline is
    /// `max(floor, WATCHDOG_COST_FACTOR x its estimated wall-clock)`.
    pub fn with_watchdog(mut self, floor: Duration) -> Self {
        self.watchdog_floor = Some(floor);
        self
    }

    /// Restricts execution to the single cell `batch:index`; every other
    /// cell is reported as [`CellFailure::Skipped`](super::CellFailure).
    pub fn with_filter(mut self, batch: usize, index: usize) -> Self {
        self.filter = Some((batch, index));
        self
    }

    /// Uses `model` (keyed under `cost_label`, which may carry `@quick` /
    /// `@fork` suffixes) for watchdog deadline estimates.
    pub fn with_cost_model(mut self, cost_label: &str, model: Arc<CostModel>) -> Self {
        self.cost_label = cost_label.to_string();
        self.model = Some(model);
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

    /// Claims the next batch sequence number. Called once per
    /// [`run_cells`](super::run_cells) invocation on the driver thread,
    /// in program order — the same discipline as
    /// [`CostContext::plan_batch`], so the two counters agree and cell
    /// coordinates are stable across runs and job counts.
    pub fn claim_batch(&self) -> usize {
        self.batches.fetch_add(1, Ordering::Relaxed)
    }

    /// The watchdog budget for cell `index` of an `n`-cell batch
    /// `batch`, or `None` when watchdogs are off.
    pub fn deadline_for(&self, batch: usize, index: usize, n: usize) -> Option<Duration> {
        let floor = self.watchdog_floor?;
        let est_ns = match &self.model {
            Some(m) => m.estimate(&cost::cell_key(&self.cost_label, batch, index), n),
            None => cost::heuristic_estimate(n),
        };
        Some(floor.max(Duration::from_nanos(
            est_ns.saturating_mul(WATCHDOG_COST_FACTOR as u64),
        )))
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
/// every [`run_indexed`](super::parallel::run_indexed) batch started
/// under it acquires a permit per cell instead of running unthrottled,
/// and every [`memo`] point and checkpoint reached under it shares the
/// budget's cell memo and checkpoint store. The previous budget
/// (normally none) is restored afterwards, even if `f` unwinds.
pub fn with_budget<R>(budget: &Arc<Budget>, f: impl FnOnce() -> R) -> R {
    with_tls(&ACTIVE, Some(budget.clone()), || {
        with_tls(&MEMO, Some(budget.clone()), || {
            with_tls(&STORE, Some(budget.store.clone()), f)
        })
    })
}

/// The budget installed on the calling thread, if any.
pub fn current_budget() -> Option<Arc<Budget>> {
    ACTIVE.with(|slot| slot.borrow().clone())
}

/// One driver's cost-scheduling state: which experiment it is running,
/// the shared read-only [`CostModel`] snapshot estimates come from, the
/// shared [`CostRecorder`] observations go to, and a counter assigning
/// each fan-out batch its stable sequence number.
#[derive(Debug)]
pub struct CostContext {
    experiment: String,
    model: Arc<CostModel>,
    recorder: Arc<CostRecorder>,
    batches: Cell<usize>,
}

impl CostContext {
    /// Builds the admission plan for the next batch of `n` cells,
    /// consuming one batch sequence number. Called once per
    /// [`run_indexed`](super::parallel::run_indexed) invocation on the
    /// driver thread, in program order, so cell keys are stable across
    /// runs and job counts.
    pub fn plan_batch(&self, n: usize) -> BatchPlan {
        let batch = self.batches.get();
        self.batches.set(batch + 1);
        self.model.plan_batch(&self.experiment, batch, n)
    }

    /// The shared observation sink (cloned into worker threads).
    pub fn recorder(&self) -> Arc<CostRecorder> {
        self.recorder.clone()
    }
}

/// Runs `f` with a cost context installed on this thread: batches started
/// under it are admitted longest-estimated-first per `model` and report
/// their wall-clock into `recorder` under `experiment`-prefixed cell
/// keys. The previous context is restored afterwards, even if `f`
/// unwinds. Composes with [`with_budget`]; either works alone.
pub fn with_costs<R>(
    experiment: &str,
    model: &Arc<CostModel>,
    recorder: &Arc<CostRecorder>,
    f: impl FnOnce() -> R,
) -> R {
    let ctx = Rc::new(CostContext {
        experiment: experiment.to_string(),
        model: model.clone(),
        recorder: recorder.clone(),
        batches: Cell::new(0),
    });
    with_tls(&COSTS, Some(ctx), f)
}

/// The cost context installed on the calling thread, if any.
pub fn current_costs() -> Option<Rc<CostContext>> {
    COSTS.with(|slot| slot.borrow().clone())
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn contended_permits_admit_longest_estimate_first() {
        let budget = Budget::new(1);
        let admitted = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let gate = budget.acquire(); // hold the only permit
            for priority in [10u64, 500, 90] {
                let (budget, admitted) = (&budget, &admitted);
                scope.spawn(move || {
                    let _permit = budget.acquire_ordered(priority);
                    admitted.lock().unwrap().push(priority);
                });
            }
            // Wait until all three waiters are queued, then open the gate.
            while budget.queued_waiters() < 3 {
                std::thread::yield_now();
            }
            drop(gate);
        });
        assert_eq!(
            *admitted.lock().unwrap(),
            vec![500, 90, 10],
            "admission must be longest-estimated-first"
        );
    }

    #[test]
    fn equal_priorities_admit_in_arrival_order() {
        let budget = Budget::new(1);
        let admitted = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let gate = budget.acquire();
            for arrival in 0..4u64 {
                let (budget, admitted) = (&budget, &admitted);
                scope.spawn(move || {
                    let _permit = budget.acquire_ordered(7);
                    admitted.lock().unwrap().push(arrival);
                });
                // Queue one at a time so arrival order is well-defined.
                while budget.queued_waiters() < (arrival + 1) as usize {
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

    /// A memo point that counts how often its computation runs.
    fn counted(runs: &AtomicUsize, value: u64) -> Result<u64, String> {
        memo("counted", value, &RunOptions::quick(), || {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(value * 2)
        })
    }

    #[test]
    fn memo_computes_once_per_budget_and_never_across_budgets() {
        let runs = AtomicUsize::new(0);
        let (first, second) = (Arc::new(Budget::new(2)), Arc::new(Budget::new(2)));
        for budget in [&first, &second] {
            with_budget(budget, || {
                assert_eq!(counted(&runs, 21), Ok(42));
                assert_eq!(counted(&runs, 21), Ok(42));
            });
        }
        assert_eq!(runs.load(Ordering::SeqCst), 2, "one computation per budget");
        // Other arguments and other options are other keys.
        with_budget(&first, || {
            assert_eq!(counted(&runs, 5), Ok(10));
            let other_seed = RunOptions {
                seed: 1,
                ..RunOptions::quick()
            };
            let out: Result<u64, String> = memo("counted", 21u64, &other_seed, || {
                runs.fetch_add(1, Ordering::SeqCst);
                Ok(0)
            });
            assert_eq!(out, Ok(0));
        });
        assert_eq!(runs.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn memo_key_ignores_jobs() {
        let runs = AtomicUsize::new(0);
        with_budget(&Arc::new(Budget::new(1)), || {
            for jobs in [1, 2, 8] {
                let out: Result<u64, String> =
                    memo("jobs", (), &RunOptions::quick().with_jobs(jobs), || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        Ok(7)
                    });
                assert_eq!(out, Ok(7));
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn memo_without_a_budget_computes_every_call() {
        let runs = AtomicUsize::new(0);
        for _ in 0..3 {
            assert_eq!(counted(&runs, 21), Ok(42));
        }
        assert_eq!(runs.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn memo_does_not_cache_failures() {
        let runs = AtomicUsize::new(0);
        let failing = || -> Result<u64, String> {
            memo("failing", (), &RunOptions::quick(), || {
                runs.fetch_add(1, Ordering::SeqCst);
                Err("cell failed".to_string())
            })
        };
        with_budget(&Arc::new(Budget::new(1)), || {
            assert!(failing().is_err());
            assert!(failing().is_err());
        });
        assert_eq!(runs.load(Ordering::SeqCst), 2, "each consumer recomputes");
    }

    #[test]
    fn memo_slot_is_emptied_by_a_panicking_computation() {
        let runs = AtomicUsize::new(0);
        with_budget(&Arc::new(Budget::new(1)), || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _: Result<u64, String> = memo("counted", 21u64, &RunOptions::quick(), || {
                    panic!("cell panicked")
                });
            }));
            assert!(result.is_err());
            assert_eq!(counted(&runs, 21), Ok(42), "the slot must be empty again");
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn memo_is_neither_read_nor_written_in_scratch_mode() {
        use hypervisor::crash::with_scratch_mode;
        let runs = AtomicUsize::new(0);
        with_budget(&Arc::new(Budget::new(1)), || {
            // Not written: a scratch-mode computation leaves no entry.
            with_scratch_mode(|| counted(&runs, 21)).unwrap();
            counted(&runs, 21).unwrap();
            assert_eq!(runs.load(Ordering::SeqCst), 2);
            // Not read: the entry now cached is ignored in scratch mode.
            with_scratch_mode(|| counted(&runs, 21)).unwrap();
            assert_eq!(runs.load(Ordering::SeqCst), 3);
        });
    }

    #[test]
    fn callers_during_a_computation_share_its_value() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        let runs = AtomicUsize::new(0);
        let budget = Arc::new(Budget::new(4));
        let (started_tx, started) = channel();
        let (release, release_rx) = channel();
        let (runs, budget) = (&runs, &budget);
        let cell = move |gate: Option<(Sender<()>, Receiver<()>)>| {
            with_budget(budget, || {
                memo("slow", (), &RunOptions::quick(), || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    if let Some((started, release)) = gate {
                        started.send(()).unwrap();
                        release.recv().unwrap();
                    }
                    Ok::<u64, String>(9)
                })
            })
        };
        let values = std::thread::scope(|scope| {
            let first = scope.spawn(move || cell(Some((started_tx, release_rx))));
            // The slot is `Computing` until the release: the callers
            // spawned now either wait on it or find the stored value.
            started.recv().unwrap();
            let rest: Vec<_> = (0..3).map(|_| scope.spawn(move || cell(None))).collect();
            release.send(()).unwrap();
            std::iter::once(first)
                .chain(rest)
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(values, vec![Ok(9); 4]);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cells_see_the_memo_but_not_the_permits() {
        let budget = Arc::new(Budget::new(1));
        with_budget(&budget, || {
            for jobs in [1, 3] {
                let seen = super::super::parallel::run_indexed(jobs, 3, |_| {
                    let memo = current_memo().expect("the memo is visible in a cell");
                    let store = current_store().expect("the store is visible in a cell");
                    (
                        Arc::ptr_eq(&memo, &budget),
                        std::ptr::eq(&*store, budget.store()),
                        current_budget().is_none(),
                    )
                });
                assert_eq!(seen, vec![(true, true, true); 3], "jobs {jobs}");
                // A fan-out nested in a cell of a one-permit budget must
                // not wait for a second permit.
                let nested = super::super::parallel::run_indexed(jobs, 2, |i| {
                    super::super::parallel::run_indexed(2, 2, |j| i * 2 + j)
                });
                assert_eq!(nested, vec![vec![0, 1], vec![2, 3]]);
            }
        });
    }

    #[test]
    fn memo_computations_hide_the_memo_but_not_the_store() {
        let budget = Arc::new(Budget::new(1));
        with_budget(&budget, || {
            let seen: Result<(bool, bool), String> =
                memo("visibility", (), &RunOptions::quick(), || {
                    let store = current_store().expect("the store is visible");
                    Ok((
                        current_memo().is_none(),
                        std::ptr::eq(&*store, budget.store()),
                    ))
                });
            assert_eq!(seen, Ok((true, true)));
        });
    }

    #[test]
    fn memo_served_cells_record_no_cost() {
        // Every cell runs the same memo point: one simulates, the others
        // are served, and only the simulated cell reaches the recorder.
        for jobs in [1, 3] {
            let model = Arc::new(CostModel::default());
            let recorder = Arc::new(CostRecorder::default());
            let runs = AtomicUsize::new(0);
            with_budget(&Arc::new(Budget::new(jobs)), || {
                with_costs("fig4", &model, &recorder, || {
                    let out = super::super::parallel::run_indexed(jobs, 3, |_| counted(&runs, 21));
                    assert_eq!(out, vec![Ok(42); 3]);
                });
            });
            assert_eq!(runs.load(Ordering::SeqCst), 1, "jobs {jobs}");
            let recorded: Vec<String> = recorder.take().into_iter().map(|(k, _)| k).collect();
            assert_eq!(recorded.len(), 1, "jobs {jobs}: {recorded:?}");
            if jobs == 1 {
                assert_eq!(recorded, ["fig4/0:0"], "the serial path computes cell 0");
            }
        }
    }

    #[test]
    fn with_costs_installs_numbers_batches_and_restores() {
        assert!(current_costs().is_none());
        let model = Arc::new(CostModel::default());
        let recorder = Arc::new(CostRecorder::default());
        with_costs("fig4", &model, &recorder, || {
            let ctx = current_costs().expect("cost context installed");
            let first = ctx.plan_batch(3);
            let second = ctx.plan_batch(2);
            assert_eq!(first.keys[0], "fig4/0:0");
            assert_eq!(second.keys[1], "fig4/1:1");
        });
        assert!(current_costs().is_none());
    }

    #[test]
    fn with_costs_restores_on_unwind() {
        let model = Arc::new(CostModel::default());
        let recorder = Arc::new(CostRecorder::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_costs("fig4", &model, &recorder, || panic!("driver failure"));
        }));
        assert!(result.is_err());
        assert!(current_costs().is_none(), "TLS context leaked past unwind");
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
    fn scope_deadlines_respect_floor_and_estimates() {
        let off = Scope::new("fig4", Path::new("crash"));
        assert_eq!(off.deadline_for(0, 0, 4), None, "watchdog defaults off");

        let floor = Duration::from_secs(60);
        let armed = Scope::new("fig4", Path::new("crash")).with_watchdog(floor);
        // Heuristic estimate for a 4-cell batch is 2 s; 8x = 16 s < floor.
        assert_eq!(armed.deadline_for(0, 0, 4), Some(floor));

        let mut model = CostModel::default();
        // A 20 s recorded cell: 8x EMA = 160 s dominates the floor.
        model.absorb(&[(cost::cell_key("fig4@quick", 0, 1), 20_000_000_000)]);
        let scoped = Scope::new("fig4", Path::new("crash"))
            .with_watchdog(floor)
            .with_cost_model("fig4@quick", Arc::new(model));
        assert_eq!(scoped.deadline_for(0, 1, 4), Some(Duration::from_secs(160)));
        assert_eq!(
            scoped.deadline_for(0, 0, 4),
            Some(floor),
            "unrecorded cells fall back to the heuristic under the floor"
        );
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
}
