//! The deterministic virtual-time executor.
//!
//! Pending task activations are ordered by `(virtual time, tie key, task)`.
//! Each activation polls one task future; the future runs synchronously until
//! its next suspension point (a [`crate::Rt::charge`], [`crate::Rt::work`] or
//! [`crate::Notify`] wait), so shared-memory operations from different
//! logical threads interleave at exactly those points, in virtual-time order.
//!
//! A tie is resolved by a keyed hash, not a draw: the tie key of task `t`'s
//! activation at time `at` is a SplitMix-style mix of `(seed, t, at)`
//! (`task_salt`, then `key_at`). No global stream is consumed, so a step one
//! task adds or removes — a charge split in two, or two merged into one —
//! leaves every other task's activations, and their order, exactly as they
//! were. That is what lets [`crate::Rt::charge_pair`] take two charges as one
//! step.
//!
//! # Hot-path architecture
//!
//! The event queue is a hierarchical timer wheel
//! ([`votm_utils::TimerWheel`]): short `charge()` re-enqueues — the busy-retry
//! traffic that dominates contended STM runs — are O(1) ring operations
//! instead of O(log n) heap sifts. A retained reference-heap scheduler
//! ([`SchedulerKind::ReferenceHeap`]) preserves the original `BinaryHeap`
//! semantics for differential testing: both schedulers pop the exact same
//! `(vtime, tie key, task)` order, pinned by the `differential` test suite.
//!
//! The run loop owns its state directly (no `Mutex`): [`SimHandle`] is
//! `!Send`, so every handle call happens on the executor's thread, and the
//! only cross-thread entry point — a real-thread `Notify::notify_all` waking
//! a sim task — goes through a small mailbox (mutex-protected `Vec` plus an
//! atomic dirty flag) drained at the top of each loop iteration.
//!
//! Steady-state stepping does not allocate: wakers are created once per task
//! at spawn, futures are polled in place, the wheel recycles entry nodes
//! through a slab, and consecutive same-task `charge()` polls are coalesced —
//! when the just-polled task's next activation is itself the global minimum,
//! the executor resumes it directly without a queue round-trip. The
//! reference heap never coalesces: it is the original executor, queue
//! round-trip and all, and it steps both halves of every
//! [`crate::Rt::charge_pair`].
//!
//! Livelock is a first-class outcome: the paper's OrecEagerRedo experiments
//! livelock at high quota, so runs carry a virtual-time cap and report
//! [`RunStatus::Livelock`] when they exceed it.

use std::cell::{Cell, UnsafeCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::ThreadId;

use votm_utils::Mutex;
use votm_utils::TimerWheel;
use votm_utils::{hash_u64, XorShift64};

use crate::fault::{FaultEvent, FaultPlan, FaultRecord, FaultStats, PanicPolicy};

/// Which event-queue implementation orders activations.
///
/// Both yield the exact same `(vtime, tie key, task)` activation order; the
/// reference heap is the original queue-only executor (no coalescing, and
/// both halves of a [`crate::Rt::charge_pair`] stepped), kept so differential
/// tests can pin the timer wheel's fast path against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Hierarchical timer wheel: O(1) near-future pushes (default).
    #[default]
    TimerWheel,
    /// The original `BinaryHeap` scheduler, retained as the determinism
    /// baseline.
    ReferenceHeap,
}

/// Configuration for one simulator run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed of the keyed tie-break: two activations due at the same virtual
    /// time go in the order of their tie keys, a hash of this seed, the task
    /// and the time (and the seed does nothing else — workloads seed their
    /// own RNGs, and fault injection seeds via [`FaultPlan::seed`]).
    pub seed: u64,
    /// Virtual-cycle cap; exceeding it ends the run with
    /// [`RunStatus::Livelock`]. `None` disables the watchdog.
    pub vtime_cap: Option<u64>,
    /// Deterministic fault injection (see [`crate::fault`]); `None` runs
    /// fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// What to do when a task's poll panics (injected or organic).
    pub panic_policy: PanicPolicy,
    /// Event-queue implementation (differential-testing hook). The timer
    /// wheel also coalesces consecutive same-task `charge()` polls (see
    /// [`SchedStats::coalesced`]) and takes a [`crate::Rt::charge_pair`] as
    /// one step; the reference heap is the original queue-only executor.
    pub scheduler: SchedulerKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            vtime_cap: None,
            fault_plan: None,
            panic_policy: PanicPolicy::Propagate,
            scheduler: SchedulerKind::TimerWheel,
        }
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunStatus {
    /// Every task ran to completion.
    #[default]
    Completed,
    /// Virtual time exceeded [`SimConfig::vtime_cap`] with tasks still live —
    /// the simulator's definition of livelock (no forward progress within
    /// the time budget).
    Livelock,
    /// All live tasks are blocked on [`crate::Notify`] events and nothing can
    /// wake them.
    Deadlock,
}

/// Per-task stall diagnostic attached to non-`Completed` outcomes: enough
/// to see *which* logical thread stopped making progress, *when* it last
/// ran, and whether it was parked.
#[derive(Debug, Clone)]
pub struct TaskStall {
    /// Task (logical thread) index.
    pub task: usize,
    /// Virtual time of this task's last activation — how long it has been
    /// stalled is `outcome.vtime - last_progress`.
    pub last_progress: u64,
    /// True if the task was parked on a [`crate::Notify`] wait (deadlock
    /// shape); false if it was still being scheduled (livelock shape).
    pub waiting: bool,
}

/// Scheduler-internals counters for one run. Virtual-time results never
/// depend on these; they exist to track the cost of simulation itself
/// (surfaced in bench-gate artifacts, *not* in obs snapshot exports, which
/// must stay identical across scheduler kinds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Task activations that skipped the queue because the just-polled
    /// task's own re-enqueue was the global minimum (0 under the reference
    /// heap, which never coalesces).
    pub coalesced: u64,
    /// Entries pushed into the timer wheel's near-future ring (0 under the
    /// reference heap).
    pub ring_pushes: u64,
    /// Entries pushed into the far-future overflow heap (0 under the
    /// reference heap).
    pub overflow_pushes: u64,
    /// Overflow entries migrated into the ring as the window advanced.
    pub migrations: u64,
    /// Queue entries discarded because their task had already finished
    /// (a wake raced completion).
    pub stale_skips: u64,
    /// Wakes that arrived from other OS threads via the mailbox.
    pub cross_thread_wakes: u64,
    /// Scheduled entries superseded by a strictly earlier wake (a parked
    /// task holding its timeout entry was woken before the deadline). The
    /// superseded entry is dead and counts as a stale skip when it pops.
    pub superseded: u64,
}

/// Result of [`SimExecutor::run`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Why the run ended.
    pub status: RunStatus,
    /// Final virtual time — the makespan when `status == Completed`.
    pub vtime: u64,
    /// Tasks still live at the end (0 on completion).
    pub tasks_remaining: usize,
    /// Task activations executed.
    pub steps: u64,
    /// Aggregate injected-fault counts (all zero when
    /// [`SimConfig::fault_plan`] is `None` and no task panicked).
    pub faults: FaultStats,
    /// Full injected-fault log in delivery order. Identical
    /// `(SimConfig::seed, FaultPlan::seed)` pairs produce identical logs —
    /// the chaos tests assert this replayability.
    pub fault_log: Vec<FaultRecord>,
    /// One entry per still-live task when the run did not complete
    /// (livelock/deadlock); empty on [`RunStatus::Completed`].
    pub stalls: Vec<TaskStall>,
    /// Scheduler-internals counters (see [`SchedStats`]).
    pub sched: SchedStats,
}

/// Task futures need not be `Send`: the simulator is single-threaded, and
/// keeping the bound off lets workload bodies use `AsyncFnMut` closures
/// without tripping the compiler's higher-ranked auto-trait limitations.
type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Has an entry in the run queue (or is the held-back pending-self).
    Scheduled,
    /// Currently being polled by the executor.
    Running,
    /// Parked, waiting for a `Notify` wake.
    Waiting,
    /// Finished.
    Done,
}

struct TaskSlot {
    state: TaskState,
    /// A wake arrived while the task was being polled; reschedule it.
    wake_pending: bool,
    /// Virtual time of this task's last activation (stall diagnostics).
    last_progress: u64,
    /// Per-task fault PRNG (present iff a [`FaultPlan`] is configured).
    /// Derived from the plan seed and task id only, so the draw sequence
    /// is independent of scheduling.
    fault_rng: Option<XorShift64>,
    /// Sequential fault draws taken by this task (log correlation).
    fault_draws: u64,
    /// Stamp of the task's most recently pushed queue entry: the task id
    /// above bit [`STAMP_TASK_SHIFT`], the task's push count below it. A
    /// queue entry is live iff its task is `Scheduled` and it carries this
    /// stamp (see [`Inner::is_live`]); pushing a fresh entry is therefore
    /// all it takes to kill the one it supersedes. The queue breaks a tie
    /// on `(time, tie key)` by stamp, so by task id first.
    live_seq: u64,
    /// Virtual time of that entry.
    live_at: u64,
    /// The task's half of its tie keys, fixed at spawn ([`task_salt`]).
    tie_salt: u64,
}

/// Where the task id starts in a queue entry's stamp: a task's first 2^40
/// pushes stay below the next task's stamps (hours of simulated work for
/// one task), which makes `(time, tie key, stamp)` order ties by task.
const STAMP_TASK_SHIFT: u32 = 40;

/// The per-task half of a tie key: output `task + 1` of the SplitMix64
/// stream seeded with `seed`. The tie key of `task`'s activation at `at` is
/// `key_at(task_salt(seed, task), at)` and depends on nothing else: two
/// activations due at the same time run in ascending key order (then task
/// order), so the order of any two tasks' activations depends only on their
/// own times, never on how many steps anyone took to get there.
fn task_salt(seed: u64, task: u32) -> u64 {
    hash_u64(seed.wrapping_add(u64::from(task).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// The per-time half of a tie key: output `at + 1` of the SplitMix64
/// stream seeded with the task's salt, one finaliser per key.
#[inline]
fn key_at(salt: u64, at: u64) -> u64 {
    hash_u64(salt.wrapping_add(at.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// A self-scheduled activation held back from the queue by the coalescing
/// optimisation. It carries the key and stamp the queue push would have, so
/// activation order is bit-identical whether or not it ever touches the
/// queue.
#[derive(Debug, Clone, Copy)]
struct PendingSelf {
    at: u64,
    tiebreak: u64,
    seq: u64,
    task: u32,
}

/// Event queue: the timer wheel, or the original binary heap retained as
/// the differential-testing baseline. Both pop ascending
/// `(at, tiebreak, seq)`, `seq` being the entry's stamp (task id, then push
/// count; see [`TaskSlot::live_seq`]).
// The wheel's inline ring (~17 KiB) dwarfs the heap variant, but exactly one
// EventQueue exists per executor and it sits on the hottest path in the
// repo — boxing it would buy nothing and cost an indirection per step.
#[allow(clippy::large_enum_variant)]
enum EventQueue {
    Wheel(TimerWheel),
    Heap(BinaryHeap<Reverse<(u64, u64, u64, u32)>>),
}

impl EventQueue {
    fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::TimerWheel => Self::Wheel(TimerWheel::new()),
            SchedulerKind::ReferenceHeap => Self::Heap(BinaryHeap::new()),
        }
    }

    #[inline]
    fn push(&mut self, at: u64, tiebreak: u64, seq: u64, task: u32) {
        match self {
            Self::Wheel(w) => w.push(at, tiebreak, seq, task),
            Self::Heap(h) => h.push(Reverse((at, tiebreak, seq, task))),
        }
    }

    #[inline]
    fn pop_min(&mut self) -> Option<(u64, u64, u64, u32)> {
        match self {
            Self::Wheel(w) => w.pop_min(),
            Self::Heap(h) => h.pop().map(|Reverse(k)| k),
        }
    }

    /// Advance the wheel window past a coalesced activation that never
    /// entered the queue (no-op for the heap).
    #[inline]
    fn advance_to(&mut self, at: u64) {
        if let Self::Wheel(w) = self {
            w.advance_to(at);
        }
    }

    fn fold_stats(&self, sched: &mut SchedStats) {
        if let Self::Wheel(w) = self {
            let s = w.stats();
            sched.ring_pushes = s.ring_pushes;
            sched.overflow_pushes = s.overflow_pushes;
            sched.migrations = s.migrations;
        }
    }
}

struct Inner {
    queue: EventQueue,
    /// Held-back self-schedule from the poll that just returned (see
    /// [`PendingSelf`]); always consumed before the next poll starts.
    pending_self: Option<PendingSelf>,
    /// Hold self-schedules back in `pending_self`: the timer wheel only.
    coalesce: bool,
    tasks: Vec<TaskSlot>,
    now: u64,
    live: usize,
    plan: Option<FaultPlan>,
    faults: FaultStats,
    fault_log: Vec<FaultRecord>,
    sched: SchedStats,
    /// Reusable drain buffer for the cross-thread mailbox.
    mailbox_scratch: Vec<u32>,
}

impl Inner {
    fn schedule(&mut self, task: u32, at: u64) {
        let at = at.max(self.now);
        let slot = &mut self.tasks[task as usize];
        match slot.state {
            TaskState::Done => return,
            TaskState::Scheduled => {
                // The task already holds a queue entry. A wake at the same
                // or a later time is redundant — the held entry activates
                // the task soon enough. A *strictly earlier* wake (a parked
                // task holding its timeout entry is woken by a committing
                // writer — every woken `retry()` park) must win: fall
                // through to push a fresh entry, whose stamp replaces
                // `live_seq` and so kills the held one.
                if at >= slot.live_at {
                    return;
                }
                self.sched.superseded += 1;
            }
            TaskState::Running => {
                // Mid-poll; the executor decides after the poll returns.
                slot.wake_pending = true;
                return;
            }
            TaskState::Waiting => {}
        }
        let slot = &mut self.tasks[task as usize];
        slot.state = TaskState::Scheduled;
        slot.live_seq += 1;
        slot.live_at = at;
        let tiebreak = key_at(slot.tie_salt, at);
        self.queue.push(at, tiebreak, slot.live_seq, task);
    }

    /// Self-scheduling from `charge`: the task is Running and about to
    /// return Pending. The coalescing path below only defers the queue push;
    /// the entry's key and stamp are the same either way.
    ///
    /// One self-schedule per poll: a [`crate::Step`] completes on its next
    /// poll whatever the time, so two in flight never had a meaning. Debug
    /// builds trap a second one; in release it supersedes the first, like
    /// any later push (see [`Inner::is_live`]).
    fn self_schedule(&mut self, task: u32, at: u64) {
        let at = at.max(self.now);
        let slot = &mut self.tasks[task as usize];
        debug_assert!(
            slot.state == TaskState::Running,
            "task {task} armed two charge()/work() in one poll"
        );
        slot.state = TaskState::Scheduled;
        slot.live_seq += 1;
        slot.live_at = at;
        let (tiebreak, seq) = (key_at(slot.tie_salt, at), slot.live_seq);
        if self.coalesce {
            self.pending_self = Some(PendingSelf {
                at,
                tiebreak,
                seq,
                task,
            });
        } else {
            self.queue.push(at, tiebreak, seq, task);
        }
    }

    /// True iff the queue entry `(task, seq)` should still activate its
    /// task: the task is `Scheduled` (not finished, not killed mid-poll)
    /// and no later push superseded the entry. A dead entry costs nothing
    /// while it waits and this one compare when it surfaces.
    #[inline]
    fn is_live(&self, task: u32, seq: u64) -> bool {
        let slot = &self.tasks[task as usize];
        slot.state == TaskState::Scheduled && slot.live_seq == seq
    }

    /// One fault draw for `task` (priority panic → abort → delay). Every
    /// call consumes exactly the same amount of per-task randomness
    /// regardless of outcome, keeping draw sequences schedule-independent.
    fn draw_fault(&mut self, task: u32) -> Option<FaultEvent> {
        let plan = self.plan?;
        let slot = &mut self.tasks[task as usize];
        let rng = slot.fault_rng.as_mut()?;
        let draw = slot.fault_draws;
        slot.fault_draws += 1;

        let panic_roll = rng.chance_percent(plan.panic_percent);
        let abort_roll = rng.chance_percent(plan.abort_percent);
        let delay_roll = rng.chance_percent(plan.delay_percent);
        let delay_len = 1 + rng.next_below(plan.max_delay.max(1));

        let event = if panic_roll && self.faults.panics < plan.max_panics {
            self.faults.panics += 1;
            FaultEvent::Panic
        } else if abort_roll {
            self.faults.aborts += 1;
            FaultEvent::Abort
        } else if delay_roll {
            self.faults.delays += 1;
            self.faults.delay_cycles += delay_len;
            FaultEvent::Delay(delay_len)
        } else {
            return None;
        };
        self.fault_log.push(FaultRecord {
            task: task as usize,
            draw,
            event,
        });
        Some(event)
    }
}

thread_local! {
    /// Cached id of the current OS thread; `thread::current()` clones an
    /// `Arc` on every call, which is too hot for the waker fast path.
    static THREAD_ID: Cell<Option<ThreadId>> = const { Cell::new(None) };
}

#[inline]
fn current_thread_id() -> ThreadId {
    THREAD_ID.with(|c| match c.get() {
        Some(id) => id,
        None => {
            let id = std::thread::current().id();
            c.set(Some(id));
            id
        }
    })
}

/// Cross-thread wake mailbox: the only executor entry point that may be hit
/// from a foreign OS thread (a real-mode thread calling
/// [`crate::Notify::notify_all`] on an event a sim task waits on).
struct Mailbox {
    /// Fast-path hint checked each loop iteration; mutations happen under
    /// `queue`'s lock, so the flag never claims emptiness while a wake is
    /// buffered.
    dirty: AtomicBool,
    queue: Mutex<Vec<u32>>,
}

/// Executor state shared with wakers.
///
/// The state proper lives in an `UnsafeCell` accessed without locking. The
/// safety discipline: `state` is only ever touched from the thread that
/// created the executor (`owner`). That holds because (a) `SimExecutor` is
/// `!Send` (it owns `!Send` task futures), (b) `SimHandle` is `!Send` by
/// construction, and (c) wakers — the only `Send` entry point — check the
/// current thread id and divert foreign-thread wakes into the mailbox.
pub(crate) struct Shared {
    state: UnsafeCell<Inner>,
    owner: ThreadId,
    mailbox: Mailbox,
}

// SAFETY: `Inner` is only accessed on `owner` (see the struct docs); the
// mailbox is internally synchronised. All of `Inner`'s fields are `Send`,
// so dropping a `Shared` on a foreign thread (via the last waker clone) is
// sound.
unsafe impl Send for Shared {}
// SAFETY: as above — `&Shared` only exposes owner-thread state access plus
// the synchronised mailbox.
unsafe impl Sync for Shared {}

impl Shared {
    /// Exclusive access to the executor state.
    ///
    /// # Safety
    /// Caller must be on the owner thread and must not overlap the returned
    /// borrow with another one (all call sites use short, non-reentrant
    /// scopes; user code — task polls — runs with no borrow live).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn state(&self) -> &mut Inner {
        unsafe { &mut *self.state.get() }
    }

    pub(crate) fn wake_task(&self, task: u32) {
        if current_thread_id() == self.owner {
            // SAFETY: owner thread; wakes fire from task polls, notify_all
            // or user code outside `run`, none of which hold a state borrow.
            let inner = unsafe { self.state() };
            let at = inner.now;
            inner.schedule(task, at);
        } else {
            let mut q = self.mailbox.queue.lock();
            q.push(task);
            self.mailbox.dirty.store(true, Ordering::Release);
        }
    }
}

struct SimWaker {
    shared: Arc<Shared>,
    task: u32,
}

impl Wake for SimWaker {
    fn wake(self: Arc<Self>) {
        self.shared.wake_task(self.task);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.shared.wake_task(self.task);
    }
}

/// Per-task handle embedded in [`crate::Rt::Sim`].
///
/// `!Send` by construction: handles call straight into the lock-free
/// executor state, which is only sound from the executor's own thread. Task
/// futures never cross threads (the executor is single-threaded and real
/// mode builds its futures on each worker thread), so this costs nothing.
#[derive(Clone)]
pub struct SimHandle {
    shared: Arc<Shared>,
    task: u32,
    _not_send: PhantomData<*const ()>,
}

impl SimHandle {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> u64 {
        // SAFETY: `!Send` pins us to the owner thread; the borrow ends
        // before this call returns.
        unsafe { self.shared.state() }.now
    }

    /// Logical thread index (== spawn order).
    pub fn thread_index(&self) -> usize {
        self.task as usize
    }

    /// Schedules this task to resume `cost` virtual cycles from now. Called
    /// by [`crate::Step`]'s first poll; the accompanying `Pending` hands
    /// control back to the executor.
    pub(crate) fn schedule_self_after(&self, cost: u64) {
        // SAFETY: owner thread (handle is `!Send`); called from inside a
        // task poll, where the executor holds no state borrow.
        let inner = unsafe { self.shared.state() };
        let at = inner.now.saturating_add(cost);
        inner.self_schedule(self.task, at);
    }

    /// Whether this executor steps both halves of a
    /// [`crate::Rt::charge_pair`]: the reference heap, which never coalesces.
    pub(crate) fn steps_every_charge(&self) -> bool {
        // SAFETY: as in `schedule_self_after`.
        !unsafe { self.shared.state() }.coalesce
    }

    /// Whether this task draws from a fault plan at all.
    pub(crate) fn faults_armed(&self) -> bool {
        // SAFETY: as in `schedule_self_after`.
        unsafe { self.shared.state() }.tasks[self.task as usize]
            .fault_rng
            .is_some()
    }

    /// Draws the next injected fault for this task, if any (see
    /// [`crate::fault`]).
    pub(crate) fn take_fault(&self) -> Option<FaultEvent> {
        // SAFETY: as in `schedule_self_after`.
        unsafe { self.shared.state() }.draw_fault(self.task)
    }
}

/// Deterministic single-threaded discrete-event executor.
///
/// ```
/// use votm_sim::{SimExecutor, SimConfig, Rt};
///
/// let mut ex = SimExecutor::new(SimConfig::default());
/// for i in 0..4 {
///     ex.spawn(move |rt: Rt| async move {
///         rt.charge(10 * (i as u64 + 1)).await;
///     });
/// }
/// let out = ex.run();
/// assert_eq!(out.status, votm_sim::RunStatus::Completed);
/// assert_eq!(out.vtime, 40); // makespan = slowest task
/// ```
pub struct SimExecutor {
    shared: Arc<Shared>,
    /// Futures live outside `shared` so wakers (which must be `Send+Sync`)
    /// never touch them. Each future is polled in place; the slot is only
    /// cleared when the task finishes.
    futures: Vec<Option<TaskFuture>>,
    /// One waker per task, created at spawn and reused across every poll —
    /// steady-state stepping must not allocate.
    wakers: Vec<Waker>,
    config: SimConfig,
    spawned: usize,
}

impl SimExecutor {
    /// Creates an executor with no tasks.
    pub fn new(config: SimConfig) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: UnsafeCell::new(Inner {
                    queue: EventQueue::new(config.scheduler),
                    pending_self: None,
                    coalesce: config.scheduler == SchedulerKind::TimerWheel,
                    tasks: Vec::new(),
                    now: 0,
                    live: 0,
                    plan: config.fault_plan,
                    faults: FaultStats::default(),
                    fault_log: Vec::new(),
                    sched: SchedStats::default(),
                    mailbox_scratch: Vec::new(),
                }),
                owner: current_thread_id(),
                mailbox: Mailbox {
                    dirty: AtomicBool::new(false),
                    queue: Mutex::new(Vec::new()),
                },
            }),
            futures: Vec::new(),
            wakers: Vec::new(),
            config,
            spawned: 0,
        }
    }

    /// Spawns a logical thread. `f` receives the task's [`crate::Rt`] handle
    /// and returns its future. Tasks start at virtual time 0, in the order of
    /// their tie keys at time 0.
    pub fn spawn<F, Fut>(&mut self, f: F)
    where
        F: FnOnce(crate::Rt) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        assert!(
            self.spawned < 1 << (64 - STAMP_TASK_SHIFT),
            "task id space exhausted"
        );
        let task = self.spawned as u32;
        self.spawned += 1;
        let handle = SimHandle {
            shared: Arc::clone(&self.shared),
            task,
            _not_send: PhantomData,
        };
        self.futures.push(Some(Box::pin(f(crate::Rt::Sim(handle)))));
        self.wakers.push(Waker::from(Arc::new(SimWaker {
            shared: Arc::clone(&self.shared),
            task,
        })));
        let fault_rng = self
            .config
            .fault_plan
            .as_ref()
            .and_then(|p| p.rng_for_task(task as usize));
        // SAFETY: owner thread; no other state borrow is live here.
        let inner = unsafe { self.shared.state() };
        inner.tasks.push(TaskSlot {
            state: TaskState::Waiting, // schedule() below flips it
            wake_pending: false,
            last_progress: 0,
            fault_rng,
            fault_draws: 0,
            live_seq: u64::from(task) << STAMP_TASK_SHIFT,
            live_at: 0,
            tie_salt: task_salt(self.config.seed, task),
        });
        inner.live += 1;
        inner.schedule(task, 0);
    }

    /// Moves buffered cross-thread wakes into the scheduler at the current
    /// virtual time. Buffers ping-pong so the steady state never allocates.
    fn drain_mailbox(shared: &Shared, inner: &mut Inner) {
        let mut scratch = std::mem::take(&mut inner.mailbox_scratch);
        {
            let mut q = shared.mailbox.queue.lock();
            std::mem::swap(&mut *q, &mut scratch);
            shared.mailbox.dirty.store(false, Ordering::Release);
        }
        inner.sched.cross_thread_wakes += scratch.len() as u64;
        for &task in &scratch {
            let at = inner.now;
            inner.schedule(task, at);
        }
        scratch.clear();
        inner.mailbox_scratch = scratch;
    }

    /// Marks `task` running at `vtime` and returns it.
    fn activate(inner: &mut Inner, task: u32, vtime: u64) -> u32 {
        inner.now = inner.now.max(vtime);
        let now = inner.now;
        let slot = &mut inner.tasks[task as usize];
        slot.state = TaskState::Running;
        slot.wake_pending = false;
        slot.last_progress = now;
        task
    }

    /// Selects the next activation: the held-back pending-self if it beats
    /// the queue minimum (the coalescing fast path), else the queue minimum.
    /// Either way the choice is exactly the global `(vtime, tiebreak, seq)`
    /// minimum, so activation order matches a queue-only executor
    /// bit-for-bit.
    ///
    /// Shape: pop the queue minimum once, compare against the pending-self,
    /// and re-push the loser — one ordered-queue scan plus one O(1) push per
    /// step, instead of peek-then-pop's two scans.
    fn pick_next(inner: &mut Inner, cap: Option<u64>) -> Result<u32, RunStatus> {
        // A held-back activation is void if its task died mid-poll (injected
        // panic under PanicPolicy::Isolate) or an earlier wake superseded it.
        // (Read-only unless it is: this runs on every step.)
        if let Some(p) = inner.pending_self {
            if !inner.is_live(p.task, p.seq) {
                inner.pending_self = None;
            }
        }
        loop {
            let (vtime, task) = match inner.queue.pop_min() {
                Some((at, tb, sq, task)) => {
                    // Entries for finished tasks can linger if a wake raced
                    // completion, and entries superseded by an earlier wake
                    // are dead; skip both.
                    if !inner.is_live(task, sq) {
                        inner.sched.stale_skips += 1;
                        continue;
                    }
                    match inner.pending_self.take() {
                        Some(p) if (p.at, p.tiebreak, p.seq) < (at, tb, sq) => {
                            // Coalesce: the just-polled task goes again; the
                            // popped entry returns unchanged (the window has
                            // not moved, so it still fits its ring slot).
                            inner.sched.coalesced += 1;
                            inner.queue.push(at, tb, sq, task);
                            (p.at, p.task)
                        }
                        Some(p) => {
                            inner.queue.push(p.at, p.tiebreak, p.seq, p.task);
                            (at, task)
                        }
                        None => (at, task),
                    }
                }
                None => match inner.pending_self.take() {
                    Some(p) => {
                        inner.sched.coalesced += 1;
                        (p.at, p.task)
                    }
                    None => {
                        return Err(if inner.live == 0 {
                            RunStatus::Completed
                        } else {
                            RunStatus::Deadlock
                        });
                    }
                },
            };
            if cap.is_some_and(|c| vtime > c) {
                return Err(RunStatus::Livelock);
            }
            let task = Self::activate(inner, task, vtime);
            inner.queue.advance_to(inner.now);
            return Ok(task);
        }
    }

    /// Builds the final outcome, attaching per-task stall diagnostics when
    /// the run did not complete.
    fn build_outcome(&self, status: RunStatus, steps: u64) -> RunOutcome {
        // SAFETY: owner thread; scoped borrow.
        let inner = unsafe { self.shared.state() };
        let stalls = if status == RunStatus::Completed {
            Vec::new()
        } else {
            inner
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, s)| s.state != TaskState::Done)
                .map(|(task, s)| TaskStall {
                    task,
                    last_progress: s.last_progress,
                    waiting: s.state == TaskState::Waiting,
                })
                .collect()
        };
        let mut sched = inner.sched;
        inner.queue.fold_stats(&mut sched);
        RunOutcome {
            status,
            vtime: inner.now,
            tasks_remaining: inner.live,
            steps,
            faults: inner.faults,
            fault_log: std::mem::take(&mut inner.fault_log),
            stalls,
            sched,
        }
    }

    /// Runs until completion, livelock or deadlock.
    ///
    /// A task whose poll panics is unwound (its drop guards run), marked
    /// dead, and then handled per [`SimConfig::panic_policy`]: the panic is
    /// re-raised ([`PanicPolicy::Propagate`], default) or swallowed so the
    /// remaining tasks keep running ([`PanicPolicy::Isolate`]).
    pub fn run(&mut self) -> RunOutcome {
        let mut steps: u64 = 0;
        loop {
            let picked = {
                // SAFETY: owner thread; this borrow ends before the poll.
                let inner = unsafe { self.shared.state() };
                if self.shared.mailbox.dirty.load(Ordering::Acquire) {
                    Self::drain_mailbox(&self.shared, inner);
                }
                Self::pick_next(inner, self.config.vtime_cap)
            };
            let task = match picked {
                Ok(task) => task as usize,
                Err(RunStatus::Deadlock) if self.shared.mailbox.dirty.load(Ordering::Acquire) => {
                    // A cross-thread wake landed after the drain; it can
                    // still unblock us, so re-run the selection.
                    continue;
                }
                Err(status) => return self.build_outcome(status, steps),
            };

            steps += 1;
            let waker = &self.wakers[task];
            let mut cx = Context::from_waker(waker);
            let fut = self.futures[task]
                .as_mut()
                .expect("scheduled task has a future");
            let poll = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fut.as_mut().poll(&mut cx)
            }));

            let poll = match poll {
                Ok(poll) => poll,
                Err(payload) => {
                    // Drop the future first — the unwind already ran its
                    // drop guards (gate release, transaction rollback), but
                    // dropping the storage may still wake other tasks, so it
                    // must happen with no state borrow live. Then account
                    // for the death and propagate or isolate per policy.
                    self.futures[task] = None;
                    {
                        // SAFETY: owner thread; scoped borrow.
                        let inner = unsafe { self.shared.state() };
                        inner.tasks[task].state = TaskState::Done;
                        inner.live -= 1;
                        inner.faults.tasks_killed_by_panic += 1;
                    }
                    match self.config.panic_policy {
                        PanicPolicy::Propagate => std::panic::resume_unwind(payload),
                        PanicPolicy::Isolate => continue,
                    }
                }
            };

            match poll {
                Poll::Ready(()) => {
                    // Drop the finished future with no state borrow live
                    // (its drop may wake other tasks).
                    self.futures[task] = None;
                    // SAFETY: owner thread; scoped borrow.
                    let inner = unsafe { self.shared.state() };
                    inner.tasks[task].state = TaskState::Done;
                    inner.live -= 1;
                }
                Poll::Pending => {
                    // SAFETY: owner thread; scoped borrow.
                    let inner = unsafe { self.shared.state() };
                    let slot = &mut inner.tasks[task];
                    match slot.state {
                        TaskState::Scheduled => {} // self-scheduled via charge()
                        TaskState::Running => {
                            if slot.wake_pending {
                                slot.state = TaskState::Waiting;
                                slot.wake_pending = false;
                                let at = inner.now;
                                inner.schedule(task as u32, at);
                            } else {
                                slot.state = TaskState::Waiting;
                            }
                        }
                        TaskState::Waiting | TaskState::Done => {
                            unreachable!("invalid post-poll task state")
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Notify, Rt};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn empty_run_completes_at_time_zero() {
        let mut ex = SimExecutor::new(SimConfig::default());
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.vtime, 0);
        assert_eq!(out.steps, 0);
    }

    #[test]
    fn makespan_is_max_of_task_times() {
        let mut ex = SimExecutor::new(SimConfig::default());
        for cost in [5u64, 50, 20] {
            ex.spawn(move |rt: Rt| async move {
                rt.charge(cost).await;
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.vtime, 50);
    }

    #[test]
    fn charges_accumulate_sequentially() {
        let total = Arc::new(AtomicU64::new(0));
        let mut ex = SimExecutor::new(SimConfig::default());
        let t = Arc::clone(&total);
        ex.spawn(move |rt: Rt| async move {
            for _ in 0..10 {
                rt.charge(7).await;
            }
            t.store(rt.now(), Ordering::SeqCst);
        });
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(total.load(Ordering::SeqCst), 70);
        assert_eq!(out.vtime, 70);
    }

    #[test]
    fn interleaving_is_by_virtual_time() {
        // Task A steps every 10 cycles, task B every 25; the observed order
        // of completions must follow virtual time, not spawn order.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut ex = SimExecutor::new(SimConfig::default());
        for (id, step) in [(0u32, 10u64), (1, 25)] {
            let log = Arc::clone(&log);
            ex.spawn(move |rt: Rt| async move {
                for _ in 0..4 {
                    rt.charge(step).await;
                    log.lock().push((rt.now(), id));
                }
            });
        }
        ex.run();
        let log = log.lock();
        let times: Vec<u64> = log.iter().map(|&(t, _)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "events out of virtual-time order: {log:?}");
        assert_eq!(log[0], (10, 0));
        assert_eq!(log[1], (20, 0));
        assert_eq!(log[2], (25, 1));
    }

    fn seeded_trace(config: SimConfig, n_tasks: usize, steps: u64) -> Vec<(u64, usize)> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut ex = SimExecutor::new(config);
        for i in 0..n_tasks {
            let log = Arc::clone(&log);
            ex.spawn(move |rt: Rt| async move {
                for _ in 0..steps {
                    rt.charge(10).await; // all ties — order set by seed
                    log.lock().push((rt.now(), i));
                }
            });
        }
        ex.run();
        let v = log.lock().clone();
        v
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = |seed: u64| {
            seeded_trace(
                SimConfig {
                    seed,
                    ..Default::default()
                },
                4,
                8,
            )
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(
            trace(7),
            trace(8),
            "different seeds should break ties differently"
        );
    }

    #[test]
    fn ties_run_in_tie_key_order() {
        let seed = 7;
        let trace = seeded_trace(
            SimConfig {
                seed,
                ..Default::default()
            },
            4,
            8,
        );
        let mut by_key = trace.clone();
        by_key.sort_by_key(|&(at, t)| (at, key_at(task_salt(seed, t as u32), at), t));
        assert_eq!(trace, by_key);
        let mut by_task = trace.clone();
        by_task.sort_unstable();
        assert_ne!(trace, by_task, "no tie reordered");
    }

    #[test]
    fn wheel_heap_and_coalescing_agree_on_schedule() {
        // The tie-heavy workload exercises tie-break ordering hardest; the
        // coalescing wheel and the queue-only heap must produce the identical
        // trace. (The broad fuzzed version lives in tests/differential.rs.)
        for seed in [1u64, 7, 1234, 0xdead_beef] {
            let trace = |scheduler| {
                seeded_trace(
                    SimConfig {
                        seed,
                        scheduler,
                        ..Default::default()
                    },
                    5,
                    12,
                )
            };
            assert_eq!(
                trace(SchedulerKind::TimerWheel),
                trace(SchedulerKind::ReferenceHeap),
                "seed {seed}: wheel != heap"
            );
        }
    }

    /// Six tasks charging 12 cycles in lockstep tie at every multiple of 12.
    /// Task 0 charges its 24 cycles per round as one step, as two of 12, or
    /// as one [`Rt::charge_pair`]; returns every other task's `(time, task)`
    /// activations in order, and the run's step count.
    fn trace_around_task_zero(
        scheduler: SchedulerKind,
        charge: fn(&Rt) -> Pin<Box<dyn Future<Output = ()> + '_>>,
    ) -> (Vec<(u64, usize)>, u64) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut ex = SimExecutor::new(SimConfig {
            seed: 5,
            scheduler,
            ..Default::default()
        });
        for i in 0..6 {
            let log = Arc::clone(&log);
            ex.spawn(move |rt: Rt| async move {
                for _ in 0..30 {
                    if i == 0 {
                        charge(&rt).await;
                    } else {
                        rt.charge(12).await;
                        log.lock().push((rt.now(), i));
                    }
                }
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        let trace = log.lock().clone();
        (trace, out.steps)
    }

    #[test]
    fn splitting_one_tasks_charge_moves_no_other_activation() {
        for scheduler in [SchedulerKind::TimerWheel, SchedulerKind::ReferenceHeap] {
            let (whole, whole_steps) =
                trace_around_task_zero(scheduler, |rt| Box::pin(rt.charge(24)));
            let (split, split_steps) = trace_around_task_zero(scheduler, |rt| {
                Box::pin(async move {
                    rt.charge(12).await;
                    rt.charge(12).await;
                })
            });
            assert_eq!(split_steps, whole_steps + 30, "{scheduler:?}");
            assert_eq!(
                whole, split,
                "{scheduler:?}: task 0's extra steps moved a tie"
            );
        }
    }

    #[test]
    fn charge_pair_is_one_step_on_the_wheel_and_two_on_the_heap() {
        let pair =
            |scheduler| trace_around_task_zero(scheduler, |rt| Box::pin(rt.charge_pair(12, 12)));
        let (wheel, wheel_steps) = pair(SchedulerKind::TimerWheel);
        let (heap, heap_steps) = pair(SchedulerKind::ReferenceHeap);
        assert_eq!(wheel, heap);
        assert_eq!(heap_steps, wheel_steps + 30);
        let (whole, whole_steps) =
            trace_around_task_zero(SchedulerKind::TimerWheel, |rt| Box::pin(rt.charge(24)));
        assert_eq!((wheel, wheel_steps), (whole, whole_steps));
    }

    #[test]
    fn sched_stats_count_coalesced_steps() {
        // A single task charging in a straight line is the best case for
        // coalescing: every re-enqueue after warm-up is the global minimum.
        let mut ex = SimExecutor::new(SimConfig::default());
        ex.spawn(|rt: Rt| async move {
            for _ in 0..100 {
                rt.charge(3).await;
            }
        });
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        assert!(
            out.sched.coalesced >= 99,
            "straight-line charges should coalesce: {:?}",
            out.sched
        );
        let mut ex = SimExecutor::new(SimConfig {
            scheduler: SchedulerKind::ReferenceHeap,
            ..Default::default()
        });
        ex.spawn(|rt: Rt| async move {
            for _ in 0..100 {
                rt.charge(3).await;
            }
        });
        assert_eq!(ex.run().sched.coalesced, 0);
    }

    #[test]
    fn far_future_charges_route_through_overflow() {
        let mut ex = SimExecutor::new(SimConfig::default());
        for _ in 0..2 {
            ex.spawn(|rt: Rt| async move {
                for _ in 0..5 {
                    rt.charge(1_000_000).await; // far beyond the ring window
                }
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.vtime, 5_000_000);
        assert!(out.sched.overflow_pushes > 0, "{:?}", out.sched);
    }

    #[test]
    fn cross_thread_wake_via_mailbox() {
        // A real OS thread notifies a sim task: the wake must route through
        // the mailbox and unblock the waiter while the loop is live.
        let notify = Arc::new(Notify::new());
        let woken = Arc::new(AtomicBool::new(false));
        let mut ex = SimExecutor::new(SimConfig::default());
        {
            let n = Arc::clone(&notify);
            let woken = Arc::clone(&woken);
            ex.spawn(move |rt: Rt| async move {
                let epoch = n.epoch();
                rt.wait(&n, epoch).await;
                woken.store(true, Ordering::SeqCst);
            });
        }
        {
            // Keeps the run loop spinning until the wake lands; without a
            // live task the executor would (correctly) declare deadlock.
            let woken = Arc::clone(&woken);
            ex.spawn(move |rt: Rt| async move {
                while !woken.load(Ordering::SeqCst) {
                    rt.charge(10).await;
                }
            });
        }
        let n = Arc::clone(&notify);
        let notifier = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            n.notify_all();
        });
        let out = ex.run();
        notifier.join().unwrap();
        assert_eq!(out.status, RunStatus::Completed);
        assert!(woken.load(Ordering::SeqCst));
    }

    #[test]
    fn livelock_watchdog_fires() {
        let mut ex = SimExecutor::new(SimConfig {
            vtime_cap: Some(1_000),
            ..Default::default()
        });
        ex.spawn(|rt: Rt| async move {
            loop {
                rt.charge(100).await;
            }
        });
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Livelock);
        assert_eq!(out.tasks_remaining, 1);
    }

    #[test]
    fn waiting_on_never_notified_event_is_deadlock() {
        let notify = Arc::new(Notify::new());
        let mut ex = SimExecutor::new(SimConfig::default());
        let n = Arc::clone(&notify);
        ex.spawn(move |rt: Rt| async move {
            let epoch = n.epoch();
            rt.wait(&n, epoch).await;
        });
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Deadlock);
        assert_eq!(out.tasks_remaining, 1);
    }

    #[test]
    fn notify_wakes_waiter_at_notifier_vtime() {
        let notify = Arc::new(Notify::new());
        let woke_at = Arc::new(AtomicU64::new(0));
        let mut ex = SimExecutor::new(SimConfig::default());
        {
            let n = Arc::clone(&notify);
            let woke_at = Arc::clone(&woke_at);
            ex.spawn(move |rt: Rt| async move {
                let epoch = n.epoch();
                rt.wait(&n, epoch).await;
                woke_at.store(rt.now(), Ordering::SeqCst);
            });
        }
        {
            let n = Arc::clone(&notify);
            ex.spawn(move |rt: Rt| async move {
                rt.charge(500).await;
                n.notify_all();
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(woke_at.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn zero_cost_charge_does_not_suspend_forever() {
        let mut ex = SimExecutor::new(SimConfig::default());
        ex.spawn(|rt: Rt| async move {
            rt.charge(0).await;
        });
        assert_eq!(ex.run().status, RunStatus::Completed);
    }

    fn fault_config(sched_seed: u64, fault_seed: u64) -> SimConfig {
        SimConfig {
            seed: sched_seed,
            fault_plan: Some(FaultPlan {
                seed: fault_seed,
                abort_percent: 20,
                panic_percent: 0,
                delay_percent: 30,
                max_delay: 50,
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    fn faulty_run(config: SimConfig) -> RunOutcome {
        let mut ex = SimExecutor::new(config);
        for _ in 0..4 {
            ex.spawn(|rt: Rt| async move {
                for _ in 0..50 {
                    rt.charge(10).await;
                    match rt.take_fault() {
                        Some(FaultEvent::Delay(d)) => rt.charge(d).await,
                        Some(FaultEvent::Abort) | Some(FaultEvent::Panic) | None => {}
                    }
                }
            });
        }
        ex.run()
    }

    #[test]
    fn identical_seeds_produce_identical_fault_schedules() {
        let a = faulty_run(fault_config(3, 7));
        let b = faulty_run(fault_config(3, 7));
        assert!(!a.fault_log.is_empty(), "plan should inject something");
        assert_eq!(a.fault_log, b.fault_log);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.vtime, b.vtime);
    }

    #[test]
    fn fault_draws_are_schedule_independent_per_task() {
        // Different *scheduling* seeds reorder execution, but each task's
        // fault sequence (task, draw, event) must not change: sort both
        // logs by (task, draw) and compare.
        let mut a = faulty_run(fault_config(3, 7)).fault_log;
        let mut b = faulty_run(fault_config(4, 7)).fault_log;
        a.sort_by_key(|r| (r.task, r.draw));
        b.sort_by_key(|r| (r.task, r.draw));
        assert_eq!(a, b, "fault schedule leaked scheduling nondeterminism");
    }

    #[test]
    fn isolate_policy_keeps_other_tasks_running() {
        let done = Arc::new(AtomicU64::new(0));
        let mut ex = SimExecutor::new(SimConfig {
            panic_policy: crate::PanicPolicy::Isolate,
            ..Default::default()
        });
        ex.spawn(|rt: Rt| async move {
            rt.charge(5).await;
            panic!("injected chaos");
        });
        for _ in 0..3 {
            let done = Arc::clone(&done);
            ex.spawn(move |rt: Rt| async move {
                rt.charge(100).await;
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(done.load(Ordering::SeqCst), 3, "survivors must finish");
        assert_eq!(out.faults.tasks_killed_by_panic, 1);
    }

    #[test]
    fn propagate_policy_reraises_task_panics() {
        let result = std::panic::catch_unwind(|| {
            let mut ex = SimExecutor::new(SimConfig::default());
            ex.spawn(|rt: Rt| async move {
                rt.charge(1).await;
                panic!("boom");
            });
            ex.run();
        });
        assert!(result.is_err(), "default policy must re-raise");
    }

    #[test]
    fn stall_diagnostics_cover_deadlocked_tasks() {
        let notify = Arc::new(Notify::new());
        let mut ex = SimExecutor::new(SimConfig::default());
        {
            let n = Arc::clone(&notify);
            ex.spawn(move |rt: Rt| async move {
                rt.charge(40).await;
                let epoch = n.epoch();
                rt.wait(&n, epoch).await; // never notified
            });
        }
        ex.spawn(|rt: Rt| async move {
            rt.charge(10).await;
        });
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Deadlock);
        assert_eq!(out.stalls.len(), 1, "only the blocked task stalls");
        let stall = &out.stalls[0];
        assert_eq!(stall.task, 0);
        assert_eq!(stall.last_progress, 40);
        assert!(stall.waiting, "deadlocked task is parked on a Notify");
    }

    #[test]
    fn panic_budget_caps_injected_panics() {
        let mut ex = SimExecutor::new(SimConfig {
            panic_policy: crate::PanicPolicy::Isolate,
            fault_plan: Some(FaultPlan {
                seed: 11,
                panic_percent: 100,
                max_panics: 2,
                ..Default::default()
            }),
            ..Default::default()
        });
        for _ in 0..6 {
            ex.spawn(|rt: Rt| async move {
                for _ in 0..20 {
                    rt.charge(10).await;
                    if let Some(FaultEvent::Panic) = rt.take_fault() {
                        panic!("injected");
                    }
                }
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.faults.panics, 2, "budget must cap injections");
        assert_eq!(out.faults.tasks_killed_by_panic, 2);
    }

    /// One suspension per poll is the contract (see `self_schedule`): debug
    /// builds trap a second one; in release the later arm wins and the
    /// first never activates the task.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "in one poll"))]
    fn second_self_schedule_in_one_poll_supersedes_the_first() {
        for scheduler in [SchedulerKind::TimerWheel, SchedulerKind::ReferenceHeap] {
            let mut ex = SimExecutor::new(SimConfig {
                scheduler,
                ..Default::default()
            });
            ex.spawn(move |rt: Rt| async move {
                let (mut a, mut b) = (Box::pin(rt.charge(500)), Box::pin(rt.charge(10)));
                std::future::poll_fn(|cx| {
                    let (ra, rb) = (a.as_mut().poll(cx), b.as_mut().poll(cx));
                    if ra.is_ready() {
                        rb
                    } else {
                        Poll::Pending
                    }
                })
                .await;
                assert_eq!(rt.now(), 10, "the later arm wins");
            });
            let out = ex.run();
            assert_eq!((out.status, out.steps), (RunStatus::Completed, 2));
            assert_eq!(
                out.vtime, 10,
                "the dead entry must not stretch the makespan"
            );
        }
    }

    #[test]
    fn earlier_wake_supersedes_scheduled_timeout() {
        // A parked task holds a far-future timeout entry (state Scheduled);
        // an external wake before the deadline must supersede that entry
        // rather than being swallowed, and the orphaned entry must neither
        // re-activate the task nor stretch the makespan to the deadline.
        use std::cell::RefCell;
        use std::rc::Rc;

        const DEADLINE: u64 = 1_000_000;
        let waker_slot: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let woke_at = Rc::new(Cell::new(u64::MAX));

        let mut ex = SimExecutor::new(SimConfig::default());
        {
            let slot = Rc::clone(&waker_slot);
            let woke = Rc::clone(&woke_at);
            ex.spawn(move |rt: Rt| async move {
                let mut sleep = Box::pin(rt.charge(DEADLINE));
                let mut armed = false;
                std::future::poll_fn(|cx| {
                    if !armed {
                        armed = true;
                        *slot.borrow_mut() = Some(cx.waker().clone());
                        // Arm the timeout: the task is now Scheduled at
                        // `DEADLINE` while it waits for the external wake.
                        assert!(sleep.as_mut().poll(cx).is_pending());
                        return Poll::Pending;
                    }
                    Poll::Ready(())
                })
                .await;
                woke.set(rt.now());
            });
        }
        {
            let slot = Rc::clone(&waker_slot);
            ex.spawn(move |rt: Rt| async move {
                rt.charge(10).await;
                let w = slot.borrow_mut().take().expect("parker registered");
                w.wake();
            });
        }
        let out = ex.run();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(woke_at.get(), 10, "wake must preempt the timeout entry");
        assert_eq!(out.sched.superseded, 1);
        assert!(
            out.vtime < DEADLINE,
            "orphaned timeout entry stretched the makespan: {}",
            out.vtime
        );
    }
}
