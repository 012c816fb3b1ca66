//! A view: one partition of shared memory = one TM instance + one RAC gate.

use std::sync::Arc;

use votm_obs::{FlightRecorder, RecorderHandle, ViewHistSnapshot, ViewHists};
use votm_rac::{AdmissionGate, CmInstance, CmPolicy, GateStats, QuotaMode, RacController};
use votm_sim::Rt;
use votm_stm::{Addr, ClockStats, RouteTable, StatsSnapshot, TmInstance};
use votm_utils::{CachePadded, Mutex};

use crate::error::TxError;
use crate::handle::{drive_transaction, Descriptor, Entry, TxHandle};
use crate::system::VotmConfig;
use crate::wait::WaitTable;

/// One view of shared memory.
///
/// Construct through [`crate::Votm::create_view`]; cheaply shared between
/// logical threads as `Arc<View>`.
pub struct View {
    id: usize,
    tm: TmInstance,
    gate: AdmissionGate,
    controller: Option<RacController>,
    quota_mode: QuotaMode,
    escalate_after: Option<u32>,
    /// Always-on latency histograms (commit, abort-to-retry, gate wait,
    /// parked wait).
    hists: ViewHists,
    /// Optional flight recorder shared with the owning [`crate::Votm`].
    recorder: Option<Arc<FlightRecorder>>,
    /// Contention-management runtime (policy + shared doom/priority slots).
    cm: CmInstance,
    /// Parked blocking transactions (`retry`), keyed by read-set summary:
    /// the view's own, or its domain's, which every view of it shares.
    waits: Arc<WaitTable>,
    /// A domain view's place in its domain's route table; `None` for a
    /// plain view, which routes nothing.
    route: Option<Route>,
    /// One slot per logical thread (see [`DescriptorSlot`]).
    descriptors: Box<[DescriptorSlot]>,
}

/// Where a view of an [`crate::AdaptiveDomain`] sits in the domain's route
/// table: every access of its transactions must route to `slot`.
pub(crate) struct Route {
    /// The domain's route table, shared by the domain and all its views.
    pub(crate) table: Arc<RouteTable>,
    /// This view's slot.
    pub(crate) slot: u32,
}

/// Where a logical thread's idle transaction [`Descriptor`] waits between
/// that thread's transactions on a view. A slot is touched twice per
/// transaction, by its own thread; padded so real threads do not share a
/// line doing so.
type DescriptorSlot = CachePadded<Mutex<Option<Box<Descriptor>>>>;

impl View {
    /// A view over `tm`, its metadata domain and heap, with the
    /// algorithm-independent settings of `config`. A view of an
    /// [`crate::AdaptiveDomain`] is built with its slot in the domain's route
    /// table and the domain's wait table; a plain view routes nothing and
    /// gets a wait table of its own.
    pub(crate) fn new(
        id: usize,
        tm: TmInstance,
        quota_mode: QuotaMode,
        config: &VotmConfig,
        domain: Option<(Route, Arc<WaitTable>)>,
    ) -> Self {
        let n_threads = config.n_threads;
        let (initial_quota, controller) = match quota_mode {
            QuotaMode::Fixed(q) => (q, None),
            QuotaMode::Adaptive => (
                n_threads,
                Some(RacController::new(config.controller.clone())),
            ),
            // Admission control disabled; quota N means the gate never
            // blocks (there are only N threads), and no controller runs.
            QuotaMode::Unrestricted => (n_threads, None),
        };
        // A priority policy ranks a transaction against the holder of the
        // lock it hit; an algorithm whose lock words name nobody runs the
        // passive default whatever the configuration asks for.
        let contention = if tm.algorithm().names_lock_holder() {
            config.contention
        } else {
            CmPolicy::Backoff
        };
        let (route, waits) = match domain {
            Some((route, waits)) => (Some(route), waits),
            None => (None, Arc::new(WaitTable::new())),
        };
        Self {
            id,
            tm,
            gate: AdmissionGate::new(initial_quota, n_threads),
            controller,
            quota_mode,
            escalate_after: config.escalate_after,
            hists: ViewHists::new(),
            recorder: config.recorder.clone(),
            // The windowed-greedy draw seed derives from the view id only,
            // so identically-seeded runs replay identically.
            cm: CmInstance::new(contention, n_threads, 0x9e37_79b9_7f4a_7c15 ^ id as u64),
            waits,
            route,
            descriptors: (0..n_threads).map(|_| CachePadded::default()).collect(),
        }
    }

    /// The id assigned by [`crate::Votm`] (the paper's `vid`).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The view's heap, for allocation-free inspection and test assertions.
    pub fn heap(&self) -> &votm_stm::WordHeap {
        self.tm.heap()
    }

    /// The TM instance backing this view.
    pub(crate) fn tm(&self) -> &TmInstance {
        &self.tm
    }

    /// The admission gate (exposed for harness reporting).
    pub fn gate(&self) -> &AdmissionGate {
        &self.gate
    }

    pub(crate) fn controller(&self) -> Option<&RacController> {
        self.controller.as_ref()
    }

    /// The view's contention-management runtime.
    pub(crate) fn cm(&self) -> &CmInstance {
        &self.cm
    }

    /// The view's wakeup table for parked blocking transactions.
    pub(crate) fn waits(&self) -> &WaitTable {
        &self.waits
    }

    /// This view's place in its domain's route table, if it has one.
    pub(crate) fn route(&self) -> Option<&Route> {
        self.route.as_ref()
    }

    /// Which contention-management policy this view runs: the configured
    /// [`crate::VotmConfig::contention`], except that a NOrec view always
    /// reports (and runs) the passive [`CmPolicy::Backoff`].
    pub fn cm_policy(&self) -> CmPolicy {
        self.cm.policy()
    }

    /// The view's latency histograms (commit, abort-to-retry, gate wait,
    /// parked wait).
    /// Always on; recording is a relaxed `fetch_add`.
    pub fn hists(&self) -> &ViewHists {
        &self.hists
    }

    /// Takes thread `tid`'s descriptor out of its slot, or builds a fresh
    /// one when there is none to take: the index is past the view's thread
    /// count, the thread is already inside a transaction on this view (a
    /// body that calls `transact` again), or another real thread using the
    /// same index took it first.
    pub(crate) fn take_descriptor(&self, tid: usize) -> Box<Descriptor> {
        self.descriptors
            .get(tid)
            .and_then(|slot| slot.lock().take())
            .unwrap_or_else(|| Box::new(Descriptor::new(self.tm.tx_ctx(tid))))
    }

    /// Hands a descriptor back for thread `tid`'s next transaction on this
    /// view, replacing whatever the slot held, or drops it: when it is not
    /// idle ([`Descriptor::recycle`]) or `tid` has no slot.
    pub(crate) fn put_descriptor(&self, tid: usize, desc: Box<Descriptor>) {
        if let (Some(slot), Some(desc)) = (self.descriptors.get(tid), desc.recycle()) {
            *slot.lock() = Some(desc);
        }
    }

    /// Whether thread `tid`'s slot currently holds an idle descriptor
    /// (diagnostic, for tests: a thread inside a transaction on this view,
    /// or one that died in one, has none).
    pub fn descriptor_pooled(&self, tid: usize) -> bool {
        self.descriptors
            .get(tid)
            .is_some_and(|slot| slot.lock().is_some())
    }

    /// A recorder handle bound to `tid`'s ring — the dead no-op handle when
    /// no recorder is configured.
    pub(crate) fn recorder_handle(&self, tid: usize) -> RecorderHandle {
        match &self.recorder {
            Some(rec) => rec.handle(tid),
            None => RecorderHandle::dead(),
        }
    }

    /// True when this view bypasses admission control entirely (the paper's
    /// "multi-TM"/"TM" baselines).
    pub fn is_unrestricted(&self) -> bool {
        matches!(self.quota_mode, QuotaMode::Unrestricted)
    }

    /// The starvation watchdog's max-retry threshold `K`, if enabled: after
    /// `K` consecutive aborts a transaction escalates to exclusive
    /// admission. See [`crate::VotmConfig::escalate_after`].
    pub fn escalate_after(&self) -> Option<u32> {
        self.escalate_after
    }

    /// Allocates a block of `size_words` words from the view
    /// (`malloc_block`). Non-transactional: publish the address inside a
    /// transaction to make it visible safely.
    pub fn alloc_block(&self, size_words: u32) -> Option<Addr> {
        self.tm.heap().alloc_block(size_words)
    }

    /// Frees a block previously returned by [`View::alloc_block`]
    /// (`free_block`). Non-transactional; use [`TxHandle::free`] inside
    /// transactions so the free is rolled back if the transaction aborts.
    pub fn free_block(&self, addr: Addr) {
        self.tm.heap().free_block(addr)
    }

    /// Expands the view's usable memory by `size_words` (`brk_view`).
    /// Returns the new usable size, or `None` if the reserved capacity is
    /// exhausted.
    pub fn brk_view(&self, size_words: usize) -> Option<usize> {
        self.tm.heap().brk(size_words)
    }

    /// Runs `body` as one atomic transaction against this view —
    /// `acquire_view`; *body*; `release_view` with automatic retry.
    ///
    /// The body may be re-executed any number of times; it must be free of
    /// side effects other than through the [`TxHandle`]. Returns the body's
    /// value from the attempt that committed. A body that returns
    /// [`TxError::Retry`] (via [`TxHandle::retry`]) *blocks*: the task
    /// parks until another transaction commits a write intersecting the
    /// body's read set, then re-runs.
    pub async fn transact<T, F>(&self, rt: &Rt, body: F) -> T
    where
        F: for<'h> AsyncFnMut(&'h mut TxHandle<'_>) -> Result<T, TxError>,
    {
        drive_transaction(self, rt, Entry::ReadWrite, body).await
    }

    /// Read-only variant (`acquire_Rview`): writes through the handle panic.
    /// Read-only transactions commit without touching the global clock in
    /// both algorithms.
    pub async fn transact_ro<T, F>(&self, rt: &Rt, body: F) -> T
    where
        F: for<'h> AsyncFnMut(&'h mut TxHandle<'_>) -> Result<T, TxError>,
    {
        drive_transaction(self, rt, Entry::ReadOnly, body).await
    }

    /// Statistics snapshot in the shape of the paper's table rows.
    ///
    /// For adaptive views `quota` is the *settled* quota (the one the
    /// controller spent most windows at), not the instantaneous value — the
    /// latter can be a transient upward probe at the moment of sampling.
    pub fn stats(&self) -> ViewStats {
        let quota = self
            .controller
            .as_ref()
            .and_then(|c| c.dominant_quota())
            .unwrap_or_else(|| self.gate.quota());
        ViewStats {
            view_id: self.id,
            quota,
            tm: self.tm.stats().snapshot(),
            gate: self.gate.gate_stats(),
            hists: self.hists.snapshot(),
            clock: self.tm.clock_stats(),
        }
    }
}

impl std::fmt::Debug for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("View")
            .field("id", &self.id)
            .field("algo", &self.tm.algorithm())
            .field("quota", &self.gate.quota())
            .field("quota_mode", &self.quota_mode)
            .finish()
    }
}

/// Per-view statistics in the shape the paper's tables report.
#[derive(Debug, Clone, Copy)]
pub struct ViewStats {
    /// Which view.
    pub view_id: usize,
    /// The quota at snapshot time (the settled `Q` for adaptive runs).
    pub quota: u32,
    /// Commit/abort/cycle counters.
    pub tm: StatsSnapshot,
    /// Admission-gate fast/slow path counters (all zero for unrestricted
    /// views, whose transactions never consult the gate).
    pub gate: GateStats,
    /// Latency histograms: commit latency, abort-to-retry latency, gate
    /// wait and parked wait, in cycles. The commit histogram's total count
    /// always equals `tm.commits`.
    pub hists: ViewHistSnapshot,
    /// Clock-source counters: the bumps taken (`bump_skips` is always 0).
    pub clock: ClockStats,
}

impl ViewStats {
    /// The paper's δ(Q) for this view (Eq. 5); `None` at Q ≤ 1 ("N/A").
    pub fn delta(&self) -> Option<f64> {
        self.tm.delta(self.quota)
    }
}
