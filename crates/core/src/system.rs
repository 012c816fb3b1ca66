//! The VOTM system object: view registry and global configuration.

use std::sync::Arc;

use votm_obs::FlightRecorder;
use votm_rac::{CmPolicy, ControllerConfig, QuotaMode};
use votm_stm::{ClockKind, TmAlgorithm, TmInstance, WordHeap};
use votm_utils::Mutex;

use crate::view::View;

/// Global configuration for a [`Votm`] system.
#[derive(Debug, Clone)]
pub struct VotmConfig {
    /// TM algorithm every view runs (the paper evaluates one algorithm per
    /// system build: VOTM-OrecEagerRedo and VOTM-NOrec).
    pub algorithm: TmAlgorithm,
    /// The maximum number of threads `N` — adaptive quotas start here and
    /// never exceed it.
    pub n_threads: u32,
    /// Tuning for adaptive RAC controllers.
    pub controller: ControllerConfig,
    /// Reserve factor for `brk_view`: each view's heap reserves
    /// `size × reserve_factor` words so it can grow. 1 disables growth.
    pub reserve_factor: usize,
    /// Starvation watchdog: `Some(K)` makes a transaction that aborts `K`
    /// times in a row request *exclusive* admission on its next attempt —
    /// the irrevocable Q = 1 lock-mode fallback, which cannot abort.
    ///
    /// Defaults to `None` (off): livelock under contention is a phenomenon
    /// the paper measures, and escalation would change the reported tables.
    pub escalate_after: Option<u32>,
    /// Flight recorder shared by every view created on this system. `None`
    /// (the default) makes all event recording a dead-handle no-op; latency
    /// histograms stay on either way.
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Contention-management policy for every view: which of two
    /// conflicting transactions yields, and how. The default,
    /// [`CmPolicy::Backoff`], reproduces the historical backoff-and-retry
    /// behaviour exactly (and costs nothing on the hot path); the other
    /// policies trade a little bookkeeping for progress guarantees — see
    /// `votm_rac::cm`. NOrec views always run the passive default, whatever
    /// is set here: NOrec's lock names no holder for a policy to rank
    /// ([`TmAlgorithm::names_lock_holder`]).
    pub contention: CmPolicy,
    /// Clock strategy for every NOrec view's sequence lock. The default,
    /// [`ClockKind::Global`], is the single fetch-add clock the paper's
    /// RSTM plug-ins use (bit-identical behaviour); [`ClockKind::Coarse`]
    /// attacks the global-clock bottleneck the paper names for
    /// memory-intensive NOrec workloads — see `votm_stm::clock`. Orec views
    /// always take one fetch-add per writer commit, whatever is set here
    /// ([`TmAlgorithm::runs_coarse_clock`]).
    pub clock: ClockKind,
}

impl Default for VotmConfig {
    fn default() -> Self {
        Self {
            algorithm: TmAlgorithm::NOrec,
            n_threads: 16,
            controller: ControllerConfig::default(),
            reserve_factor: 1,
            escalate_after: None,
            recorder: None,
            contention: CmPolicy::Backoff,
            clock: ClockKind::Global,
        }
    }
}

/// A VOTM system: a factory and registry of [`View`]s.
///
/// The paper's `vid`-based C API maps to the returned `Arc<View>` handles;
/// [`Votm::view`] recovers a handle from an id for code ported literally.
pub struct Votm {
    config: VotmConfig,
    views: Mutex<Vec<Option<Arc<View>>>>,
}

impl Votm {
    /// The builder front door: `Votm::builder().algo(..).policy(..)
    /// .clock(..).build()`. Every knob defaults to the paper's baseline
    /// ([`VotmConfig::default`]), so `Votm::builder().build()` is a valid
    /// minimal system.
    pub fn builder() -> VotmBuilder {
        VotmBuilder {
            config: VotmConfig::default(),
        }
    }

    /// Creates a view of `size_words` words (`create_view`). `quota`
    /// corresponds to the paper's third argument: `Fixed(q)` pins the
    /// admission quota, `Adaptive` (the paper's "< 1" convention) lets RAC
    /// manage it, `Unrestricted` disables admission control for the
    /// multi-TM / plain-TM baselines.
    pub fn create_view(&self, size_words: usize, quota: QuotaMode) -> Arc<View> {
        self.create_view_with_algorithm(size_words, quota, self.config.algorithm)
    }

    /// Like [`Votm::create_view`] but overrides the TM algorithm for this
    /// one view. Because every view is an independent TM instance, views
    /// with different algorithms coexist freely — the per-view adaptive-TM
    /// direction the paper sketches as future work (§IV-C): a
    /// memory-intensive view can run OrecEagerRedo while a validation-light
    /// view runs NOrec.
    pub fn create_view_with_algorithm(
        &self,
        size_words: usize,
        quota: QuotaMode,
        algorithm: TmAlgorithm,
    ) -> Arc<View> {
        let mut views = self.views.lock();
        let id = views.len();
        let capacity = size_words * self.config.reserve_factor.max(1);
        let heap = Arc::new(WordHeap::with_reserve(size_words, capacity));
        let view = Arc::new(View::new(
            id,
            TmInstance::over_heap(algorithm, heap, self.config.clock),
            quota,
            &self.config,
            None,
        ));
        views.push(Some(Arc::clone(&view)));
        view
    }

    /// Creates an [`crate::AdaptiveDomain`]: a self-partitioning group of views
    /// over one `size_words`-word shared heap. The domain starts as a
    /// single view and — once its controller task runs (spawn
    /// [`crate::AdaptiveDomain::run_controller`]) — splits and merges itself
    /// online toward the conflict profile's suggested partitioning.
    ///
    /// Domains are independent of the [`Votm::create_view`] registry: they
    /// allocate their own view ids starting at 0, so give a domain its own
    /// [`crate::FlightRecorder`] rather than sharing one with registry
    /// views (the repartitioner folds the profile per view id).
    pub fn create_domain(
        &self,
        size_words: usize,
        quota: QuotaMode,
        policy: crate::RepartitionPolicy,
    ) -> Arc<crate::AdaptiveDomain> {
        crate::AdaptiveDomain::new(&self.config, size_words, quota, policy)
    }

    /// Looks up a live view by id.
    pub fn view(&self, id: usize) -> Option<Arc<View>> {
        self.views.lock().get(id).and_then(Clone::clone)
    }

    /// Destroys a view (`destroy_view`): removes it from the registry. The
    /// backing memory is reclaimed when the last `Arc<View>` drops, so
    /// in-flight transactions on other threads stay safe — Rust's answer to
    /// the C API's use-after-destroy hazard.
    pub fn destroy_view(&self, view: &Arc<View>) {
        let mut views = self.views.lock();
        if let Some(slot) = views.get_mut(view.id()) {
            *slot = None;
        }
    }

    /// Ids of all live views, in creation order.
    pub fn live_view_ids(&self) -> Vec<usize> {
        self.views
            .lock()
            .iter()
            .filter_map(|v| v.as_ref().map(|v| v.id()))
            .collect()
    }
}

/// Builder for a [`Votm`] system — the single typed entry point.
///
/// ```
/// use votm::{QuotaMode, Votm};
/// use votm_rac::CmPolicy;
/// use votm_stm::{ClockKind, TmAlgorithm};
///
/// let sys = Votm::builder()
///     .algo(TmAlgorithm::OrecEagerRedo)
///     .policy(CmPolicy::WindowedGreedy)
///     .clock(ClockKind::Global)
///     .threads(8)
///     .build();
/// let view = sys.create_view(64, QuotaMode::Adaptive);
/// assert_eq!(view.gate().max_threads(), 8);
/// assert_eq!(view.cm_policy(), CmPolicy::WindowedGreedy);
/// ```
#[derive(Debug, Clone)]
pub struct VotmBuilder {
    config: VotmConfig,
}

impl VotmBuilder {
    /// TM algorithm every view runs (overridable per view via
    /// [`Votm::create_view_with_algorithm`]).
    pub fn algo(mut self, algorithm: TmAlgorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// The maximum number of threads `N` — adaptive quotas start here.
    pub fn threads(mut self, n_threads: u32) -> Self {
        self.config.n_threads = n_threads;
        self
    }

    /// Contention-management policy for every view whose algorithm's lock
    /// words name their holder; NOrec views always run the passive default
    /// (see [`VotmConfig::contention`]).
    pub fn policy(mut self, contention: CmPolicy) -> Self {
        self.config.contention = contention;
        self
    }

    /// Clock strategy for every view whose algorithm runs one; orec views
    /// always tick (see [`VotmConfig::clock`]).
    pub fn clock(mut self, clock: ClockKind) -> Self {
        self.config.clock = clock;
        self
    }

    /// Tuning for adaptive RAC controllers.
    pub fn controller(mut self, controller: ControllerConfig) -> Self {
        self.config.controller = controller;
        self
    }

    /// Reserve factor for `brk_view` heap growth (1 disables growth).
    pub fn reserve_factor(mut self, reserve_factor: usize) -> Self {
        self.config.reserve_factor = reserve_factor;
        self
    }

    /// Starvation watchdog threshold `K`: `Some(K)` escalates a
    /// transaction to exclusive admission after `K` consecutive aborts.
    pub fn escalate_after(mut self, escalate_after: Option<u32>) -> Self {
        self.config.escalate_after = escalate_after;
        self
    }

    /// Flight recorder shared by every view created on this system.
    pub fn recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.config.recorder = Some(recorder);
        self
    }

    /// Builds the system.
    pub fn build(self) -> Votm {
        Votm {
            config: self.config,
            views: Mutex::new(Vec::new()),
        }
    }
}

impl std::fmt::Debug for Votm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Votm")
            .field("algorithm", &self.config.algorithm)
            .field("n_threads", &self.config.n_threads)
            .field("live_views", &self.live_view_ids().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup_views() {
        let sys = Votm::builder().build();
        let a = sys.create_view(64, QuotaMode::Adaptive);
        let b = sys.create_view(64, QuotaMode::Fixed(4));
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(sys.view(0).unwrap().id(), 0);
        assert!(sys.view(7).is_none());
        assert_eq!(sys.live_view_ids(), vec![0, 1]);
    }

    #[test]
    fn destroy_removes_from_registry_but_keeps_arc_alive() {
        let sys = Votm::builder().build();
        let a = sys.create_view(64, QuotaMode::Adaptive);
        sys.destroy_view(&a);
        assert!(sys.view(0).is_none());
        assert_eq!(sys.live_view_ids(), Vec::<usize>::new());
        // The handle still works until dropped.
        assert!(a.alloc_block(4).is_some());
    }

    #[test]
    fn fixed_quota_is_applied() {
        let sys = Votm::builder().threads(16).build();
        let v = sys.create_view(16, QuotaMode::Fixed(4));
        assert_eq!(v.gate().quota(), 4);
        let w = sys.create_view(16, QuotaMode::Adaptive);
        assert_eq!(w.gate().quota(), 16, "adaptive starts at N");
    }

    #[test]
    fn per_view_algorithm_override() {
        let sys = Votm::builder().algo(TmAlgorithm::NOrec).build();
        let a = sys.create_view(16, QuotaMode::Adaptive);
        let b = sys.create_view_with_algorithm(16, QuotaMode::Adaptive, TmAlgorithm::OrecEagerRedo);
        assert!(format!("{a:?}").contains("NOrec"));
        assert!(format!("{b:?}").contains("OrecEagerRedo"));
    }

    #[test]
    fn reserve_factor_enables_brk() {
        let sys = Votm::builder().reserve_factor(4).build();
        let v = sys.create_view(16, QuotaMode::Adaptive);
        assert_eq!(v.brk_view(16), Some(32), "brk within 4x reserve");
    }
}
