//! Execution substrates for the VOTM reproduction.
//!
//! The paper's experiments ran 16 hardware threads on a 4-socket Opteron;
//! this reproduction runs on a single core, where real threads barely
//! overlap and contention vanishes. The fix (documented in DESIGN.md) is a
//! **deterministic virtual-time executor**: N logical threads written as
//! futures, interleaved at shared-memory-access granularity by a
//! discrete-event scheduler that charges each operation virtual cycles.
//! Conflicts, aborts, livelock and commit serialisation then arise from the
//! *same STM code paths* as on real hardware, and the virtual makespan plays
//! the role of wall-clock runtime.
//!
//! Two executors share one task API ([`Rt`]):
//!
//! * [`SimExecutor`] — single OS thread, timer-wheel scheduler keyed on
//!   virtual time, seeded deterministic tie-breaking, livelock watchdog.
//! * [`run_parallel`] — real OS threads with a park/unpark `block_on`; used
//!   by tests to validate the STM's atomics under genuine preemption.
//!
//! Tasks are ordinary `async` blocks. Suspension points are created by
//! [`Rt::charge`] (advance virtual time), [`Rt::work`] (virtual time in sim,
//! real spinning in parallel mode) and [`Rt::wait`]/[`Notify`] (event wait).

#![warn(missing_docs)]

mod block_on;
pub mod fault;
mod notify;
mod real;
mod sim_exec;

pub use block_on::block_on;
pub use fault::{FaultEvent, FaultPlan, FaultRecord, FaultStats, PanicPolicy};
pub use notify::Notify;
pub use real::{run_parallel, RealHandle};
pub use sim_exec::{
    RunOutcome, RunStatus, SchedStats, SchedulerKind, SimConfig, SimExecutor, SimHandle, TaskStall,
};

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Handle a logical thread uses to talk to its executor.
///
/// Concrete enum rather than a trait so workload code stays monomorphic and
/// `Send` bounds never leak into user signatures.
#[derive(Clone)]
pub enum Rt {
    /// Virtual-time simulator task handle.
    Sim(SimHandle),
    /// Real-thread handle.
    Real(RealHandle),
}

impl Rt {
    /// Current time in cycles: virtual cycles under the simulator, `rdtsc`
    /// under real threads.
    #[inline]
    pub fn now(&self) -> u64 {
        match self {
            Rt::Sim(h) => h.now(),
            Rt::Real(h) => h.now(),
        }
    }

    /// True when running under the virtual-time simulator.
    #[inline]
    pub fn is_virtual(&self) -> bool {
        matches!(self, Rt::Sim(_))
    }

    /// Charges `cost` *model* cycles.
    ///
    /// In simulator mode this suspends the task and advances its clock; in
    /// real-thread mode it is a no-op, because the modelled operation (a
    /// shared-memory access the STM just performed) already cost real time.
    #[inline]
    pub fn charge(&self, cost: u64) -> Step<'_> {
        Step {
            rt: self,
            cost,
            spin_in_real: false,
            state: StepState::Init,
        }
    }

    /// Performs `cost` cycles of *computation* (Eigenbench NOPs, detector
    /// work). Virtual time in sim mode; a real `pause`-loop in real mode.
    #[inline]
    pub fn work(&self, cost: u64) -> Step<'_> {
        Step {
            rt: self,
            cost,
            spin_in_real: true,
            state: StepState::Init,
        }
    }

    /// Waits until `notify` observes an epoch different from `epoch`
    /// (returns immediately if it already has). See [`Notify`] for the
    /// lost-wakeup-free usage pattern.
    pub fn wait<'a>(&self, notify: &'a Notify, epoch: u64) -> notify::WaitFut<'a> {
        notify.wait_from(epoch)
    }

    /// The logical thread's index within its executor run.
    pub fn thread_index(&self) -> usize {
        match self {
            Rt::Sim(h) => h.thread_index(),
            Rt::Real(h) => h.thread_index(),
        }
    }

    /// Whether [`Rt::take_fault`] can ever return a fault for this task: a
    /// [`FaultPlan`] is configured and targets it. Fixed for the task's
    /// lifetime, so a caller may ask once and skip its fault points
    /// altogether. Real-thread runs never inject faults.
    pub fn faults_armed(&self) -> bool {
        match self {
            Rt::Sim(h) => h.faults_armed(),
            Rt::Real(_) => false,
        }
    }

    /// Draws the next injected fault for this task, if the executor has a
    /// [`FaultPlan`] configured. Real-thread runs never inject faults.
    ///
    /// Callers (the transaction pipeline) consult this at charge/work
    /// interleaving points and translate the event: `Abort` forces the
    /// attempt to retry, `Panic` unwinds through the drop guards, `Delay`
    /// charges extra cycles.
    pub fn take_fault(&self) -> Option<FaultEvent> {
        match self {
            Rt::Sim(h) => h.take_fault(),
            Rt::Real(_) => None,
        }
    }
}

enum StepState {
    Init,
    Slept,
}

/// Future returned by [`Rt::charge`] / [`Rt::work`].
pub struct Step<'a> {
    rt: &'a Rt,
    cost: u64,
    spin_in_real: bool,
    state: StepState,
}

impl Future for Step<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        match (&self.state, self.rt) {
            (StepState::Init, Rt::Sim(h)) => {
                if self.cost == 0 {
                    return Poll::Ready(());
                }
                h.schedule_self_after(self.cost);
                self.state = StepState::Slept;
                Poll::Pending
            }
            (StepState::Slept, Rt::Sim(_)) => Poll::Ready(()),
            (_, Rt::Real(_)) => {
                if self.spin_in_real {
                    for _ in 0..self.cost {
                        std::hint::spin_loop();
                    }
                }
                Poll::Ready(())
            }
        }
    }
}
