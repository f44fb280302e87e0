//! [`SimExec`]: the PR-3 deterministic scheduler as an executor.

use super::{set_current, weak_dyn, Exec, TaskLocals};
use crate::error::{Error, Result};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// Adapter making [`crate::sim::SimScheduler`] an [`Exec`]. Tasks still run
/// on dedicated OS threads, but the scheduler serializes them: exactly one
/// is runnable at a time, and every park/yield is a recorded scheduling
/// decision, so a seed replays the exact interleaving.
pub(crate) struct SimExec {
    sched: Arc<crate::sim::SimScheduler>,
    self_ref: OnceLock<Weak<dyn Exec>>,
}

impl SimExec {
    pub(crate) fn new(sched: Arc<crate::sim::SimScheduler>) -> Arc<Self> {
        let exec = Arc::new(SimExec {
            sched,
            self_ref: OnceLock::new(),
        });
        let weak = weak_dyn(&exec);
        exec.self_ref.set(weak).ok();
        exec
    }
}

impl Exec for SimExec {
    fn spawn(&self, name: &str, body: Box<dyn FnOnce() + Send>) {
        // Register on the spawning thread so task ids follow program order
        // (the property that makes traces replayable across runs).
        let tid = self.sched.register_task(name);
        let sched = self.sched.clone();
        let locals = TaskLocals::new(
            name,
            true,
            self.self_ref.get().expect("self_ref set in new()").clone(),
        );
        std::thread::Builder::new()
            .name(format!("kpn:{name}"))
            .spawn(move || {
                set_current(Some(locals));
                sched.attach(tid);
                body();
                sched.finish_current();
            })
            .expect("spawn sim task thread");
    }

    fn park_token(&self, _key: usize) -> u64 {
        // The scheduler serializes execution: between reading this token
        // and calling `park` the current task *is* the running task, so no
        // scheduled task can slip a wakeup in. (Foreign threads cannot park
        // at all — see below.) A constant token is therefore sound.
        0
    }

    fn park(&self, key: usize, _token: u64, _timeout: Option<Duration>) -> Result<bool> {
        if self.sched.is_current() {
            self.sched.park(key);
            Ok(false)
        } else {
            // A foreign thread blocking on a simulation's channel would
            // dissolve determinism into wall-clock waiting (the old code
            // degraded to a clamped condvar spin here). Reject it loudly.
            Err(Error::Graph(
                "cross-executor channel use: blocking on a simulation network's channel \
                 from outside the simulation (read or write the channel from a process \
                 inside `run_sim`, or collect results after the run)"
                    .into(),
            ))
        }
    }

    fn unpark_all(&self, key: usize) {
        // Legal from any thread: readies parked tasks without running them.
        self.sched.unpark_all(key);
    }

    fn yield_point(&self) {
        if self.sched.is_current() {
            self.sched.yield_now();
        }
        // Foreign threads performing non-blocking operations are legal and
        // yield nothing to the schedule.
    }

    fn add_idle_hook(&self, hook: super::IdleHook) {
        self.sched.add_idle_hook(hook);
    }

    fn release(&self) {
        self.sched.release();
    }

    fn now(&self) -> Duration {
        // Logical time: it stands still while a task runs, so a publish
        // takes none and nothing is ever inside the window one opens —
        // every schedule sees the step boundary publish, and replays
        // bit-for-bit.
        Duration::ZERO
    }

    fn sleep(&self, _d: Duration) {
        // Logical time, as in `now`: a sleep lets none pass and is no
        // scheduling decision, so a run with it has the schedule of the
        // same run without it, and takes no wall time.
    }
}
