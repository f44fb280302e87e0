//! [`SimExec`]: the PR-3 deterministic scheduler as an executor.

use super::fiber::{self, Fiber};
use super::{park_fiber, with_current, Exec, ParkRequest, TaskLocals};
use crate::error::{Error, Result};
use parking_lot::Mutex;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Adapter making [`crate::sim::SimScheduler`] an [`Exec`]. Every task is a
/// fiber, and one thread per run switches into whichever fiber the
/// scheduler picks, so exactly one task runs at a time and every park and
/// yield is a recorded scheduling decision: a seed replays the exact
/// interleaving.
pub(crate) struct SimExec {
    sched: Arc<crate::sim::SimScheduler>,
    /// Each task's fiber by task id, filed while it is off the CPU.
    fibers: Mutex<Vec<Option<Box<Fiber>>>>,
    me: Weak<SimExec>,
}

impl SimExec {
    pub(crate) fn new(sched: Arc<crate::sim::SimScheduler>) -> Arc<Self> {
        Arc::new_cyclic(|me| SimExec {
            sched,
            fibers: Mutex::new(Vec::new()),
            me: me.clone(),
        })
    }

    /// True when the calling code is one of this simulation's tasks.
    fn is_mine(&self) -> bool {
        with_current(|l| std::ptr::addr_eq(l.exec.as_ptr(), self))
    }

    /// Starts the thread that runs the schedule, unless one runs it already
    /// or nothing is ready to run.
    fn start_if_idle(&self) {
        if !self.sched.claim_thread() {
            return;
        }
        let me = self
            .me
            .upgrade()
            .expect("a simulation is alive while it spawns");
        std::thread::Builder::new()
            .name("kpn-sim".into())
            .spawn(move || me.run_schedule())
            .expect("spawn the simulation's thread");
    }

    /// The schedule's one thread: switches into the fiber each decision
    /// picks, and files it again as it switched back: parked on a key (its
    /// `PARK_REQUEST`) or yielded. A finished fiber is dropped.
    fn run_schedule(&self) {
        let mut ctx = 0usize;
        fiber::set_worker_ctx(&mut ctx);
        while let Some(tid) = self.sched.next() {
            let mut f = self.fibers.lock()[tid]
                .take()
                .expect("a ready task's fiber is filed");
            f.run(&mut ctx);
            let request = fiber::PARK_REQUEST.with(|c| c.take());
            if f.done {
                continue;
            }
            self.fibers.lock()[tid] = Some(f);
            match request {
                Some(ParkRequest::Keyed(key, _)) => self.sched.parked(tid, key),
                Some(ParkRequest::Slot(..)) => unreachable!("a simulated task parks by key"),
                None => self.sched.yielded(tid),
            }
        }
    }
}

impl Exec for SimExec {
    fn spawn(&self, name: &str, body: Box<dyn FnOnce() + Send>) {
        let f = Fiber::new(TaskLocals::new(name, true, self.me.clone()), body);
        {
            // Registered on the spawning thread, in program order, and
            // filed under the same lock, so a task id indexes its fiber.
            let mut fibers = self.fibers.lock();
            let tid = self.sched.register_task(name);
            debug_assert_eq!(tid, fibers.len());
            fibers.push(Some(f));
        }
        self.start_if_idle();
    }

    fn park_token(&self, _key: usize) -> u64 {
        // The scheduler serializes execution: between reading this token
        // and calling `park` the current task *is* the running task, so no
        // scheduled task can slip a wakeup in. (Foreign threads cannot park
        // at all — see below.) A constant token is therefore sound.
        0
    }

    fn park(&self, key: usize, token: u64, _deadline: Option<Instant>) -> Result<bool> {
        if !self.is_mine() {
            // A foreign thread blocking on a simulation's channel would
            // dissolve determinism into wall-clock waiting (the old code
            // degraded to a clamped condvar spin here). Reject it loudly.
            return Err(Error::Graph(
                "cross-executor channel use: blocking on a simulation network's channel \
                 from outside the simulation (read or write the channel from a process \
                 inside `run_sim`, or collect results after the run)"
                    .into(),
            ));
        }
        park_fiber(ParkRequest::Keyed(key, token));
        // Resumed after the run failed (see `SimScheduler::next`), a stuck
        // task unwinds with the schedule that got it there; a wait that a
        // drop makes while its task unwinds already ends with the message
        // as an error instead, since a second panic would abort.
        match self.sched.failure() {
            Some(msg) if std::thread::panicking() => Err(Error::Graph(msg.into())),
            Some(msg) => panic!("{msg}"),
            None => Ok(false),
        }
    }

    fn unpark_all(&self, key: usize) {
        // Legal from any thread: readies parked tasks without running them.
        self.sched.unpark_all(key);
    }

    fn yield_point(&self) {
        // Foreign threads performing non-blocking operations are legal and
        // yield nothing to the schedule.
        if self.is_mine() {
            fiber::switch_to_worker();
        }
    }

    fn release(&self) {
        self.sched.release();
        self.start_if_idle();
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
