//! [`ThreadExec`]: the paper's execution model — one OS thread per task,
//! parked in the thread half of the keyed [`WaitTable`].

use super::{set_current, weak_dyn, Exec, TaskLocals, WaitTable};
use crate::error::Result;
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// The paper's execution model: every spawned task is a dedicated OS
/// thread; parking is a keyed condvar wait.
pub struct ThreadExec {
    pub(super) waits: WaitTable,
    self_ref: OnceLock<Weak<dyn Exec>>,
}

impl ThreadExec {
    /// Create a thread-per-process executor.
    pub fn new() -> Arc<Self> {
        let exec = Arc::new(ThreadExec {
            waits: WaitTable::default(),
            self_ref: OnceLock::new(),
        });
        let weak = weak_dyn(&exec);
        exec.self_ref.set(weak).ok();
        exec
    }
}

impl Exec for ThreadExec {
    fn spawn(&self, name: &str, body: Box<dyn FnOnce() + Send>) {
        let locals = TaskLocals::new(
            name,
            true,
            self.self_ref.get().expect("self_ref set in new()").clone(),
        );
        std::thread::Builder::new()
            .name(format!("kpn:{name}"))
            .spawn(move || {
                set_current(Some(locals));
                body();
            })
            .expect("spawn process thread");
    }

    fn park_token(&self, key: usize) -> u64 {
        self.waits.token(key)
    }

    fn park(&self, key: usize, token: u64, timeout: Option<Duration>) -> Result<bool> {
        Ok(self.waits.wait(key, token, timeout))
    }

    fn unpark_all(&self, key: usize) {
        // A thread table never holds fibers.
        self.waits.wake(key);
    }

    fn yield_point(&self) {}

    fn add_idle_hook(&self, _hook: super::IdleHook) {
        // Thread mode has no quiescence observer; periodic work (the
        // monitor tick) rides on park timeouts instead.
    }

    fn sleep(&self, d: Duration) {
        // The task is the thread: nothing else is held.
        std::thread::sleep(d);
    }
}

/// The process-wide default executor, used by channels created outside any
/// network (`kpn_core::channel()`).
pub(crate) fn default_exec() -> &'static Arc<ThreadExec> {
    static DEFAULT: OnceLock<Arc<ThreadExec>> = OnceLock::new();
    DEFAULT.get_or_init(ThreadExec::new)
}
