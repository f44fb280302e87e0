//! Stackful fibers (Linux x86_64): the continuations behind
//! [`super::PooledExec`] and the simulation's tasks, with a thread-backed
//! fallback elsewhere that only the simulation uses.
//!
//! The gate is the readiness reactor's (`super::reactor`), not merely the
//! context-switch assembly's: a fiber that waits on a socket must be able
//! to park on a reactor, so fibers exist only where the reactor does and
//! no target is left on which a fiber could pin its worker in a socket
//! wait.

/// True on targets where [`super::PooledExec`] runs tasks as fibers.
pub(in crate::exec) const AVAILABLE: bool =
    cfg!(all(target_os = "linux", target_arch = "x86_64", not(miri)));

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
mod imp {
    //! Minimal stackful coroutines: a fiber is a heap stack plus a saved
    //! stack pointer. Switching saves the six SysV callee-saved registers
    //! on the outgoing stack and restores them from the incoming one; all
    //! caller-saved state is already spilled by the `extern "C"` call
    //! boundary. No dependencies, ~20 instructions.

    use super::super::{swap_current, ParkRequest, TaskLocals};
    use std::cell::Cell;
    use std::sync::Arc;

    /// 256 KiB per fiber. Allocated with the global allocator, which mmaps
    /// chunks this size, so untouched pages cost address space, not RAM —
    /// 10 000 fibers commit far less than 2.5 GiB.
    const STACK_SIZE: usize = 256 * 1024;
    /// Sentinel at the lowest stack address, checked after every switch
    /// back to the worker; corruption means the fiber overflowed.
    const CANARY: u64 = 0xDEAD_F1BE_5AFE_C0DE;

    core::arch::global_asm!(
        ".text",
        ".balign 16",
        ".globl kpn_core_fiber_switch",
        ".hidden kpn_core_fiber_switch",
        // fn kpn_core_fiber_switch(save: *mut usize /*rdi*/, to: usize /*rsi*/)
        // Saves the current context into *save, resumes the context whose
        // stack pointer is `to`.
        "kpn_core_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".balign 16",
        ".globl kpn_core_fiber_start",
        ".hidden kpn_core_fiber_start",
        // First resume of a new fiber "returns" here (the address is
        // planted on the fresh stack). r15 carries the Fiber pointer.
        // rsp is 16-aligned at this point, so the call leaves rsp ≡ 8
        // (mod 16) at the callee's entry, as the SysV ABI requires.
        "kpn_core_fiber_start:",
        "mov rdi, r15",
        "call kpn_core_fiber_entry",
        "ud2",
    );

    extern "C" {
        fn kpn_core_fiber_switch(save: *mut usize, to: usize);
        fn kpn_core_fiber_start();
    }

    struct FiberStack {
        base: *mut u8,
    }

    impl FiberStack {
        fn layout() -> std::alloc::Layout {
            std::alloc::Layout::from_size_align(STACK_SIZE, 16).unwrap()
        }

        fn new() -> FiberStack {
            // SAFETY: the layout's size (STACK_SIZE) is nonzero and its
            // alignment a power of two, as `alloc` requires; null is
            // checked next.
            let base = unsafe { std::alloc::alloc(Self::layout()) };
            assert!(!base.is_null(), "fiber stack allocation failed");
            // SAFETY: `base` is a fresh, non-null, 16-aligned allocation of
            // STACK_SIZE bytes, so its first eight are ours and u64-aligned.
            unsafe { (base as *mut u64).write(CANARY) };
            FiberStack { base }
        }

        /// Highest usable address, 16-aligned.
        fn top(&self) -> usize {
            (self.base as usize + STACK_SIZE) & !15
        }
    }

    impl Drop for FiberStack {
        fn drop(&mut self) {
            // SAFETY: `base` came from `alloc` with this same layout and is
            // freed once, here, by the stack's one owner. Nothing runs on
            // the stack afterwards: a fiber is resumed only through
            // `Fiber::run(&mut self)`, which cannot overlap its drop. The
            // values on a never-finished fiber's stack leak, which is safe.
            unsafe { std::alloc::dealloc(self.base, Self::layout()) }
        }
    }

    /// A parked or runnable task: stack, saved stack pointer, identity.
    pub(in crate::exec) struct Fiber {
        stack: FiberStack,
        /// Saved rsp while suspended; garbage while running.
        ctx: usize,
        /// The task's identity while the fiber is off the CPU; while it
        /// runs, the worker's previous one (see [`Fiber::run`]).
        locals: Option<Arc<TaskLocals>>,
        entry: Option<Box<dyn FnOnce() + Send>>,
        pub(in crate::exec) done: bool,
    }

    // SAFETY: only the raw stack pointer keeps `Fiber` from being `Send`.
    // The stack is an allocation the fiber owns outright, and sending a
    // suspended fiber moves it — every value the task holds — to the next
    // worker at once, with nothing left shared with the thread it leaves:
    // the task's runtime state is its `TaskLocals` (an `Arc` the fiber
    // carries), installed by whichever worker resumes it. One worker at a
    // time runs a fiber; the `Box` passes between them through the run
    // queues and the wait table, never shared.
    unsafe impl Send for Fiber {}

    impl Fiber {
        pub(in crate::exec) fn new(
            locals: Arc<TaskLocals>,
            entry: Box<dyn FnOnce() + Send>,
        ) -> Box<Fiber> {
            let stack = FiberStack::new();
            let top = stack.top();
            let mut f = Box::new(Fiber {
                stack,
                ctx: 0,
                locals: Some(locals),
                entry: Some(entry),
                done: false,
            });
            // Seed the stack so the first switch-in pops zeroed registers
            // (r15 = Fiber pointer) and "returns" into fiber_start.
            let ctx = top - 56;
            // SAFETY: the seven words from `ctx` up to `top` lie inside the
            // fresh stack (`top` is its 16-aligned end, STACK_SIZE is far
            // more than 56 bytes) and are 8-aligned; nothing else uses the
            // stack yet. They are the frame the first switch-in pops.
            unsafe {
                let p = ctx as *mut usize;
                p.write(&mut *f as *mut Fiber as usize); // r15
                p.add(1).write(0); // r14
                p.add(2).write(0); // r13
                p.add(3).write(0); // r12
                p.add(4).write(0); // rbx
                p.add(5).write(0); // rbp
                p.add(6).write(kpn_core_fiber_start as *const () as usize); // return addr
            }
            f.ctx = ctx;
            f
        }

        /// Resume this fiber on the current worker thread, its identity
        /// installed as the thread's current task. Returns when the fiber
        /// parks, yields, or finishes, with the worker's own restored.
        pub(in crate::exec) fn run(&mut self, worker_ctx: &mut usize) {
            // Moved in and back out, not cloned: no reference count
            // changes hands per dispatch.
            swap_current(&mut self.locals);
            ACTIVE_FIBER.with(|c| c.set(self as *mut Fiber));
            // SAFETY: `self.ctx` is the stack pointer this fiber's last
            // switch-out saved on its own live stack (or the frame `new`
            // seeded), and `worker_ctx` is a writable slot for the worker's.
            // The switch saves and restores exactly the SysV callee-saved
            // registers; the `extern "C"` call has spilled the rest. `&mut
            // self` keeps every other worker off this fiber until it
            // switches back.
            unsafe { kpn_core_fiber_switch(worker_ctx as *mut usize, self.ctx) };
            ACTIVE_FIBER.with(|c| c.set(std::ptr::null_mut()));
            swap_current(&mut self.locals);
            // SAFETY: `base` starts the fiber's live stack allocation and is
            // u64-aligned; the fiber is switched out, so nothing writes it.
            let canary = unsafe { (self.stack.base as *const u64).read() };
            if canary != CANARY {
                let task = self.locals.as_ref().map_or("", |l| &l.name);
                eprintln!("kpn-core: fiber stack overflow detected (task '{task}'); aborting");
                std::process::abort();
            }
        }
    }

    thread_local! {
        /// Points at the running worker's context save slot; fibers switch
        /// back through it.
        static WORKER_CTX: Cell<*mut usize> = const { Cell::new(std::ptr::null_mut()) };
        /// The fiber currently running on this thread, if any.
        static ACTIVE_FIBER: Cell<*mut Fiber> = const { Cell::new(std::ptr::null_mut()) };
        /// Set by a parking fiber just before switching out; the worker
        /// files the fiber where it asks (it must not be reachable by a
        /// waker while its stack is still live).
        pub(in crate::exec) static PARK_REQUEST: Cell<Option<ParkRequest>> =
            const { Cell::new(None) };
    }

    /// True when the calling code is executing on a fiber.
    pub(in crate::exec) fn on_fiber() -> bool {
        ACTIVE_FIBER.with(|c| !c.get().is_null())
    }

    /// Install the worker's save slot for the duration of the worker loop.
    pub(in crate::exec) fn set_worker_ctx(slot: *mut usize) {
        WORKER_CTX.with(|c| c.set(slot));
    }

    /// Suspend the current fiber, returning control to its worker. The
    /// worker observes `PARK_REQUEST` (set by the caller) or treats the
    /// suspension as a yield.
    pub(in crate::exec) fn switch_to_worker() {
        let f = ACTIVE_FIBER.with(|c| c.get());
        debug_assert!(!f.is_null(), "switch_to_worker outside a fiber");
        let slot = WORKER_CTX.with(|c| c.get());
        // SAFETY: `f` is the fiber running on this thread, set by
        // `Fiber::run`, whose frame keeps the fiber alive and untouched
        // until this switch returns to it; `slot` is that worker's save
        // slot, holding the context `run` saved. The fiber's saved stack
        // pointer goes into its own `ctx`, as `run` expects on resumption.
        unsafe { kpn_core_fiber_switch(&mut (*f).ctx, *slot) };
    }

    /// Entry point for every fiber; `f` arrives in r15 via fiber_start.
    #[no_mangle]
    extern "C" fn kpn_core_fiber_entry(f: *mut Fiber) -> ! {
        {
            // SAFETY: `f` is the boxed fiber `Fiber::new` planted in r15.
            // The worker that switched in holds it alive in `run` and does
            // not touch it until this fiber switches back, so this is the
            // one reference in use; it ends before `switch_to_worker`.
            let fiber = unsafe { &mut *f };
            let body = fiber.entry.take().expect("fiber entry body");
            // Never unwind into the assembly trampoline. Process panics are
            // already caught and recorded by the network's spawn wrapper;
            // this is the backstop.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            fiber.done = true;
        }
        switch_to_worker();
        unreachable!("finished fiber resumed")
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
mod imp {
    //! Fallback for targets without fibers: a `Fiber` backed by an OS
    //! thread of its own, with the same API. A baton passes between the
    //! thread that runs the fiber and the fiber's thread, so exactly one of
    //! them runs at a time, as with a stack switch. Only the simulation
    //! constructs one; the pooled executor runs each task on a thread of
    //! its own instead (see [`crate::exec::PooledExec`]).

    use super::super::{set_current, ParkRequest, TaskLocals};
    use std::cell::{Cell, RefCell};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;

    /// The baton coming back: the park request the fiber switched out with
    /// (`PARK_REQUEST` crosses threads here), and whether it finished.
    type Back = (Option<ParkRequest>, bool);

    pub(in crate::exec) struct Fiber {
        resume: Sender<()>,
        back: Receiver<Back>,
        /// The task and the fiber's ends of the baton, until the first run
        /// starts its thread.
        start: Option<(
            Arc<TaskLocals>,
            Box<dyn FnOnce() + Send>,
            Receiver<()>,
            Sender<Back>,
        )>,
        pub(in crate::exec) done: bool,
    }

    impl Fiber {
        pub(in crate::exec) fn new(
            locals: Arc<TaskLocals>,
            entry: Box<dyn FnOnce() + Send>,
        ) -> Box<Fiber> {
            let (resume, resumed) = channel();
            let (hand_back, back) = channel();
            let start = Some((locals, entry, resumed, hand_back));
            Box::new(Fiber {
                resume,
                back,
                start,
                done: false,
            })
        }

        /// Runs the fiber until it parks, yields, or finishes; what it
        /// asked for is left in this thread's `PARK_REQUEST`.
        pub(in crate::exec) fn run(&mut self, _worker_ctx: &mut usize) {
            if let Some((locals, entry, resumed, hand_back)) = self.start.take() {
                std::thread::Builder::new()
                    .name(format!("kpn:{}", locals.name))
                    .spawn(move || {
                        set_current(Some(locals));
                        let _ = resumed.recv();
                        let end = hand_back.clone();
                        BATON.with(|b| *b.borrow_mut() = Some((resumed, hand_back)));
                        // As on a real fiber: the network's spawn wrapper
                        // records the panic, this is the backstop.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry));
                        let _ = end.send((None, true));
                    })
                    .expect("spawn a fiber's thread");
            }
            let _ = self.resume.send(());
            let (request, done) = self
                .back
                .recv()
                .expect("a fiber's thread hands the baton back");
            PARK_REQUEST.with(|c| c.set(request));
            self.done = done;
        }
    }

    thread_local! {
        pub(in crate::exec) static PARK_REQUEST: Cell<Option<ParkRequest>> =
            const { Cell::new(None) };
        /// The fiber's ends of the baton, on the thread that backs it.
        static BATON: RefCell<Option<(Receiver<()>, Sender<Back>)>> = const { RefCell::new(None) };
    }

    pub(in crate::exec) fn on_fiber() -> bool {
        BATON.with(|b| b.borrow().is_some())
    }

    pub(in crate::exec) fn set_worker_ctx(_slot: *mut usize) {}

    /// Hands the baton back, with the park request the caller set, and
    /// waits until the fiber is resumed. A fiber dropped unfinished is
    /// never resumed, and its thread waits here for good, as a switched-out
    /// fiber's stack values leak.
    pub(in crate::exec) fn switch_to_worker() {
        BATON.with(|b| {
            let b = b.borrow();
            let (resumed, hand_back) = b.as_ref().expect("switch_to_worker outside a fiber");
            let _ = hand_back.send((PARK_REQUEST.with(|c| c.take()), false));
            if resumed.recv().is_err() {
                loop {
                    std::thread::park();
                }
            }
        });
    }
}

pub(in crate::exec) use imp::{on_fiber, set_worker_ctx, switch_to_worker, Fiber, PARK_REQUEST};
