//! Socket-readiness reactor for the pooled executor.
//!
//! A fiber that blocked in a socket syscall would pin its worker, and 10k
//! blocked remote channels must not cost more than 10k blocked *local*
//! channels do. This module is what makes them equal: an epoll-based
//! readiness queue owned by a [`super::PooledExec`], so a remote wait made
//! from one of its fibers parks the *fiber* through the ordinary
//! `park_token`/`park` protocol and is woken when the socket becomes
//! readable or writable (the net layer's `rio` module does the asking —
//! waits made from plain OS threads never come here, they block).
//! Determinacy is untouched — a reactor wakeup is just an `unpark_all` on
//! the waiter's key, indistinguishable from any other wake site
//! (DESIGN.md §4e).
//!
//! The reactor never blocks and owns no thread. Workers drain it from the
//! scheduler loop (the pre-sleep path and the fair tick), with the same
//! Dekker rescan discipline that guards the run queues: readiness is
//! drained *before* quiescence is computed, so a ready socket can never
//! fake an idle pool.
//!
//! Events are armed `EPOLLONESHOT` with the waiter's park key in the
//! event's data word. One-shot arming makes the wakeup protocol
//! self-cleaning: each wait re-arms after taking a fresh park token, and a
//! stale event (the waiter already gone) is a harmless spurious
//! `unpark_all` on a dead key. A small timer heap stands in for park
//! timeouts, which the pooled fiber path deliberately ignores
//! (idle-driven deadlock detection): the one timed park,
//! [`super::Exec::park_until`] (and [`super::Exec::sleep`] on it), arms a
//! deadline here and the waiter is unparked when it expires.
//!
//! Everything is `#[cfg]`-gated to Linux/x86_64 outside Miri — the same
//! gate as the fibers themselves. Elsewhere [`Reactor::new`] returns
//! `None`, the pooled executor runs thread-per-task, and every wait
//! blocks its own thread.

/// Cumulative reactor counters, surfaced through
/// [`super::SchedulerStats::reactor`] and from there through
/// `MonitorStats` (maintained with relaxed atomics; observation only).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// File descriptors ever attached to the epoll set.
    pub registrations: u64,
    /// File descriptors attached at snapshot time.
    pub current_registered: usize,
    /// Park keys woken by socket readiness (real progress signals: data,
    /// buffer space, hangup).
    pub wakeups: u64,
    /// Park keys woken by timer expiry (idle-poll deadlines; *not*
    /// progress — a deadlocked endpoint re-arms these forever).
    pub timer_wakeups: u64,
    /// Times the reactor was polled.
    pub polls: u64,
    /// Polls that found no ready key (neither fd nor timer).
    pub spurious_polls: u64,
    /// Deepest ready batch a single poll returned.
    pub max_poll_batch: u64,
}

/// Readiness direction for [`Reactor::arm`] / [`poll_fd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Wake when the source is readable (or hung up).
    Read,
    /// Wake when the sink is writable (or errored).
    Write,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
mod imp {
    use super::{Interest, ReactorStats};
    use parking_lot::Mutex;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::io;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Raw syscalls: the workspace vendors no libc, and the only kernel
    /// interfaces needed here are stable-ABI x86_64 syscall numbers.
    mod sys {
        use std::arch::asm;

        pub const SYS_POLL: usize = 7;
        pub const SYS_CLOSE: usize = 3;
        pub const SYS_EPOLL_WAIT: usize = 232;
        pub const SYS_EPOLL_CTL: usize = 233;
        pub const SYS_EPOLL_CREATE1: usize = 291;

        pub const EPOLL_CLOEXEC: usize = 0x80000;
        pub const EPOLL_CTL_ADD: usize = 1;
        pub const EPOLL_CTL_DEL: usize = 2;
        pub const EPOLL_CTL_MOD: usize = 3;

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLRDHUP: u32 = 0x2000;
        pub const EPOLLONESHOT: u32 = 1 << 30;

        pub const POLLIN: i16 = 0x001;
        pub const POLLOUT: i16 = 0x004;

        pub const ENOENT: isize = 2;
        pub const EINTR: isize = 4;

        /// `struct epoll_event`; packed on x86_64 (12 bytes), per the
        /// kernel ABI.
        #[repr(C, packed)]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        /// `struct pollfd` for the foreign-thread fallback path.
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            pub fd: i32,
            pub events: i16,
            pub revents: i16,
        }

        /// Four-argument syscall; returns the raw kernel result
        /// (negative errno on failure).
        ///
        /// # Safety
        ///
        /// `n` must name a syscall and `a..d` be valid arguments for it:
        /// every pointer among them addresses memory the kernel may read or
        /// write as that syscall does, live for the whole call.
        // SAFETY: the asm declares everything `syscall` changes (rax, rcx,
        // r11) and touches no stack; what the kernel does with the
        // arguments is the caller's contract above.
        pub unsafe fn syscall4(n: usize, a: usize, b: usize, c: usize, d: usize) -> isize {
            let ret: isize;
            asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
            ret
        }
    }

    /// The epoll instance plus a timer heap, owned by one `PooledExec`.
    pub struct Reactor {
        epfd: i32,
        /// Fds currently attached (drives the workers' sleep mode: any
        /// registration switches indefinite sleeps to 1 ms polling naps).
        attached: AtomicUsize,
        /// Pending wake deadlines, min-first. Lazy: entries are never
        /// cancelled; an expired entry for a waiter that already resumed
        /// is a spurious `unpark_all` on a stale generation.
        timers: Mutex<BinaryHeap<Reverse<(Instant, usize)>>>,
        registrations: AtomicU64,
        wakeups: AtomicU64,
        timer_wakeups: AtomicU64,
        polls: AtomicU64,
        spurious_polls: AtomicU64,
        max_poll_batch: AtomicU64,
    }

    impl Reactor {
        /// Create a reactor, or `None` if the kernel refuses an epoll
        /// instance (waits then block the calling worker).
        pub fn new() -> Option<Arc<Reactor>> {
            let epfd =
                // SAFETY: epoll_create1 takes one flags word and no pointer;
                // the fd it returns is this reactor's, closed in `Drop`.
                unsafe { sys::syscall4(sys::SYS_EPOLL_CREATE1, sys::EPOLL_CLOEXEC, 0, 0, 0) };
            if epfd < 0 {
                return None;
            }
            Some(Arc::new(Reactor {
                epfd: epfd as i32,
                attached: AtomicUsize::new(0),
                timers: Mutex::new(BinaryHeap::new()),
                registrations: AtomicU64::new(0),
                wakeups: AtomicU64::new(0),
                timer_wakeups: AtomicU64::new(0),
                polls: AtomicU64::new(0),
                spurious_polls: AtomicU64::new(0),
                max_poll_batch: AtomicU64::new(0),
            }))
        }

        fn ctl(&self, op: usize, fd: i32, events: u32, data: u64) -> isize {
            let mut ev = sys::EpollEvent { events, data };
            // SAFETY: epoll_ctl reads one `struct epoll_event` through its
            // last argument; `ev` is a local in the kernel's x86_64 layout
            // (`repr(C, packed)`), live for the whole call. `epfd` is open
            // while `self` is; a closed `fd` is an EBADF, not a memory access.
            unsafe {
                sys::syscall4(
                    sys::SYS_EPOLL_CTL,
                    self.epfd as usize,
                    op,
                    fd as usize,
                    std::ptr::addr_of_mut!(ev) as usize,
                )
            }
        }

        /// Remove `fd` from the epoll set. Must run before the fd closes.
        pub fn detach(&self, fd: i32) {
            if self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0) >= 0 {
                self.attached.fetch_sub(1, Ordering::Relaxed);
            }
        }

        /// Arm a one-shot readiness watch on `fd` (adding it to the epoll
        /// set on its first wait), delivering `key` when it fires; the fd
        /// stays in the set, disarmed, until [`Reactor::detach`]. Callers
        /// MUST take their park token
        /// *before* arming: one-shot delivery consumed before the token
        /// exists would be a lost wakeup, while any delivery after
        /// `park_token` invalidates the token and the park returns
        /// immediately.
        pub fn arm(&self, fd: i32, key: usize, interest: Interest) -> io::Result<()> {
            let events = match interest {
                Interest::Read => sys::EPOLLIN | sys::EPOLLRDHUP,
                Interest::Write => sys::EPOLLOUT,
            } | sys::EPOLLONESHOT;
            let mut r = self.ctl(sys::EPOLL_CTL_MOD, fd, events, key as u64);
            if r == -sys::ENOENT {
                // First wait on this fd: attach it armed, in one step.
                r = self.ctl(sys::EPOLL_CTL_ADD, fd, events, key as u64);
                if r >= 0 {
                    self.attached.fetch_add(1, Ordering::Relaxed);
                    self.registrations.fetch_add(1, Ordering::Relaxed);
                }
            }
            if r < 0 {
                return Err(io::Error::from_raw_os_error(-r as i32));
            }
            Ok(())
        }

        /// Arrange for `unpark_all(key)` no earlier than `deadline`.
        pub fn add_timer(&self, deadline: Instant, key: usize) {
            self.timers.lock().push(Reverse((deadline, key)));
        }

        /// Drain ready events and expired timers without blocking,
        /// returning the park keys to wake. Runs on whichever worker hits
        /// the scheduler's poll points; never blocks.
        pub fn poll(&self) -> Vec<usize> {
            let mut keys = Vec::new();
            self.polls.fetch_add(1, Ordering::Relaxed);
            if self.attached.load(Ordering::Relaxed) > 0 {
                const BATCH: usize = 64;
                let mut events = [sys::EpollEvent { events: 0, data: 0 }; BATCH];
                // SAFETY: epoll_wait writes at most BATCH (its third
                // argument) events into `events`, a local array of exactly
                // BATCH of them in the kernel's layout; timeout 0 returns at
                // once, so the array outlives the call.
                let n = unsafe {
                    sys::syscall4(
                        sys::SYS_EPOLL_WAIT,
                        self.epfd as usize,
                        events.as_mut_ptr() as usize,
                        BATCH,
                        0, // timeout: never block a worker here
                    )
                };
                if n > 0 {
                    for ev in events.iter().take(n as usize) {
                        keys.push(ev.data as usize);
                    }
                    self.wakeups.fetch_add(n as u64, Ordering::Relaxed);
                    self.max_poll_batch.fetch_max(n as u64, Ordering::Relaxed);
                }
            }
            let fd_ready = keys.len();
            {
                let now = Instant::now();
                let mut timers = self.timers.lock();
                while let Some(Reverse((deadline, key))) = timers.peek().copied() {
                    if deadline > now {
                        break;
                    }
                    timers.pop();
                    keys.push(key);
                }
                self.timer_wakeups
                    .fetch_add((keys.len() - fd_ready) as u64, Ordering::Relaxed);
            }
            if keys.is_empty() {
                self.spurious_polls.fetch_add(1, Ordering::Relaxed);
            }
            keys
        }

        /// Snapshot the counters.
        pub fn stats(&self) -> ReactorStats {
            ReactorStats {
                registrations: self.registrations.load(Ordering::Relaxed),
                current_registered: self.attached.load(Ordering::Relaxed),
                wakeups: self.wakeups.load(Ordering::Relaxed),
                timer_wakeups: self.timer_wakeups.load(Ordering::Relaxed),
                polls: self.polls.load(Ordering::Relaxed),
                spurious_polls: self.spurious_polls.load(Ordering::Relaxed),
                max_poll_batch: self.max_poll_batch.load(Ordering::Relaxed),
            }
        }
    }

    impl Drop for Reactor {
        fn drop(&mut self) {
            // SAFETY: close takes no pointer. `epfd` is the fd `new` created
            // and only this reactor holds; it is closed once, here, after
            // which nothing can reach it through `self`.
            unsafe {
                sys::syscall4(sys::SYS_CLOSE, self.epfd as usize, 0, 0, 0);
            }
        }
    }

    impl std::fmt::Debug for Reactor {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Reactor")
                .field("attached", &self.attached.load(Ordering::Relaxed))
                .finish()
        }
    }

    /// Blocking readiness wait on one fd, for OS threads operating on an
    /// fd a fiber already switched to non-blocking (the sink watchdog,
    /// which also finishes closed sinks) — and, with a zero timeout, the
    /// check a process on a
    /// blocking fd makes before an operation, to learn whether it is about
    /// to wait. `poll(2)`, so no registration state; returns `Ok(true)`
    /// when ready, `Ok(false)` on timeout or `EINTR` (callers loop on a
    /// deadline).
    pub fn poll_fd(fd: i32, interest: Interest, timeout: Option<Duration>) -> io::Result<bool> {
        let mut pfd = sys::PollFd {
            fd,
            events: match interest {
                Interest::Read => sys::POLLIN,
                Interest::Write => sys::POLLOUT,
            },
            revents: 0,
        };
        let ms: isize = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as isize,
        };
        // SAFETY: poll reads and writes `nfds` (here 1) `struct pollfd`s
        // through its first argument; `pfd` is a `repr(C)` local, live for
        // the whole call. A closed `fd` is reported in `revents`, not by
        // touching other memory.
        let r = unsafe {
            sys::syscall4(
                sys::SYS_POLL,
                std::ptr::addr_of_mut!(pfd) as usize,
                1,
                ms as usize,
                0,
            )
        };
        match r {
            n if n > 0 => Ok(true),
            0 => Ok(false),
            e if e == -sys::EINTR => Ok(false),
            e => Err(io::Error::from_raw_os_error(-e as i32)),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;

        fn pair() -> (TcpStream, TcpStream) {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
            let (b, _) = l.accept().unwrap();
            (a, b)
        }

        #[test]
        fn oneshot_arm_delivers_key_once() {
            let r = Reactor::new().expect("epoll available on linux");
            let (mut w, rd) = pair();
            assert!(r.poll().is_empty(), "nothing armed yet");
            r.arm(rd.as_raw_fd(), 0x1234, Interest::Read).unwrap();
            assert!(r.poll().is_empty(), "no data yet");
            w.write_all(b"x").unwrap();
            w.flush().unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let mut got = Vec::new();
            while got.is_empty() && std::time::Instant::now() < deadline {
                got = r.poll();
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(got, vec![0x1234]);
            // One-shot: without re-arming the event must not re-fire.
            assert!(r.poll().is_empty());
            r.detach(rd.as_raw_fd());
            assert_eq!(r.stats().current_registered, 0);
        }

        #[test]
        fn timers_fire_in_deadline_order() {
            let r = Reactor::new().unwrap();
            let now = Instant::now();
            r.add_timer(now + Duration::from_millis(30), 2);
            r.add_timer(now + Duration::from_millis(5), 1);
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(r.poll(), vec![1]);
            std::thread::sleep(Duration::from_millis(25));
            assert_eq!(r.poll(), vec![2]);
            let s = r.stats();
            assert_eq!(s.timer_wakeups, 2);
            assert!(s.polls >= 2);
        }

        #[test]
        fn poll_fd_sees_readiness_and_timeout() {
            let (mut w, rd) = pair();
            assert!(!poll_fd(
                rd.as_raw_fd(),
                Interest::Read,
                Some(Duration::from_millis(1))
            )
            .unwrap());
            w.write_all(b"y").unwrap();
            assert!(poll_fd(rd.as_raw_fd(), Interest::Read, None).unwrap());
            // A fresh socket's send buffer is writable immediately.
            assert!(poll_fd(w.as_raw_fd(), Interest::Write, Some(Duration::ZERO)).unwrap());
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
mod imp {
    use super::ReactorStats;
    use std::sync::Arc;
    use std::time::Instant;

    /// Stub reactor for platforms without epoll and fibers (and Miri):
    /// [`Reactor::new`] yields `None`, so no instance ever exists and
    /// every wait blocks its own thread.
    #[derive(Debug)]
    pub struct Reactor {
        _never: std::convert::Infallible,
    }

    impl Reactor {
        /// Always `None` here; see the Linux implementation.
        pub fn new() -> Option<Arc<Reactor>> {
            None
        }

        /// Unreachable (no instance can exist).
        pub fn add_timer(&self, _deadline: Instant, _key: usize) {
            match self._never {}
        }

        /// Unreachable (no instance can exist).
        pub fn poll(&self) -> Vec<usize> {
            match self._never {}
        }

        /// Unreachable (no instance can exist).
        pub fn stats(&self) -> ReactorStats {
            match self._never {}
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
pub use imp::poll_fd;
pub use imp::Reactor;
