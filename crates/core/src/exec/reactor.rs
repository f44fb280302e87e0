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
//! The reactor owns no thread; it is where an idle worker sleeps. Busy
//! workers drain it without blocking ([`Reactor::poll`], at the fair tick
//! and before they sleep), with the same Dekker rescan discipline that
//! guards the run queues: readiness is drained *before* quiescence is
//! computed, so a ready socket can never fake an idle pool. One idle worker
//! at a time then blocks in `epoll_wait` ([`Reactor::wait`]) until a socket
//! is ready, the earliest timer is due, or [`Reactor::wake`] writes the
//! reactor's eventfd — which the pool does wherever it would notify a
//! sleeping worker, and [`Reactor::add_timer`] does when the new deadline
//! is earlier than the one the worker sleeps to.
//!
//! Events are armed `EPOLLONESHOT` with the waiter's park key in the
//! event's data word. One-shot arming makes the wakeup protocol
//! self-cleaning: each wait re-arms after taking a fresh park token, and a
//! stale event (the waiter already gone) is a harmless spurious
//! `unpark_all` on a dead key. A small timer heap holds a parked fiber's
//! deadline: [`super::Exec::park`] (and [`super::Exec::sleep`] on it)
//! arms it here and the waiter is unparked when it expires.
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

/// Readiness direction for [`Reactor::arm`] / [`poll_fds`].
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

        pub const SYS_READ: usize = 0;
        pub const SYS_WRITE: usize = 1;
        pub const SYS_POLL: usize = 7;
        pub const SYS_CLOSE: usize = 3;
        pub const SYS_EPOLL_WAIT: usize = 232;
        pub const SYS_EPOLL_CTL: usize = 233;
        pub const SYS_EVENTFD2: usize = 290;
        pub const SYS_EPOLL_CREATE1: usize = 291;

        pub const EPOLL_CLOEXEC: usize = 0x80000;
        pub const EFD_CLOEXEC: usize = 0x80000;
        pub const EFD_NONBLOCK: usize = 0x800;
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

    /// The epoll data word of the wake eventfd. Park keys are addresses,
    /// so none is `u64::MAX`.
    const WAKE_KEY: u64 = u64::MAX;

    /// Pending wake deadlines, and the deadline of the worker blocked in
    /// [`Reactor::wait`], under one lock: a timer is either seen by the
    /// wait as it computes its timeout or sees the wait and wakes it.
    #[derive(Default)]
    struct Timers {
        /// Min-first. Lazy: entries are never cancelled; an expired entry
        /// for a waiter that already resumed is a spurious `unpark_all` on
        /// a stale generation.
        heap: BinaryHeap<Reverse<(Instant, usize)>>,
        /// `Some(until)` while a worker is in [`Reactor::wait`], blocked
        /// until `until` (`None`: until woken).
        waiter: Option<Option<Instant>>,
    }

    /// The epoll instance, a wake eventfd and a timer heap, owned by one
    /// `PooledExec`.
    pub struct Reactor {
        epfd: i32,
        /// Level-triggered eventfd in the epoll set: written by
        /// [`Reactor::wake`], read by the wait it ends.
        wake_fd: i32,
        /// Fds currently attached (the wake eventfd not counted); the
        /// non-blocking [`Reactor::poll`] skips the syscall while zero.
        attached: AtomicUsize,
        timers: Mutex<Timers>,
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
            // SAFETY: eventfd2 takes an initial count and a flags word, no
            // pointer; the fd it returns is this reactor's, closed in `Drop`.
            let wake_fd = unsafe {
                sys::syscall4(
                    sys::SYS_EVENTFD2,
                    0,
                    sys::EFD_CLOEXEC | sys::EFD_NONBLOCK,
                    0,
                    0,
                )
            };
            let reactor = Reactor {
                epfd: epfd as i32,
                wake_fd: wake_fd as i32,
                attached: AtomicUsize::new(0),
                timers: Mutex::new(Timers::default()),
                registrations: AtomicU64::new(0),
                wakeups: AtomicU64::new(0),
                timer_wakeups: AtomicU64::new(0),
                polls: AtomicU64::new(0),
                spurious_polls: AtomicU64::new(0),
                max_poll_batch: AtomicU64::new(0),
            };
            // Dropping `reactor` closes whichever fds were created.
            if wake_fd < 0
                || reactor.ctl(sys::EPOLL_CTL_ADD, reactor.wake_fd, sys::EPOLLIN, WAKE_KEY) < 0
            {
                return None;
            }
            Some(Arc::new(reactor))
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

        /// Arrange for `unpark_all(key)` no earlier than `deadline`. Ends
        /// the blocked [`Reactor::wait`] early if it sleeps past `deadline`.
        pub fn add_timer(&self, deadline: Instant, key: usize) {
            let mut timers = self.timers.lock();
            timers.heap.push(Reverse((deadline, key)));
            if let Some(until) = timers.waiter {
                if until.is_none_or(|u| deadline < u) {
                    self.wake();
                }
            }
        }

        /// End the blocked [`Reactor::wait`], or the next one if none is
        /// blocked yet (the eventfd stays readable until a wait reads it).
        pub fn wake(&self) {
            let one = 1u64;
            // SAFETY: write reads 8 bytes from its second argument, a local
            // u64 live for the whole call; `wake_fd` is open while `self` is.
            // A full counter (EAGAIN) already means "wake".
            unsafe {
                sys::syscall4(
                    sys::SYS_WRITE,
                    self.wake_fd as usize,
                    std::ptr::addr_of!(one) as usize,
                    8,
                    0,
                );
            }
        }

        /// Drain ready events and expired timers without blocking,
        /// returning the park keys to wake. Runs on whichever worker hits
        /// the scheduler's poll points.
        pub fn poll(&self) -> Vec<usize> {
            self.polls.fetch_add(1, Ordering::Relaxed);
            let mut keys = Vec::new();
            if self.attached.load(Ordering::Relaxed) > 0 {
                self.ready(&mut keys, 0, false);
            }
            self.expire(&mut keys, &mut self.timers.lock());
            keys
        }

        /// Block the calling worker until a socket is ready, a timer is
        /// due, [`Reactor::wake`] is called, or `timeout` passes; returns
        /// the park keys to wake, as [`Reactor::poll`] does. One worker at
        /// a time.
        pub fn wait(&self, timeout: Option<Duration>) -> Vec<usize> {
            self.polls.fetch_add(1, Ordering::Relaxed);
            let ms = {
                let mut timers = self.timers.lock();
                let now = Instant::now();
                let next = timers.heap.peek().map(|Reverse((d, _))| *d);
                let until = match (timeout.map(|d| now + d), next) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                timers.waiter = Some(until);
                // Rounded up: waking before the deadline would only loop.
                until.map_or(-1, |u| {
                    let d = u.saturating_duration_since(now);
                    d.as_micros().div_ceil(1000).min(i32::MAX as u128) as isize
                })
            };
            let mut keys = Vec::new();
            self.ready(&mut keys, ms, true);
            let mut timers = self.timers.lock();
            timers.waiter = None;
            self.expire(&mut keys, &mut timers);
            keys
        }

        /// One `epoll_wait` of up to `ms` milliseconds (-1: no limit),
        /// pushing the keys of ready fds. A wake the eventfd reports is
        /// consumed only by the blocked wait (`take_wake`): read by a
        /// non-blocking poll, it would be lost to the worker it was for,
        /// which sees it once the poll has left the level-triggered fd
        /// readable.
        fn ready(&self, keys: &mut Vec<usize>, ms: isize, take_wake: bool) {
            const BATCH: usize = 64;
            let mut events = [sys::EpollEvent { events: 0, data: 0 }; BATCH];
            // SAFETY: epoll_wait writes at most BATCH (its third argument)
            // events into `events`, a local array of exactly BATCH of them
            // in the kernel's layout, live until the call returns.
            let n = unsafe {
                sys::syscall4(
                    sys::SYS_EPOLL_WAIT,
                    self.epfd as usize,
                    events.as_mut_ptr() as usize,
                    BATCH,
                    ms as usize,
                )
            };
            let before = keys.len();
            for ev in events.iter().take(n.max(0) as usize) {
                if ev.data == WAKE_KEY {
                    if !take_wake {
                        continue;
                    }
                    let mut count = 0u64;
                    // SAFETY: read writes at most 8 bytes (its third
                    // argument) into `count`, a local u64 live for the
                    // call; the fd is non-blocking, so an emptied counter
                    // is EAGAIN, not a wait.
                    unsafe {
                        sys::syscall4(
                            sys::SYS_READ,
                            self.wake_fd as usize,
                            std::ptr::addr_of_mut!(count) as usize,
                            8,
                            0,
                        );
                    }
                } else {
                    keys.push(ev.data as usize);
                }
            }
            let got = (keys.len() - before) as u64;
            if got > 0 {
                self.wakeups.fetch_add(got, Ordering::Relaxed);
                self.max_poll_batch.fetch_max(got, Ordering::Relaxed);
            }
        }

        /// Pop the timers due now onto `keys`, and count the poll.
        fn expire(&self, keys: &mut Vec<usize>, timers: &mut Timers) {
            let fd_ready = keys.len();
            let now = Instant::now();
            while let Some(Reverse((deadline, key))) = timers.heap.peek().copied() {
                if deadline > now {
                    break;
                }
                timers.heap.pop();
                keys.push(key);
            }
            self.timer_wakeups
                .fetch_add((keys.len() - fd_ready) as u64, Ordering::Relaxed);
            if keys.is_empty() {
                self.spurious_polls.fetch_add(1, Ordering::Relaxed);
            }
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
            // SAFETY: close takes no pointer. `epfd` and `wake_fd` are the
            // fds `new` created and only this reactor holds (a negative one
            // is an EBADF); each is closed once, here, after which nothing
            // can reach it through `self`.
            unsafe {
                sys::syscall4(sys::SYS_CLOSE, self.wake_fd as usize, 0, 0, 0);
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

    /// Blocking readiness wait on a set of fds, for OS threads: on an fd a
    /// fiber already switched to non-blocking (a sink watchdog on the
    /// thread executor, which also finishes closed sinks), on a thread
    /// accept loop's listener and unfinished preambles at once — and, with
    /// a zero timeout, the check a process on a blocking fd makes before an
    /// operation, to learn whether it is about to wait. One `poll(2)`, so
    /// no registration state and no fd of its own; returns `Ok(true)` when
    /// some fd is ready, `Ok(false)` on timeout or `EINTR` (callers loop on
    /// a deadline).
    pub fn poll_fds(
        fds: impl IntoIterator<Item = i32>,
        interest: Interest,
        timeout: Option<Duration>,
    ) -> io::Result<bool> {
        let events = match interest {
            Interest::Read => sys::POLLIN,
            Interest::Write => sys::POLLOUT,
        };
        let mut pfds: Vec<sys::PollFd> = fds
            .into_iter()
            .map(|fd| sys::PollFd {
                fd,
                events,
                revents: 0,
            })
            .collect();
        // Rounded up, as in `Reactor::wait`: waking before a deadline
        // would only loop.
        let ms: isize = match timeout {
            None => -1,
            Some(d) => d.as_micros().div_ceil(1000).min(i32::MAX as u128) as isize,
        };
        // SAFETY: poll reads and writes `nfds` `struct pollfd`s through its
        // first argument; `pfds` holds exactly that many `repr(C)` entries,
        // live for the whole call. A closed fd is reported in its
        // `revents`, not by touching other memory.
        let r = unsafe {
            sys::syscall4(
                sys::SYS_POLL,
                pfds.as_mut_ptr() as usize,
                pfds.len(),
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

        /// Runs `r.wait(None)` on a thread of its own, as an idle worker
        /// does, and returns what it woke with and how long it blocked.
        fn blocked_wait(r: &Arc<Reactor>) -> std::sync::mpsc::Receiver<(Vec<usize>, Duration)> {
            let (tx, rx) = std::sync::mpsc::channel();
            let r = r.clone();
            std::thread::spawn(move || {
                let start = Instant::now();
                let ready = r.wait(None);
                tx.send((ready, start.elapsed())).unwrap();
            });
            rx
        }

        /// The waiter has blocked for `d`, unless it returned already.
        fn still_blocked(rx: &std::sync::mpsc::Receiver<(Vec<usize>, Duration)>, d: Duration) {
            let early = rx.recv_timeout(d);
            assert!(early.is_err(), "the wait returned early: {early:?}");
        }

        #[test]
        fn a_blocked_wait_ends_on_wake_readiness_and_deadline() {
            let r = Reactor::new().unwrap();
            let prompt = Duration::from_secs(2);
            let nap = Duration::from_millis(50);
            // An eventfd wake, and one written before the wait starts.
            let rx = blocked_wait(&r);
            still_blocked(&rx, nap);
            r.wake();
            let (ready, _) = rx.recv_timeout(prompt).expect("a wake ends the wait");
            assert!(ready.is_empty(), "a wake is no park key");
            r.wake();
            let (ready, _) = blocked_wait(&r).recv_timeout(prompt).unwrap();
            assert!(ready.is_empty());
            // A readable socket.
            let (mut w, rd) = pair();
            r.arm(rd.as_raw_fd(), 0x1234, Interest::Read).unwrap();
            let rx = blocked_wait(&r);
            still_blocked(&rx, nap);
            w.write_all(b"x").unwrap();
            let (ready, _) = rx.recv_timeout(prompt).expect("readiness ends the wait");
            assert_eq!(ready, vec![0x1234]);
            // A wake that a busy worker's non-blocking poll sees first.
            let rx = blocked_wait(&r);
            still_blocked(&rx, nap);
            r.wake();
            assert!(r.poll().is_empty(), "a wake is no park key");
            let (ready, _) = rx
                .recv_timeout(prompt)
                .expect("a polled wake still ends the wait");
            assert!(ready.is_empty(), "a wake is no park key");
            // A timer deadline, armed before the wait blocks.
            r.add_timer(Instant::now() + nap, 0x99);
            let (ready, took) = blocked_wait(&r).recv_timeout(prompt).unwrap();
            assert_eq!(ready, vec![0x99]);
            assert!(
                took >= nap - Duration::from_millis(1),
                "woke early: {took:?}"
            );
            // A timer armed while the wait blocks, earlier than its
            // deadline (none): the wait ends to take it up.
            r.detach(rd.as_raw_fd());
            let rx = blocked_wait(&r);
            still_blocked(&rx, nap);
            r.add_timer(Instant::now(), 0x77);
            let (ready, _) = rx.recv_timeout(prompt).expect("a new timer ends the wait");
            let ready = if ready.is_empty() {
                r.wait(None)
            } else {
                ready
            };
            assert_eq!(ready, vec![0x77]);
        }

        #[test]
        fn poll_fds_sees_readiness_and_timeout() {
            let (mut w, rd) = pair();
            let (_w2, rd2) = pair();
            let fds = [rd2.as_raw_fd(), rd.as_raw_fd()];
            assert!(!poll_fds(fds, Interest::Read, Some(Duration::from_millis(1))).unwrap());
            w.write_all(b"y").unwrap();
            // Either socket being ready ends the wait.
            assert!(poll_fds(fds, Interest::Read, None).unwrap());
            // A fresh socket's send buffer is writable immediately.
            assert!(poll_fds([w.as_raw_fd()], Interest::Write, Some(Duration::ZERO)).unwrap());
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
mod imp {
    use super::ReactorStats;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

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
        pub fn wait(&self, _timeout: Option<Duration>) -> Vec<usize> {
            match self._never {}
        }

        /// Unreachable (no instance can exist).
        pub fn wake(&self) {
            match self._never {}
        }

        /// Unreachable (no instance can exist).
        pub fn stats(&self) -> ReactorStats {
            match self._never {}
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
pub use imp::poll_fds;
pub use imp::Reactor;
