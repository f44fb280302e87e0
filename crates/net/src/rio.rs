//! Socket waits that follow the caller.
//!
//! The rule, evaluated per wait from the calling context and from nothing
//! else: **a remote wait made from a pooled fiber parks that fiber on its
//! pool's reactor; a wait made from an OS thread (thread executor, sim,
//! foreign / client threads) blocks that thread in one plain blocking
//! syscall.** A blocked remote channel therefore costs a parked fiber on
//! the pooled executor and — exactly as in the paper (§4) — a blocked
//! thread on the thread executor, and no option, environment variable or
//! config field takes part in the choice. A node's helpers are tasks of
//! its executor and wait the same way: a control session's stream is
//! wrapped like a data connection's ([`control_stream`]), and the accept
//! loop waits on its listener and its unfinished preambles at once
//! ([`wait_readable`]).
//!
//! [`ReactorIo`] is the transport wrapper that implements it. Every
//! fd-backed transport is wrapped (on Linux x86_64, the one target with
//! fibers). The wrapper starts out transparent: the fd stays in blocking
//! mode and every operation is the inner transport's single syscall. The
//! first time a *fiber* operates on it — even if the endpoint was
//! connected on another thread and moved into a process later — or a
//! process on an OS thread finds it not ready, the fd is switched to
//! non-blocking for good and blocking semantics are emulated here
//! instead: an operation that would block parks the fiber through the
//! ordinary `Exec::park_token`/`park` protocol with interest registered on
//! the pool's [`Reactor`](kpn_core::exec::reactor::Reactor), and retries
//! when a worker drains the readiness queue and unparks it. An OS thread
//! on a switched fd (a process of the thread executor, a sink watchdog
//! pumping an idle sink or finishing a closed one) waits in `poll(2)`
//! instead of parking.
//!
//! Because blocking semantics are preserved at the [`Transport`] surface
//! in both states (complete reads/writes or a `TimedOut`/`WouldBlock`
//! after the op timeout, exactly what a kernel timeout yields), everything
//! above — `BufReader`/`BufWriter` framing, the ack parser, the
//! reconnection state machines, and
//! [`FaultyTransport`](crate::transport::FaultyTransport) fault schedules
//! wrapped *underneath* this layer — is the same code whoever waits.
//!
//! ## The lost-wakeup ordering
//!
//! The reactor arms fds `EPOLLONESHOT`. The wait sequence is strictly
//! `park_token` → `arm` → park: arming first could let a worker consume
//! the one-shot event and `unpark_all` a key nobody holds a token for
//! yet, losing the wakeup. With the token taken first, any delivery after
//! that point bumps the key's generation and the park returns
//! immediately. The park's deadline, the op timeout, is armed as a reactor
//! timer ([`Exec::park`](kpn_core::Exec::park)); timers are never
//! cancelled, so a stale timer is just a spurious unpark on a dead
//! generation. The other socket-side waits take no fork of their own: a
//! pending connection is a slot woken through the waiter's executor, a
//! back-off is `kpn_core::exec::sleep`.
//!
//! ## Where a wait meets the deadlock monitor
//!
//! This is also where a process's remote wait is registered with its
//! network's monitor ([`kpn_core::exec::current_monitor`]) as an external
//! block, around the readiness wait on a switched fd, so an operation that
//! does not wait never reaches the monitor. It is the one wait the monitor
//! cannot look into, so it keeps the monitor's clock: a wait on an OS
//! thread ticks it once per period it lasts ([`Ticker`]); a pooled fiber's
//! is ticked by its pool's heartbeat. Threads that are no network's
//! process register nothing and tick nothing. Off Linux x86_64 there is
//! neither: a remote endpoint registers around its whole operation
//! ([`around_operation`]), and local waits tick for it.

use crate::transport::{TcpTransport, Transport};
use kpn_core::exec::reactor::Interest;
use kpn_core::monitor::MONITOR_TICK;
use kpn_core::{BlockGuard, BlockKind, Monitor, Result};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
pub(crate) use imp::{forget, wait_readable};

/// Wrap a socket-backed `t` in a [`ReactorIo`]; transports without an fd
/// (and every transport off Linux x86_64, where no fiber exists to park)
/// are returned unchanged. The wrapper goes *outside* any
/// [`FaultyTransport`](crate::transport::FaultyTransport) so seeded chaos
/// schedules keep stepping on every attempt whoever waits.
pub(crate) fn wrap(t: Box<dyn Transport>) -> Box<dyn Transport> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    {
        imp::wrap(t)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
    {
        t
    }
}

/// A control session's stream, on either end, with waits that follow the
/// caller: a session task of a pooled node parks while its client is quiet,
/// and so does one that calls another node (`Node::redistribute`).
pub(crate) fn control_stream(stream: TcpStream) -> Box<dyn Transport> {
    wrap(Box::new(TcpTransport(stream)))
}

/// Whether this target has fibers and the reactor (Linux x86_64, outside
/// Miri). Where it does not, no task parks and no thread waits on several
/// sockets at once: the accept loop blocks in `accept` and in each
/// preamble read, and [`wait_readable`] is never reached.
pub(crate) const REACTOR: bool = cfg!(all(target_os = "linux", target_arch = "x86_64", not(miri)));

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
pub(crate) fn wait_readable<'a>(
    _listener: &std::net::TcpListener,
    _streams: impl Iterator<Item = &'a TcpStream>,
    _deadline: Option<std::time::Instant>,
) {
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
pub(crate) fn forget<T>(_socket: &T) {}

/// Registers the calling task with its network's monitor, if it is a
/// process of a network, as blocked waiting for `interest`, until the guard
/// drops. The one place a remote wait meets the monitor.
pub(crate) fn waiting(interest: Interest) -> Result<Option<BlockGuard>> {
    let kind = match interest {
        Interest::Read => BlockKind::Read,
        Interest::Write => BlockKind::Write,
    };
    let monitor = kpn_core::exec::current_monitor();
    monitor.map(|m| m.external_block(kind)).transpose()
}

/// The clock of a remote wait a process makes on an OS thread: it ticks
/// the process's monitor ([`Monitor::tick`]) once per [`MONITOR_TICK`] the
/// wait lasts. For anyone else it does nothing: a pooled fiber's wait is
/// ticked by its pool's heartbeat, and a thread that is no network's
/// process has no monitor.
pub(crate) struct Ticker(Option<(Arc<Monitor>, Instant)>);

impl Ticker {
    /// The clock of the calling task's wait; `on_thread` says whether it
    /// waits as an OS thread.
    pub(crate) fn new(on_thread: bool) -> Self {
        let monitor = kpn_core::exec::current_monitor().filter(|_| on_thread);
        Ticker(monitor.map(|m| (m, Instant::now() + MONITOR_TICK)))
    }

    /// When to wake: `deadline`, or the next tick if that is sooner.
    pub(crate) fn until(&self, deadline: Option<Instant>) -> Option<Instant> {
        match &self.0 {
            Some((_, next)) => Some(deadline.map_or(*next, |d| d.min(*next))),
            None => deadline,
        }
    }

    /// Ticks the monitor if a period has passed since the last tick.
    pub(crate) fn tick(&mut self) {
        if let Some((m, next)) = self.0.as_mut().filter(|(_, next)| Instant::now() >= *next) {
            m.tick();
            *next = Instant::now() + MONITOR_TICK;
        }
    }
}

/// The registration around a whole remote operation (a `RemoteSink` write,
/// a `RemoteSource` read), for targets without fibers: with no
/// [`ReactorIo`] and no readiness check there, the operation is taken for
/// a wait. Where `ReactorIo` exists it registers where the wait happens,
/// and this is `None`.
pub(crate) fn around_operation(interest: Interest) -> Result<Option<BlockGuard>> {
    if REACTOR {
        Ok(None)
    } else {
        waiting(interest)
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
mod imp {
    use super::{waiting, Ticker};
    use crate::transport::Transport;
    use kpn_core::exec::current_monitor;
    use kpn_core::exec::reactor::{poll_fds, Interest, Reactor};
    use kpn_core::Exec;
    use parking_lot::Mutex;
    use std::cell::Cell;
    use std::io::{Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// The executor and reactor to park through, when — and only when —
    /// the calling task runs on an executor that owns a reactor (a pooled
    /// fiber). `None` means the caller is an OS thread of its own and
    /// waits by blocking it.
    fn parking_context() -> Option<(Arc<dyn Exec>, Arc<Reactor>)> {
        let exec = kpn_core::exec::current_exec()?;
        let reactor = exec.reactor()?;
        Some((exec, reactor))
    }

    /// Waits until `listener` or one of `streams` is readable, or
    /// `deadline` passes, or spuriously: the accept loop's one wait, on its
    /// listener and every connection whose preamble is incomplete at once.
    /// A pooled fiber arms each socket on its pool's reactor under one key
    /// and parks; an OS thread blocks in one `poll(2)` over them all.
    pub(crate) fn wait_readable<'a>(
        listener: &TcpListener,
        streams: impl Iterator<Item = &'a TcpStream>,
        deadline: Option<Instant>,
    ) {
        let fds = std::iter::once(listener.as_raw_fd()).chain(streams.map(|s| s.as_raw_fd()));
        if let Some((exec, reactor)) = parking_context() {
            let key = std::ptr::from_ref(listener) as usize;
            // Token before arming, as in `ReactorIo::wait_ready`.
            let token = exec.park_token(key);
            fds.for_each(|fd| drop(reactor.arm(fd, key, Interest::Read)));
            let _ = exec.park(key, token, deadline);
        } else {
            let timeout = deadline.map(|dl| dl.saturating_duration_since(Instant::now()));
            let _ = poll_fds(fds, Interest::Read, timeout);
        }
    }

    /// Takes `socket` off the calling fiber's reactor, where
    /// [`wait_readable`] armed it: due before the socket closes or moves on.
    pub(crate) fn forget(socket: &impl AsRawFd) {
        if let Some((_, reactor)) = parking_context() {
            reactor.detach(socket.as_raw_fd());
        }
    }

    /// How long a worker may run socket operations that do not wait, with
    /// no socket wait in between, before the fiber making them lets its
    /// pool's other tasks have the worker.
    const SLICE: Duration = Duration::from_millis(2);

    thread_local! {
        /// When a fiber last came back to this worker from a socket wait
        /// or a yield here. A fiber that waits on a socket now and then
        /// (either end of a relay) keeps it fresh for whatever else runs
        /// on its worker; only one that has streamed for [`SLICE`] with no
        /// such wait on its worker yields.
        static RESUMED: Cell<Instant> = Cell::new(Instant::now());
    }

    pub(super) fn wrap(t: Box<dyn Transport>) -> Box<dyn Transport> {
        let Some(fd) = t.raw_fd() else {
            return t;
        };
        Box::new(ReactorIo {
            inner: t,
            fd,
            key: Box::new(0),
            op_timeout: Mutex::new(None),
            passthrough: AtomicBool::new(false),
            parking: AtomicBool::new(false),
            attached: Mutex::new(None),
        })
    }

    /// A transport whose waits follow the caller (see the module docs).
    /// Callers above see complete operations or a timeout — never a bare
    /// would-block, unless they opted into it via `set_nonblocking(true)`.
    pub(super) struct ReactorIo {
        inner: Box<dyn Transport>,
        fd: i32,
        /// Stable heap address used as this endpoint's park key (the
        /// `ReactorIo` itself moves when the owning endpoint does).
        key: Box<u8>,
        /// Mirror of the endpoint's op timeout: a non-blocking fd never
        /// surfaces kernel timeouts, so once `parking` this layer
        /// synthesizes them.
        op_timeout: Mutex<Option<Duration>>,
        /// `set_nonblocking(true)` from above (ack draining): surface
        /// `WouldBlock` instead of waiting.
        passthrough: AtomicBool,
        /// Set by the first fiber that operates on this transport: the fd
        /// is non-blocking from then on and waits are emulated here.
        /// Until then every operation is the inner transport's.
        parking: AtomicBool,
        /// The reactor this fd last waited on, for moving the registration
        /// after an executor change and detach-before-close on drop.
        attached: Mutex<Option<Arc<Reactor>>>,
    }

    type Parker = (Arc<dyn Exec>, Arc<Reactor>);

    impl ReactorIo {
        fn key(&self) -> usize {
            std::ptr::addr_of!(*self.key) as usize
        }

        /// Arms the fd on `reactor`, first moving its registration over if
        /// it last waited on another pool's.
        fn arm(&self, reactor: &Arc<Reactor>, interest: Interest) -> std::io::Result<()> {
            let mut att = self.attached.lock();
            if !att.as_ref().is_some_and(|r| Arc::ptr_eq(r, reactor)) {
                if let Some(old) = att.replace(reactor.clone()) {
                    old.detach(self.fd);
                }
            }
            reactor.arm(self.fd, self.key(), interest)
        }

        /// Wait until `fd` reports readiness for `interest` (or a timer /
        /// spurious wakeup; the caller's retry loop re-checks). A fiber
        /// parks; an OS thread blocks in `poll(2)`, one period at a time,
        /// ticking its monitor between. Either way the task is registered
        /// as waiting, once for the whole wait.
        fn wait_ready(
            &self,
            parker: &Option<Parker>,
            interest: Interest,
            deadline: Option<Instant>,
        ) -> std::io::Result<()> {
            let _waiting = waiting(interest)?;
            if let Some((exec, reactor)) = parker {
                let key = self.key();
                // Token BEFORE arm: see the module docs on one-shot
                // delivery ordering.
                let token = exec.park_token(key);
                if self.arm(reactor, interest).is_ok() {
                    let _ = exec.park(key, token, deadline);
                    return Ok(());
                }
            }
            let mut ticker = Ticker::new(true);
            loop {
                let until = ticker.until(deadline);
                let timeout = until.map(|t| t.saturating_duration_since(Instant::now()));
                if poll_fds([self.fd], interest, timeout)? || until == deadline {
                    return Ok(());
                }
                ticker.tick();
            }
        }

        /// Drives one *logical* operation to completion. `op` is invoked
        /// with `retry = false` exactly once (the attempt that charges a
        /// fault-injecting transport's schedule) and with `retry = true`
        /// after each readiness wakeup — see [`Transport::retry_read`] for
        /// why the distinction keeps chaos schedules identical whoever
        /// waits.
        fn run<T>(
            &mut self,
            interest: Interest,
            mut op: impl FnMut(&mut Box<dyn Transport>, bool) -> std::io::Result<T>,
        ) -> std::io::Result<T> {
            let parker = parking_context();
            if !self.parking.load(Ordering::Relaxed) {
                // An OS thread on a blocking fd: one plain syscall, unless
                // a process finds its fd not ready (a non-blocking drain
                // cannot wait). That wait must register and tick, which
                // takes the emulated wait a fiber makes.
                let plain = parker.is_none()
                    && (current_monitor().is_none()
                        || self.passthrough.load(Ordering::Relaxed)
                        || poll_fds([self.fd], interest, Some(Duration::ZERO))?);
                if plain {
                    return op(&mut self.inner, false);
                }
                // Non-blocking from here on.
                self.inner.set_nonblocking(true)?;
                self.parking.store(true, Ordering::Relaxed);
            }
            let deadline = self.op_timeout.lock().map(|d| Instant::now() + d);
            let mut retry = false;
            loop {
                match op(&mut self.inner, std::mem::replace(&mut retry, true)) {
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if self.passthrough.load(Ordering::Relaxed) {
                            return Err(e);
                        }
                        // Readiness always outranks the deadline (retry
                        // the op after every wake); only a wake that
                        // still would-block past the deadline times out —
                        // the same precedence a kernel op timeout has.
                        if deadline.is_some_and(|dl| Instant::now() >= dl) {
                            return Err(std::io::Error::from(std::io::ErrorKind::TimedOut));
                        }
                        self.wait_ready(&parker, interest, deadline)?;
                        RESUMED.set(Instant::now());
                    }
                    r => {
                        if let Some((exec, _)) = &parker {
                            self.share_worker(exec);
                        }
                        return r;
                    }
                }
            }
        }

        /// Once its worker has gone [`SLICE`] without a socket wait, parks
        /// the calling fiber until its pool next polls its reactor: one
        /// that streams through a socket that never fills would otherwise
        /// hold its worker for as long as it streams, and with it whatever
        /// else the pool runs — on a node, the accept loop and the control
        /// sessions. A yield, not a wait: nothing registers with a monitor.
        fn share_worker(&self, exec: &Arc<dyn Exec>) {
            if RESUMED.get().elapsed() < SLICE {
                return;
            }
            let key = self.key();
            let token = exec.park_token(key);
            let _ = exec.park(key, token, Some(Instant::now()));
            RESUMED.set(Instant::now());
        }
    }

    impl Read for ReactorIo {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.run(Interest::Read, |t, retry| {
                if retry {
                    t.retry_read(buf)
                } else {
                    t.read(buf)
                }
            })
        }
    }

    impl Write for ReactorIo {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.run(Interest::Write, |t, retry| {
                if retry {
                    t.retry_write(buf)
                } else {
                    t.write(buf)
                }
            })
        }
        fn flush(&mut self) -> std::io::Result<()> {
            // Sockets have no userspace buffer below this layer: flushing
            // never waits (and never advances a fault schedule).
            self.inner.flush()
        }
    }

    impl Transport for ReactorIo {
        fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
            self.inner.shutdown(how)
        }
        fn peer_addr(&self) -> std::io::Result<SocketAddr> {
            self.inner.peer_addr()
        }
        fn shutdown_handle(&self) -> Option<TcpStream> {
            self.inner.shutdown_handle()
        }
        fn set_op_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
            *self.op_timeout.lock() = timeout;
            // Always pushed down as well: the kernel enforces it while the
            // fd still blocks, and FaultyTransport mirrors it for its
            // stall emulation.
            self.inner.set_op_timeout(timeout)
        }
        fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
            self.passthrough.store(nonblocking, Ordering::Relaxed);
            if self.parking.load(Ordering::Relaxed) {
                // The fd never leaves non-blocking mode again; the flag
                // alone decides whether WouldBlock surfaces.
                Ok(())
            } else {
                self.inner.set_nonblocking(nonblocking)
            }
        }
        fn raw_fd(&self) -> Option<i32> {
            Some(self.fd)
        }
    }

    impl Drop for ReactorIo {
        fn drop(&mut self) {
            // Detach before `inner` drops and closes the fd: a closed fd
            // number can be reused by an unrelated socket immediately.
            if let Some(r) = self.attached.lock().take() {
                r.detach(self.fd);
            }
        }
    }
}
