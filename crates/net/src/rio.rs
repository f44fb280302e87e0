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
//! wrapped like a data connection's ([`wrap`]), and the accept loop waits
//! on its listener and its unfinished preambles at once
//! ([`wait_readable`]).
//!
//! [`ReactorIo`] is the transport that implements it: every socket a
//! factory hands out ([`TcpFactory`](crate::TcpFactory)), and every control
//! session's, is one (on Linux x86_64, the one target with fibers). It owns
//! its `TcpStream` and starts out transparent: the fd stays in blocking
//! mode and every operation is the socket's single syscall. The first time
//! a *fiber* operates on it — even if the endpoint was connected on
//! another thread and moved into a process later — or a process on an OS
//! thread finds it not ready, the fd is switched to non-blocking for good
//! and blocking semantics are emulated here instead: an operation that
//! would block parks the fiber through the ordinary
//! `Exec::park_token`/`park` protocol with interest registered on the
//! pool's [`Reactor`](kpn_core::exec::reactor::Reactor), and retries when a
//! worker drains the readiness queue and unparks it. An OS thread on a
//! switched fd (a process of the thread executor, a sink watchdog pumping
//! an idle sink or finishing a closed one) waits in `poll(2)` instead of
//! parking.
//!
//! Because blocking semantics are preserved at the [`Transport`] surface
//! in both states (complete reads/writes or a `TimedOut`/`WouldBlock`
//! after the op timeout, exactly what a kernel timeout yields), everything
//! above — `BufReader`/`BufWriter` framing, the ack parser, the
//! reconnection state machines, and a
//! [`FaultyTransport`](crate::transport::FaultyTransport) wrapped around
//! this layer, one fault step per operation asked of it — is the same code
//! whoever waits. One endpoint owns the transport, so its state is plain
//! fields and an operation takes no lock.
//!
//! ## The lost-wakeup ordering
//!
//! The reactor arms fds `EPOLLONESHOT`. The wait sequence is strictly
//! `park_token` → `arm` → park: arming first could let a worker consume
//! the one-shot event and `unpark_all` a key nobody holds a token for
//! yet, losing the wakeup. With the token taken first, any delivery after
//! that point bumps the key's generation and the park returns
//! immediately. The park's deadline, the op timeout or the monitor's next
//! tick, is armed as a reactor timer ([`Exec::park`](kpn_core::Exec::park));
//! timers are never cancelled, so a stale timer is just a spurious unpark
//! on a dead generation. The other socket-side waits take no fork of their
//! own: a pending connection is a slot woken through the waiter's
//! executor, a back-off is `kpn_core::exec::sleep`.
//!
//! ## Where an operation meets the scheduler
//!
//! A pool cannot preempt a fiber that streams through a socket that never
//! fills. So a fiber's socket operation that did not wait passes its
//! executor's [`Exec::yield_point`](kpn_core::Exec::yield_point), as a
//! channel operation does. Whether the fiber yields there is the pool's
//! decision: it yields only when work waits for its worker. This module
//! keeps no scheduling state.
//!
//! ## Where a wait meets the deadlock monitor
//!
//! This is also where a process's remote wait is registered with its
//! network's monitor ([`kpn_core::exec::current_monitor`]) as an external
//! block, around the readiness wait on a switched fd, so an operation that
//! does not wait never reaches the monitor. It is the one wait the monitor
//! cannot look into, so it keeps the monitor's clock: it ticks it once per
//! period it lasts ([`Ticker`]), whether it parks a pooled fiber (a reactor
//! timer ends each park) or blocks an OS thread (a `poll` timeout does).
//! No executor keeps a clock for it. Tasks that are no network's process
//! register nothing and tick nothing. Off Linux x86_64 there is neither: a
//! remote endpoint registers around its whole operation
//! ([`around_operation`]), and local waits tick for it.

use crate::transport::Transport;
use kpn_core::exec::reactor::Interest;
use kpn_core::monitor::MONITOR_TICK;
use kpn_core::{BlockGuard, BlockKind, Monitor, Result};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
pub(crate) use imp::{forget, wait_readable};

/// `stream` as the transport of a data connection or a control session,
/// on either end: a [`ReactorIo`], whose waits follow the caller — a
/// session task of a pooled node parks while its client is quiet, and so
/// does one that calls another node (`Node::redistribute`). Off Linux
/// x86_64, where no fiber exists to park, the bare socket.
pub(crate) fn wrap(stream: TcpStream) -> Box<dyn Transport> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    {
        Box::new(imp::ReactorIo::new(stream))
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
    {
        Box::new(stream)
    }
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

/// The clock of a remote wait a process makes: it ticks the process's
/// monitor ([`Monitor::tick`]) once per [`MONITOR_TICK`] the wait lasts,
/// on a pooled fiber and on an OS thread alike. For a task that is no
/// network's process it does nothing: there is no monitor to tick.
pub(crate) struct Ticker(Option<(Arc<Monitor>, Instant)>);

impl Ticker {
    /// The clock of the calling task's wait.
    pub(crate) fn new() -> Self {
        let monitor = kpn_core::exec::current_monitor();
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
    use std::io::{ErrorKind, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
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

    /// A socket whose waits follow the caller (see the module docs).
    /// Callers above see complete operations or a timeout — never a bare
    /// would-block, unless they opted into it via `set_nonblocking(true)`.
    pub(super) struct ReactorIo {
        stream: TcpStream,
        /// Mirror of the endpoint's op timeout: a non-blocking fd never
        /// surfaces kernel timeouts, so once `parking` this layer
        /// synthesizes them.
        op_timeout: Option<Duration>,
        /// `set_nonblocking(true)` from above (ack draining): surface
        /// `WouldBlock` instead of waiting.
        passthrough: bool,
        /// Set by the first fiber that operates on this transport: the fd
        /// is non-blocking from then on and waits are emulated here.
        /// Until then every operation is the socket's.
        parking: bool,
        /// The reactor this fd last waited on, for moving the registration
        /// after an executor change and detach-before-close on drop.
        attached: Option<Arc<Reactor>>,
        /// When the monitor tick timer this endpoint's key last armed
        /// fires: one is pending at a time ([`ReactorIo::park`]).
        tick_timer: Option<Instant>,
    }

    type Parker = (Arc<dyn Exec>, Arc<Reactor>);

    impl ReactorIo {
        pub(super) fn new(stream: TcpStream) -> Self {
            ReactorIo {
                stream,
                op_timeout: None,
                passthrough: false,
                parking: false,
                attached: None,
                tick_timer: None,
            }
        }

        /// This endpoint's park key: its own address, which is stable
        /// while an operation borrows it, and `wrap` boxes it for good.
        fn key(&self) -> usize {
            std::ptr::from_ref(self) as usize
        }

        fn fd(&self) -> i32 {
            self.stream.as_raw_fd()
        }

        /// Arms the fd on `reactor`, first moving its registration over if
        /// it last waited on another pool's.
        fn arm(&mut self, reactor: &Arc<Reactor>, interest: Interest) -> std::io::Result<()> {
            if !matches!(&self.attached, Some(r) if Arc::ptr_eq(r, reactor)) {
                if let Some(old) = self.attached.replace(reactor.clone()) {
                    old.detach(self.fd());
                }
            }
            reactor.arm(self.fd(), self.key(), interest)
        }

        /// Wait until `fd` reports readiness for `interest`, `deadline`
        /// passes, or spuriously (the caller's retry loop re-checks). A
        /// fiber parks; an OS thread blocks in `poll(2)`. Either way one
        /// period at a time, ticking its monitor between, and registered as
        /// waiting once for the whole wait.
        fn wait_ready(
            &mut self,
            parker: &Option<Parker>,
            interest: Interest,
            deadline: Option<Instant>,
        ) -> std::io::Result<()> {
            let _waiting = waiting(interest)?;
            let mut ticker = Ticker::new();
            loop {
                let until = ticker.until(deadline);
                let parked = parker
                    .as_ref()
                    .and_then(|p| self.park(p, interest, until, deadline));
                let ready = match parked {
                    Some(woke_early) => woke_early,
                    None => {
                        let timeout = until.map(|t| t.saturating_duration_since(Instant::now()));
                        poll_fds([self.fd()], interest, timeout)?
                    }
                };
                if ready || until == deadline {
                    return Ok(());
                }
                ticker.tick();
            }
        }

        /// Parks the calling fiber with the fd armed for `interest` until
        /// it is woken or `until` passes, and answers whether it woke
        /// before `until`; `None` if the fd cannot be armed. Reactor timers
        /// are never cancelled, so a tick timer armed at every park would
        /// fire once for each wait long over: at most one is pending per
        /// endpoint, and a park that finds one arms only its `deadline`.
        /// The pending timer still wakes it, early.
        fn park(
            &mut self,
            (exec, reactor): &Parker,
            interest: Interest,
            until: Option<Instant>,
            deadline: Option<Instant>,
        ) -> Option<bool> {
            let key = self.key();
            // Token BEFORE arm: see the module docs on one-shot delivery
            // ordering.
            let token = exec.park_token(key);
            self.arm(reactor, interest).ok()?;
            let pending = self.tick_timer.is_some_and(|t| t > Instant::now());
            let timer = if until == deadline || pending {
                deadline
            } else {
                self.tick_timer = until;
                until
            };
            let _ = exec.park(key, token, timer);
            Some(until.is_none_or(|t| Instant::now() < t))
        }

        /// Drives one operation to completion: `op` on the socket, again
        /// after each readiness wakeup.
        fn run<T>(
            &mut self,
            interest: Interest,
            mut op: impl FnMut(&mut TcpStream) -> std::io::Result<T>,
        ) -> std::io::Result<T> {
            let parker = parking_context();
            if !self.parking {
                // An OS thread on a blocking fd: one plain syscall, unless
                // a process finds its fd not ready (a non-blocking drain
                // cannot wait). That wait must register and tick, which
                // takes the emulated wait a fiber makes.
                let plain = parker.is_none()
                    && (current_monitor().is_none()
                        || self.passthrough
                        || poll_fds([self.fd()], interest, Some(Duration::ZERO))?);
                if plain {
                    return op(&mut self.stream);
                }
                // Non-blocking from here on.
                self.stream.set_nonblocking(true)?;
                self.parking = true;
            }
            let deadline = self.op_timeout.map(|d| Instant::now() + d);
            let mut waited = false;
            loop {
                match op(&mut self.stream) {
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if self.passthrough {
                            return Err(e);
                        }
                        // Readiness always outranks the deadline (retry
                        // the op after every wake); only a wake that
                        // still would-block past the deadline times out —
                        // the same precedence a kernel op timeout has.
                        if deadline.is_some_and(|dl| Instant::now() >= dl) {
                            return Err(ErrorKind::TimedOut.into());
                        }
                        self.wait_ready(&parker, interest, deadline)?;
                        waited = true;
                    }
                    r => {
                        // An operation that did not wait is a yield point
                        // of the fiber's pool, which may want the worker:
                        // one streaming through a socket that never fills
                        // would otherwise hold it for as long as it
                        // streams, and with it, on a node, the accept loop
                        // and the control sessions.
                        if let (false, Some((exec, _))) = (waited, &parker) {
                            exec.yield_point();
                        }
                        return r;
                    }
                }
            }
        }
    }

    impl Read for ReactorIo {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.run(Interest::Read, |s| s.read(buf))
        }
    }

    impl Write for ReactorIo {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.run(Interest::Write, |s| s.write(buf))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            // A socket has no userspace buffer: flushing never waits.
            Ok(())
        }
    }

    impl Transport for ReactorIo {
        fn set_op_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
            self.op_timeout = timeout;
            // Pushed down to the kernel as well, which enforces it while
            // the fd still blocks.
            self.stream.set_read_timeout(timeout)?;
            self.stream.set_write_timeout(timeout)
        }
        fn set_nonblocking(&mut self, nonblocking: bool) -> std::io::Result<()> {
            self.passthrough = nonblocking;
            if self.parking {
                // The fd never leaves non-blocking mode again; the flag
                // alone decides whether WouldBlock surfaces.
                Ok(())
            } else {
                self.stream.set_nonblocking(nonblocking)
            }
        }
        fn socket(&self) -> Option<&TcpStream> {
            Some(&self.stream)
        }
    }

    impl Drop for ReactorIo {
        fn drop(&mut self) {
            // Detach before `stream` drops and closes the fd: a closed fd
            // number can be reused by an unrelated socket immediately.
            if let Some(r) = self.attached.take() {
                r.detach(self.fd());
            }
        }
    }
}
