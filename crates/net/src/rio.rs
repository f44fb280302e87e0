//! Socket waits that follow the caller.
//!
//! The rule, evaluated per wait from the calling context and from nothing
//! else: **a remote wait made from a pooled fiber parks that fiber on its
//! pool's reactor; a wait made from an OS thread (thread executor, sim,
//! foreign / client / linger threads) blocks that thread in one plain
//! blocking syscall.** A blocked remote channel therefore costs a parked
//! fiber on the pooled executor and — exactly as in the paper (§4) — a
//! blocked thread on the thread executor, and no option, environment
//! variable or config field takes part in the choice.
//!
//! [`ReactorIo`] is the transport wrapper that implements it. Every
//! fd-backed transport is wrapped (on Linux x86_64, the one target with
//! fibers). The wrapper starts out transparent: the fd stays in blocking
//! mode and every operation is the inner transport's single syscall. The
//! first time a *fiber* operates on it — even if the endpoint was
//! connected on a control thread and moved into a process later — the fd
//! is switched to non-blocking for good and blocking semantics are
//! emulated here instead: an operation that would block parks the fiber
//! through the ordinary `Exec::park_token`/`park` protocol with interest
//! registered on the pool's
//! [`Reactor`](kpn_core::exec::reactor::Reactor), and retries when a
//! worker drains the readiness queue and unparks it. An OS thread that
//! later touches a switched fd (the sink watchdog, a linger thread) waits
//! in `poll(2)` instead of parking.
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
//! immediately. The park is the timed park,
//! [`Exec::park_until`](kpn_core::Exec::park_until), which arms the op
//! timeout as a reactor timer (a pooled fiber ignores park timeouts by
//! design); timers are never cancelled, so a stale timer is just a
//! spurious unpark on a dead generation. The other socket-side waits take
//! no fork of their own: a pending connection is a slot woken through the
//! waiter's executor, a back-off is `kpn_core::exec::sleep`.

use crate::transport::Transport;

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

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
mod imp {
    use crate::transport::Transport;
    use kpn_core::exec::reactor::{poll_fd, Interest, Reactor};
    use kpn_core::Exec;
    use parking_lot::Mutex;
    use std::io::{Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpStream};
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
        /// parks; an OS thread on an fd some fiber already switched blocks
        /// in `poll(2)`.
        fn wait_ready(
            &self,
            parker: &Option<Parker>,
            interest: Interest,
            deadline: Option<Instant>,
        ) -> std::io::Result<()> {
            if let Some((exec, reactor)) = parker {
                let key = self.key();
                // Token BEFORE arm: see the module docs on one-shot
                // delivery ordering.
                let token = exec.park_token(key);
                if self.arm(reactor, interest).is_ok() {
                    let _ = exec.park_until(key, token, deadline);
                    return Ok(());
                }
            }
            let timeout = deadline.map(|dl| dl.saturating_duration_since(Instant::now()));
            poll_fd(self.fd, interest, timeout).map(|_| ())
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
                if parker.is_none() {
                    // An OS thread on a blocking fd: one plain syscall.
                    return op(&mut self.inner, false);
                }
                // First fiber on this fd: non-blocking from here on.
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
                    }
                    r => return r,
                }
            }
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
