//! Pluggable byte transports under the remote channel endpoints.
//!
//! [`RemoteSink`](crate::RemoteSink) / [`RemoteSource`](crate::RemoteSource)
//! and the [`Acceptor`](crate::Acceptor) no longer talk to a raw
//! `TcpStream`: they talk to a [`Transport`] produced by a
//! [`TransportFactory`]. The default factory yields [`TcpTransport`]
//! (exactly the old behaviour); tests and chaos drills install a
//! [`FaultyFactory`] that wraps every connection in a [`FaultyTransport`]
//! injecting **seeded, deterministic faults** — connection resets,
//! read/write stalls, and connect-time refusals — from a schedule derived
//! with a SplitMix64 generator, so a failure found under seed `s` replays
//! under seed `s`.
//!
//! The module also owns the [`ReconnectPolicy`] that governs how the
//! endpoints react to a transport fault (see `remote.rs` for the
//! sequence-numbered replay protocol), an address-keyed registry of
//! [`NetProfile`]s so chaos can be scoped to the nodes of one test without
//! leaking into the rest of the process, and the global recovery gauges
//! the distributed deadlock probe consults so a *reconnecting* channel is
//! never mistaken for a *blocked* one.

use kpn_core::{Error, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Transport trait + TCP implementation
// ---------------------------------------------------------------------------

/// A bidirectional byte transport under one channel endpoint.
///
/// `Read`/`Write` carry the framed channel traffic; the extra methods are
/// the socket-control surface the endpoints need for interruption
/// (out-of-band shutdown from an abort hook), reconnection handshakes
/// (temporary read timeouts), and opportunistic ack draining (nonblocking
/// reads on the write side).
pub trait Transport: Read + Write + Send {
    /// Shuts down the underlying connection (both directions or one).
    fn shutdown(&self, how: Shutdown) -> std::io::Result<()>;
    /// The remote peer's address.
    fn peer_addr(&self) -> std::io::Result<SocketAddr>;
    /// A second OS handle to the same connection that an *abort hook* can
    /// use to shut it down from another thread, waking any blocked I/O.
    fn shutdown_handle(&self) -> Option<TcpStream>;
    /// Applies a read+write timeout to subsequent blocking operations
    /// (`None` restores fully blocking I/O).
    fn set_op_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
    /// Toggles nonblocking mode (used to drain pending acks without
    /// waiting for more).
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;
    /// The raw OS file descriptor backing this transport, for readiness
    /// registration with a pooled executor's reactor (see `rio`). `None`
    /// when the transport is not socket-backed; it is then used as is and
    /// every wait blocks the calling thread.
    fn raw_fd(&self) -> Option<i32> {
        None
    }
    /// Re-attempts a read the caller has *already* started: identical to
    /// a plain `read`, except fault-injecting transports do not advance
    /// their schedule. The fiber-parking wrapper (`rio`) charges one fault
    /// step on the first attempt of each logical operation and retries
    /// through this after every readiness wakeup — so a blocking read (one
    /// call, one step) and a park-and-retry read (one charged call plus
    /// any number of retries) consume fault schedules at exactly the same
    /// op counts, which the chaos determinacy oracle compares across
    /// executors.
    fn retry_read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.read(buf)
    }
    /// Write-side counterpart of [`Transport::retry_read`].
    fn retry_write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write(buf)
    }
}

/// The production transport: a plain `TcpStream` with `TCP_NODELAY`.
pub struct TcpTransport(pub(crate) TcpStream);

impl Read for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for TcpTransport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl Transport for TcpTransport {
    fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        self.0.shutdown(how)
    }
    fn peer_addr(&self) -> std::io::Result<SocketAddr> {
        self.0.peer_addr()
    }
    fn shutdown_handle(&self) -> Option<TcpStream> {
        self.0.try_clone().ok()
    }
    fn set_op_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.0.set_read_timeout(timeout)?;
        self.0.set_write_timeout(timeout)
    }
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.0.set_nonblocking(nonblocking)
    }
    #[cfg(unix)]
    fn raw_fd(&self) -> Option<i32> {
        use std::os::fd::AsRawFd;
        Some(self.0.as_raw_fd())
    }
}

/// Builds transports: outbound data connections (with the `Hello`
/// preamble already written) and wrappers for connections an acceptor has
/// just received.
pub trait TransportFactory: Send + Sync {
    /// Opens a data connection to `addr` presenting `token`.
    fn connect(&self, addr: &str, token: u64) -> Result<Box<dyn Transport>>;
    /// Wraps a connection accepted for `token`.
    fn wrap_accepted(&self, stream: TcpStream, token: u64) -> Box<dyn Transport>;
}

/// The default factory: plain TCP.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpFactory;

impl TransportFactory for TcpFactory {
    fn connect(&self, addr: &str, token: u64) -> Result<Box<dyn Transport>> {
        let stream = crate::acceptor::connect_data(addr, token)?;
        Ok(Box::new(TcpTransport(stream)))
    }
    fn wrap_accepted(&self, stream: TcpStream, _token: u64) -> Box<dyn Transport> {
        Box::new(TcpTransport(stream))
    }
}

// ---------------------------------------------------------------------------
// Seeded deterministic fault injection
// ---------------------------------------------------------------------------

/// SplitMix64 — tiny, seed-stable generator for fault schedules and
/// backoff jitter. Deliberately *not* `rand`: schedules must be a pure
/// function of the seed, independent of crate versions.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What a scheduled fault does to the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Shut the socket both ways and fail the operation with
    /// `ConnectionReset`.
    Reset,
    /// Delay the operation by the profile's stall duration (turning into a
    /// `TimedOut` error if the endpoint has an op timeout shorter than the
    /// stall).
    Stall,
}

/// Tunable fault schedule, realized deterministically per seed.
#[derive(Debug, Clone)]
pub struct FaultProfile {
    /// Mean number of read/write operations between injected faults on one
    /// connection (0 disables op faults). The actual gap is drawn uniformly
    /// from `[mean/2, 3*mean/2)` per fault, from the seeded generator.
    pub mean_ops_between_faults: u64,
    /// Of the injected op faults, one in `stall_ratio` is a stall, the
    /// rest are resets (0 = resets only).
    pub stall_ratio: u32,
    /// How long a stall holds the operation.
    pub stall: Duration,
    /// Refuse this many connect attempts (per endpoint token) before
    /// letting one through — exercises accept-time refusal + backoff.
    pub refuse_connects: u32,
    /// Hard cap on injected faults across the whole plan; once spent the
    /// schedule goes quiet so runs terminate. (Counts op faults and
    /// refusals.)
    pub max_faults: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            mean_ops_between_faults: 40,
            stall_ratio: 4,
            stall: Duration::from_millis(30),
            refuse_connects: 1,
            max_faults: 24,
        }
    }
}

/// How fault stalls let time pass.
///
/// [`Wall`](ChaosClock::Wall) (the default) sleeps the faulting task for
/// the stall duration on its executor (`kpn_core::exec::sleep`: a pooled
/// fiber parks, its worker runs on) — realistic, but wall-clock-bound.
/// `Virtual` is the **sim-clock mode**: a stall adds its duration (in
/// nanoseconds) to a shared counter and returns immediately. Fault
/// *points* are already a pure function of the seed and per-connection op
/// counts; with a virtual clock the stall *durations* stop depending on
/// real time too, so a fault schedule composes with the deterministic
/// interleaving schedules of `kpn_core::sim` without either waiting on the
/// other.
#[derive(Debug, Clone)]
pub enum ChaosClock {
    /// Stalls sleep the faulting task with `kpn_core::exec::sleep`.
    Wall,
    /// Stalls advance this nanosecond counter instead of sleeping.
    Virtual(Arc<AtomicU64>),
}

impl ChaosClock {
    /// A fresh virtual clock starting at zero.
    pub fn virtual_clock() -> Self {
        ChaosClock::Virtual(Arc::new(AtomicU64::new(0)))
    }

    /// Virtual nanoseconds elapsed; `None` in wall mode.
    pub fn virtual_nanos(&self) -> Option<u64> {
        match self {
            ChaosClock::Wall => None,
            ChaosClock::Virtual(n) => Some(n.load(Ordering::Relaxed)),
        }
    }

    /// Lets `d` pass on this clock: a real sleep in wall mode, a counter
    /// bump in virtual mode.
    fn advance(&self, d: Duration) {
        match self {
            ChaosClock::Wall => kpn_core::exec::sleep(d),
            ChaosClock::Virtual(n) => {
                let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                n.fetch_add(nanos, Ordering::Relaxed);
            }
        }
    }
}

/// Shared state of one seeded fault plan (one per [`FaultyFactory`]).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
    clock: ChaosClock,
    remaining: AtomicU64,
    /// Reconnect attempts seen per endpoint token: keys the per-connection
    /// schedule so it is independent of unrelated connections' timing.
    attempts: Mutex<HashMap<u64, u64>>,
    /// Faults actually injected (observability for tests).
    injected: AtomicU64,
}

impl FaultPlan {
    /// A fresh plan for `seed`, stalling in real time.
    pub fn new(seed: u64, profile: FaultProfile) -> Arc<Self> {
        FaultPlan::with_clock(seed, profile, ChaosClock::Wall)
    }

    /// A fresh plan for `seed` whose stalls pass time on `clock`.
    pub fn with_clock(seed: u64, profile: FaultProfile, clock: ChaosClock) -> Arc<Self> {
        Arc::new(FaultPlan {
            seed,
            remaining: AtomicU64::new(profile.max_faults),
            profile,
            clock,
            attempts: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        })
    }

    /// The clock this plan's stalls run on.
    pub fn clock(&self) -> &ChaosClock {
        &self.clock
    }

    /// Takes one fault from the budget; false once the plan is spent.
    fn take_fault(&self) -> bool {
        let ok = self
            .remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| r.checked_sub(1))
            .is_ok();
        if ok {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn bump_attempt(&self, token: u64) -> u64 {
        let mut map = self.attempts.lock();
        let n = map.entry(token).or_insert(0);
        let now = *n;
        *n += 1;
        now
    }

    fn conn_rng(&self, token: u64, attempt: u64) -> SplitMix64 {
        SplitMix64(
            self.seed
                ^ token.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ attempt.wrapping_mul(0xD134_2543_DE82_EF95),
        )
    }
}

/// A transport that injects faults from its connection's schedule.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    plan: Arc<FaultPlan>,
    rng: SplitMix64,
    ops: u64,
    next_fault: u64,
    /// Mirrors the endpoint's configured op timeout so a stall longer than
    /// it yields the `TimedOut` the endpoint would see from the kernel.
    op_timeout: Mutex<Option<Duration>>,
    dead: bool,
}

impl FaultyTransport {
    /// Wraps `inner` with the schedule for (`token`, `attempt`).
    pub fn new(inner: Box<dyn Transport>, plan: Arc<FaultPlan>, token: u64, attempt: u64) -> Self {
        let mut rng = plan.conn_rng(token, attempt);
        let next_fault = draw_gap(&mut rng, plan.profile.mean_ops_between_faults);
        FaultyTransport {
            inner,
            plan,
            rng,
            ops: 0,
            next_fault,
            op_timeout: Mutex::new(None),
            dead: false,
        }
    }

    /// Returns an error if a fault fires on this operation.
    fn step(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Err(std::io::Error::from(std::io::ErrorKind::ConnectionReset));
        }
        if self.next_fault == 0 {
            return Ok(()); // op faults disabled
        }
        self.ops += 1;
        if self.ops < self.next_fault || !self.plan.take_fault() {
            return Ok(());
        }
        let profile = &self.plan.profile;
        self.next_fault = self.ops + draw_gap(&mut self.rng, profile.mean_ops_between_faults);
        let stall = profile.stall_ratio > 0 && self.rng.below(profile.stall_ratio as u64) == 0;
        if stall {
            let limit = *self.op_timeout.lock();
            match limit {
                Some(t) if t < profile.stall => {
                    // The endpoint's op timeout expires mid-stall: emulate
                    // the kernel surfacing a timeout.
                    self.plan.clock.advance(t);
                    return Err(std::io::Error::from(std::io::ErrorKind::TimedOut));
                }
                _ => {
                    self.plan.clock.advance(profile.stall);
                    return Ok(());
                }
            }
        }
        self.dead = true;
        let _ = self.inner.shutdown(Shutdown::Both);
        Err(std::io::Error::from(std::io::ErrorKind::ConnectionReset))
    }
}

fn draw_gap(rng: &mut SplitMix64, mean: u64) -> u64 {
    if mean == 0 {
        return 0;
    }
    let lo = (mean / 2).max(1);
    lo + rng.below(mean.max(1))
}

impl Read for FaultyTransport {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.step()?;
        self.inner.read(buf)
    }
}

impl Write for FaultyTransport {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.step()?;
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Err(std::io::Error::from(std::io::ErrorKind::ConnectionReset));
        }
        self.inner.flush()
    }
}

impl Transport for FaultyTransport {
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
        self.inner.set_op_timeout(timeout)
    }
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }
    fn raw_fd(&self) -> Option<i32> {
        self.inner.raw_fd()
    }
    fn retry_read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // A retry of a logical op that was charged on its first attempt:
        // keep the dead-connection semantics but leave the fault schedule
        // alone, so plans fire at the same op counts as blocking reads.
        if self.dead {
            return Err(std::io::Error::from(std::io::ErrorKind::ConnectionReset));
        }
        self.inner.retry_read(buf)
    }
    fn retry_write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(std::io::Error::from(std::io::ErrorKind::ConnectionReset));
        }
        self.inner.retry_write(buf)
    }
}

/// Factory wrapping every connection in a [`FaultyTransport`] driven by
/// one shared [`FaultPlan`].
pub struct FaultyFactory {
    inner: Arc<dyn TransportFactory>,
    plan: Arc<FaultPlan>,
}

impl FaultyFactory {
    /// Faulty TCP with the given plan.
    pub fn new(plan: Arc<FaultPlan>) -> Self {
        FaultyFactory {
            inner: Arc::new(TcpFactory),
            plan,
        }
    }

    /// The shared plan (for observing `injected()` in tests).
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl TransportFactory for FaultyFactory {
    fn connect(&self, addr: &str, token: u64) -> Result<Box<dyn Transport>> {
        let attempt = self.plan.bump_attempt(token);
        if attempt < self.plan.profile.refuse_connects as u64 && self.plan.take_fault() {
            return Err(Error::Io(std::io::Error::from(
                std::io::ErrorKind::ConnectionRefused,
            )));
        }
        let inner = self.inner.connect(addr, token)?;
        Ok(Box::new(FaultyTransport::new(
            inner,
            self.plan.clone(),
            token,
            attempt,
        )))
    }

    fn wrap_accepted(&self, stream: TcpStream, token: u64) -> Box<dyn Transport> {
        let attempt = self.plan.bump_attempt(token.wrapping_add(1)); // accept side keys off its own counter
        let inner = self.inner.wrap_accepted(stream, token);
        Box::new(FaultyTransport::new(
            inner,
            self.plan.clone(),
            token,
            attempt,
        ))
    }
}

// ---------------------------------------------------------------------------
// Reconnect policy
// ---------------------------------------------------------------------------

/// How a remote endpoint reacts when its transport fails.
///
/// Disabled (the default), any socket error is final — exactly the
/// pre-fault-tolerance behaviour: the error joins the §3.4 termination
/// cascade. Enabled, the endpoint distinguishes *transient* transport
/// faults (reset, timeout, refused connect) from *deliberate* stream
/// events (`Close` frames, `Stop` notices) and reconnects with
/// exponential backoff + jitter under an overall budget, replaying the
/// sequence-numbered stream exactly once (see `remote.rs`).
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Master switch; `false` reproduces fail-fast semantics.
    pub enabled: bool,
    /// First backoff delay after a failed reconnect attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Backoff growth factor per failed attempt.
    pub multiplier: f64,
    /// Random extra fraction of each backoff (`0.2` = up to +20%),
    /// decorrelating reconnect storms.
    pub jitter: f64,
    /// Total time one recovery episode may spend before the endpoint
    /// gives up and lets the failure cascade (§3.4). Charged in *nominal*
    /// wait time — the backoff and poll durations the episode asks for,
    /// not the wall-clock time they take — so how many attempts fit in a
    /// budget does not depend on machine load.
    pub budget: Duration,
    /// Optional read/write timeout on transport operations. Required for
    /// stall detection: a stall longer than this surfaces as `TimedOut`
    /// and triggers recovery. `None` keeps pure blocking semantics.
    pub op_timeout: Option<Duration>,
    /// Bound on unacknowledged bytes retained for replay; when full, the
    /// writer blocks until the reader acknowledges (equivalent to a
    /// smaller bounded channel — Kahn-safe).
    pub replay_capacity: usize,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            enabled: false,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            multiplier: 2.0,
            jitter: 0.2,
            budget: Duration::from_secs(10),
            op_timeout: None,
            replay_capacity: 256 * 1024,
        }
    }
}

impl ReconnectPolicy {
    /// Fault-tolerant defaults: reconnect for up to 10 s per episode.
    pub fn resilient() -> Self {
        ReconnectPolicy {
            enabled: true,
            ..Default::default()
        }
    }

    /// The backoff before attempt `n` (0-based), with deterministic jitter
    /// from `rng`.
    pub(crate) fn backoff(&self, n: u32, rng: &mut SplitMix64) -> Duration {
        let base = self.initial_backoff.as_secs_f64() * self.multiplier.powi(n as i32);
        let capped = base.min(self.max_backoff.as_secs_f64());
        let jitter = if self.jitter > 0.0 {
            capped * self.jitter * (rng.below(1000) as f64 / 1000.0)
        } else {
            0.0
        };
        Duration::from_secs_f64(capped + jitter)
    }
}

// ---------------------------------------------------------------------------
// Address-keyed profile registry
// ---------------------------------------------------------------------------

/// Transport factory + reconnect policy for one node address.
#[derive(Clone)]
pub struct NetProfile {
    /// Builds the transports.
    pub factory: Arc<dyn TransportFactory>,
    /// Governs endpoint recovery.
    pub policy: ReconnectPolicy,
}

impl Default for NetProfile {
    fn default() -> Self {
        NetProfile {
            factory: Arc::new(TcpFactory),
            policy: ReconnectPolicy::default(),
        }
    }
}

impl std::fmt::Debug for NetProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetProfile")
            .field("policy", &self.policy)
            .finish()
    }
}

fn profiles() -> &'static Mutex<HashMap<String, NetProfile>> {
    static PROFILES: OnceLock<Mutex<HashMap<String, NetProfile>>> = OnceLock::new();
    PROFILES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Installs `profile` for outbound connections to `addr` (exact-match
/// key). Endpoints resolving `addr` from now on use the profile's factory
/// and policy. Scoped chaos: each test registers only its own nodes'
/// ephemeral addresses and removes them afterwards
/// ([`crate::chaos::ChaosGuard`] automates this).
pub fn install_profile(addr: impl Into<String>, profile: NetProfile) {
    profiles().lock().insert(addr.into(), profile);
}

/// Removes a previously installed profile.
pub fn remove_profile(addr: &str) {
    profiles().lock().remove(addr);
}

/// The profile for outbound connections to `addr` (default TCP,
/// fail-fast, when none installed).
pub fn profile_for(addr: &str) -> NetProfile {
    profiles().lock().get(addr).cloned().unwrap_or_default()
}

// ---------------------------------------------------------------------------
// Recovery gauges + probe wake-up
// ---------------------------------------------------------------------------

static RECOVERING: AtomicUsize = AtomicUsize::new(0);
static RECOVERY_ATTEMPTS: AtomicU64 = AtomicU64::new(0);

/// Endpoints currently inside a recovery episode, and total reconnect
/// attempts ever made, process-wide. The deadlock probe treats a node
/// with `recovering > 0` as *not* quiescent: a reconnecting channel may
/// deliver data the moment the link heals, so it must never count toward
/// a deadlock verdict (it is neither provably blocked nor provably dead).
pub fn recovery_stats() -> (usize, u64) {
    (
        RECOVERING.load(Ordering::SeqCst),
        RECOVERY_ATTEMPTS.load(Ordering::SeqCst),
    )
}

/// RAII marker for one recovery episode; notifies the probe condvar on
/// entry and exit so waiting probes re-poll promptly instead of sleeping
/// through state changes.
pub(crate) struct RecoveryGuard;

impl RecoveryGuard {
    pub(crate) fn enter() -> Self {
        RECOVERING.fetch_add(1, Ordering::SeqCst);
        notify_probe();
        RecoveryGuard
    }

    /// Records one reconnect attempt.
    pub(crate) fn attempt(&self) {
        RECOVERY_ATTEMPTS.fetch_add(1, Ordering::SeqCst);
        notify_probe();
    }
}

impl Drop for RecoveryGuard {
    fn drop(&mut self) {
        RECOVERING.fetch_sub(1, Ordering::SeqCst);
        notify_probe();
    }
}

/// An event counter probes sleep on: [`ProbeWaker::wait`] returns early when
/// [`ProbeWaker::notify`] is called during it.
struct ProbeWaker {
    events: Mutex<u64>,
    cond: Condvar,
}

impl ProbeWaker {
    const fn new() -> Self {
        ProbeWaker {
            events: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    fn notify(&self) {
        *self.events.lock() += 1;
        self.cond.notify_all();
    }

    /// Returns `true` if woken by an event, `false` once `timeout` elapsed.
    fn wait(&self, timeout: Duration) -> bool {
        let mut events = self.events.lock();
        let before = *events;
        let deadline = Instant::now() + timeout;
        while *events == before {
            if self.cond.wait_until(&mut events, deadline).timed_out() {
                return *events != before;
            }
        }
        true
    }
}

/// The process-wide waker every transport recovery transition notifies.
static PROBE_WAKER: ProbeWaker = ProbeWaker::new();

/// Wakes any probe blocked in [`probe_wait`]; called on every transport
/// recovery transition (and usable by tests to force an immediate
/// re-poll).
pub fn notify_probe() {
    PROBE_WAKER.notify();
}

/// Blocks until a transport event fires or `timeout` elapses — the
/// condvar-based replacement for the probe's former fixed-interval sleep.
/// Returns `true` if woken by an event.
pub fn probe_wait(timeout: Duration) -> bool {
    PROBE_WAKER.wait(timeout)
}

/// Classification of an I/O error for the recovery logic: `true` means
/// the link may heal (reset, abort, timeout, refusal, EOF mid-stream);
/// `false` means a local/logic error that must not be retried.
pub(crate) fn is_transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        ConnectionReset
            | ConnectionAborted
            | ConnectionRefused
            | BrokenPipe
            | NotConnected
            | UnexpectedEof
            | TimedOut
            | WouldBlock
            | Interrupted
    )
}

/// [`is_transient`] lifted to `kpn_core::Error` (transport errors arrive
/// wrapped as `Io` or `Disconnected`).
pub(crate) fn error_is_transient(e: &Error) -> bool {
    match e {
        Error::Io(io) => is_transient(io),
        Error::Disconnected(_) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn fault_budget_is_finite() {
        let plan = FaultPlan::new(
            7,
            FaultProfile {
                max_faults: 3,
                ..Default::default()
            },
        );
        let mut taken = 0;
        for _ in 0..10 {
            if plan.take_fault() {
                taken += 1;
            }
        }
        assert_eq!(taken, 3);
        assert_eq!(plan.injected(), 3);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = ReconnectPolicy {
            jitter: 0.0,
            ..ReconnectPolicy::resilient()
        };
        let mut rng = SplitMix64(1);
        let b0 = policy.backoff(0, &mut rng);
        let b3 = policy.backoff(3, &mut rng);
        let b20 = policy.backoff(20, &mut rng);
        assert!(b0 < b3);
        assert!(b3 <= b20);
        assert!(b20 <= policy.max_backoff);
    }

    #[test]
    fn profile_registry_is_scoped() {
        let addr = "198.51.100.7:1234"; // TEST-NET-2, never dialed
        assert!(!profile_for(addr).policy.enabled);
        install_profile(
            addr,
            NetProfile {
                factory: Arc::new(TcpFactory),
                policy: ReconnectPolicy::resilient(),
            },
        );
        assert!(profile_for(addr).policy.enabled);
        remove_profile(addr);
        assert!(!profile_for(addr).policy.enabled);
    }

    #[test]
    fn probe_wait_times_out_and_wakes() {
        // A waker of its own: the process-wide one is notified by every
        // recovery test running beside this one.
        let waker = ProbeWaker::new();
        assert!(!waker.wait(Duration::from_millis(10)));
        let woken = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Until the wait has returned, so one of these lands in it.
                while !woken.load(Ordering::SeqCst) {
                    waker.notify();
                    std::thread::yield_now();
                }
            });
            assert!(waker.wait(Duration::from_secs(5)));
            woken.store(true, Ordering::SeqCst);
        });
    }
}
