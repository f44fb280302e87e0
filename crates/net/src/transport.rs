//! Pluggable byte transports under the remote channel endpoints.
//!
//! [`RemoteSink`](crate::RemoteSink) / [`RemoteSource`](crate::RemoteSource)
//! and the [`Acceptor`](crate::Acceptor) no longer talk to a raw
//! `TcpStream`: they talk to a [`Transport`] produced by a
//! [`TransportFactory`]. The default factory, [`TcpFactory`], yields the
//! socket with `rio`'s waits around it (waits that follow the caller); a
//! [`FaultyFactory`] wraps that in a [`FaultyTransport`] injecting
//! **seeded, deterministic faults** — connection resets, read/write
//! stalls, and connect-time refusals — from a schedule derived with a
//! SplitMix64 generator, so a failure found under seed `s` replays under
//! seed `s`.
//!
//! A faulty connection is thus three layers, each built once by its
//! factory: the endpoint's driver → [`FaultyTransport`] → `rio` → the
//! socket. The fault layer sits above every wait, so one logical read or
//! write is one step of its schedule, however many times `rio` parks and
//! retries it underneath.
//!
//! The module also owns the [`ReconnectPolicy`] that governs how the
//! endpoints react to a transport fault (see `remote.rs` for the
//! sequence-numbered replay protocol), the [`NetProfile`] that pairs a
//! factory with a policy — a node's profile governs every data connection
//! it accepts or opens, and a connection made without a node is plain
//! unless its caller passes one — and the process-wide recovery counters
//! ([`recovery_stats`]), a report of how often links healed, which no
//! deadlock verdict reads.

use crate::remote::Watchdog;
use kpn_core::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use kpn_core::sim::SplitMix64;

// ---------------------------------------------------------------------------
// Transport trait
// ---------------------------------------------------------------------------

/// A bidirectional byte transport under one channel endpoint, which owns
/// it alone.
///
/// `Read`/`Write` carry the framed channel traffic. Beyond them an endpoint
/// sets temporary read timeouts (reconnection handshakes) and nonblocking
/// reads (draining acks without waiting for more), and reaches the socket
/// underneath: to shut it, to read its peer's address, and to hand an
/// *abort hook* a second handle that wakes blocked I/O from another thread.
pub trait Transport: Read + Write + Send {
    /// Applies a read+write timeout to subsequent blocking operations
    /// (`None` restores fully blocking I/O).
    fn set_op_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;
    /// Toggles nonblocking mode.
    fn set_nonblocking(&mut self, nonblocking: bool) -> std::io::Result<()>;
    /// The socket underneath, if the transport has one.
    fn socket(&self) -> Option<&TcpStream>;
}

/// A bare socket: what [`TcpFactory`] yields off Linux x86_64, where no
/// fiber parks and `rio` has nothing to add.
impl Transport for TcpStream {
    fn set_op_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)?;
        self.set_write_timeout(timeout)
    }
    fn set_nonblocking(&mut self, nonblocking: bool) -> std::io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
    fn socket(&self) -> Option<&TcpStream> {
        Some(self)
    }
}

/// Shuts the socket under `t`, if it has one, the `how` way.
pub(crate) fn shutdown(t: &dyn Transport, how: Shutdown) {
    if let Some(socket) = t.socket() {
        let _ = socket.shutdown(how);
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

/// The default factory: plain TCP, `TCP_NODELAY`, with waits that follow
/// the caller (`rio`).
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpFactory;

impl TransportFactory for TcpFactory {
    fn connect(&self, addr: &str, token: u64) -> Result<Box<dyn Transport>> {
        let stream = crate::acceptor::connect_data(addr, token)?;
        Ok(crate::rio::wrap(stream))
    }
    fn wrap_accepted(&self, stream: TcpStream, _token: u64) -> Box<dyn Transport> {
        crate::rio::wrap(stream)
    }
}

// ---------------------------------------------------------------------------
// Seeded deterministic fault injection
// ---------------------------------------------------------------------------

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

/// Shared state of one seeded fault plan (one per [`FaultyFactory`]).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    profile: FaultProfile,
    remaining: AtomicU64,
    /// Reconnect attempts seen per endpoint token: keys the per-connection
    /// schedule so it is independent of unrelated connections' timing.
    attempts: Mutex<HashMap<u64, u64>>,
    /// Faults actually injected (observability for tests).
    injected: AtomicU64,
}

impl FaultPlan {
    /// A fresh plan for `seed`. Its stalls sleep the faulting task through
    /// `kpn_core::exec::sleep`, which takes no time under the simulator.
    pub fn new(seed: u64, profile: FaultProfile) -> Arc<Self> {
        Arc::new(FaultPlan {
            seed,
            remaining: AtomicU64::new(profile.max_faults),
            profile,
            attempts: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        })
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
        *n += 1;
        *n - 1
    }

    fn conn_rng(&self, token: u64, attempt: u64) -> SplitMix64 {
        SplitMix64(
            self.seed
                ^ token.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ attempt.wrapping_mul(0xD134_2543_DE82_EF95),
        )
    }
}

/// A transport that injects faults from its connection's schedule: one
/// step per read or write it is asked for, above the waits of the
/// transport it wraps.
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    plan: Arc<FaultPlan>,
    rng: SplitMix64,
    ops: u64,
    next_fault: u64,
    /// Mirrors the endpoint's configured op timeout so a stall longer than
    /// it yields the `TimedOut` the endpoint would see from the kernel.
    op_timeout: Option<Duration>,
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
            op_timeout: None,
            dead: false,
        }
    }

    /// A reset once a fault has killed the connection.
    fn alive(&self) -> std::io::Result<()> {
        match self.dead {
            true => Err(std::io::ErrorKind::ConnectionReset.into()),
            false => Ok(()),
        }
    }

    /// Returns an error if a fault fires on this operation.
    fn step(&mut self) -> std::io::Result<()> {
        self.alive()?;
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
            match self.op_timeout {
                Some(t) if t < profile.stall => {
                    // The endpoint's op timeout expires mid-stall: emulate
                    // the kernel surfacing a timeout.
                    kpn_core::exec::sleep(t);
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                _ => {
                    kpn_core::exec::sleep(profile.stall);
                    return Ok(());
                }
            }
        }
        self.dead = true;
        shutdown(&*self.inner, Shutdown::Both);
        self.alive()
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
        self.alive()?;
        self.inner.flush()
    }
}

impl Transport for FaultyTransport {
    fn set_op_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.op_timeout = timeout;
        self.inner.set_op_timeout(timeout)
    }
    fn set_nonblocking(&mut self, nonblocking: bool) -> std::io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }
    fn socket(&self) -> Option<&TcpStream> {
        self.inner.socket()
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

/// Backoff growth factor per failed reconnect attempt.
const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Random extra fraction of each backoff (up to +20%), decorrelating
/// reconnect storms.
const BACKOFF_JITTER: f64 = 0.2;

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
    /// Backoff ceiling, before jitter.
    pub max_backoff: Duration,
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
        let base = self.initial_backoff.as_secs_f64() * BACKOFF_MULTIPLIER.powi(n as i32);
        let capped = base.min(self.max_backoff.as_secs_f64());
        let jitter = capped * BACKOFF_JITTER * (rng.below(1000) as f64 / 1000.0);
        Duration::from_secs_f64(capped + jitter)
    }
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

/// Transport factory + reconnect policy: a node's, for every data
/// connection it accepts or opens, or one passed explicitly to
/// [`RemoteSink::connect_with`](crate::RemoteSink::connect_with). A
/// profile and its clones share one watchdog, which pumps the resilient
/// sinks connected under them.
#[derive(Clone)]
pub struct NetProfile {
    /// Builds the transports.
    pub factory: Arc<dyn TransportFactory>,
    /// Governs endpoint recovery.
    pub policy: ReconnectPolicy,
    pub(crate) watchdog: Arc<Watchdog>,
}

impl NetProfile {
    /// A profile of `factory` and `policy`, with a watchdog of its own.
    pub fn new(factory: Arc<dyn TransportFactory>, policy: ReconnectPolicy) -> Self {
        NetProfile {
            factory,
            policy,
            watchdog: Arc::default(),
        }
    }
}

impl Default for NetProfile {
    fn default() -> Self {
        NetProfile::new(Arc::new(TcpFactory), ReconnectPolicy::default())
    }
}

impl std::fmt::Debug for NetProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetProfile")
            .field("policy", &self.policy)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Recovery counters
// ---------------------------------------------------------------------------

static RECOVERING: AtomicUsize = AtomicUsize::new(0);
static RECOVERY_ATTEMPTS: AtomicU64 = AtomicU64::new(0);

/// Endpoints currently inside a recovery episode, and total reconnect
/// attempts ever made, process-wide. A report only: the cluster probe
/// judges a reconnecting channel by its stream offsets, like any other.
pub fn recovery_stats() -> (usize, u64) {
    (
        RECOVERING.load(Ordering::SeqCst),
        RECOVERY_ATTEMPTS.load(Ordering::SeqCst),
    )
}

/// RAII marker for one recovery episode, counted in [`recovery_stats`].
pub(crate) struct RecoveryGuard;

impl RecoveryGuard {
    pub(crate) fn enter() -> Self {
        RECOVERING.fetch_add(1, Ordering::SeqCst);
        RecoveryGuard
    }

    /// Records one reconnect attempt.
    pub(crate) fn attempt(&self) {
        RECOVERY_ATTEMPTS.fetch_add(1, Ordering::SeqCst);
    }
}

impl Drop for RecoveryGuard {
    fn drop(&mut self) {
        RECOVERING.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// On an OS thread and on a pooled fiber, a read through a
    /// [`FaultyTransport`] over `rio` that waits several monitor periods
    /// for its data (one `poll` or one park each) is one step of the
    /// fault schedule: the fault layer sits above every wait.
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    #[test]
    fn a_read_that_waits_many_times_is_one_fault_step() {
        use kpn_core::monitor::MONITOR_TICK;
        use kpn_core::{Exec, Network, NetworkConfig, PooledExec, ThreadExec};
        const PERIODS: u32 = 5;
        let quiet = FaultProfile {
            mean_ops_between_faults: 1 << 20,
            max_faults: 0,
            ..Default::default()
        };
        for pooled in [false, true] {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let socket = crate::rio::wrap(listener.accept().unwrap().0);
            let mut faulty = FaultyTransport::new(socket, FaultPlan::new(1, quiet.clone()), 1, 0);
            let pool = PooledExec::new(1);
            let exec: Arc<dyn Exec> = match pooled {
                true => pool.clone(),
                false => ThreadExec::new(),
            };
            // A process of a network: its wait ticks the network's
            // monitor, so it waits one period at a time.
            let net = Network::with_exec(NetworkConfig::default(), exec);
            let (tx, rx) = std::sync::mpsc::channel();
            net.add_fn("reader", move |_| {
                let mut byte = [0u8; 1];
                faulty.read_exact(&mut byte)?;
                tx.send(faulty.ops).unwrap();
                Ok(())
            });
            let start = std::time::Instant::now();
            net.start();
            std::thread::sleep(MONITOR_TICK * PERIODS);
            peer.write_all(&[7]).unwrap();
            net.join().unwrap();
            assert!(start.elapsed() >= MONITOR_TICK * PERIODS);
            assert_eq!(rx.recv().unwrap(), 1, "pooled: {pooled}");
            if pooled {
                let reactor = pool.scheduler_stats().unwrap().reactor.unwrap();
                let parks = reactor.timer_wakeups;
                assert!(parks >= PERIODS as u64 - 2, "{parks} timed parks");
            }
            pool.shutdown();
        }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = ReconnectPolicy::resilient();
        let mut rng = SplitMix64(1);
        let b0 = policy.backoff(0, &mut rng);
        let b3 = policy.backoff(3, &mut rng);
        let b20 = policy.backoff(20, &mut rng);
        assert!(b0 < b3);
        assert!(b3 <= b20);
        assert!(b20 <= policy.max_backoff.mul_f64(1.0 + BACKOFF_JITTER));
    }
}
