//! Processes and process composition (§3.2).
//!
//! Every process executes in its own thread, created by the owning
//! [`crate::Network`]. New process types either implement [`Process`]
//! directly (full control of the run loop) or — far more commonly —
//! implement [`Iterative`], the analogue of the paper's
//! `IterativeProcess` base class: optional one-time `on_start`/`on_stop`
//! hooks around a repeated `step`, with an optional iteration limit
//! (Figure 4).
//!
//! A step that returns a *graceful* error ([`crate::Error::Eof`] or
//! [`crate::Error::WriteClosed`]) terminates the process normally; its channel
//! endpoints are dropped (= closed), which propagates the termination
//! cascade of §3.4 to its neighbours.

use crate::channel::{ChannelReader, ChannelWriter};
use crate::error::Result;
use crate::network::NetworkHandle;
use crate::topology::ProcessTag;

/// Execution context handed to a running process: lets self-modifying
/// graphs create channels and spawn new processes at run time (§3.3 —
/// "reconfiguration \[is\] initiated by processes and not some external
/// agent").
pub struct ProcessCtx {
    net: NetworkHandle,
}

impl ProcessCtx {
    pub(crate) fn new(net: NetworkHandle) -> Self {
        ProcessCtx { net }
    }

    /// Creates a new channel registered with this network's deadlock
    /// monitor, using the network's default capacity.
    pub fn channel(&self) -> (ChannelWriter, ChannelReader) {
        self.net.channel()
    }

    /// Creates a new monitored channel with an explicit capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (see
    /// [`NetworkHandle::channel_with_capacity`]).
    pub fn channel_with_capacity(&self, capacity: usize) -> (ChannelWriter, ChannelReader) {
        self.net.channel_with_capacity(capacity)
    }

    /// Creates a new monitored channel with an explicit capacity, rejecting
    /// a zero capacity with [`crate::Error::Graph`].
    pub fn try_channel_with_capacity(
        &self,
        capacity: usize,
    ) -> Result<(ChannelWriter, ChannelReader)> {
        self.net.try_channel_with_capacity(capacity)
    }

    /// Spawns a process into the running network (dynamic reconfiguration:
    /// the Sift process of Figures 7/8 uses this to insert Modulo filters).
    pub fn spawn(&self, p: Box<dyn Process>) {
        self.net.spawn(p);
    }

    /// Spawns an [`Iterative`] process into the running network.
    pub fn spawn_iterative<T: Iterative>(&self, it: T) {
        self.net.spawn(Box::new(IterativeProcess::new(it)));
    }

    /// A handle to the owning network (for composing with `kpn-net`).
    pub fn network(&self) -> &NetworkHandle {
        &self.net
    }

    /// Flushes every buffered sink owned by the calling task (see
    /// [`crate::flush`]), unconditionally: buffered typed tokens become
    /// visible to their consumers now instead of when the runtime would
    /// publish them.
    ///
    /// Nothing needs this for correctness — a task's output is always
    /// published before the task waits for anything, and the run loop of
    /// [`IterativeProcess`] feeds a waiting reader at every step boundary
    /// (a remote reader within one publish-duration of the previous
    /// publish). It is for a process that wants its output seen *now*
    /// although the reader is busy or a frame has just been sent (a
    /// progress report, a heartbeat), and for long-running [`Process`]
    /// bodies that batch many writes between waits.
    ///
    /// Errors are the first failure among the flushed sinks
    /// ([`crate::Error::WriteClosed`] once a consumer has stopped — the
    /// normal termination cascade of §3.4).
    pub fn flush_sinks(&self) -> Result<()> {
        crate::flush::flush_task_sinks()
    }
}

/// A process in a Kahn network. Owns its channel endpoints; communicates
/// *only* through them (§1).
pub trait Process: Send + 'static {
    /// Human-readable name used for thread naming and error reports.
    fn name(&self) -> String {
        "process".into()
    }

    /// The body of the process. Runs on a dedicated thread. Returning
    /// (with any result) drops the process and thereby closes all of its
    /// channel endpoints — the paper's `onStop` behaviour.
    fn run(self: Box<Self>, ctx: &ProcessCtx) -> Result<()>;

    /// The process's lint declaration, if it participates in the static
    /// verifier. A declared process creates a [`ProcessTag`] in its
    /// constructor, calls [`crate::ChannelWriter::attach`] /
    /// [`crate::ChannelReader::attach`] on every endpoint it owns, and
    /// returns the tag here. The default `None` marks the process *opaque*:
    /// network-wide endpoint accounting (the L001 dangling-endpoint check)
    /// is suppressed, since an opaque process may own any endpoint
    /// invisibly. Every stdlib process is declared.
    fn lint_tag(&self) -> Option<&ProcessTag> {
        None
    }
}

/// The `IterativeProcess` pattern (§3.2, Figure 4): one-time start/stop
/// hooks around a repeated `step`, with an optional iteration limit.
pub trait Iterative: Send + 'static {
    /// Process name for diagnostics.
    fn name(&self) -> String {
        "iterative".into()
    }

    /// Iteration limit; `None` runs until a step returns an error
    /// (typically the graceful EOF/WriteClosed cascade).
    fn limit(&self) -> Option<u64> {
        None
    }

    /// One-time initialization, invoked as execution begins.
    fn on_start(&mut self, _ctx: &ProcessCtx) -> Result<()> {
        Ok(())
    }

    /// One unit of the process's work.
    fn step(&mut self, ctx: &ProcessCtx) -> Result<()>;

    /// One-time cleanup, invoked as execution ends (even after an error).
    /// Channel endpoints are closed automatically when the process drops.
    fn on_stop(&mut self) {}

    /// Lint declaration, forwarded by [`IterativeProcess`]; see
    /// [`Process::lint_tag`].
    fn lint_tag(&self) -> Option<&ProcessTag> {
        None
    }
}

/// Adapter running an [`Iterative`] under the [`Process`] contract.
pub struct IterativeProcess<T: Iterative> {
    inner: T,
}

impl<T: Iterative> IterativeProcess<T> {
    /// Wraps an iterative process body.
    pub fn new(inner: T) -> Self {
        IterativeProcess { inner }
    }
}

impl<T: Iterative> Process for IterativeProcess<T> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn lint_tag(&self) -> Option<&ProcessTag> {
        self.inner.lint_tag()
    }

    /// §3.2's run loop: `on_start`, then `step` until the limit or an
    /// error, then `on_stop`.
    ///
    /// Between steps lies the *step boundary*, where buffered output is
    /// published **if its reader is waiting for it** (see [`crate::flush`]).
    /// A reader parked on one of this process's outputs is therefore fed
    /// by the next boundary — a token is visible at most one step later
    /// than if every step ended with a flush — while a reader that is busy
    /// lets the 4 KiB chunk batch. Output for a reader that cannot be seen
    /// (a remote channel) is published unless the previous publish returned
    /// less than its own duration ago: steps longer than a publish publish
    /// every time, shorter ones share a frame. Output is also published
    /// whenever a step waits for anything, so nothing here is needed for
    /// deadlock safety; a step that must be seen immediately calls
    /// [`ProcessCtx::flush_sinks`].
    ///
    /// The boundary is resolved once per run: it keeps the task's registry
    /// of buffered sinks across steps (renewed only when a step has
    /// registered a new one) and reads, per sink, its owner, whether it
    /// holds bytes and — over a local channel — the reader's flag. It
    /// touches a sink only to publish it or to ask an unseen reader's pace.
    fn run(mut self: Box<Self>, ctx: &ProcessCtx) -> Result<()> {
        let mut boundary = crate::flush::StepBoundary::of_current_task();
        let result: Result<()> = (|| {
            self.inner.on_start(ctx)?;
            let mut remaining = self.inner.limit();
            loop {
                // The step boundary: after `on_start` and after every step,
                // the last one included.
                boundary.cross()?;
                match remaining.as_mut() {
                    Some(0) => return Ok(()),
                    Some(n) => *n -= 1,
                    None => {}
                }
                self.inner.step(ctx)?;
            }
        })();
        self.inner.on_stop();
        match result {
            // §3.4: EOF / closed-reader exceptions are the normal
            // termination cascade, not failures.
            Err(e) if e.is_graceful() => Ok(()),
            other => other,
        }
    }
}

/// A process defined by a closure — convenient for tests and examples.
pub struct FnProcess<F>
where
    F: FnOnce(&ProcessCtx) -> Result<()> + Send + 'static,
{
    name: String,
    body: F,
}

impl<F> FnProcess<F>
where
    F: FnOnce(&ProcessCtx) -> Result<()> + Send + 'static,
{
    /// Creates a named closure process.
    pub fn new(name: impl Into<String>, body: F) -> Self {
        FnProcess {
            name: name.into(),
            body,
        }
    }
}

impl<F> Process for FnProcess<F>
where
    F: FnOnce(&ProcessCtx) -> Result<()> + Send + 'static,
{
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(self: Box<Self>, ctx: &ProcessCtx) -> Result<()> {
        let result = (self.body)(ctx);
        match result {
            Err(e) if e.is_graceful() => Ok(()),
            other => other,
        }
    }
}

/// Hierarchical composition (§3.2): a process that is itself a collection
/// of processes. Each component gets **its own thread** — running component
/// steps in sequence could introduce deadlock through composition, which
/// the paper explicitly avoids.
pub struct CompositeProcess {
    name: String,
    children: Vec<Box<dyn Process>>,
}

impl CompositeProcess {
    /// An empty composite.
    pub fn new(name: impl Into<String>) -> Self {
        CompositeProcess {
            name: name.into(),
            children: Vec::new(),
        }
    }

    /// Adds a component process (builder style).
    pub fn add(&mut self, p: Box<dyn Process>) -> &mut Self {
        self.children.push(p);
        self
    }

    /// Adds an [`Iterative`] component.
    pub fn add_iterative<T: Iterative>(&mut self, it: T) -> &mut Self {
        self.add(Box::new(IterativeProcess::new(it)))
    }

    /// Number of direct components.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// True when the composite has no components.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

impl Process for CompositeProcess {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn run(self: Box<Self>, ctx: &ProcessCtx) -> Result<()> {
        for child in self.children {
            ctx.spawn(child);
        }
        Ok(())
    }
}
