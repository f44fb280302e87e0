//! Deterministic simulation: run a whole process network on one OS thread
//! at a time under an explicit, replayable schedule.
//!
//! The paper's central claim (§2–3) is that blocking reads make every
//! channel's history independent of *scheduling*. The regular runtime can
//! only sample whatever interleavings the OS produces; this module makes
//! the schedule an **input**. A [`SimScheduler`] serializes all process
//! threads behind a single run token: exactly one task executes at any
//! moment, and at every preemption point (channel operation entry, park,
//! task exit) the scheduler picks which ready task runs next. The pick
//! sequence — the *decision list* — fully determines the execution, so
//!
//! * a seeded random walk ([`SchedulePolicy::RandomWalk`]) explores many
//!   distinct interleavings reproducibly,
//! * a recorded decision list ([`SchedulePolicy::Replay`]) re-executes one
//!   schedule exactly, and
//! * bounded DFS over decision prefixes ([`explore_dfs`]) enumerates *all*
//!   schedules of a small graph up to a preemption depth.
//!
//! ## Why explored schedules are sound w.r.t. the real runtime
//!
//! Under simulation a task advances only between preemption points, and the
//! points chosen — blocking channel operations — are exactly the places
//! where the real runtime can context-switch *observably*: all inter-task
//! communication flows through channels, so two schedules that order the
//! channel operations identically are indistinguishable to the program.
//! Every simulated schedule corresponds to a real-thread execution (one in
//! which the OS happens to run the chosen task until its next channel
//! operation), and conversely any observable real execution orders channel
//! operations some way a decision list can express. The monitor reaches
//! its verdicts (grow smallest full channel / abort) through the same
//! events as on the real runtime — the last task to block, a woken wait
//! that goes on, an exit — from the same logical state: so a final channel
//! capacity a real executor ends at is one some simulated schedule ends at
//! too. Simulated tasks never wait on sockets, so no clock is needed: a
//! quiescence with no ready task is one no event resolved, and is reported
//! at once as irreducible.
//!
//! ## Histories and the determinacy oracle
//!
//! With [`crate::NetworkConfig::record_history`] set, every local channel
//! records the byte sequence pushed through it, keyed by *(creator process,
//! per-creator creation index)* — a name that is stable across schedules
//! even when channels are created dynamically (the Sieve's `Sift` inserting
//! a `Modulo` stage, Figures 7/8). [`compare_histories`] then asserts the
//! Kahn property: histories from different schedules must be bit-identical
//! ([`HistoryCheck::Exact`]) for networks that drain fully, or
//! prefix-ordered ([`HistoryCheck::PrefixClosed`]) for networks stopped
//! externally by a sink limit (§3.4 mode 2), where schedules legitimately
//! truncate each history at different points of the *same* unique stream.
//!
//! ## Replaying a failure
//!
//! Harness panics and oracle failures print a [`ScheduleTrace`]: the seed
//! plus the decision list. `SchedulePolicy::Replay(trace.decisions)`
//! re-executes that schedule exactly; see `tests/sim_schedules.rs`.

use crate::error::{Error, Result};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// SplitMix64 — tiny, seed-stable generator for schedule decisions, fault
/// schedules and backoff jitter. Deliberately *not* `rand`: every stream it
/// feeds must be a pure function of the seed, independent of crate versions.
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

// ---------------------------------------------------------------------------
// Policy and trace
// ---------------------------------------------------------------------------

/// How the scheduler picks the next task at each decision point.
#[derive(Debug, Clone)]
pub enum SchedulePolicy {
    /// Pick uniformly at random from the ready set, seeded: the same seed
    /// always yields the same schedule.
    RandomWalk {
        /// Seed for the decision stream.
        seed: u64,
    },
    /// Follow a recorded decision list exactly. If the program itself is
    /// deterministic given the schedule (every KPN is), the replay cannot
    /// diverge; if it does (a racy program past its divergence point),
    /// out-of-range choices are clamped to the ready-set size.
    Replay(Vec<u32>),
    /// Follow the given decisions, then always pick the first ready task.
    /// The DFS explorer uses this to branch off a known prefix.
    Prefix(Vec<u32>),
}

/// A completed run's schedule: the seed (for random walks) and the exact
/// decision list, replayable via [`SchedulePolicy::Replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// Seed of the random walk that produced this trace, if any.
    pub seed: Option<u64>,
    /// Index into the (TaskId-sorted) ready set chosen at each decision
    /// point.
    pub decisions: Vec<u32>,
    /// Size of the ready set at each decision point (`decisions[i] <
    /// arities[i]`); tells the DFS explorer where alternatives exist.
    pub arities: Vec<u32>,
}

impl ScheduleTrace {
    /// A 64-bit fingerprint of the decision list, used to count *distinct*
    /// explored schedules.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the u32 stream
        for &d in &self.decisions {
            for b in d.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

impl std::fmt::Display for ScheduleTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.seed {
            Some(s) => write!(f, "seed={s:#x} ")?,
            None => write!(f, "seed=- ")?,
        }
        write!(f, "decisions[{}]=", self.decisions.len())?;
        const SHOWN: usize = 96;
        for (i, d) in self.decisions.iter().take(SHOWN).enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        if self.decisions.len() > SHOWN {
            write!(f, ",…(+{})", self.decisions.len() - SHOWN)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Runnable, waiting to be granted the token.
    Ready,
    /// Holds the run token.
    Running,
    /// Waiting for an `unpark_all` on the given key.
    Parked(usize),
    Finished,
}

struct Task {
    name: String,
    state: TaskState,
}

struct SchedState {
    tasks: Vec<Task>,
    /// Task currently granted the run token.
    current: Option<usize>,
    /// False until [`SimScheduler::release`]: tasks registered during graph
    /// construction wait so the initial grant covers the whole batch.
    released: bool,
    policy: SchedulePolicy,
    rng: SplitMix64,
    decisions: Vec<u32>,
    arities: Vec<u32>,
    /// Set on irreducible quiescence; every waiter panics with this.
    failed: Option<String>,
}

/// The deterministic cooperative scheduler. Create one per simulated run,
/// pass it via [`crate::ExecMode::Sim`] in [`crate::NetworkConfig::mode`],
/// and read the [`ScheduleTrace`] back after the run.
pub struct SimScheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

thread_local! {
    /// The scheduler+task this OS thread is attached to, if any.
    static CURRENT: RefCell<Option<(Arc<SimScheduler>, usize)>> = const { RefCell::new(None) };
}

enum Dispatch {
    /// A task was granted the token (waiters must be notified).
    Granted,
    /// Nothing ready, nothing parked: the network has finished.
    Done,
    /// Nothing ready but tasks are parked: quiescent.
    Idle,
}

impl SimScheduler {
    /// A scheduler following `policy`.
    pub fn new(policy: SchedulePolicy) -> Arc<Self> {
        let rng = SplitMix64(match &policy {
            SchedulePolicy::RandomWalk { seed } => *seed,
            _ => 0,
        });
        Arc::new(SimScheduler {
            state: Mutex::new(SchedState {
                tasks: Vec::new(),
                current: None,
                released: false,
                policy,
                rng,
                decisions: Vec::new(),
                arities: Vec::new(),
                failed: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Registers a task. Must be called on the *spawning* thread before the
    /// task's OS thread is created, so task ids follow program order — the
    /// property that makes ids stable across runs of the same schedule.
    pub(crate) fn register_task(&self, name: &str) -> usize {
        let mut st = self.state.lock();
        st.tasks.push(Task {
            name: name.to_string(),
            state: TaskState::Ready,
        });
        st.tasks.len() - 1
    }

    /// Binds the calling OS thread to task `tid` and blocks until the
    /// scheduler grants it the token. First call a task's thread makes.
    pub(crate) fn attach(self: &Arc<Self>, tid: usize) {
        CURRENT.with(|c| *c.borrow_mut() = Some((self.clone(), tid)));
        let mut st = self.state.lock();
        self.wait_for_grant(&mut st, tid);
    }

    /// Opens scheduling: called once the initial batch of tasks is
    /// registered ([`crate::Network::start`]). Idempotent.
    pub(crate) fn release(self: &Arc<Self>) {
        let mut st = self.state.lock();
        if st.released {
            return;
        }
        st.released = true;
        if st.current.is_none() {
            drop(st);
            self.dispatch_and_notify();
        }
    }

    /// Preemption point: the current task offers the token. The scheduler
    /// may pick any ready task — including the caller — so every call is
    /// one decision. No-op when called from a thread that is not this
    /// scheduler's current task.
    pub(crate) fn yield_now(self: &Arc<Self>) {
        let Some(tid) = self.current_tid() else {
            return;
        };
        {
            let mut st = self.state.lock();
            st.tasks[tid].state = TaskState::Ready;
            st.current = None;
        }
        self.dispatch_and_notify();
        let mut st = self.state.lock();
        self.wait_for_grant(&mut st, tid);
    }

    /// Parks the current task on `key` until [`SimScheduler::unpark_all`]
    /// with the same key, handing the token to another task.
    pub(crate) fn park(self: &Arc<Self>, key: usize) {
        let Some(tid) = self.current_tid() else {
            return;
        };
        {
            let mut st = self.state.lock();
            st.tasks[tid].state = TaskState::Parked(key);
            st.current = None;
        }
        self.dispatch_and_notify();
        let mut st = self.state.lock();
        self.wait_for_grant(&mut st, tid);
    }

    /// Makes every task parked on `key` ready. The caller keeps the token;
    /// woken tasks run when a later decision picks them.
    pub(crate) fn unpark_all(&self, key: usize) {
        let mut st = self.state.lock();
        for t in &mut st.tasks {
            if t.state == TaskState::Parked(key) {
                t.state = TaskState::Ready;
            }
        }
    }

    /// Marks the current task finished and hands the token on. Last thing a
    /// task's thread does.
    pub(crate) fn finish_current(self: &Arc<Self>) {
        let Some(tid) = self.current_tid() else {
            return;
        };
        CURRENT.with(|c| *c.borrow_mut() = None);
        {
            let mut st = self.state.lock();
            st.tasks[tid].state = TaskState::Finished;
            st.current = None;
        }
        self.dispatch_and_notify();
    }

    /// The task id bound to this thread, if the thread belongs to *this*
    /// scheduler.
    fn current_tid(self: &Arc<Self>) -> Option<usize> {
        CURRENT.with(|c| match &*c.borrow() {
            Some((sched, tid)) if Arc::ptr_eq(sched, self) => Some(*tid),
            _ => None,
        })
    }

    /// True when the calling thread is a task of this scheduler.
    pub(crate) fn is_current(self: &Arc<Self>) -> bool {
        self.current_tid().is_some()
    }

    /// Picks and grants the next task. A quiescence — some tasks parked,
    /// none ready — is irreducible: the monitor acts on the event that
    /// completes a deadlock picture (growing a channel or poisoning the
    /// network readies tasks through the channel wake paths), so none is
    /// left for anyone to resolve.
    fn dispatch_and_notify(self: &Arc<Self>) {
        let mut st = self.state.lock();
        if !matches!(self.dispatch_locked(&mut st), Dispatch::Idle) {
            drop(st);
            self.cv.notify_all();
            return;
        }
        let parked: Vec<String> = st
            .tasks
            .iter()
            .filter(|t| matches!(t.state, TaskState::Parked(_)))
            .map(|t| t.name.clone())
            .collect();
        let trace = Self::trace_locked(&st);
        let msg = format!(
            "sim: irreducible quiescence (tasks {parked:?} parked, none ready) — schedule: {trace}"
        );
        st.failed = Some(msg.clone());
        drop(st);
        self.cv.notify_all();
        // The caller is one of the stuck tasks' threads (or release());
        // propagate the failure there too.
        panic!("{msg}");
    }

    /// Picks the next task per policy. Caller holds the state lock.
    fn dispatch_locked(&self, st: &mut SchedState) -> Dispatch {
        if !st.released || st.current.is_some() {
            return Dispatch::Granted; // nothing to do yet / already granted
        }
        let ready: Vec<usize> = st
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == TaskState::Ready)
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            let any_parked = st
                .tasks
                .iter()
                .any(|t| matches!(t.state, TaskState::Parked(_)));
            return if any_parked {
                Dispatch::Idle
            } else {
                Dispatch::Done
            };
        }
        let arity = ready.len() as u32;
        let pos = st.decisions.len();
        let choice = match &st.policy {
            SchedulePolicy::RandomWalk { .. } => st.rng.below(arity as u64) as u32,
            SchedulePolicy::Replay(list) => list.get(pos).copied().unwrap_or(0).min(arity - 1),
            SchedulePolicy::Prefix(list) => list.get(pos).copied().unwrap_or(0).min(arity - 1),
        };
        st.decisions.push(choice);
        st.arities.push(arity);
        let tid = ready[choice as usize];
        st.current = Some(tid);
        Dispatch::Granted
    }

    /// Blocks until `tid` holds the token (or the run failed).
    fn wait_for_grant(&self, st: &mut parking_lot::MutexGuard<'_, SchedState>, tid: usize) {
        loop {
            if let Some(msg) = &st.failed {
                let msg = msg.clone();
                panic!("{msg}");
            }
            if st.current == Some(tid) {
                st.tasks[tid].state = TaskState::Running;
                return;
            }
            self.cv.wait(st);
        }
    }

    fn trace_locked(st: &SchedState) -> ScheduleTrace {
        ScheduleTrace {
            seed: match &st.policy {
                SchedulePolicy::RandomWalk { seed } => Some(*seed),
                _ => None,
            },
            decisions: st.decisions.clone(),
            arities: st.arities.clone(),
        }
    }

    /// The schedule executed so far (complete once the network has joined).
    pub fn trace(&self) -> ScheduleTrace {
        Self::trace_locked(&self.state.lock())
    }

}

impl std::fmt::Debug for SimScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("SimScheduler")
            .field("tasks", &st.tasks.len())
            .field("decisions", &st.decisions.len())
            .field("released", &st.released)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// History recorder
// ---------------------------------------------------------------------------

/// Identifies one channel across schedules: the registered name of the
/// process that created it (`"main"` outside any task) and the index among
/// that creator's channels, in creation order. Stable across interleavings
/// because each creator's own program order is schedule-independent.
pub type ChannelKey = (String, u32);

struct RecState {
    histories: Vec<(ChannelKey, Vec<u8>)>,
    per_creator: HashMap<String, u32>,
}

/// Records the byte history of every channel of one network (see
/// [`crate::NetworkConfig::record_history`]).
pub struct HistoryRecorder {
    state: Mutex<RecState>,
}

impl HistoryRecorder {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(HistoryRecorder {
            state: Mutex::new(RecState {
                histories: Vec::new(),
                per_creator: HashMap::new(),
            }),
        })
    }

    /// Registers a channel created by the current task (or "main" for
    /// foreign threads); returns the slot the channel records into. Task
    /// names come from the executor layer, so the keying is identical
    /// under thread, pooled, and sim execution — what lets the exec-matrix
    /// tests compare histories across modes.
    pub(crate) fn register(&self) -> usize {
        let creator = crate::exec::current_task_name().unwrap_or_else(|| "main".to_string());
        let mut st = self.state.lock();
        let seq = st.per_creator.entry(creator.clone()).or_insert(0);
        let key = (creator, *seq);
        *seq += 1;
        st.histories.push((key, Vec::new()));
        st.histories.len() - 1
    }

    pub(crate) fn record(&self, slot: usize, bytes: &[u8]) {
        self.state.lock().histories[slot].1.extend_from_slice(bytes);
    }

    /// All recorded histories, sorted by channel key.
    pub fn histories(&self) -> Vec<(ChannelKey, Vec<u8>)> {
        let mut out = self.state.lock().histories.clone();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl std::fmt::Debug for HistoryRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HistoryRecorder({} channels)", self.state.lock().histories.len())
    }
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// How strictly two runs' histories must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryCheck {
    /// Bit-identical byte-for-byte: networks that drain fully (§3.4 mode 1
    /// termination) must reproduce every channel exactly.
    Exact,
    /// Prefix-ordered: for each channel, one run's history must be a prefix
    /// of the other's. This is the Kahn guarantee for networks stopped
    /// externally (a sink limit's `WriteClosed` cascade, §3.4 mode 2):
    /// every schedule computes a prefix of the same unique stream, cut at a
    /// schedule-dependent point.
    PrefixClosed,
}

/// Compares two runs' channel histories under `check`. `Err` describes the
/// first divergence (channel key, offset) — determinacy is broken.
pub fn compare_histories(
    baseline: &[(ChannelKey, Vec<u8>)],
    candidate: &[(ChannelKey, Vec<u8>)],
    check: HistoryCheck,
) -> std::result::Result<(), String> {
    let base: HashMap<&ChannelKey, &Vec<u8>> = baseline.iter().map(|(k, v)| (k, v)).collect();
    let cand: HashMap<&ChannelKey, &Vec<u8>> = candidate.iter().map(|(k, v)| (k, v)).collect();
    // Under Exact the channel *sets* must match too; under PrefixClosed a
    // channel may be absent from the run that was cut before its creation.
    if check == HistoryCheck::Exact {
        for k in base.keys() {
            if !cand.contains_key(*k) {
                return Err(format!("channel {k:?} missing from candidate run"));
            }
        }
        for k in cand.keys() {
            if !base.contains_key(*k) {
                return Err(format!("channel {k:?} missing from baseline run"));
            }
        }
    }
    for (k, b) in &base {
        let Some(c) = cand.get(*k) else { continue };
        let common = b.len().min(c.len());
        if let Some(off) = (0..common).find(|&i| b[i] != c[i]) {
            return Err(format!(
                "channel {k:?} diverges at byte {off} (baseline {:#04x}, candidate {:#04x}; \
                 lengths {} vs {})",
                b[off],
                c[off],
                b.len(),
                c.len()
            ));
        }
        if check == HistoryCheck::Exact && b.len() != c.len() {
            return Err(format!(
                "channel {k:?} lengths differ: baseline {} vs candidate {} (identical prefix)",
                b.len(),
                c.len()
            ));
        }
    }
    Ok(())
}

/// One simulated run's observable outcome.
#[derive(Debug)]
pub struct SimRun {
    /// Per-channel byte histories (empty unless `record_history` was set).
    pub histories: Vec<(ChannelKey, Vec<u8>)>,
    /// The schedule that produced them.
    pub trace: ScheduleTrace,
}

/// Builds a network with `build`, runs it to completion under `policy` with
/// history recording on, and returns the histories plus the executed
/// schedule. The network error (deadlock, process failure) passes through
/// unchanged so tests can assert on it; the schedule of a failed run is in
/// [`SimScheduler::trace`] — rerun with the same policy to reproduce.
pub fn run_sim<F>(policy: SchedulePolicy, build: F) -> Result<SimRun>
where
    F: FnOnce(&crate::Network),
{
    let sched = SimScheduler::new(policy);
    let config = crate::NetworkConfig {
        mode: crate::ExecMode::Sim(sched.clone()),
        record_history: true,
        ..Default::default()
    };
    let net = crate::Network::with_config(config);
    build(&net);
    let outcome = net.run();
    let run = SimRun {
        histories: net.histories().unwrap_or_default(),
        trace: sched.trace(),
    };
    outcome.map(|_| run)
}

/// Runs `body` once per policy and checks Kahn determinacy: every run's
/// histories must agree with the first run's under `check`. Returns the
/// number of *distinct* schedules explored. The error message embeds the
/// offending [`ScheduleTrace`] so the schedule can be replayed.
pub fn check_determinacy<F>(
    policies: impl IntoIterator<Item = SchedulePolicy>,
    check: HistoryCheck,
    mut body: F,
) -> Result<usize>
where
    F: FnMut(SchedulePolicy) -> Result<SimRun>,
{
    let mut baseline: Option<SimRun> = None;
    let mut fingerprints = std::collections::HashSet::new();
    for policy in policies {
        let run = body(policy)?;
        fingerprints.insert(run.trace.fingerprint());
        match &baseline {
            None => baseline = Some(run),
            Some(base) => {
                if let Err(msg) = compare_histories(&base.histories, &run.histories, check) {
                    return Err(Error::Graph(format!(
                        "determinacy broken: {msg}\n  baseline schedule: {}\n  breaking \
                         schedule: {}",
                        base.trace, run.trace
                    )));
                }
            }
        }
    }
    Ok(fingerprints.len())
}

/// Report of a bounded DFS exploration.
#[derive(Debug)]
pub struct DfsReport {
    /// Total schedules executed.
    pub runs: usize,
    /// Distinct decision lists among them.
    pub distinct: usize,
}

/// Bounded depth-first exploration of the schedule space: starting from the
/// empty prefix, runs each frontier prefix under [`SchedulePolicy::Prefix`],
/// then branches a new prefix for every untaken alternative at decision
/// depths below `max_depth`, until the frontier is exhausted or `max_runs`
/// schedules have executed. Each run's histories are checked against the
/// first run's under `check`.
///
/// Each generated prefix ends in a not-yet-taken choice, so no schedule is
/// executed twice; for small graphs and a `max_depth` covering the whole
/// run this enumerates *every* schedule.
pub fn explore_dfs<F>(
    max_runs: usize,
    max_depth: usize,
    check: HistoryCheck,
    mut body: F,
) -> Result<DfsReport>
where
    F: FnMut(SchedulePolicy) -> Result<SimRun>,
{
    let mut frontier: Vec<Vec<u32>> = vec![Vec::new()];
    let mut baseline: Option<SimRun> = None;
    let mut fingerprints = std::collections::HashSet::new();
    let mut runs = 0;
    while let Some(prefix) = frontier.pop() {
        if runs >= max_runs {
            break;
        }
        let run = body(SchedulePolicy::Prefix(prefix.clone()))?;
        runs += 1;
        fingerprints.insert(run.trace.fingerprint());
        // Branch on every untaken alternative discovered past the prefix.
        for i in prefix.len()..run.trace.decisions.len().min(max_depth) {
            for alt in (run.trace.decisions[i] + 1)..run.trace.arities[i] {
                let mut p = run.trace.decisions[..i].to_vec();
                p.push(alt);
                frontier.push(p);
            }
        }
        match &baseline {
            None => baseline = Some(run),
            Some(base) => {
                if let Err(msg) = compare_histories(&base.histories, &run.histories, check) {
                    return Err(Error::Graph(format!(
                        "determinacy broken (DFS): {msg}\n  baseline schedule: {}\n  breaking \
                         schedule: {}",
                        base.trace, run.trace
                    )));
                }
            }
        }
    }
    Ok(DfsReport {
        runs,
        distinct: fingerprints.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::{mod_merge_dag, primes_below, primes_reference, GraphOptions};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn sim_pipeline_histories_identical_across_seeds() {
        // Sequence -> Scale -> Collect under three different schedules:
        // every channel history must be bit-identical (full drain => Exact).
        let run = |seed| {
            run_sim(SchedulePolicy::RandomWalk { seed }, |net| {
                use crate::stdlib::{Collect, Scale, Sequence};
                let (aw, ar) = net.channel_with_capacity(64);
                let (bw, br) = net.channel_with_capacity(64);
                let out = Arc::new(StdMutex::new(Vec::new()));
                net.add(Sequence::new(0, 50, aw));
                net.add(Scale::new(3, ar, bw));
                net.add(Collect::new(br, out.clone()));
            })
            .unwrap()
        };
        let base = run(1);
        assert!(!base.histories.is_empty());
        for seed in 2..6 {
            let r = run(seed);
            compare_histories(&base.histories, &r.histories, HistoryCheck::Exact).unwrap();
        }
    }

    #[test]
    fn sim_replay_reproduces_schedule_exactly() {
        let build = |net: &crate::Network| {
            let _ = primes_below(
                net,
                30,
                &GraphOptions {
                    channel_capacity: 64,
                    ..Default::default()
                },
            );
        };
        let walk = run_sim(SchedulePolicy::RandomWalk { seed: 0xfeed }, build).unwrap();
        let replay = run_sim(SchedulePolicy::Replay(walk.trace.decisions.clone()), build).unwrap();
        assert_eq!(walk.trace.decisions, replay.trace.decisions);
        assert_eq!(walk.trace.arities, replay.trace.arities);
        compare_histories(&walk.histories, &replay.histories, HistoryCheck::Exact).unwrap();
    }

    #[test]
    fn sim_resolves_artificial_deadlock_by_growth() {
        // Figure 13's undersized-channel graph needs monitor growth to
        // finish; under sim the growth happens deterministically (smallest
        // capacity, then lowest channel id).
        let run = |seed| {
            let out = Arc::new(StdMutex::new(Vec::new()));
            let captured = out.clone();
            let r = run_sim(SchedulePolicy::RandomWalk { seed }, move |net| {
                let got = mod_merge_dag(net, 10, 100, 8);
                *captured.lock().unwrap() = vec![got];
            })
            .unwrap();
            let inner = out.lock().unwrap()[0].lock().unwrap().clone();
            (r, inner)
        };
        let (base, base_out) = run(7);
        assert!(!base_out.is_empty());
        let (other, other_out) = run(8);
        assert_eq!(base_out, other_out);
        compare_histories(&base.histories, &other.histories, HistoryCheck::Exact).unwrap();
    }

    #[test]
    fn sim_detects_true_deadlock_without_wall_clock() {
        // Two processes each read-blocked on the other: a genuine Kahn
        // deadlock, detected purely through scheduler quiescence + the
        // monitor's event-driven check — no timeouts involved.
        use crate::stream::{DataReader, DataWriter};
        let outcome = run_sim(SchedulePolicy::RandomWalk { seed: 3 }, |net| {
            let (aw, ar) = net.channel();
            let (bw, br) = net.channel();
            net.add_fn("p1", move |_| {
                let mut r = DataReader::new(br);
                let mut w = DataWriter::new(aw);
                loop {
                    let v = r.read_i64()?;
                    w.write_i64(v)?;
                }
            });
            net.add_fn("p2", move |_| {
                let mut r = DataReader::new(ar);
                let mut w = DataWriter::new(bw);
                loop {
                    let v = r.read_i64()?;
                    w.write_i64(v)?;
                }
            });
        });
        assert!(matches!(outcome, Err(Error::Deadlocked)));
    }

    #[test]
    fn sim_sieve_output_matches_reference() {
        // The sieve reconfigures dynamically (Sift splices Modulo stages),
        // yet under sim its output still matches the reference exactly.
        let slot = Arc::new(StdMutex::new(Vec::new()));
        let captured = slot.clone();
        run_sim(SchedulePolicy::RandomWalk { seed: 11 }, move |net| {
            let out = primes_below(
                net,
                50,
                &GraphOptions {
                    channel_capacity: 32,
                    ..Default::default()
                },
            );
            *captured.lock().unwrap() = vec![out];
        })
        .unwrap();
        let got = slot.lock().unwrap()[0].lock().unwrap().clone();
        assert_eq!(got, primes_reference(50));
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn trace_fingerprint_distinguishes_decisions() {
        let t1 = ScheduleTrace {
            seed: None,
            decisions: vec![0, 1, 0],
            arities: vec![2, 2, 2],
        };
        let t2 = ScheduleTrace {
            seed: None,
            decisions: vec![0, 1, 1],
            arities: vec![2, 2, 2],
        };
        assert_ne!(t1.fingerprint(), t2.fingerprint());
        assert_eq!(t1.fingerprint(), t1.clone().fingerprint());
    }

    #[test]
    fn trace_display_is_compact() {
        let t = ScheduleTrace {
            seed: Some(0xBEEF),
            decisions: (0..200).map(|i| i % 3).collect(),
            arities: vec![3; 200],
        };
        let s = t.to_string();
        assert!(s.starts_with("seed=0xbeef "));
        assert!(s.contains("…(+104)"), "long traces truncate: {s}");
    }

    #[test]
    fn compare_exact_catches_divergence_and_length() {
        let k = ("p".to_string(), 0);
        let a = vec![(k.clone(), vec![1, 2, 3])];
        let b = vec![(k.clone(), vec![1, 9, 3])];
        assert!(compare_histories(&a, &b, HistoryCheck::Exact).is_err());
        let c = vec![(k.clone(), vec![1, 2])];
        assert!(compare_histories(&a, &c, HistoryCheck::Exact).is_err());
        assert!(compare_histories(&a, &c, HistoryCheck::PrefixClosed).is_ok());
        assert!(compare_histories(&a, &a, HistoryCheck::Exact).is_ok());
    }

    #[test]
    fn compare_exact_requires_same_channel_set() {
        let a = vec![(("p".to_string(), 0), vec![1])];
        let b: Vec<(ChannelKey, Vec<u8>)> = vec![];
        assert!(compare_histories(&a, &b, HistoryCheck::Exact).is_err());
        assert!(compare_histories(&a, &b, HistoryCheck::PrefixClosed).is_ok());
    }

    #[test]
    fn prefix_check_rejects_non_prefix() {
        let k = ("p".to_string(), 0);
        let a = vec![(k.clone(), vec![1, 2, 3, 4])];
        let b = vec![(k.clone(), vec![1, 2, 9])];
        assert!(compare_histories(&a, &b, HistoryCheck::PrefixClosed).is_err());
    }
}
