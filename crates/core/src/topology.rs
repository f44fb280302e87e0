//! Static topology capture and the built-in network lints (L001–L004).
//!
//! The paper leaves every structural property of a process network to
//! runtime discovery: a writer whose reader was never wired up simply
//! deadlocks (§3.4), a typed-stream mismatch decodes garbage (§3.1), and an
//! under-provisioned cycle stalls until the monitor grows it (§3.5). This
//! module is the *static* counterpart of that dynamic machinery: as graph
//! construction code creates channels and moves endpoints into processes,
//! each channel records what has been declared about its two sides
//! ([`EndpointShape`]) and the network records its declared processes; a
//! [`TopologySnapshot`] is one look at every live channel — found through
//! the monitor's table, the only list of them — plus those processes, and
//! a configurable lint pass checks it before [`crate::Network::start`] and
//! incrementally after every dynamic reconfiguration.
//!
//! The checks that need only the core runtime live here (L001 dangling
//! endpoint, L002 typed-stream contract mismatch, L003 undercapacitated
//! cycle, L004 orphan process). The `kpn-lint` crate layers the
//! SDF-delegating L005 on top by registering an extra pass through
//! [`register_lint_pass`], and adds a CLI for checking distributed graph
//! specs before deployment.
//!
//! Everything here is *advisory metadata*: declaring an endpoint's owner,
//! stream framing, element type, or token rate never changes runtime
//! behaviour — it only sharpens what the lint pass can prove. Undeclared
//! (opaque) endpoints and processes are treated as compatible with
//! everything, so partially-declared graphs produce no false positives.

use crate::monitor::Held;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Lint configuration
// ---------------------------------------------------------------------------

/// How lint findings are enforced by a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintLevel {
    /// No lint pass runs.
    Off,
    /// Findings are printed to stderr; execution proceeds.
    #[default]
    Warn,
    /// Findings block `start()` (and dynamic spawns) with
    /// [`crate::Error::Lint`].
    Deny,
}

impl LintLevel {
    /// Parse a `KPN_LINT` value (`off` / `warn` / `deny`,
    /// case-insensitive); anything unrecognized is [`LintLevel::Warn`].
    pub(crate) fn parse(v: &str) -> Self {
        match v.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => LintLevel::Off,
            "deny" | "error" => LintLevel::Deny,
            _ => LintLevel::Warn,
        }
    }
}

/// Stable diagnostic codes emitted by the lint passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// Dangling endpoint: a channel side that was never moved into a
    /// declared process (guaranteed stall for the attached peer).
    L001,
    /// Typed-stream contract mismatch: writer and reader declare
    /// incompatible framing or element types.
    L002,
    /// Undercapacitated cycle: a channel on a directed cycle cannot hold
    /// even one declared token (the Hamming Figure 12 failure).
    L003,
    /// Orphan process: a declared process holding no channel endpoints.
    L004,
    /// SDF-checkable subgraph: rate annotations are inconsistent or imply
    /// larger buffers (delegated to `kpn-sdf` by the `kpn-lint` crate).
    L005,
    /// Static region running below synthesized capacity: the periodic SDF
    /// schedule proves a larger buffer is required, and the attached
    /// [`Fix::SetCapacity`] states the minimal safe size. Advisory (Warn)
    /// by default — the runtime monitor still makes the region progress by
    /// growing, so the finding never blocks a `Deny` start.
    L006,
}

impl DiagCode {
    /// Whether findings with this code are advisory: reported at `Warn`
    /// even under [`LintLevel::Deny`], because the runtime compensates
    /// (the monitor grows undersized static regions on demand).
    pub fn is_advisory(self) -> bool {
        matches!(self, DiagCode::L006)
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DiagCode::L001 => "L001",
            DiagCode::L002 => "L002",
            DiagCode::L003 => "L003",
            DiagCode::L004 => "L004",
            DiagCode::L005 => "L005",
            DiagCode::L006 => "L006",
        };
        f.write_str(s)
    }
}

/// A machine-applicable edit synthesized by a lint pass. Fixes ride on
/// [`Diagnostic::fixes`]; consumers apply them to serialized `GraphSpec`
/// partitions (`kpn-lint fix`) or to a live topology before start
/// (`NetworkConfig::synthesize_capacities`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fix {
    /// Raise `channel`'s capacity from `current` to `suggested` bytes —
    /// the minimal size the static analysis proves sufficient. Applying a
    /// capacity that is already ≥ `suggested` is a no-op; capacities are
    /// never shrunk.
    SetCapacity {
        /// Id of the channel to resize.
        channel: u64,
        /// Capacity (bytes) at analysis time.
        current: usize,
        /// Synthesized minimal safe capacity (bytes).
        suggested: usize,
    },
}

impl fmt::Display for Fix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fix::SetCapacity {
                channel,
                current,
                suggested,
            } => write!(
                f,
                "set channel {channel} capacity {current} → {suggested} bytes"
            ),
        }
    }
}

/// One structured lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code identifying the check.
    pub code: DiagCode,
    /// Human-readable explanation of the defect.
    pub message: String,
    /// Name of the implicated process, when one is known.
    pub process: Option<String>,
    /// Id of the implicated channel, when one is known (matches
    /// [`crate::Network::channel_report`] ids).
    pub channel: Option<u64>,
    /// Machine-applicable edits that resolve the finding, when the pass
    /// can synthesize them (empty for purely diagnostic findings).
    pub fixes: Vec<Fix>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)?;
        match (&self.process, self.channel) {
            (Some(p), Some(c)) => write!(f, " (process `{p}`, channel {c})")?,
            (Some(p), None) => write!(f, " (process `{p}`)")?,
            (None, Some(c)) => write!(f, " (channel {c})")?,
            (None, None) => {}
        }
        for fix in &self.fixes {
            write!(f, " [fix: {fix}]")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Declarations: process tags, framing, element types, rates
// ---------------------------------------------------------------------------

static NEXT_TAG_ID: AtomicU64 = AtomicU64::new(1);

/// Identity of a *declared* process, used to attribute channel endpoints to
/// the process that owns them. The stdlib processes create one in their
/// constructors and attach every endpoint they receive; custom processes
/// may do the same and return it from [`crate::Process::lint_tag`] to
/// participate in lint checks (processes without a tag are *opaque*: the
/// network-wide L001 check is suppressed, since an opaque process may own
/// any endpoint invisibly).
#[derive(Clone, Debug)]
pub struct ProcessTag {
    id: u64,
    name: Arc<str>,
    attachments: Arc<AtomicUsize>,
}

impl ProcessTag {
    /// Creates a tag for a process named `name`.
    pub fn new(name: impl AsRef<str>) -> Self {
        ProcessTag {
            id: NEXT_TAG_ID.fetch_add(1, Ordering::Relaxed),
            name: Arc::from(name.as_ref()),
            attachments: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Unique id of this process declaration.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The declared process name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many endpoints have ever been attached to this tag (local,
    /// remote, or re-attached after a move).
    pub fn attachments(&self) -> usize {
        self.attachments.load(Ordering::Relaxed)
    }

    pub(crate) fn note_attachment(&self) {
        self.attachments.fetch_add(1, Ordering::Relaxed);
    }
}

/// Stream framing declared by a typed wrapper: the big-endian primitive
/// format of [`crate::DataWriter`]/[`crate::DataReader`], or the
/// length-prefixed record format of `kpn-codec`'s object streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFraming {
    /// Big-endian primitives (`DataWriter`/`DataReader`).
    Data,
    /// Length-prefixed serialized records (`ObjectWriter`/`ObjectReader`).
    Object,
}

impl fmt::Display for StreamFraming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamFraming::Data => f.write_str("data (big-endian primitives)"),
            StreamFraming::Object => f.write_str("object (length-prefixed records)"),
        }
    }
}

/// Lifecycle of one side of a channel, as far as lint can observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SideState {
    /// Created but not yet attributed to anything.
    Open,
    /// Moved into a declared process.
    Attached,
    /// Declared as intentionally driven from outside the network (a main
    /// thread feeding or draining the graph).
    External,
    /// Consumed by a splice (writer retirement / reader append): its bytes
    /// continue through another channel.
    Spliced,
    /// Closed (dropped); the peer sees the §3.4 cascade, not a stall.
    Closed,
}

// ---------------------------------------------------------------------------
// Snapshot types consumed by lint passes
// ---------------------------------------------------------------------------

/// What lint knows about one side of a channel.
#[derive(Debug, Clone)]
pub struct EndpointShape {
    /// Lifecycle state.
    pub state: SideState,
    /// The owning declared process, when attached.
    pub process: Option<u64>,
    /// Declared stream framing, if a typed wrapper was installed.
    pub framing: Option<StreamFraming>,
    /// Declared element type name (e.g. `"i64"`).
    pub item_type: Option<&'static str>,
    /// Encoded size of one declared element, in bytes.
    pub item_size: Option<usize>,
    /// Declared SDF rate (tokens per firing), for L005.
    pub rate: Option<u64>,
}

impl EndpointShape {
    /// A side nothing has been declared about yet.
    pub(crate) fn open() -> Self {
        EndpointShape {
            state: SideState::Open,
            process: None,
            framing: None,
            item_type: None,
            item_size: None,
            rate: None,
        }
    }

    /// Moves the side to `state`. Closed and Spliced are terminal: the
    /// drop-time close of an endpoint consumed by a splice must not repaint
    /// it as Closed, and nothing resurrects a closed side.
    pub(crate) fn mark(&mut self, state: SideState) {
        if self.state != SideState::Closed && self.state != SideState::Spliced {
            self.state = state;
        }
    }
}

/// What lint knows about one channel.
#[derive(Debug, Clone)]
pub struct ChannelShape {
    /// Channel id (shared with the monitor's channel report).
    pub id: u64,
    /// Current capacity in bytes.
    pub capacity: usize,
    /// Bytes currently buffered (initial tokens, at start-time lint).
    pub buffered: usize,
    /// The write side.
    pub writer: EndpointShape,
    /// The read side.
    pub reader: EndpointShape,
}

/// What lint knows about one declared process.
#[derive(Debug, Clone)]
pub struct ProcessShape {
    /// The tag id endpoints attach to.
    pub id: u64,
    /// Declared name.
    pub name: String,
    /// Endpoints ever attached to this process.
    pub endpoints: usize,
}

/// A consistent copy of a network's topology metadata, handed to lint
/// passes. Build one with [`crate::Network::topology_snapshot`].
#[derive(Debug, Clone)]
pub struct TopologySnapshot {
    /// Live channels, in creation order.
    pub channels: Vec<ChannelShape>,
    /// Declared processes, in registration order.
    pub processes: Vec<ProcessShape>,
    /// True when every process added to the network is declared (has a
    /// [`ProcessTag`]). L001 requires this: an opaque process could own any
    /// endpoint invisibly.
    pub fully_declared: bool,
}

impl TopologySnapshot {
    /// Looks up a declared process name by tag id.
    pub fn process_name(&self, id: u64) -> Option<&str> {
        self.processes
            .iter()
            .find(|p| p.id == id)
            .map(|p| p.name.as_str())
    }
}

// ---------------------------------------------------------------------------
// The per-network topology registry
// ---------------------------------------------------------------------------

struct ProcEntry {
    id: u64,
    name: String,
    attachments: Arc<AtomicUsize>,
}

#[derive(Default)]
struct TopoState {
    processes: Vec<ProcEntry>,
    opaque: usize,
}

/// Per-network registry of declared processes. Owned by [`crate::Network`].
/// The other half of a [`TopologySnapshot`] is not kept here: a channel's
/// per-side lint metadata lives in the channel, and the network's channels
/// are found through the one table of live channels (the monitor's).
#[derive(Default)]
pub(crate) struct Topology {
    state: Mutex<TopoState>,
}

impl Topology {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Topology::default())
    }

    pub(crate) fn register_process(&self, tag: Option<&ProcessTag>) {
        let mut st = self.state.lock();
        match tag {
            Some(t) => {
                if !st.processes.iter().any(|p| p.id == t.id) {
                    st.processes.push(ProcEntry {
                        id: t.id,
                        name: t.name.to_string(),
                        attachments: t.attachments.clone(),
                    });
                }
            }
            None => st.opaque += 1,
        }
    }

    /// Builds a snapshot: one look at each of the network's live channels
    /// (`live`, in creation order) and the declared processes.
    pub(crate) fn snapshot(&self, live: &Held) -> TopologySnapshot {
        let channels = live.iter().map(|(id, ch)| {
            let look = ch.look();
            ChannelShape {
                id: *id,
                capacity: look.stats.capacity,
                buffered: look.buffered,
                writer: look.writer,
                reader: look.reader,
            }
        });
        let channels = channels.collect();
        let st = self.state.lock();
        TopologySnapshot {
            channels,
            processes: st
                .processes
                .iter()
                .map(|p| ProcessShape {
                    id: p.id,
                    name: p.name.clone(),
                    endpoints: p.attachments.load(Ordering::Relaxed),
                })
                .collect(),
            fully_declared: st.opaque == 0,
        }
    }
}

/// Applies [`Fix::SetCapacity`] edits to the channels of `live` (sorted by
/// id) they name: each channel grows to at least the suggested capacity
/// (growing is monotone — a channel already at or above the suggestion is
/// left alone, so applying fixes is idempotent). Returns the number of
/// channels that actually grew.
pub(crate) fn apply_fixes(fixes: &[Fix], live: &Held) -> usize {
    let grows = |fix: &&Fix| {
        let Fix::SetCapacity {
            channel, suggested, ..
        } = fix;
        live.binary_search_by_key(channel, |(id, _)| *id)
            .is_ok_and(|at| live[at].1.ensure_capacity(*suggested))
    };
    fixes.iter().filter(grows).count()
}

// ---------------------------------------------------------------------------
// Built-in checks (L001–L004)
// ---------------------------------------------------------------------------

/// What a lint run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintScope {
    /// Pre-start: everything.
    Startup,
    /// After a dynamic reconfiguration: skips L001 (endpoints legitimately
    /// float between processes mid-splice) and restricts L004 to the newly
    /// spawned process (`Some(tag id)`), if it is declared.
    Reconfigure(Option<u64>),
}

fn name_of(snap: &TopologySnapshot, id: Option<u64>) -> Option<String> {
    id.and_then(|p| snap.process_name(p)).map(str::to_owned)
}

/// L001: a channel side that is still [`SideState::Open`] while the peer
/// side is attached to a declared process — that process is guaranteed to
/// stall (reader blocks forever on an unwritten channel; writer blocks
/// forever once the undrained channel fills). Only meaningful when the
/// graph is fully declared; endpoints intentionally driven from outside the
/// network are exempted via `declare_external`.
fn check_dangling(snap: &TopologySnapshot, out: &mut Vec<Diagnostic>) {
    if !snap.fully_declared {
        return;
    }
    for ch in &snap.channels {
        if ch.writer.state == SideState::Open && ch.reader.state == SideState::Attached {
            out.push(Diagnostic {
                code: DiagCode::L001,
                message: format!(
                    "channel {} writer was never moved into a process; \
                     its reader will block forever",
                    ch.id
                ),
                process: name_of(snap, ch.reader.process),
                channel: Some(ch.id),
                fixes: Vec::new(),
            });
        }
        if ch.reader.state == SideState::Open && ch.writer.state == SideState::Attached {
            out.push(Diagnostic {
                code: DiagCode::L001,
                message: format!(
                    "channel {} reader was never moved into a process; \
                     its writer will stall once the channel fills",
                    ch.id
                ),
                process: name_of(snap, ch.writer.process),
                channel: Some(ch.id),
                fixes: Vec::new(),
            });
        }
    }
}

/// L002: both sides declared a stream contract and they disagree — framing
/// (data vs. object) or element type. Raw byte processes declare nothing
/// and are compatible with everything (§3.1's type-independence).
fn check_contracts(snap: &TopologySnapshot, out: &mut Vec<Diagnostic>) {
    for ch in &snap.channels {
        if let (Some(wf), Some(rf)) = (ch.writer.framing, ch.reader.framing) {
            if wf != rf {
                out.push(Diagnostic {
                    code: DiagCode::L002,
                    message: format!(
                        "channel {} framing mismatch: writer uses {wf}, reader expects {rf}",
                        ch.id
                    ),
                    process: name_of(snap, ch.reader.process),
                    channel: Some(ch.id),
                    fixes: Vec::new(),
                });
                continue;
            }
        }
        if let (Some(wt), Some(rt)) = (ch.writer.item_type, ch.reader.item_type) {
            if wt != rt {
                out.push(Diagnostic {
                    code: DiagCode::L002,
                    message: format!(
                        "channel {} element type mismatch: writer produces `{wt}`, \
                         reader expects `{rt}`",
                        ch.id
                    ),
                    process: name_of(snap, ch.reader.process),
                    channel: Some(ch.id),
                    fixes: Vec::new(),
                });
            }
        }
    }
}

/// Strongly connected components of the process graph (iterative Tarjan).
/// Nodes are declared-process tag ids; edges are channels attached on both
/// sides. Returns a component id per node.
fn sccs(nodes: &[u64], edges: &[(u64, u64)]) -> HashMap<u64, usize> {
    let index_of: HashMap<u64, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let n = nodes.len();
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        if let (Some(&ia), Some(&ib)) = (index_of.get(&a), index_of.get(&b)) {
            adj[ia].push(ib);
        }
    }
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    // Iterative Tarjan: (node, next child position) frames.
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                frames.pop();
                if let Some(&mut (p, _)) = frames.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| (node, comp[i]))
        .collect()
}

/// The declared token size of a channel (1-byte tokens when neither side
/// declared an element type — no false positives).
fn token_size(ch: &ChannelShape) -> usize {
    ch.writer
        .item_size
        .or(ch.reader.item_size)
        .unwrap_or(1)
        .max(1)
}

/// L003: a channel on a directed cycle whose capacity (plus any initially
/// buffered bytes) cannot hold even one declared token. Tokens must
/// *circulate* through every channel of a cycle, so such a cycle can make
/// no progress without the monitor growing it — the Hamming Figure 12
/// failure, diagnosed before the network runs. Channels without a declared
/// element type assume 1-byte tokens (no false positives).
///
/// The diagnostic is deterministic and actionable: the cycle's channels
/// are reported in creation order, the message carries the cycle's
/// minimum-capacity sum (one declared token per cycle channel — the least
/// total buffering under which the cycle can circulate at all), and each
/// finding attaches a [`Fix::SetCapacity`] suggesting that sum as the
/// channel's capacity. Without rate declarations the cycle sum is the best
/// static lower bound available; rate-declared regions get the exact
/// schedule-derived bound from the L006 pass instead.
fn check_cycles(snap: &TopologySnapshot, out: &mut Vec<Diagnostic>) {
    let mut nodes: Vec<u64> = Vec::new();
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for ch in &snap.channels {
        if let (Some(w), Some(r)) = (ch.writer.process, ch.reader.process) {
            if !nodes.contains(&w) {
                nodes.push(w);
            }
            if !nodes.contains(&r) {
                nodes.push(r);
            }
            edges.push((w, r));
        }
    }
    if nodes.is_empty() {
        return;
    }
    let comp = sccs(&nodes, &edges);
    // A component is cyclic iff it has an internal edge (covers self-loops
    // and multi-node cycles alike).
    let mut cyclic: Vec<usize> = Vec::new();
    for &(a, b) in &edges {
        if comp[&a] == comp[&b] && !cyclic.contains(&comp[&a]) {
            cyclic.push(comp[&a]);
        }
    }
    // Per cyclic component: its channels in creation order (snapshot order
    // is creation order) and the minimum-capacity sum across them.
    let mut cycle_channels: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut cycle_min_sum: HashMap<usize, usize> = HashMap::new();
    for ch in &snap.channels {
        let (Some(w), Some(r)) = (ch.writer.process, ch.reader.process) else {
            continue;
        };
        if comp[&w] != comp[&r] || !cyclic.contains(&comp[&w]) {
            continue;
        }
        cycle_channels.entry(comp[&w]).or_default().push(ch.id);
        *cycle_min_sum.entry(comp[&w]).or_default() += token_size(ch);
    }
    for ch in &snap.channels {
        let (Some(w), Some(r)) = (ch.writer.process, ch.reader.process) else {
            continue;
        };
        if comp[&w] != comp[&r] || !cyclic.contains(&comp[&w]) {
            continue;
        }
        let token = token_size(ch);
        if ch.capacity + ch.buffered < token {
            let members = &cycle_channels[&comp[&w]];
            let min_sum = cycle_min_sum[&comp[&w]];
            let listed = members
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            out.push(Diagnostic {
                code: DiagCode::L003,
                message: format!(
                    "channel {} lies on a cycle (channels {listed}) but its capacity \
                     ({} bytes) cannot hold one {token}-byte token; the cycle needs at \
                     least {min_sum} bytes of total capacity to circulate without \
                     monitor growth",
                    ch.id, ch.capacity
                ),
                process: name_of(snap, ch.writer.process),
                channel: Some(ch.id),
                fixes: vec![Fix::SetCapacity {
                    channel: ch.id,
                    current: ch.capacity,
                    suggested: min_sum.max(token),
                }],
            });
        }
    }
}

/// L004: a declared process that never held a channel endpoint. A process
/// in a Kahn network communicates *only* through channels (§1), so an
/// endpoint-less process can neither produce nor consume anything.
fn check_orphans(snap: &TopologySnapshot, only: Option<u64>, out: &mut Vec<Diagnostic>) {
    for p in &snap.processes {
        if let Some(id) = only {
            if p.id != id {
                continue;
            }
        }
        if p.endpoints == 0 {
            out.push(Diagnostic {
                code: DiagCode::L004,
                message: format!(
                    "process `{}` holds no channel endpoints; it can neither \
                     produce nor consume data",
                    p.name
                ),
                process: Some(p.name.clone()),
                channel: None,
                fixes: Vec::new(),
            });
        }
    }
}

/// Runs the built-in checks (L001–L004) over a snapshot.
pub fn check_builtin(snap: &TopologySnapshot, scope: LintScope) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    match scope {
        LintScope::Startup => {
            check_dangling(snap, &mut out);
            check_contracts(snap, &mut out);
            check_cycles(snap, &mut out);
            check_orphans(snap, None, &mut out);
        }
        LintScope::Reconfigure(new_process) => {
            check_contracts(snap, &mut out);
            check_cycles(snap, &mut out);
            if new_process.is_some() {
                check_orphans(snap, new_process, &mut out);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Extra passes (kpn-lint's L005 hooks in here)
// ---------------------------------------------------------------------------

/// An additional lint pass over a topology snapshot.
pub type LintPass = dyn Fn(&TopologySnapshot) -> Vec<Diagnostic> + Send + Sync;

static EXTRA_PASSES: Mutex<Vec<Arc<LintPass>>> = Mutex::new(Vec::new());

/// Registers an additional lint pass, run by every network's lint after
/// the built-in checks. Used by `kpn-lint::install()` to add the
/// SDF-delegating L005 without `kpn-core` depending on `kpn-sdf`.
pub fn register_lint_pass(pass: Arc<LintPass>) {
    EXTRA_PASSES.lock().push(pass);
}

/// Runs every registered extra pass.
pub fn run_extra_passes(snap: &TopologySnapshot) -> Vec<Diagnostic> {
    let passes: Vec<Arc<LintPass>> = EXTRA_PASSES.lock().clone();
    let mut out = Vec::new();
    for p in &passes {
        out.extend(p(snap));
    }
    out
}

/// Runs the complete lint: built-in checks plus registered extra passes.
pub fn run_lint(snap: &TopologySnapshot, scope: LintScope) -> Vec<Diagnostic> {
    let mut out = check_builtin(snap, scope);
    out.extend(run_extra_passes(snap));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(state: SideState, process: Option<u64>) -> EndpointShape {
        EndpointShape {
            state,
            process,
            framing: None,
            item_type: None,
            item_size: None,
            rate: None,
        }
    }

    fn chan(id: u64, w: EndpointShape, r: EndpointShape) -> ChannelShape {
        ChannelShape {
            id,
            capacity: 1024,
            buffered: 0,
            writer: w,
            reader: r,
        }
    }

    fn proc_shape(id: u64, name: &str, endpoints: usize) -> ProcessShape {
        ProcessShape {
            id,
            name: name.into(),
            endpoints,
        }
    }

    #[test]
    fn dangling_writer_flagged_only_when_fully_declared() {
        let mut snap = TopologySnapshot {
            channels: vec![chan(
                1,
                shape(SideState::Open, None),
                shape(SideState::Attached, Some(7)),
            )],
            processes: vec![proc_shape(7, "sink", 1)],
            fully_declared: true,
        };
        let diags = check_builtin(&snap, LintScope::Startup);
        assert!(diags.iter().any(|d| d.code == DiagCode::L001));
        snap.fully_declared = false;
        let diags = check_builtin(&snap, LintScope::Startup);
        assert!(!diags.iter().any(|d| d.code == DiagCode::L001));
    }

    #[test]
    fn closed_or_external_sides_are_not_dangling() {
        for st in [SideState::Closed, SideState::External, SideState::Spliced] {
            let snap = TopologySnapshot {
                channels: vec![chan(
                    1,
                    shape(st, None),
                    shape(SideState::Attached, Some(7)),
                )],
                processes: vec![proc_shape(7, "sink", 1)],
                fully_declared: true,
            };
            let diags = check_builtin(&snap, LintScope::Startup);
            assert!(
                !diags.iter().any(|d| d.code == DiagCode::L001),
                "state {st:?} must not be dangling"
            );
        }
    }

    #[test]
    fn reconfigure_scope_skips_dangling() {
        let snap = TopologySnapshot {
            channels: vec![chan(
                1,
                shape(SideState::Open, None),
                shape(SideState::Attached, Some(7)),
            )],
            processes: vec![proc_shape(7, "sink", 1)],
            fully_declared: true,
        };
        let diags = check_builtin(&snap, LintScope::Reconfigure(None));
        assert!(diags.is_empty());
    }

    #[test]
    fn contract_mismatch_requires_both_sides() {
        let mut w = shape(SideState::Attached, Some(1));
        w.item_type = Some("f64");
        w.item_size = Some(8);
        let mut r = shape(SideState::Attached, Some(2));
        r.item_type = Some("i64");
        r.item_size = Some(8);
        let snap = TopologySnapshot {
            channels: vec![chan(1, w.clone(), r)],
            processes: vec![proc_shape(1, "a", 1), proc_shape(2, "b", 1)],
            fully_declared: true,
        };
        let diags = check_builtin(&snap, LintScope::Startup);
        assert!(diags.iter().any(|d| d.code == DiagCode::L002));
        // One-sided declaration: compatible.
        let snap = TopologySnapshot {
            channels: vec![chan(1, w, shape(SideState::Attached, Some(2)))],
            processes: vec![proc_shape(1, "a", 1), proc_shape(2, "b", 1)],
            fully_declared: true,
        };
        assert!(check_builtin(&snap, LintScope::Startup).is_empty());
    }

    #[test]
    fn tiny_cycle_channel_flagged() {
        // 1 -> 2 -> 1, with an 8-byte declared token on a 4-byte channel.
        let mut fwd_w = shape(SideState::Attached, Some(1));
        fwd_w.item_type = Some("i64");
        fwd_w.item_size = Some(8);
        let fwd_r = shape(SideState::Attached, Some(2));
        let mut fwd = chan(10, fwd_w, fwd_r);
        fwd.capacity = 4;
        let back = chan(
            11,
            shape(SideState::Attached, Some(2)),
            shape(SideState::Attached, Some(1)),
        );
        let snap = TopologySnapshot {
            channels: vec![fwd, back],
            processes: vec![proc_shape(1, "a", 2), proc_shape(2, "b", 2)],
            fully_declared: true,
        };
        let diags = check_builtin(&snap, LintScope::Startup);
        let l3: Vec<_> = diags.iter().filter(|d| d.code == DiagCode::L003).collect();
        assert_eq!(l3.len(), 1);
        assert_eq!(l3[0].channel, Some(10));
    }

    #[test]
    fn dag_channels_never_flag_cycles() {
        let mut w = shape(SideState::Attached, Some(1));
        w.item_size = Some(8);
        w.item_type = Some("i64");
        let mut ch = chan(1, w, shape(SideState::Attached, Some(2)));
        ch.capacity = 2; // tiny, but not on a cycle
        let snap = TopologySnapshot {
            channels: vec![ch],
            processes: vec![proc_shape(1, "a", 1), proc_shape(2, "b", 1)],
            fully_declared: true,
        };
        assert!(check_builtin(&snap, LintScope::Startup).is_empty());
    }

    #[test]
    fn orphan_process_flagged() {
        let snap = TopologySnapshot {
            channels: vec![],
            processes: vec![proc_shape(1, "loner", 0)],
            fully_declared: true,
        };
        let diags = check_builtin(&snap, LintScope::Startup);
        assert!(diags.iter().any(|d| d.code == DiagCode::L004));
        // Reconfigure scope: only the new process is checked.
        let diags = check_builtin(&snap, LintScope::Reconfigure(Some(2)));
        assert!(diags.is_empty());
        let diags = check_builtin(&snap, LintScope::Reconfigure(Some(1)));
        assert!(diags.iter().any(|d| d.code == DiagCode::L004));
    }

    #[test]
    fn self_loop_is_cyclic() {
        let mut w = shape(SideState::Attached, Some(1));
        w.item_size = Some(8);
        w.item_type = Some("i64");
        let mut ch = chan(1, w, shape(SideState::Attached, Some(1)));
        ch.capacity = 4;
        let snap = TopologySnapshot {
            channels: vec![ch],
            processes: vec![proc_shape(1, "loop", 2)],
            fully_declared: true,
        };
        let diags = check_builtin(&snap, LintScope::Startup);
        assert!(diags.iter().any(|d| d.code == DiagCode::L003));
    }

    #[test]
    fn diagnostic_display_includes_code_and_names() {
        let d = Diagnostic {
            code: DiagCode::L001,
            message: "writer dangling".into(),
            process: Some("sink".into()),
            channel: Some(3),
            fixes: Vec::new(),
        };
        let s = d.to_string();
        assert!(s.starts_with("L001:"));
        assert!(s.contains("sink"));
        assert!(s.contains("channel 3"));
    }

    #[test]
    fn diagnostic_display_renders_fixes() {
        let d = Diagnostic {
            code: DiagCode::L006,
            message: "below synthesized capacity".into(),
            process: None,
            channel: Some(4),
            fixes: vec![Fix::SetCapacity {
                channel: 4,
                current: 8,
                suggested: 32,
            }],
        };
        let s = d.to_string();
        assert!(s.contains("fix:"), "{s}");
        assert!(s.contains("8 → 32"), "{s}");
        assert!(DiagCode::L006.is_advisory());
        assert!(!DiagCode::L003.is_advisory());
    }

    #[test]
    fn cycle_message_lists_channels_in_creation_order_with_min_sum() {
        // 1 -> 2 -> 1 over channels 11 (declared 8-byte) and 10 (opaque,
        // 1-byte tokens): min sum = 8 + 1 = 9 bytes; the listing follows
        // snapshot (creation) order regardless of ids.
        let mut fwd_w = shape(SideState::Attached, Some(1));
        fwd_w.item_type = Some("i64");
        fwd_w.item_size = Some(8);
        let mut fwd = chan(11, fwd_w, shape(SideState::Attached, Some(2)));
        fwd.capacity = 4;
        let back = chan(
            10,
            shape(SideState::Attached, Some(2)),
            shape(SideState::Attached, Some(1)),
        );
        let snap = TopologySnapshot {
            channels: vec![fwd, back],
            processes: vec![proc_shape(1, "a", 2), proc_shape(2, "b", 2)],
            fully_declared: true,
        };
        let diags = check_builtin(&snap, LintScope::Startup);
        let l3: Vec<_> = diags.iter().filter(|d| d.code == DiagCode::L003).collect();
        assert_eq!(l3.len(), 1);
        assert!(l3[0].message.contains("channels 11, 10"), "{}", l3[0].message);
        assert!(l3[0].message.contains("at least 9 bytes"), "{}", l3[0].message);
        assert_eq!(
            l3[0].fixes,
            vec![Fix::SetCapacity {
                channel: 11,
                current: 4,
                suggested: 9,
            }]
        );
    }

    #[test]
    fn lint_level_parses_kpn_lint_values() {
        assert_eq!(LintLevel::parse("off"), LintLevel::Off);
        assert_eq!(LintLevel::parse("0"), LintLevel::Off);
        assert_eq!(LintLevel::parse(" DENY "), LintLevel::Deny);
        assert_eq!(LintLevel::parse("warn"), LintLevel::Warn);
        assert_eq!(LintLevel::parse("bogus"), LintLevel::Warn);
    }
}
