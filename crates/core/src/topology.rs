//! Static topology capture and the network lint (L001–L006).
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
//! [`run_lint`] checks it before [`crate::Network::start`] and
//! incrementally after every dynamic reconfiguration.
//!
//! The lint is one pass over one graph model built per run: L001 dangling
//! endpoint, L002 typed-stream contract mismatch, L003 undercapacitated
//! cycle, L004 orphan process, and, over every rate-declared region, L005
//! (the [`crate::sdf`] balance equations and initial tokens) and the
//! advisory L006 with its synthesized capacity fixes. Every network runs
//! all six; nothing is registered or installed. The `kpn-lint` crate adds
//! a checker and CLI for distributed graph specs before deployment.
//!
//! Everything here is *advisory metadata*: declaring an endpoint's owner,
//! stream framing, element type, or token rate never changes runtime
//! behaviour — it only sharpens what the lint pass can prove. Undeclared
//! (opaque) endpoints and processes are treated as compatible with
//! everything, so partially-declared graphs produce no false positives.

use crate::monitor::Held;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

mod lint;
pub use lint::run_lint;

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

/// Stable diagnostic codes emitted by the lint.
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
    /// SDF-checkable subgraph: the declared rates of a region admit no
    /// repetition vector, or its initial tokens cannot carry one period
    /// (the [`crate::sdf`] analysis, run over every rate-declared region).
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

/// A machine-applicable edit synthesized by the lint. Fixes ride on
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
// Snapshot types the lint reads
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

/// A consistent copy of a network's topology metadata, handed to
/// [`run_lint`]. Build one with [`crate::Network::topology_snapshot`].
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
    /// Ids of `processes`, for the dedup at registration.
    known: HashSet<u64>,
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
                if st.known.insert(t.id) {
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
// The lint (L001–L006, in `lint.rs`)
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
        let diags = run_lint(&snap, LintScope::Startup);
        assert!(diags.iter().any(|d| d.code == DiagCode::L001));
        snap.fully_declared = false;
        let diags = run_lint(&snap, LintScope::Startup);
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
            let diags = run_lint(&snap, LintScope::Startup);
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
        let diags = run_lint(&snap, LintScope::Reconfigure(None));
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
        let diags = run_lint(&snap, LintScope::Startup);
        assert!(diags.iter().any(|d| d.code == DiagCode::L002));
        // One-sided declaration: compatible.
        let snap = TopologySnapshot {
            channels: vec![chan(1, w, shape(SideState::Attached, Some(2)))],
            processes: vec![proc_shape(1, "a", 1), proc_shape(2, "b", 1)],
            fully_declared: true,
        };
        assert!(run_lint(&snap, LintScope::Startup).is_empty());
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
        let diags = run_lint(&snap, LintScope::Startup);
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
        assert!(run_lint(&snap, LintScope::Startup).is_empty());
    }

    #[test]
    fn orphan_process_flagged() {
        let snap = TopologySnapshot {
            channels: vec![],
            processes: vec![proc_shape(1, "loner", 0)],
            fully_declared: true,
        };
        let diags = run_lint(&snap, LintScope::Startup);
        assert!(diags.iter().any(|d| d.code == DiagCode::L004));
        // Reconfigure scope: only the new process is checked.
        let diags = run_lint(&snap, LintScope::Reconfigure(Some(2)));
        assert!(diags.is_empty());
        let diags = run_lint(&snap, LintScope::Reconfigure(Some(1)));
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
        let diags = run_lint(&snap, LintScope::Startup);
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
        let diags = run_lint(&snap, LintScope::Startup);
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
