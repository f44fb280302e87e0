//! The lint: one model of a snapshot's process graph, and every check over
//! it (L001–L006).
//!
//! [`run_lint`] builds one [`GraphModel`] per run — declared processes as
//! node indices, every live channel as an edge carrying both of its side
//! shapes — and each check reads it: the dangling-endpoint, contract and
//! orphan checks walk it, the L003 cycle check finds its strongly
//! connected components, and the SDF check (L005, L006) lifts its
//! rate-declared regions into [`crate::sdf`] graphs. Capacity synthesis
//! (`NetworkConfig::synthesize_capacities`) applies the fixes the same run
//! attaches.

use std::collections::HashMap;

use super::{ChannelShape, DiagCode, Diagnostic, Fix, LintScope, SideState, TopologySnapshot};
use crate::sdf::graph::{ActorId, SdfError, SdfGraph};
use crate::sdf::schedule::Schedule;

/// Marks a node with no entry in a per-node table.
const NONE: usize = usize::MAX;

/// One channel of the model: both of its side shapes, and the node each
/// side is attached to, when it names a process.
struct Edge<'s> {
    ch: &'s ChannelShape,
    from: Option<usize>,
    to: Option<usize>,
}

/// The process graph of one snapshot. Nodes are indices: the declared
/// processes in registration order, then any tag id that only a channel
/// side names. Edges are every live channel, in creation order.
struct GraphModel<'s> {
    snap: &'s TopologySnapshot,
    /// Each node's declared name (`None` for a tag with no process).
    names: Vec<Option<&'s str>>,
    edges: Vec<Edge<'s>>,
}

impl<'s> GraphModel<'s> {
    fn new(snap: &'s TopologySnapshot) -> Self {
        let mut index: HashMap<u64, usize> = HashMap::with_capacity(snap.processes.len());
        let mut names = Vec::with_capacity(snap.processes.len());
        let mut node = |id: u64, name: Option<&'s str>| {
            *index.entry(id).or_insert_with(|| {
                names.push(name);
                names.len() - 1
            })
        };
        for p in &snap.processes {
            node(p.id, Some(p.name.as_str()));
        }
        let edges = snap
            .channels
            .iter()
            .map(|ch| Edge {
                ch,
                from: ch.writer.process.map(|id| node(id, None)),
                to: ch.reader.process.map(|id| node(id, None)),
            })
            .collect();
        GraphModel { snap, names, edges }
    }

    fn name(&self, node: Option<usize>) -> Option<String> {
        node.and_then(|n| self.names[n]).map(str::to_owned)
    }

    /// The channels with a process on both sides, as `(edge, from, to)`.
    fn linked(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| Some((i, e.from?, e.to?)))
    }

    /// Strongly connected components over the linked channels (iterative
    /// Tarjan): a component id per node.
    fn sccs(&self) -> Vec<usize> {
        let n = self.names.len();
        let mut adj = vec![Vec::new(); n];
        for (_, a, b) in self.linked() {
            adj[a].push(b);
        }
        let mut index = vec![NONE; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack = Vec::new();
        let mut comp = vec![NONE; n];
        let (mut next_index, mut next_comp) = (0, 0);
        // (node, next child position) frames.
        for root in 0..n {
            if index[root] != NONE {
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
                if let Some(&w) = adj[v].get(*ci) {
                    *ci += 1;
                    if index[w] == NONE {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
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
        comp
    }
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

/// L001: a channel side that is still [`SideState::Open`] while the peer
/// side is attached to a declared process — that process is guaranteed to
/// stall (reader blocks forever on an unwritten channel; writer blocks
/// forever once the undrained channel fills). Only meaningful when the
/// graph is fully declared; endpoints intentionally driven from outside the
/// network are exempted via `declare_external`.
fn check_dangling(m: &GraphModel, out: &mut Vec<Diagnostic>) {
    if !m.snap.fully_declared {
        return;
    }
    for e in &m.edges {
        let (w, r) = (e.ch.writer.state, e.ch.reader.state);
        let finding = match (w, r) {
            (SideState::Open, SideState::Attached) => Some((
                "writer was never moved into a process; its reader will block forever",
                e.to,
            )),
            (SideState::Attached, SideState::Open) => Some((
                "reader was never moved into a process; its writer will stall once the \
                 channel fills",
                e.from,
            )),
            _ => None,
        };
        if let Some((what, peer)) = finding {
            out.push(Diagnostic {
                code: DiagCode::L001,
                message: format!("channel {} {what}", e.ch.id),
                process: m.name(peer),
                channel: Some(e.ch.id),
                fixes: Vec::new(),
            });
        }
    }
}

/// L002: both sides declared a stream contract and they disagree — framing
/// (data vs. object) or element type. Raw byte processes declare nothing
/// and are compatible with everything (§3.1's type-independence).
fn check_contracts(m: &GraphModel, out: &mut Vec<Diagnostic>) {
    for e in &m.edges {
        let (w, r, id) = (&e.ch.writer, &e.ch.reader, e.ch.id);
        let message = match (w.framing, r.framing, w.item_type, r.item_type) {
            (Some(wf), Some(rf), ..) if wf != rf => {
                format!("channel {id} framing mismatch: writer uses {wf}, reader expects {rf}")
            }
            (.., Some(wt), Some(rt)) if wt != rt => format!(
                "channel {id} element type mismatch: writer produces `{wt}`, reader expects `{rt}`"
            ),
            _ => continue,
        };
        out.push(Diagnostic {
            code: DiagCode::L002,
            message,
            process: m.name(e.to),
            channel: Some(id),
            fixes: Vec::new(),
        });
    }
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
/// schedule-derived bound from L006 instead.
fn check_cycles(m: &GraphModel, out: &mut Vec<Diagnostic>) {
    let short = |ch: &ChannelShape| ch.capacity + ch.buffered < token_size(ch);
    // Only a channel too small for one token can be a finding, so a graph
    // without one needs no components.
    if !m.linked().any(|(i, ..)| short(m.edges[i].ch)) {
        return;
    }
    let comp = m.sccs();
    // A channel between two nodes of one component lies on a cycle (this
    // covers self-loops too). Per component: those channels in creation
    // order, and their minimum-capacity sum.
    let mut members: Vec<Vec<u64>> = vec![Vec::new(); m.names.len()];
    let mut min_sum = vec![0usize; m.names.len()];
    let cyclic = || m.linked().filter(|&(_, a, b)| comp[a] == comp[b]);
    for (i, a, _) in cyclic() {
        members[comp[a]].push(m.edges[i].ch.id);
        min_sum[comp[a]] += token_size(m.edges[i].ch);
    }
    for (i, a, _) in cyclic() {
        let ch = m.edges[i].ch;
        if !short(ch) {
            continue;
        }
        let token = token_size(ch);
        let listed = members[comp[a]]
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let min_sum = min_sum[comp[a]];
        out.push(Diagnostic {
            code: DiagCode::L003,
            message: format!(
                "channel {} lies on a cycle (channels {listed}) but its capacity \
                 ({} bytes) cannot hold one {token}-byte token; the cycle needs at \
                 least {min_sum} bytes of total capacity to circulate without \
                 monitor growth",
                ch.id, ch.capacity
            ),
            process: m.name(Some(a)),
            channel: Some(ch.id),
            fixes: vec![Fix::SetCapacity {
                channel: ch.id,
                current: ch.capacity,
                suggested: min_sum.max(token),
            }],
        });
    }
}

/// L004: a declared process that never held a channel endpoint. A process
/// in a Kahn network communicates *only* through channels (§1), so an
/// endpoint-less process can neither produce nor consume anything.
/// After a reconfiguration only the newly spawned process is checked.
fn check_orphans(m: &GraphModel, scope: LintScope, out: &mut Vec<Diagnostic>) {
    let only = match scope {
        LintScope::Startup => None,
        LintScope::Reconfigure(None) => return,
        LintScope::Reconfigure(new_process) => new_process,
    };
    for p in &m.snap.processes {
        if p.endpoints == 0 && only.is_none_or(|id| id == p.id) {
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

/// The declared `(producer, consumer)` rates of a linked channel whose two
/// sides both declared one: such a channel is SDF-checkable.
fn rates(e: &Edge) -> Option<(usize, usize, u64, u64)> {
    Some((e.from?, e.to?, e.ch.writer.rate?, e.ch.reader.rate?))
}

/// L005 and L006: every SDF-checkable region of the graph against the
/// balance equations and its current capacities against the synthesized
/// schedule bounds. A region is a connected subgraph of channels whose
/// endpoints *both* declared per-firing rates; processes with
/// data-dependent consumption (`Modulo`, `Sift`, `Guard`, merges) declare
/// no rates and transparently break regions apart, so only genuinely
/// synchronous subgraphs are analysed.
fn check_sdf(m: &GraphModel, out: &mut Vec<Diagnostic>) {
    if !m.edges.iter().any(|e| rates(e).is_some()) {
        return;
    }
    // Union-find over nodes, then one region per root, ordered by its
    // first channel.
    let mut parent: Vec<usize> = (0..m.names.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (a, b, ..) in m.edges.iter().filter_map(rates) {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        parent[ra] = rb;
    }
    let mut region_of = vec![NONE; m.names.len()];
    let mut regions: Vec<Vec<usize>> = Vec::new();
    for (i, e) in m.edges.iter().enumerate() {
        if let Some((a, ..)) = rates(e) {
            let root = find(&mut parent, a);
            if region_of[root] == NONE {
                region_of[root] = regions.len();
                regions.push(Vec::new());
            }
            regions[region_of[root]].push(i);
        }
    }
    let mut actor_of = vec![NONE; m.names.len()];
    for region in regions {
        check_region(m, &region, &mut actor_of, out);
    }
}

/// Checks one SDF region: rate consistency and initial-token sufficiency
/// report as L005; a region whose *current* capacities cannot carry one
/// period reports L006 per undersized channel, each carrying the
/// synthesized [`Fix::SetCapacity`]. `actor_of` is a per-node scratch
/// table, all [`NONE`] on entry and on return.
///
/// Applying the fixes is safe by construction: a Kahn process cannot
/// observe its channels' capacities, so growing them never changes any
/// channel history; it only removes the artificial deadlocks Parks'
/// monitor would otherwise resolve at run time. Nothing is suggested for
/// what cannot be proved: a region that fails to schedule gets no fix, and
/// a graph that rewires itself is synthesized only for its startup
/// topology.
fn check_region(
    m: &GraphModel,
    region: &[usize],
    actor_of: &mut [usize],
    out: &mut Vec<Diagnostic>,
) {
    // Lift the region: actors in first-seen order, one SDF edge per
    // channel; initial tokens are the bytes already buffered, in units of
    // the declared element size.
    let mut graph = SdfGraph::new();
    let mut nodes = Vec::new();
    for &i in region {
        let e = &m.edges[i];
        let (from, to, prod, cons) = rates(e).expect("region channels are rated");
        for node in [from, to] {
            if actor_of[node] == NONE {
                actor_of[node] = nodes.len();
                nodes.push(node);
                graph.actor(m.names[node].unwrap_or("?"));
            }
        }
        let delays = (e.ch.buffered / token_size(e.ch)) as u64;
        let (a, b) = (ActorId(actor_of[from]), ActorId(actor_of[to]));
        graph.edge_with_delays(a, b, prod, cons, delays);
    }
    for &node in &nodes {
        actor_of[node] = NONE;
    }
    let schedule = match Schedule::build(&graph) {
        Ok(schedule) => schedule,
        Err(SdfError::Inconsistent { edge }) => {
            let e = &m.edges[region[edge.0]];
            let (.., prod, cons) = rates(e).expect("region channels are rated");
            out.push(Diagnostic {
                code: DiagCode::L005,
                message: format!(
                    "SDF balance equations are inconsistent at channel {}: declared \
                     rates {prod}→{cons} admit no repetition vector; tokens accumulate \
                     or starve under every schedule",
                    e.ch.id,
                ),
                process: m.name(e.from),
                channel: Some(e.ch.id),
                fixes: Vec::new(),
            });
            return;
        }
        Err(SdfError::Deadlocked { stuck }) => {
            let names: Vec<&str> = stuck
                .iter()
                .filter_map(|a| m.names[nodes[a.index()]])
                .collect();
            out.push(Diagnostic {
                code: DiagCode::L005,
                message: format!(
                    "SDF region is rate-consistent but cannot complete one period from \
                     its initial tokens; stuck actors: {}",
                    if names.is_empty() {
                        "?".to_string()
                    } else {
                        names.join(", ")
                    }
                ),
                process: names.first().map(|s| s.to_string()),
                channel: None,
                fixes: Vec::new(),
            });
            return;
        }
        // Malformed regions (zero rates) are declaration errors we cannot
        // attribute; Disconnected cannot occur — regions are connected by
        // construction.
        Err(_) => return,
    };
    // Verify the *current* capacities with a bounded simulation: one
    // channel can legitimately sit below the eager schedule's peak if
    // another order fits, so undersizing is only reported when no
    // capacity-respecting eager period completes.
    let caps: Vec<u64> = region
        .iter()
        .map(|&i| (m.edges[i].ch.capacity / token_size(m.edges[i].ch)) as u64)
        .collect();
    if Schedule::build_bounded(&graph, &caps).is_ok() {
        return;
    }
    for (&i, &need) in region.iter().zip(schedule.channel_capacities()) {
        let (e, token) = (&m.edges[i], token_size(m.edges[i].ch));
        let need_bytes = (need as usize).saturating_mul(token);
        if e.ch.capacity < need_bytes {
            out.push(Diagnostic {
                code: DiagCode::L006,
                message: format!(
                    "static region runs below synthesized capacity: channel {} \
                     holds {} bytes but the periodic schedule needs {need_bytes} \
                     ({need} tokens of {token} bytes); until resized the region \
                     falls back to runtime deadlock-detect-and-grow",
                    e.ch.id, e.ch.capacity
                ),
                process: m.name(e.from),
                channel: Some(e.ch.id),
                fixes: vec![Fix::SetCapacity {
                    channel: e.ch.id,
                    current: e.ch.capacity,
                    suggested: need_bytes,
                }],
            });
        }
    }
}

/// Runs the lint over a snapshot: one graph model, then L001–L006.
/// [`LintScope::Reconfigure`] skips L001 and restricts L004 to the newly
/// spawned process.
pub fn run_lint(snap: &TopologySnapshot, scope: LintScope) -> Vec<Diagnostic> {
    let m = GraphModel::new(snap);
    let mut out = Vec::new();
    if scope == LintScope::Startup {
        check_dangling(&m, &mut out);
    }
    check_contracts(&m, &mut out);
    check_cycles(&m, &mut out);
    check_orphans(&m, scope, &mut out);
    check_sdf(&m, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{EndpointShape, ProcessShape};

    fn endpoint(process: u64, rate: Option<u64>) -> EndpointShape {
        EndpointShape {
            state: SideState::Attached,
            process: Some(process),
            framing: None,
            item_type: None,
            item_size: Some(8),
            rate,
        }
    }

    fn channel(
        id: u64,
        capacity: usize,
        from: (u64, Option<u64>),
        to: (u64, Option<u64>),
    ) -> ChannelShape {
        ChannelShape {
            id,
            capacity,
            buffered: 0,
            writer: endpoint(from.0, from.1),
            reader: endpoint(to.0, to.1),
        }
    }

    /// Every process an edge names, declared as `p{id}`.
    fn snapshot(channels: Vec<ChannelShape>) -> TopologySnapshot {
        let mut ids: Vec<u64> = channels
            .iter()
            .flat_map(|c| [c.writer.process, c.reader.process])
            .flatten()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let processes = ids
            .into_iter()
            .map(|id| ProcessShape {
                id,
                name: format!("p{id}"),
                endpoints: 2,
            })
            .collect();
        TopologySnapshot {
            channels,
            processes,
            fully_declared: true,
        }
    }

    fn lint(channels: Vec<ChannelShape>) -> Vec<Diagnostic> {
        run_lint(&snapshot(channels), LintScope::Startup)
    }

    fn fixes(diags: &[Diagnostic]) -> Vec<Fix> {
        diags.iter().flat_map(|d| d.fixes.clone()).collect()
    }

    #[test]
    fn consistent_rates_pass() {
        assert!(lint(vec![channel(0, 64, (1, Some(1)), (2, Some(1)))]).is_empty());
    }

    #[test]
    fn inconsistent_rates_flagged() {
        // a -2-> b -2-> a with 1-token consumption forms an inconsistent
        // loop: every firing of each actor doubles the tokens in flight.
        let diags = lint(vec![
            channel(0, 64, (1, Some(2)), (2, Some(1))),
            channel(1, 64, (2, Some(2)), (1, Some(1))),
        ]);
        let l005: Vec<_> = diags.iter().filter(|d| d.code == DiagCode::L005).collect();
        assert_eq!(l005.len(), 1, "{diags:?}");
        assert!(l005[0].message.contains("rates 2→1"), "{}", l005[0].message);
        assert!(fixes(&diags).is_empty(), "nothing sound to suggest");
    }

    #[test]
    fn undeclared_rate_breaks_region() {
        // The middle process declares no rates, so the two channels are
        // independent single-edge regions and both check out.
        let diags = lint(vec![
            channel(0, 64, (1, Some(2)), (2, None)),
            channel(1, 64, (2, None), (3, Some(1))),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn undersized_channel_reports_exact_capacity() {
        // Producer emits 4 tokens per firing into a 8-byte channel: one
        // period needs 4 × 8 = 32 bytes. The finding is the advisory L006
        // with the synthesized size attached as a machine-applicable fix.
        let diags = lint(vec![channel(0, 8, (1, Some(4)), (2, Some(4)))]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::L006);
        assert!(diags[0].message.contains("32"), "{}", diags[0].message);
        assert_eq!(diags[0].process.as_deref(), Some("p1"));
        assert_eq!(
            diags[0].fixes,
            vec![Fix::SetCapacity {
                channel: 0,
                current: 8,
                suggested: 32,
            }]
        );
    }

    #[test]
    fn adequately_sized_burst_region_is_clean() {
        assert!(lint(vec![channel(0, 32, (1, Some(4)), (2, Some(4)))]).is_empty());
    }

    #[test]
    fn single_token_capacity_suffices_for_rate_one_chain() {
        // Every capacity holds exactly one token: a rate-1 chain fires
        // alternately and never needs more, so no fix even though the
        // eager unbounded peak equals the capacity.
        let diags = lint(vec![
            channel(0, 8, (1, Some(1)), (2, Some(1))),
            channel(1, 8, (2, Some(1)), (3, Some(1))),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn feedback_without_initial_tokens_flagged() {
        // A rate-consistent loop with no initial tokens cannot fire at all.
        let diags = lint(vec![
            channel(0, 64, (1, Some(1)), (2, Some(1))),
            channel(1, 64, (2, Some(1)), (1, Some(1))),
        ]);
        assert!(
            diags.iter().any(|d| d.code == DiagCode::L005
                && d.message.contains("initial tokens")
                && d.message.contains("p1, p2")),
            "expected initial-token L005, got {diags:?}"
        );
    }

    #[test]
    fn feedback_with_initial_tokens_passes() {
        let mut loop_back = channel(1, 64, (2, Some(1)), (1, Some(1)));
        loop_back.buffered = 8; // one 8-byte token of delay
        let diags = lint(vec![channel(0, 64, (1, Some(1)), (2, Some(1))), loop_back]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn regions_report_in_first_channel_order() {
        // Two disjoint bursts; the region whose first channel came first
        // reports first, whatever the tag ids.
        let diags = lint(vec![
            channel(5, 8, (9, Some(4)), (8, Some(4))),
            channel(6, 8, (1, Some(2)), (2, Some(2))),
        ]);
        let channels: Vec<_> = diags.iter().map(|d| d.channel).collect();
        assert_eq!(channels, vec![Some(5), Some(6)], "{diags:?}");
    }

    #[test]
    fn sdf_runs_at_reconfigure_scope_too() {
        let snap = snapshot(vec![channel(0, 8, (1, Some(4)), (2, Some(4)))]);
        let diags = run_lint(&snap, LintScope::Reconfigure(None));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::L006);
    }

    #[test]
    fn a_long_multirate_chain_is_refused_not_simulated() {
        // Each stage fires twice per firing of the one before: 30 stages
        // make a period of 2³⁰ firings, 70 a repetition vector past u64.
        // Neither can be proved or refuted here, so neither reports.
        for stages in [30, 70] {
            let chain = (0..stages)
                .map(|i| channel(i, 64, (i, Some(2)), (i + 1, Some(1))))
                .collect();
            let diags = lint(chain);
            assert!(diags.is_empty(), "{stages} stages: {diags:?}");
        }
    }

    #[test]
    fn a_side_naming_an_undeclared_tag_is_a_nameless_node() {
        // Tag 3 owns the writer but is not among the declared processes:
        // the model still links the channel, and the finding has no name.
        let mut snap = snapshot(vec![channel(0, 4, (3, None), (3, None))]);
        snap.processes.clear();
        let diags = run_lint(&snap, LintScope::Startup);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, DiagCode::L003);
        assert_eq!(diags[0].process, None);
    }
}
