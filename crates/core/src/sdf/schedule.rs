//! PASS construction: a periodic admissible sequential schedule, per-edge
//! buffer bounds, and deadlock detection.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use super::graph::{ActorId, SdfError, SdfGraph};

/// The most firings a schedule simulates: a longer period (a long
/// multirate chain, say) is refused as [`SdfError::Malformed`] rather than
/// simulated one firing at a time.
const MAX_PERIOD: u64 = 1 << 20;

/// Topological depth over the delay-free subgraph (edges carrying initial
/// tokens are feedback and excluded): the longest delay-free path from a
/// source, in topological order. An actor on a delay-free cycle keeps the
/// depth it had when the order ran out; such a graph cannot complete a
/// period under any order, so its depths choose nothing. Drives the eager
/// deepest-first firing preference that keeps computed buffer bounds tight.
fn dataflow_depth(graph: &SdfGraph) -> Vec<usize> {
    let n = graph.actor_count();
    let (mut pending, mut next) = (vec![0usize; n], vec![Vec::new(); n]);
    for e in graph
        .edges
        .iter()
        .filter(|e| e.delays == 0 && e.from != e.to)
    {
        pending[e.to] += 1;
        next[e.from].push(e.to);
    }
    let mut d = vec![0usize; n];
    let mut order: Vec<usize> = (0..n).filter(|&a| pending[a] == 0).collect();
    while let Some(a) = order.pop() {
        for &b in &next[a] {
            d[b] = d[b].max(d[a] + 1);
            pending[b] -= 1;
            if pending[b] == 0 {
                order.push(b);
            }
        }
    }
    d
}

/// The minimal safe capacity (in **tokens**) for every edge, in creation
/// order: the per-edge peak occupancy of the eager deepest-first periodic
/// schedule. Channels sized to these bounds provably sustain unbounded
/// periodic execution without ever growing — [`Schedule::build_bounded`]
/// always succeeds with them. Errors propagate from schedule construction
/// (inconsistent rates, insufficient initial tokens).
pub fn minimal_capacities(graph: &SdfGraph) -> Result<Vec<u64>, SdfError> {
    Ok(Schedule::build(graph)?.edge_bounds)
}

/// A periodic admissible sequential schedule for one period of an SDF
/// graph, plus the exact buffer bound for every edge.
#[derive(Debug)]
pub struct Schedule {
    /// Actor firing order for one period.
    pub firings: Vec<ActorId>,
    /// Repetition vector (total firings per actor per period).
    pub repetitions: Vec<u64>,
    /// Maximum token occupancy per edge during the period — a channel
    /// capacity that provably suffices for unbounded execution.
    pub edge_bounds: Vec<u64>,
}

impl Schedule {
    /// Builds a schedule for the graph, or reports
    /// [`SdfError::Deadlocked`] when the initial tokens cannot carry the
    /// graph through one period. A period of more than 2²⁰ firings is not
    /// simulated: it is reported as [`SdfError::Malformed`].
    ///
    /// Strategy: repeatedly fire an eligible actor (still owes firings,
    /// enough tokens on every input), preferring the actor *deepest* in
    /// the dataflow (longest delay-free path from the sources, ties:
    /// lowest index). Draining downstream work before producing more
    /// upstream keeps the computed buffer bounds tight; SDF theory
    /// guarantees that if *any* eager order completes the period, every
    /// eager order does, so the preference never causes a false deadlock.
    pub fn build(graph: &SdfGraph) -> Result<Schedule, SdfError> {
        Self::eager(graph, None)
    }

    /// Builds a schedule that respects per-edge capacity limits (in
    /// **tokens**, one entry per edge in creation order): an actor is only
    /// eligible when every output edge has room for its production burst.
    /// Errors with [`SdfError::Deadlocked`] when the capacities wedge the
    /// period — the static prediction of the runtime's artificial
    /// deadlock — and [`SdfError::Malformed`] when `capacities` does not
    /// match the edge count.
    ///
    /// The same eager deepest-first policy as [`Schedule::build`] drives
    /// the simulation, so success proves the capacities sufficient for
    /// unbounded periodic execution. Failure is a conservative verdict:
    /// eager orders are not provably optimal under capacity constraints,
    /// so a failing assignment is *suspect*, and the cure is the bound
    /// reported by [`minimal_capacities`], which this builder always
    /// accepts.
    pub fn build_bounded(graph: &SdfGraph, capacities: &[u64]) -> Result<Schedule, SdfError> {
        if capacities.len() != graph.edges.len() {
            return Err(SdfError::Malformed(format!(
                "expected {} capacities, got {}",
                graph.edges.len(),
                capacities.len()
            )));
        }
        Self::eager(graph, Some(capacities))
    }

    /// One period of the eager deepest-first policy, with room for each
    /// production burst required only when `capacities` are given. Firing
    /// an actor changes the eligibility of that actor and its neighbours
    /// only, so only those are re-checked: a firing costs its neighbours'
    /// degrees, not the whole graph.
    fn eager(graph: &SdfGraph, capacities: Option<&[u64]>) -> Result<Schedule, SdfError> {
        let q = graph.repetition_vector()?;
        let n = graph.actor_count();
        let (mut inputs, mut outputs) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for (i, e) in graph.edges.iter().enumerate() {
            inputs[e.to].push(i);
            outputs[e.from].push(i);
        }
        let total = q
            .iter()
            .try_fold(0u64, |sum, &x| sum.checked_add(x))
            .filter(|&total| total <= MAX_PERIOD)
            .ok_or_else(|| {
                SdfError::Malformed(format!("one period takes over {MAX_PERIOD} firings"))
            })?;
        let mut remaining: Vec<u64> = q.clone();
        let mut tokens: Vec<u64> = graph.edges.iter().map(|e| e.delays).collect();
        let mut bounds: Vec<u64> = tokens.clone();
        let mut firings = Vec::with_capacity(total as usize);

        // Enough tokens on every input, and room for the production burst;
        // a self-loop consumes before it produces.
        let can_fire = |a: usize, tokens: &[u64], remaining: &[u64]| -> bool {
            remaining[a] > 0
                && inputs[a].iter().all(|&i| tokens[i] >= graph.edges[i].cons)
                && capacities.is_none_or(|c| {
                    outputs[a].iter().all(|&i| {
                        let e = &graph.edges[i];
                        let consumed = if e.to == a { e.cons } else { 0 };
                        tokens[i] - consumed + e.prod <= c[i]
                    })
                })
        };
        let depth = dataflow_depth(graph);
        let key = |a: usize| (Reverse(depth[a]), a);
        let mut ready: BTreeSet<(Reverse<usize>, usize)> = (0..n)
            .filter(|&a| can_fire(a, &tokens, &remaining))
            .map(key)
            .collect();
        while let Some((_, a)) = ready.pop_first() {
            // Fire actor a: consume then produce.
            for &i in &inputs[a] {
                tokens[i] -= graph.edges[i].cons;
            }
            for &i in &outputs[a] {
                tokens[i] += graph.edges[i].prod;
                bounds[i] = bounds[i].max(tokens[i]);
            }
            remaining[a] -= 1;
            firings.push(ActorId(a));
            let consumers = outputs[a].iter().map(|&i| graph.edges[i].to);
            let producers = inputs[a].iter().map(|&i| graph.edges[i].from);
            for b in std::iter::once(a).chain(consumers).chain(producers) {
                if can_fire(b, &tokens, &remaining) {
                    ready.insert(key(b));
                } else {
                    ready.remove(&key(b));
                }
            }
        }
        if firings.len() < total as usize {
            let stuck = (0..n).filter(|&a| remaining[a] > 0).map(ActorId).collect();
            return Err(SdfError::Deadlocked { stuck });
        }
        // One period must return every edge to its initial token count —
        // the defining property of the repetition vector.
        for (i, e) in graph.edges.iter().enumerate() {
            debug_assert_eq!(tokens[i], e.delays, "edge {i} not balanced");
        }
        Ok(Schedule {
            firings,
            repetitions: q,
            edge_bounds: bounds,
        })
    }

    /// Channel capacities (in **tokens**) sufficient for unbounded
    /// periodic execution.
    pub fn channel_capacities(&self) -> &[u64] {
        &self.edge_bounds
    }

    /// Total firings in one period.
    pub fn period_length(&self) -> usize {
        self.firings.len()
    }

    /// Compresses the firing sequence into looped-schedule notation, the
    /// form SDF compilers emit — e.g. `(2 (2 src) up) (3 down)`. Adjacent
    /// repetitions collapse into loops greedily at increasing window
    /// sizes; the result always expands back to exactly
    /// [`Schedule::firings`].
    pub fn looped(&self, graph: &SdfGraph) -> String {
        #[derive(Clone, PartialEq)]
        enum Item {
            Fire(usize),
            Loop(u64, Vec<Item>),
        }
        fn render(items: &[Item], graph: &SdfGraph, out: &mut String) {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                match item {
                    Item::Fire(a) => out.push_str(graph.name(ActorId(*a))),
                    Item::Loop(n, body) => {
                        out.push('(');
                        out.push_str(&n.to_string());
                        out.push(' ');
                        render(body, graph, out);
                        out.push(')');
                    }
                }
            }
        }
        // Greedy pass: collapse repeats of windows of size 1..=4, smallest
        // window first, repeated until no change.
        let mut items: Vec<Item> = self.firings.iter().map(|a| Item::Fire(a.0)).collect();
        loop {
            let mut changed = false;
            for w in 1..=4usize {
                let mut out: Vec<Item> = Vec::with_capacity(items.len());
                let mut i = 0;
                while i < items.len() {
                    if i + w <= items.len() {
                        let window = &items[i..i + w];
                        let mut reps = 1u64;
                        while i + (reps as usize + 1) * w <= items.len()
                            && items[i + reps as usize * w..i + (reps as usize + 1) * w] == *window
                        {
                            reps += 1;
                        }
                        if reps > 1 {
                            out.push(Item::Loop(reps, window.to_vec()));
                            i += reps as usize * w;
                            changed = true;
                            continue;
                        }
                    }
                    out.push(items[i].clone());
                    i += 1;
                }
                items = out;
            }
            if !changed {
                break;
            }
        }
        let mut s = String::new();
        render(&items, graph, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_schedule_completes() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge(a, b, 2, 3);
        let s = Schedule::build(&g).unwrap();
        assert_eq!(s.repetitions, vec![3, 2]);
        assert_eq!(s.period_length(), 5);
        // Eager lowest-index order: a a b a b (b fires as soon as 3 ready
        // after two a-firings... a=2,4 tokens: a a -> 4 >= 3 -> b, a -> 3 -> b)
        assert_eq!(s.firings, vec![a, a, b, a, b]);
        // Peak tokens on the edge: after a a = 4.
        assert_eq!(s.edge_bounds, vec![4]);
    }

    #[test]
    fn feedback_loop_needs_delays() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge(a, b, 1, 1);
        g.edge(b, a, 1, 1); // no delays: classic deadlock
        assert!(matches!(
            Schedule::build(&g),
            Err(SdfError::Deadlocked { .. })
        ));
    }

    #[test]
    fn feedback_loop_with_delay_schedules() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge(a, b, 1, 1);
        g.edge_with_delays(b, a, 1, 1, 1);
        let s = Schedule::build(&g).unwrap();
        assert_eq!(s.repetitions, vec![1, 1]);
        assert_eq!(s.firings, vec![a, b]);
    }

    #[test]
    fn multirate_bounds_are_tight() {
        // a -3/1-> b : q = [1, 3]; peak = 3 after one a-firing.
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge(a, b, 3, 1);
        let s = Schedule::build(&g).unwrap();
        assert_eq!(s.edge_bounds, vec![3]);
        // Downsampler: a -1/3-> b : q = [3, 1]; peak = 3.
        let mut g2 = SdfGraph::new();
        let a2 = g2.actor("a");
        let b2 = g2.actor("b");
        g2.edge(a2, b2, 1, 3);
        let s2 = Schedule::build(&g2).unwrap();
        assert_eq!(s2.edge_bounds, vec![3]);
    }

    #[test]
    fn diamond_graph_schedules() {
        //      ┌-> b ─┐        all rates 1; q = [1,1,1,1]
        //  a ──┤      ├──> d
        //      └-> c ─┘
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        let c = g.actor("c");
        let d = g.actor("d");
        g.edge(a, b, 1, 1);
        g.edge(a, c, 1, 1);
        g.edge(b, d, 1, 1);
        g.edge(c, d, 1, 1);
        let s = Schedule::build(&g).unwrap();
        assert_eq!(s.repetitions, vec![1, 1, 1, 1]);
        assert_eq!(s.period_length(), 4);
        assert!(s.edge_bounds.iter().all(|&b| b == 1));
    }

    #[test]
    fn delays_count_toward_bounds() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge_with_delays(a, b, 1, 1, 5);
        let s = Schedule::build(&g).unwrap();
        assert!(s.edge_bounds[0] >= 5);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every consistent chain schedules, fires each actor exactly
            /// q times, and its bounds are at least the largest single
            /// production burst.
            #[test]
            fn chains_always_schedule(rates in proptest::collection::vec((1u64..8, 1u64..8), 1..6)) {
                let mut g = SdfGraph::new();
                let mut prev = g.actor("a0");
                for (i, (p, c)) in rates.iter().enumerate() {
                    let next = g.actor(format!("a{}", i + 1));
                    g.edge(prev, next, *p, *c);
                    prev = next;
                }
                let s = Schedule::build(&g).unwrap();
                // Count firings per actor.
                let mut counts = vec![0u64; g.actor_count()];
                for f in &s.firings {
                    counts[f.0] += 1;
                }
                prop_assert_eq!(counts, s.repetitions.clone());
                for (i, (p, _)) in rates.iter().enumerate() {
                    prop_assert!(s.edge_bounds[i] >= *p);
                }
            }
        }
    }

    #[test]
    fn bounded_schedule_accepts_minimal_capacities() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge(a, b, 2, 3);
        let caps = minimal_capacities(&g).unwrap();
        assert_eq!(caps, vec![4]);
        let s = Schedule::build_bounded(&g, &caps).unwrap();
        assert_eq!(s.period_length(), 5);
        assert!(s.edge_bounds[0] <= caps[0]);
        let _ = (a, b);
    }

    #[test]
    fn bounded_schedule_rejects_capacity_below_burst() {
        // Producer bursts 3 tokens per firing: a 2-token channel can never
        // accept a firing, the static analogue of an artificial deadlock.
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge(a, b, 3, 1);
        assert!(matches!(
            Schedule::build_bounded(&g, &[2]),
            Err(SdfError::Deadlocked { .. })
        ));
        // 3 tokens of room suffice (fire a, drain with three b firings).
        let s = Schedule::build_bounded(&g, &[3]).unwrap();
        assert_eq!(s.repetitions, vec![1, 3]);
        let _ = (a, b);
    }

    #[test]
    fn bounded_schedule_handles_self_loop_room() {
        // Self-loop 1/1 with one delay: each firing consumes before it
        // produces, so a 1-token capacity is enough.
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        g.edge_with_delays(a, a, 1, 1, 1);
        let s = Schedule::build_bounded(&g, &[1]).unwrap();
        assert_eq!(s.firings, vec![a]);
    }

    #[test]
    fn bounded_schedule_validates_capacity_count() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge(a, b, 1, 1);
        assert!(matches!(
            Schedule::build_bounded(&g, &[]),
            Err(SdfError::Malformed(_))
        ));
        let _ = (a, b);
    }

    #[test]
    fn looped_schedule_compresses_repeats() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge(a, b, 1, 1);
        let s = Schedule::build(&g).unwrap();
        // q = [1,1]: schedule "a b" has nothing to compress.
        assert_eq!(s.looped(&g), "a b");

        let mut g2 = SdfGraph::new();
        let a2 = g2.actor("a");
        let b2 = g2.actor("b");
        g2.edge(a2, b2, 1, 3);
        let s2 = Schedule::build(&g2).unwrap();
        // q = [3,1]: "a a a b" → "(3 a) b".
        assert_eq!(s2.looped(&g2), "(3 a) b");
    }

    #[test]
    fn looped_schedule_nests_windows() {
        // a -1/1-> b with rates forcing alternation: q=[2,2] over 1:1 is
        // "a b a b" → "(2 a b)".
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        let c = g.actor("c");
        g.edge(a, b, 1, 1);
        g.edge(b, c, 2, 1);
        // q: q_a = q_b; q_b*2 = q_c → q = [1,1,2]
        let s = Schedule::build(&g).unwrap();
        let text = s.looped(&g);
        // Any valid compression of the firing sequence is acceptable; it
        // must at least mention every actor and use a loop for c.
        assert!(text.contains('a') && text.contains('b'), "{text}");
        assert!(
            text.contains("(2 c)") || text.matches('c').count() == 1,
            "{text}"
        );
    }
}
