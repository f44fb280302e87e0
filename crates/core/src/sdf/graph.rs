//! SDF graph structure and the balance equations.

use std::fmt;

/// Identifies an actor in an [`SdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActorId(pub(crate) usize);

impl ActorId {
    /// The actor's position in creation order (the index into a
    /// repetition vector).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies an edge in an [`SdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub(crate) usize);

/// Errors from SDF analysis.
#[derive(Debug, PartialEq, Eq)]
pub enum SdfError {
    /// The balance equations have no positive solution: tokens would
    /// accumulate or starve on some edge no matter the schedule.
    Inconsistent {
        /// The edge whose balance equation failed.
        edge: EdgeId,
    },
    /// The graph is consistent but cannot complete one period from its
    /// initial tokens: it needs more delays.
    Deadlocked {
        /// Actors that still owed firings when progress stopped.
        stuck: Vec<ActorId>,
    },
    /// Graph construction error (dangling actor, zero rate, …).
    Malformed(String),
    /// The graph is disconnected; repetition vectors are only meaningful
    /// per connected component.
    Disconnected,
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::Inconsistent { edge } => {
                write!(f, "inconsistent rates on edge {}", edge.0)
            }
            SdfError::Deadlocked { stuck } => {
                write!(f, "insufficient initial tokens; stuck actors: {stuck:?}")
            }
            SdfError::Malformed(m) => write!(f, "malformed graph: {m}"),
            SdfError::Disconnected => write!(f, "graph is not connected"),
        }
    }
}

impl std::error::Error for SdfError {}

/// One edge of an [`SdfGraph`], as declared.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Producing actor's index.
    pub from: usize,
    /// Consuming actor's index.
    pub to: usize,
    /// Tokens produced per firing of `from`.
    pub prod: u64,
    /// Tokens consumed per firing of `to`.
    pub cons: u64,
    /// Initial tokens (delays) on the edge.
    pub delays: u64,
}

/// A synchronous dataflow graph: actors with fixed per-firing token rates.
#[derive(Debug, Default)]
pub struct SdfGraph {
    pub(crate) names: Vec<String>,
    pub(crate) edges: Vec<Edge>,
}

impl SdfGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an actor.
    pub fn actor(&mut self, name: impl Into<String>) -> ActorId {
        self.names.push(name.into());
        ActorId(self.names.len() - 1)
    }

    /// Connects `from` to `to`: each firing of `from` produces `prod`
    /// tokens, each firing of `to` consumes `cons`.
    pub fn edge(&mut self, from: ActorId, to: ActorId, prod: u64, cons: u64) -> EdgeId {
        self.edge_with_delays(from, to, prod, cons, 0)
    }

    /// Like [`SdfGraph::edge`] with `delays` initial tokens — the classic
    /// mechanism for breaking feedback-loop deadlocks.
    pub fn edge_with_delays(
        &mut self,
        from: ActorId,
        to: ActorId,
        prod: u64,
        cons: u64,
        delays: u64,
    ) -> EdgeId {
        self.edges.push(Edge {
            from: from.0,
            to: to.0,
            prod,
            cons,
            delays,
        });
        EdgeId(self.edges.len() - 1)
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.names.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Every actor, in creation order.
    pub fn actors(&self) -> impl Iterator<Item = ActorId> {
        (0..self.names.len()).map(ActorId)
    }

    /// Every edge, in creation order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Actor name.
    pub fn name(&self, a: ActorId) -> &str {
        &self.names[a.0]
    }

    fn validate(&self) -> Result<(), SdfError> {
        if self.names.is_empty() {
            return Err(SdfError::Malformed("no actors".into()));
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.prod == 0 || e.cons == 0 {
                return Err(SdfError::Malformed(format!("edge {i} has a zero rate")));
            }
            if e.from >= self.names.len() || e.to >= self.names.len() {
                return Err(SdfError::Malformed(format!(
                    "edge {i} references a missing actor"
                )));
            }
        }
        Ok(())
    }

    /// Solves the balance equations, returning the minimal positive
    /// repetition vector `q`: firing every actor `q[a]` times returns
    /// every edge to its initial token count.
    pub fn repetition_vector(&self) -> Result<Vec<u64>, SdfError> {
        self.validate()?;
        let n = self.names.len();
        // Propagate rational firing ratios over the (undirected) graph:
        // q[to]/q[from] = prod/cons for each edge.
        // Store q[a] as a fraction num/den; normalize at the end.
        let mut num = vec![0u64; n];
        let mut den = vec![0u64; n];
        let mut visited = vec![false; n];
        num[0] = 1;
        den[0] = 1;
        visited[0] = true;
        // Each actor's edges, in creation order.
        let mut incident = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            incident[e.from].push(i);
            if e.to != e.from {
                incident[e.to].push(i);
            }
        }
        let mut frontier = vec![0usize];
        while let Some(a) = frontier.pop() {
            for e in incident[a].iter().map(|&i| &self.edges[i]) {
                let (b, ratio_num, ratio_den) = if e.from == a {
                    // q[to] = q[from] * prod / cons
                    (e.to, e.prod, e.cons)
                } else {
                    // q[from] = q[to] * cons / prod
                    (e.from, e.cons, e.prod)
                };
                // Consistency is verified for every edge below.
                if !visited[b] {
                    let num_b = num[a].checked_mul(ratio_num).ok_or_else(too_large)?;
                    let den_b = den[a].checked_mul(ratio_den).ok_or_else(too_large)?;
                    (num[b], den[b]) = reduce(num_b, den_b);
                    visited[b] = true;
                    frontier.push(b);
                }
            }
        }
        if visited.iter().any(|v| !v) {
            return Err(SdfError::Disconnected);
        }
        // Check every balance equation against the computed ratios.
        let side = |x: u64, rate: u64, y: u64| (x as u128 * rate as u128).checked_mul(y as u128);
        for (i, e) in self.edges.iter().enumerate() {
            // q[from] * prod == q[to] * cons  (as fractions)
            let lhs = side(num[e.from], e.prod, den[e.to]).ok_or_else(too_large)?;
            let rhs = side(num[e.to], e.cons, den[e.from]).ok_or_else(too_large)?;
            if lhs != rhs {
                return Err(SdfError::Inconsistent { edge: EdgeId(i) });
            }
        }
        // Scale all fractions to the smallest integer vector.
        let mut l = 1u64;
        for &d in &den {
            l = (l / gcd(l, d)).checked_mul(d).ok_or_else(too_large)?;
        }
        let mut q = (0..n)
            .map(|a| num[a].checked_mul(l / den[a]).ok_or_else(too_large))
            .collect::<Result<Vec<u64>, _>>()?;
        let g = q.iter().fold(0u64, |acc, &v| gcd(acc, v));
        if g > 1 {
            for v in &mut q {
                *v /= g;
            }
        }
        Ok(q)
    }
}

pub(crate) fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Rates whose repetition vector does not fit in `u64` (a long multirate
/// chain, say) are refused rather than wrapped into a wrong vector.
fn too_large() -> SdfError {
    SdfError::Malformed("the repetition vector overflows u64".into())
}

fn reduce(n: u64, d: u64) -> (u64, u64) {
    let g = gcd(n, d).max(1);
    (n / g, d / g)
}

#[cfg(test)]
pub(crate) fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_repetition_vector() {
        // a -2/3-> b -3/2-> c : q = [3, 2, 3]
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        let c = g.actor("c");
        g.edge(a, b, 2, 3);
        g.edge(b, c, 3, 2);
        assert_eq!(g.repetition_vector().unwrap(), vec![3, 2, 3]);
    }

    #[test]
    fn homogeneous_graph_is_all_ones() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        let c = g.actor("c");
        g.edge(a, b, 1, 1);
        g.edge(b, c, 1, 1);
        assert_eq!(g.repetition_vector().unwrap(), vec![1, 1, 1]);
    }

    #[test]
    fn classic_sample_rate_converter() {
        // The 44.1 kHz → 48 kHz style chain, scaled down: 3/2 then 7/5.
        let mut g = SdfGraph::new();
        let src = g.actor("src");
        let up = g.actor("up");
        let down = g.actor("down");
        g.edge(src, up, 2, 3);
        g.edge(up, down, 7, 5);
        let q = g.repetition_vector().unwrap();
        // q[src]*2 = q[up]*3 ; q[up]*7 = q[down]*5
        assert_eq!(q[0] * 2, q[1] * 3);
        assert_eq!(q[1] * 7, q[2] * 5);
        // Minimality: gcd = 1.
        let g0 = q.iter().fold(0, |acc, &v| super::gcd(acc, v));
        assert_eq!(g0, 1);
    }

    #[test]
    fn inconsistent_graph_detected() {
        // Triangle with incompatible rates: a->b 1:1, b->c 1:1, a->c 2:1.
        // q[a]=q[b]=q[c] from the first two edges, but the third needs
        // q[a]*2 == q[c].
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        let c = g.actor("c");
        g.edge(a, b, 1, 1);
        g.edge(b, c, 1, 1);
        g.edge(a, c, 2, 1);
        // Either of the two conflicting edges may be reported, depending
        // on propagation order.
        assert!(matches!(
            g.repetition_vector(),
            Err(SdfError::Inconsistent { .. })
        ));
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        let c = g.actor("c");
        let d = g.actor("d");
        g.edge(a, b, 1, 1);
        g.edge(c, d, 1, 1);
        assert_eq!(g.repetition_vector(), Err(SdfError::Disconnected));
    }

    #[test]
    fn zero_rate_rejected() {
        let mut g = SdfGraph::new();
        let a = g.actor("a");
        let b = g.actor("b");
        g.edge(a, b, 0, 1);
        assert!(matches!(g.repetition_vector(), Err(SdfError::Malformed(_))));
    }

    #[test]
    fn empty_graph_rejected() {
        let g = SdfGraph::new();
        assert!(matches!(g.repetition_vector(), Err(SdfError::Malformed(_))));
    }

    #[test]
    fn gcd_lcm_helpers() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 5), 0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any tree of positive rates is consistent (each non-root
            /// actor hangs off a random earlier actor), and the computed
            /// vector satisfies every balance equation exactly.
            #[test]
            fn trees_always_balance(
                edges in proptest::collection::vec((0usize..6, 1u64..20, 1u64..20), 1..8),
            ) {
                let mut g = SdfGraph::new();
                let mut actors = vec![g.actor("a0")];
                let mut specs = Vec::new();
                for (i, (parent, p, c)) in edges.iter().enumerate() {
                    let parent = actors[parent % actors.len()];
                    let child = g.actor(format!("a{}", i + 1));
                    actors.push(child);
                    specs.push((g.edge(parent, child, *p, *c), *p, *c));
                }
                let q = g.repetition_vector().unwrap();
                for (e, p, c) in specs {
                    let from = g.edges[e.0].from;
                    let to = g.edges[e.0].to;
                    prop_assert_eq!(
                        q[from] as u128 * p as u128,
                        q[to] as u128 * c as u128
                    );
                }
                let g0 = q.iter().fold(0, |acc, &v| gcd(acc, v));
                prop_assert_eq!(g0, 1, "vector must be minimal");
            }

            /// Any chain of positive rates is consistent, and the computed
            /// vector satisfies every balance equation exactly.
            #[test]
            fn chains_always_balance(rates in proptest::collection::vec((1u64..30, 1u64..30), 1..8)) {
                let mut g = SdfGraph::new();
                let mut prev = g.actor("a0");
                let mut edges = Vec::new();
                for (i, (p, c)) in rates.iter().enumerate() {
                    let next = g.actor(format!("a{}", i + 1));
                    edges.push((g.edge(prev, next, *p, *c), *p, *c));
                    prev = next;
                }
                let q = g.repetition_vector().unwrap();
                for (e, p, c) in edges {
                    let from = g.edges[e.0].from;
                    let to = g.edges[e.0].to;
                    prop_assert_eq!(q[from] as u128 * p as u128, q[to] as u128 * c as u128);
                }
                let g0 = q.iter().fold(0, |acc, &v| gcd(acc, v));
                prop_assert_eq!(g0, 1, "vector must be minimal");
            }
        }
    }
}
