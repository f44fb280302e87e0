//! Undirected communication topologies for distributed algorithms.
//!
//! A [`DistGraph`] is a simple undirected graph over nodes `0..n`. Nodes
//! become KPN processes and each edge becomes a *pair* of byte channels
//! (one per direction), so the graph is the network topology in the
//! port-numbering model: node `v`'s ports are its incident edges in
//! insertion order, and every port knows the reverse port on the far side.
//!
//! Topologies come from the generators ([`ring`], [`path`], [`grid`],
//! [`random_regular`], [`random_bipartite_regular`]) or from Graphviz DOT
//! text ([`DistGraph::from_dot`] / [`DistGraph::to_dot`]): the supported
//! subset is `graph name { a -- b; c; }` with nonnegative-integer node
//! ids, which round-trips exactly (same name, node count, and edge
//! order).

use kpn_core::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt::Write as _;

/// A simple undirected graph over nodes `0..n`, with insertion-ordered
/// edges (the edge order *is* the port numbering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistGraph {
    name: String,
    n: usize,
    edges: Vec<(usize, usize)>,
    seen: HashSet<(usize, usize)>,
}

impl DistGraph {
    /// An edgeless graph over `n` nodes.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        DistGraph {
            name: name.into(),
            n,
            edges: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Graph name (used as the DOT graph id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Edges in insertion order, exactly as added.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Adds the undirected edge `{u, v}`. Self-loops, duplicate edges
    /// (in either orientation) and out-of-range endpoints are rejected —
    /// the topology must stay a simple graph for port numbering to be
    /// well defined.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<()> {
        if u >= self.n || v >= self.n {
            return Err(Error::Graph(format!(
                "edge {u} -- {v} out of range for {} nodes",
                self.n
            )));
        }
        if u == v {
            return Err(Error::Graph(format!("self-loop {u} -- {v} rejected")));
        }
        let key = (u.min(v), u.max(v));
        if !self.seen.insert(key) {
            return Err(Error::Graph(format!("duplicate edge {u} -- {v}")));
        }
        self.edges.push((u, v));
        Ok(())
    }

    /// True when `{u, v}` is an edge (either orientation).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.seen.contains(&(u.min(v), u.max(v)))
    }

    /// Per-node adjacency in port order: `adj[v][p]` is
    /// `(neighbor, reverse_port)` — the node on the far end of `v`'s port
    /// `p`, and the port on *that* node which leads back to `v`.
    pub fn adjacency(&self) -> Vec<Vec<(usize, usize)>> {
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.n];
        for &(u, v) in &self.edges {
            let pu = adj[u].len();
            let pv = adj[v].len();
            adj[u].push((v, pv));
            adj[v].push((u, pu));
        }
        adj
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.edges
            .iter()
            .filter(|&&(a, b)| a == v || b == v)
            .count()
    }

    /// Maximum degree Δ over all nodes (0 for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        deg.into_iter().max().unwrap_or(0)
    }

    /// 2-colors the graph by BFS: `Ok(colors)` with `colors[v] ∈ {0, 1}`
    /// (component roots are colored 0), or `Err` naming an odd cycle edge
    /// when the graph is not bipartite.
    pub fn bipartition(&self) -> Result<Vec<u64>> {
        let adj = self.adjacency();
        let mut color = vec![u64::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        for root in 0..self.n {
            if color[root] != u64::MAX {
                continue;
            }
            color[root] = 0;
            queue.push_back(root);
            while let Some(v) = queue.pop_front() {
                for &(u, _) in &adj[v] {
                    if color[u] == u64::MAX {
                        color[u] = 1 - color[v];
                        queue.push_back(u);
                    } else if color[u] == color[v] {
                        return Err(Error::Graph(format!(
                            "graph {} is not bipartite: edge {v} -- {u} closes an odd cycle",
                            self.name
                        )));
                    }
                }
            }
        }
        Ok(color)
    }

    /// Serializes to Graphviz DOT. Isolated nodes are emitted as bare
    /// node statements so the node count survives the round trip;
    /// [`DistGraph::from_dot`] of the result reproduces this graph
    /// exactly (name, `n`, edge order).
    pub fn to_dot(&self) -> String {
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u] += 1;
            deg[v] += 1;
        }
        let id_ok = !self.name.is_empty()
            && !self.name.chars().next().unwrap().is_ascii_digit()
            && self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_');
        let mut out = String::new();
        if id_ok {
            let _ = writeln!(out, "graph {} {{", self.name);
        } else {
            let quoted = self.name.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(out, "graph \"{quoted}\" {{");
        }
        for (v, &d) in deg.iter().enumerate() {
            if d == 0 {
                let _ = writeln!(out, "  {v};");
            }
        }
        for &(u, v) in &self.edges {
            let _ = writeln!(out, "  {u} -- {v};");
        }
        out.push_str("}\n");
        out
    }

    /// Parses the DOT subset written by [`DistGraph::to_dot`]:
    /// `graph name { ... }` bodies of `a -- b;` edge statements (chains
    /// `a -- b -- c;` expand to consecutive edges) and bare `a;` node
    /// statements, node ids being nonnegative integers. `digraph` is
    /// rejected — topologies are undirected; direction is synthesized
    /// per edge when the network is built. The ids named must be exactly
    /// `0..n`, as `to_dot` names them, so `n` is bounded by the text: a
    /// gap or a huge id is an error, not a graph of unnamed nodes.
    pub fn from_dot(text: &str) -> Result<DistGraph> {
        let tokens = dot_tokens(text)?;
        let mut it = tokens.into_iter().peekable();
        match it.next() {
            Some(DotToken::Id(kw)) if kw == "graph" => {}
            Some(DotToken::Id(kw)) if kw == "digraph" => {
                return Err(Error::Graph(
                    "digraph rejected: topologies are undirected (use `graph`)".into(),
                ))
            }
            other => {
                return Err(Error::Graph(format!(
                    "expected `graph`, found {other:?}"
                )))
            }
        }
        let name = match it.peek() {
            Some(DotToken::Id(_)) => match it.next() {
                Some(DotToken::Id(s)) => s,
                _ => unreachable!(),
            },
            _ => String::new(),
        };
        match it.next() {
            Some(DotToken::OpenBrace) => {}
            other => return Err(Error::Graph(format!("expected `{{`, found {other:?}"))),
        }
        let mut named: Vec<usize> = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        loop {
            match it.next() {
                Some(DotToken::CloseBrace) => break,
                Some(DotToken::Semicolon) => continue,
                Some(DotToken::Id(id)) => {
                    let mut prev = parse_node(&id)?;
                    named.push(prev);
                    while let Some(DotToken::Edge) = it.peek() {
                        it.next();
                        let next = match it.next() {
                            Some(DotToken::Id(id)) => parse_node(&id)?,
                            other => {
                                return Err(Error::Graph(format!(
                                    "expected node id after `--`, found {other:?}"
                                )))
                            }
                        };
                        named.push(next);
                        edges.push((prev, next));
                        prev = next;
                    }
                }
                other => {
                    return Err(Error::Graph(format!(
                        "unexpected token in graph body: {other:?}"
                    )))
                }
            }
        }
        if it.next().is_some() {
            return Err(Error::Graph("trailing tokens after closing `}`".into()));
        }
        named.sort_unstable();
        named.dedup();
        let n = named.len();
        if let Some(&max) = named.last().filter(|&&max| max != n - 1) {
            return Err(Error::Graph(format!(
                "node ids must be exactly 0..{n}, found {max} among {n} distinct ids"
            )));
        }
        let mut g = DistGraph::new(name, n);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }
}

#[derive(Debug, PartialEq)]
enum DotToken {
    Id(String),
    Edge,
    OpenBrace,
    CloseBrace,
    Semicolon,
}

fn dot_tokens(text: &str) -> Result<Vec<DotToken>> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '{' => {
                chars.next();
                out.push(DotToken::OpenBrace);
            }
            '}' => {
                chars.next();
                out.push(DotToken::CloseBrace);
            }
            ';' => {
                chars.next();
                out.push(DotToken::Semicolon);
            }
            '-' => {
                chars.next();
                match chars.next() {
                    Some('-') => out.push(DotToken::Edge),
                    other => {
                        return Err(Error::Graph(format!(
                            "expected `--`, found `-{}`",
                            other.map(String::from).unwrap_or_default()
                        )))
                    }
                }
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => {
                            if let Some(e) = chars.next() {
                                s.push(e);
                            }
                        }
                        Some(c) => s.push(c),
                        None => return Err(Error::Graph("unterminated string".into())),
                    }
                }
                out.push(DotToken::Id(s));
            }
            '/' => {
                // `//` line comment.
                chars.next();
                match chars.next() {
                    Some('/') => {
                        for c in chars.by_ref() {
                            if c == '\n' {
                                break;
                            }
                        }
                    }
                    other => {
                        return Err(Error::Graph(format!(
                            "unexpected `/{}`",
                            other.map(String::from).unwrap_or_default()
                        )))
                    }
                }
            }
            c if c.is_ascii_alphanumeric() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(DotToken::Id(s));
            }
            other => return Err(Error::Graph(format!("unexpected character `{other}`"))),
        }
    }
    Ok(out)
}

fn parse_node(id: &str) -> Result<usize> {
    id.parse::<usize>()
        .map_err(|_| Error::Graph(format!("node id `{id}` is not a nonnegative integer")))
}

/// A cycle `0 — 1 — … — n-1 — 0`. Needs `n ≥ 3` (a 2-ring would be a
/// duplicate edge).
pub fn ring(n: usize) -> Result<DistGraph> {
    if n < 3 {
        return Err(Error::Graph(format!("ring needs n >= 3, got {n}")));
    }
    let mut g = DistGraph::new(format!("ring{n}"), n);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n)?;
    }
    Ok(g)
}

/// A path `0 — 1 — … — n-1`. Needs `n ≥ 2`.
pub fn path(n: usize) -> Result<DistGraph> {
    if n < 2 {
        return Err(Error::Graph(format!("path needs n >= 2, got {n}")));
    }
    let mut g = DistGraph::new(format!("path{n}"), n);
    for v in 0..n - 1 {
        g.add_edge(v, v + 1)?;
    }
    Ok(g)
}

/// A `w × h` king-less grid (4-neighborhood): node `r·w + c` connects
/// right and down. Needs at least two nodes so none is isolated.
pub fn grid(w: usize, h: usize) -> Result<DistGraph> {
    if w * h < 2 {
        return Err(Error::Graph(format!("grid needs w*h >= 2, got {w}x{h}")));
    }
    let mut g = DistGraph::new(format!("grid{w}x{h}"), w * h);
    for r in 0..h {
        for c in 0..w {
            let v = r * w + c;
            if c + 1 < w {
                g.add_edge(v, v + 1)?;
            }
            if r + 1 < h {
                g.add_edge(v, v + w)?;
            }
        }
    }
    Ok(g)
}

/// How many whole-graph retries the rejection-sampling generators make
/// before giving up. The pairing model keeps a constant acceptance
/// probability for fixed small `d`, so this bound is generous.
const GEN_ATTEMPTS: usize = 1000;

/// A uniform-ish random `d`-regular simple graph on `n` nodes via the
/// pairing model with rejection: `d·n` stubs are shuffled and paired;
/// pairings with self-loops or duplicate edges are redrawn whole.
/// Practical for small `d` (acceptance ≈ `e^{-(d²-1)/4}`); errs after
/// a fixed number of redraws. Needs `n·d` even and `d < n`.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<DistGraph> {
    if d == 0 || d >= n {
        return Err(Error::Graph(format!(
            "random_regular needs 0 < d < n, got d={d} n={n}"
        )));
    }
    if !(n * d).is_multiple_of(2) {
        return Err(Error::Graph(format!(
            "random_regular needs n*d even, got n={n} d={d}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    'attempt: for _ in 0..GEN_ATTEMPTS {
        shuffle(&mut stubs, &mut rng);
        let mut g = DistGraph::new(format!("regular{n}d{d}"), n);
        for pair in stubs.chunks_exact(2) {
            if g.add_edge(pair[0], pair[1]).is_err() {
                continue 'attempt;
            }
        }
        return Ok(g);
    }
    Err(Error::Graph(format!(
        "random_regular(n={n}, d={d}): no simple pairing after {GEN_ATTEMPTS} redraws \
         (d too large for rejection sampling)"
    )))
}

/// A random bipartite `d`-regular simple graph: sides `0..n/2` and
/// `n/2..n`, built as the union of `d` random perfect matchings between
/// the sides (redrawn whole when two matchings collide on an edge).
/// Needs `n` even and `1 ≤ d ≤ n/2`. Always bipartite, so it is the
/// random input family for bipartite maximal matching.
pub fn random_bipartite_regular(n: usize, d: usize, seed: u64) -> Result<DistGraph> {
    if n < 2 || !n.is_multiple_of(2) {
        return Err(Error::Graph(format!(
            "random_bipartite_regular needs even n >= 2, got {n}"
        )));
    }
    let half = n / 2;
    if d == 0 || d > half {
        return Err(Error::Graph(format!(
            "random_bipartite_regular needs 0 < d <= n/2, got d={d} n={n}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..half).collect();
    'attempt: for _ in 0..GEN_ATTEMPTS {
        let mut g = DistGraph::new(format!("bipartite{n}d{d}"), n);
        for _ in 0..d {
            shuffle(&mut perm, &mut rng);
            for (i, &p) in perm.iter().enumerate() {
                if g.add_edge(i, half + p).is_err() {
                    continue 'attempt;
                }
            }
        }
        return Ok(g);
    }
    Err(Error::Graph(format!(
        "random_bipartite_regular(n={n}, d={d}): matchings kept colliding after \
         {GEN_ATTEMPTS} redraws"
    )))
}

/// Seeded Fisher–Yates over the vendored `rand` subset.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_below((i + 1) as u64) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quoted_name_survives_a_round_trip() {
        for name in ["a\\b", "a\"b", "\\\"", "tail\\"] {
            let g = DistGraph::new(name, 2);
            assert_eq!(DistGraph::from_dot(&g.to_dot()).unwrap(), g, "{name:?}");
        }
    }

    #[test]
    fn adjacency_ports_are_mutual() {
        let g = ring(5).unwrap();
        let adj = g.adjacency();
        for (v, ports) in adj.iter().enumerate() {
            for (p, &(u, back)) in ports.iter().enumerate() {
                assert_eq!(adj[u][back], (v, p), "port {p} of {v} not mutual");
            }
        }
    }

    #[test]
    fn generators_have_expected_shape() {
        let g = grid(4, 3).unwrap();
        assert_eq!(g.n(), 12);
        assert_eq!(g.edges().len(), 3 * 3 + 4 * 2); // horizontal + vertical
        assert_eq!(g.max_degree(), 4);

        let r = random_regular(20, 3, 7).unwrap();
        assert_eq!(r.n(), 20);
        assert_eq!(r.edges().len(), 30);
        for v in 0..20 {
            assert_eq!(r.degree(v), 3);
        }

        let b = random_bipartite_regular(20, 3, 7).unwrap();
        for v in 0..20 {
            assert_eq!(b.degree(v), 3);
        }
        let colors = b.bipartition().unwrap();
        for &(u, v) in b.edges() {
            assert_ne!(colors[u], colors[v]);
        }
    }

    #[test]
    fn seeded_generators_are_reproducible() {
        assert_eq!(
            random_regular(30, 3, 42).unwrap(),
            random_regular(30, 3, 42).unwrap()
        );
        assert_ne!(
            random_regular(30, 3, 42).unwrap().edges(),
            random_regular(30, 3, 43).unwrap().edges()
        );
    }

    #[test]
    fn odd_cycle_is_not_bipartite() {
        let g = ring(5).unwrap();
        assert!(g.bipartition().is_err());
        let g = ring(6).unwrap();
        assert!(g.bipartition().is_ok());
    }

    #[test]
    fn simple_graph_invariants_enforced() {
        let mut g = DistGraph::new("g", 3);
        g.add_edge(0, 1).unwrap();
        assert!(g.add_edge(1, 1).is_err(), "self-loop");
        assert!(g.add_edge(1, 0).is_err(), "reverse duplicate");
        assert!(g.add_edge(0, 3).is_err(), "out of range");
    }

    #[test]
    fn dot_round_trips_exactly() {
        for g in [
            ring(6).unwrap(),
            path(2).unwrap(),
            grid(3, 3).unwrap(),
            random_regular(12, 3, 9).unwrap(),
        ] {
            let dot = g.to_dot();
            let back = DistGraph::from_dot(&dot).unwrap();
            assert_eq!(back, g, "round trip changed the graph:\n{dot}");
        }
    }

    #[test]
    fn dot_isolated_nodes_survive() {
        let mut g = DistGraph::new("iso", 4);
        g.add_edge(0, 2).unwrap();
        // Nodes 1 and 3 are isolated; they must appear as bare statements.
        let dot = g.to_dot();
        assert!(dot.contains("1;") && dot.contains("3;"), "{dot}");
        assert_eq!(DistGraph::from_dot(&dot).unwrap(), g);
    }

    #[test]
    fn dot_rejects_digraph_and_garbage() {
        assert!(DistGraph::from_dot("digraph g { 0 -> 1; }").is_err());
        assert!(DistGraph::from_dot("graph g { 0 -- x; }").is_err());
        assert!(DistGraph::from_dot("graph g { 0 -- 0; }").is_err());
        assert!(DistGraph::from_dot("graph g { 0 -- 1 }").is_ok(), "no semicolon ok");
    }

    #[test]
    fn dot_rejects_ids_that_are_not_exactly_zero_to_n() {
        // The largest id once overflowed `max + 1`, and a lone huge id
        // described a graph of 10^12 + 1 nodes that `adjacency` allocated.
        for text in [
            "graph g { 18446744073709551615; }",
            "graph g { 1000000000000; }",
            "graph g { 0 -- 2; }",
        ] {
            assert!(DistGraph::from_dot(text).is_err(), "{text}");
        }
        assert_eq!(DistGraph::from_dot("graph g { }").unwrap().n(), 0);
        assert_eq!(DistGraph::from_dot("graph g { 2 -- 0; 1; }").unwrap().n(), 3);
    }

    #[test]
    fn dot_chain_expands_to_edges() {
        let g = DistGraph::from_dot("graph g { 0 -- 1 -- 2; }").unwrap();
        assert_eq!(g.edges(), &[(0, 1), (1, 2)]);
    }
}
