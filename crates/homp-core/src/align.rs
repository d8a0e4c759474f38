//! The alignment graph (Sections III-3 and V-D).
//!
//! `ALIGN` binds an array dimension's distribution to a loop's (or vice
//! versa): "the runtime makes copies of the ranges of the alignees as
//! the aligners' ranges. … For alignment in which multiple distributions
//! form an inter-dependent alignment relationship, the runtime re-links
//! those distributions so each aligner points to the root alignee's
//! distribution."
//!
//! Nodes are named distributable entities — the loop label (`loop1`) and
//! each array's distributed dimension (`x`, `uold`). Each node carries a
//! policy; `Align` edges are resolved transitively to a root whose policy
//! is concrete (BLOCK / AUTO / FULL). Cycles and dangling targets are
//! errors. The graph borrows every name and policy from the region it
//! describes; only an [`AlignError`] owns strings.

use homp_lang::DistPolicy;

/// How a node distributes: aligned with another entity, or a root with
/// a concrete policy.
#[derive(Debug, Clone, Copy)]
enum Edge<'a> {
    Align(&'a str, u64),
    Root(&'a DistPolicy),
}

/// Error building or resolving the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignError {
    /// An `ALIGN` target names an entity that was never registered.
    UnknownTarget {
        /// The aligner.
        from: String,
        /// The missing alignee.
        target: String,
    },
    /// The alignment relation contains a cycle.
    Cycle(Vec<String>),
    /// The same entity was registered twice.
    Duplicate(String),
}

impl std::fmt::Display for AlignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlignError::UnknownTarget { from, target } => {
                write!(f, "`{from}` aligns with unknown entity `{target}`")
            }
            AlignError::Cycle(path) => write!(f, "alignment cycle: {}", path.join(" -> ")),
            AlignError::Duplicate(n) => write!(f, "entity `{n}` registered twice"),
        }
    }
}

impl std::error::Error for AlignError {}

/// The alignment graph for one offload region: its entities in
/// registration order, borrowed from the region. A region has a
/// handful (the loop and one to three arrays in every kernel here), so
/// lookups are a linear search and resolving allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct AlignGraph<'a> {
    nodes: Vec<(&'a str, Edge<'a>)>,
}

impl<'a> AlignGraph<'a> {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an entity (loop label or array-dimension name) with its
    /// source-level policy.
    pub fn add(&mut self, name: &'a str, policy: &'a DistPolicy) -> Result<(), AlignError> {
        let edge = match policy {
            DistPolicy::Align { target, ratio } => Edge::Align(target, *ratio),
            root => Edge::Root(root),
        };
        self.push(name, edge)
    }

    /// Register an entity that copies `target`'s distribution scaled by
    /// `ratio` (a loop's `dist_schedule(target:[ALIGN(x)])`).
    pub fn add_aligned(
        &mut self,
        name: &'a str,
        target: &'a str,
        ratio: u64,
    ) -> Result<(), AlignError> {
        self.push(name, Edge::Align(target, ratio))
    }

    fn push(&mut self, name: &'a str, edge: Edge<'a>) -> Result<(), AlignError> {
        if self.node(name).is_some() {
            return Err(AlignError::Duplicate(name.to_string()));
        }
        self.nodes.push((name, edge));
        Ok(())
    }

    fn node(&self, name: &str) -> Option<(&'a str, Edge<'a>)> {
        self.nodes.iter().find(|(n, _)| *n == name).copied()
    }

    /// Resolve `name` to its root alignee, returning
    /// `(root name, accumulated ratio, root policy)`. The accumulated
    /// ratio is the product of the `ALIGN` ratios along the chain
    /// (saturating). A chain without a cycle visits each node once, so
    /// a walk of more steps than there are nodes has met one.
    pub fn resolve_root(&self, name: &str) -> Result<(&'a str, u64, &'a DistPolicy), AlignError> {
        let (mut from, mut current) = (name, name);
        let mut ratio = 1u64;
        for _ in 0..=self.nodes.len() {
            match self.node(current) {
                None => {
                    let (from, target) = (from.to_string(), current.to_string());
                    return Err(AlignError::UnknownTarget { from, target });
                }
                Some((root, Edge::Root(policy))) => return Ok((root, ratio, policy)),
                Some((aligner, Edge::Align(target, r))) => {
                    ratio = ratio.saturating_mul(r);
                    (from, current) = (aligner, target);
                }
            }
        }
        Err(AlignError::Cycle(self.cycle_path(name)))
    }

    /// The walk from `name` up to and including the first node it
    /// revisits. Called only when that walk has a cycle.
    fn cycle_path(&self, name: &str) -> Vec<String> {
        let mut path = vec![name.to_string()];
        let mut current = name;
        while let Some((_, Edge::Align(target, _))) = self.node(current) {
            let revisit = path.iter().any(|p| p == target);
            path.push(target.to_string());
            if revisit {
                break;
            }
            current = target;
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;

    fn align(target: &str) -> DistPolicy {
        DistPolicy::Align { target: target.into(), ratio: 1 }
    }

    const BLOCK: &DistPolicy = &DistPolicy::Block;
    const AUTO: &DistPolicy = &DistPolicy::Auto;
    const FULL: &DistPolicy = &DistPolicy::Full;

    #[test]
    fn v1_style_loop_aligns_with_array() {
        // axpy_homp_v1: x,y are BLOCK; loop ALIGN(x).
        let mut g = AlignGraph::new();
        g.add("x", BLOCK).unwrap();
        g.add("y", BLOCK).unwrap();
        g.add_aligned("loop", "x", 1).unwrap();
        assert_eq!(g.resolve_root("loop").unwrap(), ("x", 1, BLOCK));
        assert_eq!(g.resolve_root("y").unwrap(), ("y", 1, BLOCK));
    }

    #[test]
    fn v2_style_arrays_align_with_loop() {
        // axpy_homp_v2: loop AUTO; x,y ALIGN(loop).
        let to_loop = align("loop");
        let mut g = AlignGraph::new();
        g.add("loop", AUTO).unwrap();
        g.add("x", &to_loop).unwrap();
        g.add("y", &to_loop).unwrap();
        assert_eq!(g.resolve_root("x").unwrap(), ("loop", 1, AUTO));
        assert_eq!(g.resolve_root("y").unwrap(), ("loop", 1, AUTO));
    }

    #[test]
    fn chains_relink_to_root() {
        // y ALIGN(x), x ALIGN(loop), loop BLOCK — both resolve to loop.
        let (to_loop, to_x) = (align("loop"), align("x"));
        let mut g = AlignGraph::new();
        g.add("loop", BLOCK).unwrap();
        g.add("x", &to_loop).unwrap();
        g.add("y", &to_x).unwrap();
        assert_eq!(g.resolve_root("x").unwrap(), ("loop", 1, BLOCK));
        assert_eq!(g.resolve_root("y").unwrap(), ("loop", 1, BLOCK));
    }

    #[test]
    fn ratios_multiply_along_chain() {
        let x = DistPolicy::Align { target: "loop".into(), ratio: 2 };
        let y = DistPolicy::Align { target: "x".into(), ratio: 3 };
        let mut g = AlignGraph::new();
        g.add("loop", BLOCK).unwrap();
        g.add("x", &x).unwrap();
        g.add("y", &y).unwrap();
        let (root, ratio, _) = g.resolve_root("y").unwrap();
        assert_eq!((root, ratio), ("loop", 6));
        // The aligner gets the root's distribution scaled by the ratio.
        let scaled = Distribution::block(10, 2).scaled(ratio);
        assert_eq!(scaled.total(), 60);
        assert_eq!(scaled.range(0).end, 30);
    }

    #[test]
    fn cycle_detected() {
        let (to_a, to_b) = (align("a"), align("b"));
        let mut g = AlignGraph::new();
        g.add("a", &to_b).unwrap();
        g.add("b", &to_a).unwrap();
        let cycle = |p: &[&str]| Err(AlignError::Cycle(p.iter().map(|s| s.to_string()).collect()));
        assert_eq!(g.resolve_root("a"), cycle(&["a", "b", "a"]));
        // A chain that runs into a cycle reports the walk up to the
        // first revisited node.
        let to_x = align("x");
        g.add("x", &to_a).unwrap();
        g.add("w", &to_x).unwrap();
        assert_eq!(g.resolve_root("w"), cycle(&["w", "x", "a", "b", "a"]));
    }

    #[test]
    fn self_alignment_is_a_cycle() {
        let to_a = align("a");
        let mut g = AlignGraph::new();
        g.add("a", &to_a).unwrap();
        assert_eq!(g.resolve_root("a"), Err(AlignError::Cycle(vec!["a".into(), "a".into()])));
    }

    #[test]
    fn unknown_target_reported() {
        let to_ghost = align("ghost");
        let mut g = AlignGraph::new();
        g.add("loop", &to_ghost).unwrap();
        assert_eq!(
            g.resolve_root("loop"),
            Err(AlignError::UnknownTarget { from: "loop".into(), target: "ghost".into() })
        );
    }

    #[test]
    fn duplicate_rejected() {
        let mut g = AlignGraph::new();
        g.add("x", BLOCK).unwrap();
        assert_eq!(g.add("x", FULL), Err(AlignError::Duplicate("x".into())));
        assert_eq!(g.add_aligned("x", "loop", 1), Err(AlignError::Duplicate("x".into())));
    }

    #[test]
    fn roots_resolve_to_themselves() {
        let to_loop = align("loop");
        let mut g = AlignGraph::new();
        g.add("loop", AUTO).unwrap();
        g.add("x", &to_loop).unwrap();
        g.add("f", FULL).unwrap();
        assert_eq!(g.resolve_root("f").unwrap(), ("f", 1, FULL));
        assert_eq!(g.resolve_root("loop").unwrap(), ("loop", 1, AUTO));
    }

    #[test]
    fn unregistered_start_is_an_unknown_target() {
        let mut g = AlignGraph::new();
        g.add("loop", AUTO).unwrap();
        assert_eq!(
            g.resolve_root("x"),
            Err(AlignError::UnknownTarget { from: "x".into(), target: "x".into() })
        );
    }
}
