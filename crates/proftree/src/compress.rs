//! Program-tree compression (paper §VI-B).
//!
//! Loop iterations dominate a program tree; when iteration lengths "do not
//! vary significantly" the paper compresses losslessly with run-length
//! encoding plus a dictionary of repeated subtrees, allowing 5% length
//! variation to be considered *the same length*. The paper reports the
//! NPB-CG tree shrinking from 13.5 GB to 950 MB (93%).
//!
//! Implementation: subtrees are canonicalised bottom-up into *class keys* —
//! a structural hash over node kind, annotation name, lock id, children
//! classes, and the node length quantised into geometric buckets of width
//! `1 + tolerance` (so any two members of a bucket differ by at most the
//! tolerance). Consecutive siblings of the same class collapse into a
//! [`Run`]; all runs of a class share one representative subtree (the
//! dictionary), so repeated invocations of an inner loop cost one subtree
//! regardless of trip counts. Each run records the exact total length of
//! its members, preserving aggregate work exactly.
//!
//! A lossy mode simply widens the tolerance; the paper kept it as a last
//! resort and never needed it — neither do our experiments.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::node::{ChildList, Cycles, Node, NodeId, NodeKind, ProgramTree, Run};
use crate::visit::logical_node_count;

/// Options controlling compression.
#[derive(Debug, Clone, Copy)]
pub struct CompressOptions {
    /// Relative length variation treated as "the same length" (default 5%).
    pub tolerance: f64,
    /// Only RLE-compress child lists at least this long (tiny lists aren't
    /// worth a run header).
    pub min_children: usize,
}

impl Default for CompressOptions {
    fn default() -> Self {
        CompressOptions {
            tolerance: 0.05,
            min_children: 4,
        }
    }
}

impl CompressOptions {
    /// Lossy preset: a wide tolerance that trades length fidelity for
    /// memory, the paper's "last resort".
    pub fn lossy() -> Self {
        CompressOptions {
            tolerance: 0.25,
            min_children: 2,
        }
    }
}

/// Before/after accounting for one compression.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressStats {
    /// Stored nodes before.
    pub nodes_before: usize,
    /// Stored nodes after.
    pub nodes_after: usize,
    /// Approximate bytes before.
    pub bytes_before: usize,
    /// Approximate bytes after.
    pub bytes_after: usize,
    /// Logical (virtually expanded) node count — identical before/after.
    pub logical_nodes: u64,
}

impl CompressStats {
    /// Fraction of bytes saved, e.g. `0.93` for the paper's CG tree.
    pub fn reduction(&self) -> f64 {
        if self.bytes_before == 0 {
            0.0
        } else {
            1.0 - self.bytes_after as f64 / self.bytes_before as f64
        }
    }
}

/// Class key of a canonicalised subtree.
type ClassKey = u64;

struct Compressor<'a> {
    src: &'a ProgramTree,
    opts: CompressOptions,
    out: Vec<Node>,
    /// Dictionary: class key → representative node in `out`.
    dict: HashMap<ClassKey, NodeId>,
    /// Memo: source node → (class key, exact length).
    class_memo: Vec<Option<ClassKey>>,
    /// Nodes whose class must use the *exact* length: the root's direct
    /// children. Their lengths feed the §IV-E serial/parallel
    /// decomposition, which tolerance-merging must not distort.
    exact: Vec<bool>,
}

impl<'a> Compressor<'a> {
    fn new(src: &'a ProgramTree, opts: CompressOptions) -> Self {
        let mut exact = vec![false; src.len()];
        match &src.root().children {
            ChildList::Plain(v) => {
                for &c in v {
                    exact[c as usize] = true;
                }
            }
            ChildList::Rle(runs) => {
                for r in runs {
                    exact[r.node as usize] = true;
                }
            }
        }
        Compressor {
            src,
            opts,
            out: Vec::with_capacity(src.len().min(1 << 20)),
            dict: HashMap::new(),
            class_memo: vec![None; src.len()],
            exact,
        }
    }

    /// Quantise a length into a geometric bucket of ratio `1 + tolerance`.
    /// A tolerance of zero (or less) keys on the exact length.
    fn bucket(&self, len: Cycles) -> u64 {
        if len == 0 || self.opts.tolerance <= 0.0 {
            return len;
        }
        let step = (1.0 + self.opts.tolerance).ln();
        ((len as f64).ln() / step).floor() as u64 + 1
    }

    fn fnv(mut h: u64, v: u64) -> u64 {
        // FNV-1a over the 8 bytes of v; cheap, deterministic, good enough
        // for class bucketing (collisions only cost a length check below).
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    fn hash_str(mut h: u64, s: &str) -> u64 {
        for &b in s.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Class key of a source subtree (memoised).
    fn class_of(&mut self, id: NodeId) -> ClassKey {
        if let Some(k) = self.class_memo[id as usize] {
            return k;
        }
        let node = self.src.node(id);
        let mut h = 0xcbf29ce484222325u64;
        h = Self::fnv(
            h,
            match &node.kind {
                NodeKind::Root => 0,
                NodeKind::Sec { .. } => 1,
                NodeKind::Task { .. } => 2,
                NodeKind::U => 3,
                NodeKind::L { .. } => 4,
                NodeKind::Pipe { .. } => 5,
                NodeKind::Stage { .. } => 6,
            },
        );
        match &node.kind {
            NodeKind::Sec { name, nowait, .. } => {
                h = Self::hash_str(h, name);
                h = Self::fnv(h, *nowait as u64);
            }
            NodeKind::Task { name } => h = Self::hash_str(h, name),
            NodeKind::L { lock } => h = Self::fnv(h, *lock as u64),
            NodeKind::Pipe { name, .. } => h = Self::hash_str(h, name),
            NodeKind::Stage { stage } => h = Self::fnv(h, *stage as u64),
            _ => {}
        }
        if self.exact[id as usize] {
            // Top-level child: exact length, and a salt so it can never
            // merge with an interior node of the same length.
            h = Self::fnv(h, 0xE0AC7);
            h = Self::fnv(h, node.length);
        } else {
            h = Self::fnv(h, self.bucket(node.length));
        }
        // Children classes with run-length structure folded in.
        let child_ids: Vec<NodeId> = match &node.children {
            ChildList::Plain(v) => v.clone(),
            ChildList::Rle(runs) => {
                // Already-compressed children: fold runs directly.
                let runs = runs.clone();
                for r in &runs {
                    let ck = self.class_of(r.node);
                    h = Self::fnv(h, ck);
                    h = Self::fnv(h, r.count as u64);
                }
                self.class_memo[id as usize] = Some(h);
                return h;
            }
        };
        for c in child_ids {
            let ck = self.class_of(c);
            h = Self::fnv(h, ck);
        }
        self.class_memo[id as usize] = Some(h);
        h
    }

    /// Copy subtree `id` into the output arena, compressing child lists,
    /// reusing the dictionary representative when the class was seen.
    fn emit(&mut self, id: NodeId) -> NodeId {
        let key = self.class_of(id);
        // The root is never dictionary-shared.
        if !matches!(self.src.node(id).kind, NodeKind::Root) {
            if let Some(&rep) = self.dict.get(&key) {
                return rep;
            }
        }

        let src_node = self.src.node(id).clone();
        let new_children = match &src_node.children {
            ChildList::Plain(v) if v.len() >= self.opts.min_children => {
                ChildList::Rle(self.emit_runs(v))
            }
            ChildList::Plain(v) => {
                let kids: Vec<NodeId> = v.iter().map(|&c| self.emit(c)).collect();
                ChildList::Plain(kids)
            }
            ChildList::Rle(runs) => {
                let new_runs: Vec<Run> = runs
                    .iter()
                    .map(|r| Run {
                        node: self.emit(r.node),
                        count: r.count,
                        total_length: r.total_length,
                    })
                    .collect();
                ChildList::Rle(new_runs)
            }
        };
        let new_id = self.out.len() as NodeId;
        self.out.push(Node {
            kind: src_node.kind,
            length: src_node.length,
            children: new_children,
        });
        if !matches!(self.out[new_id as usize].kind, NodeKind::Root) {
            self.dict.insert(key, new_id);
        }
        new_id
    }

    /// RLE a plain child list: consecutive children with equal class keys
    /// form one run; every run of a class shares the dictionary
    /// representative. Class keys are 64-bit structural hashes — a
    /// collision would merge distinct subtrees, but over the ≤ 2³⁰-node
    /// trees we handle the probability is negligible.
    fn emit_runs(&mut self, children: &[NodeId]) -> Vec<Run> {
        let mut runs: Vec<Run> = Vec::new();
        let mut last_key: Option<ClassKey> = None;
        for &c in children {
            let key = self.class_of(c);
            let len = self.src.node(c).length;
            if last_key == Some(key) {
                let last = runs.last_mut().expect("run exists when last_key set");
                last.count += 1;
                last.total_length += len;
            } else {
                let rep = self.emit(c);
                runs.push(Run {
                    node: rep,
                    count: 1,
                    total_length: len,
                });
                last_key = Some(key);
            }
        }
        runs
    }
}

/// Compress `tree`, returning the compressed tree and accounting stats.
pub fn compress_tree(tree: &ProgramTree, opts: CompressOptions) -> (ProgramTree, CompressStats) {
    let mut c = Compressor::new(tree, opts);
    // emit() must produce the root at index 0: emit root first.
    let root = c.emit(ProgramTree::ROOT);
    // Root is emitted last in post-order; rebuild so root is node 0.
    let out = reindex_root_first(c.out, root);
    let compressed = ProgramTree::from_nodes(out);
    let stats = CompressStats {
        nodes_before: tree.len(),
        nodes_after: compressed.len(),
        bytes_before: tree.approx_bytes(),
        bytes_after: compressed.approx_bytes(),
        logical_nodes: logical_node_count(tree),
    };
    debug_assert_eq!(logical_node_count(&compressed), stats.logical_nodes);
    (compressed, stats)
}

/// Rotate the arena so `root` becomes node 0, remapping child references.
fn reindex_root_first(nodes: Vec<Node>, root: NodeId) -> Vec<Node> {
    if root == 0 {
        return nodes;
    }
    let n = nodes.len() as NodeId;
    let remap = |id: NodeId| -> NodeId {
        if id == root {
            0
        } else if id < root {
            id + 1
        } else {
            id
        }
    };
    let mut out: Vec<Node> = Vec::with_capacity(nodes.len());
    let mut ordered: Vec<Node> = Vec::with_capacity(nodes.len());
    let mut nodes = nodes;
    // Move root to front preserving relative order of the rest.
    let root_node = nodes.remove(root as usize);
    ordered.push(root_node);
    ordered.extend(nodes);
    for mut node in ordered {
        match &mut node.children {
            ChildList::Plain(v) => {
                for c in v.iter_mut() {
                    debug_assert!(*c < n);
                    *c = remap(*c);
                }
            }
            ChildList::Rle(runs) => {
                for r in runs.iter_mut() {
                    r.node = remap(r.node);
                }
            }
        }
        out.push(node);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use crate::visit::{expanded_children, TaskSeq};

    /// A loop of `n` iterations whose iteration lengths are produced by `f`.
    fn loop_tree(n: usize, f: impl Fn(usize) -> Cycles) -> ProgramTree {
        let mut b = TreeBuilder::new();
        b.begin_sec("loop").unwrap();
        for i in 0..n {
            b.begin_task("it").unwrap();
            b.add_compute(f(i)).unwrap();
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn identical_iterations_collapse_to_one_run() {
        let tree = loop_tree(1000, |_| 500);
        let (c, stats) = compress_tree(&tree, CompressOptions::default());
        c.validate().unwrap();
        // Root + Sec + 1 representative Task + 1 U.
        assert_eq!(c.len(), 4);
        assert_eq!(stats.logical_nodes, 2 + 2 * 1000);
        assert!(stats.reduction() > 0.95, "reduction {}", stats.reduction());
        // Aggregate work preserved exactly.
        assert_eq!(c.total_length(), tree.total_length());
        // Logical expansion yields 1000 tasks.
        let sec = c.top_level_sections()[0];
        assert_eq!(TaskSeq::new(&c, sec).count(), 1000);
    }

    #[test]
    fn within_tolerance_variation_compresses() {
        // Lengths 1000±2% fall in few geometric buckets of width 5%.
        let tree = loop_tree(500, |i| 1000 + (i % 3) as Cycles * 10);
        let (c, stats) = compress_tree(&tree, CompressOptions::default());
        assert!(c.len() < 30, "compressed to {} nodes", c.len());
        assert_eq!(stats.logical_nodes, logical_node_count(&c));
        // Total preserved exactly via run totals.
        assert_eq!(c.total_length(), tree.total_length());
    }

    #[test]
    fn distinct_lengths_do_not_merge() {
        // Geometric lengths: every iteration in its own bucket.
        let tree = loop_tree(12, |i| 100 << i);
        let (c, _) = compress_tree(&tree, CompressOptions::default());
        let sec = c.top_level_sections()[0];
        let tasks: Vec<_> = TaskSeq::new(&c, sec).collect();
        assert_eq!(tasks.len(), 12);
        // All representatives distinct.
        let mut uniq = tasks.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), 12);
    }

    #[test]
    fn zero_tolerance_merges_only_exact_lengths() {
        let exact = CompressOptions {
            tolerance: 0.0,
            min_children: 2,
        };
        // Eight distinct lengths: nothing merges (root + sec + 8 × (task + U)).
        let tree = loop_tree(8, |i| 100 + 50 * i as Cycles);
        let (c, _) = compress_tree(&tree, exact);
        assert_eq!(c.len(), 18);
        let sec = c.top_level_sections()[0];
        let lens: Vec<Cycles> = TaskSeq::new(&c, sec).map(|t| c.node(t).length).collect();
        assert_eq!(lens, (0..8).map(|i| 100 + 50 * i).collect::<Vec<Cycles>>());
        // Equal lengths still collapse into one run.
        let (c, _) = compress_tree(&loop_tree(8, |_| 100), exact);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn alternating_pattern_forms_alternating_runs_with_shared_dict() {
        let tree = loop_tree(100, |i| if i % 2 == 0 { 100 } else { 9000 });
        let (c, _) = compress_tree(&tree, CompressOptions::default());
        let sec = c.top_level_sections()[0];
        // Stored: alternating runs but only 2 distinct representatives
        // (dictionary sharing), so node count stays tiny.
        assert!(c.len() <= 8, "got {} nodes", c.len());
        let expanded: Vec<Cycles> = TaskSeq::new(&c, sec).map(|t| c.node(t).length).collect();
        assert_eq!(expanded.len(), 100);
        assert_eq!(expanded[0], 100);
        assert_eq!(expanded[1], 9000);
    }

    #[test]
    fn nested_repeated_inner_loops_share_subtrees() {
        // Outer loop of 50 iterations, each invoking an identical inner
        // parallel loop of 20 iterations.
        let mut b = TreeBuilder::new();
        b.begin_sec("outer").unwrap();
        for _ in 0..50 {
            b.begin_task("ot").unwrap();
            b.add_compute(10).unwrap();
            b.begin_sec("inner").unwrap();
            for _ in 0..20 {
                b.begin_task("it").unwrap();
                b.add_compute(7).unwrap();
                b.end_task().unwrap();
            }
            b.end_sec(false).unwrap();
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
        let tree = b.finish().unwrap();
        let (c, stats) = compress_tree(&tree, CompressOptions::default());
        assert!(c.len() <= 8, "nested tree compressed to {} nodes", c.len());
        assert_eq!(stats.logical_nodes, logical_node_count(&tree));
        assert_eq!(c.total_length(), tree.total_length());
    }

    #[test]
    fn lossy_mode_merges_wider_variation() {
        let tree = loop_tree(100, |i| 1000 + (i % 10) as Cycles * 20); // ±18%
        let (strict, _) = compress_tree(&tree, CompressOptions::default());
        let (lossy, _) = compress_tree(&tree, CompressOptions::lossy());
        assert!(lossy.len() <= strict.len());
        assert_eq!(lossy.total_length(), tree.total_length());
    }

    #[test]
    fn root_stays_node_zero_after_reindex() {
        let tree = loop_tree(10, |_| 5);
        let (c, _) = compress_tree(&tree, CompressOptions::default());
        assert!(matches!(c.root().kind, NodeKind::Root));
        c.validate().unwrap();
        // Children of root reachable and correct kind.
        for id in expanded_children(&c, ProgramTree::ROOT) {
            assert!(matches!(
                c.node(id).kind,
                NodeKind::Sec { .. } | NodeKind::U
            ));
        }
    }

    #[test]
    fn compressing_a_compressed_tree_is_stable() {
        let tree = loop_tree(256, |_| 77);
        let (c1, _) = compress_tree(&tree, CompressOptions::default());
        let (c2, _) = compress_tree(&c1, CompressOptions::default());
        assert_eq!(c2.total_length(), tree.total_length());
        assert_eq!(logical_node_count(&c2), logical_node_count(&tree));
        assert!(c2.len() <= c1.len());
    }
}
