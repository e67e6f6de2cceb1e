//! Traversal helpers that transparently expand compressed child lists.
//!
//! The ground-truth runner and the analyses iterate the *logical*
//! children of a node (the emulators do the same over
//! [`crate::FlatTree`]): an RLE run of count `k` yields its
//! representative node id `k` times. Because run members are equal
//! within the compression tolerance, replaying the representative is
//! exactly the paper's compression semantics (§VI-B).

use crate::node::{ChildList, NodeId, NodeKind, ProgramTree, Run};

/// Iterator over the logical children of one node.
pub struct ExpandedChildren<'a> {
    tree: &'a ProgramTree,
    state: ExpandState<'a>,
}

enum ExpandState<'a> {
    Plain(std::slice::Iter<'a, NodeId>),
    Rle {
        runs: std::slice::Iter<'a, Run>,
        current: Option<(NodeId, u32)>,
    },
}

impl<'a> ExpandedChildren<'a> {
    /// Logical children of `id` in order.
    pub fn new(tree: &'a ProgramTree, id: NodeId) -> Self {
        let state = match &tree.node(id).children {
            ChildList::Plain(v) => ExpandState::Plain(v.iter()),
            ChildList::Rle(runs) => ExpandState::Rle {
                runs: runs.iter(),
                current: None,
            },
        };
        ExpandedChildren { tree, state }
    }

    /// The tree being traversed.
    pub fn tree(&self) -> &'a ProgramTree {
        self.tree
    }
}

impl<'a> Iterator for ExpandedChildren<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match &mut self.state {
            ExpandState::Plain(it) => it.next().copied(),
            ExpandState::Rle { runs, current } => loop {
                if let Some((id, remaining)) = current {
                    if *remaining > 0 {
                        *remaining -= 1;
                        return Some(*id);
                    }
                    *current = None;
                }
                match runs.next() {
                    Some(run) => *current = Some((run.node, run.count)),
                    None => return None,
                }
            },
        }
    }
}

/// Convenience: logical children of `id`.
pub fn expanded_children(tree: &ProgramTree, id: NodeId) -> ExpandedChildren<'_> {
    ExpandedChildren::new(tree, id)
}

/// A node's child list, unexpanded: plain ids or RLE runs.
enum RunState<'a> {
    Plain(std::slice::Iter<'a, NodeId>),
    Rle(std::slice::Iter<'a, Run>),
}

/// Iterator over the children of one node as `(node, count, total_length)`
/// entries, without expansion: a plain child is one entry of count 1
/// carrying its own length, and an RLE run is one entry carrying its
/// multiplicity and *exact* member-length sum (compression preserves run
/// totals, so aggregates computed from entries are undistorted by the
/// tolerance). Run-aware analyses — the what-if engine's work/span
/// attribution — consume entries instead of expanding.
pub struct ChildEntries<'a> {
    tree: &'a ProgramTree,
    state: RunState<'a>,
}

impl<'a> ChildEntries<'a> {
    /// The child entries of `id` in order.
    pub fn new(tree: &'a ProgramTree, id: NodeId) -> Self {
        let state = match &tree.node(id).children {
            ChildList::Plain(v) => RunState::Plain(v.iter()),
            ChildList::Rle(runs) => RunState::Rle(runs.iter()),
        };
        ChildEntries { tree, state }
    }
}

impl<'a> Iterator for ChildEntries<'a> {
    type Item = (NodeId, u32, crate::node::Cycles);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.state {
            RunState::Plain(it) => it.next().map(|&id| (id, 1, self.tree.node(id).length)),
            RunState::Rle(runs) => runs.next().map(|r| (r.node, r.count, r.total_length)),
        }
    }
}

/// Convenience: child entries of `id` as `(node, count, total_length)`.
pub fn child_entries(tree: &ProgramTree, id: NodeId) -> ChildEntries<'_> {
    ChildEntries::new(tree, id)
}

/// The ordered task list of a parallel section, expanded. Panics in debug
/// builds if `sec` is not a Sec node.
pub struct TaskSeq<'a> {
    inner: ExpandedChildren<'a>,
}

impl<'a> TaskSeq<'a> {
    /// Tasks of section `sec` in iteration order.
    pub fn new(tree: &'a ProgramTree, sec: NodeId) -> Self {
        debug_assert!(matches!(tree.node(sec).kind, NodeKind::Sec { .. }));
        TaskSeq {
            inner: ExpandedChildren::new(tree, sec),
        }
    }
}

impl<'a> Iterator for TaskSeq<'a> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        self.inner.next()
    }
}

/// Depth-first pre-order walk over logical nodes. The callback receives
/// `(node id, depth)`; returning `false` prunes the subtree.
pub fn walk(tree: &ProgramTree, mut f: impl FnMut(NodeId, usize) -> bool) {
    let mut stack: Vec<(NodeId, usize)> = vec![(ProgramTree::ROOT, 0)];
    while let Some((id, depth)) = stack.pop() {
        if !f(id, depth) {
            continue;
        }
        // Extend in place, then reverse the freshly pushed range so the
        // pop order is program order — no per-node child Vec.
        let base = stack.len();
        stack.extend(expanded_children(tree, id).map(|c| (c, depth + 1)));
        stack[base..].reverse();
    }
}

/// Count logical nodes (what the tree would contain uncompressed).
pub fn logical_node_count(tree: &ProgramTree) -> u64 {
    fn rec(tree: &ProgramTree, id: NodeId, memo: &mut Vec<Option<u64>>) -> u64 {
        if let Some(v) = memo[id as usize] {
            return v;
        }
        let mut total = 1u64;
        match &tree.node(id).children {
            ChildList::Plain(v) => {
                for &c in v {
                    total += rec(tree, c, memo);
                }
            }
            ChildList::Rle(runs) => {
                for r in runs {
                    total += r.count as u64 * rec(tree, r.node, memo);
                }
            }
        }
        memo[id as usize] = Some(total);
        total
    }
    let mut memo = vec![None; tree.len()];
    rec(tree, ProgramTree::ROOT, &mut memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{ChildList, Node, NodeKind, ProgramTree, Run};

    fn rle_tree() -> ProgramTree {
        // Root -> Sec with tasks [A x3, B x2] (RLE), each task one U child.
        let nodes = vec![
            Node {
                kind: NodeKind::Root,
                length: 320,
                children: ChildList::Plain(vec![1]),
            },
            Node {
                kind: NodeKind::Sec {
                    name: "s".into(),
                    nowait: false,
                    mem: None,
                    burden: Default::default(),
                },
                length: 320,
                children: ChildList::Rle(vec![
                    Run {
                        node: 2,
                        count: 3,
                        total_length: 300,
                    },
                    Run {
                        node: 4,
                        count: 2,
                        total_length: 20,
                    },
                ]),
            },
            Node {
                kind: NodeKind::Task { name: "a".into() },
                length: 100,
                children: ChildList::Plain(vec![3]),
            },
            Node::u(100),
            Node {
                kind: NodeKind::Task { name: "b".into() },
                length: 10,
                children: ChildList::Plain(vec![5]),
            },
            Node::u(10),
        ];
        ProgramTree::from_nodes(nodes)
    }

    #[test]
    fn expands_rle_children_in_order() {
        let tree = rle_tree();
        let tasks: Vec<_> = TaskSeq::new(&tree, 1).collect();
        assert_eq!(tasks, vec![2, 2, 2, 4, 4]);
    }

    #[test]
    fn plain_children_pass_through() {
        let tree = rle_tree();
        let kids: Vec<_> = expanded_children(&tree, 2).collect();
        assert_eq!(kids, vec![3]);
    }

    #[test]
    fn walk_visits_logical_nodes_in_program_order() {
        let tree = rle_tree();
        let mut tags = Vec::new();
        walk(&tree, |id, _| {
            tags.push(tree.node(id).kind.tag());
            true
        });
        assert_eq!(
            tags,
            vec!["Root", "Sec", "Task", "U", "Task", "U", "Task", "U", "Task", "U", "Task", "U"]
        );
    }

    #[test]
    fn walk_prunes_subtrees() {
        let tree = rle_tree();
        let mut count = 0;
        walk(&tree, |id, _| {
            count += 1;
            !matches!(tree.node(id).kind, NodeKind::Sec { .. })
        });
        assert_eq!(count, 2); // Root + pruned Sec
    }

    #[test]
    fn child_entries_preserve_exact_run_totals() {
        let tree = rle_tree();
        let entries: Vec<_> = child_entries(&tree, 1).collect();
        assert_eq!(entries, vec![(2, 3, 300), (4, 2, 20)]);
        // Plain children come out as count-1 entries with their own length.
        let plain: Vec<_> = child_entries(&tree, 2).collect();
        assert_eq!(plain, vec![(3, 1, 100)]);
        // Entry totals sum to the parent's length even when the RLE
        // representative's length times count would not (tolerance).
        let total: u64 = child_entries(&tree, 1).map(|(_, _, t)| t).sum();
        assert_eq!(total, tree.node(1).length);
    }

    #[test]
    fn logical_count_includes_run_multiplicity() {
        let tree = rle_tree();
        // Root + Sec + 3*(Task+U) + 2*(Task+U) = 12
        assert_eq!(logical_node_count(&tree), 12);
    }
}
