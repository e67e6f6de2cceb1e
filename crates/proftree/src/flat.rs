//! Flat arena program trees: the one tree layout both emulators walk.
//!
//! A [`ProgramTree`] is already arena-allocated (ids index one `Vec`),
//! but each node's child list is a separate heap allocation and the
//! node payloads (names, burden tables, memory profiles) are scattered
//! `String`/`Vec` objects. Emulators that walk millions of logical
//! nodes therefore chase pointers on every child hop.
//!
//! [`FlatTree`] re-lays the whole tree into a handful of contiguous
//! side tables:
//!
//! * `nodes` — fixed-size [`FlatNode`] records in **depth-first
//!   first-visit order** from the root, each carrying a *subtree-skip
//!   offset*: `skip(id)` is the first flat id past `id`'s contiguously
//!   stored subtree, so skipping a whole subtree is O(1) index
//!   arithmetic instead of a recursive walk.
//! * `runs` — one global RLE run table; a node's children are the slice
//!   `runs[runs_at .. runs_at + runs_len]`, so iterating child runs
//!   scans a flat buffer. Plain child lists are stored as
//!   count-1 runs (with the original `Plain`/`Rle` variant preserved in
//!   a flag bit for lossless conversion back).
//! * `burdens` / `mems` / `names` — flattened burden-table entries,
//!   memory profiles, and interned (deduplicated) name bytes.
//!
//! Compressed trees are DAGs (RLE runs share representative subtrees);
//! first-visit order assigns each shared node one flat slot at its
//! first appearance, and later references become plain index
//! back-references contributing nothing to any skip span.
//!
//! The conversion is **lossless**: [`FlatTree::to_tree`] rebuilds the
//! exact original [`ProgramTree`] — same node ids, same `Plain`/`Rle`
//! child-list variants, same lengths, names, burden entries, and memory
//! profiles — and every node's kind, length and child runs read back
//! exactly as the source tree's (pinned by the `wire_and_flat_round_trip`
//! property in `tests/prop.rs`).
//!
//! The emulators (`ffemu`, `synthemu`) take only `&FlatTree`. A caller
//! flattens a tree once and reuses the arena for every prediction over
//! it; node ids never enter a computed quantity, so predictions do not
//! depend on the flat id order.

use std::collections::HashMap;

use crate::node::{
    BurdenTable, ChildList, Cycles, LockId, MemProfile, Node, NodeId, NodeKind, ProgramTree, Run,
};

/// Node-kind values packed into the low bits of [`FlatNode::tag`].
const K_ROOT: u8 = 0;
const K_SEC: u8 = 1;
const K_TASK: u8 = 2;
const K_U: u8 = 3;
const K_L: u8 = 4;
const K_PIPE: u8 = 5;
const K_STAGE: u8 = 6;
const KIND_MASK: u8 = 0x07;
/// `Sec` had `nowait: true`.
const F_NOWAIT: u8 = 0x08;
/// The original child list was `ChildList::Rle` (vs `Plain`).
const F_RLE: u8 = 0x10;
/// The node carries a [`MemProfile`] (`mems[mem_at]`).
const F_MEM: u8 = 0x20;

/// One run of the global run table: `count` logical children all equal
/// to the representative flat node `node`, summing to `total_length`
/// cycles. Plain children appear as count-1 runs whose `total_length`
/// is the child's own length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatRun {
    /// Representative child, as a flat id.
    pub node: NodeId,
    /// Logical multiplicity (≥ 1).
    pub count: u32,
    /// Exact total length of the run members.
    pub total_length: Cycles,
}

/// One fixed-size node record of a [`FlatTree`].
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    /// Kind in the low 3 bits plus `F_*` flag bits.
    tag: u8,
    /// Lock id (`L`) or stage index (`Stage`); 0 otherwise.
    aux: u32,
    /// Node length in cycles.
    length: Cycles,
    /// Children: `runs[runs_at .. runs_at + runs_len]`.
    runs_at: u32,
    runs_len: u32,
    /// First flat id past this node's contiguously stored subtree.
    skip: u32,
    /// Name bytes: `names[name_at .. name_at + name_len]`.
    name_at: u32,
    name_len: u32,
    /// Burden entries: `burdens[burden_at .. burden_at + burden_len]`.
    burden_at: u32,
    burden_len: u32,
    /// Index into `mems` when `F_MEM` is set.
    mem_at: u32,
}

/// A [`ProgramTree`] flattened into contiguous arenas (module docs).
#[derive(Debug, Clone)]
pub struct FlatTree {
    nodes: Vec<FlatNode>,
    runs: Vec<FlatRun>,
    burdens: Vec<(u32, f64)>,
    mems: Vec<MemProfile>,
    names: String,
    /// Flat id → original id.
    orig_of: Vec<NodeId>,
    /// Original id → flat id.
    flat_of: Vec<NodeId>,
}

impl FlatTree {
    /// Root flat id: the root is always visited first.
    pub const ROOT: NodeId = 0;

    /// Flatten `tree` (see the module docs for the layout).
    pub fn from_tree(tree: &ProgramTree) -> FlatTree {
        let n = tree.len();
        const UNSET: NodeId = NodeId::MAX;
        let mut flat_of = vec![UNSET; n];
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let mut skip = vec![0u32; n];

        // Iterative first-visit DFS (explicit stack: recursive trees can
        // nest arbitrarily deep). Enter assigns the flat slot; Exit
        // records the subtree-skip boundary. Unreachable nodes (none in
        // practice, but `from_nodes` does not forbid them) are appended
        // afterwards so the conversion stays lossless.
        enum Ev {
            Enter(NodeId),
            Exit(u32),
        }
        let mut stack: Vec<Ev> = Vec::new();
        for seed in std::iter::once(ProgramTree::ROOT).chain(0..n as NodeId) {
            if flat_of[seed as usize] != UNSET {
                continue;
            }
            stack.push(Ev::Enter(seed));
            while let Some(ev) = stack.pop() {
                match ev {
                    Ev::Enter(o) => {
                        if flat_of[o as usize] != UNSET {
                            continue; // shared (DAG) back-reference
                        }
                        let f = order.len() as u32;
                        flat_of[o as usize] = f;
                        order.push(o);
                        stack.push(Ev::Exit(f));
                        match &tree.node(o).children {
                            ChildList::Plain(v) => {
                                for &c in v.iter().rev() {
                                    stack.push(Ev::Enter(c));
                                }
                            }
                            ChildList::Rle(rs) => {
                                for r in rs.iter().rev() {
                                    stack.push(Ev::Enter(r.node));
                                }
                            }
                        }
                    }
                    Ev::Exit(f) => skip[f as usize] = order.len() as u32,
                }
            }
        }
        debug_assert_eq!(order.len(), n, "every node gets exactly one flat slot");

        let mut nodes: Vec<FlatNode> = Vec::with_capacity(n);
        let mut runs: Vec<FlatRun> = Vec::new();
        let mut burdens: Vec<(u32, f64)> = Vec::new();
        let mut mems: Vec<MemProfile> = Vec::new();
        let mut names = String::new();
        let mut name_spans: HashMap<&str, (u32, u32)> = HashMap::new();
        for (f, &o) in order.iter().enumerate() {
            let node = tree.node(o);
            let runs_at = runs.len() as u32;
            let mut tag;
            match &node.children {
                ChildList::Plain(v) => {
                    tag = 0;
                    for &c in v {
                        runs.push(FlatRun {
                            node: flat_of[c as usize],
                            count: 1,
                            total_length: tree.node(c).length,
                        });
                    }
                }
                ChildList::Rle(rs) => {
                    tag = F_RLE;
                    for r in rs {
                        runs.push(FlatRun {
                            node: flat_of[r.node as usize],
                            count: r.count,
                            total_length: r.total_length,
                        });
                    }
                }
            }
            let runs_len = runs.len() as u32 - runs_at;

            let mut aux = 0u32;
            let mut name: &str = "";
            let mut burden: &[(u32, f64)] = &[];
            let mut mem: Option<&MemProfile> = None;
            match &node.kind {
                NodeKind::Root => tag |= K_ROOT,
                NodeKind::Sec {
                    name: nm,
                    nowait,
                    mem: m,
                    burden: b,
                } => {
                    tag |= K_SEC;
                    if *nowait {
                        tag |= F_NOWAIT;
                    }
                    name = nm;
                    burden = b.entries();
                    mem = m.as_ref();
                }
                NodeKind::Task { name: nm } => {
                    tag |= K_TASK;
                    name = nm;
                }
                NodeKind::U => tag |= K_U,
                NodeKind::L { lock } => {
                    tag |= K_L;
                    aux = *lock;
                }
                NodeKind::Pipe {
                    name: nm,
                    mem: m,
                    burden: b,
                } => {
                    tag |= K_PIPE;
                    name = nm;
                    burden = b.entries();
                    mem = m.as_ref();
                }
                NodeKind::Stage { stage } => {
                    tag |= K_STAGE;
                    aux = *stage;
                }
            }
            let (name_at, name_len) = *name_spans.entry(name).or_insert_with(|| {
                let at = names.len() as u32;
                names.push_str(name);
                (at, name.len() as u32)
            });
            let burden_at = burdens.len() as u32;
            burdens.extend_from_slice(burden);
            let mem_at = if let Some(m) = mem {
                tag |= F_MEM;
                mems.push(*m);
                mems.len() as u32 - 1
            } else {
                0
            };
            nodes.push(FlatNode {
                tag,
                aux,
                length: node.length,
                runs_at,
                runs_len,
                skip: skip[f],
                name_at,
                name_len,
                burden_at,
                burden_len: burden.len() as u32,
                mem_at,
            });
        }
        FlatTree {
            nodes,
            runs,
            burdens,
            mems,
            names,
            orig_of: order,
            flat_of,
        }
    }

    /// Number of stored nodes (identical to the source tree's).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only a bare root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// First flat id past `id`'s contiguously stored DFS subtree — the
    /// O(1) subtree skip. Shared (back-referenced) children live before
    /// `id` and are not part of the span.
    pub fn skip(&self, id: NodeId) -> NodeId {
        self.nodes[id as usize].skip
    }

    /// Flat id of an original-tree node id.
    pub fn flat_id(&self, orig: NodeId) -> NodeId {
        self.flat_of[orig as usize]
    }

    /// Original-tree id of a flat node id.
    pub fn orig_id(&self, flat: NodeId) -> NodeId {
        self.orig_of[flat as usize]
    }

    /// The child runs of `id` as a contiguous slice of the global run
    /// table.
    pub fn runs_of(&self, id: NodeId) -> &[FlatRun] {
        let n = &self.nodes[id as usize];
        &self.runs[n.runs_at as usize..(n.runs_at + n.runs_len) as usize]
    }

    /// Node length in cycles.
    pub fn length(&self, id: NodeId) -> Cycles {
        self.nodes[id as usize].length
    }

    /// Total serial execution length (root length).
    pub fn total_length(&self) -> Cycles {
        self.nodes[Self::ROOT as usize].length
    }

    /// The node's kind, viewed through [`ViewKind`].
    pub fn kind(&self, id: NodeId) -> ViewKind<'_> {
        let n = &self.nodes[id as usize];
        let name = &self.names[n.name_at as usize..(n.name_at + n.name_len) as usize];
        let burden = &self.burdens[n.burden_at as usize..(n.burden_at + n.burden_len) as usize];
        match n.tag & KIND_MASK {
            K_ROOT => ViewKind::Root,
            K_SEC => ViewKind::Sec {
                name,
                nowait: n.tag & F_NOWAIT != 0,
                burden,
            },
            K_TASK => ViewKind::Task,
            K_U => ViewKind::U,
            K_L => ViewKind::L { lock: n.aux },
            K_PIPE => ViewKind::Pipe { name, burden },
            K_STAGE => ViewKind::Stage { stage: n.aux },
            other => unreachable!("corrupt flat tag {other}"),
        }
    }

    /// The logical children of `id` in order: each run's representative
    /// repeated `count` times.
    pub fn expanded(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.runs_of(id)
            .iter()
            .flat_map(|r| std::iter::repeat_n(r.node, r.count as usize))
    }

    /// Total length of top-level serial (U) computation under the root.
    pub fn top_level_serial_length(&self) -> Cycles {
        self.runs_of(Self::ROOT)
            .iter()
            .filter(|r| matches!(self.kind(r.node), ViewKind::U))
            .map(|r| r.total_length)
            .sum()
    }

    /// Flat ids of the top-level parallel regions (Sec/Pipe), in
    /// program order.
    pub fn top_level_regions(&self) -> Vec<NodeId> {
        self.runs_of(Self::ROOT)
            .iter()
            .filter(|r| {
                matches!(
                    self.kind(r.node),
                    ViewKind::Sec { .. } | ViewKind::Pipe { .. }
                )
            })
            .map(|r| r.node)
            .collect()
    }

    /// Approximate bytes of the flat representation (all arenas).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<FlatTree>()
            + self.nodes.len() * std::mem::size_of::<FlatNode>()
            + self.runs.len() * std::mem::size_of::<FlatRun>()
            + self.burdens.len() * std::mem::size_of::<(u32, f64)>()
            + self.mems.len() * std::mem::size_of::<MemProfile>()
            + self.names.len()
            + (self.orig_of.len() + self.flat_of.len()) * std::mem::size_of::<NodeId>()
    }

    /// Rebuild the exact original [`ProgramTree`]: same ids, same
    /// `Plain`/`Rle` variants, same payloads. Lossless by construction;
    /// pinned by round-trip tests.
    pub fn to_tree(&self) -> ProgramTree {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for o in 0..self.nodes.len() as NodeId {
            let f = self.flat_of[o as usize];
            let n = &self.nodes[f as usize];
            let name =
                || self.names[n.name_at as usize..(n.name_at + n.name_len) as usize].to_string();
            let burden = || {
                BurdenTable::from_entries(
                    self.burdens[n.burden_at as usize..(n.burden_at + n.burden_len) as usize]
                        .to_vec(),
                )
            };
            let mem = || (n.tag & F_MEM != 0).then(|| self.mems[n.mem_at as usize]);
            let kind = match n.tag & KIND_MASK {
                K_ROOT => NodeKind::Root,
                K_SEC => NodeKind::Sec {
                    name: name(),
                    nowait: n.tag & F_NOWAIT != 0,
                    mem: mem(),
                    burden: burden(),
                },
                K_TASK => NodeKind::Task { name: name() },
                K_U => NodeKind::U,
                K_L => NodeKind::L { lock: n.aux },
                K_PIPE => NodeKind::Pipe {
                    name: name(),
                    mem: mem(),
                    burden: burden(),
                },
                K_STAGE => NodeKind::Stage { stage: n.aux },
                other => unreachable!("corrupt flat tag {other}"),
            };
            let runs = &self.runs[n.runs_at as usize..(n.runs_at + n.runs_len) as usize];
            let children = if n.tag & F_RLE != 0 {
                ChildList::Rle(
                    runs.iter()
                        .map(|r| Run {
                            node: self.orig_of[r.node as usize],
                            count: r.count,
                            total_length: r.total_length,
                        })
                        .collect(),
                )
            } else {
                ChildList::Plain(runs.iter().map(|r| self.orig_of[r.node as usize]).collect())
            };
            nodes.push(Node {
                kind,
                length: n.length,
                children,
            });
        }
        ProgramTree::from_nodes(nodes)
    }
}

/// Borrowed view of one flat node's kind. Burden tables appear as their
/// raw entry slices (feed them to [`crate::node::burden_factor`]).
#[derive(Debug, Clone, Copy)]
pub enum ViewKind<'a> {
    /// Whole-program node.
    Root,
    /// A parallel section.
    Sec {
        /// Annotation name.
        name: &'a str,
        /// Implicit end barrier suppressed.
        nowait: bool,
        /// Burden-table entries (`(threads, factor)` pairs, sorted).
        burden: &'a [(u32, f64)],
    },
    /// One parallel task.
    Task,
    /// Terminal computation, no lock.
    U,
    /// Terminal computation under a lock.
    L {
        /// Which lock.
        lock: LockId,
    },
    /// A pipeline region.
    Pipe {
        /// Annotation name.
        name: &'a str,
        /// Burden-table entries.
        burden: &'a [(u32, f64)],
    },
    /// One pipeline stage.
    Stage {
        /// Stage index.
        stage: u32,
    },
}

impl ViewKind<'_> {
    /// Short tag (matches [`NodeKind::tag`]).
    pub fn tag(&self) -> &'static str {
        match self {
            ViewKind::Root => "Root",
            ViewKind::Sec { .. } => "Sec",
            ViewKind::Task => "Task",
            ViewKind::U => "U",
            ViewKind::L { .. } => "L",
            ViewKind::Pipe { .. } => "Pipe",
            ViewKind::Stage { .. } => "Stage",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Run;

    fn rle_tree() -> ProgramTree {
        // Root -> [Sec (RLE: Task-A x3, Task-B x2), U]; shared layout
        // mirrors visit.rs's fixture plus a top-level serial node.
        let nodes = vec![
            Node {
                kind: NodeKind::Root,
                length: 330,
                children: ChildList::Plain(vec![1, 6]),
            },
            Node {
                kind: NodeKind::Sec {
                    name: "s".into(),
                    nowait: true,
                    mem: Some(MemProfile {
                        instructions: 10,
                        cycles: 20,
                        llc_misses: 1,
                        dram_bytes: 64,
                        traffic_mbps: 123.456,
                    }),
                    burden: BurdenTable::from_entries(vec![(2, 1.25), (4, 1.5)]),
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
            Node::l(7, 100),
            Node {
                kind: NodeKind::Task { name: "b".into() },
                length: 10,
                children: ChildList::Plain(vec![5]),
            },
            Node::u(10),
            Node::u(10),
        ];
        ProgramTree::from_nodes(nodes)
    }

    #[test]
    fn round_trip_is_lossless() {
        let tree = rle_tree();
        let flat = FlatTree::from_tree(&tree);
        assert_eq!(flat.len(), tree.len());
        assert_eq!(flat.to_tree(), tree);
    }

    #[test]
    fn dfs_order_and_skip_offsets() {
        let tree = rle_tree();
        let flat = FlatTree::from_tree(&tree);
        // DFS first-visit order: Root, Sec, TaskA, L, TaskB, U, U(serial).
        let origs: Vec<NodeId> = (0..flat.len() as NodeId).map(|f| flat.orig_id(f)).collect();
        assert_eq!(origs, vec![0, 1, 2, 3, 4, 5, 6]);
        // Root's subtree spans everything; Sec's spans its four
        // descendants; a terminal's span is itself.
        assert_eq!(flat.skip(0), 7);
        assert_eq!(flat.skip(flat.flat_id(1)), 6);
        assert_eq!(flat.skip(flat.flat_id(3)), 4);
    }

    #[test]
    fn view_matches_pointer_view() {
        let tree = rle_tree();
        let flat = FlatTree::from_tree(&tree);
        assert_eq!(tree.total_length(), flat.total_length());
        assert_eq!(
            tree.top_level_serial_length(),
            flat.top_level_serial_length()
        );
        // Regions agree modulo the id mapping.
        let fr = flat.top_level_regions();
        assert_eq!(
            tree.top_level_sections(),
            fr.iter().map(|&f| flat.orig_id(f)).collect::<Vec<_>>()
        );
        // Every node's expanded child sequence agrees modulo mapping,
        // and kinds/lengths/burdens line up.
        for o in 0..tree.len() as NodeId {
            let f = flat.flat_id(o);
            assert_eq!(tree.node(o).length, flat.length(f), "node {o}");
            assert_eq!(tree.node(o).kind.tag(), flat.kind(f).tag(), "node {o}");
            if let (
                NodeKind::Sec {
                    name: pn,
                    nowait: pw,
                    burden: pb,
                    ..
                },
                ViewKind::Sec {
                    name: fname,
                    nowait: fw,
                    burden: fb,
                },
            ) = (&tree.node(o).kind, flat.kind(f))
            {
                assert_eq!(pn, fname);
                assert_eq!(*pw, fw);
                assert_eq!(pb.entries(), fb);
            }
            let pe: Vec<NodeId> = crate::visit::expanded_children(&tree, o).collect();
            let fe: Vec<NodeId> = flat.expanded(f).map(|c| flat.orig_id(c)).collect();
            assert_eq!(pe, fe, "node {o}");
        }
    }

    #[test]
    fn plain_children_become_unit_runs() {
        let tree = rle_tree();
        let flat = FlatTree::from_tree(&tree);
        let root_runs = flat.runs_of(FlatTree::ROOT);
        assert_eq!(root_runs.len(), 2);
        assert!(root_runs.iter().all(|r| r.count == 1));
        // The serial U child's unit run carries its own length.
        assert_eq!(root_runs[1].total_length, 10);
        let sec_runs = flat.runs_of(flat.flat_id(1));
        assert_eq!(
            sec_runs
                .iter()
                .map(|r| (flat.orig_id(r.node), r.count, r.total_length))
                .collect::<Vec<_>>(),
            vec![(2, 3, 300), (4, 2, 20)]
        );
    }

    #[test]
    fn shared_subtrees_flatten_once() {
        // Two runs sharing one representative: the DAG case.
        let nodes = vec![
            Node {
                kind: NodeKind::Root,
                length: 40,
                children: ChildList::Plain(vec![1]),
            },
            Node {
                kind: NodeKind::Sec {
                    name: "s".into(),
                    nowait: false,
                    mem: None,
                    burden: BurdenTable::unit(),
                },
                length: 40,
                children: ChildList::Rle(vec![
                    Run {
                        node: 2,
                        count: 2,
                        total_length: 20,
                    },
                    Run {
                        node: 2,
                        count: 2,
                        total_length: 20,
                    },
                ]),
            },
            Node {
                kind: NodeKind::Task { name: "t".into() },
                length: 10,
                children: ChildList::Plain(vec![3]),
            },
            Node::u(10),
        ];
        let tree = ProgramTree::from_nodes(nodes);
        let flat = FlatTree::from_tree(&tree);
        assert_eq!(flat.len(), 4, "shared representative stored once");
        let runs = flat.runs_of(flat.flat_id(1));
        assert_eq!(runs[0].node, runs[1].node, "both runs back-reference it");
        assert_eq!(flat.to_tree(), tree);
    }
}
