//! Property-based tests for program-tree construction and compression.

use proftree::visit::{expanded_children, logical_node_count};
use proftree::{
    compress_tree, ChildList, CompressOptions, FlatTree, NodeId, NodeKind, ProgramTree,
    TreeBuilder, ViewKind, WorkSummary,
};
use proptest::prelude::*;

/// A node kind's emulator-visible fields: tag, region name, `nowait`,
/// burden entries, and lock id or stage index.
type KindKey<'a> = (&'static str, &'a str, bool, &'a [(u32, f64)], u32);

fn tree_kind(k: &NodeKind) -> KindKey<'_> {
    match k {
        NodeKind::Sec {
            name,
            nowait,
            burden,
            ..
        } => ("Sec", name, *nowait, burden.entries(), 0),
        NodeKind::Pipe { name, burden, .. } => ("Pipe", name, false, burden.entries(), 0),
        NodeKind::L { lock } => ("L", "", false, &[], *lock),
        NodeKind::Stage { stage } => ("Stage", "", false, &[], *stage),
        other => (other.tag(), "", false, &[], 0),
    }
}

fn flat_kind(k: ViewKind<'_>) -> KindKey<'_> {
    match k {
        ViewKind::Sec {
            name,
            nowait,
            burden,
        } => ("Sec", name, nowait, burden, 0),
        ViewKind::Pipe { name, burden } => ("Pipe", name, false, burden, 0),
        ViewKind::L { lock } => ("L", "", false, &[], lock),
        ViewKind::Stage { stage } => ("Stage", "", false, &[], stage),
        other => (other.tag(), "", false, &[], 0),
    }
}

/// The arena reads back `tree` exactly, node by node through
/// `flat_id`: kind, length, child runs and logical children, plus the
/// top-level regions and serial length the emulators start from.
fn assert_flat_reads_back(
    tree: &ProgramTree,
    flat: &FlatTree,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(flat.len(), tree.len());
    prop_assert_eq!(flat.total_length(), tree.total_length());
    for o in tree.ids() {
        let node = tree.node(o);
        let f = flat.flat_id(o);
        prop_assert_eq!(flat.orig_id(f), o);
        prop_assert_eq!(flat_kind(flat.kind(f)), tree_kind(&node.kind), "node {}", o);
        prop_assert_eq!(flat.length(f), node.length, "node {}", o);
        let runs: Vec<(NodeId, u32, u64)> = flat
            .runs_of(f)
            .iter()
            .map(|r| (flat.orig_id(r.node), r.count, r.total_length))
            .collect();
        let want: Vec<(NodeId, u32, u64)> = match &node.children {
            ChildList::Plain(v) => v.iter().map(|&c| (c, 1, tree.node(c).length)).collect(),
            ChildList::Rle(rs) => rs
                .iter()
                .map(|r| (r.node, r.count, r.total_length))
                .collect(),
        };
        prop_assert_eq!(runs, want, "node {}", o);
        let logical: Vec<NodeId> = flat.expanded(f).map(|c| flat.orig_id(c)).collect();
        prop_assert_eq!(logical, expanded_children(tree, o).collect::<Vec<_>>());
    }
    let regions: Vec<NodeId> = flat
        .top_level_regions()
        .iter()
        .map(|&f| flat.orig_id(f))
        .collect();
    prop_assert_eq!(regions, tree.top_level_sections());
    prop_assert_eq!(
        flat.top_level_serial_length(),
        tree.top_level_serial_length()
    );
    Ok(())
}

/// A recipe for building a random but *valid* annotated program.
#[derive(Debug, Clone)]
enum Step {
    Loop {
        trips: u8,
        base: u32,
        jitter: u32,
        lock_every: u8,
    },
    Serial(u32),
    NestedLoop {
        outer: u8,
        inner: u8,
        base: u32,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u8..40, 1u32..10_000, 0u32..500, 0u8..4).prop_map(|(trips, base, jitter, lock_every)| {
            Step::Loop {
                trips,
                base,
                jitter,
                lock_every,
            }
        }),
        (1u32..50_000).prop_map(Step::Serial),
        (1u8..8, 1u8..8, 1u32..5_000).prop_map(|(outer, inner, base)| Step::NestedLoop {
            outer,
            inner,
            base
        }),
    ]
}

fn build(steps: &[Step]) -> ProgramTree {
    let mut b = TreeBuilder::new();
    for (si, step) in steps.iter().enumerate() {
        match step {
            Step::Serial(c) => b.add_compute(*c as u64).unwrap(),
            Step::Loop {
                trips,
                base,
                jitter,
                lock_every,
            } => {
                b.begin_sec(&format!("loop{si}")).unwrap();
                for i in 0..*trips {
                    b.begin_task("t").unwrap();
                    let len = *base as u64 + (i as u64 * *jitter as u64) % (*base as u64);
                    b.add_compute(len).unwrap();
                    if *lock_every > 0 && i % *lock_every == 0 {
                        b.begin_lock(1).unwrap();
                        b.add_compute(*base as u64 / 4 + 1).unwrap();
                        b.end_lock(1).unwrap();
                    }
                    b.end_task().unwrap();
                }
                b.end_sec(false).unwrap();
            }
            Step::NestedLoop { outer, inner, base } => {
                b.begin_sec(&format!("outer{si}")).unwrap();
                for _ in 0..*outer {
                    b.begin_task("ot").unwrap();
                    b.add_compute(*base as u64).unwrap();
                    b.begin_sec("inner").unwrap();
                    for j in 0..*inner {
                        b.begin_task("it").unwrap();
                        b.add_compute(*base as u64 + j as u64).unwrap();
                        b.end_task().unwrap();
                    }
                    b.end_sec(false).unwrap();
                    b.end_task().unwrap();
                }
                b.end_sec(false).unwrap();
            }
        }
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compression never changes total work, logical node count, or the
    /// §IV-E work decomposition beyond the length tolerance.
    #[test]
    fn compression_preserves_work(steps in proptest::collection::vec(step_strategy(), 1..6)) {
        let tree = build(&steps);
        tree.validate().unwrap();
        let (c, stats) = compress_tree(&tree, CompressOptions::default());
        c.validate().unwrap();

        // Exact invariants.
        prop_assert_eq!(c.total_length(), tree.total_length());
        prop_assert_eq!(logical_node_count(&c), logical_node_count(&tree));
        prop_assert_eq!(stats.logical_nodes, logical_node_count(&tree));
        prop_assert!(c.len() <= tree.len());

        // Decomposition invariants.
        let w0 = WorkSummary::gather(&tree);
        let w1 = WorkSummary::gather(&c);
        prop_assert_eq!(w0.serial_work, w1.serial_work);
        prop_assert_eq!(w0.total, w1.total);
        prop_assert_eq!(w0.sections.len(), w1.sections.len());

        // Span may shift within the tolerance band when subtrees merged;
        // bound the relative drift by the tolerance.
        let (s0, s1) = (w0.span as f64, w1.span as f64);
        if s0 > 0.0 {
            prop_assert!((s1 - s0).abs() / s0 <= 0.06, "span drift {s0} -> {s1}");
        }
    }

    /// Span ≤ total, and Brent bounds are sane for any built tree.
    #[test]
    fn span_and_bounds_invariants(steps in proptest::collection::vec(step_strategy(), 1..6)) {
        let tree = build(&steps);
        let w = WorkSummary::gather(&tree);
        prop_assert!(w.span <= w.total);
        prop_assert_eq!(w.serial_work + w.parallel_work, w.total);
        let mut prev = 0.0_f64;
        for t in [1u32, 2, 4, 8, 16, 64] {
            let b = w.brent_bound(t);
            prop_assert!(b >= prev - 1e-9, "bound not monotone at t={t}");
            prop_assert!(b <= t as f64 + 1e-9, "superlinear bound at t={t}");
            prev = b;
        }
    }

    /// Double compression is idempotent w.r.t. the invariants.
    #[test]
    fn recompression_stable(steps in proptest::collection::vec(step_strategy(), 1..4)) {
        let tree = build(&steps);
        let (c1, _) = compress_tree(&tree, CompressOptions::default());
        let (c2, _) = compress_tree(&c1, CompressOptions::default());
        prop_assert_eq!(c2.total_length(), tree.total_length());
        prop_assert_eq!(logical_node_count(&c2), logical_node_count(&tree));
        prop_assert!(c2.len() <= c1.len());
    }

    /// The wire codec and the flat arena are both lossless for any
    /// built tree, plain or compressed: encode→decode reproduces the
    /// identical `ProgramTree`, and so does `FlatTree::to_tree`. The
    /// arena also reads back every node as the emulators see it
    /// ([`assert_flat_reads_back`]).
    #[test]
    fn wire_and_flat_round_trip(steps in proptest::collection::vec(step_strategy(), 1..6)) {
        let tree = build(&steps);
        let (compressed, _) = compress_tree(&tree, CompressOptions::default());
        for t in [&tree, &compressed] {
            let mut buf = Vec::new();
            proftree::wire::encode_tree(t, &mut buf);
            let mut at = 0usize;
            let back = proftree::wire::decode_tree(&buf, &mut at)
                .expect("wire decode of a freshly encoded tree");
            prop_assert_eq!(at, buf.len(), "decode must consume the whole buffer");
            prop_assert_eq!(&back, t);

            let flat = FlatTree::from_tree(t);
            prop_assert_eq!(&flat.to_tree(), t);
            assert_flat_reads_back(t, &flat)?;
        }
    }
}
