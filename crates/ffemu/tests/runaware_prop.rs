//! Seeded property test: the FF's closed forms (static runs, one-step
//! `U`-only chunks, batched hand-out over uniform stretches) must agree
//! bit for bit with forced per-iteration expansion, for random sections
//! under every schedule.
//!
//! The generator aims at the paths' edges: run lengths and costs drawn
//! from a small set so that equal-cost neighbours and ties are common,
//! zero-length tasks under zero overheads (a zero chunk cost, where no
//! batch may be taken), top-level sections whose ranks all start at the
//! same time (ties broken by rank), chunks that mix `U`-only and locked
//! tasks, and nested sections that leave the CPU clocks skewed when the
//! next nested team starts.

use proptest::prelude::*;

use ffemu::{predict_flat, FfOptions};
use machsim::Schedule;
use omp_rt::OmpOverheads;
use proftree::{BurdenTable, CompressOptions, FlatTree, NodeKind, ProgramTree, TreeBuilder};

/// One task body.
#[derive(Debug, Clone)]
enum Body {
    /// `U`-only: one compute op, or an empty task when 0.
    Plain(u64),
    /// Compute, a critical section on `lock`, compute.
    Locked {
        pre: u64,
        lock: u32,
        held: u64,
        post: u64,
    },
    /// Compute, then a nested section of `(count, length)` plain runs.
    Nested { pre: u64, inner: Vec<(u32, u64)> },
}

/// A section: `(count, body)` runs of identical tasks.
type Section = Vec<(u32, Body)>;

/// Lengths from a small set (equal costs are common) or anywhere.
fn length() -> impl Strategy<Value = u64> {
    prop_oneof![(0u64..4).prop_map(|x| x * 250), 1u64..40_000]
}

fn body() -> impl Strategy<Value = Body> {
    prop_oneof![
        length().prop_map(Body::Plain),
        length().prop_map(Body::Plain),
        length().prop_map(Body::Plain),
        (length(), 1u32..3, 1u64..5_000, length()).prop_map(|(pre, lock, held, post)| {
            Body::Locked {
                pre,
                lock,
                held,
                post,
            }
        }),
        (
            length(),
            proptest::collection::vec((1u32..9, length()), 1..4)
        )
            .prop_map(|(pre, inner)| Body::Nested { pre, inner }),
    ]
}

fn section() -> impl Strategy<Value = Section> {
    proptest::collection::vec((1u32..10, body()), 1..7)
}

fn schedule() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::static_block()),
        (1u32..4).prop_map(|c| Schedule::Static { chunk: Some(c) }),
        (1u32..5).prop_map(|chunk| Schedule::Dynamic { chunk }),
        (1u32..5).prop_map(|min_chunk| Schedule::Guided { min_chunk }),
    ]
}

fn overheads() -> impl Strategy<Value = OmpOverheads> {
    prop_oneof![
        Just(OmpOverheads::zero()),
        Just(OmpOverheads::westmere_scaled()),
        (0u64..60, 0u64..60, 0u64..3).prop_map(|(dispatch, iter, sync)| OmpOverheads {
            static_dispatch: dispatch,
            dynamic_dispatch: dispatch,
            iter_start: iter,
            lock_acquire: sync * 20,
            lock_release: sync * 10,
            ..OmpOverheads::zero()
        }),
    ]
}

/// Build the program; top-level section `i` gets burden factor
/// `burdens[i % len]` at `cpus`.
fn build(sections: &[Section], burdens: &[f64], cpus: u32) -> ProgramTree {
    let mut b = TreeBuilder::new();
    for runs in sections {
        b.add_compute(100).unwrap();
        b.begin_sec("s").unwrap();
        for (count, body) in runs {
            for _ in 0..*count {
                b.begin_task("t").unwrap();
                match body {
                    Body::Plain(len) => b.add_compute(*len).unwrap(),
                    Body::Locked {
                        pre,
                        lock,
                        held,
                        post,
                    } => {
                        b.add_compute(*pre).unwrap();
                        b.begin_lock(*lock).unwrap();
                        b.add_compute(*held).unwrap();
                        b.end_lock(*lock).unwrap();
                        b.add_compute(*post).unwrap();
                    }
                    Body::Nested { pre, inner } => {
                        b.add_compute(*pre).unwrap();
                        b.begin_sec("inner").unwrap();
                        for &(k, len) in inner {
                            for _ in 0..k {
                                b.begin_task("it").unwrap();
                                b.add_compute(len).unwrap();
                                b.end_task().unwrap();
                            }
                        }
                        b.end_sec(false).unwrap();
                    }
                }
                b.end_task().unwrap();
            }
        }
        b.end_sec(false).unwrap();
    }
    let mut tree = b.finish().unwrap();
    for (i, sec) in tree.top_level_sections().into_iter().enumerate() {
        if let NodeKind::Sec { burden: table, .. } = &mut tree.node_mut(sec).kind {
            *table = BurdenTable::from_entries(vec![(cpus, burdens[i % burdens.len()])]);
        }
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `expand_runs: false` and `true` agree bit for bit, on the plain
    /// tree (count-1 runs, merged by cost) and its lossless RLE
    /// compression (long runs, task nodes shared across sections).
    #[test]
    fn closed_forms_match_expansion(
        sections in proptest::collection::vec(section(), 1..4),
        cpus in 1u32..13,
        sched in schedule(),
        overheads in overheads(),
        burden_milli in proptest::collection::vec(prop_oneof![Just(1_000u64), 1_000u64..2_500], 1..3),
    ) {
        let burdens: Vec<f64> = burden_milli.iter().map(|&b| b as f64 / 1000.0).collect();
        let tree = build(&sections, &burdens, cpus);
        // A tolerance far below one cycle in 40k merges equal tasks only.
        let exact = CompressOptions { tolerance: 1e-6, min_children: 2 };
        let (rle, _) = proftree::compress_tree(&tree, exact);
        for t in [FlatTree::from_tree(&tree), FlatTree::from_tree(&rle)] {
            let fast = FfOptions {
                cpus,
                schedule: sched,
                overheads,
                use_burden: true,
                contended_lock_penalty: 500,
                model_pipelines: true,
                expand_runs: false,
            };
            let slow = FfOptions { expand_runs: true, ..fast };
            let a = predict_flat(&t, fast);
            let b = predict_flat(&t, slow);
            prop_assert_eq!(a.predicted_cycles, b.predicted_cycles);
            prop_assert_eq!(a.sections, b.sections);
        }
    }
}
