//! Property tests for the fast-forwarding emulator: predictions must
//! respect fundamental bounds for any program tree.

use proptest::prelude::*;

use ffemu::{predict_flat, FfOptions, FfPrediction};
use machsim::Schedule;
use omp_rt::OmpOverheads;
use proftree::stats::WorkSummary;
use proftree::{FlatTree, ProgramTree, TreeBuilder};

fn predict(tree: &ProgramTree, opts: FfOptions) -> FfPrediction {
    predict_flat(&FlatTree::from_tree(tree), opts)
}

#[derive(Debug, Clone)]
struct LoopSpec {
    lens: Vec<u32>,
    lock_every: u8,
    lock_len: u32,
}

fn loop_strategy() -> impl Strategy<Value = LoopSpec> {
    (
        proptest::collection::vec(1u32..100_000, 1..40),
        0u8..4,
        1u32..20_000,
    )
        .prop_map(|(lens, lock_every, lock_len)| LoopSpec {
            lens,
            lock_every,
            lock_len,
        })
}

fn build(specs: &[LoopSpec], serial: u32) -> ProgramTree {
    let mut b = TreeBuilder::new();
    b.add_compute(serial as u64).unwrap();
    for (si, spec) in specs.iter().enumerate() {
        b.begin_sec(&format!("s{si}")).unwrap();
        for (i, &len) in spec.lens.iter().enumerate() {
            b.begin_task("t").unwrap();
            b.add_compute(len as u64).unwrap();
            if spec.lock_every > 0 && i % spec.lock_every as usize == 0 {
                b.begin_lock(1).unwrap();
                b.add_compute(spec.lock_len as u64).unwrap();
                b.end_lock(1).unwrap();
            }
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
    }
    b.finish().unwrap()
}

fn zero_opts(cpus: u32, schedule: Schedule) -> FfOptions {
    FfOptions {
        cpus,
        schedule,
        overheads: OmpOverheads::zero(),
        use_burden: false,
        contended_lock_penalty: 0,
        model_pipelines: true,
        expand_runs: false,
    }
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::static_block()),
        (1u32..5).prop_map(|c| Schedule::Static { chunk: Some(c) }),
        (1u32..5).prop_map(|c| Schedule::Dynamic { chunk: c }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Predicted time lies in [span lower bound, serial time]; speedup in
    /// [1, cpus] — for any tree and schedule, with zero overheads.
    #[test]
    fn prediction_within_fundamental_bounds(
        specs in proptest::collection::vec(loop_strategy(), 1..4),
        serial in 0u32..100_000,
        cpus in 1u32..16,
        schedule in schedule_strategy(),
    ) {
        let tree = build(&specs, serial);
        let w = WorkSummary::gather(&tree);
        let p = predict(&tree, zero_opts(cpus, schedule));
        prop_assert!(p.predicted_cycles <= w.total.max(1), "beyond serial");
        // Brent-style lower bound per top-level structure.
        let lower = (w.total as f64 / cpus as f64).max(w.serial_work as f64);
        prop_assert!(
            p.predicted_cycles as f64 >= lower - 1.0,
            "below work/cpu bound: {} < {lower}",
            p.predicted_cycles
        );
        prop_assert!(p.speedup >= 1.0 - 1e-9);
        prop_assert!(p.speedup <= cpus as f64 + 1e-9);
    }

    /// Lock-serialised work is respected: predicted time ≥ total work
    /// under any single lock.
    #[test]
    fn lock_chain_lower_bound(
        specs in proptest::collection::vec(loop_strategy(), 1..3),
        cpus in 2u32..12,
    ) {
        let tree = build(&specs, 0);
        let w = WorkSummary::gather(&tree);
        let lock_work = w.lock_work.get(&1).copied().unwrap_or(0);
        let p = predict(&tree, zero_opts(cpus, Schedule::dynamic1()));
        prop_assert!(
            p.predicted_cycles >= lock_work,
            "prediction {} under lock chain {lock_work}",
            p.predicted_cycles
        );
    }

    /// Overheads only hurt — under `schedule(static)`, whose block
    /// assignment is invariant, so no Graham scheduling anomaly can turn
    /// extra overhead into a luckier schedule (dynamic and round-robin
    /// schedules CAN get faster when overheads perturb chunk timing —
    /// that is a real multiprocessor phenomenon, not a bug).
    #[test]
    fn overheads_monotone_static_block(
        specs in proptest::collection::vec(loop_strategy(), 1..3),
        cpus in 1u32..13,
    ) {
        let tree = build(&specs, 1_000);
        let cheap = predict(&tree, zero_opts(cpus, Schedule::static_block()));
        let mut opts = zero_opts(cpus, Schedule::static_block());
        opts.overheads = OmpOverheads::westmere_scaled();
        opts.contended_lock_penalty = 2_000;
        let dear = predict(&tree, opts);
        prop_assert!(dear.predicted_cycles >= cheap.predicted_cycles);
    }

    /// Burden factors scale predictions proportionally for
    /// single-section trees with uniform burden.
    #[test]
    fn burden_scales_prediction(
        lens in proptest::collection::vec(1_000u32..50_000, 2..20),
        cpus in 2u32..12,
        burden_milli in 1_000u64..3_000,
    ) {
        let spec = LoopSpec { lens, lock_every: 0, lock_len: 1 };
        let mut tree = build(&[spec], 0);
        let base = predict(&tree, zero_opts(cpus, Schedule::static1())).predicted_cycles;
        let factor = burden_milli as f64 / 1000.0;
        let sec = tree.top_level_sections()[0];
        if let proftree::NodeKind::Sec { burden, .. } = &mut tree.node_mut(sec).kind {
            *burden = proftree::BurdenTable::from_entries(vec![(cpus, factor)]);
        }
        let mut opts = zero_opts(cpus, Schedule::static1());
        opts.use_burden = true;
        let burdened = predict(&tree, opts).predicted_cycles;
        let expect = base as f64 * factor;
        let rel = (burdened as f64 - expect).abs() / expect;
        prop_assert!(rel < 0.01, "burden scaling off by {:.2}%", rel * 100.0);
    }

    /// The emulator is a pure function.
    #[test]
    fn emulation_deterministic(
        specs in proptest::collection::vec(loop_strategy(), 1..3),
        cpus in 1u32..13,
        schedule in schedule_strategy(),
    ) {
        let tree = build(&specs, 123);
        let mut opts = zero_opts(cpus, schedule);
        opts.overheads = OmpOverheads::westmere_scaled();
        let a = predict(&tree, opts);
        let b = predict(&tree, opts);
        prop_assert_eq!(a.predicted_cycles, b.predicted_cycles);
    }
}
