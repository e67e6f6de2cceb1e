//! End-to-end property: on compute-only trees the synthesizer's
//! prediction must track the machine's ground truth closely — they share
//! the runtime and machine, differing only in FakeDelay substitution and
//! traversal-overhead bookkeeping (paper Table III: "very accurate").

use proptest::prelude::*;

use machsim::{Paradigm, Schedule};
use proftree::{FlatTree, ProgramTree, TreeBuilder};
use synthemu::{predict_flat, SynthOptions};
use workloads::{run_real, RealOptions};

#[derive(Debug, Clone)]
struct LoopSpec {
    lens: Vec<u32>,
    lock_every: u8,
    lock_len: u32,
    nested_every: u8,
    nested_lens: Vec<u32>,
}

fn loop_strategy() -> impl Strategy<Value = LoopSpec> {
    (
        proptest::collection::vec(5_000u32..200_000, 2..24),
        0u8..4,
        1_000u32..20_000,
        0u8..5,
        proptest::collection::vec(2_000u32..30_000, 2..6),
    )
        .prop_map(
            |(lens, lock_every, lock_len, nested_every, nested_lens)| LoopSpec {
                lens,
                lock_every,
                lock_len,
                nested_every,
                nested_lens,
            },
        )
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
            if spec.nested_every > 0 && i % spec.nested_every as usize == 1 {
                b.begin_sec("inner").unwrap();
                for &nl in &spec.nested_lens {
                    b.begin_task("nt").unwrap();
                    b.add_compute(nl as u64).unwrap();
                    b.end_task().unwrap();
                }
                b.end_sec(false).unwrap();
            }
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Synthesizer vs ground truth under OpenMP, arbitrary flat/nested
    /// trees, three schedules, 4 and 8 threads: within 12%.
    #[test]
    fn synthesizer_tracks_ground_truth(
        specs in proptest::collection::vec(loop_strategy(), 1..3),
        serial in 0u32..100_000,
        threads_sel in 0usize..2,
        sched_sel in 0usize..3,
    ) {
        let tree = build(&specs, serial);
        let threads = [4u32, 8][threads_sel];
        let schedule = [Schedule::static1(), Schedule::static_block(), Schedule::dynamic1()]
            [sched_sel];

        let real = run_real(
            &tree,
            &RealOptions::new(threads, Paradigm::OpenMp, schedule),
        )
        .expect("ground truth");

        let mut so = SynthOptions::new(threads, Paradigm::OpenMp);
        so.schedule = schedule;
        so.use_burden = false;
        let pred = predict_flat(&FlatTree::from_tree(&tree), &so).expect("synthesizer");

        let rel = (pred.speedup - real.speedup).abs() / real.speedup;
        prop_assert!(
            rel < 0.12,
            "threads={threads} {}: pred {:.2} vs real {:.2} ({:.1}% off)",
            schedule.name(),
            pred.speedup,
            real.speedup,
            rel * 100.0
        );
    }

    /// Under Cilk work stealing the synthesizer stays within 20% — the
    /// paper's own "reasonably precise" boundary ("such a 20% deviation
    /// in speedups is often observed", §VII-B). Work stealing makes the
    /// exact schedule depend on steal timing: the ground-truth run's
    /// workers spin/park through the serial prologue, so their victim
    /// sequences differ from the synthesizer's per-section runs, and on
    /// coarse task sets the resulting schedules legitimately diverge.
    #[test]
    fn synthesizer_tracks_cilk_ground_truth(
        lens in proptest::collection::vec(5_000u32..50_000, 12..40),
        lock_every in 0u8..4,
        threads_sel in 0usize..2,
    ) {
        // Fine-grained loops only: with few, very coarse tasks a single
        // divergent steal decision moves the makespan by more than any
        // reasonable tolerance — an irreducible property of work
        // stealing, not a prediction defect.
        let specs = vec![LoopSpec {
            lens,
            lock_every,
            lock_len: 5_000,
            nested_every: 0,
            nested_lens: vec![2_000],
        }];
        let tree = build(&specs, 10_000);
        let threads = [4u32, 8][threads_sel];

        let real = run_real(
            &tree,
            &RealOptions::new(threads, Paradigm::CilkPlus, Schedule::static_block()),
        )
        .expect("ground truth");
        // Zero the synthesizer's own traversal-overhead modelling here:
        // under work stealing its balanced-subtraction estimate is the
        // paper's documented source of "hard-to-predict" variation
        // (§VII-C on FFT-Cilk), which this property is not about.
        let so = {
            let mut o = SynthOptions::new(threads, Paradigm::CilkPlus);
            o.use_burden = false;
            o.access_node_overhead = 0;
            o.recursive_call_overhead = 0;
            o
        };
        let pred = predict_flat(&FlatTree::from_tree(&tree), &so).expect("synthesizer");
        let rel = (pred.speedup - real.speedup).abs() / real.speedup;
        prop_assert!(
            rel < 0.20,
            "cilk threads={threads}: pred {:.2} vs real {:.2}",
            pred.speedup,
            real.speedup
        );
    }
}
