//! A Suitability-like emulator (Intel Parallel Advisor, paper §II-B/VII-B).
//!
//! Suitability emulates an annotated program's parallel-region tree with a
//! priority-queue interpreter — the same family as our FF — but, per the
//! paper's experimentation:
//!
//! * it "does not provide speedup predictions for a specific scheduling";
//!   its emulator behaves close to OpenMP's `(dynamic,1)` — so that's the
//!   only policy used here;
//! * it shares the FF's nested-parallelism weakness (no OS preemption
//!   model, round-robin nested mapping — Fig. 7/Fig. 11(f));
//! * it has no memory performance model (`Suit` in Fig. 12 never
//!   saturates);
//! * it overestimates the overhead of frequently-invoked inner parallel
//!   loops (the paper's explanation for its LU misprediction) — modelled
//!   by a heavy fixed fork cost charged per nested region entry;
//! * out of the box it only predicts for power-of-two CPU counts; other
//!   counts are interpolated (the paper interpolates 6/10/12 in Fig. 12).

use ffemu::{predict_flat, FfOptions, FfPrediction};
use machsim::Schedule;
use omp_rt::OmpOverheads;
use proftree::{FlatTree, ProgramTree};

/// Fixed overheads of the Suitability-like emulator: a heavy region fork
/// cost, applied to *every* region entry including nested ones.
fn suitability_overheads() -> OmpOverheads {
    let mut o = OmpOverheads::westmere_scaled();
    // Advisor assumes a generic threading layer with conservative
    // (pessimistic) region costs; this is what overestimates the cost of
    // frequent inner-loop parallelism.
    o.parallel_start = 30_000;
    o.parallel_end = 12_000;
    o.dynamic_dispatch = 250;
    o.iter_start = 60;
    o
}

/// Predict with the Suitability-like emulator. `cpus` may be any value;
/// out-of-the-box the tool evaluates the nearest power-of-two counts and
/// interpolates, which this reproduces.
pub fn suitability_predict(tree: &ProgramTree, cpus: u32) -> FfPrediction {
    let tree = &FlatTree::from_tree(tree);
    let cpus = cpus.max(1);
    if cpus.is_power_of_two() {
        return raw_predict(tree, cpus);
    }
    // Interpolate speedup between the bracketing powers of two.
    let lo = 1u32 << (31 - cpus.leading_zeros());
    let hi = lo * 2;
    let plo = raw_predict(tree, lo);
    let phi = raw_predict(tree, hi);
    let w = (cpus - lo) as f64 / (hi - lo) as f64;
    let speedup = plo.speedup + (phi.speedup - plo.speedup) * w;
    let serial = plo.serial_cycles;
    FfPrediction {
        predicted_cycles: ((serial as f64 / speedup).round() as u64).max(1),
        serial_cycles: serial,
        speedup,
        sections: plo.sections,
    }
}

fn raw_predict(tree: &FlatTree, cpus: u32) -> FfPrediction {
    let opts = FfOptions {
        cpus,
        schedule: Schedule::dynamic1(),
        overheads: suitability_overheads(),
        // No memory performance model (Table I).
        use_burden: false,
        contended_lock_penalty: 2_000,
        // Advisor's emulator has no pipeline model (Table I): pipeline
        // regions are treated as serial code.
        model_pipelines: false,
        expand_runs: false,
    };
    predict_flat(tree, opts)
}

/// Speedup curve over arbitrary CPU counts (interpolated off powers of
/// two, like the paper's Fig. 12 'Suit' series).
pub fn suitability_curve(tree: &ProgramTree, cpu_counts: &[u32]) -> Vec<(u32, f64)> {
    cpu_counts
        .iter()
        .map(|&c| (c, suitability_predict(tree, c).speedup))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proftree::{BurdenTable, NodeKind, TreeBuilder};

    fn coarse_loop(n: usize, len: u64) -> ProgramTree {
        let mut b = TreeBuilder::new();
        b.begin_sec("s").unwrap();
        for _ in 0..n {
            b.begin_task("t").unwrap();
            b.add_compute(len).unwrap();
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn coarse_grained_loop_predicted_well() {
        let tree = coarse_loop(32, 1_000_000);
        let p = suitability_predict(&tree, 4);
        assert!((p.speedup - 4.0).abs() < 0.2, "speedup {}", p.speedup);
    }

    #[test]
    fn interpolates_non_power_of_two() {
        let tree = coarse_loop(64, 1_000_000);
        let p4 = suitability_predict(&tree, 4).speedup;
        let p8 = suitability_predict(&tree, 8).speedup;
        let p6 = suitability_predict(&tree, 6).speedup;
        let expect = (p4 + p8) / 2.0;
        assert!((p6 - expect).abs() < 1e-9, "p6 {p6} != {expect}");
    }

    #[test]
    fn ignores_burden_factors() {
        let mut tree = coarse_loop(16, 1_000_000);
        let sec = tree.top_level_sections()[0];
        if let NodeKind::Sec { burden, .. } = &mut tree.node_mut(sec).kind {
            *burden = BurdenTable::from_entries(vec![(8, 2.0)]);
        }
        let p = suitability_predict(&tree, 8);
        // A memory-oblivious tool still predicts near-linear speedup.
        assert!(p.speedup > 7.0, "speedup {}", p.speedup);
    }

    #[test]
    fn inner_loop_parallelism_penalised() {
        // LU-like shape: outer *serial* iterations each invoking a
        // parallel inner loop → the heavy per-region cost accumulates.
        let mut b = TreeBuilder::new();
        for _ in 0..40 {
            b.begin_sec("inner").unwrap();
            for _ in 0..8 {
                b.begin_task("t").unwrap();
                b.add_compute(40_000).unwrap();
                b.end_task().unwrap();
            }
            b.end_sec(false).unwrap();
        }
        let tree = b.finish().unwrap();
        let suit = suitability_predict(&tree, 8);
        let ff = predict_flat(
            &FlatTree::from_tree(&tree),
            FfOptions {
                cpus: 8,
                schedule: Schedule::dynamic1(),
                overheads: OmpOverheads::westmere_scaled(),
                use_burden: false,
                contended_lock_penalty: 2_000,
                model_pipelines: true,
                expand_runs: false,
            },
        );
        assert!(
            suit.speedup < ff.speedup - 0.5,
            "suitability {} should clearly underpredict vs ff {}",
            suit.speedup,
            ff.speedup
        );
    }

    #[test]
    fn curve_over_paper_cpu_counts() {
        let tree = coarse_loop(48, 500_000);
        let curve = suitability_curve(&tree, &[2, 4, 6, 8, 10, 12]);
        assert_eq!(curve.len(), 6);
        for w in curve.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 0.15,
                "curve wildly non-monotone: {curve:?}"
            );
        }
    }
}
