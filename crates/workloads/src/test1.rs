//! `Test1` (paper Fig. 9): randomly generated single-level parallel loops
//! with workload imbalance and up to two critical sections of arbitrary
//! length and contention — including the high-lock-contention,
//! high-parallel-overhead cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tracer::{AnnotatedProgram, Tracer};

use crate::shapes::{compute_overhead, Shape};
use crate::spec::{BenchSpec, Benchmark};
use machsim::{Paradigm, Schedule};

/// Parameters of one random Test1 instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Test1Params {
    /// Generator seed (drives per-iteration randomness too).
    pub seed: u64,
    /// Trip count (`i_max`).
    pub i_max: u64,
    /// Workload shape of `ComputeOverhead`.
    pub shape: Shape,
    /// Minimum iteration cost, in work units.
    pub min_cost: u64,
    /// Maximum iteration cost, in work units.
    pub max_cost: u64,
    /// Fractions of an iteration's cost spent in the three unlocked
    /// delays (Fig. 9 `ratio_delay_1/2/3`).
    pub ratio_delay: [f64; 3],
    /// Fractions spent inside lock 1 and lock 2.
    pub ratio_lock: [f64; 2],
    /// Per-iteration probability that each lock is taken (`do_lock1/2`).
    pub lock_prob: [f64; 2],
}

impl Test1Params {
    /// A random instance in the paper's spirit: arbitrary imbalance,
    /// lock lengths, and contention.
    pub fn random(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let i_max = rng.gen_range(16..=200);
        let shape = Shape::ALL[rng.gen_range(0..Shape::ALL.len())];
        let min_cost = rng.gen_range(16_000..=160_000);
        let max_cost = min_cost * rng.gen_range(2u64..=20);
        // Random mixture of delay and lock weights.
        let mut w = [0f64; 5];
        for x in w.iter_mut() {
            *x = rng.gen_range(0.05..1.0);
        }
        // 40% of samples have no lock work at all.
        let lock_scale: f64 = if rng.gen_bool(0.4) { 0.0 } else { 1.0 };
        w[3] *= lock_scale;
        w[4] *= lock_scale;
        let sum: f64 = w.iter().sum();
        for x in w.iter_mut() {
            *x /= sum;
        }
        Test1Params {
            seed,
            i_max,
            shape,
            min_cost,
            max_cost,
            ratio_delay: [w[0], w[1], w[2]],
            ratio_lock: [w[3], w[4]],
            lock_prob: [rng.gen_range(0.0..=1.0), rng.gen_range(0.0..=1.0)],
        }
    }
}

/// Deterministic per-iteration coin flip.
fn coin(seed: u64, i: u64, which: u64, p: f64) -> bool {
    let mut x = seed ^ i.wrapping_mul(0x9E3779B97F4A7C15) ^ which.wrapping_mul(0xD1B54A32D192ED03);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    let u = ((x >> 11) as f64) / ((1u64 << 53) as f64);
    u < p
}

/// A Test1 program instance.
#[derive(Debug, Clone)]
pub struct Test1 {
    /// The instance parameters.
    pub params: Test1Params,
}

impl Test1 {
    /// Wrap parameters.
    pub fn new(params: Test1Params) -> Self {
        Test1 { params }
    }

    /// Emit the loop body (shared with Test2's nested loops). `lock_base`
    /// offsets the lock ids so nested instances use distinct locks.
    pub(crate) fn run_inner(&self, t: &mut Tracer, sec_name: &str, lock_base: u32) {
        let p = &self.params;
        t.par_sec_begin(sec_name);
        for i in 0..p.i_max {
            t.par_task_begin("it");
            let cost = compute_overhead(p.shape, i, p.i_max, p.min_cost, p.max_cost, p.seed);
            let part = |r: f64| -> u64 { (cost as f64 * r).round() as u64 };
            t.work(part(p.ratio_delay[0]));
            if p.ratio_lock[0] > 0.0 && coin(p.seed, i, 1, p.lock_prob[0]) {
                t.lock_begin(lock_base + 1);
                t.work(part(p.ratio_lock[0]));
                t.lock_end(lock_base + 1);
            }
            t.work(part(p.ratio_delay[1]));
            if p.ratio_lock[1] > 0.0 && coin(p.seed, i, 2, p.lock_prob[1]) {
                t.lock_begin(lock_base + 2);
                t.work(part(p.ratio_lock[1]));
                t.lock_end(lock_base + 2);
            }
            t.work(part(p.ratio_delay[2]));
            t.par_task_end();
        }
        t.par_sec_end(false);
    }
}

impl AnnotatedProgram for Test1 {
    fn name(&self) -> &str {
        "Test1"
    }

    fn run(&self, t: &mut Tracer) {
        self.run_inner(t, "test1", 0);
    }
}

impl Benchmark for Test1 {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: format!("Test1[{}]", self.params.seed),
            paradigm: Paradigm::OpenMp,
            schedule: Schedule::static1(),
            input_desc: format!("i_max={} {:?}", self.params.i_max, self.params.shape),
            footprint_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proftree::NodeKind;
    use tracer::{profile, ProfileOptions};

    #[test]
    fn random_params_are_deterministic() {
        let a = Test1Params::random(7);
        let b = Test1Params::random(7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = Test1Params::random(8);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn ratios_sum_to_one() {
        for seed in 0..50 {
            let p = Test1Params::random(seed);
            let sum: f64 = p.ratio_delay.iter().sum::<f64>() + p.ratio_lock.iter().sum::<f64>();
            assert!((sum - 1.0).abs() < 1e-9, "seed {seed}: sum {sum}");
        }
    }

    #[test]
    fn profiles_into_single_section_tree() {
        let prog = Test1::new(Test1Params::random(3));
        let r = profile(&prog, ProfileOptions::default());
        let secs = r.tree.top_level_sections();
        assert_eq!(secs.len(), 1);
        assert!(r.net_cycles > 0);
        // Task count matches trip count.
        let tasks = proftree::TaskSeq::new(&r.tree, secs[0]).count();
        assert_eq!(tasks as u64, prog.params.i_max);
    }

    #[test]
    fn lock_nodes_present_when_probable() {
        // Force locks on every iteration.
        let mut p = Test1Params::random(11);
        p.lock_prob = [1.0, 1.0];
        p.ratio_lock = [0.25, 0.25];
        p.ratio_delay = [0.2, 0.2, 0.1];
        let r = profile(&Test1::new(p), ProfileOptions::default());
        let locks = r
            .tree
            .ids()
            .filter(|&i| matches!(r.tree.node(i).kind, NodeKind::L { .. }))
            .count();
        assert!(locks > 0, "expected L nodes");
    }

    #[test]
    fn coin_is_deterministic_and_calibrated() {
        let hits = (0..10_000).filter(|&i| coin(42, i, 1, 0.3)).count();
        assert!((2_800..3_200).contains(&hits), "p=0.3 gave {hits}/10000");
        assert_eq!(coin(1, 2, 3, 0.5), coin(1, 2, 3, 0.5));
        assert!((0..10_000).all(|i| !coin(9, i, 1, 0.0)));
        assert!((0..10_000).all(|i| coin(9, i, 1, 1.0)));
    }
}
