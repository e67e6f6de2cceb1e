//! Criterion bench guard: machsim run time with no recorder attached vs.
//! a `prophet-obs` recorder at full verbosity.
//!
//! The guarded claim: on a representative compute-dominated workload,
//! attaching a recorder costs under 5%. `lock_storm` is the adversarial
//! upper bound: every simulated op is a synchronisation op, so event
//! cost is maximally exposed (expect tens of percent there — it is not
//! the guard).

use criterion::{criterion_group, criterion_main, Criterion};
use machsim::{Machine, MachineConfig, ScriptBody, ScriptOp, WorkPacket};
use prophet_obs::{ObsHandle, Recorder};

/// Compute-dominated threads with periodic critical sections: the event
/// density of a real kernel run (most ops record nothing).
fn representative() -> Machine {
    let mut cfg = MachineConfig::small(8);
    cfg.quantum_cycles = 50_000;
    let mut m = Machine::new(cfg);
    let l = m.create_lock();
    for _ in 0..12 {
        let mut ops = Vec::new();
        for _ in 0..20 {
            for _ in 0..24 {
                ops.push(ScriptOp::Compute(WorkPacket::cpu(2_000)));
            }
            ops.push(ScriptOp::Acquire(l));
            ops.push(ScriptOp::Compute(WorkPacket::cpu(500)));
            ops.push(ScriptOp::Release(l));
        }
        m.spawn(ScriptBody::new(ops));
    }
    m
}

/// Every op is a lock op: the densest event-producing path per host op.
fn lock_storm() -> Machine {
    let mut cfg = MachineConfig::small(8);
    cfg.quantum_cycles = 5_000;
    let mut m = Machine::new(cfg);
    let l = m.create_lock();
    for _ in 0..12 {
        let ops: Vec<ScriptOp> = (0..200)
            .flat_map(|_| {
                vec![
                    ScriptOp::Acquire(l),
                    ScriptOp::Compute(WorkPacket::cpu(300)),
                    ScriptOp::Release(l),
                    ScriptOp::Compute(WorkPacket::cpu(900)),
                ]
            })
            .collect();
        m.spawn(ScriptBody::new(ops));
    }
    m
}

fn bench_obs_overhead(c: &mut Criterion) {
    for (shape, build) in [
        ("representative", representative as fn() -> Machine),
        ("lock_storm", lock_storm),
    ] {
        let mut g = c.benchmark_group(format!("obs_overhead_{shape}"));
        g.sample_size(30);
        g.bench_function("no_recorder", |b| {
            b.iter(|| {
                let mut m = build();
                m.run().expect("run")
            });
        });
        g.bench_function("recorder_full", |b| {
            b.iter(|| {
                let mut m = build();
                m.attach_obs(ObsHandle::new(Recorder::new()));
                m.run().expect("run")
            });
        });
        g.finish();
    }
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
