//! Fig. 5 and Fig. 7: the paper's two worked emulation examples.

use machsim::prog::{POp, ParSection, ParallelProgram, TaskBody};
use machsim::{MachineConfig, Schedule, WorkPacket};
use omp_rt::OmpOverheads;
use proftree::{FlatTree, ProgramTree, TreeBuilder};
use serde::Serialize;
use std::rc::Rc;

/// Result of the Fig. 5 experiment: per schedule, the FF-predicted cycles
/// and speedup against the paper's expected values.
#[derive(Debug, Serialize)]
pub struct Fig5Row {
    /// Schedule name.
    pub schedule: String,
    /// Paper's emulated cycles (1150 / 1250 / 950).
    pub paper_cycles: u64,
    /// Our FF cycles.
    pub ff_cycles: u64,
    /// Paper's speedup (1.30 / 1.20 / 1.58).
    pub paper_speedup: f64,
    /// Our FF speedup.
    pub ff_speedup: f64,
}

/// The Fig. 5 tree: three iterations (650/600/250 cycles) with an
/// embedded critical section, on two cores.
pub fn fig5_tree() -> ProgramTree {
    let mut b = TreeBuilder::new();
    b.begin_sec("loop").unwrap();
    for &(pre, locked, post) in &[(150u64, 450u64, 50u64), (100, 300, 200), (150, 50, 50)] {
        b.begin_task("iter").unwrap();
        b.add_compute(pre).unwrap();
        b.begin_lock(1).unwrap();
        b.add_compute(locked).unwrap();
        b.end_lock(1).unwrap();
        b.add_compute(post).unwrap();
        b.end_task().unwrap();
    }
    b.end_sec(false).unwrap();
    b.finish().unwrap()
}

/// Run the Fig. 5 experiment.
pub fn run_fig5() -> Vec<Fig5Row> {
    let tree = FlatTree::from_tree(&fig5_tree());
    let cases = [
        (Schedule::static1(), 1150u64, 1.30f64),
        (Schedule::static_block(), 1250, 1.20),
        (Schedule::dynamic1(), 950, 1.58),
    ];
    let mut rows = Vec::new();
    println!("Fig. 5 — scheduling-policy emulation (3 iterations + lock, 2 cores)");
    println!(
        "{:<12} {:>12} {:>10} {:>14} {:>10}",
        "schedule", "paper cyc", "FF cyc", "paper spd", "FF spd"
    );
    for (schedule, paper_cycles, paper_speedup) in cases {
        let p = ffemu::predict_flat(
            &tree,
            ffemu::FfOptions {
                cpus: 2,
                schedule,
                overheads: OmpOverheads::zero(),
                use_burden: false,
                contended_lock_penalty: 0,
                model_pipelines: true,
                expand_runs: false,
            },
        );
        println!(
            "{:<12} {:>12} {:>10} {:>14.2} {:>10.2}",
            schedule.name(),
            paper_cycles,
            p.predicted_cycles,
            paper_speedup,
            p.speedup
        );
        rows.push(Fig5Row {
            schedule: schedule.name(),
            paper_cycles,
            ff_cycles: p.predicted_cycles,
            paper_speedup,
            ff_speedup: p.speedup,
        });
    }
    rows
}

/// Result of the Fig. 7 experiment.
#[derive(Debug, Serialize)]
pub struct Fig7Result {
    /// Paper: the true speedup (2.0).
    pub real: f64,
    /// Paper: the FF/Suitability misprediction (1.5).
    pub ff: f64,
    /// The synthesizer's prediction (should recover ~2.0).
    pub synthesizer: f64,
}

/// The Fig. 7 nested tree in abstract units scaled by `unit` cycles.
pub fn fig7_tree(unit: u64) -> ProgramTree {
    let mut b = TreeBuilder::new();
    b.begin_sec("outer").unwrap();
    for lens in [[10u64, 5], [5, 10]] {
        b.begin_task("ot").unwrap();
        b.begin_sec("inner").unwrap();
        for l in lens {
            b.begin_task("it").unwrap();
            b.add_compute(l * unit).unwrap();
            b.end_task().unwrap();
        }
        b.end_sec(false).unwrap();
        b.end_task().unwrap();
    }
    b.end_sec(false).unwrap();
    b.finish().unwrap()
}

/// The Fig. 7 program as a directly-parallelised IR (for the machine run).
fn fig7_program(unit: u64) -> ParallelProgram {
    let mk_inner = |a: u64, b: u64| {
        POp::Par(ParSection {
            tasks: vec![
                Rc::new(TaskBody {
                    ops: vec![POp::Work(WorkPacket::cpu(a * unit))],
                }),
                Rc::new(TaskBody {
                    ops: vec![POp::Work(WorkPacket::cpu(b * unit))],
                }),
            ]
            .into(),
            schedule: Schedule::static1(),
            nowait: false,
            team: Some(2),
        })
    };
    ParallelProgram {
        ops: vec![POp::Par(ParSection {
            tasks: vec![
                Rc::new(TaskBody {
                    ops: vec![mk_inner(10, 5)],
                }),
                Rc::new(TaskBody {
                    ops: vec![mk_inner(5, 10)],
                }),
            ]
            .into(),
            schedule: Schedule::static1(),
            nowait: false,
            team: Some(2),
        })],
    }
}

/// Run the Fig. 7 experiment.
pub fn run_fig7() -> Fig7Result {
    let unit = 10_000u64;
    let tree = fig7_tree(unit);
    let total = 30 * unit;

    // Real: the parallelised program on the preemptive 2-core machine.
    let mut cfg = MachineConfig::small(2);
    cfg.quantum_cycles = 5_000;
    let stats = omp_rt::run_program(cfg, &fig7_program(unit), OmpOverheads::zero(), 2)
        .expect("fig7 machine run");
    let real = total as f64 / stats.elapsed_cycles as f64;

    // FF: the documented round-robin misprediction.
    let flat = FlatTree::from_tree(&tree);
    let ff = ffemu::predict_flat(
        &flat,
        ffemu::FfOptions {
            cpus: 2,
            schedule: Schedule::static1(),
            overheads: OmpOverheads::zero(),
            use_burden: false,
            contended_lock_penalty: 0,
            model_pipelines: true,
            expand_runs: false,
        },
    )
    .speedup;

    // Synthesizer: generated code on the same machine.
    let mut so = synthemu::SynthOptions::new(2, machsim::Paradigm::OpenMp);
    so.machine = cfg;
    so.schedule = Schedule::static1();
    so.omp_overheads = OmpOverheads::zero();
    so.access_node_overhead = 0;
    so.recursive_call_overhead = 0;
    let synthesizer = synthemu::predict_flat(&flat, &so)
        .expect("fig7 synth")
        .speedup;

    println!("Fig. 7 — two-level nested loop on 2 cores (paper: Real 2.0, FF/Suit 1.5)");
    println!("  Real (machine):   {real:.2}");
    println!("  FF prediction:    {ff:.2}   <- the documented limitation");
    println!("  SYN prediction:   {synthesizer:.2}");
    Fig7Result {
        real,
        ff,
        synthesizer,
    }
}
