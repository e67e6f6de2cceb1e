#![warn(missing_docs)]

//! An OpenMP-like runtime executing [`machsim::ParallelProgram`]s on the
//! simulated machine.
//!
//! This plays the role of the Intel OpenMP runtime in the paper's testbed:
//! it provides loop worksharing under `static` / `static,c` / `dynamic,c` /
//! `guided` schedules, critical sections, implicit end-of-region barriers
//! (suppressible via `nowait`), and *nested parallel regions that spawn
//! fresh teams of simulated threads*. That last property reproduces the
//! oversubscription behaviour the paper discusses: a naive nested OpenMP
//! program creates `t × t` logical threads which the machine's preemptive
//! OS scheduler time-slices across its cores (Fig. 7).
//!
//! Per-construct overheads are modelled explicitly (fork, join, per-chunk
//! dispatch, per-iteration start, lock acquire/release) following the
//! EPCC-style microbenchmark methodology the paper cites ([6, 8]); see
//! [`OmpOverheads`].

/// Record the begin or end of a labelled region span for the calling
/// thread on the machine's recorder.
pub(crate) fn obs_span(env: &mut dyn machsim::Env, begin: bool, label: &str) {
    if let Some(h) = env.obs() {
        let label = h.intern(label);
        let thread = env.me().0;
        let kind = if begin {
            prophet_obs::EventKind::SpanBegin {
                kind: prophet_obs::SpanKind::Region,
                label,
                thread,
            }
        } else {
            prophet_obs::EventKind::SpanEnd {
                kind: prophet_obs::SpanKind::Region,
                label,
                thread,
            }
        };
        h.record(env.now(), kind);
    }
}

pub mod dispenser;
pub mod overhead;
pub mod pipeline;
pub mod tasks;
pub mod worker;

pub use dispenser::{ChunkRun, Dispenser};
pub use overhead::OmpOverheads;
pub use pipeline::PipeCtl;
pub use tasks::{run_program_tasks, run_program_tasks_on, TaskOverheads};
pub use worker::{run_program, run_program_on, OmpRuntime, Worker};

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use machsim::prog::{POp, ParSection, ParallelProgram, Schedule, TaskBody};
    use machsim::{MachineConfig, WorkPacket};

    use crate::overhead::OmpOverheads;
    use crate::worker::run_program;

    fn loop_prog(lens: &[u64], schedule: Schedule) -> ParallelProgram {
        let tasks = lens
            .iter()
            .map(|&l| {
                Rc::new(TaskBody {
                    ops: vec![POp::Work(WorkPacket::cpu(l))],
                })
            })
            .collect();
        ParallelProgram {
            ops: vec![POp::Par(ParSection {
                tasks,
                schedule,
                nowait: false,
                team: None,
            })],
        }
    }

    #[test]
    fn balanced_loop_perfect_speedup_no_overhead() {
        let cfg = MachineConfig::small(4);
        let prog = loop_prog(&[1000; 8], Schedule::static1());
        let s = run_program(cfg, &prog, OmpOverheads::zero(), 4).unwrap();
        assert_eq!(s.elapsed_cycles, 2000);
    }

    #[test]
    fn fig5_case1_static1() {
        // Paper Fig. 5: iterations of 650/600/250 cycles (with an embedded
        // lock), dual core. We reproduce the scheduling outcomes with the
        // lock segments: I0 = 150+(L)450+50, I1 = 100+(L)300+200,
        // I2 = 150+(L)50+50.
        let mk = |a: u64, l: u64, b: u64| {
            Rc::new(TaskBody {
                ops: vec![
                    POp::Work(WorkPacket::cpu(a)),
                    POp::Locked {
                        lock: 1,
                        work: WorkPacket::cpu(l),
                    },
                    POp::Work(WorkPacket::cpu(b)),
                ],
            })
        };
        let tasks = vec![mk(150, 450, 50), mk(100, 300, 200), mk(150, 50, 50)];
        let total: u64 = 1500;

        // (static,1): T0 gets I0,I2; T1 gets I1 → paper: 1150 + ε.
        let prog = ParallelProgram {
            ops: vec![POp::Par(ParSection {
                tasks: tasks.clone().into(),
                schedule: Schedule::static1(),
                nowait: false,
                team: None,
            })],
        };
        let s = run_program(MachineConfig::small(2), &prog, OmpOverheads::zero(), 2).unwrap();
        let speedup = total as f64 / s.elapsed_cycles as f64;
        assert!(
            (speedup - 1.30).abs() < 0.06,
            "static-1 speedup {speedup} (elapsed {})",
            s.elapsed_cycles
        );

        // (static): T0 gets I0,I1; T1 gets I2 → paper: 1250 + ε.
        let prog = ParallelProgram {
            ops: vec![POp::Par(ParSection {
                tasks: tasks.clone().into(),
                schedule: Schedule::static_block(),
                nowait: false,
                team: None,
            })],
        };
        let s = run_program(MachineConfig::small(2), &prog, OmpOverheads::zero(), 2).unwrap();
        let speedup = total as f64 / s.elapsed_cycles as f64;
        assert!(
            (speedup - 1.20).abs() < 0.06,
            "static speedup {speedup} (elapsed {})",
            s.elapsed_cycles
        );

        // (dynamic,1): T0 gets I0; T1 gets I1 then I2 → paper: 950 + ε.
        let prog = ParallelProgram {
            ops: vec![POp::Par(ParSection {
                tasks: tasks.into(),
                schedule: Schedule::dynamic1(),
                nowait: false,
                team: None,
            })],
        };
        let s = run_program(MachineConfig::small(2), &prog, OmpOverheads::zero(), 2).unwrap();
        let speedup = total as f64 / s.elapsed_cycles as f64;
        assert!(
            (speedup - 1.58).abs() < 0.08,
            "dynamic-1 speedup {speedup} (elapsed {})",
            s.elapsed_cycles
        );
    }

    #[test]
    fn imbalanced_loop_dynamic_beats_static_block() {
        // Triangular workload (like LU): dynamic-1 balances better than a
        // block partition.
        let lens: Vec<u64> = (1..=32).map(|i| i * 100).collect();
        let cfg = MachineConfig::small(4);
        let st = run_program(
            cfg,
            &loop_prog(&lens, Schedule::static_block()),
            OmpOverheads::zero(),
            4,
        )
        .unwrap();
        let dy = run_program(
            cfg,
            &loop_prog(&lens, Schedule::dynamic1()),
            OmpOverheads::zero(),
            4,
        )
        .unwrap();
        assert!(
            dy.elapsed_cycles < st.elapsed_cycles,
            "dynamic {} !< static {}",
            dy.elapsed_cycles,
            st.elapsed_cycles
        );
    }

    #[test]
    fn guided_schedule_completes_all_work() {
        let lens: Vec<u64> = (1..=50).map(|i| (i % 7 + 1) * 50).collect();
        let total: u64 = lens.iter().sum();
        let cfg = MachineConfig::small(4);
        let s = run_program(
            cfg,
            &loop_prog(&lens, Schedule::Guided { min_chunk: 2 }),
            OmpOverheads::zero(),
            4,
        )
        .unwrap();
        assert!(s.elapsed_cycles >= total / 4);
        assert!(s.busy_cycles >= total, "all work executed");
    }

    #[test]
    fn fork_join_overhead_charged() {
        let cfg = MachineConfig::small(4);
        let prog = loop_prog(&[100; 4], Schedule::static1());
        let zero = run_program(cfg, &prog, OmpOverheads::zero(), 4).unwrap();
        let mut ovh = OmpOverheads::zero();
        ovh.parallel_start = 500;
        ovh.parallel_end = 300;
        let with = run_program(cfg, &prog, ovh, 4).unwrap();
        assert_eq!(with.elapsed_cycles, zero.elapsed_cycles + 800);
    }

    #[test]
    fn per_iteration_and_dispatch_overheads_scale_with_trip_count() {
        let cfg = MachineConfig::small(1);
        let mut ovh = OmpOverheads::zero();
        ovh.iter_start = 10;
        ovh.dynamic_dispatch = 25;
        let prog = loop_prog(&[100; 10], Schedule::dynamic1());
        let s = run_program(cfg, &prog, ovh, 1).unwrap();
        // 10 iters ×(100 work + 10 iter + 25 dispatch) + one empty grab (25).
        assert_eq!(s.elapsed_cycles, 10 * 135 + 25);
    }

    #[test]
    fn nested_region_spawns_fresh_team() {
        // Outer loop of 2 tasks, each containing an inner loop of 2 tasks:
        // with team=2 on a 4-core machine, 2 outer threads + 2×2 inner
        // threads were spawned over the run.
        let inner = ParSection {
            tasks: (0..2)
                .map(|_| {
                    Rc::new(TaskBody {
                        ops: vec![POp::Work(WorkPacket::cpu(500))],
                    })
                })
                .collect(),
            schedule: Schedule::static1(),
            nowait: false,
            team: Some(2),
        };
        let outer_task = Rc::new(TaskBody {
            ops: vec![POp::Par(inner)],
        });
        let prog = ParallelProgram {
            ops: vec![POp::Par(ParSection {
                tasks: vec![outer_task.clone(), outer_task].into(),
                schedule: Schedule::static1(),
                nowait: false,
                team: Some(2),
            })],
        };
        let s = run_program(MachineConfig::small(4), &prog, OmpOverheads::zero(), 2).unwrap();
        // 4 inner tasks of 500 on 4 cores → 500 cycles.
        assert_eq!(s.elapsed_cycles, 500);
        // master + 1 outer + 2×1 inner workers = 4 spawned threads.
        assert_eq!(s.threads_spawned, 4);
    }

    #[test]
    fn fig7_nested_oversubscription_reaches_full_speedup() {
        // The paper's Fig. 7: two nested loops, each with tasks (10,5) and
        // (5,10) units, on 2 cores. Preemptive OS scheduling interleaves
        // the four inner threads, achieving ~2× while a non-preemptive
        // round-robin emulation predicts 1.5×. Scale units by 1000 cycles
        // and use a small quantum so slicing is effective.
        let unit = 10_000u64;
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
        let t_a = Rc::new(TaskBody {
            ops: vec![mk_inner(10, 5)],
        });
        let t_b = Rc::new(TaskBody {
            ops: vec![mk_inner(5, 10)],
        });
        let prog = ParallelProgram {
            ops: vec![POp::Par(ParSection {
                tasks: vec![t_a, t_b].into(),
                schedule: Schedule::static1(),
                nowait: false,
                team: Some(2),
            })],
        };
        let mut cfg = MachineConfig::small(2);
        cfg.quantum_cycles = 5_000;
        let s = run_program(cfg, &prog, OmpOverheads::zero(), 2).unwrap();
        let total_work = 30 * unit;
        let speedup = total_work as f64 / s.elapsed_cycles as f64;
        assert!(
            speedup > 1.85,
            "preemptive scheduling should reach ~2x, got {speedup} ({})",
            s.elapsed_cycles
        );
    }

    #[test]
    fn critical_sections_respect_user_lock_identity() {
        // Two different locks don't serialise against each other.
        let t1 = Rc::new(TaskBody {
            ops: vec![POp::Locked {
                lock: 1,
                work: WorkPacket::cpu(1000),
            }],
        });
        let t2 = Rc::new(TaskBody {
            ops: vec![POp::Locked {
                lock: 2,
                work: WorkPacket::cpu(1000),
            }],
        });
        let prog = ParallelProgram {
            ops: vec![POp::Par(ParSection {
                tasks: vec![t1, t2].into(),
                schedule: Schedule::static1(),
                nowait: false,
                team: None,
            })],
        };
        let s = run_program(MachineConfig::small(2), &prog, OmpOverheads::zero(), 2).unwrap();
        assert_eq!(s.elapsed_cycles, 1000);

        // The same lock does serialise.
        let t3 = Rc::new(TaskBody {
            ops: vec![POp::Locked {
                lock: 1,
                work: WorkPacket::cpu(1000),
            }],
        });
        let prog2 = ParallelProgram {
            ops: vec![POp::Par(ParSection {
                tasks: vec![t3.clone(), t3].into(),
                schedule: Schedule::static1(),
                nowait: false,
                team: None,
            })],
        };
        let s2 = run_program(MachineConfig::small(2), &prog2, OmpOverheads::zero(), 2).unwrap();
        assert_eq!(s2.elapsed_cycles, 2000);
    }

    #[test]
    fn serial_prologue_and_epilogue_execute_on_master() {
        let prog = ParallelProgram {
            ops: vec![
                POp::Work(WorkPacket::cpu(500)),
                POp::Par(ParSection {
                    tasks: (0..4)
                        .map(|_| {
                            Rc::new(TaskBody {
                                ops: vec![POp::Work(WorkPacket::cpu(1000))],
                            })
                        })
                        .collect(),
                    schedule: Schedule::static1(),
                    nowait: false,
                    team: None,
                }),
                POp::Work(WorkPacket::cpu(300)),
            ],
        };
        let s = run_program(MachineConfig::small(4), &prog, OmpOverheads::zero(), 4).unwrap();
        assert_eq!(s.elapsed_cycles, 500 + 1000 + 300);
    }

    #[test]
    fn team_of_one_runs_serially_without_spawning() {
        let prog = loop_prog(&[100; 5], Schedule::static1());
        let s = run_program(MachineConfig::small(4), &prog, OmpOverheads::zero(), 1).unwrap();
        assert_eq!(s.elapsed_cycles, 500);
        assert_eq!(s.threads_spawned, 1);
    }

    #[test]
    fn more_threads_than_cores_still_completes() {
        let prog = loop_prog(&[1000; 16], Schedule::dynamic1());
        let mut cfg = MachineConfig::small(2);
        cfg.quantum_cycles = 500;
        let s = run_program(cfg, &prog, OmpOverheads::zero(), 8).unwrap();
        assert_eq!(s.busy_cycles, 16_000);
        assert_eq!(s.elapsed_cycles, 8_000);
    }
}
