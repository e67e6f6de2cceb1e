//! Run-aware emulation equivalence: the closed-form fast paths must be
//! *bit-identical* to per-iteration expansion, for every workload the
//! repo ships, across the full thread × schedule matrix.
//!
//! Two comparisons per point, both over the workload's
//! [`proftree::FlatTree`] arena (flattened once per workload, as every
//! caller of the emulators does):
//!
//! * **FF**: `ffemu::predict_flat` with `expand_runs: false` (run-aware, the
//!   default) against `expand_runs: true` (forced per-iteration heap
//!   emulation). Cycles, speedup bits, and per-section breakdowns must
//!   match exactly — the fast path is an optimisation, never a model
//!   change.
//! * **Synthesizer IR**: `synthemu::section_program` emits run-batched
//!   `(body, count)` task lists; forced expansion emits one entry per
//!   logical iteration. The generated programs must compare equal
//!   (`TaskList` equality is logical-sequence equality) and the emitted
//!   overhead totals must match, for every section of every profiled
//!   tree.
//!
//! That the arena reads back the profiled tree exactly (kinds, lengths,
//! child runs, top-level regions) is pinned separately by proftree's
//! `wire_and_flat_round_trip` property.

use prophet_core::machsim::{Paradigm, Schedule};
use prophet_core::omp_rt::OmpOverheads;
use prophet_core::proftree::{self, FlatTree, NodeKind, ProgramTree};
use prophet_core::{ffemu, synthemu, Prophet};
use workloads::npb::{Cg, Ep, Ft, Is, Mg};
use workloads::ompscr::{Fft, Jacobi, Lu, Mandelbrot, Md, Pi, QSort};
use workloads::{Benchmark, PipelineParams, PipelineWl, Test1, Test1Params, Test2, Test2Params};

/// Thread counts. Teams of 3, 6 and 10 leave remainders on the
/// workloads' power-of-two trip counts, so short last chunks and rank
/// tie-breaks in the batched hand-out are exercised.
const THREADS: [u32; 8] = [1, 2, 3, 4, 6, 8, 10, 12];

fn schedules() -> Vec<Schedule> {
    vec![
        Schedule::static_block(),
        Schedule::static1(),
        Schedule::Static { chunk: Some(4) },
        Schedule::dynamic1(),
        Schedule::Dynamic { chunk: 3 },
        Schedule::Dynamic { chunk: 4 },
        Schedule::Guided { min_chunk: 1 },
        Schedule::Guided { min_chunk: 4 },
    ]
}

fn all_workloads() -> Vec<(&'static str, Box<dyn Benchmark>)> {
    vec![
        ("md", Box::new(Md::paper()) as Box<dyn Benchmark>),
        ("lu", Box::new(Lu::paper())),
        ("fft", Box::new(Fft::paper())),
        ("qsort", Box::new(QSort::paper())),
        ("pi", Box::new(Pi::paper())),
        ("mandelbrot", Box::new(Mandelbrot::paper())),
        ("jacobi", Box::new(Jacobi::paper())),
        ("ep", Box::new(Ep::paper())),
        ("ft", Box::new(Ft::paper())),
        ("mg", Box::new(Mg::paper())),
        ("cg", Box::new(Cg::paper())),
        ("is", Box::new(Is::paper())),
        (
            "pipeline",
            Box::new(PipelineWl::new(PipelineParams::transcoder(120))),
        ),
        ("test1", Box::new(Test1::new(Test1Params::random(3)))),
        ("test2", Box::new(Test2::new(Test2Params::random(3)))),
    ]
}

fn ff_opts(cpus: u32, schedule: Schedule, expand_runs: bool) -> ffemu::FfOptions {
    ffemu::FfOptions {
        cpus,
        schedule,
        overheads: OmpOverheads::westmere_scaled(),
        use_burden: true,
        contended_lock_penalty: 2_000,
        model_pipelines: true,
        expand_runs,
    }
}

/// Assert run-aware FF equals forced-expansion FF on `flat`, exactly.
fn assert_ff_equivalent(name: &str, flat: &FlatTree, cpus: u32, schedule: Schedule) {
    let fast = ffemu::predict_flat(flat, ff_opts(cpus, schedule, false));
    let slow = ffemu::predict_flat(flat, ff_opts(cpus, schedule, true));
    let ctx = format!("{name} cpus={cpus} sched={schedule:?}");
    assert_eq!(fast.predicted_cycles, slow.predicted_cycles, "{ctx}");
    assert_eq!(fast.serial_cycles, slow.serial_cycles, "{ctx}");
    assert_eq!(
        fast.speedup.to_bits(),
        slow.speedup.to_bits(),
        "{ctx}: speedup bits differ"
    );
    assert_eq!(fast.sections, slow.sections, "{ctx}: section breakdowns");
}

/// Assert run-batched synthesizer IR equals per-iteration emission for
/// every Sec/Pipe node in `tree` (`flat` is its arena).
fn assert_syn_equivalent(
    name: &str,
    tree: &ProgramTree,
    flat: &FlatTree,
    threads: u32,
    schedule: Schedule,
) {
    let mut batched = synthemu::SynthOptions::new(threads, Paradigm::OpenMp);
    batched.schedule = schedule;
    batched.use_burden = true;
    let mut expanded = batched;
    expanded.expand_runs = true;
    proftree::visit::walk(tree, |id, _| {
        if matches!(
            tree.node(id).kind,
            NodeKind::Sec { .. } | NodeKind::Pipe { .. }
        ) {
            let (pb, ob) = synthemu::section_program(flat, flat.flat_id(id), &batched);
            let (pe, oe) = synthemu::section_program(flat, flat.flat_id(id), &expanded);
            let ctx = format!("{name} sec={id} threads={threads} sched={schedule:?}");
            assert_eq!(pb, pe, "{ctx}: programs differ");
            assert_eq!(ob, oe, "{ctx}: overhead totals differ");
        }
        true
    });
}

#[test]
fn runaware_matches_expanded_across_workload_matrix() {
    let prophet = Prophet::new();
    for (name, w) in all_workloads() {
        let profiled = prophet.profile(w.as_ref());
        let flat = FlatTree::from_tree(&profiled.tree);
        for &cpus in &THREADS {
            for sched in schedules() {
                assert_ff_equivalent(name, &flat, cpus, sched);
            }
        }
        // The synthesizer IR depends on threads only through the burden
        // factor and on the schedule not at all (it is carried opaquely
        // into the program), but sweep the same axes to pin that down.
        for &threads in &THREADS {
            for sched in schedules() {
                assert_syn_equivalent(name, &profiled.tree, &flat, threads, sched);
            }
        }
    }
}
