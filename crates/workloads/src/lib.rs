#![warn(missing_docs)]

//! Workloads: the programs Parallel Prophet is evaluated on.
//!
//! Three families, matching the paper's §VII evaluation:
//!
//! * [`test1`]/[`test2`] — the randomly generated validation programs of
//!   Fig. 9/Fig. 10: load imbalance, multiple critical sections with
//!   arbitrary contention, frequent inner-loop parallelism, and nested
//!   parallelism, all built from `FakeDelay`-style pure computation so the
//!   emulators can be validated without memory effects (§VII-B).
//! * [`ompscr`] — Rust reimplementations of the four OmpSCR kernels the
//!   paper evaluates: MD (molecular dynamics), LU (LU reduction, the
//!   Fig. 1(a) imbalance/inner-loop example), FFT and QSort (recursive
//!   parallelism, run with the Cilk-like runtime).
//! * [`npb`] — Rust reimplementations of the four NAS Parallel Benchmarks
//!   kernels: EP (embarrassingly parallel), FT (3-D FFT, the Fig. 2
//!   memory-saturation example), MG (multigrid), CG (conjugate gradient).
//!
//! Kernels execute their *real* algorithms; their memory references flow
//! through the `cachesim` hierarchy via the [`tracer::Tracer`], so the
//! counters the memory model consumes come from genuine access streams
//! (input sizes are scaled alongside the simulated LLC — DESIGN.md §6).
//!
//! Two extra families stress the what-if engine's critical-path analysis:
//! [`dag_wl`] (fork-join reduction tree with stragglers plus a pipelined
//! tail) and [`numaskew`] (NUMA-skewed bandwidth-bound scan).
//!
//! [`real`] turns a profiled tree into the *actually parallelised* program
//! and runs it on the simulated machine with per-task DRAM traffic — the
//! reproduction's stand-in for the paper's "Real" measurements.

pub mod dag_wl;
pub mod npb;
pub mod numaskew;
pub mod ompscr;
pub mod pipeline_wl;
pub mod real;
pub mod shapes;
pub mod spec;
pub mod test1;
pub mod test2;
pub mod vmem;

pub use dag_wl::TaskDag;
pub use numaskew::NumaSkew;
pub use pipeline_wl::{PipelineParams, PipelineWl};
pub use real::{real_program, run_real, run_real_on, run_real_with_obs, RealOptions, RealResult};
pub use spec::{BenchSpec, Benchmark};
pub use test1::{Test1, Test1Params};
pub use test2::{Test2, Test2Params};
