//! Table I: qualitative comparison of the dynamic prediction tools over
//! the paper's five pattern classes. Instead of copying the paper's
//! matrix, the experiment *measures* each tool's error on a
//! representative workload per class and maps it to the paper's symbols:
//! `O` (predicts well, <10%), `^` (limited, <40%), `x` (not modeled).

use baselines::{kismet_upper_bound, suitability_predict};
use machsim::Schedule;
use prophet_core::{Emulator, PredictOptions};
use serde::Serialize;
use workloads::npb::Ft;
use workloads::ompscr::{Fft, Lu};
use workloads::spec::Benchmark;
use workloads::{Test1, Test1Params};

use crate::common::{real_speedup, standard_prophet};

/// One measured cell.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Tool name.
    pub tool: String,
    /// Pattern class.
    pub pattern: String,
    /// Relative error vs the real speedup (`None` = not applicable).
    pub error: Option<f64>,
    /// Paper-style symbol.
    pub symbol: char,
}

fn symbol(error: Option<f64>) -> char {
    match error {
        Some(e) if e < 0.10 => 'O',
        Some(e) if e < 0.40 => '^',
        Some(_) => 'x',
        None => 'x',
    }
}

/// Run the Table I experiment at 8 cores.
pub fn run() -> Vec<Cell> {
    let cores = 8u32;
    let prophet = standard_prophet();
    let _ = prophet.calibration();
    let mut cells = Vec::new();

    // Representative workloads per pattern class.
    struct Case {
        pattern: &'static str,
        profiled: prophet_core::Profiled,
        spec: workloads::spec::BenchSpec,
    }
    let mut cases = Vec::new();
    {
        // Simple loops/locks: a lock-bearing Test1 with mild imbalance.
        let mut p = Test1Params::random(12);
        p.shape = workloads::shapes::Shape::Uniform;
        let t1 = Test1::new(p);
        let spec = t1.spec();
        cases.push(Case {
            pattern: "simple",
            profiled: prophet.profile(&t1),
            spec,
        });
    }
    {
        // Imbalance: a diagonal Test1.
        let mut p = Test1Params::random(21);
        p.shape = workloads::shapes::Shape::Diagonal;
        p.ratio_lock = [0.0, 0.0];
        let t1 = Test1::new(p);
        let spec = t1.spec();
        cases.push(Case {
            pattern: "imbalance",
            profiled: prophet.profile(&t1),
            spec,
        });
    }
    {
        // Inner-loop parallelism: LU.
        let lu = Lu { size: 128 };
        let spec = lu.spec();
        cases.push(Case {
            pattern: "inner-loop",
            profiled: prophet.profile(&lu),
            spec,
        });
    }
    {
        // Recursive parallelism: FFT under Cilk.
        let fft = Fft {
            n: 1 << 13,
            cutoff: 1 << 9,
            combine_cutoff: 1 << 10,
        };
        let spec = fft.spec();
        cases.push(Case {
            pattern: "recursive",
            profiled: prophet.profile(&fft),
            spec,
        });
    }
    {
        // Memory-limited: FT at paper scale.
        let ft = Ft::paper();
        let spec = ft.spec();
        cases.push(Case {
            pattern: "memory",
            profiled: prophet.profile(&ft),
            spec,
        });
    }

    println!("Table I — measured tool errors per pattern class ({cores} cores)");
    println!(
        "{:<18} {:>10} {:>12} {:>14}",
        "pattern", "Kismet", "Suitability", "Prophet"
    );
    for case in &cases {
        let real = real_speedup(&case.profiled, &case.spec, cores);

        // Kismet-like: upper bound, no schedule/memory model.
        let kis = kismet_upper_bound(&case.profiled.tree, cores);
        let kis_err = (kis - real).abs() / real;

        // Suitability-like.
        let suit = suitability_predict(&case.profiled.tree, cores).speedup;
        let suit_err = (suit - real).abs() / real;

        // Parallel Prophet: synthesizer with memory model, matching the
        // benchmark's paradigm/schedule.
        let pp = prophet
            .predict(
                &case.profiled,
                &PredictOptions {
                    threads: cores,
                    paradigm: case.spec.paradigm,
                    schedule: if case.pattern == "simple" || case.pattern == "imbalance" {
                        Schedule::static1()
                    } else {
                        case.spec.schedule
                    },
                    emulator: Emulator::Synthesizer,
                    memory_model: true,
                },
            )
            .expect("prophet prediction")
            .speedup;
        let pp_err = (pp - real).abs() / real;

        println!(
            "{:<18} {:>8.0}% {} {:>9.0}% {} {:>11.0}% {}",
            case.pattern,
            kis_err * 100.0,
            symbol(Some(kis_err)),
            suit_err * 100.0,
            symbol(Some(suit_err)),
            pp_err * 100.0,
            symbol(Some(pp_err)),
        );
        for (tool, err) in [
            ("Kismet", kis_err),
            ("Suitability", suit_err),
            ("ParallelProphet", pp_err),
        ] {
            cells.push(Cell {
                tool: tool.to_string(),
                pattern: case.pattern.to_string(),
                error: Some(err),
                symbol: symbol(Some(err)),
            });
        }
    }
    println!("\n(Cilkview is omitted: it requires already-parallelised input — Table I row 1.)");
    cells
}
