//! Pipeline-parallelism experiment (the §VII-E extension): predicted vs
//! real speedup of a transcoder-like pipeline, including the bottleneck
//! law and the Suitability baseline's missing model.
//!
//! A pipeline's parallelism is its stage count, not a team-size knob, so
//! "speedup at t threads" is measured on a machine restricted to `t`
//! cores (the prediction question is "how would this do on a t-core
//! box"), which is also what the FF's CPU parameter means.

use baselines::suitability_curve;
use machsim::{Paradigm, Schedule};
use prophet_core::{Emulator, PredictOptions, SpeedupReport};
use workloads::{run_real, PipelineParams, PipelineWl, RealOptions};

use crate::common::standard_prophet;

/// Run the pipeline experiment.
pub fn run() -> Vec<SpeedupReport> {
    let prophet = standard_prophet();
    let _ = prophet.calibration();
    let mut reports = Vec::new();

    for (title, params) in [
        (
            "balanced 4-stage (ideal = 4x)",
            PipelineParams::balanced(200, 4, 25_000),
        ),
        (
            "transcoder (bottleneck law = 2.08x)",
            PipelineParams::transcoder(200),
        ),
    ] {
        let wl = PipelineWl::new(params);
        let profiled = prophet.profile(&wl);
        let mut report = SpeedupReport::new(
            format!("Pipeline: {title}"),
            vec!["Real".into(), "FF".into(), "SYN".into(), "Suit".into()],
        );
        let suit = suitability_curve(&profiled.tree, &[2, 4, 6, 8]);
        let flat = proftree::FlatTree::from_tree(&profiled.tree);
        for (i, &threads) in [2u32, 4, 6, 8].iter().enumerate() {
            // Restrict the machine to `threads` cores: a pipeline always
            // runs all its stage threads.
            let mut real_opts =
                RealOptions::new(threads, Paradigm::OpenMp, Schedule::static_block());
            real_opts.machine = real_opts.machine.with_cores(threads);
            let real = run_real(&profiled.tree, &real_opts)
                .expect("ground truth")
                .speedup;
            let ff = prophet
                .predict(
                    &profiled,
                    &PredictOptions {
                        threads,
                        emulator: Emulator::FastForward,
                        ..Default::default()
                    },
                )
                .expect("ff")
                .speedup;
            let mut so = synthemu::SynthOptions::new(threads, Paradigm::OpenMp);
            so.machine = prophet.machine().with_cores(threads);
            let syn = synthemu::predict_flat(&flat, &so).expect("syn").speedup;
            report.push_row(
                threads,
                vec![Some(real), Some(ff), Some(syn), Some(suit[i].1)],
            );
        }
        println!("{}", report.render());
        println!(
            "  errors vs Real: FF {:.1}%  SYN {:.1}%  Suit {:.1}%\n",
            report.mean_relative_error("FF", "Real").unwrap_or(f64::NAN) * 100.0,
            report
                .mean_relative_error("SYN", "Real")
                .unwrap_or(f64::NAN)
                * 100.0,
            report
                .mean_relative_error("Suit", "Real")
                .unwrap_or(f64::NAN)
                * 100.0,
        );
        reports.push(report);
    }
    reports
}
