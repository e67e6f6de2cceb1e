#![warn(missing_docs)]

//! # Parallel Prophet
//!
//! Predict the potential parallel speedup of a *serial* program before
//! parallelising it — a full reproduction of Kim, Kumar, Kim & Brett,
//! *"Predicting Potential Speedup of Serial Code via Lightweight Profiling
//! and Emulations with Memory Performance Model"* (IPDPS 2012).
//!
//! The workflow is the paper's Fig. 3:
//!
//! 1. **Annotate** the serial program with the Table II annotations
//!    (`PAR_SEC_*`, `PAR_TASK_*`, `LOCK_*` — methods on
//!    [`tracer::Tracer`]) describing what *would* run in parallel.
//! 2. **Profile** it once: interval profiling builds a compressed program
//!    tree; hardware-counter profiling records each top-level section's
//!    memory behaviour.
//! 3. **Model memory**: the calibrated Ψ/Φ formulas convert each
//!    section's counters into per-thread-count *burden factors*.
//! 4. **Emulate**: the fast-forwarding emulator (analytical, any CPU
//!    count) or the synthesizer (runs generated code on the machine —
//!    here a deterministic multicore simulator) produce speedup
//!    predictions per schedule, paradigm, and thread count.
//!
//! ```
//! use prophet_core::{Emulator, PredictOptions, Prophet};
//! use machsim::{Paradigm, Schedule};
//!
//! // An annotated serial program: a loop with unequal iterations.
//! struct MyLoop;
//! impl tracer::AnnotatedProgram for MyLoop {
//!     fn name(&self) -> &str { "my_loop" }
//!     fn run(&self, t: &mut tracer::Tracer) {
//!         t.par_sec_begin("loop");
//!         for i in 0..16u64 {
//!             t.par_task_begin("iter");
//!             t.work(10_000 + i * 1_000);
//!             t.par_task_end();
//!         }
//!         t.par_sec_end(false);
//!     }
//! }
//!
//! let mut prophet = Prophet::new();
//! let profiled = prophet.profile(&MyLoop);
//! let pred = prophet.predict(&profiled, &PredictOptions {
//!     threads: 4,
//!     schedule: Schedule::dynamic1(),
//!     ..PredictOptions::default()
//! }).unwrap();
//! assert!(pred.speedup > 3.0 && pred.speedup <= 4.0);
//! ```

pub mod codec;
pub mod diagnose;
pub mod error;
pub mod report;

use cachesim::HierarchyConfig;
use machsim::{MachineConfig, Paradigm, RunError, Schedule};
use memmodel::{calibrate, CacheTrend, CalibrationOptions, MemCalibration};
use proftree::{FlatTree, ProgramTree};
use serde::{Deserialize, Serialize};
use tracer::{AnnotatedProgram, ProfileOptions, ProfileResult};

pub use diagnose::{diagnose, Bottleneck, Diagnosis, SectionDiagnosis};
pub use error::ProphetError;
pub use report::{PredictionRow, SpeedupReport};

// Re-export the subsystem crates so downstream users need only one
// dependency.
pub use baselines;
pub use cachesim;
pub use ffemu;
pub use machsim;
pub use memmodel;
pub use omp_rt;
pub use proftree;
pub use synthemu;
pub use tracer;

/// Which emulator produces the prediction (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Emulator {
    /// Fast-forwarding: analytical, arbitrary CPU counts, weaker on
    /// nested/recursive parallelism.
    FastForward,
    /// Program-synthesis: measures generated code on the machine; most
    /// accurate, limited to the machine's real core count.
    Synthesizer,
}

/// Options for one prediction.
#[derive(Debug, Clone, Copy)]
pub struct PredictOptions {
    /// Thread count to predict.
    pub threads: u32,
    /// Threading paradigm.
    pub paradigm: Paradigm,
    /// OpenMP schedule.
    pub schedule: Schedule,
    /// Emulator choice.
    pub emulator: Emulator,
    /// Apply the memory performance model's burden factors.
    pub memory_model: bool,
}

impl Default for PredictOptions {
    fn default() -> Self {
        PredictOptions {
            threads: 2,
            paradigm: Paradigm::OpenMp,
            schedule: Schedule::static_block(),
            emulator: Emulator::Synthesizer,
            memory_model: true,
        }
    }
}

/// A profiled program: the tree (with burden factors attached) plus the
/// profiling record.
///
/// Serializable end to end so profiles can be persisted by the
/// `prophet-store` on-disk store and re-loaded byte-identically: every
/// numeric field round-trips exactly through the JSON data model
/// (integers stay integers; floats print in shortest-roundtrip form).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Profiled {
    /// Program name.
    pub name: String,
    /// The program tree, burden factors included.
    pub tree: ProgramTree,
    /// Raw profiling result (overheads, counters, compression stats).
    pub profile: ProfileResult,
}

/// One prediction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted speedup.
    pub speedup: f64,
    /// Predicted parallel time, cycles.
    pub predicted_cycles: u64,
    /// Serial time, cycles.
    pub serial_cycles: u64,
    /// Thread count predicted for.
    pub threads: u32,
    /// Emulator used.
    pub emulator: Emulator,
    /// Schedule name (paper notation, e.g. `"static-1"`).
    pub schedule: String,
    /// Paradigm name.
    pub paradigm: String,
}

/// The Parallel Prophet tool: configuration + cached machine calibration.
///
/// Every prediction-path method takes `&self`: a `Prophet` (typically
/// behind an [`std::sync::Arc`]) can profile and predict from many
/// threads at once — grid points of a sweep run concurrently against one
/// shared instance. The one lazily-computed piece of state, the Ψ/Φ
/// calibration, memoises through a [`std::sync::OnceLock`], so the §V-D
/// microbenchmark runs at most once per instance no matter how many
/// threads race to first use.
pub struct Prophet {
    machine: MachineConfig,
    hierarchy: HierarchyConfig,
    profile_options: ProfileOptions,
    burden_thread_counts: Vec<u32>,
    calibration: std::sync::OnceLock<MemCalibration>,
}

// The prediction path is documented re-entrant; make the contract a
// compile-time fact so a non-Send field can't regress it silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Prophet>();
    assert_send_sync::<Profiled>();
    assert_send_sync::<Prediction>();
};

impl Default for Prophet {
    fn default() -> Self {
        Self::new()
    }
}

/// 64-bit FNV-1a hash — the stack's stable content fingerprint.
///
/// Chosen over a cryptographic hash because fingerprints here only guard
/// against *accidental* mismatches (a machine config edit, a stale store
/// directory), never adversaries, and FNV-1a is dependency-free and
/// byte-order independent. The constants are the canonical FNV-1a 64
/// offset basis and prime; the function must never change, as persisted
/// store keys embed its output.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Step-wise construction of a [`Prophet`].
///
/// Every knob is set before the instance exists, so a fully-built
/// `Prophet` can go straight behind an [`Arc`](std::sync::Arc) without
/// a mutable warm-up phase.
///
/// ```
/// use prophet_core::Prophet;
/// use machsim::MachineConfig;
/// use cachesim::HierarchyConfig;
///
/// let prophet = Prophet::builder()
///     .machine(MachineConfig::westmere_scaled(), HierarchyConfig::westmere_scaled())
///     .build();
/// assert_eq!(prophet.machine().cores, 12);
/// ```
#[derive(Default)]
pub struct ProphetBuilder {
    machine: Option<MachineConfig>,
    hierarchy: Option<HierarchyConfig>,
    profile_options: Option<ProfileOptions>,
    calibration: Option<MemCalibration>,
    burden_thread_counts: Option<Vec<u32>>,
}

impl ProphetBuilder {
    /// A builder with every knob at its default (scaled Westmere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Target machine and cache hierarchy.
    pub fn machine(mut self, machine: MachineConfig, hierarchy: HierarchyConfig) -> Self {
        self.machine = Some(machine);
        self.hierarchy = Some(hierarchy);
        self
    }

    /// Profiling options (annotation overhead, compression…). The
    /// machine/hierarchy fields inside are overwritten at
    /// [`build`](ProphetBuilder::build) time to stay consistent with
    /// [`machine`](Self::machine).
    pub fn profile_options(mut self, opts: ProfileOptions) -> Self {
        self.profile_options = Some(opts);
        self
    }

    /// Inject a pre-computed Ψ/Φ calibration (e.g. loaded from JSON)
    /// instead of running the microbenchmark on first use.
    pub fn calibration(mut self, cal: MemCalibration) -> Self {
        self.calibration = Some(cal);
        self
    }

    /// Thread counts the memory model computes burden factors for.
    pub fn burden_thread_counts(mut self, counts: Vec<u32>) -> Self {
        self.burden_thread_counts = Some(counts);
        self
    }

    /// Build the prophet.
    pub fn build(self) -> Prophet {
        let machine = self.machine.unwrap_or_else(MachineConfig::westmere_scaled);
        let hierarchy = self
            .hierarchy
            .unwrap_or_else(HierarchyConfig::westmere_scaled);
        let mut profile_options = self.profile_options.unwrap_or_else(|| ProfileOptions {
            machine,
            hierarchy,
            ..ProfileOptions::default()
        });
        profile_options.machine = machine;
        profile_options.hierarchy = hierarchy;
        let calibration = std::sync::OnceLock::new();
        if let Some(cal) = self.calibration {
            let _ = calibration.set(cal);
        }
        Prophet {
            machine,
            hierarchy,
            profile_options,
            burden_thread_counts: self
                .burden_thread_counts
                .unwrap_or_else(|| vec![2, 4, 6, 8, 10, 12]),
            calibration,
        }
    }
}

impl Prophet {
    /// A prophet for the default (scaled Westmere) machine.
    pub fn new() -> Self {
        ProphetBuilder::new().build()
    }

    /// Start building a configured prophet.
    pub fn builder() -> ProphetBuilder {
        ProphetBuilder::new()
    }

    /// A prophet for a custom machine/cache configuration.
    pub fn with_machine(machine: MachineConfig, hierarchy: HierarchyConfig) -> Self {
        ProphetBuilder::new().machine(machine, hierarchy).build()
    }

    /// The machine configuration predictions target.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The cache hierarchy profiled against.
    pub fn hierarchy(&self) -> &HierarchyConfig {
        &self.hierarchy
    }

    /// The Ψ/Φ calibration of this machine, computing it on first use
    /// (runs the §V-D microbenchmark on the simulated machine). Memoised:
    /// concurrent first callers block until the one computing it is done.
    pub fn calibration(&self) -> &MemCalibration {
        self.calibration
            .get_or_init(|| calibrate(self.machine, &CalibrationOptions::default()))
    }

    /// Fingerprint of the active Ψ/Φ calibration (computing it first if
    /// needed). Two prophets with byte-identical calibrations — and hence
    /// identical burden factors — share a fingerprint; a persisted profile
    /// keyed on it can only ever be replayed against the calibration that
    /// produced it.
    pub fn calibration_fingerprint(&self) -> u64 {
        let json =
            serde_json::to_string(self.calibration()).expect("calibration serializes infallibly");
        fingerprint64(json.as_bytes())
    }

    /// Fingerprint of everything besides the calibration that shapes a
    /// [`Profiled`]: machine, hierarchy, profiling overheads, compression
    /// settings, and the burden thread counts attached to the tree. Any
    /// change to these must invalidate persisted profiles.
    pub fn profile_options_fingerprint(&self) -> u64 {
        let o = &self.profile_options;
        let canonical = format!(
            "machine={};hierarchy={};ann={};ctr={};compress={};tol={:?};minch={};burden={:?}",
            serde_json::to_string(&o.machine).expect("machine serializes infallibly"),
            serde_json::to_string(&o.hierarchy).expect("hierarchy serializes infallibly"),
            o.annotation_overhead,
            o.counter_read_overhead,
            o.compress,
            o.compress_options.tolerance,
            o.compress_options.min_children,
            self.burden_thread_counts,
        );
        fingerprint64(canonical.as_bytes())
    }

    /// Profile an annotated program and attach burden factors to every
    /// top-level section (steps 2-3 of the workflow).
    pub fn profile(&self, program: &dyn AnnotatedProgram) -> Profiled {
        let result = tracer::profile(program, self.profile_options);
        let mut tree = result.tree.clone();
        let cal = self.calibration();
        memmodel::apply_burden(&mut tree, cal, &self.burden_thread_counts);
        Profiled {
            name: program.name().to_string(),
            tree,
            profile: result,
        }
    }

    /// Like [`Prophet::profile`], but apply a cache-trend hypothesis
    /// (Table IV rows 1/3 — the paper's future-work extension) when
    /// computing burden factors. `CacheTrend::Shrinks` can produce
    /// sub-unit (super-linear bonus) factors.
    pub fn profile_with_trend(
        &self,
        program: &dyn AnnotatedProgram,
        trend: CacheTrend,
    ) -> Profiled {
        let result = tracer::profile(program, self.profile_options);
        let mut tree = result.tree.clone();
        let cal = self.calibration();
        let llc = self.hierarchy.llc.capacity_bytes;
        memmodel::apply_burden_with_trend(&mut tree, cal, &self.burden_thread_counts, trend, llc);
        Profiled {
            name: program.name().to_string(),
            tree,
            profile: result,
        }
    }

    /// Predict the speedup of a profiled program (step 4).
    pub fn predict(
        &self,
        profiled: &Profiled,
        opts: &PredictOptions,
    ) -> Result<Prediction, RunError> {
        self.predict_flat(&FlatTree::from_tree(&profiled.tree), opts)
    }

    fn predict_flat(&self, flat: &FlatTree, opts: &PredictOptions) -> Result<Prediction, RunError> {
        let (speedup, predicted, serial) = match opts.emulator {
            Emulator::FastForward => {
                let p = ffemu::predict_flat(
                    flat,
                    ffemu::FfOptions {
                        cpus: opts.threads,
                        schedule: opts.schedule,
                        overheads: omp_rt::OmpOverheads::westmere_scaled(),
                        use_burden: opts.memory_model,
                        contended_lock_penalty: self.machine.context_switch_cycles,
                        model_pipelines: true,
                        expand_runs: false,
                    },
                );
                (p.speedup, p.predicted_cycles, p.serial_cycles)
            }
            Emulator::Synthesizer => {
                let mut so = synthemu::SynthOptions::new(opts.threads, opts.paradigm);
                so.machine = self.machine;
                so.schedule = opts.schedule;
                so.use_burden = opts.memory_model;
                let p = synthemu::predict_flat(flat, &so)?;
                (p.speedup, p.predicted_cycles, p.serial_cycles)
            }
        };
        Ok(Prediction {
            speedup,
            predicted_cycles: predicted,
            serial_cycles: serial,
            threads: opts.threads,
            emulator: opts.emulator,
            schedule: opts.schedule.name(),
            paradigm: opts.paradigm.name().to_string(),
        })
    }

    /// Predict a whole speedup curve; thread counts beyond the machine's
    /// cores are skipped for the synthesizer (it measures the machine) but
    /// kept for the FF (it targets an abstract machine).
    pub fn speedup_curve(
        &self,
        profiled: &Profiled,
        base: &PredictOptions,
        thread_counts: &[u32],
    ) -> Result<Vec<Prediction>, RunError> {
        let flat = FlatTree::from_tree(&profiled.tree);
        let mut out = Vec::new();
        for &t in thread_counts {
            if base.emulator == Emulator::Synthesizer && t > self.machine.cores {
                continue;
            }
            let mut o = *base;
            o.threads = t;
            out.push(self.predict_flat(&flat, &o)?);
        }
        Ok(out)
    }
}

/// The outcome of [`Prophet::recommend`]: every explored configuration
/// and the fastest one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Recommendation {
    /// The winning configuration.
    pub best: Prediction,
    /// All explored predictions, fastest first.
    pub all: Vec<Prediction>,
}

impl Prophet {
    /// Explore a grid of configurations (the paper's closing step:
    /// "speedups are reported against different parallelization
    /// parameters such as scheduling policies, threading models, and CPU
    /// numbers").
    pub fn explore(
        &self,
        profiled: &Profiled,
        thread_counts: &[u32],
        schedules: &[Schedule],
        paradigms: &[Paradigm],
        emulator: Emulator,
    ) -> Result<Vec<Prediction>, RunError> {
        let mut out = Vec::new();
        for &threads in thread_counts {
            if emulator == Emulator::Synthesizer && threads > self.machine.cores {
                continue;
            }
            for &schedule in schedules {
                for &paradigm in paradigms {
                    out.push(self.predict(
                        profiled,
                        &PredictOptions {
                            threads,
                            paradigm,
                            schedule,
                            emulator,
                            memory_model: true,
                        },
                    )?);
                }
            }
        }
        Ok(out)
    }

    /// Recommend the best configuration at the machine's full core count:
    /// sweeps the three paper schedules under OpenMP plus the Cilk
    /// work-stealing runtime, with the synthesizer (most accurate).
    pub fn recommend(&self, profiled: &Profiled) -> Result<Recommendation, RunError> {
        let mut all = self.explore(
            profiled,
            &[self.machine.cores],
            &[
                Schedule::static1(),
                Schedule::static_block(),
                Schedule::dynamic1(),
            ],
            &[Paradigm::OpenMp],
            Emulator::Synthesizer,
        )?;
        all.extend(self.explore(
            profiled,
            &[self.machine.cores],
            &[Schedule::static_block()],
            &[Paradigm::CilkPlus, Paradigm::OmpTask],
            Emulator::Synthesizer,
        )?);
        all.sort_by(|a, b| b.speedup.total_cmp(&a.speedup));
        let best = all.first().cloned().expect("explored at least one config");
        Ok(Recommendation { best, all })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Balanced;
    impl AnnotatedProgram for Balanced {
        fn name(&self) -> &str {
            "balanced"
        }
        fn run(&self, t: &mut tracer::Tracer) {
            t.par_sec_begin("loop");
            for _ in 0..24 {
                t.par_task_begin("it");
                t.work(20_000);
                t.par_task_end();
            }
            t.par_sec_end(false);
        }
    }

    fn quick_prophet() -> Prophet {
        // Keep test runtime small: light calibration.
        Prophet::builder()
            .calibration(memmodel::calibrate(
                MachineConfig::westmere_scaled(),
                &CalibrationOptions {
                    thread_counts: vec![2, 4, 8, 12],
                    intensity_steps: 6,
                    packet_cycles: 200_000,
                },
            ))
            .build()
    }

    #[test]
    fn end_to_end_balanced_loop() {
        let prophet = quick_prophet();
        let profiled = prophet.profile(&Balanced);
        for emulator in [Emulator::FastForward, Emulator::Synthesizer] {
            let pred = prophet
                .predict(
                    &profiled,
                    &PredictOptions {
                        threads: 4,
                        schedule: Schedule::static1(),
                        emulator,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert!(
                pred.speedup > 3.3 && pred.speedup <= 4.01,
                "{emulator:?} speedup {}",
                pred.speedup
            );
        }
    }

    #[test]
    fn ff_predicts_beyond_machine_cores_synth_does_not() {
        let prophet = quick_prophet();
        let profiled = prophet.profile(&Balanced);
        let base = PredictOptions {
            emulator: Emulator::FastForward,
            schedule: Schedule::static1(),
            ..Default::default()
        };
        let curve = prophet
            .speedup_curve(&profiled, &base, &[2, 12, 24])
            .unwrap();
        assert_eq!(curve.len(), 3);

        let base = PredictOptions {
            emulator: Emulator::Synthesizer,
            ..base
        };
        let curve = prophet
            .speedup_curve(&profiled, &base, &[2, 12, 24])
            .unwrap();
        assert_eq!(curve.len(), 2, "24 > 12 cores must be skipped");
    }

    #[test]
    fn explore_covers_grid_and_recommend_picks_best() {
        let prophet = quick_prophet();
        let profiled = prophet.profile(&Balanced);
        let preds = prophet
            .explore(
                &profiled,
                &[2, 4],
                &[Schedule::static1(), Schedule::dynamic1()],
                &[Paradigm::OpenMp],
                Emulator::FastForward,
            )
            .unwrap();
        assert_eq!(preds.len(), 4);
        let rec = prophet.recommend(&profiled).unwrap();
        assert_eq!(rec.all.len(), 5); // 3 OpenMP schedules + Cilk + OmpTask
        assert!(rec.all.windows(2).all(|w| w[0].speedup >= w[1].speedup));
        assert!((rec.best.speedup - rec.all[0].speedup).abs() < 1e-12);
        assert!(rec.best.speedup > 1.0);
    }

    #[test]
    fn profile_with_trend_changes_burden_only() {
        use memmodel::CacheTrend;
        let prophet = quick_prophet();
        let base = prophet.profile(&Balanced);
        let trended = prophet.profile_with_trend(
            &Balanced,
            CacheTrend::Shrinks {
                footprint_bytes: 1 << 24,
            },
        );
        // Balanced is compute-bound: trends must not invent burden.
        assert_eq!(base.tree.total_length(), trended.tree.total_length());
        for (a, b) in base
            .tree
            .top_level_sections()
            .into_iter()
            .zip(trended.tree.top_level_sections())
        {
            assert_eq!(base.tree.node(a).length, trended.tree.node(b).length);
        }
    }

    #[test]
    fn builder_matches_mutated_construction_and_fingerprints_discriminate() {
        let built = quick_prophet();
        // Fingerprints are deterministic for equal configuration…
        assert_eq!(
            built.profile_options_fingerprint(),
            quick_prophet().profile_options_fingerprint()
        );
        assert_eq!(
            built.calibration_fingerprint(),
            quick_prophet().calibration_fingerprint()
        );
        // …and move when anything that shapes a profile moves.
        let other_counts = Prophet::builder().burden_thread_counts(vec![2, 4]).build();
        assert_ne!(
            built.profile_options_fingerprint(),
            other_counts.profile_options_fingerprint()
        );
        let full_cal = Prophet::new();
        assert_ne!(
            built.calibration_fingerprint(),
            full_cal.calibration_fingerprint(),
            "light and full calibrations must not collide"
        );
    }

    #[test]
    fn profiled_round_trips_through_json_byte_identically() {
        let prophet = quick_prophet();
        let profiled = prophet.profile(&Balanced);
        let js = serde_json::to_string(&profiled).unwrap();
        let back: Profiled = serde_json::from_str(&js).unwrap();
        let js2 = serde_json::to_string(&back).unwrap();
        assert_eq!(js, js2, "persisted profile must re-serialize identically");
        // And the reloaded profile predicts identically.
        let a = prophet
            .predict(&profiled, &PredictOptions::default())
            .unwrap();
        let b = prophet.predict(&back, &PredictOptions::default()).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Canonical FNV-1a 64 test vectors.
        assert_eq!(fingerprint64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fingerprint64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn prediction_serializes() {
        let prophet = quick_prophet();
        let profiled = prophet.profile(&Balanced);
        let pred = prophet
            .predict(&profiled, &PredictOptions::default())
            .unwrap();
        let js = serde_json::to_string(&pred).unwrap();
        assert!(js.contains("speedup"));
    }
}
