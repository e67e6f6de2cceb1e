#![warn(missing_docs)]

//! The parallel sweep engine: evaluate a declarative grid of prediction
//! jobs `{workload × threads × schedule × paradigm × predictor}` with
//! work-stealing fan-out across OS threads.
//!
//! Three properties make grid evaluation cheap and safe to parallelise:
//!
//! * **Re-entrant prediction.** Every [`Prophet`] prediction-path method
//!   takes `&self`, so one instance behind an [`Arc`] serves every worker
//!   concurrently; the machine calibration memoises through a `OnceLock`
//!   and runs at most once no matter how many jobs race to first use.
//! * **Shared-profile caching.** Jobs address workloads by a stable cache
//!   key (e.g. `"test1:7"`). The [`ProfileCache`] guarantees each key is
//!   traced and burden-annotated *exactly once* per sweep — concurrent
//!   requesters block on the in-flight profile instead of re-running it —
//!   and every consumer shares the result via `Arc<Profiled>`.
//! * **Deterministic reduction.** Results are collected into
//!   input-order slots regardless of which worker evaluates which job, and
//!   nothing on the result path reads wall-clock time, so a sweep's output
//!   is byte-identical across `--jobs` values.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use prophet_core::machsim::{MachineConfig, Paradigm, Schedule};
use prophet_core::omp_rt::OmpOverheads;
use prophet_core::proftree::FlatTree;
use prophet_core::tracer::AnnotatedProgram;
use prophet_core::{baselines, ffemu, synthemu, Profiled, Prophet};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use workloads::{run_real, RealOptions, Test1, Test1Params, Test2, Test2Params};

/// A workload a sweep can evaluate: a stable cache key plus a closure
/// that profiles the program against a given prophet.
///
/// The closure — not a pre-built [`Profiled`] — is stored so the
/// (expensive) trace runs lazily, at most once per sweep, inside the
/// [`ProfileCache`]; specs for an entire grid are cheap to construct.
#[derive(Clone)]
pub struct WorkloadSpec {
    /// Cache key; equal keys share one profile. Convention:
    /// `"<family>:<params-seed>"`.
    pub key: String,
    build: Arc<dyn Fn(&Prophet) -> Profiled + Send + Sync>,
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

impl WorkloadSpec {
    /// A Test1 validation program with `Test1Params::random(seed)`.
    pub fn test1(seed: u64) -> Self {
        Self::program(format!("test1:{seed}"), move || {
            Box::new(Test1::new(Test1Params::random(seed)))
        })
    }

    /// A Test2 validation program with `Test2Params::random(seed)`.
    pub fn test2(seed: u64) -> Self {
        Self::program(format!("test2:{seed}"), move || {
            Box::new(Test2::new(Test2Params::random(seed)))
        })
    }

    /// A workload built from a program factory, profiled with the
    /// prophet's standard options.
    pub fn program(
        key: impl Into<String>,
        make: impl Fn() -> Box<dyn AnnotatedProgram> + Send + Sync + 'static,
    ) -> Self {
        WorkloadSpec {
            key: key.into(),
            build: Arc::new(move |p: &Prophet| p.profile(&*make())),
        }
    }

    /// A workload with a fully custom profiling step (e.g. a non-default
    /// compression tolerance). The key must encode whatever the closure
    /// varies, or distinct configurations would collide in the cache.
    pub fn custom(
        key: impl Into<String>,
        build: impl Fn(&Prophet) -> Profiled + Send + Sync + 'static,
    ) -> Self {
        WorkloadSpec {
            key: key.into(),
            build: Arc::new(build),
        }
    }
}

/// A persistent profile backend a [`ProfileCache`] reads through to and
/// writes behind to: on a memory miss the cache first asks the store, and
/// a freshly-profiled entry is handed to the store for safekeeping.
///
/// Implementations (the `prophet-store` on-disk store) must be safe to
/// call from many sweep workers at once and must treat both operations as
/// best-effort: a `load` returning `None` merely re-profiles, and a
/// failed `save` must not fail the sweep (log and drop).
pub trait ProfileStorage: Send + Sync {
    /// The persisted profile for `key`, if one exists and is valid.
    fn load(&self, key: &str) -> Option<Profiled>;
    /// Persist a freshly-computed profile. Best-effort.
    fn save(&self, key: &str, profiled: &Profiled);
}

/// Counters of a [`ProfileCache`] after (or during) a sweep.
///
/// `misses` counts lookups not served from memory — exactly one per
/// distinct key, however many threads race — so the numbers are
/// deterministic for a given job list regardless of `--jobs`. With a
/// [`ProfileStorage`] attached a miss is satisfied either by the store
/// (`store_hits`) or by running the profiler; `misses - store_hits` is
/// therefore the number of actual profiler runs — see
/// [`CacheStats::profiles`]. `evictions` stays 0 for the default
/// unbounded cache; a capacity-bounded cache (the long-lived
/// `prophet serve` daemon) counts every key displaced by LRU pressure.
///
/// Serialization note: only the four original fields (`hits`, `misses`,
/// `entries`, `evictions`) appear in JSON. The store counters are
/// deliberately excluded so a sweep's output stays byte-identical whether
/// its profiles came from the profiler or from a warm store — the
/// byte-stability contract predictions are pinned by. Store counters
/// surface through `/v1/metrics` and stderr instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an already-profiled in-memory entry.
    pub hits: u64,
    /// Lookups not served from memory (store hit or profiler run).
    pub misses: u64,
    /// Distinct keys resident.
    pub entries: u64,
    /// Keys evicted under LRU capacity pressure (0 when unbounded).
    pub evictions: u64,
    /// Misses satisfied by the persistent store instead of the profiler.
    /// Not serialized (see above).
    pub store_hits: u64,
    /// Freshly-profiled entries handed to the persistent store.
    /// Not serialized (see above).
    pub store_writes: u64,
}

impl CacheStats {
    /// Number of times the profiler actually ran: memory misses not
    /// absorbed by the persistent store. Zero after a warm restart means
    /// the store replayed every profile.
    pub fn profiles(&self) -> u64 {
        self.misses - self.store_hits
    }
}

// Hand-written (not derived) so the store counters never reach JSON:
// sweep output must stay byte-identical between a cold run and a
// store-warmed restart.
impl Serialize for CacheStats {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("hits".to_string(), serde::Value::U64(self.hits)),
            ("misses".to_string(), serde::Value::U64(self.misses)),
            ("entries".to_string(), serde::Value::U64(self.entries)),
            ("evictions".to_string(), serde::Value::U64(self.evictions)),
        ])
    }
}

impl Deserialize for CacheStats {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| -> Result<u64, serde::Error> {
            match v.get(name) {
                Some(val) => u64::from_value(val),
                None => Err(serde::Error::msg(format!("missing field {name}"))),
            }
        };
        Ok(CacheStats {
            hits: field("hits")?,
            misses: field("misses")?,
            entries: field("entries")?,
            evictions: field("evictions")?,
            store_hits: 0,
            store_writes: 0,
        })
    }
}

/// One resident cache entry: the shared profile cell plus its LRU stamp.
struct CacheSlot {
    cell: Arc<OnceLock<Arc<Profiled>>>,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<String, CacheSlot>,
    /// LRU capacity; `None` = unbounded (the default, so one-shot sweep
    /// output is unchanged).
    cap: Option<usize>,
    /// Monotonic use counter stamping recency.
    tick: u64,
}

/// Concurrent once-per-key profile store shared by all sweep workers.
///
/// Internally each key maps to an `Arc<OnceLock<..>>` so the map lock is
/// held only to find the cell; the (long) profiling run happens outside
/// it, and concurrent requesters of the same key block on the cell
/// rather than profiling twice.
///
/// By default the cache is unbounded — correct for one-shot sweeps,
/// where the working set is the grid itself. A long-lived daemon must
/// bound it: [`ProfileCache::with_capacity`] keeps at most `cap` keys,
/// evicting the least-recently-used entry (and counting it in
/// [`CacheStats::evictions`]) when a new key would exceed the cap.
/// Evicting a key whose profile is still being computed is safe: waiters
/// hold their own `Arc` to the cell and complete normally; the cache
/// merely forgets the result.
pub struct ProfileCache {
    inner: Mutex<CacheInner>,
    /// Optional persistent backend: read-through on memory misses,
    /// write-behind for fresh profiles.
    storage: Option<Arc<dyn ProfileStorage>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    store_hits: AtomicU64,
    store_writes: AtomicU64,
}

impl Default for ProfileCache {
    fn default() -> Self {
        Self::with_capacity(None)
    }
}

impl ProfileCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache keeping at most `cap` keys (`None` = unbounded).
    /// A cap of 0 is clamped to 1 so the entry being requested always
    /// fits.
    pub fn with_capacity(cap: Option<usize>) -> Self {
        ProfileCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                cap: cap.map(|c| c.max(1)),
                tick: 0,
            }),
            storage: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_writes: AtomicU64::new(0),
        }
    }

    /// Attach a persistent backend. Memory misses first consult it
    /// (read-through); freshly-run profiles are handed to it
    /// (write-behind). Replacing an existing backend is allowed but the
    /// counters are not reset.
    pub fn set_storage(&mut self, storage: Arc<dyn ProfileStorage>) {
        self.storage = Some(storage);
    }

    /// The profile for `key`, running `profile` on first use (at most
    /// once per residency — an evicted key re-profiles when it returns).
    pub fn get_or_profile(&self, key: &str, profile: impl FnOnce() -> Profiled) -> Arc<Profiled> {
        let cell = {
            let mut inner = self.inner.lock().expect("profile cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            let slot = inner
                .map
                .entry(key.to_string())
                .or_insert_with(|| CacheSlot {
                    cell: Arc::new(OnceLock::new()),
                    last_used: tick,
                });
            slot.last_used = tick;
            let cell = slot.cell.clone();
            if let Some(cap) = inner.cap {
                while inner.map.len() > cap {
                    // Evict the least-recently-used key other than the
                    // one just touched (it carries the newest stamp, so
                    // min-by-stamp never selects it while len > 1).
                    let victim = inner
                        .map
                        .iter()
                        .min_by_key(|(_, s)| s.last_used)
                        .map(|(k, _)| k.clone())
                        .expect("non-empty over-capacity map");
                    inner.map.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            cell
        };
        let mut ran = false;
        let mut from_store = false;
        let mut wrote_store = false;
        let out = cell
            .get_or_init(|| {
                ran = true;
                if let Some(stored) = self.storage.as_ref().and_then(|s| s.load(key)) {
                    from_store = true;
                    return Arc::new(stored);
                }
                let fresh = profile();
                if let Some(storage) = &self.storage {
                    storage.save(key, &fresh);
                    wrote_store = true;
                }
                Arc::new(fresh)
            })
            .clone();
        if ran {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if from_store {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
            }
            if wrote_store {
                self.store_writes.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("profile cache poisoned").map.len() as u64,
            evictions: self.evictions.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_writes: self.store_writes.load(Ordering::Relaxed),
        }
    }
}

/// What produces a grid point's speedup (the series of Fig. 11/12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepPredictor {
    /// Ground truth: the actually-parallelised program on the simulated
    /// machine.
    Real,
    /// The fast-forwarding emulator.
    Ff,
    /// The program-synthesis emulator (skipped when `threads` exceeds the
    /// machine's cores — it can only measure the machine it has).
    Syn,
    /// The Intel-Advisor-style suitability baseline.
    Suit,
}

impl SweepPredictor {
    /// Stable lower-case name for keys/CLI.
    pub fn name(self) -> &'static str {
        match self {
            SweepPredictor::Real => "real",
            SweepPredictor::Ff => "ff",
            SweepPredictor::Syn => "syn",
            SweepPredictor::Suit => "suit",
        }
    }
}

/// A predictor plus whether the memory performance model's burden factors
/// apply (only meaningful for [`SweepPredictor::Ff`]/[`SweepPredictor::Syn`];
/// `Real` and `Suit` ignore it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorSpec {
    /// The predictor.
    pub predictor: SweepPredictor,
    /// Apply burden factors (the `PredM` vs `Pred` distinction).
    pub memory_model: bool,
}

impl PredictorSpec {
    /// Ground truth.
    pub fn real() -> Self {
        PredictorSpec {
            predictor: SweepPredictor::Real,
            memory_model: false,
        }
    }
    /// Fast-forward emulator.
    pub fn ff(memory_model: bool) -> Self {
        PredictorSpec {
            predictor: SweepPredictor::Ff,
            memory_model,
        }
    }
    /// Synthesizer.
    pub fn syn(memory_model: bool) -> Self {
        PredictorSpec {
            predictor: SweepPredictor::Syn,
            memory_model,
        }
    }
    /// Suitability baseline.
    pub fn suit() -> Self {
        PredictorSpec {
            predictor: SweepPredictor::Suit,
            memory_model: false,
        }
    }

    /// Parse a CLI/request spelling. `ff`/`syn` default the memory model
    /// on; a `-mm` suffix disables it and `+mm` states the default
    /// explicitly. Returns `None` for unknown predictors.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "real" => PredictorSpec::real(),
            "suit" => PredictorSpec::suit(),
            "ff" | "ff+mm" => PredictorSpec::ff(true),
            "ff-mm" => PredictorSpec::ff(false),
            "syn" | "syn+mm" => PredictorSpec::syn(true),
            "syn-mm" => PredictorSpec::syn(false),
            _ => return None,
        })
    }

    /// Stable spelling accepted back by [`PredictorSpec::parse`]
    /// (`real`, `ff+mm`, `syn-mm`, ...).
    pub fn label(self) -> String {
        match self.predictor {
            SweepPredictor::Real | SweepPredictor::Suit => self.predictor.name().to_string(),
            SweepPredictor::Ff | SweepPredictor::Syn => format!(
                "{}{}",
                self.predictor.name(),
                if self.memory_model { "+mm" } else { "-mm" }
            ),
        }
    }
}

/// Per-job overrides of the prophet's standard configuration, so ablation
/// sweeps (quantum, lock penalty, overhead studies) ride the same engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overrides {
    /// Replace the target machine (quantum studies set
    /// `machine.quantum_cycles` here).
    pub machine: Option<MachineConfig>,
    /// FF contended-lock penalty, cycles.
    pub lock_penalty: Option<u64>,
    /// OpenMP construct overheads (Real, FF, and synthesizer runs).
    pub omp_overheads: Option<OmpOverheads>,
}

/// One grid point to evaluate.
#[derive(Debug, Clone, Copy)]
pub struct SweepJob {
    /// Index into the sweep's workload list.
    pub workload: usize,
    /// Thread/CPU count.
    pub threads: u32,
    /// OpenMP schedule.
    pub schedule: Schedule,
    /// Threading paradigm.
    pub paradigm: Paradigm,
    /// Predictor and memory-model flag.
    pub spec: PredictorSpec,
    /// Configuration overrides.
    pub overrides: Overrides,
}

/// A declarative grid: the cartesian product of its axes, expanded
/// workload-major (workload, then threads, schedule, paradigm, predictor)
/// so all jobs sharing a profile are adjacent in the job list.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Workloads (profiled once each).
    pub workloads: Vec<WorkloadSpec>,
    /// Thread counts.
    pub threads: Vec<u32>,
    /// Schedules.
    pub schedules: Vec<Schedule>,
    /// Paradigms.
    pub paradigms: Vec<Paradigm>,
    /// Predictor series.
    pub predictors: Vec<PredictorSpec>,
    /// Overrides applied to every job.
    pub overrides: Overrides,
}

impl GridSpec {
    /// A grid over `workloads` with the standard single-axis defaults:
    /// OpenMP, static-block, synthesizer + ground truth.
    pub fn new(workloads: Vec<WorkloadSpec>) -> Self {
        GridSpec {
            workloads,
            threads: vec![2, 4, 6, 8, 10, 12],
            schedules: vec![Schedule::static_block()],
            paradigms: vec![Paradigm::OpenMp],
            predictors: vec![PredictorSpec::real(), PredictorSpec::syn(true)],
            overrides: Overrides::default(),
        }
    }

    /// Expand to the ordered job list.
    pub fn expand(&self) -> Vec<SweepJob> {
        let mut jobs = Vec::with_capacity(
            self.workloads.len()
                * self.threads.len()
                * self.schedules.len()
                * self.paradigms.len()
                * self.predictors.len(),
        );
        for w in 0..self.workloads.len() {
            for &threads in &self.threads {
                for &schedule in &self.schedules {
                    for &paradigm in &self.paradigms {
                        for &spec in &self.predictors {
                            jobs.push(SweepJob {
                                workload: w,
                                threads,
                                schedule,
                                paradigm,
                                spec,
                                overrides: self.overrides,
                            });
                        }
                    }
                }
            }
        }
        jobs
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Workload cache key.
    pub workload: String,
    /// Predictor.
    pub predictor: SweepPredictor,
    /// Memory model applied.
    pub memory_model: bool,
    /// Thread count.
    pub threads: u32,
    /// Schedule name (paper notation).
    pub schedule: String,
    /// Paradigm name.
    pub paradigm: String,
    /// Measured or predicted speedup.
    pub speedup: f64,
    /// Parallel time, cycles.
    pub predicted_cycles: u64,
    /// Serial time, cycles.
    pub serial_cycles: u64,
}

/// The outcome of a sweep: points in deterministic job order (skipped
/// jobs — synthesizer beyond the machine's cores — removed), plus cache
/// counters. Nothing here depends on wall-clock time or worker count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Evaluated points, in job order.
    pub points: Vec<SweepPoint>,
    /// Jobs in the expanded grid.
    pub jobs_total: usize,
    /// Jobs skipped (synthesizer thread counts beyond the machine).
    pub jobs_skipped: usize,
    /// Profile-cache counters.
    pub cache: CacheStats,
}

/// Wall-clock nanoseconds a sweep spent in each pipeline stage, summed
/// across workers. Diagnostics only: timings live on the [`SweepEngine`],
/// never inside [`SweepResult`], so sweep output stays byte-identical
/// across worker counts and runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Nanoseconds spent profiling workloads (cache misses only; hits
    /// cost nothing beyond the lookup).
    pub profile_nanos: u64,
    /// Nanoseconds spent inside predictor backends (ff/syn/real/suit).
    pub predict_nanos: u64,
}

impl StageTimings {
    /// The stage time accrued since an `earlier` snapshot (saturating,
    /// so a racing reset or wrap never yields a bogus huge delta). This
    /// is how the serve daemon attributes one batch's engine time to
    /// profile/predict sub-spans: snapshot before, snapshot after,
    /// subtract.
    pub fn since(&self, earlier: &StageTimings) -> StageTimings {
        StageTimings {
            profile_nanos: self.profile_nanos.saturating_sub(earlier.profile_nanos),
            predict_nanos: self.predict_nanos.saturating_sub(earlier.predict_nanos),
        }
    }
}

/// The engine: a shared prophet, a profile cache, and a worker count.
pub struct SweepEngine {
    prophet: Arc<Prophet>,
    cache: ProfileCache,
    jobs: usize,
    profile_nanos: AtomicU64,
    predict_nanos: AtomicU64,
}

impl SweepEngine {
    /// An engine owning `prophet`, using every available core.
    pub fn new(prophet: Prophet) -> Self {
        Self::from_arc(Arc::new(prophet))
    }

    /// An engine sharing an existing prophet.
    pub fn from_arc(prophet: Arc<Prophet>) -> Self {
        SweepEngine {
            prophet,
            cache: ProfileCache::new(),
            jobs: 0,
            profile_nanos: AtomicU64::new(0),
            predict_nanos: AtomicU64::new(0),
        }
    }

    /// Set the worker count (`0` = all available cores).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Bound the profile cache to an LRU capacity (`None` = unbounded,
    /// the default). Intended for long-lived engines (`prophet serve`);
    /// replaces the cache (dropping any attached store), so call before
    /// [`SweepEngine::with_profile_store`] and before the first sweep.
    pub fn with_profile_cache_capacity(mut self, cap: Option<usize>) -> Self {
        self.cache = ProfileCache::with_capacity(cap);
        self
    }

    /// Attach a persistent profile store the cache reads through to.
    /// On a daemon restart the store replays profiles instead of
    /// re-running the tracer; predictions are byte-identical either way.
    pub fn with_profile_store(mut self, storage: Arc<dyn ProfileStorage>) -> Self {
        self.cache.set_storage(storage);
        self
    }

    /// The shared prophet.
    pub fn prophet(&self) -> &Prophet {
        &self.prophet
    }

    /// The profile cache (inspect [`ProfileCache::stats`] after a run).
    pub fn cache(&self) -> &ProfileCache {
        &self.cache
    }

    /// Profile one workload — or fetch it from the shared cache/store —
    /// with the same stage-timing accounting the grid path uses. This is
    /// how non-grid consumers (the what-if job runner) obtain trees:
    /// profiles stay deduplicated fleet-wide and `profile_nanos` keeps
    /// covering every profiling second the engine spends.
    pub fn profiled(&self, spec: &WorkloadSpec) -> Arc<Profiled> {
        let t0 = std::time::Instant::now();
        let p = self
            .cache
            .get_or_profile(&spec.key, || (spec.build)(&self.prophet));
        self.profile_nanos.fetch_add(
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        p
    }

    /// Cumulative per-stage wall-clock spent by this engine's sweeps.
    /// Summed across workers, so on a parallel sweep the total exceeds
    /// elapsed time. Never folded into [`SweepResult`].
    pub fn stage_timings(&self) -> StageTimings {
        StageTimings {
            profile_nanos: self.profile_nanos.load(Ordering::Relaxed),
            predict_nanos: self.predict_nanos.load(Ordering::Relaxed),
        }
    }

    /// Evaluate a declarative grid.
    pub fn run(&self, grid: &GridSpec) -> SweepResult {
        self.run_jobs(&grid.workloads, &grid.expand())
    }

    /// Evaluate an explicit job list (for irregular grids where each
    /// workload carries its own schedule/paradigm, e.g. Fig. 12).
    ///
    /// Each workload's tree is flattened at most once per call, by the
    /// first FF or SYN job that needs it; every later emulator job over
    /// that workload reuses the arena.
    pub fn run_jobs(&self, workloads: &[WorkloadSpec], jobs: &[SweepJob]) -> SweepResult {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.jobs)
            .build()
            .expect("sweep thread pool");
        let flats: Vec<OnceLock<FlatTree>> = workloads.iter().map(|_| OnceLock::new()).collect();
        let evaluated: Vec<Option<SweepPoint>> = pool.install(|| {
            jobs.par_iter()
                .map(|j| self.eval(workloads, &flats[j.workload], j))
                .collect()
        });
        let jobs_total = jobs.len();
        let points: Vec<SweepPoint> = evaluated.into_iter().flatten().collect();
        SweepResult {
            jobs_total,
            jobs_skipped: jobs_total - points.len(),
            points,
            cache: self.cache.stats(),
        }
    }

    /// Whether `job` would be deterministically skipped (synthesizer
    /// thread count beyond the target machine's cores). Exposed so
    /// callers that slice a combined job list back apart — the serve
    /// batcher — can reconstruct each slice's point count without
    /// re-evaluating anything.
    pub fn would_skip(&self, job: &SweepJob) -> bool {
        let machine = job
            .overrides
            .machine
            .unwrap_or_else(|| *self.prophet.machine());
        job.spec.predictor == SweepPredictor::Syn && job.threads > machine.cores
    }

    /// Evaluate one job. `None` = deterministically skipped (synthesizer
    /// thread count beyond the target machine's cores). `arena` holds
    /// the job's workload tree, flattened by the first emulator job.
    fn eval(
        &self,
        workloads: &[WorkloadSpec],
        arena: &OnceLock<FlatTree>,
        job: &SweepJob,
    ) -> Option<SweepPoint> {
        let machine = job
            .overrides
            .machine
            .unwrap_or_else(|| *self.prophet.machine());
        if self.would_skip(job) {
            return None;
        }
        let spec = &workloads[job.workload];
        let profile_t0 = std::time::Instant::now();
        let profiled = self
            .cache
            .get_or_profile(&spec.key, || (spec.build)(&self.prophet));
        self.profile_nanos.fetch_add(
            u64::try_from(profile_t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );

        let predict_t0 = std::time::Instant::now();
        let flat = || arena.get_or_init(|| FlatTree::from_tree(&profiled.tree));
        let (speedup, predicted_cycles, serial_cycles) = match job.spec.predictor {
            SweepPredictor::Real => {
                let mut opts = RealOptions::new(job.threads, job.paradigm, job.schedule);
                opts.machine = machine;
                if let Some(oh) = job.overrides.omp_overheads {
                    opts.omp_overheads = oh;
                }
                let r = run_real(&profiled.tree, &opts).expect("ground-truth run");
                (r.speedup, r.elapsed_cycles, r.serial_cycles)
            }
            SweepPredictor::Ff => {
                let p = ffemu::predict_flat(
                    flat(),
                    ffemu::FfOptions {
                        cpus: job.threads,
                        schedule: job.schedule,
                        overheads: job
                            .overrides
                            .omp_overheads
                            .unwrap_or_else(OmpOverheads::westmere_scaled),
                        use_burden: job.spec.memory_model,
                        contended_lock_penalty: job
                            .overrides
                            .lock_penalty
                            .unwrap_or(machine.context_switch_cycles),
                        model_pipelines: true,
                        expand_runs: false,
                    },
                );
                (p.speedup, p.predicted_cycles, p.serial_cycles)
            }
            SweepPredictor::Syn => {
                let mut so = synthemu::SynthOptions::new(job.threads, job.paradigm);
                so.machine = machine;
                so.schedule = job.schedule;
                so.use_burden = job.spec.memory_model;
                if let Some(oh) = job.overrides.omp_overheads {
                    so.omp_overheads = oh;
                }
                let p = synthemu::predict_flat(flat(), &so).expect("synthesizer run");
                (p.speedup, p.predicted_cycles, p.serial_cycles)
            }
            SweepPredictor::Suit => {
                let p = baselines::suitability_predict(&profiled.tree, job.threads);
                (p.speedup, p.predicted_cycles, p.serial_cycles)
            }
        };
        self.predict_nanos.fetch_add(
            u64::try_from(predict_t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        Some(SweepPoint {
            workload: spec.key.clone(),
            predictor: job.spec.predictor,
            memory_model: job.spec.memory_model,
            threads: job.threads,
            schedule: job.schedule.name(),
            paradigm: job.paradigm.name().to_string(),
            speedup,
            predicted_cycles,
            serial_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_prophet() -> Prophet {
        Prophet::new()
    }

    #[test]
    fn cache_same_key_shares_one_profile() {
        let prophet = tiny_prophet();
        let cache = ProfileCache::new();
        let spec = WorkloadSpec::test1(3);
        let a = cache.get_or_profile(&spec.key, || (spec.build)(&prophet));
        let b = cache.get_or_profile(&spec.key, || (spec.build)(&prophet));
        assert!(Arc::ptr_eq(&a, &b), "same key must share one Arc<Profiled>");
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 1, 1));
    }

    #[test]
    fn cache_distinct_seeds_miss_separately() {
        let prophet = tiny_prophet();
        let cache = ProfileCache::new();
        let s1 = WorkloadSpec::test1(1);
        let s2 = WorkloadSpec::test1(2);
        let a = cache.get_or_profile(&s1.key, || (s1.build)(&prophet));
        let b = cache.get_or_profile(&s2.key, || (s2.build)(&prophet));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.tree.total_length(), 0);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (2, 0, 2));
    }

    #[test]
    fn cache_profiles_once_under_concurrency() {
        let prophet = Arc::new(tiny_prophet());
        let cache = Arc::new(ProfileCache::new());
        let spec = WorkloadSpec::test1(5);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let prophet = Arc::clone(&prophet);
                let spec = spec.clone();
                s.spawn(move || {
                    let _ = cache.get_or_profile(&spec.key, || (spec.build)(&prophet));
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.misses, 1, "profiler must run exactly once per key");
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let prophet = tiny_prophet();
        let cache = ProfileCache::with_capacity(Some(2));
        let specs: Vec<WorkloadSpec> = (0..3).map(WorkloadSpec::test1).collect();
        let profile = |s: &WorkloadSpec| {
            let _ = cache.get_or_profile(&s.key, || (s.build)(&prophet));
        };
        profile(&specs[0]);
        profile(&specs[1]);
        profile(&specs[0]); // refresh 0: now 1 is the LRU entry
        profile(&specs[2]); // evicts 1
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        // 0 stayed resident (refresh + hit); 1 must re-profile.
        profile(&specs[0]);
        assert_eq!(cache.stats().hits, 2);
        profile(&specs[1]);
        assert_eq!(cache.stats().misses, 4, "evicted key profiles again");
    }

    #[test]
    fn unbounded_cache_reports_zero_evictions() {
        let prophet = tiny_prophet();
        let cache = ProfileCache::new();
        for seed in 0..4 {
            let s = WorkloadSpec::test1(seed);
            let _ = cache.get_or_profile(&s.key, || (s.build)(&prophet));
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (4, 0));
    }

    /// An in-memory [`ProfileStorage`] standing in for the on-disk store.
    #[derive(Default)]
    struct MapStore {
        map: Mutex<HashMap<String, Profiled>>,
        loads: AtomicU64,
        saves: AtomicU64,
    }

    impl ProfileStorage for MapStore {
        fn load(&self, key: &str) -> Option<Profiled> {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.map.lock().unwrap().get(key).cloned()
        }
        fn save(&self, key: &str, profiled: &Profiled) {
            self.saves.fetch_add(1, Ordering::Relaxed);
            self.map
                .lock()
                .unwrap()
                .insert(key.to_string(), profiled.clone());
        }
    }

    #[test]
    fn storage_read_through_and_write_behind() {
        let prophet = tiny_prophet();
        let store = Arc::new(MapStore::default());

        // Cold cache + empty store: the profiler runs, the store is fed.
        let mut cold = ProfileCache::new();
        cold.set_storage(store.clone() as Arc<dyn ProfileStorage>);
        let spec = WorkloadSpec::test1(9);
        let fresh = cold.get_or_profile(&spec.key, || (spec.build)(&prophet));
        let s = cold.stats();
        assert_eq!((s.misses, s.store_hits, s.store_writes), (1, 0, 1));
        assert_eq!(s.profiles(), 1);

        // A fresh cache over the warm store: zero profiler runs.
        let mut warm = ProfileCache::new();
        warm.set_storage(store.clone() as Arc<dyn ProfileStorage>);
        let replayed = warm.get_or_profile(&spec.key, || panic!("profiler must not run"));
        let s = warm.stats();
        assert_eq!((s.misses, s.store_hits, s.store_writes), (1, 1, 0));
        assert_eq!(s.profiles(), 0, "store absorbed the miss");
        assert_eq!(
            serde_json::to_string(&*fresh).unwrap(),
            serde_json::to_string(&*replayed).unwrap(),
            "replayed profile must match the fresh one byte for byte"
        );

        // Memory hits never touch the store.
        let loads_before = store.loads.load(Ordering::Relaxed);
        let _ = warm.get_or_profile(&spec.key, || panic!("profiler must not run"));
        assert_eq!(store.loads.load(Ordering::Relaxed), loads_before);
    }

    #[test]
    fn cache_stats_serialization_excludes_store_counters() {
        let stats = CacheStats {
            hits: 3,
            misses: 2,
            entries: 2,
            evictions: 1,
            store_hits: 2,
            store_writes: 5,
        };
        let js = serde_json::to_string(&stats).unwrap();
        assert_eq!(
            js, r#"{"hits":3,"misses":2,"entries":2,"evictions":1}"#,
            "store counters must never reach JSON (byte-stability contract)"
        );
        let back: CacheStats = serde_json::from_str(&js).unwrap();
        assert_eq!((back.hits, back.misses), (3, 2));
        assert_eq!((back.store_hits, back.store_writes), (0, 0));
    }

    #[test]
    fn predictor_labels_roundtrip() {
        for s in [
            PredictorSpec::real(),
            PredictorSpec::suit(),
            PredictorSpec::ff(true),
            PredictorSpec::ff(false),
            PredictorSpec::syn(true),
            PredictorSpec::syn(false),
        ] {
            assert_eq!(PredictorSpec::parse(&s.label()), Some(s));
        }
        assert_eq!(PredictorSpec::parse("bogus"), None);
    }

    #[test]
    fn grid_expansion_is_workload_major() {
        let mut grid = GridSpec::new(vec![WorkloadSpec::test1(0), WorkloadSpec::test1(1)]);
        grid.threads = vec![2, 4];
        grid.predictors = vec![PredictorSpec::real()];
        let jobs = grid.expand();
        assert_eq!(jobs.len(), 4);
        assert_eq!(
            jobs.iter().map(|j| j.workload).collect::<Vec<_>>(),
            vec![0, 0, 1, 1]
        );
        assert_eq!(
            jobs.iter().map(|j| j.threads).collect::<Vec<_>>(),
            vec![2, 4, 2, 4]
        );
    }

    #[test]
    fn synthesizer_jobs_beyond_cores_are_skipped() {
        let engine = SweepEngine::new(tiny_prophet()).with_jobs(1);
        let mut grid = GridSpec::new(vec![WorkloadSpec::test1(11)]);
        let cores = engine.prophet().machine().cores;
        grid.threads = vec![2, cores + 4];
        grid.predictors = vec![PredictorSpec::syn(false)];
        let r = engine.run(&grid);
        assert_eq!(r.jobs_total, 2);
        assert_eq!(r.jobs_skipped, 1);
        assert_eq!(r.points.len(), 1);
        assert_eq!(r.points[0].threads, 2);
    }

    #[test]
    fn stage_timings_accumulate_outside_the_result() {
        let engine = SweepEngine::new(tiny_prophet()).with_jobs(1);
        assert_eq!(engine.stage_timings(), StageTimings::default());
        let mut grid = GridSpec::new(vec![WorkloadSpec::test1(21)]);
        grid.threads = vec![2];
        grid.predictors = vec![PredictorSpec::ff(true)];
        let r = engine.run(&grid);
        let t = engine.stage_timings();
        assert!(t.profile_nanos > 0, "profiling took measurable time");
        assert!(t.predict_nanos > 0, "prediction took measurable time");
        // Timings are diagnostics on the engine; the result JSON — which
        // the determinism test byte-compares across worker counts — must
        // not carry them.
        let json = serde_json::to_string(&r).expect("serialise sweep");
        assert!(!json.contains("nanos"), "timings leaked into SweepResult");
    }
}
