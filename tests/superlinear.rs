//! Cache-trend extension (Table IV rows 1/3, the paper's future work):
//! when the parallel run's misses shrink because the aggregate cache
//! grows, the trend-aware burden model must track the machine while the
//! Assumption-4 model underestimates.

use cachesim::HierarchyConfig;
use machsim::{MachineConfig, Paradigm, Schedule};
use memmodel::{miss_retention, section_burden_with_trend, BurdenInputs, CacheTrend};
use proftree::NodeKind;
use prophet_core::Prophet;
use workloads::npb::Ft;
use workloads::{run_real, RealOptions};

/// The memory-bound FT setup from the memory-model tests.
fn setup() -> (Ft, MachineConfig, HierarchyConfig) {
    let ft = Ft {
        dim: 32,
        iters: 1,
        lines_per_task: 16,
    };
    let mut hierarchy = HierarchyConfig::westmere_scaled();
    hierarchy.llc.capacity_bytes = 128 << 10;
    hierarchy.llc.ways = 8;
    hierarchy.l2.capacity_bytes = 32 << 10;
    (ft, MachineConfig::westmere_scaled(), hierarchy)
}

#[test]
fn shrinking_misses_make_the_machine_superlinear_capable() {
    let (ft, machine, hierarchy) = setup();
    let llc = hierarchy.llc.capacity_bytes;
    let footprint = ft.footprint(); // 512 KiB = 4× the shrunken LLC
    let prophet = Prophet::with_machine(machine, hierarchy);
    let profiled = prophet.profile(&ft);

    let threads = 12u32;
    let retention = miss_retention(footprint, threads, llc);
    assert!(
        retention < 0.5,
        "12-way split should fit: retention {retention}"
    );

    let base_opts = {
        let mut o = RealOptions::new(threads, Paradigm::OpenMp, Schedule::static_block());
        o.machine = machine;
        o
    };
    let assumption4 = run_real(&profiled.tree, &base_opts).unwrap();
    let mut trend_opts = base_opts;
    trend_opts.miss_scale = retention;
    let trended = run_real(&profiled.tree, &trend_opts).unwrap();

    // Removing capacity misses must speed the machine up.
    assert!(
        trended.speedup > assumption4.speedup * 1.1,
        "cache growth should help: {} vs {}",
        trended.speedup,
        assumption4.speedup
    );
}

#[test]
fn trend_aware_burden_tracks_trended_ground_truth() {
    let (ft, machine, hierarchy) = setup();
    let llc = hierarchy.llc.capacity_bytes;
    let footprint = ft.footprint();
    let prophet = Prophet::with_machine(machine, hierarchy);
    let profiled = prophet.profile(&ft);
    let cal = prophet.calibration().clone();

    let threads = 12u32;
    let retention = miss_retention(footprint, threads, llc);

    // Ground truth with the shrinking-miss trend applied.
    let mut opts = RealOptions::new(threads, Paradigm::OpenMp, Schedule::static_block());
    opts.machine = machine;
    opts.miss_scale = retention;
    let real = run_real(&profiled.tree, &opts).unwrap();

    // Predictions through the full FF emulator: once with the published
    // (Assumption-4) burden tables, once with trend-aware tables written
    // into the tree.
    let ff = |tree: &proftree::ProgramTree| {
        let mut o = prophet_core::ffemu::FfOptions::new(threads);
        o.schedule = Schedule::static_block();
        prophet_core::ffemu::predict_flat(&proftree::FlatTree::from_tree(tree), o).speedup
    };
    let pred_base = ff(&profiled.tree);

    let mut trended_tree = profiled.tree.clone();
    let secs = trended_tree.top_level_sections();
    for sec in secs {
        let inputs = match &trended_tree.node(sec).kind {
            NodeKind::Sec { mem: Some(m), .. } => BurdenInputs::from_profile(m),
            _ => continue,
        };
        let b = section_burden_with_trend(
            &cal,
            &inputs,
            threads,
            CacheTrend::Shrinks {
                footprint_bytes: footprint,
            },
            llc,
        );
        if let NodeKind::Sec { burden, .. } = &mut trended_tree.node_mut(sec).kind {
            burden.set(threads, b);
        }
    }
    let pred_trend = ff(&trended_tree);

    let err_base = (pred_base - real.speedup).abs() / real.speedup;
    let err_trend = (pred_trend - real.speedup).abs() / real.speedup;
    assert!(
        err_trend < err_base,
        "trend-aware ({pred_trend:.2}, err {:.0}%) should beat assumption-4 \
         ({pred_base:.2}, err {:.0}%) against trended real {:.2}",
        err_trend * 100.0,
        err_base * 100.0,
        real.speedup
    );
    // And the base model must *underestimate* — the paper's MD/LU story.
    assert!(
        pred_base < real.speedup,
        "assumption-4 should underestimate: {pred_base:.2} vs {:.2}",
        real.speedup
    );
}

#[test]
fn growth_trend_predicts_worse_scaling_than_assumption4() {
    let (ft, machine, hierarchy) = setup();
    let prophet = Prophet::with_machine(machine, hierarchy);
    let profiled = prophet.profile(&ft);
    let cal = prophet.calibration().clone();
    for sec in profiled.tree.top_level_sections() {
        if let NodeKind::Sec { mem: Some(m), .. } = &profiled.tree.node(sec).kind {
            let i = BurdenInputs::from_profile(m);
            if i.mpi < cal.mpi_floor {
                continue;
            }
            let base = memmodel::section_burden(&cal, &i, 8);
            let grown = section_burden_with_trend(
                &cal,
                &i,
                8,
                CacheTrend::Grows {
                    per_thread_growth: 0.2,
                },
                hierarchy.llc.capacity_bytes,
            );
            assert!(
                grown >= base,
                "growth must not shrink burden: {grown} < {base}"
            );
        }
    }
}
