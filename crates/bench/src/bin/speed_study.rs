//! Regenerates the footnote-1 observation: cross-layer AVF measurement is
//! far more expensive than software-level SVF measurement.
//!
//! The paper reports 1,258 single-core machine-days for the AVF campaigns
//! vs 10 for the SVF campaigns (~126×). Two factors compose that gap:
//!
//! 1. **per-injection cost** — a cycle-level microarchitecture simulation
//!    vs software-visible execution (in the paper, native GPU runs; here,
//!    the functional engine);
//! 2. **campaign size** — AVF needs one campaign per hardware structure
//!    (×5), SVF a single campaign per kernel.
//!
//! This binary measures both factors on this implementation and writes
//! `results/speed_study.csv`.

use bench::cli::Args;
use bench::results_dir;
use kernels::{all_benchmarks, faulty_run, golden_run, PlannedFault, Variant};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use relia::Table;
use std::time::Instant;
use vgpu_sim::{HwStructure, Mode, SwFault, SwFaultKind, UarchFault};

fn main() {
    let mut args = Args::from_env();
    let cfg = args.campaign_cfg(50, 50);
    args.finish();
    let dir = results_dir();
    let mut t = Table::new(
        "Footnote 1: per-injection cost, AVF (cycle-level) vs SVF (software-level)",
        &[
            "App",
            "AVF us/inj",
            "SVF us/inj",
            "cost ratio",
            "x structures",
            "campaign ratio",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    for b in all_benchmarks() {
        eprintln!("[speed] {} ...", b.name());
        let vt = Variant {
            mode: Mode::Timed,
            hardened: false,
        };
        let vf = Variant {
            mode: Mode::Functional,
            hardened: false,
        };
        let gt = golden_run(b.as_ref(), &cfg.gpu, vt);
        let gf = golden_run(b.as_ref(), &cfg.gpu, vf);

        let t0 = Instant::now();
        for _ in 0..cfg.n_uarch {
            let ordinal = rng.gen_range(0..gt.records.len());
            let cycles = gt.records[ordinal].stats.cycles.max(1);
            let fault = PlannedFault::Uarch(UarchFault {
                cycle: rng.gen_range(0..cycles),
                structure: HwStructure::RegFile,
                loc_pick: rng.gen(),
                bit: rng.gen_range(0..32),
                pattern: vgpu_sim::FaultPattern::SingleBit,
            });
            faulty_run(b.as_ref(), &cfg.gpu, vt, &gt, ordinal, fault);
        }
        let avf_us = t0.elapsed().as_micros() as f64 / cfg.n_uarch as f64;

        let t1 = Instant::now();
        for _ in 0..cfg.n_sw {
            let ordinal = rng.gen_range(0..gf.records.len());
            let elig = gf.records[ordinal].stats.gp_dest_instrs.max(1);
            let fault = PlannedFault::Sw(SwFault {
                kind: SwFaultKind::DestValue,
                target: rng.gen_range(0..elig),
                bit: rng.gen_range(0..32),
                loc_pick: 0,
                pattern: vgpu_sim::FaultPattern::SingleBit,
            });
            faulty_run(b.as_ref(), &cfg.gpu, vf, &gf, ordinal, fault);
        }
        let svf_us = t1.elapsed().as_micros() as f64 / cfg.n_sw as f64;

        let ratio = avf_us / svf_us.max(1.0);
        t.row(vec![
            b.name().to_string(),
            format!("{avf_us:.0}"),
            format!("{svf_us:.0}"),
            format!("{ratio:.1}x"),
            "5".to_string(),
            format!("{:.0}x", ratio * 5.0),
        ]);
    }
    println!("{t}");
    println!(
        "paper: AVF campaigns took 1258 machine-days vs 10 for SVF (~126x);\n\
         here the SVF side is also simulated (no silicon), so the per-\n\
         injection gap is smaller — the campaign-size factor (x5 structures)\n\
         composes identically."
    );
    t.write_csv(dir.join("speed_study.csv")).unwrap();
}
