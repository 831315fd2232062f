//! Regenerates **Figure 12** and evaluates the Section-V-B proposal:
//!
//! 1. Disassembles the paper's ten-instruction snippet and prints the
//!    register-reuse set of `R0` at instruction #4 (the red circles).
//! 2. Quantifies the proposal's impact: runs source-register injection
//!    campaigns in both the *instantaneous* model (typical SVF tooling)
//!    and the *reuse-replicating* model the paper proposes, showing that
//!    the instantaneous model underestimates vulnerability.
//!
//! Writes `results/fig12_reuse_sets.csv` and
//! `results/fig12_src_injection_modes.csv`.
//! Options: `--n-sw N --seed S`.

use bench::cli::Args;
use bench::results_dir;
use kernels::{all_benchmarks, faulty_run, golden_run, Outcome, PlannedFault, Variant};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use relia::reuse::{figure12_kernel, readers_until_redef};
use relia::{pct, ClassCounts, Table};
use vgpu_arch::Reg;
use vgpu_sim::{Mode, SwFault, SwFaultKind};

fn main() {
    let mut args = Args::from_env();
    let cfg = args.campaign_cfg(0, 300);
    args.finish();
    let dir = results_dir();

    // ---- Part 1: the exact Figure 12 example --------------------------
    let k = figure12_kernel();
    println!("{}", k.disassemble());
    let mut t = Table::new(
        "Figure 12: register-reuse sets (fault at instruction #4)",
        &["Register", "Fault at", "Affected instructions"],
    );
    for (reg, at) in [(Reg(0), 3usize), (Reg(3), 3), (Reg(2), 4)] {
        let readers = readers_until_redef(&k, at, reg);
        t.row(vec![
            format!("R{}", reg.0),
            format!("#{}", at + 1),
            readers
                .iter()
                .map(|&i| format!("#{}", i + 1))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    println!("{t}");
    t.write_csv(dir.join("fig12_reuse_sets.csv")).unwrap();

    // ---- Part 2: instantaneous vs reuse-replicating source injection --
    let mut modes = Table::new(
        "Source-register injection: instantaneous (SrcTransient) vs reuse-replicating (SrcPersistent) failure rates, %",
        &["App", "FR transient", "FR persistent", "underestimation (pp)"],
    );
    let variant = Variant {
        mode: Mode::Functional,
        hardened: false,
    };
    for b in all_benchmarks() {
        eprintln!("[fig12] {} ...", b.name());
        let golden = golden_run(b.as_ref(), &cfg.gpu, variant);
        let mut fr = [0.0f64; 2];
        for (mi, kind) in [SwFaultKind::SrcTransient, SwFaultKind::SrcPersistent]
            .into_iter()
            .enumerate()
        {
            let mut counts = ClassCounts::default();
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (mi as u64) << 32);
            // Uniform over the whole app's source-reading instruction
            // stream (launch picked by weight).
            let windows: Vec<(usize, u64)> = golden
                .records
                .iter()
                .enumerate()
                .map(|(o, r)| (o, r.stats.src_reg_instrs))
                .filter(|&(_, w)| w > 0)
                .collect();
            let total: u64 = windows.iter().map(|&(_, w)| w).sum();
            for _ in 0..cfg.n_sw {
                let mut x = rng.gen_range(0..total);
                let (ordinal, weight) = windows
                    .iter()
                    .copied()
                    .find(|&(_, w)| {
                        if x < w {
                            true
                        } else {
                            x -= w;
                            false
                        }
                    })
                    .unwrap();
                let fault = PlannedFault::Sw(SwFault {
                    kind,
                    target: rng.gen_range(0..weight),
                    bit: rng.gen_range(0..32),
                    loc_pick: 0,
                    pattern: vgpu_sim::FaultPattern::SingleBit,
                });
                let res = faulty_run(b.as_ref(), &cfg.gpu, variant, &golden, ordinal, fault);
                counts.record(res.outcome);
                let _ = Outcome::Masked;
            }
            fr[mi] = counts.failure_rate();
        }
        modes.row(vec![
            b.name().to_string(),
            pct(fr[0]),
            pct(fr[1]),
            format!("{:+.2}", (fr[1] - fr[0]) * 100.0),
        ]);
    }
    println!("{modes}");
    modes
        .write_csv(dir.join("fig12_src_injection_modes.csv"))
        .unwrap();
}
