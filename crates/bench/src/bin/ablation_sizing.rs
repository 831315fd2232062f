//! Ablation: how the chip-AVF depends on design choices the methodology
//! bakes in — SM count (changes derating factors and the L2 share of the
//! chip's bit budget) and the structure-size weighting itself.
//!
//! This probes the paper's threat-to-validity discussion (Section VI,
//! "GPU devices": absolute values shift with sizing, relative trends
//! should not) by recomputing two applications' AVFs under different GPU
//! sizings and reporting whether their *ranking* survives.
//!
//! Writes `results/ablation_sizing.csv`.
//! Options: `--n-uarch N --seed S`.

use bench::cli::Args;
use bench::results_dir;
use kernels::apps::{hotspot::HotSpot, lud::Lud, scp::Scp};
use kernels::Benchmark;
use relia::{pct4, run_uarch_campaign, Table};
use vgpu_sim::{GpuConfig, HwStructure};

fn main() {
    let mut args = Args::from_env();
    let base_cfg = args.campaign_cfg(100, 0);
    args.finish();
    let dir = results_dir();
    let apps: [&dyn Benchmark; 3] = [&HotSpot, &Lud, &Scp];
    let mut t = Table::new(
        "Ablation: chip AVF under different GPU sizings, %",
        &[
            "SMs",
            "RF share",
            "App",
            "AVF",
            "AVF-RF",
            "AVF-L2",
            "rank(HotSpot>LUD)",
        ],
    );
    for sms in [2u32, 4, 8] {
        let mut cfg = base_cfg.clone();
        cfg.gpu = GpuConfig::volta_scaled(sms);
        let rf_share =
            cfg.gpu.structure_bits(HwStructure::RegFile) as f64 / cfg.gpu.total_bits() as f64;
        let mut avfs = Vec::new();
        for app in apps {
            eprintln!("[ablation] {} SMs, {} ...", sms, app.name());
            let r = run_uarch_campaign(app, &cfg, false);
            avfs.push((app.name(), r.app_avf(&cfg.gpu).total(), r));
        }
        let rank_holds = avfs[0].1 > avfs[1].1; // HotSpot vs LUD
        for (name, avf, r) in &avfs {
            t.row(vec![
                sms.to_string(),
                format!("{:.0}%", rf_share * 100.0),
                name.to_string(),
                pct4(*avf),
                pct4(r.app_avf_structure(HwStructure::RegFile).total()),
                pct4(r.app_avf_structure(HwStructure::L2).total()),
                if rank_holds {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        }
    }
    println!("{t}");
    t.write_csv(dir.join("ablation_sizing.csv")).unwrap();
}
