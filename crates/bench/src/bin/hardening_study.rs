//! Regenerates the Section-IV TMR hardening artifacts:
//!
//! * **Figure 7** — kernel AVF & SVF with/without hardening
//!   (`results/fig07_hardened_avf_svf.csv`).
//! * **Figure 8** — the SDC share of AVF with/without hardening
//!   (`results/fig08_hardened_sdc.csv`).
//! * **Figure 9** — Timeout+DUE of AVF and SVF with/without hardening
//!   (`results/fig09_hardened_due_timeout.csv`).
//! * **Figure 10** — per-structure AVF before/after for the paper's
//!   representative kernels (`results/fig10_structure_breakdown.csv`,
//!   full per-kernel data in the CSV).
//! * **Figure 11** — control-path-affected masked runs (cycle-count
//!   proxy) with/without hardening (`results/fig11_control_path.csv`).
//!
//! Options: `--n-uarch N --n-sw N --seed S --events PATH`, watchdog:
//! `--wall-limit-us N --cycle-limit N --no-retry` (docs/CAMPAIGNS.md).
//! TMR runs cost ~3.5× the unprotected ones, so defaults are smaller
//! than `baseline_study`'s.

use bench::cli::Args;
use bench::{finish_observability, init_observability, results_dir};
use kernels::all_benchmarks;
use relia::{evaluate_hardening, pct, pct4, Table};

fn main() {
    let mut args = Args::from_env();
    let cfg = args.campaign_cfg(150, 150);
    init_observability(args);
    let dir = results_dir();
    let gpu = cfg.gpu.clone();

    let mut fig7 = Table::new(
        "Figure 7: AVF and SVF with/without TMR hardening, %",
        &["Kernel", "AVF_base", "AVF_TMR", "SVF_base", "SVF_TMR"],
    );
    let mut fig8 = Table::new(
        "Figure 8: SDC share of AVF with/without hardening, %",
        &["Kernel", "AVF-SDC_base", "AVF-SDC_TMR"],
    );
    let mut fig9 = Table::new(
        "Figure 9: Timeout and DUE with/without hardening, %",
        &[
            "Kernel",
            "AVF-TO_base",
            "AVF-DUE_base",
            "AVF-TO_TMR",
            "AVF-DUE_TMR",
            "SVF-TO_base",
            "SVF-DUE_base",
            "SVF-TO_TMR",
            "SVF-DUE_TMR",
        ],
    );
    let mut fig10 = Table::new(
        "Figure 10: per-structure AVF before/after hardening, %",
        &[
            "Kernel",
            "Structure",
            "SDC_base",
            "TO_base",
            "DUE_base",
            "SDC_TMR",
            "TO_TMR",
            "DUE_TMR",
        ],
    );
    let mut fig11 = Table::new(
        "Figure 11: control-path-affected masked runs (microarch FI), %",
        &["Kernel", "base", "TMR"],
    );

    for b in all_benchmarks() {
        eprintln!("[hardening] {} ...", b.name());
        let cmp = evaluate_hardening(b.as_ref(), &cfg);
        for row in cmp.kernel_rows(&gpu) {
            let name = format!("{} {}", cmp.app, row.kernel);
            fig7.row(vec![
                name.clone(),
                pct4(row.avf_base.total()),
                pct4(row.avf_tmr.total()),
                pct(row.svf_base.total()),
                pct(row.svf_tmr.total()),
            ]);
            fig8.row(vec![
                name.clone(),
                pct4(row.avf_base.sdc),
                pct4(row.avf_tmr.sdc),
            ]);
            fig9.row(vec![
                name.clone(),
                pct4(row.avf_base.timeout),
                pct4(row.avf_base.due),
                pct4(row.avf_tmr.timeout),
                pct4(row.avf_tmr.due),
                pct(row.svf_base.timeout),
                pct(row.svf_base.due),
                pct(row.svf_tmr.timeout),
                pct(row.svf_tmr.due),
            ]);
            for (h, before, after) in &row.structures {
                fig10.row(vec![
                    name.clone(),
                    h.label().to_string(),
                    pct4(before.sdc),
                    pct4(before.timeout),
                    pct4(before.due),
                    pct4(after.sdc),
                    pct4(after.timeout),
                    pct4(after.due),
                ]);
            }
            fig11.row(vec![name, pct(row.ctrl_base), pct(row.ctrl_tmr)]);
        }
    }

    println!("{fig7}");
    println!("{fig8}");
    println!("{fig9}");
    // The paper's Figure 10 shows six representative kernels; print those,
    // the CSV has all of them.
    let representative = [
        "LUD K2",
        "SCP K1",
        "NW K2",
        "BackProp K2",
        "SRADv1 K2",
        "K-Means K2",
    ];
    let mut fig10_print = Table::new(
        "Figure 10 (representative kernels): per-structure AVF before/after, %",
        &fig10.headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for row in &fig10.rows {
        if representative.contains(&row[0].as_str()) {
            fig10_print.row(row.clone());
        }
    }
    println!("{fig10_print}");
    println!("{fig11}");

    fig7.write_csv(dir.join("fig07_hardened_avf_svf.csv"))
        .unwrap();
    fig8.write_csv(dir.join("fig08_hardened_sdc.csv")).unwrap();
    fig9.write_csv(dir.join("fig09_hardened_due_timeout.csv"))
        .unwrap();
    fig10
        .write_csv(dir.join("fig10_structure_breakdown.csv"))
        .unwrap();
    fig11.write_csv(dir.join("fig11_control_path.csv")).unwrap();

    finish_observability();
}
