//! Fault-model study: re-runs the cross-layer ranking analysis under every
//! [`FaultPattern`] — multi-bit transients (adjacent double, whole entry,
//! row/column bursts) and persistent stuck-at cells — and asks the paper's
//! question again for each: *does the software-level ranking survive?*
//!
//! For every (pattern, app, kernel) it records the injection AVF (uarch
//! layer, all five storage structures) and SVF (software layer), then
//! summarises per pattern:
//!
//! * Spearman rank correlation of the per-kernel AVF (and SVF) vector
//!   against the single-bit baseline — how much the fault model itself
//!   reshuffles the vulnerability ranking at each layer;
//! * the SVF-vs-AVF pairwise ranking agreement (the Table I / Insight #6
//!   inversion analysis), re-run under that pattern.
//!
//! Writes `results/fig_fault_model_ranking.csv`.
//! Options: `--n-uarch N --n-sw N --seed S --sms N --backend timed|replay
//! --events PATH`,
//! watchdog `--wall-limit-us N --cycle-limit N --no-retry`
//! (docs/CAMPAIGNS.md; pattern catalog in docs/FAULT_MODELS.md).
//!
//! `fault_model_study smoke` is the scripts/check.sh gate: one app, tiny
//! campaigns, a transient multi-bit and a persistent pattern, determinism
//! asserted, nothing written under `results/`.

use ace::spearman;
use bench::cli::Args;
use bench::{finish_observability, init_observability, results_dir};
use kernels::all_benchmarks;
use relia::{
    pct, pct4, run_sw_campaign, run_uarch_campaign_with, CampaignCfg, EngineBackend, Table,
    TrendItem,
};
use vgpu_sim::FaultPattern;

/// One (app, kernel) measurement under one fault pattern.
struct Point {
    app: String,
    kernel: String,
    avf: f64,
    svf: f64,
}

fn measure(cfg: &CampaignCfg, backend: EngineBackend, pattern: FaultPattern) -> Vec<Point> {
    let mut cfg = cfg.clone();
    cfg.pattern = pattern;
    let mut points = Vec::new();
    for b in all_benchmarks() {
        eprintln!("[fault-model] {} / {} ...", pattern.label(), b.name());
        let uarch = run_uarch_campaign_with(b.as_ref(), &cfg, false, backend);
        let sw = run_sw_campaign(b.as_ref(), &cfg, false);
        for (ku, ks) in uarch.kernels.iter().zip(&sw.kernels) {
            assert_eq!(ku.kernel, ks.kernel, "layer kernel order must agree");
            points.push(Point {
                app: uarch.app.clone(),
                kernel: ku.kernel.clone(),
                avf: ku.chip_avf(&cfg.gpu).total(),
                svf: ks.svf().total(),
            });
        }
    }
    points
}

/// Spearman of a metric across the per-kernel vector vs the single-bit
/// baseline (same campaign sizes, same seeds — the pattern is the only
/// difference). `None` (constant input) renders as "NA".
fn rho(base: &[Point], pts: &[Point], f: impl Fn(&Point) -> f64) -> String {
    let xs: Vec<f64> = base.iter().map(&f).collect();
    let ys: Vec<f64> = pts.iter().map(&f).collect();
    match spearman(&xs, &ys) {
        Some(r) => format!("{r:.4}"),
        None => "NA".to_string(),
    }
}

fn main() {
    let mut args = Args::from_env();
    if args.leading("smoke") {
        let backend = args.backend();
        args.finish();
        smoke(backend);
        return;
    }
    let cfg = args.campaign_cfg(60, 120);
    let backend = args.backend();
    init_observability(args);
    let mut t = Table::new(
        format!(
            "Fault-model ranking study (n_uarch={}, n_sw={}, seed {:#x})",
            cfg.n_uarch, cfg.n_sw, cfg.seed
        ),
        &[
            "app",
            "kernel",
            "pattern",
            "avf",
            "svf",
            "spearman_avf_vs_single_bit",
            "spearman_svf_vs_single_bit",
        ],
    );
    let base = measure(&cfg, backend, FaultPattern::SingleBit);
    let mut summary = Vec::new();
    for &p in &FaultPattern::ALL {
        let pts = if p == FaultPattern::SingleBit {
            // Reuse the baseline run: same cfg, same pattern, same seeds.
            base.iter()
                .map(|b| Point {
                    app: b.app.clone(),
                    kernel: b.kernel.clone(),
                    avf: b.avf,
                    svf: b.svf,
                })
                .collect()
        } else {
            measure(&cfg, backend, p)
        };
        assert_eq!(pts.len(), base.len(), "pattern runs must cover the suite");
        let rho_avf = rho(&base, &pts, |x| x.avf);
        let rho_svf = rho(&base, &pts, |x| x.svf);
        // The inversion analysis of Table I, re-run under this pattern:
        // does ranking apps by SVF still mis-order them vs AVF?
        let items: Vec<TrendItem> = pts
            .iter()
            .map(|x| TrendItem {
                name: format!("{}/{}", x.app, x.kernel),
                a: x.svf,
                b: x.avf,
            })
            .collect();
        let trend = relia::compare_pairs(&items);
        summary.push((p, rho_avf.clone(), rho_svf.clone(), trend));
        for x in &pts {
            t.row(vec![
                x.app.clone(),
                x.kernel.clone(),
                p.label().to_string(),
                pct4(x.avf),
                pct(x.svf),
                rho_avf.clone(),
                rho_svf.clone(),
            ]);
        }
    }
    println!("{t}");
    for (p, ra, rs, trend) in &summary {
        println!(
            "{:>15}: spearman vs single-bit AVF {ra} / SVF {rs}, \
             SVF-vs-AVF ranking {}/{} pairs consistent",
            p.label(),
            trend.consistent,
            trend.total()
        );
    }
    let dir = results_dir();
    t.write_csv(dir.join("fig_fault_model_ranking.csv"))
        .unwrap();
    println!(
        "wrote {}",
        dir.join("fig_fault_model_ranking.csv").display()
    );
    finish_observability();
}

/// check.sh gate: one app, one transient multi-bit and one persistent
/// pattern, deterministic across reruns, and the stuck-at campaign must
/// actually differ from single-bit (the pattern is not a no-op).
fn smoke(backend: EngineBackend) {
    let cfg = CampaignCfg::new(6, 6, 0x5A5A);
    let bench = kernels::all_benchmarks()
        .into_iter()
        .find(|b| b.name() == "VA")
        .expect("VA in the suite");
    let run = |pattern: FaultPattern| {
        let mut c = cfg.clone();
        c.pattern = pattern;
        let u = run_uarch_campaign_with(bench.as_ref(), &c, false, backend);
        let s = run_sw_campaign(bench.as_ref(), &c, false);
        (
            u.app_avf(&c.gpu).total(),
            s.app_svf().total(),
            u.kernels[0].per_structure.clone(),
        )
    };
    for pattern in [FaultPattern::BurstRow, FaultPattern::StuckAt0] {
        let a = run(pattern);
        let b = run(pattern);
        assert_eq!(
            a.2,
            b.2,
            "smoke failed: {} campaign not deterministic",
            pattern.label()
        );
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "AVF must be deterministic");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "SVF must be deterministic");
    }
    let single = run(FaultPattern::SingleBit);
    let stuck = run(FaultPattern::StuckAt1);
    assert_ne!(
        single.2, stuck.2,
        "smoke failed: stuck-at-1 outcomes identical to single-bit — the \
         pattern is not reaching the injector"
    );
    println!(
        "smoke ok: VA single-bit AVF {:.4}% vs stuck-at-1 AVF {:.4}%, deterministic",
        single.0 * 100.0,
        stuck.0 * 100.0
    );
}
