//! ACE analytical-estimator study: single-pass analytic AVF for the whole
//! suite, cross-validated against recorded injection AVF
//! (`results/fig_ace_vs_avf.csv`).
//!
//! ```text
//! ace_study --make-ref [--n-uarch 250]   # record the injection reference
//! ace_study [--check]                    # estimate + compare + figure CSV
//! ace_study smoke                        # tiny determinism gate
//! ```
//!
//! The default run performs **no injections**: one instrumented fault-free
//! timed simulation per application (under the `ace_run` obs phase) yields
//! per-kernel, per-structure analytic AVF. If the reference CSVs written
//! by `--make-ref` are present, it emits the comparison figure with
//! Spearman rank correlation and mean absolute error, plus a stdout-only
//! speedup table from the obs phase timings. `--check` additionally gates
//! on the acceptance thresholds (Spearman ≥ 0.7, per-app speedup ≥ 50×)
//! and exits 1 when unmet.
//!
//! Options: `--apps VA,NW` (suite subset), `--structures RF,SMEM,L2`
//! (comparison subset; exit 2 on unknown labels), `--n-uarch N --seed S
//! --sms N --events PATH`.

use std::process::exit;

use ace::{estimate_app, spearman, AceAppEstimate, CompareRow};
use bench::cli::{die, fail, find_app, Args};
use bench::{finish_observability, init_observability, results_dir};
use kernels::Benchmark;
use obs::Phase;
use relia::{run_uarch_campaign, CampaignCfg, Table};
use vgpu_sim::{GpuConfig, HwStructure};

const REF_CSV: &str = "ace_injection_ref.csv";
const REF_META_CSV: &str = "ace_injection_ref_meta.csv";
const FIG_CSV: &str = "fig_ace_vs_avf.csv";

struct Opts {
    benches: Vec<Box<dyn Benchmark>>,
    structures: Vec<HwStructure>,
    cfg: CampaignCfg,
    make_ref: bool,
    check: bool,
}

fn parse_opts(args: &mut Args) -> Opts {
    let mut cfg = CampaignCfg::new(args.num("--n-uarch").unwrap_or(250), 250, 0xC0FF_EE00);
    if let Some(seed) = args.num("--seed") {
        cfg.seed = seed;
    }
    if let Some(gpu) = args.gpu() {
        cfg.gpu = gpu;
    }
    Opts {
        benches: args.apps(),
        structures: args
            .structures()
            .unwrap_or_else(|| HwStructure::ALL.to_vec()),
        cfg,
        make_ref: args.flag("--make-ref"),
        check: args.flag("--check"),
    }
}

fn ace_run_ns() -> u64 {
    obs::phase_snapshot()[Phase::AceRun as usize].total_ns
}

fn all_phase_ns() -> u64 {
    obs::phase_snapshot().iter().map(|p| p.total_ns).sum()
}

/// One `--n-uarch` injection campaign per app; records per-(kernel,
/// structure) injection AVF and per-app campaign wall time.
fn cmd_make_ref(o: &Opts) {
    let mut refs = Table::new(
        format!(
            "Injection AVF reference (n={} per structure, seed {:#x})",
            o.cfg.n_uarch, o.cfg.seed
        ),
        &["app", "kernel", "structure", "inj_avf", "n_per_structure"],
    );
    let mut meta = Table::new(
        "Injection reference campaign cost",
        &[
            "app",
            "campaign_wall_ms",
            "trials",
            "n_uarch",
            "seed",
            "sms",
        ],
    );
    for b in &o.benches {
        eprintln!("[make-ref] {} (n={})...", b.name(), o.cfg.n_uarch);
        let t0 = all_phase_ns();
        let res = run_uarch_campaign(b.as_ref(), &o.cfg, false);
        let wall_ms = (all_phase_ns() - t0) as f64 / 1e6;
        let trials = b.kernels().len() * HwStructure::ALL.len() * o.cfg.n_uarch;
        for k in &res.kernels {
            for &h in &HwStructure::ALL {
                refs.row(vec![
                    res.app.clone(),
                    k.kernel.clone(),
                    h.label().to_string(),
                    format!("{:.8}", k.avf(h).total()),
                    o.cfg.n_uarch.to_string(),
                ]);
            }
        }
        meta.row(vec![
            res.app.clone(),
            format!("{wall_ms:.3}"),
            trials.to_string(),
            o.cfg.n_uarch.to_string(),
            o.cfg.seed.to_string(),
            o.cfg.gpu.num_sms.to_string(),
        ]);
    }
    let dir = results_dir();
    refs.write_csv(dir.join(REF_CSV)).unwrap();
    meta.write_csv(dir.join(REF_META_CSV)).unwrap();
    println!("{meta}");
    println!(
        "wrote {} and {} under {}",
        REF_CSV,
        REF_META_CSV,
        dir.display()
    );
}

/// Minimal CSV reader for the two reference files (no quoted fields).
fn read_csv_rows(name: &str) -> Option<Vec<Vec<String>>> {
    let text = std::fs::read_to_string(results_dir().join(name)).ok()?;
    Some(
        text.lines()
            .skip(1)
            .filter(|l| !l.trim().is_empty())
            .map(|l| l.split(',').map(|c| c.trim().to_string()).collect())
            .collect(),
    )
}

fn cmd_estimate(o: &Opts) {
    let gpu = &o.cfg.gpu;
    let mut estimates: Vec<AceAppEstimate> = Vec::new();
    let mut ace_wall_ms: Vec<(String, f64)> = Vec::new();
    for b in &o.benches {
        let t0 = ace_run_ns();
        let est = estimate_app(b.as_ref(), gpu);
        ace_wall_ms.push((est.app.clone(), (ace_run_ns() - t0) as f64 / 1e6));
        estimates.push(est);
    }

    println!("{}", ace::structure_table(&estimates, gpu, &o.structures));
    println!("{}", ace::app_table(&estimates, gpu));

    // ---- cross-validation against the recorded injection reference --
    let Some(ref_rows) = read_csv_rows(REF_CSV) else {
        eprintln!(
            "note: {}/{} not found — run `ace_study --make-ref` first for \
             the injection comparison",
            results_dir().display(),
            REF_CSV
        );
        if o.check {
            die("--check requires the injection reference");
        }
        return;
    };
    let inj_of = |app: &str, kernel: &str, h: HwStructure| -> Option<f64> {
        ref_rows
            .iter()
            .find(|r| r[0] == app && r[1] == kernel && r[2] == h.label())
            .map(|r| r[3].parse().expect("inj_avf is a number"))
    };
    let mut rows: Vec<CompareRow> = Vec::new();
    for est in &estimates {
        for k in &est.kernels {
            for &h in &o.structures {
                let Some(injected) = inj_of(&est.app, &k.kernel, h) else {
                    eprintln!(
                        "warning: no reference row for {} {} {} — stale {}?",
                        est.app,
                        k.kernel,
                        h.label(),
                        REF_CSV
                    );
                    continue;
                };
                rows.push(CompareRow {
                    app: est.app.clone(),
                    kernel: k.kernel.clone(),
                    structure: h,
                    analytic: k.avf(gpu, h),
                    injected,
                });
            }
        }
    }
    let fig = ace::comparison_table(&rows);
    println!("{fig}");
    fig.write_csv(results_dir().join(FIG_CSV)).unwrap();
    println!("wrote {}", results_dir().join(FIG_CSV).display());

    let xs: Vec<f64> = rows.iter().map(|r| r.analytic).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.injected).collect();
    let rho = spearman(&xs, &ys);

    // ---- estimator cost vs recorded campaign cost (stdout only: wall
    // times are machine-dependent, the figure CSV stays deterministic) --
    let meta = read_csv_rows(REF_META_CSV).unwrap_or_default();
    let mut speed = Table::new(
        "Estimator cost vs recorded injection campaign (obs phase wall)",
        &["app", "ace_ms", "campaign_ms", "speedup"],
    );
    let mut min_speedup = f64::INFINITY;
    for (app, ace_ms) in &ace_wall_ms {
        let Some(m) = meta.iter().find(|r| &r[0] == app) else {
            continue;
        };
        let campaign_ms: f64 = m[1].parse().expect("campaign_wall_ms is a number");
        let ratio = campaign_ms / ace_ms.max(1e-9);
        min_speedup = min_speedup.min(ratio);
        speed.row(vec![
            app.clone(),
            format!("{ace_ms:.3}"),
            format!("{campaign_ms:.3}"),
            format!("{ratio:.0}x"),
        ]);
    }
    if !speed.rows.is_empty() {
        println!("{speed}");
    }

    match rho {
        Some(r) => println!(
            "spearman(analytic, injection) = {r:.4} over {} points",
            rows.len()
        ),
        None => println!("spearman undefined ({} points)", rows.len()),
    }

    if o.check {
        let r = rho.unwrap_or_else(|| die("--check: spearman undefined"));
        let mut failed = false;
        if r < 0.7 {
            eprintln!("check FAILED: spearman {r:.4} < 0.7");
            failed = true;
        }
        if speed.rows.is_empty() {
            eprintln!("check FAILED: no campaign wall-time reference (rerun --make-ref)");
            failed = true;
        } else if min_speedup < 50.0 {
            eprintln!("check FAILED: min speedup {min_speedup:.0}x < 50x");
            failed = true;
        }
        if failed {
            exit(1);
        }
        println!("check OK: spearman {r:.4} >= 0.7, min speedup {min_speedup:.0}x >= 50x");
    }
}

/// Tiny gate for scripts/check.sh: the estimator must be deterministic,
/// injection-free, and produce nonzero RF lifetimes, without touching
/// `results/`.
fn cmd_smoke() {
    let gpu = GpuConfig::volta_scaled(2);
    let bench = find_app("VA");
    let a = estimate_app(bench.as_ref(), &gpu);
    let b = estimate_app(bench.as_ref(), &gpu);
    if a != b {
        fail("smoke failed: estimates differ across reruns");
    }
    if a.kernels[0].avf(&gpu, HwStructure::RegFile) <= 0.0 {
        fail("smoke failed: zero RF analytic AVF");
    }
    if a.events == 0 {
        fail("smoke failed: tracker recorded no events");
    }
    // Perfect self-agreement sanity for the comparison machinery.
    let avfs: Vec<f64> = HwStructure::ALL
        .iter()
        .map(|&h| a.kernels[0].avf(&gpu, h))
        .collect();
    if spearman(&avfs, &avfs) != Some(1.0) {
        fail("smoke failed: self-spearman != 1");
    }
    println!(
        "smoke ok: VA analytic chip AVF {:.4}%, {} lifetime events, deterministic",
        a.kernels[0].chip_avf(&gpu) * 100.0,
        a.events
    );
}

fn main() {
    let mut args = Args::from_env();
    if args.leading("smoke") {
        args.finish();
        cmd_smoke();
        return;
    }
    let o = parse_opts(&mut args);
    init_observability(args);
    // Phase timings back the speedup table, so always collect them here.
    obs::set_enabled(true);
    if o.make_ref {
        cmd_make_ref(&o);
    } else {
        cmd_estimate(&o);
    }
    finish_observability();
}
