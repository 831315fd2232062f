//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Each binary regenerates one artifact of the paper's evaluation section
//! (see DESIGN.md's per-experiment index) and writes both an aligned text
//! table to stdout and a CSV under `results/`.

use relia::{CampaignCfg, EngineBackend};

pub mod cli;

/// Turn on observability from the command line and environment before
/// running campaigns:
///
/// * `--events PATH` or `RELIA_EVENTS=PATH` — JSONL event sink (one line
///   per injection) plus the metrics registry;
/// * `RELIA_METRICS=1` — metrics registry and phase timers alone;
/// * `RELIA_PROGRESS=1`/`0` — force the stderr progress reporter on/off
///   (default: on exactly when events or metrics are on).
///
/// Takes `--events` and then [`cli::Args::finish`]es the command line, so
/// a malformed one exits 2 before the events file is created. With none of
/// these set the campaigns run exactly as before: no files, no extra
/// output, identical results (observability never touches the seeded RNG
/// streams).
pub fn init_observability(mut args: cli::Args) {
    // Always installed: a panicking campaign must not lose the buffered
    // event/trace lines needed to debug the panic.
    obs::install_panic_hook();
    let events_path = args
        .value("--events")
        .or_else(|| std::env::var("RELIA_EVENTS").ok().filter(|s| !s.is_empty()));
    args.finish();
    let metrics_on = std::env::var("RELIA_METRICS").is_ok_and(|v| v != "0");
    let mut any = metrics_on;
    if let Some(p) = &events_path {
        if let Err(e) = obs::init_events(std::path::Path::new(p)) {
            cli::die(&format!("cannot open events file {p}: {e}"));
        }
        eprintln!("[obs] writing events to {p}");
        any = true;
    }
    if any {
        obs::set_enabled(true);
    }
    let progress = match std::env::var("RELIA_PROGRESS").ok().as_deref() {
        Some("0") => false,
        Some(_) => true,
        None => any,
    };
    if progress {
        obs::progress::enable();
    }
}

/// Print the final observability summary (metrics snapshot + phase
/// profile) to stderr and flush/close the event sink. No-op when
/// [`init_observability`] enabled nothing.
pub fn finish_observability() {
    obs::progress::finish();
    if obs::enabled() {
        let snap = obs::global().snapshot();
        for t in relia::report::metrics_tables(&snap) {
            eprintln!("{t}");
        }
        eprintln!("{}", relia::report::phase_table(&obs::phase_snapshot()));
    }
    if obs::events_enabled() {
        obs::flush_events().expect("flush events");
        obs::events::shutdown_events();
    }
}

/// Results directory (repo-relative `results/`).
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Unhardened AVF + SVF campaigns over the whole suite — shared by the
/// Figure 1/2/4/5 and Table I generators.
pub struct BaselineResults {
    pub cfg: CampaignCfg,
    pub apps: Vec<(relia::UarchAppResult, relia::SvfAppResult)>,
}

pub fn run_baseline(cfg: &CampaignCfg, backend: EngineBackend) -> BaselineResults {
    let apps = kernels::all_benchmarks()
        .iter()
        .map(|b| {
            eprintln!("[baseline] {} ...", b.name());
            (
                relia::run_uarch_campaign_with(b.as_ref(), cfg, false, backend),
                relia::run_sw_campaign(b.as_ref(), cfg, false),
            )
        })
        .collect();
    BaselineResults {
        cfg: cfg.clone(),
        apps,
    }
}
