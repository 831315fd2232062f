//! Sharded campaign driver: split one fault-injection campaign across
//! processes/machines, checkpoint while running, resume after a kill, and
//! merge shard outputs back into the single-shot result.
//!
//! ```text
//! campaign run   --app VA --layer uarch --shards 4 --shard-index 0 \
//!                --checkpoint shard0.jsonl [--resume shard0.jsonl]
//! campaign run   --app VA --layer uarch --adaptive --ci-target 0.05 \
//!                [--wave-size 16 --max-trials 256 --checkpoint BASE --resume BASE]
//! campaign merge --app VA --layer uarch shard0.jsonl shard1.jsonl ...
//! campaign serve --app VA --layer uarch --shards 3 --listen 127.0.0.1:0 [--adaptive ...]
//! campaign work  --connect 127.0.0.1:PORT [--follow]
//! campaign smoke
//! ```
//!
//! `--adaptive` switches from a fixed `--n` per stratum to CI-driven
//! sizing (docs/TWOLEVEL.md): trials are dispatched in deterministic
//! waves until every (kernel, target) stratum's derated failure-rate CI
//! half-width reaches `--ci-target` or the `--max-trials` cap. Adaptive
//! runs checkpoint per wave (`BASE.waveW`) and resume byte-identically;
//! `serve --adaptive` runs one coordinator per wave on the same socket,
//! with workers reconnecting via `work --follow`.
//!
//! Plans are deterministic (docs/CAMPAIGNS.md): every shard derives the
//! same explicit trial list from `--seed`, so any disjoint cover of the
//! plan — 1 shard or 40, interrupted and resumed or not, executed locally
//! or by a fleet of `work` daemons against a `serve` coordinator
//! (docs/DISPATCH.md) — merges to the byte-identical
//! `UarchAppResult`/`SvfAppResult`.
//!
//! Common options: `--n N --seed S --sms N --hardened --events PATH
//! --csv PATH`, `--structures RF,SMEM,L2` (uarch layer: inject only into
//! a structure subset), `--fault-model PATTERN` (single-bit,
//! double-adjacent, whole-entry, burst-row, burst-col, stuck-at-0,
//! stuck-at-1; docs/FAULT_MODELS.md), watchdog knobs `--wall-limit-us N
//! --cycle-limit N --no-retry`. `run` additionally takes `--checkpoint-every K` (default
//! 64), `--limit L` (stop after L new trials, leaving a resumable
//! checkpoint), and the fast-forward knobs `--snapshots N` (mid-launch
//! golden snapshots per kernel, default 8) / `--no-fast-forward` (force
//! every trial to simulate its whole application; docs/PERF.md). `run`
//! and `serve` take `--backend timed|replay` (docs/TRACE.md): `replay`
//! adjudicates each trial against the golden liveness index and
//! synthesizes the (byte-identical) record when the fault footprint is
//! provably dead, simulating only the rest; it requires fast-forward,
//! so `--backend replay --no-fast-forward` is a validation error.
//!
//! Exit codes are uniform across subcommands: **2** for CLI/validation
//! errors (unknown flags, bad `--listen`/`--connect` addresses, bad lease
//! values), **1** for runtime failures (engine errors, unreadable
//! checkpoints, dispatch failures), **0** on success.

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;

use bench::cli::{die, fail, find_app, Args};
use bench::{finish_observability, init_observability};
use dispatch::{plan_strata, CampaignSpec, DispatchCfg, TelemetryCfg, WaveSpec, WorkerCfg};
use kernels::Benchmark;
use relia::checkpoint::CheckpointHeader;
use relia::plan::{
    prepare_sw_campaign, prepare_uarch_campaign_structures, Layer, PreparedCampaign, TrialTarget,
};
use relia::{
    assemble_sw, assemble_uarch, execute_shard, load_checkpoint, pct, records_fingerprint,
    CampaignCfg, EngineBackend, EngineCfg, EngineError, Table, TrialRecord, Watchdog,
};
use stat::{run_adaptive, sw_targets, uarch_targets, AdaptiveCfg, AdaptiveResult};
use vgpu_sim::HwStructure;

/// Everything `run`, `merge` and `serve` need to rebuild the plan.
struct CommonOpts {
    app: Option<String>,
    layer: Layer,
    cfg: CampaignCfg,
    hardened: bool,
    /// `--structures` subset (uarch layer only; `None` = all five).
    structures: Option<Vec<HwStructure>>,
    /// `--csv PATH`: also write the assembled result table as CSV.
    csv: Option<PathBuf>,
}

impl CommonOpts {
    fn parse(args: &mut Args) -> CommonOpts {
        let n = args.num("--n").unwrap_or(100);
        let mut cfg = CampaignCfg::new(n, n, 0xC0FF_EE00);
        args.campaign_knobs(&mut cfg);
        let o = CommonOpts {
            app: args.value("--app"),
            layer: args.value("--layer").map_or(Layer::Uarch, |v| {
                Layer::from_label(&v)
                    .unwrap_or_else(|| die(&format!("--layer must be uarch or sw, got {v:?}")))
            }),
            cfg,
            hardened: args.flag("--hardened"),
            structures: args.structures(),
            csv: args.value("--csv").map(PathBuf::from),
        };
        if o.structures.is_some() && o.layer == Layer::Sw {
            die("--structures only applies to --layer uarch");
        }
        // SIMT-stack and scheduler state is ephemeral: a transient flip there
        // is just one corrupted access, which the storage structures already
        // model. Only the persistent stuck-at patterns target them.
        if let Some(structures) = &o.structures {
            if structures
                .iter()
                .any(|h| matches!(h, HwStructure::Simt | HwStructure::Sched))
                && !o.cfg.pattern.is_persistent()
            {
                die(&format!(
                    "--structures SIMT/SCHED requires a stuck-at fault model \
                     (--fault-model stuck-at-0 or stuck-at-1), got {}",
                    o.cfg.pattern.label()
                ));
            }
        }
        o
    }
}

fn prepare<'a>(bench: &'a dyn Benchmark, o: &CommonOpts) -> PreparedCampaign<'a> {
    match o.layer {
        Layer::Uarch => prepare_uarch_campaign_structures(
            bench,
            &o.cfg,
            o.hardened,
            o.structures.as_deref().unwrap_or(&HwStructure::ALL),
        ),
        Layer::Sw => prepare_sw_campaign(bench, &o.cfg, o.hardened),
    }
}

/// Print the assembled result of a fully covered plan (and write it as
/// CSV when `--csv` was given) — the byte-comparison artifact for the
/// shard-merge and dispatch differential checks.
fn print_result(prep: &PreparedCampaign, records: &[TrialRecord], csv: Option<&Path>) {
    let table = match prep.plan.layer {
        Layer::Uarch => {
            let res = assemble_uarch(prep, records).unwrap_or_else(|e| fail(&e.to_string()));
            let mut t = Table::new(
                format!("{} — chip AVF per kernel (%)", res.app),
                &["Kernel", "SDC", "Timeout", "DUE", "AVF"],
            );
            for k in &res.kernels {
                let a = k.chip_avf(&prep.cfg.gpu);
                t.row(vec![
                    k.kernel.clone(),
                    pct(a.sdc),
                    pct(a.timeout),
                    pct(a.due),
                    pct(a.total()),
                ]);
            }
            let app = res.app_avf(&prep.cfg.gpu);
            t.row(vec![
                "app".into(),
                pct(app.sdc),
                pct(app.timeout),
                pct(app.due),
                pct(app.total()),
            ]);
            t
        }
        Layer::Sw => {
            let res = assemble_sw(prep, records).unwrap_or_else(|e| fail(&e.to_string()));
            let mut t = Table::new(
                format!("{} — SVF per kernel (%)", res.app),
                &["Kernel", "SDC", "Timeout", "DUE", "SVF", "SVF-LD"],
            );
            for k in &res.kernels {
                let s = k.svf();
                t.row(vec![
                    k.kernel.clone(),
                    pct(s.sdc),
                    pct(s.timeout),
                    pct(s.due),
                    pct(s.total()),
                    pct(k.svf_ld().total()),
                ]);
            }
            let app = res.app_svf();
            t.row(vec![
                "app".into(),
                pct(app.sdc),
                pct(app.timeout),
                pct(app.due),
                pct(app.total()),
                pct(res.app_svf_ld().total()),
            ]);
            t
        }
    };
    println!("{table}");
    if let Some(path) = csv {
        table
            .write_csv(path)
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        eprintln!("[campaign] wrote {}", path.display());
    }
    println!("result fingerprint: {:#018x}", records_fingerprint(records));
}

/// The stratification an adaptive campaign sizes: kernel × structure for
/// the uarch layer (respecting `--structures`), kernel × software fault
/// kind for the sw layer.
fn adaptive_targets(o: &CommonOpts) -> Vec<TrialTarget> {
    match o.layer {
        Layer::Uarch => match &o.structures {
            None => uarch_targets(),
            Some(v) => v.iter().map(|&h| TrialTarget::Structure(h)).collect(),
        },
        Layer::Sw => sw_targets(),
    }
}

/// Per-wave checkpoint path: `BASE.waveW` keeps every wave's journal
/// alongside the base the user named, so a killed adaptive run resumes
/// from whichever wave it died in.
fn wave_path(base: &Path, wave: u64) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".wave{wave}"));
    PathBuf::from(os)
}

/// Print the per-stratum table and summary of a finished adaptive
/// campaign. The two fingerprints are the byte-comparison artifact for
/// the adaptive differential checks (single-shot vs sharded vs resumed
/// vs dispatched).
fn print_adaptive(
    bench: &dyn Benchmark,
    res: &AdaptiveResult,
    acfg: &AdaptiveCfg,
    csv: Option<&Path>,
) {
    let names = bench.kernels();
    let mut t = Table::new(
        format!(
            "{} — adaptive {} strata (target CI ±{})",
            res.app,
            res.layer.label(),
            acfg.ci_target
        ),
        &[
            "Kernel", "Target", "Trials", "Fail", "Rate", "CI ±", "Derate", "Wave",
        ],
    );
    for s in &res.strata {
        t.row(vec![
            names[s.kernel_idx].to_string(),
            s.target.label().to_string(),
            s.n.to_string(),
            s.stats.failures().to_string(),
            pct(s.stats.failure_rate()),
            format!("{:.4}", s.derated_halfwidth(acfg.conf)),
            format!("{:.3}", s.derate),
            match s.converged_wave {
                Some(w) => w.to_string(),
                None => "cap".into(),
            },
        ]);
    }
    println!("{t}");
    if let Some(path) = csv {
        t.write_csv(path)
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        eprintln!("[campaign] wrote {}", path.display());
    }
    println!(
        "adaptive: {} waves, {} trials (uniform design {} → savings {:.2}x), max CI ±{:.4}",
        res.waves,
        res.total_trials(),
        res.uniform_equivalent(),
        res.savings(),
        res.max_halfwidth(acfg.conf),
    );
    println!("plans fingerprint: {:#018x}", res.plans_fp);
    println!("result fingerprint: {:#018x}", res.records_fp);
}

fn cmd_run(mut args: Args) {
    let adaptive = args.adaptive();
    let eng = EngineCfg {
        shards: args.num("--shards").unwrap_or(1),
        shard_index: args.num("--shard-index").unwrap_or(0),
        checkpoint: args.value("--checkpoint").map(PathBuf::from),
        checkpoint_every: args
            .num("--checkpoint-every")
            .unwrap_or(relia::DEFAULT_CHECKPOINT_EVERY),
        resume: args.value("--resume").map(PathBuf::from),
        trial_limit: args.num("--limit"),
        fast_forward: !args.flag("--no-fast-forward"),
        snapshots: args.num("--snapshots").unwrap_or(relia::DEFAULT_SNAPSHOTS),
        backend: args.backend(),
    };
    let o = CommonOpts::parse(&mut args);
    init_observability(args);
    let (shards, shard_index) = (eng.shards, eng.shard_index);
    if shards == 0 {
        die("--shards must be at least 1");
    }
    if shard_index >= shards {
        die(&format!(
            "--shard-index {shard_index} out of range for --shards {shards} (valid: 0..={})",
            shards - 1
        ));
    }
    let Some(app) = &o.app else {
        die("run requires --app NAME");
    };
    if eng.backend == EngineBackend::Replay && !eng.fast_forward {
        die(
            "--backend replay requires fast-forward: replay adjudicates against the \
             golden trace and re-executes fallback trials from its snapshots \
             (drop --no-fast-forward)",
        );
    }
    let bench = find_app(app);
    if let Some(acfg) = adaptive {
        if shards != 1 || shard_index != 0 {
            die(
                "--adaptive runs single-process per wave; distribute an adaptive campaign \
                 with serve --adaptive + work --follow instead of --shards",
            );
        }
        run_adaptive_cli(bench.as_ref(), &o, &acfg, &eng);
        return;
    }
    let prep = prepare(bench.as_ref(), &o);
    eprintln!(
        "[campaign] {} {} plan: {} trials, fingerprint {:#018x}, shard {}/{} ({} trials)",
        prep.plan.app,
        prep.plan.layer.label(),
        prep.plan.len(),
        prep.plan.fingerprint(),
        shard_index,
        shards,
        relia::shard_trials(prep.plan.len(), shards, shard_index).len(),
    );
    let records = match execute_shard(&prep, &eng) {
        Ok(r) => r,
        Err(e @ EngineError::AlreadyComplete { .. }) => {
            fail(&format!("{e}; nothing to resume"));
        }
        Err(e) => fail(&e.to_string()),
    };
    let my = relia::shard_trials(prep.plan.len(), shards, shard_index);
    if records.len() == prep.plan.len() {
        print_result(&prep, &records, o.csv.as_deref());
    } else {
        println!(
            "shard {}/{}: {}/{} trials classified, fingerprint {:#018x}{}",
            shard_index,
            shards,
            records.len(),
            my.len(),
            records_fingerprint(&records),
            if records.len() < my.len() {
                " (partial — resume to finish)"
            } else {
                " (merge with the other shards for results)"
            }
        );
    }
}

/// `campaign run --adaptive`: CI-driven sizing, one in-process engine run
/// per wave. With `--checkpoint BASE` each wave journals to
/// `BASE.waveW`; `--resume BASE` fast-forwards completed waves from
/// their journals and finishes a partial one. `--limit L` bounds the
/// *new* trials this invocation executes (the kill-mid-wave test hook):
/// when the budget runs out mid-wave the run exits 0 with a resumable
/// checkpoint, exactly like a fixed-n sharded run.
/// Each wave runs `eng` with its own journal paths and remaining budget.
fn run_adaptive_cli(bench: &dyn Benchmark, o: &CommonOpts, acfg: &AdaptiveCfg, eng: &EngineCfg) {
    let targets = adaptive_targets(o);
    eprintln!(
        "[campaign] {} {} adaptive: {} kernels x {} targets, CI target ±{}, wave size {}, \
         cap {}/stratum",
        bench.name(),
        o.layer.label(),
        bench.kernels().len(),
        targets.len(),
        acfg.ci_target,
        acfg.wave_size,
        acfg.max_per_stratum,
    );
    let mut executed_new = 0usize;
    let res = run_adaptive(
        bench,
        &o.cfg,
        o.hardened,
        o.layer,
        &targets,
        acfg,
        |prep, wave| {
            let ck = eng.checkpoint.as_ref().map(|b| wave_path(b, wave));
            let rs = eng
                .resume
                .as_ref()
                .map(|b| wave_path(b, wave))
                .filter(|p| p.exists());
            // The resume journal's record count tells us how many of this
            // wave's trials are already classified — only the rest count
            // against `--limit`.
            let preexisting = match &rs {
                Some(p) => load_checkpoint(p)
                    .unwrap_or_else(|e| fail(&format!("{}: {e}", p.display())))
                    .records
                    .len(),
                None => 0,
            };
            let wave_eng = EngineCfg {
                checkpoint: ck,
                resume: rs,
                trial_limit: eng.trial_limit.map(|l| l.saturating_sub(executed_new)),
                ..eng.clone()
            };
            let records = match execute_shard(prep, &wave_eng) {
                Ok(r) => r,
                Err(EngineError::AlreadyComplete { .. }) => {
                    let p = wave_eng
                        .resume
                        .as_ref()
                        .expect("AlreadyComplete implies a resume journal");
                    load_checkpoint(p)
                        .unwrap_or_else(|e| fail(&format!("{}: {e}", p.display())))
                        .records
                }
                Err(e) => fail(&e.to_string()),
            };
            if records.len() < prep.plan.len() {
                println!(
                    "adaptive wave {wave}: {}/{} trials classified \
                     (partial — resume to finish)",
                    records.len(),
                    prep.plan.len()
                );
                finish_observability();
                exit(0);
            }
            executed_new += records.len() - preexisting;
            Ok(records)
        },
    )
    .unwrap_or_else(|e| fail(&e.to_string()));
    print_adaptive(bench, &res, acfg, o.csv.as_deref());
}

fn cmd_merge(mut args: Args) {
    let o = CommonOpts::parse(&mut args);
    let files = args.positionals();
    init_observability(args);
    if files.is_empty() {
        die("merge requires at least one shard checkpoint file");
    }
    let Some(app) = &o.app else {
        die("merge requires --app NAME (to rebuild the plan)");
    };
    let bench = find_app(app);
    let prep = prepare(bench.as_ref(), &o);
    let expect = CheckpointHeader::for_plan(&prep.plan, 1, 0);
    let mut records = Vec::new();
    let mut first: Option<CheckpointHeader> = None;
    for path in &files {
        let ck = load_checkpoint(std::path::Path::new(path))
            .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        if ck.header.fingerprint != expect.fingerprint {
            fail(&format!(
                "{path}: fingerprint {:#x} does not match this plan ({:#x}) — \
                 different app/layer/n/seed/sms/hardened?",
                ck.header.fingerprint, expect.fingerprint
            ));
        }
        match &first {
            None => first = Some(ck.header.clone()),
            Some(h) if !h.same_plan(&ck.header) => {
                fail(&format!("{path}: shard header disagrees with {}", files[0]));
            }
            _ => {}
        }
        records.extend(ck.records);
    }
    // Two files for the same shard (a reassigned lease journaled twice, a
    // resumed run merged alongside its original) are fine: deterministic
    // trials make duplicates byte-agreeing, so dedupe keeps the first of
    // each and rejects only records that *disagree* on an outcome.
    let records = relia::dedupe_records(&records).unwrap_or_else(|e| fail(&e.to_string()));
    // complete_outcomes inside assemble rejects remaining gaps, so a
    // missing shard still fails loudly here.
    print_result(&prep, &records, o.csv.as_deref());
}

/// Tiny end-to-end gate for scripts/check.sh: a 2-shard run through real
/// checkpoint files must merge to the single-shot result.
fn cmd_smoke(args: Args) {
    init_observability(args);
    let dir = std::env::temp_dir().join(format!("relia_campaign_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = CampaignCfg::new(6, 6, 0x5A5A);
    let bench = find_app("VA");
    for (layer, label) in [(Layer::Uarch, "uarch"), (Layer::Sw, "sw")] {
        let o = CommonOpts {
            app: Some("VA".into()),
            layer,
            cfg: cfg.clone(),
            hardened: false,
            structures: None,
            csv: None,
        };
        let prep = prepare(bench.as_ref(), &o);
        let single = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
        let mut merged = Vec::new();
        for idx in 0..2 {
            let path = dir.join(format!("{label}-{idx}.jsonl"));
            let eng = EngineCfg {
                checkpoint: Some(path.clone()),
                ..EngineCfg::sharded(2, idx)
            };
            execute_shard(&prep, &eng).unwrap();
            merged.extend(load_checkpoint(&path).unwrap().records);
        }
        let fp_single = records_fingerprint(&single);
        let fp_merged = records_fingerprint(&merged);
        if fp_single != fp_merged {
            fail(&format!(
                "smoke failed ({label}): merged fingerprint {fp_merged:#x} != single-shot {fp_single:#x}"
            ));
        }
        match layer {
            Layer::Uarch => {
                if assemble_uarch(&prep, &merged).unwrap()
                    != assemble_uarch(&prep, &single).unwrap()
                {
                    fail(&format!("smoke failed ({label}): assembled results differ"));
                }
                // Fast-forward equivalence: the snapshot path (default in
                // `single` above) must classify byte-identically to a full
                // slow-path run (docs/PERF.md).
                let slow_eng = EngineCfg {
                    fast_forward: false,
                    ..EngineCfg::single_shot()
                };
                let slow = execute_shard(&prep, &slow_eng).unwrap();
                let fp_slow = records_fingerprint(&slow);
                if fp_single != fp_slow {
                    fail(&format!(
                        "smoke failed ({label}): fast-forward fingerprint {fp_single:#x} \
                         != slow-path {fp_slow:#x}"
                    ));
                }
                if assemble_uarch(&prep, &slow).unwrap() != assemble_uarch(&prep, &single).unwrap()
                {
                    fail(&format!(
                        "smoke failed ({label}): fast-forward assembled result differs from \
                         slow path"
                    ));
                }
                println!("smoke {label}: fast-forward == slow path ({fp_slow:#018x})");
                // Replay equivalence: trace-adjudicated execution must
                // classify byte-identically to the timed backend
                // (docs/TRACE.md).
                let replay_eng = EngineCfg {
                    backend: EngineBackend::Replay,
                    ..EngineCfg::single_shot()
                };
                let replay = execute_shard(&prep, &replay_eng).unwrap();
                let fp_replay = records_fingerprint(&replay);
                if fp_single != fp_replay {
                    fail(&format!(
                        "smoke failed ({label}): replay fingerprint {fp_replay:#x} \
                         != timed {fp_single:#x}"
                    ));
                }
                if assemble_uarch(&prep, &replay).unwrap()
                    != assemble_uarch(&prep, &single).unwrap()
                {
                    fail(&format!(
                        "smoke failed ({label}): replay assembled result differs from timed"
                    ));
                }
                println!("smoke {label}: replay backend == timed ({fp_replay:#018x})");
            }
            Layer::Sw => {
                if assemble_sw(&prep, &merged).unwrap() != assemble_sw(&prep, &single).unwrap() {
                    fail(&format!("smoke failed ({label}): assembled results differ"));
                }
            }
        }
        println!("smoke {label}: 2-shard merge == single-shot ({fp_single:#018x})");
    }
    // Adaptive gate: a CI-driven campaign executed single-shot must match
    // the same campaign with every wave split over 3 in-process shards —
    // wave plans, records, and convergence trajectory, byte for byte.
    let acfg = AdaptiveCfg::new(0.15, 6, 24);
    let bench = find_app("VA");
    let single = stat::run_adaptive_single(
        bench.as_ref(),
        &cfg,
        false,
        Layer::Uarch,
        &uarch_targets(),
        &acfg,
    )
    .unwrap_or_else(|e| fail(&format!("smoke failed (adaptive): {e}")));
    let sharded = run_adaptive(
        bench.as_ref(),
        &cfg,
        false,
        Layer::Uarch,
        &uarch_targets(),
        &acfg,
        |prep, _| {
            let mut recs = Vec::new();
            for i in 0..3 {
                recs.extend(execute_shard(prep, &EngineCfg::sharded(3, i))?);
            }
            Ok(recs)
        },
    )
    .unwrap_or_else(|e| fail(&format!("smoke failed (adaptive): {e}")));
    if single != sharded {
        fail("smoke failed (adaptive): 3-shard wave execution differs from single-shot");
    }
    if !(single.waves >= 1 && single.total_trials() > 0) {
        fail("smoke failed (adaptive): campaign executed no waves");
    }
    println!(
        "smoke adaptive: 3-shard waves == single-shot ({} waves, {} trials, \
         records {:#018x})",
        single.waves,
        single.total_trials(),
        single.records_fp
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Validate a `HOST:PORT` address from the CLI. Hostnames are allowed
/// (resolution happens at connect/bind time); a missing or non-numeric
/// port is a validation error (exit 2) per the uniform exit-code policy.
fn check_addr(flag: &str, addr: &str) -> String {
    if addr.parse::<std::net::SocketAddr>().is_ok() {
        return addr.to_string();
    }
    match addr.rsplit_once(':') {
        Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => addr.to_string(),
        _ => die(&format!("{flag} must be HOST:PORT, got {addr:?}")),
    }
}

/// Build a [`TelemetryCfg`] from `--telemetry-port` (port 0 = ephemeral;
/// pair it with `--telemetry-port-file` so pollers can find the port).
fn telemetry_cfg(args: &mut Args, sub: &str) -> Option<TelemetryCfg> {
    let port_file = args.value("--telemetry-port-file").map(PathBuf::from);
    match args.num::<u64>("--telemetry-port") {
        None if port_file.is_some() => die(&format!(
            "{sub}: --telemetry-port-file requires --telemetry-port"
        )),
        None => None,
        Some(p) => {
            if p > u16::MAX as u64 {
                die(&format!("--telemetry-port must be 0..=65535, got {p}"));
            }
            Some(TelemetryCfg {
                listen: format!("127.0.0.1:{p}"),
                port_file,
            })
        }
    }
}

/// A duration option in milliseconds that must be positive.
fn positive_ms(args: &mut Args, name: &str) -> Option<u64> {
    let ms = args.num(name)?;
    if ms == 0 {
        die(&format!("{name} must be positive"));
    }
    Some(ms)
}

/// The one `ADDR` argument (HOST:PORT of a telemetry endpoint) of the
/// `status`/`top`/`scrape` pollers.
fn telemetry_addr(args: &mut Args, sub: &str) -> String {
    match args.positionals().as_slice() {
        [addr] => check_addr(&format!("{sub} ADDR"), addr),
        [] => die(&format!(
            "{sub} requires ADDR (HOST:PORT of a telemetry endpoint)"
        )),
        [_, extra, ..] => die(&format!("unexpected argument {extra:?}")),
    }
}

/// `campaign serve`: run the dispatch coordinator (docs/DISPATCH.md).
fn cmd_serve(mut args: Args) {
    let adaptive = args.adaptive();
    let backend = args.backend();
    let listen = args
        .value("--listen")
        .map_or_else(|| "127.0.0.1:0".to_string(), |v| check_addr("--listen", &v));
    let port_file = args.value("--port-file").map(PathBuf::from);
    let backoff_ms = positive_ms(&mut args, "--backoff-ms").unwrap_or(250);
    let max_backoff_ms = args.num("--max-backoff-ms").unwrap_or(5_000);
    let dcfg = DispatchCfg {
        shards: args.num("--shards").unwrap_or(2),
        lease: Duration::from_millis(positive_ms(&mut args, "--lease-ms").unwrap_or(10_000)),
        backoff: Duration::from_millis(backoff_ms),
        max_backoff: Duration::from_millis(max_backoff_ms),
        wait_ms: positive_ms(&mut args, "--wait-ms").unwrap_or(200),
        out_dir: args.value("--out-dir").map(PathBuf::from),
        telemetry: telemetry_cfg(&mut args, "serve"),
    };
    let shards = dcfg.shards;
    let o = CommonOpts::parse(&mut args);
    init_observability(args);
    let Some(app) = &o.app else {
        die("serve requires --app NAME");
    };
    if o.cfg.watchdog != Watchdog::default() {
        die(
            "serve does not support watchdog limits: wall-clock reclassification depends on \
             machine speed and would break the byte-identical dispatch merge",
        );
    }
    if shards == 0 {
        die("--shards must be at least 1");
    }
    if max_backoff_ms < backoff_ms {
        die(&format!(
            "--max-backoff-ms {max_backoff_ms} is below --backoff-ms {backoff_ms}"
        ));
    }
    if adaptive.is_some() && dcfg.telemetry.is_some() {
        die(
            "serve --adaptive cannot mount a fixed telemetry port: each wave runs its own \
             coordinator and the port would be re-bound mid-campaign",
        );
    }
    let bench = find_app(app);
    let spec = CampaignSpec {
        app: bench.name().to_string(),
        layer: o.layer,
        n: match o.layer {
            Layer::Uarch => o.cfg.n_uarch,
            Layer::Sw => o.cfg.n_sw,
        },
        seed: o.cfg.seed,
        sms: o.cfg.gpu.num_sms,
        hardened: o.hardened,
        structures: o.structures.clone(),
        fault_model: o.cfg.pattern,
        backend,
        wave: None,
    };
    let listener = std::net::TcpListener::bind(&listen)
        .unwrap_or_else(|e| fail(&format!("cannot listen on {listen}: {e}")));
    let local = listener
        .local_addr()
        .unwrap_or_else(|e| fail(&e.to_string()));
    if let Some(pf) = &port_file {
        // Write-then-rename so pollers never read a half-written port.
        let tmp = pf.with_extension("tmp");
        std::fs::write(&tmp, format!("{}\n", local.port()))
            .and_then(|()| std::fs::rename(&tmp, pf))
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", pf.display())));
    }

    if let Some(acfg) = adaptive {
        // One coordinator per wave on the same bound socket: workers run
        // `work --follow` and reconnect between waves. The wave (index +
        // strata) rides in the job frame, so each worker re-expands the
        // wave plan locally and the handshake proves it.
        let targets = adaptive_targets(&o);
        eprintln!(
            "[dispatch] {} {} adaptive: CI target ±{}, wave size {}, cap {}/stratum, \
             {} shards, listening on {local}",
            bench.name(),
            o.layer.label(),
            acfg.ci_target,
            acfg.wave_size,
            acfg.max_per_stratum,
            shards,
        );
        let mut totals = dispatch::DispatchStats::default();
        let res = run_adaptive(
            bench.as_ref(),
            &o.cfg,
            o.hardened,
            o.layer,
            &targets,
            &acfg,
            |prep, wave| {
                let wspec = CampaignSpec {
                    wave: Some(WaveSpec {
                        wave,
                        strata: plan_strata(&prep.plan),
                    }),
                    ..spec.clone()
                };
                let wcfg = DispatchCfg {
                    // Separate journals per wave: the shard file names
                    // repeat across waves.
                    out_dir: dcfg.out_dir.as_ref().map(|d| {
                        let dir = d.join(format!("wave{wave}"));
                        std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
                            fail(&format!("cannot create {}: {e}", dir.display()))
                        });
                        dir
                    }),
                    telemetry: None,
                    ..dcfg.clone()
                };
                let l = listener
                    .try_clone()
                    .unwrap_or_else(|e| fail(&format!("cannot clone listener: {e}")));
                eprintln!(
                    "[dispatch] wave {wave}: {} trials, fingerprint {:#018x}",
                    prep.plan.len(),
                    prep.plan.fingerprint(),
                );
                let outcome = dispatch::serve(l, &prep.plan, &wspec, &wcfg)
                    .unwrap_or_else(|e| fail(&e.to_string()));
                let s = &outcome.stats;
                totals.workers_joined += s.workers_joined;
                totals.leases_granted += s.leases_granted;
                totals.leases_reassigned += s.leases_reassigned;
                totals.leases_expired += s.leases_expired;
                totals.shards_completed += s.shards_completed;
                totals.duplicate_records += s.duplicate_records;
                totals.torn_frames += s.torn_frames;
                totals.resend_requests += s.resend_requests;
                Ok(outcome.records)
            },
        )
        .unwrap_or_else(|e| fail(&e.to_string()));
        eprintln!(
            "[dispatch] adaptive complete: {} waves, {} worker sessions, {} leases \
             ({} reassigned, {} expired), {} shards, {} duplicate records, {} torn frames, \
             {} resends",
            res.waves,
            totals.workers_joined,
            totals.leases_granted,
            totals.leases_reassigned,
            totals.leases_expired,
            totals.shards_completed,
            totals.duplicate_records,
            totals.torn_frames,
            totals.resend_requests,
        );
        print_adaptive(bench.as_ref(), &res, &acfg, o.csv.as_deref());
        return;
    }

    let prep = prepare(bench.as_ref(), &o);
    eprintln!(
        "[dispatch] {} {} plan: {} trials, fingerprint {:#018x}, {} shards, listening on {local}",
        prep.plan.app,
        prep.plan.layer.label(),
        prep.plan.len(),
        prep.plan.fingerprint(),
        shards,
    );
    let outcome = dispatch::serve(listener, &prep.plan, &spec, &dcfg)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let s = &outcome.stats;
    eprintln!(
        "[dispatch] complete: {} workers, {} leases ({} reassigned, {} expired), \
         {} shards, {} duplicate records, {} torn frames, {} resends",
        s.workers_joined,
        s.leases_granted,
        s.leases_reassigned,
        s.leases_expired,
        s.shards_completed,
        s.duplicate_records,
        s.torn_frames,
        s.resend_requests,
    );
    print_result(&prep, &outcome.records, o.csv.as_deref());
}

/// `campaign work`: run one worker daemon against a coordinator.
fn cmd_work(mut args: Args) {
    let connect = args.value("--connect").map(|v| check_addr("--connect", &v));
    let default = WorkerCfg::default();
    let cfg = WorkerCfg {
        name: args
            .value("--name")
            .unwrap_or_else(|| format!("worker-{}", std::process::id())),
        heartbeat: positive_ms(&mut args, "--heartbeat-ms")
            .map_or(default.heartbeat, Duration::from_millis),
        read_timeout: positive_ms(&mut args, "--read-timeout-ms")
            .map_or(default.read_timeout, Duration::from_millis),
        // Fault-tolerance test hook: die abruptly after N trials.
        fail_after: args.num("--fail-after"),
        telemetry: telemetry_cfg(&mut args, "work"),
        trace: args.flag("--trace"),
    };
    let follow = args.flag("--follow");
    init_observability(args);
    if follow && cfg.telemetry.is_some() {
        die("work --follow cannot mount a fixed telemetry port: each session re-binds it");
    }
    let Some(addr) = connect else {
        die("work requires --connect HOST:PORT");
    };
    if follow {
        // Serve an adaptive campaign: one worker session per wave. The
        // coordinator keeps the listening socket across waves, so between
        // waves a reconnect just parks in the accept backlog; once the
        // coordinator is gone the connection fails and the worker exits.
        // A session error before any completed session is a real failure.
        let mut sessions = 0usize;
        let mut shards = 0usize;
        let mut trials = 0usize;
        loop {
            match dispatch::work(&addr, &cfg) {
                Ok(s) if s.died_early => {
                    println!(
                        "worker {}: injected failure after {} trials (lease abandoned)",
                        s.worker, s.trials_executed
                    );
                    return;
                }
                Ok(s) => {
                    sessions += 1;
                    shards += s.shards_completed;
                    trials += s.trials_executed;
                }
                Err(e) if sessions == 0 => fail(&e.to_string()),
                Err(_) => break,
            }
        }
        println!(
            "worker {}: {} sessions, {} shards completed, {} trials executed",
            cfg.name, sessions, shards, trials
        );
        return;
    }
    match dispatch::work(&addr, &cfg) {
        Ok(s) if s.died_early => {
            // The injected --fail-after death is the requested behaviour.
            println!(
                "worker {}: injected failure after {} trials (lease abandoned)",
                s.worker, s.trials_executed
            );
        }
        Ok(s) => println!(
            "worker {}: {} shards completed, {} trials executed",
            s.worker, s.shards_completed, s.trials_executed
        ),
        Err(e) => fail(&e.to_string()),
    }
}

/// Fetch and parse a telemetry `/status` document.
fn fetch_status(addr: &str) -> obs::JsonNode {
    match obs::http_get(addr, "/status", std::time::Duration::from_secs(2)) {
        Ok((200, body)) => obs::parse_json(&body)
            .unwrap_or_else(|| fail(&format!("{addr}/status returned unparseable JSON"))),
        Ok((code, _)) => fail(&format!("{addr}/status returned HTTP {code}")),
        Err(e) => fail(&format!("cannot reach {addr}: {e}")),
    }
}

/// Render one `/status` document as human-readable lines — the shared
/// body of `campaign status` (one shot) and `campaign top` (live).
fn fleet_lines(doc: &obs::JsonNode) -> Vec<String> {
    let s = |k: &str| doc.get(k).and_then(|n| n.as_str().map(String::from));
    let n = |k: &str| doc.get(k).and_then(obs::JsonNode::as_u64).unwrap_or(0);
    let mut out = Vec::new();
    match s("role").as_deref() {
        Some("coordinator") => {
            out.push(format!(
                "coordinator  {} {}  fp {}  shards {}  {}",
                s("app").unwrap_or_default(),
                s("layer").unwrap_or_default(),
                s("campaign_fp").unwrap_or_default(),
                n("shards"),
                if doc.get("done").and_then(obs::JsonNode::as_bool) == Some(true) {
                    "DONE"
                } else {
                    "running"
                },
            ));
            let held = n("records_held");
            let trials = n("trials").max(1);
            // `eta_ms` is absent while the coordinator has no observed
            // rate yet; render that honestly instead of `eta 0.0s`.
            let eta = match doc.get("eta_ms").and_then(obs::JsonNode::as_u64) {
                Some(ms) => format!("{:.1}s", ms as f64 / 1e3),
                None => "--".to_string(),
            };
            out.push(format!(
                "records      {held}/{} ({:.1}%)  {:.1} rec/s  eta {eta}  elapsed {:.1}s",
                n("trials"),
                100.0 * held as f64 / trials as f64,
                doc.get("records_per_s")
                    .and_then(obs::JsonNode::as_f64)
                    .unwrap_or(0.0),
                n("elapsed_ms") as f64 / 1e3,
            ));
            if let Some(st) = doc.get("stats") {
                let sn = |k: &str| st.get(k).and_then(obs::JsonNode::as_u64).unwrap_or(0);
                out.push(format!(
                    "stats        {} workers  {} leases ({} reassigned, {} expired)  \
                     {} shards done  {} dup  {} torn  {} resent",
                    sn("workers_joined"),
                    sn("leases_granted"),
                    sn("leases_reassigned"),
                    sn("leases_expired"),
                    sn("shards_completed"),
                    sn("duplicate_records"),
                    sn("torn_frames"),
                    sn("resend_requests"),
                ));
            }
            let mut t = Table::new(
                "shards",
                &[
                    "Shard",
                    "State",
                    "Owner",
                    "Held/Total",
                    "Attempts",
                    "HB age",
                    "Retry in",
                ],
            );
            for sh in doc
                .get("shard_detail")
                .and_then(obs::JsonNode::as_arr)
                .unwrap_or(&[])
            {
                let g = |k: &str| sh.get(k).and_then(obs::JsonNode::as_u64).unwrap_or(0);
                let state = sh
                    .get("state")
                    .and_then(obs::JsonNode::as_str)
                    .unwrap_or("?");
                t.row(vec![
                    g("shard").to_string(),
                    state.to_string(),
                    sh.get("owner")
                        .and_then(obs::JsonNode::as_str)
                        .unwrap_or("-")
                        .to_string(),
                    format!("{}/{}", g("held"), g("total")),
                    g("attempts").to_string(),
                    if state == "leased" {
                        format!("{}ms", g("heartbeat_age_ms"))
                    } else {
                        "-".into()
                    },
                    if state == "pending" {
                        format!("{}ms", g("retry_in_ms"))
                    } else {
                        "-".into()
                    },
                ]);
            }
            out.push(t.to_string());
            let workers: Vec<String> = doc
                .get("workers")
                .and_then(obs::JsonNode::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|w| {
                    let name = w.get("name").and_then(obs::JsonNode::as_str).unwrap_or("?");
                    match w.get("telemetry").and_then(obs::JsonNode::as_str) {
                        Some(addr) if !addr.is_empty() => format!("{name} @{addr}"),
                        _ => name.to_string(),
                    }
                })
                .collect();
            out.push(format!("workers      {}", workers.join(", ")));
        }
        Some("worker") => {
            out.push(format!(
                "worker {}  {}/{} trials  masked {}  sdc {}  timeout {}  due {}",
                s("name").unwrap_or_default(),
                n("trials_done"),
                n("trials_total"),
                n("masked"),
                n("sdc"),
                n("timeout"),
                n("due"),
            ));
            // Cost-weighted progress: trial counts under the replay
            // backend mix near-free synthesized records with full
            // simulations, so prefer the engine's simulated-cycle rate
            // when the document carries it (docs/TRACE.md).
            if let Some(rate) = doc.get("sim_cycles_per_s").and_then(obs::JsonNode::as_f64) {
                out.push(format!(
                    "sim cost     {} cycles done  {:.2} Mcyc/s (cost-weighted)",
                    n("sim_cycles_done"),
                    rate / 1e6,
                ));
            }
            if doc.get("replay_dead").is_some() {
                out.push(format!(
                    "replay       {} dead  {} fell back  {} fallback warps",
                    n("replay_dead"),
                    n("replay_fallback"),
                    n("replay_fallback_warps"),
                ));
            }
            if let (Some(p50), Some(p95)) = (
                doc.get("wall_p50_us").and_then(obs::JsonNode::as_f64),
                doc.get("wall_p95_us").and_then(obs::JsonNode::as_f64),
            ) {
                out.push(format!(
                    "wall time    p50 {:.1}ms  p95 {:.1}ms",
                    p50 / 1e3,
                    p95 / 1e3
                ));
            }
        }
        _ => out.push("(unrecognized /status document)".into()),
    }
    out
}

/// `campaign status ADDR`: one-shot fleet view from a `/status` endpoint.
fn cmd_status(mut args: Args) {
    let addr = telemetry_addr(&mut args, "status");
    init_observability(args);
    for line in fleet_lines(&fetch_status(&addr)) {
        println!("{line}");
    }
}

/// `campaign top ADDR`: poll `/status` and redraw a live fleet view.
fn cmd_top(mut args: Args) {
    let interval = Duration::from_millis(positive_ms(&mut args, "--interval-ms").unwrap_or(1_000));
    let iterations = args.num("--iterations").unwrap_or(0u64); // 0 = until the coordinator reports done
    let addr = telemetry_addr(&mut args, "top");
    init_observability(args);
    use std::io::IsTerminal;
    let clear = std::io::stdout().is_terminal();
    let mut round = 0u64;
    loop {
        let doc = fetch_status(&addr);
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        println!("campaign top — {addr} (poll {})", round + 1);
        for line in fleet_lines(&doc) {
            println!("{line}");
        }
        round += 1;
        let done = doc.get("done").and_then(obs::JsonNode::as_bool) == Some(true);
        if done || (iterations > 0 && round >= iterations) {
            break;
        }
        std::thread::sleep(interval);
    }
}

/// `campaign scrape ADDR`: fetch `/metrics` + `/status`, lint both.
fn cmd_scrape(mut args: Args) {
    let addr = telemetry_addr(&mut args, "scrape");
    init_observability(args);
    let body = match obs::http_get(&addr, "/metrics", std::time::Duration::from_secs(2)) {
        Ok((200, body)) => body,
        Ok((code, _)) => fail(&format!("{addr}/metrics returned HTTP {code}")),
        Err(e) => fail(&format!("cannot reach {addr}: {e}")),
    };
    let series = obs::expo::lint(&body)
        .unwrap_or_else(|e| fail(&format!("{addr}/metrics failed exposition lint: {e}")));
    let _ = fetch_status(&addr); // must parse as JSON
    println!("scrape ok: {series} series, /status parses");
}

/// `campaign lint`: validate Prometheus exposition text from stdin.
fn cmd_lint(args: Args) {
    init_observability(args);
    use std::io::Read;
    let mut body = String::new();
    std::io::stdin()
        .read_to_string(&mut body)
        .unwrap_or_else(|e| fail(&format!("cannot read stdin: {e}")));
    match obs::expo::lint(&body) {
        Ok(series) => println!("lint ok: {series} series"),
        Err(e) => fail(&format!("exposition lint failed: {e}")),
    }
}

/// `campaign timeline FILE...`: print trace events from JSONL event files
/// in wall-clock order (one table across coordinator + worker sinks).
fn cmd_timeline(mut args: Args) {
    let files = args.positionals();
    init_observability(args);
    if files.is_empty() {
        die("timeline requires at least one JSONL events file");
    }
    let mut events = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        events.extend(text.lines().filter_map(obs::TraceEvent::parse));
    }
    if events.is_empty() {
        fail("no trace records found (run workers with --trace and an --events sink)");
    }
    events.sort_by_key(|e| (e.t_us, e.shard, e.trial));
    let mut t = Table::new(
        format!("trace timeline — {} events", events.len()),
        &["t (ms)", "Kind", "Worker", "Shard", "Trial", "Wall (µs)"],
    );
    for e in &events {
        t.row(vec![
            format!("{:.3}", e.t_us as f64 / 1e3),
            e.kind.clone(),
            if e.worker.is_empty() {
                "-".into()
            } else {
                e.worker.clone()
            },
            e.shard.to_string(),
            if e.trial == u64::MAX {
                "-".into()
            } else {
                e.trial.to_string()
            },
            e.wall_us.to_string(),
        ]);
    }
    println!("{t}");
}

fn main() {
    let mut args = Args::from_env();
    let Some(sub) = args.subcommand() else {
        die(
            "usage: campaign <run|merge|serve|work|status|top|scrape|lint|timeline|smoke> \
             [options] (see docs/CAMPAIGNS.md, docs/DISPATCH.md, docs/OBSERVABILITY.md)",
        );
    };
    match sub.as_str() {
        "run" => cmd_run(args),
        "merge" => cmd_merge(args),
        "serve" => cmd_serve(args),
        "work" => cmd_work(args),
        "status" => cmd_status(args),
        "top" => cmd_top(args),
        "scrape" => cmd_scrape(args),
        "lint" => cmd_lint(args),
        "timeline" => cmd_timeline(args),
        "smoke" => cmd_smoke(args),
        other => die(&format!(
            "unknown subcommand {other:?} (run|merge|serve|work|status|top|scrape|lint|timeline|smoke)"
        )),
    }
    finish_observability();
}
