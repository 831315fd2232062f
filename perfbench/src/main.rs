//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload avf_suite --seed 7 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (see `README.md` beside this crate) repeatedly for
//! `--seconds`, from inputs derived from `--seed` alone, checks every
//! campaign's output, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (medians over the repetitions); with
//! `--trace 1` untraced and traced repetitions alternate, and the metrics
//! are the per-layer ones from spans and layer probes. The line before
//! it records provenance. `--print-pins` regenerates `pins.txt`.

mod check;
mod golden;
mod probes;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use relia::{execute_trials_with, records_fingerprint};
use vgpu_sim::GpuConfig;

use check::{check_run, stat_columns, Pins, PINS_TEXT};
use probes::{layer_metrics, Metric, Metrics, Traced};
use spans::{self_time_by_name, Spans};
use stats::median;
use workload::{run_iteration, Iteration, Workload, DEFAULT_SEED, FLEET_WORKERS};

/// Repetitions a `--trace 0` run makes even when `--seconds` is short.
const MIN_ITERS: usize = 3;
/// Where runs keep journals, probe files and span dumps.
const SCRATCH: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       \
         perfbench --print-pins",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 20, false);
    let mut i = 0;
    while i < args.len() {
        let val = args
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{} needs a value", args[i])));
        let num = || {
            val.parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{} takes a number, got {val:?}", args[i])))
        };
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(val)
                        .unwrap_or_else(|| usage(&format!("unknown workload {val:?}"))),
                )
            }
            "--seed" => seed = num(),
            "--seconds" => seconds = num(),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current resident set, so the next reading is the
/// peak of the next iteration alone. Where the kernel refuses, readings
/// stay cumulative.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The checked-out commit, read from `.git` without leaving the
/// checkout; `unknown` when it is not a git work tree.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest over the workspace sources the benchmark builds from
/// (identifies the code when no commit is available).
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn provenance(a: &Args, iters: usize, trials: usize) -> String {
    let w = a.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if w == Workload::AvfFleet {
        FLEET_WORKERS
    } else {
        0
    };
    format!(
        "{{\"provenance\":{{\"commit\":{},\"source_digest\":{},\"nproc\":{nproc},\
         \"rustc\":{},\"workload\":{},\"why\":{},\"seed\":{},\"n\":{},\
         \"trials_per_iteration\":{trials},\"iterations\":{iters},\"trial_threads\":{},\
         \"worker_connections\":{workers},\"trace\":{}}}}}",
        json_str(&commit()),
        json_str(&source_digest()),
        json_str(&rustc_version()),
        json_str(w.name()),
        json_str(w.why()),
        a.seed,
        w.n(),
        rayon::current_num_threads() * workers.max(1),
        a.trace,
    )
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Sum over the parts of an iteration (campaigns, ACE estimates) of
/// each part's median across iterations: a noise spike during one part
/// of one repetition does not move the result.
fn sum_of_medians(iters: &[Iteration], parts: impl Fn(&Iteration) -> Vec<f64>) -> f64 {
    let cols: Vec<Vec<f64>> = iters.iter().map(parts).collect();
    (0..cols[0].len())
        .map(|i| median(&cols.iter().map(|c| c[i]).collect::<Vec<_>>()))
        .sum()
}

fn end_to_end(iters: &[Iteration], peak_mb: f64) -> Vec<Metric> {
    let setup_s = sum_of_medians(iters, |it| it.campaigns.iter().map(|c| c.setup_s).collect());
    let trial_s = sum_of_medians(iters, |it| {
        it.campaigns.iter().map(|c| c.wall_s - c.setup_s).collect()
    });
    // The ACE estimates (`avf_suite`) and the little between campaigns.
    let rest_s = sum_of_medians(iters, |it| {
        vec![it.wall_s - it.campaigns.iter().map(|c| c.wall_s).sum::<f64>()]
    });
    let trials = iters[0].trials() as f64;
    let mut m = Metrics::default();
    m.put("wall_s", setup_s + trial_s + rest_s, "s");
    m.put("setup_s", setup_s, "s");
    m.put("trials_per_s", trials / trial_s, "1/s");
    m.put("peak_rss_mb", peak_mb, "MB");
    m.0
}

fn run(a: &Args) {
    let w = a.workload;
    let benches = w.benches();
    let scratch = PathBuf::from(SCRATCH);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {SCRATCH}: {e}");
        std::process::exit(1);
    }
    let pins = Pins::parse(PINS_TEXT).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let budget = Duration::from_secs(a.seconds);
    let t0 = Instant::now();
    let off = Spans::new(false);
    let mut iters: Vec<Iteration> = Vec::new();
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last_traced: Option<(Iteration, Spans, obs::Snapshot)> = None;
    let mut peaks_mb = Vec::new();
    reset_peak_rss();
    // Untraced runs repeat the workload; traced runs repeat blocks of
    // untraced, traced, traced, untraced so drift cancels out of the
    // tracing overhead. A run stops once another block would overrun
    // `--seconds` (after MIN_ITERS repetitions, or one traced block).
    let block: &[bool] = if a.trace {
        &[false, true, true, false]
    } else {
        &[false]
    };
    loop {
        for &traced in block {
            let it = if traced {
                // Spans on, obs registry on; only counters that already
                // exist are read back.
                let spans = Spans::new(true);
                obs::global().clear();
                obs::set_enabled(true);
                let it = run_iteration(w, a.seed, &benches, &spans, &scratch);
                obs::set_enabled(false);
                traced_walls.push(it.wall_s);
                last_traced = Some((it.clone(), spans, obs::global().snapshot()));
                it
            } else {
                let it = run_iteration(w, a.seed, &benches, &off, &scratch);
                untraced_walls.push(it.wall_s);
                it
            };
            eprintln!(
                "perfbench: {} iteration {}{}: wall {:.3}s setup {:.3}s ace {:.3}s",
                w.name(),
                iters.len() + 1,
                if traced { " (traced)" } else { "" },
                it.wall_s,
                it.setup_s(),
                it.ace_s()
            );
            iters.push(it);
            peaks_mb.push(peak_rss_mb());
            reset_peak_rss();
        }
        let per_block = t0.elapsed() / (iters.len() / block.len()) as u32;
        let enough = a.trace || iters.len() >= MIN_ITERS;
        if enough && t0.elapsed() + per_block > budget {
            break;
        }
    }

    let check_spans = Spans::new(a.trace);
    let report = check_run(w, a.seed, &benches, &iters, &pins, &check_spans);
    for (app, why) in &report.failed {
        eprintln!(
            "perfbench: output check failed for {app}: {}",
            why.join("; ")
        );
    }
    let attempted: usize = iters.iter().map(Iteration::trials).sum();
    let failed = report.failed_trials(&iters);

    let metrics = match &last_traced {
        // Memory noise only adds (allocator retention from an earlier
        // iteration, chance overlap of the fleet's two workers), so the
        // least per-iteration peak is what one run of the workload needs.
        None => end_to_end(
            &iters,
            peaks_mb.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        Some((it, spans, snap)) => {
            let finished = spans.finished();
            let path = scratch.join(format!("spans-{}-seed{}.jsonl", w.name(), a.seed));
            match spans.write_jsonl(&path) {
                Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
            for (name, s) in self_time_by_name(&finished) {
                eprintln!("perfbench: self time {name:<10} {s:.4}s");
            }
            layer_metrics(&Traced {
                w,
                seed: a.seed,
                benches: &benches,
                iteration: it,
                spans: &finished,
                check_spans: &check_spans.finished(),
                untraced_wall_s: median(&untraced_walls),
                traced_wall_s: median(&traced_walls),
                obs: snap,
                scratch: &scratch,
            })
        }
    };
    println!("{}", provenance(a, iters.len(), iters[0].trials()));
    println!(
        "{}",
        result_line(report.failed.is_empty(), attempted, failed, &metrics)
    );
}

/// Print `pins.txt`: golden statistics of every app under both engines,
/// and every workload's records fingerprints at the default seed (from
/// in-process execution, which the fleet check holds `serve` to).
fn print_pins() {
    let gpu = GpuConfig::default();
    println!("# perfbench reference pins; regenerate with --print-pins.");
    println!("# golden <variant> <app> {}", check::STAT_COLUMNS.join(" "));
    for b in kernels::all_benchmarks() {
        for (label, variant) in [
            ("timed", kernels::Variant::TIMED),
            ("functional", kernels::Variant::FUNCTIONAL),
        ] {
            let g = kernels::golden_run(b.as_ref(), &gpu, variant);
            let cols: Vec<String> = stat_columns(&g.app_stats())
                .iter()
                .map(u64::to_string)
                .collect();
            println!("golden {label} {} {}", b.name(), cols.join(" "));
        }
    }
    println!("# records <workload> <seed> <n> <app> <records_fingerprint>");
    for w in Workload::ALL {
        for b in &w.benches() {
            let prep = workload::prepare(w, b.as_ref(), DEFAULT_SEED);
            let all: Vec<usize> = (0..prep.plan.len()).collect();
            let recs = execute_trials_with(&prep, w.fast_forward(), &all, |_| Ok(()))
                .expect("in-process execution has no sink errors");
            println!(
                "records {} {DEFAULT_SEED} {} {} {:#018x}",
                w.name(),
                w.n(),
                b.name(),
                records_fingerprint(&recs)
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--print-pins") {
        print_pins();
        return;
    }
    let a = parse_args(&args);
    if a.workload == Workload::AvfFleet && std::env::var_os("RAYON_NUM_THREADS").is_none() {
        // The rayon shim fixes its pool size on first use; the fleet's
        // two workers share the cores, so each gets half (at least one).
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var(
            "RAYON_NUM_THREADS",
            (nproc / FLEET_WORKERS).max(1).to_string(),
        );
    }
    run(&a);
}
