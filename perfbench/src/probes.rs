//! Per-layer metrics of the traced run.
//!
//! Some come from the spans the traced iteration recorded around the
//! benchmark's calls into the crates (prepare, execute and its sink,
//! assemble, serve/work). The rest come from probes that call the inner
//! public functions of each layer on the workload's own plans, after the
//! timed iterations: golden passes, adjudication, fast-forward and
//! functional trials, the cache model, checkpoint appends, dispatch and
//! the ACE estimator. Probe time is not part of any end-to-end metric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dispatch::DispatchStats;
use kernels::{faulty_run, faulty_run_ff, Benchmark, PlannedFault, Variant};
use relia::plan::{prepare_sw_campaign, prepare_uarch_campaign_structures, CampaignPlan, Layer};
use relia::{
    CampaignCfg, CheckpointHeader, CheckpointWriter, PreparedCampaign, TrialRecord,
    DEFAULT_CHECKPOINT_EVERY,
};
use trace::{FallbackReason, Verdict};
use vgpu_sim::cache::{load_via, store_via, Cache};
use vgpu_sim::{GlobalMem, GpuConfig, HwStructure};

use crate::check::sample_indices;
use crate::golden::golden_passes;
use crate::spans::{Span, Spans};
use crate::stats::{median, Dist};
use crate::workload::{dispatch_campaign, prepare, spec_for, Iteration, Workload};

/// Trials per (kernel, target) of the probe plan built for the layer a
/// workload does not itself plan (uarch for `svf_suite`, sw otherwise).
pub const PROBE_N: usize = 8;
/// Live (non-dead) uarch trials re-run per app by the timed-engine probe.
pub const LIVE_SAMPLE: usize = 40;
/// Software trials re-run per app by the functional-engine probe.
pub const SW_SAMPLE: usize = 40;
/// Checkpoint records between timed `flush_and_sync` calls.
const SYNC_EVERY: usize = 1000;
/// Operations per cache-model access pattern.
const CACHE_OPS: u64 = 1_000_000;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// A timing distribution as median, tail, tail percentile and count.
    pub fn dist(&mut self, name: &str, unit: &'static str, d: &Dist) {
        self.put(format!("{name}.p50"), d.p50, unit);
        self.put(format!("{name}.tail"), d.tail, unit);
        self.put(format!("{name}.tail_pct"), d.tail_pct, "pct");
        self.put(format!("{name}.n"), d.n as f64, "count");
    }
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Campaign-engine numbers derived from `execute` spans and their `sink`
/// children: time to first record, per-thread gaps between records, and
/// the straggler gap between the first and last thread to finish.
pub struct EngineSpans {
    pub first_record_s: f64,
    pub trial_us: Vec<f64>,
    pub straggler_s: f64,
}

pub fn engine_spans(spans: &[Span]) -> EngineSpans {
    let mut sinks: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "sink") {
        sinks.entry(s.parent).or_default().push(s);
    }
    let mut out = EngineSpans {
        first_record_s: 0.0,
        trial_us: Vec::new(),
        straggler_s: 0.0,
    };
    for ex in spans.iter().filter(|s| s.name == "execute") {
        let Some(recs) = sinks.get(&ex.id) else {
            continue;
        };
        let first = recs
            .iter()
            .map(|s| s.start_us)
            .fold(f64::INFINITY, f64::min);
        out.first_record_s += (first - ex.start_us) / 1e6;
        let mut by_thread: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in recs {
            by_thread.entry(s.thread).or_default().push(s.start_us);
        }
        let mut lasts = Vec::new();
        for ts in by_thread.values_mut() {
            ts.sort_by(f64::total_cmp);
            out.trial_us.extend(ts.windows(2).map(|p| p[1] - p[0]));
            lasts.push(*ts.last().expect("non-empty"));
        }
        let lo = lasts.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = lasts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        out.straggler_s += (hi - lo) / 1e6;
    }
    out
}

fn span_sum(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_s)
        .sum()
}

/// Sum of every counter `name`, over all label sets.
fn counter_total(snap: &obs::Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .filter(|(k, _)| k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
        .fold(0.0, |acc, (_, v)| acc + *v as f64)
}

/// The uarch plan the timed-engine and trace probes use for one app.
fn uarch_plan<'a>(w: Workload, bench: &'a dyn Benchmark, seed: u64) -> PreparedCampaign<'a> {
    match w.layer() {
        Layer::Uarch => prepare(w, bench, seed),
        Layer::Sw => prepare_uarch_campaign_structures(
            bench,
            &CampaignCfg::new(PROBE_N, PROBE_N, seed),
            false,
            &HwStructure::ALL,
        ),
    }
}

/// The sw plan the functional-engine probe uses for one app.
fn sw_plan<'a>(w: Workload, bench: &'a dyn Benchmark, seed: u64) -> PreparedCampaign<'a> {
    match w.layer() {
        Layer::Sw => prepare(w, bench, seed),
        Layer::Uarch => {
            prepare_sw_campaign(bench, &CampaignCfg::new(PROBE_N, PROBE_N, seed), false)
        }
    }
}

/// Golden passes, adjudication, and timed/functional trial probes over
/// the workload's apps.
fn engine_probes(w: Workload, seed: u64, benches: &[Box<dyn Benchmark>], m: &mut Metrics) {
    let gpu = GpuConfig::default();
    let (mut timed_s, mut functional_s, mut snapshot_s, mut trace_s, mut ace_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut sim_cycles, mut thread_instrs, mut snap_bytes, mut trace_bytes) =
        (0u64, 0u64, 0u64, 0u64);
    let mut adjudicate_us = Vec::new();
    let (mut dead, mut adjudicated) = (0u64, 0u64);
    let mut fallbacks: BTreeMap<&'static str, u64> =
        FallbackReason::ALL.iter().map(|r| (r.label(), 0)).collect();
    let mut live_us = Vec::new();
    let (mut live_cycles, mut converged) = (0u64, 0u64);
    let mut sw_us = Vec::new();
    for b in benches {
        let bench = b.as_ref();
        let gp = golden_passes(bench, &gpu);
        timed_s += gp.timed_s;
        functional_s += gp.functional_s;
        snapshot_s += gp.snapshot_s;
        trace_s += gp.trace_s;
        ace_s += gp.ace_s;
        sim_cycles += gp.timed.total_cost;
        thread_instrs += gp.functional.app_stats().thread_instrs;
        snap_bytes += gp.snaps.bytes;
        trace_bytes += gp.trace.bytes;

        let up = uarch_plan(w, bench, seed);
        let mut live = Vec::new();
        for t in &up.plan.trials {
            let Some((ord, PlannedFault::Uarch(u))) = t.fault else {
                continue;
            };
            let t0 = Instant::now();
            let v = gp.trace.adjudicate(&gpu, ord, &u);
            adjudicate_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            adjudicated += 1;
            match v {
                Verdict::Dead { .. } => dead += 1,
                Verdict::Fallback { reason, .. } => {
                    *fallbacks.entry(reason.label()).or_default() += 1;
                    live.push((ord, PlannedFault::Uarch(u)));
                }
            }
        }
        for i in sample_indices(seed, bench.name(), live.len(), LIVE_SAMPLE) {
            let (ord, pf) = live[i];
            let t0 = Instant::now();
            let r = faulty_run_ff(bench, &gpu, &up.golden, &gp.snaps, ord, pf);
            live_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            live_cycles += r.simulated_cost;
            converged += r.converged as u64;
        }

        let sp = sw_plan(w, bench, seed);
        let sw: Vec<(usize, PlannedFault)> =
            sp.plan.trials.iter().filter_map(|t| t.fault).collect();
        for i in sample_indices(seed, bench.name(), sw.len(), SW_SAMPLE) {
            let (ord, pf) = sw[i];
            let t0 = Instant::now();
            black_box(faulty_run(
                bench,
                &gpu,
                Variant::FUNCTIONAL,
                &sp.golden,
                ord,
                pf,
            ));
            sw_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    m.put(
        "timed.sim_cycles_per_s",
        ratio(sim_cycles as f64, timed_s),
        "1/s",
    );
    m.dist("timed.live_trial_us", "us", &Dist::of(&live_us));
    m.put(
        "timed.live_sim_cycles",
        ratio(live_cycles as f64, live_us.len() as f64),
        "cycles",
    );
    m.put(
        "timed.converged_frac",
        ratio(converged as f64, live_us.len() as f64),
        "frac",
    );
    m.put(
        "functional.thread_instrs_per_s",
        ratio(thread_instrs as f64, functional_s),
        "1/s",
    );
    m.dist("functional.trial_us", "us", &Dist::of(&sw_us));
    m.put("golden.timed_s", timed_s, "s");
    m.put("golden.functional_s", functional_s, "s");
    m.put("capture.snapshot_s", snapshot_s, "s");
    m.put("capture.trace_s", trace_s, "s");
    m.put("capture.ace_s", ace_s, "s");
    m.put("capture.trace_over_golden", ratio(trace_s, timed_s), "x");
    m.put("snapshot.bytes", snap_bytes as f64, "bytes");
    m.put("trace.bytes", trace_bytes as f64, "bytes");
    m.dist("trace.adjudicate_us", "us", &Dist::of(&adjudicate_us));
    m.put(
        "trace.dead_frac",
        ratio(dead as f64, adjudicated as f64),
        "frac",
    );
    for (reason, n) in fallbacks {
        m.put(format!("trace.fallback.{reason}"), n as f64, "count");
    }
}

/// `load_via`/`store_via` driven with the access patterns of the
/// criterion cache-model bench: repeated hit, streaming miss, store.
fn cache_probe(m: &mut Metrics) {
    let cfg = GpuConfig::default();
    let fresh = |bytes: u32| {
        let mut mem = GlobalMem::new(bytes);
        mem.map(0, bytes);
        (Cache::new(cfg.l1d.clone()), Cache::new(cfg.l2.clone()), mem)
    };
    let (mut mr, mut mw) = (0u64, 0u64);

    let (mut l1, mut l2, mut mem) = fresh(1 << 20);
    load_via(
        &mut l1, &mut l2, &mut mem, 0, 0, &cfg.lat, &mut mr, &mut mw, None,
    );
    let t0 = Instant::now();
    let mut now = 10_000u64;
    for _ in 0..CACHE_OPS {
        now += 100;
        black_box(load_via(
            &mut l1,
            &mut l2,
            &mut mem,
            black_box(64),
            now,
            &cfg.lat,
            &mut mr,
            &mut mw,
            None,
        ));
    }
    m.put(
        "cache.load_hit_ops_per_s",
        CACHE_OPS as f64 / secs(t0),
        "1/s",
    );

    let (mut l1, mut l2, mut mem) = fresh(1 << 22);
    let (mut addr, mut now) = (0u32, 0u64);
    let t0 = Instant::now();
    for _ in 0..CACHE_OPS {
        addr = (addr + 128) & ((1 << 22) - 1);
        now += 500;
        black_box(load_via(
            &mut l1, &mut l2, &mut mem, addr, now, &cfg.lat, &mut mr, &mut mw, None,
        ));
    }
    m.put(
        "cache.load_miss_ops_per_s",
        CACHE_OPS as f64 / secs(t0),
        "1/s",
    );

    let (mut l1, mut l2, mut mem) = fresh(1 << 20);
    let (mut i, mut now) = (0u32, 0u64);
    let t0 = Instant::now();
    for _ in 0..CACHE_OPS {
        i = (i + 4) & 0xFFFF;
        now += 100;
        black_box(store_via(
            &mut l1, &mut l2, &mut mem, i, i, now, &cfg.lat, &mut mr, &mut mw, None,
        ));
    }
    m.put("cache.store_ops_per_s", CACHE_OPS as f64 / secs(t0), "1/s");
}

/// Append `records` through a `CheckpointWriter`, timing every append
/// and a `flush_and_sync` every [`SYNC_EVERY`] records.
fn checkpoint_probe(plan: &CampaignPlan, records: &[TrialRecord], path: &Path, m: &mut Metrics) {
    let mut append_us = Vec::with_capacity(records.len());
    let mut sync_ms = Vec::new();
    let res = (|| -> std::io::Result<()> {
        let header = CheckpointHeader::for_plan(plan, 1, 0);
        let mut w = CheckpointWriter::create(path, &header, DEFAULT_CHECKPOINT_EVERY)?;
        for (i, r) in records.iter().enumerate() {
            let t0 = Instant::now();
            w.record(r)?;
            append_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if (i + 1) % SYNC_EVERY == 0 || i + 1 == records.len() {
                let t0 = Instant::now();
                w.flush_and_sync()?;
                sync_ms.push(secs(t0) * 1e3);
            }
        }
        Ok(())
    })();
    let _ = std::fs::remove_file(path);
    if let Err(e) = res {
        eprintln!("perfbench: checkpoint probe failed: {e}");
    }
    m.dist("checkpoint.append_us", "us", &Dist::of(&append_us));
    m.put("checkpoint.sync_ms", median(&sync_ms), "ms");
}

/// Dispatch metrics. `avf_fleet` reports its own served campaigns; the
/// other workloads serve their VA campaign once through the same
/// loopback coordinator and workers. Worker set-up is timed by calling
/// what a worker calls before its first trial.
fn dispatch_probe(
    w: Workload,
    seed: u64,
    traced: &Iteration,
    traced_spans: &[Span],
    scratch: &Path,
    m: &mut Metrics,
) {
    let (stats, records, serve_s, apps): (Vec<DispatchStats>, usize, f64, Vec<String>) =
        if w == Workload::AvfFleet {
            (
                traced
                    .campaigns
                    .iter()
                    .filter_map(|c| c.dispatch.clone())
                    .collect(),
                traced.campaigns.iter().map(|c| c.records.len()).sum(),
                span_sum(traced_spans, "serve"),
                traced.campaigns.iter().map(|c| c.app.clone()).collect(),
            )
        } else {
            let spec = spec_for(w, "VA", seed);
            let bench = spec.find_bench().expect("VA is in the suite");
            let prep = prepare(w, bench.as_ref(), seed);
            let spans = Spans::new(true);
            let dir = scratch.join("probe-journal");
            let (stats, records) = match dispatch_campaign(&prep, &spec, &dir, &spans, 0, 0) {
                Ok(d) => (vec![d.stats], d.records.len()),
                Err(e) => {
                    eprintln!("perfbench: dispatch probe failed: {e}");
                    (Vec::new(), 0)
                }
            };
            let _ = std::fs::remove_dir_all(&dir);
            (
                stats,
                records,
                span_sum(&spans.finished(), "serve"),
                vec!["VA".to_string()],
            )
        };
    let mut worker_setup_s = 0.0;
    for app in &apps {
        let spec = spec_for(w, app, seed);
        let t0 = Instant::now();
        let bench = spec.find_bench().expect("workload apps are in the suite");
        let prep = spec.prepare(bench.as_ref());
        if w.backend() == relia::EngineBackend::Replay {
            black_box(prep.trace());
        }
        worker_setup_s += secs(t0);
    }
    m.put(
        "dispatch.records_per_s",
        ratio(records as f64, serve_s),
        "1/s",
    );
    let sum = |f: fn(&DispatchStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    for (name, total) in [
        ("leases_granted", sum(|s| s.leases_granted)),
        ("leases_reassigned", sum(|s| s.leases_reassigned)),
        ("duplicate_records", sum(|s| s.duplicate_records)),
        ("torn_frames", sum(|s| s.torn_frames)),
        ("resend_requests", sum(|s| s.resend_requests)),
    ] {
        m.put(format!("dispatch.{name}"), total, "count");
    }
    m.put("dispatch.worker_setup_s", worker_setup_s, "s");
}

/// Everything a traced run hands to the probes.
pub struct Traced<'a> {
    pub w: Workload,
    pub seed: u64,
    pub benches: &'a [Box<dyn Benchmark>],
    /// The last traced iteration and its spans.
    pub iteration: &'a Iteration,
    pub spans: &'a [Span],
    /// Spans of the output check's in-process reference execution.
    pub check_spans: &'a [Span],
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    /// Registry counters read after the traced iterations.
    pub obs: &'a obs::Snapshot,
    pub scratch: &'a Path,
}

pub fn layer_metrics(t: &Traced) -> Vec<Metric> {
    let mut m = Metrics::default();
    engine_probes(t.w, t.seed, t.benches, &mut m);
    cache_probe(&mut m);

    m.put("plan.prepare_s", span_sum(t.spans, "prepare"), "s");
    // The fleet's records arrive inside `serve`; its engine numbers come
    // from the in-process reference execution of the same plans.
    let engine_src = if t.w == Workload::AvfFleet {
        t.check_spans
    } else {
        t.spans
    };
    let es = engine_spans(engine_src);
    m.put("campaign.first_record_s", es.first_record_s, "s");
    m.dist("campaign.trial_us", "us", &Dist::of(&es.trial_us));
    m.put("campaign.straggler_s", es.straggler_s, "s");
    m.put("assemble.s", span_sum(t.spans, "assemble"), "s");
    let records: Vec<TrialRecord> = t
        .iteration
        .campaigns
        .iter()
        .flat_map(|c| c.records.iter().copied())
        .collect();
    let plan = prepare(t.w, t.benches[0].as_ref(), t.seed).plan;
    checkpoint_probe(
        &plan,
        &records,
        &t.scratch.join("probe-checkpoint.jsonl"),
        &mut m,
    );

    dispatch_probe(t.w, t.seed, t.iteration, t.spans, t.scratch, &mut m);
    // `avf_suite` estimates every app inside its iterations; the other
    // workloads do not run the estimator, so a probe does.
    let gpu = GpuConfig::default();
    let ace_s: Vec<f64> = if t.w == Workload::AvfSuite {
        t.iteration.ace_s.clone()
    } else {
        kernels::all_benchmarks()
            .iter()
            .map(|b| {
                let t0 = Instant::now();
                black_box(ace::estimate_app(b.as_ref(), &gpu));
                secs(t0)
            })
            .collect()
    };
    m.put("ace_s", ace_s.iter().sum::<f64>(), "s");
    for (b, secs) in kernels::all_benchmarks().iter().zip(&ace_s) {
        m.put(format!("ace.estimate_ms.{}", b.name()), secs * 1e3, "ms");
    }

    m.put(
        "trace_overhead_frac",
        ratio(t.traced_wall_s - t.untraced_wall_s, t.untraced_wall_s),
        "frac",
    );
    for name in [
        "trace_replay_dead_total",
        "trace_fallback_full_total",
        "snapshot_hits_total",
        "campaign_cycles_skipped_total",
    ] {
        m.put(format!("obs.{name}"), counter_total(t.obs, name), "count");
    }
    m.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, thread: u64, s: f64, e: f64) -> Span {
        Span {
            id,
            parent,
            campaign: 1,
            name,
            label: String::new(),
            thread,
            start_us: s,
            end_us: e,
        }
    }

    #[test]
    fn engine_numbers_come_from_sink_arrivals() {
        let spans = vec![
            span(1, 0, "execute", 1, 0.0, 1_000.0),
            span(2, 1, "sink", 7, 100.0, 100.0),
            span(3, 1, "sink", 7, 300.0, 300.0),
            span(4, 1, "sink", 8, 150.0, 150.0),
            span(5, 1, "sink", 8, 900.0, 900.0),
        ];
        let es = engine_spans(&spans);
        assert!((es.first_record_s - 100e-6).abs() < 1e-12);
        let mut gaps = es.trial_us.clone();
        gaps.sort_by(f64::total_cmp);
        assert_eq!(gaps, vec![200.0, 750.0]);
        assert!((es.straggler_s - 600e-6).abs() < 1e-12);
    }

    #[test]
    fn counters_sum_over_label_sets_only_for_their_name() {
        let snap = obs::Snapshot {
            counters: vec![
                ("trace_replay_dead_total{app=VA}".into(), 3),
                ("trace_replay_dead_total{app=NW}".into(), 4),
                ("trace_replay_dead_totally".into(), 100),
            ],
            ..Default::default()
        };
        assert_eq!(counter_total(&snap, "trace_replay_dead_total"), 7.0);
    }
}
