//! Statistical fault-injection campaigns at both abstraction layers,
//! executed by a resumable, shardable engine.
//!
//! The campaign machinery is split into three stages:
//!
//! 1. **Plan** ([`crate::plan`]) — a golden run plus the deterministic
//!    expansion of the configuration into an explicit trial list (seed →
//!    (kernel, structure/instruction, bit, cycle) for every injection).
//! 2. **Execute** ([`execute_shard`]) — run any strided shard of the plan
//!    in parallel, optionally journaling every classified trial to a
//!    JSONL checkpoint ([`crate::checkpoint`]) and skipping trials an
//!    interrupted run already finished (`resume`). A per-injection
//!    [`Watchdog`] bounds pathological trials.
//! 3. **Assemble** ([`assemble_uarch`] / [`assemble_sw`]) — fold any
//!    complete set of trial records (one shard's worth at a time, or a
//!    merge of many) into the AVF/SVF result types. Because outcome
//!    counts are integer sums and every trial's fault is fixed at plan
//!    time, merged shard outputs are identical to a single-shot run.
//!
//! [`run_uarch_campaign`] and [`run_sw_campaign`] — the gpuFI-4 (AVF) and
//! NVBitFI (SVF) methodologies of Sections II-B/II-C — are now thin
//! wrappers: prepare, execute the whole plan as one shard, assemble.
//! All randomness still derives from splitmix-style hashing of
//! (seed, app, kernel, structure, trial), so campaigns are
//! bit-reproducible at any thread count *and any shard count*.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use obs::Phase;
use rayon::prelude::*;

use kernels::{
    faulty_run, faulty_run_ff, AppSnapshots, Benchmark, Outcome, PlannedFault, RunResult,
};
use trace::Verdict;
use vgpu_sim::{FaultPattern, GpuConfig, HwStructure, SwFaultKind};

use crate::checkpoint::{
    load_checkpoint, CheckpointError, CheckpointHeader, CheckpointWriter, TrialRecord,
    DEFAULT_CHECKPOINT_EVERY,
};
use crate::metrics::{ClassCounts, ClassRates};
use crate::plan::{
    derive_seed, prepare_sw_campaign, prepare_uarch_campaign, shard_trials, CampaignPlan, Layer,
    PreparedCampaign, TrialTarget,
};

/// Per-injection watchdog: bounds how long one pathological trial can
/// hold a shard hostage. All limits are off by default so watchdog-free
/// campaigns stay bit-reproducible; see docs/CAMPAIGNS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Wall-clock budget per injection in microseconds; a trial that
    /// finishes over budget is reclassified as Timeout. `None` disables.
    pub wall_us_limit: Option<u64>,
    /// Cycle (timed) / instruction (functional) budget per injection on
    /// top of the harness's golden-derived budgets; a trial whose total
    /// cost exceeds it is reclassified as Timeout. `None` disables.
    pub cycle_limit: Option<u64>,
    /// Retry a trial once if the harness panics; a second panic
    /// classifies the trial as Timeout instead of wedging the shard.
    pub retry_on_panic: bool,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            wall_us_limit: None,
            cycle_limit: None,
            retry_on_panic: true,
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignCfg {
    pub gpu: GpuConfig,
    /// Injections per (kernel, hardware structure) in AVF campaigns.
    pub n_uarch: usize,
    /// Injections per kernel (per fault kind) in SVF campaigns.
    pub n_sw: usize,
    pub seed: u64,
    pub watchdog: Watchdog,
    /// Fault pattern applied by every trial (docs/FAULT_MODELS.md).
    /// Defaults to the paper's single-bit model; the pattern never feeds
    /// seed derivation, so changing it re-uses the exact same injection
    /// coordinates.
    pub pattern: FaultPattern,
}

impl CampaignCfg {
    pub fn new(n_uarch: usize, n_sw: usize, seed: u64) -> Self {
        CampaignCfg {
            gpu: GpuConfig::default(),
            n_uarch,
            n_sw,
            seed,
            watchdog: Watchdog::default(),
            pattern: FaultPattern::SingleBit,
        }
    }
}

/// Map a campaign outcome onto the obs reporting enum.
fn outcome_class(o: Outcome) -> obs::OutcomeClass {
    match o {
        Outcome::Masked => obs::OutcomeClass::Masked,
        Outcome::Sdc => obs::OutcomeClass::Sdc,
        Outcome::Timeout => obs::OutcomeClass::Timeout,
        Outcome::Due => obs::OutcomeClass::Due,
    }
}

/// Whether any observability sink wants per-trial data. Hoisted out of
/// the hot loop so disabled campaigns pay nothing per trial.
fn observing() -> bool {
    obs::enabled() || obs::events_enabled() || obs::progress::progress_enabled()
}

/// Record one finished injection everywhere observability wants it:
/// outcome counters, wall-time histogram, JSONL event, progress line.
/// Callers gate on [`observing`]; nothing here touches RNG streams, so
/// campaign results are identical with observability on or off.
#[allow(clippy::too_many_arguments)]
fn observe_trial(
    app: &str,
    kernel: &str,
    layer: &'static str,
    target: &'static str,
    trial: u64,
    seed: u64,
    bit: u8,
    cycle: u64,
    outcome: Outcome,
    started: Instant,
) {
    let class = outcome_class(outcome);
    let out_label = class.label();
    let wall_us = started.elapsed().as_micros() as u64;
    obs::time_phase(Phase::Classify, || {
        obs::counter_add(
            "injections_total",
            &[
                ("app", app),
                ("kernel", kernel),
                ("layer", layer),
                ("target", target),
                ("outcome", out_label),
            ],
            1,
        );
        // Coarse per-structure rollup for the end-of-run summary table.
        obs::counter_add(
            "outcomes_total",
            &[("layer", layer), ("target", target), ("outcome", out_label)],
            1,
        );
        obs::histogram_observe(
            "injection_wall_us",
            &[("app", app), ("layer", layer)],
            &obs::WALL_US_BUCKETS,
            wall_us,
        );
        obs::emit(&obs::InjectionEvent {
            seed,
            app,
            kernel,
            layer,
            target,
            trial,
            bit,
            cycle,
            outcome: out_label,
            wall_us,
        });
    });
    obs::progress::record(class);
}

// ---------------------------------------------------------------------
// Execution engine
// ---------------------------------------------------------------------

/// Which simulation backend executes the trials of a campaign.
///
/// `Replay` is a pure throughput knob, like fast-forward: trials whose
/// fault footprint is provably dead in the golden liveness index
/// synthesize their (masked) record without simulating; everything else
/// re-executes on the timed engine. Classification is byte-identical
/// either way (differential-tested). Campaigns replay cannot serve —
/// software layer, functional variant, hardened apps — degrade
/// gracefully to `Timed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineBackend {
    /// Simulate every trial cycle-by-cycle (with optional golden-prefix
    /// fast-forward).
    #[default]
    Timed,
    /// Trace-driven replay: adjudicate deadness first, simulate only the
    /// trials that need it.
    Replay,
}

impl EngineBackend {
    pub const ALL: [EngineBackend; 2] = [EngineBackend::Timed, EngineBackend::Replay];

    /// Stable CLI / wire label.
    pub fn label(&self) -> &'static str {
        match self {
            EngineBackend::Timed => "timed",
            EngineBackend::Replay => "replay",
        }
    }

    /// Parse a CLI / wire label.
    pub fn from_label(s: &str) -> Option<EngineBackend> {
        EngineBackend::ALL.into_iter().find(|b| b.label() == s)
    }
}

/// How to execute a prepared campaign: which shard of the plan, where to
/// checkpoint, what to resume from.
#[derive(Debug, Clone)]
pub struct EngineCfg {
    /// Total shards the plan is partitioned into (>= 1).
    pub shards: usize,
    /// This process's shard (0-based, < `shards`).
    pub shard_index: usize,
    /// Journal every classified trial to this JSONL file (truncated).
    pub checkpoint: Option<PathBuf>,
    /// Classified trials between checkpoint flushes.
    pub checkpoint_every: usize,
    /// Resume from (and keep appending to) this checkpoint file,
    /// skipping trials it already classifies. Wins over `checkpoint`.
    pub resume: Option<PathBuf>,
    /// Stop after this many *newly executed* trials, leaving a resumable
    /// checkpoint behind — interruption simulation and incremental runs.
    pub trial_limit: Option<usize>,
    /// Golden-prefix fast-forward: execute timed uarch trials from
    /// snapshots of one instrumented golden pass instead of re-simulating
    /// the fault-free prefix, and exit early once the disturbed machine
    /// provably re-converges to golden. Bit-identical results either way
    /// (differential-tested); this is purely a throughput knob.
    pub fast_forward: bool,
    /// Mid-launch snapshots per launch for the fast-forward pass.
    pub snapshots: usize,
    /// Simulation backend ([`EngineBackend::Replay`] adjudicates trials
    /// against the golden liveness index before simulating).
    pub backend: EngineBackend,
}

/// Default mid-launch snapshots per launch (`EngineCfg::snapshots`).
pub const DEFAULT_SNAPSHOTS: usize = 8;

impl EngineCfg {
    /// One shard covering the whole plan, no files.
    pub fn single_shot() -> Self {
        EngineCfg {
            shards: 1,
            shard_index: 0,
            checkpoint: None,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            resume: None,
            trial_limit: None,
            fast_forward: true,
            snapshots: DEFAULT_SNAPSHOTS,
            backend: EngineBackend::Timed,
        }
    }

    /// Shard `index` of `shards`, no files.
    pub fn sharded(shards: usize, index: usize) -> Self {
        EngineCfg {
            shards,
            shard_index: index,
            ..EngineCfg::single_shot()
        }
    }
}

impl Default for EngineCfg {
    fn default() -> Self {
        EngineCfg::single_shot()
    }
}

/// Why the engine refused to execute or assemble.
#[derive(Debug)]
pub enum EngineError {
    Io(std::io::Error),
    Checkpoint(CheckpointError),
    /// A checkpoint/shard header does not match the plan being executed
    /// (different seed, app, GPU config, shard slice, or code revision).
    PlanMismatch(String),
    /// The resumed checkpoint already classifies every trial of its shard.
    AlreadyComplete {
        done: usize,
    },
    /// A record's plan index is outside the plan or this shard's slice.
    ForeignTrial {
        idx: usize,
    },
    /// Two records claim the same plan index.
    DuplicateTrial {
        idx: usize,
    },
    /// Two records claim the same plan index with *different*
    /// classifications — impossible for deterministic trials, so it means
    /// corruption or a plan/code mismatch, and no dedupe may paper over it.
    ConflictingDuplicate {
        idx: usize,
    },
    /// The record set does not cover the plan.
    IncompleteCover {
        missing: usize,
        total: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "campaign I/O error: {e}"),
            EngineError::Checkpoint(e) => write!(f, "{e}"),
            EngineError::PlanMismatch(why) => write!(f, "plan mismatch: {why}"),
            EngineError::AlreadyComplete { done } => {
                write!(f, "checkpoint already complete ({done} trials classified)")
            }
            EngineError::ForeignTrial { idx } => {
                write!(f, "trial record {idx} does not belong to this plan/shard")
            }
            EngineError::DuplicateTrial { idx } => {
                write!(f, "duplicate record for trial {idx}")
            }
            EngineError::ConflictingDuplicate { idx } => {
                write!(
                    f,
                    "records for trial {idx} disagree on the outcome — \
                     corrupt input or mismatched plans"
                )
            }
            EngineError::IncompleteCover { missing, total } => {
                write!(f, "records cover only {}/{total} trials", total - missing)
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

/// Replay-backend context for one trial batch: the golden liveness
/// index plus the fast-forward policy fallbacks should use.
struct ReplayCtx<'a> {
    trace: &'a trace::AppTrace,
    ff: FastForward,
}

/// Run one planned trial end to end: faulty run under the watchdog,
/// observability, classification. With `snaps` set, timed uarch trials
/// take the fast-forward path ([`faulty_run_ff`]) — classification is
/// bit-identical to the slow path (differential-tested). With `replay`
/// set, uarch trials are first adjudicated against the recorded trace:
/// provably-dead footprints synthesize the masked record outright (the
/// faulty execution would be bit-identical to golden), everything else
/// falls back to full execution, capturing the snapshot set lazily on
/// first use. Returns the record plus the cycles actually simulated
/// (throughput accounting).
fn run_one_trial(
    prep: &PreparedCampaign,
    t: &crate::plan::PlannedTrial,
    snaps: Option<&Arc<AppSnapshots>>,
    replay: Option<&ReplayCtx<'_>>,
) -> (TrialRecord, u64) {
    let wd = prep.cfg.watchdog;
    let layer = prep.plan.layer.label();
    let app = prep.plan.app.as_str();
    let obs_on = observing();
    let t0 = (obs_on || wd.wall_us_limit.is_some()).then(Instant::now);
    let mut sim_cost = 0u64;
    let (mut outcome, cost_differs) = match &t.fault {
        // No eligible fault population: trivially masked.
        None => (Outcome::Masked, false),
        Some((ordinal, pf)) => {
            let mut snaps = snaps;
            // Replay adjudication: a provably-dead footprint means the
            // faulty run is bit-identical to golden, so its result is
            // synthesized without simulating. The synthesized record
            // flows through the same watchdog/ctrl/observe logic below.
            let adjudged: Option<RunResult> = match (replay, pf) {
                (Some(rc), PlannedFault::Uarch(u)) => {
                    match rc.trace.adjudicate(&prep.cfg.gpu, *ordinal, u) {
                        Verdict::Dead { population } => {
                            obs::counter_add("trace_replay_dead_total", &[("app", app)], 1);
                            Some(RunResult {
                                outcome: Outcome::Masked,
                                total_cost: prep.golden.total_cost,
                                simulated_cost: 0,
                                resumed_at: None,
                                converged: true,
                                applied: population > 0,
                                corrupted_words: 0,
                            })
                        }
                        Verdict::Fallback { reason, warps } => {
                            obs::counter_add(
                                "trace_fallback_full_total",
                                &[("app", app), ("reason", reason.label())],
                                1,
                            );
                            obs::counter_add("trace_fallback_warps_total", &[("app", app)], warps);
                            // Lazy snapshot capture: replay campaigns only
                            // pay for the fast-forward pass once a trial
                            // actually needs re-execution.
                            if rc.ff.enabled {
                                snaps = prep.snapshots(rc.ff.snapshots);
                            }
                            None
                        }
                    }
                }
                _ => None,
            };
            let attempt = || {
                obs::time_phase(Phase::FaultyRun, || match (snaps, pf) {
                    (Some(s), PlannedFault::Uarch(_)) => {
                        faulty_run_ff(prep.bench, &prep.cfg.gpu, &prep.golden, s, *ordinal, *pf)
                    }
                    _ => faulty_run(
                        prep.bench,
                        &prep.cfg.gpu,
                        prep.variant,
                        &prep.golden,
                        *ordinal,
                        *pf,
                    ),
                })
            };
            let mut res = match adjudged {
                some @ Some(_) => some,
                None => catch_unwind(AssertUnwindSafe(attempt)).ok(),
            };
            if res.is_none() && wd.retry_on_panic {
                obs::counter_add("watchdog_retries_total", &[("layer", layer)], 1);
                res = catch_unwind(AssertUnwindSafe(attempt)).ok();
            }
            match res {
                None => {
                    obs::counter_add("watchdog_panic_timeouts_total", &[("layer", layer)], 1);
                    (Outcome::Timeout, false)
                }
                Some(r) => {
                    sim_cost = r.simulated_cost;
                    let mut o = r.outcome;
                    // The cycle budget checks *architectural* cost: the
                    // slow and fast-forward paths must classify every
                    // trial identically, and `simulated_cost` is a
                    // scheduling artifact that differs between them (a
                    // resumed trial simulates only its suffix). Persistent
                    // stuck-at trials in particular run to the harness
                    // budget with convergence exit disabled, and must land
                    // on Timeout on both paths, not just the slow one.
                    if wd.cycle_limit.is_some_and(|l| r.total_cost > l) && o != Outcome::Timeout {
                        obs::counter_add("watchdog_cycle_timeouts_total", &[("layer", layer)], 1);
                        o = Outcome::Timeout;
                    }
                    if snaps.is_some() && obs_on {
                        obs::counter_add(
                            "campaign_cycles_skipped_total",
                            &[("app", app), ("layer", layer)],
                            r.total_cost - r.simulated_cost,
                        );
                        if r.resumed_at.is_some() {
                            obs::counter_add(
                                "snapshot_hits_total",
                                &[("app", app), ("kind", "resume")],
                                1,
                            );
                        }
                        if r.converged {
                            obs::counter_add(
                                "snapshot_hits_total",
                                &[("app", app), ("kind", "converged")],
                                1,
                            );
                        }
                    }
                    (o, r.total_cost != prep.golden.total_cost)
                }
            }
        }
    };
    let wall_us = t0.map_or(0, |i| i.elapsed().as_micros() as u64);
    if wd.wall_us_limit.is_some_and(|l| wall_us > l) && outcome != Outcome::Timeout {
        obs::counter_add("watchdog_wall_timeouts_total", &[("layer", layer)], 1);
        outcome = Outcome::Timeout;
    }
    if let (true, Some(t0)) = (obs_on, t0) {
        let (bit, cycle) = match &t.fault {
            None => (0, 0),
            Some((_, PlannedFault::Uarch(u))) => (u.bit, u.cycle),
            Some((_, PlannedFault::Sw(s))) => (s.bit, s.target),
        };
        observe_trial(
            &prep.plan.app,
            prep.bench.kernels()[t.kernel_idx],
            layer,
            t.target.label(),
            t.trial as u64,
            t.seed,
            bit,
            cycle,
            outcome,
            t0,
        );
    }
    let rec = TrialRecord {
        idx: t.index,
        outcome,
        // The Figure-11 control-path proxy: a masked run whose total cost
        // differs from golden had its control path disturbed.
        ctrl: outcome == Outcome::Masked && cost_differs,
        wall_us,
    };
    (rec, sim_cost)
}

/// Fast-forward policy for [`execute_trials_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastForward {
    /// Use golden-prefix snapshots where the campaign supports them.
    pub enabled: bool,
    /// Mid-launch snapshots per launch for the capture pass.
    pub snapshots: usize,
    /// Simulation backend for the trials themselves.
    pub backend: EngineBackend,
}

impl Default for FastForward {
    fn default() -> Self {
        FastForward {
            enabled: true,
            snapshots: DEFAULT_SNAPSHOTS,
            backend: EngineBackend::Timed,
        }
    }
}

impl FastForward {
    /// Fast-forward off: every trial simulates its whole application.
    pub fn disabled() -> Self {
        FastForward {
            enabled: false,
            snapshots: 0,
            backend: EngineBackend::Timed,
        }
    }

    /// The policy an [`EngineCfg`] asks for.
    pub fn from_engine(eng: &EngineCfg) -> Self {
        FastForward {
            enabled: eng.fast_forward,
            snapshots: eng.snapshots,
            backend: eng.backend,
        }
    }
}

/// Scheduling key for snapshot locality: trials of the same launch,
/// ordered by injection cycle, reuse the same golden prefix and nearby
/// resume snapshots. Population-empty trials sort first.
fn trial_sort_key(t: &crate::plan::PlannedTrial) -> (u64, u64) {
    match &t.fault {
        None => (0, 0),
        Some((ordinal, PlannedFault::Uarch(u))) => (*ordinal as u64 + 1, u.cycle),
        Some((ordinal, PlannedFault::Sw(s))) => (*ordinal as u64 + 1, s.target),
    }
}

/// Refresh the engine-side throughput gauges consumed by `/metrics` and
/// the telemetry `/status` documents. Rates are stored in milli-units
/// (gauges are integers): `campaign_trial_rate_milli` is trials/s ×
/// 1000; `campaign_eta_ms` is the projected time to finish the current
/// trial set at the observed rate.
fn record_trial_rate(done: u64, total: u64, sim_cycles: u64, t0: Instant) {
    obs::gauge_set("campaign_trials_done", &[], done);
    obs::gauge_set("campaign_trials_planned", &[], total);
    // Simulated-cost throughput: under replay (and fast-forward) the
    // wall cost of a trial varies by orders of magnitude, so trial
    // counts alone make ETA/rate projections meaningless; status
    // surfaces should prefer these when nonzero.
    obs::gauge_set("campaign_sim_cycles_done", &[], sim_cycles);
    let secs = t0.elapsed().as_secs_f64();
    if secs > 0.0 {
        let rate = done as f64 / secs;
        obs::gauge_set("campaign_trial_rate_milli", &[], (rate * 1e3) as u64);
        obs::gauge_set(
            "campaign_sim_cycle_rate_milli",
            &[],
            (sim_cycles as f64 / secs * 1e3) as u64,
        );
        if rate > 0.0 && total >= done {
            obs::gauge_set(
                "campaign_eta_ms",
                &[],
                ((total - done) as f64 / rate * 1e3) as u64,
            );
        }
    }
}

/// Execute an explicit set of plan indices in parallel, streaming every
/// classified trial into `sink` as it finishes (in completion order, not
/// plan order — records are self-describing via [`TrialRecord::idx`]).
/// Runs with the default fast-forward policy (on, where applicable).
///
/// This is the primitive under both [`execute_shard`] (sink = checkpoint
/// file) and the dispatch worker daemon (sink = TCP connection to the
/// coordinator). A sink error aborts the run; trials already in flight on
/// other workers may still call the sink before the abort propagates,
/// which is safe because every consumer dedupes by plan index.
pub fn execute_trials<F>(
    prep: &PreparedCampaign,
    idxs: &[usize],
    sink: F,
) -> Result<Vec<TrialRecord>, std::io::Error>
where
    F: Fn(&TrialRecord) -> std::io::Result<()> + Sync,
{
    execute_trials_with(prep, FastForward::default(), idxs, sink)
}

/// [`execute_trials`] with an explicit fast-forward policy. When the
/// policy applies (timed uarch plan, `enabled`, `snapshots > 0`), the
/// snapshot set is captured once up front and the trial list is run in
/// (launch, injection-cycle) order so neighbouring trials share resume
/// snapshots; records are self-describing, so the reordering is invisible
/// to every consumer.
pub fn execute_trials_with<F>(
    prep: &PreparedCampaign,
    ff: FastForward,
    idxs: &[usize],
    sink: F,
) -> Result<Vec<TrialRecord>, std::io::Error>
where
    F: Fn(&TrialRecord) -> std::io::Result<()> + Sync,
{
    // The replay backend records the golden liveness index up front (one
    // tracked golden pass) and defers snapshot capture until some trial
    // actually falls back; campaigns replay cannot serve return no trace
    // and degrade to the timed backend transparently.
    let replay = if ff.backend == EngineBackend::Replay {
        prep.trace().map(|tr| ReplayCtx {
            trace: tr.as_ref(),
            ff,
        })
    } else {
        None
    };
    let snaps = if ff.enabled && replay.is_none() {
        prep.snapshots(ff.snapshots)
    } else {
        None
    };
    let mut order: Vec<usize> = idxs.to_vec();
    // Launch/cycle-sorted execution keeps snapshot locality for the
    // fast-forward path and for replay fallbacks alike.
    let sorted = snaps.is_some() || replay.is_some();
    if sorted {
        order.sort_by_key(|&i| trial_sort_key(&prep.plan.trials[i]));
    }
    // Fleet telemetry: progress / throughput / ETA gauges for the local
    // `/metrics` endpoint, and per-trial trace contexts. Pure
    // observation — nothing here touches the seeded RNG streams.
    let telem = observing();
    if telem {
        obs::trace::set_campaign_fp(prep.plan.fingerprint());
    }
    let total = order.len() as u64;
    let done_ctr = std::sync::atomic::AtomicU64::new(0);
    let sim_ctr = std::sync::atomic::AtomicU64::new(0);
    let t0 = Instant::now();
    let mut records: Vec<TrialRecord> = order
        .par_iter()
        .map(|&idx| -> Result<TrialRecord, std::io::Error> {
            let (rec, sim_cost) = obs::trace::with_ctx(idx as u64, || {
                run_one_trial(prep, &prep.plan.trials[idx], snaps, replay.as_ref())
            });
            if telem {
                let done = done_ctr.fetch_add(1, AtomicOrdering::Relaxed) + 1;
                let sim = sim_ctr.fetch_add(sim_cost, AtomicOrdering::Relaxed) + sim_cost;
                record_trial_rate(done, total, sim, t0);
            }
            sink(&rec)?;
            Ok(rec)
        })
        .collect::<Result<_, _>>()?;
    // Execution order is a scheduling detail; callers get records back in
    // the order they asked for, exactly as without fast-forward.
    if sorted {
        let pos: HashMap<usize, usize> = idxs.iter().enumerate().map(|(p, &i)| (i, p)).collect();
        records.sort_by_key(|r| pos[&r.idx]);
    }
    Ok(records)
}

/// Execute one strided shard of a prepared campaign, in parallel.
///
/// Returns the shard's classified trials in plan order — records loaded
/// from a resumed checkpoint plus everything newly executed. With
/// `eng.checkpoint`/`eng.resume` set, every classified trial is journaled
/// so an interruption at any point (including mid-line) loses at most
/// `checkpoint_every` trials.
pub fn execute_shard(
    prep: &PreparedCampaign,
    eng: &EngineCfg,
) -> Result<Vec<TrialRecord>, EngineError> {
    let plan = &prep.plan;
    let my = shard_trials(plan.len(), eng.shards, eng.shard_index);
    obs::trace::set_shard(eng.shard_index as u64);
    let header = CheckpointHeader::for_plan(plan, eng.shards, eng.shard_index);
    let mut slots: Vec<Option<TrialRecord>> = vec![None; plan.len()];

    let mut writer: Option<CheckpointWriter> = None;
    if let Some(rp) = &eng.resume {
        let ck = load_checkpoint(rp)?;
        if ck.header != header {
            return Err(EngineError::PlanMismatch(format!(
                "checkpoint {} was written by a different campaign \
                 (fingerprint {:#x} vs plan {:#x}, shard {}/{} vs {}/{})",
                rp.display(),
                ck.header.fingerprint,
                header.fingerprint,
                ck.header.shard_index,
                ck.header.shards,
                header.shard_index,
                header.shards,
            )));
        }
        let mut done = 0usize;
        for r in &ck.records {
            if r.idx >= plan.len() || r.idx % eng.shards != eng.shard_index {
                return Err(EngineError::ForeignTrial { idx: r.idx });
            }
            if slots[r.idx].replace(*r).is_some() {
                return Err(EngineError::DuplicateTrial { idx: r.idx });
            }
            done += 1;
        }
        if done >= my.len() {
            return Err(EngineError::AlreadyComplete { done });
        }
        obs::counter_add(
            "campaign_resume_skipped_total",
            &[("layer", plan.layer.label())],
            done as u64,
        );
        obs::emit_campaign(&obs::CampaignEvent {
            kind: "resume",
            app: &plan.app,
            layer: plan.layer.label(),
            shard: eng.shard_index as u64,
            shards: eng.shards as u64,
            done: done as u64,
            total: my.len() as u64,
        });
        writer = Some(CheckpointWriter::recreate(rp, &ck, eng.checkpoint_every)?);
    } else if let Some(cp) = &eng.checkpoint {
        writer = Some(CheckpointWriter::create(cp, &header, eng.checkpoint_every)?);
    }

    let remaining: Vec<usize> = my.iter().copied().filter(|&i| slots[i].is_none()).collect();
    let todo = eng
        .trial_limit
        .map_or(remaining.len(), |l| l.min(remaining.len()));
    if obs::progress::progress_enabled() {
        obs::progress::add_total(todo as u64);
    }
    obs::emit_campaign(&obs::CampaignEvent {
        kind: "shard_start",
        app: &plan.app,
        layer: plan.layer.label(),
        shard: eng.shard_index as u64,
        shards: eng.shards as u64,
        done: (my.len() - remaining.len()) as u64,
        total: my.len() as u64,
    });

    let writer = Mutex::new(writer);
    let new_records = execute_trials_with(
        prep,
        FastForward::from_engine(eng),
        &remaining[..todo],
        |rec| {
            if let Some(w) = writer.lock().unwrap().as_mut() {
                w.record(rec)?;
            }
            Ok(())
        },
    )?;
    // Durable before the shard reports done: finish() fsyncs, so a crash
    // right after "shard complete" cannot lose the checkpoint tail.
    if let Some(w) = writer.into_inner().unwrap() {
        w.finish()?;
    }

    for r in new_records {
        slots[r.idx] = Some(r);
    }
    let out: Vec<TrialRecord> = my.iter().filter_map(|&i| slots[i]).collect();
    obs::emit_campaign(&obs::CampaignEvent {
        kind: "shard_done",
        app: &plan.app,
        layer: plan.layer.label(),
        shard: eng.shard_index as u64,
        shards: eng.shards as u64,
        done: out.len() as u64,
        total: my.len() as u64,
    });
    Ok(out)
}

/// Validate that `records` exactly cover `plan` (no gaps, no duplicates,
/// no foreign indices) and return them indexed by plan position.
fn complete_outcomes(
    plan: &CampaignPlan,
    records: &[TrialRecord],
) -> Result<Vec<TrialRecord>, EngineError> {
    let mut slots: Vec<Option<TrialRecord>> = vec![None; plan.len()];
    for &r in records {
        if r.idx >= plan.len() {
            return Err(EngineError::ForeignTrial { idx: r.idx });
        }
        if slots[r.idx].replace(r).is_some() {
            return Err(EngineError::DuplicateTrial { idx: r.idx });
        }
    }
    let missing = slots.iter().filter(|s| s.is_none()).count();
    if missing > 0 {
        return Err(EngineError::IncompleteCover {
            missing,
            total: plan.len(),
        });
    }
    Ok(slots.into_iter().map(Option::unwrap).collect())
}

/// Order-insensitive digest of a record set — two runs that classified
/// the same trials the same way agree on it regardless of shard layout.
/// Used by the shard-merge smoke gate and printed by `campaign merge`.
pub fn records_fingerprint(records: &[TrialRecord]) -> u64 {
    let mut acc = 0u64;
    for r in records {
        // XOR-combine per-record hashes so ordering doesn't matter.
        acc ^= derive_seed(
            0x5ca1_ab1e,
            &[r.idx as u64, r.outcome as u64, r.ctrl as u64],
        );
    }
    acc
}

/// Collapse duplicate trial records into one record per plan index — the
/// at-least-once merge used when the same shard was executed more than
/// once (two dispatch workers racing on a reassigned lease, the same
/// checkpoint file supplied to `merge` twice).
///
/// Trials are deterministic, so every re-execution of a plan index must
/// classify identically; duplicates agreeing on `(outcome, ctrl)` are
/// folded to the first-seen record (`wall_us` is wall-clock noise and may
/// legitimately differ), while a disagreement is reported as
/// [`EngineError::ConflictingDuplicate`] — that can only mean corrupt
/// input or records from a different plan, and silently picking a winner
/// would fabricate science. Output is sorted by plan index.
pub fn dedupe_records(records: &[TrialRecord]) -> Result<Vec<TrialRecord>, EngineError> {
    let mut by_idx: std::collections::BTreeMap<usize, TrialRecord> =
        std::collections::BTreeMap::new();
    for r in records {
        match by_idx.get(&r.idx) {
            None => {
                by_idx.insert(r.idx, *r);
            }
            Some(first) => {
                if first.outcome != r.outcome || first.ctrl != r.ctrl {
                    return Err(EngineError::ConflictingDuplicate { idx: r.idx });
                }
            }
        }
    }
    Ok(by_idx.into_values().collect())
}

// ---------------------------------------------------------------------
// Microarchitecture level (AVF)
// ---------------------------------------------------------------------

/// Per-(kernel, structure) campaign outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructureCampaign {
    pub counts: ClassCounts,
    /// Masked runs whose total cycle count differs from golden — the
    /// control-path proxy of Figure 11.
    pub ctrl_affected_masked: u32,
}

/// Everything measured about one kernel at the microarchitecture level.
#[derive(Debug, Clone, PartialEq)]
pub struct UarchKernelResult {
    /// Kernel display name ("K1", ...).
    pub kernel: String,
    pub per_structure: Vec<(HwStructure, StructureCampaign)>,
    /// Derating factors (Section II-B): live-allocation share for RF and
    /// SMEM, 1.0 for the always-whole-array cache structures.
    pub df: Vec<(HwStructure, f64)>,
    /// Golden cycles attributed to this kernel (AVF weighting).
    pub cycles: u64,
    /// Injections per structure (for error margins).
    pub n_per_structure: usize,
}

impl UarchKernelResult {
    pub fn df_of(&self, h: HwStructure) -> f64 {
        self.df
            .iter()
            .find(|&&(s, _)| s == h)
            .map_or(1.0, |&(_, d)| d)
    }

    pub fn counts_of(&self, h: HwStructure) -> &StructureCampaign {
        &self
            .per_structure
            .iter()
            .find(|&&(s, _)| s == h)
            .expect("structure present")
            .1
    }

    /// AVF of one structure: per-class failure fractions × derating factor.
    pub fn avf(&self, h: HwStructure) -> ClassRates {
        self.counts_of(h).counts.rates().scale(self.df_of(h))
    }

    /// Size-weighted AVF over a set of structures — the chip AVF when
    /// `set` is [`HwStructure::ALL`], the AVF-Cache sub-metric when it is
    /// [`HwStructure::CACHES`].
    pub fn avf_over(&self, gpu: &GpuConfig, set: &[HwStructure]) -> ClassRates {
        let total_bits: u64 = set.iter().map(|&h| gpu.structure_bits(h)).sum();
        let mut acc = ClassRates::default();
        for &h in set {
            let w = gpu.structure_bits(h) as f64 / total_bits as f64;
            acc.add(&self.avf(h).scale(w));
        }
        acc
    }

    /// Full-chip AVF (all five structures, size-weighted).
    pub fn chip_avf(&self, gpu: &GpuConfig) -> ClassRates {
        self.avf_over(gpu, &HwStructure::ALL)
    }

    /// Fraction of all injections that were masked with a disturbed cycle
    /// count (Figure 11).
    pub fn ctrl_affected_fraction(&self) -> f64 {
        let total: u32 = self
            .per_structure
            .iter()
            .map(|(_, c)| c.counts.total())
            .sum();
        if total == 0 {
            return 0.0;
        }
        let ctrl: u32 = self
            .per_structure
            .iter()
            .map(|(_, c)| c.ctrl_affected_masked)
            .sum();
        ctrl as f64 / total as f64
    }
}

/// Microarchitecture-level results for a whole application.
#[derive(Debug, Clone, PartialEq)]
pub struct UarchAppResult {
    pub app: String,
    pub kernels: Vec<UarchKernelResult>,
}

impl UarchAppResult {
    fn cycle_weighted(&self, f: impl Fn(&UarchKernelResult) -> ClassRates) -> ClassRates {
        let total: u64 = self.kernels.iter().map(|k| k.cycles).sum();
        let mut acc = ClassRates::default();
        for k in &self.kernels {
            acc.add(&f(k).scale(k.cycles as f64 / total.max(1) as f64));
        }
        acc
    }

    /// Application AVF: kernel chip-AVF weighted by kernel cycles
    /// (Section II-B's multi-kernel rule).
    pub fn app_avf(&self, gpu: &GpuConfig) -> ClassRates {
        self.cycle_weighted(|k| k.chip_avf(gpu))
    }

    /// Application AVF restricted to one structure (AVF-RF of Figure 4).
    pub fn app_avf_structure(&self, h: HwStructure) -> ClassRates {
        self.cycle_weighted(|k| k.avf(h))
    }

    /// Application AVF over the cache structures (Figure 5).
    pub fn app_avf_cache(&self, gpu: &GpuConfig) -> ClassRates {
        self.cycle_weighted(|k| k.avf_over(gpu, &HwStructure::CACHES))
    }
}

/// Derating factor of one kernel for RF or SMEM, cycle-weighted over its
/// launches (Section II-B):
/// `DF = size_per_thread × num_threads / system_size`
/// (per-CTA for shared memory), clamped to 1.
fn derating_factor(
    golden: &kernels::GoldenRun,
    kernel_idx: usize,
    gpu: &GpuConfig,
    h: HwStructure,
) -> f64 {
    let mut weighted = 0.0f64;
    let mut cycles = 0u64;
    for r in golden.records.iter().filter(|r| r.kernel_idx == kernel_idx) {
        let live_bits = match h {
            HwStructure::RegFile => r.num_regs as u64 * 32 * r.threads,
            HwStructure::Smem => r.smem_bytes as u64 * 8 * r.ctas,
            _ => return 1.0,
        };
        let df = (live_bits as f64 / gpu.structure_bits(h) as f64).min(1.0);
        weighted += df * r.stats.cycles as f64;
        cycles += r.stats.cycles;
    }
    if cycles == 0 {
        0.0
    } else {
        weighted / cycles as f64
    }
}

/// Fold a complete record set into the microarchitecture-level result.
/// `records` may come from one single-shot run, a merge of disjoint
/// shards, or a resumed checkpoint — the result is identical.
pub fn assemble_uarch(
    prep: &PreparedCampaign,
    records: &[TrialRecord],
) -> Result<UarchAppResult, EngineError> {
    if prep.plan.layer != Layer::Uarch {
        return Err(EngineError::PlanMismatch(
            "assemble_uarch on a software-level plan".into(),
        ));
    }
    let outs = complete_outcomes(&prep.plan, records)?;
    let n_kernels = prep.bench.kernels().len();
    // Plans restricted to the storage structures keep the historical
    // five-row shape; only plans that actually target the SIMT stack or
    // the scheduler widen the result to the full injectable set.
    let structs: &[HwStructure] =
        if prep.plan.trials.iter().any(
            |t| matches!(t.target, TrialTarget::Structure(h) if !HwStructure::ALL.contains(&h)),
        ) {
            &HwStructure::INJECTABLE
        } else {
            &HwStructure::ALL
        };
    let mut acc = vec![vec![StructureCampaign::default(); structs.len()]; n_kernels];
    for (t, r) in prep.plan.trials.iter().zip(&outs) {
        let TrialTarget::Structure(h) = t.target else {
            unreachable!("uarch plans only target structures");
        };
        let pos = structs.iter().position(|&x| x == h).unwrap();
        let sc = &mut acc[t.kernel_idx][pos];
        sc.counts.record(r.outcome);
        sc.ctrl_affected_masked += r.ctrl as u32;
    }
    let kernels = prep
        .bench
        .kernels()
        .iter()
        .enumerate()
        .map(|(k_idx, k_name)| {
            let cycles: u64 = prep
                .golden
                .records
                .iter()
                .filter(|r| r.kernel_idx == k_idx)
                .map(|r| r.stats.cycles)
                .sum();
            let per_structure = structs
                .iter()
                .zip(&acc[k_idx])
                .map(|(&h, &c)| (h, c))
                .collect();
            let df = structs
                .iter()
                .map(|&h| (h, derating_factor(&prep.golden, k_idx, &prep.cfg.gpu, h)))
                .collect();
            UarchKernelResult {
                kernel: k_name.to_string(),
                per_structure,
                df,
                cycles,
                n_per_structure: prep.cfg.n_uarch,
            }
        })
        .collect();
    Ok(UarchAppResult {
        app: prep.plan.app.clone(),
        kernels,
    })
}

/// Run the cross-layer (gpuFI-4 model) campaign for one application:
/// plan, execute as a single shard, assemble.
pub fn run_uarch_campaign(
    bench: &dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
) -> UarchAppResult {
    run_uarch_campaign_with(bench, cfg, hardened, EngineBackend::Timed)
}

/// [`run_uarch_campaign`] with an explicit simulation backend — the
/// study binaries' `--backend` axis. Results are byte-identical across
/// backends (differential-tested); replay only changes the wall cost.
pub fn run_uarch_campaign_with(
    bench: &dyn Benchmark,
    cfg: &CampaignCfg,
    hardened: bool,
    backend: EngineBackend,
) -> UarchAppResult {
    let prep = prepare_uarch_campaign(bench, cfg, hardened);
    let eng = EngineCfg {
        backend,
        ..EngineCfg::single_shot()
    };
    let records =
        execute_shard(&prep, &eng).expect("single-shot execution performs no checkpoint I/O");
    assemble_uarch(&prep, &records).expect("a single shard covers the whole plan")
}

// ---------------------------------------------------------------------
// Software level (SVF)
// ---------------------------------------------------------------------

/// Software-level results for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct SvfKernelResult {
    pub kernel: String,
    /// Destination-value injections (NVBitFI default).
    pub counts: ClassCounts,
    /// Load-destination injections (SVF-LD of Figure 5).
    pub counts_ld: ClassCounts,
    /// Dynamic thread instructions (the SVF application-weighting metric).
    pub instrs: u64,
}

impl SvfKernelResult {
    /// `SVF(ker) = FR(ker)` per class.
    pub fn svf(&self) -> ClassRates {
        self.counts.rates()
    }

    pub fn svf_ld(&self) -> ClassRates {
        self.counts_ld.rates()
    }
}

/// Software-level results for a whole application.
#[derive(Debug, Clone, PartialEq)]
pub struct SvfAppResult {
    pub app: String,
    pub kernels: Vec<SvfKernelResult>,
}

impl SvfAppResult {
    fn instr_weighted(&self, f: impl Fn(&SvfKernelResult) -> ClassRates) -> ClassRates {
        let total: u64 = self.kernels.iter().map(|k| k.instrs).sum();
        let mut acc = ClassRates::default();
        for k in &self.kernels {
            acc.add(&f(k).scale(k.instrs as f64 / total.max(1) as f64));
        }
        acc
    }

    /// Application SVF: kernel SVF weighted by executed instructions
    /// (Section II-C's multi-kernel rule).
    pub fn app_svf(&self) -> ClassRates {
        self.instr_weighted(|k| k.svf())
    }

    pub fn app_svf_ld(&self) -> ClassRates {
        self.instr_weighted(|k| k.svf_ld())
    }
}

/// Fold a complete record set of any software-level plan into per-kernel,
/// per-sub-campaign outcome counts, indexed `[kernel][position in
/// plan.sw_kinds]`. The generic assembly behind [`assemble_sw`] and the
/// PVF campaign.
pub fn assemble_sw_counts(
    prep: &PreparedCampaign,
    records: &[TrialRecord],
) -> Result<Vec<Vec<ClassCounts>>, EngineError> {
    if prep.plan.layer != Layer::Sw {
        return Err(EngineError::PlanMismatch(
            "assemble_sw on a microarchitecture-level plan".into(),
        ));
    }
    let outs = complete_outcomes(&prep.plan, records)?;
    let kinds = &prep.plan.sw_kinds;
    let n_kernels = prep.bench.kernels().len();
    let mut acc = vec![vec![ClassCounts::default(); kinds.len()]; n_kernels];
    for (t, r) in prep.plan.trials.iter().zip(&outs) {
        let TrialTarget::Fault(kind) = t.target else {
            unreachable!("sw plans only target fault kinds");
        };
        let pos = kinds.iter().position(|&(k, _)| k == kind).unwrap();
        acc[t.kernel_idx][pos].record(r.outcome);
    }
    Ok(acc)
}

/// Fold a complete record set of the standard SVF plan (dest-value +
/// dest-value-load) into the software-level result.
pub fn assemble_sw(
    prep: &PreparedCampaign,
    records: &[TrialRecord],
) -> Result<SvfAppResult, EngineError> {
    let expected = [
        (SwFaultKind::DestValue, 10),
        (SwFaultKind::DestValueLoad, 11),
    ];
    if prep.plan.sw_kinds != expected {
        return Err(EngineError::PlanMismatch(
            "assemble_sw expects the standard dest-value + dest-value-ld plan".into(),
        ));
    }
    let counts = assemble_sw_counts(prep, records)?;
    let kernels = prep
        .bench
        .kernels()
        .iter()
        .enumerate()
        .map(|(k_idx, k_name)| SvfKernelResult {
            kernel: k_name.to_string(),
            counts: counts[k_idx][0],
            counts_ld: counts[k_idx][1],
            instrs: prep.golden.kernel_stats(k_idx).thread_instrs,
        })
        .collect();
    Ok(SvfAppResult {
        app: prep.plan.app.clone(),
        kernels,
    })
}

/// Run the software-level (NVBitFI model) campaign for one application:
/// destination-value injections plus the load-only SVF-LD variant.
pub fn run_sw_campaign(bench: &dyn Benchmark, cfg: &CampaignCfg, hardened: bool) -> SvfAppResult {
    let prep = prepare_sw_campaign(bench, cfg, hardened);
    let records = execute_shard(&prep, &EngineCfg::single_shot())
        .expect("single-shot execution performs no checkpoint I/O");
    assemble_sw(&prep, &records).expect("a single shard covers the whole plan")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::apps::va::Va;

    #[test]
    fn single_shot_sharded_and_limited_runs_agree() {
        let cfg = CampaignCfg::new(10, 10, 0xFEED);
        let single = run_sw_campaign(&Va, &cfg, false);
        let prep = prepare_sw_campaign(&Va, &cfg, false);
        let mut recs = Vec::new();
        for i in 0..4 {
            recs.extend(execute_shard(&prep, &EngineCfg::sharded(4, i)).unwrap());
        }
        assert_eq!(assemble_sw(&prep, &recs).unwrap(), single);
        assert_eq!(
            records_fingerprint(&recs),
            records_fingerprint(&execute_shard(&prep, &EngineCfg::single_shot()).unwrap())
        );
    }

    #[test]
    fn assembly_rejects_gaps_and_duplicates() {
        let cfg = CampaignCfg::new(4, 4, 1);
        let prep = prepare_sw_campaign(&Va, &cfg, false);
        let recs = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
        assert!(matches!(
            assemble_sw(&prep, &recs[1..]),
            Err(EngineError::IncompleteCover { missing: 1, .. })
        ));
        let mut dup = recs.clone();
        dup.push(recs[0]);
        assert!(matches!(
            assemble_sw(&prep, &dup),
            Err(EngineError::DuplicateTrial { idx: 0 })
        ));
        let mut foreign = recs.clone();
        foreign[0].idx = prep.plan.len();
        assert!(matches!(
            assemble_sw(&prep, &foreign),
            Err(EngineError::ForeignTrial { .. })
        ));
    }

    #[test]
    fn checkpoint_flush_interval_edges_resume_identically() {
        // K=1 flushes every record; K far above the plan size only
        // flushes at finish. Both must leave a checkpoint that resumes
        // to the single-shot assembled result.
        let dir = std::env::temp_dir().join(format!("relia_ckpt_edges_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CampaignCfg::new(4, 4, 3);
        let prep = prepare_uarch_campaign(&Va, &cfg, false);
        let single = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
        let expect = assemble_uarch(&prep, &single).unwrap();
        for every in [1usize, 10 * prep.plan.len()] {
            let path = dir.join(format!("k{every}.jsonl"));
            let interrupted = EngineCfg {
                checkpoint: Some(path.clone()),
                checkpoint_every: every,
                trial_limit: Some(5),
                ..EngineCfg::single_shot()
            };
            assert_eq!(execute_shard(&prep, &interrupted).unwrap().len(), 5);
            let resumed = EngineCfg {
                checkpoint_every: every,
                resume: Some(path.clone()),
                ..EngineCfg::single_shot()
            };
            let records = execute_shard(&prep, &resumed).unwrap();
            assert_eq!(records.len(), prep.plan.len());
            assert_eq!(assemble_uarch(&prep, &records).unwrap(), expect);
            assert_eq!(records_fingerprint(&records), records_fingerprint(&single));
            // The finished checkpoint alone also carries the result.
            let ck = crate::checkpoint::load_checkpoint(&path).unwrap();
            assert_eq!(assemble_uarch(&prep, &ck.records).unwrap(), expect);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_shard_submissions_dedupe_to_single_shot() {
        // Execute shard 1 of 3 twice (as two racing workers would after a
        // lease reassignment); the concatenation has duplicates, dedupe
        // collapses them, and assembly equals the single-shot result even
        // though the re-execution's wall_us values differ.
        let cfg = CampaignCfg::new(6, 6, 0xD15);
        let prep = prepare_sw_campaign(&Va, &cfg, false);
        let single = execute_shard(&prep, &EngineCfg::single_shot()).unwrap();
        let mut all = Vec::new();
        for i in 0..3 {
            all.extend(execute_shard(&prep, &EngineCfg::sharded(3, i)).unwrap());
        }
        all.extend(execute_shard(&prep, &EngineCfg::sharded(3, 1)).unwrap());
        assert!(
            assemble_sw(&prep, &all).is_err(),
            "raw concat has duplicates"
        );
        let deduped = dedupe_records(&all).unwrap();
        assert_eq!(
            assemble_sw(&prep, &deduped).unwrap(),
            assemble_sw(&prep, &single).unwrap()
        );
        assert_eq!(records_fingerprint(&deduped), records_fingerprint(&single));

        // A conflicting duplicate is corruption, never silently merged.
        let mut bad = single.clone();
        let mut evil = bad[0];
        evil.outcome = match evil.outcome {
            Outcome::Masked => Outcome::Sdc,
            _ => Outcome::Masked,
        };
        bad.push(evil);
        assert!(matches!(
            dedupe_records(&bad),
            Err(EngineError::ConflictingDuplicate { idx }) if idx == bad[0].idx
        ));
    }

    #[test]
    fn execute_trials_streams_every_record_exactly_once() {
        let cfg = CampaignCfg::new(5, 5, 0x7E57);
        let prep = prepare_sw_campaign(&Va, &cfg, false);
        let idxs: Vec<usize> = (0..prep.plan.len()).step_by(2).collect();
        let streamed = Mutex::new(Vec::new());
        let got = execute_trials(&prep, &idxs, |r| {
            streamed.lock().unwrap().push(*r);
            Ok(())
        })
        .unwrap();
        let mut streamed = streamed.into_inner().unwrap();
        streamed.sort_by_key(|r| r.idx);
        let mut got_sorted = got.clone();
        got_sorted.sort_by_key(|r| r.idx);
        assert_eq!(
            streamed, got_sorted,
            "sink saw exactly the returned records"
        );
        assert_eq!(
            streamed.iter().map(|r| r.idx).collect::<Vec<_>>(),
            idxs,
            "every requested index classified once"
        );
        // A sink error aborts the run.
        let err = execute_trials(&prep, &idxs, |_| Err(std::io::Error::other("sink down")));
        assert!(err.is_err());
    }

    #[test]
    fn trial_limit_executes_exactly_that_many() {
        let cfg = CampaignCfg::new(4, 4, 2);
        let prep = prepare_sw_campaign(&Va, &cfg, false);
        let eng = EngineCfg {
            trial_limit: Some(3),
            ..EngineCfg::single_shot()
        };
        assert_eq!(execute_shard(&prep, &eng).unwrap().len(), 3);
    }
}
