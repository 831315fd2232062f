//! The three workloads and one timed repetition ("iteration") of each.
//!
//! Every campaign is a closed loop: `relia`'s trial threads each take
//! their next trial when the last one finishes, so the benchmark reports
//! work per second at a fixed campaign size, not latency under a rate.
//! An iteration plans, executes and assembles every campaign of the
//! workload; `avf_suite` also runs the ACE estimator after each one.

use std::net::TcpListener;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dispatch::{CampaignSpec, DispatchCfg, DispatchStats, ServeOutcome, WorkerCfg};
use kernels::Benchmark;
use relia::plan::{prepare_sw_campaign, prepare_uarch_campaign_structures, Layer};
use relia::{
    assemble_sw, assemble_uarch, execute_trials_with, records_fingerprint, CampaignCfg,
    EngineBackend, FastForward, PreparedCampaign, TrialRecord,
};
use vgpu_sim::{FaultPattern, GpuConfig, HwStructure};

use crate::spans::Spans;

/// Seed the benchmark's pinned reference results were recorded at.
pub const DEFAULT_SEED: u64 = 7;

/// Coordinator shards per fleet campaign.
pub const FLEET_SHARDS: usize = 4;
/// Loopback worker connections per fleet campaign.
pub const FLEET_WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AvfSuite,
    SvfSuite,
    AvfFleet,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::AvfSuite, Workload::SvfSuite, Workload::AvfFleet];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AvfSuite => "avf_suite",
            Workload::SvfSuite => "svf_suite",
            Workload::AvfFleet => "avf_fleet",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists (also printed with every result).
    pub fn why(self) -> &'static str {
        match self {
            Workload::AvfSuite => {
                "whole-suite AVF campaign on the replay backend: timed engine, snapshot and \
                 trace capture, and adjudication do most of their work here"
            }
            Workload::SvfSuite => {
                "whole-suite SVF campaign on the functional engine: AVF-side changes must \
                 leave it unchanged, shared op semantics show here"
            }
            Workload::AvfFleet => {
                "cache-only AVF campaigns through dispatch serve/work: simulation nearly \
                 vanishes, per-trial bookkeeping (plan, codec, TCP, journals) dominates"
            }
        }
    }

    /// Injections per (kernel, target) sub-campaign.
    pub fn n(self) -> usize {
        match self {
            Workload::AvfSuite => 40,
            Workload::SvfSuite => 24,
            Workload::AvfFleet => 40_000,
        }
    }

    pub fn layer(self) -> Layer {
        match self {
            Workload::SvfSuite => Layer::Sw,
            Workload::AvfSuite | Workload::AvfFleet => Layer::Uarch,
        }
    }

    pub fn backend(self) -> EngineBackend {
        match self {
            Workload::SvfSuite => EngineBackend::Timed,
            Workload::AvfSuite | Workload::AvfFleet => EngineBackend::Replay,
        }
    }

    pub fn structures(self) -> &'static [HwStructure] {
        match self {
            Workload::AvfFleet => &[HwStructure::L1T, HwStructure::L2],
            Workload::AvfSuite | Workload::SvfSuite => &HwStructure::ALL,
        }
    }

    /// The applications the workload runs, in suite order.
    pub fn benches(self) -> Vec<Box<dyn Benchmark>> {
        let all = kernels::all_benchmarks();
        match self {
            Workload::AvfFleet => all
                .into_iter()
                .filter(|b| ["VA", "PathFinder", "SCP"].contains(&b.name()))
                .collect(),
            Workload::AvfSuite | Workload::SvfSuite => all,
        }
    }

    /// Golden variant whose statistics the workload's plans rest on.
    pub fn golden_variant(self) -> &'static str {
        match self.layer() {
            Layer::Uarch => "timed",
            Layer::Sw => "functional",
        }
    }

    pub fn fast_forward(self) -> FastForward {
        FastForward {
            backend: self.backend(),
            ..FastForward::default()
        }
    }
}

/// The dispatch job spec of one campaign of `w` (every workload has one;
/// only `avf_fleet` runs through dispatch in its timed section).
pub fn spec_for(w: Workload, app: &str, seed: u64) -> CampaignSpec {
    CampaignSpec {
        app: app.to_string(),
        layer: w.layer(),
        n: w.n(),
        seed,
        sms: GpuConfig::default().num_sms,
        hardened: false,
        structures: (w.layer() == Layer::Uarch).then(|| w.structures().to_vec()),
        fault_model: FaultPattern::SingleBit,
        backend: w.backend(),
        wave: None,
    }
}

/// Plan one campaign of `w`: golden run plus the deterministic trial list.
pub fn prepare<'a>(w: Workload, bench: &'a dyn Benchmark, seed: u64) -> PreparedCampaign<'a> {
    let cfg = CampaignCfg::new(w.n(), w.n(), seed);
    match w {
        Workload::AvfSuite => prepare_uarch_campaign_structures(bench, &cfg, false, w.structures()),
        Workload::SvfSuite => prepare_sw_campaign(bench, &cfg, false),
        // The coordinator plans exactly as its workers will.
        Workload::AvfFleet => spec_for(w, bench.name(), seed).prepare(bench),
    }
}

/// One campaign of one iteration.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    pub app: String,
    pub plan_fp: u64,
    /// Sorted by plan index.
    pub records: Vec<TrialRecord>,
    pub records_fp: u64,
    pub trials: usize,
    /// Host seconds from the start of planning until the first record
    /// reached the benchmark (fleet: until `serve` was called).
    pub setup_s: f64,
    /// Host seconds of the whole campaign, set-up and assembly included.
    pub wall_s: f64,
    /// Why the engine (or dispatch) gave up, if it did.
    pub error: Option<String>,
    /// Dispatch counters (fleet campaigns only).
    pub dispatch: Option<DispatchStats>,
}

/// One timed repetition of a workload.
#[derive(Debug, Clone)]
pub struct Iteration {
    pub wall_s: f64,
    pub campaigns: Vec<CampaignRun>,
    /// Host seconds of the ACE estimate of each app (`avf_suite` only).
    pub ace_s: Vec<f64>,
}

impl Iteration {
    pub fn trials(&self) -> usize {
        self.campaigns.iter().map(|c| c.trials).sum()
    }

    pub fn setup_s(&self) -> f64 {
        self.campaigns.iter().map(|c| c.setup_s).sum()
    }

    pub fn ace_s(&self) -> f64 {
        self.ace_s.iter().sum()
    }
}

/// Execute `idxs` of a prepared plan, recording an `execute` span with a
/// `sink` child per record (traced runs) and the time the first record
/// reached the sink.
pub fn execute_recorded(
    prep: &PreparedCampaign,
    ff: FastForward,
    idxs: &[usize],
    spans: &Spans,
    parent: u64,
    campaign: u64,
) -> (std::io::Result<Vec<TrialRecord>>, Option<Instant>) {
    let first: OnceLock<Instant> = OnceLock::new();
    let res = spans.within("execute", parent, campaign, &prep.plan.app, |eid| {
        execute_trials_with(prep, ff, idxs, |_rec| {
            first.get_or_init(Instant::now);
            if spans.enabled() {
                spans.within("sink", eid, campaign, "", |_| ());
            }
            Ok(())
        })
    });
    (res, first.into_inner())
}

/// Serve `plan` to [`FLEET_WORKERS`] in-process workers over loopback,
/// journaling shards under `journal_dir`.
pub fn dispatch_campaign(
    prep: &PreparedCampaign,
    spec: &CampaignSpec,
    journal_dir: &Path,
    spans: &Spans,
    parent: u64,
    campaign: u64,
) -> Result<ServeOutcome, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let dcfg = DispatchCfg {
        shards: FLEET_SHARDS,
        lease: Duration::from_secs(30),
        backoff: Duration::from_millis(50),
        max_backoff: Duration::from_secs(1),
        wait_ms: 10,
        out_dir: Some(journal_dir.to_path_buf()),
        telemetry: None,
    };
    let (served, workers) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..FLEET_WORKERS)
            .map(|i| {
                let addr = &addr;
                s.spawn(move || {
                    let name = format!("w{i}");
                    spans.within("work", parent, campaign, &name, |_| {
                        dispatch::work(
                            addr,
                            &WorkerCfg {
                                name: name.clone(),
                                ..WorkerCfg::default()
                            },
                        )
                    })
                })
            })
            .collect();
        let served = spans.within("serve", parent, campaign, &prep.plan.app, |_| {
            dispatch::serve(listener, &prep.plan, spec, &dcfg)
        });
        let workers: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (served, workers)
    });
    let outcome = served.map_err(|e| format!("serve: {e}"))?;
    for w in workers {
        match w {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => return Err(format!("work: {e}")),
            Err(_) => return Err("worker thread panicked".into()),
        }
    }
    Ok(outcome)
}

/// One iteration of workload `w`: every app in turn is planned,
/// executed and assembled (and, in `avf_suite`, ACE-estimated). The
/// suite workloads execute in-process on all trial threads; `avf_fleet`
/// serves each plan to loopback workers that plan, capture and execute
/// on their own, journaling shards under `scratch`.
pub fn run_iteration(
    w: Workload,
    seed: u64,
    benches: &[Box<dyn Benchmark>],
    spans: &Spans,
    scratch: &Path,
) -> Iteration {
    let t0 = Instant::now();
    let root = spans.open("iteration", 0, 0, w.name());
    let mut campaigns = Vec::with_capacity(benches.len());
    let mut ace_s = Vec::new();
    let gpu = GpuConfig::default();
    for b in benches {
        let bench = b.as_ref();
        let cid = spans.fresh_id();
        let camp = spans.open("campaign", root.id, cid, bench.name());
        let c0 = Instant::now();
        let prep = spans.within("prepare", camp.id, cid, bench.name(), |_| {
            prepare(w, bench, seed)
        });
        let journal = scratch.join(format!("journal-{}", bench.name()));
        let (records, setup_s, dispatch, mut error) = if w == Workload::AvfFleet {
            // Records arrive inside `serve`: set-up is what precedes it.
            let setup_s = c0.elapsed().as_secs_f64();
            let spec = spec_for(w, bench.name(), seed);
            match dispatch_campaign(&prep, &spec, &journal, spans, camp.id, cid) {
                Ok(d) => (d.records, setup_s, Some(d.stats), None),
                Err(e) => (Vec::new(), setup_s, None, Some(e)),
            }
        } else {
            let idxs: Vec<usize> = (0..prep.plan.len()).collect();
            let (res, first) =
                execute_recorded(&prep, w.fast_forward(), &idxs, spans, camp.id, cid);
            let setup_s = first
                .unwrap_or_else(Instant::now)
                .duration_since(c0)
                .as_secs_f64();
            match res {
                Ok(mut r) => {
                    r.sort_by_key(|r| r.idx);
                    (r, setup_s, None, None)
                }
                Err(e) => (Vec::new(), setup_s, None, Some(format!("execute: {e}"))),
            }
        };
        let assembled = spans.within("assemble", camp.id, cid, bench.name(), |_| {
            match w.layer() {
                Layer::Uarch => assemble_uarch(&prep, &records).map(drop),
                Layer::Sw => assemble_sw(&prep, &records).map(drop),
            }
        });
        if let (Err(e), None) = (&assembled, &error) {
            error = Some(format!("assemble: {e}"));
        }
        spans.close(camp);
        let wall_s = c0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&journal);
        campaigns.push(CampaignRun {
            app: bench.name().to_string(),
            plan_fp: prep.plan.fingerprint(),
            records_fp: records_fingerprint(&records),
            trials: prep.plan.len(),
            setup_s,
            wall_s,
            records,
            error,
            dispatch,
        });
        if w == Workload::AvfSuite {
            // The ACE estimate of the app just injected: the analytic half
            // of the two-level pairing, run beside each AVF campaign.
            let a0 = Instant::now();
            spans.within("estimate", root.id, cid, bench.name(), |_| {
                std::hint::black_box(ace::estimate_app(bench, &gpu));
            });
            ace_s.push(a0.elapsed().as_secs_f64());
        }
    }
    spans.close(root);
    Iteration {
        wall_s: t0.elapsed().as_secs_f64(),
        campaigns,
        ace_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_follow_the_seed_and_only_the_seed() {
        let va = kernels::apps::va::Va;
        for w in Workload::ALL {
            let fp = |seed| prepare(w, &va, seed).plan.fingerprint();
            assert_eq!(fp(DEFAULT_SEED), fp(DEFAULT_SEED), "{}", w.name());
            assert_ne!(fp(DEFAULT_SEED), fp(DEFAULT_SEED + 1), "{}", w.name());
            assert_ne!(fp(1), fp(2), "{}", w.name());
        }
    }

    #[test]
    fn workloads_round_trip_their_names() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }
}
