//! The one adapter through which layer probes call the golden-pass
//! variants of `kernels` (plain timed/functional, snapshot capture,
//! trace capture, ACE). A change that merges those passes only has to
//! change this function.

use std::sync::Arc;
use std::time::Instant;

use kernels::{
    golden_run, golden_run_ace, golden_run_snapshots, AppSnapshots, Benchmark, GoldenRun, Variant,
};
use relia::DEFAULT_SNAPSHOTS;
use trace::AppTrace;
use vgpu_sim::GpuConfig;

/// Every golden pass of one application, each with its host time.
pub struct GoldenPasses {
    pub timed: GoldenRun,
    pub timed_s: f64,
    pub functional: GoldenRun,
    pub functional_s: f64,
    pub snaps: Arc<AppSnapshots>,
    pub snapshot_s: f64,
    pub trace: Arc<AppTrace>,
    pub trace_s: f64,
    pub ace_s: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

pub fn golden_passes(bench: &dyn Benchmark, gpu: &GpuConfig) -> GoldenPasses {
    let (timed_run, timed_s) = timed(|| golden_run(bench, gpu, Variant::TIMED));
    let (functional, functional_s) = timed(|| golden_run(bench, gpu, Variant::FUNCTIONAL));
    let (snaps, snapshot_s) =
        timed(|| golden_run_snapshots(bench, gpu, &timed_run, DEFAULT_SNAPSHOTS));
    let (trace, trace_s) = timed(|| trace::record_app_trace(bench, gpu, &timed_run));
    let (_, ace_s) = timed(|| std::hint::black_box(golden_run_ace(bench, gpu)));
    GoldenPasses {
        timed: timed_run,
        timed_s,
        functional,
        functional_s,
        snaps: Arc::new(snaps),
        snapshot_s,
        trace: Arc::new(trace),
        trace_s,
        ace_s,
    }
}
