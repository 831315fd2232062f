//! Span timers with a per-phase profile.
//!
//! Each injection trial passes through a fixed set of phases; wall time
//! per phase is accumulated into global atomics, so aggregation across
//! rayon workers is free. Timing only happens while the registry switch
//! ([`crate::registry::enabled`]) is on — disabled runs execute the
//! closure directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::registry;

/// Campaign phases, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fault-free reference run of the application.
    GoldenRun = 0,
    /// Seed derivation, launch-window sampling, fault planning.
    FaultSetup = 1,
    /// The faulty end-to-end application run.
    FaultyRun = 2,
    /// Outcome classification and bookkeeping (counters, events).
    Classify = 3,
    /// Single-pass instrumented ACE/lifetime run (analytic estimator).
    AceRun = 4,
    /// Instrumented golden pass capturing fast-forward snapshots.
    SnapshotCapture = 5,
    /// Tracked golden pass building the replay liveness index.
    TraceCapture = 6,
}

impl Phase {
    pub const ALL: [Phase; 7] = [
        Phase::GoldenRun,
        Phase::FaultSetup,
        Phase::FaultyRun,
        Phase::Classify,
        Phase::AceRun,
        Phase::SnapshotCapture,
        Phase::TraceCapture,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Phase::GoldenRun => "golden_run",
            Phase::FaultSetup => "fault_setup",
            Phase::FaultyRun => "faulty_run",
            Phase::Classify => "classify",
            Phase::AceRun => "ace_run",
            Phase::SnapshotCapture => "snapshot_capture",
            Phase::TraceCapture => "trace_capture",
        }
    }
}

const N: usize = 7;

struct Profile {
    nanos: [AtomicU64; N],
    calls: [AtomicU64; N],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

static PROFILE: Profile = Profile {
    nanos: [ZERO; N],
    calls: [ZERO; N],
};

/// Run `f`, attributing its wall time to `phase` when observability is
/// enabled; otherwise just runs `f`.
pub fn time_phase<T>(phase: Phase, f: impl FnOnce() -> T) -> T {
    if !registry::enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    record(phase, t0.elapsed().as_nanos() as u64);
    out
}

/// Directly attribute `nanos` of wall time to `phase` (for call sites
/// that already measured).
pub fn record(phase: Phase, nanos: u64) {
    let i = phase as usize;
    PROFILE.nanos[i].fetch_add(nanos, Ordering::Relaxed);
    PROFILE.calls[i].fetch_add(1, Ordering::Relaxed);
    // Phase timings double as trace records while tracing is on (the
    // emit is a single relaxed load otherwise).
    crate::trace::emit(phase.label(), nanos / 1_000);
}

/// One phase's aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSnapshot {
    pub phase: Phase,
    pub calls: u64,
    pub total_ns: u64,
}

impl PhaseSnapshot {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Aggregates for all phases, in execution order.
pub fn phase_snapshot() -> Vec<PhaseSnapshot> {
    Phase::ALL
        .iter()
        .map(|&p| PhaseSnapshot {
            phase: p,
            calls: PROFILE.calls[p as usize].load(Ordering::Relaxed),
            total_ns: PROFILE.nanos[p as usize].load(Ordering::Relaxed),
        })
        .collect()
}

/// Zero all phase aggregates (tests).
pub fn reset() {
    for i in 0..N {
        PROFILE.nanos[i].store(0, Ordering::Relaxed);
        PROFILE.calls[i].store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_only_when_enabled() {
        let _guard = crate::testutil::lock();
        registry::set_enabled(false);
        reset();
        let v = time_phase(Phase::FaultyRun, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(phase_snapshot()[Phase::FaultyRun as usize].calls, 0);

        registry::set_enabled(true);
        let v = time_phase(Phase::FaultyRun, || 2 * 21);
        assert_eq!(v, 42);
        record(Phase::Classify, 1500);
        record(Phase::Classify, 500);
        let snap = phase_snapshot();
        let faulty = snap[Phase::FaultyRun as usize];
        assert_eq!(faulty.calls, 1);
        let classify = snap[Phase::Classify as usize];
        assert_eq!(classify.calls, 2);
        assert_eq!(classify.total_ns, 2000);
        assert!((classify.mean_us() - 1.0).abs() < 1e-12);
        registry::set_enabled(false);
        reset();
    }

    #[test]
    fn labels_cover_all_phases() {
        let labels: Vec<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec![
                "golden_run",
                "fault_setup",
                "faulty_run",
                "classify",
                "ace_run",
                "snapshot_capture",
                "trace_capture"
            ]
        );
    }
}
