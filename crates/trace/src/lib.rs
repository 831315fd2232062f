//! # trace — trace-driven replay backend for injection campaigns
//!
//! The timed engine simulates every trial cycle-by-cycle, even though
//! the overwhelming majority of uarch faults — especially in the large
//! cache arrays — land on bits that are overwritten (or never touched)
//! before anything reads them. This crate removes that waste without
//! giving up a single bit of fidelity:
//!
//! 1. **Record** ([`record_app_trace`]): the golden pass runs once per
//!    (app, config) with the lifetime tracker attached — the same pass
//!    the ACE estimator runs — which keeps every word's read-reached
//!    windows and each launch's CTA-slot timeline (`vgpu_sim::lifetime`).
//! 2. **Adjudicate** ([`AppTrace::adjudicate`]): for each trial, mirror
//!    the injector's site selection exactly, expand the fault pattern's
//!    footprint, and look the fault position up in the windows of every
//!    affected word. If no window holds it, every word is overwritten
//!    first (or never touched again): the trial is *provably masked* and
//!    its record is synthesized in microseconds. Reads, persistent
//!    faults, control-state faults, and sites outside the recorded run
//!    fall back to full timed re-execution — so replay output is
//!    byte-identical to the timed backend by construction.
//!
//! The engine-facing surface lives in `relia::campaign` (backend
//! selection); this crate is deliberately free of campaign and
//! observability dependencies so it can be tested in isolation.

pub mod replay;

pub use replay::{record_app_trace, AppTrace, FallbackReason, Verdict};
