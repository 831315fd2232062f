//! # vgpu-sim — a cycle-level SIMT GPU simulator with fault-injection hooks
//!
//! This crate is the microarchitecture substrate of the CLUSTER'24
//! reproduction: a GPGPU-Sim-class simulator of a Volta-like GPU. It models
//! the five hardware structures the paper injects faults into — register
//! files, shared memory, L1 data caches, L1 texture caches, and the L2 —
//! as *bit-addressable, data-holding* arrays, so that a single flipped bit
//! propagates (or is masked) exactly the way the cross-layer AVF
//! methodology requires.
//!
//! Two execution engines share one instruction interpreter:
//!
//! * **Timed** ([`Mode::Timed`]) — SMs with greedy-then-oldest warp
//!   scheduling, latency-based stalling, MSHR-backed caches, CTA
//!   occupancy limits, and cycle statistics. Microarchitecture-level
//!   faults ([`UarchFault`]) are applied at a chosen cycle.
//! * **Functional** ([`Mode::Functional`]) — hardware-agnostic execution
//!   straight against device memory, used for software-level (NVBitFI
//!   model) injections ([`SwFault`]). This engine is what makes SVF
//!   campaigns two orders of magnitude faster than AVF campaigns, as the
//!   paper's footnote 1 reports.
//!
//! The entry point is [`Gpu`].

pub mod cache;
pub mod config;
pub mod due;
pub mod exec;
pub mod fault;
pub mod functional;
pub mod gpu;
pub mod lifetime;
pub mod mem;
pub mod snapshot;
pub mod stats;
pub mod timed;
pub mod warp;

pub use config::{CacheGeom, GpuConfig, Latencies};
pub use due::DueKind;
pub use fault::{
    apply_stuck, pattern_footprint, value_mask, FaultPattern, HwStructure, StuckCache, StuckSite,
    SwFault, SwFaultKind, SwInjector, SwStuck, UarchFault, UarchInjector, BURST_COL_ROWS,
};
pub use gpu::{Budget, FaultPlan, Gpu, LaunchAbort, Mode};
pub use lifetime::{LaunchGeometry, LaunchTrace, LifetimeTracker, Liveness};
pub use mem::{ArenaPlanner, GlobalMem};
pub use snapshot::{ConvergeWith, DeviceSnapshot, ResumeOutcome, SimSnapshot};
pub use stats::{CacheStats, Stats};
