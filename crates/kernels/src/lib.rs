//! # kernels — the benchmark suite of the CLUSTER'24 reproduction
//!
//! Mini but faithful re-implementations of the paper's 11 applications /
//! 23 kernels from the CUDA SDK and Rodinia suites, written in the
//! [`vgpu_arch`] ISA and driven by a host harness that supports golden
//! runs, statistical fault injection, and thread-level TMR hardening:
//!
//! | App | Kernels | Origin | Domain |
//! |-----|---------|--------|--------|
//! | SRADv1 | 6 | Rodinia | image processing (speckle-reducing anisotropic diffusion) |
//! | SRADv2 | 2 | Rodinia | image processing (tiled variant) |
//! | K-Means | 2 | Rodinia | data mining |
//! | HotSpot | 1 | Rodinia | physics simulation (thermal stencil) |
//! | LUD | 3 | Rodinia | linear algebra (LU decomposition) |
//! | SCP | 1 | CUDA SDK | linear algebra (scalar products) |
//! | VA | 1 | CUDA SDK | vector add |
//! | NW | 2 | Rodinia | bioinformatics (Needleman-Wunsch) |
//! | PathFinder | 1 | Rodinia | grid dynamic programming |
//! | BackProp | 2 | Rodinia | machine learning |
//! | BFS | 2 | Rodinia | graph traversal |
//!
//! Inputs are scaled down (Section 2 of DESIGN.md) so that statistical
//! campaigns finish on one machine, while preserving each benchmark's
//! control/data-flow character and resource-utilization profile.

pub mod apps;
pub mod harness;
pub mod kutil;
pub mod tmr;

pub use harness::{
    faulty_run, faulty_run_ff, golden_run, golden_run_ace, golden_run_snapshots,
    verify_snapshot_resume, AceGoldenRun, AppAbort, AppSnapshots, Benchmark, GoldenRun,
    LaunchRecord, Outcome, PlannedFault, RunCtl, RunResult, Variant,
};

/// All 11 benchmarks in the paper's figure order.
pub fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(apps::sradv1::SradV1),
        Box::new(apps::sradv2::SradV2),
        Box::new(apps::kmeans::KMeans),
        Box::new(apps::hotspot::HotSpot),
        Box::new(apps::lud::Lud),
        Box::new(apps::scp::Scp),
        Box::new(apps::va::Va),
        Box::new(apps::nw::Nw),
        Box::new(apps::pathfinder::PathFinder),
        Box::new(apps::backprop::BackProp),
        Box::new(apps::bfs::Bfs),
    ]
}

/// Total kernel count across the suite (the paper's 23).
pub fn total_kernels() -> usize {
    all_benchmarks().iter().map(|b| b.kernels().len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_paper_inventory() {
        let benches = all_benchmarks();
        assert_eq!(benches.len(), 11, "11 applications");
        assert_eq!(total_kernels(), 23, "23 kernels");
        let names: Vec<_> = benches.iter().map(|b| b.name()).collect();
        for expect in [
            "SRADv1",
            "SRADv2",
            "K-Means",
            "HotSpot",
            "LUD",
            "SCP",
            "VA",
            "NW",
            "PathFinder",
            "BackProp",
            "BFS",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }
}
