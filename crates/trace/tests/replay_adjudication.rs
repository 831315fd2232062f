//! End-to-end soundness of trace-based deadness adjudication.
//!
//! The replay backend's correctness rests on one claim: when the
//! adjudicator says `Dead`, the real timed faulty run would have been
//! bit-identical to golden — outcome `Masked`, golden total cost, zero
//! corrupted words. This test records a real application trace and
//! cross-checks every `Dead` verdict against the actual simulator, over
//! all five storage structures, several fault cycles, and multiple
//! transient patterns. A single disagreement is an unsound trace index
//! and fails loudly.

use kernels::apps::{bfs::Bfs, nw::Nw, pathfinder::PathFinder, va::Va};
use kernels::{faulty_run, golden_run, Benchmark, Outcome, PlannedFault, Variant};
use relia::{prepare_uarch_campaign, CampaignCfg};
use trace::{record_app_trace, FallbackReason, Verdict};
use vgpu_sim::{FaultPattern, GpuConfig, HwStructure, UarchFault};

fn probe_cycles(total: u64) -> Vec<u64> {
    vec![
        0,
        total / 3,
        total / 2,
        total * 9 / 10,
        total.saturating_sub(1),
    ]
}

#[test]
fn dead_verdicts_are_bit_identical_to_golden() {
    let b = Va;
    let cfg = GpuConfig::volta_scaled(2);
    let golden = golden_run(&b, &cfg, Variant::TIMED);
    let trace = record_app_trace(&b, &cfg, &golden);

    assert_eq!(trace.num_launches(), golden.records.len());
    for (k, rec) in golden.records.iter().enumerate() {
        let li = trace.launch(k).expect("launch recorded");
        assert_eq!(li.cycles, rec.stats.cycles, "launch {k} cycle mismatch");
        assert!(li.warps() > 0);
    }
    assert!(trace.bytes > 0);

    let patterns = [
        FaultPattern::SingleBit,
        FaultPattern::WholeEntry,
        FaultPattern::BurstRow,
    ];
    let mut dead = 0u32;
    let mut fell_back = 0u32;
    let mut checked = 0u32;
    for target in 0..golden.records.len() {
        let launch_cycles = golden.records[target].stats.cycles;
        for structure in HwStructure::ALL {
            let mut checked_here = 0u32;
            for (i, cycle) in probe_cycles(launch_cycles).into_iter().enumerate() {
                for pattern in patterns {
                    let fault = UarchFault {
                        cycle,
                        structure,
                        loc_pick: 0x9e37_79b9_7f4a_7c15u64
                            .wrapping_mul(i as u64 + 1)
                            .wrapping_add(pattern as u64),
                        bit: (i as u8 * 7) % 32,
                        pattern,
                    };
                    match trace.adjudicate(&cfg, target, &fault) {
                        Verdict::Dead { population } => {
                            dead += 1;
                            // Cross-checking every dead verdict against a
                            // full simulation would dominate test time;
                            // a few per structure catch systematic bugs.
                            if checked_here >= 4 {
                                continue;
                            }
                            checked_here += 1;
                            checked += 1;
                            let r = faulty_run(
                                &b,
                                &cfg,
                                Variant::TIMED,
                                &golden,
                                target,
                                PlannedFault::Uarch(fault),
                            );
                            let tag = format!(
                                "{} launch {target} {structure:?} cycle {cycle} {pattern:?}",
                                b.name()
                            );
                            assert_eq!(r.outcome, Outcome::Masked, "{tag}");
                            assert_eq!(r.total_cost, golden.total_cost, "{tag}");
                            assert_eq!(r.corrupted_words, 0, "{tag}");
                            assert_eq!(r.applied, population > 0, "{tag}");
                        }
                        Verdict::Fallback { reason, warps } => {
                            fell_back += 1;
                            assert_ne!(
                                reason,
                                FallbackReason::NoTrace,
                                "in-range fault must never be NoTrace"
                            );
                            assert!(warps > 0);
                        }
                    }
                }
            }
        }
    }
    // The speedup premise: a meaningful share of uniformly-probed
    // transient faults adjudicate dead without simulation.
    assert!(checked > 0, "no dead verdict was cross-checked");
    assert!(
        dead > 0 && fell_back > 0,
        "degenerate adjudication split: dead={dead} fallback={fell_back}"
    );
}

/// Per-structure `[dead, live_word, no_trace]` verdict counts
/// (`HwStructure::ALL` order) for one app under one fault pattern.
type VerdictPin = (&'static str, FaultPattern, [[u32; 3]; 5]);

#[rustfmt::skip]
const VERDICT_PINS: [VerdictPin; 8] = [
    ("VA", FaultPattern::SingleBit, [[100, 100, 0], [200, 0, 0], [188, 12, 0], [200, 0, 0], [193, 7, 0]]),
    ("VA", FaultPattern::BurstRow, [[100, 100, 0], [200, 0, 0], [188, 12, 0], [200, 0, 0], [193, 7, 0]]),
    ("PathFinder", FaultPattern::SingleBit, [[82, 118, 0], [187, 13, 0], [187, 13, 0], [200, 0, 0], [198, 2, 0]]),
    ("PathFinder", FaultPattern::BurstRow, [[77, 123, 0], [187, 13, 0], [180, 20, 0], [200, 0, 0], [198, 2, 0]]),
    ("NW", FaultPattern::SingleBit, [[309, 91, 0], [353, 47, 0], [385, 15, 0], [400, 0, 0], [383, 17, 0]]),
    ("NW", FaultPattern::BurstRow, [[228, 172, 0], [274, 126, 0], [332, 68, 0], [400, 0, 0], [381, 19, 0]]),
    ("BFS", FaultPattern::SingleBit, [[369, 31, 0], [400, 0, 0], [367, 33, 0], [400, 0, 0], [377, 23, 0]]),
    ("BFS", FaultPattern::BurstRow, [[297, 103, 0], [400, 0, 0], [288, 112, 0], [400, 0, 0], [377, 23, 0]]),
];

/// Adjudicate every trial of a fixed uarch campaign plan (single-bit and
/// burst-row footprints over the same coordinates) and pin the exact
/// verdict split. Any change to how liveness is computed must reproduce
/// these decisions trial for trial in aggregate.
#[test]
fn verdict_counts_over_a_fixed_plan_are_pinned() {
    let cfg = CampaignCfg::new(200, 0, 0x5EED_7ACE);
    let apps: [Box<dyn Benchmark>; 4] = [
        Box::new(Va),
        Box::new(PathFinder),
        Box::new(Nw),
        Box::new(Bfs),
    ];
    let mut got = Vec::new();
    for b in &apps {
        let prep = prepare_uarch_campaign(b.as_ref(), &cfg, false);
        let trace = record_app_trace(b.as_ref(), &cfg.gpu, &prep.golden);
        for pattern in [FaultPattern::SingleBit, FaultPattern::BurstRow] {
            let mut counts = [[0u32; 3]; 5];
            for t in &prep.plan.trials {
                let Some((ordinal, PlannedFault::Uarch(u))) = t.fault else {
                    continue;
                };
                let fault = UarchFault { pattern, ..u };
                let slot = match trace.adjudicate(&cfg.gpu, ordinal, &fault) {
                    Verdict::Dead { .. } => 0,
                    Verdict::Fallback {
                        reason: FallbackReason::LiveWord,
                        ..
                    } => 1,
                    Verdict::Fallback {
                        reason: FallbackReason::NoTrace,
                        ..
                    } => 2,
                    v => panic!("{} {fault:?}: unexpected verdict {v:?}", b.name()),
                };
                counts[fault.structure as usize][slot] += 1;
            }
            got.push((b.name(), pattern, counts));
        }
    }
    assert_eq!(got, VERDICT_PINS);
}
