//! Replay-side deadness adjudication against the golden liveness index.
//!
//! An [`AppTrace`] is one application's [`Liveness`] index, recorded by
//! the lifetime tracker in one instrumented golden pass: every word's
//! read-reached windows, plus each launch's occupancy geometry and CTA
//! slot timeline.
//!
//! The replay engine's core question, for one transient uarch fault, is:
//! *is every bit of the fault footprint provably dead?* A flipped word is
//! dead when the fault position lies in none of the word's windows: the
//! next touch of the word is a write (the corruption is overwritten before
//! anything reads it), or nothing touches it again (final outputs reach
//! the host only through tracked host reads). In either case the faulty
//! execution is bit-identical to golden — outcome `Masked`, `total_cost`
//! equal to golden's — so the trial record can be synthesized without
//! simulating a single cycle. Anything else (a read reaches the
//! corruption, a persistent fault, control state, a site outside the
//! recorded run) falls back to full re-execution, which is what keeps
//! replay byte-identical to the timed backend by construction.
//!
//! The fault applies at the *top* of its cycle, before issue, so touches
//! in the fault's own cycle count as post-fault; a read and a write of
//! one word in one cycle count as read first (`vgpu_sim::lifetime`).

use kernels::{Benchmark, GoldenRun};
use vgpu_arch::WARP_SIZE;
use vgpu_sim::{pattern_footprint, GpuConfig, HwStructure, LaunchTrace, Liveness, UarchFault};

/// Why a trial could not be adjudicated dead and must re-execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Some footprint word is read before being overwritten.
    LiveWord,
    /// Stuck-at faults re-assert every cycle; overwrites don't clear them.
    Persistent,
    /// SIMT-stack / scheduler faults disturb control, not data.
    ControlState,
    /// No usable trace for the target site (missing launch, out-of-range
    /// cycle, incompatible line geometry).
    NoTrace,
}

impl FallbackReason {
    pub const ALL: [FallbackReason; 4] = [
        FallbackReason::LiveWord,
        FallbackReason::Persistent,
        FallbackReason::ControlState,
        FallbackReason::NoTrace,
    ];

    /// Stable label (metrics dimension).
    pub fn label(&self) -> &'static str {
        match self {
            FallbackReason::LiveWord => "live_word",
            FallbackReason::Persistent => "persistent",
            FallbackReason::ControlState => "control_state",
            FallbackReason::NoTrace => "no_trace",
        }
    }
}

/// Adjudication result for one (launch, fault) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every footprint bit is overwritten (or never touched) before any
    /// read: the faulty run is bit-identical to golden. `population` is
    /// exactly what the injector would have reported (0 means the fault
    /// landed on an empty structure and `applied` must be false).
    Dead { population: u64 },
    /// Must re-execute with the timed engine; `warps` is the launch's
    /// warp count (0 when unknown), for re-execution accounting.
    Fallback { reason: FallbackReason, warps: u64 },
}

/// One application's liveness index, ready for adjudication.
pub struct AppTrace {
    liveness: Liveness,
    /// In-memory size of the index.
    pub bytes: u64,
}

/// Record the replay trace for one application: run the golden pass with
/// the lifetime tracker attached ([`kernels::golden_run_ace`], the same
/// pass the ACE estimator runs) and keep its liveness index. The tracked
/// pass is asserted bit-identical (outputs, costs, per-launch stats) to the
/// already-captured `golden` baseline, so a trace can never silently
/// desynchronise from the run it claims to describe.
pub fn record_app_trace(bench: &dyn Benchmark, cfg: &GpuConfig, golden: &GoldenRun) -> AppTrace {
    let run = kernels::golden_run_ace(bench, cfg);
    let name = bench.name();
    assert_eq!(
        run.golden.output, golden.output,
        "tracked pass of {name} diverged from golden output"
    );
    assert_eq!(run.golden.total_cost, golden.total_cost);
    assert_eq!(run.golden.records.len(), golden.records.len());
    for (t, p) in run.golden.records.iter().zip(&golden.records) {
        assert_eq!(
            t.stats, p.stats,
            "tracked pass of {name} diverged from golden stats"
        );
    }
    AppTrace::new(run.liveness)
}

impl AppTrace {
    fn new(liveness: Liveness) -> AppTrace {
        let bytes = liveness.bytes();
        AppTrace { liveness, bytes }
    }

    /// Number of recorded launches.
    pub fn num_launches(&self) -> usize {
        self.liveness.launches().len()
    }

    /// What the tracker recorded about launch ordinal `k`.
    pub fn launch(&self, k: usize) -> Option<&LaunchTrace> {
        self.liveness.launches().get(k)
    }

    /// Decide whether the trial `(launch ordinal, fault)` can be
    /// adjudicated dead from the liveness index alone. Mirrors the
    /// injector's site selection (`apply_uarch`) exactly: same population
    /// walk over live CTA slots, same footprint expansion, same array
    /// geometry.
    pub fn adjudicate(&self, cfg: &GpuConfig, ordinal: usize, fault: &UarchFault) -> Verdict {
        let Some(li) = self.launch(ordinal) else {
            return Verdict::Fallback {
                reason: FallbackReason::NoTrace,
                warps: 0,
            };
        };
        let warps = li.warps();
        let fallback = |reason| Verdict::Fallback { reason, warps };
        if fault.pattern.is_persistent() {
            return fallback(FallbackReason::Persistent);
        }
        let h = fault.structure;
        if matches!(h, HwStructure::Simt | HwStructure::Sched) {
            return fallback(FallbackReason::ControlState);
        }
        let c = fault.cycle;
        if c >= li.cycles {
            // The engine would idle-forward to the fault cycle and apply
            // the fault in post-launch state we did not model; punt.
            return fallback(FallbackReason::NoTrace);
        }
        let live = |inst: usize, word: u64| self.liveness.is_live(h, inst, word, li, c);
        match h {
            HwStructure::RegFile | HwStructure::Smem => {
                let is_rf = h == HwStructure::RegFile;
                let g = &li.geom;
                let per_cta = u64::from(if is_rf {
                    g.regs_per_cta
                } else {
                    g.smem_words_per_cta
                });
                let occupied = li.occupied_slots(cfg.num_sms as usize, c);
                let live_slots: u64 = occupied
                    .iter()
                    .map(|sm| sm.iter().filter(|&&x| x).count() as u64)
                    .sum();
                let population = live_slots * per_cta;
                if population == 0 {
                    return Verdict::Dead { population: 0 };
                }
                let mut target = fault.loc_pick % population;
                let mut site = None;
                'walk: for (smi, sm) in occupied.iter().enumerate() {
                    for (slot_idx, &occ) in sm.iter().enumerate() {
                        if !occ {
                            continue;
                        }
                        if target < per_cta {
                            site = Some((smi, slot_idx as u64 * per_cta + target));
                            break 'walk;
                        }
                        target -= per_cta;
                    }
                }
                let (smi, idx) = site.expect("population walk must land");
                let arr_len = u64::from(if is_rf {
                    cfg.rf_regs_per_sm
                } else {
                    cfg.smem_bytes_per_sm / 4
                });
                let footprint =
                    pattern_footprint(fault.pattern, idx, fault.bit, arr_len, 32, WARP_SIZE as u64);
                if footprint.iter().any(|&(e, _)| live(smi, e)) {
                    return fallback(FallbackReason::LiveWord);
                }
                Verdict::Dead { population }
            }
            HwStructure::L1D | HwStructure::L1T | HwStructure::L2 => {
                let (geom, count) = match h {
                    HwStructure::L1D => (&cfg.l1d, u64::from(cfg.num_sms)),
                    HwStructure::L1T => (&cfg.l1t, u64::from(cfg.num_sms)),
                    _ => (&cfg.l2, 1),
                };
                let line_words = u64::from(cfg.l2.line_bytes / 4);
                if u64::from(geom.line_bytes / 4) > line_words {
                    // The tracker addresses cache words as
                    // `frame * (l2_line_bytes / 4) + offset`; a larger
                    // line would alias frames, so refuse to adjudicate.
                    return fallback(FallbackReason::NoTrace);
                }
                let per = u64::from(geom.bytes);
                let population = per * count * 8;
                let byte = fault.loc_pick % (per * count);
                let which = (byte / per) as usize;
                let row = u64::from(geom.line_bytes);
                let mut words: Vec<u64> =
                    pattern_footprint(fault.pattern, byte % per, fault.bit, per, 8, row)
                        .iter()
                        .map(|(b, _)| (b / row) * line_words + (b % row) / 4)
                        .collect();
                words.sort_unstable();
                words.dedup();
                if words.into_iter().any(|w| live(which, w)) {
                    return fallback(FallbackReason::LiveWord);
                }
                Verdict::Dead { population }
            }
            HwStructure::Simt | HwStructure::Sched => unreachable!("handled above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu_sim::{FaultPattern, LaunchGeometry, LifetimeTracker};

    fn geom() -> LaunchGeometry {
        LaunchGeometry {
            warps_per_cta: 2,
            regs_per_cta: 64,
            smem_words_per_cta: 8,
            slots_per_sm: 2,
            total_ctas: 3,
        }
    }

    /// Build an [`AppTrace`] by driving the lifetime-tracker hooks the
    /// timed engine calls, exactly as a golden pass would.
    fn trace_from_hooks(drive: impl FnOnce(&mut LifetimeTracker)) -> AppTrace {
        let mut tr = LifetimeTracker::new(&cfg());
        drive(&mut tr);
        AppTrace::new(tr.finish(|_| false).1)
    }

    /// One launch (geometry: 2 warps and 64 registers per CTA, 2 slots
    /// per SM, 3 CTAs; 10 cycles): SM0 slot0 lives [0, end), SM0 slot1
    /// filled at retire of cycle 4 (live from 5). RF word 10 written at
    /// t=2, read at t=6; RF word 20 written at t=3, never read; word 30
    /// untouched after the zero-fill. The host then reads L2 word 5.
    fn tiny_trace() -> AppTrace {
        trace_from_hooks(|tr| {
            tr.launch_begin(geom());
            tr.cta_fill(0, 0, 64, 0, 8, 0);
            tr.slot_fill(0, 0, 0, true);
            tr.reg_write(0, 10, 2);
            tr.reg_write(0, 20, 3);
            tr.cta_fill(0, 64, 64, 8, 8, 4);
            tr.slot_fill(0, 1, 4, false);
            tr.reg_read(0, 10, 6);
            tr.launch_end(10);
            tr.advance_base(10);
            tr.host_peek(0, 5);
        })
    }

    fn rf_fault(cycle: u64, loc_pick: u64) -> UarchFault {
        UarchFault {
            cycle,
            structure: HwStructure::RegFile,
            loc_pick,
            bit: 3,
            pattern: FaultPattern::SingleBit,
        }
    }

    fn cfg() -> GpuConfig {
        GpuConfig::default()
    }

    #[test]
    fn read_after_flip_is_live() {
        let tr = tiny_trace();
        // Only slot 0 lives at cycle 3 → population 64, idx == loc_pick.
        match tr.adjudicate(&cfg(), 0, &rf_fault(3, 10)) {
            Verdict::Fallback {
                reason: FallbackReason::LiveWord,
                warps,
            } => assert_eq!(warps, 6),
            v => panic!("expected live fallback, got {v:?}"),
        }
    }

    #[test]
    fn overwrite_before_read_is_dead() {
        let tr = tiny_trace();
        // Flip word 10 at cycle 1: write at t=2 kills it before the t=6
        // read. Flip word 20 at cycle 1: write at t=3 kills it. Both dead.
        for w in [10, 20] {
            assert_eq!(
                tr.adjudicate(&cfg(), 0, &rf_fault(1, w)),
                Verdict::Dead { population: 64 }
            );
        }
    }

    #[test]
    fn flip_at_write_cycle_counts_post_fault() {
        let tr = tiny_trace();
        // Fault applies at the top of cycle 2; the write at t=2 happens
        // after it and overwrites the flip.
        assert_eq!(
            tr.adjudicate(&cfg(), 0, &rf_fault(2, 10)),
            Verdict::Dead { population: 64 }
        );
        // At cycle 3 the write is past; the t=6 read consumes the flip.
        assert!(matches!(
            tr.adjudicate(&cfg(), 0, &rf_fault(3, 10)),
            Verdict::Fallback {
                reason: FallbackReason::LiveWord,
                ..
            }
        ));
    }

    #[test]
    fn untouched_word_is_dead() {
        let tr = tiny_trace();
        assert_eq!(
            tr.adjudicate(&cfg(), 0, &rf_fault(3, 30)),
            Verdict::Dead { population: 64 }
        );
    }

    #[test]
    fn mid_run_slot_fill_extends_population() {
        let tr = tiny_trace();
        // At cycle 4 only slot 0 is live (fill at t=4 is effective from
        // 5); at cycle 5 both slots are live and the zero-fill makes the
        // second slot's words dead.
        assert_eq!(
            tr.adjudicate(&cfg(), 0, &rf_fault(4, 70)),
            Verdict::Dead { population: 64 }
        );
        assert_eq!(
            tr.adjudicate(&cfg(), 0, &rf_fault(5, 70)),
            Verdict::Dead { population: 128 }
        );
    }

    #[test]
    fn persistent_and_control_faults_fall_back() {
        let tr = tiny_trace();
        let mut f = rf_fault(1, 0);
        f.pattern = FaultPattern::StuckAt1;
        assert!(matches!(
            tr.adjudicate(&cfg(), 0, &f),
            Verdict::Fallback {
                reason: FallbackReason::Persistent,
                ..
            }
        ));
        let mut f = rf_fault(1, 0);
        f.structure = HwStructure::Simt;
        assert!(matches!(
            tr.adjudicate(&cfg(), 0, &f),
            Verdict::Fallback {
                reason: FallbackReason::ControlState,
                ..
            }
        ));
    }

    #[test]
    fn missing_launch_and_late_cycle_fall_back() {
        let tr = tiny_trace();
        assert!(matches!(
            tr.adjudicate(&cfg(), 7, &rf_fault(0, 0)),
            Verdict::Fallback {
                reason: FallbackReason::NoTrace,
                warps: 0,
            }
        ));
        assert!(matches!(
            tr.adjudicate(&cfg(), 0, &rf_fault(10, 0)),
            Verdict::Fallback {
                reason: FallbackReason::NoTrace,
                ..
            }
        ));
    }

    #[test]
    fn host_read_keeps_l2_word_live() {
        let tr = trace_from_hooks(|tr| {
            tr.launch_begin(geom());
            tr.slot_fill(0, 0, 0, true);
            tr.cache_write(HwStructure::L2, 0, 0, 5, 1);
            tr.launch_end(10);
            tr.advance_base(10);
            tr.host_peek(0, 5);
        });
        let c = cfg();
        // L2 frame 0, word 5 → byte offset 20 of the data array. The
        // host read after the launch is the first touch after cycle 2.
        let f = UarchFault {
            cycle: 2,
            structure: HwStructure::L2,
            loc_pick: 20,
            bit: 0,
            pattern: FaultPattern::SingleBit,
        };
        assert!(matches!(
            tr.adjudicate(&c, 0, &f),
            Verdict::Fallback {
                reason: FallbackReason::LiveWord,
                ..
            }
        ));
        // A neighbouring untouched word is dead.
        let f2 = UarchFault { loc_pick: 24, ..f };
        assert!(matches!(tr.adjudicate(&c, 0, &f2), Verdict::Dead { .. }));
    }

    #[test]
    fn same_cycle_read_and_write_is_live() {
        // A fill (write) and a read of the same word in one cycle: the
        // read sorts first, so a flip landing at or before that cycle —
        // after the previous write — is conservatively live.
        let tr = trace_from_hooks(|tr| {
            tr.launch_begin(geom());
            tr.cta_fill(0, 0, 64, 0, 8, 0);
            tr.slot_fill(0, 0, 0, true);
            tr.reg_write(0, 7, 2);
            tr.reg_write(0, 7, 5);
            tr.reg_read(0, 7, 5);
            tr.launch_end(10);
            tr.advance_base(10);
        });
        for cycle in [3, 4, 5] {
            assert!(
                matches!(
                    tr.adjudicate(&cfg(), 0, &rf_fault(cycle, 7)),
                    Verdict::Fallback {
                        reason: FallbackReason::LiveWord,
                        ..
                    }
                ),
                "cycle {cycle}"
            );
        }
        // Before the t=2 write, and after the tied read, the flip is dead.
        for cycle in [1, 2, 6] {
            assert_eq!(
                tr.adjudicate(&cfg(), 0, &rf_fault(cycle, 7)),
                Verdict::Dead { population: 64 },
                "cycle {cycle}"
            );
        }
    }
}
