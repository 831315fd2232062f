//! The cycle-level engine: SMs, CTA occupancy limits, greedy-then-oldest
//! warp scheduling, latency stalling, MSHR-backed caches, and
//! microarchitecture-level fault application at a chosen cycle.
//!
//! Timing model: one instruction issues per SM per cycle; a warp that
//! issues is busy until its instruction's latency elapses. Idle stretches
//! are fast-forwarded to the next readiness event (clamped to the pending
//! fault cycle so injections land at the exact requested cycle).

use crate::cache::{ensure_l2, load_via, Cache};
use crate::config::{GpuConfig, Latencies};
use crate::due::{DueKind, LaunchAbort};
use crate::exec::{step_warp, ExecCtx, GMem, IssueClass, StepEvent};
use crate::fault::{
    apply_stuck, pattern_footprint, value_mask, HwStructure, StuckCache, StuckSite, SwInjector,
    UarchInjector,
};
use crate::lifetime::{CacheAce, LaunchGeometry, LifetimeTracker};
use crate::mem::GlobalMem;
use crate::snapshot::{ConvergeWith, SimSnapshot};
use crate::stats::{CacheStats, Stats};
use crate::warp::Warp;
use vgpu_arch::{Kernel, LaunchConfig, WARP_SIZE};

/// Timed global-memory interface: coalesces a warp's lane accesses into
/// line accesses against the L1/L2 hierarchy.
struct TimedGMem<'a> {
    l1d: &'a mut Cache,
    l1t: &'a mut Cache,
    l2: &'a mut Cache,
    mem: &'a mut GlobalMem,
    lat: &'a Latencies,
    now: u64,
    mem_reads: &'a mut u64,
    mem_writes: &'a mut u64,
    /// ACE lifetime tracker (fault-free `--ace` runs only), plus the
    /// coordinates translating this step's warp-local register / CTA-local
    /// shared-memory indices to SM-global tracker entries.
    ace: Option<&'a mut LifetimeTracker>,
    sm: usize,
    ace_rf_base: usize,
    ace_smem_base: usize,
}

impl GMem for TimedGMem<'_> {
    fn load(
        &mut self,
        tex: bool,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        out: &mut [u32; WARP_SIZE],
    ) -> Result<u64, DueKind> {
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            self.mem.check_word(addrs[lane])?;
        }
        let l1 = if tex { &mut *self.l1t } else { &mut *self.l1d };
        let h = if tex {
            HwStructure::L1T
        } else {
            HwStructure::L1D
        };
        let lb = l1.geom().line_bytes;
        let mut seen = [0u32; WARP_SIZE];
        let mut n = 0usize;
        let mut ready_max = self.now;
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let addr = addrs[lane];
            let line = addr / lb;
            let already = seen[..n].contains(&line);
            if already {
                // Same line touched earlier in this coalesced access; it is
                // normally still resident, but an intervening fill in the
                // same set may have evicted it — refetch in that case.
                if let Some(idx) = l1.probe(line) {
                    if let Some(tr) = self.ace.as_deref_mut() {
                        tr.cache_read(h, self.sm, idx, ((addr % lb) / 4) as usize, self.now);
                    }
                    out[lane] = l1.read_word(idx, addr % lb);
                    continue;
                }
            }
            let r = load_via(
                l1,
                self.l2,
                self.mem,
                addr,
                self.now,
                self.lat,
                self.mem_reads,
                self.mem_writes,
                self.ace.as_deref_mut().map(|tr| CacheAce {
                    tracker: tr,
                    l1: h,
                    sm: self.sm,
                }),
            );
            out[lane] = r.value;
            ready_max = ready_max.max(r.ready);
            if !already {
                seen[n] = line;
                n += 1;
            }
        }
        Ok(ready_max)
    }

    fn store(
        &mut self,
        mask: u32,
        addrs: &[u32; WARP_SIZE],
        vals: &[u32; WARP_SIZE],
    ) -> Result<u64, DueKind> {
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            self.mem.check_word(addrs[lane])?;
        }
        let lb = self.l1d.geom().line_bytes;
        let mut seen = [0u32; WARP_SIZE];
        let mut n = 0usize;
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let addr = addrs[lane];
            let line = addr / lb;
            let off = addr % lb;
            if !seen[..n].contains(&line) {
                // One coalesced access per line for the statistics.
                self.l1d.stats.accesses += 1;
                if self.l1d.probe(line).is_none() {
                    self.l1d.stats.misses += 1; // write-through, no allocate
                }
                ensure_l2(
                    self.l2,
                    self.mem,
                    line,
                    self.now,
                    self.lat,
                    self.mem_reads,
                    self.mem_writes,
                    self.ace.as_deref_mut(),
                );
                seen[n] = line;
                n += 1;
            }
            if let Some(i1) = self.l1d.lookup(line) {
                self.l1d.write_word(i1, off, vals[lane], false);
                if let Some(tr) = self.ace.as_deref_mut() {
                    tr.cache_write(HwStructure::L1D, self.sm, i1, (off / 4) as usize, self.now);
                }
            }
            let i2 = match self.l2.probe(line) {
                Some(i) => i,
                None => {
                    ensure_l2(
                        self.l2,
                        self.mem,
                        line,
                        self.now,
                        self.lat,
                        self.mem_reads,
                        self.mem_writes,
                        self.ace.as_deref_mut(),
                    )
                    .0
                }
            };
            self.l2.write_word(i2, off, vals[lane], true);
            if let Some(tr) = self.ace.as_deref_mut() {
                tr.cache_write(HwStructure::L2, 0, i2, (off / 4) as usize, self.now);
            }
        }
        Ok(self.now + self.lat.store as u64)
    }

    fn ace_enabled(&self) -> bool {
        self.ace.is_some()
    }

    fn ace_reg_read(&mut self, reg_word: usize) {
        let (sm, base, now) = (self.sm, self.ace_rf_base, self.now);
        if let Some(tr) = self.ace.as_deref_mut() {
            tr.reg_read(sm, base + reg_word, now);
        }
    }

    fn ace_reg_write(&mut self, reg_word: usize) {
        let (sm, base, now) = (self.sm, self.ace_rf_base, self.now);
        if let Some(tr) = self.ace.as_deref_mut() {
            tr.reg_write(sm, base + reg_word, now);
        }
    }

    fn ace_smem_read(&mut self, word: usize) {
        let (sm, base, now) = (self.sm, self.ace_smem_base, self.now);
        if let Some(tr) = self.ace.as_deref_mut() {
            tr.smem_read(sm, base + word, now);
        }
    }

    fn ace_smem_write(&mut self, word: usize) {
        let (sm, base, now) = (self.sm, self.ace_smem_base, self.now);
        if let Some(tr) = self.ace.as_deref_mut() {
            tr.smem_write(sm, base + word, now);
        }
    }
}

/// One CTA resident on an SM.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CtaSlot {
    warps_running: u32,
    arrived: u32,
}

/// Per-SM state for one launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SmState {
    rf: Vec<u32>,
    smem: Vec<u32>,
    slots: Vec<Option<CtaSlot>>,
    warps: Vec<Option<Warp>>,
    /// Index of the warp issued last cycle (greedy-then-oldest policy).
    last: Option<usize>,
}

/// Complete mid-launch engine state — everything `run_timed_ctl` keeps in
/// locals while simulating, in storable form. Together with the device
/// state (global memory + cache hierarchy) this suffices to continue a
/// launch bit-identically from the captured cycle.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EngineState {
    pub(crate) sms: Vec<SmState>,
    pub(crate) next_cta: u64,
    pub(crate) done_ctas: u64,
    pub(crate) seq: u64,
    pub(crate) stats: Stats,
    pub(crate) mem_reads: u64,
    pub(crate) mem_writes: u64,
    pub(crate) cycle: u64,
    /// Per-launch cache-stat baselines captured at launch start; restored
    /// verbatim so the resumed run's launch-delta accounting matches an
    /// uninterrupted run exactly.
    pub(crate) l1d_start: Vec<CacheStats>,
    pub(crate) l1t_start: Vec<CacheStats>,
    pub(crate) l2_start: CacheStats,
}

impl EngineState {
    pub(crate) fn byte_size(&self) -> u64 {
        let per_sm = |sm: &SmState| {
            sm.rf.len() as u64 * 4
                + sm.smem.len() as u64 * 4
                + sm.slots.len() as u64 * 8
                + sm.warps.len() as u64 * std::mem::size_of::<Option<Warp>>() as u64
        };
        self.sms.iter().map(per_sm).sum::<u64>() + std::mem::size_of::<EngineState>() as u64
    }
}

/// Snapshot / resume / convergence controls for [`run_timed_ctl`]. The
/// empty value ([`TimedCtl::none`]) makes `run_timed_ctl` behave exactly
/// like the historical slow path.
pub(crate) struct TimedCtl<'a> {
    /// Cycles (sorted ascending) at which to capture a [`SimSnapshot`].
    pub(crate) capture_at: &'a [u64],
    /// Snapshots captured this run, in cycle order.
    pub(crate) captured: Vec<SimSnapshot>,
    /// Start mid-launch from this snapshot instead of from cycle 0.
    pub(crate) resume: Option<&'a SimSnapshot>,
    /// Golden reference enabling the early masked-convergence exit.
    pub(crate) converge: Option<ConvergeWith<'a>>,
    /// Cycle at which the run exited early through the convergence check.
    pub(crate) converged_at: Option<u64>,
    /// Cycles actually simulated (exit cycle − start cycle).
    pub(crate) simulated_cycles: u64,
}

impl<'a> TimedCtl<'a> {
    pub(crate) fn none() -> TimedCtl<'a> {
        TimedCtl {
            capture_at: &[],
            captured: Vec::new(),
            resume: None,
            converge: None,
            converged_at: None,
            simulated_cycles: 0,
        }
    }
}

/// Per-launch geometry derived from the kernel and launch config.
struct Geometry {
    wpc: u32,
    regs_per_warp: u32,
    regs_per_cta: u32,
    smem_words_per_cta: u32,
    slots_per_sm: u32,
}

fn geometry(cfg: &GpuConfig, kernel: &Kernel, lc: &LaunchConfig) -> Geometry {
    let wpc = lc.warps_per_cta();
    let regs_per_warp = kernel.num_regs as u32 * WARP_SIZE as u32;
    let regs_per_cta = wpc * regs_per_warp;
    let smem_words_per_cta = (kernel.smem_bytes / 4).max(1);
    let by_threads = cfg.max_threads_per_sm / (wpc * WARP_SIZE as u32);
    let by_rf = cfg.rf_regs_per_sm / regs_per_cta;
    let by_smem = (cfg.smem_bytes_per_sm / 4) / smem_words_per_cta;
    let slots_per_sm = cfg.max_ctas_per_sm.min(by_threads).min(by_rf).min(by_smem);
    assert!(
        slots_per_sm >= 1,
        "kernel {} exceeds SM limits (block {}, regs {}, smem {}B)",
        kernel.name,
        lc.block_x,
        kernel.num_regs,
        kernel.smem_bytes
    );
    Geometry {
        wpc,
        regs_per_warp,
        regs_per_cta,
        smem_words_per_cta,
        slots_per_sm,
    }
}

/// Place CTA `lin` into `slot` of `sm` (SM index `smi`) at cycle `t`.
/// `initial` marks the pre-cycle-0 prefill (occupied from cycle 0), as
/// opposed to a mid-run refill during cycle `t`'s retire stage (occupied
/// from `t + 1`).
#[allow(clippy::too_many_arguments)]
fn launch_cta(
    sm: &mut SmState,
    slot: usize,
    lin: u64,
    lc: &LaunchConfig,
    g: &Geometry,
    seq: &mut u64,
    smi: usize,
    t: u64,
    initial: bool,
    ace: Option<&mut LifetimeTracker>,
) {
    let ctaid_x = (lin % lc.grid_x as u64) as u32;
    let ctaid_y = (lin / lc.grid_x as u64) as u32;
    let rf_base = slot * g.regs_per_cta as usize;
    sm.rf[rf_base..rf_base + g.regs_per_cta as usize].fill(0);
    let sm_base = slot * g.smem_words_per_cta as usize;
    sm.smem[sm_base..sm_base + g.smem_words_per_cta as usize].fill(0);
    if let Some(tr) = ace {
        tr.cta_fill(
            smi,
            rf_base,
            g.regs_per_cta as usize,
            sm_base,
            g.smem_words_per_cta as usize,
            t,
        );
        tr.slot_fill(smi, slot, t, initial);
    }
    for wi in 0..g.wpc {
        let first_thread = wi * WARP_SIZE as u32;
        let lanes = (lc.block_x - first_thread).min(WARP_SIZE as u32);
        let mask = if lanes >= 32 {
            u32::MAX
        } else {
            (1u32 << lanes) - 1
        };
        let w = Warp::new(ctaid_x, ctaid_y, wi, mask, *seq);
        *seq += 1;
        sm.warps[slot * g.wpc as usize + wi as usize] = Some(w);
    }
    sm.slots[slot] = Some(CtaSlot {
        warps_running: g.wpc,
        arrived: 0,
    });
}

/// Apply a pending microarchitecture fault to the live machine state.
///
/// The seed location is drawn exactly as in the single-bit model
/// (`loc_pick % population`); the fault's [`FaultPattern`] then expands it
/// into its full footprint via [`pattern_footprint`]. Transient patterns
/// XOR their masks once; stuck-at patterns force the masked bits and pin
/// the resolved physical sites in `inj.stuck`, which the engine re-forces
/// on every simulation step until launch end.
///
/// [`FaultPattern`]: crate::fault::FaultPattern
fn apply_uarch(
    inj: &mut UarchInjector,
    sms: &mut [SmState],
    l1ds: &mut [Cache],
    l1ts: &mut [Cache],
    l2: &mut Cache,
    g: &Geometry,
) {
    inj.applied = true;
    let bit = inj.fault.bit;
    let pattern = inj.fault.pattern;
    let stuck = pattern.stuck_value();
    match inj.fault.structure {
        HwStructure::RegFile | HwStructure::Smem => {
            let is_rf = inj.fault.structure == HwStructure::RegFile;
            let per_cta = if is_rf {
                g.regs_per_cta as u64
            } else {
                g.smem_words_per_cta as u64
            };
            let mut population = 0u64;
            for sm in sms.iter() {
                population += sm.slots.iter().flatten().count() as u64 * per_cta;
            }
            inj.population = population;
            if population == 0 {
                return; // nothing allocated at this cycle: trivially masked
            }
            let mut target = inj.fault.loc_pick % population;
            let mut site = None;
            'walk: for (smi, sm) in sms.iter().enumerate() {
                for (slot_idx, slot) in sm.slots.iter().enumerate() {
                    if slot.is_none() {
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
            let sm = &mut sms[smi];
            let arr_len = if is_rf { sm.rf.len() } else { sm.smem.len() } as u64;
            // Rows of WARP_SIZE words: one register (or shared-memory row)
            // across the 32 lanes/banks of the physical array.
            for (e, m) in pattern_footprint(pattern, idx, bit, arr_len, 32, WARP_SIZE as u64) {
                let w = if is_rf {
                    &mut sm.rf[e as usize]
                } else {
                    &mut sm.smem[e as usize]
                };
                match stuck {
                    Some(v) => {
                        *w = apply_stuck(*w, m, v);
                        inj.stuck.push(if is_rf {
                            StuckSite::RfWord {
                                sm: smi,
                                idx: e as usize,
                                mask: m,
                            }
                        } else {
                            StuckSite::SmemWord {
                                sm: smi,
                                idx: e as usize,
                                mask: m,
                            }
                        });
                    }
                    None => *w ^= m,
                }
            }
        }
        HwStructure::L1D | HwStructure::L1T => {
            let is_l1d = inj.fault.structure == HwStructure::L1D;
            let caches = if is_l1d { l1ds } else { l1ts };
            let per = caches[0].data_bytes();
            let total = per * caches.len() as u64;
            inj.population = total * 8;
            let byte = inj.fault.loc_pick % total;
            let which = (byte / per) as usize;
            let row = caches[which].geom().line_bytes as u64;
            for (b, m) in pattern_footprint(pattern, byte % per, bit, per, 8, row) {
                let m8 = m as u8;
                match stuck {
                    Some(v) => {
                        caches[which].force_mask(b, m8, v);
                        inj.stuck.push(StuckSite::CacheByte {
                            cache: if is_l1d {
                                StuckCache::L1d(which)
                            } else {
                                StuckCache::L1t(which)
                            },
                            byte: b,
                            mask: m8,
                        });
                    }
                    None => caches[which].flip_mask(b, m8),
                }
            }
        }
        HwStructure::L2 => {
            let per = l2.data_bytes();
            inj.population = per * 8;
            let row = l2.geom().line_bytes as u64;
            for (b, m) in pattern_footprint(pattern, inj.fault.loc_pick % per, bit, per, 8, row) {
                let m8 = m as u8;
                match stuck {
                    Some(v) => {
                        l2.force_mask(b, m8, v);
                        inj.stuck.push(StuckSite::CacheByte {
                            cache: StuckCache::L2,
                            byte: b,
                            mask: m8,
                        });
                    }
                    None => l2.flip_mask(b, m8),
                }
            }
        }
        HwStructure::Simt | HwStructure::Sched => {
            // Parallelism-management state: target one live warp, chosen
            // uniformly over the resident not-yet-retired warps.
            let mut population = 0u64;
            for sm in sms.iter() {
                population += sm.warps.iter().flatten().filter(|w| !w.done).count() as u64;
            }
            inj.population = population;
            if population == 0 {
                return;
            }
            let mut target = inj.fault.loc_pick % population;
            let mut site = None;
            'scan: for (smi, sm) in sms.iter().enumerate() {
                for (wi, w) in sm.warps.iter().enumerate() {
                    if w.as_ref().is_some_and(|w| !w.done) {
                        if target == 0 {
                            site = Some((smi, wi));
                            break 'scan;
                        }
                        target -= 1;
                    }
                }
            }
            let (smi, wi) = site.expect("population walk must land");
            let mask = value_mask(pattern, bit);
            let w = sms[smi].warps[wi].as_mut().expect("selected warp live");
            if inj.fault.structure == HwStructure::Simt {
                if let Some(top) = w.stack.last_mut() {
                    match stuck {
                        Some(v) => {
                            top.mask = apply_stuck(top.mask, mask, v);
                            inj.stuck.push(StuckSite::SimtMask {
                                sm: smi,
                                warp: wi,
                                mask,
                            });
                        }
                        None => top.mask ^= mask,
                    }
                }
            } else {
                match stuck {
                    Some(v) => {
                        let lo = apply_stuck(w.ready_at as u32, mask, v);
                        w.ready_at = (w.ready_at & !0xFFFF_FFFF) | u64::from(lo);
                        inj.stuck.push(StuckSite::SchedReady {
                            sm: smi,
                            warp: wi,
                            mask,
                        });
                    }
                    None => w.ready_at ^= u64::from(mask),
                }
            }
        }
    }
}

/// Re-force every resolved stuck-at site (idempotent). Called at the top
/// of each engine step after the fault has landed, so any overwrite in
/// the previous step is pinned back to the stuck value before the next
/// instruction can observe it — the "re-asserted on every access"
/// semantics of a permanent fault. Sites are physical: a CTA slot or
/// cache line reallocated over a stuck location inherits the fault.
fn reassert_stuck(
    inj: &UarchInjector,
    sms: &mut [SmState],
    l1ds: &mut [Cache],
    l1ts: &mut [Cache],
    l2: &mut Cache,
) {
    let Some(v) = inj.stuck_value() else {
        return;
    };
    for s in &inj.stuck {
        match *s {
            StuckSite::RfWord { sm, idx, mask } => {
                let w = &mut sms[sm].rf[idx];
                *w = apply_stuck(*w, mask, v);
            }
            StuckSite::SmemWord { sm, idx, mask } => {
                let w = &mut sms[sm].smem[idx];
                *w = apply_stuck(*w, mask, v);
            }
            StuckSite::CacheByte { cache, byte, mask } => match cache {
                StuckCache::L1d(i) => l1ds[i].force_mask(byte, mask, v),
                StuckCache::L1t(i) => l1ts[i].force_mask(byte, mask, v),
                StuckCache::L2 => l2.force_mask(byte, mask, v),
            },
            StuckSite::SimtMask { sm, warp, mask } => {
                if let Some(w) = sms[sm].warps[warp].as_mut() {
                    if let Some(top) = w.stack.last_mut() {
                        top.mask = apply_stuck(top.mask, mask, v);
                    }
                }
            }
            StuckSite::SchedReady { sm, warp, mask } => {
                if let Some(w) = sms[sm].warps[warp].as_mut() {
                    let lo = apply_stuck(w.ready_at as u32, mask, v);
                    w.ready_at = (w.ready_at & !0xFFFF_FFFF) | u64::from(lo);
                }
            }
        }
    }
}

/// Run one kernel launch on the timed engine.
#[allow(clippy::too_many_arguments)]
pub fn run_timed(
    cfg: &GpuConfig,
    mem: &mut GlobalMem,
    l1ds: &mut [Cache],
    l1ts: &mut [Cache],
    l2: &mut Cache,
    kernel: &Kernel,
    lc: &LaunchConfig,
    uarch: Option<&mut UarchInjector>,
    sw: Option<&mut SwInjector>,
    ace: Option<&mut LifetimeTracker>,
    budget_cycles: u64,
) -> Result<Stats, LaunchAbort> {
    run_timed_ctl(
        cfg,
        mem,
        l1ds,
        l1ts,
        l2,
        kernel,
        lc,
        uarch,
        sw,
        ace,
        budget_cycles,
        &mut TimedCtl::none(),
    )
}

/// Run one kernel launch with snapshot capture / resume / convergence
/// controls. With an empty [`TimedCtl`] this is exactly the historical
/// engine; every fast-forward feature routes through the same loop so the
/// two paths cannot drift apart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_timed_ctl(
    cfg: &GpuConfig,
    mem: &mut GlobalMem,
    l1ds: &mut [Cache],
    l1ts: &mut [Cache],
    l2: &mut Cache,
    kernel: &Kernel,
    lc: &LaunchConfig,
    mut uarch: Option<&mut UarchInjector>,
    mut sw: Option<&mut SwInjector>,
    mut ace: Option<&mut LifetimeTracker>,
    budget_cycles: u64,
    ctl: &mut TimedCtl<'_>,
) -> Result<Stats, LaunchAbort> {
    let g = geometry(cfg, kernel, lc);
    let num_sms = cfg.num_sms as usize;
    let total_ctas = lc.num_ctas();
    if let Some(tr) = ace.as_deref_mut() {
        tr.launch_begin(LaunchGeometry {
            warps_per_cta: g.wpc,
            regs_per_cta: g.regs_per_cta,
            smem_words_per_cta: g.smem_words_per_cta,
            slots_per_sm: g.slots_per_sm,
            total_ctas: total_ctas as u32,
        });
    }
    let capture_at = ctl.capture_at;
    let mut converge = ctl.converge.take();
    // A persistent (stuck-at) fault is re-asserted until launch end, so
    // the disturbed machine can never provably re-converge to golden
    // while the launch runs: disable the early masked-convergence exit.
    // (Launch-boundary convergence remains valid — the fault dies with
    // the launch.)
    if uarch
        .as_deref()
        .is_some_and(|i| i.fault.pattern.is_persistent())
    {
        converge = None;
    }

    let state = match ctl.resume {
        Some(snap) => {
            // ACE lifetime intervals and SW injection counters accumulate
            // over the whole prefix; a mid-launch restore cannot rebuild
            // them, so fast-forward refuses those modes.
            assert!(
                ace.is_none() && sw.is_none(),
                "snapshot resume supports plain and uarch-fault runs only"
            );
            // Verbatim restore: the resumed machine is bit-identical to
            // the one the snapshot was taken from — including cache stats
            // and the per-launch baselines — so the continuation
            // accumulates exactly what an uninterrupted run would.
            mem.clone_from(&snap.mem);
            for (c, s) in l1ds.iter_mut().zip(&snap.l1ds) {
                c.clone_from(s);
            }
            for (c, s) in l1ts.iter_mut().zip(&snap.l1ts) {
                c.clone_from(s);
            }
            l2.clone_from(&snap.l2);
            snap.engine.clone()
        }
        None => {
            let mut sms: Vec<SmState> = (0..num_sms)
                .map(|_| SmState {
                    rf: vec![0; cfg.rf_regs_per_sm as usize],
                    smem: vec![0; (cfg.smem_bytes_per_sm / 4) as usize],
                    slots: (0..g.slots_per_sm).map(|_| None).collect(),
                    warps: (0..g.slots_per_sm * g.wpc).map(|_| None).collect(),
                    last: None,
                })
                .collect();
            let mut next_cta = 0u64;
            let mut seq = 0u64;
            // Initial CTA fill, round-robin over SMs.
            'fill: for slot in 0..g.slots_per_sm as usize {
                for (smi, sm) in sms.iter_mut().enumerate() {
                    if next_cta >= total_ctas {
                        break 'fill;
                    }
                    launch_cta(
                        sm,
                        slot,
                        next_cta,
                        lc,
                        &g,
                        &mut seq,
                        smi,
                        0,
                        true,
                        ace.as_deref_mut(),
                    );
                    next_cta += 1;
                }
            }
            EngineState {
                sms,
                next_cta,
                done_ctas: 0,
                seq,
                stats: Stats::default(),
                mem_reads: 0,
                mem_writes: 0,
                cycle: 0,
                l1d_start: l1ds.iter().map(|c| c.stats).collect(),
                l1t_start: l1ts.iter().map(|c| c.stats).collect(),
                l2_start: l2.stats,
            }
        }
    };
    let EngineState {
        mut sms,
        mut next_cta,
        mut done_ctas,
        mut seq,
        mut stats,
        mut mem_reads,
        mut mem_writes,
        mut cycle,
        l1d_start,
        l1t_start,
        l2_start,
    } = state;
    let start_cycle = cycle;
    let mut cap_idx = capture_at.partition_point(|&c| c < cycle);
    // Convergence checks start strictly after the fault cycle: at or
    // before it the disturbed state cannot have diverged yet, and the
    // check only fires once the flip has actually landed.
    let mut conv_idx = match (&converge, uarch.as_deref()) {
        (Some(cv), Some(inj)) => cv.snaps.partition_point(|s| s.cycle() <= inj.fault.cycle),
        (Some(_), None) => panic!("convergence exit requires a microarchitecture fault"),
        _ => 0,
    };

    let max_warps_hw = (cfg.max_threads_per_sm / WARP_SIZE as u32) as u64;

    let result: Result<(), LaunchAbort> = if cycle > budget_cycles {
        // Resumed past the budget: the uninterrupted run would already
        // have timed out on its way to this cycle.
        Err(LaunchAbort::Timeout)
    } else {
        'outer: loop {
            // Capture due snapshots before anything mutates state this
            // cycle (golden instrumented runs only).
            while let Some(&cc) = capture_at.get(cap_idx) {
                if cc > cycle {
                    break;
                }
                if cc == cycle {
                    ctl.captured.push(SimSnapshot {
                        engine: EngineState {
                            sms: sms.clone(),
                            next_cta,
                            done_ctas,
                            seq,
                            stats,
                            mem_reads,
                            mem_writes,
                            cycle,
                            l1d_start: l1d_start.clone(),
                            l1t_start: l1t_start.clone(),
                            l2_start,
                        },
                        mem: mem.clone(),
                        l1ds: l1ds.to_vec(),
                        l1ts: l1ts.to_vec(),
                        l2: l2.clone(),
                    });
                }
                cap_idx += 1;
            }

            // Apply a due microarchitecture fault before issuing at this
            // cycle, and re-force any live stuck-at sites (permanent
            // faults) before the next instructions can observe them.
            if let Some(inj) = uarch.as_deref_mut() {
                if !inj.applied && cycle >= inj.fault.cycle {
                    apply_uarch(inj, &mut sms, l1ds, l1ts, l2, &g);
                } else if inj.applied && !inj.stuck.is_empty() {
                    reassert_stuck(inj, &mut sms, l1ds, l1ts, l2);
                }
            }

            // Early masked-convergence exit: once the fault has landed,
            // compare the disturbed machine against the golden snapshot at
            // the same cycle; architectural equality means the rest of the
            // launch is bit-identical to golden, so splice the golden
            // suffix instead of simulating it.
            if let Some(cv) = &converge {
                if uarch.as_deref().is_some_and(|i| i.applied) {
                    while cv.snaps.get(conv_idx).is_some_and(|s| s.cycle() < cycle) {
                        conv_idx += 1;
                    }
                    if cv.snaps.get(conv_idx).is_some_and(|s| s.cycle() == cycle) {
                        let gs = &cv.snaps[conv_idx];
                        conv_idx += 1;
                        if engine_converged(
                            &sms, &g, next_cta, done_ctas, seq, mem, l1ds, l1ts, l2, gs,
                        ) {
                            ctl.converged_at = Some(cycle);
                            ctl.simulated_cycles = cycle - start_cycle;
                            return Ok(splice_golden_suffix(
                                cv, gs, stats, mem_reads, mem_writes, mem, l1ds, l1ts, l2,
                                &l1d_start, &l1t_start, &l2_start,
                            ));
                        }
                    }
                }
            }

            let mut issued_any = false;
            let mut resident = 0u64;
            for (smi, sm) in sms.iter_mut().enumerate() {
                resident += sm.warps.iter().flatten().filter(|w| !w.done).count() as u64;

                // Greedy-then-oldest pick.
                let ready = |w: &Warp, cyc: u64| !w.done && !w.at_barrier && w.ready_at <= cyc;
                let pick = match sm.last {
                    Some(wi) if sm.warps[wi].as_ref().is_some_and(|w| ready(w, cycle)) => Some(wi),
                    _ => sm
                        .warps
                        .iter()
                        .enumerate()
                        .filter_map(|(i, w)| w.as_ref().map(|w| (i, w)))
                        .filter(|(_, w)| ready(w, cycle))
                        .min_by_key(|(_, w)| w.seq)
                        .map(|(i, _)| i),
                };
                let Some(wi) = pick else {
                    sm.last = None;
                    continue;
                };

                let mut warp = sm.warps[wi].take().expect("picked warp exists");
                let slot_idx = wi / g.wpc as usize;
                let rf_base = slot_idx * g.regs_per_cta as usize
                    + warp.warp_in_cta as usize * g.regs_per_warp as usize;
                let smem_base = slot_idx * g.smem_words_per_cta as usize;
                let (event, due) = {
                    let mut tg = TimedGMem {
                        l1d: &mut l1ds[smi],
                        l1t: &mut l1ts[smi],
                        l2,
                        mem,
                        lat: &cfg.lat,
                        now: cycle,
                        mem_reads: &mut mem_reads,
                        mem_writes: &mut mem_writes,
                        ace: ace.as_deref_mut(),
                        sm: smi,
                        ace_rf_base: rf_base,
                        ace_smem_base: smem_base,
                    };
                    let mut ctx = ExecCtx {
                        kernel,
                        params: &lc.params,
                        ntid: lc.block_x,
                        nctaid: lc.grid_x,
                        regs: &mut sm.rf[rf_base..rf_base + g.regs_per_warp as usize],
                        smem: &mut sm.smem[smem_base..smem_base + g.smem_words_per_cta as usize],
                        mem: &mut tg,
                        stats: &mut stats,
                        sw: sw.as_deref_mut(),
                        max_stack: cfg.max_stack_depth,
                    };
                    match step_warp(&mut warp, &mut ctx) {
                        Ok(ev) => (Some(ev), None),
                        Err(e) => (None, Some(e)),
                    }
                };
                if let Some(e) = due {
                    break 'outer Err(LaunchAbort::Due(e));
                }
                issued_any = true;
                let mut clear_greedy = true;
                match event.unwrap() {
                    StepEvent::Issued(class) => {
                        let latency = match class {
                            IssueClass::Alu => cfg.lat.alu as u64,
                            IssueClass::Sfu => cfg.lat.sfu as u64,
                            IssueClass::Smem { extra_conflicts } => {
                                cfg.lat.smem as u64
                                    + extra_conflicts as u64 * cfg.lat.smem_conflict as u64
                            }
                            IssueClass::Mem { ready } => ready.saturating_sub(cycle).max(1),
                        };
                        warp.ready_at = cycle + latency;
                        sm.warps[wi] = Some(warp);
                        sm.last = Some(wi);
                        clear_greedy = false;
                    }
                    StepEvent::Barrier => {
                        warp.at_barrier = true;
                        warp.ready_at = cycle + cfg.lat.alu as u64;
                        sm.warps[wi] = Some(warp);
                        let slot = sm.slots[slot_idx].as_mut().expect("slot live");
                        slot.arrived += 1;
                        if slot.arrived >= slot.warps_running {
                            slot.arrived = 0;
                            let base = slot_idx * g.wpc as usize;
                            for w in sm.warps[base..base + g.wpc as usize].iter_mut().flatten() {
                                w.at_barrier = false;
                            }
                        }
                    }
                    StepEvent::Done => {
                        sm.warps[wi] = None;
                        let slot = sm.slots[slot_idx].as_mut().expect("slot live");
                        slot.warps_running -= 1;
                        if slot.warps_running == 0 {
                            sm.slots[slot_idx] = None;
                            done_ctas += 1;
                            if let Some(tr) = ace.as_deref_mut() {
                                tr.slot_free(smi, slot_idx, cycle);
                            }
                            if next_cta < total_ctas {
                                launch_cta(
                                    sm,
                                    slot_idx,
                                    next_cta,
                                    lc,
                                    &g,
                                    &mut seq,
                                    smi,
                                    cycle,
                                    false,
                                    ace.as_deref_mut(),
                                );
                                next_cta += 1;
                            }
                        } else if slot.arrived >= slot.warps_running {
                            // Last non-waiting warp exited: release the barrier.
                            slot.arrived = 0;
                            let base = slot_idx * g.wpc as usize;
                            for w in sm.warps[base..base + g.wpc as usize].iter_mut().flatten() {
                                w.at_barrier = false;
                            }
                        }
                    }
                }
                if clear_greedy {
                    sm.last = None;
                }
            }

            if done_ctas == total_ctas {
                stats.resident_warp_cycles += resident;
                stats.max_warp_cycles += num_sms as u64 * max_warps_hw;
                stats.issue_cycles += 1; // the Done event implies an issue
                cycle += 1;
                break Ok(());
            }

            // Advance time: one cycle after an issue, else fast-forward to the
            // next readiness event (clamped to a pending fault cycle).
            let advance = if issued_any {
                1
            } else {
                let mut nxt = u64::MAX;
                for sm in &sms {
                    for w in sm.warps.iter().flatten() {
                        if !w.done && !w.at_barrier && w.ready_at > cycle {
                            nxt = nxt.min(w.ready_at);
                        }
                    }
                }
                if nxt == u64::MAX {
                    break Err(LaunchAbort::Due(DueKind::BarrierDeadlock));
                }
                let mut target = nxt;
                if let Some(inj) = uarch.as_deref() {
                    if !inj.applied && inj.fault.cycle > cycle {
                        target = target.min(inj.fault.cycle);
                    }
                }
                // Land exactly on pending capture / convergence-check cycles;
                // splitting an idle stretch in two is stats-neutral (stall and
                // residency counters scale linearly with `advance`).
                if let Some(&cc) = capture_at.get(cap_idx) {
                    if cc > cycle {
                        target = target.min(cc);
                    }
                }
                if let Some(cv) = &converge {
                    if let Some(gs) = cv.snaps.get(conv_idx) {
                        if gs.cycle() > cycle {
                            target = target.min(gs.cycle());
                        }
                    }
                }
                target - cycle
            };
            if issued_any {
                stats.issue_cycles += 1;
            } else {
                stats.stall_cycles += advance;
            }
            stats.resident_warp_cycles += resident * advance;
            stats.max_warp_cycles += num_sms as u64 * max_warps_hw * advance;
            cycle += advance;
            if cycle > budget_cycles {
                break Err(LaunchAbort::Timeout);
            }
        }
    };

    ctl.simulated_cycles = cycle - start_cycle;

    // A stuck-at site overwritten by the very last step must still read
    // stuck when the launch retires (output classification reads L2 and
    // memory after the epilogue).
    if let Some(inj) = uarch.as_deref() {
        if inj.applied && !inj.stuck.is_empty() {
            reassert_stuck(inj, &mut sms, l1ds, l1ts, l2);
        }
    }

    // Kernel boundary: L1s are invalidated (write-through, nothing dirty).
    for c in l1ds.iter_mut().chain(l1ts.iter_mut()) {
        c.invalidate_all();
    }
    // Register-file and shared-memory contents die with the grid, and the
    // invalidated L1 lines are clean: close every open interval dead.
    if let Some(tr) = ace {
        tr.launch_end(cycle);
    }

    result?;

    stats.cycles = cycle;
    stats.mem_reads = mem_reads;
    stats.mem_writes = mem_writes;
    stats.l1d.add(&cache_delta(l1ds, &l1d_start));
    stats.l1t.add(&cache_delta(l1ts, &l1t_start));
    stats.l2.add(&one_cache_delta(l2, &l2_start));
    Ok(stats)
}

/// Architectural equality between the live (disturbed) machine and a
/// golden snapshot at the same cycle. Dead state is excluded: stale
/// RF/SMEM words in free CTA slots (zeroed on reuse by [`launch_cta`]),
/// invalid cache lines, and cache hit/miss counters cannot influence any
/// future architectural outcome. Everything else — warp contexts, CTA
/// bookkeeping, live RF/SMEM ranges, valid cache lines with their tags /
/// dirty bits / LRU ages, MSHRs, and all of global memory — must match
/// bit-for-bit. A false negative only costs performance (the trial keeps
/// simulating); a false positive would be a correctness bug, so the
/// comparison is strict everywhere it matters.
#[allow(clippy::too_many_arguments)]
fn engine_converged(
    sms: &[SmState],
    g: &Geometry,
    next_cta: u64,
    done_ctas: u64,
    seq: u64,
    mem: &GlobalMem,
    l1ds: &[Cache],
    l1ts: &[Cache],
    l2: &Cache,
    gs: &SimSnapshot,
) -> bool {
    let ge = &gs.engine;
    if next_cta != ge.next_cta || done_ctas != ge.done_ctas || seq != ge.seq {
        return false;
    }
    for (sm, gsm) in sms.iter().zip(&ge.sms) {
        if sm.last != gsm.last || sm.slots != gsm.slots || sm.warps != gsm.warps {
            return false;
        }
        for (slot_idx, slot) in sm.slots.iter().enumerate() {
            if slot.is_none() {
                continue;
            }
            let r0 = slot_idx * g.regs_per_cta as usize;
            let r1 = r0 + g.regs_per_cta as usize;
            let s0 = slot_idx * g.smem_words_per_cta as usize;
            let s1 = s0 + g.smem_words_per_cta as usize;
            if sm.rf[r0..r1] != gsm.rf[r0..r1] || sm.smem[s0..s1] != gsm.smem[s0..s1] {
                return false;
            }
        }
    }
    if !l2.arch_eq(&gs.l2) {
        return false;
    }
    for (c, s) in l1ds.iter().zip(&gs.l1ds) {
        if !c.arch_eq(s) {
            return false;
        }
    }
    for (c, s) in l1ts.iter().zip(&gs.l1ts) {
        if !c.arch_eq(s) {
            return false;
        }
    }
    *mem == gs.mem
}

/// Build the final launch [`Stats`] for a converged trial and jump the
/// device to the golden post-launch state. The disturbed run simulated
/// the prefix up to the convergence cycle; golden's own counters cover
/// the suffix from the matched snapshot `gs` to launch end, so the total
/// is `prefix + (golden_end − golden_at_gs)` for every engine counter,
/// and the cache deltas compose the same way against their per-launch
/// baselines.
#[allow(clippy::too_many_arguments)]
fn splice_golden_suffix(
    cv: &ConvergeWith<'_>,
    gs: &SimSnapshot,
    mut stats: Stats,
    mem_reads: u64,
    mem_writes: u64,
    mem: &mut GlobalMem,
    l1ds: &mut [Cache],
    l1ts: &mut [Cache],
    l2: &mut Cache,
    l1d_start: &[CacheStats],
    l1t_start: &[CacheStats],
    l2_start: &CacheStats,
) -> Stats {
    let end = &cv.end_stats;
    stats.add_engine_delta(end, &gs.engine.stats);
    stats.cycles = end.cycles;
    stats.mem_reads = mem_reads + (end.mem_reads - gs.engine.mem_reads);
    stats.mem_writes = mem_writes + (end.mem_writes - gs.engine.mem_writes);
    // Cache counters: what this run accumulated so far plus golden's
    // remaining share of its own per-launch delta.
    stats.l1d = cache_delta(l1ds, l1d_start);
    stats.l1t = cache_delta(l1ts, l1t_start);
    stats.l2 = one_cache_delta(l2, l2_start);
    let mut tail = end.l1d;
    sub_stats(&mut tail, &cache_delta(&gs.l1ds, &gs.engine.l1d_start));
    stats.l1d.add(&tail);
    let mut tail = end.l1t;
    sub_stats(&mut tail, &cache_delta(&gs.l1ts, &gs.engine.l1t_start));
    stats.l1t.add(&tail);
    let mut tail = end.l2;
    sub_stats(&mut tail, &one_cache_delta(&gs.l2, &gs.engine.l2_start));
    stats.l2.add(&tail);
    // Device jump: the golden boundary snapshot already has the L1s
    // invalidated, so the normal epilogue is skipped by the caller.
    mem.clone_from(&cv.end.mem);
    for (c, s) in l1ds.iter_mut().zip(&cv.end.l1ds) {
        c.clone_from(s);
    }
    for (c, s) in l1ts.iter_mut().zip(&cv.end.l1ts) {
        c.clone_from(s);
    }
    l2.clone_from(&cv.end.l2);
    stats
}

/// Sum of per-cache stat deltas against their launch-start baselines.
fn cache_delta(caches: &[Cache], starts: &[CacheStats]) -> CacheStats {
    let mut acc = CacheStats::default();
    for (c, s0) in caches.iter().zip(starts) {
        acc.add(&one_cache_delta(c, s0));
    }
    acc
}

fn one_cache_delta(c: &Cache, s0: &CacheStats) -> CacheStats {
    let mut d = c.stats;
    sub_stats(&mut d, s0);
    d
}

fn sub_stats(a: &mut CacheStats, b: &CacheStats) {
    a.accesses -= b.accesses;
    a.misses -= b.misses;
    a.pending_hits -= b.pending_hits;
    a.reservation_fails -= b.reservation_fails;
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu_arch::KernelBuilder;

    fn kernel_with(regs: u8, smem: u32) -> Kernel {
        let mut a = KernelBuilder::new("g");
        for i in 0..regs {
            a.mov(vgpu_arch::Reg(i), 0u32);
        }
        if smem > 0 {
            a.alloc_smem(smem);
        }
        a.build().unwrap()
    }

    #[test]
    fn geometry_respects_all_limits() {
        let cfg = GpuConfig::default();
        // Thread-limited: 1024 threads/SM, block 256 → 4 CTAs.
        let k = kernel_with(4, 0);
        let lc = LaunchConfig::new(64, 256, vec![]);
        let g = geometry(&cfg, &k, &lc);
        assert_eq!(g.slots_per_sm, 4);
        assert_eq!(g.wpc, 8);
        assert_eq!(g.regs_per_warp, 4 * 32);

        // RF-limited: 32 regs × 256 threads = 8192 regs/CTA, 65536 RF → 8,
        // but thread cap (4) binds first; with block 64 the RF allows 32
        // and max_ctas (16) binds.
        let k = kernel_with(32, 0);
        let lc = LaunchConfig::new(64, 64, vec![]);
        let g = geometry(&cfg, &k, &lc);
        assert_eq!(g.slots_per_sm, 16);

        // SMEM-limited: 48 KiB per CTA of a 64 KiB SM → 1 slot.
        let k = kernel_with(2, 48 * 1024);
        let lc = LaunchConfig::new(8, 64, vec![]);
        let g = geometry(&cfg, &k, &lc);
        assert_eq!(g.slots_per_sm, 1);
        assert_eq!(g.smem_words_per_cta, 48 * 1024 / 4);
    }

    #[test]
    #[should_panic(expected = "exceeds SM limits")]
    fn oversized_kernel_panics_at_launch_geometry() {
        let cfg = GpuConfig::default();
        let k = kernel_with(2, 80 * 1024); // > 64 KiB SMEM per SM
        let lc = LaunchConfig::new(1, 32, vec![]);
        geometry(&cfg, &k, &lc);
    }

    #[test]
    fn partial_last_warp_gets_partial_mask() {
        let cfg = GpuConfig::default();
        let k = kernel_with(2, 0);
        let lc = LaunchConfig::new(1, 40, vec![]); // 1 full warp + 8 lanes
        let g = geometry(&cfg, &k, &lc);
        let mut sm = SmState {
            rf: vec![0; cfg.rf_regs_per_sm as usize],
            smem: vec![0; (cfg.smem_bytes_per_sm / 4) as usize],
            slots: (0..g.slots_per_sm).map(|_| None).collect(),
            warps: (0..g.slots_per_sm * g.wpc).map(|_| None).collect(),
            last: None,
        };
        let mut seq = 0;
        launch_cta(&mut sm, 0, 0, &lc, &g, &mut seq, 0, 0, true, None);
        let w0 = sm.warps[0].as_ref().unwrap();
        let w1 = sm.warps[1].as_ref().unwrap();
        assert_eq!(w0.init_mask, u32::MAX);
        assert_eq!(w1.init_mask, 0xFF);
        assert_eq!(seq, 2);
    }
}
