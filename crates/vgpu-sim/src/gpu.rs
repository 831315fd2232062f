//! The [`Gpu`] facade: device memory + caches + the two execution engines,
//! with coherent host access between launches.

use crate::cache::Cache;
use crate::config::GpuConfig;
pub use crate::due::LaunchAbort;
use crate::fault::{SwInjector, UarchInjector};
use crate::functional::run_functional;
use crate::lifetime::{LifetimeTracker, Liveness};
use crate::mem::GlobalMem;
use crate::snapshot::{ConvergeWith, DeviceSnapshot, ResumeOutcome, SimSnapshot};
use crate::stats::Stats;
use crate::timed::{run_timed, run_timed_ctl, TimedCtl};
use vgpu_arch::{Kernel, LaunchConfig};

/// Which execution engine a [`Gpu`] uses.
///
/// * `Timed` — cycle-level microarchitecture simulation (gpuFI-4 / AVF side
///   of the study).
/// * `Functional` — hardware-agnostic execution (NVBitFI / SVF side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Timed,
    Functional,
}

/// Run budgets used for timeout classification. Golden runs should use
/// [`Budget::unlimited`]; faulty runs derive budgets from the golden
/// statistics (`timeout_factor ×` the golden cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Cycle budget (timed engine).
    pub cycles: u64,
    /// Thread-level dynamic instruction budget (functional engine).
    pub instrs: u64,
}

impl Budget {
    pub fn unlimited() -> Self {
        Budget {
            cycles: u64::MAX / 2,
            instrs: u64::MAX / 2,
        }
    }
}

/// The fault (if any) injected into a launch.
pub enum FaultPlan<'a> {
    None,
    /// Microarchitecture-level bit flip (timed engine only).
    Uarch(&'a mut UarchInjector),
    /// Software-level value flip (either engine; normally functional).
    Sw(&'a mut SwInjector),
}

/// A virtual GPU: configuration, device memory, cache hierarchy, engines.
///
/// Cache contents persist across launches (as on hardware, where the L2 is
/// shared across kernels of an application); L1s are invalidated at each
/// kernel boundary by the timed engine. Host accessors are L2-coherent so
/// host-side glue between kernels observes exactly what a `cudaMemcpy`
/// would.
pub struct Gpu {
    pub cfg: GpuConfig,
    mem: GlobalMem,
    mode: Mode,
    l1ds: Vec<Cache>,
    l1ts: Vec<Cache>,
    l2: Cache,
    tracker: Option<LifetimeTracker>,
}

impl Gpu {
    pub fn new(cfg: GpuConfig, mem: GlobalMem, mode: Mode) -> Self {
        let l1ds = (0..cfg.num_sms)
            .map(|_| Cache::new(cfg.l1d.clone()))
            .collect();
        let l1ts = (0..cfg.num_sms)
            .map(|_| Cache::new(cfg.l1t.clone()))
            .collect();
        let l2 = Cache::new(cfg.l2.clone());
        Gpu {
            cfg,
            mem,
            mode,
            l1ds,
            l1ts,
            l2,
            tracker: None,
        }
    }

    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Enable ACE lifetime tracking for subsequent timed launches (the
    /// `--ace` mode). Must be attached before the first launch so L2
    /// lifetimes spanning kernels are measured from a common origin.
    pub fn attach_tracker(&mut self) {
        assert_eq!(
            self.mode,
            Mode::Timed,
            "ACE lifetime tracking requires the timed engine"
        );
        self.tracker = Some(LifetimeTracker::new(&self.cfg));
    }

    /// Record a host-side word read against an attached tracker: if
    /// `addr` is L2-resident, its value reached the host (classification
    /// or inter-launch glue), which the liveness index counts as a read.
    /// No-op without a tracker or outside timed mode.
    pub fn track_host_read(&mut self, addr: u32) {
        if self.mode != Mode::Timed {
            return;
        }
        let Some(tr) = self.tracker.as_mut() else {
            return;
        };
        let lb = self.l2.geom().line_bytes;
        if let Some(idx) = self.l2.probe(addr / lb) {
            tr.host_peek(idx, ((addr % lb) / 4) as usize);
        }
    }

    /// Cumulative ACE word-cycles per structure so far (`HwStructure::ALL`
    /// order), if a tracker is attached. Open L2 intervals are not yet
    /// included — see [`Gpu::finish_tracker`].
    pub fn tracker_totals(&self) -> Option<[u64; 5]> {
        self.tracker.as_ref().map(|t| t.ace_word_cycles())
    }

    /// Number of lifetime events (reads/writes/fills/evictions) recorded
    /// so far, if a tracker is attached.
    pub fn tracker_events(&self) -> Option<u64> {
        self.tracker.as_ref().map(|t| t.events())
    }

    /// Close every surviving L2 interval (dirty lines count live up to
    /// now), detach the tracker, and return what it measured: final
    /// per-structure ACE word-cycle totals and the liveness index.
    pub fn finish_tracker(&mut self) -> Option<([u64; 5], Liveness)> {
        let tr = self.tracker.take()?;
        let l2 = &self.l2;
        Some(tr.finish(|line| l2.line_dirty(line)))
    }

    /// Launch a kernel. Returns per-launch statistics, or the abort cause
    /// (DUE / timeout) for classification.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        lc: &LaunchConfig,
        fault: FaultPlan<'_>,
        budget: &Budget,
    ) -> Result<Stats, LaunchAbort> {
        let res = self.launch_inner(kernel, lc, fault, budget);
        if obs::enabled() {
            self.export_metrics(&res);
        }
        res
    }

    /// Export per-launch simulator counters into the global obs registry,
    /// labeled by engine mode. Only called while observability is on.
    fn export_metrics(&self, res: &Result<Stats, LaunchAbort>) {
        let mode = match self.mode {
            Mode::Timed => "timed",
            Mode::Functional => "functional",
        };
        let labels: &[(&str, &str)] = &[("mode", mode)];
        obs::counter_add("sim_launches_total", labels, 1);
        match res {
            Ok(s) => {
                obs::counter_add("sim_cycles_total", labels, s.cycles);
                obs::counter_add("sim_issue_cycles_total", labels, s.issue_cycles);
                obs::counter_add("sim_stall_cycles_total", labels, s.stall_cycles);
                obs::counter_add("sim_thread_instrs_total", labels, s.thread_instrs);
                obs::counter_add("sim_mem_reads_total", labels, s.mem_reads);
                obs::counter_add("sim_mem_writes_total", labels, s.mem_writes);
            }
            Err(abort) => {
                let cause = match abort {
                    LaunchAbort::Timeout => "timeout",
                    LaunchAbort::Due(_) => "due",
                };
                obs::counter_add("sim_aborts_total", &[("mode", mode), ("cause", cause)], 1);
            }
        }
    }

    fn launch_inner(
        &mut self,
        kernel: &Kernel,
        lc: &LaunchConfig,
        fault: FaultPlan<'_>,
        budget: &Budget,
    ) -> Result<Stats, LaunchAbort> {
        match self.mode {
            Mode::Timed => {
                let (uarch, sw) = match fault {
                    FaultPlan::None => (None, None),
                    FaultPlan::Uarch(u) => (Some(u), None),
                    FaultPlan::Sw(s) => (None, Some(s)),
                };
                let res = run_timed(
                    &self.cfg,
                    &mut self.mem,
                    &mut self.l1ds,
                    &mut self.l1ts,
                    &mut self.l2,
                    kernel,
                    lc,
                    uarch,
                    sw,
                    self.tracker.as_mut(),
                    budget.cycles,
                );
                if let Ok(s) = &res {
                    if let Some(tr) = self.tracker.as_mut() {
                        tr.advance_base(s.cycles);
                    }
                }
                res
            }
            Mode::Functional => {
                let sw = match fault {
                    FaultPlan::None => None,
                    FaultPlan::Sw(s) => Some(s),
                    FaultPlan::Uarch(_) => {
                        panic!("microarchitecture faults require the timed engine")
                    }
                };
                run_functional(
                    &mut self.mem,
                    kernel,
                    lc,
                    sw,
                    budget.instrs,
                    self.cfg.max_stack_depth,
                )
            }
        }
    }

    // ---- snapshots and fast-forward ------------------------------------

    /// Fault-free launch that additionally captures a [`SimSnapshot`] at
    /// each cycle of `capture_at` (sorted ascending). The run itself is
    /// bit-identical to `launch(…, FaultPlan::None, …)` — capture points
    /// only clone state, never perturb it. Timed mode, no ACE tracker.
    pub fn launch_instrumented(
        &mut self,
        kernel: &Kernel,
        lc: &LaunchConfig,
        budget: &Budget,
        capture_at: &[u64],
    ) -> Result<(Stats, Vec<SimSnapshot>), LaunchAbort> {
        assert_eq!(self.mode, Mode::Timed, "snapshots require the timed engine");
        assert!(
            self.tracker.is_none(),
            "snapshots are incompatible with ACE lifetime tracking"
        );
        let mut ctl = TimedCtl::none();
        ctl.capture_at = capture_at;
        let res = run_timed_ctl(
            &self.cfg,
            &mut self.mem,
            &mut self.l1ds,
            &mut self.l1ts,
            &mut self.l2,
            kernel,
            lc,
            None,
            None,
            None,
            budget.cycles,
            &mut ctl,
        );
        if obs::enabled() {
            self.export_metrics(&res);
        }
        res.map(|s| (s, ctl.captured))
    }

    /// Fault-free launch capturing a single snapshot at `cycle`
    /// (convenience over [`Gpu::launch_instrumented`]). Returns `None`
    /// for the snapshot if the launch finished before reaching `cycle`.
    pub fn snapshot_at(
        &mut self,
        kernel: &Kernel,
        lc: &LaunchConfig,
        budget: &Budget,
        cycle: u64,
    ) -> Result<(Stats, Option<SimSnapshot>), LaunchAbort> {
        let (stats, mut snaps) = self.launch_instrumented(kernel, lc, budget, &[cycle])?;
        Ok((stats, snaps.pop()))
    }

    /// Resume a launch mid-flight from `snap` — optionally with a pending
    /// microarchitecture `fault` (whose cycle must be ≥ the snapshot's)
    /// and a golden reference enabling the early masked-convergence exit.
    /// The machine is restored verbatim from the snapshot first, so the
    /// result is bit-identical to running the same launch with the same
    /// fault from cycle 0.
    pub fn resume_from(
        &mut self,
        snap: &SimSnapshot,
        kernel: &Kernel,
        lc: &LaunchConfig,
        fault: Option<&mut UarchInjector>,
        budget: &Budget,
        converge: Option<ConvergeWith<'_>>,
    ) -> Result<ResumeOutcome, LaunchAbort> {
        assert_eq!(self.mode, Mode::Timed, "snapshots require the timed engine");
        assert!(
            self.tracker.is_none(),
            "snapshot resume is incompatible with ACE lifetime tracking"
        );
        if let Some(f) = &fault {
            assert!(
                f.fault.cycle >= snap.cycle(),
                "snapshot (cycle {}) is past the fault cycle {}",
                snap.cycle(),
                f.fault.cycle
            );
        }
        let mut ctl = TimedCtl::none();
        ctl.resume = Some(snap);
        ctl.converge = converge;
        let res = run_timed_ctl(
            &self.cfg,
            &mut self.mem,
            &mut self.l1ds,
            &mut self.l1ts,
            &mut self.l2,
            kernel,
            lc,
            fault,
            None,
            None,
            budget.cycles,
            &mut ctl,
        );
        if obs::enabled() {
            self.export_metrics(&res);
        }
        res.map(|stats| ResumeOutcome {
            stats,
            resumed_at: snap.cycle(),
            simulated_cycles: ctl.simulated_cycles,
            converged_at: ctl.converged_at,
        })
    }

    /// Capture the device state (global memory + cache hierarchy) between
    /// launches — the launch-boundary snapshot of the fast-forward path.
    pub fn device_snapshot(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            mem: self.mem.clone(),
            l1ds: self.l1ds.clone(),
            l1ts: self.l1ts.clone(),
            l2: self.l2.clone(),
        }
    }

    /// Restore device state captured by [`Gpu::device_snapshot`] verbatim.
    pub fn restore_device(&mut self, snap: &DeviceSnapshot) {
        assert_eq!(
            self.mem.size(),
            snap.mem.size(),
            "snapshot from a different arena"
        );
        self.mem.clone_from(&snap.mem);
        for (c, s) in self.l1ds.iter_mut().zip(&snap.l1ds) {
            c.clone_from(s);
        }
        for (c, s) in self.l1ts.iter_mut().zip(&snap.l1ts) {
            c.clone_from(s);
        }
        self.l2.clone_from(&snap.l2);
    }

    /// Architectural equality with a launch-boundary snapshot: global
    /// memory and the L2 must match bit-for-bit ([`Cache::arch_eq`]); the
    /// L1s must simply be empty on both sides, which they always are at a
    /// boundary (the timed engine invalidates them at launch end) — an
    /// empty cache's LRU stamp is dead state. A `true` here means every
    /// subsequent launch behaves bit-identically on both machines.
    pub fn device_converged(&self, snap: &DeviceSnapshot) -> bool {
        self.mem == snap.mem
            && self.l2.arch_eq(&snap.l2)
            && self.l1ds.iter().all(Cache::no_live_lines)
            && snap.l1ds.iter().all(Cache::no_live_lines)
            && self.l1ts.iter().all(Cache::no_live_lines)
            && snap.l1ts.iter().all(Cache::no_live_lines)
    }

    /// Return the GPU to its just-constructed state — zeroed arena bytes
    /// (the mapped-range table survives), reset caches, no tracker — so a
    /// pooled instance can be reused without reallocating (per-worker
    /// scratch reuse on the campaign hot path).
    pub fn reset_in_place(&mut self) {
        self.mem.clear_data();
        for c in self.l1ds.iter_mut().chain(self.l1ts.iter_mut()) {
            c.reset();
        }
        self.l2.reset();
        self.tracker = None;
    }

    // ---- coherent host access ------------------------------------------

    /// Host word read: sees the L2's copy if resident (timed mode).
    pub fn host_read_u32(&self, addr: u32) -> u32 {
        if self.mode == Mode::Timed {
            if let Some(v) = self.l2.peek_word(addr) {
                return v;
            }
        }
        self.mem.read_u32(addr)
    }

    /// Host word write: updates DRAM and any resident L2 copy. With a
    /// lifetime tracker attached, a host overwrite of a resident L2 word
    /// closes the word's interval dead — the device-written value was
    /// superseded before any further architectural use.
    pub fn host_write_u32(&mut self, addr: u32, v: u32) {
        self.mem.write_u32(addr, v);
        if self.mode == Mode::Timed && self.l2.poke_word(addr, v) {
            if let Some(tr) = self.tracker.as_mut() {
                let lb = self.l2.geom().line_bytes;
                if let Some(idx) = self.l2.probe(addr / lb) {
                    tr.cache_write(
                        crate::fault::HwStructure::L2,
                        0,
                        idx,
                        ((addr % lb) / 4) as usize,
                        0,
                    );
                }
            }
        }
    }

    pub fn host_read_f32(&self, addr: u32) -> f32 {
        f32::from_bits(self.host_read_u32(addr))
    }

    pub fn host_write_f32(&mut self, addr: u32, v: f32) {
        self.host_write_u32(addr, v.to_bits());
    }

    /// Read `words` consecutive words starting at `addr`.
    pub fn host_read_block(&self, addr: u32, words: u32) -> Vec<u32> {
        (0..words)
            .map(|i| self.host_read_u32(addr + i * 4))
            .collect()
    }

    /// Write a block of words starting at `addr`.
    pub fn host_write_block(&mut self, addr: u32, data: &[u32]) {
        for (i, &v) in data.iter().enumerate() {
            self.host_write_u32(addr + i as u32 * 4, v);
        }
    }

    /// Direct access to the arena (tests, diagnostics).
    pub fn mem(&self) -> &GlobalMem {
        &self.mem
    }

    pub fn mem_mut(&mut self) -> &mut GlobalMem {
        &mut self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu_arch::{KernelBuilder, MemSpace, Operand};

    fn store_kernel() -> vgpu_arch::Kernel {
        // out[gid] = gid
        let mut a = KernelBuilder::new("t");
        let (gid, tmp, addr) = (a.reg(), a.reg(), a.reg());
        a.linear_tid(gid, tmp);
        a.mov(addr, a.param(0));
        a.iscadd(addr, gid, Operand::Reg(addr), 2);
        a.st(MemSpace::Global, addr, 0, gid);
        a.build().unwrap()
    }

    fn fresh(mode: Mode) -> (Gpu, LaunchConfig, u32) {
        let mut planner = crate::mem::ArenaPlanner::new();
        let out = planner.alloc(64 * 4);
        let mem = planner.build();
        let gpu = Gpu::new(GpuConfig::default(), mem, mode);
        (gpu, LaunchConfig::new(2, 32, vec![out]), out)
    }

    #[test]
    fn budget_unlimited_is_huge() {
        let b = Budget::unlimited();
        assert!(b.cycles > 1 << 60);
        assert!(b.instrs > 1 << 60);
    }

    #[test]
    fn host_reads_see_l2_resident_writes_in_timed_mode() {
        let k = store_kernel();
        let (mut gpu, lc, out) = fresh(Mode::Timed);
        gpu.launch(&k, &lc, FaultPlan::None, &Budget::unlimited())
            .unwrap();
        for i in 0..64 {
            assert_eq!(gpu.host_read_u32(out + i * 4), i);
        }
    }

    #[test]
    fn host_write_updates_resident_l2_copy() {
        let k = store_kernel();
        let (mut gpu, lc, out) = fresh(Mode::Timed);
        gpu.launch(&k, &lc, FaultPlan::None, &Budget::unlimited())
            .unwrap();
        // Output lines are dirty in L2; a host write must be visible to a
        // subsequent host read (and to the next kernel through the L2).
        gpu.host_write_u32(out + 8, 777);
        assert_eq!(gpu.host_read_u32(out + 8), 777);
    }

    #[test]
    fn block_accessors_roundtrip() {
        let (mut gpu, _, out) = fresh(Mode::Functional);
        gpu.host_write_block(out, &[1, 2, 3, 4]);
        assert_eq!(gpu.host_read_block(out, 4), vec![1, 2, 3, 4]);
        gpu.host_write_f32(out, 2.5);
        assert_eq!(gpu.host_read_f32(out), 2.5);
    }

    #[test]
    #[should_panic(expected = "timed engine")]
    fn uarch_fault_in_functional_mode_panics() {
        let k = store_kernel();
        let (mut gpu, lc, _) = fresh(Mode::Functional);
        let mut inj = crate::fault::UarchInjector::new(crate::fault::UarchFault {
            cycle: 0,
            structure: crate::fault::HwStructure::L2,
            loc_pick: 0,
            bit: 0,
            pattern: crate::fault::FaultPattern::SingleBit,
        });
        let _ = gpu.launch(&k, &lc, FaultPlan::Uarch(&mut inj), &Budget::unlimited());
    }

    #[test]
    fn mode_accessor() {
        let (gpu, _, _) = fresh(Mode::Timed);
        assert_eq!(gpu.mode(), Mode::Timed);
    }

    #[test]
    fn snapshot_resume_reproduces_golden_suffix() {
        let k = store_kernel();
        let (mut g1, lc, out) = fresh(Mode::Timed);
        let golden = g1
            .launch(&k, &lc, FaultPlan::None, &Budget::unlimited())
            .unwrap();
        let gold_out = g1.host_read_block(out, 64);

        let (mut g2, lc2, _) = fresh(Mode::Timed);
        let mid = golden.cycles / 2;
        let (istats, snap) = g2.snapshot_at(&k, &lc2, &Budget::unlimited(), mid).unwrap();
        assert_eq!(istats, golden, "instrumented run must not perturb stats");
        let snap = snap.expect("mid-run snapshot");
        assert_eq!(snap.cycle(), mid);

        let (mut g3, lc3, out3) = fresh(Mode::Timed);
        let r = g3
            .resume_from(&snap, &k, &lc3, None, &Budget::unlimited(), None)
            .unwrap();
        assert_eq!(r.stats, golden, "resumed run must finish bit-identically");
        assert_eq!(r.resumed_at, mid);
        assert_eq!(r.simulated_cycles, golden.cycles - mid);
        assert_eq!(r.converged_at, None);
        assert_eq!(g3.host_read_block(out3, 64), gold_out);
    }

    #[test]
    fn resume_with_fault_matches_slow_path() {
        use crate::fault::{HwStructure, UarchFault, UarchInjector};
        let k = store_kernel();
        let (mut g1, lc, out) = fresh(Mode::Timed);
        let golden = g1
            .launch(&k, &lc, FaultPlan::None, &Budget::unlimited())
            .unwrap();
        let fault = UarchFault {
            cycle: golden.cycles / 2 + 1,
            structure: HwStructure::L2,
            loc_pick: 12345,
            bit: 7,
            pattern: crate::fault::FaultPattern::SingleBit,
        };

        // Slow path: full run with the fault from cycle 0.
        let (mut gs, lcs, outs) = fresh(Mode::Timed);
        let mut slow_inj = UarchInjector::new(fault);
        let slow = gs
            .launch(
                &k,
                &lcs,
                FaultPlan::Uarch(&mut slow_inj),
                &Budget::unlimited(),
            )
            .unwrap();
        let slow_out = gs.host_read_block(outs, 64);

        // Fast path: snapshot before the fault, resume with it pending.
        let (mut gc, lcc, _) = fresh(Mode::Timed);
        let (_, snap) = gc
            .snapshot_at(&k, &lcc, &Budget::unlimited(), golden.cycles / 2)
            .unwrap();
        let snap = snap.unwrap();
        let (mut gf, lcf, outf) = fresh(Mode::Timed);
        let mut ff_inj = UarchInjector::new(fault);
        let r = gf
            .resume_from(
                &snap,
                &k,
                &lcf,
                Some(&mut ff_inj),
                &Budget::unlimited(),
                None,
            )
            .unwrap();
        assert_eq!(r.stats, slow, "fault trial must be path-independent");
        assert_eq!(slow_inj.applied, ff_inj.applied);
        assert_eq!(slow_inj.population, ff_inj.population);
        assert_eq!(gf.host_read_block(outf, 64), slow_out);
        assert_eq!(gf.host_read_block(out, 64), gs.host_read_block(out, 64));
        let _ = out;
    }
}
