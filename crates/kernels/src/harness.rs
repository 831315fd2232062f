//! The application harness: drives multi-kernel GPU applications through
//! golden and fault-injection runs, with optional thread-level TMR
//! hardening (Figure 6 of the paper).
//!
//! A [`Benchmark`] implementation expresses its host program against
//! [`RunCtl`]: it allocates device buffers once, initializes inputs, and
//! interleaves kernel launches with host-side glue. The same host program
//! then serves four purposes:
//!
//! * **golden** runs record per-launch statistics and the final output;
//! * **faulty** runs inject one fault into one chosen launch and classify
//!   the outcome against the golden output;
//! * **hardened** variants transparently triplicate buffers, launch with
//!   `grid_y == 3`, and majority-vote after every protected kernel;
//! * **profiling** runs collect the Figure-3 utilization metrics.

use std::cell::RefCell;
use std::sync::Arc;

use vgpu_arch::{Kernel, LaunchConfig};
use vgpu_sim::due::LaunchAbort;
use vgpu_sim::{
    ArenaPlanner, Budget, ConvergeWith, DeviceSnapshot, FaultPlan, Gpu, GpuConfig, Liveness, Mode,
    SimSnapshot, Stats, SwFault, SwInjector, UarchFault, UarchInjector,
};

use crate::tmr;

thread_local! {
    /// Per-thread GPU scratch pool: `faulty_run` / `faulty_run_ff` park
    /// their `Gpu` here on exit and `RunCtl::alloc` revives it (zeroed in
    /// place) when the next trial on this thread wants an identical
    /// configuration and arena layout. Under rayon this makes the hot
    /// campaign loop reuse one arena per worker instead of reallocating
    /// megabytes per trial.
    static GPU_SCRATCH: RefCell<Option<Gpu>> = const { RefCell::new(None) };
}

/// Why an application run did not produce an output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppAbort {
    /// A kernel crashed or timed out.
    Launch(LaunchAbort),
    /// TMR majority voting found three mutually different copies
    /// (classified as DUE, per the paper's Figure 6 workflow).
    VoteFailed,
}

impl From<LaunchAbort> for AppAbort {
    fn from(l: LaunchAbort) -> Self {
        AppAbort::Launch(l)
    }
}

/// Fault-effect classification (Section II-A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    Masked,
    Sdc,
    Timeout,
    Due,
}

/// Result of one faulty application run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    pub outcome: Outcome,
    /// Total timed cycles (or functional instructions) of the run, used by
    /// the Figure-11 control-path proxy: a masked run whose cycle count
    /// differs from golden had its control path disturbed. Under
    /// fast-forward this still counts *architectural* cycles — skipped
    /// prefixes and spliced suffixes are credited at their golden cost —
    /// so it is bit-identical to the slow path's value.
    pub total_cost: u64,
    /// Cycles (or instructions) actually simulated: `total_cost` minus
    /// everything fast-forward skipped or spliced. Equal to `total_cost`
    /// on the slow path. A scheduling statistic only — anything that
    /// feeds classification (including the campaign watchdog's cycle
    /// budget) must use `total_cost`, which both paths agree on.
    pub simulated_cost: u64,
    /// Cycle the injected launch was resumed at, if fast-forward used a
    /// mid-launch snapshot.
    pub resumed_at: Option<u64>,
    /// Whether the disturbed machine provably re-converged to golden
    /// (in-launch splice or launch-boundary match) and the remaining
    /// execution was credited instead of simulated.
    pub converged: bool,
    /// Whether the planned fault was actually applied (a fault aimed at an
    /// empty structure or past the end of execution never fires).
    pub applied: bool,
    /// For SDC outcomes: how many output words differ from golden — the
    /// error-propagation magnitude (a single SIMT fault frequently fans
    /// out into many corrupted outputs, cf. the paper's introduction).
    pub corrupted_words: u32,
}

/// Record of one launch during a golden run.
#[derive(Debug, Clone)]
pub struct LaunchRecord {
    /// Index into [`Benchmark::kernels`]. Vote launches carry the index of
    /// the kernel they protect.
    pub kernel_idx: usize,
    pub is_vote: bool,
    pub stats: Stats,
    /// Threads launched (all TMR copies included).
    pub threads: u64,
    /// CTAs launched.
    pub ctas: u64,
    /// Architectural registers per thread.
    pub num_regs: u8,
    /// Static shared memory per CTA in bytes.
    pub smem_bytes: u32,
}

/// Everything learned from a golden run.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    pub records: Vec<LaunchRecord>,
    /// Final output words (copy 0 for hardened apps).
    pub output: Vec<u32>,
    /// Total cycles (timed) or thread instructions (functional).
    pub total_cost: u64,
}

impl GoldenRun {
    /// Aggregate statistics over the launches attributed to `kernel_idx`.
    pub fn kernel_stats(&self, kernel_idx: usize) -> Stats {
        let mut s = Stats::default();
        for r in self.records.iter().filter(|r| r.kernel_idx == kernel_idx) {
            s.add(&r.stats);
        }
        s
    }

    /// Aggregate statistics over the whole application.
    pub fn app_stats(&self) -> Stats {
        let mut s = Stats::default();
        for r in &self.records {
            s.add(&r.stats);
        }
        s
    }
}

/// The fault to inject into one specific launch of the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedFault {
    Uarch(UarchFault),
    Sw(SwFault),
}

/// Golden-prefix snapshots of one application, captured by
/// [`golden_run_snapshots`] and shared (via `Arc`) across every
/// fast-forward trial of a campaign. Always timed and unhardened, to
/// match the microarchitectural campaigns that consume them.
#[derive(Debug, Clone)]
pub struct AppSnapshots {
    /// `boundaries[i]`: device state immediately after golden launch `i`
    /// retired (before any host glue that follows it).
    pub boundaries: Vec<DeviceSnapshot>,
    /// `mids[i]`: mid-launch snapshots of launch `i`, ascending by cycle;
    /// always includes cycle 0, so a resume point exists for every fault.
    pub mids: Vec<Vec<SimSnapshot>>,
    /// Total approximate heap footprint (for the `snapshot_bytes` gauge).
    pub bytes: u64,
}

impl AppSnapshots {
    /// Total number of snapshots held (mid-launch + boundary).
    pub fn count(&self) -> usize {
        self.boundaries.len() + self.mids.iter().map(Vec::len).sum::<usize>()
    }
}

/// Fast-forward state threaded through one faulty run.
struct FfCtx {
    snaps: Arc<AppSnapshots>,
    /// Golden per-launch statistics, indexed by launch ordinal (prefix
    /// credit + the splice reference of the convergence exit).
    golden_stats: Vec<Stats>,
    /// The machine has provably re-converged to golden; every remaining
    /// launch is credited instead of simulated.
    converged: bool,
    /// Cycle the injected launch resumed at.
    resumed_at: Option<u64>,
    /// Deferred boundary restore: the ordinal of the golden boundary the
    /// device should be in. Consecutive skipped launches only bump this;
    /// the (full-device, O(mem)) restore is materialized once, at the
    /// next real device access — simulation, host read/write, or output
    /// classification.
    pending_restore: Option<usize>,
}

/// What a [`RunCtl`] is doing.
enum CtlMode {
    Golden,
    /// Instrumented golden pass capturing [`AppSnapshots`]; asserts
    /// bit-identity with the reference golden run as it goes.
    Capture {
        /// Snapshots per launch (`~k`, evenly spaced over the launch).
        k: usize,
        /// Reference golden per-launch statistics.
        golden_stats: Vec<Stats>,
        boundaries: Vec<DeviceSnapshot>,
        mids: Vec<Vec<SimSnapshot>>,
        /// Test hook: `(ordinal, cycle)` — capture an extra snapshot of
        /// that launch at that cycle, immediately resume from it with no
        /// fault, and assert the suffix is reproduced bit-identically.
        probe: Option<(usize, u64)>,
    },
    Faulty {
        target_launch: usize,
        fault: PlannedFault,
        /// Per-launch budgets from the golden run (indexed by ordinal).
        budgets: Vec<Budget>,
        /// Whole-application budget backstop.
        app_budget: Budget,
        applied: bool,
        /// `Some` enables golden-prefix fast-forward + convergence exit.
        ff: Option<FfCtx>,
    },
}

/// Controller handed to [`Benchmark::run`]: owns the GPU, performs
/// (optionally triplicated) allocation and host access, launches kernels,
/// and injects the planned fault at the right launch.
pub struct RunCtl {
    pub cfg: GpuConfig,
    mode_sim: Mode,
    hardened: bool,
    gpu: Option<Gpu>,
    tmr_stride: u32,
    flag_addr: u32,
    vote_kernel: Kernel,
    launch_idx: usize,
    records: Vec<LaunchRecord>,
    ctl: CtlMode,
    total_cost: u64,
    /// Cycles/instructions actually simulated (excludes fast-forwarded
    /// prefixes and spliced suffixes); equals `total_cost` off the fast
    /// path.
    simulated_cost: u64,
    /// Try to revive the thread-local scratch [`Gpu`] in `alloc` instead
    /// of building a fresh one (campaign hot path only).
    use_scratch: bool,
    outputs: Vec<(u32, u32)>,
    /// Attach a lifetime tracker at `alloc` time (golden runs only).
    ace: bool,
    /// Cumulative tracker totals after the previous launch.
    ace_prev: [u64; 5],
    /// Per-launch ACE word-cycle deltas, aligned with `records`.
    ace_per_launch: Vec<[u64; 5]>,
}

impl RunCtl {
    fn new(cfg: GpuConfig, mode_sim: Mode, hardened: bool, ctl: CtlMode) -> Self {
        RunCtl {
            cfg,
            mode_sim,
            hardened,
            gpu: None,
            tmr_stride: 0,
            flag_addr: 0,
            vote_kernel: tmr::vote_kernel(),
            launch_idx: 0,
            records: Vec::new(),
            ctl,
            total_cost: 0,
            simulated_cost: 0,
            use_scratch: false,
            outputs: Vec::new(),
            ace: false,
            ace_prev: [0; 5],
            ace_per_launch: Vec::new(),
        }
    }

    /// Allocate all device buffers the application needs, in one shot.
    /// Returns the copy-0 base address of each buffer. In hardened mode the
    /// whole set is triplicated at a uniform stride and a vote-flag word is
    /// appended.
    pub fn alloc(&mut self, sizes: &[u32]) -> Vec<u32> {
        assert!(
            self.gpu.is_none(),
            "alloc must be called exactly once, first"
        );
        let mut planner = ArenaPlanner::new();
        let addrs: Vec<u32> = sizes.iter().map(|&s| planner.alloc(s)).collect();
        if self.hardened {
            let base0 = addrs[0];
            // Copies 1 and 2: repeat the same allocation sequence; the
            // planner is deterministic, so internal offsets are identical.
            let first1 = planner.alloc(sizes[0]);
            for &s in &sizes[1..] {
                planner.alloc(s);
            }
            self.tmr_stride = first1 - base0;
            let first2 = planner.alloc(sizes[0]);
            for &s in &sizes[1..] {
                planner.alloc(s);
            }
            assert_eq!(first2 - first1, self.tmr_stride, "uniform TMR stride");
            self.flag_addr = planner.alloc(4);
        }
        let scratch = if self.use_scratch && !self.ace {
            GPU_SCRATCH.take().filter(|g| {
                g.mode() == self.mode_sim && g.cfg == self.cfg && planner.builds_layout_of(g.mem())
            })
        } else {
            None
        };
        let mut gpu = match scratch {
            Some(mut g) => {
                // Identical configuration and arena layout: zero in place
                // instead of reallocating (hot campaign loop).
                g.reset_in_place();
                g
            }
            None => Gpu::new(self.cfg.clone(), planner.build(), self.mode_sim),
        };
        if self.ace {
            gpu.attach_tracker();
        }
        self.gpu = Some(gpu);
        addrs
    }

    /// Park this run's `Gpu` in the thread-local scratch pool for the next
    /// trial on this thread.
    fn stash_scratch(&mut self) {
        if let Some(g) = self.gpu.take() {
            GPU_SCRATCH.set(Some(g));
        }
    }

    /// Materialize a deferred fast-forward boundary restore. Must run
    /// before anything observes device state — host reads and writes,
    /// real simulation, output classification.
    fn flush_ff(&mut self) {
        let CtlMode::Faulty { ff: Some(ffc), .. } = &mut self.ctl else {
            return;
        };
        if let Some(ord) = ffc.pending_restore.take() {
            let gpu = self
                .gpu
                .as_mut()
                .expect("alloc() must run before device access");
            gpu.restore_device(&ffc.snaps.boundaries[ord]);
        }
    }

    fn gpu_mut(&mut self) -> &mut Gpu {
        self.gpu
            .as_mut()
            .expect("alloc() must run before device access")
    }

    /// True when running the TMR-hardened variant.
    pub fn hardened(&self) -> bool {
        self.hardened
    }

    /// Region stride between TMR copies (0 when unhardened). Diagnostic.
    pub fn tmr_stride(&self) -> u32 {
        self.tmr_stride
    }

    /// Host write to a *single* copy, bypassing TMR replication — only for
    /// tests and diagnostics that need to desynchronise redundant copies.
    pub fn write_u32_single(&mut self, addr: u32, v: u32) {
        self.flush_ff();
        self.gpu_mut().host_write_u32(addr, v);
    }

    /// Host write, replicated to every TMR copy.
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        self.flush_ff();
        let stride = self.tmr_stride;
        let copies = if self.hardened { 3 } else { 1 };
        let gpu = self.gpu_mut();
        for c in 0..copies {
            gpu.host_write_u32(addr + c * stride, v);
        }
    }

    pub fn write_f32(&mut self, addr: u32, v: f32) {
        self.write_u32(addr, v.to_bits());
    }

    /// Host read (copy 0 — the voted copy in hardened mode).
    pub fn read_u32(&mut self, addr: u32) -> u32 {
        self.flush_ff();
        let gpu = self.gpu_mut();
        gpu.track_host_read(addr);
        gpu.host_read_u32(addr)
    }

    pub fn read_f32(&mut self, addr: u32) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Register the application's final output buffers (copy-0 address,
    /// word count). Must be called before `finish`.
    pub fn set_outputs(&mut self, outputs: &[(u32, u32)]) {
        self.outputs = outputs.to_vec();
    }

    /// Launch `kernel` as benchmark kernel `kernel_idx` with `grid_x` CTAs
    /// of `block_x` threads and the given (benchmark-level) parameters.
    ///
    /// The TMR stride is prepended as parameter word 0 — kernels built with
    /// [`tmr::prologue`] use it to rebase their buffer pointers per copy —
    /// and hardened launches run with `grid_y == 3`.
    pub fn launch(
        &mut self,
        kernel_idx: usize,
        kernel: &Kernel,
        grid_x: u32,
        block_x: u32,
        params: Vec<u32>,
    ) -> Result<(), AppAbort> {
        let mut full_params = Vec::with_capacity(params.len() + 1);
        full_params.push(self.tmr_stride);
        full_params.extend(params);
        let lc = LaunchConfig {
            grid_x,
            grid_y: if self.hardened { 3 } else { 1 },
            block_x,
            params: full_params,
        };
        self.do_launch(kernel_idx, false, kernel, lc)
    }

    /// In hardened mode, majority-vote (and repair) the listed buffers
    /// produced by `kernel_idx`; a vote with three mutually different
    /// copies aborts the application as [`AppAbort::VoteFailed`].
    /// No-op when unhardened.
    pub fn vote(&mut self, kernel_idx: usize, bufs: &[(u32, u32)]) -> Result<(), AppAbort> {
        if !self.hardened {
            return Ok(());
        }
        for &(addr, words) in bufs {
            let vk = self.vote_kernel.clone();
            let lc = LaunchConfig {
                grid_x: words.div_ceil(tmr::VOTE_BLOCK),
                grid_y: 1,
                block_x: tmr::VOTE_BLOCK,
                params: vec![self.tmr_stride, addr, words, self.flag_addr],
            };
            self.do_launch(kernel_idx, true, &vk, lc)?;
            if self.read_u32(self.flag_addr) != 0 {
                return Err(AppAbort::VoteFailed);
            }
        }
        Ok(())
    }

    fn do_launch(
        &mut self,
        kernel_idx: usize,
        is_vote: bool,
        kernel: &Kernel,
        lc: LaunchConfig,
    ) -> Result<(), AppAbort> {
        let ordinal = self.launch_idx;
        self.launch_idx += 1;
        match &mut self.ctl {
            CtlMode::Golden => {
                let gpu = self.gpu.as_mut().expect("alloc before launch");
                let stats = gpu.launch(kernel, &lc, FaultPlan::None, &Budget::unlimited())?;
                let cost = if gpu.mode() == Mode::Timed {
                    stats.cycles
                } else {
                    stats.thread_instrs
                };
                self.total_cost += cost;
                self.simulated_cost += cost;
                let ace_tot = gpu.tracker_totals();
                self.records.push(LaunchRecord {
                    kernel_idx,
                    is_vote,
                    stats,
                    threads: lc.num_threads(),
                    ctas: lc.num_ctas(),
                    num_regs: kernel.num_regs,
                    smem_bytes: kernel.smem_bytes,
                });
                if let Some(tot) = ace_tot {
                    let mut delta = [0u64; 5];
                    for (d, (now, prev)) in delta.iter_mut().zip(tot.iter().zip(&self.ace_prev)) {
                        *d = now - prev;
                    }
                    self.ace_prev = tot;
                    self.ace_per_launch.push(delta);
                }
                Ok(())
            }
            CtlMode::Capture {
                k,
                golden_stats,
                boundaries,
                mids,
                probe,
            } => {
                let gpu = self.gpu.as_mut().expect("alloc before launch");
                let expect = golden_stats.get(ordinal).copied().unwrap_or_else(|| {
                    panic!("capture pass launched more kernels than the golden run")
                });
                let mut capture_at = snapshot_cycles(expect.cycles, *k);
                let probe_cycle = match probe {
                    Some((po, pc)) if *po == ordinal => {
                        let pc = (*pc).min(expect.cycles.saturating_sub(1));
                        if let Err(i) = capture_at.binary_search(&pc) {
                            capture_at.insert(i, pc);
                        }
                        Some(pc)
                    }
                    _ => None,
                };
                let (stats, snaps) = gpu
                    .launch_instrumented(kernel, &lc, &Budget::unlimited(), &capture_at)
                    .unwrap_or_else(|e| panic!("instrumented golden pass aborted: {e:?}"));
                assert_eq!(
                    stats, expect,
                    "instrumented pass diverged from golden at launch {ordinal}"
                );
                let boundary = gpu.device_snapshot();
                if let Some(pc) = probe_cycle {
                    // Test hook: resume from the probe snapshot with no
                    // fault; the suffix must be reproduced bit-for-bit in
                    // statistics, cycle count, and device state.
                    let snap = snaps
                        .iter()
                        .find(|s| s.cycle() == pc)
                        .expect("probe snapshot captured");
                    let r = gpu
                        .resume_from(snap, kernel, &lc, None, &Budget::unlimited(), None)
                        .unwrap_or_else(|e| panic!("fault-free resume aborted: {e:?}"));
                    assert_eq!(r.stats, expect, "resume must reproduce golden stats");
                    assert_eq!(r.resumed_at, pc);
                    assert_eq!(r.simulated_cycles, expect.cycles - pc);
                    assert!(r.converged_at.is_none());
                    assert_eq!(
                        gpu.device_snapshot(),
                        boundary,
                        "resume must reproduce the post-launch device state verbatim"
                    );
                }
                self.total_cost += stats.cycles;
                self.simulated_cost += stats.cycles;
                mids.push(snaps);
                boundaries.push(boundary);
                Ok(())
            }
            CtlMode::Faulty {
                target_launch,
                fault,
                budgets,
                app_budget,
                applied,
                ff,
            } => {
                let mut budget = budgets.get(ordinal).copied().unwrap_or(Budget {
                    cycles: 1 << 22,
                    instrs: 1 << 26,
                });
                // Whole-app backstop: never exceed the remaining budget.
                budget.cycles = budget
                    .cycles
                    .min(app_budget.cycles.saturating_sub(self.total_cost));
                budget.instrs = budget
                    .instrs
                    .min(app_budget.instrs.saturating_sub(self.total_cost));
                if budget.cycles == 0 || budget.instrs == 0 {
                    return Err(AppAbort::Launch(LaunchAbort::Timeout));
                }
                let fault_here = ordinal == *target_launch;
                let gpu = self.gpu.as_mut().expect("alloc before launch");

                // Fast-forward: a launch before the fault, or after the
                // machine provably re-converged, executes bit-identically
                // to golden — defer a restore to its golden boundary state
                // and credit the golden cost instead of simulating. The
                // deferral makes a run of skipped launches cost one
                // restore instead of one per launch.
                if let Some(ffc) = ff.as_mut() {
                    if !fault_here && (ordinal < *target_launch || ffc.converged) {
                        if let Some(gstats) = ffc
                            .golden_stats
                            .get(ordinal)
                            .filter(|_| ordinal < ffc.snaps.boundaries.len())
                        {
                            // The slow path would simulate exactly the
                            // golden launch; it times out iff the golden
                            // cycle count exceeds the budget. Keep that
                            // equivalence exact.
                            if gstats.cycles > budget.cycles {
                                return Err(AppAbort::Launch(LaunchAbort::Timeout));
                            }
                            ffc.pending_restore = Some(ordinal);
                            self.total_cost += gstats.cycles;
                            return Ok(());
                        }
                        // Launch the golden pass never saw (impossible for
                        // a deterministic benchmark): simulate it.
                    }
                    // This launch simulates for real: materialize any
                    // boundary state a skipped predecessor left pending.
                    if let Some(ord) = ffc.pending_restore.take() {
                        gpu.restore_device(&ffc.snaps.boundaries[ord]);
                    }
                }

                let result = if fault_here {
                    match fault {
                        PlannedFault::Uarch(f) => {
                            let mut inj = UarchInjector::new(*f);
                            let ff_snap = ff.as_ref().map(|ffc| Arc::clone(&ffc.snaps));
                            let r = match ff_snap.as_ref().and_then(|s| s.mids.get(ordinal)) {
                                Some(mids) if !mids.is_empty() => {
                                    // Resume from the nearest golden
                                    // snapshot at-or-before the fault
                                    // cycle, with the convergence exit
                                    // armed against the remaining golden
                                    // snapshots of this launch.
                                    let snaps = ff_snap.as_ref().expect("mids imply snaps");
                                    let snap = mids
                                        .iter()
                                        .rev()
                                        .find(|s| s.cycle() <= f.cycle)
                                        .expect("cycle-0 snapshot always exists");
                                    let ffc = ff.as_mut().expect("ff_snap implies ff");
                                    let cv = ConvergeWith {
                                        snaps: mids,
                                        end: &snaps.boundaries[ordinal],
                                        end_stats: ffc.golden_stats[ordinal],
                                    };
                                    match gpu.resume_from(
                                        snap,
                                        kernel,
                                        &lc,
                                        Some(&mut inj),
                                        &budget,
                                        Some(cv),
                                    ) {
                                        Ok(out) => {
                                            ffc.resumed_at = Some(out.resumed_at);
                                            if out.converged_at.is_some() {
                                                ffc.converged = true;
                                            }
                                            // Skipped prefix + spliced
                                            // suffix are not simulated.
                                            self.simulated_cost += out.simulated_cycles;
                                            self.total_cost += out.stats.cycles;
                                            *applied = inj.applied && inj.population > 0;
                                            self.post_fault_converge_check(ordinal);
                                            return Ok(());
                                        }
                                        Err(e) => Err(e),
                                    }
                                }
                                _ => gpu.launch(kernel, &lc, FaultPlan::Uarch(&mut inj), &budget),
                            };
                            *applied = inj.applied && inj.population > 0;
                            r
                        }
                        PlannedFault::Sw(f) => {
                            let mut inj = SwInjector::new(*f);
                            let r = gpu.launch(kernel, &lc, FaultPlan::Sw(&mut inj), &budget);
                            *applied = inj.applied;
                            r
                        }
                    }
                } else {
                    gpu.launch(kernel, &lc, FaultPlan::None, &budget)
                };
                let stats = result?;
                let cost = if gpu.mode() == Mode::Timed {
                    stats.cycles
                } else {
                    stats.thread_instrs
                };
                self.total_cost += cost;
                self.simulated_cost += cost;
                // After the fault, a launch that retires with device state
                // identical to golden makes every later launch
                // bit-identical too — flag it so they are credited.
                if ordinal >= *target_launch {
                    self.post_fault_converge_check(ordinal);
                }
                Ok(())
            }
        }
    }

    /// Launch-boundary convergence check (fast-forward runs only): if the
    /// device state equals the golden post-launch snapshot, the rest of
    /// the application is provably bit-identical to golden.
    fn post_fault_converge_check(&mut self, ordinal: usize) {
        let CtlMode::Faulty { ff: Some(ffc), .. } = &mut self.ctl else {
            return;
        };
        if ffc.converged {
            return;
        }
        let gpu = self.gpu.as_ref().expect("alloc before launch");
        if let Some(b) = ffc.snaps.boundaries.get(ordinal) {
            if gpu.device_converged(b) {
                ffc.converged = true;
            }
        }
    }

    fn snapshot_outputs(&mut self) -> Vec<u32> {
        self.flush_ff();
        let outputs = self.outputs.clone();
        let gpu = self.gpu_mut();
        let mut out = Vec::new();
        for &(addr, words) in &outputs {
            for i in 0..words {
                gpu.track_host_read(addr + i * 4);
            }
            out.extend(gpu.host_read_block(addr, words));
        }
        out
    }
}

/// A GPU application: the 11 benchmarks implement this.
pub trait Benchmark: Sync {
    /// Application name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Kernel display names, e.g. `["K1", "K2"]`.
    fn kernels(&self) -> &'static [&'static str];

    /// The whole host program: allocate, initialize, launch, glue.
    /// All device interaction must go through `ctl`. Host-side loops must
    /// be iteration-capped so corrupted device data cannot hang the host.
    fn run(&self, ctl: &mut RunCtl) -> Result<(), AppAbort>;
}

/// Execution variant selector for [`golden_run`] / [`faulty_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    pub mode: Mode,
    pub hardened: bool,
}

impl Variant {
    pub const TIMED: Variant = Variant {
        mode: Mode::Timed,
        hardened: false,
    };
    pub const FUNCTIONAL: Variant = Variant {
        mode: Mode::Functional,
        hardened: false,
    };
    pub const TIMED_TMR: Variant = Variant {
        mode: Mode::Timed,
        hardened: true,
    };
    pub const FUNCTIONAL_TMR: Variant = Variant {
        mode: Mode::Functional,
        hardened: true,
    };
}

/// Run `bench` fault-free, recording per-launch statistics and the output.
///
/// # Panics
/// Panics if the fault-free application aborts — that is a benchmark bug,
/// not a measurable outcome.
pub fn golden_run(bench: &dyn Benchmark, cfg: &GpuConfig, variant: Variant) -> GoldenRun {
    let mut ctl = RunCtl::new(cfg.clone(), variant.mode, variant.hardened, CtlMode::Golden);
    bench
        .run(&mut ctl)
        .unwrap_or_else(|e| panic!("golden run of {} aborted: {e:?}", bench.name()));
    assert!(
        !ctl.outputs.is_empty(),
        "{} registered no outputs",
        bench.name()
    );
    GoldenRun {
        output: ctl.snapshot_outputs(),
        records: ctl.records,
        total_cost: ctl.total_cost,
    }
}

/// A golden run instrumented with the lifetime tracker
/// (`vgpu_sim::lifetime`): ACE word-cycles and the liveness index the
/// replay backend adjudicates against, from one pass. Always timed and
/// unhardened, to match the microarchitectural injection campaigns it
/// screens for.
#[derive(Debug, Clone)]
pub struct AceGoldenRun {
    pub golden: GoldenRun,
    /// Per-launch ACE word-cycle deltas (`HwStructure::ALL` order), one
    /// entry per `golden.records` element. L2 intervals still open when a
    /// launch retires are only counted once closed — they surface either
    /// in a later launch's delta or in the final residual.
    pub per_launch: Vec<[u64; 5]>,
    /// Final per-structure ACE word-cycle totals, including every L2
    /// interval closed at end of application (dirty lines live, clean
    /// lines dead).
    pub totals: [u64; 5],
    /// Lifetime events recorded (tracker work volume, for `obs`).
    pub events: u64,
    /// Every word's read-reached windows and the launch timeline.
    pub liveness: Liveness,
}

impl AceGoldenRun {
    /// L2 word-cycles closed only at end-of-application (not attributed
    /// to any single launch).
    pub fn l2_residual(&self) -> u64 {
        let attributed: u64 = self.per_launch.iter().map(|d| d[4]).sum();
        self.totals[4] - attributed
    }
}

/// Run `bench` fault-free on the timed engine with the lifetime tracker
/// attached, recording per-structure ACE word-cycle totals and the
/// liveness index alongside the usual golden statistics.
///
/// # Panics
/// Panics if the fault-free application aborts (a benchmark bug).
pub fn golden_run_ace(bench: &dyn Benchmark, cfg: &GpuConfig) -> AceGoldenRun {
    let mut ctl = RunCtl::new(cfg.clone(), Mode::Timed, false, CtlMode::Golden);
    ctl.ace = true;
    bench
        .run(&mut ctl)
        .unwrap_or_else(|e| panic!("ACE golden run of {} aborted: {e:?}", bench.name()));
    assert!(
        !ctl.outputs.is_empty(),
        "{} registered no outputs",
        bench.name()
    );
    let output = ctl.snapshot_outputs();
    let gpu = ctl.gpu.as_mut().expect("alloc ran");
    let events = gpu.tracker_events().unwrap_or(0);
    let (totals, liveness) = gpu.finish_tracker().expect("tracker attached in alloc");
    AceGoldenRun {
        golden: GoldenRun {
            output,
            records: ctl.records,
            total_cost: ctl.total_cost,
        },
        per_launch: ctl.ace_per_launch,
        totals,
        events,
        liveness,
    }
}

/// The `~k` capture cycles for a launch of `cycles` total: evenly spaced,
/// deduplicated, always including cycle 0 (so every fault cycle has a
/// snapshot at-or-before it) and never reaching the final cycle (which a
/// completing launch may never revisit).
fn snapshot_cycles(cycles: u64, k: usize) -> Vec<u64> {
    let k = k.max(1) as u64;
    let mut v: Vec<u64> = (0..k).map(|i| i * cycles / k).collect();
    v.dedup();
    v
}

fn capture_pass(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    golden: &GoldenRun,
    k: usize,
    probe: Option<(usize, u64)>,
) -> AppSnapshots {
    let mut ctl = RunCtl::new(
        cfg.clone(),
        Mode::Timed,
        false,
        CtlMode::Capture {
            k,
            golden_stats: golden.records.iter().map(|r| r.stats).collect(),
            boundaries: Vec::new(),
            mids: Vec::new(),
            probe,
        },
    );
    bench
        .run(&mut ctl)
        .unwrap_or_else(|e| panic!("capture pass of {} aborted: {e:?}", bench.name()));
    assert_eq!(
        ctl.snapshot_outputs(),
        golden.output,
        "capture pass of {} diverged from golden output",
        bench.name()
    );
    assert_eq!(ctl.total_cost, golden.total_cost);
    let CtlMode::Capture {
        boundaries, mids, ..
    } = ctl.ctl
    else {
        unreachable!()
    };
    assert_eq!(boundaries.len(), golden.records.len());
    let bytes = boundaries
        .iter()
        .map(DeviceSnapshot::byte_size)
        .sum::<u64>()
        + mids
            .iter()
            .flatten()
            .map(SimSnapshot::byte_size)
            .sum::<u64>();
    AppSnapshots {
        boundaries,
        mids,
        bytes,
    }
}

/// One instrumented golden pass over `bench`, capturing `~k` mid-launch
/// snapshots per launch plus a device snapshot at every launch boundary —
/// the golden-prefix material consumed by [`faulty_run_ff`]. Asserts
/// bit-identity with `golden` as it goes (the instrumented engine must
/// not perturb the run). Timed, unhardened.
pub fn golden_run_snapshots(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    golden: &GoldenRun,
    k: usize,
) -> AppSnapshots {
    capture_pass(bench, cfg, golden, k, None)
}

/// Test helper: capture an extra snapshot of launch `ordinal` at `cycle`
/// (clamped into the launch), resume from it with no fault, and assert
/// the golden suffix — statistics, cycle count, post-launch device state,
/// and final application output — is reproduced bit-identically.
///
/// # Panics
/// Panics (or fails an assertion) on any divergence.
pub fn verify_snapshot_resume(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    golden: &GoldenRun,
    ordinal: usize,
    cycle: u64,
) {
    assert!(ordinal < golden.records.len(), "probe ordinal out of range");
    capture_pass(bench, cfg, golden, 2, Some((ordinal, cycle)));
}

/// Derive per-launch and whole-app budgets from a golden run.
fn budgets_from(golden: &GoldenRun, cfg: &GpuConfig) -> (Vec<Budget>, Budget) {
    let per: Vec<Budget> = golden
        .records
        .iter()
        .map(|r| Budget {
            cycles: (r.stats.cycles * cfg.timeout_factor).max(cfg.min_timeout_cycles),
            instrs: (r.stats.thread_instrs * cfg.timeout_factor).max(1 << 20),
        })
        .collect();
    let app = Budget {
        cycles: (golden.total_cost * cfg.timeout_factor).max(cfg.min_timeout_cycles),
        instrs: (golden.total_cost * cfg.timeout_factor).max(1 << 20),
    };
    (per, app)
}

/// Run `bench` with one injected fault and classify the outcome against
/// `golden`.
pub fn faulty_run(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    variant: Variant,
    golden: &GoldenRun,
    target_launch: usize,
    fault: PlannedFault,
) -> RunResult {
    faulty_run_inner(bench, cfg, variant, golden, target_launch, fault, None)
}

/// [`faulty_run`] with golden-prefix fast-forward: the fault-free prefix
/// restores `snaps` instead of simulating, the injected launch resumes
/// from the nearest snapshot at-or-before the fault cycle, and execution
/// that provably re-converges to golden (in-launch or at a launch
/// boundary) is credited at its golden cost. The returned classification,
/// `total_cost`, `applied`, and `corrupted_words` are bit-identical to
/// [`faulty_run`]'s. Timed, unhardened, microarchitecture faults.
pub fn faulty_run_ff(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    golden: &GoldenRun,
    snaps: &Arc<AppSnapshots>,
    target_launch: usize,
    fault: PlannedFault,
) -> RunResult {
    assert!(
        matches!(fault, PlannedFault::Uarch(_)),
        "fast-forward applies to microarchitecture faults on the timed engine"
    );
    let ff = FfCtx {
        snaps: Arc::clone(snaps),
        golden_stats: golden.records.iter().map(|r| r.stats).collect(),
        converged: false,
        resumed_at: None,
        pending_restore: None,
    };
    faulty_run_inner(
        bench,
        cfg,
        Variant::TIMED,
        golden,
        target_launch,
        fault,
        Some(ff),
    )
}

fn faulty_run_inner(
    bench: &dyn Benchmark,
    cfg: &GpuConfig,
    variant: Variant,
    golden: &GoldenRun,
    target_launch: usize,
    fault: PlannedFault,
    ff: Option<FfCtx>,
) -> RunResult {
    let (budgets, app_budget) = budgets_from(golden, cfg);
    let mut ctl = RunCtl::new(
        cfg.clone(),
        variant.mode,
        variant.hardened,
        CtlMode::Faulty {
            target_launch,
            fault,
            budgets,
            app_budget,
            applied: false,
            ff,
        },
    );
    ctl.use_scratch = true;
    let run = bench.run(&mut ctl);
    let (applied, resumed_at, converged) = match &ctl.ctl {
        CtlMode::Faulty { applied, ff, .. } => (
            *applied,
            ff.as_ref().and_then(|f| f.resumed_at),
            ff.as_ref().is_some_and(|f| f.converged),
        ),
        _ => unreachable!(),
    };
    let result = match run {
        Ok(()) => {
            let out = ctl.snapshot_outputs();
            let corrupted_words = out
                .iter()
                .zip(&golden.output)
                .filter(|(a, b)| a != b)
                .count() as u32;
            let outcome = if corrupted_words == 0 {
                Outcome::Masked
            } else {
                Outcome::Sdc
            };
            RunResult {
                outcome,
                total_cost: ctl.total_cost,
                simulated_cost: ctl.simulated_cost,
                resumed_at,
                converged,
                applied,
                corrupted_words,
            }
        }
        Err(AppAbort::Launch(LaunchAbort::Timeout)) => RunResult {
            outcome: Outcome::Timeout,
            total_cost: ctl.total_cost,
            simulated_cost: ctl.simulated_cost,
            resumed_at,
            converged,
            applied,
            corrupted_words: 0,
        },
        Err(AppAbort::Launch(LaunchAbort::Due(_))) | Err(AppAbort::VoteFailed) => RunResult {
            outcome: Outcome::Due,
            total_cost: ctl.total_cost,
            simulated_cost: ctl.simulated_cost,
            resumed_at,
            converged,
            applied,
            corrupted_words: 0,
        },
    };
    ctl.stash_scratch();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_and_abort_conversions() {
        let a: AppAbort = LaunchAbort::Timeout.into();
        assert_eq!(a, AppAbort::Launch(LaunchAbort::Timeout));
        assert_ne!(a, AppAbort::VoteFailed);
    }

    #[test]
    fn golden_run_aggregations() {
        let mk = |kernel_idx, cycles, instrs| LaunchRecord {
            kernel_idx,
            is_vote: false,
            stats: Stats {
                cycles,
                thread_instrs: instrs,
                ..Default::default()
            },
            threads: 64,
            ctas: 2,
            num_regs: 8,
            smem_bytes: 0,
        };
        let g = GoldenRun {
            records: vec![mk(0, 100, 1000), mk(1, 50, 700), mk(0, 200, 2000)],
            output: vec![],
            total_cost: 350,
        };
        assert_eq!(g.kernel_stats(0).cycles, 300);
        assert_eq!(g.kernel_stats(0).thread_instrs, 3000);
        assert_eq!(g.kernel_stats(1).cycles, 50);
        assert_eq!(g.app_stats().cycles, 350);
    }

    #[test]
    fn ace_golden_run_matches_plain_golden_and_tracks_lifetimes() {
        let cfg = GpuConfig::volta_scaled(2);
        let bench = crate::apps::va::Va;
        let plain = golden_run(&bench, &cfg, Variant::TIMED);
        let ace = golden_run_ace(&bench, &cfg);
        // Differential: tracking must not perturb the simulation.
        assert_eq!(ace.golden.output, plain.output);
        assert_eq!(ace.golden.total_cost, plain.total_cost);
        assert_eq!(ace.golden.records.len(), plain.records.len());
        for (a, p) in ace.golden.records.iter().zip(&plain.records) {
            assert_eq!(a.stats.cycles, p.stats.cycles);
            assert_eq!(a.stats.thread_instrs, p.stats.thread_instrs);
        }
        // And it must actually have measured something.
        assert_eq!(ace.per_launch.len(), ace.golden.records.len());
        assert!(ace.events > 0);
        assert!(ace.totals[0] > 0, "RF lifetimes expected: {:?}", ace.totals);
        let attributed: u64 = ace.per_launch.iter().map(|d| d[4]).sum();
        assert_eq!(ace.l2_residual(), ace.totals[4] - attributed);
    }

    #[test]
    fn variants_cover_the_grid() {
        assert_eq!(Variant::TIMED.mode, Mode::Timed);
        assert!(!Variant::TIMED.hardened);
        assert!(Variant::TIMED_TMR.hardened);
        assert_eq!(Variant::FUNCTIONAL.mode, Mode::Functional);
        assert!(Variant::FUNCTIONAL_TMR.hardened);
    }
}
