//! Liveness tracking for the timed engine: ACE lifetimes and the replay
//! index from one model.
//!
//! A [`LifetimeTracker`] observes every write and read of the five modeled
//! hardware structures during a *fault-free* timed simulation. For every
//! 32-bit word it keeps the *windows* in which the stored value is reached
//! by a read: a window `(lo, hi]` opens at a write `lo` and extends to the
//! last read `hi` before the next write. A bit flip landing inside a window
//! is consumed; anywhere else it is overwritten, evicted clean, or never
//! looked at again — dead.
//!
//! Two results are folded from the same windows as they close:
//!
//! * **ACE word-cycles** per structure: the duration of every window that
//!   device reads reach, plus the full residency of dirty L2 lines (a dirty
//!   eviction counts as a read of the line, and a line still dirty at the
//!   end of the application counts live to the end). The analytic AVF of a
//!   structure over a run of `C` cycles is then
//!   `32 · ACE-word-cycles / (structure_bits · C)`, computed in `crates/ace`.
//! * **The liveness index** ([`Liveness`]) the replay backend adjudicates
//!   trials against: each word's live set, the union of its windows — the
//!   device-read ones, plus those host reads reach (the host consumes
//!   L2-resident output and glue words) and the same-cycle tie rule below —
//!   stored as disjoint sorted intervals.
//!
//! Granularity is one 32-bit word: if *any* lane reads a word the whole
//! word is counted live, which makes both results conservative.
//!
//! # Positions
//!
//! Hooks receive *launch-local* cycles; the tracker adds a running `base`
//! that [`advance_base`](LifetimeTracker::advance_base) moves forward after
//! each launch, giving one global clock. A position encodes program order
//! as `(segment, cycle)`: launch cycle `t` is `2·(base + t) + 2`, and host
//! glue between launches (host writes and reads, all at local time 0) sits
//! at the odd position `2·base + 1`, after the previous launch's last cycle
//! and before the next launch's cycle 0. Position 0 precedes every event.
//!
//! A fault applies at the top of its cycle, so a touch in the fault's own
//! cycle comes after it. When a read and a write of one word share a
//! position, the read is taken to come first, whatever the hook order: a
//! read tied with a write extends the window *before* the write. That
//! keeps adjudication conservative inside a cycle.

use crate::config::GpuConfig;
use crate::fault::HwStructure;

/// `rd` sentinel: the word holds no ACE interval (never written, or closed
/// by a launch end or an eviction). No event has position 0.
const CLOSED: u64 = 0;

/// Liveness state of one word: the position of its last write (`wr`), of
/// the last device read since then (`rd`, equal to `wr` while unread,
/// [`CLOSED`] without an ACE interval), and of the write before `wr`
/// (`pw`, the start of the window a tied read extends). The all-zero state
/// is a word never written: as if written at position 0, before every
/// event.
#[derive(Debug, Clone, Copy, Default)]
struct WordState {
    wr: u64,
    rd: u64,
    pw: u64,
}

/// Per-structure liveness state and the windows recorded so far.
#[derive(Debug, Clone)]
struct Track {
    words: Vec<WordState>,
    /// Per word, its newest window `(lo, hi]`, not yet recorded because
    /// later windows that touch it merge into it (`hi == 0`: none yet).
    newest: Vec<(u64, u64)>,
    /// Words whose ACE interval opened since the last launch end (a word
    /// reopened after an eviction may repeat).
    open: Vec<usize>,
    /// Words holding a newest window.
    reached: Vec<usize>,
    /// Recorded windows, bucketed by block of [`BLOCK`] words.
    windows: Vec<Bucket>,
    ace_word_cycles: u64,
}

/// Words per window bucket. Recording windows into per-block buckets and
/// grouping each bucket by word at the end keeps both steps local in
/// memory.
const BLOCK: usize = 1 << 10;

/// The windows recorded for one block of words, in recording order:
/// window `k` is `spans[k]` of word `offsets[k]` of the block. A word's
/// windows are recorded disjoint and in order.
#[derive(Debug, Clone, Default)]
struct Bucket {
    offsets: Vec<u16>,
    spans: Vec<(u64, u64)>,
}

impl Bucket {
    fn push(&mut self, word: usize, lo: u64, hi: u64) {
        self.offsets.push((word % BLOCK) as u16);
        self.spans.push((lo, hi));
    }
}

/// Global cycle of a position.
#[inline]
fn cycle_of(pos: u64) -> u64 {
    (pos - 1) >> 1
}

impl Track {
    fn new(words: usize) -> Self {
        Track {
            words: vec![WordState::default(); words],
            newest: vec![(0, 0); words],
            open: Vec::new(),
            reached: Vec::new(),
            windows: vec![Bucket::default(); words.div_ceil(BLOCK)],
            ace_word_cycles: 0,
        }
    }

    /// Add the window `(lo, hi]` to word `i`'s live set if it is
    /// non-empty; `ace` windows also add their duration to the ACE total.
    /// A word's windows arrive in non-decreasing `lo`, so one that touches
    /// the newest merges into it and the rest stay disjoint and sorted.
    #[inline]
    fn window(&mut self, i: usize, lo: u64, hi: u64, ace: bool) {
        if hi <= lo {
            return;
        }
        if ace {
            self.ace_word_cycles += cycle_of(hi) - cycle_of(lo);
        }
        let newest = &mut self.newest[i];
        debug_assert!(lo >= newest.0, "windows arrive in order");
        if newest.1 == 0 {
            self.reached.push(i);
        } else if lo <= newest.1 {
            newest.1 = newest.1.max(hi);
            return;
        } else {
            self.windows[i / BLOCK].push(i, newest.0, newest.1);
        }
        *newest = (lo, hi);
    }

    /// Close the word's ACE interval at its last read (dead from there to
    /// whatever ends it).
    #[inline]
    fn close(&mut self, i: usize) {
        let w = self.words[i];
        if w.rd != CLOSED {
            self.words[i].rd = CLOSED;
            self.window(i, w.wr, w.rd, true);
        }
    }

    /// Close every interval opened since the last call.
    fn close_open(&mut self) {
        for i in std::mem::take(&mut self.open) {
            self.close(i);
        }
    }

    /// A new value is written at `pos`: the previous value's window closes
    /// and a fresh interval opens.
    #[inline]
    fn write(&mut self, i: usize, pos: u64) {
        let w = self.words[i];
        debug_assert!(pos >= w.wr, "positions run forward");
        if w.rd == CLOSED {
            self.open.push(i);
        } else {
            self.window(i, w.wr, w.rd, true);
        }
        let w = &mut self.words[i];
        if pos > w.wr {
            w.pw = w.wr;
            w.wr = pos;
        }
        w.rd = pos;
    }

    /// The device reads the current value at `pos`.
    #[inline]
    fn read(&mut self, i: usize, pos: u64) {
        let w = &mut self.words[i];
        debug_assert!(pos >= w.wr && (w.rd == CLOSED || pos >= w.rd));
        if pos > w.wr && w.rd != CLOSED {
            w.rd = pos;
        } else {
            self.reach(i, pos);
        }
    }

    /// A read only the liveness index sees (host reads, reads without an
    /// ACE interval, reads tied with the last write): the window ending at
    /// `pos` is added at once.
    #[inline]
    fn reach(&mut self, i: usize, pos: u64) {
        let w = self.words[i];
        debug_assert!(pos >= w.wr, "positions run forward");
        let lo = if pos > w.wr { w.wr } else { w.pw };
        self.window(i, lo, pos, false);
    }

    /// Record every word's newest window and group each bucket by word.
    fn into_blocks(mut self) -> Vec<WordBlock> {
        for i in std::mem::take(&mut self.reached) {
            let (lo, hi) = self.newest[i];
            self.windows[i / BLOCK].push(i, lo, hi);
        }
        let mut scratch = Vec::new();
        (self.windows.into_iter())
            .map(|b| WordBlock::new(b, &mut scratch))
            .collect()
    }
}

/// Occupancy geometry of one launch: what the injector's population walk
/// over live CTA slots needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchGeometry {
    pub warps_per_cta: u32,
    pub regs_per_cta: u32,
    pub smem_words_per_cta: u32,
    pub slots_per_sm: u32,
    pub total_ctas: u32,
}

/// One CTA-slot occupancy transition, with its *effective* cycle: an
/// initial (prefill) fill occupies from cycle 0, mid-run fills and frees
/// take effect from `t + 1` (they happen in cycle `t`'s retire stage,
/// after that cycle's fault application point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotEvent {
    sm: u32,
    slot: u32,
    eff: u64,
    fill: bool,
}

/// What the tracker recorded about one launch.
#[derive(Debug, Clone)]
pub struct LaunchTrace {
    pub geom: LaunchGeometry,
    /// Global cycle of the launch's local cycle 0.
    base: u64,
    /// Local cycles the launch ran for.
    pub cycles: u64,
    slots: Vec<SlotEvent>,
}

impl LaunchTrace {
    /// Total warps this launch executes (re-execution cost proxy).
    pub fn warps(&self) -> u64 {
        u64::from(self.geom.warps_per_cta) * u64::from(self.geom.total_ctas)
    }

    /// Which CTA slots of each of `num_sms` SMs hold a live CTA at the
    /// top of local cycle `c`.
    pub fn occupied_slots(&self, num_sms: usize, c: u64) -> Vec<Vec<bool>> {
        let mut live = vec![vec![false; self.geom.slots_per_sm as usize]; num_sms];
        for ev in self.slots.iter().filter(|ev| ev.eff <= c) {
            if let Some(s) = live
                .get_mut(ev.sm as usize)
                .and_then(|sm| sm.get_mut(ev.slot as usize))
            {
                *s = ev.fill;
            }
        }
        live
    }

    /// Position of the top of local cycle `c`.
    fn pos(&self, c: u64) -> u64 {
        2 * (self.base + c) + 2
    }
}

/// One bucket's windows grouped by word: word `o` of the block owns
/// `spans[starts[o]..starts[o + 1]]`, disjoint and sorted.
#[derive(Debug, Clone)]
struct WordBlock {
    starts: Vec<usize>,
    spans: Vec<(u64, u64)>,
}

impl WordBlock {
    /// Group a bucket by word with a stable counting sort, through
    /// `scratch` and back into the bucket's own storage.
    fn new(b: Bucket, scratch: &mut Vec<(u64, u64)>) -> Self {
        let Bucket { offsets, mut spans } = b;
        let mut starts = vec![0; BLOCK + 1];
        for &o in &offsets {
            starts[usize::from(o) + 1] += 1;
        }
        for o in 0..BLOCK {
            starts[o + 1] += starts[o];
        }
        let mut next = starts.clone();
        scratch.resize(spans.len(), (0, 0));
        for (&o, &span) in offsets.iter().zip(&spans) {
            let at = &mut next[usize::from(o)];
            scratch[*at] = span;
            *at += 1;
        }
        spans.copy_from_slice(scratch);
        WordBlock { starts, spans }
    }

    /// Whether some window of word `o` of the block holds position `p`.
    /// A word's windows are disjoint and sorted, so only the last one
    /// starting before `p` can.
    fn holds(&self, o: usize, p: u64) -> bool {
        let ws = &self.spans[self.starts[o]..self.starts[o + 1]];
        let n = ws.partition_point(|&(lo, _)| lo < p);
        n > 0 && p <= ws[n - 1].1
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.starts[..]) + std::mem::size_of_val(&self.spans[..])
    }
}

/// The liveness index of one tracked application run: every word's
/// read-reached windows and the launches they were recorded in.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Per structure (`HwStructure::ALL` order), by block of [`BLOCK`]
    /// words.
    windows: [Vec<WordBlock>; 5],
    words_per_inst: [usize; 5],
    launches: Vec<LaunchTrace>,
}

impl Liveness {
    fn new(tracker: LifetimeTracker) -> Self {
        Liveness {
            windows: tracker.tracks.map(Track::into_blocks),
            words_per_inst: tracker.words_per_inst,
            launches: tracker.launches,
        }
    }

    /// The recorded launches, in launch order.
    pub fn launches(&self) -> &[LaunchTrace] {
        &self.launches
    }

    /// Whether a flip of word `word` of instance `inst` of structure `h`,
    /// applied at the top of local cycle `c` of `launch`, is read before
    /// that word is next written. For caches `word` is the frame-major
    /// index `frame · (l2_line_bytes / 4) + offset`.
    pub fn is_live(
        &self,
        h: HwStructure,
        inst: usize,
        word: u64,
        launch: &LaunchTrace,
        c: u64,
    ) -> bool {
        let i = inst * self.words_per_inst[h as usize] + word as usize;
        self.windows[h as usize][i / BLOCK].holds(i % BLOCK, launch.pos(c))
    }

    /// In-memory size of the index.
    pub fn bytes(&self) -> u64 {
        let windows: usize = self.windows.iter().flatten().map(WordBlock::bytes).sum();
        let slots: usize = self.launches.iter().map(|l| l.slots.len()).sum();
        (windows
            + self.launches.len() * std::mem::size_of::<LaunchTrace>()
            + slots * std::mem::size_of::<SlotEvent>()) as u64
    }
}

/// Records the liveness of every word of the five modeled structures; see
/// the module docs for the rules.
pub struct LifetimeTracker {
    base: u64,
    /// A launch is running (else: host glue between launches).
    in_launch: bool,
    tracks: [Track; 5],
    /// Words per instance, indexed by `HwStructure as usize`.
    words_per_inst: [usize; 5],
    line_words: usize,
    events: u64,
    launches: Vec<LaunchTrace>,
}

impl LifetimeTracker {
    pub fn new(cfg: &GpuConfig) -> Self {
        let sms = cfg.num_sms as usize;
        let words_per_inst = [
            cfg.rf_regs_per_sm as usize,
            cfg.smem_bytes_per_sm as usize / 4,
            cfg.l1d.bytes as usize / 4,
            cfg.l1t.bytes as usize / 4,
            cfg.l2.bytes as usize / 4,
        ];
        let insts = [sms, sms, sms, sms, 1];
        LifetimeTracker {
            base: 0,
            in_launch: false,
            tracks: std::array::from_fn(|h| Track::new(words_per_inst[h] * insts[h])),
            words_per_inst,
            line_words: cfg.l2.line_bytes as usize / 4,
            events: 0,
            launches: Vec::new(),
        }
    }

    /// Position of local time `t` in the current segment.
    #[inline]
    fn pos(&self, t: u64) -> u64 {
        2 * (self.base + t) + 1 + u64::from(self.in_launch)
    }

    #[inline]
    fn word(&self, h: HwStructure, inst: usize, word: usize) -> usize {
        inst * self.words_per_inst[h as usize] + word
    }

    // ---- register file / shared memory (word-indexed per SM) ----

    pub fn reg_write(&mut self, sm: usize, word: usize, t: u64) {
        self.events += 1;
        let (i, p) = (self.word(HwStructure::RegFile, sm, word), self.pos(t));
        self.tracks[HwStructure::RegFile as usize].write(i, p);
    }

    pub fn reg_read(&mut self, sm: usize, word: usize, t: u64) {
        self.events += 1;
        let (i, p) = (self.word(HwStructure::RegFile, sm, word), self.pos(t));
        self.tracks[HwStructure::RegFile as usize].read(i, p);
    }

    pub fn smem_write(&mut self, sm: usize, word: usize, t: u64) {
        self.events += 1;
        let (i, p) = (self.word(HwStructure::Smem, sm, word), self.pos(t));
        self.tracks[HwStructure::Smem as usize].write(i, p);
    }

    pub fn smem_read(&mut self, sm: usize, word: usize, t: u64) {
        self.events += 1;
        let (i, p) = (self.word(HwStructure::Smem, sm, word), self.pos(t));
        self.tracks[HwStructure::Smem as usize].read(i, p);
    }

    /// CTA launch zero-fills its register and shared-memory partitions:
    /// record the fill as writes (a flip of the cleared state is live until
    /// the first overwrite if the zeros are read).
    pub fn cta_fill(
        &mut self,
        sm: usize,
        rf_start: usize,
        rf_len: usize,
        smem_start: usize,
        smem_len: usize,
        t: u64,
    ) {
        self.events += 1;
        let p = self.pos(t);
        let rf_base = self.word(HwStructure::RegFile, sm, rf_start);
        let rf = &mut self.tracks[HwStructure::RegFile as usize];
        for i in rf_base..rf_base + rf_len {
            rf.write(i, p);
        }
        let smem_base = self.word(HwStructure::Smem, sm, smem_start);
        let smem = &mut self.tracks[HwStructure::Smem as usize];
        for i in smem_base..smem_base + smem_len {
            smem.write(i, p);
        }
    }

    // ---- caches (line-indexed per instance) ----

    #[inline]
    fn line_word(&self, h: HwStructure, inst: usize, line: usize, off: usize) -> usize {
        inst * self.words_per_inst[h as usize] + line * self.line_words + off
    }

    pub fn cache_read(&mut self, h: HwStructure, inst: usize, line: usize, off: usize, t: u64) {
        self.events += 1;
        let (i, p) = (self.line_word(h, inst, line, off), self.pos(t));
        self.tracks[h as usize].read(i, p);
    }

    pub fn cache_write(&mut self, h: HwStructure, inst: usize, line: usize, off: usize, t: u64) {
        self.events += 1;
        let (i, p) = (self.line_word(h, inst, line, off), self.pos(t));
        self.tracks[h as usize].write(i, p);
    }

    /// A whole line is filled from the next level: every word is written.
    /// The caller must close the victim line (live if dirty) *before* the
    /// fill.
    pub fn cache_fill(&mut self, h: HwStructure, inst: usize, line: usize, t: u64) {
        self.events += 1;
        let (start, p) = (self.line_word(h, inst, line, 0), self.pos(t));
        let tr = &mut self.tracks[h as usize];
        for i in start..start + self.line_words {
            tr.write(i, p);
        }
    }

    /// A whole line is read to service a lower-level fill (conservative:
    /// all words count as read).
    pub fn cache_read_line(&mut self, h: HwStructure, inst: usize, line: usize, t: u64) {
        self.events += 1;
        let (start, p) = (self.line_word(h, inst, line, 0), self.pos(t));
        let tr = &mut self.tracks[h as usize];
        for i in start..start + self.line_words {
            tr.read(i, p);
        }
    }

    /// A dirty line is evicted at `t`: the write-back reads every word, so
    /// each word's data is architecturally required up to the eviction.
    pub fn close_line_live(&mut self, h: HwStructure, inst: usize, line: usize, t: u64) {
        self.events += 1;
        let (start, p) = (self.line_word(h, inst, line, 0), self.pos(t));
        let tr = &mut self.tracks[h as usize];
        for i in start..start + self.line_words {
            tr.read(i, p);
            tr.close(i);
        }
    }

    // ---- scheduling (launch geometry and the CTA-slot timeline) ----

    /// A kernel launch begins.
    pub fn launch_begin(&mut self, geom: LaunchGeometry) {
        self.in_launch = true;
        self.launches.push(LaunchTrace {
            geom,
            base: self.base,
            cycles: 0,
            slots: Vec::new(),
        });
    }

    fn current_launch(&mut self) -> &mut LaunchTrace {
        self.launches.last_mut().expect("launch_begin first")
    }

    /// CTA slot `slot` of SM `sm` was filled during cycle `t`'s retire
    /// stage, or before cycle 0 when `initial`.
    pub fn slot_fill(&mut self, sm: usize, slot: usize, t: u64, initial: bool) {
        self.current_launch().slots.push(SlotEvent {
            sm: sm as u32,
            slot: slot as u32,
            eff: if initial { 0 } else { t + 1 },
            fill: true,
        });
    }

    /// CTA slot `slot` of SM `sm` drained during cycle `t`'s retire stage.
    pub fn slot_free(&mut self, sm: usize, slot: usize, t: u64) {
        self.current_launch().slots.push(SlotEvent {
            sm: sm as u32,
            slot: slot as u32,
            eff: t + 1,
            fill: false,
        });
    }

    /// The host observed an L2-resident word (classification or glue
    /// read): its value reached the output, which ACE does not count but
    /// the liveness index must.
    pub fn host_peek(&mut self, line: usize, off: usize) {
        let (i, p) = (self.line_word(HwStructure::L2, 0, line, off), self.pos(0));
        self.tracks[HwStructure::L2 as usize].reach(i, p);
    }

    // ---- boundaries ----

    /// Kernel launch finished after `cycles` local cycles: register-file
    /// and shared-memory contents die with the grid, and the (write-through
    /// L1D, read-only L1T) per-SM caches are invalidated — all remaining
    /// intervals close dead. The L2 persists.
    pub fn launch_end(&mut self, cycles: u64) {
        for h in [
            HwStructure::RegFile,
            HwStructure::Smem,
            HwStructure::L1D,
            HwStructure::L1T,
        ] {
            self.tracks[h as usize].close_open();
        }
        self.current_launch().cycles = cycles;
        self.in_launch = false;
    }

    /// Advance the global clock after a launch completed in `cycles`.
    pub fn advance_base(&mut self, cycles: u64) {
        self.base += cycles;
    }

    /// End of the tracked application: close every surviving L2 interval —
    /// live up to now if its line is `dirty` (its data still backs memory
    /// the host may read), dead after its last read otherwise — and build
    /// the liveness index. Returns the final per-structure ACE word-cycles
    /// with the index.
    pub fn finish(mut self, dirty: impl Fn(usize) -> bool) -> ([u64; 5], Liveness) {
        let now = self.base;
        let line_words = self.line_words;
        let l2 = &mut self.tracks[HwStructure::L2 as usize];
        for i in std::mem::take(&mut l2.open) {
            let rd = l2.words[i].rd;
            if rd == CLOSED {
                continue;
            }
            l2.close(i);
            if dirty(i / line_words) {
                l2.ace_word_cycles += now - cycle_of(rd);
            }
        }
        (self.ace_word_cycles(), Liveness::new(self))
    }

    /// Accumulated ACE word-cycles per structure, in `HwStructure::ALL`
    /// order. Multiply by 32 for bit-cycles.
    pub fn ace_word_cycles(&self) -> [u64; 5] {
        std::array::from_fn(|h| self.tracks[h].ace_word_cycles)
    }

    /// Total hook invocations (observability counter fodder).
    pub fn events(&self) -> u64 {
        self.events
    }
}

/// Bundle threaded through the cache helpers so an L1 access can record
/// both L1-side and L2-side events against the right instance.
pub struct CacheAce<'a> {
    pub tracker: &'a mut LifetimeTracker,
    /// Which L1 structure the access goes through (L1D or L1T).
    pub l1: HwStructure,
    /// SM index owning the L1 instance.
    pub sm: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_cfg() -> GpuConfig {
        GpuConfig::volta_scaled(1)
    }

    /// A tracker with one launch begun, as the timed engine leaves it.
    fn launched(cfg: &GpuConfig) -> LifetimeTracker {
        let mut t = LifetimeTracker::new(cfg);
        t.launch_begin(LaunchGeometry {
            warps_per_cta: 1,
            regs_per_cta: 64,
            smem_words_per_cta: 8,
            slots_per_sm: 1,
            total_ctas: 1,
        });
        t
    }

    #[test]
    fn write_read_overwrite_counts_only_live_interval() {
        let mut t = launched(&mini_cfg());
        t.reg_write(0, 3, 10);
        t.reg_read(0, 3, 25); // live 10..25 = 15
        t.reg_write(0, 3, 40); // dead 25..40
        t.launch_end(50); // never read again: +0
        assert_eq!(t.ace_word_cycles()[HwStructure::RegFile as usize], 15);
    }

    #[test]
    fn unread_write_is_dead() {
        let mut t = launched(&mini_cfg());
        t.smem_write(0, 0, 5);
        t.launch_end(100);
        assert_eq!(t.ace_word_cycles()[HwStructure::Smem as usize], 0);
    }

    #[test]
    fn read_without_open_interval_is_ignored() {
        let mut t = launched(&mini_cfg());
        t.reg_read(0, 7, 10);
        t.launch_end(20);
        assert_eq!(t.ace_word_cycles()[HwStructure::RegFile as usize], 0);
    }

    #[test]
    fn dirty_eviction_closes_full_residency() {
        let cfg = mini_cfg();
        let mut t = launched(&cfg);
        t.cache_write(HwStructure::L2, 0, 2, 1, 10);
        t.close_line_live(HwStructure::L2, 0, 2, 100);
        // One word live 10..100; the other 31 line words had no open
        // interval.
        assert_eq!(t.ace_word_cycles()[HwStructure::L2 as usize], 90);
    }

    #[test]
    fn fill_then_partial_read_counts_read_words_only() {
        let cfg = mini_cfg();
        let mut t = launched(&cfg);
        t.cache_fill(HwStructure::L1D, 0, 0, 10);
        t.cache_read(HwStructure::L1D, 0, 0, 5, 30);
        t.launch_end(60);
        // Only word 5 was read: live 10..30.
        assert_eq!(t.ace_word_cycles()[HwStructure::L1D as usize], 20);
    }

    #[test]
    fn base_offset_spans_launches() {
        let mut t = launched(&mini_cfg());
        t.cache_write(HwStructure::L2, 0, 0, 0, 10); // global 10
        t.advance_base(100);
        t.cache_read(HwStructure::L2, 0, 0, 0, 5); // global 105
        t.advance_base(50);
        let (ace, _) = t.finish(|_| false); // clean: dead after last read
        assert_eq!(ace[HwStructure::L2 as usize], 95);
    }

    #[test]
    fn finalize_l2_dirty_line_live_until_end() {
        let mut t = launched(&mini_cfg());
        t.cache_write(HwStructure::L2, 0, 1, 0, 10);
        t.advance_base(200);
        let (ace, _) = t.finish(|line| line == 1);
        assert_eq!(ace[HwStructure::L2 as usize], 190);
    }

    #[test]
    fn cta_fill_zeroes_are_live_when_read() {
        let mut t = launched(&mini_cfg());
        t.cta_fill(0, 0, 4, 0, 2, 0);
        t.reg_read(0, 2, 30); // zero-filled reg read: live 0..30
        t.smem_read(0, 1, 12); // zero-filled smem word: live 0..12
        t.launch_end(40);
        assert_eq!(t.ace_word_cycles()[HwStructure::RegFile as usize], 30);
        assert_eq!(t.ace_word_cycles()[HwStructure::Smem as usize], 12);
    }

    #[test]
    fn same_cycle_write_then_read_is_zero_length() {
        let mut t = launched(&mini_cfg());
        t.reg_write(0, 0, 10);
        t.reg_read(0, 0, 10);
        t.launch_end(20);
        assert_eq!(t.ace_word_cycles()[HwStructure::RegFile as usize], 0);
    }

    #[test]
    fn host_reads_reach_liveness_but_not_ace() {
        let cfg = mini_cfg();
        let mut t = launched(&cfg);
        t.cache_write(HwStructure::L2, 0, 0, 3, 10);
        t.launch_end(20);
        t.advance_base(20);
        t.host_peek(0, 3);
        let (ace, live) = t.finish(|_| false);
        assert_eq!(ace[HwStructure::L2 as usize], 0);
        let l = &live.launches()[0];
        assert!(!live.is_live(HwStructure::L2, 0, 3, l, 10));
        assert!(live.is_live(HwStructure::L2, 0, 3, l, 11));
        assert!(live.is_live(HwStructure::L2, 0, 3, l, 19));
        assert!(!live.is_live(HwStructure::L2, 0, 4, l, 11));
    }
}
