//! Output checks. A campaign that fails any of them counts all its
//! trials as failed.
//!
//! * Pinned references (`pins.txt`): every app's golden statistics
//!   (checked on every seed — they do not depend on it) and, at
//!   [`DEFAULT_SEED`], every campaign's `records_fingerprint`. A change
//!   meant only to speed the simulator up must leave all of them equal.
//! * Slow-path sample: a seed-derived sample of each campaign's plan
//!   indices re-executed with `FastForward::disabled()`, outside the
//!   timed section; the records must match the timed run's.
//! * Repeatability: every iteration of a run must classify every trial
//!   exactly as the first did.
//! * `avf_fleet`: the records merged by `serve` must match an
//!   in-process `execute_trials_with` of the same plan.

use std::collections::BTreeMap;

use kernels::Benchmark;
use relia::{execute_trials_with, records_fingerprint, FastForward, TrialRecord};
use vgpu_sim::Stats;

use crate::spans::Spans;
use crate::workload::{execute_recorded, prepare, Iteration, Workload, DEFAULT_SEED};

/// Plan indices per campaign re-executed on the slow path.
pub const SLOW_SAMPLE: usize = 8;

/// The pinned reference file, compiled in.
pub const PINS_TEXT: &str = include_str!("../pins.txt");

/// The golden statistics a pin covers, in pin-file column order.
pub const STAT_COLUMNS: [&str; 12] = [
    "cycles",
    "issue_cycles",
    "stall_cycles",
    "thread_instrs",
    "l1d_accesses",
    "l1d_misses",
    "l1t_accesses",
    "l1t_misses",
    "l2_accesses",
    "l2_misses",
    "mem_reads",
    "mem_writes",
];

pub fn stat_columns(s: &Stats) -> [u64; 12] {
    [
        s.cycles,
        s.issue_cycles,
        s.stall_cycles,
        s.thread_instrs,
        s.l1d.accesses,
        s.l1d.misses,
        s.l1t.accesses,
        s.l1t.misses,
        s.l2.accesses,
        s.l2.misses,
        s.mem_reads,
        s.mem_writes,
    ]
}

/// Parsed `pins.txt`.
#[derive(Debug, Default, Clone)]
pub struct Pins {
    /// (variant, app) → golden statistics.
    pub golden: BTreeMap<(String, String), [u64; 12]>,
    /// (workload, seed, n, app) → records fingerprint.
    pub records: BTreeMap<(String, u64, usize, String), u64>,
}

impl Pins {
    /// Parse the pin file format:
    ///
    /// ```text
    /// golden <variant> <app> <12 statistics>
    /// records <workload> <seed> <n> <app> <fingerprint, hex>
    /// ```
    ///
    /// Blank lines and `#` comments are skipped; a malformed line is an
    /// error, so a damaged pin file cannot silently pass every check.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut pins = Pins::default();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("pins line {}: {line:?}", no + 1);
            match f.as_slice() {
                ["golden", variant, app, stats @ ..] if stats.len() == 12 => {
                    let mut v = [0u64; 12];
                    for (slot, s) in v.iter_mut().zip(stats) {
                        *slot = s.parse().map_err(|_| bad())?;
                    }
                    pins.golden
                        .insert((variant.to_string(), app.to_string()), v);
                }
                ["records", workload, seed, n, app, fp] => {
                    let fp =
                        u64::from_str_radix(fp.trim_start_matches("0x"), 16).map_err(|_| bad())?;
                    pins.records.insert(
                        (
                            workload.to_string(),
                            seed.parse().map_err(|_| bad())?,
                            n.parse().map_err(|_| bad())?,
                            app.to_string(),
                        ),
                        fp,
                    );
                }
                _ => return Err(bad()),
            }
        }
        Ok(pins)
    }

    /// Compare an app's golden statistics with its pin.
    pub fn check_golden(&self, variant: &str, app: &str, stats: &Stats) -> Result<(), String> {
        let key = (variant.to_string(), app.to_string());
        let Some(want) = self.golden.get(&key) else {
            return Err(format!("no pinned {variant} golden statistics for {app}"));
        };
        let got = stat_columns(stats);
        let diffs: Vec<String> = STAT_COLUMNS
            .iter()
            .zip(want.iter().zip(&got))
            .filter(|(_, (w, g))| w != g)
            .map(|(name, (w, g))| format!("{name} {g} (pinned {w})"))
            .collect();
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{variant} golden statistics of {app} changed: {}",
                diffs.join(", ")
            ))
        }
    }

    /// Compare a default-seed campaign's records fingerprint with its pin.
    pub fn check_records(
        &self,
        w: Workload,
        seed: u64,
        app: &str,
        records_fp: u64,
    ) -> Result<(), String> {
        let key = (w.name().to_string(), seed, w.n(), app.to_string());
        match self.records.get(&key) {
            None => Err(format!(
                "no pinned records fingerprint for {} seed {seed} n {} {app}",
                w.name(),
                w.n()
            )),
            Some(&want) if want == records_fp => Ok(()),
            Some(&want) => Err(format!(
                "records fingerprint of {app} is {records_fp:#018x}, pinned {want:#018x}"
            )),
        }
    }
}

/// Plan indices whose records disagree (outcome or control-path flag)
/// between a full, index-sorted record set and a re-execution of some of
/// its indices. An index missing from `reference` is a mismatch too.
pub fn mismatches(reference: &[TrialRecord], rerun: &[TrialRecord]) -> Vec<usize> {
    rerun
        .iter()
        .filter(
            |r| match reference.binary_search_by_key(&r.idx, |x| x.idx) {
                Ok(i) => reference[i].outcome != r.outcome || reference[i].ctrl != r.ctrl,
                Err(_) => true,
            },
        )
        .map(|r| r.idx)
        .collect()
}

/// Seed-derived sample of `k` distinct plan indices out of `len`
/// (all of them when `len <= k`). Sorted.
pub fn sample_indices(seed: u64, salt: &str, len: usize, k: usize) -> Vec<usize> {
    if len <= k {
        return (0..len).collect();
    }
    let mut x = salt.bytes().fold(seed ^ 0x243f_6a88_85a3_08d3, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    let mut out: Vec<usize> = Vec::with_capacity(k);
    while out.len() < k {
        // splitmix64
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let i = (z % len as u64) as usize;
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out.sort_unstable();
    out
}

/// Outcome of the output check for one run.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Apps whose campaign failed a check, with every reason.
    pub failed: BTreeMap<String, Vec<String>>,
}

impl CheckReport {
    fn fail(&mut self, app: &str, why: String) {
        self.failed.entry(app.to_string()).or_default().push(why);
    }

    /// Trials counted as failed across `iters`.
    pub fn failed_trials(&self, iters: &[Iteration]) -> usize {
        iters
            .iter()
            .flat_map(|it| &it.campaigns)
            .filter(|c| self.failed.contains_key(&c.app))
            .map(|c| c.trials)
            .sum()
    }
}

/// Run every output check over the iterations of one run. `spans`
/// records the fleet's in-process reference execution (traced runs use
/// it for the campaign-engine layer metrics).
pub fn check_run(
    w: Workload,
    seed: u64,
    benches: &[Box<dyn Benchmark>],
    iters: &[Iteration],
    pins: &Pins,
    spans: &Spans,
) -> CheckReport {
    let mut rep = CheckReport::default();
    let Some(first) = iters.first() else {
        return rep;
    };
    for (ci, (b, c)) in benches.iter().zip(&first.campaigns).enumerate() {
        let app = c.app.as_str();
        if let Some(e) = &c.error {
            rep.fail(app, e.clone());
        }
        for (k, it) in iters.iter().enumerate().skip(1) {
            if it.campaigns[ci].records_fp != c.records_fp || it.campaigns[ci].error.is_some() {
                rep.fail(app, format!("iteration {k} classified differently"));
            }
        }
        let prep = prepare(w, b.as_ref(), seed);
        if prep.plan.fingerprint() != c.plan_fp {
            rep.fail(app, "re-planning gave another plan fingerprint".into());
        }
        if let Err(e) = pins.check_golden(w.golden_variant(), app, &prep.golden.app_stats()) {
            rep.fail(app, e);
        }
        if seed == DEFAULT_SEED {
            if let Err(e) = pins.check_records(w, seed, app, c.records_fp) {
                rep.fail(app, e);
            }
        }
        let sample = sample_indices(seed, app, prep.plan.len(), SLOW_SAMPLE);
        match execute_trials_with(&prep, FastForward::disabled(), &sample, |_| Ok(())) {
            Ok(slow) => {
                let bad = mismatches(&c.records, &slow);
                if !bad.is_empty() {
                    rep.fail(app, format!("slow path disagrees on plan indices {bad:?}"));
                }
            }
            Err(e) => rep.fail(app, format!("slow-path rerun: {e}")),
        }
        if w == Workload::AvfFleet {
            let all: Vec<usize> = (0..prep.plan.len()).collect();
            let cid = spans.fresh_id();
            match execute_recorded(&prep, w.fast_forward(), &all, spans, 0, cid).0 {
                Ok(local) if records_fingerprint(&local) == c.records_fp => {}
                Ok(_) => rep.fail(
                    app,
                    "served records differ from in-process execution".into(),
                ),
                Err(e) => rep.fail(app, format!("in-process reference: {e}")),
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::Outcome;
    use std::path::Path;

    fn rec(idx: usize, outcome: Outcome) -> TrialRecord {
        TrialRecord {
            idx,
            outcome,
            ctrl: false,
            wall_us: 0,
        }
    }

    #[test]
    fn tampered_records_are_caught() {
        let reference: Vec<TrialRecord> = (0..10).map(|i| rec(i, Outcome::Masked)).collect();
        let rerun = vec![rec(2, Outcome::Masked), rec(7, Outcome::Masked)];
        assert!(mismatches(&reference, &rerun).is_empty());
        // Wall-clock noise is not a mismatch.
        let mut noisy = rerun.clone();
        noisy[0].wall_us = 99;
        assert!(mismatches(&reference, &noisy).is_empty());
        let mut tampered = rerun.clone();
        tampered[1].outcome = Outcome::Sdc;
        assert_eq!(mismatches(&reference, &tampered), vec![7]);
        let mut ctrl = rerun;
        ctrl[0].ctrl = true;
        assert_eq!(mismatches(&reference, &ctrl), vec![2]);
        assert_eq!(
            mismatches(&reference, &[rec(10, Outcome::Masked)]),
            vec![10]
        );
    }

    #[test]
    fn samples_are_seed_derived_distinct_and_in_range() {
        let a = sample_indices(7, "VA", 1000, 8);
        assert_eq!(a, sample_indices(7, "VA", 1000, 8));
        assert_ne!(a, sample_indices(8, "VA", 1000, 8));
        assert_ne!(a, sample_indices(7, "NW", 1000, 8));
        assert_eq!(a.len(), 8);
        assert!(a.windows(2).all(|p| p[0] < p[1]) && a[7] < 1000);
        assert_eq!(sample_indices(7, "VA", 3, 8), vec![0, 1, 2]);
    }

    #[test]
    fn pin_file_parses_and_rejects_damage() {
        let pins = Pins::parse(PINS_TEXT).expect("shipped pins parse");
        assert!(!pins.golden.is_empty() && !pins.records.is_empty());
        assert!(Pins::parse("golden timed VA 1 2 3").is_err());
        assert!(Pins::parse("records avf_suite 7 40 VA nothex").is_err());
        assert!(Pins::parse("# only a comment\n\n")
            .unwrap()
            .golden
            .is_empty());
    }

    #[test]
    fn tampered_pins_fail_the_check() {
        let pins = Pins::parse(PINS_TEXT).unwrap();
        let w = Workload::AvfFleet;
        let key = pins
            .records
            .keys()
            .find(|k| k.0 == w.name())
            .cloned()
            .expect("fleet pins present");
        let fp = pins.records[&key];
        assert!(pins.check_records(w, key.1, &key.3, fp).is_ok());
        assert!(pins.check_records(w, key.1, &key.3, fp ^ 1).is_err());
        let mut tampered = pins.clone();
        *tampered.records.get_mut(&key).unwrap() ^= 1 << 63;
        assert!(tampered.check_records(w, key.1, &key.3, fp).is_err());

        let (gkey, gstats) = pins.golden.iter().next().unwrap();
        let mut stats = Stats::default();
        [
            stats.cycles,
            stats.issue_cycles,
            stats.stall_cycles,
            stats.thread_instrs,
            stats.l1d.accesses,
            stats.l1d.misses,
            stats.l1t.accesses,
            stats.l1t.misses,
            stats.l2.accesses,
            stats.l2.misses,
            stats.mem_reads,
            stats.mem_writes,
        ] = *gstats;
        assert!(pins.check_golden(&gkey.0, &gkey.1, &stats).is_ok());
        stats.stall_cycles += 1;
        let err = pins.check_golden(&gkey.0, &gkey.1, &stats).unwrap_err();
        assert!(err.contains("stall_cycles"), "{err}");
    }

    #[test]
    fn a_tampered_campaign_fails_the_full_check() {
        // A real, small campaign: the check passes on the engine's own
        // records and fails once one record is flipped.
        let w = Workload::SvfSuite;
        let benches: Vec<Box<dyn Benchmark>> = vec![Box::new(kernels::apps::va::Va)];
        let spans = Spans::new(false);
        let seed = 99;
        let it = crate::workload::run_iteration(w, seed, &benches, &spans, Path::new("."));
        let mut pins = Pins::parse(PINS_TEXT).unwrap();
        // Records pins only apply at the default seed; golden pins apply.
        let ok = check_run(w, seed, &benches, std::slice::from_ref(&it), &pins, &spans);
        assert!(ok.failed.is_empty(), "{:?}", ok.failed);

        let mut bad = it.clone();
        let c = &mut bad.campaigns[0];
        let flip = sample_indices(seed, &c.app, c.records.len(), SLOW_SAMPLE)[0];
        c.records[flip].outcome = match c.records[flip].outcome {
            Outcome::Masked => Outcome::Sdc,
            _ => Outcome::Masked,
        };
        let rep = check_run(w, seed, &benches, std::slice::from_ref(&bad), &pins, &spans);
        assert!(rep.failed.contains_key("VA"));
        assert_eq!(rep.failed_trials(&[bad]), it.campaigns[0].trials);

        pins.golden.values_mut().for_each(|v| v[3] += 1);
        let rep = check_run(w, seed, &benches, std::slice::from_ref(&it), &pins, &spans);
        assert!(rep.failed["VA"].iter().any(|e| e.contains("thread_instrs")));
    }
}
