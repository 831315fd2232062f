//! The one command-line parser of the bench binaries.
//!
//! A binary builds an [`Args`] from its process arguments, takes the
//! options it reads — `--switch`es and `--option VALUE` pairs, the last
//! occurrence of an option winning — and then calls [`Args::finish`]
//! (directly or through [`crate::init_observability`]), which rejects
//! whatever no option took. Exit codes are uniform: **2** for command-line
//! errors ([`die`]), **1** for runtime failures ([`fail`]), **0** on
//! success.

use std::process::exit;
use std::str::FromStr;

use kernels::{all_benchmarks, Benchmark};
use relia::{CampaignCfg, EngineBackend};
use stat::AdaptiveCfg;
use vgpu_sim::{FaultPattern, GpuConfig, HwStructure};

/// Command-line error: unknown options, missing or malformed values.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

/// Runtime failure: the command line was well-formed but running it failed.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

/// The arguments of one invocation, taken as the binary reads them.
pub struct Args {
    /// `None` marks a taken argument, so positions stay stable.
    items: Vec<Option<String>>,
}

impl Args {
    /// The process arguments after the program name.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Args {
        Args {
            items: args.into_iter().map(|a| Some(a.into())).collect(),
        }
    }

    /// Takes the leading argument when it is not an option.
    pub fn subcommand(&mut self) -> Option<String> {
        match self.items.first() {
            Some(Some(a)) if !a.starts_with("--") => self.items[0].take(),
            _ => None,
        }
    }

    /// Takes the leading argument when it is `word`.
    pub fn leading(&mut self, word: &str) -> bool {
        let hit = matches!(self.items.first(), Some(Some(a)) if a == word);
        if hit {
            self.items[0] = None;
        }
        hit
    }

    /// Whether the switch `name` was given; takes every occurrence.
    pub fn flag(&mut self, name: &str) -> bool {
        let mut found = false;
        for slot in &mut self.items {
            if slot.as_deref() == Some(name) {
                *slot = None;
                found = true;
            }
        }
        found
    }

    /// The value of the last `name VALUE` pair; takes every pair. A value
    /// that is missing or is itself an option is exit 2.
    pub fn value(&mut self, name: &str) -> Option<String> {
        let mut last = None;
        for i in 0..self.items.len() {
            if self.items[i].as_deref() != Some(name) {
                continue;
            }
            match self.items.get_mut(i + 1).and_then(Option::take) {
                Some(v) if !v.starts_with("--") => last = Some(v),
                _ => die(&format!("option {name} requires a value")),
            }
            self.items[i] = None;
        }
        last
    }

    /// [`Self::value`] parsed as a number; anything else is exit 2.
    pub fn num<T: FromStr>(&mut self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("{name} takes a number, got {v:?}")))
        })
    }

    /// Takes the non-option arguments, in order. Call it after taking
    /// every option the binary reads: an argument right after an option
    /// not yet taken is left as that option's value.
    pub fn positionals(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..self.items.len() {
            let after_option = i > 0
                && self.items[i - 1]
                    .as_deref()
                    .is_some_and(|p| p.starts_with("--"));
            if !after_option
                && self.items[i]
                    .as_deref()
                    .is_some_and(|a| !a.starts_with("--"))
            {
                out.extend(self.items[i].take());
            }
        }
        out
    }

    /// Exit 2 on the first argument nothing took.
    pub fn finish(self) {
        if let Some(a) = self.items.into_iter().flatten().next() {
            if a.starts_with("--") {
                die(&format!("unknown option {a}"));
            }
            die(&format!("unexpected argument {a:?}"));
        }
    }

    /// `--backend timed|replay` (docs/TRACE.md); timed when absent.
    pub fn backend(&mut self) -> EngineBackend {
        self.value("--backend").map_or(EngineBackend::Timed, |v| {
            by_label("--backend", &v, &EngineBackend::ALL, EngineBackend::label)
                .unwrap_or_else(|e| die(&e))
        })
    }

    /// `--fault-model PATTERN` (docs/FAULT_MODELS.md).
    pub fn fault_model(&mut self) -> Option<FaultPattern> {
        self.value("--fault-model").map(|v| {
            by_label("--fault-model", &v, &FaultPattern::ALL, FaultPattern::label)
                .unwrap_or_else(|e| die(&e))
        })
    }

    /// `--structures RF,SMEM,L2`: case-insensitive labels, order kept,
    /// duplicates dropped (the dispatch job frame carries the same spec).
    pub fn structures(&mut self) -> Option<Vec<HwStructure>> {
        self.value("--structures")
            .map(|v| dispatch::parse_structures(&v).unwrap_or_else(|e| die(&e)))
    }

    /// `--sms N`: a Volta-like GPU scaled to N SMs.
    pub fn gpu(&mut self) -> Option<GpuConfig> {
        self.num("--sms").map(GpuConfig::volta_scaled)
    }

    /// The knobs every injection campaign takes, applied over `cfg`:
    /// `--seed S --sms N --fault-model PATTERN` and the watchdog
    /// `--wall-limit-us N --cycle-limit N --no-retry` (docs/CAMPAIGNS.md;
    /// the limits default to off so results stay bit-reproducible).
    pub fn campaign_knobs(&mut self, cfg: &mut CampaignCfg) {
        if let Some(seed) = self.num("--seed") {
            cfg.seed = seed;
        }
        if let Some(gpu) = self.gpu() {
            cfg.gpu = gpu;
        }
        if let Some(p) = self.fault_model() {
            cfg.pattern = p;
        }
        if let Some(us) = self.num("--wall-limit-us") {
            cfg.watchdog.wall_us_limit = Some(us);
        }
        if let Some(c) = self.num("--cycle-limit") {
            cfg.watchdog.cycle_limit = Some(c);
        }
        if self.flag("--no-retry") {
            cfg.watchdog.retry_on_panic = false;
        }
    }

    /// A study's campaign: `--n-uarch N --n-sw N` over the given defaults
    /// plus [`Self::campaign_knobs`]. The defaults are sized so every figure
    /// regenerates in minutes on a laptop; the paper used 3,000 injections
    /// per target (±2.35% at 99% confidence).
    pub fn campaign_cfg(&mut self, default_uarch: usize, default_sw: usize) -> CampaignCfg {
        let mut cfg = CampaignCfg::new(
            self.num("--n-uarch").unwrap_or(default_uarch),
            self.num("--n-sw").unwrap_or(default_sw),
            0xC0FF_EE00,
        );
        self.campaign_knobs(&mut cfg);
        cfg
    }

    /// `--ci-target F --wave-size N --max-trials N` over `base`; a sizing
    /// that cannot drive a terminating campaign is exit 2.
    pub fn adaptive_sizing(&mut self, mut base: AdaptiveCfg) -> AdaptiveCfg {
        if let Some(ci) = self.num("--ci-target") {
            base.ci_target = ci;
        }
        if let Some(w) = self.num("--wave-size") {
            base.wave_size = w;
        }
        if let Some(m) = self.num("--max-trials") {
            base.max_per_stratum = m;
        }
        base.validate().unwrap_or_else(|e| die(&e));
        base
    }

    /// `--adaptive` CI-driven sizing (docs/TWOLEVEL.md) with
    /// [`Self::adaptive_sizing`] over 0.05 / 16 / 256. `None` without the
    /// switch, where the sizing options are exit 2 rather than ignored.
    pub fn adaptive(&mut self) -> Option<AdaptiveCfg> {
        if self.flag("--adaptive") {
            return Some(self.adaptive_sizing(AdaptiveCfg::new(0.05, 16, 256)));
        }
        for name in ["--ci-target", "--wave-size", "--max-trials"] {
            if self.value(name).is_some() {
                die(&format!("{name} requires --adaptive"));
            }
        }
        None
    }

    /// `--apps VA,NW`: that suite subset (case-insensitive names) in
    /// canonical figure order; the whole suite when absent.
    pub fn apps(&mut self) -> Vec<Box<dyn Benchmark>> {
        let Some(spec) = self.value("--apps") else {
            return all_benchmarks();
        };
        let wanted: Vec<&'static str> = spec
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|w| find_app(w).name())
            .collect();
        all_benchmarks()
            .into_iter()
            .filter(|b| wanted.contains(&b.name()))
            .collect()
    }
}

/// The suite application named `name` (case-insensitive); exit 2 listing
/// the suite otherwise.
pub fn find_app(name: &str) -> Box<dyn Benchmark> {
    let mut all = all_benchmarks();
    match all.iter().position(|b| b.name().eq_ignore_ascii_case(name)) {
        Some(i) => all.swap_remove(i),
        None => {
            let names: Vec<&str> = all.iter().map(|b| b.name()).collect();
            die(&format!(
                "unknown app {name:?}; available: {}",
                names.join(", ")
            ));
        }
    }
}

/// The member of `all` whose label is `v`; the error lists the labels.
fn by_label<T: Copy>(
    name: &str,
    v: &str,
    all: &[T],
    label: fn(&T) -> &'static str,
) -> Result<T, String> {
    all.iter().copied().find(|x| label(x) == v).ok_or_else(|| {
        let known: Vec<&str> = all.iter().map(label).collect();
        format!("{name} must be one of {}, got {v:?}", known.join(", "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Args {
        Args::new(a.iter().copied())
    }

    #[test]
    fn options_are_taken_in_any_order_and_the_last_one_wins() {
        let mut a = args(&["--seed", "1", "--no-retry", "--seed", "7", "--n-uarch", "3"]);
        let cfg = a.campaign_cfg(100, 200);
        assert_eq!((cfg.n_uarch, cfg.n_sw, cfg.seed), (3, 200, 7));
        assert!(!cfg.watchdog.retry_on_panic);
        a.finish();
    }

    #[test]
    fn positionals_skip_the_values_of_options_not_yet_taken() {
        let mut a = args(&[
            "merge", "--app", "VA", "s0.jsonl", "--events", "ev", "s1.jsonl",
        ]);
        assert_eq!(a.subcommand().as_deref(), Some("merge"));
        assert_eq!(a.value("--app").as_deref(), Some("VA"));
        assert_eq!(a.positionals(), ["s0.jsonl", "s1.jsonl"]);
        assert_eq!(a.value("--events").as_deref(), Some("ev"));
        a.finish();
    }

    #[test]
    fn subcommands_are_leading_non_options() {
        assert_eq!(args(&["--app", "VA"]).subcommand(), None);
        let mut a = args(&["smoke"]);
        assert!(!a.leading("run"));
        assert!(a.leading("smoke"));
        a.finish();
    }

    #[test]
    fn backend_parses_known_labels_only() {
        assert_eq!(
            args(&["--backend", "replay"]).backend(),
            EngineBackend::Replay
        );
        assert_eq!(args(&[]).backend(), EngineBackend::Timed);
        let err = by_label(
            "--backend",
            "quantum",
            &EngineBackend::ALL,
            EngineBackend::label,
        )
        .unwrap_err();
        assert!(err.contains("timed, replay"), "{err}");
    }

    #[test]
    fn fault_model_errors_list_the_known_patterns() {
        assert_eq!(
            args(&["--fault-model", "stuck-at-1"]).fault_model(),
            Some(FaultPattern::StuckAt1)
        );
        let err = by_label(
            "--fault-model",
            "warp",
            &FaultPattern::ALL,
            FaultPattern::label,
        )
        .unwrap_err();
        assert!(
            err.contains("single-bit") && err.contains("stuck-at-0"),
            "{err}"
        );
    }

    #[test]
    fn apps_select_in_suite_order() {
        let names: Vec<&str> = args(&["--apps", "nw, va"])
            .apps()
            .iter()
            .map(|b| b.name())
            .collect();
        assert_eq!(names, ["VA", "NW"]);
        assert_eq!(args(&[]).apps().len(), all_benchmarks().len());
    }

    #[test]
    fn adaptive_sizing_overrides_the_base() {
        let a = args(&["--adaptive", "--wave-size", "8"])
            .adaptive()
            .unwrap();
        assert_eq!(
            (a.ci_target, a.wave_size, a.max_per_stratum),
            (0.05, 8, 256)
        );
        assert!(args(&[]).adaptive().is_none());
    }

    #[test]
    fn structures_accept_lists_and_reject_unknowns() {
        assert_eq!(
            args(&["--structures", "RF,SMEM,L2"]).structures().unwrap(),
            vec![HwStructure::RegFile, HwStructure::Smem, HwStructure::L2]
        );
        // Case-insensitive, whitespace-tolerant, dedup preserving order.
        assert_eq!(
            args(&["--structures", " l2 , rf ,L2"])
                .structures()
                .unwrap(),
            vec![HwStructure::L2, HwStructure::RegFile]
        );
        assert!(dispatch::parse_structures("RF,SM")
            .unwrap_err()
            .contains("SM"));
        assert!(dispatch::parse_structures("").is_err());
        assert!(dispatch::parse_structures(",,").is_err());
    }
}
