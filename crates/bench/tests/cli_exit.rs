//! Uniform exit codes across every `campaign` subcommand:
//!
//! * **2** — CLI/validation errors: unknown subcommands/flags, malformed
//!   values, bad `--listen`/`--connect` addresses, bad lease values;
//! * **1** — runtime failures: unreadable checkpoints, refused
//!   connections, engine errors;
//! * **0** — success.
//!
//! These are load-bearing for scripts/check.sh and any fleet supervisor
//! wrapping `serve`/`work`: a supervisor must be able to tell "my command
//! line is wrong, don't retry" from "the run failed, maybe retry".

use std::process::Command;

fn campaign(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("spawn campaign binary")
}

fn assert_exit(args: &[&str], want: i32) {
    let out = campaign(args);
    let got = out.status.code().expect("no exit code (signal?)");
    assert_eq!(
        got,
        want,
        "campaign {:?}: want exit {want}, got {got}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn validation_errors_exit_2() {
    // CLI-shape errors, uniformly across subcommands.
    assert_exit(&[], 2);
    assert_exit(&["frobnicate"], 2);
    assert_exit(&["run", "--bogus-flag", "1"], 2);
    assert_exit(&["run"], 2); // missing --app
    assert_exit(&["run", "--app", "VA", "--layer", "quantum"], 2);
    assert_exit(&["run", "--app", "NOPE"], 2);
    assert_exit(&["run", "--app", "VA", "--n", "many"], 2);
    assert_exit(&["run", "--app", "VA", "--structures", "RF,WARP"], 2);
    assert_exit(
        &["run", "--app", "VA", "--layer", "sw", "--structures", "RF"],
        2,
    );
    assert_exit(
        &["run", "--app", "VA", "--shards", "2", "--shard-index", "2"],
        2,
    );
    assert_exit(&["merge"], 2); // no shard files
    assert_exit(&["merge", "missing.jsonl"], 2); // no --app
}

#[test]
fn fault_model_validation_errors_exit_2() {
    // Unknown pattern names must die before any simulation starts, on
    // every subcommand that accepts the flag.
    assert_exit(&["run", "--app", "VA", "--fault-model", "bogus"], 2);
    assert_exit(&["run", "--app", "VA", "--fault-model", ""], 2);
    assert_exit(&["serve", "--app", "VA", "--fault-model", "warp-drive"], 2);
    // SIMT/SCHED state is ephemeral: a transient flip there is not a
    // meaningful model, only stuck-at campaigns may target it.
    assert_exit(&["run", "--app", "VA", "--structures", "SIMT,SCHED"], 2);
    assert_exit(
        &[
            "run",
            "--app",
            "VA",
            "--structures",
            "RF,SIMT",
            "--fault-model",
            "burst-row",
        ],
        2,
    );
}

#[test]
fn backend_validation_errors_exit_2() {
    // Unknown backend labels must die before any simulation starts, on
    // both subcommands that accept the flag.
    assert_exit(&["run", "--app", "VA", "--backend", "quantum"], 2);
    assert_exit(&["run", "--app", "VA", "--backend", ""], 2);
    assert_exit(&["serve", "--app", "VA", "--backend", "bogus"], 2);
    assert_exit(&["run", "--app", "VA", "--backend"], 2); // missing value
                                                          // Replay adjudicates against the golden trace and re-executes
                                                          // fallback trials from fast-forward snapshots; forcing the slow path
                                                          // alongside it is a contradiction, not a degraded mode.
    assert_exit(
        &[
            "run",
            "--app",
            "VA",
            "--backend",
            "replay",
            "--no-fast-forward",
        ],
        2,
    );
}

#[test]
fn adaptive_validation_errors_exit_2() {
    // Malformed adaptive sizing flags must die before any simulation
    // starts (docs/TWOLEVEL.md), on both `run` and `serve`.
    assert_exit(&["run", "--app", "VA", "--adaptive", "--ci-target", "0"], 2);
    assert_exit(
        &["run", "--app", "VA", "--adaptive", "--ci-target", "1.5"],
        2,
    );
    assert_exit(
        &["run", "--app", "VA", "--adaptive", "--ci-target", "abc"],
        2,
    );
    assert_exit(&["run", "--app", "VA", "--adaptive", "--wave-size", "0"], 2);
    assert_exit(
        &[
            "run",
            "--app",
            "VA",
            "--adaptive",
            "--wave-size",
            "8",
            "--max-trials",
            "4",
        ],
        2,
    );
    // Adaptive-only flags without --adaptive are a usage error, not a
    // silent no-op.
    assert_exit(&["run", "--app", "VA", "--ci-target", "0.1"], 2);
    assert_exit(&["run", "--app", "VA", "--wave-size", "8"], 2);
    assert_exit(&["run", "--app", "VA", "--max-trials", "64"], 2);
    // Adaptive campaigns are single-process per wave; sharding and fixed
    // telemetry ports belong to serve/work.
    assert_exit(&["run", "--app", "VA", "--adaptive", "--shards", "3"], 2);
    assert_exit(
        &[
            "serve",
            "--app",
            "VA",
            "--adaptive",
            "--telemetry-port",
            "0",
        ],
        2,
    );
    assert_exit(&["serve", "--app", "VA", "--ci-target", "0.1"], 2);
}

#[test]
fn dispatch_validation_errors_exit_2() {
    // Bad --listen / --connect addresses and lease values (satellite 2).
    assert_exit(&["serve", "--app", "VA", "--listen", "nonsense"], 2);
    assert_exit(&["serve", "--app", "VA", "--listen", "host:NaN"], 2);
    assert_exit(&["serve", "--app", "VA", "--lease-ms", "0"], 2);
    assert_exit(&["serve", "--app", "VA", "--shards", "0"], 2);
    assert_exit(
        &[
            "serve",
            "--app",
            "VA",
            "--backoff-ms",
            "500",
            "--max-backoff-ms",
            "100",
        ],
        2,
    );
    assert_exit(&["serve"], 2); // missing --app
                                // Watchdog limits are machine-dependent, so serve refuses them.
    assert_exit(&["serve", "--app", "VA", "--wall-limit-us", "1000"], 2);
    assert_exit(&["work"], 2); // missing --connect
    assert_exit(&["work", "--connect", "noport"], 2);
    assert_exit(&["work", "--connect", ":123"], 2);
    assert_exit(&["work", "--connect", "127.0.0.1:99999"], 2);
    assert_exit(
        &["work", "--connect", "127.0.0.1:80", "--heartbeat-ms", "0"],
        2,
    );
}

#[test]
fn telemetry_validation_errors_exit_2() {
    // Telemetry flags and the status/top/scrape/timeline consumers.
    assert_exit(&["serve", "--app", "VA", "--telemetry-port", "70000"], 2);
    assert_exit(
        &["serve", "--app", "VA", "--telemetry-port-file", "p.txt"],
        2,
    ); // port file without a port
    assert_exit(
        &[
            "work",
            "--connect",
            "127.0.0.1:80",
            "--telemetry-port-file",
            "p.txt",
        ],
        2,
    );
    assert_exit(&["status"], 2); // missing ADDR
    assert_exit(&["status", "nonsense"], 2);
    assert_exit(&["top"], 2);
    assert_exit(&["top", "127.0.0.1:80", "--interval-ms", "0"], 2);
    assert_exit(&["top", "127.0.0.1:80", "--bogus"], 2);
    assert_exit(&["scrape"], 2);
    assert_exit(&["timeline"], 2); // no files
}

#[test]
fn telemetry_runtime_failures_exit_1() {
    // A dead port is a runtime failure for every poller, and a missing
    // events file is a runtime failure for the timeline renderer.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");
    assert_exit(&["status", &addr], 1);
    assert_exit(&["scrape", &addr], 1);
    assert_exit(&["timeline", "/definitely/not/events.jsonl"], 1);
}

#[test]
fn runtime_failures_exit_1() {
    // Unreadable checkpoint: well-formed command, failing execution.
    assert_exit(
        &["merge", "--app", "VA", "/definitely/not/a/real/file.jsonl"],
        1,
    );
    // Connection refused: find a port with no listener by binding then
    // dropping it (racy in theory, dead port in practice).
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    assert_exit(&["work", "--connect", &format!("127.0.0.1:{port}")], 1);
}

#[test]
fn success_exits_0() {
    let out = campaign(&["run", "--app", "VA", "--n", "2", "--seed", "7"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("result fingerprint"),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Every option-taking bench binary, with the arguments that select its
/// option-parsing mode.
const BINARIES: &[(&str, &str, &[&str])] = &[
    ("baseline_study", env!("CARGO_BIN_EXE_baseline_study"), &[]),
    (
        "hardening_study",
        env!("CARGO_BIN_EXE_hardening_study"),
        &[],
    ),
    ("layers_study", env!("CARGO_BIN_EXE_layers_study"), &[]),
    ("speed_study", env!("CARGO_BIN_EXE_speed_study"), &[]),
    (
        "ablation_sizing",
        env!("CARGO_BIN_EXE_ablation_sizing"),
        &[],
    ),
    (
        "fig03_utilization",
        env!("CARGO_BIN_EXE_fig03_utilization"),
        &[],
    ),
    (
        "fig12_register_reuse",
        env!("CARGO_BIN_EXE_fig12_register_reuse"),
        &[],
    ),
    (
        "fault_model_study",
        env!("CARGO_BIN_EXE_fault_model_study"),
        &[],
    ),
    ("ace_study", env!("CARGO_BIN_EXE_ace_study"), &[]),
    ("twolevel_study", env!("CARGO_BIN_EXE_twolevel_study"), &[]),
    (
        "campaign",
        env!("CARGO_BIN_EXE_campaign"),
        &["run", "--app", "VA"],
    ),
];

/// `name` run with `args` must be a usage error: exit 2 and an `error:`
/// line, not a panic. Every case here fails before any campaign starts, so
/// no study runs to completion and rewrites `results/`.
fn assert_usage_error(name: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{name} {args:?}: want exit 2\nstderr: {stderr}"
    );
    assert!(
        stderr.contains("error:") && !stderr.contains("panicked"),
        "{name} {args:?}: want an error line, no panic\nstderr: {stderr}"
    );
}

fn binary(name: &str) -> (&'static str, &'static [&'static str]) {
    let &(_, exe, prefix) = BINARIES
        .iter()
        .find(|(n, _, _)| *n == name)
        .expect("binary in the table");
    (exe, prefix)
}

#[test]
fn every_binary_rejects_malformed_options_with_exit_2() {
    let cases: [&[&str]; 3] = [&["--bogus", "1"], &["--seed"], &["--seed", "x"]];
    for &(name, exe, prefix) in BINARIES {
        for case in cases {
            assert_usage_error(name, exe, &[prefix, case].concat());
        }
    }
}

#[test]
fn options_a_binary_does_not_read_are_rejected() {
    let events = std::env::temp_dir().join("bench-cli-exit-never-written.jsonl");
    let events = events.to_str().expect("utf-8 temp dir");
    let mut cases: Vec<(&str, Vec<&str>)> = vec![
        // The backend is read, so an unknown label is an error.
        ("baseline_study", vec!["--backend", "quantum"]),
        ("fault_model_study", vec!["smoke", "--bogus"]),
        ("ace_study", vec!["smoke", "--apps", "VA"]),
    ];
    for name in [
        "hardening_study",
        "speed_study",
        "ablation_sizing",
        "fig03_utilization",
        "fig12_register_reuse",
    ] {
        cases.push((name, vec!["--backend", "replay"]));
    }
    for name in [
        "speed_study",
        "ablation_sizing",
        "fig03_utilization",
        "fig12_register_reuse",
    ] {
        cases.push((name, vec!["--events", events]));
    }
    for (name, args) in cases {
        let (exe, prefix) = binary(name);
        assert_usage_error(name, exe, &[prefix, &args[..]].concat());
    }
}
