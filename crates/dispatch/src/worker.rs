//! The worker daemon: rebuild the plan, execute leased shards, stream
//! records back.
//!
//! A worker connects, introduces itself, receives the job spec, and
//! rebuilds the *entire* campaign plan locally — golden run included —
//! then proves it by echoing the plan fingerprint. From there it loops:
//! take a lease, execute the shard's still-missing trials with the same
//! parallel engine a local run uses ([`relia::execute_trials`]), stream
//! each classified record over the wire the moment it exists, and claim
//! `shard_done`. A heartbeat thread renews the lease while trials run,
//! so a lease only expires when the worker is actually gone.
//!
//! Every record the worker produced stays in an in-memory cache for the
//! duration of the session: if the coordinator lost lines to a torn
//! frame it answers `shard_done` with `resend`, and the worker replays
//! the missing records from cache instead of re-executing them.
//!
//! For fault-tolerance tests, [`WorkerCfg::fail_after`] makes the worker
//! die abruptly (socket torn down mid-stream, no goodbye) after N trial
//! records — a process SIGKILL without needing a process.

use std::io::ErrorKind;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use obs::counter_add;
use relia::checkpoint::TrialRecord;
use relia::plan::{shard_trials, PreparedCampaign};
use relia::{execute_trials_with, FastForward};

use crate::proto::{parse_frame, write_frame, Frame, Line, LineReader, PROTO_VERSION};
use crate::{DispatchError, TelemetryCfg};

/// Socket-level read tick; overall patience is [`WorkerCfg::read_timeout`].
const READ_TICK: Duration = Duration::from_millis(50);

/// Worker tuning knobs.
#[derive(Debug, Clone)]
pub struct WorkerCfg {
    /// Name reported in the hello frame (shows up in dispatch events).
    pub name: String,
    /// How often to renew the lease while executing trials. Must be
    /// comfortably below the coordinator's lease duration.
    pub heartbeat: Duration,
    /// Give up if the coordinator stays silent this long.
    pub read_timeout: Duration,
    /// Test hook: tear the connection down (no goodbye) after this many
    /// trial records have been streamed, emulating a SIGKILLed worker.
    pub fail_after: Option<usize>,
    /// Mount a local `GET /metrics` + `GET /status` server here and
    /// advertise its address in the hello frame so the coordinator
    /// scrapes and re-exports this worker's series. `None` = headless.
    pub telemetry: Option<TelemetryCfg>,
    /// Capture [`obs::TraceEvent`]s during execution and forward them to
    /// the coordinator as `trace` frames after each lease.
    pub trace: bool,
}

impl Default for WorkerCfg {
    fn default() -> Self {
        WorkerCfg {
            name: "worker".into(),
            heartbeat: Duration::from_millis(500),
            read_timeout: Duration::from_secs(30),
            fail_after: None,
            telemetry: None,
            trace: false,
        }
    }
}

/// What one worker session amounted to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkSummary {
    pub worker: String,
    /// Shards this worker drove to an `ack`.
    pub shards_completed: usize,
    /// Trial records streamed to the coordinator.
    pub trials_executed: usize,
    /// True when `fail_after` fired and the session died mid-stream.
    pub died_early: bool,
}

/// Read the next well-formed frame, dropping torn lines, within `patience`.
fn next_frame(lines: &mut LineReader, patience: Duration) -> Result<Frame, DispatchError> {
    let start = Instant::now();
    loop {
        match lines.next()? {
            Line::Full(l) => {
                if let Some(f) = parse_frame(&l) {
                    return Ok(f);
                }
                counter_add("dispatch_worker_torn_frames_total", &[], 1);
            }
            Line::Timeout => {
                if start.elapsed() >= patience {
                    return Err(DispatchError::Protocol(format!(
                        "coordinator silent for {patience:?}"
                    )));
                }
            }
            Line::Eof { .. } => {
                return Err(DispatchError::Protocol(
                    "connection closed by coordinator".into(),
                ))
            }
        }
    }
}

fn send(write: &Mutex<TcpStream>, frame: &Frame) -> std::io::Result<()> {
    write_frame(&mut write.lock().unwrap(), frame)
}

/// Connect to a coordinator at `addr` and work until it says shutdown.
///
/// Errors are local to this worker (the coordinator just reassigns its
/// leases): a spec it cannot realize, a plan fingerprint mismatch, a
/// dead connection. An injected `fail_after` death is reported as
/// `Ok` with [`WorkSummary::died_early`] set — the test harness treats
/// it as the expected outcome, not a failure.
pub fn work(addr: &str, cfg: &WorkerCfg) -> Result<WorkSummary, DispatchError> {
    // Mount the local telemetry server first so the hello frame can
    // advertise a live address for the coordinator to scrape.
    let telemetry = match &cfg.telemetry {
        None => None,
        Some(tcfg) => {
            // A worker with a live /status endpoint keeps the progress
            // counters moving so the document carries real trial counts
            // (execute_trials records per-injection outcomes only while
            // the reporter is on).
            obs::progress::enable();
            let name = cfg.name.clone();
            Some(crate::mount_telemetry(
                tcfg,
                obs::Handlers::status_only(move || worker_status(&name)),
            )?)
        }
    };
    if cfg.trace {
        obs::trace::set_tracing(true);
        obs::trace::set_capture(true);
        obs::trace::set_worker(&cfg.name);
    }

    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TICK))?;
    let mut lines = LineReader::new(stream.try_clone()?);
    let write = Mutex::new(stream);

    send(
        &write,
        &Frame::Hello {
            worker: cfg.name.clone(),
            proto: PROTO_VERSION,
            telemetry: telemetry
                .as_ref()
                .map(|t| t.addr().to_string())
                .unwrap_or_default(),
        },
    )?;
    let (spec, shards, theirs) = match next_frame(&mut lines, cfg.read_timeout)? {
        Frame::Job {
            spec,
            shards,
            fingerprint,
        } => (spec, shards, fingerprint),
        // Campaign already over: a clean zero-work session.
        Frame::Shutdown => {
            return Ok(WorkSummary {
                worker: cfg.name.clone(),
                shards_completed: 0,
                trials_executed: 0,
                died_early: false,
            })
        }
        f => {
            return Err(DispatchError::Protocol(format!(
                "expected job frame, got {f:?}"
            )))
        }
    };
    let bench = spec.find_bench().map_err(DispatchError::Spec)?;
    let prep = spec.prepare(bench.as_ref());
    // The dispatched backend is a throughput knob, not a plan property:
    // it rides outside the fingerprint, so mixed-backend fleets merge.
    let ff = FastForward {
        backend: spec.backend,
        ..FastForward::default()
    };
    let ours = prep.plan.fingerprint();
    if ours != theirs {
        return Err(DispatchError::FingerprintMismatch { ours, theirs });
    }
    send(&write, &Frame::Ready { fingerprint: ours })?;

    let executed = AtomicUsize::new(0);
    let died = AtomicBool::new(false);
    let cache: Mutex<Vec<TrialRecord>> = Mutex::new(Vec::new());
    let mut shards_completed = 0usize;

    loop {
        match next_frame(&mut lines, cfg.read_timeout)? {
            Frame::Shutdown => break,
            Frame::Wait { ms } => {
                std::thread::sleep(Duration::from_millis(ms.min(2_000)));
                send(&write, &Frame::Poll)?;
            }
            Frame::Lease { shard, done } => {
                let todo: Vec<usize> = shard_trials(prep.plan.len(), shards, shard)
                    .into_iter()
                    .filter(|i| !done.contains(i))
                    .collect();
                if cfg.trace {
                    obs::trace::set_shard(shard as u64);
                    obs::trace::set_campaign_fp(ours);
                    obs::trace::emit_for("lease_start", shard as u64, u64::MAX, 0);
                }
                run_lease(
                    &prep, ff, &todo, &write, cfg, shard, &executed, &died, &cache,
                )?;
                if cfg.trace && !died.load(Ordering::Acquire) {
                    // Forward everything captured during the lease; the
                    // coordinator re-emits the events into its own sink.
                    for ev in obs::trace::drain() {
                        send(&write, &Frame::Trace(ev))?;
                    }
                }
                if died.load(Ordering::Acquire) {
                    // Emulate SIGKILL: tear the socket down with records
                    // possibly still in flight, no shard_done, no goodbye.
                    let _ = write.lock().unwrap().shutdown(std::net::Shutdown::Both);
                    return Ok(WorkSummary {
                        worker: cfg.name.clone(),
                        shards_completed,
                        trials_executed: cache.lock().unwrap().len(),
                        died_early: true,
                    });
                }
                send(&write, &Frame::ShardDone { shard })?;
                // Await the ack, replaying any records lost to torn frames.
                loop {
                    match next_frame(&mut lines, cfg.read_timeout)? {
                        Frame::Ack { shard: s } if s == shard => {
                            shards_completed += 1;
                            counter_add("dispatch_worker_shards_total", &[], 1);
                            break;
                        }
                        Frame::Resend { shard: s, missing } if s == shard => {
                            let cached = cache.lock().unwrap();
                            for idx in &missing {
                                let Some(rec) = cached.iter().find(|r| r.idx == *idx) else {
                                    return Err(DispatchError::Protocol(format!(
                                        "coordinator wants trial {idx}, which this worker \
                                         never executed"
                                    )));
                                };
                                send(&write, &Frame::Trial(*rec))?;
                            }
                            drop(cached);
                            send(&write, &Frame::ShardDone { shard })?;
                        }
                        f => {
                            return Err(DispatchError::Protocol(format!(
                                "expected ack/resend for shard {shard}, got {f:?}"
                            )))
                        }
                    }
                }
            }
            f => {
                return Err(DispatchError::Protocol(format!(
                    "unexpected frame while idle: {f:?}"
                )))
            }
        }
    }

    let trials_executed = cache.lock().unwrap().len();
    Ok(WorkSummary {
        worker: cfg.name.clone(),
        shards_completed,
        trials_executed,
        died_early: false,
    })
}

/// Render a worker's `/status` document: local engine progress plus
/// per-injection wall-time quantiles from the global registry.
fn worker_status(name: &str) -> String {
    let (done, total, classes) = obs::progress::counts();
    let mut out = String::with_capacity(256);
    out.push_str("{\"record\":\"dispatch_status\",\"role\":\"worker\",\"name\":");
    obs::events::push_json_str(&mut out, name);
    out.push_str(&format!(",\"trials_done\":{done},\"trials_total\":{total}"));
    for (c, n) in obs::OutcomeClass::ALL.iter().zip(classes) {
        out.push_str(&format!(",\"{}\":{n}", c.label()));
    }
    // Cost-weighted throughput and replay adjudication counters: under
    // the replay backend, trial counts alone overstate progress (dead
    // trials are nearly free), so the status document also carries the
    // engine's simulated-cycle gauges when they are live.
    let snap = obs::global().snapshot();
    let gauge = |k: &str| {
        snap.gauges
            .iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };
    let prefix_sum = |p: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|(k, _)| k.starts_with(p))
            .map(|&(_, v)| v)
            .sum()
    };
    let sim_done = gauge("campaign_sim_cycles_done");
    if sim_done > 0 {
        out.push_str(&format!(
            ",\"sim_cycles_done\":{sim_done},\"sim_cycles_per_s\":{:.1}",
            gauge("campaign_sim_cycle_rate_milli") as f64 / 1e3
        ));
    }
    let dead = prefix_sum("trace_replay_dead_total");
    let fell_back = prefix_sum("trace_fallback_full_total");
    if dead + fell_back > 0 {
        out.push_str(&format!(
            ",\"replay_dead\":{dead},\"replay_fallback\":{fell_back},\
             \"replay_fallback_warps\":{}",
            prefix_sum("trace_fallback_warps_total")
        ));
    }
    match obs::progress::wall_quantiles() {
        Some((p50, p95)) => out.push_str(&format!(
            ",\"wall_p50_us\":{p50:.1},\"wall_p95_us\":{p95:.1}"
        )),
        None => out.push_str(",\"wall_p50_us\":null,\"wall_p95_us\":null"),
    }
    out.push_str(&format!(
        ",\"trace_dropped\":{},\"tracing\":{}}}",
        obs::trace::dropped(),
        obs::trace::tracing()
    ));
    out
}

/// Execute the lease's trials in parallel, streaming each record as it
/// is classified, with a heartbeat thread keeping the lease alive.
#[allow(clippy::too_many_arguments)]
fn run_lease(
    prep: &PreparedCampaign,
    ff: FastForward,
    todo: &[usize],
    write: &Mutex<TcpStream>,
    cfg: &WorkerCfg,
    shard: usize,
    executed: &AtomicUsize,
    died: &AtomicBool,
    cache: &Mutex<Vec<TrialRecord>>,
) -> Result<(), DispatchError> {
    let stop = AtomicBool::new(false);
    let streamed = AtomicU64::new(0);
    let result = std::thread::scope(|s| {
        s.spawn(|| {
            let mut last = Instant::now();
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(10));
                if last.elapsed() >= cfg.heartbeat {
                    last = Instant::now();
                    let hb = Frame::Heartbeat {
                        shard,
                        done: streamed.load(Ordering::Acquire),
                    };
                    if send(write, &hb).is_err() {
                        break;
                    }
                }
            }
        });
        let r = execute_trials_with(prep, ff, todo, |rec| {
            let k = executed.fetch_add(1, Ordering::AcqRel);
            if let Some(limit) = cfg.fail_after {
                if k >= limit {
                    died.store(true, Ordering::Release);
                    return Err(std::io::Error::new(
                        ErrorKind::BrokenPipe,
                        "injected worker failure (fail_after)",
                    ));
                }
            }
            cache.lock().unwrap().push(*rec);
            send(write, &Frame::Trial(*rec))?;
            streamed.fetch_add(1, Ordering::AcqRel);
            counter_add("dispatch_worker_trials_total", &[], 1);
            Ok(())
        });
        stop.store(true, Ordering::Release);
        r
    });
    match result {
        Ok(_) => Ok(()),
        // The injected death aborts execute_trials with an I/O error;
        // the caller reads `died` and reports it as a summary, not an Err.
        Err(_) if died.load(Ordering::Acquire) => Ok(()),
        Err(e) => Err(e.into()),
    }
}
