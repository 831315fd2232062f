#!/usr/bin/env bash
# Tier-1 gate: run before every push (referenced from ROADMAP.md).
#
#   scripts/check.sh
#
# Builds the whole workspace in release mode, runs the full test suite,
# and verifies rustfmt cleanliness. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> one argument parser (crates/bench/src/cli.rs reads std::env::args)"
if grep -rn 'env::args' crates/bench/src | grep -v '^crates/bench/src/cli.rs:'; then exit 1; fi

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo bench --no-run (criterion benches must compile)"
cargo bench --no-run -q

echo "==> perfbench self-tests (the repo benchmark builds against the workspace API)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> campaign shard-merge + fast-forward smoke"
cargo run --release -q -p bench --bin campaign -- smoke

echo "==> ace_study smoke"
cargo run --release -q -p bench --bin ace_study -- smoke

echo "==> fault_model_study smoke"
cargo run --release -q -p bench --bin fault_model_study -- smoke

echo "==> twolevel_study smoke"
cargo run --release -q -p bench --bin twolevel_study -- smoke

echo "==> dispatch smoke (coordinator + 2 workers, one killed mid-run)"
# Single-process reference, then the same campaign through the dispatch
# service (docs/DISPATCH.md) with a worker that dies mid-lease via the
# --fail-after hook. The merged CSV must be byte-identical and the
# coordinator must report the dead worker's lease as reassigned.
CAMPAIGN=target/release/campaign
DISP=$(mktemp -d)
"$CAMPAIGN" run --app VA --layer uarch --n 6 --seed 1234 \
  --csv "$DISP/single.csv" > /dev/null
"$CAMPAIGN" serve --app VA --layer uarch --n 6 --seed 1234 --shards 3 \
  --listen 127.0.0.1:0 --port-file "$DISP/port.txt" \
  --telemetry-port 0 --telemetry-port-file "$DISP/telemetry-port.txt" \
  --lease-ms 400 --backoff-ms 50 --max-backoff-ms 200 --wait-ms 50 \
  --csv "$DISP/dispatch.csv" > /dev/null 2> "$DISP/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$DISP/port.txt" ] && break; sleep 0.1; done
PORT=$(cat "$DISP/port.txt")
# Telemetry (docs/OBSERVABILITY.md): before any worker joins the
# campaign cannot finish, so the coordinator's endpoints are provably
# scraped mid-run. /metrics must pass the exposition lint and /status
# must parse and render as a fleet view.
for _ in $(seq 1 100); do [ -s "$DISP/telemetry-port.txt" ] && break; sleep 0.1; done
TPORT=$(cat "$DISP/telemetry-port.txt")
"$CAMPAIGN" scrape "127.0.0.1:$TPORT"
curl -sf "http://127.0.0.1:$TPORT/metrics" | "$CAMPAIGN" lint
# Plain grep (not -q) so the reader drains the whole stream: -q exits on
# first match and the writer panics on the broken pipe under pipefail.
curl -sf "http://127.0.0.1:$TPORT/status" | grep '"role":"coordinator"' > /dev/null
"$CAMPAIGN" status "127.0.0.1:$TPORT" | grep 'coordinator' > /dev/null
"$CAMPAIGN" top "127.0.0.1:$TPORT" --interval-ms 100 --iterations 2 > /dev/null
"$CAMPAIGN" work --connect "127.0.0.1:$PORT" --name doomed \
  --fail-after 4 --heartbeat-ms 50 > /dev/null
"$CAMPAIGN" work --connect "127.0.0.1:$PORT" --name w1 --heartbeat-ms 50 \
  --telemetry-port 0 --telemetry-port-file "$DISP/w1-port.txt" --trace > /dev/null &
"$CAMPAIGN" work --connect "127.0.0.1:$PORT" --name w2 --heartbeat-ms 50 > /dev/null &
wait "$SERVE_PID"
wait
cmp "$DISP/single.csv" "$DISP/dispatch.csv"
grep -Eq '\([1-9][0-9]* reassigned' "$DISP/serve.log"

echo "==> fast-forward equivalence smoke (docs/PERF.md)"
# The golden-prefix fast-forward engine (default) must produce the same
# assembled CSV as a full slow-path run of the same plan.
"$CAMPAIGN" run --app VA --layer uarch --n 6 --seed 1234 --no-fast-forward \
  --csv "$DISP/slow.csv" > /dev/null
cmp "$DISP/single.csv" "$DISP/slow.csv"

echo "==> replay backend smoke (docs/TRACE.md)"
# The trace-replay backend records the golden access trace, adjudicates
# each trial's footprint deadness against it, and synthesizes masked
# records for provably-dead trials; the assembled CSV must be
# byte-identical to the timed backend's.
"$CAMPAIGN" run --app VA --layer uarch --n 6 --seed 1234 --backend replay \
  --csv "$DISP/replay.csv" > /dev/null
cmp "$DISP/single.csv" "$DISP/replay.csv"

echo "==> fault-model smoke (docs/FAULT_MODELS.md)"
# A non-default pattern must run end to end and stay path-independent:
# a burst-row campaign with and without fast-forward, byte-identical.
"$CAMPAIGN" run --app VA --layer uarch --n 4 --seed 1234 \
  --fault-model burst-row --csv "$DISP/burst.csv" > /dev/null
"$CAMPAIGN" run --app VA --layer uarch --n 4 --seed 1234 \
  --fault-model burst-row --no-fast-forward --csv "$DISP/burst-slow.csv" > /dev/null
cmp "$DISP/burst.csv" "$DISP/burst-slow.csv"
rm -rf "$DISP"
echo "dispatch + fast-forward + fault-model smoke: CSVs byte-identical"

echo "==> adaptive sizing smoke (docs/TWOLEVEL.md)"
# CI-driven wave sizing must be deterministic and resumable: an
# uninterrupted run, a run killed mid-wave-2 (--limit) and resumed from
# its per-wave checkpoints, and a dispatched run (coordinator + two
# followed workers) must all print the same plan/result fingerprints.
ADPT=$(mktemp -d)
AFLAGS=(--app VA --layer uarch --adaptive --ci-target 0.15
        --wave-size 6 --max-trials 24 --seed 53083)
"$CAMPAIGN" run "${AFLAGS[@]}" --csv "$ADPT/adaptive.csv" > "$ADPT/one.txt"
# The CSV parses (header + one row per stratum) and every stratum
# converged on the CI target before the trial cap.
head -1 "$ADPT/adaptive.csv" | grep -q '^Kernel,Target,Trials,Fail'
test "$(wc -l < "$ADPT/adaptive.csv")" -eq 6
! grep -q ',cap$' "$ADPT/adaptive.csv"
"$CAMPAIGN" run "${AFLAGS[@]}" --checkpoint "$ADPT/ck.jsonl" --limit 33 \
  > /dev/null
"$CAMPAIGN" run "${AFLAGS[@]}" --checkpoint "$ADPT/ck.jsonl" \
  --resume "$ADPT/ck.jsonl" > "$ADPT/two.txt"
cmp "$ADPT/one.txt" "$ADPT/two.txt"
"$CAMPAIGN" serve "${AFLAGS[@]}" --shards 3 --listen 127.0.0.1:0 \
  --port-file "$ADPT/port.txt" --lease-ms 400 --backoff-ms 50 \
  --max-backoff-ms 200 --wait-ms 50 > "$ADPT/served.txt" 2> /dev/null &
ADPT_PID=$!
for _ in $(seq 1 100); do [ -s "$ADPT/port.txt" ] && break; sleep 0.1; done
APORT=$(cat "$ADPT/port.txt")
"$CAMPAIGN" work --connect "127.0.0.1:$APORT" --follow --name aw1 > /dev/null &
"$CAMPAIGN" work --connect "127.0.0.1:$APORT" --follow --name aw2 > /dev/null &
wait "$ADPT_PID"
wait
grep 'fingerprint' "$ADPT/one.txt" > "$ADPT/fp-single.txt"
grep 'fingerprint' "$ADPT/served.txt" > "$ADPT/fp-served.txt"
cmp "$ADPT/fp-single.txt" "$ADPT/fp-served.txt"
rm -rf "$ADPT"
echo "adaptive smoke: single-shot == resumed == dispatched"

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --release --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "tier-1 gate: OK"
