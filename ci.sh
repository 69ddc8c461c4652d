#!/usr/bin/env bash
# Tier-1 gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release

# The whole suite, once. The round engine must be invisible in results, and
# the suites that are the oracle for that set `parallel`/`threads` themselves
# and compare against the serial run bit for bit: `prop_engine_determinism`
# (1 / 2 / 8 helper threads × 16 seeds under an active adversary, telemetry
# on and off, workload inputs, panicking nodes), `golden_trace` (the JSONL
# flight-recorder trace at n = 13 under an active adversary, serial vs 1 and
# 4 threads), `hierarchy` and `chaos::tests`.
cargo test -q

cargo clippy --workspace --all-targets -- -D warnings

# The benchmark is a crate of its own (the workspace build never sees it)
# that drives the stack through public APIs and checks what it measured:
# a short run of all four workloads must come back `correct: true` with
# `failed` = 0 (run.sh exits non-zero otherwise), and its own tests must
# pass — so a change that breaks its imports or its correctness checks
# (one `v_cert`, captured traffic passes VER-CERT, zero alerts, sockets ≡
# engine bit for bit) fails here, not at the next measurement.
bash benchmark/run.sh --smoke
(cd benchmark && cargo test --offline -q)

# Fixed-seed chaos smoke: the degradation ramp must demonstrate the (s,t)
# boundary (sub-budget guarantees hold, over-budget degrades with alarms).
# That a chaos run is bit-identical for any thread count is `chaos::tests`
# and `prop_engine_determinism`, above.
cargo run -q --release -p proauth-examples --bin proauth -- chaos --n 5 --units 3 --seed 42

# Long chaos soak (release): the same boundary contract over a longer
# horizon and several seeds, with a hard bound on re-certification latency.
cargo test -q -p proauth-tests --release --test chaos_soak -- --ignored

# Envelope-budget regression at n = 32 (release: minutes-long in debug
# builds): evidence bundling must keep refresh traffic O(n²·fanout) and beat
# the pre-bundle encoding's envelope count (computed from the bundles on
# the wire, not run) ≥10×.
cargo test -q -p proauth-core --release --test envelope_budget -- --ignored

# §6 hierarchy smoke: cluster-local ULS stacks under the top-level PDS —
# setup, steady-state heartbeat co-signing across a refresh, authenticated
# cross-cluster transit with replay rejection, and representative crash →
# deterministic re-election with the joint key unchanged. The suite is its
# own engine oracle: `hier_runs_bit_identical_across_pool_sizes` compares
# the serial run with 1, 2 and 8 helper threads.
cargo test -q -p proauth-tests --release --test hierarchy

# The §6 headline asserted end to end (release): the hierarchy at n = 64
# sends ≥3× fewer envelopes than the feasible flat configuration over an
# identical refresh-bearing horizon.
cargo test -q -p proauth-tests --release --test hierarchy -- --ignored

# E7 smoke: partition arithmetic tables plus one end-to-end hierarchy run
# at n = 64. The full grid — flat n = 64 comparator and hierarchy runs at
# n = 128 / 256, the numbers behind BENCH_e7.json — runs with
# PROAUTH_E7=full (optionally CRITERION_JSON=BENCH_e7.json to re-emit it).
cargo bench -p proauth-bench --bench e7_partition

# Daemon smoke: n = 5 real node processes plus the chaos proxy over Unix
# sockets, 2 units (so one full proactive refresh) with delay/dup/reorder
# within budget, verified against the in-process engine (--check: certified
# keys equal, zero forgeries, every node completes every round) and bounded
# by a hard timeout so a wedged socket loop fails the gate instead of
# hanging it. Clean shutdown is part of the check: the orchestrator reaps
# every child and exits nonzero if any hung or died.
timeout 300 cargo run -q --release -p proauth-examples --bin proauth -- \
    daemon --n 5 --units 2 --delay 20 --dup 5 --reorder 5 --round-ms 2000 --check

# Observability smoke, clean leg: an adaptive daemon run must serve the live
# status endpoint mid-run — beacons from every node (no "beacons":0 in the
# JSON snapshot), zero alarms — and finish with zero alarms.
OBS_DIR=$(mktemp -d /tmp/proauth-obs.XXXXXX)
timeout 300 cargo run -q --release -p proauth-examples --bin proauth -- \
    daemon --n 5 --units 2 --round-ms 500 --min-round-ms 60 --adaptive \
    --addr "unix:$OBS_DIR" > "$OBS_DIR/daemon.log" 2>&1 &
OBS_PID=$!
sleep 2
SNAP=$(cargo run -q --release -p proauth-examples --bin proauth -- \
    top --addr "unix:$OBS_DIR" --once --view json)
echo "$SNAP" | grep -q '"alarms":\[\]'
if echo "$SNAP" | grep -q '"beacons":0'; then
    echo "observability: a node never beaconed: $SNAP" >&2
    exit 1
fi
wait "$OBS_PID"
grep -q "alarms: none" "$OBS_DIR/daemon.log"
rm -rf "$OBS_DIR"

# Self-healing smoke: n = 13 over the chaos proxy with every node SIGKILLed
# once (--kill auto schedules the victims across refresh windows so share
# recovery never exceeds n-(t+1) concurrent losses) and respawned by the
# supervisor from --state-dir. The live status endpoint is scraped while the
# run is in flight: restarts must surface as node_restarted alarms in the
# JSON snapshot and the recovery-latency histogram in the Prometheus view
# must be non-empty once the first respawn heals. The run itself must still
# verify against the in-process engine (--check: certified keys equal, zero
# forgeries, every node completes every round).
HEAL_DIR=$(mktemp -d /tmp/proauth-heal.XXXXXX)
timeout 600 cargo run -q --release -p proauth-examples --bin proauth -- \
    daemon --n 13 --units 4 --normal 8 --round-ms 200 --delay 5 --dup 3 \
    --kill auto --state-dir "$HEAL_DIR/state" --addr "unix:$HEAL_DIR" \
    --check > "$HEAL_DIR/daemon.log" 2>&1 &
HEAL_PID=$!
RESTART_SEEN=0
HIST_SEEN=0
for _ in $(seq 1 300); do
    kill -0 "$HEAL_PID" 2>/dev/null || break
    if [ "$RESTART_SEEN" -eq 0 ]; then
        SNAP=$(cargo run -q --release -p proauth-examples --bin proauth -- \
            top --addr "unix:$HEAL_DIR" --once --view json 2>/dev/null || true)
        echo "$SNAP" | grep -q '"kind":"node_restarted"' && RESTART_SEEN=1
    fi
    if [ "$RESTART_SEEN" -eq 1 ]; then
        PROM=$(cargo run -q --release -p proauth-examples --bin proauth -- \
            top --addr "unix:$HEAL_DIR" --once --view metrics 2>/dev/null || true)
        if echo "$PROM" | grep -q '^proauth_net_recovery_latency_ms_count [1-9]'; then
            HIST_SEEN=1
            break
        fi
    fi
    sleep 1
done
if [ "$RESTART_SEEN" -ne 1 ] || [ "$HIST_SEEN" -ne 1 ]; then
    echo "daemon-heal: status endpoint never showed a healed restart" >&2
    cat "$HEAL_DIR/daemon.log" >&2
    exit 1
fi
wait "$HEAL_PID"
grep -q "recovery latency:" "$HEAL_DIR/daemon.log"
rm -rf "$HEAL_DIR"

# Observability smoke, over-budget leg: a partition isolating 2 nodes under
# t = 1 must trip the collector's Definition-7 accounting — the run ends
# with at least the critical budget_exceeded alarm.
OBS_DIR=$(mktemp -d /tmp/proauth-obs.XXXXXX)
timeout 300 cargo run -q --release -p proauth-examples --bin proauth -- \
    daemon --n 5 --t 1 --units 2 --round-ms 500 --partition 4:12:2 \
    > "$OBS_DIR/daemon.log" 2>&1
grep -q "budget_exceeded" "$OBS_DIR/daemon.log"
rm -rf "$OBS_DIR"
