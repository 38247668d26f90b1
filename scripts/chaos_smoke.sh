#!/usr/bin/env bash
# chaos_smoke.sh — scenario smoke matrix + 3-rack R=2 replication chaos smoke.
#
# Phase 1 (scenario matrix): for each workload preset shared with the
# experiment suite (internal/experiments/cluster, docs/EXPERIMENTS.md), start
# three fresh replicated bottlerack processes and drive them over TCP with
# `loadgen -scenario <name> -verify-counts`: every bottle racked, counters
# exact at R=2, and loadgen's invariant checker clean (every acknowledged
# reply drained back among its invariants).
#
# Phase 2 (invariant checker): `benchtables -cluster all` replays the same
# presets in-process against a 3-rack R=2 ring with the end-to-end invariant
# checker (exactly-once evaluation per matcher, no reply loss or cross-client
# leakage, adversaries defeated) and exits nonzero on any violation.
#
# Phase 3 (kill-one-rack under churn): three replicated racks again, loadgen
# under the churn scenario (clients connect and disconnect on an msn mobility
# timeline), one rack SIGKILLed mid-load and restarted; asserts:
#
#   1. loadgen finishes clean: every bottle racked and — via its invariant
#      checker — every acknowledged reply (matched friending) drained back,
#      every promised evaluation made exactly once. R=2 keeps
#      the cluster fully serving through the crash.
#   2. The restarted rack converges via hinted handoff: the survivors stream
#      their queued hints to it and its handoff-applied counter goes nonzero.
#
# Phase 4 (secured chaos): the same three racks run with TLS + mutual TLS +
# capability tokens (`sealedbottle certgen/keygen/token`), loadgen drives them
# with a client certificate and a token, one rack is SIGKILLed mid-load and
# restarted; asserts the authenticated cluster loses zero acknowledged replies
# and that the restarted rack converges via the mTLS-dialed, replica-scope-
# token-authenticated handoff stream.
#
# Phase 5 (drain under load): three replicated racks, loadgen mid-flight, one
# rack put into drain mode with `sealedbottle admin drain`. The drained rack
# answers new submits with the typed ErrDraining — which the ring reroutes to
# the surviving replica, queueing a hint — while its sweeps, replies and
# replica stream keep serving. Asserts loadgen finishes with its checker
# clean (zero acknowledged replies lost across the drain) and that the rack
# reports draining over its admin status.
#
# Run from the repository root:  ./scripts/chaos_smoke.sh
set -euo pipefail

BIN=${BIN:-$(mktemp -d)}
OUT=${OUT:-$BIN}
# Phases 3-5 kill or drain a rack 2 s into loadgen: BOTTLES must keep it
# submitting past that (about 4 s for 60 000 on a 2-core host).
BOTTLES=${BOTTLES:-60000}
MATRIX_BOTTLES=${MATRIX_BOTTLES:-4000}
SCENARIOS=${SCENARIOS:-"burst adversarial zipf lossy"}

go build -o "$BIN/bottlerack" ./cmd/bottlerack
go build -o "$BIN/loadgen" ./cmd/loadgen
go build -o "$BIN/benchtables" ./cmd/benchtables
go build -o "$BIN/sealedbottle" ./cmd/sealedbottle

P0=7127 P1=7128 P2=7129
ADDRS="127.0.0.1:$P0,127.0.0.1:$P1,127.0.0.1:$P2"
PEERS="r0=127.0.0.1:$P0,r1=127.0.0.1:$P1,r2=127.0.0.1:$P2"
PID0= PID1= PID2=

start_rack() { # name port -> pid
  "$BIN/bottlerack" -addr "127.0.0.1:$2" -tag "$1" \
    -replicate -self "$1" -peers "$PEERS" -hint-interval 500ms \
    -stats 1s >>"$OUT/$1.log" 2>&1 &
  echo $!
}

wait_port() {
  for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then exec 3>&-; return 0; fi
    sleep 0.2
  done
  echo "chaos: rack on port $1 never came up" >&2
  return 1
}

wait_port_free() {
  for _ in $(seq 1 50); do
    if ! (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then return 0; fi
    exec 3>&-
    sleep 0.2
  done
  echo "chaos: rack on port $1 never released its listener" >&2
  return 1
}

start_cluster() {
  PID0=$(start_rack r0 $P0)
  PID1=$(start_rack r1 $P1)
  PID2=$(start_rack r2 $P2)
  wait_port $P0 && wait_port $P1 && wait_port $P2
}

stop_cluster() {
  kill "$PID0" "$PID1" "$PID2" 2>/dev/null || true
  wait_port_free $P0 && wait_port_free $P1 && wait_port_free $P2
}

trap 'kill "$PID0" "$PID1" "$PID2" 2>/dev/null || true' EXIT

# ---- Phase 1: scenario matrix over TCP --------------------------------------
for scenario in $SCENARIOS; do
  : >"$OUT/r0.log"; : >"$OUT/r1.log"; : >"$OUT/r2.log"
  start_cluster
  echo "chaos: scenario matrix — $scenario"
  if ! "$BIN/loadgen" -addrs "$ADDRS" \
      -bottles "$MATRIX_BOTTLES" -batch 16 -submitters 4 -sweepers 2 \
      -replication 2 -scenario "$scenario" \
      -verify-counts >"$OUT/loadgen-$scenario.out" 2>&1; then
    echo "chaos: scenario $scenario failed" >&2
    cat "$OUT/loadgen-$scenario.out" >&2
    exit 1
  fi
  grep -q "^verified " "$OUT/loadgen-$scenario.out"
  stop_cluster
done
echo "chaos: scenario matrix passed ($SCENARIOS)"

# ---- Phase 2: in-process invariant checker over every preset ----------------
echo "chaos: invariant checker — benchtables -cluster all"
if ! "$BIN/benchtables" -cluster all >"$OUT/invariants.out" 2>&1; then
  echo "chaos: cluster scenarios violated invariants" >&2
  cat "$OUT/invariants.out" >&2
  exit 1
fi
if grep -q "^VIOLATION" "$OUT/invariants.out"; then
  echo "chaos: invariant violations reported" >&2
  grep "^VIOLATION" "$OUT/invariants.out" >&2
  exit 1
fi
echo "chaos: invariant checker passed on every preset"

# ---- Phase 3: kill-one-rack under churn -------------------------------------
: >"$OUT/r0.log"; : >"$OUT/r1.log"; : >"$OUT/r2.log"
start_cluster

"$BIN/loadgen" -addrs "$ADDRS" \
  -bottles "$BOTTLES" -batch 32 -submitters 4 -sweepers 2 \
  -replication 2 -scenario churn >"$OUT/loadgen.out" 2>&1 &
LG=$!

sleep 2
# The kill must land mid-load or the run proved nothing.
if ! kill -0 "$LG" 2>/dev/null; then
  echo "chaos: loadgen finished before the kill — raise BOTTLES" >&2
  cat "$OUT/loadgen.out" >&2
  exit 1
fi
kill -9 "$PID2"
echo "chaos: SIGKILLed rack r2 mid-load (churn scenario)"

# Survivors queue hints for r2 while the ring fails over; then r2 returns
# empty (in-memory rack) and must converge from its peers' hint streams.
sleep 2
PID2=$(start_rack r2 $P2)
wait_port $P2
echo "chaos: restarted rack r2"

if ! wait "$LG"; then
  echo "chaos: loadgen failed — friendings or bottles were lost" >&2
  cat "$OUT/loadgen.out" >&2
  exit 1
fi
cat "$OUT/loadgen.out"
grep -q "^verified " "$OUT/loadgen.out"

# Convergence: r2's own stats line reports handoff-applied records received
# from the survivors' streamers (hint interval is 500ms; allow up to 20s).
wait_handoff() {
  for _ in $(seq 1 40); do
    if grep -Eq "handoff=[1-9]" "$OUT/r2.log"; then return 0; fi
    sleep 0.5
  done
  echo "chaos: restarted rack never applied a handoff record" >&2
  tail -n 3 "$OUT"/r0.log "$OUT"/r1.log "$OUT"/r2.log >&2
  return 1
}
wait_handoff
echo "chaos: restarted rack converged via handoff"
stop_cluster

# ---- Phase 4: secured chaos (TLS + mTLS + capability tokens) ----------------
PKI="$OUT/pki"
"$BIN/sealedbottle" certgen -dir "$PKI" -name rack
"$BIN/sealedbottle" certgen -dir "$PKI" -name client -ca-cert "$PKI/ca.pem" -ca-key "$PKI/ca-key.pem"
"$BIN/sealedbottle" keygen -out "$OUT/cluster.key"
AUTH_KEY=$(cat "$OUT/cluster.key")
# A ring at R=2 queues handoff hints client-side, so the workload token needs
# the full scope (including replica), not just the client ops.
"$BIN/sealedbottle" token -key "$AUTH_KEY" -identity chaos-loadgen -ops all -ttl 1h \
  -out "$OUT/loadgen.tok"

start_secure_rack() { # name port -> pid
  "$BIN/bottlerack" -addr "127.0.0.1:$2" -tag "$1" \
    -replicate -self "$1" -peers "$PEERS" -hint-interval 500ms \
    -tls-cert "$PKI/rack.pem" -tls-key "$PKI/rack-key.pem" -tls-client-ca "$PKI/ca.pem" \
    -auth-key "$AUTH_KEY" \
    -stats 1s >>"$OUT/$1.log" 2>&1 &
  echo $!
}

: >"$OUT/r0.log"; : >"$OUT/r1.log"; : >"$OUT/r2.log"
PID0=$(start_secure_rack r0 $P0)
PID1=$(start_secure_rack r1 $P1)
PID2=$(start_secure_rack r2 $P2)
wait_port $P0 && wait_port $P1 && wait_port $P2
echo "chaos: secured cluster up (mTLS + tokens + per-identity admission)"

"$BIN/loadgen" -addrs "$ADDRS" \
  -bottles "$BOTTLES" -batch 32 -submitters 4 -sweepers 2 \
  -replication 2 \
  -tls-ca "$PKI/ca.pem" -tls-cert "$PKI/client.pem" -tls-key "$PKI/client-key.pem" \
  -token "@$OUT/loadgen.tok" >"$OUT/loadgen-tls.out" 2>&1 &
LG=$!

sleep 2
if ! kill -0 "$LG" 2>/dev/null; then
  echo "chaos: secured loadgen finished before the kill — raise BOTTLES" >&2
  cat "$OUT/loadgen-tls.out" >&2
  exit 1
fi
kill -9 "$PID2"
echo "chaos: SIGKILLed secured rack r2 mid-load"

sleep 2
PID2=$(start_secure_rack r2 $P2)
wait_port $P2
echo "chaos: restarted secured rack r2"

if ! wait "$LG"; then
  echo "chaos: secured loadgen failed — friendings or bottles were lost" >&2
  cat "$OUT/loadgen-tls.out" >&2
  exit 1
fi
cat "$OUT/loadgen-tls.out"
grep -q "^verified " "$OUT/loadgen-tls.out"
wait_handoff
echo "chaos: restarted secured rack converged via authenticated handoff"
stop_cluster

# ---- Phase 5: drain one rack under load -------------------------------------
: >"$OUT/r0.log"; : >"$OUT/r1.log"; : >"$OUT/r2.log"
start_cluster

"$BIN/loadgen" -addrs "$ADDRS" \
  -bottles "$BOTTLES" -batch 32 -submitters 4 -sweepers 2 \
  -replication 2 >"$OUT/loadgen-drain.out" 2>&1 &
LG=$!

sleep 2
if ! kill -0 "$LG" 2>/dev/null; then
  echo "chaos: loadgen finished before the drain — raise BOTTLES" >&2
  cat "$OUT/loadgen-drain.out" >&2
  exit 1
fi
"$BIN/sealedbottle" admin drain -addr "127.0.0.1:$P2" | tee "$OUT/drain.out"
grep -q "draining=true" "$OUT/drain.out"
echo "chaos: rack r2 draining mid-load (submits rerouted, reads still serving)"

if ! wait "$LG"; then
  echo "chaos: loadgen failed across the drain — acknowledged replies were lost" >&2
  cat "$OUT/loadgen-drain.out" >&2
  exit 1
fi
cat "$OUT/loadgen-drain.out"
grep -q "^verified " "$OUT/loadgen-drain.out"
"$BIN/sealedbottle" admin undrain -addr "127.0.0.1:$P2" >/dev/null
echo "chaos: drain under load lost zero acknowledged replies"
echo "chaos smoke passed"
