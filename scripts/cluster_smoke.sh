#!/usr/bin/env bash
# End-to-end smoke test for mbbserved cluster mode: three durable
# workers on one consistent-hash ring behind a coordinator. Asserts the
# routing and replication contract — uploads and mutations land on the
# shard owner (and its WAL), direct writes to non-owners bounce with
# 421, replicas converge on the owner's exact epochs and answer solves
# identically for every named epoch, and killing a worker leaves reads
# serving through replicas while mutations to its shard back off with
# Retry-After. Run from the repo root; CI runs it after the unit tests.
set -euo pipefail

BIN="${MBBSERVED_BIN:-$(mktemp -d)/mbbserved}"
[ -x "$BIN" ] || go build -o "$BIN" ./cmd/mbbserved

K33='3 3 9
0 0
0 1
0 2
1 0
1 1
1 2
2 0
2 1
2 2'

declare -a WPID WLOG WDATA PEER PORT
CPID="" CLOG=""

dump_logs() {
    for i in 0 1 2; do
        [ -f "${WLOG[$i]:-/dev/null}" ] && tail -n 15 "${WLOG[$i]}" | sed "s/^/cluster_smoke: w$i: /" >&2
    done
    [ -f "${CLOG:-/dev/null}" ] && tail -n 15 "$CLOG" | sed 's/^/cluster_smoke: coord: /' >&2
}
fail() { echo "cluster_smoke: FAIL: $*" >&2; dump_logs; exit 1; }
cleanup() {
    for p in "${WPID[@]:-}" "$CPID"; do [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
}
trap cleanup EXIT

# wait_until TRIES CMD...: poll CMD (silenced) every 0.2s.
wait_until() {
    local tries=$1; shift
    for _ in $(seq 1 "$tries"); do "$@" >/dev/null 2>&1 && return 0; sleep 0.2; done
    return 1
}

# free_port: a random high port nothing is listening on right now. The
# worker ring needs every peer URL before any worker can bind, so ports
# must be chosen up front; a lost race shows up as a dead worker and the
# whole bring-up retries with fresh ports.
free_port() {
    while :; do
        local p=$((RANDOM % 20000 + 20000))
        if ! (exec 3<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null; then
            echo "$p"
            return
        fi
        exec 3>&- 2>/dev/null || true
    done
}

start_workers() {
    local peers=""
    for i in 0 1 2; do
        PORT[$i]=$(free_port)
        PEER[$i]="http://127.0.0.1:${PORT[$i]}"
        peers="${peers:+$peers,}${PEER[$i]}"
    done
    for i in 0 1 2; do
        WLOG[$i]=$(mktemp)
        WDATA[$i]=$(mktemp -d)
        "$BIN" -addr "127.0.0.1:${PORT[$i]}" -workers 2 -default-timeout 30s \
            -data-dir "${WDATA[$i]}" -wal-sync always -retain-epochs 4 \
            -cluster-peers "$peers" -cluster-self "${PEER[$i]}" \
            -replication 3 -max-replica-lag=-1ns >"${WLOG[$i]}" 2>&1 &
        WPID[$i]=$!
    done
    for i in 0 1 2; do
        if ! wait_until 50 grep -q 'listening on' "${WLOG[$i]}"; then
            # Likely a lost port race: tear down and let the caller retry.
            for p in "${WPID[@]}"; do kill -9 "$p" 2>/dev/null || true; done
            wait 2>/dev/null || true
            return 1
        fi
    done
    CLUSTER_PEERS="$peers"
}

started=""
for attempt in 1 2 3 4 5; do
    if start_workers; then started=yes; break; fi
    echo "cluster_smoke: bring-up attempt $attempt lost a port race, retrying" >&2
done
[ -n "$started" ] || fail "could not bring up 3 workers in 5 attempts"

CLOG=$(mktemp)
"$BIN" -coordinator -addr 127.0.0.1:0 -cluster-peers "$CLUSTER_PEERS" \
    -replication 3 -probe-interval 100ms >"$CLOG" 2>&1 &
CPID=$!
wait_until 50 grep -q 'coordinator listening on' "$CLOG" || fail "coordinator never listened"
CBASE="http://$(sed -n 's/.*coordinator listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$CLOG" | head -n1)"

ready_check() { curl -fs "$CBASE/readyz" | grep -q '"workers_ready":3'; }
wait_until 100 ready_check || fail "coordinator never saw 3 ready workers"

# Ownership is a pure ring computation; ask the coordinator where the
# smoke graph lives and find a worker that is NOT its owner.
PLACE=$(curl -fs "$CBASE/cluster?name=smoke")
OWNER=$(echo "$PLACE" | sed -n 's/.*"owner":"\([^"]*\)".*/\1/p')
[ -n "$OWNER" ] || fail "/cluster?name=smoke returned no owner: $PLACE"
OWNER_IDX="" NONOWNER=""
for i in 0 1 2; do
    if [ "${PEER[$i]}" = "$OWNER" ]; then OWNER_IDX=$i; else NONOWNER="${PEER[$i]}"; fi
done
[ -n "$OWNER_IDX" ] || fail "owner $OWNER is not one of the workers"

# Upload through the coordinator: the routing header must name the owner.
HDRS=$(echo "$K33" | curl -fs -D - -o /dev/null -XPUT --data-binary @- "$CBASE/graphs/smoke" | tr -d '\r')
echo "$HDRS" | grep -q "^X-Mbb-Worker: $OWNER$" ||
    fail "upload was not routed to the shard owner $OWNER: $(echo "$HDRS" | grep -i x-mbb)"

# Mutation through the coordinator bumps the owner's epoch; the record
# must land on the owner's WAL (upload + delta = 2 appends).
MUT=$(curl -fs -XDELETE "$CBASE/graphs/smoke/edges" -d '{"edges":[[2,0],[2,1],[2,2]]}')
echo "$MUT" | grep -q '"epoch":1' || fail "mutation did not bump epoch: $MUT"
APPENDS=$(curl -fs "$OWNER/metrics" | sed -n 's/^mbbserved_wal_appends_total \([0-9]*\)$/\1/p')
[ "${APPENDS:-0}" -ge 2 ] || fail "owner WAL shows $APPENDS appends, want >= 2"

# A mutation aimed straight at a non-owner is refused, naming the owner.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -XPOST "$NONOWNER/graphs/smoke/edges" -d '{"del":[[0,0]]}')
[ "$CODE" = "421" ] || fail "non-owner mutation returned $CODE, want 421"

# Replicas converge on the owner's epoch through the delta stream, and
# the replicated-apply counter moves on a non-owner.
for i in 0 1 2; do
    converged() { curl -fs "${PEER[$i]}/graphs/smoke" | grep -q '"epoch":1'; }
    wait_until 100 converged || fail "worker $i never converged to epoch 1"
done
APPLIED=$(curl -fs "$NONOWNER/metrics" | sed -n 's/^mbbserved_replication_applied_total \([0-9]*\)$/\1/p')
[ "${APPLIED:-0}" -ge 2 ] || fail "replica applied $APPLIED replicated records, want >= 2"

# Per-epoch exactness across the cluster: every worker answers the same
# (size, exact, epoch) for the current epoch AND for ?epoch=0 — replicas
# retain the same history the owner does.
solve_triple() { # url query
    local out
    out=$(curl -fs -XPOST "$1/graphs/smoke/solve$2" -d '{"timeout":"30s"}') || return 1
    echo "$out" | sed -n 's/.*"size":\([0-9]*\).*"exact":\(true\|false\).*"epoch":\([0-9]*\).*/size=\1 exact=\2 epoch=\3/p'
}
for q in "" "?epoch=0" "?epoch=1"; do
    WANT=""
    for i in 0 1 2; do
        GOT=$(solve_triple "${PEER[$i]}" "$q") || fail "solve$q failed on worker $i"
        [ -n "$GOT" ] || fail "solve$q on worker $i returned no parsable result"
        if [ -z "$WANT" ]; then WANT="$GOT"; else
            [ "$GOT" = "$WANT" ] || fail "solve$q disagreement: worker $i says '$GOT', first said '$WANT'"
        fi
    done
    echo "cluster_smoke: solve$q agrees on all workers: $WANT"
done
solve_triple "${PEER[0]}" "?epoch=0" | grep -q 'size=3 exact=true epoch=0' || fail "epoch-0 optimum wrong"
solve_triple "${PEER[0]}" "" | grep -q 'size=2 exact=true epoch=1' || fail "current-epoch optimum wrong"

# Per-epoch top-k agreement: re-adding only edge (2,2) gives a graph
# with maximal bicliques at two distinct balanced sizes (2 and 1) at
# epoch 2. After the replicas converge, every worker must answer the
# same ?k=2 list for the same epoch — sizes descending, head equal to
# the scalar answer.
MUT=$(curl -fs -XPOST "$CBASE/graphs/smoke/edges" -d '{"add":[[2,2]]}')
echo "$MUT" | grep -q '"epoch":2' || fail "top-k mutation did not bump epoch: $MUT"
for i in 0 1 2; do
    converged2() { curl -fs "${PEER[$i]}/graphs/smoke" | grep -q '"epoch":2'; }
    wait_until 100 converged2 || fail "worker $i never converged to epoch 2"
done
topk_answer() { # url
    local out
    out=$(curl -fs -XPOST "$1/graphs/smoke/solve?k=2" -d '{"timeout":"30s"}') || return 1
    echo "$out" | grep -q '"epoch":2' || return 1
    echo "$out" | grep -o '"size":[0-9]*' | tr '\n' ' '
}
WANT=""
for i in 0 1 2; do
    GOT=$(topk_answer "${PEER[$i]}") || fail "top-k solve failed on worker $i"
    if [ -z "$WANT" ]; then WANT="$GOT"; else
        [ "$GOT" = "$WANT" ] || fail "top-k disagreement: worker $i says '$GOT', first said '$WANT'"
    fi
done
echo "cluster_smoke: per-epoch top-k agrees on all workers: $WANT"
echo "$WANT" | grep -q '"size":2 "size":2 "size":1' ||
    fail "top-k sizes wrong (want scalar 2, list [2 1]): $WANT"

# Kill the owner outright (no drain). Reads must keep serving through
# the replicas; mutations to its shard must back off with Retry-After.
kill -9 "${WPID[$OWNER_IDX]}" 2>/dev/null || true
wait "${WPID[$OWNER_IDX]}" 2>/dev/null || true
WPID[$OWNER_IDX]=""

failover_solve() {
    local h
    h=$(curl -s -D - -o /dev/null -XPOST "$CBASE/graphs/smoke/solve" -d '{"timeout":"30s"}' | tr -d '\r')
    echo "$h" | head -n1 | grep -q ' 200 ' && ! echo "$h" | grep -q "^X-Mbb-Worker: $OWNER$"
}
wait_until 100 failover_solve || fail "solves did not keep serving through replicas after owner death"

MHDRS=$(curl -s -D - -o /dev/null -XPOST "$CBASE/graphs/smoke/edges" -d '{"del":[[0,0]]}' | tr -d '\r')
echo "$MHDRS" | head -n1 | grep -q ' 503 ' ||
    fail "mutation with dead owner did not 503: $(echo "$MHDRS" | head -n1)"
echo "$MHDRS" | grep -qi '^Retry-After:' || fail "dead-owner 503 lacks Retry-After"
curl -fs "$CBASE/readyz" >/dev/null || fail "coordinator went unready with one dead worker"

# Graceful shutdown: the survivors and the coordinator drain to exit 0.
for i in 0 1 2; do
    [ -n "${WPID[$i]}" ] && kill -TERM "${WPID[$i]}"
done
kill -TERM "$CPID"
for i in 0 1 2; do
    [ -n "${WPID[$i]}" ] || continue
    wait "${WPID[$i]}" || fail "worker $i exited non-zero after SIGTERM"
    WPID[$i]=""
done
wait "$CPID" || fail "coordinator exited non-zero after SIGTERM"
CPID=""
trap - EXIT

echo "cluster_smoke: OK"
