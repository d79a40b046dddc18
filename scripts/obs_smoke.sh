#!/usr/bin/env bash
# obs_smoke.sh — end-to-end observability smoke test.
#
# Spins up both protocol servers as real processes with the admin endpoint
# enabled on S1 and event journaling on everywhere, submits one full query
# through real users, then scrapes /healthz, /metrics and /debug/traces and
# asserts the protocol's counter families are exposed with live values.
# Finally it verifies every journal's hash chain with cmd/trace and merges
# them into one cross-process timeline.
#
# Every listener binds port 0 and the chosen addresses are parsed from the
# server logs, so the script cannot collide with other processes (or a
# concurrent copy of itself). On failure it prints the chosen addresses and
# the server logs.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
s1_pid=""
s2_pid=""
S1_ADDR="(unbound)"
S2_ADDR="(unbound)"
METRICS_ADDR="(unbound)"
cleanup() {
    [ -n "$s1_pid" ] && kill "$s1_pid" 2>/dev/null || true
    [ -n "$s2_pid" ] && kill "$s2_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

dump_state() {
    echo "addresses: S1=$S1_ADDR S2=$S2_ADDR metrics=$METRICS_ADDR"
    echo "--- s1.log"; cat "$workdir/s1.log" 2>/dev/null || true
    echo "--- s2.log"; cat "$workdir/s2.log" 2>/dev/null || true
}

# wait_log FILE SED-PATTERN — poll FILE until the \1 capture of SED-PATTERN
# appears (10s budget) and print it.
wait_log() {
    local file=$1 re=$2 out=""
    for _ in $(seq 1 100); do
        out=$(sed -n "s/.*$re.*/\1/p" "$file" 2>/dev/null | head -n 1)
        if [ -n "$out" ]; then
            echo "$out"
            return 0
        fi
        sleep 0.1
    done
    return 1
}

echo "== building binaries"
go build -o "$workdir" ./cmd/keygen ./cmd/server ./cmd/user ./cmd/trace

echo "== generating keys"
"$workdir/keygen" -out "$workdir/keys" -users 2 -classes 4 \
    -threshold 0.5 -sigma1 0 -sigma2 0 >/dev/null

echo "== starting servers (port 0, addresses from logs)"
"$workdir/server" -role s1 -keys "$workdir/keys/s1.json" -listen 127.0.0.1:0 \
    -instances 1 -seed 11 -metrics-addr 127.0.0.1:0 -metrics-linger 60s \
    -journal "$workdir/s1.jsonl" \
    >"$workdir/s1.log" 2>&1 &
s1_pid=$!
if ! S1_ADDR=$(wait_log "$workdir/s1.log" 'S1 listening on \([0-9.]*:[0-9]*\)'); then
    echo "FAIL: S1 never reported its listen address"
    dump_state
    exit 1
fi
if ! METRICS_ADDR=$(wait_log "$workdir/s1.log" 'metrics endpoint on http:\/\/\([0-9.]*:[0-9]*\)\/metrics'); then
    echo "FAIL: S1 never reported its metrics address"
    dump_state
    exit 1
fi

"$workdir/server" -role s2 -keys "$workdir/keys/s2.json" -listen 127.0.0.1:0 \
    -peer "$S1_ADDR" -instances 1 -seed 12 -journal "$workdir/s2.jsonl" \
    >"$workdir/s2.log" 2>&1 &
s2_pid=$!
if ! S2_ADDR=$(wait_log "$workdir/s2.log" 'S2 listening on \([0-9.]*:[0-9]*\)'); then
    echo "FAIL: S2 never reported its listen address"
    dump_state
    exit 1
fi
echo "   S1=$S1_ADDR S2=$S2_ADDR metrics=$METRICS_ADDR"

echo "== submitting votes"
for u in 0 1; do
    "$workdir/user" -keys "$workdir/keys/public.json" -user "$u" \
        -s1 "$S1_ADDR" -s2 "$S2_ADDR" -votes 2 -seed $((20 + u)) \
        -journal "$workdir/user$u.jsonl" >/dev/null
done

# S2 exits when its instance completes; S1's metrics endpoint lingers.
wait "$s2_pid"
s2_pid=""

# Its one query resolved, S1 drains: /healthz answers 503 "draining".
echo "== scraping /healthz"
state=""
for _ in $(seq 1 50); do
    state=$(curl -sS -w ' %{http_code}' "http://$METRICS_ADDR/healthz" 2>/dev/null | tr -d '\n' || true)
    if [ "$state" = "draining 503" ]; then
        break
    fi
    sleep 0.2
done
if [ "$state" != "draining 503" ]; then
    echo "FAIL: /healthz did not report draining with 503 (got: '$state')"
    dump_state
    exit 1
fi

echo "== scraping /metrics"
metrics=$(curl -fsS "http://$METRICS_ADDR/metrics")
fail=0
for family in paillier_encrypt_total paillier_decrypt_total paillier_add_total \
    dgk_comparisons_total dgk_encrypt_total transport_step_bytes_total \
    transport_wire_bytes_total protocol_phase_seconds_bucket deploy_queries_total \
    privconsensus_build_info; do
    if ! grep -q "$family" <<<"$metrics"; then
        echo "FAIL: /metrics missing family $family"
        fail=1
    fi
done
enc=$(awk '/^paillier_encrypt_total/ {print $2; exit}' <<<"$metrics")
if [ -z "$enc" ] || [ "$enc" -le 0 ] 2>/dev/null; then
    echo "FAIL: paillier_encrypt_total not positive (got: '$enc')"
    fail=1
fi
if ! grep -q 'deploy_queries_total{outcome="consensus",role="s1"} 1' <<<"$metrics"; then
    echo "FAIL: deploy_queries_total does not record the consensus query"
    fail=1
fi
# The keys draw no noise (-sigma1 0 -sigma2 0): the query is non-private,
# so with no quota it is admitted and the tenant's ε reads +Inf.
if ! grep -q '^privconsensus_tenant_epsilon{tenant="0"} +Inf$' <<<"$metrics"; then
    echo "FAIL: privconsensus_tenant_epsilon{tenant=\"0\"} does not read +Inf at zero noise (got: '$(grep privconsensus_tenant_epsilon <<<"$metrics")')"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    dump_state
    exit 1
fi

echo "== scraping /debug/traces"
traces=$(curl -fsS "http://$METRICS_ADDR/debug/traces")
if ! grep -q '"total": [1-9]' <<<"$traces"; then
    echo "FAIL: /debug/traces reports no completed query traces"
    echo "$traces"
    dump_state
    exit 1
fi
if ! grep -q '"Spans"' <<<"$traces"; then
    echo "FAIL: /debug/traces carries no phase spans"
    dump_state
    exit 1
fi

# The first signal drains (nothing is left to drain), the second ends the
# metrics linger.
kill "$s1_pid" 2>/dev/null || true
sleep 0.5
kill "$s1_pid" 2>/dev/null || true
wait "$s1_pid" 2>/dev/null || true
s1_pid=""

if ! grep -q 'tenant 0: epsilon +Inf over 1 queries' "$workdir/s1.log"; then
    echo "FAIL: S1's summary does not report tenant 0's ε as +Inf"
    dump_state
    exit 1
fi

echo "== verifying journal hash chains"
if ! "$workdir/trace" -verify "$workdir/s1.jsonl" "$workdir/s2.jsonl" \
    "$workdir/user0.jsonl" "$workdir/user1.jsonl"; then
    echo "FAIL: a journal hash chain did not verify"
    dump_state
    exit 1
fi

echo "== merging journals into one timeline"
merged=$("$workdir/trace" "$workdir/s1.jsonl" "$workdir/s2.jsonl" \
    "$workdir/user0.jsonl" "$workdir/user1.jsonl")
headers=$(grep -c '^== trace ' <<<"$merged" || true)
if [ "$headers" -ne 1 ]; then
    echo "FAIL: merged output has $headers trace timelines, want exactly 1 shared trace"
    echo "$merged"
    dump_state
    exit 1
fi
if ! grep -q -- '-- instance 0' <<<"$merged"; then
    echo "FAIL: merged timeline is missing the instance section"
    echo "$merged"
    dump_state
    exit 1
fi

echo "obs-smoke: PASS"
