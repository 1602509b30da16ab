#!/usr/bin/env bash
# End-to-end smoke test for the tuning service: builds nothing itself —
# pass the hetserved binary as $1 (default ./hetserved). Starts the
# server, submits one tune job and one batch (alpha sweep) with curl,
# polls everything to completion, asserts the cached re-POST is a
# bit-identical store hit, and shuts the server down gracefully. With
# the hetopt binary as the optional $2, it also asserts that the CLI
# suggests exactly the served distribution for a SAML and an EM request.
#
# Local use:
#   go build -o hetserved ./cmd/hetserved && go build -o hetopt ./cmd/hetopt &&
#     scripts/e2e_smoke.sh ./hetserved ./hetopt
#
# Requires curl and jq.
set -euo pipefail

BIN=${1:-./hetserved}
CLI=${2:-}
ADDR=127.0.0.1:18080
BASE="http://$ADDR/v1"

command -v jq >/dev/null || { echo "e2e: jq is required" >&2; exit 1; }
command -v curl >/dev/null || { echo "e2e: curl is required" >&2; exit 1; }
[ -x "$BIN" ] || { echo "e2e: $BIN is not executable" >&2; exit 1; }
[ -z "$CLI" ] || [ -x "$CLI" ] || { echo "e2e: $CLI is not executable" >&2; exit 1; }

"$BIN" -addr "$ADDR" -workers 2 -queue 16 -cache-size 64 &
SERVER_PID=$!
cleanup() { kill "$SERVER_PID" 2>/dev/null || true; }
trap cleanup EXIT

# Liveness: wait for /v1/healthz.
for i in $(seq 1 100); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  [ "$i" = 100 ] && { echo "e2e: server never became healthy" >&2; exit 1; }
  sleep 0.1
done

# poll JOB_ID -> prints the final status JSON, fails on job failure.
poll() {
  local id=$1 st state
  for i in $(seq 1 600); do
    st=$(curl -fsS "$BASE/jobs/$id")
    state=$(echo "$st" | jq -r .state)
    case "$state" in
      done) echo "$st"; return 0 ;;
      failed) echo "e2e: job $id failed: $st" >&2; return 1 ;;
    esac
    sleep 0.1
  done
  echo "e2e: job $id never completed" >&2
  return 1
}

REQ='{"genome":"human","method":"sam","iterations":300,"seed":7}'

echo "e2e: submitting one tune job"
first=$(curl -fsS -X POST "$BASE/jobs" -d "$REQ")
id1=$(echo "$first" | jq -r .id)
st1=$(poll "$id1")
[ "$(echo "$st1" | jq -r .cached)" = "false" ] \
  || { echo "e2e: first job unexpectedly marked cached: $st1" >&2; exit 1; }

echo "e2e: submitting a batch alpha sweep"
batch=$(curl -fsS -X POST "$BASE/jobs:batch" \
  -d '{"template":{"method":"sam","iterations":200,"seed":3},"alphas":[0,0.5,1]}')
count=$(echo "$batch" | jq '.jobs | length')
[ "$count" = 3 ] || { echo "e2e: batch accepted $count jobs, want 3" >&2; exit 1; }
for id in $(echo "$batch" | jq -r '.jobs[].id'); do
  poll "$id" >/dev/null
done

echo "e2e: re-POSTing the first request (must be an inline store hit, no poll)"
second=$(curl -fsS -X POST "$BASE/jobs" -d "$REQ")
[ "$(echo "$second" | jq -r .state)" = "done" ] \
  || { echo "e2e: cached re-POST not answered synchronously: $second" >&2; exit 1; }
[ "$(echo "$second" | jq -r .cached)" = "true" ] \
  || { echo "e2e: re-POST was not served from the store: $second" >&2; exit 1; }
[ "$(echo "$second" | jq -r .id)" = "null" ] \
  || { echo "e2e: warm re-POST registered a job (id present) instead of answering inline: $second" >&2; exit 1; }

r1=$(echo "$st1" | jq -cS .result)
r2=$(echo "$second" | jq -cS .result)
[ "$r1" = "$r2" ] \
  || { echo "e2e: identical requests returned different results:" >&2; echo "$r1" >&2; echo "$r2" >&2; exit 1; }

echo "e2e: re-POSTing again (warm hits are served stored bytes, byte-identical)"
third=$(curl -fsS -X POST "$BASE/jobs" -d "$REQ")
[ "$second" = "$third" ] \
  || { echo "e2e: two warm re-POSTs returned different bodies:" >&2; echo "$second" >&2; echo "$third" >&2; exit 1; }

echo "e2e: submitting a cold job with ?wait=1 (inline completion)"
wjob=$(curl -fsS -X POST "$BASE/jobs?wait=1" \
  -d '{"genome":"human","method":"sam","iterations":120,"seed":21}')
[ "$(echo "$wjob" | jq -r .state)" = "done" ] \
  || { echo "e2e: wait=1 POST not answered with a terminal state: $wjob" >&2; exit 1; }
[ "$(echo "$wjob" | jq -r .id)" != "null" ] \
  || { echo "e2e: wait=1 cold job was not registered: $wjob" >&2; exit 1; }

metrics=$(curl -fsS "$BASE/metrics")
hits=$(echo "$metrics" | jq .jobs.store_hits)
[ "$hits" -ge 2 ] || { echo "e2e: metrics report $hits store hits, want >= 2" >&2; exit 1; }
warm=$(echo "$metrics" | jq .latency.warm.count)
[ "$warm" -ge 2 ] || { echo "e2e: metrics report $warm warm-hit requests, want >= 2" >&2; exit 1; }

echo "e2e: discovering the scenario catalog"
scen=$(curl -fsS "$BASE/scenarios")
echo "$scen" | jq -e '.workloads | map(.name) | index("spmv")' >/dev/null \
  || { echo "e2e: /v1/scenarios does not list spmv: $scen" >&2; exit 1; }
echo "$scen" | jq -e '.platforms | map(.name) | index("gpu-like")' >/dev/null \
  || { echo "e2e: /v1/scenarios does not list gpu-like: $scen" >&2; exit 1; }

echo "e2e: tuning a non-default scenario (spmv on gpu-like)"
sjob=$(curl -fsS -X POST "$BASE/jobs" \
  -d '{"workload":"spmv","platform":"gpu-like","method":"sam","iterations":150,"seed":5}')
sid=$(echo "$sjob" | jq -r .id)
sres=$(poll "$sid")
[ "$(echo "$sres" | jq -r .request.workload)" = "spmv:medium" ] \
  || { echo "e2e: scenario workload not canonicalized: $sres" >&2; exit 1; }
[ "$(echo "$sres" | jq -r .request.platform)" = "gpu-like" ] \
  || { echo "e2e: scenario platform lost: $sres" >&2; exit 1; }

echo "e2e: discovering the task-graph presets"
echo "$scen" | jq -e '.workloads | map(select(.class == "dag")) | map(.name) | index("dag")' >/dev/null \
  || { echo "e2e: /v1/scenarios does not list the dag family: $scen" >&2; exit 1; }
for preset in resnet-ish fork-join sparse-solver; do
  echo "$scen" | jq -e --arg p "$preset" \
    '.workloads[] | select(.name == "dag") | .presets | map(.name) | index($p)' >/dev/null \
    || { echo "e2e: /v1/scenarios does not list dag preset $preset: $scen" >&2; exit 1; }
done

echo "e2e: tuning a task-graph placement (dag:resnet-ish on gpu-like)"
DAGREQ='{"workload":"dag:resnet-ish","platform":"gpu-like","method":"em","seed":11}'
djob=$(curl -fsS -X POST "$BASE/jobs" -d "$DAGREQ")
did=$(echo "$djob" | jq -r .id)
dres=$(poll "$did")
[ "$(echo "$dres" | jq -r .request.workload)" = "dag:resnet-ish" ] \
  || { echo "e2e: dag workload not canonicalized: $dres" >&2; exit 1; }
[ "$(echo "$dres" | jq -r .result.placement.encoded | wc -c)" -gt 1 ] \
  || { echo "e2e: dag result has no encoded placement: $dres" >&2; exit 1; }
dspeed=$(echo "$dres" | jq -r .result.placement.speedup_vs_host)
ok=$(awk -v s="$dspeed" 'BEGIN { print (s + 0 > 1.0) ? "yes" : "no" }')
[ "$ok" = "yes" ] \
  || { echo "e2e: dag placement speedup_vs_host=$dspeed, want > 1.0" >&2; exit 1; }

echo "e2e: re-POSTing the dag request (must be a bit-identical store hit)"
dsecond=$(curl -fsS -X POST "$BASE/jobs" -d "$DAGREQ")
[ "$(echo "$dsecond" | jq -r .cached)" = "true" ] \
  || { echo "e2e: dag re-POST was not served from the store: $dsecond" >&2; exit 1; }
d1=$(echo "$dres" | jq -cS .result)
d2=$(echo "$dsecond" | jq -cS .result)
[ "$d1" = "$d2" ] \
  || { echo "e2e: identical dag requests returned different results:" >&2; echo "$d1" >&2; echo "$d2" >&2; exit 1; }

if [ -n "$CLI" ]; then
  for method in saml em; do
    echo "e2e: hetopt -method $method suggests the served distribution"
    served=$(curl -fsS -X POST "$BASE/jobs?wait=1" \
      -d "{\"genome\":\"cat\",\"method\":\"$method\",\"iterations\":200,\"seed\":5}" | jq -r .result.distribution)
    out=$("$CLI" -genome cat -method "$method" -iterations 200 -seed 5)
    cli=$(echo "$out" | sed -n 's/^[A-Z]* *suggested: //p')
    [ -n "$served" ] && [ "$cli" = "$served" ] \
      || { echo "e2e: hetopt suggests '$cli', the service '$served'" >&2; exit 1; }
  done
fi

echo "e2e: graceful shutdown (SIGTERM)"
kill -TERM "$SERVER_PID"
if ! wait "$SERVER_PID"; then
  echo "e2e: server exited non-zero on SIGTERM" >&2
  exit 1
fi
trap - EXIT

echo "e2e: ok (1 job + 3 batch jobs + 1 scenario job + 1 dag placement + 1 wait=1 job tuned, inline warm hits byte-identical, clean shutdown)"
