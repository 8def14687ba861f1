#!/usr/bin/env bash
# CI gate for the PVC reproduction. Hermetic by construction: every
# cargo invocation runs --offline (the workspace has no registry
# dependencies), so this passes on a machine with no network at all.
#
#   ./ci.sh          # full gate: build, tests, clippy, conformance
#
set -euo pipefail
cd "$(dirname "$0")"

# Echoes each command to stderr, so `run CMD > FILE` leaves only the
# command's own output in FILE.
run() {
  echo "==> $*" >&2
  "$@"
}

# The `reproduce` binary gate 1 builds; every later gate runs it.
reproduce="${CARGO_TARGET_DIR:-target}/release/reproduce"

# 1. Release build of every crate, example and bench target.
run cargo build --offline --release --workspace --examples --benches

# 2. The full test suite (unit + property + integration + doc tests).
run cargo test --offline --workspace -q

# 3. Lints are errors.
run cargo clippy --offline --workspace --all-targets -- -D warnings

# 4. Golden conformance: every printed cell of Tables II, III and VI
#    and the four non-table facts reproduced within their bounds
#    (exits nonzero on any failing check), then the same verdict as
#    the one-line `validate` gate.
run "$reproduce" conformance > /dev/null
run "$reproduce" validate

# 5. The cheap examples really run.
run cargo run --offline --release --example quickstart > /dev/null
run cargo run --offline --release --example device_query > /dev/null

# 6. Observability: a profile run emits parseable, non-empty, and
#    byte-reproducible Chrome-trace JSON (the binary itself validates
#    the JSON parses and traceEvents is non-empty before writing), and
#    Cloverleaf's printed summary is byte-reproducible too.
profile_dir="$(mktemp -d)"
trap 'rm -rf "$profile_dir"' EXIT
run "$reproduce" profile pcie-h2d "$profile_dir/a.json" > /dev/null
run "$reproduce" profile pcie-h2d "$profile_dir/b.json" > /dev/null
test -s "$profile_dir/a.json"
run cmp "$profile_dir/a.json" "$profile_dir/b.json"
run "$reproduce" profile cloverleaf "$profile_dir/c.json" > "$profile_dir/c.out"
run "$reproduce" profile cloverleaf "$profile_dir/c.json" > "$profile_dir/d.out"
test -s "$profile_dir/c.out"
run cmp "$profile_dir/c.out" "$profile_dir/d.out"

# 7. Serving: one-shot queries over three canned requests are
#    byte-deterministic across processes, the warm round is served from
#    the cache, a saturated queue sheds with a typed Overloaded
#    rejection instead of panicking or blocking, and the served `chaos`
#    and `validate` verbs are byte-deterministic too.
serve_dir="$(mktemp -d)"
trap 'rm -rf "$profile_dir" "$serve_dir"' EXIT
printf '{"kind":"table","id":2}' > "$serve_dir/r1.json"
printf '{"kind":"figure","id":3}' > "$serve_dir/r2.json"
printf '{"kind":"pcie","system":"aurora","modes":["h2d","d2h"]}' > "$serve_dir/r3.json"
run "$reproduce" query "$serve_dir/r1.json" "$serve_dir/r2.json" "$serve_dir/r3.json" \
  > "$serve_dir/a.out" 2> /dev/null
run "$reproduce" query "$serve_dir/r1.json" "$serve_dir/r2.json" "$serve_dir/r3.json" \
  > "$serve_dir/b.out" 2> /dev/null
test -s "$serve_dir/a.out"
run cmp "$serve_dir/a.out" "$serve_dir/b.out"
# Warm round: all three answered from the cache (hit counter == 3).
"$reproduce" query --rounds 2 --stats "$serve_dir/r1.json" "$serve_dir/r2.json" "$serve_dir/r3.json" \
  > /dev/null 2> "$serve_dir/stats.txt"
run grep -q 'counter serve.cache.hit = 3' "$serve_dir/stats.txt"
# Overload: queue depth 1 with three distinct requests sheds two, exits 3.
set +e
"$reproduce" query --queue-depth 1 "$serve_dir/r1.json" "$serve_dir/r2.json" "$serve_dir/r3.json" \
  > "$serve_dir/overload.out" 2> /dev/null
overload_rc=$?
set -e
test "$overload_rc" -eq 3
run grep -q '"kind": "overloaded"' "$serve_dir/overload.out"
# The served verbs: the `chaos` delta report and `validate` print the
# same bytes from two fresh processes.
run "$reproduce" chaos allreduce aurora xelink:0:0.3 > "$serve_dir/delta-a.out"
run "$reproduce" chaos allreduce aurora xelink:0:0.3 > "$serve_dir/delta-b.out"
run cmp "$serve_dir/delta-a.out" "$serve_dir/delta-b.out"
run grep -q 'delta:' "$serve_dir/delta-a.out"
"$reproduce" validate > "$serve_dir/validate-a.out"
"$reproduce" validate > "$serve_dir/validate-b.out"
test -s "$serve_dir/validate-a.out"
run cmp "$serve_dir/validate-a.out" "$serve_dir/validate-b.out"

# 8. Scenario registry: `reproduce list` enumerates the full grid (61
#    standard pairs + the figure pipeline on both PVC systems = 63) with
#    typed units, and `reproduce run` is byte-deterministic.
run "$reproduce" list > "$serve_dir/list.out"
run grep -q '^63 scenarios registered$' "$serve_dir/list.out"
run grep -q 'stream-triad@aurora' "$serve_dir/list.out"
run grep -q 'GB/s' "$serve_dir/list.out"
run "$reproduce" run stream-triad aurora > "$serve_dir/run-a.out"
run "$reproduce" run stream-triad aurora > "$serve_dir/run-b.out"
test -s "$serve_dir/run-a.out"
run cmp "$serve_dir/run-a.out" "$serve_dir/run-b.out"

# 9. Bench smoke: the serving bench runs end to end at minimal sample
#    count and writes a trajectory file the workspace's own JSON parser
#    accepts (write_json self-validates by round-tripping through
#    pvc_core::json before writing; an unparseable file never lands).
run env PVC_BENCH_SAMPLES=2 cargo bench --offline -p pvc-bench --bench serve \
  -- --json "$serve_dir/BENCH_serve.json" > /dev/null
test -s "$serve_dir/BENCH_serve.json"
run grep -q '"schema": "pvc-bench/v1"' "$serve_dir/BENCH_serve.json"
run grep -q '"name": "serve/table2_cold_miss"' "$serve_dir/BENCH_serve.json"
run grep -q '"name": "serve/warm_from_disk"' "$serve_dir/BENCH_serve.json"
run grep -q '"name": "serve/experiments_from_disk"' "$serve_dir/BENCH_serve.json"
run grep -q '"name": "serve/profile_cloverleaf_cold"' "$serve_dir/BENCH_serve.json"
run grep -q '"name": "serve/allocate_1k_flows"' "$serve_dir/BENCH_serve.json"

# 10. Chaos lab: the property suite proves fault overlays never improve
#     a figure of merit (direction-aware, composition included), and the
#     degraded query path is byte-deterministic end to end — the same
#     chaos request served by two fresh processes produces identical
#     bytes (gate 7 does the same for the `reproduce chaos` report).
run cargo test --offline --release -q --test chaos_properties
printf '{"kind":"run","workload":"stream-triad","system":"aurora","chaos":"hbm:0.5"}' \
  > "$serve_dir/chaos.json"
run "$reproduce" query "$serve_dir/chaos.json" > "$serve_dir/chaos-a.out" 2> /dev/null
run "$reproduce" query "$serve_dir/chaos.json" > "$serve_dir/chaos-b.out" 2> /dev/null
test -s "$serve_dir/chaos-a.out"
run cmp "$serve_dir/chaos-a.out" "$serve_dir/chaos-b.out"
run grep -q '"chaos": "hbm:0.5"' "$serve_dir/chaos-a.out"

# 11. Telemetry: a serve session answers the reserved `stats` kind with
#     the live registry, the structured access log and the stats
#     rendering are byte-deterministic across fresh processes, and
#     `reproduce stats` re-renders the same registry as Prometheus
#     exposition text with `serve.requests` matching the batch size.
printf '[{"kind":"table","id":2},{"kind":"figure","id":3},{"kind":"pcie","system":"aurora","modes":["h2d","d2h"]}]\n{"kind":"stats"}\n' \
  > "$serve_dir/session.txt"
"$reproduce" serve --access-log "$serve_dir/tele-a.log" \
  < "$serve_dir/session.txt" > "$serve_dir/tele-a.out" 2> /dev/null
"$reproduce" serve --access-log "$serve_dir/tele-b.log" \
  < "$serve_dir/session.txt" > "$serve_dir/tele-b.out" 2> /dev/null
test -s "$serve_dir/tele-a.out"
test -s "$serve_dir/tele-a.log"
run cmp "$serve_dir/tele-a.out" "$serve_dir/tele-b.out"
run cmp "$serve_dir/tele-a.log" "$serve_dir/tele-b.log"
# The live stats body counts the whole session (3 batched + stats = 4).
run grep -q '"serve.requests":4' "$serve_dir/tele-a.out"
run grep -q '"outcome":"stats"' "$serve_dir/tele-a.log"
run grep -q '"outcome":"miss"' "$serve_dir/tele-a.log"
# Offline rendering: canned batch (4 requests), double-run identical.
"$reproduce" stats > "$serve_dir/stats-a.out" 2> /dev/null
"$reproduce" stats > "$serve_dir/stats-b.out" 2> /dev/null
test -s "$serve_dir/stats-a.out"
run cmp "$serve_dir/stats-a.out" "$serve_dir/stats-b.out"
run grep -q '^serve_requests 4$' "$serve_dir/stats-a.out"
run grep -q 'serve_cost_run_bucket{le="+Inf"} 1' "$serve_dir/stats-a.out"
run grep -q '^simrt_flow_runs ' "$serve_dir/stats-a.out"
run grep -q '^serve.cost.table ' "$serve_dir/stats-a.out"

# 12. Persistent store: `reproduce warm` precomputes the full catalog
#     grid into a content-addressed segment file. Two warm runs from
#     scratch produce byte-identical stores; a warmed store answers the
#     whole corpus (and the canned request batch, chaos included) with
#     zero cold computes; and perturbing the build fingerprint via the
#     salt hook invalidates the store instead of serving stale bytes.
store_dir="$(mktemp -d)"
trap 'rm -rf "$profile_dir" "$serve_dir" "$store_dir"' EXIT
run "$reproduce" warm --store "$store_dir/a.store" > /dev/null 2>&1
run "$reproduce" warm --store "$store_dir/b.store" > /dev/null 2>&1
test -s "$store_dir/a.store"
run cmp "$store_dir/a.store" "$store_dir/b.store"
# Verify round: every corpus request is a store hit, zero cold computes
# (the verb exits 1 unless serve.cache.hit == corpus and cache.miss == 0).
run "$reproduce" warm --store "$store_dir/a.store" --verify > "$store_dir/verify.out" 2>&1
run grep -q 'verify ok' "$store_dir/verify.out"
# A fresh process replaying the canned batch (chaos request included)
# against the warmed store serves everything from disk: 4 hits,
# no cache misses, and the bytes equal the computed run from gate 7.
"$reproduce" query --stats --store "$store_dir/a.store" \
  "$serve_dir/r1.json" "$serve_dir/r2.json" "$serve_dir/r3.json" "$serve_dir/chaos.json" \
  > "$store_dir/warmq.out" 2> "$store_dir/warmq.stats"
run grep -q 'counter serve.cache.hit = 4' "$store_dir/warmq.stats"
if grep -q 'counter serve.cache.miss' "$store_dir/warmq.stats"; then
  echo "ci: warmed store still computed cold" >&2; exit 1
fi
"$reproduce" \
  query "$serve_dir/r1.json" "$serve_dir/r2.json" "$serve_dir/r3.json" "$serve_dir/chaos.json" \
  > "$store_dir/coldq.out" 2> /dev/null
run cmp "$store_dir/warmq.out" "$store_dir/coldq.out"
# Fingerprint invalidation: under a perturbed salt the same store file
# opens as stale and rewarms from scratch (on a copy, exercised end to
# end by the verb's own output).
cp "$store_dir/a.store" "$store_dir/salted.store"
run env PVC_STORE_FINGERPRINT_SALT=ci-model-change "$reproduce" \
  warm --store "$store_dir/salted.store" > "$store_dir/salted.out" 2>&1
run grep -q 'fingerprint mismatch, store reset' "$store_dir/salted.out"

# 13. HTTP frontend: `serve --http` boots a keep-alive HTTP/1.1
#     server. The canned batch POSTed twice over ONE connection answers
#     byte-identically to the stdin frontend; /metrics exposes the
#     `serve.*` counters; /trace answers gate 6's `profile pcie-h2d`
#     file and /run with `Accept: text/plain` gate 8's `reproduce run`
#     stdout, byte for byte; a queue-depth-1 server sheds (three distinct
#     keys on one slot shed two) with a typed body and counter; and a
#     POST to /shutdown stops the accept loop gracefully (exit 0).
http_dir="$(mktemp -d)"
http_pid=""
cleanup() {
  if [ -n "$http_pid" ]; then kill "$http_pid" 2> /dev/null || true; fi
  rm -rf "$profile_dir" "$serve_dir" "$store_dir" "$http_dir"
}
trap cleanup EXIT
printf '[{"kind":"table","id":2},{"kind":"figure","id":3},{"kind":"pcie","system":"aurora","modes":["h2d","d2h"]}]' \
  > "$http_dir/batch.json"
# Reference bytes: the same batch line through the stdin frontend.
{ cat "$http_dir/batch.json"; echo; } | "$reproduce" serve > "$http_dir/stdin.out" 2> /dev/null
boot_http() {  # boot_http <logfile> <extra flags...>; sets http_pid and http_addr
  local log="$1"; shift
  "$reproduce" serve --http 127.0.0.1:0 "$@" 2> "$log" &
  http_pid=$!
  for _ in $(seq 1 100); do
    grep -q 'serving http on ' "$log" && break
    sleep 0.1
  done
  http_addr="$(sed -n 's/.*serving http on //p' "$log" | head -n 1)"
  test -n "$http_addr"
}
boot_http "$http_dir/http.log"
# One curl process, one keep-alive connection, six requests on it.
run curl -sS -o "$http_dir/q1.out" --data-binary "@$http_dir/batch.json" "http://$http_addr/query" \
  --next -o "$http_dir/q2.out" --data-binary "@$http_dir/batch.json" "http://$http_addr/query" \
  --next -o "$http_dir/metrics.out" "http://$http_addr/metrics" \
  --next -o "$http_dir/trace.json" "http://$http_addr/trace/pcie-h2d/aurora" \
  --next -o "$http_dir/run.txt" -H 'Accept: text/plain' "http://$http_addr/run/stream-triad/aurora" \
  --next -o /dev/null -X POST "http://$http_addr/shutdown"
run cmp "$http_dir/q1.out" "$http_dir/q2.out"
run cmp "$http_dir/q1.out" "$http_dir/stdin.out"
run grep -q '^serve_requests ' "$http_dir/metrics.out"
run cmp "$http_dir/trace.json" "$profile_dir/a.json"
run cmp "$http_dir/run.txt" "$serve_dir/run-a.out"
wait "$http_pid"   # /shutdown exits the accept loop with status 0
http_pid=""
# Overload: a single-slot queue admits one of the three keys and sheds
# the other two, typed in the response body and counted in /metrics.
boot_http "$http_dir/overload.log" --queue-depth 1
run curl -sS -o "$http_dir/shed.out" --data-binary "@$http_dir/batch.json" "http://$http_addr/query" \
  --next -o "$http_dir/shed-metrics.out" "http://$http_addr/metrics" \
  --next -o /dev/null -X POST "http://$http_addr/shutdown"
run grep -q '"kind":"overloaded"' "$http_dir/shed.out"
run grep -q '^serve_rejected_overload 2$' "$http_dir/shed-metrics.out"
wait "$http_pid"
http_pid=""

# 14. Figure 1 is independent of the worker count: the sweep fans out
#     over (line size x footprint) tasks and merges by index, so a
#     sequential run, a default-thread run and an oversubscribed run
#     print the same bytes. `all` serves the same row, and `csv` writes
#     it as `figure1.csv` byte for byte.
fig1_dir="$http_dir/fig1"
mkdir -p "$fig1_dir"
PVC_THREADS=1 "$reproduce" fig1 > "$fig1_dir/t1.csv"
"$reproduce" fig1 > "$fig1_dir/default.csv"
PVC_THREADS=3 "$reproduce" fig1 > "$fig1_dir/t3.csv"
test -s "$fig1_dir/t1.csv"
run cmp "$fig1_dir/t1.csv" "$fig1_dir/default.csv"
run cmp "$fig1_dir/t1.csv" "$fig1_dir/t3.csv"
PVC_THREADS=1 "$reproduce" all > "$fig1_dir/all-t1.txt" 2> /dev/null
PVC_THREADS=3 "$reproduce" all > "$fig1_dir/all-t3.txt" 2> /dev/null
test -s "$fig1_dir/all-t1.txt"
run cmp "$fig1_dir/all-t1.txt" "$fig1_dir/all-t3.txt"
"$reproduce" csv "$fig1_dir/csv" > /dev/null
run cmp "$fig1_dir/csv/figure1.csv" "$fig1_dir/t1.csv"

echo "ci: all gates green"
