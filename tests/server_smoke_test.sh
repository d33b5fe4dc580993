#!/usr/bin/env bash
# ctest-driven end-to-end smoke test for tsexplain_serve in pipe mode
# (registered as `server_smoke`).
#
# Contract under test (see docs/SERVICE.md):
#   - register (inline CSV + csv_path) -> ok with row/bucket counts
#   - list_datasets                    -> contains the registered names
#   - explain                          -> ok, result object, cache_hit
#                                         false cold / true hot
#   - concurrent identical explains    -> all ok, exactly one computation
#                                         (metrics admission.admitted
#                                         counts one per computed key)
#   - open_session/append/explain_session -> session grows, re-explains
#   - error paths: parse_error, unknown_op, not_found, bad_request —
#     all as responses, never as a crash
#   - shutdown op ends the server with exit 0
#   - metrics op scraped before/after the query burst: counters are
#     monotonic, the burst is visible, histogram buckets sum to their
#     count, and the Prometheus rendering carries the same series
#   - trace-enabled explains return spans whose children tile every
#     parent; a cold traced explain at threads 2 grafts exactly the
#     phases the engine ran under engine_run, with its timing_ms values;
#     a traced K variant of it reads the engine's kept variance table and
#     grafts only dp and final_explain
#   - the retired stats op answers unknown_op; state serves its fields
#   - one framer for both transports: a 6 MiB line of valid JSON draws
#     ONE parse_error in pipe mode, the requests after it are answered,
#     and the same byte stream over TCP gets the same response lines
#   - TCP mode (with the overload flags set): a request dribbled
#     byte-by-byte across many tiny writes still parses (recv-boundary
#     handling), a multi-MB garbage line draws ONE structured error and
#     leaves the connection usable, and state exposes admission and
#     tenant occupancy
#   - warm restart: a server run with --cache-save/--session-log-dir is
#     stopped and a NEW process started with --cache-load — the first
#     post-restart query must be a cache hit (byte-identical result), and
#     recover_session must replay the dead process's streaming session
#
# Usage: server_smoke_test.sh /path/to/tsexplain_serve
set -u

SERVE=${1:?usage: server_smoke_test.sh /path/to/tsexplain_serve}
TMPDIR_SMOKE=$(mktemp -d)
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

failures=0
fail() {
  echo "FAIL [$1]: $2" >&2
  failures=$((failures + 1))
}

# A line-per-response lookup: response_for ID FILE -> the line echoing id.
response_for() {
  grep -F "\"id\":$1," "$2"
}

# --- Input fixtures --------------------------------------------------------
CSV="$TMPDIR_SMOKE/sales.csv"
{
  echo "date,region,sales"
  for t in 0 1 2 3 4 5 6 7 8 9; do
    echo "$t,east,$((10 + t))"
    echo "$t,west,$((20 - t))"
  done
} >"$CSV"

REQ="$TMPDIR_SMOKE/requests.ndjson"
EXPLAIN_FIELDS='"dataset":"sales","measure":"sales","explain_by":["region"],"k":2'
{
  echo "{\"op\":\"register\",\"id\":1,\"name\":\"sales\",\"csv_path\":\"$CSV\",\"time_column\":\"date\",\"measures\":[\"sales\"]}"
  echo '{"op":"list_datasets","id":2}'
  # Metrics scrape BEFORE the query burst (compared against id 42 below:
  # counters must be monotonic and must have moved by the burst).
  echo '{"op":"metrics","id":40}'
  echo "{\"op\":\"explain\",\"id\":3,$EXPLAIN_FIELDS}"
  # Identical concurrent explains: single-flight must collapse them.
  for id in 4 5 6 7; do
    echo "{\"op\":\"explain\",\"id\":$id,$EXPLAIN_FIELDS}"
  done
  # Trace-enabled hot query: must carry non-empty spans that partition
  # the root's wall clock.
  echo "{\"op\":\"explain\",\"id\":41,$EXPLAIN_FIELDS,\"trace\":true}"
  # Metrics scrape AFTER the burst, in both export formats.
  echo '{"op":"metrics","id":42}'
  echo '{"op":"metrics","id":43,"format":"prometheus"}'
  # Trace-enabled cold query at two threads, after the barriers above. The
  # engine last ran the tse table, so dist1 misses it: engine_run holds
  # the variance fill too.
  echo '{"op":"explain","id":44,"dataset":"sales","measure":"sales","explain_by":["region"],"k":3,"variance_metric":"dist1","threads":2,"trace":true}'
  # The state barrier orders id 45 after id 44. Only K differs, so id 45
  # reads id 44's variance table: engine_run holds dp and final_explain.
  echo '{"op":"state","id":46}'
  echo '{"op":"explain","id":45,"dataset":"sales","measure":"sales","explain_by":["region"],"k":4,"variance_metric":"dist1","threads":2,"trace":true}'
  echo '{"op":"open_session","id":8,"dataset":"sales","measure":"sales","explain_by":["region"],"k":2}'
  echo '{"op":"append","id":9,"session":1,"label":"zz","rows":[{"dims":["east"],"measures":[30]},{"dims":["west"],"measures":[11]}]}'
  echo '{"op":"explain_session","id":10,"session":1}'
  echo '{"op":"recommend","id":11,"dataset":"sales","measure":"sales"}'
  echo '{"op":"explain","id":12,"dataset":"ghost"}'
  echo '{"op":"bogus","id":13}'
  echo 'this is not json'
  echo '{"op":"append","id":14,"session":1,"label":"bad","rows":[{"dims":["east","oops"],"measures":[1]}]}'
  echo '{"op":"state","id":15}'
  echo '{"op":"metrics","id":17}'
  echo '{"op":"stats","id":18}'
  echo '{"op":"shutdown","id":16}'
} >"$REQ"

OUT="$TMPDIR_SMOKE/responses.ndjson"
if ! "$SERVE" <"$REQ" >"$OUT" 2>"$TMPDIR_SMOKE/serve.err"; then
  fail server_exit "server exited non-zero"
  cat "$TMPDIR_SMOKE/serve.err" >&2
fi

# Every request (25 ids + 1 parse error) got exactly one response line.
lines=$(wc -l <"$OUT")
[ "$lines" -eq 26 ] || fail response_count "expected 26 responses, got $lines"

response_for 1 "$OUT" | grep -q '"ok":true' || fail register "$(response_for 1 "$OUT")"
response_for 1 "$OUT" | grep -q '"time_buckets":10' || fail register_shape "$(response_for 1 "$OUT")"
response_for 2 "$OUT" | grep -q '"name":"sales"' || fail list "$(response_for 2 "$OUT")"
response_for 3 "$OUT" | grep -q '"ok":true' || fail explain "$(response_for 3 "$OUT")"
response_for 3 "$OUT" | grep -q '"result":{' || fail explain_result "$(response_for 3 "$OUT")"
response_for 3 "$OUT" | grep -q '"k":2' || fail explain_k "$(response_for 3 "$OUT")"

# ids 3..7 are identical: all must succeed; the LAST finisher must have
# been served without computing (either a plain hit or coalesced).
for id in 4 5 6 7; do
  response_for $id "$OUT" | grep -q '"ok":true' || fail "explain_$id" "$(response_for $id "$OUT")"
done

response_for 8 "$OUT" | grep -q '"session":1' || fail open_session "$(response_for 8 "$OUT")"
response_for 9 "$OUT" | grep -q '"n":11' || fail append "$(response_for 9 "$OUT")"
response_for 10 "$OUT" | grep -q '"ok":true' || fail explain_session "$(response_for 10 "$OUT")"
response_for 10 "$OUT" | grep -q '"n":11' || fail session_grew "$(response_for 10 "$OUT")"
response_for 11 "$OUT" | grep -q '"dimension":"region"' || fail recommend "$(response_for 11 "$OUT")"
response_for 12 "$OUT" | grep -q '"code":"not_found"' || fail not_found "$(response_for 12 "$OUT")"
response_for 13 "$OUT" | grep -q '"code":"unknown_op"' || fail unknown_op "$(response_for 13 "$OUT")"
grep -q '"code":"parse_error"' "$OUT" || fail parse_error "no parse_error response"
response_for 14 "$OUT" | grep -q '"code":"bad_request"' || fail bad_append "$(response_for 14 "$OUT")"

STATE=$(response_for 15 "$OUT")
echo "$STATE" | grep -q '"open_sessions":1' || fail state_sessions "$STATE"
response_for 18 "$OUT" | grep -q '"code":"unknown_op"' || fail stats_retired "$(response_for 18 "$OUT")"
response_for 16 "$OUT" | grep -q '"op":"shutdown"' || fail shutdown "$(response_for 16 "$OUT")"

# --- Observability: metrics op + per-query trace spans ---------------------
# The before/after scrapes bracket the explain burst: every counter must
# be monotonic, the burst must be visible (cache hits moved, admissions
# recorded, the hot-latency histogram filled), histogram bucket totals
# must equal their count, the Prometheus rendering must carry the same
# counters, and the traced queries' child spans must tile every parent.
python3 - "$OUT" <<'PYEOF' || fail observability "metrics/trace assertions failed (see above)"
import json, sys

by_id = {}
for line in open(sys.argv[1]):
    obj = json.loads(line)
    if isinstance(obj.get("id"), int):
        by_id[obj["id"]] = obj

before = by_id[40]["metrics"]
after = by_id[42]["metrics"]
for name, value in before["counters"].items():
    assert after["counters"][name] >= value, f"counter {name} went backwards"
# Metrics register lazily at first use, so the before scrape may predate
# the cache counters entirely — treat absent as zero.
assert after["counters"]["cache.hits"] > before["counters"].get("cache.hits", 0), \
    "query burst did not move cache.hits"
assert after["counters"]["cache.misses"] >= 1
assert after["counters"]["admission.admitted"] >= 1
hot = after["histograms"]["query.hot_ms"]
assert hot["count"] >= 1, "hot-hit latency histogram is empty"
for name, hist in after["histograms"].items():
    assert sum(b["count"] for b in hist["buckets"]) == hist["count"], \
        f"histogram {name} buckets do not sum to its count"

prom = by_id[43]
assert prom["format"] == "prometheus"
assert "# TYPE tsexplain_cache_hits counter" in prom["text"]
assert "tsexplain_query_hot_ms_bucket{le=" in prom["text"]

# Single-flight proof: 5 identical explains, exactly 1 admitted dataset
# query (+1 for the session explain, +2 for the traced dist1 queries),
# the rest hits or batched onto it. state lists the one dataset.
final = by_id[17]["metrics"]["counters"]
assert final["admission.admitted"] == 4, final
assert [d["name"] for d in by_id[15]["datasets"]] == ["sales"], by_id[15]

# Spans travel with 6 significant digits, hence the relative tolerance.
def tiles(parent_ms, child_sum):
    return abs(child_sum - parent_ms) <= 1e-5 * parent_ms + 1e-9

for traced_id in (41, 44, 45):
    traced = by_id[traced_id]
    spans = traced["trace"]
    assert len(spans) >= 2, f"expected non-empty trace, got {spans}"
    root = spans[0]
    assert root["name"] == "query" and root["parent"] == -1
    assert abs(root["duration_ms"] - traced["latency_ms"]) < 1e-6
    for index, span in enumerate(spans):
        children = [s["duration_ms"] for s in spans if s["parent"] == index]
        if children:
            assert tiles(span["duration_ms"], sum(children)), \
                f"id {traced_id}: children of {span['name']} sum to " \
                f"{sum(children)}, not {span['duration_ms']}"

# The traced computed runs: engine_run's children are exactly the phases
# the engine ran, in order, each > 0 and equal to its timing_ms value.
# The cold run (44) fills the variance table; its K variant (45) reads it.
for traced_id, ran in ((44, ["variance", "dp", "final_explain"]),
                       (45, ["dp", "final_explain"])):
    computed = by_id[traced_id]
    assert computed["cache_hit"] is False, computed
    timing = computed["result"]["timing_ms"]
    phases = [p for p in ("sketch", "variance", "dp", "final_explain")
              if timing[p] > 0]
    assert phases == ran, (traced_id, timing)
    spans = computed["trace"]
    run = [i for i, s in enumerate(spans) if s["name"] == "engine_run"]
    assert len(run) == 1, spans
    children = [s for s in spans if s["parent"] == run[0]]
    assert [s["name"] for s in children] == phases, children
    for span in children:
        assert span["duration_ms"] > 0, span
        assert abs(span["duration_ms"] - timing[span["name"]]) <= \
            1e-5 * timing[span["name"]], (span, timing)
    assert tiles(timing["total"], sum(timing[p] for p in phases)), timing
PYEOF

# --- One framer on both transports: a line over the 4 MiB bound ----------
# A 6 MiB line of VALID JSON is still over the bound: pipe mode must answer
# it with one parse_error, then answer the requests after it. The TCP
# section below sends the same bytes and compares the answers.
LONG="$TMPDIR_SMOKE/long_line.ndjson"
{
  printf '{"op":"healthz","id":60,"pad":"'
  head -c $((6 * 1024 * 1024)) /dev/zero | tr '\0' 'x'
  printf '"}\n'
  echo '{"op":"healthz","id":61}'
  echo '{"op":"bogus","id":62}'
} >"$LONG"
LONG_OUT="$TMPDIR_SMOKE/long_line.out"
if ! "$SERVE" <"$LONG" >"$LONG_OUT" 2>"$TMPDIR_SMOKE/long.err"; then
  fail long_exit "server exited non-zero on the long line"
  cat "$TMPDIR_SMOKE/long.err" >&2
fi
lines=$(wc -l <"$LONG_OUT")
[ "$lines" -eq 3 ] || fail long_count "expected 3 responses, got $lines"
LONG_1=$(sed -n 1p "$LONG_OUT")
LONG_3=$(sed -n 3p "$LONG_OUT")
echo "$LONG_1" | grep -q '"code":"parse_error"' || fail long_parse_error "$LONG_1"
echo "$LONG_1" | grep -q 'exceeds' || fail long_message "$LONG_1"
sed -n 2p "$LONG_OUT" | grep -q '"id":61,"ok":true' || fail long_next "$(sed -n 2p "$LONG_OUT")"
echo "$LONG_3" | grep -q '"id":62,"ok":false' || fail long_unknown "$LONG_3"

# --- TCP mode: dribbled bytes, oversized lines, overload flags ------------
# The TCP read loop must reassemble lines split across arbitrary recv()
# boundaries, survive a multi-MB garbage line with a structured error
# (connection stays alive), and accept the new overload-control flags.
#
# The port is drawn below the kernel's ephemeral range (32768 when it
# cannot be read), where outgoing connections take their ports; a bind
# that still finds the port taken retries with a fresh one, 5 times at
# most.
ephemeral_low=32768
read -r ephemeral_low _ 2>/dev/null </proc/sys/net/ipv4/ip_local_port_range
case "$ephemeral_low" in ''|*[!0-9]*) ephemeral_low=32768 ;; esac
tcp_up=0
for _ in 1 2 3 4 5; do
  TCP_PORT=$(( ephemeral_low / 2 + RANDOM % (ephemeral_low / 2) ))
  "$SERVE" --port "$TCP_PORT" --max-inflight 2 --queue-depth 2 \
           --tenant-cache-budget 8 --tenant-inflight 4 \
           2>"$TMPDIR_SMOKE/tcp.err" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    grep -q "Address already in use" "$TMPDIR_SMOKE/tcp.err" && break
    if (exec 3<>"/dev/tcp/127.0.0.1/$TCP_PORT") 2>/dev/null; then
      tcp_up=1
      break
    fi
    sleep 0.1
  done
  [ "$tcp_up" -eq 1 ] && break
  grep -q "Address already in use" "$TMPDIR_SMOKE/tcp.err" || break
  wait "$SERVE_PID"  # the failed bind ended that server
done
if [ "$tcp_up" -ne 1 ]; then
  fail tcp_listen "server did not start listening on 127.0.0.1:$TCP_PORT"
  cat "$TMPDIR_SMOKE/tcp.err" >&2
else
  exec 3<>"/dev/tcp/127.0.0.1/$TCP_PORT"

  # Register normally, then dribble an explain request ONE BYTE PER
  # write: the server sees ~90 recv() calls for one NDJSON line.
  printf '%s\n' "{\"op\":\"register\",\"id\":100,\"name\":\"tcp\",\"csv_path\":\"$CSV\",\"time_column\":\"date\",\"measures\":[\"sales\"]}" >&3
  read -r -t 30 RESP <&3
  echo "$RESP" | grep -q '"ok":true' || fail tcp_register "$RESP"

  DRIBBLE='{"op":"explain","id":101,"dataset":"tcp","measure":"sales","explain_by":["region"],"k":2,"tenant":"acme"}'
  for ((i = 0; i < ${#DRIBBLE}; i++)); do
    printf '%s' "${DRIBBLE:i:1}" >&3
  done
  printf '\n' >&3
  read -r -t 30 RESP <&3
  echo "$RESP" | grep -q '"id":101,"ok":true' || fail tcp_dribble "$RESP"
  echo "$RESP" | grep -q '"result":{' || fail tcp_dribble_result "$RESP"

  # A 6 MiB garbage line (no newline until the end): one structured
  # error, stream stays in sync, connection stays alive. The flood then
  # CONTINUES past the error for another 2 MiB before the newline — the
  # server must drop those bytes without buffering them (and without a
  # second error).
  head -c $((6 * 1024 * 1024)) /dev/zero | tr '\0' 'x' >&3
  read -r -t 30 RESP <&3
  echo "$RESP" | grep -q '"code":"parse_error"' || fail tcp_giant_line "$RESP"
  echo "$RESP" | grep -q 'exceeds' || fail tcp_giant_message "$RESP"
  head -c $((2 * 1024 * 1024)) /dev/zero | tr '\0' 'y' >&3
  printf '\n' >&3

  printf '%s\n' '{"op":"explain","id":102,"dataset":"tcp","measure":"sales","explain_by":["region"],"k":2,"tenant":"acme"}' >&3
  read -r -t 30 RESP <&3
  echo "$RESP" | grep -q '"id":102,"ok":true' || fail tcp_alive_after_garbage "$RESP"
  echo "$RESP" | grep -q '"cache_hit":true' || fail tcp_cache_after_garbage "$RESP"

  # The long-line stream from the pipe-mode check: the same answers. The
  # healthz answer carries process-specific fields (request_id, uptime).
  cat "$LONG" >&3
  read -r -t 30 RESP <&3
  [ "$RESP" = "$LONG_1" ] || fail tcp_long_parse_error "pipe: $LONG_1 tcp: $RESP"
  read -r -t 30 RESP <&3
  echo "$RESP" | grep -q '"id":61,"ok":true' || fail tcp_long_next "$RESP"
  read -r -t 30 RESP <&3
  [ "$RESP" = "$LONG_3" ] || fail tcp_long_unknown "pipe: $LONG_3 tcp: $RESP"

  # state exposes admission occupancy and the tenants; shutdown stops
  # the server cleanly.
  printf '%s\n' '{"op":"state","id":103}' >&3
  read -r -t 30 RESP <&3
  echo "$RESP" | grep -q '"admission":{' || fail tcp_state_admission "$RESP"
  echo "$RESP" | grep -q '"tenants":1' || fail tcp_state_tenants "$RESP"
  printf '%s\n' '{"op":"shutdown","id":104}' >&3
  read -r -t 30 RESP <&3
  echo "$RESP" | grep -q '"op":"shutdown"' || fail tcp_shutdown "$RESP"
  exec 3>&- 3<&-
fi

if wait "$SERVE_PID"; then
  :
else
  fail tcp_exit "TCP server exited non-zero"
  cat "$TMPDIR_SMOKE/tcp.err" >&2
fi

# --- Warm restart: --cache-save / --cache-load + session recovery ---------
# Run 1 computes a query (cold), opens a streaming session, appends, and
# shuts down with --cache-save; run 2 is a fresh process (the old one is
# gone — that is the restart) with --cache-load: its FIRST query must be a
# warm hit, and recover_session must rebuild the dead process's session
# from its append log.
CACHE_SNAP="$TMPDIR_SMOKE/cache.tsxcch"
SESSION_DIR="$TMPDIR_SMOKE/sessions"
mkdir -p "$SESSION_DIR"

WARM1="$TMPDIR_SMOKE/warm1.ndjson"
{
  echo "{\"op\":\"explain\",\"id\":20,$EXPLAIN_FIELDS}"
  echo '{"op":"open_session","id":21,"dataset":"sales","measure":"sales","explain_by":["region"],"k":2}'
  echo '{"op":"append","id":22,"session":1,"label":"zz","rows":[{"dims":["east"],"measures":[30]},{"dims":["west"],"measures":[11]}]}'
  echo '{"op":"shutdown","id":23}'
} >"$WARM1"
OUT1="$TMPDIR_SMOKE/warm1.out"
if ! "$SERVE" --preload sales="$CSV" --time date --measure sales \
     --cache-save "$CACHE_SNAP" --session-log-dir "$SESSION_DIR" \
     <"$WARM1" >"$OUT1" 2>"$TMPDIR_SMOKE/warm1.err"; then
  fail warm1_exit "first warm-start server run exited non-zero"
  cat "$TMPDIR_SMOKE/warm1.err" >&2
fi
response_for 20 "$OUT1" | grep -q '"cache_hit":false' || fail warm1_cold "$(response_for 20 "$OUT1")"
response_for 22 "$OUT1" | grep -q '"n":11' || fail warm1_append "$(response_for 22 "$OUT1")"
[ -s "$CACHE_SNAP" ] || fail cache_snapshot_written "no cache snapshot at $CACHE_SNAP"
# The open_session response names the (pid-scoped) crash-recovery log.
SESSION_LOG=$(response_for 21 "$OUT1" | sed 's/.*"log":"\([^"]*\)".*/\1/')
[ -s "$SESSION_LOG" ] || fail session_log_written "no session log at '$SESSION_LOG'"

WARM2="$TMPDIR_SMOKE/warm2.ndjson"
{
  echo "{\"op\":\"explain\",\"id\":30,$EXPLAIN_FIELDS}"
  echo "{\"op\":\"recover_session\",\"id\":31,\"path\":\"$SESSION_LOG\"}"
  echo '{"op":"explain_session","id":32,"session":1}'
  echo '{"op":"state","id":33}'
  echo '{"op":"shutdown","id":34}'
} >"$WARM2"
OUT2="$TMPDIR_SMOKE/warm2.out"
if ! "$SERVE" --preload sales="$CSV" --time date --measure sales \
     --cache-load "$CACHE_SNAP" --session-log-dir "$SESSION_DIR" \
     <"$WARM2" >"$OUT2" 2>"$TMPDIR_SMOKE/warm2.err"; then
  fail warm2_exit "restarted server exited non-zero"
  cat "$TMPDIR_SMOKE/warm2.err" >&2
fi
grep -q "warm start: 1 entries restored" "$TMPDIR_SMOKE/warm2.err" \
  || fail warm2_banner "$(cat "$TMPDIR_SMOKE/warm2.err")"
# The first post-restart query is a HIT, and its result payload is the
# byte-identical JSON the pre-restart process rendered.
response_for 30 "$OUT2" | grep -q '"cache_hit":true' || fail warm2_hit "$(response_for 30 "$OUT2")"
payload() { sed 's/.*"result"://; s/}$//' ; }
[ "$(response_for 30 "$OUT2" | payload)" = "$(response_for 20 "$OUT1" | payload)" ] \
  || fail warm2_identical "restart changed the cached payload"
response_for 31 "$OUT2" | grep -q '"ok":true' || fail recover "$(response_for 31 "$OUT2")"
response_for 31 "$OUT2" | grep -q '"n":11' || fail recover_n "$(response_for 31 "$OUT2")"
response_for 31 "$OUT2" | grep -q '"torn":false' || fail recover_torn "$(response_for 31 "$OUT2")"
response_for 32 "$OUT2" | grep -q '"ok":true' || fail recovered_explain "$(response_for 32 "$OUT2")"
response_for 33 "$OUT2" | grep -q '"tenant_bytes":{' || fail state_tenant_bytes "$(response_for 33 "$OUT2")"

if [ "$failures" -ne 0 ]; then
  echo "--- responses ---" >&2
  cat "$OUT" >&2
  echo "server_smoke: $failures check(s) failed" >&2
  exit 1
fi
echo "server_smoke: all checks passed"
