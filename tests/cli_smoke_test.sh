#!/usr/bin/env bash
# ctest-driven smoke test for the tsexplain CLI (registered as `cli_smoke`).
#
# Contract under test:
#   - unknown flags        -> usage on stderr, non-zero exit
#   - missing required args-> usage on stderr, non-zero exit
#   - missing input file   -> error + usage on stderr, non-zero exit
#   - malformed int flags  -> diagnostic on stderr, non-zero exit
#   - unknown or repeated explain-by, no dimension at all, unknown --diff
#     label, a relation too short to segment, or --m above 10
#                          -> diagnostic + usage on stderr, exit 2
#   - no input ever kills the CLI by a signal (an abort is a failure); a
#     run that throws prints an error and exits 1
#   - --help               -> usage on stdout, exit 0
#   - a well-formed run    -> exit 0 and a report on stdout
#   - --diff               -> the same bytes as the recorded golden
#
# Usage: cli_smoke_test.sh /path/to/tsexplain
set -u

CLI=${1:?usage: cli_smoke_test.sh /path/to/tsexplain}
TMPDIR_SMOKE=$(mktemp -d)
trap 'rm -rf "$TMPDIR_SMOKE"' EXIT

failures=0

# expect_fail NAME -- ARGS...: run, require a non-zero exit that is not a
# death by signal (exit >= 128), with usage on stderr. Sets $status.
expect_fail() {
  local name=$1; shift; shift  # drop NAME and "--"
  local stderr_file="$TMPDIR_SMOKE/$name.err"
  "$CLI" "$@" >/dev/null 2>"$stderr_file"
  status=$?
  if [ "$status" -eq 0 ]; then
    echo "FAIL [$name]: expected non-zero exit for: $*" >&2
    failures=$((failures + 1))
    return
  fi
  if [ "$status" -ge 128 ]; then
    echo "FAIL [$name]: died with exit $status (a signal) for: $*" >&2
    cat "$stderr_file" >&2
    failures=$((failures + 1))
    return
  fi
  if ! grep -q "usage:" "$stderr_file"; then
    echo "FAIL [$name]: expected usage text on stderr for: $*" >&2
    cat "$stderr_file" >&2
    failures=$((failures + 1))
  fi
}

# expect_usage_error NAME PATTERN -- ARGS...: expect_fail, plus exit 2 and
# a diagnostic matching PATTERN on stderr.
expect_usage_error() {
  local name=$1 pattern=$2; shift; shift
  local before=$failures
  expect_fail "$name" "$@"
  [ "$failures" -ne "$before" ] && return
  if [ "$status" -ne 2 ]; then
    echo "FAIL [$name]: expected exit 2, got $status for: $*" >&2
    failures=$((failures + 1))
  elif ! grep -q "$pattern" "$TMPDIR_SMOKE/$name.err"; then
    echo "FAIL [$name]: expected '$pattern' on stderr for: $*" >&2
    cat "$TMPDIR_SMOKE/$name.err" >&2
    failures=$((failures + 1))
  fi
}

expect_fail unknown_flag      -- --definitely-not-a-flag
expect_fail no_args           --
expect_fail missing_time      -- --csv whatever.csv
expect_fail missing_csv       -- --time date
expect_fail missing_input     -- --csv "$TMPDIR_SMOKE/does_not_exist.csv" --time date
expect_fail bad_int_flag      -- --csv x.csv --time t --k twelve
expect_fail trailing_value    -- --csv x.csv --time t --m
expect_fail negative_threads  -- --csv x.csv --time t --threads -2
expect_fail zero_m            -- --csv x.csv --time t --m 0
expect_fail negative_order    -- --csv x.csv --time t --order -1

# --help: usage on stdout, exit 0.
if ! "$CLI" --help >"$TMPDIR_SMOKE/help.out" 2>/dev/null; then
  echo "FAIL [help]: --help must exit 0" >&2
  failures=$((failures + 1))
elif ! grep -q "usage:" "$TMPDIR_SMOKE/help.out"; then
  echo "FAIL [help]: --help must print usage on stdout" >&2
  failures=$((failures + 1))
fi

# Happy path: tiny CSV through the full pipeline.
CSV="$TMPDIR_SMOKE/ok.csv"
{
  echo "date,region,sales"
  for t in 0 1 2 3 4 5 6 7 8 9; do
    echo "$t,east,$((10 + t))"
    echo "$t,west,$((20 - t))"
  done
} >"$CSV"
# Two buckets: a diff, but too short to segment.
TWO="$TMPDIR_SMOKE/two.csv"
printf '%s\n' date,region,product,sales 0,east,a,10 0,east,b,5 0,west,a,20 \
    0,west,b,7 1,east,a,30 1,east,b,4 1,west,a,18 1,west,b,9 >"$TWO"
# Two buckets where region=east and product=a select the same rows: the
# equal-slice dedupe keeps the one listed first, so the answer depends on
# the explain-by order (schema order by default).
ALIGNED="$TMPDIR_SMOKE/aligned.csv"
printf '%s\n' date,region,product,sales 0,east,a,10 0,west,b,20 0,west,c,7 \
    1,east,a,30 1,west,b,18 1,west,c,9 >"$ALIGNED"

expect_usage_error diff_unknown_label "unknown time bucket: nope" -- \
    --csv "$CSV" --time date --measure sales --diff 0,nope
expect_usage_error unknown_explain_by "unknown explain-by dimension: nope" -- \
    --csv "$CSV" --time date --measure sales --explain-by nope
expect_usage_error diff_unknown_explain_by \
    "unknown explain-by dimension: nope" -- \
    --csv "$CSV" --time date --measure sales --explain-by nope --diff 0,9
expect_usage_error repeated_explain_by \
    "repeated explain-by dimension: region" -- \
    --csv "$CSV" --time date --measure sales --explain-by region,region
printf '%s\n' date,sales 0,1 1,2 2,3 >"$TMPDIR_SMOKE/no_dimension.csv"
expect_usage_error no_dimension "no dimension to explain by" -- \
    --csv "$TMPDIR_SMOKE/no_dimension.csv" --time date --measure sales
expect_usage_error two_bucket_segmentation "at least three time buckets" -- \
    --csv "$TWO" --time date --measure sales
# --m is capped at 10 (kMaxTopM), as the service caps it: one past the cap
# is a usage error in --diff mode and in segmentation mode, and m = INT_MAX
# fails the same way, never by an abort.
expect_usage_error diff_m_over_cap "m must be <= 10" -- \
    --csv "$CSV" --time date --measure sales --m 11 --diff 0,9
expect_usage_error segment_m_over_cap "m must be <= 10" -- \
    --csv "$CSV" --time date --measure sales --m 11
expect_fail diff_int_max_m -- \
    --csv "$CSV" --time date --measure sales --m 2147483647 --diff 0,9
expect_fail segment_int_max_m -- \
    --csv "$CSV" --time date --measure sales --m 2147483647
for mode in "" "--diff 0,9"; do
  # shellcheck disable=SC2086  # $mode splits into its flag and value
  if ! "$CLI" --csv "$CSV" --time date --measure sales --m 10 $mode \
      >/dev/null 2>"$TMPDIR_SMOKE/m_at_cap.err"; then
    echo "FAIL [m_at_cap]: --m 10 must run (${mode:-segmentation})" >&2
    cat "$TMPDIR_SMOKE/m_at_cap.err" >&2
    failures=$((failures + 1))
  fi
done

# --diff golden: the two-relations diff prints these exact bytes (forward
# over every bucket; reversed on the two-bucket relation, where the last
# two items tie on gamma; and on the aligned one).
expect_stdout() {
  local name=$1 want=$2; shift; shift
  if ! "$CLI" "$@" >"$TMPDIR_SMOKE/$name.out" 2>"$TMPDIR_SMOKE/$name.err"; then
    echo "FAIL [$name]: expected exit 0 for: $*" >&2
    cat "$TMPDIR_SMOKE/$name.err" >&2
    failures=$((failures + 1))
  elif ! printf '%s' "$want" | cmp -s - "$TMPDIR_SMOKE/$name.out"; then
    echo "FAIL [$name]: stdout differs from the golden for: $*" >&2
    diff <(printf '%s' "$want") "$TMPDIR_SMOKE/$name.out" >&2
    failures=$((failures + 1))
  fi
}
expect_stdout diff_golden "\
0: 30 -> 9: 30 (delta 0)
  top-1  region=east                              gamma=9          (+)  10 -> 19
  top-2  region=west                              gamma=9          (-)  20 -> 11
" --csv "$CSV" --time date --measure sales --diff 0,9
expect_stdout diff_golden_reversed "\
1: 61 -> 0: 42 (delta -19)
  top-1  region=east & product=a                  gamma=20         (-)  30 -> 10
  top-2  region=west & product=a                  gamma=2          (+)  18 -> 20
  top-3  region=west & product=b                  gamma=2          (-)  9 -> 7
" --csv "$TWO" --time date --measure sales --diff 1,0
expect_stdout diff_golden_schema_order "\
1: 57 -> 0: 37 (delta -20)
  top-1  region=east                              gamma=20         (-)  30 -> 10
" --csv "$ALIGNED" --time date --measure sales --diff 1,0
if ! "$CLI" --csv "$CSV" --time date --measure sales --explain-by region \
    --k 2 >"$TMPDIR_SMOKE/ok.out" 2>"$TMPDIR_SMOKE/ok.err"; then
  echo "FAIL [happy_path]: well-formed invocation must exit 0" >&2
  cat "$TMPDIR_SMOKE/ok.err" >&2
  failures=$((failures + 1))
elif ! [ -s "$TMPDIR_SMOKE/ok.out" ]; then
  echo "FAIL [happy_path]: expected a report on stdout" >&2
  failures=$((failures + 1))
fi

# --threads 0 means "auto" and must succeed (0 used to be rejected).
if ! "$CLI" --csv "$CSV" --time date --measure sales --explain-by region \
    --k 2 --threads 0 >/dev/null 2>&1; then
  echo "FAIL [threads_auto]: --threads 0 must be accepted as auto" >&2
  failures=$((failures + 1))
fi

# JSON mode on the same input.
if ! "$CLI" --csv "$CSV" --time date --measure sales --explain-by region \
    --k 2 --json 2>/dev/null | grep -q "{"; then
  echo "FAIL [json]: --json must emit JSON on stdout" >&2
  failures=$((failures + 1))
fi

# Convert mode: csv -> snapshot, then explain FROM the snapshot (no
# --time: the schema travels in the file). Results must match the CSV
# run byte for byte apart from the wall-clock timing block.
SNAP="$TMPDIR_SMOKE/ok.tsx"
if ! "$CLI" --csv "$CSV" --time date --measure sales \
    --save-snapshot "$SNAP" >/dev/null 2>&1 || ! [ -s "$SNAP" ]; then
  echo "FAIL [save_snapshot]: --save-snapshot must write a snapshot" >&2
  failures=$((failures + 1))
else
  "$CLI" --csv "$CSV" --time date --measure sales --explain-by region \
      --k 2 --json 2>/dev/null | sed '/"timing_ms"/,/}/d' >"$TMPDIR_SMOKE/a.json"
  "$CLI" --csv "$SNAP" --measure sales --explain-by region \
      --k 2 --json 2>/dev/null | sed '/"timing_ms"/,/}/d' >"$TMPDIR_SMOKE/b.json"
  if ! cmp -s "$TMPDIR_SMOKE/a.json" "$TMPDIR_SMOKE/b.json"; then
    echo "FAIL [snapshot_identical]: snapshot run differs from CSV run" >&2
    failures=$((failures + 1))
  fi
  # A corrupted snapshot is a structured error, not a crash.
  printf 'garbage' >>"$SNAP"
  if "$CLI" --csv "$SNAP" --measure sales >/dev/null 2>"$TMPDIR_SMOKE/corrupt.err"; then
    echo "FAIL [snapshot_corrupt]: corrupted snapshot must fail" >&2
    failures=$((failures + 1))
  elif ! grep -q "truncated\|checksum" "$TMPDIR_SMOKE/corrupt.err"; then
    echo "FAIL [snapshot_corrupt_code]: expected a structured storage error" >&2
    cat "$TMPDIR_SMOKE/corrupt.err" >&2
    failures=$((failures + 1))
  fi
fi

if [ "$failures" -ne 0 ]; then
  echo "cli_smoke: $failures check(s) failed" >&2
  exit 1
fi
echo "cli_smoke: all checks passed"
