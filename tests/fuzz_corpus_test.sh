#!/usr/bin/env bash
# The committed fuzz corpus matches its generator: runs fuzz_make_seeds
# into a temp dir and diffs the result against fuzz/corpus/, so a format
# change that forgets to regenerate its seeds fails here. Files only in
# the committed corpus pass: committed crashers and merged coverage live
# there too (docs/FUZZING.md), and the generator does not write them.
#
# Usage: tests/fuzz_corpus_test.sh <fuzz_make_seeds binary> <corpus dir>
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <fuzz_make_seeds binary> <corpus dir>" >&2
  exit 2
fi
GENERATOR="$1"
CORPUS="$2"

GENERATED="$(mktemp -d)"
trap 'rm -rf "${GENERATED}"' EXIT

if ! "${GENERATOR}" "${GENERATED}"; then
  echo "FAIL: ${GENERATOR} exited non-zero" >&2
  exit 1
fi
REPORT="$(diff -r "${GENERATED}" "${CORPUS}" | grep -vF "Only in ${CORPUS}")"
if [ -n "${REPORT}" ]; then
  echo "${REPORT}" >&2
  echo "FAIL: fuzz/corpus/ is stale; regenerate it from the repo root:" >&2
  echo "  ./build/fuzz_make_seeds fuzz/corpus" >&2
  exit 1
fi
echo "fuzz corpus matches fuzz_make_seeds"
