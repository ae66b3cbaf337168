#!/usr/bin/env bash
# Usage: named-gate.sh <package> <name[|name...]>
#
# Runs one named conformance gate under the race detector and fails
# when a test fails OR when any listed name (a test-name prefix)
# matches no passing test. `go test -run X` exits 0 with "no tests to
# run" when X matches no test — and an alternation stays green while
# any one arm still matches — so a gate whose test was renamed or
# deleted would otherwise stay green forever.
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test "$1" -race -run "$2" -count=1 -v | tee "$log"
IFS='|' read -ra names <<<"$2"
for name in "${names[@]}"; do
  grep -q "^--- PASS: $name" "$log" || {
    echo "named gate: '$name' matched no passing test in $1" >&2
    exit 1
  }
done
