#!/usr/bin/env bash
# Usage: named-gate.sh <package> <-run regex>
#
# Runs one named conformance gate under the race detector and fails
# when a test fails OR when the regex matches nothing. `go test -run X`
# exits 0 with "no tests to run" when X matches no test, so a gate whose
# test was renamed or deleted would otherwise stay green forever.
set -euo pipefail
log=$(mktemp)
go test "$1" -race -run "$2" -count=1 -v | tee "$log"
grep -q '^--- PASS' "$log" || {
  echo "named gate: -run '$2' matched no test in $1" >&2
  exit 1
}
