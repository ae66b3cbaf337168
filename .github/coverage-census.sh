#!/usr/bin/env bash
# Usage: coverage-census.sh <profile-out>
#
# The coverage census run: which functions under internal/ does a
# deployment actually execute? It builds every main under cmd/ and
# examples/, plus ./benchmark, with integration coverage of internal/
# (go build -cover), runs them under GOCOVERDIR — CI's smoke commands,
# the other examples, a `shuffled` restart over a directory whose
# budget ran out, the contract benchmark's smoke, and a
# `shuffled analyzer|shuffler|client` drill whose coordinator restarts
# on its -data-dir, then is refused a restart at other targets — and
# merges the counters into one text profile.
# The repocheck test TestEveryInternalFunctionRuns reads that profile
# (-census-profile) and fails on any internal/ function no run reached
# that its allow-list does not name.
#
# Only runs whose reach does not depend on timing belong here: the
# census must name the same unreached set on every run. A killed
# shuffler is a test (TestClusterKilledShufflerFailsCleanly), not a
# run: whether a surviving shuffler sees a connection fail its
# handshake depends on when the kill lands.
set -euo pipefail
out=$(realpath -m "${1:?usage: coverage-census.sh <profile-out>}")
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT
bin=$work/bin
mkdir -p "$bin" "$work/cov"

# A binary writes no counters unless its main package is instrumented
# too, so -coverpkg names it beside internal/; the census reads only
# internal/.
for pkg in ./cmd/* ./examples/* ./benchmark; do
  go build -cover -coverpkg="./internal/...,$pkg" -o "$bin/$(basename "$pkg")" "$pkg"
done
export GOCOVERDIR=$work/cov

run() {
  echo "+ $*" >&2
  "$@" >/dev/null
}

# CI's smoke commands (reproduce-smoke, the default service run,
# cluster-smoke's demo, chaos-smoke's drill, recovery-smoke).
run "$bin/reproduce" -quick
run "$bin/shuffled"
run "$bin/peos_cluster" -n 300 -collections 2 -timeout 90s
run "$bin/peos_cluster" -n 300 -chaos -timeout 90s
run "$bin/durable_monitor" -n 400 -epochs 3 -kill 0.55 -fsync batch
run "$bin/durable_monitor" -n 400 -epochs 3 -kill 0.2 -fsync none

# The other mains at their defaults.
seq 1 3000 | awk '{print "item" ($1 % 150)}' >"$work/values.txt"
run "$bin/histogram" -top 5 -seed 9 "$work/values.txt"
for ex in attacks census clickstream_peos continual_monitor frequent_queries quickstart; do
  run "$bin/$ex"
done

# A default run whose one-epoch budget runs out, then a restart over its
# -data-dir: the recovered service is exhausted, prints what it sealed
# and stops. One epoch, not recovery-smoke's three: the budget then runs
# out only after the last report is in, so no run drops a frame.
run "$bin/shuffled" -n 3000 -epochs 1 -data-dir "$work/exhausted"
run "$bin/shuffled" -n 3000 -epochs 1 -data-dir "$work/exhausted"

# The contract benchmark's smoke (bench-smoke). It re-executes itself
# per workload; the children inherit GOCOVERDIR.
run "$bin/benchmark" -smoke --seconds 2

# The role subcommands as four processes, twice over one -data-dir: the
# analyzer plans from the targets (GRR, eps_l = 4, 416 fakes) and writes
# the plan beside the key, which the shufflers and the client read. The
# second analyzer passes the same -epochs, so it replans identically,
# reloads the key and recovers collection 0 before it drives
# collection 1.
drill=$work/drill
mkdir -p "$drill"
analyzer=127.0.0.1:17900
shufflers=127.0.0.1:17901,127.0.0.1:17902
for round in 0 1; do
  rm -f "$drill/analyzer.done"
  "$bin/shuffled" analyzer -listen "$analyzer" -shufflers "$shufflers" \
    -key "$drill/peos.key" -d 8 -n 80 -eps1 4 -eps2 8 -eps3 8 -delta 1e-6 \
    -epochs 2 -collections $((round + 1)) -data-dir "$drill/state" \
    -timeout 30s >/dev/null &
  apid=$!
  pids+=("$apid")
  for _ in $(seq 300); do
    [ -f "$drill/peos.key.pub" ] && break
    sleep 0.1
  done
  spids=()
  for index in 0 1; do
    "$bin/shuffled" shuffler -index "$index" -shufflers "$shufflers" \
      -analyzer "$analyzer" -key "$drill/peos.key.pub" \
      -seal-timeout 30s >/dev/null &
    spids+=($!)
    pids+=($!)
  done
  run "$bin/shuffled" client -shufflers "$shufflers" -analyzer "$analyzer" \
    -key "$drill/peos.key.pub" -n 80 -collection "$round" -seed 5
  wait "$apid" "${spids[@]}"
done
# A restart over the drill's key at the default targets plans
# differently (the fakes its epsS needs come from the exact fakes-only
# sum, not the closed form), so it must refuse before it listens.
if "$bin/shuffled" analyzer -listen "$analyzer" -shufflers "$shufflers" \
  -key "$drill/peos.key" -d 8 -n 80 >/dev/null 2>&1; then
  echo "an analyzer with other targets started over the drill's key" >&2
  exit 1
fi

go tool covdata textfmt -i="$GOCOVERDIR" -o "$out"
echo "coverage census profile: $out" >&2
