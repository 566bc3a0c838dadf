#!/usr/bin/env bash
# The whole benchmark in one command: builds once, then runs the five
# workloads end to end and the five traced runs, one process each, one
# after another. Every run prints its metrics by name with their units
# and its host stamp; the full records go to benchmarks/out/<workload>.json
# and <workload>.trace.json, the last traced pass's spans to
# <workload>.spans.jsonl.
#
#   benchmarks/run.sh [seed] [seconds]
#
# A run that fails its output check makes the script exit non-zero after
# the remaining runs have finished.
set -uo pipefail

seed="${1:-1}"
seconds="${2:-10}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"

workloads=(device-video photo-lookup photo-churn peer-mesh pool-serve)
started=$SECONDS
status=0

# bench.sh rebuilds only when a source file changed, so after the first
# call the build is a no-op.
run() {
	bash "$here/bench.sh" --workload "$1" --seed "$seed" --seconds "$seconds" "${@:2}" >/dev/null || status=1
}

for w in "${workloads[@]}"; do
	run "$w" --trace 0 --out "$out/$w.json"
done
for w in "${workloads[@]}"; do
	run "$w" --trace 1 --out "$out/$w.trace.json" --spans "$out/$w.spans.jsonl"
done

echo "total wall time: $((SECONDS - started)) s (contract cap for one driver session: 3420 s)" >&2
exit "$status"
