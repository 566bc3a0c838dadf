#!/usr/bin/env bash
# Paired end-to-end runs: this checkout against a parent commit.
#
#   make pairs REV=<parent> [N=10] [WORKLOADS="photo-lookup peer-mesh"] [SECONDS=10]
#   bash scripts/pairs.sh REV [N [WORKLOADS [SECONDS]]]
#
# Extracts REV's committed tree (git archive) into a mktemp -d directory,
# removed on exit, and runs each tree's own benchmarks/bench.sh, untraced,
# on seeds 1…N of every workload, alternating which side goes first from
# seed to seed. cmd/pairstat then prints the host block and, per workload
# and metric, both medians, the IQRs and the change's wins out of N, and
# checks the simulated metrics: identical in every pair on the sequential
# workloads, the change's median inside the parent's min–max on
# pool-serve. The exit status is pairstat's. Nothing under benchmarks/ is
# edited; each tree's bench.sh builds into its own benchmarks/.build/.
set -euo pipefail

rev=${1:?usage: scripts/pairs.sh REV [N [WORKLOADS [SECONDS]]]}
n=${2:-10}
workloads=${3:-device-video photo-lookup photo-churn peer-mesh pool-serve}
secs=${4:-10}
[ -n "$workloads" ] || workloads="device-video photo-lookup photo-churn peer-mesh pool-serve"

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
parent_commit=$(git rev-parse --verify "$rev^{commit}")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$parent_commit" | tar -x -C "$work/parent"
runs=$work/runs.jsonl
: >"$runs"

# bench TREE ARGS… runs one benchmark of TREE from the work directory and
# prints its result line; the build log is shown only if it fails.
bench() {
	local tree=$1 out
	shift
	if ! out=$(cd "$work" && bash "$tree/benchmarks/bench.sh" "$@" 2>"$work/stderr"); then
		echo "pairs: $tree: bench.sh $* failed:" >&2
		cat "$work/stderr" >&2
		exit 1
	fi
	printf '%s\n' "$out" | tail -n 1
}

# Build both harnesses before any timed run.
for tree in "$work/parent" "$root"; do
	bench "$tree" --workload device-video --seed 1 --seconds 1 --trace 0 >/dev/null
done

change="$(git rev-parse HEAD)$(git diff --quiet HEAD || echo ' + uncommitted edits')"
echo "pairs: parent $parent_commit, change $change, N=$n, ${secs} s per run" >&2
for w in $workloads; do
	for seed in $(seq 1 "$n"); do
		order="parent change"
		if [ $((seed % 2)) -eq 0 ]; then order="change parent"; fi
		for side in $order; do
			tree=$root
			if [ "$side" = parent ]; then tree=$work/parent; fi
			result=$(bench "$tree" --workload "$w" --seed "$seed" --seconds "$secs" --trace 0)
			printf '{"side":"%s","workload":"%s","seed":%d,"result":%s}\n' "$side" "$w" "$seed" "$result" >>"$runs"
		done
		echo "pairs: $w seed $seed done" >&2
	done
done

echo "parent: $parent_commit"
echo "change: $change"
go run ./cmd/pairstat BENCHMARK.json "$runs"
