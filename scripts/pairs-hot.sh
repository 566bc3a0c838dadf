#!/usr/bin/env bash
# Paired hot-path benchmark runs: this checkout against a parent commit.
#
#   make pairs-hot REV=<parent> [BENCH=<regex>] [N=10]
#   bash scripts/pairs-hot.sh REV N BENCH PKG...
#
# make hands BENCH over unexpanded, so a regex with $ arrives as typed:
# with BENCH='HotPathNearest$|EngineFrame' the Nearest rows run are
# HotPathNearest alone, not every row whose name begins with it.
#
# Extracts REV's committed tree (git archive) into a mktemp -d directory,
# removed on exit, and builds each tree's test binary once per package
# (go test -c). Then it runs N rounds of every binary with -test.bench
# BENCH -test.count 1 -test.benchmem (-test.timeout 10m), both sides in
# each round, flipping which side goes first from round to round; each
# binary runs in its package's source directory. Every run's output is recorded after a
# `side: parent` or `side: change` line — a configuration line of the Go
# benchmark format — and cmd/pairstat prints, per benchmark row, both
# medians, the IQRs and the change's wins out of N, and fails a row
# whose allocs/op rose. The exit status is pairstat's.
set -euo pipefail

usage="usage: scripts/pairs-hot.sh REV N BENCH PKG..."
rev=${1:?$usage}
n=${2:?$usage}
bench=${3:?$usage}
shift 3
[ $# -gt 0 ] || { echo "$usage" >&2; exit 2; }
pkgs=("$@")

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
parent_commit=$(git rev-parse --verify "$rev^{commit}")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/bin-parent" "$work/bin-change"
git archive "$parent_commit" | tar -x -C "$work/parent"
runs=$work/runs.txt
: >"$runs"

# binary SIDE PKG names SIDE's test binary of PKG.
binary() {
	local p=${2#./}
	echo "$work/bin-$1/$(echo "${p%/}" | tr / _).test"
}

for side in parent change; do
	tree=$root
	if [ "$side" = parent ]; then tree=$work/parent; fi
	for pkg in "${pkgs[@]}"; do
		(cd "$tree" && go test -c -o "$(binary "$side" "$pkg")" "$pkg")
	done
done

change="$(git rev-parse HEAD)$(git diff --quiet HEAD || echo ' + uncommitted edits')"
echo "pairs-hot: parent $parent_commit, change $change, N=$n, -test.bench '$bench'" >&2
for round in $(seq 1 "$n"); do
	order="parent change"
	if [ $((round % 2)) -eq 0 ]; then order="change parent"; fi
	for side in $order; do
		tree=$root
		if [ "$side" = parent ]; then tree=$work/parent; fi
		for pkg in "${pkgs[@]}"; do
			echo "side: $side" >>"$runs"
			(cd "$tree/$pkg" && "$(binary "$side" "$pkg")" -test.run '^$' -test.timeout 10m \
				-test.bench "$bench" -test.count 1 -test.benchmem) >>"$runs"
		done
	done
	echo "pairs-hot: round $round done" >&2
done

echo "parent: $parent_commit"
echo "change: $change"
go run ./cmd/pairstat "$runs"
