#!/usr/bin/env bash
# Function census: which functions of the module does no program run?
#
#   bash scripts/census.sh          (or: make census)
#
# Builds every program — the commands, the five examples and the
# end-to-end benchmark harness — with coverage over approxcache/..., runs
# each through the fixed script below, and lists every function outside
# cmd/, examples/ and benchmarks/ that no run entered, as "file func"
# (no line numbers, so edits elsewhere do not churn it). A package no
# program links at all is one "dir *" line.
#
# The list must match the reviewed reasons: testdata/knobs/unreached.txt
# ("file func reason" per line) plus testdata/knobs/test-only-funcs.txt,
# whose "pkg.Name" lines stand for themselves and are not repeated. The
# census fails, printing what differs, when an unreached function has no
# line, when a line names a function that now runs or no longer exists,
# or when a line gives no reason. Scope is whole functions only: a
# function that ran once, on any path, counts as reached.
set -euo pipefail

GO=${GO:-go}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
reasons=$root/testdata/knobs/unreached.txt
testonly=$root/testdata/knobs/test-only-funcs.txt

work=$(mktemp -d)
server=
cleanup() {
	if [ -n "$server" ]; then kill "$server" 2>/dev/null || true; fi
	rm -rf "$work"
}
trap cleanup EXIT
bin=$work/bin
export GOCOVERDIR=$work/cov
mkdir -p "$bin" "$GOCOVERDIR"

$GO build -cover -coverpkg=approxcache/... -o "$bin/" ./cmd/... ./examples/...
$GO -C benchmarks build -cover -coverpkg=approxcache/... -o "$bin/e2e" ./e2e

# step NAME ARGS… runs one program with its output kept in the work dir;
# a program that fails stops the census with its output.
step() {
	local log=$work/log
	if ! "$bin/$1" "${@:2}" >"$log" 2>&1; then
		echo "census: $* failed:" >&2
		cat "$log" >&2
		exit 1
	fi
}

cd "$work"
step approxbench -frames 300
step approxbench -frames 300 -exp E1 -format csv
step approxbench -frames 300 -exp E1 -format markdown
step approxbench -exp E23 -json BENCH_quality.json
step benchgate BENCH_quality.json
for w in device-video photo-lookup photo-churn peer-mesh pool-serve; do
	for t in 0 1; do
		step e2e -workload "$w" -trace "$t" -seconds 1
	done
done
step cachenode -frames 300 -sessions 4 -batch 4 -admission -snapshot node.snap
step cachenode -frames 300 -snapshot node.snap
step tracegen -summary
step tracegen -workload handheld-mix -out spec.json
step tracegen -workload handheld-mix -frames 60 -render frames

# Two nodes on loopback: the first listens on a port of its own choosing,
# the second peers with the address the first prints, then the first is
# interrupted (it writes its coverage on the way out).
"$bin/cachenode" -serve -addr 127.0.0.1:0 -name a >a.log 2>&1 &
server=$!
addr=
for _ in $(seq 300); do
	addr=$(sed -n 's/^a listening on \([^ ]*\) .*/\1/p' a.log)
	if [ -n "$addr" ] && grep -q '^serving peers' a.log; then break; fi
	if ! kill -0 "$server" 2>/dev/null; then break; fi
	sleep 0.1
done
if [ -z "$addr" ] || ! grep -q '^serving peers' a.log; then
	echo "census: the serving node never came up:" >&2
	cat a.log >&2
	exit 1
fi
step cachenode -name b -peers "$addr" -seed 2
kill -INT "$server"
wait "$server"
server=

for ex in crowd livepeers quickstart videostream warmstart; do
	step "$ex"
done

# Every function of the module's packages, as "file func count%" with the
# module prefix and the pointer star of a receiver stripped.
$GO tool covdata func -i="$GOCOVERDIR" |
	awk '$1 ~ /^approxcache\// {
		file = $1; sub(/^approxcache\//, "", file); sub(/:[0-9]+:$/, "", file)
		fn = $2; sub(/^\*/, "", fn)
		print file, fn, $NF
	}' >funcs.txt
{
	# Functions no run entered.
	awk '$3 == "0.0%" && $1 !~ /^(cmd|examples|benchmarks)\// { print $1, $2 }' funcs.txt
	# Packages no program links.
	awk '{ if (!sub(/\/[^\/]*$/, "", $1)) $1 = "."; print $1 }' funcs.txt | sort -u >linked.txt
	(cd "$root" && $GO list -f '{{.Dir}}' ./...) |
		sed "s|^$root/||; s|^$root\$|.|" | grep -Ev '^(cmd|examples)(/|$)' | sort |
		comm -23 - linked.txt | sed 's/$/ */'
} | sort >unreached.txt

# Compare with the reasons. The awk reads the test-only names, then the
# reason lines, then the census; every disagreement is one printed line.
awk -v reasons="${reasons#"$root/"}" '
	FILENAME == ARGV[1] { if (NF) testonly[$1] = 1; next }
	FILENAME == ARGV[2] {
		if (!NF) next
		key = $1 " " $2
		if (NF < 3) { bad = bad "\n  " key }
		if (key in listed) { bad = bad "\n  " key " (listed twice)" }
		listed[key] = 1
		next
	}
	{
		key = $1 " " $2
		pkg = $1; sub(/\/[^\/]*$/, "", pkg); sub(/.*\//, "", pkg)
		found[key] = 1
		if (key in listed) {
			if ((pkg "." $2) in testonly) twice = twice "\n  " key
			next
		}
		if (!((pkg "." $2) in testonly)) missing = missing "\n  " key
	}
	END {
		for (key in listed) if (!(key in found)) stale = stale "\n  " key
		fail = 0
		if (missing != "") { print "census: unreached, with no reason in " reasons ":" missing; fail = 1 }
		if (stale != "") { print "census: listed in " reasons ", but reached or gone:" stale; fail = 1 }
		if (bad != "") { print "census: lines in " reasons " without a reason:" bad; fail = 1 }
		if (twice != "") { print "census: listed in both " reasons " and test-only-funcs.txt:" twice; fail = 1 }
		exit fail
	}
' "$testonly" "$reasons" unreached.txt || {
	echo "census: the unreached functions, as this run found them:"
	sed 's/^/  /' unreached.txt
	exit 1
}
echo "census: $(wc -l <unreached.txt) unreached functions, each with a reason"
