#!/usr/bin/env bash
# Census: which functions, and which blocks inside the functions that
# run, does no program run?
#
#   bash scripts/census.sh           (or: make census)
#   bash scripts/census.sh -blocks   (or: make census-blocks)
#
# Builds every program — the commands, the five examples and the
# end-to-end benchmark harness — with coverage over approxcache/..., runs
# each through the fixed script below, and reads the coverage twice.
#
# Functions: every function outside cmd/, examples/ and benchmarks/ that
# no run entered, as "file func" (no line numbers, so edits elsewhere do
# not churn it). A package no program links at all is one "dir *" line.
# The list must match the reviewed reasons: testdata/knobs/unreached.txt
# ("file func reason" per line) plus testdata/knobs/test-only-funcs.txt,
# whose "pkg.Name" lines stand for themselves and are not repeated. The
# census fails, printing what differs, when an unreached function has no
# line, when a line names a function that now runs or no longer exists,
# or when a line gives no reason. A line whose reason begins "CPU path:"
# names a function that runs on some hosts and not on others (a Go
# fallback of an assembly kernel, the Go side of an AVX2 kernel, an
# architecture's stub): it passes reached or not, so the census gives
# the same verdict on every host.
#
# Blocks: a function that ran once, on any path, counts as reached, so
# the function list cannot see a branch no program takes inside it. The
# block census keys every coverage block by file, enclosing function and
# first statement, "file func `statement`" (a statement that occurs
# again in the same function gets " #2", " #3", … in source order), and
# lists the blocks no run executed inside functions that did run;
# functions that never ran are the function list's. In every package
# but those of $ungated — the root package and any package added later
# included — the list must match testdata/knobs/unreached-blocks.txt, one
# "file func `statement` reason" per block, on the same rules: a block
# with no line, a line for a block that now runs or no longer exists, or
# a line without a reason fails. A reason that begins "CPU path:" (a
# branch taken on some hosts only) or "Run-dependent:" (a branch that
# goroutine timing takes on some runs only) passes executed or not, as
# long as its block exists. -blocks also prints the report: statements
# and unexecuted statements per package, then every listed block.
set -euo pipefail

GO=${GO:-go}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
reasons=$root/testdata/knobs/unreached.txt
testonly=$root/testdata/knobs/test-only-funcs.txt
blockreasons=$root/testdata/knobs/unreached-blocks.txt
# The packages whose unexecuted blocks need no reason line; every other
# package's must each have one.
ungated="internal/p2p"
report=
if [ "${1-}" = -blocks ]; then report=1; fi

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
step approxbench -frames 300 -parallel 2
step approxbench -exp E23 -json BENCH_quality.json
step benchgate BENCH_quality.json
for w in device-video photo-lookup photo-churn peer-mesh pool-serve; do
	for t in 0 1; do
		step e2e -workload "$w" -trace "$t" -seconds 1
	done
done
step cachenode -frames 300 -sessions 4 -batch 4 -snapshot node.snap
step cachenode -frames 300 -snapshot node.snap

# Two nodes on loopback: the first listens on a port of its own choosing,
# the second peers with the address the first prints, then the first is
# interrupted (it writes its coverage on the way out). The second runs
# under a request deadline shorter than its peer budget (a quarter of
# the model's 120 ms), so the deadline is what bounds its peer queries.
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
step cachenode -name b -peers "$addr" -seed 2 -deadline 20ms
kill -INT "$server"
wait "$server"
server=

for ex in crowd livepeers quickstart videostream warmstart; do
	step "$ex"
done

# Every function of the module's packages, as "file line func count%"
# with the module prefix and the pointer star of a receiver stripped.
$GO tool covdata func -i="$GOCOVERDIR" |
	awk '$1 ~ /^approxcache\// {
		split($1, at, ":"); file = at[1]; sub(/^approxcache\//, "", file)
		fn = $2; sub(/^\*/, "", fn)
		print file, at[2], fn, $NF
	}' | sort -k1,1 -k2,2n >funcs-at.txt
awk '{ print $1, $3, $4 }' funcs-at.txt >funcs.txt
{
	# Functions no run entered.
	awk '$3 == "0.0%" && $1 !~ /^(cmd|examples|benchmarks)\// { print $1, $2 }' funcs.txt
	# Packages no program links.
	awk '{ if (!sub(/\/[^\/]*$/, "", $1)) $1 = "."; print $1 }' funcs.txt | sort -u >linked.txt
	(cd "$root" && $GO list -f '{{.Dir}}' ./...) |
		sed "s|^$root/||; s|^$root\$|.|" | grep -Ev '^(cmd|examples)(/|$)' | sort |
		comm -23 - linked.txt | sed 's/$/ */'
} | sort >unreached.txt

# A "CPU path:" line passes whether or not its function ran, so check
# here that the function is still declared where the line says.
while read -r file fn _; do
	if [[ $fn == *.* ]]; then
		decl="^func \([^)]*[* ]${fn%%.*}(\[[^]]*\])?\) ${fn#*.}[(\[]"
	else
		decl="^func $fn[(\[]"
	fi
	if ! grep -Eq "$decl" "$root/$file" 2>/dev/null; then
		echo "census: ${reasons#"$root/"} names $file $fn, which is not declared there" >&2
		exit 1
	fi
done < <(awk '$3 == "CPU" && $4 == "path:"' "$reasons")

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
		if ($3 == "CPU" && $4 == "path:") hostdep[key] = 1
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
		for (key in listed) if (!(key in found) && !(key in hostdep)) stale = stale "\n  " key
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
	failed=1
}

# Every coverage block outside cmd/, examples/ and benchmarks/, one
# tab-separated line each: package, statements, executed (0 or 1),
# whether its enclosing function ran, and its key. The enclosing
# function is the last one declared at or before the block; the first
# statement is the block's first source line that is not blank or a
# comment, with a trailing comment, spacing and any opening brace
# trimmed.
$GO tool covdata textfmt -i="$GOCOVERDIR" -o profile.txt
tail -n +2 profile.txt | sed 's/^approxcache\///; s/:\([0-9]*\)\.\([0-9]*\),[0-9.]* / \1 \2 /' |
	awk '$1 !~ /^(cmd|examples|benchmarks)\//' | sort -k1,1 -k2,2n -k3,3n >profile.sorted
awk -v root="$root" -v q="'" '
	FILENAME == ARGV[1] { n = ++nf[$1]; fline[$1, n] = $2 + 0; fname[$1, n] = $3; fran[$1, n] = ($4 != "0.0%"); next }
	{
		file = $1; line = $2 + 0; col = $3 + 0
		if (!(file in loaded)) {
			loaded[file] = 1; k = 0
			while ((getline src < (root "/" file)) > 0) text[file, ++k] = src
			close(root "/" file)
		}
		for (i = 1; i < nf[file] && fline[file, i + 1] <= line; i++) {}
		stmt = ""
		for (l = line; stmt == "" && (file, l) in text; l++) {
			t = text[file, l]
			if (l == line) t = substr(t, col)
			sub(/^[ \t{]+/, "", t); sub(/[ \t]+\/\/.*$/, "", t); sub(/[ \t]+$/, "", t)
			if (t !~ /^\/\//) stmt = t
		}
		gsub(/[ \t]+/, " ", stmt); gsub(/`/, q, stmt)
		key = file " " fname[file, i] " `" stmt "`"
		if (++seen[key] > 1) key = key " #" seen[key]
		pkg = file; if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
		print pkg "\t" $4 "\t" ($5 > 0) "\t" fran[file, i] "\t" key
	}
' funcs-at.txt profile.sorted >blocks.txt

if [ -n "$report" ]; then
	echo "census-blocks: statements by package, and those no program runs (outside cmd/, examples/, benchmarks/)"
	printf '  %-22s %10s %10s %22s\n' package statements unexecuted "in reached functions"
	awk -F '\t' -v ungated=" $ungated " '
		{ total[$1] += $2 }
		!$3 { un[$1] += $2 }
		!$3 && $4 { inr[$1] += $2; blk[$1]++ }
		END {
			for (p in total) printf "  %-22s %10d %10d %12d (%d blocks)%s\n", p, total[p], un[p], inr[p], blk[p],
				index(ungated, " " p " ") ? "" : "  gated"
		}
	' blocks.txt | sort
	awk -F '\t' '
		{ t += $2 }
		!$3 { u += $2; ub++ }
		!$3 && $4 { ir += $2; ib++ }
		END {
			printf "  %-22s %10d %10d %12d (%d blocks)\n", "module", t, u, ir, ib
			printf "  %.1f %% of statements unexecuted, in %d blocks\n", 100 * u / t, ub
		}
	' blocks.txt
	echo "census-blocks: unexecuted blocks inside functions that ran"
	awk -F '\t' '!$3 && $4 { print "  " $5 }' blocks.txt
fi

# Compare the gated packages' unexecuted blocks with their reasons. The
# awk reads the reason lines, then the blocks; every disagreement is one
# printed line.
awk -F '\t' -v ungated=" $ungated " -v reasons="${blockreasons#"$root/"}" '
	FILENAME == ARGV[1] {
		if (!NF) next
		end = index($0, "` "); if (!end) end = length($0)
		key = substr($0, 1, end); rest = substr($0, end + 1)
		if (match(rest, /^ #[0-9]+/)) { key = key substr(rest, 1, RLENGTH); rest = substr(rest, RLENGTH + 1) }
		sub(/^[ \t]+/, "", rest)
		if (rest == "") bad = bad "\n  " key
		if (key in listed) bad = bad "\n  " key " (listed twice)"
		listed[key] = 1
		if (rest ~ /^(CPU path|Run-dependent):/) either[key] = 1
		next
	}
	index(ungated, " " $1 " ") { next }
	{ exists[$5] = 1 }
	!$3 && $4 {
		found[$5] = 1; count++
		if (!($5 in listed)) missing = missing "\n  " $5
	}
	END {
		for (key in listed) {
			if (key in either ? !(key in exists) : !(key in found)) stale = stale "\n  " key
		}
		fail = 0
		if (missing != "") { print "census: unexecuted blocks, with no reason in " reasons ":" missing; fail = 1 }
		if (stale != "") { print "census: listed in " reasons ", but executed or gone:" stale; fail = 1 }
		if (bad != "") { print "census: lines in " reasons " without a reason:" bad; fail = 1 }
		print count + 0 >"blockcount"
		exit fail
	}
' "$blockreasons" blocks.txt || failed=1

if [ -n "${failed-}" ]; then exit 1; fi
echo "census: $(wc -l <unreached.txt) unreached functions, each with a reason; $(cat blockcount) unexecuted blocks in every package but $ungated, each with a reason"
