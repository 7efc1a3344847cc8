#!/bin/sh
# benchdiff.sh — compare a fresh benchjson summary against a committed
# baseline, key by key. Every numeric key is simulated and so
# deterministic: each fresh value must equal its baseline exactly, and
# any drift fails the gate so a perf or timing regression cannot land
# silently. Wall-clock values are strings, which are not compared. An
# intentional model change re-baselines by committing the new file.
#
# Usage: benchdiff.sh baseline.json fresh.json
#
# Both files must contain the same numeric keys in the same order
# (encoding/json emits map keys sorted and struct fields in order, so
# the sequence is stable). Exits non-zero with one line per violation.
set -eu

if [ $# -ne 2 ]; then
	echo "usage: benchdiff.sh baseline.json fresh.json" >&2
	exit 2
fi
base=$1
fresh=$2

if [ ! -f "$base" ]; then
	echo "benchdiff: baseline $base missing (commit one from a trusted run)" >&2
	exit 1
fi
if [ ! -f "$fresh" ]; then
	echo "benchdiff: fresh summary $fresh missing" >&2
	exit 1
fi

awk -v base="$base" '
# Collect `"key": <number>` lines from each file in order. String
# values ("experiment": "trace") never match and are ignored.
{
	line = $0
	sub(/^[ \t]+/, "", line)
	sub(/[, \t]+$/, "", line)
	if (line !~ /^"[A-Za-z0-9_.]+": *-?[0-9]/)
		next
	key = line
	sub(/^"/, "", key)
	sub(/".*$/, "", key)
	val = line
	sub(/^"[^"]*": */, "", val)
	if (FILENAME == base) {
		bkey[++nb] = key
		bval[nb] = val
	} else {
		fkey[++nf] = key
		fval[nf] = val
	}
}
function fail(msg) {
	print "benchdiff: " msg > "/dev/stderr"
	bad = 1
}
END {
	if (nb == 0)
		fail("no numeric keys in baseline " base)
	if (nb != nf)
		fail(sprintf("key count differs: baseline has %d, fresh has %d", nb, nf))
	n = nb < nf ? nb : nf
	for (i = 1; i <= n; i++) {
		if (bkey[i] != fkey[i]) {
			fail(sprintf("key sequence diverges at #%d: baseline %s, fresh %s",
				i, bkey[i], fkey[i]))
			break
		}
		if (fval[i] + 0 != bval[i] + 0)
			fail(sprintf("%s: baseline %s, fresh %s", bkey[i], bval[i], fval[i]))
	}
	if (bad)
		exit 1
	printf "benchdiff: %d keys equal to %s\n", n, base
}
' "$base" "$fresh"
