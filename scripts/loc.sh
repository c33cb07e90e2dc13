#!/bin/sh
# loc.sh — counts non-test Go source, the numbers in DESIGN.md §3's
# "Code size" table. For every package under internal/ and cmd/ it prints:
#   lines  wc -l over the package's non-_test.go files (testdata excluded)
#   code   the same lines minus blank lines and lines that are only a //
#          comment
# and then the totals over internal/ + cmd/ + examples/. It reports and
# never gates: the exit status is 0 whatever the counts.
#
# Usage: scripts/loc.sh [tree]   (tree defaults to this checkout's root;
# pass another checkout to count it the same way)
set -eu
root=${1:-"$(dirname "$0")/.."}
cd "$root"

# count prints "lines code" for the non-test .go files under the given
# directories, testdata excluded.
count() {
	find "$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -type f -print0 |
		xargs -0 -r cat |
		awk '{ n++ } !/^[ \t]*$/ && !/^[ \t]*\/\// { c++ } END { printf "%d %d\n", n, c }'
}

printf '%-24s %7s %7s\n' package lines code
for d in internal/*/ cmd/*/; do
	d=${d%/}
	set -- $(count "$d")
	printf '%-24s %7d %7d\n' "$d" "$1" "$2"
done
set -- $(count internal cmd examples)
printf '%-24s %7d %7d\n' 'internal+cmd+examples' "$1" "$2"
