#!/bin/sh
# Count non-test Go lines per package and in total, outside bench/ (its own
# module). This is the line count ROADMAP item 2's rule refers to.
#
# Usage: sh scripts/loc.sh [ROOT]    (ROOT defaults to the repository root)
set -eu
root=${1:-$(dirname "$0")/..}
cd "$root"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' \
	-exec wc -l {} + |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		lines[dir] += $1; total += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d
		printf "%7d  total\n", total
	}' | sort -k2,2 | awk '$2 != "total"; $2 == "total" { t = $0 } END { print t }'
