#!/usr/bin/env bash
# Paired loop-benchmark runs of two checkouts, the way a performance claim is
# read in this repo (bench/README.md, "measurement rules"): the parent and the
# change run bench/run.sh alternately — whoever went second goes first in the
# next pair, each pair on a fresh seed — and per gated metric the two sides'
# medians with quartiles and the pairs the change won are printed.
#
#   scripts/pairbench.sh PARENT_DIR CHANGE_DIR WORKLOADS PAIRS [FIRST_SEED]
#
# WORKLOADS is one workload name, several separated by commas, or "all" for
# every workload CHANGE_DIR's BENCHMARK.json declares: they run one after the
# other on the same seeds, and each prints its own table when its last pair
# is done. Both directories are checkouts of this repository (git clone or git
# archive, not a worktree sharing bench/out). Nothing is written outside each
# checkout's git-ignored bench/out/: the builds and results.jsonl that run.sh
# leaves there, plus one pairbench-WORKLOAD.tsv per side with every run made.
# The gated metrics and which way is better come from CHANGE_DIR's
# BENCHMARK.json. A run that exits non-zero (oracle mismatch) stops the
# script. ~35 s per run, so ten pairs of one workload are about twelve
# minutes.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD[,WORKLOAD...]|all PAIRS [FIRST_SEED]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
first=${5:-101}

# A list of workloads is this script once per workload.
if [ "$workload" = all ]; then
	workload=$(awk '
		/"workloads"/ { on = 1; next }
		on && /\]/    { exit }
		on { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name); printf "%s,", name }' "$change/BENCHMARK.json")
	workload=${workload%,}
fi
case $workload in *,*)
	for w in ${workload//,/ }; do
		bash "$0" "$parent" "$change" "$w" "$pairs" "$first"
	done
	exit ;;
esac

# "name better" per end-to-end metric, from the end_to_end array.
gated=$(awk '
	/"end_to_end"/ { on = 1; next }
	on && /\]/     { exit }
	on {
		name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
		better = $0; sub(/.*"better": *"/, "", better); sub(/".*/, "", better)
		print name, better
	}' "$change/BENCHMARK.json")
[ -n "$gated" ] || { echo "pairbench: no end_to_end metrics in $change/BENCHMARK.json" >&2; exit 1; }

# one_run SIDE DIR SEED appends "seed metric value" rows for the gated
# metrics, plus the run's failed count, to that side's table.
one_run() {
	local side=$1 dir=$2 seed=$3 out
	echo "pairbench: $workload $side seed $seed" >&2
	out=$(bash "$dir/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 24 --trace 0)
	printf '%s\n' "$out" | awk -v seed="$seed" -v wl="$workload" -v gated="$(echo $gated)" '
		BEGIN { n = split(gated, g, " "); for (i = 1; i < n; i += 2) want[g[i]] = 1 }
		$1 == wl && ($2 in want) { print seed "\t" $2 "\t" $3 }
		/^\{/ { failed = $0; sub(/.*"failed": */, "", failed); sub(/[^0-9].*/, "", failed)
		        print seed "\tfailed\t" failed }' >>"$dir/bench/out/pairbench-$workload.tsv"
}

mkdir -p "$parent/bench/out" "$change/bench/out"
: >"$parent/bench/out/pairbench-$workload.tsv"
: >"$change/bench/out/pairbench-$workload.tsv"
for ((i = 0; i < pairs; i++)); do
	seed=$((first + i))
	if ((i % 2 == 0)); then
		one_run parent "$parent" "$seed"
		one_run change "$change" "$seed"
	else
		one_run change "$change" "$seed"
		one_run parent "$parent" "$seed"
	fi
done

echo "workload $workload, $pairs pairs, seeds $first..$((first + pairs - 1)); median [q1, q3]; ties count for neither side"
printf '%s\n' "$gated" | while read -r name better; do
	awk -F'\t' -v name="$name" -v better="$better" '
		function quantile(v, n, q,    h, lo) {   # linear interpolation between order statistics
			h = (n - 1) * q + 1; lo = int(h)
			return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
		}
		function sorted(src, dst,    n, i, j, t) {
			n = 0; for (i in src) dst[++n] = src[i] + 0
			for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
			return n
		}
		$2 == name { if (FILENAME == ARGV[1]) p[$1] = $3; else c[$1] = $3 }
		END {
			for (s in p) if (s in c) {
				if (c[s] == p[s]) continue
				if ((better == "higher") == (c[s] + 0 > p[s] + 0)) won++; else lost++
			}
			np = sorted(p, ps); nc = sorted(c, cs)
			printf "%-26s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  ratio %.3f  change won %d, lost %d (%s is better)\n",
				name, quantile(ps, np, .5), quantile(ps, np, .25), quantile(ps, np, .75),
				quantile(cs, nc, .5), quantile(cs, nc, .25), quantile(cs, nc, .75),
				quantile(cs, nc, .5) / quantile(ps, np, .5), won, lost, better
		}' "$parent/bench/out/pairbench-$workload.tsv" "$change/bench/out/pairbench-$workload.tsv"
done
for side in parent change; do
	dir=$parent; [ "$side" = change ] && dir=$change
	awk -F'\t' -v side="$side" '$2 == "failed" { sum += $3; n++ } END { printf "%s: %d runs, all correct, %d failed operations\n", side, n, sum }' \
		"$dir/bench/out/pairbench-$workload.tsv"
done
echo "every run: {PARENT_DIR,CHANGE_DIR}/bench/out/pairbench-$workload.tsv (seed, metric, value)"
