#!/usr/bin/env bash
# Runs paired parent/change measurements for compare mode, alternating which
# side runs first, and writes one result line per run to OUT/parent/ and
# OUT/change/ (<workload>.jsonl). Both checkouts must hold the same
# BENCHMARK.json and benchmark/ directory, so both sides are measured by
# identical code, for the run length in BENCHMARK.json's run_seconds.
#
#   bash benchmark/pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT OUT [PAIRS] [SEED] [WORKLOAD...]
#   bash benchmark/run.sh compare --parent OUT/parent --change OUT/change
#
# Pair i runs seed SEED+i on both sides (default SEED 1, 10 pairs, every
# workload).
set -euo pipefail

parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$3
pairs=${4:-10}
seed=${5:-1}
shift $(($# < 5 ? $# : 5))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(boot select dissem faults)
fi
run_seconds() { sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$1/BENCHMARK.json"; }
seconds=$(run_seconds "$parent")
if [ -z "$seconds" ] || [ "$seconds" != "$(run_seconds "$change")" ]; then
	echo "pairs.sh: no run_seconds in $parent/BENCHMARK.json, or $change differs" >&2
	exit 2
fi
mkdir -p "$out/parent" "$out/change"

one() { # side checkout workload seed
	(cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) |
		tail -n 1 >>"$out/$1/$3.jsonl"
}

for ((i = 0; i < pairs; i++)); do
	for w in "${workloads[@]}"; do
		s=$((seed + i))
		if ((i % 2 == 0)); then
			one parent "$parent" "$w" "$s"
			one change "$change" "$w" "$s"
		else
			one change "$change" "$w" "$s"
			one parent "$parent" "$w" "$s"
		fi
	done
done
