#!/bin/sh
# Digest gate (called by scripts/check.sh, both tiers): the benchmark's
# workloads, run once each at seeds 1 and 2, must reproduce the newest
# committed BENCH_<n>.json / BENCH_<n>_seed2.json pair exactly: every
# sim_digest, every exact end-to-end metric (state_mb, virt_throughput_kops,
# fast_mem_pct) and the failed-op count. Host cost is not compared; it only
# means something against a run on the same host (`bench/run.sh -diff`).
set -eu

cd "$(dirname "$0")/.."

n="$(ls BENCH_*_seed2.json | sed -n 's/^BENCH_\([0-9]*\)_seed2\.json$/\1/p' | sort -n | tail -n1)"
if [ -z "$n" ] || [ ! -f "BENCH_$n.json" ]; then
	echo "digest gate: no committed BENCH_<n>.json / BENCH_<n>_seed2.json pair" >&2
	exit 1
fi

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

# exact FILE prints the result file's seed, then one line per workload: its
# name, sim_digest, exact metrics and failed ops.
exact() {
	jq -r '"seed \(.header.seed)", (.workloads[] | [.name, .sim_digest,
		.end_to_end.state_mb, .end_to_end.virt_throughput_kops,
		.end_to_end.fast_mem_pct, .ops_failed] | @tsv)' "$1"
}

for seed in 1 2; do
	want="BENCH_$n.json"
	[ "$seed" = 1 ] || want="BENCH_${n}_seed$seed.json"
	bash bench/run.sh --workload all --trace 0 --repeats 1 --seed "$seed" \
		--out "$dir/seed$seed" >/dev/null
	exact "$want" >"$dir/want$seed.tsv"
	exact "$dir/seed$seed/results.json" >"$dir/got$seed.tsv"
	if ! diff -u "$dir/want$seed.tsv" "$dir/got$seed.tsv"; then
		echo "digest gate: the seed-$seed run differs from $want" >&2
		exit 1
	fi
done
echo "digest gate: seeds 1 and 2 reproduce BENCH_$n.json and BENCH_${n}_seed2.json"
