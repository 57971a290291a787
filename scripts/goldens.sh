#!/bin/sh
# Every committed artifact that pins a simulated number, each with the one
# command that regenerates it, and two verbs over the whole table:
#
#   scripts/goldens.sh check [ENTRY...]
#       Regenerate each entry into a temporary directory and compare it with
#       the committed files; list every cell that moved and exit 1 if any
#       did. SHORT=1 checks only the fast entries (matrix, bench).
#   scripts/goldens.sh rebase PR [ENTRY...]
#       Re-record in place: first the Go goldens (internal/*/testdata) in
#       one `go test -update` run, then every entry, the benchmark pair as
#       BENCH_<PR>.json / BENCH_<PR>_seed2.json. An artifact that reproduced
#       keeps its committed bytes. Prints an old -> new listing of every
#       moved cell, for the PR's CHANGES.md entry.
#
# Host-dependent fields are never compared: the wall and ns/op columns of
# results/BENCH_scale.*, and the benchmark pair's host cost (its exact
# fields are sim_digest, state_mb, virt_throughput_kops, fast_mem_pct and
# ops_failed). results/profiles/*.pb.gz are host CPU profiles, no entry.
# Needs jq.
set -eu

cd "$(dirname "$0")/.."
. scripts/named.sh
LC_ALL=C
export LC_ALL

# The table. artifacts ENTRY names the committed files (or directories) of
# ENTRY; gen_ENTRY DIR writes them under DIR at the same paths. Wall times
# are on a 2-core Xeon VM.
entries="matrix tiny fleet scale repro bench"
short_entries="matrix bench"

artifacts() {
	case "$1" in
	matrix) echo results/policy_matrix.csv results/policy_matrix.txt ;; # 15 s
	tiny) echo results/repro_tiny.sha256 ;;                              # 2.5 min
	fleet) echo results/fleet_night.csv results/fleet_night.txt ;;       # 70 s
	scale) echo results/BENCH_scale.json results/BENCH_scale.txt ;;      # 40 s
	repro) echo results/repro.sha256 results/repro ;;                    # 16 min
	bench) echo "BENCH_$bench_n.json BENCH_${bench_n}_seed2.json" ;;     # 15 s check, 4 min rebase
	esac
}

gen_matrix() {
	mkdir -p "$1/results"
	go run ./cmd/repro -exp matrix -scale tiny -csv "$1/results" >"$1/results/policy_matrix.txt"
}

# repro_set SCALE DIR runs every paper experiment at SCALE into DIR (stdout,
# csv/, svg/) and prints DIR's sha256 listing.
repro_set() {
	mkdir -p "$2"
	go run ./cmd/repro -exp all -scale "$1" -csv "$2/csv" -svg "$2/svg" >"$2/stdout.txt"
	(cd "$2" && sha256sum stdout.txt csv/* svg/*)
}
gen_tiny() {
	mkdir -p "$1/results"
	repro_set tiny "$1/tiny" >"$1/results/repro_tiny.sha256"
}
gen_repro() {
	mkdir -p "$1/results"
	repro_set repro "$1/results/repro" >"$1/results/repro.sha256"
}

gen_fleet() { go run ./cmd/repro -exp fleet -scale repro -results "$1/results" >/dev/null; }
gen_scale() { go run ./cmd/repro -exp scale -results "$1/results" >/dev/null; }

gen_bench() {
	for seed in 1 2; do
		out="$1/BENCH_$bench_n.json"
		[ "$seed" = 1 ] || out="$1/BENCH_${bench_n}_seed2.json"
		bash bench/run.sh $bench_args --seed "$seed" --out "$1/bench$seed" >/dev/null
		cp "$1/bench$seed/results.json" "$out"
	done
}

# The Go goldens: every test that compares against internal/*/testdata
# through internal/golden, in the packages that import it.
go_golden_tests='TestTwoTierGoldenRegression|TestThreeTierGoldenRegression|TestPlanShapesMatchSeedEntryPoints|TestBenchScaleGoldenCells|TestRunAllTelemetryWorkerInvariance|TestChromeTraceGolden|TestJSONLGolden|TestMetricsGoldenScrape'
go_golden_pkgs='./internal/harness ./internal/telemetry ./internal/obsv'
go_goldens() { find internal -path '*/testdata/*' -type f ! -path '*/testdata/fuzz/*' | sort; }

# view FILE prints the part of FILE that must reproduce exactly.
view() {
	case "$1" in
	*BENCH_scale.json) jq '.points |= (map({key: "\(.footprint_bytes)",
		value: del(.wall_ns, .ns_per_op)}) | from_entries)' "$1" ;;
	*BENCH_scale.txt) awk '{ $3 = ""; print }' "$1" ;;
	*BENCH_*.json) jq '{seed: .header.seed, workloads: (.workloads | map({key: .name,
		value: {sim_digest, state_mb: .end_to_end.state_mb, virt_throughput_kops:
		.end_to_end.virt_throughput_kops, fast_mem_pct: .end_to_end.fast_mem_pct,
		ops_failed}}) | from_entries)}' "$1" ;;
	*) cat "$1" ;;
	esac
}

# same A B succeeds when B reproduces A.
same() {
	if [ -d "$1" ] || [ -d "$2" ]; then
		diff -r "$1" "$2" >/dev/null 2>&1
		return
	fi
	view "$1" >"$tmp/a" 2>/dev/null && view "$2" >"$tmp/b" 2>/dev/null && cmp -s "$tmp/a" "$tmp/b"
}

# label is an awk function: it sets key to a row's leading non-numeric
# fields in brackets (its name, e.g. " (redis 2tier poison threshold)"),
# empty when there are none, and returns how many there are.
label='function label(  i) { key = ""; for (i = 1; i <= NF && $i !~ /^-?[0-9.]+(e[-+]?[0-9]+)?%?$/; i++) key = key " " $i; if (key != "") key = " (" substr(key, 2) ")"; return i - 1 }'

# cells FILE prints one "key<TAB>value" line per cell of FILE's view.
cells() {
	[ -f "$1" ] || return 0
	case "$1" in
	*.jsonl | *.prom) view "$1" | awk '{ print "line " NR "\t" $0 }' ;;
	*.json) view "$1" | jq -r 'paths(scalars) as $p | "\($p | map(tostring) | join("."))\t\(getpath($p))"' ;;
	*.csv) awk -F, "$label"'
		NR == 1 { for (i = 1; i <= NF; i++) h[i] = $i; next }
		{ n = label(); for (i = n + 1; i <= NF; i++) printf "row %d%s %s\t%s\n", NR - 1, key, h[i], $i }' "$1" ;;
	*.sha256) awk '{ print $2 "\t" $1 }' "$1" ;;
	*.svg) printf 'sha256\t%s\n' "$(sha256sum <"$1" | cut -c1-16)" ;;
	*) view "$1" | awk "$label"'
		{ n = label(); for (i = n + 1; i <= NF; i++) printf "line %d%s field %d\t%s\n", NR, key, i, $i }' ;;
	esac
}

# moved OLD NEW NAME lists every cell of NAME that differs between the OLD
# and NEW files or directories (at most 40 lines per file).
moved() {
	if [ -d "$1" ] || [ -d "$2" ]; then
		for f in $(for d in "$1" "$2"; do [ ! -d "$d" ] || (cd "$d" && find . -type f); done | sort -u); do
			f="${f#./}"
			same "$1/$f" "$2/$f" || moved "$1/$f" "$2/$f" "$3/$f"
		done
		return
	fi
	cells "$1" >"$tmp/old.cells"
	cells "$2" >"$tmp/new.cells"
	awk -F'\t' -v f="$3" -v max=40 '
		function out(s) { if (++k <= max) print f ": " s }
		FILENAME == ARGV[1] { old[$1] = $2; order[++n] = $1; next }
		{ seen[$1] = 1 }
		!($1 in old) { out($1 ": (none) -> " $2); next }
		old[$1] != $2 { out($1 ": " old[$1] " -> " $2) }
		END {
			for (i = 1; i <= n; i++) if (!(order[i] in seen)) out(order[i] ": " old[order[i]] " -> (none)")
			if (k > max) print f ": ... and " k - max " more"
		}' "$tmp/old.cells" "$tmp/new.cells"
}

newest_pair() {
	ls BENCH_*_seed2.json | sed -n 's/^BENCH_\([0-9]*\)_seed2\.json$/\1/p' | sort -n | tail -n1
}

usage() {
	echo "usage: scripts/goldens.sh check [ENTRY...] | rebase PR [ENTRY...]   (entries: $entries)" >&2
	exit 2
}

verb="${1:-}"
[ $# -gt 0 ] && shift
case "$verb" in
check) ;;
rebase)
	pr="${1:-}"
	case "$pr" in '' | *[!0-9]*) usage ;; esac
	shift
	;;
*) usage ;;
esac
picked="$*"
if [ -z "$picked" ]; then
	picked="$entries"
	[ "$verb" = check ] && [ "${SHORT:-0}" = 1 ] && picked="$short_entries"
fi
for e in $picked; do
	case " $entries " in *" $e "*) ;; *) usage ;; esac
done

bench_n="$(newest_pair)"
if [ -z "$bench_n" ] || [ ! -f "BENCH_$bench_n.json" ]; then
	echo "goldens: no committed BENCH_<n>.json / BENCH_<n>_seed2.json pair" >&2
	exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if [ "$verb" = check ]; then
	bench_args="--workload all --trace 0 --repeats 1"
	fail=0
	for e in $picked; do
		echo "== goldens: $e"
		gen_"$e" "$tmp/$e"
		for a in $(artifacts "$e"); do
			if ! same "$a" "$tmp/$e/$a"; then
				echo "goldens: $a does not reproduce; moved cells (committed -> regenerated):" >&2
				moved "$a" "$tmp/$e/$a" "$a" >&2
				fail=1
			fi
		done
	done
	[ "$fail" = 0 ] || exit 1
	echo "goldens: $picked reproduce their committed artifacts"
	exit 0
fi

# rebase: keep the old artifacts for the listing, then re-record in place.
bench_args=""
mkdir -p "$tmp/old"
for a in $(go_goldens) $(for e in $picked; do artifacts "$e"; done); do
	[ -e "$a" ] || continue
	mkdir -p "$tmp/old/$(dirname "$a")"
	cp -R "$a" "$tmp/old/$a"
done
old_goldens="$(go_goldens)"

echo "== goldens: Go goldens (-update)"
named run "$go_golden_tests" "$go_golden_pkgs" -count=1 -update
listing="$tmp/listing"
: >"$listing"
for g in $( (echo "$old_goldens"; go_goldens) | sort -u); do
	same "$tmp/old/$g" "$g" || moved "$tmp/old/$g" "$g" "$g" >>"$listing"
done

old_n="$bench_n"
bench_n="$pr"
for e in $picked; do
	echo "== goldens: $e"
	gen_"$e" "$tmp/new/$e"
	for a in $(artifacts "$e"); do
		was="$a"
		[ "$e" = bench ] && was="$(echo "$a" | sed "s/BENCH_$pr/BENCH_$old_n/")"
		# An artifact whose exact view reproduced keeps its committed
		# bytes, so host-time fields do not churn; the BENCH pair is
		# always written under the new PR's name.
		if same "$tmp/old/$was" "$tmp/new/$e/$a"; then
			[ "$e" = bench ] || continue
		else
			moved "$tmp/old/$was" "$tmp/new/$e/$a" "$a" >>"$listing"
		fi
		rm -rf "$a"
		mkdir -p "$(dirname "$a")"
		cp -R "$tmp/new/$e/$a" "$a"
	done
done

echo "== goldens: moved cells (old -> new)"
if [ -s "$listing" ]; then
	cat "$listing"
else
	echo "(none: every golden re-recorded byte for byte)"
fi
