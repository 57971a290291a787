#!/bin/sh
# Pre-merge gate: build everything, vet, run the tests with the race
# detector. Run from the repository root (or via `make check`).
#
# SHORT=1 runs the fast tier only (go test -short): the scaled harness
# integration runs are skipped, so the whole gate finishes in well under
# a minute. The default (full) tier runs every test.
set -eu

cd "$(dirname "$0")/.."

# named run|bench PATTERN PKG [FLAGS...] is `go test FLAGS -run PATTERN PKG`
# or `go test -run=NONE FLAGS -bench PATTERN PKG`, after checking that every
# |-alternative of PATTERN names a test or benchmark of PKG: go test exits 0
# when a pattern matches nothing ("no tests to run", or for -bench no word at
# all), so a renamed or deleted test would turn its gate vacuous.
named() {
	kind="$1" pattern="$2" pkg="$3"
	shift 3
	listed="$(go test -list "$pattern" "$pkg")"
	for name in $(echo "$pattern" | tr '|' ' '); do
		if ! echo "$listed" | grep -q "^$name"; then
			echo "check: '$name' names no test or benchmark in $pkg" >&2
			exit 1
		fi
	done
	case "$kind" in
	run) go test "$@" -run "$pattern" "$pkg" ;;
	bench) go test -run=NONE "$@" -bench "$pattern" "$pkg" ;;
	esac
}

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== benchmark module (bench/): build, vet, test"
# bench/ is its own module, outside ./...: an API change that breaks it must
# fail this gate, not the benchmark run.
go build -C bench -o /dev/null ./...
go vet -C bench ./...
go test -C bench ./...

if [ "${SHORT:-0}" = "1" ]; then
	echo "== go test -short -race ./..."
	go test -short -race -timeout 10m ./...
	echo "== hot-path benchmarks (smoke)"
	# One quick pass over the hot-path micro-benchmarks: catches bit-rot in
	# the page table's slot index (scan and split/collapse, at 512 pages and
	# at the 16 GiB bigmem-scan shape) and its walk at both grains, the TLB (hit, miss and evicting
	# insert at the 2/8, 2/16 and 64/1024 sizes the runs use), the LLC, the
	# Zipfian sampler's guide table (at the page counts of websearch-tlbhit
	# and bigmem-scan), request generation per app, the access path, and one
	# fleet-night run under fleet.Run's block loop. The measured numbers come
	# from `make bench` (see bench/README.md).
	named bench 'BenchmarkPT|BenchmarkWalk|BenchmarkSplit' ./internal/pagetable -benchtime=100x
	named bench 'BenchmarkLookup|BenchmarkInsert' ./internal/tlb -benchtime=100x
	named bench 'BenchmarkCache' ./internal/cache -benchtime=100x
	named bench 'BenchmarkZipfian' ./internal/rng -benchtime=100x
	named bench 'BenchmarkAppNextBatch' ./internal/workload -benchtime=100x
	named bench 'BenchmarkAccess' . -benchtime=100x
	named bench 'BenchmarkFleetNight' . -benchtime=1x
else
	echo "== go test -race ./..."
	# The harness package runs full scaled experiments; under the race
	# detector it needs well over go test's default 10m budget.
	go test -race -timeout 45m ./...
fi

echo "== trace determinism gate"
# Telemetry is recorded in virtual time, so the same seeded run must export
# byte-identical traces and metrics no matter how many workers fan the
# baseline+policy pair out. Run the short simulation serially and with 8
# workers and compare byte-for-byte.
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/thermostat-sim -app redis -scale tiny -duration 4 -workers 1 \
	-trace "$tracedir/w1.trace.json" -metrics "$tracedir/w1.metrics.jsonl" >/dev/null
go run ./cmd/thermostat-sim -app redis -scale tiny -duration 4 -workers 8 \
	-trace "$tracedir/w8.trace.json" -metrics "$tracedir/w8.metrics.jsonl" >/dev/null
cmp "$tracedir/w1.trace.json" "$tracedir/w8.trace.json"
cmp "$tracedir/w1.metrics.jsonl" "$tracedir/w8.metrics.jsonl"
# The N-tier path attaches the same recorder: both files must be written
# (and be non-empty) before they are compared.
for w in 1 8; do
	go run ./cmd/thermostat-sim -app redis -scale tiny -duration 2 -tiers dram,cxl,nvm -workers "$w" \
		-trace "$tracedir/n$w.trace.json" -metrics "$tracedir/n$w.metrics.jsonl" >/dev/null
	for f in "$tracedir/n$w.trace.json" "$tracedir/n$w.metrics.jsonl"; do
		[ -s "$f" ] || { echo "check: -tiers run wrote no $(basename "$f")" >&2; exit 1; }
	done
done
cmp "$tracedir/n1.trace.json" "$tracedir/n8.trace.json"
cmp "$tracedir/n1.metrics.jsonl" "$tracedir/n8.metrics.jsonl"
echo "traces byte-identical at -workers 1 and -workers 8 (two tiers and dram,cxl,nvm)"

echo "== policy matrix smoke gate"
# One abbreviated run per tracker × policy cell (TestMatrixSmoke at its
# short-mode duration), then the golden byte-identity pins: the composed
# poison+threshold engine must still replay the seed Thermostat's trace and
# metrics exports byte-for-byte.
named run 'TestMatrixSmoke' ./internal/harness -short -count=1
named run 'TestRunAllTelemetryWorkerInvariance|TestComposedThermostatMatchesSeedEngine' \
	./internal/harness -count=1
# And the committed matrix: all 32 tracker x policy x topology x app cells
# at tiny scale regenerate results/policy_matrix.csv byte for byte.
go run ./cmd/repro -exp matrix -scale tiny -csv "$tracedir/matrix" >/dev/null
cmp "$tracedir/matrix/policy_matrix.csv" results/policy_matrix.csv
echo "matrix: all tracker x policy cells run; seed composition and committed matrix byte-identical"

if [ "${SHORT:-0}" != "1" ]; then
	echo "== repro table gate"
	# Every experiment of the paper's evaluation at tiny scale: stdout and
	# every -csv/-svg file must match results/repro_tiny.sha256 byte for
	# byte (about 2.5 minutes on two cores).
	mkdir "$tracedir/repro"
	go run ./cmd/repro -exp all -scale tiny -csv "$tracedir/repro/csv" -svg "$tracedir/repro/svg" \
		>"$tracedir/repro/stdout.txt"
	(cd "$tracedir/repro" && sha256sum --quiet -c -) <results/repro_tiny.sha256
	echo "repro: stdout, CSVs and SVGs byte-identical to results/repro_tiny.sha256"
fi

echo "== chaos gates"
# Inertness: -chaos-rate 0 must be byte-identical to a run without any
# chaos flags, even with a seed and permanent fraction configured — the
# zero-rate config installs no injector at all.
go run ./cmd/thermostat-sim -app redis -scale tiny -duration 4 -workers 1 \
	-chaos-rate 0 -chaos-seed 7 -chaos-permanent 1 \
	-trace "$tracedir/c0.trace.json" -metrics "$tracedir/c0.metrics.jsonl" >/dev/null
cmp "$tracedir/w1.trace.json" "$tracedir/c0.trace.json"
cmp "$tracedir/w1.metrics.jsonl" "$tracedir/c0.metrics.jsonl"
# Survival + reproducibility: a seeded run with permanent migration
# failures must complete under the race detector and export byte-identical
# files at any worker count.
go run -race ./cmd/thermostat-sim -app cassandra -scale tiny -duration 6 -workers 1 \
	-chaos-rate 0.3 -chaos-permanent 0.5 -chaos-seed 7 \
	-trace "$tracedir/cw1.trace.json" -metrics "$tracedir/cw1.metrics.jsonl" >/dev/null
go run -race ./cmd/thermostat-sim -app cassandra -scale tiny -duration 6 -workers 8 \
	-chaos-rate 0.3 -chaos-permanent 0.5 -chaos-seed 7 \
	-trace "$tracedir/cw8.trace.json" -metrics "$tracedir/cw8.metrics.jsonl" >/dev/null
cmp "$tracedir/cw1.trace.json" "$tracedir/cw8.trace.json"
cmp "$tracedir/cw1.metrics.jsonl" "$tracedir/cw8.metrics.jsonl"
echo "chaos: rate-0 inert, seeded faults survive and reproduce at any worker count"

echo "== fleet smoke gate"
# Multi-tenant arbitration: the arbiter's property tests (grants sum
# exactly to the pool, floors honored, oversubscription rejected), the
# degenerate differential (a single-tenant fleet replays the solo run
# bit-for-bit, traces included), and one two-tenant CLI run end-to-end.
named run 'TestArbitrate' ./internal/fleet -count=1
named run 'TestFleetSingleTenantMatchesRunComposed' ./internal/harness -count=1
go run ./cmd/thermostat-sim -tenants redis,web-search -scale tiny -duration 4 \
	-slowdown 5 >/dev/null
echo "fleet: arbiter invariants hold; single-tenant fleet is bit-identical to solo"

echo "== scaling gate"
# A scale point runs the paper's mechanism: sampled pages grow with the
# footprint and pages are demoted (the full 1 GB -> 1 TB sweep is
# `repro -exp scale`), and the sweep cell still benchmarks.
named run 'TestScalePointRunsThermostat' ./internal/harness -count=1 -short
named bench 'BenchmarkScalePoint' ./internal/harness -benchtime=1x

echo "== observability gate"
# Live plane: mid-run /metrics satisfies the strict parser, /status and
# /healthz answer in flight, json logs are machine-parseable, and exports
# stay byte-identical with -serve attached (see scripts/obsv_gate.sh).
named run 'TestServeScrapeMidRun|TestMetricsGoldenScrape|TestTeeForwardsExactly' ./internal/obsv -count=1
./scripts/obsv_gate.sh

echo "== daemon gate"
# Supervised lifecycle: reload-vs-cold-start and checkpoint/restore
# differentials at test level, then thermostatd against real processes and
# signals — SIGHUP reload mid-run, /status walking the degradation ladder
# under forced chaos, SIGTERM exit 0, kill -9 + restart restoring exports
# byte-identical to an uninterrupted run (see scripts/daemon_gate.sh).
named run 'TestReloadVsColdStart|TestCheckpointRestoreBitIdentity|TestQuarantineOnlyUnderChaos|TestHaltLadder' \
	./internal/daemon -count=1
./scripts/daemon_gate.sh

echo "check: OK"
