#!/bin/sh
# Pre-merge gate: build everything, vet, run the tests with the race
# detector. Run from the repository root (or via `make check`).
#
# SHORT=1 runs the fast tier only (go test -short): the scaled harness
# integration runs are skipped, and scripts/goldens.sh checks only its fast
# entries (the policy matrix and the benchmark pair), so the whole gate
# finishes in a few minutes. The default (full) tier runs every test and
# checks every committed artifact. FUZZ=1 (either tier) adds the fuzz smoke:
# every fuzz target for 10 s.
set -eu

cd "$(dirname "$0")/.."

. scripts/named.sh

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l"
# Every tracked Go file, bench/ included, is gofmt-clean.
unformatted="$(git ls-files '*.go' | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== surface gate"
# Every exported name in internal/ has a non-test caller outside its package
# (bench/ counts) or sits on the allowlist, which may only shrink, and
# internal/ holds at most 25 packages. Every exported method in internal/
# has a non-test caller outside its package, or an interface that non-test
# code declares or calls through needs it, or it sits on the method
# allowlist, which may only shrink; methods only tests call live in
# export_test.go. Through named, so a renamed test fails the gate instead of
# matching nothing.
named run 'TestExportedNamesHaveOutsideCallers|TestExportedMethodsHaveCallers' . -count=1

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
	# insert at the sizes the runs use: 2/8 runs the set form, 2/16 and
	# 64/1024 the index form), the LLC, the
	# Zipfian sampler's guide table (draws and the bisection build, at the
	# page counts of websearch-tlbhit and bigmem-scan), request generation
	# per app, the access path, the Chrome-trace writer on a daemon-sized
	# collector, and the two callers of sim.Scheduler's block loop: one solo
	# redis run under sim.Run, bare and with a Recorder, and one fleet-night
	# run under fleet.Run, each at GOMAXPROCS 1 and 2, so the path where the
	# producer that draws blocks ahead shares the one P with the simulation
	# runs on every push, telemetry on and off. The measured numbers come
	# from `make bench` (see bench/README.md).
	named bench 'BenchmarkPT|BenchmarkWalk|BenchmarkSplit' ./internal/pagetable -benchtime=100x
	named bench 'BenchmarkLookup|BenchmarkInsert' ./internal/tlb -benchtime=100x
	named bench 'BenchmarkCache' ./internal/cache -benchtime=100x
	named bench 'BenchmarkZipfian' ./internal/rng -benchtime=100x
	named bench 'BenchmarkAppNextBatch' ./internal/workload -benchtime=100x
	named bench 'BenchmarkAccess' . -benchtime=100x
	named bench 'BenchmarkWriteChromeTrace' ./internal/telemetry -benchtime=10x
	named bench 'BenchmarkRunRedis$|BenchmarkRunRedisRecorded' . -benchtime=1x -cpu 1,2
	named bench 'BenchmarkFleetNight' . -benchtime=1x -cpu 1,2
	# One pass of every paper figure and table benchmark (the fourteen
	# BenchmarkFig*/BenchmarkTable* in internal/harness, about 30 s on two
	# cores), so a figure whose run no longer builds or completes fails here.
	named bench 'BenchmarkFig|BenchmarkTable' ./internal/harness -benchtime=1x
else
	echo "== go test -race ./..."
	# The harness package runs full scaled experiments; under the race
	# detector it needs well over go test's default 10m budget.
	go test -race -timeout 45m ./...
	echo "== go test -C bench -race ./..."
	# The benchmark's traced runs wrap the app, the policies and the
	# Recorder in decorators that share one tracer: the race detector
	# catches any of them running on the Scheduler's producer beside the
	# access path (about 90 s).
	go test -C bench -race ./...
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
echo "matrix: all tracker x policy cells run; seed composition byte-identical"

echo "== shared-run gate"
# One repro invocation simulates each identical arm once: table3 run after
# fig11, which plans the same redis baseline and 3% Thermostat arm, must
# write the same CSV as table3 run alone.
go run ./cmd/repro -exp table3 -scale tiny -apps redis -csv "$tracedir/alone" >/dev/null
go run ./cmd/repro -exp fig11,table3 -scale tiny -apps redis -csv "$tracedir/shared" >/dev/null
cmp "$tracedir/alone/table3.csv" "$tracedir/shared/table3.csv"
echo "shared runs: table3 byte-identical alone and after fig11"

echo "== goldens gate"
# Every committed artifact that pins a simulated number is regenerated and
# compared (scripts/goldens.sh): the short tier checks the tiny-scale policy
# matrix and the benchmark pair's sim_digest and exact metrics at seeds 1
# and 2 (about 40 s); the full tier adds the tiny- and repro-scale paper
# experiments, the fleet night and the scaling sweep (about 14 minutes on
# two cores).
./scripts/goldens.sh check

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

if [ "${FUZZ:-0}" = "1" ]; then
	echo "== fuzz smoke"
	# Ten seconds per target: leaf index, packed page table vs [512]Entry
	# table, TLB vs map LRU, LLC vs 64-bit tags, Zipfian vs Pow, request
	# path vs reference App, fleet arbiter, fleet blocks vs per-op, daemon
	# config, Chrome trace vs json.Marshal. Through named, so a renamed
	# target fails instead of fuzzing nothing.
	named fuzz FuzzLeafIndex ./internal/pagetable -fuzztime 10s
	named fuzz FuzzTableVsRef ./internal/pagetable -fuzztime 10s
	named fuzz FuzzTLBVsMapLRU ./internal/tlb -fuzztime 10s
	named fuzz FuzzCacheVsRef ./internal/cache -fuzztime 10s
	named fuzz FuzzZipfianVsPow ./internal/rng -fuzztime 10s
	named fuzz FuzzAppVsRef ./internal/workload -fuzztime 10s
	named fuzz FuzzFleetArbiter ./internal/fleet -fuzztime 10s
	named fuzz FuzzFleetRunVsPerOp ./internal/fleet -fuzztime 10s
	named fuzz FuzzDaemonConfig ./internal/daemon -fuzztime 10s
	named fuzz FuzzChromeTraceVsMarshal ./internal/telemetry -fuzztime 10s
fi

echo "check: OK"
