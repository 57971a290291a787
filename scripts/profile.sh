#!/bin/sh
# Capture CPU and allocation profiles of a seeded thermostat-sim run through
# the CLI's -serve debug server, writing pprof protos under results/profiles/
# as cpu-<app>.pb.gz and allocs-<app>.pb.gz.
# View them with: go tool pprof -http=: results/profiles/cpu-redis.pb.gz
#
# Usage: scripts/profile.sh [app] [scale] [cpu-profile-seconds]
#   app    application model (default redis; see thermostat-sim -list)
#   scale  tiny | bench | repro (default bench)
#   secs   CPU profile duration in wall seconds (default 10)
set -eu

cd "$(dirname "$0")/.."

APP="${1:-redis}"
SCALE="${2:-bench}"
SECS="${3:-10}"
ADDR="localhost:${PPROF_PORT:-6060}"
OUT=results/profiles
mkdir -p "$OUT"
# pprof keeps a copy of every profile it fetches; not in $HOME/pprof.
export PPROF_TMPDIR="$OUT/.pprof-tmp"

# Build first so `go run` startup doesn't eat into the profile window.
go build -o "$OUT/.thermostat-sim" ./cmd/thermostat-sim

# A long simulated duration keeps the process alive while profiles stream;
# the run is killed once both captures finish.
"$OUT/.thermostat-sim" -app "$APP" -scale "$SCALE" -duration 3600 \
	-serve "$ADDR" >/dev/null 2>&1 &
SIM=$!
trap 'kill "$SIM" 2>/dev/null || true; rm -rf "$OUT/.thermostat-sim" "$PPROF_TMPDIR"' EXIT

# Wait for the debug server to come up.
i=0
until go tool pprof -proto -output=/dev/null "http://$ADDR/debug/pprof/heap" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && { echo "profile.sh: debug server never came up on $ADDR" >&2; exit 1; }
	sleep 0.2
done

echo "== ${SECS}s CPU profile ($APP at $SCALE scale)"
go tool pprof -proto -seconds "$SECS" -output "$OUT/cpu-$APP.pb.gz" \
	"http://$ADDR/debug/pprof/profile" >/dev/null
echo "== allocation profile"
go tool pprof -proto -output "$OUT/allocs-$APP.pb.gz" \
	"http://$ADDR/debug/pprof/allocs" >/dev/null

echo "profiles written:"
ls -l "$OUT/cpu-$APP.pb.gz" "$OUT/allocs-$APP.pb.gz"
echo "inspect with: go tool pprof -http=: $OUT/cpu-$APP.pb.gz"
