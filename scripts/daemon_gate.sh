#!/bin/sh
# Daemon gate (called by scripts/check.sh and CI): thermostatd's lifecycle
# contract, end to end against real processes and signals.
#  1. Hot reload: SIGHUP mid-run re-reads the config and applies the diff at
#     an epoch boundary; POST /reload answers on the same runner.
#  2. Degradation: under forced permanent-fault chaos /status walks to
#     health=quarantine-only, and the run keeps going (bounded backpressure,
#     not a crash).
#  3. Graceful stop: SIGTERM exits 0 with telemetry flushed.
#  4. Crash safety: kill -9 mid-run leaves a checkpoint; a torn copy of it,
#     like a torn config file, makes a restart exit 2; a restart from the
#     intact one restores (journal replay + digest check) and the final
#     exports are byte-identical to an uninterrupted reference run.
set -eu

cd "$(dirname "$0")/.."

dir="$(mktemp -d)"
trap 'rm -rf "$dir"; [ -n "${pid:-}" ] && kill -9 "$pid" 2>/dev/null || true' EXIT

go build -o "$dir/thermostatd" ./cmd/thermostatd

# wait_addr LOGFILE: echo the bound observability address once announced.
wait_addr() {
	i=0
	while [ $i -lt 100 ]; do
		a="$(sed -n 's/.*"addr":"http:\/\/\([^"]*\)".*/\1/p' "$1" | head -n1)"
		if [ -n "$a" ]; then
			echo "$a"
			return 0
		fi
		if ! kill -0 "$pid" 2>/dev/null; then
			echo "daemon gate: daemon exited before announcing the server" >&2
			cat "$1" >&2
			exit 1
		fi
		sleep 0.1
		i=$((i + 1))
	done
	echo "daemon gate: server address never appeared in the log" >&2
	exit 1
}

# --- 1 + 3: hot reload by SIGHUP and POST /reload, then SIGTERM exit 0 ----
cat >"$dir/live.yaml" <<EOF
app: redis
policy: thermostat
scale: tiny
slowdown_pct: 3
duration_s: 60
log_format: json
serve: localhost:0
telemetry:
  trace: $dir/live.trace.json
daemon:
  epoch_wall_ms: 40
EOF

"$dir/thermostatd" -config "$dir/live.yaml" 2>"$dir/live.log" &
pid=$!
addr="$(wait_addr "$dir/live.log")"

curl -fsS "http://$addr/status" >"$dir/status1.json"
jq -e '.phase == "running" and .health == "healthy"' "$dir/status1.json" >/dev/null

# Edit the config and SIGHUP: the change must be journaled and applied at an
# epoch boundary.
sed -i 's/^slowdown_pct: 3$/slowdown_pct: 8/' "$dir/live.yaml"
kill -HUP "$pid"
i=0
until grep -q '"msg":"config reloaded"' "$dir/live.log"; do
	i=$((i + 1))
	if [ $i -gt 100 ]; then
		echo "daemon gate: SIGHUP reload never applied" >&2
		cat "$dir/live.log" >&2
		exit 1
	fi
	sleep 0.1
done
grep -q 'slowdown_pct: 3 → 8' "$dir/live.log"

# POST /reload re-reads the same file: now a no-op, still a 200.
curl -fsS -X POST "http://$addr/reload" | jq -e '.queued == []' >/dev/null
# GET must be rejected: the reload endpoint mutates.
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/reload")"
[ "$code" = "405" ] || { echo "daemon gate: GET /reload gave $code, want 405" >&2; exit 1; }

kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" = "0" ] || { echo "daemon gate: SIGTERM exit code $rc, want 0" >&2; cat "$dir/live.log" >&2; exit 1; }
[ -s "$dir/live.trace.json" ] || { echo "daemon gate: no trace after graceful stop" >&2; exit 1; }
grep -q '"msg":"graceful stop at epoch boundary"' "$dir/live.log"
echo "daemon: SIGHUP reload applied at epoch boundary; SIGTERM exits 0 with exports"

# --- 2: forced chaos walks the ladder to quarantine-only -------------------
cat >"$dir/chaos.yaml" <<EOF
app: redis
policy: thermostat
scale: tiny
slowdown_pct: 3
duration_s: 60
log_format: json
serve: localhost:0
chaos:
  rate: 1
  permanent_fraction: 1
daemon:
  epoch_wall_ms: 25
  degrade:
    degrade_after: 1
    quarantine_after: 1
    recover_after: 1000
    widen_factor: 1
EOF

"$dir/thermostatd" -config "$dir/chaos.yaml" 2>"$dir/chaos.log" &
pid=$!
addr="$(wait_addr "$dir/chaos.log")"

health=""
i=0
while [ $i -lt 200 ]; do
	health="$(curl -fsS "http://$addr/status" | jq -r '.health')"
	[ "$health" = "quarantine-only" ] && break
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "daemon gate: chaos run died before reaching quarantine-only" >&2
		cat "$dir/chaos.log" >&2
		exit 1
	fi
	sleep 0.1
	i=$((i + 1))
done
if [ "$health" != "quarantine-only" ]; then
	echo "daemon gate: health stuck at '$health', want quarantine-only" >&2
	cat "$dir/chaos.log" >&2
	exit 1
fi
grep -q '"to":"degraded"' "$dir/chaos.log"
grep -q '"to":"quarantine-only"' "$dir/chaos.log"

kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" = "0" ] || { echo "daemon gate: chaos-run SIGTERM exit code $rc, want 0" >&2; exit 1; }
echo "daemon: forced chaos reaches quarantine-only in /status and the log, run survives"

# --- 4: kill -9, restore from checkpoint, byte-identical exports -----------
cat >"$dir/ref.yaml" <<EOF
app: redis
policy: thermostat
scale: tiny
slowdown_pct: 3
duration_s: 8
log_format: json
telemetry:
  trace: $dir/ref.trace.json
  metrics: $dir/ref.metrics.jsonl
EOF
"$dir/thermostatd" -config "$dir/ref.yaml" 2>/dev/null

cat >"$dir/crash.yaml" <<EOF
app: redis
policy: thermostat
scale: tiny
slowdown_pct: 3
duration_s: 8
log_format: json
telemetry:
  trace: $dir/crash.trace.json
  metrics: $dir/crash.metrics.jsonl
daemon:
  checkpoint_path: $dir/daemon.ckpt
  checkpoint_every_epochs: 3
  epoch_wall_ms: 60
EOF
"$dir/thermostatd" -config "$dir/crash.yaml" 2>"$dir/crash.log" &
pid=$!
i=0
until [ -s "$dir/daemon.ckpt" ]; do
	i=$((i + 1))
	if [ $i -gt 100 ]; then
		echo "daemon gate: no checkpoint appeared before the kill" >&2
		cat "$dir/crash.log" >&2
		exit 1
	fi
	sleep 0.05
done
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
[ ! -e "$dir/crash.trace.json" ] || { echo "daemon gate: exports written despite kill -9" >&2; exit 1; }

# A torn copy of that checkpoint is bad input: a restart that finds it must
# refuse it by name and exit 2, like a bad config, before running anything.
head -c "$(($(wc -c <"$dir/daemon.ckpt") / 2))" "$dir/daemon.ckpt" >"$dir/torn.ckpt"
sed "s|checkpoint_path: .*|checkpoint_path: $dir/torn.ckpt|" "$dir/crash.yaml" >"$dir/torn.yaml"
rc=0
"$dir/thermostatd" -config "$dir/torn.yaml" 2>"$dir/torn.log" || rc=$?
[ "$rc" = "2" ] || { echo "daemon gate: torn checkpoint exit code $rc, want 2" >&2; cat "$dir/torn.log" >&2; exit 1; }
grep -q "torn.ckpt" "$dir/torn.log"
echo "daemon: a torn checkpoint is refused by name with exit 2"

# So is a torn config file: the first half of a valid JSON config.
head -c "$(($(wc -c <examples/configs/batch.json) / 2))" examples/configs/batch.json >"$dir/torn.json"
rc=0
"$dir/thermostatd" -config "$dir/torn.json" 2>"$dir/torn-config.log" || rc=$?
[ "$rc" = "2" ] || { echo "daemon gate: torn config exit code $rc, want 2" >&2; cat "$dir/torn-config.log" >&2; exit 1; }
grep -q "torn.json" "$dir/torn-config.log"
echo "daemon: a torn config is refused by name with exit 2"

# Restart with the same config: the surviving checkpoint must be picked up,
# replayed to its digest, and the completed run must match the reference
# byte-for-byte.
"$dir/thermostatd" -config "$dir/crash.yaml" 2>"$dir/restore.log"
grep -q '"msg":"restored from checkpoint"' "$dir/restore.log"
cmp "$dir/ref.trace.json" "$dir/crash.trace.json"
cmp "$dir/ref.metrics.jsonl" "$dir/crash.metrics.jsonl"
[ ! -e "$dir/daemon.ckpt" ] || { echo "daemon gate: checkpoint not removed after completion" >&2; exit 1; }
echo "daemon: kill -9 + restart restores from checkpoint; exports byte-identical to reference"
