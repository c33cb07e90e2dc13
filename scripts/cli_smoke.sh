#!/usr/bin/env bash
# cli_smoke.sh — drive the three daemons end to end over loopback TLS.
#
# Builds deta-ap, deta-aggregator and deta-party into a temporary directory
# and runs the AP, three aggregators (one initiator, two followers) and two
# parties for two rounds on fixed ports 17400-17403. Party P1 starts before
# any aggregator, so its boot dial has to retry until they listen; the run
# checks that P1's link stats count those retries. Every aggregator runs
# with the round lifecycle armed (-round-deadline 30s -grace 200ms), so the
# initiator's follower sync polls deta.Aggregate until each follower's round
# has sealed; with both parties uploading, a round seals at once. It passes
# when both parties log "training complete" within 60 s of the first launch.
#
# Every process it starts is killed by PID on exit, pass or fail. A port
# that is already taken fails the run before anything is launched.
#
#	scripts/cli_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ports=(17400 17401 17402 17403)
limit=60

work=$(mktemp -d)
declare -A pid # log name -> PID of every process started
cleanup() {
	for p in "${pid[@]}"; do
		kill -9 "$p" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

fail() {
	echo "cli_smoke: FAIL: $*" >&2
	for f in "$work"/logs/*.log; do
		[ -e "$f" ] || continue
		echo "---- $(basename "$f")" >&2
		tail -n 20 "$f" >&2
	done
	exit 1
}

for p in "${ports[@]}"; do
	# A successful connect means something already listens there.
	if (exec 3<>"/dev/tcp/127.0.0.1/$p") 2>/dev/null; then
		fail "port $p on 127.0.0.1 is already taken; stop whatever holds it (a stale run serves an old TLS CA)"
	fi
done

echo "== building daemons into $work"
go build -o "$work/" ./cmd/deta-ap ./cmd/deta-aggregator ./cmd/deta-party
mkdir "$work/logs"
tls="$work/tls"
logs="$work/logs"
aggs="agg-1=127.0.0.1:${ports[1]},agg-2=127.0.0.1:${ports[2]},agg-3=127.0.0.1:${ports[3]}"

start() { # name, command...
	local name=$1
	shift
	"$@" >"$logs/$name.log" 2>&1 &
	pid[$name]=$!
}

# wait_for name pattern: poll until log name has the line, failing when the
# budget ends, when a daemon dies, or when the process itself exits first.
wait_for() {
	while ! grep -q "$2" "$logs/$1.log"; do
		[ "$SECONDS" -lt "$limit" ] || fail "$1 did not log \"$2\" within ${limit}s"
		kill -0 "${pid[$1]}" 2>/dev/null || grep -q "$2" "$logs/$1.log" ||
			fail "$1 exited without logging \"$2\""
		for name in "${!pid[@]}"; do
			case $name in P*) continue ;; esac
			kill -0 "${pid[$name]}" 2>/dev/null || fail "$name exited early"
		done
		sleep 0.2
	done
}

party() { # id, index
	start "$1" "$work/deta-party" -id "$1" -index "$2" -parties 2 -rounds 2 -samples 16 \
		-ap "127.0.0.1:${ports[0]}" -tls-dir "$tls" -aggregators "$aggs"
}

SECONDS=0
echo "== AP on ${ports[0]}"
start ap "$work/deta-ap" -listen "127.0.0.1:${ports[0]}" -tls-dir "$tls"
wait_for ap "serving on"

echo "== party P1 before any aggregator (its boot dial retries)"
party P1 0
sleep 1

echo "== aggregators on ${ports[1]}-${ports[3]}"
lifecycle=(-round-deadline 30s -grace 200ms)
start agg-1 "$work/deta-aggregator" -id agg-1 -listen "127.0.0.1:${ports[1]}" \
	-ap "127.0.0.1:${ports[0]}" -tls-dir "$tls" "${lifecycle[@]}" -initiator \
	-peers "agg-2=127.0.0.1:${ports[2]},agg-3=127.0.0.1:${ports[3]}"
for i in 2 3; do
	start "agg-$i" "$work/deta-aggregator" -id "agg-$i" -listen "127.0.0.1:${ports[$i]}" \
		-ap "127.0.0.1:${ports[0]}" -tls-dir "$tls" "${lifecycle[@]}"
done

echo "== party P2"
party P2 1

for p in P1 P2; do
	wait_for "$p" "training complete"
	wait_for "$p" "link agg-3:" # the per-link stats follow the last round
done
grep -q "link agg-1: .*retries=[1-9]" "$logs/P1.log" ||
	fail "P1 started before the aggregators but its agg-1 link counts no boot-dial retries"
echo "== cli_smoke: both parties completed 2 rounds in ${SECONDS}s"
