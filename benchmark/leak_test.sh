#!/usr/bin/env bash
# Proves run.sh leaves no process behind: from a fresh copy of the checkout
# with a fresh config directory, on success, on a forced wrong output, and
# when killed with SIGTERM mid-run. Run from the root of the checkout:
#
#   bash benchmark/leak_test.sh
set -uo pipefail
src="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
copy="$tmp/checkout"
mkdir -p "$copy"
# The files git would commit: no .git, nothing .gitignore names.
(cd "$src" && tar --exclude=.git --exclude=benchmark/bin --exclude=benchmark/out -cf - .) | (cd "$copy" && tar -xf -)
export HOME="$tmp/home" XDG_CONFIG_HOME="$tmp/home/.config" XDG_CACHE_HOME="$tmp/home/.cache"
mkdir -p "$HOME"

# leftovers lists processes that are go tools or whose executable or working
# directory lies in the copy.
leftovers() {
	for p in /proc/[0-9]*; do
		pid="${p#/proc/}"
		[ "$pid" = "$$" ] && continue
		exe="$(readlink "$p/exe" 2>/dev/null || true)"
		cwd="$(readlink "$p/cwd" 2>/dev/null || true)"
		case "$exe" in "$copy"/*|*/go|*/pkg/tool/*) echo "$pid exe=$exe"; continue ;; esac
		case "$cwd" in "$copy"|"$copy"/*) echo "$pid cwd=$cwd exe=$exe" ;; esac
	done
}

fail=0
check() { # name, expected exit code, actual
	sleep 0.5
	left="$(leftovers | grep -vxFf "$tmp/before" || true)"
	if [ -n "$left" ]; then
		echo "FAIL $1: processes left running:"; echo "$left"; fail=1
	elif [ "$2" != "$3" ]; then
		echo "FAIL $1: exit code $3, want $2"; fail=1
	else
		echo "ok   $1 (exit $3, nothing left running)"
	fi
}

# Each run starts in the root of the copy, as the driver starts it; this
# script itself stays outside, so nothing of its own matches.
run() { (cd "$copy" && exec bash benchmark/run.sh "$@"); }
leftovers > "$tmp/before"

run --workload memo_hit --seed 1 --seconds 3 --trace 0 > "$tmp/out" 2> "$tmp/err"
code=$?
check "success" 0 "$code"
tail -n 1 "$tmp/out" | grep -q '"correct":true' || { echo "FAIL success: no correct result line"; fail=1; }

run --workload memo_hit --seed 1 --seconds 3 --trace 0 --fault > "$tmp/out" 2>> "$tmp/err"
code=$?
check "wrong output" 1 "$code"
tail -n 1 "$tmp/out" | grep -q '"correct":false' || { echo "FAIL wrong output: no result line saying so"; fail=1; }

# Not through run(): $! must be the process that becomes the benchmark.
(cd "$copy" && exec bash benchmark/run.sh --workload peer_hop --seed 1 --seconds 30 --trace 0) > "$tmp/out" 2>> "$tmp/err" &
pid=$!
sleep 6
kill -TERM "$pid"
wait "$pid"
code=$?
check "SIGTERM mid-run" 2 "$code"

[ "$fail" = 0 ] || { echo "--- stderr of the runs:"; cat "$tmp/err"; }
exit "$fail"
