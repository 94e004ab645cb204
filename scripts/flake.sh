#!/usr/bin/env bash
# Runs each package's test binary in N fresh processes with a shuffled
# test order and reports how many runs failed per package. Some flakes
# only show in a fresh process (state set up once per binary, first-use
# timing) and pass under -count=N in one process; this catches them.
#
#   scripts/flake.sh [N] [packages...]     # defaults: 20 ./...
#
# Each failure prints its shuffle seed; rerun the binary with
# -test.shuffle=<seed> to reproduce the order. Exits 1 if any run failed.
set -euo pipefail

GO=${GO:-go}

n=${1:-20}
shift || true
[ $# -gt 0 ] || set -- ./...

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
for pkg in $("$GO" list "$@"); do
	exe="$work/$(echo "$pkg" | tr / _).test"
	"$GO" test -c -o "$exe" "$pkg" >/dev/null
	[ -x "$exe" ] || continue # no test files
	dir=$("$GO" list -f '{{.Dir}}' "$pkg")
	failed=0
	for i in $(seq "$n"); do
		if ! (cd "$dir" && "$exe" -test.shuffle=on -test.timeout=10m >"$work/out" 2>&1); then
			failed=$((failed + 1))
			echo "FAIL $pkg run $i ($(grep -m1 -- '-test.shuffle' "$work/out" || echo 'no seed'))"
			grep -E -- '^(--- FAIL|panic:)|_test\.go:[0-9]+:' "$work/out" | head -20 || true
		fi
	done
	echo "$pkg: $failed/$n runs failed"
	[ "$failed" -eq 0 ] || status=1
done
exit "$status"
