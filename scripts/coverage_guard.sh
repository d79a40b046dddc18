#!/usr/bin/env bash
# coverage_guard.sh — coverage regression guard.
#
# Runs the test suite of the product packages with a coverage profile and
# fails when the total statement coverage drops below the committed floor in
# scripts/coverage_baseline.txt. bench/ is a measurement main with one smoke
# test (tier-1 `go test ./...` still runs it); counting its statements
# against the product's floor only says how long the benchmark is. The
# profile is left at results/coverage.out so CI can upload it as an artifact.
#
# usage: coverage_guard.sh [profile-path]
set -euo pipefail
cd "$(dirname "$0")/.."

profile=${1:-results/coverage.out}
baseline_file=scripts/coverage_baseline.txt
[ -f "$baseline_file" ] || { echo "coverage-guard: FAIL: $baseline_file missing"; exit 1; }
baseline=$(tr -d '[:space:]' <"$baseline_file")

mkdir -p "$(dirname "$profile")"
# shellcheck disable=SC2046 # one argument per package is the point
go test -count=1 -coverprofile="$profile" $(go list ./... | grep -v '/bench$')

total=$(go tool cover -func="$profile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
if [ -z "$total" ]; then
    echo "coverage-guard: FAIL: could not read total coverage from $profile"
    exit 1
fi
echo "coverage-guard: total statement coverage ${total}% (floor ${baseline}%)"
if awk -v t="$total" -v b="$baseline" 'BEGIN { exit !(t < b) }'; then
    echo "coverage-guard: FAIL: coverage ${total}% fell below the ${baseline}% floor"
    exit 1
fi
echo "coverage-guard: PASS"
