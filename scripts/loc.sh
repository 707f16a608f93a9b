#!/usr/bin/env bash
# Non-test Go LOC per package: `cat` of every non-_test.go file, comments and
# blank lines included — the number ROADMAP aim 2 tracks PR over PR.
# Usage: scripts/loc.sh            (markdown table on stdout)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "| package | non-test LOC |"
echo "|---|---:|"
total=0
while IFS='|' read -r pkg dir; do
	files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
	[ -n "$files" ] || continue
	n=$(cat $files | wc -l)
	total=$((total + n))
	echo "| $pkg | $n |"
done < <(go list -f '{{.ImportPath}}|{{.Dir}}' ./...)
echo "| **total** | **$total** |"
