#!/usr/bin/env bash
# Exported functions and methods under internal/ that only tests reach: every
# reference outside comments is in a _test.go file. Report-only (always exits
# 0); a modelled block that no production code calls shows up here in the PR
# that adds it.
# Usage: scripts/unwired.sh     (markdown on stdout)
#
# Plain grep, by name: a function counts as wired when `pkg.Name` appears in
# another package or `Name` in its own; a method when `.Name` appears anywhere
# in non-test code. Two types sharing a method name can hide each other, so
# what is listed is unwired, but not everything unwired is listed.
set -euo pipefail
cd "$(dirname "$0")/.."

src=$(mktemp)
trap 'rm -f "$src"' EXIT
# file:code for every non-test line of the module, comments stripped.
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -print0 |
	xargs -0 grep -H '' | sed -E 's://.*$::' >"$src"

echo "### Exported under internal/, referenced only by tests"
echo
found=0
while IFS= read -r def; do
	file=${def%%:*}
	dir=$(dirname "$file")
	pkg=$(basename "$dir")
	decl=${def#*:}
	if [[ $decl =~ ^func\ \(([^\)]*)\)\ ([A-Z][A-Za-z0-9_]*) ]]; then
		recv=${BASH_REMATCH[1]##*[ \*]}
		name=${BASH_REMATCH[2]}
		label="$pkg.${recv%%\[*}.$name"
		refs=$(grep -v -E ":func \([^)]*\) $name[\[(]" "$src" | grep -c -E "\.$name\b" || true)
	elif [[ $decl =~ ^func\ ([A-Z][A-Za-z0-9_]*) ]]; then
		name=${BASH_REMATCH[1]}
		label="$pkg.$name"
		refs=$(grep -v -E ":func $name[\[(]" "$src" |
			grep -c -E "^$dir/[^/]*:.*\b$name\b|\b$pkg\.$name\b" || true)
	else
		continue
	fi
	if [ "$refs" -eq 0 ]; then
		echo "- \`$label\` ($file)"
		found=$((found + 1))
	fi
done < <(grep -E '^\./internal/[^:]*:func (\([^)]*\) )?[A-Z]' "$src")
[ "$found" -gt 0 ] || echo "none"
