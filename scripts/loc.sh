#!/usr/bin/env bash
# Non-test Go LOC per package: `cat` of every non-_test.go file, comments and
# blank lines included — the number ROADMAP aim 2 tracks PR over PR.
# Usage: scripts/loc.sh [base-ref]     (markdown table on stdout)
# With a base ref (a PR's base commit, say) the table gains that ref's count
# and the per-package delta; the ref is counted in a temporary git worktree.
set -euo pipefail
cd "$(dirname "$0")/.."

# count DIR prints "package LOC" for every package of the module rooted at DIR.
count() {
	(cd "$1" && go list -f '{{.ImportPath}}|{{.Dir}}' ./...) | while IFS='|' read -r pkg dir; do
		files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
		[ -n "$files" ] || continue
		echo "$pkg $(cat $files | wc -l)"
	done
}

base=${1:-}
if [ -n "$base" ] && ! git rev-parse -q --verify "$base^{commit}" >/dev/null; then
	echo "loc.sh: base ref '$base' is not a commit here; printing without deltas" >&2
	base=
fi

if [ -z "$base" ]; then
	echo "| package | non-test LOC |"
	echo "|---|---:|"
	count . | awk '{ print "| " $1 " | " $2 " |"; total += $2 }
		END { print "| **total** | **" total "** |" }'
	exit
fi

tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git worktree add -q --detach "$tmp/base" "$base"
count "$tmp/base" >"$tmp/base.loc"

echo "| package | non-test LOC | at $(git rev-parse --short "$base") | delta |"
echo "|---|---:|---:|---:|"
count . | awk -v basefile="$tmp/base.loc" '
	BEGIN { while ((getline line < basefile) > 0) { split(line, f, " "); was[f[1]] = f[2] } }
	function row(pkg, now, before) { printf "| %s | %d | %d | %+d |\n", pkg, now, before, now - before }
	{ row($1, $2, was[$1]); total += $2; wasTotal += was[$1]; delete was[$1] }
	END {
		for (pkg in was) { row(pkg, 0, was[pkg]); wasTotal += was[pkg] } # packages the change deleted
		printf "| **total** | **%d** | **%d** | **%+d** |\n", total, wasTotal, total - wasTotal
	}'
