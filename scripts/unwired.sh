#!/usr/bin/env bash
# Exported functions and methods under internal/ that only tests reach: every
# reference outside comments is in a _test.go file. A gate: it exits non-zero
# when it finds one that KEPT below does not name (or when a KEPT name is no
# longer unwired), so a modelled block that no production code calls fails CI
# in the PR that adds it.
# Usage: scripts/unwired.sh     (markdown on stdout)
#
# Plain grep, by name: a function counts as wired when `pkg.Name` appears in
# another package or `Name` in its own; a method when `.Name` appears anywhere
# in non-test code. Two types sharing a method name can hide each other, so
# what is listed is unwired, but not everything unwired is listed. Methods
# the standard library calls through an interface (MarshalJSON, UnmarshalJSON,
# String, Error) have no caller to grep for and are skipped, as is the qgen
# harness package, whose exported checks exist for its own test lanes and
# cmd/rapid-fuzz.
#
# KEPT: test-only on purpose. The list may shrink, not grow.
KEPT=(
	# Reference implementations a test compares the production path against,
	# or code waiting for its caller.
	storage.TableBuilder.Append # row-at-a-time reference of TestEncodedPathBuildsTheSameReplica
	storage.Table.Compact       # waits for ROADMAP item 3 (compaction is not wired yet)
	encoding.ChooseScale        # §4.2 DSB vector encoder (per-vector scale + exception table);
	encoding.EncodeDSBAt        # storage keeps one fixed scale per column, so only its four tests reach it
	# Fixtures and read-only observers that tests of *other* packages use, so
	# they cannot move into a _test.go file.
	storage.TableBuilder.MustBuild
	storage.MustParseDate
	storage.Value.Equal
	storage.Table.Partition
	storage.Table.BaseSCN
	storage.Tracker.PendingUnits
	storage.Vector.Compressed
	coltypes.ToInt64s
	cluster.Tray.NodeScheduler
	cluster.Tray.ShardMapOf
	cluster.Tray.Shard
	# The instrument of TestDMEMSizeIsUpperBoundOnPoolUse (CI alloc-regression).
	mem.TilePool.DataBytesInUse
	mem.TilePool.MarkHighWater
	qef.TaskCtx.Pool
	# Dead, each with a test of its own; outside the packages swept so far
	# (ROADMAP item 5(c)) — delete with their tests.
	coltypes.Zero
	hashcrc.Hash32
	hashcrc.HashBytes
	bits.Vector.Clear
	qef.Chain
)
set -euo pipefail
cd "$(dirname "$0")/.."

src=$(mktemp)
trap 'rm -f "$src"' EXIT
# file:code for every non-test line of the module, // comments stripped. The
# prefix kept before a comment is a run of ordinary characters, whole string
# and rune literals (so the "//" of "http://" is not a comment) and single
# slashes.
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -print0 |
	xargs -0 grep -H '' |
	sed -E 's:^(([^"`'"'"'/]|"([^"\\]|\\.)*"|`[^`]*`|'"'"'([^'"'"'\\]|\\.)+'"'"'|/[^/])*)//.*$:\1:' >"$src"

unwired=() # "label file" of every test-only export
while IFS= read -r def; do
	file=${def%%:*}
	dir=$(dirname "$file")
	pkg=$(basename "$dir")
	decl=${def#*:}
	[ "$pkg" != qgen ] || continue
	if [[ $decl =~ ^func\ \(([^\)]*)\)\ ([A-Z][A-Za-z0-9_]*) ]]; then
		recv=${BASH_REMATCH[1]##*[ \*]}
		name=${BASH_REMATCH[2]}
		case $name in MarshalJSON | UnmarshalJSON | String | Error) continue ;; esac
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
	[ "$refs" -ne 0 ] || unwired+=("$label $file")
done < <(grep -E '^\./internal/[^:]*:func (\([^)]*\) )?[A-Z]' "$src")

# has NAME LIST...: is NAME one of LIST?
has() {
	local name=$1 x
	shift
	for x in "$@"; do [ "$x" != "$name" ] || return 0; done
	return 1
}

fail=0
echo "### Exported under internal/, referenced only by tests"
echo
for u in ${unwired[@]+"${unwired[@]}"}; do
	has "${u% *}" "${KEPT[@]}" && continue
	echo "- \`${u% *}\` (${u#* })"
	fail=1
done
[ "$fail" -ne 0 ] || echo "none"
echo
echo "### Kept on purpose (named in scripts/unwired.sh)"
echo
for k in "${KEPT[@]}"; do
	if has "$k" ${unwired[@]+"${unwired[@]% *}"}; then
		echo "- \`$k\`"
	else
		echo "- \`$k\` — **wired or gone: remove it from KEPT**"
		fail=1
	fi
done
exit "$fail"
