#!/usr/bin/env bash
# mutants.sh checks that the tests catch hand-written mutations of wrapper
# application (internal/wrapper/compile.go).  It copies the module to a
# temporary directory and, for each mutant below, rewrites one line of the
# file, runs the wrapper, core and serve tests, and names the tests that
# failed.  It exits non-zero when a mutant survives (every test passes) or
# when a mutant's line no longer occurs exactly once in the file, so the
# list cannot silently go stale.  Equivalent mutants (rewrites that cannot
# change behaviour) are listed and their lines checked, but not run.  A
# mutant that does not compile is an error in this list, not a catch.
#
#	make mutants
#	bash scripts/mutants.sh [name-substring]   # run a subset
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
file=internal/wrapper/compile.go
only=${1:-}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cp "$root/go.mod" "$work/"
cp -r "$root/internal" "$work/"
orig="$work/compile.go.orig"
cp "$work/$file" "$orig"

# rewrite FROM TO: replace the one line of the original file whose content,
# leading whitespace aside, is exactly FROM by TO (indentation kept).
rewrite() {
	awk -v from="$1" -v to="$2" '
		{ body = $0; sub(/^[ \t]+/, "", body) }
		body == from { n++; print substr($0, 1, length($0) - length(body)) to; next }
		{ print }
		END { if (n != 1) { print "matched " n + 0 " lines" > "/dev/stderr"; exit 3 } }
	' "$orig" >"$work/$file"
}

failed=0
mutant() {
	local name=$1 from=$2 to=$3
	[[ -z $only || $name == *"$only"* ]] || return 0
	if ! rewrite "$from" "$to" 2>/dev/null; then
		printf 'STALE     %s: line %q does not occur exactly once\n' "$name" "$from"
		failed=1
		return 0
	fi
	local out
	if out=$(cd "$work" && go test -count=1 ./internal/wrapper ./internal/core ./internal/serve 2>&1); then
		printf 'SURVIVED  %s\n' "$name"
		failed=1
	elif grep -q -- '\[build failed\]\|\[setup failed\]' <<<"$out"; then
		printf 'BROKEN    %s: the mutant does not compile\n' "$name"
		failed=1
	else
		local caught
		caught=$(grep -o -- '--- FAIL: [A-Za-z0-9_]*' <<<"$out" | sed 's/--- FAIL: //' | sort -u | tr '\n' ' ' || true)
		printf 'caught    %s: %s\n' "$name" "${caught:-a package failed without a named test}"
	fi
	cp "$orig" "$work/$file"
}

equivalent() {
	local name=$1 from=$2 to=$3 why=$4
	[[ -z $only || $name == *"$only"* ]] || return 0
	if ! rewrite "$from" "$to" 2>/dev/null; then
		printf 'STALE     %s: line %q does not occur exactly once\n' "$name" "$from"
		failed=1
		return 0
	fi
	printf 'skipped   %s: equivalent, %s\n' "$name" "$why"
	cp "$orig" "$work/$file"
}

mutant "cap candidates at 1" \
	'const maxCandidates = 24' \
	'const maxCandidates = 1'
mutant "drop the RBM clip" \
	'cw.rbms.match(sc.cleaner.Clean(&p.Lines[i])) {' \
	'false {'
mutant "drop the interior-tag clause of the fallback" \
	'isStart = containsString(cs.startTags, tag) && !containsString(cs.interiorTags, tag)' \
	'isStart = containsString(cs.startTags, tag)'
mutant "force the RootsPerRecord grouping off" \
	'case starts < len(roots) || cs.rootsPerRecord <= 1:' \
	'case true:'
mutant "drop the Type-2 attribute check" \
	'if first == 0 || !attrSetEqual(p.Lines[first-1].Attrs, f.LBMAttrs) {' \
	'if first == 0 || f == nil {'
mutant "ignore set membership in attrSetEqual" \
	'if !found {' \
	'if !found && false {'
mutant "blank the Type-1 heading" \
	'heading = p.Lines[i].Text' \
	'heading = ""'
mutant "drop LBM validation" \
	'if len(w.LBMs) > 0 && heading == "" {' \
	'if false {'
mutant "Order: w.Order -> 0" \
	'Order:   w.Order,' \
	'Order:   0,'
mutant "descend off (depth < 0)" \
	'for depth := 0; depth < 3; depth++ {' \
	'for depth := 0; depth < 0; depth++ {'
mutant "descend depth 3 -> 1" \
	'for depth := 0; depth < 3; depth++ {' \
	'for depth := 0; depth < 1; depth++ {'
mutant "drop the empty-string guard of markerSet.match" \
	'if s == "" {' \
	'if false {'
mutant "Type-1 takes the last candidate" \
	'return cf.applyType1(p, cands[0], sc, opt)' \
	'return cf.applyType1(p, cands[len(cands)-1], sc, opt)'
mutant "heading check start > 0 -> start > 1" \
	'if start > 0 {' \
	'if start > 1 {'
equivalent "length bucket 63 -> 62" \
	'if len(s) >= 63 {' \
	'if len(s) >= 62 {' \
	'markers and lines share lenBit, so a coarser overflow bucket only weakens the prefilter'

exit $failed
