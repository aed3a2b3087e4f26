#!/usr/bin/env bash
# mutants.sh checks that the tests catch hand-written mutations of wrapper
# application (internal/wrapper/compile.go) and of the shared W × Dinr
# threshold (internal/visual/visual.go).  It copies the module to a
# temporary directory and, for each mutant below, rewrites one line of the
# file the mutant names, runs the wrapper, core and serve tests plus those
# of the mutated package, and names the tests that failed.  It exits
# non-zero when a mutant survives (every test passes) or when a mutant's
# line no longer occurs exactly once in its file, so the list cannot
# silently go stale.  Equivalent mutants (rewrites that cannot
# change behaviour) are listed and their lines checked, but not run.  A
# mutant that does not compile is an error in this list, not a catch.
#
#	make mutants
#	bash scripts/mutants.sh [name-substring]   # run a subset
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
only=${1:-}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cp "$root/go.mod" "$work/"
cp -r "$root/internal" "$work/"
orig="$work/mutated.orig"

# rewrite FILE FROM TO: save FILE's original to $orig and replace its one
# line whose content, leading whitespace aside, is exactly FROM by TO
# (indentation kept).  restore puts the original back.
rewrite() {
	cp "$work/$1" "$orig"
	awk -v from="$2" -v to="$3" '
		{ body = $0; sub(/^[ \t]+/, "", body) }
		body == from { n++; print substr($0, 1, length($0) - length(body)) to; next }
		{ print }
		END { if (n != 1) { print "matched " n + 0 " lines" > "/dev/stderr"; exit 3 } }
	' "$orig" >"$work/$1"
}
restore() { cp "$orig" "$work/$1"; }

failed=0
mutant() {
	local file=$1 name=$2 from=$3 to=$4
	[[ -z $only || $name == *"$only"* ]] || return 0
	if ! rewrite "$file" "$from" "$to" 2>/dev/null; then
		restore "$file"
		printf 'STALE     %s: line %q does not occur exactly once in %s\n' "$name" "$from" "$file"
		failed=1
		return 0
	fi
	local out
	if out=$(cd "$work" && go test -count=1 ./internal/wrapper ./internal/core ./internal/serve "./$(dirname "$file")" 2>&1); then
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
	restore "$file"
}

equivalent() {
	local file=$1 name=$2 from=$3 to=$4 why=$5
	[[ -z $only || $name == *"$only"* ]] || return 0
	if ! rewrite "$file" "$from" "$to" 2>/dev/null; then
		restore "$file"
		printf 'STALE     %s: line %q does not occur exactly once in %s\n' "$name" "$from" "$file"
		failed=1
		return 0
	fi
	restore "$file"
	printf 'skipped   %s: equivalent, %s\n' "$name" "$why"
}

compile=internal/wrapper/compile.go
visual=internal/visual/visual.go

mutant "$compile" "cap candidates at 1" \
	'const maxCandidates = 24' \
	'const maxCandidates = 1'
mutant "$compile" "drop the RBM clip" \
	'cw.rbms.match(sc.cleaner.Clean(&p.Lines[i])) {' \
	'false {'
mutant "$compile" "drop the interior-tag clause of the fallback" \
	'isStart = containsString(cs.startTags, tag) && !containsString(cs.interiorTags, tag)' \
	'isStart = containsString(cs.startTags, tag)'
mutant "$compile" "force the RootsPerRecord grouping off" \
	'case starts < len(roots) || cs.rootsPerRecord <= 1:' \
	'case true:'
mutant "$compile" "drop the Type-2 attribute check" \
	'if first == 0 || !attrSetEqual(p.Lines[first-1].Attrs, f.LBMAttrs) {' \
	'if first == 0 || f == nil {'
mutant "$compile" "ignore set membership in attrSetEqual" \
	'if !found {' \
	'if !found && false {'
mutant "$compile" "blank the Type-1 heading" \
	'heading = p.Lines[i].Text' \
	'heading = ""'
mutant "$compile" "drop LBM validation" \
	'if len(w.LBMs) > 0 && heading == "" {' \
	'if false {'
mutant "$compile" "Order: w.Order -> 0" \
	'Order:   w.Order,' \
	'Order:   0,'
mutant "$compile" "descend off (depth < 0)" \
	'for depth := 0; depth < 3; depth++ {' \
	'for depth := 0; depth < 0; depth++ {'
mutant "$compile" "descend depth 3 -> 1" \
	'for depth := 0; depth < 3; depth++ {' \
	'for depth := 0; depth < 1; depth++ {'
mutant "$compile" "drop the empty-string guard of markerSet.match" \
	'if s == "" {' \
	'if false {'
mutant "$compile" "Type-1 takes the last candidate" \
	'return cf.applyType1(p, cands[0], sc, opt)' \
	'return cf.applyType1(p, cands[len(cands)-1], sc, opt)'
mutant "$compile" "heading check start > 0 -> start > 1" \
	'if start > 0 {' \
	'if start > 1 {'
equivalent "$compile" "length bucket 63 -> 62" \
	'if len(s) >= 63 {' \
	'if len(s) >= 62 {' \
	'markers and lines share lenBit, so a coarser overflow bucket only weakens the prefilter'
mutant "$visual" "drop the MinDinr floor of the threshold" \
	'return p.W * math.Max(InterRecordDistance(records, p.RecordWeights), p.MinDinr)' \
	'return p.W * InterRecordDistance(records, p.RecordWeights)'
mutant "$visual" "threshold W*dinr -> dinr" \
	'return p.W * math.Max(InterRecordDistance(records, p.RecordWeights), p.MinDinr)' \
	'return math.Max(InterRecordDistance(records, p.RecordWeights), p.MinDinr)'

exit $failed
