package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestParseFileReassemblesSplitLines mirrors what go test -json actually
// emits: the benchmark name flushes as its own output event ending in a
// tab, the counts arrive in a later event, log lines are interleaved, and
// a foreign annotation line ends the file.
func TestParseFileReassemblesSplitLines(t *testing.T) {
	const stream = `{"Action":"output","Package":"mse","Output":"goos: linux\n"}
{"Action":"output","Package":"mse","Output":"=== RUN   BenchmarkA\n"}
{"Action":"output","Package":"mse","Output":"BenchmarkA\n"}
{"Action":"output","Package":"mse","Output":"    bench_test.go:48: table output\n"}
{"Action":"output","Package":"mse","Output":"BenchmarkA   \t"}
{"Action":"output","Package":"mse","Output":"       4\t 295569819 ns/op\t58691180 B/op\t 1032496 allocs/op\n"}
{"Action":"output","Package":"mse","Output":"BenchmarkB-8   \t  100\t  123 ns/op\t 456 B/op\t 7 allocs/op\n"}
{"Action":"pass","Package":"mse"}
{"Note": "hand-written annotation", "Benchmark": "BenchmarkA"}
`
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	a := got["BenchmarkA"]
	if a == nil || a.ns() != 295569819 || a.b() != 58691180 || a.a() != 1032496 {
		t.Fatalf("BenchmarkA = %+v", a)
	}
	// The -8 GOMAXPROCS suffix is stripped.
	b := got["BenchmarkB"]
	if b == nil || b.ns() != 123 || b.b() != 456 || b.a() != 7 {
		t.Fatalf("BenchmarkB = %+v", b)
	}
}

func TestParseBenchLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"BenchmarkA",                  // run announcement, no metrics
		"=== RUN   BenchmarkA",        // test framework chatter
		"goos: linux",                 // header
		"Benchmark 4 100 apples/op",   // no ns/op
		"    bench_test.go:48: table", // log line
	} {
		if name, _, ok := parseBenchLine(line); ok {
			t.Errorf("line %q parsed as benchmark %q", line, name)
		}
	}
}

// TestParseBenchLineAveragesViaAdd checks repeated runs of one benchmark
// average rather than overwrite.
func TestParseBenchLineAveragesViaAdd(t *testing.T) {
	out := map[string]*result{}
	addBenchLine(out, "BenchmarkA\t 10\t 100 ns/op\t 10 B/op\t 1 allocs/op")
	addBenchLine(out, "BenchmarkA\t 10\t 300 ns/op\t 30 B/op\t 3 allocs/op")
	a := out["BenchmarkA"]
	if a.ns() != 200 || a.b() != 20 || a.a() != 2 {
		t.Fatalf("averaged = ns %v B %v allocs %v", a.ns(), a.b(), a.a())
	}
}

func TestGateResultsEnforceAllowlist(t *testing.T) {
	base := map[string]*result{
		"BenchmarkOld": {runs: 1, nsOp: 1000, allocs: 100, hasMem: true},
		"BenchmarkNew": {runs: 1, nsOp: 1000, allocs: 100, hasMem: true},
	}
	// Both regress 2x on allocs/op — far past any threshold.
	fresh := map[string]*result{
		"BenchmarkOld": {runs: 1, nsOp: 1000, allocs: 200, hasMem: true},
		"BenchmarkNew": {runs: 1, nsOp: 1000, allocs: 200, hasMem: true},
	}
	var buf strings.Builder
	if !gateResults(&buf, base, fresh, 0.15, nil, false) {
		t.Fatal("no allowlist: a 2x allocs/op regression must fail the gate")
	}
	buf.Reset()
	re := regexp.MustCompile(`^BenchmarkOld$`)
	if !gateResults(&buf, base, fresh, 0.15, re, false) {
		t.Fatal("allowlisted benchmark regressed but gate passed")
	}
	if !strings.Contains(buf.String(), "informational (not in -benchmarks allowlist)") {
		t.Fatalf("non-allowlisted benchmark not marked informational:\n%s", buf.String())
	}
	// Only the benchmark outside the allowlist regresses: gate must pass.
	fresh["BenchmarkOld"] = &result{runs: 1, nsOp: 1000, allocs: 100, hasMem: true}
	buf.Reset()
	if gateResults(&buf, base, fresh, 0.15, re, false) {
		t.Fatalf("regression outside the allowlist failed the gate:\n%s", buf.String())
	}
}

func TestGateResultsMissingBaselineSkipped(t *testing.T) {
	base := map[string]*result{}
	fresh := map[string]*result{
		"BenchmarkBrandNew": {runs: 1, nsOp: 1000, allocs: 100, hasMem: true},
	}
	var buf strings.Builder
	if gateResults(&buf, base, fresh, 0.15, nil, false) {
		t.Fatal("benchmark with no baseline entry must not fail the gate")
	}
	if !strings.Contains(buf.String(), "no baseline entry; skipped") {
		t.Fatalf("missing-baseline line not printed:\n%s", buf.String())
	}
}

// TestSortSnapshotsByName: snapshots order by date, then by the numeric
// .N suffix (bare = .1, and .10 after .9), whatever the glob order — the
// gate's baseline is the last one.
func TestSortSnapshotsByName(t *testing.T) {
	files := []string{
		"BENCH_2026-08-08.json",
		"BENCH_2026-08-08.10.json",
		"BENCH_2026-08-06.2.json",
		"BENCH_2026-08-08.3.json",
		"BENCH_2026-08-06.json",
		"BENCH_2026-08-08.2.json",
	}
	sortSnapshots(files)
	want := []string{
		"BENCH_2026-08-06.json",
		"BENCH_2026-08-06.2.json",
		"BENCH_2026-08-08.json",
		"BENCH_2026-08-08.2.json",
		"BENCH_2026-08-08.3.json",
		"BENCH_2026-08-08.10.json",
	}
	if strings.Join(files, " ") != strings.Join(want, " ") {
		t.Fatalf("order = %v, want %v", files, want)
	}
}
