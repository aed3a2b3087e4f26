// Command mse-benchcmp compares two benchmark runs recorded by `make
// bench` (go test -json streams in BENCH_*.json files) and prints the
// per-benchmark deltas for ns/op, B/op and allocs/op.
//
// Usage:
//
//	mse-benchcmp                 # diff the two newest BENCH_*.json
//	mse-benchcmp OLD.json NEW.json
//	mse-benchcmp -gate [-bench NAME] [-threshold 0.15] [-benchmarks REGEX]
//
// "Newest" goes by file name (see sortSnapshots), not by mtime.
// Benchmarks present in only one of the runs are listed without deltas.
// Repeated runs of the same benchmark within one file are averaged.
//
// Gate mode (`-gate`, used by `make benchgate` and CI) runs the named
// benchmark fresh with a fixed iteration count and compares it against the
// newest committed BENCH_*.json.  Only allocs/op is gated hard: it is
// deterministic for a fixed benchtime, so the check is non-flaky on noisy
// shared runners.  ns/op deltas are printed for the log and only enforced
// when MSE_BENCHGATE_NS=1 (e.g. on a quiet dedicated box).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the go test -json stream we consume.  Foreign
// lines (e.g. hand-written annotation records) simply fail to decode into
// an "output" action and are skipped.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// result accumulates the metrics of one benchmark across repeated runs.
type result struct {
	runs   int
	nsOp   float64
	bOp    float64
	allocs float64
	hasMem bool
}

func main() {
	gate := flag.Bool("gate", false, "run -bench fresh and fail on regression vs the newest BENCH_*.json")
	benchName := flag.String("bench", "BenchmarkExtractHotPath", "benchmark to gate on (anchored; Parallel variants included)")
	threshold := flag.Float64("threshold", 0.15, "relative regression allowed before the gate fails")
	enforce := flag.String("benchmarks", "",
		"gate mode: regex allowlist of benchmark names to enforce; non-matching results are informational (empty = enforce all)")
	flag.Parse()

	if *gate {
		var enforceRE *regexp.Regexp
		if *enforce != "" {
			var err error
			if enforceRE, err = regexp.Compile(*enforce); err != nil {
				fmt.Fprintln(os.Stderr, "mse-benchcmp: bad -benchmarks regex:", err)
				os.Exit(2)
			}
		}
		os.Exit(runGate(*benchName, *threshold, enforceRE))
	}

	var oldFile, newFile string
	switch flag.NArg() {
	case 0:
		files, err := filepath.Glob("BENCH_*.json")
		if err != nil || len(files) < 2 {
			fmt.Fprintf(os.Stderr, "mse-benchcmp: need two BENCH_*.json files (found %d); run `make bench` twice or pass two files\n", len(files))
			os.Exit(1)
		}
		sortSnapshots(files)
		oldFile, newFile = files[len(files)-2], files[len(files)-1]
	case 2:
		oldFile, newFile = flag.Arg(0), flag.Arg(1)
	default:
		fmt.Fprintln(os.Stderr, "usage: mse-benchcmp [OLD.json NEW.json] | mse-benchcmp -gate [-bench NAME] [-threshold F]")
		os.Exit(2)
	}

	oldRes, err := parseFile(oldFile)
	if err != nil {
		fatal(err)
	}
	newRes, err := parseFile(newFile)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("old: %s\nnew: %s\n\n", oldFile, newFile)

	names := map[string]bool{}
	for n := range oldRes {
		names[n] = true
	}
	for n := range newRes {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	fmt.Printf("%-40s %26s %26s %22s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, n := range sorted {
		o, haveOld := oldRes[n]
		nw, haveNew := newRes[n]
		switch {
		case !haveOld:
			fmt.Printf("%-40s %26s %26s %22s\n", n, only(nw.ns(), "new"), only(nw.b(), "new"), only(nw.a(), "new"))
		case !haveNew:
			fmt.Printf("%-40s %26s %26s %22s\n", n, only(o.ns(), "old"), only(o.b(), "old"), only(o.a(), "old"))
		default:
			fmt.Printf("%-40s %26s %26s %22s\n", n,
				delta(o.ns(), nw.ns()), delta(o.b(), nw.b()), delta(o.a(), nw.a()))
		}
	}
}

func (r *result) ns() float64 { return r.nsOp / float64(r.runs) }
func (r *result) b() float64 {
	if !r.hasMem {
		return -1
	}
	return r.bOp / float64(r.runs)
}
func (r *result) a() float64 {
	if !r.hasMem {
		return -1
	}
	return r.allocs / float64(r.runs)
}

// delta formats "old → new (±x%)"; negative percentages are improvements.
func delta(o, n float64) string {
	if o < 0 || n < 0 {
		return "-"
	}
	if o == 0 {
		return fmt.Sprintf("%s → %s", human(o), human(n))
	}
	return fmt.Sprintf("%s → %s (%+.1f%%)", human(o), human(n), 100*(n-o)/o)
}

func only(v float64, which string) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%s (%s only)", human(v), which)
}

// human renders a metric compactly (12.3M, 456.7k, 89).
func human(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
}

// sortSnapshots orders BENCH_<date>[.N].json paths oldest first: by date,
// then by the numeric .N suffix `make bench` gives later runs of the same
// day, the bare name counting as .1.  File names, not mtimes: a checkout
// gives every committed snapshot the same mtime.
func sortSnapshots(files []string) {
	key := func(path string) (string, int) {
		s := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		date, suffix, ok := strings.Cut(s, ".")
		if !ok {
			return date, 1
		}
		n, _ := strconv.Atoi(suffix) // a non-numeric suffix sorts first
		return date, n
	}
	sort.Slice(files, func(i, j int) bool {
		di, ni := key(files[i])
		dj, nj := key(files[j])
		if di != dj {
			return di < dj
		}
		return ni < nj
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mse-benchcmp:", err)
	os.Exit(1)
}

func parseFile(path string) (map[string]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := parseStream(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

func parseStream(r io.Reader) (map[string]*result, error) {
	out := map[string]*result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	// go test -json splits one benchmark result line across several
	// "output" events (the name flushes with a trailing tab, the counts
	// arrive later), so reassemble the output stream into complete
	// text lines before parsing.
	var pending strings.Builder
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // annotation or malformed line; not a test event
		}
		if ev.Action != "output" {
			continue
		}
		pending.WriteString(ev.Output)
		text := pending.String()
		for {
			nl := strings.IndexByte(text, '\n')
			if nl < 0 {
				break
			}
			addBenchLine(out, text[:nl])
			text = text[nl+1:]
		}
		pending.Reset()
		pending.WriteString(text)
	}
	addBenchLine(out, pending.String())
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return out, nil
}

// addBenchLine parses one reassembled output line and, if it is a
// benchmark result, folds it into the accumulator.
func addBenchLine(out map[string]*result, line string) {
	name, r, ok := parseBenchLine(line)
	if !ok {
		return
	}
	acc, exists := out[name]
	if !exists {
		out[name] = r
		return
	}
	acc.runs += r.runs
	acc.nsOp += r.nsOp
	acc.bOp += r.bOp
	acc.allocs += r.allocs
	acc.hasMem = acc.hasMem || r.hasMem
}

// parseBenchLine extracts one "BenchmarkName  N  x ns/op  y B/op  z
// allocs/op" result.  The -8 style GOMAXPROCS suffix is stripped so runs
// from different machines still line up.
func parseBenchLine(line string) (string, *result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", nil, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", nil, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := &result{runs: 1}
	seen := false
	for i := 1; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.nsOp = v
			seen = true
		case "B/op":
			r.bOp = v
			r.hasMem = true
		case "allocs/op":
			r.allocs = v
			r.hasMem = true
		}
	}
	if !seen {
		return "", nil, false
	}
	return name, r, true
}

// runGate runs the named benchmark fresh with a fixed iteration count and
// compares it to the newest committed BENCH_*.json.  allocs/op regressing
// beyond the threshold fails the gate; allocation counts are deterministic
// for a fixed -benchtime Nx, which keeps this check non-flaky on shared CI
// runners.  ns/op deltas are printed and only enforced when
// MSE_BENCHGATE_NS=1.  With enforce non-nil, only benchmarks matching the
// regex can fail the gate — the allowlist lets a -bench pattern pick up
// newly added benchmarks (for the log) without older baselines that lack
// them, or their different cost profile, tripping the gate.  Returns the
// process exit code.
func runGate(bench string, threshold float64, enforce *regexp.Regexp) int {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		fmt.Fprintln(os.Stderr, "mse-benchcmp: no BENCH_*.json baseline; run `make bench` and commit the snapshot")
		return 1
	}
	sortSnapshots(files)
	baseFile := files[len(files)-1]
	base, err := parseFile(baseFile)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("benchgate: running %s (3000x) against baseline %s\n", bench, baseFile)
	cmd := exec.Command("go", "test", "-run", "NONE", "-bench", bench,
		"-benchmem", "-benchtime", "3000x", "-json", ".")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mse-benchcmp: benchmark run failed:", err)
		return 1
	}
	fresh, err := parseStream(strings.NewReader(string(out)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mse-benchcmp: no results for -bench %s: %v\n", bench, err)
		return 1
	}

	gateNS := os.Getenv("MSE_BENCHGATE_NS") == "1"
	if gateResults(os.Stdout, base, fresh, threshold, enforce, gateNS) {
		fmt.Println("benchgate: FAIL")
		return 1
	}
	fmt.Println("benchgate: ok")
	return 0
}

// gateResults compares fresh results to the baseline and prints one line
// per benchmark; it reports whether any enforced benchmark regressed.
func gateResults(w io.Writer, base, fresh map[string]*result, threshold float64, enforce *regexp.Regexp, gateNS bool) bool {
	failed := false
	names := make([]string, 0, len(fresh))
	for n := range fresh {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		nw := fresh[n]
		enforced := enforce == nil || enforce.MatchString(n)
		o, ok := base[n]
		if !ok {
			fmt.Fprintf(w, "%-40s no baseline entry; skipped\n", n)
			continue
		}
		status := "ok"
		if !enforced {
			status = "informational (not in -benchmarks allowlist)"
		}
		if enforced && o.a() >= 0 && nw.a() >= 0 && o.a() > 0 && (nw.a()-o.a())/o.a() > threshold {
			status = fmt.Sprintf("FAIL allocs/op regressed >%.0f%%", threshold*100)
			failed = true
		}
		nsNote := ""
		if o.ns() > 0 && (nw.ns()-o.ns())/o.ns() > threshold {
			if enforced && gateNS {
				status = fmt.Sprintf("FAIL ns/op regressed >%.0f%%", threshold*100)
				failed = true
			} else {
				nsNote = " [ns/op above threshold; informational]"
			}
		}
		fmt.Fprintf(w, "%-40s ns/op %s   allocs/op %s   %s%s\n",
			n, delta(o.ns(), nw.ns()), delta(o.a(), nw.a()), status, nsNote)
	}
	return failed
}
