// Command mse-serve runs an extraction service over stored MSE wrappers —
// the deployment shape of the paper's metasearch application.
//
// Usage:
//
//	mse-serve -addr :8080 -wrappers dir/ [-pprof] [-quiet]
//	          [-max-inflight N] [-queue-timeout D] [-log-format text|json]
//	          [-journal PATH] [-journal-sample N] [-drift-window N]
//	          [-cache-bytes N] [-shard k/N]
//	          [-snapshot PATH] [-snapshot-save PATH]
//	          [-relearn] [-relearn-sample-bytes N] [-relearn-min-pages N]
//	          [-relearn-train-pages N] [-relearn-holdout-pages N]
//	          [-relearn-backoff D]
//
// Every *.json file in the wrappers directory is loaded as one engine
// wrapper named after the file (sans extension).  Endpoints:
//
//	GET  /healthz
//	GET  /engines
//	GET  /metrics                           JSON metrics snapshot
//	GET  /statusz                           human-readable status page
//	GET  /driftz                            per-engine drift report
//	GET  /relearnz                          self-healing lifecycle report
//	POST /relearn/NAME                      manually trigger a relearn
//	POST /extract?engine=NAME&q=term+term   (body: result page HTML)
//	POST /extract/batch                     (body: {"items":[...]})
//
// With -relearn the service heals drifted engines automatically: recent
// request pages are sampled into a bounded per-engine reservoir (byte
// budget via -relearn-sample-bytes, content-address-deduped), a DRIFTED
// verdict schedules a background relearn over at least -relearn-min-pages
// sampled pages (induction over the newest -relearn-train-pages, canary
// over -relearn-holdout-pages of them), the candidate wrapper must beat
// the incumbent on a held-out canary slice, and only then is it hot-swapped — generation
// bump, cache invalidation, drift-baseline reset and snapshot persistence
// included.  Failed attempts retry with capped exponential backoff
// (-relearn-backoff); repeated failure pins the engine DEGRADED until an
// operator POSTs /relearn/NAME.
//
// -cache-bytes bounds the content-addressed extraction result cache (0
// disables it): byte-identical repeat pages are answered from the cache
// without re-running the pipeline, and a wrapper swap invalidates only
// that engine's entries.  -shard k/N makes this process shard k of an
// N-way fleet split by consistent hashing over engine names: only owned
// wrappers are loaded and requests for other engines get 421 naming the
// owner.  -snapshot loads the wrapper fleet (with generations) from a
// snapshot file when it exists, falling back to -wrappers otherwise;
// -snapshot-save writes a fresh snapshot after loading, so the next
// restart resumes the same generation sequence.
//
// With -journal the server appends one wide-event JSON line per sampled
// /extract request to PATH (1-in-N sampling via -journal-sample); the
// lines carry the request ID echoed in the X-Request-ID response header,
// so a journal line, an access-log line and the client's own records all
// correlate.  -drift-window tunes how many pages the drift detector's
// anomaly-rate smoothing spans.  -log-format json switches the access and
// service logs to JSON.
//
// With -pprof the net/http/pprof profiling handlers are mounted under
// /debug/pprof/ and the expvar dump under /debug/vars.  The server drains
// in-flight requests and exits cleanly on SIGINT/SIGTERM.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mse/internal/core"
	"mse/internal/quality"
	"mse/internal/relearn"
	"mse/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("wrappers", "wrappers", "directory of <engine>.json wrapper files")
	withPprof := flag.Bool("pprof", false, "expose /debug/pprof/ and /debug/vars")
	quiet := flag.Bool("quiet", false, "disable the per-request access log")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain timeout")
	maxInflight := flag.Int("max-inflight", 0,
		"max concurrent extractions before requests queue (0 = 2x GOMAXPROCS, -1 = unlimited)")
	queueTimeout := flag.Duration("queue-timeout", time.Second,
		"how long an /extract request may wait for a slot before being shed with 429")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	journalPath := flag.String("journal", "",
		"append wide-event JSON lines for sampled /extract requests to this file")
	journalSample := flag.Int("journal-sample", 1,
		"journal 1 in N /extract requests (1 = every request)")
	driftWindow := flag.Int("drift-window", 0,
		"drift detector smoothing window in pages (0 = default)")
	cacheBytes := flag.Int64("cache-bytes", 256<<20,
		"byte bound for the content-addressed extraction result cache (0 disables)")
	shardSpec := flag.String("shard", "",
		"serve shard k of an N-way fleet as \"k/N\" (empty = own every engine)")
	snapshotPath := flag.String("snapshot", "",
		"load the wrapper fleet from this snapshot file when it exists (falls back to -wrappers)")
	snapshotSave := flag.String("snapshot-save", "",
		"write a registry snapshot to this file after loading")
	relearnOn := flag.Bool("relearn", false,
		"self-heal drifted engines: sample served pages, relearn in the background on a DRIFTED verdict, canary-validate and hot-swap")
	relearnSampleBytes := flag.Int64("relearn-sample-bytes", 8<<20,
		"per-engine byte budget for the relearn page reservoir")
	relearnMinPages := flag.Int("relearn-min-pages", 6,
		"minimum sampled pages before a relearn attempt runs")
	relearnTrainPages := flag.Int("relearn-train-pages", 0,
		"newest sampled pages fed to relearn wrapper induction (0 = default); keep small so a fresh drift fills the window quickly")
	relearnHoldoutPages := flag.Int("relearn-holdout-pages", 0,
		"sampled pages held out of relearn training for canary validation (0 = default)")
	relearnBackoff := flag.Duration("relearn-backoff", 5*time.Second,
		"initial retry delay after a failed relearn attempt (doubles per failure, capped)")
	flag.Parse()

	// Fail fast on nonsense numeric flags.  Several downstream configs
	// quietly "sanitize" out-of-range values to defaults, which turns a
	// typo like -relearn-min-pages 0 into silently different behavior; a
	// startup error is the honest response.
	for _, c := range []struct {
		ok   bool
		flag string
		why  string
	}{
		{*maxInflight >= -1, "-max-inflight", "must be >= -1 (0 = 2x GOMAXPROCS, -1 = unlimited)"},
		{*queueTimeout > 0, "-queue-timeout", "must be positive"},
		{*drain > 0, "-drain", "must be positive"},
		{*journalSample >= 1, "-journal-sample", "must be >= 1"},
		{*driftWindow >= 0, "-drift-window", "must be >= 0 (0 = default)"},
		{*cacheBytes >= 0, "-cache-bytes", "must be >= 0 (0 disables)"},
		{*relearnSampleBytes > 0, "-relearn-sample-bytes", "must be positive"},
		{*relearnMinPages >= 3, "-relearn-min-pages", "must be >= 3 (2 to train + 1 to hold out)"},
		{*relearnTrainPages == 0 || *relearnTrainPages >= 2, "-relearn-train-pages", "must be >= 2 (0 = default); induction needs two pages"},
		{*relearnHoldoutPages >= 0, "-relearn-holdout-pages", "must be >= 0 (0 = default)"},
		{*relearnBackoff > 0, "-relearn-backoff", "must be positive"},
	} {
		if !c.ok {
			fmt.Fprintf(os.Stderr, "mse-serve: invalid %s: %s\n", c.flag, c.why)
			os.Exit(2)
		}
	}

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		slog.Error("invalid -log-format", "value", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	reg := serve.NewRegistry(core.DefaultOptions())
	if !*quiet {
		reg.SetAccessLog(logger)
	}
	if *driftWindow > 0 {
		cfg := quality.DefaultConfig()
		cfg.Window = *driftWindow
		reg.SetQualityConfig(cfg)
	}
	if *journalPath != "" {
		f, err := os.OpenFile(*journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(logger, "opening journal", err)
		}
		defer f.Close()
		reg.SetJournal(f, *journalSample)
	}
	// Admission control: by default admit roughly two extractions per CPU
	// — extraction is CPU-bound, so beyond that extra concurrency only
	// grows latency and pooled-memory footprint.  Negative disables.
	inflight := *maxInflight
	if inflight == 0 {
		inflight = 2 * runtime.GOMAXPROCS(0)
	}
	reg.SetLimits(inflight, *queueTimeout)
	reg.SetCache(*cacheBytes)
	if *shardSpec != "" {
		k, n, err := parseShard(*shardSpec)
		if err != nil {
			fatal(logger, "parsing -shard", err)
		}
		if err := reg.SetShard(k, n); err != nil {
			fatal(logger, "configuring shard", err)
		}
	}
	// Arm swap persistence: every wrapper swap (relearn- or operator-driven)
	// rewrites this snapshot, so a restart cannot resurrect a replaced
	// wrapper.  -snapshot-save wins when both paths are given.
	persistPath := *snapshotSave
	if persistPath == "" {
		persistPath = *snapshotPath
	}
	reg.SetSnapshotPath(persistPath)
	if *relearnOn {
		cfg := relearn.DefaultConfig()
		cfg.SampleBytes = *relearnSampleBytes
		cfg.MinPages = *relearnMinPages
		if *relearnTrainPages > 0 {
			cfg.TrainPages = *relearnTrainPages
		}
		if *relearnHoldoutPages > 0 {
			cfg.HoldoutPages = *relearnHoldoutPages
		}
		cfg.Backoff = *relearnBackoff
		ctrl := reg.EnableRelearn(cfg)
		// Jobs cancel cooperatively on shutdown, after the server drains.
		defer ctrl.Close()
	}

	loaded, skipped := 0, 0
	if *snapshotPath != "" {
		if f, err := os.Open(*snapshotPath); err == nil {
			n, lerr := reg.LoadSnapshot(f)
			f.Close()
			if lerr != nil {
				fatal(logger, "loading snapshot", lerr)
			}
			loaded = n
			logger.Info("loaded snapshot", "path", *snapshotPath, "engines", n)
		} else if !os.IsNotExist(err) {
			fatal(logger, "opening snapshot", err)
		}
	}
	if loaded == 0 {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			fatal(logger, "reading wrapper directory", err)
		}
		for _, ent := range entries {
			if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
				continue
			}
			name := strings.TrimSuffix(ent.Name(), ".json")
			if !reg.Owns(name) {
				skipped++
				continue
			}
			data, err := os.ReadFile(filepath.Join(*dir, ent.Name()))
			if err != nil {
				fatal(logger, "reading "+ent.Name(), err)
			}
			if err := reg.Add(name, data); err != nil {
				fatal(logger, "loading wrapper", err)
			}
			loaded++
		}
	}
	if loaded == 0 {
		logger.Error("no wrapper files found", "dir", *dir, "skipped_other_shards", skipped)
		os.Exit(1)
	}
	if *snapshotSave != "" {
		f, err := os.Create(*snapshotSave)
		if err != nil {
			fatal(logger, "creating snapshot file", err)
		}
		if err := reg.SaveSnapshot(f); err != nil {
			f.Close()
			fatal(logger, "writing snapshot", err)
		}
		if err := f.Close(); err != nil {
			fatal(logger, "closing snapshot file", err)
		}
		logger.Info("saved snapshot", "path", *snapshotSave, "engines", loaded)
	}

	reg.Metrics().Registry().Publish("mse")
	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	if *withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
	}

	shardIdx, shardTotal, sharded := reg.ShardInfo()
	logger.Info("listening",
		"addr", *addr, "engines", loaded, "skipped_other_shards", skipped,
		"names", strings.Join(reg.Names(), ","), "pprof", *withPprof,
		"cache_bytes", *cacheBytes, "sharded", sharded,
		"shard", shardIdx, "shards", shardTotal)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := serve.NewServer(*addr, mux)
	if err := serve.Run(ctx, srv, serve.RunConfig{
		Logger:       logger,
		DrainTimeout: *drain,
		InFlight:     reg.Metrics().InFlight,
	}); err != nil {
		fatal(logger, "server", err)
	}
}

// parseShard parses the -shard "k/N" form (0 <= k < N, N >= 1).
func parseShard(spec string) (k, n int, err error) {
	k, n = -1, -1
	if _, err := fmt.Sscanf(spec, "%d/%d", &k, &n); err != nil {
		return 0, 0, fmt.Errorf("want \"k/N\", got %q", spec)
	}
	if n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("shard %d/%d out of range (want 0 <= k < N)", k, n)
	}
	return k, n, nil
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}
