package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"
	"strings"

	"mse/internal/synth"
)

// Make-up of the inputs.  The serving workloads use the paper's test bed
// (synth.DefaultConfig: master seed 2006, 119 engines, 38 of them
// multi-section); the build workload draws fresh beds of the same shape
// from master seeds derived from the workload seed.  The workload seed
// picks which held-out result pages are served, their order and the
// popularity ranking; the program under test only ever sees the pages.
const (
	trainPages        = 5   // sample pages per engine (query indices 0-4), as in the paper
	missPagesPerEng   = 5   // serve-miss pool pages per engine
	hotPagesPerEng    = 8   // serve-hot working-set pages per engine
	heldOutQueryRange = 400 // served pages are drawn from query indices [5, 405)
	buildHeldOut      = 5   // held-out pages per built engine (query indices 5-9)
	batchItems        = 16  // items per serve-hot batch request
	// hotZipfS is the exponent of the serve-hot popularity law: the page of
	// rank r is requested with weight 1/(r+1)^s.
	hotZipfS = 1.0
)

// Stream identifiers keep the seeded draws of different purposes apart.
const (
	streamPool = iota + 1
	streamRank
	streamWarm
	streamOpen
	streamClosed
	streamTraced
	streamProbe
	streamSample
)

// servePage is one result page of the serving bed, ready to send.
type servePage struct {
	engine int    // index into the bed
	name   string // engine name the wrapper is registered under
	page   *synth.GenPage
	query  string // the page's query terms, space-separated
	qs     string // the /extract query string: engine=NAME&q=TERMS
}

func engineName(id int) string { return fmt.Sprintf("e%03d", id) }

func newServePage(idx int, p *synth.GenPage) servePage {
	name := engineName(idx)
	q := strings.Join(p.Query, " ")
	return servePage{
		engine: idx,
		name:   name,
		page:   p,
		query:  q,
		qs:     "engine=" + name + "&q=" + url.QueryEscape(q),
	}
}

// servingPages draws perEngine distinct held-out result pages for every
// engine of the bed and orders them in rounds, one page per engine per
// round with the engine order shuffled each round, so that consecutive
// requests interleave engines.
func servingPages(bed []*synth.Engine, seed uint64, perEngine int) []servePage {
	rng := rand.New(rand.NewPCG(seed, streamPool))
	queries := make([][]int, len(bed))
	for i := range bed {
		idx := rng.Perm(heldOutQueryRange)[:perEngine]
		for k := range idx {
			idx[k] += trainPages
		}
		queries[i] = idx
	}
	var out []servePage
	for k := 0; k < perEngine; k++ {
		for _, i := range rng.Perm(len(bed)) {
			out = append(out, newServePage(i, bed[i].Page(queries[i][k])))
		}
	}
	return out
}

// popularity samples page indices of a working set with a Zipf law over a
// seeded ranking of the set.
type popularity struct {
	cdf  []float64 // cumulative weight by rank
	page []int     // page index of each rank
}

func newPopularity(n int, seed uint64) *popularity {
	p := &popularity{cdf: make([]float64, n), page: rand.New(rand.NewPCG(seed, streamRank)).Perm(n)}
	total := 0.0
	for r := range p.cdf {
		total += 1 / math.Pow(float64(r+1), hotZipfS)
		p.cdf[r] = total
	}
	return p
}

func (p *popularity) draw(rng *rand.Rand) int {
	u := rng.Float64() * p.cdf[len(p.cdf)-1]
	r := sort.SearchFloat64s(p.cdf, u)
	if r >= len(p.page) {
		r = len(p.page) - 1
	}
	return p.page[r]
}

// batch returns the working-set indices of batch b of a stream; the same
// (seed, stream, b) always gives the same batch, whichever worker sends it.
func (p *popularity) batch(seed uint64, stream, b int) []int {
	rng := rand.New(rand.NewPCG(seed^uint64(stream)<<56, uint64(b)))
	out := make([]int, batchItems)
	for i := range out {
		out[i] = p.draw(rng)
	}
	return out
}

// buildMasterSeed is the synth master seed of build round r.  Rounds never
// share a master seed, so every built engine is distinct.
func buildMasterSeed(seed uint64, r int) int64 {
	return int64(1_000_000 + seed*1000 + uint64(r))
}

// buildRound generates one bed of the paper's shape (119 engines, 38
// multi-section) with trainPages sample and buildHeldOut held-out pages
// per engine.
func buildRound(seed uint64, r int) [][]*synth.GenPage {
	cfg := synth.DefaultConfig()
	cfg.Seed = buildMasterSeed(seed, r)
	bed := synth.GenerateTestbed(cfg)
	out := make([][]*synth.GenPage, len(bed))
	for i, e := range bed {
		out[i] = e.Pages(trainPages + buildHeldOut)
	}
	return out
}

// dupShare is the share of the items of batches 0..n-1 of a stream that
// repeat a page already in their batch.
func (p *popularity) dupShare(seed uint64, stream, n int) float64 {
	dups := 0
	for b := 0; b < n; b++ {
		seen := map[int]bool{}
		for _, k := range p.batch(seed, stream, b) {
			if seen[k] {
				dups++
			}
			seen[k] = true
		}
	}
	return ratio(float64(dups), float64(n*batchItems))
}
