package editdist

// Memoization of normalized tree edit distances.
//
// The MSE pipeline recomputes Zhang-Shasha distances over the same tag
// trees constantly: clustering compares every record forest against every
// other, refinement and granularity resolution re-measure the same records,
// and the MDR baseline scans sibling runs pairwise.  Because distances
// depend only on tree *structure*, a pair of structural fingerprints
// (dom.Fingerprint: bottom-up hash + size) fully determines the result, so
// a process-wide bounded cache keyed by symmetric fingerprint pairs absorbs
// all repeat work:
//
//   - identical fingerprints short-circuit to distance 0 without touching
//     the cache or the dynamic program;
//   - a size-ratio lower bound (the edit distance is at least the size
//     difference) lets thresholded queries (WithinTreeDist) skip the
//     dynamic program outright;
//   - everything else is answered from the cache or computed once.
//
// The cache is sharded (lock striping) and bounded: a full shard evicts an
// arbitrary resident entry per insert.  Eviction order is map-iteration
// arbitrary, which is safe because cached values are exact — any
// replacement policy yields identical results, only different hit rates.
// The committed extraction digests (internal/serve TestExtractDigests)
// and the distance-level tests against TreeEditDistance pin that.

import (
	"sync"
	"sync/atomic"

	"mse/internal/dom"
)

// cacheShardCount is the number of lock stripes.  32 keeps contention
// negligible at pipeline parallelism while staying cheap to flush.
const cacheShardCount = 32

// DefaultCacheCapacity is the default bound on resident distance entries
// across all shards.  At 24 bytes/entry this is ~3 MB resident worst case.
const DefaultCacheCapacity = 1 << 17

// pairKey identifies an unordered pair of subtree fingerprints.  Sizes are
// part of the key so a hash collision must also collide on size to corrupt
// a lookup.  The pair is stored with the smaller (hash, size) first, making
// the cache symmetric: dist(a, b) and dist(b, a) share one entry.
type pairKey struct {
	h1, h2 uint64
	s1, s2 int32
}

type cacheShard struct {
	mu sync.Mutex
	m  map[pairKey]float64
}

type distCache struct {
	shards   [cacheShardCount]cacheShard
	perShard atomic.Int64 // capacity per shard

	lookups    atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	identical  atomic.Int64
	earlyExits atomic.Int64
	evictions  atomic.Int64
}

var cache distCache

func init() {
	cache.perShard.Store(int64(DefaultCacheCapacity / cacheShardCount))
	for i := range cache.shards {
		cache.shards[i].m = make(map[pairKey]float64)
	}
}

// ResetCache flushes all resident entries and zeroes the cache statistics.
func ResetCache() {
	flushCache()
	cache.lookups.Store(0)
	cache.hits.Store(0)
	cache.misses.Store(0)
	cache.identical.Store(0)
	cache.earlyExits.Store(0)
	cache.evictions.Store(0)
}

func flushCache() {
	for i := range cache.shards {
		sh := &cache.shards[i]
		sh.mu.Lock()
		sh.m = make(map[pairKey]float64)
		sh.mu.Unlock()
	}
}

// CacheStats is a snapshot of the tree-distance cache counters.
//
//	Lookups    fingerprint-keyed TreeDist queries
//	Identical  answered 0 via fingerprint equality (no cache, no DP)
//	Hits       answered from a resident entry
//	Misses     full Zhang-Shasha dynamic programs run (and then cached)
//	EarlyExits dynamic programs skipped by the size-ratio lower bound or
//	           the leaf-pair shortcut
//	Evictions  resident entries displaced by inserts into full shards
//	Entries    resident entries right now
type CacheStats struct {
	Lookups    int64 `json:"lookups"`
	Identical  int64 `json:"identical"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	EarlyExits int64 `json:"early_exits"`
	Evictions  int64 `json:"evictions"`
	Entries    int64 `json:"entries"`
}

// Stats returns the current cache counters.
func Stats() CacheStats {
	s := CacheStats{
		Lookups:    cache.lookups.Load(),
		Identical:  cache.identical.Load(),
		Hits:       cache.hits.Load(),
		Misses:     cache.misses.Load(),
		EarlyExits: cache.earlyExits.Load(),
		Evictions:  cache.evictions.Load(),
	}
	for i := range cache.shards {
		sh := &cache.shards[i]
		sh.mu.Lock()
		s.Entries += int64(len(sh.m))
		sh.mu.Unlock()
	}
	return s
}

// Sub returns the counter deltas s - o (Entries is carried from s), used to
// attribute cache activity to one pipeline run.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		Lookups:    s.Lookups - o.Lookups,
		Identical:  s.Identical - o.Identical,
		Hits:       s.Hits - o.Hits,
		Misses:     s.Misses - o.Misses,
		EarlyExits: s.EarlyExits - o.EarlyExits,
		Evictions:  s.Evictions - o.Evictions,
		Entries:    s.Entries,
	}
}

// HitRate is the fraction of lookups that avoided the dynamic program
// (identical-fingerprint fast path plus resident hits); 0 when idle.
func (s CacheStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Identical+s.Hits) / float64(s.Lookups)
}

// makeKey orders the two fingerprints so the key is symmetric.
func makeKey(a, b dom.Fingerprint) pairKey {
	if a.Hash > b.Hash || (a.Hash == b.Hash && a.Size > b.Size) {
		a, b = b, a
	}
	return pairKey{h1: a.Hash, h2: b.Hash, s1: int32(a.Size), s2: int32(b.Size)}
}

func (c *distCache) shard(k pairKey) *cacheShard {
	return &c.shards[(k.h1^k.h2)%cacheShardCount]
}

func (c *distCache) get(k pairKey) (float64, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	v, ok := sh.m[k]
	sh.mu.Unlock()
	return v, ok
}

func (c *distCache) put(k pairKey, v float64) {
	per := int(c.perShard.Load())
	sh := c.shard(k)
	sh.mu.Lock()
	if _, exists := sh.m[k]; !exists && len(sh.m) >= per {
		for victim := range sh.m {
			delete(sh.m, victim)
			c.evictions.Add(1)
			break
		}
	}
	sh.m[k] = v
	sh.mu.Unlock()
}

// WithinTreeDist reports whether TreeDist(t1, t2) <= eps without always
// paying for the exact distance: identical fingerprints answer true and
// the size-ratio lower bound — an edit script must at least insert or
// delete the size difference, so Dt >= |s1-s2|/max(s1,s2) — answers false,
// both before running the dynamic program.
func WithinTreeDist(t1, t2 *dom.Node, eps float64) bool {
	if t1 == nil && t2 == nil {
		return eps >= 0
	}
	if t1 == nil || t2 == nil {
		return eps >= 1
	}
	f1, f2 := t1.Fingerprint(), t2.Fingerprint()
	if f1 == f2 {
		return eps >= 0
	}
	lo, hi := f1.Size, f2.Size
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 0 && float64(hi-lo)/float64(hi) > eps {
		cache.earlyExits.Add(1)
		return false
	}
	return TreeDist(t1, t2) <= eps
}
