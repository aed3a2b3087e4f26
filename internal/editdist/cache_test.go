package editdist

import (
	"math/rand"
	"sync"
	"testing"

	"mse/internal/dom"
)

// randTree builds a random element tree of at most depth levels using the
// given tag alphabet.  Structures repeat often, which is exactly the regime
// the cache is built for.
func randTree(r *rand.Rand, depth int) *dom.Node {
	tags := []string{"div", "span", "a", "td", "tr"}
	n := &dom.Node{Type: dom.ElementNode, Tag: tags[r.Intn(len(tags))]}
	if depth > 0 {
		for i := r.Intn(4); i > 0; i-- {
			n.AppendChild(randTree(r, depth-1))
		}
	}
	return n
}

// setCacheCapacity bounds the number of resident distance entries (divided
// evenly over the shards, minimum one per shard) and flushes the cache so
// the new bound takes effect immediately.
func setCacheCapacity(entries int) {
	per := entries / cacheShardCount
	if per < 1 {
		per = 1
	}
	cache.perShard.Store(int64(per))
	flushCache()
}

// withCacheState runs fn and restores the cache's capacity and contents
// afterwards, so tests can resize and flush the global cache freely.
func withCacheState(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		setCacheCapacity(DefaultCacheCapacity)
		ResetCache()
	}()
	fn()
}

// refTreeDist is the unmemoized reference for TreeDist: a fresh
// Zhang-Shasha dynamic program normalized by the larger tree's size.
func refTreeDist(a, b *dom.Node) float64 {
	maxSize := a.Size()
	if s := b.Size(); s > maxSize {
		maxSize = s
	}
	return float64(TreeEditDistance(a, b)) / float64(maxSize)
}

// TestTreeDistCachedMatchesUncached is the differential test at the
// distance level: for random tree pairs the memoized path must return
// exactly the value of the plain dynamic program, both when it fills the
// cache and when it answers from a resident entry.
func TestTreeDistCachedMatchesUncached(t *testing.T) {
	withCacheState(t, func() {
		r := rand.New(rand.NewSource(42))
		trees := make([]*dom.Node, 40)
		for i := range trees {
			trees[i] = randTree(r, 3)
		}
		ResetCache()
		// Query everything twice so resident-hit answers are covered too.
		for round := 0; round < 2; round++ {
			for i, a := range trees {
				for j, b := range trees {
					if got, want := TreeDist(a, b), refTreeDist(a, b); got != want {
						t.Fatalf("round %d pair (%d,%d): cached %v != direct %v", round, i, j, got, want)
					}
				}
			}
		}
		if s := Stats(); s.Hits == 0 {
			t.Fatalf("second round never hit the cache: %+v", s)
		}
	})
}

func TestWithinTreeDistMatchesExact(t *testing.T) {
	withCacheState(t, func() {
		ResetCache()
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			a, b := randTree(r, 3), randTree(r, 3)
			eps := float64(r.Intn(11)) / 10
			want := refTreeDist(a, b) <= eps
			if got := WithinTreeDist(a, b, eps); got != want {
				t.Fatalf("WithinTreeDist(%d, eps=%v) = %v, exact says %v", i, eps, got, want)
			}
		}
	})
}

func TestCacheSymmetric(t *testing.T) {
	withCacheState(t, func() {
		ResetCache()
		r := rand.New(rand.NewSource(3))
		a, b := randTree(r, 3), randTree(r, 3)
		d1 := TreeDist(a, b)
		s1 := Stats()
		d2 := TreeDist(b, a)
		s2 := Stats()
		if d1 != d2 {
			t.Fatalf("asymmetric: %v vs %v", d1, d2)
		}
		if a.Fingerprint() != b.Fingerprint() && s2.Misses != s1.Misses {
			t.Fatalf("reversed query missed the cache: %+v -> %+v", s1, s2)
		}
	})
}

func TestCacheEvictionBound(t *testing.T) {
	withCacheState(t, func() {
		setCacheCapacity(cacheShardCount) // one entry per shard
		ResetCache()
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 200; i++ {
			TreeDist(randTree(r, 3), randTree(r, 3))
		}
		s := Stats()
		if s.Entries > cacheShardCount {
			t.Fatalf("cache grew past its bound: %d entries > %d", s.Entries, cacheShardCount)
		}
		if s.Misses > 0 && s.Entries == 0 {
			t.Fatal("cache retained nothing despite misses")
		}
	})
}

func TestCacheStatsAccounting(t *testing.T) {
	withCacheState(t, func() {
		ResetCache()
		a := randTree(rand.New(rand.NewSource(5)), 3)
		b := a.Clone()
		TreeDist(a, b) // identical fingerprints
		s := Stats()
		if s.Identical != 1 || s.Lookups != 1 {
			t.Fatalf("identical-pair stats wrong: %+v", s)
		}
		r := rand.New(rand.NewSource(6))
		var c *dom.Node
		for {
			c = randTree(r, 3)
			if c.Fingerprint() != a.Fingerprint() {
				break
			}
		}
		TreeDist(a, c)
		TreeDist(a, c)
		s = Stats()
		if s.Misses != 1 || s.Hits != 1 {
			t.Fatalf("miss/hit accounting wrong: %+v", s)
		}
	})
}

// TestCacheConcurrent hammers the cache from many goroutines; run under
// -race it verifies the locking discipline, and the equality check verifies
// that racing computes agree.
func TestCacheConcurrent(t *testing.T) {
	withCacheState(t, func() {
		setCacheCapacity(256) // small: forces concurrent evictions too
		ResetCache()
		r := rand.New(rand.NewSource(13))
		trees := make([]*dom.Node, 24)
		for i := range trees {
			trees[i] = randTree(r, 3)
		}
		want := make(map[[2]int]float64)
		for i := range trees {
			for j := range trees {
				want[[2]int{i, j}] = refTreeDist(trees[i], trees[j])
			}
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				lr := rand.New(rand.NewSource(seed))
				for k := 0; k < 500; k++ {
					i, j := lr.Intn(len(trees)), lr.Intn(len(trees))
					if got := TreeDist(trees[i], trees[j]); got != want[[2]int{i, j}] {
						select {
						case errs <- "concurrent TreeDist diverged from serial value":
						default:
						}
						return
					}
				}
			}(int64(w))
		}
		wg.Wait()
		close(errs)
		if msg, ok := <-errs; ok {
			t.Fatal(msg)
		}
	})
}

// TestCacheKeyIncludesSizes pins the collision guard documented on
// pairKey: two fingerprint pairs whose hashes agree but whose sizes differ
// must not share a cache entry.
func TestCacheKeyIncludesSizes(t *testing.T) {
	a := dom.Fingerprint{Hash: 7, Size: 3}
	b := dom.Fingerprint{Hash: 9, Size: 5}
	c := dom.Fingerprint{Hash: 7, Size: 4}
	if makeKey(a, b) != makeKey(b, a) {
		t.Fatal("makeKey is not symmetric")
	}
	withCacheState(t, func() {
		ResetCache()
		cache.put(makeKey(a, b), 0.25)
		if v, ok := cache.get(makeKey(c, b)); ok {
			t.Fatalf("pair with a different size answered %v from another pair's entry", v)
		}
	})
}
