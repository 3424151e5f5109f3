package solver

// cache.go implements the Solver's instance cache: parsed graphs and
// hypergraphs keyed by a content hash of the raw instance bytes, so
// repeated submissions of a hot instance skip parsing and CSR
// construction entirely. The cache moved here from cmd/cfserve so every
// Solver owner — the HTTP service, the CLIs, library callers — shares one
// implementation. Instances are immutable after construction (see
// internal/graph and internal/hypergraph), which is what makes handing
// the same parsed value to concurrent requests safe. Eviction is plain
// LRU over an entry-count bound.
//
// Each entry also keeps up to answerSlots computed answers, keyed by
// exactly the inputs the resolved strategy receives (answerKey): the
// reduction and the MaxIS oracles are deterministic in those inputs, so
// a repeated (instance, strategy) request returns the stored result
// without solving. Only successful results are stored, they are shared
// read-only between callers, and they leave with their entry. The
// counters surface as CacheStats and cfserve's pslocal_cache_* and
// pslocal_answer_* series. DESIGN.md ("Solver and instance cache")
// records the keying and eviction rationale.

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"pslocal/internal/obs"
)

// cacheKey derives the cache key for an instance body: the substrate kind
// and requested format are part of the key because the same bytes could
// in principle parse differently under different format directives.
func cacheKey(kind, format string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(format))
	h.Write([]byte{0})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// InstanceKey derives the instance-cache key SolveReader and MaxISReader
// would compute for body: the hex sha256 over the substrate kind
// (KindHypergraph for the reduction endpoints, KindGraph for MaxIS), the
// canonical format directive (graphio.Format.String()), and the raw
// bytes. cfgate routes on it, so one instance always lands on the
// backend whose cache holds it.
func InstanceKey(kind, format string, body []byte) string {
	return cacheKey(kind, format, body)
}

// The Instance.Kind spellings, which are also the kind argument of
// InstanceKey.
const (
	KindHypergraph = "hypergraph"
	KindGraph      = "graph"
)

// instanceCache is a mutex-guarded LRU from content hash to parsed
// instance (*cachedGraph or *hypergraph.Hypergraph) and its answers.
type instanceCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64

	// answerHits and answerMisses count answer-store lookups; each entry
	// guards its own answers, so these are not under mu.
	answerHits   atomic.Uint64
	answerMisses atomic.Uint64
}

// cacheEntry is one LRU slot: the parsed instance and the answers
// computed on it, which leave the cache with it.
type cacheEntry struct {
	key     string
	val     any
	answers answerSet
}

// answerSlots bounds the answers one entry keeps, so the store holds at
// most capacity × answerSlots results.
const answerSlots = 4

// answerKey is exactly what the resolved strategy receives besides the
// instance (see Solver.reduceOptions and Solver.maxISKey). Inputs a
// strategy does not read stay zero, so requests that differ only there
// share one answer: implicit and exact ignore the seed and the engine.
type answerKey struct {
	strategy string  // "implicit", "exact", a registry or portfolio name, or "carving"
	k        int     // palette size; 0 for MaxIS
	seed     int64   // registry oracles only
	workers  int     // resolved engine width; registry oracles only
	delta    float64 // resolved carving slack; carving only
}

// answerSet is one entry's bounded answer store: *core.Result values on
// hypergraph entries, *ISResult on graph entries. When full, a new key
// overwrites the oldest one.
type answerSet struct {
	mu   sync.Mutex
	keys [answerSlots]answerKey
	vals [answerSlots]any
	n    int // slots filled
	next int // slot the next new key overwrites once full
}

// get returns the answer stored under key.
func (a *answerSet) get(key answerKey) (any, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := 0; i < a.n; i++ {
		if a.keys[i] == key {
			return a.vals[i], true
		}
	}
	return nil, false
}

// put stores val under key; a nil set (no cache) stores nothing. A key
// already present keeps its first answer, so every caller of one answer
// shares one pointer.
func (a *answerSet) put(key answerKey, val any) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := 0; i < a.n; i++ {
		if a.keys[i] == key {
			return
		}
	}
	i := a.n
	if i == answerSlots {
		i = a.next
		a.next = (a.next + 1) % answerSlots
	} else {
		a.n++
	}
	a.keys[i], a.vals[i] = key, val
}

// answer looks key up in a (nil without a cache), counting the hit or
// miss and recording an answer span on a traced call.
func (c *instanceCache) answer(ctx context.Context, a *answerSet, key answerKey) (any, bool) {
	if a == nil {
		return nil, false
	}
	sp := obs.TraceFrom(ctx).Start("answer")
	v, ok := a.get(key)
	if ok {
		c.answerHits.Add(1)
		sp.SetDetail("hit")
	} else {
		c.answerMisses.Add(1)
		sp.SetDetail("miss")
	}
	sp.End()
	return v, ok
}

// newInstanceCache returns a cache bounded to capacity entries (minimum 1).
func newInstanceCache(capacity int) *instanceCache {
	if capacity < 1 {
		capacity = 1
	}
	return &instanceCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// getBytes returns the cached entry for key, promoting it to
// most-recently-used, and records the hit or miss. It is keyed by raw
// bytes: the map access compiles without materialising a key string, and
// the entry carries its canonical key so the caller never allocates one
// either — the cache-hit serve path stays at 0 allocs/op.
func (c *instanceCache) getBytes(key []byte) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put inserts (or refreshes) key → val, evicts the least recently used
// entries beyond capacity, and returns the entry now holding key.
func (c *instanceCache) put(key string, val any) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		e.val = val
		c.order.MoveToFront(el)
		return e
	}
	e := &cacheEntry{key: key, val: val}
	c.items[key] = c.order.PushFront(e)
	for c.order.Len() > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evictions++
	}
	return e
}

// CacheStats is a point-in-time snapshot of the Solver's instance cache
// and its answer store; cmd/cfserve embeds it verbatim in its /statz
// response, hence the JSON tags.
type CacheStats struct {
	Capacity  int    `json:"capacity"`
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// AnswerHits counts reader calls answered from the store without
	// solving; AnswerMisses counts reader calls that ran the strategy.
	AnswerHits   uint64 `json:"answer_hits"`
	AnswerMisses uint64 `json:"answer_misses"`
}

// snapshot returns a consistent view of the cache counters.
func (c *instanceCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:     c.capacity,
		Entries:      c.order.Len(),
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		AnswerHits:   c.answerHits.Load(),
		AnswerMisses: c.answerMisses.Load(),
	}
}
