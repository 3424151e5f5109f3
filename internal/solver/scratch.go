package solver

// scratch.go owns the per-worker serve scratch: a sync.Pool of reusable
// read buffers plus hashing state, so a cache-hit SolveReader/MaxISReader
// request allocates nothing — the body lands in a pooled buffer, the
// content hash runs through a pooled sha256 state into fixed arrays, and
// the cache lookup borrows the entry's canonical key string instead of
// materialising a new one. A miss, and every read without a cache,
// parses from the same pooled buffer. BenchmarkSolverCacheHitAllocs
// holds the hit line at 0 allocs/op; the bench CI allocation gate keeps it
// there.

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"sync"

	"pslocal/internal/graph"
	"pslocal/internal/maxis"
)

// maxRetainedBody caps the read buffer a pooled scratch keeps between
// requests (1 MiB); a one-off giant instance must not pin its buffer in
// the pool forever.
const maxRetainedBody = 1 << 20

// serveScratch is one worker's reusable read/hash state.
type serveScratch struct {
	body []byte                // instance bytes, grown in place and retained
	hash hash.Hash             // sha256 state, Reset per request
	pre  [64]byte              // kind/format key prefix staging
	sum  [sha256.Size]byte     // digest output
	hex  [2 * sha256.Size]byte // hex-encoded cache key
}

var servePool = sync.Pool{New: func() any { return new(serveScratch) }}

func grabServeScratch() *serveScratch { return servePool.Get().(*serveScratch) }

func releaseServeScratch(sc *serveScratch) {
	if cap(sc.body) > maxRetainedBody {
		sc.body = nil
	}
	servePool.Put(sc)
}

// readAll drains r into the scratch's retained buffer — io.ReadAll
// without the per-call allocation once the buffer has grown to the
// working-set body size. The returned slice aliases the scratch; callers
// finish with it before releasing.
func (sc *serveScratch) readAll(r io.Reader) ([]byte, error) {
	buf := sc.body[:0]
	for {
		if len(buf) == cap(buf) {
			// Grow via append's amortised doubling, then back off to the
			// read position.
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			sc.body = buf
			if err == io.EOF {
				return buf, nil
			}
			return nil, err
		}
	}
}

// key computes the instance cache key — hex sha256 of
// kind\0format\0body, the one derivation InstanceKey also runs — into
// the scratch's fixed arrays and returns the hex bytes.
func (sc *serveScratch) key(kind, format string, body []byte) []byte {
	if sc.hash == nil {
		sc.hash = sha256.New()
	}
	sc.hash.Reset()
	if len(kind)+len(format)+2 <= len(sc.pre) {
		// Stage the kind/format prefix in the scratch so the writes carry
		// no per-call []byte conversions.
		n := copy(sc.pre[:], kind)
		sc.pre[n] = 0
		n++
		n += copy(sc.pre[n:], format)
		sc.pre[n] = 0
		n++
		sc.hash.Write(sc.pre[:n])
	} else {
		sc.hash.Write([]byte(kind))
		sc.hash.Write([]byte{0})
		sc.hash.Write([]byte(format))
		sc.hash.Write([]byte{0})
	}
	sc.hash.Write(body)
	sum := sc.hash.Sum(sc.sum[:0])
	hex.Encode(sc.hex[:], sum)
	return sc.hex[:]
}

// cachedGraph is the instance-cache value for graph instances: the parsed
// CSR plus its packed bitset adjacency, built lazily on the first solve
// that can use it and shared by every later cache hit. dense stays nil
// for graphs below the density cutoff (maxis.NewDense declines them).
type cachedGraph struct {
	g     *graph.Graph
	once  sync.Once
	dense *maxis.Dense
}

// densePack returns the packed adjacency, building it on first use.
func (cg *cachedGraph) densePack() *maxis.Dense {
	cg.once.Do(func() { cg.dense = maxis.NewDense(cg.g) })
	return cg.dense
}
