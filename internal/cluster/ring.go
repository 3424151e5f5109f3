// Package cluster implements the cfgate gateway: consistent-hash
// cache-affinity routing of solve and job traffic across a set of
// cfserve backends, per-backend health probing with ejection and
// backoff re-admission, least-loaded fallback, and bounded retry of
// idempotent requests.
//
// The routing key is the solver's instance cache key (the sha256
// content hash of kind, format directive and body — solver.InstanceKey),
// so requests for the same instance land on the same backend and hit
// its parsed-instance cache; the backend hashes the body itself for its
// cache lookup, and the gateway reports which backend served in
// X-Pslocal-Backend. cmd/cfgate is the CLI wrapper and DESIGN.md
// ("Cluster mode") records the design.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over backend names with virtual nodes:
// each backend owns Replicas points, keys map to the first point
// clockwise, and adding or removing a backend moves only the keys of
// its own points. Immutable after construction.
type Ring struct {
	names  []string
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node: a position and the index of its
// backend in names.
type ringPoint struct {
	hash    uint64
	backend int
}

// DefaultReplicas is the virtual-node count per backend: enough that a
// 3-node ring splits key space within a few percent of evenly.
const DefaultReplicas = 128

// hashString is the ring's position function: FNV-1a 64 with a
// splitmix64 finalizer. The routing keys are already uniform sha256
// hex, but the vnode labels are short structured strings — without the
// finalizer their FNV values cluster enough to skew the key split tens
// of percent off fair share.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds a ring over the given backend names (order is
// irrelevant, duplicates collapse); replicas < 1 selects
// DefaultReplicas.
func NewRing(names []string, replicas int) *Ring {
	if replicas < 1 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(names))
	r := &Ring{}
	for _, name := range names {
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		r.names = append(r.names, name)
	}
	sort.Strings(r.names)
	r.points = make([]ringPoint, 0, len(r.names)*replicas)
	for i, name := range r.names {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hashString(fmt.Sprintf("%s#%d", name, v)),
				backend: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].backend < r.points[b].backend
	})
	return r
}

// Backends returns the distinct backend names, sorted.
func (r *Ring) Backends() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Owner returns the backend owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	order := r.order(key)
	if len(order) == 0 {
		return ""
	}
	return r.names[order[0]]
}

// Candidates returns every backend in ring order starting at key's
// owner: the affinity owner first, then the failover sequence a
// request walks when earlier candidates are ejected or saturated. The
// slice is freshly allocated and covers all backends.
func (r *Ring) Candidates(key string) []string {
	var out []string
	for _, i := range r.order(key) {
		out = append(out, r.names[i])
	}
	return out
}

// order is Candidates as indexes into the sorted names, which is also
// the order of the gateway's backend records.
func (r *Ring) order(key string) []int {
	if len(r.points) == 0 {
		return nil
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, len(r.names))
	seen := make([]bool, len(r.names))
	for i := 0; len(out) < len(r.names) && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.backend] {
			continue
		}
		seen[p.backend] = true
		out = append(out, p.backend)
	}
	return out
}
