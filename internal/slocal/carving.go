package slocal

// carving.go implements the ball-carving SLOCAL algorithm for
// (1+δ)-approximate maximum independent set — the containment direction of
// Theorem 1.1 (cited by the paper from [GKM17, Theorem 7.1]).
//
// Processing nodes in an arbitrary order, an unclaimed node v grows a ball
// in the residual graph until the independence number stops growing
// geometrically: the carve radius is the smallest r with
//
//	α(G[B_avail(v, r+1)]) <= (1+δ) · α(G[B_avail(v, r)]).
//
// Since α(B(v, r)) >= (1+δ)^r until the rule fires and α <= n, the radius
// is at most log_{1+δ} n, so the locality (radius looked at, r+1) is
// O(log n / δ). The centre outputs an exact maximum independent set of
// G[B_avail(v, r)] and claims B_avail(v, r+1); every optimal-solution node
// falls into exactly one claimed region, and each region loses at most a
// (1+δ) factor, so the union is a (1+δ)-approximation. The SLOCAL model
// allows the unbounded local computation this needs (paper Section 1).
//
// The implementation is the sequential form of the algorithm with exact
// per-centre locality accounting. (The fully mechanical SLOCAL encoding —
// later nodes re-deriving region membership from centre states — costs an
// extra constant factor of locality via the composition lemma of [GKM17]
// and is documented in DESIGN.md.)

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"pslocal/internal/graph"
	"pslocal/internal/maxis"
)

// ErrBadDelta reports a non-positive growth slack.
var ErrBadDelta = errors.New("slocal: carving delta must be > 0")

// InnerSolver computes an independent set of a (small) ball graph. The
// containment guarantee holds only for exact solvers; heuristic solvers
// trade the guarantee for scalability.
type InnerSolver func(g *graph.Graph) ([]int32, error)

// CarvingOptions configures BallCarvingMaxIS.
type CarvingOptions struct {
	// Delta is the growth slack δ; the result is a (1+δ)-approximation.
	// Zero selects the default 1.0 (a 2-approximation).
	Delta float64
	// Inner solves MaxIS inside balls; nil selects the exact solver.
	Inner InnerSolver
	// Order is the processing order; nil selects the identity order.
	Order []int32
	// Ctx cancels the run cooperatively: it is checked before every carve
	// and threaded into the default exact inner solver, so an abandoned
	// run stops within one ball. Nil never cancels.
	Ctx context.Context
}

// Region describes one carved region.
type Region struct {
	// Center is the node that initiated the carve.
	Center int32
	// Radius is the carve radius r.
	Radius int
	// ClaimedSize is |B_avail(center, r+1)|, the nodes removed from the
	// residual graph.
	ClaimedSize int
	// Chosen is the number of independent set nodes contributed.
	Chosen int
}

// CarvingResult reports a ball-carving run.
type CarvingResult struct {
	// Set is the independent set found, ascending.
	Set []int32
	// Regions lists the carved regions in processing order.
	Regions []Region
	// Locality is the maximum radius looked at (max over regions of r+1).
	Locality int
	// RadiusBound is the theoretical locality bound ceil(log_{1+δ} n) + 1
	// for this input, recorded for experiment E6.
	RadiusBound int
}

// BallCarvingMaxIS runs the ball-carving SLOCAL algorithm on g.
func BallCarvingMaxIS(g *graph.Graph, opts CarvingOptions) (*CarvingResult, error) {
	delta := opts.Delta
	if delta == 0 {
		delta = 1.0
	}
	if delta < 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadDelta, opts.Delta)
	}
	inner := opts.Inner
	if inner == nil {
		if ctx := opts.Ctx; ctx != nil {
			inner = func(g *graph.Graph) ([]int32, error) {
				return maxis.ExactOpts(g, maxis.ExactOptions{Ctx: ctx})
			}
		} else {
			inner = maxis.Exact
		}
	}
	order := opts.Order
	if order == nil {
		order = IdentityOrder(g.N())
	}
	if err := checkPermutation(g.N(), order); err != nil {
		return nil, err
	}

	n := g.N()
	avail := make([]bool, n)
	for i := range avail {
		avail[i] = true
	}
	mk := newMarker(n) // shared BFS stamps: one allocation for all carves
	res := &CarvingResult{RadiusBound: logBound(n, delta)}
	for _, v := range order {
		if !avail[v] {
			continue
		}
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("slocal: carving cancelled: %w", err)
			}
		}
		region, err := carveOne(g, v, avail, mk, delta, inner)
		if err != nil {
			return nil, err
		}
		res.Set = append(res.Set, region.chosen...)
		res.Regions = append(res.Regions, Region{
			Center:      v,
			Radius:      region.radius,
			ClaimedSize: region.claimed,
			Chosen:      len(region.chosen),
		})
		if lookahead := region.radius + 1; lookahead > res.Locality {
			res.Locality = lookahead
		}
	}
	slices.Sort(res.Set)
	return res, nil
}

type carved struct {
	radius  int
	claimed int
	chosen  []int32
}

// carveOne grows the residual ball around v, extracts the inner solution,
// and claims the (r+1)-ball.
func carveOne(g *graph.Graph, v int32, avail []bool, mk *marker, delta float64, inner InnerSolver) (*carved, error) {
	// Residual BFS layers: layers[d] = nodes at avail-distance d from v.
	layers := residualLayers(g, v, avail, mk)
	// cumulative[r] = nodes of B_avail(v, r).
	alphaAt := make([]int, 0, len(layers))
	setsAt := make([][]int32, 0, len(layers))
	var ballNodes []int32
	for r := 0; r < len(layers); r++ {
		ballNodes = append(ballNodes, layers[r]...)
		sub, orig, err := graph.Induced(g, ballNodes)
		if err != nil {
			return nil, fmt.Errorf("slocal: carving ball induction: %w", err)
		}
		set, err := inner(sub)
		if err != nil {
			return nil, fmt.Errorf("slocal: carving inner solver: %w", err)
		}
		mapped := make([]int32, len(set))
		for i, u := range set {
			mapped[i] = orig[u]
		}
		alphaAt = append(alphaAt, len(set))
		setsAt = append(setsAt, mapped)
		if r > 0 && float64(alphaAt[r]) <= (1+delta)*float64(alphaAt[r-1]) {
			// Rule fired at radius r-1: keep the inner solution of the
			// (r-1)-ball, claim the r-ball.
			claim(avail, ballNodes)
			return &carved{radius: r - 1, claimed: len(ballNodes), chosen: setsAt[r-1]}, nil
		}
	}
	// The component was exhausted before the rule fired: the final ball is
	// the whole residual component; claiming it loses nothing
	// (α(B(r+1)) = α(B(r)) once the ball stops growing).
	claim(avail, ballNodes)
	last := len(layers) - 1
	return &carved{radius: last, claimed: len(ballNodes), chosen: setsAt[last]}, nil
}

// residualLayers returns BFS layers from v inside the available subgraph.
// The visited set lives in mk's current-generation stamps, so repeated
// carves reuse one flat array instead of allocating a map per centre; the
// returned layer slices are fresh (callers retain them).
func residualLayers(g *graph.Graph, v int32, avail []bool, mk *marker) [][]int32 {
	mk.next()
	mk.mark(v)
	var layers [][]int32
	frontier := []int32{v}
	for len(frontier) > 0 {
		layers = append(layers, frontier)
		var next []int32
		for _, w := range frontier {
			g.ForEachNeighbor(w, func(u int32) bool {
				if avail[u] && !mk.marked(u) {
					mk.mark(u)
					next = append(next, u)
				}
				return true
			})
		}
		frontier = next
	}
	return layers
}

func claim(avail []bool, nodes []int32) {
	for _, u := range nodes {
		avail[u] = false
	}
}

// logBound returns ceil(log_{1+δ} n) + 1, the locality bound of the
// carving rule.
func logBound(n int, delta float64) int {
	if n <= 1 {
		return 1
	}
	bound := 1
	size := 1.0
	for size < float64(n) {
		size *= 1 + delta
		bound++
	}
	return bound
}
