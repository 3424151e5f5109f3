package slocal

// netdecomp.go implements a deterministic strong-diameter network
// decomposition by sparse-shell ball carving — the structure underlying
// the class P-SLOCAL ([AGLP89], [GKM17]; the paper lists
// (poly log n, poly log n)-network decomposition among the
// P-SLOCAL-complete problems).
//
// In phase c, the still-unclustered nodes are processed in order; an
// unclaimed node v grows a ball in the residual graph until the next shell
// stops doubling it (|B(v, r+1)| <= 2·|B(v, r)|), takes B(v, r) as a
// cluster of colour c, and removes B(v, r+1) from the phase's residual
// graph. The shell nodes stay unclustered until a later phase. Shells are
// no larger than their clusters, so at least half of the remaining nodes
// are clustered per phase, giving at most ceil(log2 n) + 1 colours; balls
// double per growth step, so cluster radii are at most log2 n.

import (
	"fmt"
	"slices"

	"pslocal/internal/graph"
	"pslocal/internal/maxis"
)

// Decomposition is a (C, D) network decomposition: a partition of the
// nodes into clusters, each cluster carrying a colour, such that clusters
// of the same colour are non-adjacent and every cluster has small radius.
type Decomposition struct {
	// Color assigns each node its cluster's colour, 1..NumColors.
	Color []int32
	// Cluster assigns each node a dense cluster id, 0..NumClusters-1.
	Cluster []int32
	// NumColors is the number of colour classes used.
	NumColors int
	// NumClusters is the number of clusters.
	NumClusters int
	// Centers[k] is the node whose carve created cluster k.
	Centers []int32
	// Radii[k] is the carve radius of cluster k (its radius in the
	// residual graph, an upper bound on its strong radius).
	Radii []int
	// MaxRadius is the largest entry of Radii.
	MaxRadius int
}

// NetworkDecomposition carves g into a (≤ ceil(log2 n)+1, ≤ 2·log2 n)
// decomposition, processing residual nodes in the given order each phase
// (nil selects the identity order).
func NetworkDecomposition(g *graph.Graph, order []int32) (*Decomposition, error) {
	n := g.N()
	if order == nil {
		order = IdentityOrder(n)
	}
	if err := checkPermutation(n, order); err != nil {
		return nil, err
	}
	d := &Decomposition{
		Color:   make([]int32, n),
		Cluster: make([]int32, n),
	}
	for i := range d.Cluster {
		d.Cluster[i] = -1
	}
	unclustered := n
	mk := newMarker(n) // shared BFS stamps across all phases' carves
	for phase := int32(1); unclustered > 0; phase++ {
		d.NumColors = int(phase)
		// avail: unclustered and not yet claimed as a shell this phase.
		avail := make([]bool, n)
		for v := 0; v < n; v++ {
			avail[v] = d.Cluster[v] < 0
		}
		for _, v := range order {
			if !avail[v] {
				continue
			}
			layers := residualLayers(g, v, avail, mk)
			// Smallest r with |B(r+1)| <= 2|B(r)|; sizes[r] = |B(v, r)|.
			size := 0
			var ballNodes []int32
			radius := len(layers) - 1 // fallback: component exhausted
			for r := 0; r < len(layers); r++ {
				prev := size
				size += len(layers[r])
				ballNodes = append(ballNodes, layers[r]...)
				if r > 0 && size <= 2*prev {
					radius = r - 1
					break
				}
			}
			// ballNodes currently holds B(radius+1) (or the full component).
			clusterID := int32(d.NumClusters)
			d.NumClusters++
			d.Centers = append(d.Centers, v)
			d.Radii = append(d.Radii, radius)
			if radius > d.MaxRadius {
				d.MaxRadius = radius
			}
			for r := 0; r <= radius && r < len(layers); r++ {
				for _, u := range layers[r] {
					d.Cluster[u] = clusterID
					d.Color[u] = phase
					unclustered--
				}
			}
			claim(avail, ballNodes) // cluster plus shell leave this phase
		}
	}
	return d, nil
}

// Validate checks the decomposition invariants against g: every node
// clustered exactly once with a colour, clusters internally connected
// with radius at most Radii from their centre, and same-colour clusters
// non-adjacent. It returns nil for every decomposition produced by
// NetworkDecomposition.
func (d *Decomposition) Validate(g *graph.Graph) error {
	n := g.N()
	if len(d.Color) != n || len(d.Cluster) != n {
		return fmt.Errorf("slocal: decomposition sized for %d nodes, graph has %d", len(d.Color), n)
	}
	members := make([][]int32, d.NumClusters)
	for v := 0; v < n; v++ {
		c := d.Cluster[v]
		if c < 0 || int(c) >= d.NumClusters {
			return fmt.Errorf("slocal: node %d has cluster %d outside [0,%d)", v, c, d.NumClusters)
		}
		if d.Color[v] < 1 || int(d.Color[v]) > d.NumColors {
			return fmt.Errorf("slocal: node %d has colour %d outside [1,%d]", v, d.Color[v], d.NumColors)
		}
		members[c] = append(members[c], int32(v))
	}
	for k := 0; k < d.NumClusters; k++ {
		if len(members[k]) == 0 {
			return fmt.Errorf("slocal: cluster %d empty", k)
		}
		sub, orig, err := graph.Induced(g, members[k])
		if err != nil {
			return fmt.Errorf("slocal: cluster %d induction: %w", k, err)
		}
		centreNew := int32(-1)
		for newID, oldID := range orig {
			if oldID == d.Centers[k] {
				centreNew = int32(newID)
			}
		}
		if centreNew < 0 {
			return fmt.Errorf("slocal: cluster %d does not contain its centre %d", k, d.Centers[k])
		}
		dist := graph.BFS(sub, centreNew)
		for newID, dd := range dist {
			if dd < 0 {
				return fmt.Errorf("slocal: cluster %d disconnected at node %d", k, orig[newID])
			}
			if int(dd) > d.Radii[k] {
				return fmt.Errorf("slocal: cluster %d node %d at radius %d > recorded %d", k, orig[newID], dd, d.Radii[k])
			}
		}
	}
	// Same-colour clusters must be non-adjacent.
	var err error
	g.ForEachEdge(func(u, v int32) bool {
		if d.Cluster[u] != d.Cluster[v] && d.Color[u] == d.Color[v] {
			err = fmt.Errorf("slocal: edge {%d,%d} joins distinct clusters of colour %d", u, v, d.Color[u])
			return false
		}
		return true
	})
	return err
}

// DecompositionMaxIS is the decomposition-based MaxIS heuristic used as an
// ablation against ball carving (experiment E6/E9 commentary): colour
// classes are processed in ascending order, and every cluster contributes
// an exact maximum independent set of its nodes minus the closed
// neighbourhood of the set chosen so far. Unlike ball carving it has no
// (1+δ) guarantee; its empirical ratio is what the ablation measures.
func DecompositionMaxIS(g *graph.Graph, d *Decomposition) ([]int32, error) {
	n := g.N()
	members := make([][]int32, d.NumClusters)
	for v := 0; v < n; v++ {
		members[d.Cluster[v]] = append(members[d.Cluster[v]], int32(v))
	}
	blocked := make([]bool, n)
	var out []int32
	for colour := int32(1); int(colour) <= d.NumColors; colour++ {
		for k := 0; k < d.NumClusters; k++ {
			if len(members[k]) == 0 || d.Color[members[k][0]] != colour {
				continue
			}
			var free []int32
			for _, v := range members[k] {
				if !blocked[v] {
					free = append(free, v)
				}
			}
			if len(free) == 0 {
				continue
			}
			sub, orig, err := graph.Induced(g, free)
			if err != nil {
				return nil, fmt.Errorf("slocal: decomposition MaxIS induction: %w", err)
			}
			set, err := maxis.Exact(sub)
			if err != nil {
				return nil, fmt.Errorf("slocal: decomposition MaxIS solve: %w", err)
			}
			for _, u := range set {
				v := orig[u]
				out = append(out, v)
				blocked[v] = true
				g.ForEachNeighbor(v, func(w int32) bool {
					blocked[w] = true
					return true
				})
			}
		}
	}
	slices.Sort(out)
	return out, nil
}
