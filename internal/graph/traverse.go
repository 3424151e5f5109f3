package graph

// traverse.go implements breadth-first search, r-hop balls B(v,r) (the view
// primitive of the SLOCAL model, paper Section 1), connected components, and
// induced subgraphs.

import "slices"

// BFS returns the hop distance from src to every node, with -1 for
// unreachable nodes.
func BFS(g *Graph, src int32) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.ForEachNeighbor(v, func(u int32) bool {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
			return true
		})
	}
	return dist
}

// Ball returns the nodes of B(v, r) = {u : dist(v,u) <= r} in ascending
// order. Ball(v, 0) = {v}.
func Ball(g *Graph, v int32, r int) []int32 {
	nodes, _ := BallWithDist(g, v, r)
	return nodes
}

// BallWithDist returns the nodes of B(v, r) in ascending order together with
// a parallel slice of their distances from v.
func BallWithDist(g *Graph, v int32, r int) (nodes []int32, dist []int32) {
	if r < 0 {
		return nil, nil
	}
	seen := map[int32]int32{v: 0}
	frontier := []int32{v}
	for d := int32(1); int(d) <= r && len(frontier) > 0; d++ {
		var next []int32
		for _, w := range frontier {
			g.ForEachNeighbor(w, func(u int32) bool {
				if _, ok := seen[u]; !ok {
					seen[u] = d
					next = append(next, u)
				}
				return true
			})
		}
		frontier = next
	}
	nodes = make([]int32, 0, len(seen))
	for u := range seen {
		nodes = append(nodes, u)
	}
	slices.Sort(nodes)
	dist = make([]int32, len(nodes))
	for i, u := range nodes {
		dist[i] = seen[u]
	}
	return nodes, dist
}

// BallSize returns |B(v, r)| without materialising the node list beyond the
// visited set.
func BallSize(g *Graph, v int32, r int) int {
	nodes, _ := BallWithDist(g, v, r)
	return len(nodes)
}

// Components labels every node with a component id in 0..count-1 (ids are
// assigned in order of the smallest node of each component) and returns the
// labels and the component count.
func Components(g *Graph) (comp []int32, count int) {
	n := g.N()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []int32
	for s := int32(0); int(s) < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		comp[s] = id
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			g.ForEachNeighbor(v, func(u int32) bool {
				if comp[u] < 0 {
					comp[u] = id
					queue = append(queue, u)
				}
				return true
			})
		}
	}
	return comp, count
}

// Eccentricity returns the greatest BFS distance from v to any reachable
// node.
func Eccentricity(g *Graph, v int32) int {
	dist := BFS(g, v)
	ecc := 0
	for _, d := range dist {
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// Diameter returns the largest eccentricity over all nodes of a connected
// graph; for a disconnected graph it returns the largest eccentricity within
// any component. O(n·m); intended for the modest graph sizes of the
// experiment suite.
func Diameter(g *Graph) int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		if e := Eccentricity(g, int32(v)); e > diam {
			diam = e
		}
	}
	return diam
}

// Induced returns the subgraph induced by nodes, plus the mapping
// orig[newID] = oldID. Vertex weights carry over to the subgraph. The
// nodes slice may be unsorted but must not contain duplicates or
// out-of-range ids; violations are reported via error.
func Induced(g *Graph, nodes []int32) (*Graph, []int32, error) {
	orig := make([]int32, len(nodes))
	copy(orig, nodes)
	slices.Sort(orig)
	toNew := make(map[int32]int32, len(orig))
	for i, v := range orig {
		if v < 0 || int(v) >= g.N() {
			return nil, nil, ErrNodeRange
		}
		if i > 0 && orig[i-1] == v {
			return nil, nil, ErrDuplicateNode
		}
		toNew[v] = int32(i)
	}
	b := NewBuilder(len(orig))
	for i, v := range orig {
		g.ForEachNeighbor(v, func(u int32) bool {
			if j, ok := toNew[u]; ok && j > int32(i) {
				b.AddEdge(int32(i), j)
			}
			return true
		})
	}
	if g.Weighted() {
		ws := make([]int64, len(orig))
		for i, v := range orig {
			ws[i] = g.Weight(v)
		}
		b.SetWeights(ws)
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, orig, nil
}
