package graph

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBFSPath(t *testing.T) {
	g := Path(5)
	dist := BFS(g, 0)
	for v, want := range []int32{0, 1, 2, 3, 4} {
		if dist[v] != want {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := Union(Path(3), Path(2))
	dist := BFS(g, 0)
	if dist[3] != -1 || dist[4] != -1 {
		t.Errorf("unreachable nodes have dist %d,%d, want -1,-1", dist[3], dist[4])
	}
}

func TestBallGrid(t *testing.T) {
	g := Grid(5, 5)
	centre := int32(12) // middle of the grid
	tests := []struct {
		r    int
		want int // |B(v,r)| for the L1 ball in a 5x5 grid centre
	}{
		{0, 1}, {1, 5}, {2, 13}, {3, 21}, {4, 25}, {10, 25},
	}
	for _, tt := range tests {
		if got := BallSize(g, centre, tt.r); got != tt.want {
			t.Errorf("BallSize(centre, %d) = %d, want %d", tt.r, got, tt.want)
		}
	}
}

func TestBallWithDistSortedAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := GnP(60, 0.08, rng)
	full := BFS(g, 17)
	nodes, dist := BallWithDist(g, 17, 3)
	if !sort.SliceIsSorted(nodes, func(i, j int) bool { return nodes[i] < nodes[j] }) {
		t.Fatal("ball nodes not sorted")
	}
	inBall := map[int32]bool{}
	for i, v := range nodes {
		inBall[v] = true
		if dist[i] != full[v] {
			t.Errorf("ball dist of %d = %d, BFS says %d", v, dist[i], full[v])
		}
		if dist[i] > 3 {
			t.Errorf("node %d at dist %d > radius", v, dist[i])
		}
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if full[v] >= 0 && full[v] <= 3 && !inBall[v] {
			t.Errorf("node %d at dist %d missing from ball", v, full[v])
		}
	}
}

func TestBallNegativeRadius(t *testing.T) {
	g := Path(3)
	if got := Ball(g, 0, -1); got != nil {
		t.Errorf("Ball(r=-1) = %v, want nil", got)
	}
}

func TestComponents(t *testing.T) {
	g := Union(Union(Cycle(3), Path(4)), Empty(2))
	comp, count := Components(g)
	if count != 4 {
		t.Fatalf("count = %d, want 4 (cycle, path, 2 isolated)", count)
	}
	if comp[0] != comp[1] || comp[0] != comp[2] {
		t.Error("cycle nodes split across components")
	}
	if comp[3] != comp[6] {
		t.Error("path nodes split across components")
	}
	if comp[7] == comp[8] {
		t.Error("isolated nodes merged")
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		diam int
	}{
		{"path5", Path(5), 4},
		{"cycle6", Cycle(6), 3},
		{"complete4", Complete(4), 1},
		{"star6", Star(6), 2},
		{"grid3x4", Grid(3, 4), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Diameter(tt.g); got != tt.diam {
				t.Errorf("Diameter = %d, want %d", got, tt.diam)
			}
		})
	}
	if e := Eccentricity(Path(5), 2); e != 2 {
		t.Errorf("Eccentricity(mid of P5) = %d, want 2", e)
	}
}

func TestInduced(t *testing.T) {
	g := Cycle(6)
	sub, orig, err := Induced(g, []int32{0, 1, 2, 4})
	if err != nil {
		t.Fatalf("Induced error: %v", err)
	}
	if sub.N() != 4 {
		t.Fatalf("sub.N() = %d, want 4", sub.N())
	}
	// Edges among {0,1,2,4} in C6: {0,1}, {1,2}. Node 4 is isolated here.
	if sub.M() != 2 {
		t.Fatalf("sub.M() = %d, want 2", sub.M())
	}
	for newID, oldID := range orig {
		if g.Degree(oldID) != 2 {
			t.Errorf("orig mapping broken for new %d -> old %d", newID, oldID)
		}
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(2, 3) {
		t.Error("induced edges wrong")
	}
}

func TestInducedErrors(t *testing.T) {
	g := Path(4)
	if _, _, err := Induced(g, []int32{0, 0}); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate node error = %v, want ErrDuplicateNode", err)
	}
	if _, _, err := Induced(g, []int32{0, 9}); !errors.Is(err, ErrNodeRange) {
		t.Errorf("range error = %v, want ErrNodeRange", err)
	}
}

// TestInducedPropertyPreservesAdjacency: for random graphs and random node
// subsets, adjacency in the induced subgraph must match the original.
func TestInducedPropertyPreservesAdjacency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GnP(2+rng.Intn(25), 0.3, rng)
		var nodes []int32
		for v := 0; v < g.N(); v++ {
			if rng.Float64() < 0.5 {
				nodes = append(nodes, int32(v))
			}
		}
		sub, orig, err := Induced(g, nodes)
		if err != nil {
			return false
		}
		for i := 0; i < sub.N(); i++ {
			for j := i + 1; j < sub.N(); j++ {
				if sub.HasEdge(int32(i), int32(j)) != g.HasEdge(orig[i], orig[j]) {
					return false
				}
			}
		}
		return sub.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
