package graph

import (
	"errors"
	"testing"

	"admission/internal/rng"
)

func TestNewRejectsNegative(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Fatal("New(-1) must error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(-1) did not panic")
		}
	}()
	MustNew(-1)
}

func TestAddEdgeValidation(t *testing.T) {
	g := MustNew(3)
	cases := []struct {
		from, to, cap int
	}{
		{-1, 0, 1}, {0, 3, 1}, {0, 1, 0}, {0, 1, -5},
	}
	for _, c := range cases {
		if _, err := g.AddEdge(c.from, c.to, c.cap); err == nil {
			t.Errorf("AddEdge(%d,%d,%d) must error", c.from, c.to, c.cap)
		}
	}
	if g.M() != 0 {
		t.Fatal("failed AddEdge mutated the graph")
	}
}

func TestAddEdgeAndLookup(t *testing.T) {
	g := MustNew(2)
	id, err := g.AddEdge(0, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	e, err := g.Edge(id)
	if err != nil {
		t.Fatal(err)
	}
	if e.From != 0 || e.To != 1 || e.Capacity != 7 {
		t.Fatalf("edge = %+v", e)
	}
	if _, err := g.Edge(EdgeID(99)); err == nil {
		t.Fatal("lookup of bogus id must error")
	}
	if _, err := g.Edge(EdgeID(-1)); err == nil {
		t.Fatal("lookup of negative id must error")
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := MustNew(2)
	a, _ := g.AddEdge(0, 1, 1)
	b, _ := g.AddEdge(0, 1, 2)
	if a == b {
		t.Fatal("parallel edges must get distinct IDs")
	}
	if g.M() != 2 {
		t.Fatalf("M = %d", g.M())
	}
}

func TestCapacitiesAndMax(t *testing.T) {
	g := MustNew(3)
	g.AddEdge(0, 1, 4)
	g.AddEdge(1, 2, 9)
	caps := g.Capacities()
	if len(caps) != 2 || caps[0] != 4 || caps[1] != 9 {
		t.Fatalf("caps = %v", caps)
	}
	if g.MaxCapacity() != 9 {
		t.Fatalf("MaxCapacity = %d", g.MaxCapacity())
	}
	caps[0] = 100
	if g.Capacities()[0] != 4 {
		t.Fatal("Capacities must return a copy")
	}
	if MustNew(1).MaxCapacity() != 0 {
		t.Fatal("edgeless MaxCapacity must be 0")
	}
}

func TestRandomSimplePathLine(t *testing.T) {
	g, err := Line(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.RandomSimplePath(0, 4, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 {
		t.Fatalf("path length %d, want 4", len(p))
	}
	if !g.IsSimplePath(p) {
		t.Fatal("line path is not simple")
	}
}

func TestRandomSimplePathSelf(t *testing.T) {
	g, _ := Line(3, 1)
	p, err := g.RandomSimplePath(1, 1, rng.New(1))
	if err != nil || p != nil {
		t.Fatalf("self path = %v, %v", p, err)
	}
}

func TestRandomSimplePathBadEndpoints(t *testing.T) {
	g, _ := Line(3, 1)
	if _, err := g.RandomSimplePath(-1, 2, rng.New(1)); err == nil {
		t.Fatal("negative endpoint must error")
	}
	if _, err := g.RandomSimplePath(0, 5, rng.New(1)); err == nil {
		t.Fatal("out-of-range endpoint must error")
	}
}

func TestRandomSimplePathProperties(t *testing.T) {
	r := rng.New(5)
	g, err := Grid(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s, tt := r.Intn(16), r.Intn(16)
		p, err := g.RandomSimplePath(s, tt, r)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsSimplePath(p) {
			t.Fatalf("non-simple path %v", p)
		}
		if s != tt {
			first, _ := g.Edge(p[0])
			last, _ := g.Edge(p[len(p)-1])
			if first.From != s || last.To != tt {
				t.Fatalf("path endpoints wrong: %v for %d->%d", p, s, tt)
			}
		}
	}
}

func TestRandomSimplePathDiversity(t *testing.T) {
	r := rng.New(11)
	g, _ := Grid(3, 3, 1)
	lens := map[int]bool{}
	sigs := map[string]bool{}
	for i := 0; i < 100; i++ {
		p, err := g.RandomSimplePath(0, 8, r)
		if err != nil {
			t.Fatal(err)
		}
		lens[len(p)] = true
		sig := ""
		for _, id := range p {
			sig += string(rune('a' + int(id)))
		}
		sigs[sig] = true
	}
	if len(sigs) < 2 {
		t.Fatalf("random paths show no diversity: %d distinct", len(sigs))
	}
}

func TestRandomSimplePathUnreachable(t *testing.T) {
	g, _ := Line(3, 1)
	if _, err := g.RandomSimplePath(2, 0, rng.New(1)); !errors.Is(err, ErrNoPath) {
		t.Fatalf("want ErrNoPath, got %v", err)
	}
}

func TestIsSimplePathRejections(t *testing.T) {
	g, _ := Ring(4, 1) // edges i -> i+1 mod 4
	if !g.IsSimplePath(nil) {
		t.Fatal("empty path must be simple")
	}
	if !g.IsSimplePath([]EdgeID{0, 1, 2}) {
		t.Fatal("0->1->2->3 must be simple")
	}
	if g.IsSimplePath([]EdgeID{0, 2}) {
		t.Fatal("discontiguous path accepted")
	}
	if g.IsSimplePath([]EdgeID{0, 1, 2, 3}) {
		t.Fatal("cycle revisits start vertex; must not be simple")
	}
	if g.IsSimplePath([]EdgeID{99}) {
		t.Fatal("bogus edge id accepted")
	}
}

func TestTopologySizes(t *testing.T) {
	r := rng.New(7)
	cases := []struct {
		name string
		g    *Graph
		err  error
		n, m int
	}{}
	add := func(name string, g *Graph, err error, n, m int) {
		cases = append(cases, struct {
			name string
			g    *Graph
			err  error
			n, m int
		}{name, g, err, n, m})
	}
	{
		g, err := Line(5, 1)
		add("line", g, err, 5, 4)
	}
	{
		g, err := Ring(6, 2)
		add("ring", g, err, 6, 6)
	}
	{
		g, err := Star(4, 3)
		add("star", g, err, 5, 8)
	}
	{
		g, err := Grid(3, 4, 1)
		add("grid", g, err, 12, 2*(3*3+2*4))
	}
	{
		g, err := Tree(10, 2, r)
		add("tree", g, err, 10, 18)
	}
	{
		g, err := Random(8, 20, 1, r)
		add("random", g, err, 8, 20)
	}
	{
		g, err := Bundle(5, 2)
		add("bundle", g, err, 7, 10)
	}
	{
		g, err := SingleEdge(9)
		add("single", g, err, 2, 1)
	}
	for _, c := range cases {
		if c.err != nil {
			t.Errorf("%s: %v", c.name, c.err)
			continue
		}
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: N=%d M=%d, want N=%d M=%d", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
		if err := c.g.Validate(); err != nil {
			t.Errorf("%s: validate: %v", c.name, err)
		}
	}
}

func TestTopologyErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := Line(1, 1); err == nil {
		t.Error("Line(1) must error")
	}
	if _, err := Ring(1, 1); err == nil {
		t.Error("Ring(1) must error")
	}
	if _, err := Star(0, 1); err == nil {
		t.Error("Star(0) must error")
	}
	if _, err := Grid(0, 5, 1); err == nil {
		t.Error("Grid(0,5) must error")
	}
	if _, err := Tree(1, 1, r); err == nil {
		t.Error("Tree(1) must error")
	}
	if _, err := Random(5, 3, 1, r); err == nil {
		t.Error("Random(m<n) must error")
	}
	if _, err := Random(1, 3, 1, r); err == nil {
		t.Error("Random(n=1) must error")
	}
	if _, err := Bundle(0, 1); err == nil {
		t.Error("Bundle(0) must error")
	}
}

// hops is the BFS distance from s to t in edges, or -1 when t is
// unreachable.
func hops(g *Graph, s, t int) int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for _, id := range g.OutEdges(v) {
			e, _ := g.Edge(id)
			if dist[e.To] < 0 {
				dist[e.To] = dist[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist[t]
}

func TestGridConnectivity(t *testing.T) {
	g, _ := Grid(3, 3, 1)
	for s := 0; s < 9; s++ {
		for tt := 0; tt < 9; tt++ {
			if hops(g, s, tt) < 0 {
				t.Fatalf("grid: %d unreachable from %d", tt, s)
			}
		}
	}
}

func TestRandomGraphConnectivity(t *testing.T) {
	r := rng.New(3)
	g, _ := Random(10, 25, 2, r)
	for s := 0; s < 10; s++ {
		for tt := 0; tt < 10; tt++ {
			if hops(g, s, tt) < 0 {
				t.Fatalf("random graph: %d unreachable from %d", tt, s)
			}
		}
	}
}

func TestTreeReachableViaBidirected(t *testing.T) {
	r := rng.New(9)
	g, _ := Tree(20, 1, r)
	for v := 1; v < 20; v++ {
		if hops(g, 0, v) < 0 || hops(g, v, 0) < 0 {
			t.Fatalf("tree: 0 and %d not mutually reachable", v)
		}
	}
}

func TestWithCapacities(t *testing.T) {
	g, _ := Line(3, 1)
	h, err := g.WithCapacities([]int{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if h.Capacities()[0] != 5 || h.Capacities()[1] != 6 {
		t.Fatalf("caps = %v", h.Capacities())
	}
	if _, err := g.WithCapacities([]int{1}); err == nil {
		t.Fatal("wrong-length caps must error")
	}
	if _, err := g.WithCapacities([]int{1, 0}); err == nil {
		t.Fatal("zero capacity must error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := MustNew(2)
	g.AddEdge(0, 1, 1)
	g.edges[0].Capacity = 0 // simulate corruption
	if err := g.Validate(); err == nil {
		t.Fatal("Validate must catch zero capacity")
	}
	g.edges[0] = Edge{From: 0, To: 5, Capacity: 1}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate must catch bad endpoint")
	}
}

func TestOutEdgesBounds(t *testing.T) {
	g, _ := Line(3, 1)
	if g.OutEdges(-1) != nil || g.OutEdges(3) != nil {
		t.Fatal("out-of-range OutEdges must return nil")
	}
	if len(g.OutEdges(0)) != 1 {
		t.Fatalf("OutEdges(0) = %v", g.OutEdges(0))
	}
}

func TestHypercube(t *testing.T) {
	g, err := Hypercube(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 8 || g.M() != 24 {
		t.Fatalf("N=%d M=%d, want 8, 24", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Diameter d: opposite corners are d hops apart.
	if d := hops(g, 0, 7); d != 3 {
		t.Fatalf("opposite corners %d hops apart, want 3", d)
	}
	if _, err := Hypercube(0, 1); err == nil {
		t.Error("d=0 must error")
	}
	if _, err := Hypercube(21, 1); err == nil {
		t.Error("d=21 must error")
	}
}
