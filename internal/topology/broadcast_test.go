package topology

import (
	"fmt"
	"sync"
	"testing"
)

// Every broadcast tree must be a spanning tree whose nodes sit at their BFS
// depth (minimal broadcast time, §3.2).
func TestBroadcastTreeSpanningShortest(t *testing.T) {
	for _, g := range testGraphs(t) {
		for src := 0; src < g.Nodes(); src += 5 {
			trees := BuildBroadcastTrees(g, NodeID(src), 4, 42)
			for _, tree := range trees {
				if tree.TotalEdges() != g.Vertices()-1 {
					t.Fatalf("%v src=%d tree=%d: %d edges, want %d",
						g.Kind(), src, tree.ID, tree.TotalEdges(), g.Vertices()-1)
				}
				depth := walkTree(t, g, tree)
				if depth != tree.Depth {
					t.Fatalf("%v: recorded depth %d, walked depth %d", g.Kind(), tree.Depth, depth)
				}
				// Minimal broadcast time: depth equals eccentricity of src.
				ecc := 0
				for v := 0; v < g.Vertices(); v++ {
					if d := g.Dist(NodeID(src), NodeID(v)); d > ecc {
						ecc = d
					}
				}
				if depth != ecc {
					t.Fatalf("%v src=%d: tree depth %d != eccentricity %d", g.Kind(), src, depth, ecc)
				}
			}
		}
	}
}

// walkTree delivers a copy down the tree and checks each vertex is reached
// exactly once, at its BFS distance; it returns the max depth reached.
func walkTree(t *testing.T, g *Graph, tree *BroadcastTree) int {
	t.Helper()
	depthOf := make([]int, g.Vertices())
	for i := range depthOf {
		depthOf[i] = -1
	}
	depthOf[tree.Root] = 0
	queue := []NodeID{tree.Root}
	maxDepth := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, lid := range tree.Children[v] {
			l := g.Link(lid)
			if l.From != v {
				t.Fatalf("tree child link %v not rooted at %d", l, v)
			}
			if depthOf[l.To] != -1 {
				t.Fatalf("vertex %d receives two copies", l.To)
			}
			depthOf[l.To] = depthOf[v] + 1
			if want := g.Dist(tree.Root, l.To); depthOf[l.To] != want {
				t.Fatalf("vertex %d at tree depth %d, BFS distance %d", l.To, depthOf[l.To], want)
			}
			if depthOf[l.To] > maxDepth {
				maxDepth = depthOf[l.To]
			}
			queue = append(queue, l.To)
		}
	}
	for v, d := range depthOf {
		if d == -1 && g.Dist(tree.Root, NodeID(v)) >= 0 {
			t.Fatalf("reachable vertex %d never receives the broadcast", v)
		}
	}
	return maxDepth
}

func TestBroadcastTreesDiffer(t *testing.T) {
	g, err := NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	trees := BuildBroadcastTrees(g, 0, 8, 1)
	distinct := false
	for i := 1; i < len(trees) && !distinct; i++ {
		for v := 0; v < g.Vertices(); v++ {
			if len(trees[0].Children[v]) != len(trees[i].Children[v]) {
				distinct = true
				break
			}
			for j := range trees[0].Children[v] {
				if trees[0].Children[v][j] != trees[i].Children[v][j] {
					distinct = true
					break
				}
			}
		}
	}
	if !distinct {
		t.Error("8 randomised broadcast trees are all identical; load balancing impossible")
	}
}

func TestBroadcastFIB(t *testing.T) {
	g, err := NewTorus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	fib := NewBroadcastFIB(g, 3, 7)
	for src := 0; src < g.Nodes(); src++ {
		if n := fib.TreesPerSource(NodeID(src)); n != 3 {
			t.Fatalf("TreesPerSource(%d) = %d, want 3", src, n)
		}
		for treeID := uint8(0); treeID < 3; treeID++ {
			// Simulate forwarding via FIB lookups; count deliveries.
			delivered := map[NodeID]bool{NodeID(src): true}
			queue := []NodeID{NodeID(src)}
			for len(queue) > 0 {
				at := queue[0]
				queue = queue[1:]
				hops, ok := fib.NextHops(NodeID(src), treeID, at)
				if !ok {
					t.Fatalf("FIB miss for src=%d tree=%d at=%d", src, treeID, at)
				}
				for _, lid := range hops {
					to := g.Link(lid).To
					if delivered[to] {
						t.Fatalf("duplicate delivery to %d", to)
					}
					delivered[to] = true
					queue = append(queue, to)
				}
			}
			if len(delivered) != g.Nodes() {
				t.Fatalf("src=%d tree=%d delivered to %d nodes, want %d", src, treeID, len(delivered), g.Nodes())
			}
		}
	}
	if _, ok := fib.NextHops(0, 99, 0); ok {
		t.Error("FIB hit for unknown tree ID")
	}
	if _, ok := fib.Tree(0, 99); ok {
		t.Error("Tree hit for unknown tree ID")
	}
}

// Broadcast cost accounting from §3.2: a 512-node rack broadcast costs
// (n-1) * 16 bytes = ~8 KB of total traffic.
func TestBroadcastCost512(t *testing.T) {
	g, err := NewTorus(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	trees := BuildBroadcastTrees(g, 0, 1, 1)
	bytes := trees[0].TotalEdges() * 16
	if bytes != 511*16 {
		t.Fatalf("broadcast bytes = %d, want %d", bytes, 511*16)
	}
}

func TestBuildBroadcastTreesPanicsOnBadCount(t *testing.T) {
	g, err := NewTorus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for count=0")
		}
	}()
	BuildBroadcastTrees(g, 0, 0, 1)
}

// The FIB's compact per-source build must forward exactly like the
// reference construction: same RNG draws, same tree shapes, same child
// order, for every (src, tree, at) — and on a degraded fabric it must
// return the reference trees' links translated to physical port IDs.
func TestBroadcastFIBMatchesTrees(t *testing.T) {
	g, err := NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	lid := func(a, b NodeID) LinkID {
		l, ok := g.LinkBetween(a, b)
		if !ok {
			t.Fatalf("no link %d-%d", a, b)
		}
		return l
	}
	failed := map[LinkID]bool{lid(0, 1): true, lid(1, 0): true, lid(5, 21): true, lid(21, 5): true}
	sub, linkMap, err := g.WithoutLinksAndNodes(failed, map[NodeID]bool{42: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		g       *Graph
		linkMap []LinkID
	}{
		{"intact", g, nil},
		{"degraded", sub, linkMap},
	}
	for _, c := range cases {
		const trees, seed = 4, 99
		fib := NewBroadcastFIBWithLinkMap(c.g, trees, seed, c.linkMap)
		for src := 0; src < c.g.Nodes(); src++ {
			ref := BuildBroadcastTrees(c.g, NodeID(src), trees, seed+int64(src))
			for tr := 0; tr < trees; tr++ {
				for at := 0; at < c.g.Vertices(); at++ {
					want := ref[tr].Children[at]
					if c.linkMap != nil {
						phys := make([]LinkID, len(want))
						for i, l := range want {
							phys[i] = c.linkMap[l]
						}
						want = phys
					}
					got, ok := fib.NextHops(NodeID(src), uint8(tr), NodeID(at))
					if !ok || !equalLinks(got, want) {
						t.Fatalf("%s src=%d tree=%d at=%d: NextHops = %v (ok=%v), want %v", c.name, src, tr, at, got, ok, want)
					}
				}
				tree, ok := fib.Tree(NodeID(src), uint8(tr))
				if !ok || tree.Depth != ref[tr].Depth || tree.ID != uint8(tr) || tree.Root != NodeID(src) {
					t.Fatalf("%s src=%d tree=%d: Tree() = %+v (ok=%v), want depth %d", c.name, src, tr, tree, ok, ref[tr].Depth)
				}
			}
		}
	}
}

func equalLinks(a, b []LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Concurrent first lookups of one source (the emulator's node goroutines
// share a FIB) must all see the same published trees; run under -race.
func TestBroadcastFIBConcurrentFirstLookup(t *testing.T) {
	g, err := NewTorus(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	const trees, workers = 3, 8
	fib := NewBroadcastFIB(g, trees, 5)
	ref := NewBroadcastFIB(g, trees, 5)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for src := 0; src < g.Nodes(); src++ {
				tr := uint8((src + w) % trees)
				for at := 0; at < g.Vertices(); at++ {
					got, ok := fib.NextHops(NodeID(src), tr, NodeID(at))
					want, _ := ref.NextHops(NodeID(src), tr, NodeID(at))
					if !ok || !equalLinks(got, want) {
						errs <- fmt.Sprintf("worker %d src=%d tree=%d at=%d: %v, want %v", w, src, tr, at, got, want)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// The lookup hit path is lock- and allocation-free.
func TestBroadcastFIBNextHopsAllocFree(t *testing.T) {
	g, err := NewTorus(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	fib := NewBroadcastFIB(g, 2, 1)
	fib.NextHops(3, 1, 0) // build source 3
	if n := testing.AllocsPerRun(100, func() { fib.NextHops(3, 1, 7) }); n != 0 {
		t.Fatalf("NextHops allocates %v times per hit", n)
	}
}
