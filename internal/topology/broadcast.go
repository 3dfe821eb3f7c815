package topology

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// BroadcastTree is a shortest-path spanning tree rooted at Root, used to
// broadcast flow events across the rack (§3.2). Children[v] lists the
// links on which v forwards a copy of a broadcast packet; leaves have no
// entries. Depth is the maximum hop count from Root to any node, i.e. the
// broadcast time the construction minimises.
type BroadcastTree struct {
	Root     NodeID
	ID       uint8 // tree identifier, carried in the broadcast header
	Children [][]LinkID
	Depth    int
}

// TotalEdges returns the number of tree edges (n-1 for a spanning tree).
func (t *BroadcastTree) TotalEdges() int {
	total := 0
	for _, c := range t.Children {
		total += len(c)
	}
	return total
}

// LinkLoad returns, per directed link, how many copies of one broadcast
// packet traverse it (0 or 1 for a tree). Used to study broadcast load
// balance across trees.
func (t *BroadcastTree) LinkLoad(numLinks int) []int {
	load := make([]int, numLinks)
	for _, children := range t.Children {
		for _, lid := range children {
			load[lid]++
		}
	}
	return load
}

// BuildBroadcastTrees constructs `count` distinct shortest-path broadcast
// trees rooted at src by breadth-first traversal with randomised parent
// choice (§3.2: "we enumerate multiple broadcast trees for each source by
// traversing the rack's topology in a breadth-first fashion"). Every tree
// is a spanning tree in which each node sits at its BFS distance from src,
// so broadcast time is minimal. rngSeed makes construction deterministic.
//
// This is the reference construction, one tree at a time. The FIB builds
// the same trees (same RNG draws, same child order) in its compact form;
// TestBroadcastFIBMatchesTrees holds the two together.
//
// It panics if count is outside [1, 256) since the wire format carries the
// tree ID in one byte.
func BuildBroadcastTrees(g *Graph, src NodeID, count int, rngSeed int64) []*BroadcastTree {
	checkTreeCount(count)
	rng := rand.New(rand.NewSource(rngSeed))
	trees := make([]*BroadcastTree, count)
	for i := 0; i < count; i++ {
		trees[i] = buildOneTree(g, src, uint8(i), rng)
	}
	return trees
}

func checkTreeCount(count int) {
	if count < 1 || count > 255 {
		panic(fmt.Sprintf("topology: broadcast tree count %d out of [1,255]", count))
	}
}

func buildOneTree(g *Graph, src NodeID, id uint8, rng *rand.Rand) *BroadcastTree {
	t := &BroadcastTree{Root: src, ID: id, Children: make([][]LinkID, g.Vertices())}
	// For each non-root vertex pick a random parent among its predecessors
	// at distance-1; this yields a shortest-path tree with randomised shape.
	var candidates []LinkID
	for v := 0; v < g.Vertices(); v++ {
		if NodeID(v) == src {
			continue
		}
		dv := g.Dist(src, NodeID(v))
		if dv < 0 {
			continue // unreachable vertices stay out of the tree
		}
		if dv > t.Depth {
			t.Depth = dv
		}
		candidates = candidates[:0]
		for _, lid := range g.In(NodeID(v)) {
			if g.Dist(src, g.Link(lid).From) == dv-1 {
				candidates = append(candidates, lid)
			}
		}
		if len(candidates) == 0 {
			panic("topology: BFS invariant violated: reachable node without shortest-path parent")
		}
		pick := candidates[rng.Intn(len(candidates))]
		p := g.Link(pick).From
		t.Children[p] = append(t.Children[p], pick)
	}
	return t
}

// BroadcastFIB is the broadcast forwarding information base of §3.2: a
// lookup keyed by <src-address, tree-id> yielding the set of next-hop links
// a broadcast packet must be forwarded on from a given node. One FIB is
// shared by all nodes (each node consults only its own row).
//
// Trees are built lazily, one source at a time on first lookup: an eager
// FIB is O(sources × trees × vertices) memory — prohibitive at the 10k-node
// multi-rack scale where only the sources that actually broadcast need
// trees. A source's trees are seeded by rngSeed+src independent of build
// order, so a lazy FIB forwards byte-identically to an eager one.
//
// Each source has one atomic slot holding all its trees in compressed
// sparse row form (srcTrees). The first lookup of a source builds it under
// mu and publishes it; every later lookup is one atomic load and two
// offset reads, with no lock and no allocation. The emulator's node
// goroutines share one FIB; the simulator's shards each own one.
type BroadcastFIB struct {
	g              *Graph
	treesPerSource int
	stride         int // vertices+1: one tree's span of a srcTrees.off
	rngSeed        int64
	// linkMap translates g's link IDs to the physical port IDs stored in
	// the trees (nil: g is the physical fabric).
	linkMap []LinkID

	slots []atomic.Pointer[srcTrees] // per endpoint source; nil until built

	mu sync.Mutex // serialises builds and guards the scratch below
	// Build scratch reused across sources: shortest-path parent
	// candidates in CSR form (candOff[v]..candOff[v+1] into cand), each
	// vertex's pick on the current tree (-1 = not in the tree), and the
	// per-parent fill cursor.
	cand    []LinkID
	candOff []int32
	picks   []LinkID
	cursor  []int32
}

// srcTrees holds every broadcast tree of one source in CSR form. With
// stride = vertices+1, the children of vertex v on tree t are
// links[off[t·stride+v] : off[t·stride+v+1]], in ascending child order.
type srcTrees struct {
	off   []int32
	links []LinkID // physical port IDs
	depth int      // shared by all trees: the source's eccentricity
}

// NewBroadcastFIB prepares a FIB serving treesPerSource broadcast trees for
// every endpoint node; trees are built per source on first use.
func NewBroadcastFIB(g *Graph, treesPerSource int, rngSeed int64) *BroadcastFIB {
	return NewBroadcastFIBWithLinkMap(g, treesPerSource, rngSeed, nil)
}

// NewBroadcastFIBWithLinkMap is NewBroadcastFIB over a degraded fabric g
// whose link IDs linkMap translates to physical ports (as returned by
// Graph.WithoutLinksAndNodes). The trees are built over g, but NextHops and
// Tree return physical link IDs: the translation happens once per source,
// at build time, instead of on every forwarded packet. A nil linkMap means
// g is the physical fabric.
func NewBroadcastFIBWithLinkMap(g *Graph, treesPerSource int, rngSeed int64, linkMap []LinkID) *BroadcastFIB {
	checkTreeCount(treesPerSource)
	if linkMap != nil && len(linkMap) != g.NumLinks() {
		panic(fmt.Sprintf("topology: link map has %d entries for %d links", len(linkMap), g.NumLinks()))
	}
	return &BroadcastFIB{
		g:              g,
		treesPerSource: treesPerSource,
		stride:         g.Vertices() + 1,
		rngSeed:        rngSeed,
		linkMap:        linkMap,
		slots:          make([]atomic.Pointer[srcTrees], g.Nodes()),
	}
}

// source returns src's trees, building them on first access, or nil for a
// source outside the fabric's endpoints.
func (f *BroadcastFIB) source(src NodeID) *srcTrees {
	if uint(src) >= uint(len(f.slots)) {
		return nil
	}
	if s := f.slots[src].Load(); s != nil {
		return s
	}
	return f.build(src)
}

// build constructs all of src's trees exactly as BuildBroadcastTrees does —
// same RNG, same draw order, same child order — and publishes them. The
// shortest-path parent candidates depend only on the source, so they are
// computed once and drawn from for every tree.
func (f *BroadcastFIB) build(src NodeID) *srcTrees {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.slots[src].Load(); s != nil {
		return s // another goroutine built it while we waited
	}
	// The emulator's data path reaches this on the once-per-source miss
	// only; the scratch below persists across sources, so the allocations
	// are the published tree arrays plus amortised scratch growth.
	g := f.g
	vertices := g.Vertices()
	if f.candOff == nil {
		//lint:ignore alloc-hotpath once-per-FIB build scratch, reused by every later source
		f.candOff = make([]int32, vertices+1)
		//lint:ignore alloc-hotpath once-per-FIB build scratch, reused by every later source
		f.picks = make([]LinkID, vertices)
		//lint:ignore alloc-hotpath once-per-FIB build scratch, reused by every later source
		f.cursor = make([]int32, vertices)
	}
	cand := f.cand[:0]
	depth := 0
	for v := 0; v < vertices; v++ {
		f.candOff[v] = int32(len(cand))
		dv := g.Dist(src, NodeID(v))
		if NodeID(v) == src || dv < 0 {
			continue // the root and unreachable vertices have no parent
		}
		if dv > depth {
			depth = dv
		}
		for _, lid := range g.In(NodeID(v)) {
			if g.Dist(src, g.Link(lid).From) == dv-1 {
				cand = append(cand, lid)
			}
		}
		if int(f.candOff[v]) == len(cand) {
			panic("topology: BFS invariant violated: reachable node without shortest-path parent")
		}
	}
	f.candOff[vertices] = int32(len(cand))
	f.cand = cand
	edges := 0
	for v := 0; v < vertices; v++ {
		if f.candOff[v+1] > f.candOff[v] {
			edges++
		}
	}

	stride := f.stride
	//lint:ignore alloc-hotpath once-per-source lazy tree construction; the FIB hit path is allocation-free
	s := &srcTrees{
		//lint:ignore alloc-hotpath once-per-source lazy tree construction; the FIB hit path is allocation-free
		off: make([]int32, f.treesPerSource*stride),
		//lint:ignore alloc-hotpath once-per-source lazy tree construction; the FIB hit path is allocation-free
		links: make([]LinkID, f.treesPerSource*edges),
		depth: depth,
	}
	rng := rand.New(rand.NewSource(f.rngSeed + int64(src)))
	for t := 0; t < f.treesPerSource; t++ {
		off := s.off[t*stride : (t+1)*stride]
		// Count each parent's children into off[p+1], prefix-sum the
		// counts into offsets, then fill in ascending child order.
		for v := 0; v < vertices; v++ {
			c := cand[f.candOff[v]:f.candOff[v+1]]
			if len(c) == 0 {
				f.picks[v] = -1
				continue
			}
			pick := c[rng.Intn(len(c))]
			f.picks[v] = pick
			off[g.Link(pick).From+1]++
		}
		off[0] = int32(t * edges)
		for p := 1; p < stride; p++ {
			off[p] += off[p-1]
		}
		copy(f.cursor, off[:vertices])
		for _, pick := range f.picks {
			if pick < 0 {
				continue
			}
			p := g.Link(pick).From
			if f.linkMap != nil {
				pick = f.linkMap[pick]
			}
			s.links[f.cursor[p]] = pick
			f.cursor[p]++
		}
	}
	f.slots[src].Store(s)
	return s
}

// NextHops returns the links on which node `at` must forward a broadcast
// packet originated by src on tree treeID: physical port IDs, empty for
// leaves. ok is false for an unknown <src, tree> pair. The returned slice
// is shared FIB state and must not be modified.
func (f *BroadcastFIB) NextHops(src NodeID, treeID uint8, at NodeID) ([]LinkID, bool) {
	if int(treeID) >= f.treesPerSource {
		return nil, false
	}
	s := f.source(src)
	if s == nil {
		return nil, false
	}
	off := s.off[int(treeID)*f.stride : (int(treeID)+1)*f.stride]
	return s.links[off[at]:off[at+1]], true
}

// Tree returns the broadcast tree for <src, treeID>, assembled from the
// FIB's compact form: Children alias the FIB's link array (read-only) and
// hold physical port IDs.
func (f *BroadcastFIB) Tree(src NodeID, treeID uint8) (*BroadcastTree, bool) {
	if int(treeID) >= f.treesPerSource {
		return nil, false
	}
	s := f.source(src)
	if s == nil {
		return nil, false
	}
	t := &BroadcastTree{Root: src, ID: treeID, Children: make([][]LinkID, f.stride-1), Depth: s.depth}
	off := s.off[int(treeID)*f.stride:]
	for v := range t.Children {
		if off[v+1] > off[v] {
			t.Children[v] = s.links[off[v]:off[v+1]:off[v+1]]
		}
	}
	return t, true
}

// TreesPerSource reports how many trees exist for src.
func (f *BroadcastFIB) TreesPerSource(src NodeID) int {
	if uint(src) >= uint(len(f.slots)) {
		return 0
	}
	return f.treesPerSource
}
