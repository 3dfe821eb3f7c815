package main

import (
	"math/rand"
	"sort"
	"time"

	"r2c2/internal/core"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// flowInterval is one flow's lifetime, in any clock, for finding the
// instant of peak concurrency.
type flowInterval struct {
	start, end int64
	info       core.FlowInfo
}

// peakFlows returns the flows live at the instant the most flows overlap
// (start inclusive, end exclusive).
func peakFlows(flows []flowInterval) []core.FlowInfo {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(flows))
	for _, f := range flows {
		edges = append(edges, edge{f.start, 1}, edge{f.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // ends before starts
	})
	live, best := 0, 0
	var at int64
	for _, e := range edges {
		live += e.delta
		if live > best {
			best, at = live, e.at
		}
	}
	var out []core.FlowInfo
	for _, f := range flows {
		if f.start <= at && at < f.end {
			out = append(out, f.info)
		}
	}
	return out
}

// unlimitedFlow is the view entry of a network-limited RPS flow.
func unlimitedFlow(id wire.FlowID, src, dst topology.NodeID) core.FlowInfo {
	return core.FlowInfo{
		ID: id, Src: src, Dst: dst, Weight: 1, DemandKbps: core.UnlimitedDemand, Protocol: routing.RPS,
	}
}

// probeFabric describes the fabric the probes rebuild.
type probeFabric struct {
	g              *topology.Graph
	treesPerSource int
	seed           int64
	capacityBits   float64
}

// runProbes times public calls into routing, topology and core on the
// workload's own inputs, after its measured runs.
func runProbes(r *result, tr *tracer, fab probeFabric, pairs [][2]topology.NodeID, live []core.FlowInfo) {
	root := tr.begin("probes", -1, 0)
	defer tr.end(root)

	// routing: per-packet path sampling over the workload's pairs.
	tr.timed("probe.routing.AppendPath", root, func() {
		tab := routing.NewTable(fab.g)
		rng := rand.New(rand.NewSource(fab.seed))
		var buf []topology.LinkID
		for _, p := range pairs { // first pass fills the table's caches
			buf = tab.AppendPath(buf[:0], routing.RPS, p[0], p[1], rng)
		}
		const passes = 5
		start := time.Now()
		for i := 0; i < passes; i++ {
			for _, p := range pairs {
				buf = tab.AppendPath(buf[:0], routing.RPS, p[0], p[1], rng)
			}
		}
		r.set("routing.append_path_ns", "ns", float64(time.Since(start).Nanoseconds())/float64(passes*len(pairs)))
	})

	// topology: a whole broadcast FIB, built as one shard or one fault
	// wave builds it, then next-hop lookups along every tree.
	var fib *topology.BroadcastFIB
	tr.timed("probe.topology.NewBroadcastFIB", root, func() {
		start := time.Now()
		fib = topology.NewBroadcastFIB(fab.g, fab.treesPerSource, fab.seed)
		for src := 0; src < fab.g.Nodes(); src++ {
			for t := 0; t < fab.treesPerSource; t++ {
				fib.Tree(topology.NodeID(src), uint8(t))
			}
		}
		r.set("topology.fib_build_s", "s", time.Since(start).Seconds())
	})
	tr.timed("probe.topology.NextHops", root, func() {
		vertices := fab.g.Vertices()
		start := time.Now()
		hops := 0
		for i, p := range pairs {
			tree := uint8(i % fab.treesPerSource)
			for at := 0; at < vertices; at++ {
				next, _ := fib.NextHops(p[0], tree, topology.NodeID(at))
				hops += len(next)
			}
		}
		r.set("topology.fib_nexthops_ns", "ns", float64(time.Since(start).Nanoseconds())/float64(len(pairs)*vertices))
		r.check("fib-spans-fabric", hops == len(pairs)*(vertices-1),
			"broadcast trees have %d edges, want %d", hops, len(pairs)*(vertices-1))
	})

	// core: one allocator run over the view live at peak concurrency, on
	// a fresh RateComputer each time so its view cache never answers.
	tr.timed("probe.core.Compute", root, func() {
		view := core.NewView()
		for _, f := range live {
			view.AddFlow(f)
		}
		tab := routing.NewTable(fab.g)
		core.NewRateComputer(tab, fab.capacityBits, 0.05).Compute(view) // fills φ caches
		var durs []float64
		for i := 0; i < 5; i++ {
			rc := core.NewRateComputer(tab, fab.capacityBits, 0.05)
			start := time.Now()
			alloc := rc.Compute(view)
			durs = append(durs, time.Since(start).Seconds()*1e6)
			r.check("allocator-rates", len(alloc.Rates) == view.Len(),
				"%d rates for %d flows", len(alloc.Rates), view.Len())
		}
		r.set("core.peak_flows", "count", float64(view.Len()))
		r.set("core.compute_peak_us", "us", median(durs))
	})
}
