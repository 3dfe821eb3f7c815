package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"r2c2/internal/core"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// refViews is the reference the flow-major table is held against: one
// core.View per node plus the per-node finish tombstones, applied the way
// the simulator's broadcast hop applied them before the table existed.
type refViews struct {
	views    []*core.View
	finished []map[wire.FlowID]bool
}

func newRefViews(n int) *refViews {
	r := &refViews{views: make([]*core.View, n), finished: make([]map[wire.FlowID]bool, n)}
	for i := range r.views {
		r.views[i] = core.NewView()
		r.finished[i] = map[wire.FlowID]bool{}
	}
	return r
}

func (r *refViews) apply(node int, b *wire.Broadcast) {
	switch b.Event {
	case wire.EventFlowFinish:
		r.finished[node][b.Flow()] = true
	case wire.EventFlowStart:
		if r.finished[node][b.Flow()] {
			return
		}
	}
	if err := r.views[node].Apply(b); err != nil {
		panic(err)
	}
}

func (r *refViews) purge(dead map[topology.NodeID]bool) {
	for _, v := range r.views {
		for _, f := range v.Flows() {
			if dead[f.Src] || dead[f.Dst] {
				v.RemoveFlow(f.ID)
			}
		}
	}
}

// TestViewTableMatchesCoreView feeds seeded random broadcast streams to the
// table and to per-node core.Views: starts, demand and route updates and
// finishes announced by sources, delivered to random nodes in random order
// with duplicates (so updates arrive out of order, and starts arrive again
// after their finish), plus crash purges. After every step every node must
// agree on Len, Hash, Flows and Get. The odd-column variant checks a
// sharded table that holds only some nodes' columns.
func TestViewTableMatchesCoreView(t *testing.T) {
	const nodes = 10
	for _, tc := range []struct {
		name  string
		owned func(topology.NodeID) bool
	}{
		{"all-nodes", func(topology.NodeID) bool { return true }},
		{"odd-nodes", func(n topology.NodeID) bool { return n%2 == 1 }},
	} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tab := newViewTable(nodes, tc.owned)
			ref := newRefViews(nodes)
			var flows []*core.FlowInfo // live flows, as their sources last announced them
			var sent []*wire.Broadcast // every broadcast ever announced, for redelivery
			nextSeq := make([]uint16, nodes)
			dead := map[topology.NodeID]bool{}

			// origin applies an announcement at its source the way R2C2
			// does (upsert or remove) and queues it for everyone else.
			origin := func(f *core.FlowInfo, b *wire.Broadcast, remove bool) {
				src := int(f.Src)
				if remove {
					ref.views[src].RemoveFlow(f.ID)
					if c := tab.col[src]; c >= 0 {
						tab.remove(c, f.ID)
					}
				} else {
					ref.views[src].AddFlow(*f)
					if c := tab.col[src]; c >= 0 {
						tab.upsert(c, *f)
					}
				}
				sent = append(sent, b)
			}
			check := func(step int) {
				t.Helper()
				for n := 0; n < nodes; n++ {
					c := tab.col[n]
					if c < 0 {
						continue
					}
					want, got := ref.views[n], NodeView{t: tab, c: c}
					if got.Len() != want.Len() || got.Hash() != want.Hash() {
						t.Fatalf("%s seed %d step %d node %d: len/hash %d/%x, core.View %d/%x",
							tc.name, seed, step, n, got.Len(), got.Hash(), want.Len(), want.Hash())
					}
					wf, gf := want.Flows(), got.Flows()
					if len(wf) == 0 && len(gf) == 0 {
						wf, gf = nil, nil
					}
					if !reflect.DeepEqual(gf, wf) {
						t.Fatalf("%s seed %d step %d node %d: flows\n got %+v\nwant %+v", tc.name, seed, step, n, gf, wf)
					}
					for _, f := range flows {
						gi, gok := got.Get(f.ID)
						wi, wok := want.Get(f.ID)
						if gi != wi || gok != wok {
							t.Fatalf("%s seed %d step %d node %d: Get(%v) = %+v,%v, core.View %+v,%v",
								tc.name, seed, step, n, f.ID, gi, gok, wi, wok)
						}
					}
				}
			}

			for step := 0; step < 600; step++ {
				switch op := rng.Intn(20); {
				case op < 3: // a source starts a flow
					src := rng.Intn(nodes)
					dst := (src + 1 + rng.Intn(nodes-1)) % nodes
					if dead[topology.NodeID(src)] || dead[topology.NodeID(dst)] {
						continue
					}
					f := &core.FlowInfo{
						ID:  wire.MakeFlowID(uint16(src), nextSeq[src]),
						Src: topology.NodeID(src), Dst: topology.NodeID(dst),
						Weight: uint8(1 + rng.Intn(3)), Priority: uint8(rng.Intn(2)),
						DemandKbps: core.UnlimitedDemand, Protocol: routing.RPS,
					}
					nextSeq[src]++
					flows = append(flows, f)
					origin(f, f.StartBroadcast(0), false)
				case op < 5 && len(flows) > 0: // demand update
					f := flows[rng.Intn(len(flows))]
					f.DemandKbps = uint32(1 + rng.Intn(4))
					origin(f, f.DemandBroadcast(0), false)
				case op < 6 && len(flows) > 0: // route change
					f := flows[rng.Intn(len(flows))]
					f.Protocol = routing.Protocol(rng.Intn(3))
					origin(f, f.RouteChangeBroadcast(0), false)
				case op < 8 && len(flows) > 0: // finish
					i := rng.Intn(len(flows))
					f := flows[i]
					flows = append(flows[:i], flows[i+1:]...)
					origin(f, f.FinishBroadcast(0), true)
				case op < 19 && len(sent) > 0: // deliver a broadcast, recent ones more likely
					i := len(sent) - 1 - rng.Intn(min(len(sent), 8))
					if rng.Intn(4) == 0 {
						i = rng.Intn(len(sent)) // an old duplicate or retransmission
					}
					b := sent[i]
					n := rng.Intn(nodes)
					if n == int(b.Src) {
						continue // the origin never applies its own broadcast
					}
					ref.apply(n, b)
					if c := tab.col[n]; c >= 0 {
						tab.apply(c, b)
					}
				case op == 19 && len(dead) < 2: // a crash purge
					d := topology.NodeID(rng.Intn(nodes))
					dead[d] = true
					ref.purge(dead)
					tab.purgeEndpoints(dead, func(wire.FlowID) {})
					kept := flows[:0]
					for _, f := range flows {
						if !dead[f.Src] && !dead[f.Dst] {
							kept = append(kept, f)
						}
					}
					flows = kept
				}
				check(step)
			}
		}
	}
}

// TestViewTableRecyclesRows: once no column holds a flow its row returns to
// the free list, so the table's size tracks live flows, not flows ever seen.
func TestViewTableRecyclesRows(t *testing.T) {
	tab := newViewTable(8, func(topology.NodeID) bool { return true })
	for i := 0; i < 100; i++ {
		info := core.FlowInfo{ID: wire.MakeFlowID(3, uint16(i)), Src: 3, Dst: 5, Weight: 1, DemandKbps: core.UnlimitedDemand}
		start, fin := info.StartBroadcast(0), info.FinishBroadcast(0)
		tab.upsert(tab.col[3], info)
		for n := int32(0); n < 8; n++ {
			if n != 3 {
				tab.apply(n, start)
			}
		}
		tab.remove(tab.col[3], info.ID)
		for n := int32(0); n < 8; n++ {
			if n != 3 {
				tab.apply(n, fin)
			}
		}
		// A retransmitted start after the finish must not resurrect it.
		tab.apply(6, start)
	}
	if len(tab.rows) != 1 || len(tab.free) != 1 {
		t.Fatalf("100 sequential flows left %d rows (%d free), want 1 recycled row", len(tab.rows), len(tab.free))
	}
	for c := range tab.count {
		if tab.count[c] != 0 || tab.digest[c] != 0 {
			t.Fatalf("column %d not empty: count %d digest %x", c, tab.count[c], tab.digest[c])
		}
	}
}

// TestDeliverKnownFlowAllocsNothing: the broadcast hop at a node that
// already holds the flow — a duplicate start, or a demand update flipping
// between two values — allocates nothing.
func TestDeliverKnownFlowAllocsNothing(t *testing.T) {
	g := torus(t, 4, 2)
	_, _, r := newR2C2Net(t, g, R2C2Config{Headroom: 0.05, Protocol: routing.RPS, Recompute: simtime.Millisecond})
	id := r.StartFlow(0, 5, 1<<20, 1, 0)
	info, _ := r.View(0).Get(id)
	pkt := &Packet{Kind: KindBroadcast, Src: 0, Flow: id}
	start := info.StartBroadcast(0)
	hi, lo := info, info
	hi.DemandKbps, lo.DemandKbps = 2e6, 1e6
	up, down := hi.DemandBroadcast(0), lo.DemandBroadcast(0)
	pkt.Bcast = start
	r.deliver(3, pkt) // node 3 learns the flow
	pkt.Bcast = up
	r.deliver(3, pkt)
	pkt.Bcast = down
	r.deliver(3, pkt) // both demand versions now exist in the row

	if n := testing.AllocsPerRun(200, func() {
		pkt.Bcast = start
		r.deliver(3, pkt)
	}); n != 0 {
		t.Errorf("duplicate start at a node holding the flow: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		pkt.Bcast = up
		r.deliver(3, pkt)
		pkt.Bcast = down
		r.deliver(3, pkt)
	}); n != 0 {
		t.Errorf("demand updates at a node holding the flow: %v allocs, want 0", n)
	}
	if got, _ := r.View(3).Get(id); got != lo {
		t.Fatalf("node 3 holds %+v, want the last update %+v", got, lo)
	}
}
