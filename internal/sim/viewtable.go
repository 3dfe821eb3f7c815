package sim

import (
	"fmt"

	"r2c2/internal/core"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// viewTable holds every owned node's view of the rack's traffic matrix
// (§3.1) flow-major: one row per flow some owned node holds, with one small
// state per owned node, instead of one map per node. A broadcast flood
// applies the same event at every node in turn, so it touches one flow's
// contiguous row and the per-node digest array rather than probing a
// different map at every hop. See DESIGN.md §4 for the invariants.
//
// Columns are owned nodes in ascending node order: in a sharded run a
// shard's table is only as wide as the nodes it owns.
//
// The table reproduces core.View.Apply exactly — a duplicate start
// overwrites, a demand or route update for an absent flow is a no-op, an
// out-of-order update wins if it is applied last — and, like the finish
// bitset it absorbs, drops a retransmitted start arriving after the node
// applied the flow's finish. Per-node digests use core.FlowHash, so a
// column's Hash equals the Hash of a core.View holding the same flows.
//
//r2c2:shardowned — mutated only by the owning shard's engine goroutine.
type viewTable struct {
	col  []int32 // col[node]: the node's column, -1 if another shard owns it
	cols int

	// rowOf[src][seq] is 1 + the index of flow (src, seq)'s row, 0 while no
	// owned node holds the flow. It grows per source like the tombstones.
	rowOf [][]int32
	rows  []viewRow
	// state[r·cols + c] is column c's state for row r: 0 absent, otherwise
	// 1 + the index of the version it holds in rows[r].versions.
	state []uint16
	free  []int32 // recycled row indices

	// finished[src] remembers which columns have applied each flow's finish
	// broadcast: finWords words per sequence number, column c's bit for
	// flow (src, seq) in word seq·finWords + c/64. These tombstones outlive
	// the row, so a §3.2-retransmitted start cannot resurrect a dead flow.
	finished [][]uint64
	finWords int

	digest []uint64 // per column: XOR of FlowHash over the flows it holds
	count  []int32  // per column: number of flows it holds
}

// viewRow is one flow's row. Every column holding the flow references one
// of its versions: the distinct FlowInfo values the columns currently hold
// (a start, then demand and route updates, possibly applied out of order).
type viewRow struct {
	id       wire.FlowID
	dst      topology.NodeID
	holders  int32 // columns holding the flow; the row recycles at zero
	versions []viewVersion
}

type viewVersion struct {
	info core.FlowInfo
	hash uint64 // core.FlowHash(info)
	refs int32  // columns holding this version; 0 marks a reusable slot
}

// newViewTable builds an empty table over nodes vertices, with a column
// for every node owned reports true.
func newViewTable(nodes int, owned func(topology.NodeID) bool) *viewTable {
	t := &viewTable{col: make([]int32, nodes), rowOf: make([][]int32, nodes), finished: make([][]uint64, nodes)}
	for i := range t.col {
		t.col[i] = -1
		if owned(topology.NodeID(i)) {
			t.col[i] = int32(t.cols)
			t.cols++
		}
	}
	t.finWords = (t.cols + 63) / 64
	t.digest = make([]uint64, t.cols)
	t.count = make([]int32, t.cols)
	return t
}

// row returns the index of flow id's row, or -1 if no owned node holds it.
func (t *viewTable) row(id wire.FlowID) int {
	idx := t.rowOf[id.Src()]
	if seq := int(id.Seq()); seq < len(idx) {
		return int(idx[seq]) - 1
	}
	return -1
}

// newRow allocates (or recycles) the row for flow id.
func (t *viewTable) newRow(id wire.FlowID, dst topology.NodeID) int {
	var r int
	if n := len(t.free); n > 0 {
		r = int(t.free[n-1])
		t.free = t.free[:n-1]
	} else {
		r = len(t.rows)
		//lint:ignore alloc-hotpath amortised growth: rows recycle, so the table grows only to the peak live flow count
		t.rows = append(t.rows, viewRow{})
		//lint:ignore alloc-hotpath amortised growth: one zeroed state row per new peak live flow
		t.state = append(t.state, make([]uint16, t.cols)...)
	}
	row := &t.rows[r]
	row.id, row.dst = id, dst
	idx := t.rowOf[id.Src()]
	if seq := int(id.Seq()); seq >= len(idx) {
		// append's growth amortises a source's sequence numbers arriving
		// in order.
		//lint:ignore alloc-hotpath amortised growth: one index slot per flow a source ever starts
		idx = append(idx, make([]int32, seq+1-len(idx))...)
		t.rowOf[id.Src()] = idx
	}
	idx[id.Seq()] = int32(r) + 1
	return r
}

// finishedAt reports whether column c has applied flow id's finish.
func (t *viewTable) finishedAt(id wire.FlowID, c int32) bool {
	bits := t.finished[id.Src()]
	i := int(id.Seq())*t.finWords + int(c)>>6
	return i < len(bits) && bits[i]&(1<<(uint(c)&63)) != 0
}

// markFinished records that column c has applied flow id's finish.
func (t *viewTable) markFinished(id wire.FlowID, c int32) {
	bits := t.finished[id.Src()]
	i := int(id.Seq())*t.finWords + int(c)>>6
	if i >= len(bits) {
		// Cover the flow's words; append's growth amortises a source's
		// sequence numbers arriving in order.
		//lint:ignore alloc-hotpath amortised growth: one flow's bits are allocated once, by its first finish
		bits = append(bits, make([]uint64, (int(id.Seq())+1)*t.finWords-len(bits))...)
		t.finished[id.Src()] = bits
	}
	bits[i] |= 1 << (uint(c) & 63)
}

// upsert makes column c hold info, creating the flow's row if needed.
func (t *viewTable) upsert(c int32, info core.FlowInfo) {
	r := t.row(info.ID)
	if r < 0 {
		r = t.newRow(info.ID, info.Dst)
	}
	t.set(r, c, info)
}

// set makes column c hold info in row r.
func (t *viewTable) set(r int, c int32, info core.FlowInfo) {
	row := &t.rows[r]
	v := row.intern(info)
	s := &t.state[r*t.cols+int(c)]
	nv := &row.versions[v]
	if *s == 0 {
		row.holders++
		t.count[c]++
		t.digest[c] ^= nv.hash
	} else {
		if int(*s)-1 == v {
			return // already holds exactly this entry
		}
		old := &row.versions[*s-1]
		old.refs--
		t.digest[c] ^= old.hash ^ nv.hash
	}
	nv.refs++
	*s = uint16(v) + 1
}

// intern returns the index of the live version equal to info, claiming a
// free slot (or appending one) if no column holds it yet.
func (row *viewRow) intern(info core.FlowInfo) int {
	slot := -1
	for i := range row.versions {
		v := &row.versions[i]
		if v.refs == 0 {
			if slot < 0 {
				slot = i
			}
			continue
		}
		if v.info == info {
			return i
		}
	}
	nv := viewVersion{info: info, hash: core.FlowHash(info)}
	if slot >= 0 {
		row.versions[slot] = nv
		return slot
	}
	if len(row.versions) >= 1<<16-1 {
		panic("sim: view table row holds too many distinct versions of one flow")
	}
	//lint:ignore alloc-hotpath amortised growth: a recycled row keeps its version capacity
	row.versions = append(row.versions, nv)
	return len(row.versions) - 1
}

// remove drops flow id from column c, if held.
func (t *viewTable) remove(c int32, id wire.FlowID) {
	if r := t.row(id); r >= 0 {
		t.clear(r, c)
	}
}

// clear empties column c's cell of row r, recycling the row when no column
// holds the flow any more.
func (t *viewTable) clear(r int, c int32) {
	s := &t.state[r*t.cols+int(c)]
	if *s == 0 {
		return
	}
	row := &t.rows[r]
	v := &row.versions[*s-1]
	v.refs--
	t.digest[c] ^= v.hash
	t.count[c]--
	*s = 0
	if row.holders--; row.holders == 0 {
		t.rowOf[row.id.Src()][row.id.Seq()] = 0
		row.versions = row.versions[:0]
		//lint:ignore alloc-hotpath amortised growth: the free list is bounded by the peak live flow count
		t.free = append(t.free, int32(r))
	}
}

// apply folds one received broadcast into column c: core.View.Apply plus
// the finish tombstone. The caller skips the broadcast's own origin.
func (t *viewTable) apply(c int32, b *wire.Broadcast) {
	id := b.Flow()
	switch b.Event {
	case wire.EventFlowStart:
		if t.finishedAt(id, c) {
			return // a retransmitted start racing its own finish
		}
		t.upsert(c, core.FlowInfo{
			ID:         id,
			Src:        topology.NodeID(b.Src),
			Dst:        topology.NodeID(b.Dst),
			Weight:     b.Weight,
			Priority:   b.Priority,
			DemandKbps: b.DemandKbps,
			Protocol:   routing.Protocol(b.RP),
		})
	case wire.EventFlowFinish:
		t.markFinished(id, c)
		t.remove(c, id)
	case wire.EventDemandUpdate, wire.EventRouteChange:
		r := t.row(id)
		if r < 0 {
			return // an update racing a finish; drop it
		}
		s := t.state[r*t.cols+int(c)]
		if s == 0 {
			return
		}
		info := t.rows[r].versions[s-1].info
		if b.Event == wire.EventDemandUpdate {
			info.DemandKbps = b.DemandKbps
		} else {
			info.Protocol = routing.Protocol(b.RP)
		}
		t.set(r, c, info)
	default:
		//lint:ignore alloc-hotpath error path: unknown broadcast events are rejected, not processed
		panic(fmt.Sprintf("sim: unknown broadcast event %v", b.Event))
	}
}

// get returns column c's entry for flow id.
func (t *viewTable) get(c int32, id wire.FlowID) (core.FlowInfo, bool) {
	r := t.row(id)
	if r < 0 {
		return core.FlowInfo{}, false
	}
	s := t.state[r*t.cols+int(c)]
	if s == 0 {
		return core.FlowInfo{}, false
	}
	return t.rows[r].versions[s-1].info, true
}

// flows returns column c's entries sorted by flow ID in a fresh slice.
func (t *viewTable) flows(c int32) []core.FlowInfo {
	out := make([]core.FlowInfo, 0, t.count[c])
	for r := range t.rows {
		if s := t.state[r*t.cols+int(c)]; s != 0 {
			out = append(out, t.rows[r].versions[s-1].info)
		}
	}
	core.SortByID(out)
	return out
}

// purgeEndpoints removes from every column each flow sourced at or
// destined to a dead node, calling abandon once per purged flow.
func (t *viewTable) purgeEndpoints(dead map[topology.NodeID]bool, abandon func(wire.FlowID)) {
	for r := range t.rows {
		row := &t.rows[r]
		if row.holders == 0 || !(dead[topology.NodeID(row.id.Src())] || dead[row.dst]) {
			continue
		}
		id := row.id
		for c := int32(0); c < int32(t.cols); c++ {
			t.clear(r, c)
		}
		abandon(id)
	}
}

// NodeView is a read-only accessor for one node's traffic-matrix view in
// the simulator's flow-major table, with core.View's query methods.
type NodeView struct {
	t *viewTable
	c int32
}

// Len returns the number of flows in the view.
func (v NodeView) Len() int { return int(v.t.count[v.c]) }

// Hash returns the view's order-independent digest, equal to core.View's
// Hash of the same flow set.
func (v NodeView) Hash() uint64 { return v.t.digest[v.c] }

// Get returns the view's entry for a flow.
func (v NodeView) Get(id wire.FlowID) (core.FlowInfo, bool) { return v.t.get(v.c, id) }

// Flows returns the view's entries sorted by flow ID.
func (v NodeView) Flows() []core.FlowInfo { return v.t.flows(v.c) }
