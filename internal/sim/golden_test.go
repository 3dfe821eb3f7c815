package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"r2c2/internal/faults"
	"r2c2/internal/genetic"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/stats"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
	"r2c2/internal/wire"
)

// Golden Results digests: every configuration below is run and its Results
// fingerprinted, and the fingerprints must equal the ones recorded in
// testdata/results_digests.json. The file freezes the simulator's observable
// behaviour across refactors of its internals — a change that alters any
// flow record, statistics sample or counter of any of these runs fails
// here, naming the configuration. Regenerate deliberately with
//
//	go test ./internal/sim -run TestGoldenResultsDigests -update-digests
//
// and say in the change description why the behaviour moved.

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/results_digests.json from the current code")

const digestsFile = "testdata/results_digests.json"

// resultsDigest fingerprints everything a run reports except ShardStats,
// whose wall-clock fields differ between otherwise identical runs: every
// flow record in creation order, every raw sample value, every counter.
func resultsDigest(res *Results) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putSample := func(s stats.Sample) {
		vals := s.Values()
		put(uint64(len(vals)))
		for _, v := range vals {
			put(math.Float64bits(v))
		}
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	put(uint64(res.Transport))
	put(uint64(len(res.Flows)))
	for _, f := range res.Flows {
		put(uint64(f.ID))
		put(uint64(f.Src))
		put(uint64(f.Dst))
		put(uint64(f.SizeBytes))
		put(uint64(f.Started))
		put(uint64(f.Finished))
		put(bit(f.Done))
		put(uint64(f.BytesRcvd))
		put(bit(f.SenderDone))
	}
	put(uint64(res.Completed))
	put(uint64(res.Incomplete))
	putSample(res.ShortFCT)
	putSample(res.LongThroughput)
	putSample(res.AllFCT)
	putSample(res.MaxQueue)
	putSample(res.Reorder)
	for _, c := range []uint64{
		res.FailureReroutes, res.Drops, res.Retransmissions, res.BcastBytes,
		res.Recomputations, res.RecomputeRounds, res.Events, uint64(res.EndTime),
	} {
		put(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// selectorScenario drives the control-plane paths Run never exercises: a
// small torus with long flows whose demand is re-announced mid-flight
// (one update chasing its own start broadcast, one racing the flow's
// finish), a §3.4 selector that moves flows between protocols, and a lossy
// cable so broadcasts drop and §3.2-retransmit. The digest covers the
// run's Results plus every node's final view (length and hash).
func selectorScenario(t *testing.T) string {
	g := torus(t, 4, 2)
	eng, net, r := newR2C2Net(t, g, R2C2Config{
		Headroom: 0.05, Protocol: routing.RPS, Recompute: 200 * simtime.Microsecond, Seed: 5})
	sel := NewSelector(r, SelectorConfig{
		Period: 2 * simtime.Millisecond,
		MinAge: simtime.Millisecond,
		GA:     genetic.Config{Population: 12, MaxGens: 8, Seed: 3},
	})
	sel.Start()
	lossy, ok := g.LinkBetween(1, 2)
	if !ok {
		t.Fatal("no 1-2 link")
	}
	net.SetLinkDropProb(lossy, 0.3)

	long := []wire.FlowID{
		r.StartFlow(0, 15, 24<<20, 1, 0),
		r.StartFlow(5, 10, 24<<20, 1, 0),
		r.StartFlow(3, 12, 24<<20, 1, 0),
	}
	r.UpdateDemand(long[0], 3e9) // floods right behind its own start
	eng.Schedule(1500*simtime.Microsecond, func() { r.UpdateDemand(long[1], 2e9) })
	eng.Schedule(4*simtime.Millisecond, func() { r.UpdateDemand(long[1], 0) })
	for i := 0; i < 12; i++ {
		src := topology.NodeID(i)
		dst := topology.NodeID((i*7 + 3) % g.Nodes())
		if dst == src {
			continue
		}
		at := simtime.Time(i) * 400 * simtime.Microsecond
		eng.Schedule(at, func() {
			id := r.StartFlow(src, dst, 64<<10, 1, uint8(src%2))
			// The last chunk leaves well inside 100 µs at line rate, so
			// this update races the finish broadcast.
			eng.Schedule(eng.Now()+50*simtime.Microsecond, func() { r.UpdateDemand(id, 1e9) })
		})
	}
	eng.Run(12 * simtime.Millisecond)
	if sel.Reassignments == 0 {
		t.Fatal("selector reassigned nothing; the scenario no longer exercises route changes")
	}

	res := &Results{Transport: TransportR2C2, EndTime: eng.Now(), Events: eng.Processed()}
	res.addFlows(r.ledger.order)
	res.MaxQueue.AddAll(net.MaxQueueSample())
	res.Drops = net.TotalDrops()
	res.BcastBytes = net.BcastBytesOnWire
	res.Reorder = r.Reorder
	res.Recomputations = r.Recomputations
	res.RecomputeRounds = r.RecomputeRounds
	res.Retransmissions = r.BcastRetransmits // §3.2 broadcast retransmissions, folded into the digest
	d := resultsDigest(res)
	h := sha256.New()
	h.Write([]byte(d))
	for n := 0; n < g.Nodes(); n++ {
		v := r.View(topology.NodeID(n))
		fmt.Fprintf(h, "|%d:%d:%x", n, v.Len(), v.Hash())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lossyTorusWorkload is a 64-node torus with enough concurrent flows that
// views diverge between ticks, and two lossy cables so start and finish
// broadcasts drop and §3.2-retransmit (a retransmitted start can land
// after its own finish).
func lossyTorusWorkload(t *testing.T) RunConfig {
	g := torus(t, 4, 3)
	return RunConfig{
		Graph: g, Net: NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond},
		Transport: TransportR2C2,
		R2C2: R2C2Config{
			Headroom: 0.05, Protocol: routing.RPS,
			Recompute: 100 * simtime.Microsecond,
			Reliable:  true, RTO: 300 * simtime.Microsecond,
			Seed: 9,
		},
		Arrivals: trafficgen.FixedSize(trafficgen.PoissonConfig{
			Nodes:        g.Nodes(),
			MeanInterval: 20 * simtime.Microsecond,
			Count:        150,
			Seed:         21,
		}, 96<<10),
		Faults: faults.Schedule{Events: []faults.Event{
			{At: 0, Kind: faults.LinkDrop, A: 0, B: 1, DropProb: 0.2},
			{At: 0, Kind: faults.LinkDrop, A: 21, B: 22, DropProb: 0.2},
		}},
		MaxTime: 200 * simtime.Millisecond,
	}
}

// goldenDigests runs every covered configuration and returns its digest by
// name.
func goldenDigests(t *testing.T) map[string]string {
	out := map[string]string{}
	for name, cfg := range oracleWorkloads(t) {
		out["oracle/"+name] = resultsDigest(Run(cfg))
	}
	out["torus-selector-demand"] = selectorScenario(t)
	out["torus64-lossy-reliable"] = resultsDigest(Run(lossyTorusWorkload(t)))
	for _, racks := range []int{2, 4} {
		for _, withFaults := range []bool{false, true} {
			for _, mode := range []struct {
				name       string
				shards     int
				replicated bool
			}{{"serial", 1, false}, {"aggregated", 2, false}, {"replicated", 2, true}} {
				cfg := controlPlaneWorkload(t, racks, mode.shards)
				cfg.ReplicatedControlPlane = mode.replicated
				if withFaults {
					cfg.Faults = controlPlaneFaults(racks)
				}
				res := Run(cfg)
				res.ShardStats = nil
				out[fmt.Sprintf("sharded/racks=%d/faults=%v/%s", racks, withFaults, mode.name)] = resultsDigest(res)
			}
		}
	}
	return out
}

// TestGoldenResultsDigests checks the recorded digests (see the file
// comment). It runs the node-crash fault soak (oracle/fault-soak), every
// scheduler-oracle workload, the selector/demand-update torus and the
// sharded 2- and 4-rack control-plane matrix.
func TestGoldenResultsDigests(t *testing.T) {
	got := goldenDigests(t)
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), digestsFile)
		return
	}
	raw, err := os.ReadFile(digestsFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-digests)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: Results digest %s, recorded %s", name, got[name], want[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no recorded digest (regenerate with -update-digests)", name)
		}
	}
}
