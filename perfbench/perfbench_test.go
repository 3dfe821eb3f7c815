package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// smallRacks is a 4-rack ring of 3×3 tori running reliable R2C2: small
// enough for a unit test, with a real rack partition for the sharded engine.
func smallRacks(t *testing.T, shards int) sim.RunConfig {
	t.Helper()
	subs := make([]*topology.Graph, 4)
	for i := range subs {
		g, err := topology.NewTorus(3, 2)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = g
	}
	var bridges []topology.Bridge
	for i := range subs {
		j := (i + 1) % len(subs)
		bridges = append(bridges,
			topology.Bridge{RackA: i, RackB: j, NodeA: 0, NodeB: 4},
			topology.Bridge{RackA: i, RackB: j, NodeA: 5, NodeB: 1})
	}
	g, err := topology.ConnectRacks(subs, bridges)
	if err != nil {
		t.Fatal(err)
	}
	return sim.RunConfig{
		Graph: g, Net: paperNet, Transport: sim.TransportR2C2,
		R2C2: sim.R2C2Config{
			Headroom: 0.05, Protocol: routing.RPS, Recompute: 100 * simtime.Microsecond,
			Reliable: true, RTO: 300 * simtime.Microsecond, Seed: 11,
		},
		Arrivals: trafficgen.FixedSize(trafficgen.PoissonConfig{
			Nodes: g.Nodes(), MeanInterval: 200 * simtime.Microsecond, Count: 60, Seed: 7,
		}, 256<<10),
		MaxTime: 100 * simtime.Millisecond,
		Shards:  shards,
	}
}

func TestDigestTracksFlowsAndIgnoresShardStats(t *testing.T) {
	res := sim.Run(smallRacks(t, 2))
	base := digest(res)
	if again := digest(sim.Run(smallRacks(t, 2))); again != base {
		t.Fatalf("two identical runs digest differently: %s vs %s", base, again)
	}

	res.ShardStats[0].BusyNs += 12345
	res.ShardStats[1].Events++
	if got := digest(res); got != base {
		t.Errorf("digest moved with ShardStats")
	}

	res.Flows[len(res.Flows)/2].Finished += simtime.Picosecond
	if got := digest(res); got == base {
		t.Errorf("digest ignored a flow's Finished")
	}
}

func TestSerialOracleCatchesAMissingArrival(t *testing.T) {
	cfg := smallRacks(t, 2)
	sharded := digest(sim.Run(cfg))

	r := newResult()
	checkAgainstSerial(r, cfg, sharded)
	if !r.correct() {
		t.Fatalf("serial oracle rejects an identical run: %v", r.failures)
	}

	broken := cfg
	broken.Arrivals = append(broken.Arrivals[:10:10], broken.Arrivals[11:]...)
	r = newResult()
	checkAgainstSerial(r, broken, sharded)
	if r.correct() || !strings.HasPrefix(r.failures[0], "sharded-matches-serial") {
		t.Fatalf("serial run with one arrival removed passed the oracle: %v", r.failures)
	}
}

func TestCheckSimRejectsBrokenOutputs(t *testing.T) {
	cfg := smallRacks(t, 0)
	in := &simInput{cfg: cfg}
	res := sim.Run(cfg)
	r := newResult()
	checkSim(r, in, res)
	if !r.correct() {
		t.Fatalf("a correct run failed its checks: %v", r.failures)
	}

	for _, tc := range []struct {
		check string
		brk   func(*sim.FlowRecord)
	}{
		{"bytes-delivered", func(f *sim.FlowRecord) { f.BytesRcvd++ }},
		{"all-flows-complete", func(f *sim.FlowRecord) { f.Done = false }},
	} {
		res := sim.Run(cfg)
		tc.brk(res.Flows[3])
		r := newResult()
		checkSim(r, in, res)
		found := false
		for _, f := range r.failures {
			found = found || strings.HasPrefix(f, tc.check)
		}
		if !found {
			t.Errorf("check %s did not fire: %v", tc.check, r.failures)
		}
	}
}

// A faulted run may leave a flow incomplete only when one of its endpoints
// crashed; only an unexplained one fails.
func TestCheckSimExplainsIncompleteFlows(t *testing.T) {
	cfg := smallRacks(t, 0)
	res := sim.Run(cfg)
	f := res.Flows[3]
	f.Done = false
	res.Completed--
	crash := func(node topology.NodeID) *simInput {
		return &simInput{cfg: cfg, sched: faults.Schedule{Events: []faults.Event{
			{At: time.Millisecond, Kind: faults.NodeDown, Node: node, Detect: 100 * time.Microsecond},
		}}}
	}

	r := newResult()
	checkSim(r, crash(f.Dst), res)
	for _, fail := range r.failures {
		if !strings.HasPrefix(fail, "reroutes-match-fault-waves") {
			t.Errorf("an incomplete flow to the crashed node failed a check: %v", fail)
		}
	}
	if r.failed != 0 {
		t.Errorf("an explained incomplete flow counted as failed: %d", r.failed)
	}

	other := topology.NodeID(0)
	for other == f.Src || other == f.Dst {
		other++
	}
	r = newResult()
	checkSim(r, crash(other), res)
	found := false
	for _, fail := range r.failures {
		found = found || strings.HasPrefix(fail, "incomplete-flow-explained")
	}
	if !found || r.failed != 1 {
		t.Errorf("an incomplete flow with live endpoints passed: failed %d, %v", r.failed, r.failures)
	}
}

func TestParseTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
Duration: 301.39ms, Total samples = 280ms (92.90%)
-----------+-------------------------------------------------------
      10ms   runtime.lock2
             runtime.lock (inline)
             r2c2/internal/emu.(*Rack).linkLoop
-----------+-------------------------------------------------------
     1.50s   r2c2/internal/wire.EncodeData
-----------+-------------------------------------------------------
`
	got, err := parseTraces(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{funcs: []string{"runtime.lock2", "runtime.lock", "r2c2/internal/emu.(*Rack).linkLoop"}, cpuNs: 10e6},
		{funcs: []string{"r2c2/internal/wire.EncodeData"}, cpuNs: 1.5e9},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("parseTraces = %v, want %v", got, want)
	}
	if _, err := parseTraces(strings.NewReader("-----------+---\n   ten   main.main\n")); err == nil {
		t.Errorf("a stack without a CPU time parsed")
	}
}

func TestSeedChangesArrivalsAndFaults(t *testing.T) {
	a, err := torusFaults.setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := torusFaults.setup(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := torusFaults.setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.sched.String() == b.sched.String() {
		t.Errorf("seeds 1 and 2 give the same fault schedule: %s", a.sched)
	}
	if a.cfg.Arrivals[0] == b.cfg.Arrivals[0] {
		t.Errorf("seeds 1 and 2 give the same first arrival: %+v", a.cfg.Arrivals[0])
	}
	if a.sched.String() != again.sched.String() || len(a.cfg.Arrivals) != len(again.cfg.Arrivals) ||
		a.cfg.Arrivals[len(a.cfg.Arrivals)-1] != again.cfg.Arrivals[len(again.cfg.Arrivals)-1] {
		t.Errorf("seed 1 does not reproduce its inputs")
	}
	pareto, err := torusPareto.setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pareto.cfg.Arrivals) != len(a.cfg.Arrivals) || pareto.cfg.Arrivals[7] != a.cfg.Arrivals[7] {
		t.Errorf("torus-faults does not run torus-pareto's arrivals")
	}
	flaps, err := torusFlaps.setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flaps.sched.Waves() == 0 || len(flaps.sched.DeadNodes()) != 0 {
		t.Errorf("torus-flaps schedule %s should fault links and crash no node", flaps.sched)
	}
}

func TestClassifierLayers(t *testing.T) {
	stacks := []struct {
		rules []layerRule
		funcs []string
		want  string
	}{
		// FIB lookups inside broadcast forwarding count as FIB.
		{simLayers, []string{
			"r2c2/internal/topology.(*BroadcastFIB).lookup", "r2c2/internal/topology.(*BroadcastFIB).NextHops",
			"r2c2/internal/sim.(*R2C2).broadcastHops", "r2c2/internal/sim.(*Network).forwardBroadcast",
			"r2c2/internal/sim.(*Engine).dispatch", "r2c2/internal/sim.Run",
		}, "cpu.fib"},
		{simLayers, []string{"r2c2/internal/topology.buildOneTree", "r2c2/internal/topology.(*BroadcastFIB).lookup"}, "cpu.fib"},
		{simLayers, []string{
			"runtime.mallocgc", "r2c2/internal/sim.(*Network).forwardBroadcast", "r2c2/internal/sim.(*Engine).Run",
		}, "cpu.net_broadcast"},
		{simLayers, []string{
			"r2c2/internal/waterfill.(*Allocator).Allocate", "r2c2/internal/core.(*RateComputer).Compute",
			"r2c2/internal/sim.(*R2C2).recomputeTick",
		}, "cpu.allocator"},
		{simLayers, []string{"r2c2/internal/sim.(*R2C2).recomputeTick.func1", "r2c2/internal/sim.(*Engine).dispatch"}, "cpu.r2c2_tick"},
		{simLayers, []string{"r2c2/internal/sim.(*Network).transmitDone", "r2c2/internal/sim.(*Engine).dispatch"}, "cpu.net_unicast"},
		{simLayers, []string{"r2c2/internal/sim.(*timerWheel).advance", "r2c2/internal/sim.(*Engine).Run"}, "cpu.engine"},
		{simLayers, []string{"r2c2/internal/routing.NewTable", "r2c2/internal/sim.(*R2C2).reroute"}, "cpu.routing"},
		{simLayers, []string{"r2c2/internal/topology.(*Graph).computeDistances", "r2c2/internal/sim.(*R2C2).degradedFabric"}, "cpu.fabric_rebuild"},
		{simLayers, []string{"r2c2/internal/sim.(*shardState).ingest", "r2c2/internal/sim.(*shardedRun).drain"}, "cpu.shard_drain"},
		{simLayers, []string{
			"r2c2/internal/sim.(*Engine).dispatch", "r2c2/internal/sim.(*Engine).Run",
			"r2c2/internal/sim.(*shardState).run", "r2c2/internal/sim.(*shardedRun).workerLoop",
		}, "cpu.engine"},
		{simLayers, []string{"runtime.nanotime", "r2c2/internal/sim.(*shardState).run", "r2c2/internal/sim.(*shardedRun).workerLoop"}, "cpu.shard_sync"},
		{simLayers, []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "cpu.shard_sync"},
		{simLayers, []string{"sync.(*WaitGroup).Wait", "r2c2/internal/sim.(*shardedRun).barrier"}, "cpu.shard_sync"},
		// A serial run has no workers to synchronise.
		{serialSimLayers(), []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "cpu.other"},
		{serialSimLayers(), []string{"r2c2/internal/sim.(*shardState).ingest", "r2c2/internal/sim.(*Engine).Run"}, "cpu.engine"},
		{simLayers, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "cpu.gc"},
		{simLayers, []string{"runtime.memmove", "main.main"}, "cpu.other"},
		// The transmit prefix must not swallow transmitDone's siblings.
		{simLayers, []string{"r2c2/internal/sim.(*Network).transmitter"}, "cpu.other"},
		{emuLayers, []string{"r2c2/internal/emu.(*mbufPool).get", "r2c2/internal/emu.(*Rack).flowSender"}, "cpu.emu_pool"},
		{emuLayers, []string{"r2c2/internal/wire.EncodeData", "r2c2/internal/emu.(*Rack).flowSender"}, "cpu.wire"},
		{emuLayers, []string{"r2c2/internal/emu.(*Rack).forwardBroadcast", "r2c2/internal/emu.(*Rack).receive"}, "cpu.emu_ctrl"},
		{emuLayers, []string{"runtime.chansend1", "r2c2/internal/emu.(*Rack).linkLoop"}, "cpu.emu_datapath"},
		{emuLayers, []string{"runtime.futex", "runtime.schedule"}, "cpu.sched"},
	}
	for _, s := range stacks {
		if got := classify(s.rules, s.funcs); got != s.want {
			t.Errorf("classify(%v) = %s, want %s", s.funcs, got, s.want)
		}
	}
}

// spin keeps the CPU busy long enough for the profiler to sample it.
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestReadProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := profileTo(path, func() { spin(300 * time.Millisecond) }); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}

	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.cpuNs
		for _, fn := range s.funcs {
			found = found || fn == "r2c2/perfbench.spin"
		}
	}
	if total <= 0 || !found {
		t.Fatalf("decoded %d samples, %d ns, spin on a stack: %v", len(samples), total, found)
	}
	shares, _ := layerShares(simLayers, samples)
	if len(shares) != len(simLayers)+1 || shares[otherLayer] < 0.5 {
		t.Errorf("shares of a profile outside every layer: %v", shares)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		known := false
		for _, k := range workloads {
			known = known || k.name == w.Name
		}
		if !known {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}
