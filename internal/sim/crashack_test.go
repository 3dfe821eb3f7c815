package sim

import (
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// A reliable receiver must not try to ack data that a crashed sender put
// on the wire before the crash when it arrives after the reroute: the
// rebuilt table cannot route to the dead sender, and building the ack route
// used to panic with "routing: no minimal successor". This is the §5.2
// torus workload (8×8×8, τ = 1 µs, Pareto sizes capped at 10 MB) with
// seeded flaps, lossy links and one crash, at the input seed that showed it.
// The fault schedule is drawn over the full 1100-arrival horizon, but only
// the first 430 flows run: the shortest prefix (in steps of 4) that still
// hit the panic, which keeps the test cheap under -race.
func TestCrashedSenderDataAfterReroute(t *testing.T) {
	const seed, prefix = 1636, 430
	g, err := topology.NewTorus(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	arr := trafficgen.Poisson(trafficgen.PoissonConfig{
		Nodes: g.Nodes(), MeanInterval: simtime.Microsecond, Count: 1100,
		MaxFlowBytes: 10_000_000, Seed: seed,
	})
	sched, err := faults.Generate(g, faults.GenConfig{
		Seed: seed, Horizon: time.Duration(arr[len(arr)-1].At / simtime.Nanosecond),
		Flaps: 3, Crash: true, DropLinks: 4, DropProb: 0.001,
	})
	arr = arr[:prefix]
	if err != nil {
		t.Fatal(err)
	}
	dead := map[topology.NodeID]bool{}
	for _, ev := range sched.Events {
		if ev.Kind == faults.NodeDown {
			dead[ev.Node] = true
		}
	}
	res := Run(RunConfig{
		Graph: g, Net: NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond},
		Transport: TransportR2C2,
		R2C2:      R2C2Config{Headroom: 0.05, Protocol: routing.RPS, Seed: seed, Reliable: true},
		Arrivals:  arr,
		Faults:    sched,
	})
	if res.FailureReroutes == 0 || len(dead) != 1 {
		t.Fatalf("schedule did not exercise a crash reroute: reroutes=%d dead=%v", res.FailureReroutes, dead)
	}
	for _, f := range res.Flows {
		if !f.Done && !dead[f.Src] && !dead[f.Dst] {
			t.Errorf("flow %v (%d->%d) incomplete without a crashed endpoint", f.ID, f.Src, f.Dst)
		}
		if f.Done && f.BytesRcvd < f.SizeBytes {
			t.Errorf("flow %v done with %d of %d bytes", f.ID, f.BytesRcvd, f.SizeBytes)
		}
	}
}
