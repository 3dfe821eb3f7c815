package emu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/topology"
)

// TestEmuFaultsUnderTraffic drives fault swaps and live traffic at the
// same time: worker goroutines keep flows in flight across every node
// pair while ApplyFaults replays a schedule of link flaps and a node
// crash against the running rack. Its purpose is the interleaving, not
// the counters — under `go test -race` it makes the detector watch
// swapFabric (atomic.Pointer store + faultMu) race against flowSender's
// fabric loads, linkLoop delivery and Flow.abort. Flows touching the
// crashed node legitimately abort or fail to start; everything else must
// keep completing through the swaps.
func TestEmuFaultsUnderTraffic(t *testing.T) {
	g, err := topology.NewTorus(2, 3) // the 8-node rack
	if err != nil {
		t.Fatal(err)
	}
	// The schedule comes from a deterministic margin scan: the old fixed
	// seed 3 put the first detection fire 4.45 ms before the crash
	// injection, and a fire that ran that late under load coalesced the two
	// swaps (coveredSeq), so the rack rerouted fewer times than Waves()
	// predicts. No 60 ms horizon leaves a 10 ms margin; 120 ms does.
	sched := pickRobustSchedule(t, g, faults.GenConfig{
		Horizon: 120 * time.Millisecond,
		Flaps:   2,
		Crash:   true,
		DownFor: 20 * time.Millisecond,
		Detect:  5 * time.Millisecond,
	}, 10*time.Millisecond)
	r := newRack(t, Config{Graph: g, LinkMbps: 100, Recompute: time.Millisecond, Protocol: routing.RPS})

	// Deterministic pair list; workers stride through it so traffic covers
	// the whole rack, including pairs the schedule will break.
	var pairs [][2]topology.NodeID
	for src := 0; src < g.Nodes(); src++ {
		for dst := 0; dst < g.Nodes(); dst++ {
			if src != dst {
				pairs = append(pairs, [2]topology.NodeID{topology.NodeID(src), topology.NodeID(dst)})
			}
		}
	}

	var (
		wg        sync.WaitGroup
		stop      = make(chan struct{})
		completed atomic.Uint64
		disrupted atomic.Uint64
	)
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i += workers {
				select {
				case <-stop:
					return
				default:
				}
				p := pairs[i%len(pairs)]
				f, err := r.StartFlow(p[0], p[1], 64<<10, 1, 0)
				if err != nil {
					disrupted.Add(1) // endpoint already failed
					continue
				}
				// The emulator has no end-to-end retransmission (Config doc):
				// a flow that loses bytes to a flap mid-flight never
				// completes. Aborts return immediately; the short timeout
				// only bounds those wedged-by-design flows.
				if err := f.Wait(2 * time.Second); err != nil {
					disrupted.Add(1)
					continue
				}
				completed.Add(1)
			}
		}(w)
	}

	// Let traffic ramp before the first injection so the early swaps hit
	// flows mid-flight rather than an idle fabric.
	time.Sleep(5 * time.Millisecond)
	r.ApplyFaults(sched)

	deadline := time.Now().Add(10 * time.Second)
	want := uint64(sched.Waves())
	for time.Now().Before(deadline) && r.Reroutes() < want {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := r.Reroutes(); got < want {
		t.Fatalf("reroutes = %d, want >= %d (schedule waves)\nschedule:\n%s", got, want, sched)
	}
	if completed.Load() == 0 {
		t.Fatal("no flow completed while the schedule replayed")
	}
	if disrupted.Load() == 0 {
		t.Fatal("no flow was disrupted — traffic never raced a swap; strengthen the schedule")
	}
	t.Logf("completed=%d disrupted=%d reroutes=%d", completed.Load(), disrupted.Load(), r.Reroutes())
}
