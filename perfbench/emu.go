package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"r2c2/internal/emu"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// The emulated rack: a 27-node 3×3×3 torus with 1 Gbps virtual links. At
// that speed the rack is bound by its pacing, not by the host's CPU, so
// its flow times repeat from run to run; at 4 Gbps two clients already
// keep two CPUs busy, and the flow times follow the host's speed.
const (
	emuRadix          = 3
	emuLinkMbps       = 1000
	emuTreesPerSource = 2
	emuFlowBytes      = 1 << 20
	// emuFlowsPerClient is one measured loop: every client sends this many
	// flows back to back.
	emuFlowsPerClient = 24
	emuWaitTimeout    = 30 * time.Second
)

// emuFlowResult is one completed (or failed) emulated flow.
type emuFlowResult struct {
	src, dst   topology.NodeID
	fctNs      int64
	startNs    int64 // benchmark clock, for the peak-concurrency probe
	startCall  time.Duration
	err        error
	flowID     uint32
	throughput float64 // bits/s
}

// runEmu measures the emulator workload: one client per CPU, each a closed
// loop of 1 MB flows between seeded random node pairs.
func runEmu(o options) *result {
	r := newResult()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up runs setupReps times up front and once more before every
	// untraced call; only the first rack carries the workload.
	var setups []float64
	startRack := func() (*topology.Graph, *emu.Rack, error) {
		start := time.Now()
		var g *topology.Graph
		var rack *emu.Rack
		var err error
		tr.timed("setup.topology", -1, func() { g, err = topology.NewTorus(emuRadix, 3) })
		if err == nil {
			tr.timed("setup.emu_start", -1, func() {
				rack, err = emu.New(emu.Config{
					Graph: g, LinkMbps: emuLinkMbps, Headroom: 0.05,
					TreesPerSource: emuTreesPerSource, Seed: o.seed,
				})
				if err == nil {
					rack.Start()
				}
			})
		}
		setups = append(setups, time.Since(start).Seconds())
		r.check("setup", err == nil, "%v", err)
		return g, rack, err
	}
	spareRack := func() bool {
		_, spare, err := startRack()
		if err == nil {
			spare.Stop()
		}
		return err == nil
	}
	g, rack, err := startRack()
	if err != nil {
		return r
	}
	defer rack.Stop()
	for i := 1; i < setupReps; i++ {
		if !spareRack() {
			return r
		}
	}

	clients := runtime.NumCPU()
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(o.seed*1_000_003 + int64(c)))
	}
	epoch := time.Now()
	var flows []emuFlowResult
	var loopP50, loopP99 []float64 // per untraced loop, µs
	var loopWallS float64          // untraced loops' wall time
	var mem memDelta

	// loop is one measured closed-loop round of every client. It returns
	// the process's CPU time over the round: the rack is paced, so the
	// round's wall time is set by the link rate, and its cost shows as CPU.
	loop := func(traced bool) time.Duration {
		if !traced {
			spareRack()
		}
		runtime.GC()
		perClient := make([][]emuFlowResult, clients)
		var d time.Duration
		run := func() {
			sp := -1
			if traced {
				sp = tr.begin("emu.loop", -1, 0)
			}
			start, wallStart := processCPU(), time.Now()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					perClient[c] = emuClient(rack, g, rngs[c], epoch, tr, sp)
				}(c)
			}
			wg.Wait()
			d = processCPU() - start
			if !traced {
				loopWallS += time.Since(wallStart).Seconds()
			}
			tr.end(sp)
		}
		if traced {
			run()
		} else {
			mem.measure(run)
		}
		var fctUs []float64
		for _, fs := range perClient {
			for _, f := range fs {
				r.attempted++
				ok := f.err == nil && f.fctNs > 0
				if !ok {
					r.failed++
				}
				r.check("flow-completes", ok, "flow %d->%d: err %v, FCT %dns, %d packets dropped in the rack",
					f.src, f.dst, f.err, f.fctNs, rack.Drops())
				if !traced {
					flows = append(flows, f)
					fctUs = append(fctUs, float64(f.fctNs)/1e3)
				}
			}
		}
		if !traced {
			loopP50 = append(loopP50, median(fctUs))
			loopP99 = append(loopP99, quantile(fctUs, 0.99))
		}
		return d
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		durs, calibs := repeat(budget, minReps, func() time.Duration { return loop(false) })
		rss := peakRSSMegabytes()
		checkQuiet(r, rack)
		_, goodput, _ := emuFlowStats(flows)
		r.set("setup_s", "s", median(setups))
		setRunTimes(r, durs, calibs)
		r.set("peak_rss_mb", "MB", rss)
		// A loop's percentiles, medianed over the loops, so that a few
		// seconds of a slow host move one loop's figures, not the run's.
		r.set("fct_p50_us", "us", median(loopP50))
		r.set("fct_p99_us", "us", median(loopP99))
		r.set("flow_goodput_p50_gbps", "Gbps", median(goodput))
		return r
	}

	untraced, traced, calibs, samples, err := alternate(budget, minReps, o.outDir, loop)
	if err != nil {
		r.check("cpu-profile", false, "%v", err)
		return r
	}
	checkQuiet(r, rack)
	setLayerShares(r, emuLayers, samples, o.outDir)
	setTracedRunTimes(r, untraced, traced, calibs)
	fctUs, _, bytes := emuFlowStats(flows)
	setSetupSpans(r, tr)
	mem.report(r)
	var startUs []float64
	for _, f := range flows {
		startUs = append(startUs, f.startCall.Seconds()*1e6)
	}
	var maxQueue int64
	for _, q := range rack.MaxQueueBytes() {
		maxQueue = max(maxQueue, q)
	}
	mb := rack.MbufStats()
	r.set("emu.fct_p99_ms", "ms", quantile(fctUs, 0.99)/1e3)
	r.set("emu.start_flow_us", "us", median(startUs))
	r.set("emu.mbuf_peak_live", "count", float64(mb.PeakLive))
	r.set("emu.mbuf_allocs", "count", float64(mb.Allocs))
	r.set("emu.max_queue_kb", "KB", float64(maxQueue)/1e3)
	r.set("emu.goodput_mb_s", "MB/s", bytes/1e6/loopWallS)

	pairs := make([][2]topology.NodeID, len(flows))
	lifetimes := make([]flowInterval, len(flows))
	for i, f := range flows {
		pairs[i] = [2]topology.NodeID{f.src, f.dst}
		lifetimes[i] = flowInterval{f.startNs, f.startNs + f.fctNs, unlimitedFlow(wire.FlowID(f.flowID), f.src, f.dst)}
	}
	fab := probeFabric{g: g, treesPerSource: emuTreesPerSource, seed: o.seed, capacityBits: emuLinkMbps * 1e6}
	runProbes(r, tr, fab, pairs, peakFlows(lifetimes))
	if err := tr.write(o.outDir); err != nil {
		r.check("write-spans", false, "%v", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", o.outDir)
	return r
}

// emuFlowStats returns the flows' completion times in µs, their goodputs
// in Gbps and the bytes they carried.
func emuFlowStats(flows []emuFlowResult) (fctUs, goodputGbps []float64, bytes float64) {
	for _, f := range flows {
		fctUs = append(fctUs, float64(f.fctNs)/1e3)
		goodputGbps = append(goodputGbps, f.throughput/1e9)
		bytes += emuFlowBytes
	}
	return fctUs, goodputGbps, bytes
}

// emuClient sends emuFlowsPerClient flows back to back and waits for each.
func emuClient(rack *emu.Rack, g *topology.Graph, rng *rand.Rand, epoch time.Time, tr *tracer, parent int) []emuFlowResult {
	out := make([]emuFlowResult, 0, emuFlowsPerClient)
	for i := 0; i < emuFlowsPerClient; i++ {
		src := topology.NodeID(rng.Intn(g.Nodes()))
		dst := topology.NodeID(rng.Intn(g.Nodes() - 1))
		if dst >= src {
			dst++
		}
		res := emuFlowResult{src: src, dst: dst}
		begin := time.Now()
		f, err := rack.StartFlow(src, dst, emuFlowBytes, 1, 0)
		called := time.Now()
		res.startNs, res.startCall = int64(begin.Sub(epoch)), called.Sub(begin)
		if err == nil {
			res.flowID = uint32(f.Info.ID)
			tr.record("emu.StartFlow", parent, res.flowID, begin, called)
			err = f.Wait(emuWaitTimeout)
			tr.record("emu.Wait", parent, res.flowID, called, time.Now())
			res.fctNs = int64(f.FCT())
			res.throughput = f.Throughput()
		}
		res.err = err
		out = append(out, res)
	}
	return out
}

// checkQuiet waits for the rack to go idle and checks that every packet
// buffer went back to the pool.
func checkQuiet(r *result, rack *emu.Rack) {
	deadline := time.Now().Add(5 * time.Second)
	for rack.MbufStats().Live != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	live := rack.MbufStats().Live
	r.check("mbufs-released", live == 0, "%d packet buffers still live once the rack is quiet", live)
}
