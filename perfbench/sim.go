package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"r2c2/internal/faults"
	"r2c2/internal/routing"
	"r2c2/internal/sim"
	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/trafficgen"
)

// simInput is everything one simulator workload hands to sim.Run, plus
// what its output checks need.
type simInput struct {
	cfg   sim.RunConfig
	sched faults.Schedule // the injected faults, if any
}

// simWorkload builds a simulator workload's inputs from the seed.
type simWorkload struct {
	setup func(seed int64, tr *tracer) (*simInput, error)
}

// Paper §5.2 fabric: 10 Gbps links, 100 ns per hop.
var paperNet = sim.NetConfig{LinkGbps: 10, PropDelay: 100 * simtime.Nanosecond}

// paretoFlows is the flow count of one Pareto input set: the flows under
// 100 KB (about 96% of them) leave at least ten samples above their 99th
// percentile, and the input sets of a seed pool subInputs times that.
const paretoFlows = 1100

// paretoMaxBytes caps the Pareto tail. Uncapped, about one seed in ten
// draws a flow over 100 MB whose transfer alone outlasts the rest of the
// run and, under faults, doubles its event count.
const paretoMaxBytes = 10_000_000

// paperTorus is the §5.2 workload: 512-node 8×8×8 torus, Poisson arrivals
// at τ = 1 µs and Pareto(1.05, mean 100 KB) sizes capped at 10 MB, routed
// with RPS.
func paperTorus(seed int64, tr *tracer) (*topology.Graph, []trafficgen.Arrival, error) {
	var g *topology.Graph
	var err error
	tr.timed("setup.topology", -1, func() { g, err = topology.NewTorus(8, 3) })
	if err != nil {
		return nil, nil, err
	}
	var arr []trafficgen.Arrival
	tr.timed("setup.trafficgen", -1, func() {
		arr = trafficgen.Poisson(trafficgen.PoissonConfig{
			Nodes: g.Nodes(), MeanInterval: simtime.Microsecond, Count: paretoFlows,
			MaxFlowBytes: paretoMaxBytes, Seed: seed,
		})
	})
	return g, arr, nil
}

var torusPareto = simWorkload{
	setup: func(seed int64, tr *tracer) (*simInput, error) {
		g, arr, err := paperTorus(seed, tr)
		if err != nil {
			return nil, err
		}
		return &simInput{cfg: sim.RunConfig{
			Graph: g, Net: paperNet, Transport: sim.TransportR2C2,
			R2C2:     sim.R2C2Config{Headroom: 0.05, Protocol: routing.RPS, Seed: seed},
			Arrivals: arr,
		}}, nil
	},
}

// Racks of the sharded workload: an 8-rack ring of 4×4×4 tori joined by
// two bridges per adjacent pair.
const (
	racks          = 8
	rackFlows      = 600
	rackFlowBytes  = 64 << 10
	rackMeanArrive = 20 * simtime.Microsecond
)

var racksSharded = simWorkload{
	setup: func(seed int64, tr *tracer) (*simInput, error) {
		var g *topology.Graph
		var err error
		tr.timed("setup.topology", -1, func() {
			subs := make([]*topology.Graph, racks)
			for i := range subs {
				if subs[i], err = topology.NewTorus(4, 3); err != nil {
					return
				}
			}
			var bridges []topology.Bridge
			for i := 0; i < racks; i++ {
				j := (i + 1) % racks
				bridges = append(bridges,
					topology.Bridge{RackA: i, RackB: j, NodeA: 0, NodeB: 7},
					topology.Bridge{RackA: i, RackB: j, NodeA: 11, NodeB: 4},
				)
			}
			g, err = topology.ConnectRacks(subs, bridges)
		})
		if err != nil {
			return nil, err
		}
		var arr []trafficgen.Arrival
		tr.timed("setup.trafficgen", -1, func() {
			arr = trafficgen.FixedSize(trafficgen.PoissonConfig{
				Nodes: g.Nodes(), MeanInterval: rackMeanArrive, Count: rackFlows, Seed: seed,
			}, rackFlowBytes)
		})
		return &simInput{cfg: sim.RunConfig{
			Graph: g, Net: paperNet, Transport: sim.TransportR2C2,
			R2C2: sim.R2C2Config{
				Headroom: 0.05, Protocol: routing.RPS, Recompute: 100 * simtime.Microsecond,
				Reliable: true, RTO: 300 * simtime.Microsecond, Seed: seed,
			},
			Arrivals: arr,
			Shards:   min(runtime.NumCPU(), racks),
		}}, nil
	},
}

// faultedTorus is torus-pareto's inputs plus a seeded fault schedule over
// the arrival horizon (3 link flaps, 4 links dropping 0.1% of packets, and
// a node crash if crash is set) on reliable R2C2.
func faultedTorus(crash bool) simWorkload {
	return simWorkload{setup: func(seed int64, tr *tracer) (*simInput, error) {
		g, arr, err := paperTorus(seed, tr)
		if err != nil {
			return nil, err
		}
		var sched faults.Schedule
		tr.timed("setup.faults", -1, func() {
			horizon := time.Duration(arr[len(arr)-1].At / simtime.Nanosecond)
			sched, err = faults.Generate(g, faults.GenConfig{
				Seed: seed, Horizon: horizon, Flaps: 3, Crash: crash, DropLinks: 4, DropProb: 0.001,
			})
		})
		if err != nil {
			return nil, err
		}
		return &simInput{
			cfg: sim.RunConfig{
				Graph: g, Net: paperNet, Transport: sim.TransportR2C2,
				R2C2:     sim.R2C2Config{Headroom: 0.05, Protocol: routing.RPS, Seed: seed, Reliable: true},
				Arrivals: arr,
				Faults:   sched,
			},
			sched: sched,
		}, nil
	}}
}

var (
	torusFlaps  = faultedTorus(false)
	torusFaults = faultedTorus(true)
)

// checkSim verifies one run's outputs against its inputs. A completed
// flow must have received its whole size, and a flow may stay incomplete
// only if one of its endpoints crashed. Without faults every flow must
// complete and, as nothing is retransmitted, the bytes received must add
// up to exactly the bytes sent.
func checkSim(r *result, in *simInput, res *sim.Results) {
	var want, got int64
	incomplete, bad := 0, 0
	dead := in.sched.DeadNodes()
	for _, f := range res.Flows {
		want += f.SizeBytes
		got += f.BytesRcvd
		ok := f.BytesRcvd >= f.SizeBytes
		if !f.Done {
			incomplete++
			ok = dead[f.Src] || dead[f.Dst]
			r.check("incomplete-flow-explained", ok,
				"flow %v (%d->%d) incomplete with both endpoints alive", f.ID, f.Src, f.Dst)
		} else {
			r.check("completed-flow-delivered", ok,
				"flow %v done with %d of %d bytes", f.ID, f.BytesRcvd, f.SizeBytes)
		}
		if !ok {
			bad++
		}
	}
	r.check("flow-count", len(res.Flows) == len(in.cfg.Arrivals),
		"%d flow records for %d arrivals", len(res.Flows), len(in.cfg.Arrivals))
	r.check("completed-count", res.Completed == len(res.Flows)-incomplete,
		"Results.Completed is %d, %d of %d flow records are done", res.Completed, len(res.Flows)-incomplete, len(res.Flows))
	if len(dead) == 0 {
		r.check("all-flows-complete", incomplete == 0, "%d of %d flows completed", res.Completed, len(in.cfg.Arrivals))
	}
	if in.sched.Len() == 0 {
		r.check("bytes-delivered", got == want, "received %d bytes of %d", got, want)
	} else {
		r.check("reroutes-match-fault-waves", res.FailureReroutes == uint64(in.sched.Waves()),
			"%d reroutes for %d fault waves", res.FailureReroutes, in.sched.Waves())
	}
	// A flow fails when its outcome is wrong or missing. One abandoned
	// because an endpoint crashed is the fault model at work, not a failure.
	r.attempted += int64(len(in.cfg.Arrivals))
	r.failed += int64(bad + max(len(in.cfg.Arrivals)-len(res.Flows), 0))
}

// checkAgainstSerial runs the serial engine, the sharded engine's
// differential oracle, on cfg and checks that its Results digest is
// shardedDigest. It returns the serial run's host seconds.
func checkAgainstSerial(r *result, cfg sim.RunConfig, shardedDigest string) float64 {
	cfg.Shards = 1
	runtime.GC()
	start := time.Now()
	res := sim.Run(cfg)
	serialS := time.Since(start).Seconds()
	serial := digest(res)
	r.check("sharded-matches-serial", serial == shardedDigest,
		"sharded digest %.12s, serial %.12s", shardedDigest, serial)
	return serialS
}

// subInputs is how many input sets one seed makes. Calls cycle through
// them and the flow metrics pool them, so that a run's figures average
// over many fault schedules and tails rather than a few.
const subInputs = 8

// subSeed is the seed of a seed's i-th input set.
func subSeed(seed int64, i int) int64 { return seed*subInputs + int64(i) }

// simSub is one input set and what its first run produced.
type simSub struct {
	in     *simInput
	first  *sim.Results
	digest string
}

// runSim measures one simulator workload.
func runSim(w simWorkload, o options) *result {
	r := newResult()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up runs setupReps times up front and once more before every
	// untraced call, so that setup_s samples the whole run.
	var setups []float64
	setUp := func(i int) (*simInput, error) {
		start := time.Now()
		in, err := w.setup(subSeed(o.seed, i), tr)
		setups = append(setups, time.Since(start).Seconds())
		r.check("setup", err == nil, "%v", err)
		return in, err
	}
	subs := make([]*simSub, subInputs)
	for i := range subs {
		in, err := setUp(i)
		if err != nil {
			return r
		}
		subs[i] = &simSub{in: in}
	}
	for len(setups) < setupReps {
		if _, err := setUp(len(setups) % subInputs); err != nil {
			return r
		}
	}

	var mem memDelta
	calls := 0
	// rep is one measured sim.Run of the next input set, in a span when
	// traced. A traced run alternates untraced and traced calls, and both
	// calls of a pair run the same input set, so that trace.overhead_frac
	// compares like with like.
	rep := func(traced bool) time.Duration {
		next := calls
		if o.trace {
			next = calls / 2
		}
		sub := subs[next%subInputs]
		calls++
		if !traced {
			setUp(calls % subInputs) // a failure is recorded as a check
		}
		runtime.GC()
		var res *sim.Results
		var d time.Duration
		run := func() {
			sp := -1
			if traced {
				sp = tr.begin("sim.Run", -1, 0)
			}
			start := time.Now()
			res = sim.Run(sub.in.cfg)
			d = time.Since(start)
			tr.end(sp)
		}
		if traced {
			run()
		} else {
			mem.measure(run)
		}
		checkSim(r, sub.in, res)
		dg := digest(res)
		if sub.first == nil {
			sub.first, sub.digest = res, dg
		}
		r.check("digest-repeats", dg == sub.digest, "run digest %.12s differs from the first run's %.12s", dg, sub.digest)
		return d
	}
	// oracle checks every input set that ran against the serial engine and
	// returns the serial runs' mean host seconds.
	oracle := func() float64 {
		if subs[0].in.cfg.Shards <= 1 {
			return 0
		}
		total, n := 0.0, 0
		for _, sub := range subs {
			if sub.first != nil {
				total += checkAgainstSerial(r, sub.in.cfg, sub.digest)
				n++
			}
		}
		return total / float64(n)
	}
	// firsts are the first results of the input sets that ran: all of them
	// on an untraced run, those the budget reached on a traced one.
	firsts := func() []*sim.Results {
		var out []*sim.Results
		for _, sub := range subs {
			if sub.first != nil {
				out = append(out, sub.first)
			}
		}
		return out
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		// Every input set runs, and at least one runs twice, so that its
		// digest repeats.
		durs, calibs := repeat(budget, max(minReps, subInputs+1), func() time.Duration { return rep(false) })
		rss := peakRSSMegabytes()
		oracle()
		r.set("setup_s", "s", median(setups))
		setRunTimes(r, durs, calibs)
		r.set("peak_rss_mb", "MB", rss)
		setFlowMetrics(r, firsts())
		return r
	}

	// Traced: spans around every call, and a CPU profile of the traced runs.
	untraced, traced, calibs, samples, err := alternate(budget, minReps, o.outDir, rep)
	if err != nil {
		r.check("cpu-profile", false, "%v", err)
		return r
	}
	runS := median(untraced)
	setTracedRunTimes(r, untraced, traced, calibs)
	serialS := oracle()
	if workers := subs[0].in.cfg.Shards; workers > 1 {
		setLayerShares(r, simLayers, samples, o.outDir)
		setShardMetrics(r, firsts(), workers, runS, serialS)
	} else {
		setLayerShares(r, serialSimLayers(), samples, o.outDir)
	}
	setSetupSpans(r, tr)
	setSimLayerMetrics(r, firsts(), runS)
	mem.report(r)

	in, first := subs[0].in, subs[0].first
	pairs := make([][2]topology.NodeID, len(in.cfg.Arrivals))
	for i, a := range in.cfg.Arrivals {
		pairs[i] = [2]topology.NodeID{a.Src, a.Dst}
	}
	var lifetimes []flowInterval
	for _, f := range first.Flows {
		lifetimes = append(lifetimes, flowInterval{int64(f.Started), int64(f.Finished), unlimitedFlow(f.ID, f.Src, f.Dst)})
	}
	fab := probeFabric{g: in.cfg.Graph, treesPerSource: 4, seed: o.seed, capacityBits: paperNet.LinkGbps * 1e9}
	runProbes(r, tr, fab, pairs, peakFlows(lifetimes))
	if err := tr.write(o.outDir); err != nil {
		r.check("write-spans", false, "%v", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", o.outDir)
	return r
}

// setFlowMetrics reports the user-visible flow metrics over the flows of
// every input set, in simulated time.
func setFlowMetrics(r *result, runs []*sim.Results) {
	var fct, shortFCT, goodput []float64
	for _, res := range runs {
		for _, f := range res.Flows {
			if !f.Done {
				continue
			}
			us := f.FCT().Seconds() * 1e6
			fct = append(fct, us)
			if f.SizeBytes < sim.ShortFlowMax {
				shortFCT = append(shortFCT, us)
			}
			goodput = append(goodput, f.Throughput()/1e9)
		}
	}
	r.set("fct_p50_us", "us", median(fct))
	r.set("fct_p99_us", "us", quantile(shortFCT, 0.99))
	r.set("flow_goodput_p50_gbps", "Gbps", median(goodput))
}

// meanOf averages f over runs.
func meanOf(runs []*sim.Results, f func(*sim.Results) float64) float64 {
	total := 0.0
	for _, res := range runs {
		total += f(res)
	}
	return total / float64(len(runs))
}

// setSetupSpans reports the median duration of each set-up span.
func setSetupSpans(r *result, tr *tracer) {
	durs := map[string][]float64{}
	for _, s := range tr.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.EndNs-s.StartNs)/1e9)
	}
	for _, name := range []string{"setup.topology", "setup.trafficgen", "setup.faults", "setup.emu_start"} {
		v := 0.0
		if len(durs[name]) > 0 {
			v = median(durs[name])
		}
		r.set(name+"_s", "s", v)
	}
}

// setSimLayerMetrics reports Results counters, averaged over the input sets.
func setSimLayerMetrics(r *result, runs []*sim.Results, runS float64) {
	set := func(name, unit string, f func(*sim.Results) float64) { r.set(name, unit, meanOf(runs, f)) }
	set("sim.events", "count", func(res *sim.Results) float64 { return float64(res.Events) })
	set("sim.events_per_s", "1/s", func(res *sim.Results) float64 { return float64(res.Events) / runS })
	set("sim.end_time_ms", "ms", func(res *sim.Results) float64 { return res.EndTime.Seconds() * 1e3 })
	set("sim.bcast_bytes", "B", func(res *sim.Results) float64 { return float64(res.BcastBytes) })
	set("sim.max_queue_p99_kb", "KB", func(res *sim.Results) float64 { return res.MaxQueue.Percentile(99) / 1e3 })
	set("sim.recomputations", "count", func(res *sim.Results) float64 { return float64(res.Recomputations) })
	set("sim.recompute_rounds", "count", func(res *sim.Results) float64 { return float64(res.RecomputeRounds) })
	set("sim.drops", "count", func(res *sim.Results) float64 { return float64(res.Drops) })
	set("sim.reorder_p99", "count", func(res *sim.Results) float64 {
		if res.Reorder.Len() == 0 {
			return 0
		}
		return res.Reorder.Percentile(99)
	})
	set("sim.failure_reroutes", "count", func(res *sim.Results) float64 { return float64(res.FailureReroutes) })
	// Bytes counted as received beyond each flow's size: duplicates that
	// arrive after a completed flow's receive state was retired.
	set("sim.rcvd_excess_bytes", "B", func(res *sim.Results) float64 {
		var excess int64
		for _, f := range res.Flows {
			excess += max(f.BytesRcvd-f.SizeBytes, 0)
		}
		return float64(excess)
	})
}

// setShardMetrics reports a sharded run's split from ShardStats, averaged
// over the input sets.
func setShardMetrics(r *result, runs []*sim.Results, workers int, runS, serialS float64) {
	var handoffs, busy, ctrl, imbalance float64
	for _, res := range runs {
		var events, maxEvents uint64
		for _, st := range res.ShardStats {
			handoffs += float64(st.Handoffs)
			busy += float64(st.BusyNs) / 1e9
			ctrl += float64(st.CtrlNs) / 1e9
			events += st.Events
			maxEvents = max(maxEvents, st.Events)
		}
		if n := len(res.ShardStats); n > 0 {
			imbalance += float64(maxEvents) / (float64(events) / float64(n))
		}
	}
	n := float64(len(runs))
	handoffs, busy, ctrl, imbalance = handoffs/n, busy/n, ctrl/n, imbalance/n
	r.set("shard.handoffs", "count", handoffs)
	r.set("shard.busy_s_sum", "s", busy)
	r.set("shard.ctrl_s_sum", "s", ctrl)
	r.set("shard.idle_s", "s", float64(workers)*runS-busy-ctrl)
	r.set("shard.event_imbalance", "ratio", imbalance)
	r.set("shard.serial_run_s", "s", serialS)
	r.set("shard.speedup_vs_serial", "ratio", serialS/runS)
}
