package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// This file turns a runtime/pprof CPU profile into a per-layer CPU split.
// The standard library writes profiles but has no public reader, so
// readProfile has the toolchain's pprof print the stacks as text.

// stackSample is one profile stack: its function names (leaf first,
// inlined frames included) and its CPU time.
type stackSample struct {
	funcs []string
	cpuNs int64
}

// readProfile returns the stacks of the CPU profile at path, as printed by
// `go tool pprof -traces`.
func readProfile(path string) ([]stackSample, error) {
	var stderr strings.Builder
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTraces(strings.NewReader(string(out)))
}

// parseTraces parses pprof's -traces text: after a header, each stack is
// a "-----------+---" separator, then its value and leaf function on one
// line and its callers one per line below.
func parseTraces(r io.Reader) ([]stackSample, error) {
	var out []stackSample
	var cur *stackSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, stackSample{})
			cur = &out[len(out)-1]
			continue
		}
		fields := strings.Fields(line)
		if cur == nil || len(fields) == 0 {
			continue // header, or the blank line after the last stack
		}
		if len(cur.funcs) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("profile: stack line %q", line)
			}
			cur.cpuNs = int64(d) // a Duration counts nanoseconds
			fields = fields[1:]
		}
		cur.funcs = append(cur.funcs, fields[0]) // drops an " (inline)" tag
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) > 0 && len(out[len(out)-1].funcs) == 0 {
		out = out[:len(out)-1] // the closing separator
	}
	return out, nil
}

// layerRule assigns a sample to a layer when any frame of its stack
// matches one of the patterns. A pattern ending in "." matches every
// function with that prefix (a package or a receiver type); any other
// pattern matches that function and its closures.
type layerRule struct {
	layer    string
	patterns []string
}

func matchFunc(name, pat string) bool {
	if !strings.HasPrefix(name, pat) {
		return false
	}
	return strings.HasSuffix(pat, ".") || len(name) == len(pat) || name[len(pat)] == '.'
}

const (
	pkgSim  = "r2c2/internal/sim."
	pkgEmu  = "r2c2/internal/emu."
	pkgTopo = "r2c2/internal/topology."
)

// schedFrames are the runtime's scheduler, parking and futex paths. On the
// sharded engine they are the cost of handing work between phase workers.
var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.handoffp", "runtime.stealWork", "runtime.runqgrab", "runtime.notesleep",
	"runtime.notewakeup", "runtime.futex", "runtime.futexsleep", "runtime.futexwakeup",
	"runtime.usleep", "runtime.osyield", "runtime.semasleep", "runtime.semawakeup",
	"runtime.semacquire1", "runtime.semrelease1", "runtime.goschedImpl", "runtime.mcall",
	"runtime.netpoll", "runtime.checkTimers", "runtime.selectgo", "runtime.chansend",
	"runtime.chanrecv", "sync.(*WaitGroup).", "sync.(*Mutex).", "sync.(*Cond).",
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.gcAssistAlloc",
}

// simLayers is the precedence-ordered layer map of the simulator
// workloads: a sample goes to the first rule with a frame on its stack.
var simLayers = []layerRule{
	{"cpu.fib", []string{pkgTopo + "(*BroadcastFIB).", pkgTopo + "buildOneTree"}},
	{"cpu.allocator", []string{"r2c2/internal/core.(*RateComputer).", "r2c2/internal/waterfill."}},
	{"cpu.routing", []string{"r2c2/internal/routing."}},
	{"cpu.fabric_rebuild", []string{
		pkgSim + "(*R2C2).reroute", pkgSim + "(*R2C2).rerouteNow", pkgSim + "(*R2C2).degradedFabric",
		pkgTopo + "(*Graph).WithoutLinksAndNodes", pkgTopo + "(*Graph).WithoutLinks",
		pkgTopo + "(*Graph).WithoutNode", pkgTopo + "(*Graph).computeDistances",
	}},
	{"cpu.net_broadcast", []string{
		pkgSim + "(*Network).forwardBroadcast", pkgSim + "(*Network).InjectBroadcast", pkgSim + "(*R2C2).broadcast",
	}},
	{"cpu.r2c2_tick", []string{
		pkgSim + "(*R2C2).recomputeTick", pkgSim + "(*R2C2).aggregateTick", pkgSim + "(*R2C2).replicatedTick",
		pkgSim + "(*R2C2).applyAggregatedTick", pkgSim + "(*shardedRun).reduceTick",
		pkgSim + "(*shardedRun).foldTicks", pkgSim + "(*shardState).applyTick",
	}},
	{"cpu.net_unicast", []string{
		pkgSim + "(*Network).Inject", pkgSim + "(*Network).enqueue", pkgSim + "(*Network).transmit",
		pkgSim + "(*Network).transmitDone", pkgSim + "(*Network).arrive",
	}},
	{"cpu.shard_drain", []string{pkgSim + "(*shardedRun).drain", pkgSim + "(*shardState).ingest"}},
	// Engine before shard_sync: workerLoop is the root of every sharded
	// worker's stack, so it only claims what no engine frame claims.
	{"cpu.engine", []string{pkgSim + "(*Engine).", pkgSim + "(*timerWheel)."}},
	{"cpu.shard_sync", append([]string{pkgSim + "(*shardedRun).barrier", pkgSim + "(*shardedRun).workerLoop"}, schedFrames...)},
	{"cpu.gc", gcFrames},
}

// serialSimLayers is simLayers without the sharded engine's layers: a
// serial run has no barrier or drain, so its scheduler samples fall to
// cpu.other.
func serialSimLayers() []layerRule {
	var rules []layerRule
	for _, r := range simLayers {
		if !strings.HasPrefix(r.layer, "cpu.shard_") {
			rules = append(rules, r)
		}
	}
	return rules
}

// emuLayers is the layer map of the emulator workload.
var emuLayers = []layerRule{
	{"cpu.emu_pool", []string{
		pkgEmu + "(*mbufPool).", pkgEmu + "(*mbuf).", pkgEmu + "(*Rack).release", pkgEmu + "emuPkt.retain",
		pkgEmu + "chainBytes",
	}},
	{"cpu.wire", []string{"r2c2/internal/wire."}},
	{"cpu.emu_ctrl", []string{
		pkgEmu + "(*Rack).recomputeLoop", pkgEmu + "(*Rack).forwardBroadcast", pkgEmu + "(*Rack).newBcastPkt",
		pkgEmu + "(*Rack).finishFlow", pkgEmu + "(*Rack).startFlow", pkgEmu + "(*Rack).swapFabric",
		"r2c2/internal/core.", "r2c2/internal/waterfill.", pkgTopo,
	}},
	{"cpu.emu_datapath", []string{
		pkgEmu + "(*Rack).linkLoop", pkgEmu + "(*Rack).enqueue", pkgEmu + "(*Rack).receive",
		pkgEmu + "(*Rack).deliverData", pkgEmu + "(*Rack).flowSender", "r2c2/internal/routing.",
	}},
	{"cpu.sched", append([]string{"time.", "runtime.timer", "runtime.runTimer", "runtime.sysmon"}, schedFrames...)},
	{"cpu.gc", gcFrames},
}

const otherLayer = "cpu.other"

// layerNames lists a rule set's layers in precedence order, then cpu.other.
func layerNames(rules []layerRule) []string {
	names := make([]string, 0, len(rules)+1)
	for _, r := range rules {
		names = append(names, r.layer)
	}
	return append(names, otherLayer)
}

// classify returns the layer of one stack under a rule set.
func classify(rules []layerRule, funcs []string) string {
	for _, r := range rules {
		for _, fn := range funcs {
			for _, p := range r.patterns {
				if matchFunc(fn, p) {
					return r.layer
				}
			}
		}
	}
	return otherLayer
}

// layerShares splits the samples' CPU time over the rule set's layers. It
// returns each layer's share (every layer present, summing to 1 when the
// profile holds samples) and the total CPU time sampled.
func layerShares(rules []layerRule, samples []stackSample) (map[string]float64, int64) {
	cpu := map[string]int64{}
	var total int64
	for _, s := range samples {
		cpu[classify(rules, s.funcs)] += s.cpuNs
		total += s.cpuNs
	}
	shares := map[string]float64{}
	for _, name := range layerNames(rules) {
		if total > 0 {
			shares[name] = float64(cpu[name]) / float64(total)
		} else {
			shares[name] = 0
		}
	}
	return shares, total
}

// shareTable renders the split as a text table, largest layer first.
func shareTable(shares map[string]float64, totalNs int64) string {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if shares[names[i]] != shares[names[j]] {
			return shares[names[i]] > shares[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %12s\n", "layer", "share", "cpu_s")
	for _, n := range names {
		fmt.Fprintf(&b, "%-20s %7.2f%% %12.3f\n", n, 100*shares[n], shares[n]*float64(totalNs)/1e9)
	}
	return b.String()
}
