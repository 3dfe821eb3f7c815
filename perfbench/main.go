// Command perfbench is the repository's end-to-end benchmark. It runs one
// named, seeded workload against the simulator (sim) or the emulator
// (emu), checks every measured run's outputs, and prints one JSON result
// as its last line of standard output:
//
//	perfbench --workload torus-pareto --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// it holds the per-layer metrics instead: spans around the benchmark's
// calls into each layer, a runtime/pprof CPU profile split by layer, layer
// probes and allocator counters. The spans, the profile and the layer
// table are written under --out. A failed output check prints the result
// with "correct": false, names the check on standard error and exits 1.
// README.md lists the workloads and metrics.
package main

import (
	"container/heap"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports.
type result struct {
	attempted int64
	failed    int64
	metrics   map[string]metricValue
	failures  []string
}

func newResult() *result { return &result{metrics: map[string]metricValue{}} }

func (r *result) set(name, unit string, v float64) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// check records a named output check; a false ok fails the run.
func (r *result) check(name string, ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, name+": "+fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.failures) == 0 }

type workload struct {
	name string
	run  func(options) *result
}

var workloads = []workload{
	{"torus-pareto", func(o options) *result { return runSim(torusPareto, o) }},
	{"racks-sharded", func(o options) *result { return runSim(racksSharded, o) }},
	{"torus-flaps", func(o options) *result { return runSim(torusFlaps, o) }},
	{"torus-faults", func(o options) *result { return runSim(torusFaults, o) }},
	{"emu-rack", runEmu},
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run: torus-pareto, torus-flaps, emu-rack, or the ungated torus-faults or racks-sharded")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 10, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	out := flag.String("out", ".bench_build/perfbench/trace", "directory for spans, CPU profiles and layer tables")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if o.trace {
		o.outDir = filepath.Join(*out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}

	res := w.run(o)
	want, optional := endToEnd, []metricSpec(nil)
	if o.trace {
		want, optional = perLayer, shardPerLayer
	}
	checkMetricNames(res, want, optional, o.trace)
	for name, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.check("finite-metrics", false, "%s is %v", name, m.Value)
		}
	}
	return emit(res)
}

// emit prints the result line and returns the exit code.
func emit(res *result) int {
	const shown = 10
	for i, f := range res.failures {
		if i == shown {
			fmt.Fprintf(os.Stderr, "perfbench: %d more failed checks\n", len(res.failures)-shown)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	metrics := map[string]metricValue{}
	for name, m := range res.metrics {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			metrics[name] = m
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.correct() {
		return 1
	}
	return 0
}

// ---- measurement helpers ----

// setupReps is how many times a workload's set-up runs before the measured
// loop; setup_s is the median of these and of one more before every
// untraced call.
const setupReps = 5

// minReps is the fewest measured calls per run; repeated calls check that
// the outputs repeat too.
const minReps = 3

// repeat calls rep until budget has passed and it has run at least min
// times, with one calibration before each call. It returns the calls'
// durations (their timed part only) and the calibrations'.
func repeat(budget time.Duration, min int, rep func() time.Duration) (durs, calibs []float64) {
	start := time.Now()
	for len(durs) < min || time.Since(start) < budget {
		calibs = append(calibs, calibrate().Seconds())
		durs = append(durs, rep().Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d calls, seconds each: %.4f; calibration: %.4f\n", len(durs), durs, calibs)
	return durs, calibs
}

// calibSink keeps the calibration kernel's work observable.
var calibSink uint64

// calibEvent is one pending event of the calibration kernel.
type calibEvent struct {
	at      int64
	seq     int
	payload []byte
}

type calibQueue []*calibEvent

func (q calibQueue) Len() int           { return len(q) }
func (q calibQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calibQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x any)        { *q = append(*q, x.(*calibEvent)) }
func (q *calibQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calibrate times a fixed reference kernel that shares no code with the
// program: a discrete-event loop over a 150,000-event heap, where every
// popped event allocates its successor and lands in a map, the mix of
// heap, allocator and cache misses the simulator's event loop runs.
// run_rel divides by it, so a host that runs everything slower for a
// while moves both, not their ratio. Of the kernels tried (pointer chases
// over 14 MB and 117 MB, with and without map updates, and this one),
// this one tracked the simulator's slow spells best: over a 7-minute
// trace, sim.Run's time changed 1.6× between windows, a larger version of
// this kernel's 1.55×, and a 14 MB pointer chase's 1.21×.
func calibrate() time.Duration {
	runtime.GC()
	start := time.Now()
	rng := rand.New(rand.NewSource(1))
	q := make(calibQueue, 0, 150_000)
	for i := 0; i < cap(q); i++ {
		q = append(q, &calibEvent{at: rng.Int63n(1 << 30), seq: i, payload: make([]byte, 64)})
	}
	heap.Init(&q)
	live := make(map[int]*calibEvent, 1<<16)
	for i := 0; i < 250_000; i++ {
		e := heap.Pop(&q).(*calibEvent)
		calibSink += uint64(e.payload[0]) + uint64(len(e.payload))
		live[e.seq&0xffff] = e
		heap.Push(&q, &calibEvent{at: e.at + rng.Int63n(1<<20), seq: i, payload: make([]byte, 64+rng.Intn(128))})
	}
	d := time.Since(start)
	runtime.GC()
	return d
}

// quantile is the p-quantile (0..1) of xs with linear interpolation
// between closest ranks; NaN when xs is empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// peakRSSMegabytes is the process's peak resident set size.
func peakRSSMegabytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// processCPU is the CPU time the process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memDelta accumulates runtime.MemStats differences over measured calls.
type memDelta struct {
	calls             int
	allocBytes        uint64
	mallocs, gcCycles uint64
	pauseNs           uint64
}

// measure runs fn between two MemStats snapshots. Collections forced by
// the benchmark itself are not counted.
func (m *memDelta) measure(fn func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	m.calls++
	m.allocBytes += b.TotalAlloc - a.TotalAlloc
	m.mallocs += b.Mallocs - a.Mallocs
	m.gcCycles += uint64(b.NumGC-a.NumGC) - uint64(b.NumForcedGC-a.NumForcedGC)
	m.pauseNs += b.PauseTotalNs - a.PauseTotalNs
}

// report sets the gc.* per-layer metrics as per-call averages.
func (m *memDelta) report(r *result) {
	n := float64(max(m.calls, 1))
	r.set("gc.alloc_mb", "MB", float64(m.allocBytes)/1e6/n)
	r.set("gc.allocs", "count", float64(m.mallocs)/n)
	r.set("gc.cycles", "count", float64(m.gcCycles)/n)
	r.set("gc.pause_s", "s", float64(m.pauseNs)/1e9/n)
}

// alternate runs rep untraced and traced in turn until budget has passed,
// with at least min untraced calls and one traced call after each, so that
// both kinds see the same host conditions. Untraced calls are calibrated as in
// repeat. Each traced call runs under its own CPU profile, written to dir
// as cpu-<n>.pprof; the stacks of all of them are returned.
func alternate(budget time.Duration, min int, dir string, rep func(traced bool) time.Duration) (untraced, traced, calibs []float64, samples []stackSample, err error) {
	var paths []string
	start := time.Now()
	for len(untraced) < min || len(traced) < len(untraced) || time.Since(start) < budget {
		if len(untraced) <= len(traced) {
			calibs = append(calibs, calibrate().Seconds())
			untraced = append(untraced, rep(false).Seconds())
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", len(traced)+1))
		if err = profileTo(path, func() { traced = append(traced, rep(true).Seconds()) }); err != nil {
			return nil, nil, nil, nil, err
		}
		paths = append(paths, path)
	}
	for _, path := range paths {
		s, err := readProfile(path)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		samples = append(samples, s...)
	}
	fmt.Fprintf(os.Stderr, "perfbench: seconds per call, untraced %.4f, traced %.4f\n", untraced, traced)
	return untraced, traced, calibs, samples, nil
}

// profileTo runs fn under a CPU profile written to path.
func profileTo(path string, fn func()) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

// setRunTimes reports the calls' total time over the calibrations', the
// end-to-end run_rel. The hosts this runs on change speed by 2× for
// minutes at a time; the calibration kernel slows down with them, so the
// ratio holds still where the call's seconds do not.
func setRunTimes(r *result, calls, calibs []float64) {
	r.set("run_rel", "ratio", mean(calls)/mean(calibs))
}

// setTracedRunTimes reports the median untraced call and calibration of a
// traced run, in seconds, and what tracing added to a call.
func setTracedRunTimes(r *result, untraced, traced, calibs []float64) {
	r.set("run.host_s", "s", median(untraced))
	r.set("run.calib_s", "s", median(calibs))
	r.set("trace.overhead_frac", "frac", median(traced)/median(untraced)-1)
}

// setLayerShares reports the CPU split of the traced calls' samples and
// writes it to dir/layers.txt.
func setLayerShares(r *result, rules []layerRule, samples []stackSample, dir string) {
	shares, total := layerShares(rules, samples)
	table := shareTable(shares, total)
	fmt.Fprint(os.Stderr, table)
	for name, v := range shares {
		r.set(name, "frac", v)
	}
	err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(table), 0o644)
	r.check("write-layers", err == nil, "%v", err)
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run (BENCHMARK.json end_to_end).
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"run_rel", "ratio"}, {"peak_rss_mb", "MB"},
	{"fct_p50_us", "us"}, {"fct_p99_us", "us"}, {"flow_goodput_p50_gbps", "Gbps"},
}

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer).
var perLayer = []metricSpec{
	{"run.host_s", "s"}, {"run.calib_s", "s"},
	{"setup.topology_s", "s"}, {"setup.trafficgen_s", "s"}, {"setup.faults_s", "s"}, {"setup.emu_start_s", "s"},
	{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.end_time_ms", "ms"},
	{"sim.bcast_bytes", "B"}, {"sim.max_queue_p99_kb", "KB"},
	{"sim.recomputations", "count"}, {"sim.recompute_rounds", "count"},
	{"sim.drops", "count"}, {"sim.reorder_p99", "count"}, {"sim.failure_reroutes", "count"},
	{"sim.rcvd_excess_bytes", "B"},
	{"cpu.fib", "frac"}, {"cpu.allocator", "frac"}, {"cpu.routing", "frac"}, {"cpu.fabric_rebuild", "frac"},
	{"cpu.net_broadcast", "frac"}, {"cpu.r2c2_tick", "frac"}, {"cpu.net_unicast", "frac"}, {"cpu.engine", "frac"},
	{"cpu.emu_datapath", "frac"}, {"cpu.emu_ctrl", "frac"}, {"cpu.wire", "frac"}, {"cpu.emu_pool", "frac"},
	{"cpu.sched", "frac"}, {"cpu.gc", "frac"}, {"cpu.other", "frac"},
	{"trace.overhead_frac", "frac"},
	{"routing.append_path_ns", "ns"}, {"topology.fib_build_s", "s"}, {"topology.fib_nexthops_ns", "ns"},
	{"core.peak_flows", "count"}, {"core.compute_peak_us", "us"},
	{"gc.alloc_mb", "MB"}, {"gc.allocs", "count"}, {"gc.cycles", "count"}, {"gc.pause_s", "s"},
	{"emu.fct_p99_ms", "ms"}, {"emu.start_flow_us", "us"}, {"emu.mbuf_peak_live", "count"},
	{"emu.mbuf_allocs", "count"}, {"emu.max_queue_kb", "KB"}, {"emu.goodput_mb_s", "MB/s"},
}

// shardPerLayer are the per-layer metrics of the sharded engine. Only a
// sharded run reports them, and no workload in BENCHMARK.json is sharded:
// racks-sharded fails its serial-oracle check (README.md).
var shardPerLayer = []metricSpec{
	{"shard.handoffs", "count"}, {"shard.busy_s_sum", "s"}, {"shard.ctrl_s_sum", "s"}, {"shard.idle_s", "s"},
	{"shard.event_imbalance", "ratio"}, {"shard.serial_run_s", "s"}, {"shard.speedup_vs_serial", "ratio"},
	{"cpu.shard_drain", "frac"}, {"cpu.shard_sync", "frac"},
}

// checkMetricNames makes a result carry exactly the wanted metrics, plus
// any of the optional ones it measured. A wanted per-layer metric of a
// layer the workload never runs (the emulator on a simulator run) reads 0.
func checkMetricNames(res *result, want, optional []metricSpec, zeroMissing bool) {
	known := map[string]bool{}
	for _, m := range optional {
		known[m.name] = true
	}
	for _, m := range want {
		known[m.name] = true
		if _, ok := res.metrics[m.name]; !ok && res.correct() {
			if zeroMissing {
				res.set(m.name, m.unit, 0)
			} else {
				res.check("metric-names", false, "%s not measured", m.name)
			}
		}
	}
	for name := range res.metrics {
		res.check("metric-names", known[name], "%s is not a declared metric", name)
	}
}
