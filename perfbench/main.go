// Command perfbench is the repository benchmark. It measures how long the
// simulator takes per simulated instruction on three workloads, checks every
// simulated result against a reference, and prints one JSON result line.
//
// Usage (from the repository root; run.py builds the binary first):
//
//	perfbench -workload pinned-resident|pinned-stream|quick-sweep
//	          [-seed N] [-seconds S] [-trace 0|1]
//
// With -trace 0 it prints the end-to-end metrics, with -trace 1 the
// per-layer split of a separate traced run. README.md defines every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	runmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

// options is one benchmark invocation.
type options struct {
	workload string
	// seed draws the pinned workloads' dynamic instruction streams; 0 starts
	// from the workload's own trace.
	seed    int64
	seconds float64
	traced  bool
	// pinnedInsts and sweepInsts size the simulated work (120k and 30k);
	// tests shrink them.
	pinnedInsts int
	sweepInsts  int
	root        string // repository root, for EXPERIMENTS.md
	scratch     string // directory for temporary trace files
	out         io.Writer
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one benchmark workload.
type workload interface {
	// setUp prepares the inputs and the reference results. It is timed as
	// setup_s and may be called more than once; every call must reproduce
	// the first call's reference.
	setUp() error
	// op runs one timed operation and checks its simulated results against
	// the reference. It returns the instructions simulated (0 when the op
	// produced no result) and a non-nil error when the op failed.
	op() (insts uint64, err error)
	// paperErr returns paper_err_pp for this run.
	paperErr() (float64, error)
	// traced runs the traced measurement and returns the per-layer metrics.
	traced(seconds float64) (layers map[string]metric, attempted, failed int, err error)
	// close removes the workload's temporary files.
	close() error
}

func newWorkload(o *options) (workload, error) {
	switch o.workload {
	case "pinned-resident":
		return &pinned{o: o}, nil
	case "pinned-stream":
		return &pinned{o: o, stream: true}, nil
	case "quick-sweep":
		return &sweep{o: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want pinned-resident, pinned-stream or quick-sweep)", o.workload)
}

func main() {
	o := &options{out: os.Stdout, pinnedInsts: 120_000, sweepInsts: 30_000}
	flag.StringVar(&o.workload, "workload", "", "pinned-resident, pinned-stream or quick-sweep")
	flag.Int64Var(&o.seed, "seed", 0, "trace seed for the pinned workloads (default: the workload's own trace first)")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the measurement runs")
	trace := flag.Int("trace", 0, "1 prints the per-layer split of a traced run instead of the end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "repository root (holds EXPERIMENTS.md)")
	flag.StringVar(&o.scratch, "scratch", ".bench_build/tmp", "directory for temporary trace files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	o.traced = *trace == 1
	if o.seconds < 0 {
		fatal(errors.New("-seconds must be >= 0"))
	}
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(o.out, string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one invocation and returns its result line.
func run(o *options) (res result, err error) {
	w, err := newWorkload(o)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return res, err
	}
	if o.traced {
		if err := w.setUp(); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		layers, attempted, failed, err := w.traced(o.seconds)
		if err != nil {
			return res, err
		}
		printTable(o.out, layers)
		return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: layers}, nil
	}
	return measure(o, w)
}

// measure is the untraced run: set-up setupReps times, then a closed loop
// of ops for o.seconds (at least one op).
// Every time is scaled to the reference host speed by the probe blocks
// around it (probe.go).
func measure(o *options, w workload) (result, error) {
	pr := newProbe()
	var setups []float64
	for range setupReps {
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		f, _ := pr.after()
		setups = append(setups, d.Seconds()*f)
	}
	paper, err := w.paperErr()
	if err != nil {
		return result{}, fmt.Errorf("paper_err_pp: %w", err)
	}
	pr.block()
	return timeOps(o, w, pr, setups, paper)
}

// timeOps runs the closed loop of ops on a set-up workload, whose last
// probe block has run, and reports the end-to-end metrics. A failed op
// counts against attempted and adds nothing to the medians.
func timeOps(o *options, w workload, pr *probe, setups []float64, paper float64) (result, error) {
	var wall, cpu, alloc, rawWall, rawCPU []float64
	attempted, failed := 0, 0
	start := time.Now()
	for attempted == 0 || time.Since(start).Seconds() < o.seconds {
		c0, a0, t0 := cpuClock(clockProcessCPU), allocBytes(), time.Now()
		insts, err := w.op()
		d := time.Since(t0)
		c1, a1 := cpuClock(clockProcessCPU), allocBytes()
		f, fc := pr.after()
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(o.out, "op %d failed: %v\n", attempted, err)
			continue
		}
		n := float64(insts)
		rawWall = append(rawWall, float64(d.Nanoseconds())/n)
		rawCPU = append(rawCPU, float64(c1-c0)/n)
		wall = append(wall, f*float64(d.Nanoseconds())/n)
		cpu = append(cpu, fc*float64(c1-c0)/n)
		alloc = append(alloc, float64(a1-a0)/n)
	}
	fmt.Fprintf(o.out, "%s: %d ops, %d failed, %d set-ups\n", o.workload, attempted, failed, len(setups))
	fmt.Fprintf(o.out, "  host probe median %.4g ms wall, %.4g ms CPU (reference %.4g ms, n=%d); unscaled medians: ns_per_inst %.6g, cpu_ns_per_inst %.6g\n",
		median(pr.wall)/1e6, median(pr.cpu)/1e6, probeRefNs/1e6, len(pr.wall), median(rawWall), median(rawCPU))
	for _, s := range []struct {
		name string
		v    []float64
	}{{"ns_per_inst", wall}, {"cpu_ns_per_inst", cpu}, {"alloc_bytes_per_inst", alloc}, {"setup_s", setups}} {
		q1, q3 := quartiles(s.v)
		fmt.Fprintf(o.out, "  %-22s median %-12.6g q1 %-12.6g q3 %-12.6g n=%d %s\n",
			s.name, median(s.v), q1, q3, len(s.v), unitOf(s.name))
	}
	fmt.Fprintf(o.out, "  %-22s %.4g %s\n", "paper_err_pp", paper, unitOf("paper_err_pp"))
	m := map[string]metric{
		"ns_per_inst":          {median(wall), unitOf("ns_per_inst")},
		"cpu_ns_per_inst":      {median(cpu), unitOf("cpu_ns_per_inst")},
		"alloc_bytes_per_inst": {median(alloc), unitOf("alloc_bytes_per_inst")},
		"setup_s":              {median(setups), unitOf("setup_s")},
		"paper_err_pp":         {paper, unitOf("paper_err_pp")},
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics; BENCHMARK.json lists the same.
var endToEnd = []metricDef{
	{"ns_per_inst", "ns/inst"},
	{"cpu_ns_per_inst", "ns/inst"},
	{"alloc_bytes_per_inst", "B/inst"},
	{"setup_s", "s"},
	{"paper_err_pp", "pp"},
}

// perLayer lists the traced run's metrics; BENCHMARK.json lists the same.
var perLayer = []metricDef{
	{"trace.decode_ns_per_inst", "ns/inst"},
	{"trace.next_calls", "count"},
	{"trace.file_bytes_per_inst", "B/inst"},
	{"trace.generate_ns_per_inst", "ns/inst"},
	{"repair.fetch_ns_per_branch", "ns/branch"},
	{"repair.resolve_ns_per_branch", "ns/branch"},
	{"repair.mispredict_ns_per_call", "ns/call"},
	{"repair.retire_ns_per_branch", "ns/branch"},
	{"repair.self_ns_per_inst", "ns/inst"},
	{"repair.calls", "count"},
	{"repair.repairs", "count"},
	{"repair.reads_per_repair", "reads/repair"},
	{"repair.busy_cycles_per_kinst", "cycles/kinst"},
	{"repair.ckpt_miss_ratio", "ratio"},
	{"tage.predict_ns", "ns/call"},
	{"tage.update_ns", "ns/call"},
	{"tage.ns_per_branch", "ns/branch"},
	{"tage.branches", "count"},
	{"tage.mispredict_ratio", "ratio"},
	{"bpu.replay_ns_per_branch", "ns/branch"},
	{"mem.access_ns", "ns/access"},
	{"mem.accesses_per_inst", "accesses/inst"},
	{"mem.self_ns_per_inst", "ns/inst"},
	{"mem.l1_miss_ratio", "ratio"},
	{"mem.llc_miss_ratio", "ratio"},
	{"core.residual_ns_per_inst", "ns/inst"},
	{"core.host_ns_per_cycle", "ns/cycle"},
	{"core.cycles_per_inst", "cycles/inst"},
	{"core.wrong_path_ratio", "ratio"},
	{"core.blockmemo_hit_ratio", "ratio"},
	{"harness.cpu_utilization", "ratio"},
	{"harness.runs", "count"},
	{"harness.failed_runs", "count"},
	{"traced.overhead_ratio", "ratio"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// layerSet builds a per-layer metric map; set panics on an undeclared name
// so a typo cannot ship a metric BENCHMARK.json does not list.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l[name] = metric{v, unitOf(name)}
}

// printTable prints the per-layer metrics in declaration order.
func printTable(w io.Writer, layers map[string]metric) {
	for _, d := range perLayer {
		m := layers[d.name]
		fmt.Fprintf(w, "  %-32s %-14.6g %s\n", d.name, m.Value, m.Unit)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the exclusive method
// (Python's statistics.quantiles default).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Linux clock ids for clock_gettime, which the syscall package lacks.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU-time clock in ns. Unlike getrusage, which counts
// scheduler ticks, it is exact to the nanosecond.
func cpuClock(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return ts.Nano()
}

var allocSample = []runmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the cumulative heap allocation of the process
// (runtime.MemStats.TotalAlloc without stopping the world).
func allocBytes() uint64 {
	runmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}
