// Command perfbench is the repository's benchmark: it runs one seeded
// workload through the simulator's public entry points, checks every
// op's simulated output against recorded expectations, and prints the
// host cost of producing those outputs. See README.md for the workloads,
// the metrics and how to run the untraced, traced and steadiness modes.
//
//	go run . --workload node-sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart approximates process start: package initialisation runs
// before main, after the runtime is up.
var processStart = time.Now()

// gomaxprocs is pinned for every run: the simulator hands one token
// between goroutines, and a second P only adds idle spinning and
// scheduler noise to the host times (see README.md).
const gomaxprocs = 1

// env is what a workload's setup receives.
type env struct {
	seed    int64
	seconds int
	root    string // checkout root (results/baseline.store lives under it)
	dir     string // scratch directory private to this setup
	expDir  string // expectations directory
	gitRev  string
}

// A benchmark runs one workload: a seeded op stream through the
// program's public entry points.
type benchmark interface {
	// setup builds the op list from the seed and the per-run state
	// (stores, services), then runs every distinct op shape once.
	setup(e *env) error
	numOps() int
	// passLen is the op count of one pass over the distinct shapes; the
	// whole stream when the ops do not repeat in passes.
	passLen() int
	// op runs op i and returns its expectation key and simulated output.
	op(i int, tr *tracer) (key string, out []string, err error)
	// finish ends the timed loop (the node-sweep store Sync).
	finish(tr *tracer) error
	// layers runs the traced run's extra per-layer calls and probes.
	layers(tr *tracer, m map[string]float64) error
	// record returns every shape's output for the expectations file.
	record() (expectations, error)
	close()
}

var workloads = map[string]func() benchmark{
	"node-sweep": func() benchmark { return &nodeSweep{} },
	"world":      func() benchmark { return &world{} },
	"oracle":     func() benchmark { return &oracle{} },
	"tune":       func() benchmark { return &tune{} },
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metricSpec names one printed metric and its unit.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mib_per_op", "MiB"},
	{"peak_heap_mib", "MiB"},
	{"ok_ratio", "ratio"},
}

// perLayer is printed by the traced run. A workload that does not
// exercise a layer reports 0 for it (README.md says which apply where).
var perLayer = []metricSpec{
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.chan_ns_per_msg", "ns"},
	{"mpi.new_us", "us"},
	{"measure.overhead_us", "us"},
	{"kernel.vmread_ns_per_page", "ns"},
	{"kernel.copy_ns_per_page", "ns"},
	{"kernel.cma_ops_per_op", "count"},
	{"kernel.lock_share", "ratio"},
	{"shm.sendrecv_us", "us"},
	{"workload.mix_ms_p50", "ms"},
	{"store.append_us_p50", "us"},
	{"store.sync_ms", "ms"},
	{"store.replay_ms", "ms"},
	{"store.select_ms", "ms"},
	{"cluster.build_us", "us"},
	{"cluster.release_us", "us"},
	{"cluster.chunks_per_op", "count"},
	{"cluster.recover_ms_p50", "ms"},
	{"check.clean_ms_p50", "ms"},
	{"check.fault_ms_p50", "ms"},
	{"check.kill_ms_p50", "ms"},
	{"check.cluster_ms_p50", "ms"},
	{"check.reference_us", "us"},
	{"check.invariants_us", "us"},
	{"trace.events_per_op", "count"},
	{"trace.analyze_us", "us"},
	{"fault.retries_per_op", "count"},
	{"tuner.hit_us_p50", "us"},
	{"tuner.miss_ms_p50", "ms"},
	{"tuner.retune_ms", "ms"},
	{"tuner.hit_ratio", "ratio"},
	{"tuner.handler_us_p50", "us"},
	{"tracing.overhead_ops_pct", "%"},
	{"tracing.overhead_cpu_pct", "%"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the op list is generated from")
	seconds := fs.Int("seconds", 10, "nominal timed-loop length; fixes the op count")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := fs.String("root", ".", "checkout root")
	work := fs.String("work", ".bench_build", "scratch directory (under the checkout)")
	expDir := fs.String("expect", "perfbench/expect", "expectations directory")
	gitRev := fs.String("git-rev", "unknown", "revision recorded in the run metadata")
	record := fs.Bool("record", false, "re-record the workload's expectations instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	var exp expectations
	if !*record {
		if exp, err = loadExpectations(*expDir, *name); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	e := &env{seed: *seed, seconds: *seconds, root: *root, expDir: *expDir, gitRev: *gitRev}
	// setup_s runs from process start to the first timed op, so it
	// counts the cold first use of every shape (fabric and topology
	// construction, first-touch allocation) that the timed loop reuses.
	w := mk()
	e.dir = filepath.Join(tmp, "setup")
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := w.setup(e); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s setup: %v\n", *name, err)
		return 1
	}
	setupS := time.Since(processStart).Seconds()
	defer func() { w.close() }()

	if *record {
		rec, err := w.record()
		if err == nil {
			err = rec.save(*expDir, *name)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s record: %v\n", *name, err)
			return 1
		}
		fmt.Fprintf(stdout, "recorded %d %s expectations in %s\n", len(rec), *name, expectPath(*expDir, *name))
		return 0
	}

	base := timedLoop(w, nil, exp)
	res := result{Attempted: base.ops, Failed: base.failed, Metrics: map[string]metricValue{}}
	var tr *tracer
	var lp loopStats
	if *traced == 1 {
		// The traced loop gets a fresh setup so that it replays exactly
		// the ops the untraced loop ran (the tuner's cache starts cold).
		w.close()
		w = mk()
		e.dir = filepath.Join(tmp, "traced")
		err = os.MkdirAll(e.dir, 0o755)
		if err == nil {
			err = w.setup(e)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced setup: %v\n", *name, err)
			return 1
		}
		tr = newTracer()
		lp = timedLoop(w, tr, exp)
		res.Attempted += lp.ops
		res.Failed += lp.failed
	}
	for _, f := range append(base.failures, lp.failures...) {
		fmt.Fprintln(stderr, "perfbench: FAILED", f)
	}

	meta := map[string]any{
		"workload": *name, "git_rev": *gitRev, "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "seed": *seed, "seconds": *seconds, "ops": w.numOps(),
		"traced": *traced == 1, "setup_s": setupS, "pass_ops_per_s": base.passRates(),
	}
	if tr == nil {
		m, err := base.endToEnd(setupS)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		for _, s := range endToEnd {
			res.Metrics[s.name] = metricValue{Value: finite(m[s.name]), Unit: s.unit}
		}
	} else {
		m := map[string]float64{}
		if err := w.layers(tr, m); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s layers: %v\n", *name, err)
			return 1
		}
		if b, t := base.opsPerS(), lp.opsPerS(); b > 0 {
			m["tracing.overhead_ops_pct"] = 100 * (b - t) / b
		}
		if b, t := base.cpuMsPerOp(), lp.cpuMsPerOp(); b > 0 {
			m["tracing.overhead_cpu_pct"] = 100 * (t - b) / b
		}
		for _, s := range perLayer {
			res.Metrics[s.name] = metricValue{Value: finite(m[s.name]), Unit: s.unit}
		}
		meta["spans"] = len(tr.spans)
		spans := filepath.Join(*work, "spans-"+*name+".json")
		if err := tr.writeSpans(spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		meta["spans_file"] = spans
		tr.writeTable(stdout)
	}
	res.Correct = res.Failed == 0
	mb, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "# meta %s\n", mb)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// loopStats is one timed loop's host-side measurements.
type loopStats struct {
	ops, failed int
	passes      []pass
	opMs        []float64
	allocBytes  uint64
	peakLive    uint64
	failures    []string
}

// timedLoop is the closed-loop client: it runs ops 0..n-1 in order,
// each after the previous one completed, and verifies every output.
func timedLoop(w benchmark, tr *tracer, exp expectations) loopStats {
	n := w.numOps()
	ls := loopStats{ops: n, opMs: make([]float64, n)}
	hp := newHeapProbe()
	runtime.GC() // every loop starts from the same collected heap
	alloc0, _, _ := hp.read()
	pl := w.passLen()
	pw, pc, pi := time.Now(), cpuTime(), 0
	for i := 0; i < n; i++ {
		if tr != nil {
			tr.op = i
		}
		s := time.Now()
		id := tr.begin("op")
		key, out, err := w.op(i, tr)
		tr.end(id)
		ls.opMs[i] = float64(time.Since(s)) / 1e6
		if err == nil {
			err = exp.verify(key, out)
		}
		if err != nil {
			ls.failed++
			ls.failures = append(ls.failures, fmt.Sprintf("op %d %s: %v", i, key, err))
		}
		if _, _, live := hp.read(); live > ls.peakLive {
			ls.peakLive = live
		}
		if (i+1)%pl == 0 && i+1 < n {
			now, c := time.Now(), cpuTime()
			ls.passes = append(ls.passes, pass{ops: i + 1 - pi, wall: now.Sub(pw), cpu: c - pc})
			pw, pc, pi = now, c, i+1
		}
	}
	if tr != nil {
		tr.op = -1
	}
	if err := w.finish(tr); err != nil {
		ls.failed++
		ls.failures = append(ls.failures, "finish: "+err.Error())
	}
	now, c := time.Now(), cpuTime()
	ls.passes = append(ls.passes, pass{ops: n - pi, wall: now.Sub(pw), cpu: c - pc})
	alloc1, _, _ := hp.read()
	ls.allocBytes = alloc1 - alloc0
	return ls
}

// pass is one pass over the workload's shapes inside the timed loop.
type pass struct {
	ops       int
	wall, cpu time.Duration
}

// opsPerS and cpuMsPerOp are medians over the loop's passes: every pass
// does the same work, so a host hiccup during one pass does not move
// them.
func (l loopStats) opsPerS() float64 { return median(l.passRates()) }

func (l loopStats) passRates() []float64 {
	v := make([]float64, len(l.passes))
	for i, p := range l.passes {
		v[i] = float64(p.ops) / p.wall.Seconds()
	}
	return v
}

func (l loopStats) cpuMsPerOp() float64 {
	v := make([]float64, len(l.passes))
	for i, p := range l.passes {
		v[i] = float64(p.cpu) / 1e6 / float64(p.ops)
	}
	return median(v)
}

func (l loopStats) okRatio() float64 { return float64(l.ops-l.failed) / float64(l.ops) }

func (l loopStats) endToEnd(setupS float64) (map[string]float64, error) {
	p50, err := percentile(l.opMs, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(l.opMs, 0.9)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":          setupS,
		"ops_per_s":        l.opsPerS(),
		"op_ms_p50":        p50,
		"op_ms_p90":        p90,
		"cpu_ms_per_op":    l.cpuMsPerOp(),
		"alloc_mib_per_op": float64(l.allocBytes) / (1 << 20) / float64(l.ops),
		"peak_heap_mib":    float64(l.peakLive) / (1 << 20),
		"ok_ratio":         l.okRatio(),
	}, nil
}

// passOrder returns the op list of a pool-based workload: one pass (a
// list of pool indices; a shape listed k times runs k times a pass),
// repeated n times, each pass in a seeded order. Every seed runs the
// same multiset of shapes, so the work per run does not depend on the
// seed; the order does.
func passOrder(pass []int, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, len(pass)*n)
	for p := 0; p < n; p++ {
		for _, j := range rng.Perm(len(pass)) {
			out = append(out, pass[j])
		}
	}
	return out
}

// onePass lists every index of a pool of n shapes once.
func onePass(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// passCount fixes a pool workload's op count from --seconds: nominal is
// the host seconds one pass over the pool takes on the reference host.
func passCount(seconds int, nominal float64) int {
	n := int(math.Round(float64(seconds) / nominal))
	if n < 1 {
		n = 1
	}
	return n
}
