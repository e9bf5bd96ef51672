// Package measure times collective operations on the simulated node.
// Because the simulator is deterministic and noise-free, a single
// invocation yields the exact latency; the harness still supports
// multi-iteration averaging for experiments that want to amortize
// per-invocation setup the way the paper's OSU-style benchmarks do.
package measure

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/mpi"
	"camc/internal/sim"
	"camc/internal/trace"
)

// Options configures a measurement.
type Options struct {
	Procs int   // ranks; 0 = architecture default (full subscription)
	Iters int   // timed invocations; 0 = 1
	Root  int   // root for rooted collectives
	Mem   int64 // per-rank address space; 0 = sized automatically

	// Mechanism selects the kernel-assist facility (default CMA).
	Mechanism kernel.Mechanism

	// Ambient is the static co-tenant lock pressure: phantom page-lock
	// holders co-located jobs hold on the machine, added to every γ(c)
	// sample. The tuner sweeps it to show how tuned crossovers shift
	// under multi-tenant interference (x13).
	Ambient int

	// SkewSeed, when non-zero, injects a deterministic random start
	// delay of up to MaxSkew microseconds per rank before each timed
	// invocation — the process skew the paper says turns contention-free
	// schedules into contended ones.
	SkewSeed int64
	MaxSkew  float64

	// Fault, when non-nil and active, attaches a deterministic
	// fault-injection plan (see internal/fault): the measured latency
	// then includes retries, backoff, straggler delays and degraded-path
	// traffic, while payloads stay exact.
	Fault *fault.Config

	// Liveness, when non-nil, attaches a failure-detection board and
	// deadline watchdogs to every blocking primitive (see
	// internal/liveness). Required by CollectiveRecovered when the fault
	// plan includes the kill class; harmless otherwise (a healthy run's
	// latencies are unchanged — completed timed waits are free).
	Liveness *liveness.Config
}

// Collective returns the latency in microseconds of one collective
// invocation: the time from the instant the last rank enters the
// operation to the instant the last rank leaves it, averaged over
// Options.Iters invocations. Runs are cost-only (no data movement).
func Collective(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options) float64 {
	return collective(a, kind, algo, count, opts, nil)
}

// CollectiveTraced measures exactly like Collective but with a trace
// recorder attached, returning the recorder alongside the latency.
// Recording never sleeps, so the returned latency is bit-identical to
// the untraced one (asserted by TestTraceDeterminism).
func CollectiveTraced(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options) (float64, *trace.Recorder) {
	rec := trace.NewUnbound()
	lat := collective(a, kind, algo, count, opts, rec)
	return lat, rec
}

// CollectiveChecked measures like Collective but with real data
// movement, verifies that every byte of every receive buffer landed
// exactly per MPI semantics, and returns the fault statistics the run
// accumulated alongside the latency. It is the measurement core of the
// x8 robustness experiment: under an injected fault plan the latency
// includes retries, backoff and degraded-path traffic, and the byte
// verification proves the degradation was graceful — the payload is
// identical to a fault-free run's.
func CollectiveChecked(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options) (float64, fault.Stats, error) {
	t, err := timed(a, kind, algo, count, opts, true, nil)
	return t.Latency, t.Stats, err
}

func collective(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options, rec *trace.Recorder) float64 {
	t, err := timed(a, kind, algo, count, opts, false, rec)
	if err != nil {
		panic(err)
	}
	return t.Latency
}

// timed runs the Window opts describe. A checked run moves rank-seeded
// payloads (see payload) and verifies them; otherwise it is dataless.
func timed(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options, checked bool, rec *trace.Recorder) (Timing, error) {
	cfg := opts.config(a, checked)
	w := Window{Kind: kind, Algo: algo, Count: count, Root: opts.Root, Iters: opts.Iters, Rec: rec}
	if opts.SkewSeed != 0 && opts.MaxSkew > 0 {
		rng := rand.New(rand.NewSource(opts.SkewSeed))
		w.Skew = make([]float64, cfg.Procs*max(opts.Iters, 1))
		for i := range w.Skew {
			w.Skew[i] = rng.Float64() * opts.MaxSkew
		}
	}
	if checked {
		sendLen, _, err := core.BufSizes(kind, cfg.Procs, count)
		if err != nil {
			return Timing{}, err
		}
		w.Sends = payloads(cfg.Procs, sendLen)
	}
	return w.Run(cfg)
}

// payloads returns the send payloads of p ranks, sendLen bytes each.
func payloads(p int, sendLen int64) [][]byte {
	sends := make([][]byte, p)
	for r := range sends {
		sends[r] = payload(r, sendLen)
	}
	return sends
}

// payload returns rank's n-byte send payload: an xorshift stream seeded
// by the rank, so no two ranks — and no two blocks of one rank's
// buffer — carry the same bytes, and a misrouted block cannot pass the
// oracle by coincidence.
func payload(rank int, n int64) []byte {
	buf := make([]byte, n)
	x := uint64(rank+1) * 0x9E3779B97F4A7C15
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
	return buf
}

// config is the communicator configuration Options describe.
func (o Options) config(a *arch.Profile, copyData bool) mpi.Config {
	procs := o.Procs
	if procs == 0 {
		procs = a.DefaultProcs
	}
	return mpi.Config{Arch: a, Procs: procs, CopyData: copyData, MemPerProc: o.Mem,
		Mechanism: o.Mechanism, Ambient: o.Ambient, Fault: o.Fault, Liveness: o.Liveness}
}

// Window is one single-node timed run: every iteration is
// barrier → skew → start → straggler → algorithm → end → barrier, and
// the latency is the last end minus the last start, averaged over the
// iterations. Collective, CollectiveChecked and the check package's
// differential oracle all measure through it.
type Window struct {
	Kind  core.Kind
	Algo  func(*mpi.Rank, core.Args)
	Count int64
	Root  int
	Iters int // timed invocations; 0 = 1

	// Sends is each rank's send payload, laid out per core.BufSizes; the
	// run writes it through the payload layer and poisons the receive
	// buffers. nil runs dataless (cost only).
	Sends [][]byte
	// Skew is the start delay of rank r in iteration it at
	// Skew[it*procs+r], slept after the entry barrier; nil = none.
	Skew []float64
	// Rec, when non-nil, records the run.
	Rec *trace.Recorder
}

// Timing is what a Window run reports.
type Timing struct {
	Latency float64 // us, averaged over the iterations
	Stats   fault.Stats
	Events  uint64   // simulator events processed
	Digests []uint64 // per-rank MemDigest; digest-tracking runs only
}

// simPool recycles simulations (event-heap backing, Proc and timer free
// lists) across sweep cells: a successful run leaves every process
// finished, so the sim Resets cleanly and the next cell's Spawn loop
// reuses its Proc shells.
var simPool = sync.Pool{New: func() any { return sim.New() }}

// scratch is the per-cell working set the sweep loop reuses instead of
// re-allocating: buffer address tables and the start/end timestamp
// arrays.
type scratch struct {
	send, recv   []kernel.Addr
	starts, ends []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func addrs(s []kernel.Addr, n int) []kernel.Addr {
	if cap(s) < n {
		return make([]kernel.Addr, n)
	}
	return s[:n]
}

func floats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// satMul multiplies non-negative int64s, saturating at MaxInt64 instead
// of wrapping. The generous-mem heuristic below multiplies procs, count
// and iters — at 64k ranks × megabyte counts the naive product wraps
// negative and NewProcess would panic on a "negative" limit.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// memFor is the generous virtual per-rank address space: p blocks for
// send and recv plus staging room for Bruck-style algorithms per
// iteration. The limit is purely virtual (pages materialize only when
// written), so saturating at MaxInt64 is harmless — overflow-wrapping
// to a negative limit is not.
func memFor(a *arch.Profile, procs int, count int64, iters int) int64 {
	mem := satMul(satMul(4*int64(procs)+8, count+int64(a.PageSize)), int64(iters+1))
	if mem < 1<<22 {
		mem = 1 << 22
	}
	return mem
}

// Run builds a communicator from cfg (Procs must be set; Sim and, when
// zero, MemPerProc are filled in) and times the window on it. A payload-carrying run
// with cfg.CopyData set is then verified byte for byte by core.Verify;
// the returned Timing is valid alongside a verification error.
func (w Window) Run(cfg mpi.Config) (Timing, error) {
	procs := cfg.Procs
	sendLen, recvLen, err := core.BufSizes(w.Kind, procs, w.Count)
	if err != nil {
		return Timing{}, err
	}
	iters := max(w.Iters, 1)
	if cfg.MemPerProc == 0 {
		cfg.MemPerProc = memFor(cfg.Arch, procs, w.Count, iters)
	}
	sm := simPool.Get().(*sim.Simulation)
	cfg.Sim = sm
	c := mpi.New(cfg)
	c.AttachTrace(w.Rec)
	plan := c.FaultPlan()
	sc := scratchPool.Get().(*scratch)
	send := addrs(sc.send, procs)
	recv := addrs(sc.recv, procs)
	starts := floats(sc.starts, procs)
	ends := floats(sc.ends, procs)
	sc.send, sc.recv, sc.starts, sc.ends = send, recv, starts, ends
	for i := 0; i < procs; i++ {
		var pl []byte
		if w.Sends != nil {
			pl = w.Sends[i]
		}
		send[i], recv[i] = place(c.Rank(i).OS, pl, sendLen, recvLen)
	}
	var total float64
	c.Start(func(r *mpi.Rank) {
		for it := 0; it < iters; it++ {
			r.Barrier()
			if w.Skew != nil {
				r.SP.Sleep(w.Skew[it*procs+r.ID])
			}
			starts[r.ID] = r.SP.Now()
			// Straggler skew counts inside the timed window: the rank has
			// entered the collective but is slow to engage (OS noise,
			// descheduling), which is exactly the robustness cost x8 bills.
			straggle(r, plan, it)
			w.Algo(r, core.Args{Send: send[r.ID], Recv: recv[r.ID], Count: w.Count, Root: w.Root})
			ends[r.ID] = r.SP.Now()
			r.Barrier()
			if r.ID == 0 {
				total += maxOf(ends) - maxOf(starts)
			}
		}
	})
	if err := c.Sim.Run(); err != nil {
		// A failed run may leave processes blocked: drop the sim and
		// scratch rather than recycle them.
		return Timing{Stats: plan.Stats()}, fmt.Errorf("measure: simulation failed: %w", err)
	}
	t := Timing{Latency: total / float64(iters), Stats: plan.Stats(), Events: c.Sim.EventsProcessed()}
	if cfg.Sparse {
		t.Digests = make([]uint64, procs)
		for r := range t.Digests {
			t.Digests[r] = c.Rank(r).OS.MemDigest()
		}
	}
	if cfg.CopyData && w.Sends != nil {
		err = verifyComm(c, w.Kind, w.Count, w.Root, w.Sends, send, recv)
	}
	// Every process finished, so the simulation Resets cleanly; recycle
	// it (and the scratch) for the next cell.
	sm.Reset()
	simPool.Put(sm)
	scratchPool.Put(sc)
	return t, err
}

// place allocates one rank's send and receive buffers. With a payload
// it writes the send bytes through the payload layer and poisons the
// receive buffer (0xEE), so a byte the collective never delivered
// cannot pass for one it did.
func place(p *kernel.Process, payload []byte, sendLen, recvLen int64) (send, recv kernel.Addr) {
	send, recv = p.Alloc(sendLen), p.Alloc(recvLen)
	if payload != nil {
		p.WriteAt(send, payload)
		p.FillAt(recv, recvLen, 0xEE)
	}
	return send, recv
}

// straggle sleeps rank r through the plan's straggler delay for
// operation op, if any, recording it on the rank's trace lane.
func straggle(r *mpi.Rank, plan *fault.Plan, op int) {
	if d := plan.StragglerDelay(r.ID, op); d > 0 {
		if rec := r.Tracer(); rec != nil {
			rec.Instant(r.Lane(), trace.CatFault, "straggle", trace.F("delay", d))
		}
		r.SP.Sleep(d)
	}
}

func maxOf(v []float64) float64 {
	if len(v) == 0 {
		// Degenerate window (no ranks timed): zero width, not a panic.
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sweep measures one algorithm across message sizes and returns latencies
// in size order.
func Sweep(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), sizes []int64, opts Options) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = Collective(a, kind, algo, s, opts)
	}
	return out
}

// Sizes builds a power-of-two size ladder [lo, hi]. Degenerate requests
// come back empty rather than looping or panicking: lo must be
// positive (a zero or negative lo would never double its way past hi)
// and the range must be non-empty.
func Sizes(lo, hi int64) []int64 {
	if lo <= 0 || hi < lo {
		return nil
	}
	var out []int64
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}
