package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"camc/internal/arch"
	"camc/internal/check"
	"camc/internal/core"
	"camc/internal/measure"
	"camc/internal/mpi"
	"camc/internal/store"
	"camc/internal/trace"
	"camc/internal/workload"
)

// nodeSweepPassSeconds sets the pass count: --seconds divided by it, rounded.
// One pass takes about this long on a 2-CPU Xeon at GOMAXPROCS=1.
const nodeSweepPassSeconds = 2.15

// nodeCell is one single-node op: a dataless collective cell, or (when
// mix is set) a co-located workload mix.
type nodeCell struct {
	a       *arch.Profile
	kind    core.Kind
	spec    string
	algo    func(*mpi.Rank, core.Args)
	size    int64
	ambient int
	mix     []workload.JobSpec
	mixName string
}

func (c nodeCell) key() string {
	if c.mix != nil {
		return fmt.Sprintf("%s/mix/%s", c.a.Name, c.mixName)
	}
	k := fmt.Sprintf("%s/%s/%s/%s", c.a.Name, c.kind, c.spec, sizeLabel(c.size))
	if c.ambient > 0 {
		k += fmt.Sprintf("/amb%d", c.ambient)
	}
	return k
}

// nodePool is the paper's Fig 7-11 designs at full subscription on the
// quick 4K/64K/max ladder, plus an ambient-pressure share (x13) and the
// co-located mixes. Power8 runs only the rooted kinds (Figs 7, 8, 11)
// and alltoall stops at 256K: pairwise-shmem at 1M costs about 1.1 s of
// host time on KNL and 3 s on Power8, which would turn the pool into
// two ops.
func nodePool() ([]nodeCell, error) {
	type design struct {
		kind  core.Kind
		specs []string
	}
	var pool []nodeCell
	add := func(a *arch.Profile, kind core.Kind, spec string, size int64, amb int) error {
		al, err := core.LookupAlgorithm(kind, spec)
		if err != nil {
			return err
		}
		pool = append(pool, nodeCell{a: a, kind: kind, spec: spec, algo: al.Run, size: size, ambient: amb})
		return nil
	}
	for _, a := range arch.All() {
		k := core.TunedThrottle(a)
		largest := int64(4 << 20)
		if a.Name == "power8" {
			largest = 2 << 20
		}
		rooted := []design{
			{core.KindScatter, []string{fmt.Sprintf("throttled:%d", k), "parallel-read", "sequential-write"}},
			{core.KindGather, []string{fmt.Sprintf("throttled:%d", k), "parallel-write", "sequential-read"}},
			{core.KindBcast, []string{fmt.Sprintf("knomial-read:%d", k+1), "direct-read", "scatter-allgather"}},
		}
		for _, d := range rooted {
			for _, s := range d.specs {
				for _, size := range []int64{4 << 10, 64 << 10, largest} {
					if err := add(a, d.kind, s, size, 0); err != nil {
						return nil, err
					}
				}
				// The x13 share: the same designs under heavy co-tenant
				// lock pressure, at the size where the crossovers move.
				if a.Name != "power8" {
					if err := add(a, d.kind, s, 64<<10, 32); err != nil {
						return nil, err
					}
				}
			}
		}
		if a.Name != "power8" {
			for _, d := range []struct {
				design
				max int64
			}{
				{design{core.KindAllgather, []string{"ring-neighbor:1", "recursive-doubling"}}, 1 << 20},
				{design{core.KindAlltoall, []string{"pairwise-cma-coll", "pairwise-shmem"}}, 256 << 10},
			} {
				for _, s := range d.specs {
					for _, size := range []int64{4 << 10, 64 << 10, d.max} {
						if err := add(a, d.kind, s, size, 0); err != nil {
							return nil, err
						}
					}
				}
			}
		}
		for _, m := range []struct {
			ranks, iters int
		}{{8, 2}, {16, 4}} {
			pool = append(pool, nodeCell{a: a, mix: workload.DefaultMix(m.ranks, m.iters), mixName: fmt.Sprintf("%dx%d", m.ranks, m.iters)})
		}
	}
	return pool, nil
}

func sizeLabel(s int64) string {
	switch {
	case s >= 1<<20 && s%(1<<20) == 0:
		return fmt.Sprintf("%dM", s>>20)
	case s >= 1<<10 && s%(1<<10) == 0:
		return fmt.Sprintf("%dK", s>>10)
	}
	return fmt.Sprint(s)
}

type nodeSweep struct {
	e     *env
	pool  []nodeCell
	ops   []int
	st    *store.Store
	runID string
}

func (w *nodeSweep) setup(e *env) error {
	w.e = e
	pool, err := nodePool()
	if err != nil {
		return err
	}
	w.pool = pool
	w.ops = passOrder(onePass(len(pool)), passCount(e.seconds, nodeSweepPassSeconds), e.seed)
	// The scratch store every cell is appended to, as camc-bench -store does.
	if w.st, err = store.Open(filepath.Join(e.dir, "store"), store.Options{}); err != nil {
		return err
	}
	host, _ := os.Hostname()
	rr := store.Record{Type: store.TypeRun, RunID: store.NewRunID("perfbench"), Unix: time.Now().Unix(),
		Source: "perfbench", GitRev: e.gitRev, Host: host, Seed: e.seed, Note: "node-sweep"}
	if _, err := w.st.Append(rr); err != nil {
		return err
	}
	w.runID = rr.RunID
	for i := range w.pool {
		if _, err := w.runShape(i, nil); err != nil {
			return fmt.Errorf("warm-up %s: %w", w.pool[i].key(), err)
		}
	}
	return nil
}

func (w *nodeSweep) numOps() int  { return len(w.ops) }
func (w *nodeSweep) passLen() int { return len(w.pool) }

func (w *nodeSweep) op(i int, tr *tracer) (string, []string, error) {
	out, err := w.runShape(w.ops[i], tr)
	return w.pool[w.ops[i]].key(), out, err
}

// runShape runs pool shape i and appends its cell to the scratch store.
func (w *nodeSweep) runShape(i int, tr *tracer) ([]string, error) {
	out, lat, err := w.cell(i, tr)
	if err != nil {
		return nil, err
	}
	return out, w.appendCell(w.pool[i], lat, tr)
}

// cell runs one pool shape and returns its verified outputs and the
// latency the store records.
func (w *nodeSweep) cell(i int, tr *tracer) ([]string, float64, error) {
	c := w.pool[i]
	if c.mix != nil {
		id := tr.begin("workload.Run")
		res, err := workload.Run(c.mix, workload.Options{Arch: c.a})
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		out := []string{bits(res.Makespan)}
		for _, j := range res.Jobs {
			out = append(out, bits(j.MeanLat))
		}
		return out, res.Makespan, nil
	}
	id := tr.begin("measure.Collective")
	lat := measure.Collective(c.a, c.kind, c.algo, c.size, measure.Options{Ambient: c.ambient})
	tr.end(id)
	return []string{bits(lat)}, lat, nil
}

func (w *nodeSweep) appendCell(c nodeCell, lat float64, tr *tracer) error {
	r := store.Record{Type: store.TypeCell, RunID: w.runID, Experiment: "node-sweep",
		Arch: c.a.Name, Collective: string(c.kind), Series: c.spec, X: sizeLabel(c.size), Size: c.size,
		Value: lat, Unit: "us"}
	if c.mix != nil {
		r.Collective, r.Series, r.X, r.Size = "mix", c.mixName, "makespan", 0
	}
	r.Table = fmt.Sprintf("node-sweep %s %s amb=%d", r.Collective, c.a.Name, c.ambient)
	id := tr.begin("store.Append")
	_, err := w.st.Append(r)
	tr.end(id)
	return err
}

func (w *nodeSweep) finish(tr *tracer) error {
	id := tr.begin("store.Sync")
	err := w.st.Sync()
	tr.end(id)
	return err
}

func (w *nodeSweep) record() (expectations, error) {
	exp := expectations{}
	for i, c := range w.pool {
		out, _, err := w.cell(i, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.key(), err)
		}
		exp[c.key()] = out
	}
	return exp, nil
}

func (w *nodeSweep) close() {
	if w.st != nil {
		w.st.Close()
	}
}

// layers replays every distinct collective cell once through the layers
// below measure (mpi.New, mpi.Run, a traced replay for the CMA
// breakdown), then queries the store and runs the probes.
func (w *nodeSweep) layers(tr *tracer, m map[string]float64) error {
	hp := newHeapProbe()
	var cells, events, runNs, collNs, newNs, objs, cmaOps float64
	var lock, total float64
	for _, c := range w.pool {
		if c.mix != nil {
			continue
		}
		cfg := mpi.Config{Arch: c.a, Procs: c.a.DefaultProcs, Ambient: c.ambient}
		id := tr.begin("mpi.New")
		t := time.Now()
		mpi.New(cfg)
		newNs += float64(time.Since(t))
		tr.end(id)

		sendLen, recvLen, err := check.BufSizes(c.kind, cfg.Procs, c.size) // measure's sizing
		if err != nil {
			return err
		}
		_, o0, _ := hp.read()
		id = tr.begin("mpi.Run")
		t = time.Now()
		res, err := mpi.Run(cfg, func(r *mpi.Rank) {
			send, recv := r.Alloc(sendLen), r.Alloc(recvLen)
			r.Barrier()
			c.algo(r, core.Args{Send: send, Recv: recv, Count: c.size})
			r.Barrier()
		})
		runNs += float64(time.Since(t))
		tr.end(id)
		_, o1, _ := hp.read()
		if err != nil {
			return fmt.Errorf("%s: mpi.Run: %w", c.key(), err)
		}
		events += float64(res.Events)
		objs += float64(o1 - o0)

		id = tr.begin("measure.Collective")
		t = time.Now()
		measure.Collective(c.a, c.kind, c.algo, c.size, measure.Options{Ambient: c.ambient})
		collNs += float64(time.Since(t))
		tr.end(id)

		id = tr.begin("measure.CollectiveTraced")
		_, rec := measure.CollectiveTraced(c.a, c.kind, c.algo, c.size, measure.Options{Ambient: c.ambient})
		tr.end(id)
		id = tr.begin("trace.SummarizeCMA")
		sum := trace.SummarizeCMA(rec)
		tr.end(id)
		cmaOps += float64(sum.Ops)
		lock += sum.Lock
		total += sum.Total()
		cells++
	}
	m["sim.events_per_op"] = events / cells
	m["sim.ns_per_event"] = runNs / events
	m["sim.allocs_per_event"] = objs / events
	m["mpi.new_us"] = newNs / cells / 1e3
	m["measure.overhead_us"] = (collNs - runNs) / cells / 1e3
	m["kernel.cma_ops_per_op"] = cmaOps / cells
	if total > 0 {
		m["kernel.lock_share"] = lock / total
	}
	m["workload.mix_ms_p50"] = median(tr.durations("workload.Run"))
	m["store.append_us_p50"] = median(tr.durations("store.Append")) * 1e3
	m["store.sync_ms"] = tr.sumMs("store.Sync")
	if err := w.storeQueries(tr, m); err != nil {
		return err
	}

	ns, err := probeChan(tr, 20000)
	if err != nil {
		return fmt.Errorf("sim.Chan probe: %w", err)
	}
	m["sim.chan_ns_per_msg"] = ns
	var pageNs float64
	var pages int64
	for _, a := range arch.All() {
		ns, n, err := probeVMRead(tr, a, a.DefaultProcs-1, 256<<10, false)
		if err != nil {
			return err
		}
		pageNs += ns
		pages += n
	}
	m["kernel.vmread_ns_per_page"] = pageNs / float64(pages)
	us, err := probeShmRing(tr, arch.KNL(), arch.KNL().DefaultProcs, 64<<10, 20)
	if err != nil {
		return err
	}
	m["shm.sendrecv_us"] = us
	return w.tunerProbe(tr, m)
}

// tunerProbe measures the tuner layer: one second's worth of the tune
// workload's request stream (hits, misses, retunes), verified against
// the tune expectations, on a tracer of its own.
func (w *nodeSweep) tunerProbe(tr *tracer, m map[string]float64) error {
	id := tr.begin("probe.tuner")
	defer tr.end(id)
	exp, err := loadExpectations(w.e.expDir, "tune")
	if err != nil {
		return err
	}
	tw := &tune{}
	if err := tw.setup(&env{seed: w.e.seed, seconds: 1}); err != nil {
		return err
	}
	ptr := newTracer()
	if ls := timedLoop(tw, ptr, exp); ls.failed > 0 {
		return fmt.Errorf("tuner probe: %d failed ops, first: %s", ls.failed, ls.failures[0])
	}
	return tw.layers(ptr, m)
}

// storeQueries replays a copy of the committed baseline store and runs
// the report-gate query (Select + Deltas) of this run's cells against it.
func (w *nodeSweep) storeQueries(tr *tracer, m map[string]float64) error {
	src := filepath.Join(w.e.root, "results", "baseline.store")
	dst := filepath.Join(w.e.dir, "baseline-copy")
	if err := copyDir(src, dst); err != nil {
		return err
	}
	id := tr.begin("store.Open")
	t := time.Now()
	base, err := store.Open(dst, store.Options{ReadOnly: true})
	m["store.replay_ms"] = float64(time.Since(t)) / 1e6
	tr.end(id)
	if err != nil {
		return err
	}
	defer base.Close()
	id = tr.begin("store.Select+Deltas")
	t = time.Now()
	head, err := w.st.Select(store.Filter{Type: store.TypeCell, RunID: w.runID})
	if err == nil {
		var baseCells []store.Record
		baseCells, err = base.Select(store.Filter{Type: store.TypeCell})
		store.Deltas(baseCells, head)
	}
	m["store.select_ms"] = float64(time.Since(t)) / 1e6
	tr.end(id)
	return err
}

func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
