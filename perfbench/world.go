package main

import (
	"fmt"
	"time"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/liveness"
	"camc/internal/measure"
)

// worldPassSeconds sets the pass count: --seconds divided by it, rounded.
// One pass takes about this long on a 2-CPU Xeon at GOMAXPROCS=1.
const worldPassSeconds = 2.9

// worldCell is one multi-node op on KNL nodes: a clean cluster
// collective, or (when kills is set) an x12 recovery cell.
type worldCell struct {
	kind     core.Kind
	design   cluster.Design
	topo     string
	nodes    int
	ppn      int
	count    int64
	kills    []cluster.Kill
	killName string
}

func (c worldCell) key() string {
	k := fmt.Sprintf("%s/%s/%s/%dx%d/%d", c.topo, c.kind, c.design, c.nodes, c.ppn, c.count)
	if c.kills != nil {
		k += "/" + c.killName
	}
	return k
}

// worldPool is the quick x11 matrix — six kinds × three designs at 64
// nodes on both topologies and at 256 nodes on the fat tree — plus the
// x12 kill cells at 64 nodes: every scenario on the fat tree, the
// leader death (the costliest recovery) on the dragonfly too. The
// 256-node kill cells cost 0.7-1 s of host time each, ten times the
// median op, so they stay out.
func worldPool() []worldCell {
	ladders := []struct {
		kind  core.Kind
		ppn   int
		count int64
	}{
		{core.KindBcast, 8, 16 << 10},
		{core.KindGather, 8, 4 << 10},
		{core.KindScatter, 8, 4 << 10},
		{core.KindReduce, 8, 16 << 10},
		{core.KindAllgather, 4, 256},
		{core.KindAlltoall, 4, 16},
	}
	var pool []worldCell
	for _, shape := range []struct {
		topo  string
		nodes int
	}{{"fattree", 64}, {"dragonfly", 64}, {"fattree", 256}} {
		for _, l := range ladders {
			for _, d := range cluster.Designs() {
				pool = append(pool, worldCell{kind: l.kind, design: d, topo: shape.topo, nodes: shape.nodes, ppn: l.ppn, count: l.count})
			}
		}
	}
	scenarios := []struct {
		name  string
		kills []cluster.Kill
	}{
		{"kill-member", []cluster.Kill{{World: 5, Op: 1}}},
		{"kill-leader", []cluster.Kill{{World: 4, Op: 1}}},
		{"kill-node", []cluster.Kill{{World: 4, Op: 1}, {World: 5, Op: 1}, {World: 6, Op: 1}, {World: 7, Op: 1}}},
	}
	for _, d := range cluster.Designs() {
		for _, s := range scenarios {
			pool = append(pool, worldCell{kind: core.KindGather, design: d, topo: "fattree", nodes: 64, ppn: 4, count: 64, kills: s.kills, killName: s.name})
		}
		leader := scenarios[1]
		pool = append(pool, worldCell{kind: core.KindGather, design: d, topo: "dragonfly", nodes: 64, ppn: 4, count: 64, kills: leader.kills, killName: leader.name})
	}
	return pool
}

// worldBufLens is x11's per-rank buffer sizing (an allgather rank sends
// one block).
func worldBufLens(kind core.Kind, w int, count int64) (int64, int64) {
	switch kind {
	case core.KindScatter:
		return int64(w) * count, count
	case core.KindGather:
		return count, int64(w) * count
	case core.KindAllgather:
		return count, int64(w) * count
	case core.KindAlltoall:
		return int64(w) * count, int64(w) * count
	}
	return count, count
}

// worldPass is one pass over the pool: the 64-node clean cells twice,
// the rest once. Sorted by host cost the pool falls into three classes
// (64-node clean cells 4-23 ms, 256-node clean cells 23-59 ms, kill cells
// and the heaviest 256-node cells 60-135 ms on a 2-CPU Xeon). Listed
// once each, the 64-node class would end at 55% of a pass, so op_ms_p50
// would sit on the jump to the next class and flip between them with
// host noise. Twice, it spans the first 71%: p50 lies inside it and p90
// inside the kill class.
func worldPass(pool []worldCell) []int {
	var pass []int
	for i, c := range pool {
		pass = append(pass, i)
		if c.kills == nil && c.nodes == 64 {
			pass = append(pass, i)
		}
	}
	return pass
}

type world struct {
	pool []worldCell
	pass []int
	ops  []int
	hp   *heapProbe
}

func (w *world) setup(e *env) error {
	w.pool = worldPool()
	w.pass = worldPass(w.pool)
	w.ops = passOrder(w.pass, passCount(e.seconds, worldPassSeconds), e.seed)
	w.hp = newHeapProbe()
	for i, c := range w.pool {
		if _, err := w.cell(i, nil); err != nil {
			return fmt.Errorf("warm-up %s: %w", c.key(), err)
		}
	}
	return nil
}

func (w *world) numOps() int  { return len(w.ops) }
func (w *world) passLen() int { return len(w.pass) }

func (w *world) op(i int, tr *tracer) (string, []string, error) {
	out, err := w.cell(w.ops[i], tr)
	return w.pool[w.ops[i]].key(), out, err
}

// cell runs one pool shape. In the traced run it also counts events,
// allocations and fabric chunks at the layer boundaries.
func (w *world) cell(i int, tr *tracer) ([]string, error) {
	c := w.pool[i]
	a := arch.KNL()
	var o0 uint64
	if tr != nil {
		_, o0, _ = w.hp.read()
	}
	if c.kills != nil {
		lc := liveness.Config{Deadline: 2000, Poll: 10} // x12's detector settings
		id := tr.begin("measure.ClusterRecovered")
		t := time.Now()
		res, err := measure.ClusterRecovered(a, c.kind, c.design, "tuned", c.count, measure.ClusterOptions{
			Nodes: c.nodes, PPN: c.ppn, Topo: c.topo, Liveness: &lc, Kills: c.kills, CopyData: true})
		wall := time.Since(t)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if want := c.nodes*c.ppn - len(c.kills); res.Survivors != want {
			return nil, fmt.Errorf("%d survivors, want %d", res.Survivors, want)
		}
		if tr != nil {
			_, o1, _ := w.hp.read()
			w.countRun(tr, wall, res.Events, o1-o0, res.Links, res.NetChunk)
		}
		return []string{bits(res.FirstLatency), bits(res.DetectLatency), bits(res.ShrinkLatency),
			bits(res.ElectLatency), bits(res.RerunLatency)}, nil
	}
	id := tr.begin("cluster.New+Lookup")
	cl := cluster.New(cluster.Config{Arch: a, NumNodes: c.nodes, PPN: c.ppn, Topo: c.topo})
	coll, err := cluster.Lookup(cl, c.kind, c.design, "")
	tr.end(id)
	if err != nil {
		return nil, err
	}
	sendLen, recvLen := worldBufLens(c.kind, cl.WorldSize(), c.count)
	id = tr.begin("cluster.Run")
	t := time.Now()
	lat, err := cl.Run(func(r *cluster.Rank) {
		coll.Run(r, cluster.Args{Send: r.Alloc(sendLen), Recv: r.Alloc(recvLen), Count: c.count})
	})
	wall := time.Since(t)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		_, o1, _ := w.hp.read()
		w.countRun(tr, wall, cl.Sim.EventsProcessed(), o1-o0, cl.Fabric.LinkStats(), cl.Fabric.ChunkBytes)
	}
	id = tr.begin("cluster.Release")
	cluster.Release(cl)
	tr.end(id)
	return []string{bits(lat)}, nil
}

func (w *world) countRun(tr *tracer, wall time.Duration, events, objects uint64, links []cluster.LinkStat, chunk int64) {
	tr.add("events", float64(events))
	tr.add("run_ns", float64(wall))
	tr.add("objects", float64(objects))
	for _, l := range links {
		if chunk > 0 {
			tr.add("chunks", float64((l.Delivered+chunk-1)/chunk))
		}
	}
}

func (w *world) finish(*tracer) error { return nil }

func (w *world) record() (expectations, error) {
	exp := expectations{}
	for i, c := range w.pool {
		out, err := w.cell(i, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.key(), err)
		}
		exp[c.key()] = out
	}
	return exp, nil
}

func (w *world) close() {}

func (w *world) layers(tr *tracer, m map[string]float64) error {
	ops := float64(w.numOps())
	m["sim.events_per_op"] = tr.sums["events"] / ops
	m["sim.ns_per_event"] = tr.sums["run_ns"] / tr.sums["events"]
	m["sim.allocs_per_event"] = tr.sums["objects"] / tr.sums["events"]
	m["cluster.chunks_per_op"] = tr.sums["chunks"] / ops
	m["cluster.build_us"] = median(tr.durations("cluster.New+Lookup")) * 1e3
	m["cluster.release_us"] = median(tr.durations("cluster.Release")) * 1e3
	m["cluster.recover_ms_p50"] = median(tr.durations("measure.ClusterRecovered"))
	return nil
}
