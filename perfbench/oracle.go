package main

import (
	"fmt"
	"time"

	"camc/internal/arch"
	"camc/internal/check"
	"camc/internal/trace"
)

// oraclePassSeconds sets the pass count: --seconds divided by it, rounded.
// One pass takes about this long on a 2-CPU Xeon at GOMAXPROCS=1.
const oraclePassSeconds = 1.35

// Corpus shape: a fixed-seed check.Gen corpus at the generator's default
// (<= 12-rank) shapes with faults and kills on, and a fixed share from
// the cluster arm. The corpus seed is fixed so that every run does the
// same work; the benchmark seed orders it.
const (
	oracleCorpusSeed = 1
	oracleSingle     = 60
	oracleCluster    = 12
)

func oraclePool() []check.Spec {
	var pool []check.Spec
	for i := 0; i < oracleSingle; i++ {
		pool = append(pool, check.Gen(oracleCorpusSeed, i, check.GenOptions{Faults: true, Kills: true}))
	}
	for i := 0; i < oracleCluster; i++ {
		pool = append(pool, check.Gen(oracleCorpusSeed, i, check.GenOptions{Faults: true, Kills: true, Cluster: true}))
	}
	return pool
}

// specClass splits the corpus the way the per-layer metrics report it.
func specClass(sp check.Spec) string {
	switch {
	case sp.Nodes > 0:
		return "cluster"
	case sp.Kills():
		return "kill"
	case sp.Faults != "":
		return "fault"
	}
	return "clean"
}

type oracle struct {
	pool []check.Spec
	ops  []int
}

func (w *oracle) setup(e *env) error {
	w.pool = oraclePool()
	w.ops = passOrder(onePass(len(w.pool)), passCount(e.seconds, oraclePassSeconds), e.seed)
	for i := range w.pool {
		if _, _, err := w.runOne(i, nil); err != nil {
			return fmt.Errorf("warm-up %s: %w", w.pool[i], err)
		}
	}
	return nil
}

func (w *oracle) numOps() int  { return len(w.ops) }
func (w *oracle) passLen() int { return len(w.pool) }

func (w *oracle) op(i int, tr *tracer) (string, []string, error) {
	sp := w.pool[w.ops[i]]
	res, out, err := w.runOne(w.ops[i], tr)
	if err == nil && tr != nil {
		tr.add("rec_events", float64(res.Rec.Len()))
		tr.add("retries", float64(res.Stats.Retries))
	}
	return sp.String(), out, err
}

// runOne is one differential check: the run, its byte-level oracle and
// the invariant registry, all inside check.RunOne.
func (w *oracle) runOne(i int, tr *tracer) (*check.RunResult, []string, error) {
	sp := w.pool[i]
	id := tr.begin("check.RunOne/" + specClass(sp))
	res, err := check.RunOne(sp)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	return res, []string{bits(res.Latency)}, nil
}

func (w *oracle) finish(*tracer) error { return nil }

func (w *oracle) record() (expectations, error) {
	exp := expectations{}
	for i, sp := range w.pool {
		_, out, err := w.runOne(i, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp, err)
		}
		exp[sp.String()] = out
	}
	return exp, nil
}

func (w *oracle) close() {}

// patternSends fills every rank's send buffer with a rank-distinct byte
// pattern, the input check.Reference expects.
func patternSends(p int, n int64) [][]byte {
	out := make([][]byte, p)
	for r := range out {
		out[r] = make([]byte, n)
		for i := range out[r] {
			out[r][i] = byte(r*31 + i)
		}
	}
	return out
}

// layers re-runs each corpus spec once and times the pieces RunOne is
// made of from outside: the reference executor at the spec's shape, the
// invariant registry and the trace analyses on its recorder.
func (w *oracle) layers(tr *tracer, m map[string]float64) error {
	ops := float64(w.numOps())
	m["trace.events_per_op"] = tr.sums["rec_events"] / ops
	m["fault.retries_per_op"] = tr.sums["retries"] / ops
	for _, class := range []string{"clean", "fault", "kill", "cluster"} {
		m["check."+class+"_ms_p50"] = median(tr.durations("check.RunOne/" + class))
	}
	var refNs, invNs, anaNs float64
	for i, sp := range w.pool {
		res, _, err := w.runOne(i, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", sp, err)
		}
		p := sp.Procs
		if sp.Nodes > 0 {
			p *= sp.Nodes
		}
		sendLen, _, err := check.BufSizes(sp.Kind, p, sp.Count)
		if err != nil {
			return err
		}
		sends := patternSends(p, sendLen)
		id := tr.begin("check.Reference")
		t := time.Now()
		_, err = check.Reference(sp.Kind, p, sp.Count, sp.Root, sends)
		refNs += float64(time.Since(t))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: reference: %w", sp, err)
		}

		id = tr.begin("check.CheckInvariants")
		t = time.Now()
		vs := check.CheckInvariants(res)
		invNs += float64(time.Since(t))
		tr.end(id)
		if len(vs) > 0 {
			return fmt.Errorf("%s: %v", sp, vs[0])
		}

		id = tr.begin("trace.CriticalPaths+SummarizeCMA")
		t = time.Now()
		trace.CriticalPaths(res.Rec)
		trace.SummarizeCMA(res.Rec)
		anaNs += float64(time.Since(t))
		tr.end(id)
	}
	n := float64(len(w.pool))
	m["check.reference_us"] = refNs / n / 1e3
	m["check.invariants_us"] = invNs / n / 1e3
	m["trace.analyze_us"] = anaNs / n / 1e3

	// Probes at the generator's shapes: up to 12 ranks, payloads moved.
	var pageNs float64
	var pages int64
	for _, a := range arch.All() {
		ns, n, err := probeVMRead(tr, a, 11, 64<<10, true)
		if err != nil {
			return err
		}
		pageNs += ns
		pages += n
	}
	m["kernel.copy_ns_per_page"] = pageNs / float64(pages)
	us, err := probeShmRing(tr, arch.KNL(), 12, 64<<10, 50)
	if err != nil {
		return err
	}
	m["shm.sendrecv_us"] = us
	return nil
}
