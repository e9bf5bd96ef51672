package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"camc/internal/store"
	"camc/internal/tuner"
)

// opKeys is a workload's op list as expectation keys, built the way its
// setup builds it but without running anything.
func opKeys(t *testing.T, name string, seed int64) []string {
	t.Helper()
	const seconds = 10
	var keys []string
	switch name {
	case "node-sweep":
		pool, err := nodePool()
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range passOrder(onePass(len(pool)), passCount(seconds, nodeSweepPassSeconds), seed) {
			keys = append(keys, pool[i].key())
		}
	case "world":
		pool := worldPool()
		for _, i := range passOrder(worldPass(pool), passCount(seconds, worldPassSeconds), seed) {
			keys = append(keys, pool[i].key())
		}
	case "oracle":
		pool := oraclePool()
		for _, i := range passOrder(onePass(len(pool)), passCount(seconds, oraclePassSeconds), seed) {
			keys = append(keys, pool[i].String())
		}
	case "tune":
		for _, o := range tuneStream(seed, seconds*tuneRequestsPerSecond) {
			k := "retune"
			if !o.retune {
				k = o.url() + " " + o.expectKey()
			}
			keys = append(keys, k)
		}
	default:
		t.Fatalf("no op list for %s", name)
	}
	return keys
}

func TestOpListIsPureFunctionOfSeed(t *testing.T) {
	for _, name := range workloadNames() {
		a, b, c := opKeys(t, name, 1), opKeys(t, name, 1), opKeys(t, name, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two op lists from seed 1 differ", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 give the same op list", name)
		}
	}
}

// Every op any seed can generate must have a recorded expectation.
func TestExpectationsCoverEveryShape(t *testing.T) {
	for _, name := range workloadNames() {
		exp, err := loadExpectations("expect", name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 3} {
			for _, k := range opKeys(t, name, seed) {
				if name == "tune" {
					if k == "retune" {
						continue
					}
					k = k[strings.LastIndex(k, " ")+1:]
				}
				if _, ok := exp[k]; !ok {
					t.Fatalf("%s seed %d: op %s has no recorded expectation", name, seed, k)
				}
			}
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: prints %s (%s), BENCHMARK.json has %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not runnable", w.Name)
		}
	}
}

// The 64-node clean cells must cover well over half a world pass and
// the kill cells at least a tenth of it, so that p50 and p90 fall
// inside those classes, not on the jump between them (see worldPass).
func TestWorldPassKeepsPercentilesInsideClasses(t *testing.T) {
	pool := worldPool()
	pass := worldPass(pool)
	var small, kills int
	for _, i := range pass {
		switch c := pool[i]; {
		case c.kills != nil:
			kills++
		case c.nodes == 64:
			small++
		}
	}
	n := float64(len(pass))
	if share := float64(small) / n; share < 0.65 || share > 0.8 {
		t.Errorf("64-node clean cells are %.2f of a pass, want 0.65-0.8", share)
	}
	if k := float64(kills) / n; k < 0.1 {
		t.Errorf("kill cells are %.2f of a pass, want at least 0.1", k)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i)
		}
		return v
	}
	if p, err := percentile(seq(100), 0.9); err != nil || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 beyond", p, err)
	}
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was not refused")
	}
	if _, err := percentile(seq(20), 0.5); err != nil {
		t.Errorf("p50 of 20 samples: %v", err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond) was not refused")
	}
}

func TestTuneWarmUpLeavesStreamKeysCold(t *testing.T) {
	w := &tune{}
	if err := w.setup(&env{seed: 1, seconds: 1}); err != nil {
		t.Fatal(err)
	}
	pairs := int64(len(tuneArchs) * len(tuner.Kinds()))
	if w.warm.Misses != pairs || w.warm.Hits != w.warmN-pairs || w.warm.Retunes != 1 {
		t.Fatalf("warm-up stats %+v after %d requests: want %d misses, the rest hits, 1 retune", w.warm, w.warmN, pairs)
	}
	// The stream never uses the warm-up's rank count, and its first
	// request to a key is still a miss.
	seen := map[uint8]bool{}
	for _, o := range w.ops {
		if !o.retune && !strings.Contains(o.url(), fmt.Sprintf("procs=%d&", tuneProcs)) {
			t.Fatalf("stream request %s is not at %d ranks", o.url(), tuneProcs)
		}
		if o.retune || seen[o.key] || len(seen) == 3 {
			continue
		}
		seen[o.key] = true
		k := o.tkey()
		resp, err := w.svc.Plan(tuner.PlanRequest{Arch: k.arch, Procs: tuneProcs, Kind: k.kind, Size: tuneRequestSizes[o.size], Ambient: o.ambient()})
		if err != nil || resp.Cached {
			t.Errorf("first plan for stream key %+v after warm-up: cached=%v err=%v", k, resp.Cached, err)
		}
	}
}

// One flipped expectation must fail exactly the ops of that shape and
// name them.
func TestFlippedExpectationFailsNamedOp(t *testing.T) {
	pool, err := nodePool()
	if err != nil {
		t.Fatal(err)
	}
	var cheap []nodeCell
	for _, c := range pool {
		if c.a.Name == "broadwell" && c.size == 4<<10 && c.mix == nil {
			cheap = append(cheap, c)
		}
	}
	exp, err := loadExpectations("expect", "node-sweep")
	if err != nil {
		t.Fatal(err)
	}
	run := func(exp expectations) loopStats {
		w := &nodeSweep{pool: cheap, ops: passOrder(onePass(len(cheap)), 2, 1)}
		if w.st, err = store.Open(t.TempDir(), store.Options{}); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		return timedLoop(w, nil, exp)
	}
	if ls := run(exp); ls.failed != 0 {
		t.Fatalf("unflipped expectations: %d failed: %v", ls.failed, ls.failures)
	}
	victim := cheap[0].key()
	flipped := expectations{}
	for k, v := range exp {
		flipped[k] = v
	}
	flipped[victim] = []string{"0000000000000000"}
	ls := run(flipped)
	if ls.failed != 2 {
		t.Fatalf("flipped %s: %d ops failed, want its 2 ops", victim, ls.failed)
	}
	if ok := float64(ls.ops-ls.failed) / float64(ls.ops); ok >= 1 {
		t.Fatalf("ok_ratio %v with a flipped expectation", ok)
	}
	for _, f := range ls.failures {
		if !strings.Contains(f, victim) {
			t.Errorf("failure %q does not name %s", f, victim)
		}
	}
}
