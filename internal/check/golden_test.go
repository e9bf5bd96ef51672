package check

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// goldenPath pins RunOne's virtual latencies over a fixed Gen corpus.
// Each line is "<spec>\t<latency bits>\t<re-run latency bits>", the
// bits as math.Float64bits in hex; the re-run column is zero unless the
// kill path shrank the communicator. A refactor of the harness must
// leave every line unchanged; a deliberate model change regenerates the
// file from the "got" lines the failing test prints.
const goldenPath = "testdata/runone_latency.golden"

// goldenCorpus is the pinned corpus: the default generator with faults
// and kills on, plus the cluster arm. Between them they reach every
// RunOne path (asserted by TestRunOneGoldenCoversEveryPath).
func goldenCorpus() []Spec {
	var out []Spec
	for i := 0; i < 64; i++ {
		out = append(out, Gen(7, i, GenOptions{Faults: true, Kills: true}))
	}
	for i := 0; i < 16; i++ {
		out = append(out, Gen(7, i, GenOptions{Faults: true, Kills: true, Cluster: true}))
	}
	return out
}

func goldenLine(sp Spec, res *RunResult) string {
	var rerun float64
	if res.Recovery != nil {
		rerun = res.Recovery.RerunLatency
	}
	return fmt.Sprintf("%s\t%016x\t%016x", sp, math.Float64bits(res.Latency), math.Float64bits(rerun))
}

// TestRunOneGoldenLatency runs the corpus through RunOne (every spec
// must be green) and compares the latency bits with the golden file.
func TestRunOneGoldenLatency(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	corpus := goldenCorpus()
	if len(want) != len(corpus) {
		t.Fatalf("%s has %d lines, corpus has %d specs", goldenPath, len(want), len(corpus))
	}
	for i, sp := range corpus {
		res, err := RunOne(sp)
		if err != nil {
			t.Errorf("%s: %v", sp, err)
			continue
		}
		if got := goldenLine(sp, res); got != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got, want[i])
		}
	}
}

// TestRunOneGoldenCoversEveryPath keeps the corpus honest: it must
// reach the clean, fault, skew, ambient, kill, cluster and cluster-kill
// paths, or the golden pins less than it claims.
func TestRunOneGoldenCoversEveryPath(t *testing.T) {
	seen := map[string]int{}
	for _, sp := range goldenCorpus() {
		switch {
		case sp.Nodes > 0 && sp.Kills():
			seen["cluster-kill"]++
		case sp.Nodes > 0:
			seen["cluster"]++
		case sp.Kills():
			seen["kill"]++
		case sp.Faults != "":
			seen["fault"]++
		default:
			seen["clean"]++
		}
		if sp.Nodes == 0 && sp.Skew > 0 {
			seen["skew"]++
		}
		if sp.Ambient > 0 {
			seen["ambient"]++
		}
	}
	for _, class := range []string{"clean", "fault", "skew", "ambient", "kill", "cluster", "cluster-kill"} {
		if seen[class] == 0 {
			t.Errorf("golden corpus reaches no %s spec (counts %v)", class, seen)
		}
	}
}
