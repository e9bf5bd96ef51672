package measure

import (
	"math"
	"strings"
	"testing"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/mpi"
)

// wrongRoot wraps a rooted algorithm so it runs at the rank after the
// caller's root: the collective completes, but its bytes land per the
// wrong root.
func wrongRoot(run func(*mpi.Rank, core.Args)) func(*mpi.Rank, core.Args) {
	return func(r *mpi.Rank, a core.Args) {
		a.Root = (a.Root + 1) % r.Size()
		run(r, a)
	}
}

// TestHarnessesRejectWrongRoot: every payload-carrying harness in this
// package checks its receive buffers against core.Reference, so an
// algorithm that roots at the wrong rank fails each of them.
func TestHarnessesRejectWrongRoot(t *testing.T) {
	a := arch.Broadwell()
	kinds := []core.Kind{core.KindScatter, core.KindGather, core.KindBcast, core.KindReduce}
	harnesses := []struct {
		name string
		run  func(kind core.Kind, al core.Algorithm) error
	}{
		{"CollectiveChecked", func(kind core.Kind, al core.Algorithm) error {
			_, _, err := CollectiveChecked(a, kind, wrongRoot(al.Run), 4<<10, Options{Procs: 6})
			return err
		}},
		{"CollectiveRecovered", func(kind core.Kind, al core.Algorithm) error {
			al.Run = wrongRoot(al.Run)
			_, err := collectiveRecovered(a, kind, al, "tuned", 4<<10, Options{Procs: 6}, nil)
			return err
		}},
		{"ClusterRecovered", func(kind core.Kind, _ core.Algorithm) error {
			resolve := func(cl *cluster.Cluster) (string, func(*cluster.Rank, cluster.Args), error) {
				name, run, err := lookup(kind, cluster.DesignLeader, "tuned")(cl)
				world := cl.WorldSize()
				return name, func(r *cluster.Rank, a cluster.Args) {
					a.Root = (a.Root + 1) % world
					run(r, a)
				}, err
			}
			_, err := clusterRecovered(a, kind, resolve, "tuned", 1<<10,
				ClusterOptions{Nodes: 2, PPN: 3, CopyData: true}, nil)
			return err
		}},
	}
	for _, h := range harnesses {
		for _, kind := range kinds {
			al, err := core.LookupAlgorithm(kind, "tuned")
			if err != nil {
				t.Fatal(err)
			}
			err = h.run(kind, al)
			if err == nil || !strings.Contains(err.Error(), "mismatch") {
				t.Errorf("%s/%s: wrong-root algorithm not rejected by the oracle: %v", h.name, kind, err)
			}
		}
	}
}

// TestReduceShapeMatchesGatherShape: reduce used to be measured under
// the gather buffer shape (p*count receive buffers); core.BufSizes now
// gives it (count, count). The reduce algorithms address only the
// leading count bytes of either buffer, so the latency is bit-identical
// under both shapes.
func TestReduceShapeMatchesGatherShape(t *testing.T) {
	algos := append(core.ReduceAlgorithms(2, 4), core.Algorithm{Name: "tuned", Run: core.TunedReduce})
	for _, a := range arch.All() {
		for _, al := range algos {
			for _, procs := range []int{5, 8} {
				for _, size := range []int64{512, 64 << 10} {
					opts := Options{Procs: procs}
					red := Collective(a, core.KindReduce, al.Run, size, opts)
					gat := Collective(a, core.KindGather, al.Run, size, opts)
					if math.Float64bits(red) != math.Float64bits(gat) {
						t.Errorf("%s %s p=%d size=%d: reduce shape %v, gather shape %v",
							a.Name, al.Name, procs, size, red, gat)
					}
				}
			}
		}
	}
}
